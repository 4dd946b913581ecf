//! The approximate evaluation engine: `Â(Q, LB) = Q̂(Ph₂(LB))`.

use crate::disagree::{alpha_additions_for_ne, alpha_relation, DisagreeScratch};
use crate::ne_store::NeBits;
use crate::rewrite::{rewrite_query, AlphaMode};
use qld_core::CwDatabase;
use qld_logic::{Formula, LogicError, PredId, Query, Vocabulary};
use qld_physical::Elem;
use qld_physical::{eval_query, PhysicalDb, Relation};

/// A logical database prepared for approximate querying.
///
/// Construction materializes, in polynomial time:
/// * `Ph₂(LB)` — the facts plus the `NE` relation;
/// * one `α_P` relation per predicate (the provably-false tuples).
///
/// Beside them it keeps what maintaining the `α_P` relations needs: the
/// uniqueness axioms as a bit matrix and one disagreement scratch.
#[derive(Debug, Clone)]
pub struct ApproxEngine {
    voc: Vocabulary,
    db: PhysicalDb,
    ne: PredId,
    alpha: Vec<PredId>,
    ne_bits: NeBits,
    scratch: DisagreeScratch,
}

// The §5 engine is embedded in snapshots served across threads by the
// concurrent layer; enforce shareability at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ApproxEngine>();
};

impl ApproxEngine {
    /// Builds `Ph₂(LB)` and the `α_P` relations of `cw`.
    pub fn new(cw: &CwDatabase) -> ApproxEngine {
        let mut voc = cw.voc().clone();
        let ne = voc.add_fresh_pred("NE", 2);
        let alpha: Vec<PredId> = cw
            .voc()
            .preds()
            .map(|p| {
                let name = format!("ALPHA_{}", cw.voc().pred_name(p));
                let arity = cw.voc().pred_arity(p);
                voc.add_fresh_pred(&name, arity)
            })
            .collect();

        let n = cw.num_consts() as u32;
        let ne_bits = NeBits::new(cw);
        let mut scratch = DisagreeScratch::new();
        let mut builder = PhysicalDb::builder(&voc).domain(0..n);
        for c in voc.consts() {
            builder = builder.constant(c, c.0);
        }
        for p in cw.voc().preds() {
            builder = builder.relation(p, cw.facts(p).clone());
            let alpha_p = alpha_relation(cw, p, &ne_bits, &mut scratch);
            builder = builder.relation(alpha[p.index()], alpha_p);
        }
        builder = builder.relation(ne, ne_bits.to_relation());
        ApproxEngine {
            db: builder
                .build()
                .expect("extended interpretation is valid by construction"),
            voc,
            ne,
            alpha,
            ne_bits,
            scratch,
        }
    }

    /// Applies a database delta to the materialized §5 structures in
    /// place — **no** re-derivation of `Ph₂(LB)`, the `α_P` relations, or
    /// the `NE` store from scratch.
    ///
    /// `cw` must be the closed-world database *after* the delta;
    /// `new_facts` the facts that were actually inserted (duplicates
    /// filtered out by the caller), and `new_ne` the uniqueness axioms
    /// actually added (normalized `(lo, hi)` pairs). The refresh is
    /// incremental in both directions the theory permits:
    ///
    /// * a new fact of `P` extends the base relation by a sorted insert
    ///   and can only *shrink* `α_P` — one retain pass keeps exactly the
    ///   tuples that disagree with the new fact (nothing else changes);
    /// * a new axiom extends the `NE` relation by insertion and can only
    ///   *grow* every `α_P` — only the complement of the current `α_P` is
    ///   rechecked ([`alpha_additions_for_ne`]).
    ///
    /// The result is equal to `ApproxEngine::new(cw)` (property-tested in
    /// the delta differential suite); the cost is proportional to what
    /// changed, not to the database.
    pub fn apply_delta(
        &mut self,
        cw: &CwDatabase,
        new_facts: &[(PredId, Box<[Elem]>)],
        new_ne: &[(Elem, Elem)],
    ) {
        let (ne_bits, scratch) = (&mut self.ne_bits, &mut self.scratch);
        for (p, tuple) in new_facts {
            self.db
                .insert_tuple(*p, tuple)
                .expect("delta fact was validated against the vocabulary");
            let alpha_p = self.alpha[p.index()];
            self.db
                .retain_tuples(alpha_p, |t| scratch.disagrees(ne_bits, t, tuple));
        }
        if new_ne.is_empty() {
            return;
        }
        for &(a, b) in new_ne {
            ne_bits.insert(a, b);
            for pair in [[a, b], [b, a]] {
                self.db
                    .insert_tuple(self.ne, &pair)
                    .expect("delta axiom was validated against the vocabulary");
            }
        }
        for p in cw.voc().preds() {
            let alpha_p = self.alpha[p.index()];
            let additions =
                alpha_additions_for_ne(cw, p, self.db.relation(alpha_p), ne_bits, scratch);
            if additions.is_empty() {
                continue;
            }
            let current = self.db.relation(alpha_p);
            let merged = Relation::from_rows(current.arity(), current.iter().chain(&additions));
            self.db
                .set_relation(alpha_p, merged)
                .expect("α tuples stay within the domain");
        }
    }

    /// The extended vocabulary `L′` (`L` plus `NE`) plus the `α_P`
    /// predicates.
    pub fn extended_voc(&self) -> &Vocabulary {
        &self.voc
    }

    /// The extended physical database the engine evaluates against.
    pub fn extended_db(&self) -> &PhysicalDb {
        &self.db
    }

    /// How many union-find disagreement tests this engine has run, build
    /// and deltas together (a clone carries its original's count on).
    pub fn disagree_tests(&self) -> u64 {
        self.scratch.tests()
    }

    /// How many tuples of `C^k` the `α_P` builds and rechecks of this
    /// engine have visited, build and deltas together (a clone carries
    /// its original's count on).
    pub fn alpha_rows_visited(&self) -> u64 {
        self.scratch.rows_visited()
    }

    /// The `NE` predicate id in the extended vocabulary.
    pub fn ne_pred(&self) -> PredId {
        self.ne
    }

    /// The `α_P` predicate for each original predicate, indexed by
    /// `PredId`.
    pub fn alpha_preds(&self) -> &[PredId] {
        &self.alpha
    }

    /// Rewrites `Q ↦ Q̂` (checking the query first). `AlphaMode` has one
    /// variant, [`AlphaMode::Materialized`].
    pub fn rewrite(&self, query: &Query, _mode: AlphaMode) -> Result<Query, LogicError> {
        query.check(&self.voc)?;
        Ok(rewrite_query(query, self.ne, &self.alpha))
    }

    /// The upper side of the over-budget bracket: `¬(¬Q)^`, whose answers
    /// over [`ApproxEngine::extended_db`] are the tuples of `Cᵏ` outside
    /// approx(¬Q). `t` certainly *not* an answer means `t` is an answer
    /// in no model, so approx(¬Q) ⊆ certain(¬Q) excludes only
    /// non-answers, and the result contains `Q(LB)`.
    ///
    /// The negation is distributed over the top-level disjuncts of
    /// `(¬Q)^` and no further, so that each negated disjunct is a
    /// conjunct the head loop tests as soon as its variables are bound,
    /// while the quantifiers inside a disjunct keep the guards `(¬Q)^`
    /// gave them.
    pub fn upper_bound_query(&self, query: &Query) -> Result<Query, LogicError> {
        let (head, body) = query.clone().into_parts();
        let negated = Query::new(head, Formula::not(body))?;
        let (head, neg_hat) = self
            .rewrite(&negated, AlphaMode::Materialized)?
            .into_parts();
        let mut outside = Vec::new();
        negate_disjuncts(neg_hat, &mut outside);
        Query::new(head, Formula::And(outside))
    }

    /// Approximate answers: `Q̂` evaluated by the Tarskian evaluator over
    /// the extended database.
    pub fn eval(&self, query: &Query) -> Result<Relation, LogicError> {
        Ok(eval_query(
            &self.db,
            &self.rewrite(query, AlphaMode::Materialized)?,
        ))
    }
}

/// Pushes `¬d` for each top-level disjunct `d` of `f` (through nested
/// `∨`), so that the conjunction of `out` is `¬f`.
fn negate_disjuncts(f: Formula, out: &mut Vec<Formula>) {
    match f {
        Formula::Or(ds) => ds.into_iter().for_each(|d| negate_disjuncts(d, out)),
        d => out.push(Formula::not(d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_core::{certain_answers, CwDatabase};
    use qld_logic::parser::parse_query;

    /// §2.2-flavoured database: socrates/plato/aristotle pairwise
    /// distinct; `mystery` a null. TEACHES(socrates, plato).
    fn teaching() -> CwDatabase {
        let mut voc = Vocabulary::new();
        let ids = voc
            .add_consts(["socrates", "plato", "aristotle", "mystery"])
            .unwrap();
        let teaches = voc.add_pred("TEACHES", 2).unwrap();
        CwDatabase::builder(voc)
            .fact(teaches, &[ids[0], ids[1]])
            .pairwise_unique(&ids[..3])
            .build()
            .unwrap()
    }

    const QUERIES: &[&str] = &[
        "(x) . TEACHES(socrates, x)",
        "(x) . !TEACHES(socrates, x)",
        "(x, y) . TEACHES(x, y)",
        "(x) . x != plato",
        "(x) . !TEACHES(x, x) & x != mystery",
        "exists x. TEACHES(x, plato)",
        "forall x. TEACHES(socrates, x) -> x != aristotle",
        "(x) . TEACHES(socrates, x) | x = socrates",
        "!TEACHES(plato, socrates)",
    ];

    #[test]
    fn soundness_theorem_11() {
        let db = teaching();
        let engine = ApproxEngine::new(&db);
        for input in QUERIES {
            let q = parse_query(db.voc(), input).unwrap();
            let approx = engine.eval(&q).unwrap();
            let exact = certain_answers(&db, &q).unwrap();
            assert!(
                approx.is_subset_of(&exact),
                "unsound on {input}: {approx:?} ⊄ {exact:?}"
            );
        }
    }

    #[test]
    fn completeness_on_fully_specified_theorem_12() {
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "c"]).unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let db = CwDatabase::builder(voc)
            .fact(r, &[ids[0], ids[1]])
            .fact(r, &[ids[1], ids[2]])
            .fully_specified()
            .build()
            .unwrap();
        let engine = ApproxEngine::new(&db);
        for input in [
            "(x) . !R(x, x)",
            "(x, y) . R(x, y) & x != y",
            "(x) . exists y. R(x, y) & !R(y, x)",
            "forall x. !R(x, x)",
        ] {
            let q = parse_query(db.voc(), input).unwrap();
            assert_eq!(
                engine.eval(&q).unwrap(),
                certain_answers(&db, &q).unwrap(),
                "incomplete on fully specified db: {input}"
            );
        }
    }

    #[test]
    fn completeness_on_positive_queries_theorem_13() {
        let db = teaching();
        let engine = ApproxEngine::new(&db);
        for input in [
            "(x) . TEACHES(socrates, x)",
            "(x, y) . TEACHES(x, y)",
            "exists x, y. TEACHES(x, y)",
            "(x) . TEACHES(socrates, x) | TEACHES(x, socrates)",
        ] {
            let q = parse_query(db.voc(), input).unwrap();
            assert!(q.is_positive());
            assert_eq!(
                engine.eval(&q).unwrap(),
                certain_answers(&db, &q).unwrap(),
                "incomplete on positive query: {input}"
            );
        }
    }

    #[test]
    fn known_incompleteness_example() {
        // P(u) ∨ u ≠ a is a tautology over the models (excluded middle on
        // h(u) = h(a)), hence certain — but the approximation can neither
        // prove P(u) nor NE(u, a). Sound, not complete.
        let mut voc = Vocabulary::new();
        let ids = voc.add_consts(["a", "b", "u"]).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        let db = CwDatabase::builder(voc)
            .fact(p, &[ids[0]])
            .unique(ids[0], ids[1])
            .build()
            .unwrap();
        let q = parse_query(db.voc(), "P(u) | u != a").unwrap();
        let exact = certain_answers(&db, &q).unwrap();
        assert_eq!(exact.len(), 1, "the disjunction is certain");
        let engine = ApproxEngine::new(&db);
        let approx = engine.eval(&q).unwrap();
        assert!(approx.is_empty(), "the approximation must miss it");
    }

    #[test]
    fn second_order_query_soundness() {
        let db = teaching();
        let engine = ApproxEngine::new(&db);
        // ∃S: everything S contains is taught by socrates, S(plato), and
        // ¬S(aristotle) — the negated predicate-variable atom goes through
        // the α machinery.
        let q = parse_query(
            db.voc(),
            "exists2 ?S:1. (forall x. ?S(x) -> TEACHES(socrates, x)) & ?S(plato) & !?S(aristotle)",
        )
        .unwrap();
        let approx = engine.eval(&q).unwrap();
        let exact = certain_answers(&db, &q).unwrap();
        assert!(approx.is_subset_of(&exact));
    }

    #[test]
    fn apply_delta_matches_rebuild() {
        use qld_logic::ConstId;
        let db0 = teaching();
        let teaches = db0.voc().pred_id("TEACHES").unwrap();
        // A mixed delta script: facts touching the null, then new axioms
        // (including one that pins the null down), then more facts.
        let script: &[(&str, u32, u32)] = &[
            ("fact", 2, 3), // TEACHES(aristotle, mystery)
            ("fact", 3, 3), // TEACHES(mystery, mystery)
            ("ne", 3, 0),   // mystery ≠ socrates
            ("fact", 1, 0), // TEACHES(plato, socrates)
            ("ne", 3, 1),   // mystery ≠ plato
        ];
        let mut cw = db0.clone();
        let mut engine = ApproxEngine::new(&cw);
        for &(kind, a, b) in script {
            type FactDelta = Vec<(qld_logic::PredId, Box<[Elem]>)>;
            let (new_facts, new_ne): (FactDelta, Vec<(Elem, Elem)>) = match kind {
                "fact" => {
                    assert!(cw.insert_fact(teaches, &[ConstId(a), ConstId(b)]).unwrap());
                    (vec![(teaches, vec![a, b].into_boxed_slice())], vec![])
                }
                _ => {
                    assert!(cw.insert_ne(ConstId(a), ConstId(b)).unwrap());
                    (vec![], vec![(a.min(b), a.max(b))])
                }
            };
            engine.apply_delta(&cw, &new_facts, &new_ne);
            let rebuilt = ApproxEngine::new(&cw);
            assert_eq!(
                engine.extended_db(),
                rebuilt.extended_db(),
                "incremental Ph₂/α/NE diverged after ({kind}, {a}, {b})"
            );
            // And the answers it produces agree too.
            for input in QUERIES {
                let q = parse_query(cw.voc(), input).unwrap();
                assert_eq!(
                    engine.eval(&q).unwrap(),
                    rebuilt.eval(&q).unwrap(),
                    "answers diverged on {input} after ({kind}, {a}, {b})"
                );
            }
        }
    }

    /// `L′` is `L`, `NE` and one `α_P` per predicate, and nothing else.
    #[test]
    fn extended_vocabulary_is_l_ne_and_one_alpha_per_predicate() {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b"]).unwrap();
        voc.add_pred("R", 2).unwrap();
        voc.add_pred("M", 1).unwrap();
        voc.add_pred("S", 3).unwrap();
        let db = CwDatabase::builder(voc).build().unwrap();
        for db in [db, teaching()] {
            let engine = ApproxEngine::new(&db);
            let l = db.voc().num_preds();
            assert_eq!(engine.extended_voc().num_preds(), 2 * l + 1);
            assert_eq!(engine.alpha_preds().len(), l);
        }
    }

    /// `I(NE)` is the symmetric closure of the uniqueness axioms — built
    /// here from `ne_pairs()` directly, not through the engine's bit
    /// matrix — before and after an `NE` delta.
    #[test]
    fn ph2_has_symmetric_ne() {
        let symmetric_closure = |db: &CwDatabase| {
            Relation::from_rows(2, db.ne_pairs().iter().flat_map(|&(a, b)| [[a, b], [b, a]]))
        };
        let mut db = teaching();
        let mut engine = ApproxEngine::new(&db);
        assert_eq!(engine.extended_voc().pred_name(engine.ne_pred()), "NE");
        let ne = engine.extended_db().relation(engine.ne_pred());
        assert_eq!(ne.len(), 6);
        assert_eq!(ne, &symmetric_closure(&db));
        let (mystery, plato) = (qld_logic::ConstId(3), qld_logic::ConstId(1));
        assert!(db.insert_ne(mystery, plato).unwrap());
        engine.apply_delta(&db, &[], &[(1, 3)]);
        let ne = engine.extended_db().relation(engine.ne_pred());
        assert_eq!(ne.len(), 8);
        assert_eq!(ne, &symmetric_closure(&db));
    }

    #[test]
    fn ph2_avoids_name_collision() {
        let mut voc = Vocabulary::new();
        voc.add_const("a").unwrap();
        voc.add_pred("NE", 2).unwrap(); // user already has an NE
        let db = CwDatabase::builder(voc).build().unwrap();
        let engine = ApproxEngine::new(&db);
        assert_eq!(engine.extended_voc().pred_name(engine.ne_pred()), "NE_1");
    }

    #[test]
    fn duplicate_free_delta_is_noop() {
        let db = teaching();
        let mut engine = ApproxEngine::new(&db);
        let before = engine.extended_db().clone();
        engine.apply_delta(&db, &[], &[]);
        assert_eq!(engine.extended_db(), &before);
    }

    #[test]
    fn rewrite_checks_vocabulary() {
        let db = teaching();
        let engine = ApproxEngine::new(&db);
        let mut other = Vocabulary::new();
        other.add_pred("NOPE", 1).unwrap();
        other.add_const("zzz").unwrap();
        let q = parse_query(&other, "exists x. NOPE(x)").unwrap();
        // NOPE resolves to PredId(0) = TEACHES (arity 2) in the engine's
        // vocabulary: the arity check must reject it.
        assert!(engine.rewrite(&q, AlphaMode::Materialized).is_err());
    }
}
