//! The approximate evaluation engine: `Â(Q, LB) = Q̂(Ph₂(LB))`.

use crate::disagree::{alpha_additions_for_ne, alpha_relation, DisagreeScratch};
use crate::ne_store::{NeBits, NeStore};
use crate::rewrite::{rewrite_query, AlphaMode};
use qld_algebra::{compile::eval_via_algebra, CompileError, ExecOptions};
use qld_core::CwDatabase;
use qld_logic::{Formula, LogicError, PredId, Query, Vocabulary};
use qld_physical::Elem;
use qld_physical::{eval_query, PhysicalDb, Relation};
use std::fmt;

/// Errors from the approximation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApproxError {
    /// Ill-formed query.
    Logic(LogicError),
    /// The algebra backend refused the rewritten query.
    Compile(CompileError),
}

impl fmt::Display for ApproxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxError::Logic(e) => write!(f, "{e}"),
            ApproxError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ApproxError {}

impl From<LogicError> for ApproxError {
    fn from(e: LogicError) -> Self {
        ApproxError::Logic(e)
    }
}

impl From<CompileError> for ApproxError {
    fn from(e: CompileError) -> Self {
        ApproxError::Compile(e)
    }
}

/// Which machinery executes the rewritten query `Q̂`.
#[derive(Debug, Clone, Copy, Default)]
pub enum Backend {
    /// The naive Tarskian evaluator of `qld-physical`.
    #[default]
    Naive,
    /// Compile `Q̂` to relational algebra and run it on the engine of
    /// `qld-algebra` — §5's "top of a standard database management
    /// system". First-order queries only.
    Algebra(ExecOptions),
}

/// A logical database prepared for approximate querying.
///
/// Construction materializes, in polynomial time:
/// * `Ph₂(LB)` — the facts plus the `NE` relation;
/// * one `α_P` relation per predicate (the provably-false tuples);
/// * optionally the virtual-NE relations `NE′` and `U`.
///
/// Beside them it keeps what maintaining the `α_P` relations needs: the
/// uniqueness axioms as a bit matrix and one disagreement scratch.
#[derive(Debug, Clone)]
pub struct ApproxEngine {
    voc: Vocabulary,
    db: PhysicalDb,
    ne: PredId,
    alpha: Vec<PredId>,
    ne_prime: PredId,
    u: PredId,
    virtual_ne: bool,
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
    /// Builds the engine with the explicit `NE` relation (the default).
    pub fn new(cw: &CwDatabase) -> ApproxEngine {
        Self::build(cw, false)
    }

    /// Builds the engine with the virtual `NE` representation: `NE` stays
    /// empty; `Q̂`'s `NE(x,y)` atoms expand into
    /// `NE′(x,y) ∨ (¬U(x) ∧ ¬U(y) ∧ ¬(x=y))`.
    pub fn with_virtual_ne(cw: &CwDatabase) -> ApproxEngine {
        Self::build(cw, true)
    }

    fn build(cw: &CwDatabase, virtual_ne: bool) -> ApproxEngine {
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
        let ne_prime = voc.add_fresh_pred("NE_PRIME", 2);
        let u = voc.add_fresh_pred("U", 1);

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
        if virtual_ne {
            if let NeStore::Virtual {
                unknown,
                ne_prime: stored,
            } = NeStore::virtualized(cw)
            {
                builder = builder.relation(u, Relation::from_rows(1, unknown.iter().map(|&e| [e])));
                builder = builder.relation(ne_prime, stored);
            }
            // NE left empty: every probe must go through the expansion.
        } else {
            builder = builder.relation(ne, ne_bits.to_relation());
        }
        ApproxEngine {
            db: builder
                .build()
                .expect("extended interpretation is valid by construction"),
            voc,
            ne,
            alpha,
            ne_prime,
            u,
            virtual_ne,
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
    /// * a new axiom extends the `NE` store by insertion (explicit mode)
    ///   and can only *grow* every `α_P` — only the complement of the
    ///   current `α_P` is rechecked ([`alpha_additions_for_ne`]). In
    ///   virtual-`NE` mode the `U`/`NE′` relations are re-derived (the
    ///   known-clique heuristic is non-local, and both relations are
    ///   small by design on the mostly-known databases the mode targets).
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
        }
        if self.virtual_ne {
            // The known-clique classification can change globally; rebuild
            // the (small) virtual store and swap the two relations.
            if let NeStore::Virtual { unknown, ne_prime } = NeStore::virtualized(cw) {
                self.db
                    .set_relation(self.u, Relation::from_rows(1, unknown.iter().map(|&e| [e])))
                    .expect("U stays within the domain");
                self.db
                    .set_relation(self.ne_prime, ne_prime)
                    .expect("NE' stays within the domain");
            }
        } else {
            for &(a, b) in new_ne {
                for pair in [[a, b], [b, a]] {
                    self.db
                        .insert_tuple(self.ne, &pair)
                        .expect("delta axiom was validated against the vocabulary");
                }
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

    /// The extended vocabulary `L′` plus the `α_P` (and virtual-NE)
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

    /// The `NE` predicate id in the extended vocabulary.
    pub fn ne_pred(&self) -> PredId {
        self.ne
    }

    /// The `α_P` predicate for each original predicate, indexed by
    /// `PredId`.
    pub fn alpha_preds(&self) -> &[PredId] {
        &self.alpha
    }

    /// Rewrites `Q ↦ Q̂` (checking the query first), expanding `NE` atoms
    /// when the engine is in virtual-NE mode.
    pub fn rewrite(&self, query: &Query, mode: AlphaMode) -> Result<Query, ApproxError> {
        query.check(&self.voc)?;
        let rewritten = rewrite_query(query, self.ne, &self.alpha, mode);
        if !self.virtual_ne {
            return Ok(rewritten);
        }
        let (head, body) = rewritten.into_parts();
        let expanded = self.expand_ne(&body);
        Ok(Query::new(head, expanded).expect("expansion preserves free variables"))
    }

    fn expand_ne(&self, f: &Formula) -> Formula {
        match f {
            Formula::Atom(p, ts) if *p == self.ne => {
                debug_assert_eq!(ts.len(), 2);
                NeStore::defining_formula(self.ne_prime, self.u, ts[0], ts[1])
            }
            Formula::True
            | Formula::False
            | Formula::Atom(..)
            | Formula::SoAtom(..)
            | Formula::Eq(..) => f.clone(),
            Formula::Not(g) => Formula::Not(Box::new(self.expand_ne(g))),
            Formula::And(fs) => Formula::And(fs.iter().map(|g| self.expand_ne(g)).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(|g| self.expand_ne(g)).collect()),
            Formula::Implies(p, q) => {
                Formula::Implies(Box::new(self.expand_ne(p)), Box::new(self.expand_ne(q)))
            }
            Formula::Iff(p, q) => {
                Formula::Iff(Box::new(self.expand_ne(p)), Box::new(self.expand_ne(q)))
            }
            Formula::Exists(v, g) => Formula::Exists(*v, Box::new(self.expand_ne(g))),
            Formula::Forall(v, g) => Formula::Forall(*v, Box::new(self.expand_ne(g))),
            Formula::SoExists(r, k, g) => Formula::SoExists(*r, *k, Box::new(self.expand_ne(g))),
            Formula::SoForall(r, k, g) => Formula::SoForall(*r, *k, Box::new(self.expand_ne(g))),
        }
    }

    /// Approximate answers with the default pipeline (materialized `α_P`,
    /// naive evaluation).
    pub fn eval(&self, query: &Query) -> Result<Relation, ApproxError> {
        self.eval_with(query, AlphaMode::Materialized, Backend::Naive)
    }

    /// Approximate answers with explicit mode and backend.
    pub fn eval_with(
        &self,
        query: &Query,
        mode: AlphaMode,
        backend: Backend,
    ) -> Result<Relation, ApproxError> {
        let rewritten = self.rewrite(query, mode)?;
        match backend {
            Backend::Naive => Ok(eval_query(&self.db, &rewritten)),
            Backend::Algebra(opts) => Ok(eval_via_algebra(&self.voc, &self.db, &rewritten, opts)?),
        }
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
    fn lemma10_mode_matches_materialized() {
        let db = teaching();
        let engine = ApproxEngine::new(&db);
        for input in QUERIES {
            let q = parse_query(db.voc(), input).unwrap();
            let a = engine
                .eval_with(&q, AlphaMode::Materialized, Backend::Naive)
                .unwrap();
            let b = engine
                .eval_with(&q, AlphaMode::Lemma10, Backend::Naive)
                .unwrap();
            assert_eq!(a, b, "alpha modes disagree on {input}");
        }
    }

    #[test]
    fn algebra_backend_matches_naive() {
        let db = teaching();
        let engine = ApproxEngine::new(&db);
        for input in QUERIES {
            let q = parse_query(db.voc(), input).unwrap();
            let naive = engine.eval(&q).unwrap();
            let algebra = engine
                .eval_with(
                    &q,
                    AlphaMode::Materialized,
                    Backend::Algebra(ExecOptions::default()),
                )
                .unwrap();
            assert_eq!(naive, algebra, "backends disagree on {input}");
        }
    }

    #[test]
    fn virtual_ne_matches_explicit() {
        let db = teaching();
        let explicit = ApproxEngine::new(&db);
        let virt = ApproxEngine::with_virtual_ne(&db);
        for input in QUERIES {
            let q = parse_query(db.voc(), input).unwrap();
            for mode in [AlphaMode::Materialized, AlphaMode::Lemma10] {
                assert_eq!(
                    explicit.eval_with(&q, mode, Backend::Naive).unwrap(),
                    virt.eval_with(&q, mode, Backend::Naive).unwrap(),
                    "virtual NE disagrees on {input} ({mode:?})"
                );
            }
        }
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
        for virtual_ne in [false, true] {
            let mut cw = db0.clone();
            let mut engine = if virtual_ne {
                ApproxEngine::with_virtual_ne(&cw)
            } else {
                ApproxEngine::new(&cw)
            };
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
                let rebuilt = if virtual_ne {
                    ApproxEngine::with_virtual_ne(&cw)
                } else {
                    ApproxEngine::new(&cw)
                };
                assert_eq!(
                    engine.extended_db(),
                    rebuilt.extended_db(),
                    "incremental Ph₂/α/NE diverged after ({kind}, {a}, {b}), virtual={virtual_ne}"
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
