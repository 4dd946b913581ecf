//! The two §5 constructions the engine's one `Q̂` pipeline is checked
//! against: the literal Lemma 10 formula for `α_P`, and the virtual `NE`
//! store §5 closes with. Include by `#[path]` as `mod ne_store`.
//!
//! The engine materializes each `α_P` as a relation and stores `NE`
//! explicitly. Both references take the engine's `Q̂` and substitute into
//! it, so they share no rewrite recursion with the product:
//!
//! * [`lemma10_expand`] replaces each `α_P(t̄)` atom by the `O(k log k)`
//!   first-order formula `qld_logic::builders::alpha_p` builds;
//! * [`VirtualNe`] replaces each `NE(x, y)` atom by its virtual definition
//!   ([`virtual_ne_expand`]) and evaluates over a copy of `Ph₂(LB)` whose
//!   `NE` is empty and which holds the `U`/`NE′` relations instead.
//!
//! "In general it is impractical to have NE explicitly contain all pairs
//! of values we know are distinct, since then its size could be up to
//! quadratic in the number of values in the database. In practice most
//! values in the database are known values." The paper's fix: a unary
//! relation `U` of *unknown* values, a relation `NE′` with the explicitly
//! known inequalities touching them, and the virtual definition
//!
//! `NE(x, y) ≡ NE′(x, y) ∨ (¬U(x) ∧ ¬U(y) ∧ ¬(x = y))`.
//!
//! [`NeStore`] holds both representations over the same uniqueness
//! axioms; experiment E9 compares their sizes.

#![allow(dead_code)]

use querying_logical_databases::approx::ApproxEngine;
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::builders::{alpha_p, VarGen};
use querying_logical_databases::logic::{ConstId, Formula, PredId, Query, Term};
use querying_logical_databases::physical::{eval_query, Elem, PhysicalDb, Relation, RowWriter};

/// A queryable representation of the inequality relation `NE`.
#[derive(Debug, Clone)]
pub enum NeStore {
    /// All pairs, materialized (both orientations).
    Explicit {
        /// The symmetric pair set.
        pairs: Relation,
    },
    /// The paper's compressed representation.
    Virtual {
        /// Sorted ids of constants classified as *unknown*: constants not
        /// known to differ from every other constant.
        unknown: Vec<Elem>,
        /// Explicit inequalities involving at least one unknown value
        /// (both orientations).
        ne_prime: Relation,
    },
}

impl NeStore {
    /// Builds the explicit representation from the uniqueness axioms.
    pub fn explicit(db: &CwDatabase) -> NeStore {
        NeStore::Explicit {
            pairs: Relation::from_rows(
                2,
                db.ne_pairs().iter().flat_map(|&(a, b)| [[a, b], [b, a]]),
            ),
        }
    }

    /// Builds the virtual representation. The *known* set must be a set of
    /// constants that are **pairwise** covered by uniqueness axioms (so
    /// that "known ∧ known ∧ distinct ⇒ NE" is sound); we pick one
    /// greedily, highest NE-degree first — a heuristic for the maximum
    /// clique of the NE graph, which on the paper's "most values are
    /// known" databases recovers exactly the known values. Everything
    /// else goes to `U`, and every axiom not internal to the known set is
    /// kept in `NE′`.
    ///
    /// The representation is exact for **any** axiom set (round-trip
    /// tested): known–known pairs are axioms by the clique invariant, and
    /// all remaining axioms are retained explicitly.
    pub fn virtualized(db: &CwDatabase) -> NeStore {
        let n = db.num_consts();
        let degrees = db.ne_degrees();
        // Constants adjacent to *everything* form a clique for free; only
        // the (few, on mostly-known data) deficient constants need pairwise
        // checks against the clique built so far.
        let mut known: Vec<Elem> = (0..n as Elem)
            .filter(|&c| degrees[c as usize] + 1 == n)
            .collect();
        let mut rest: Vec<Elem> = (0..n as Elem)
            .filter(|&c| degrees[c as usize] + 1 < n)
            .collect();
        rest.sort_by_key(|&c| std::cmp::Reverse(degrees[c as usize]));
        for c in rest {
            if known.iter().all(|&k| db.is_ne(ConstId(c), ConstId(k))) {
                known.push(c);
            }
        }
        known.sort_unstable();
        let is_known = |e: Elem| known.binary_search(&e).is_ok();
        let unknown: Vec<Elem> = (0..n as Elem).filter(|&c| !is_known(c)).collect();
        let ne_prime = Relation::from_rows(
            2,
            db.ne_pairs()
                .iter()
                .filter(|&&(a, b)| !(is_known(a) && is_known(b)))
                .flat_map(|&(a, b)| [[a, b], [b, a]]),
        );
        NeStore::Virtual { unknown, ne_prime }
    }

    /// Is `¬(a = b)` an axiom?
    pub fn contains(&self, a: Elem, b: Elem) -> bool {
        match self {
            NeStore::Explicit { pairs } => pairs.contains(&[a, b]),
            NeStore::Virtual { unknown, ne_prime } => {
                if ne_prime.contains(&[a, b]) {
                    return true;
                }
                a != b && unknown.binary_search(&a).is_err() && unknown.binary_search(&b).is_err()
            }
        }
    }

    /// Number of stored tuples — the space proxy compared in E9
    /// (unknown-list entries count as one each).
    pub fn stored_entries(&self) -> usize {
        match self {
            NeStore::Explicit { pairs } => pairs.len(),
            NeStore::Virtual { unknown, ne_prime } => unknown.len() + ne_prime.len(),
        }
    }

    /// Materializes the full symmetric pair relation (used to check the
    /// two representations agree).
    pub fn to_relation(&self, num_consts: usize) -> Relation {
        match self {
            NeStore::Explicit { pairs } => pairs.clone(),
            NeStore::Virtual { .. } => {
                let mut pairs = RowWriter::new(2);
                for a in 0..num_consts as Elem {
                    for b in 0..num_consts as Elem {
                        if a != b && self.contains(a, b) {
                            pairs.push(&[a, b]);
                        }
                    }
                }
                pairs.finish()
            }
        }
    }

    /// The defining formula of the virtual representation:
    /// `NE(x, y) ≡ NE′(x, y) ∨ (¬U(x) ∧ ¬U(y) ∧ ¬(x = y))`, as a formula
    /// over predicates `ne_prime` and `u` with the given argument terms.
    pub fn defining_formula(ne_prime: PredId, u: PredId, a: Term, b: Term) -> Formula {
        Formula::or(vec![
            Formula::atom(ne_prime, [a, b]),
            Formula::and(vec![
                Formula::not(Formula::atom(u, [a])),
                Formula::not(Formula::atom(u, [b])),
                Formula::not(Formula::Eq(a, b)),
            ]),
        ])
    }
}

/// Replaces every atom `P(t̄)` of `f` for which `expand` returns a formula
/// by that formula, leaving everything else as it is.
fn substitute_atoms(
    f: &Formula,
    expand: &mut impl FnMut(PredId, &[Term]) -> Option<Formula>,
) -> Formula {
    if let Formula::Atom(p, ts) = f {
        return expand(*p, ts).unwrap_or_else(|| f.clone());
    }
    let mut sub = |g: &Formula| Box::new(substitute_atoms(g, expand));
    match f {
        Formula::True
        | Formula::False
        | Formula::Atom(..)
        | Formula::SoAtom(..)
        | Formula::Eq(..) => f.clone(),
        Formula::Not(g) => Formula::Not(sub(g)),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| *sub(g)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| *sub(g)).collect()),
        Formula::Implies(p, q) => Formula::Implies(sub(p), sub(q)),
        Formula::Iff(p, q) => Formula::Iff(sub(p), sub(q)),
        Formula::Exists(v, g) => Formula::Exists(*v, sub(g)),
        Formula::Forall(v, g) => Formula::Forall(*v, sub(g)),
        Formula::SoExists(r, k, g) => Formula::SoExists(*r, *k, sub(g)),
        Formula::SoForall(r, k, g) => Formula::SoForall(*r, *k, sub(g)),
    }
}

/// Lemma 10 over the engine's `Q̂`: every `α_P(t̄)` atom becomes the
/// first-order formula `alpha_p(P, …)` over `P` and `NE`, with fresh
/// variables allocated past every variable of `Q̂`. The result is valid
/// over [`ApproxEngine::extended_voc`] and mentions no `α_P` relation.
pub fn lemma10_expand(engine: &ApproxEngine, q_hat: &Query) -> Query {
    let max_var = q_hat
        .body()
        .max_var()
        .into_iter()
        .chain(q_hat.head().iter().copied())
        .max();
    let mut gen = VarGen::after(max_var);
    let (ne, alpha) = (engine.ne_pred(), engine.alpha_preds());
    let body = substitute_atoms(q_hat.body(), &mut |p, ts| {
        let original = alpha.iter().position(|&a| a == p)?;
        Some(alpha_p(PredId(original as u32), ts.len(), ne, ts, &mut gen))
    });
    Query::new(q_hat.head().to_vec(), body).expect("substitution preserves free variables")
}

/// The virtual `NE` substitution: every `NE(x, y)` atom of `f` becomes
/// `NE′(x, y) ∨ (¬U(x) ∧ ¬U(y) ∧ ¬(x = y))`.
pub fn virtual_ne_expand(f: &Formula, ne: PredId, ne_prime: PredId, u: PredId) -> Formula {
    substitute_atoms(f, &mut |p, ts| {
        (p == ne).then(|| NeStore::defining_formula(ne_prime, u, ts[0], ts[1]))
    })
}

/// `Ph₂(LB)` with the virtual `NE` store: the engine's extended database
/// with `NE` left empty — so every probe must go through the expansion —
/// plus fresh predicates `NE_PRIME` and `U` holding [`NeStore::virtualized`].
#[derive(Debug, Clone)]
pub struct VirtualNe {
    db: PhysicalDb,
    ne: PredId,
    ne_prime: PredId,
    u: PredId,
}

impl VirtualNe {
    /// The virtual store of `cw` beside `engine`'s extended database.
    pub fn new(cw: &CwDatabase, engine: &ApproxEngine) -> VirtualNe {
        let NeStore::Virtual {
            unknown,
            ne_prime: stored,
        } = NeStore::virtualized(cw)
        else {
            unreachable!("virtualized builds the virtual store")
        };
        let extended = engine.extended_db();
        let mut voc = engine.extended_voc().clone();
        let (ne, ne_prime, u) = (
            engine.ne_pred(),
            voc.add_fresh_pred("NE_PRIME", 2),
            voc.add_fresh_pred("U", 1),
        );
        let mut builder = PhysicalDb::builder(&voc).domain(extended.domain().iter().copied());
        for c in voc.consts() {
            builder = builder.constant(c, extended.const_val(c));
        }
        for p in engine.extended_voc().preds().filter(|&p| p != ne) {
            builder = builder.relation(p, extended.relation(p).clone());
        }
        let db = builder
            .relation(u, Relation::from_rows(1, unknown.iter().map(|&e| [e])))
            .relation(ne_prime, stored)
            .build()
            .expect("the virtual store stays within the domain");
        VirtualNe {
            db,
            ne,
            ne_prime,
            u,
        }
    }

    /// Evaluates `Q̂` with its `NE` atoms expanded ([`virtual_ne_expand`]).
    pub fn eval(&self, q_hat: &Query) -> Relation {
        let (head, body) = q_hat.clone().into_parts();
        let expanded = virtual_ne_expand(&body, self.ne, self.ne_prime, self.u);
        eval_query(
            &self.db,
            &Query::new(head, expanded).expect("expansion preserves free variables"),
        )
    }
}
