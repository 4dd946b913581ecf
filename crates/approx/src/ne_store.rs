//! Storage strategies for the `NE` relation — the practical concern §5
//! closes with.
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
//! [`NeStore`] implements both representations over the same uniqueness
//! axioms; experiment E9 benchmarks size and build/probe cost.
//!
//! [`NeBits`] is a third one, for the engine's own use: the `α_P`
//! construction probes `NE` a few times per tuple of `C^k`, so it reads a
//! dense `|C| × |C|` bit matrix (one shift and mask per probe) instead of
//! binary-searching the axiom list.

use qld_core::CwDatabase;
use qld_logic::{Formula, PredId, Term};
use qld_physical::{Elem, Relation, RowWriter};

/// The uniqueness axioms as a symmetric `n × n` bit matrix (`n²/8` bytes:
/// 3.2 KB at 160 constants), plus one bit per constant that is set once
/// any axiom mentions it. Built once per engine and updated in place,
/// four bits per new axiom.
#[derive(Debug, Clone)]
pub struct NeBits {
    n: usize,
    /// Bit `a·n + b` is set iff `¬(a = b)` is an axiom.
    words: Vec<u64>,
    /// Bit `a` is set iff some axiom mentions `a`.
    constrained: Vec<u64>,
}

impl NeBits {
    /// The matrix of `db`'s uniqueness axioms.
    pub fn new(db: &CwDatabase) -> NeBits {
        let n = db.num_consts();
        let mut bits = NeBits {
            n,
            words: vec![0; (n * n).div_ceil(64)],
            constrained: vec![0; n.div_ceil(64)],
        };
        for &(a, b) in db.ne_pairs() {
            bits.insert(a, b);
        }
        bits
    }

    /// Records the axiom `¬(a = b)` (both orientations).
    ///
    /// # Panics
    /// Panics if `a` or `b` is not a constant of the database.
    pub fn insert(&mut self, a: Elem, b: Elem) {
        assert!(
            (a as usize) < self.n && (b as usize) < self.n,
            "NE axiom over an unknown constant"
        );
        for i in [self.index(a, b), self.index(b, a)] {
            self.words[i >> 6] |= 1 << (i & 63);
        }
        for c in [a, b] {
            self.constrained[c as usize >> 6] |= 1 << (c & 63);
        }
    }

    /// Does any axiom mention `a`?
    #[inline]
    pub fn is_constrained(&self, a: Elem) -> bool {
        debug_assert!((a as usize) < self.n);
        self.constrained[a as usize >> 6] >> (a & 63) & 1 == 1
    }

    /// Is `¬(a = b)` an axiom?
    #[inline]
    pub fn contains(&self, a: Elem, b: Elem) -> bool {
        debug_assert!((a as usize) < self.n && (b as usize) < self.n);
        let i = self.index(a, b);
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    #[inline]
    fn index(&self, a: Elem, b: Elem) -> usize {
        a as usize * self.n + b as usize
    }

    /// The full symmetric pair relation. Rows come out of the matrix in
    /// lexicographic order, so the relation is built without a sort.
    pub fn to_relation(&self) -> Relation {
        let n = self.n as Elem;
        let mut pairs = RowWriter::new(2);
        for a in 0..n {
            for b in 0..n {
                if self.contains(a, b) {
                    pairs.push(&[a, b]);
                }
            }
        }
        pairs.finish()
    }
}

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
            pairs: NeBits::new(db).to_relation(),
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
            if known
                .iter()
                .all(|&k| db.is_ne(qld_logic::ConstId(c), qld_logic::ConstId(k)))
            {
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

    /// Number of stored tuples — the space proxy benchmarked in E9
    /// (unknown-list entries count as one each).
    pub fn stored_entries(&self) -> usize {
        match self {
            NeStore::Explicit { pairs } => pairs.len(),
            NeStore::Virtual { unknown, ne_prime } => unknown.len() + ne_prime.len(),
        }
    }

    /// Materializes the full symmetric pair relation (used to check the
    /// two representations agree, and to hand the algebra backend a scan).
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
    /// Used by the engine's virtual-NE mode to expand `NE` atoms in `Q̂`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::{ConstId, Vocabulary};

    /// 6 constants: 0..4 pairwise distinct ("known"), 4 and 5 are nulls;
    /// additionally we know null 4 ≠ constant 0.
    fn db() -> CwDatabase {
        let mut voc = Vocabulary::new();
        let ids = voc
            .add_consts(["k0", "k1", "k2", "k3", "u4", "u5"])
            .unwrap();
        let known = &ids[..4];
        CwDatabase::builder(voc)
            .pairwise_unique(known)
            .unique(ids[4], ids[0])
            .build()
            .unwrap()
    }

    #[test]
    fn representations_agree() {
        let db = db();
        let explicit = NeStore::explicit(&db);
        let virt = NeStore::virtualized(&db);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(
                    explicit.contains(a, b),
                    virt.contains(a, b),
                    "disagreement at ({a},{b})"
                );
                assert_eq!(explicit.contains(a, b), db.is_ne(ConstId(a), ConstId(b)));
            }
        }
        assert_eq!(explicit.to_relation(6), virt.to_relation(6));
    }

    #[test]
    fn virtual_is_smaller_on_mostly_known_data() {
        let db = db();
        let explicit = NeStore::explicit(&db);
        let virt = NeStore::virtualized(&db);
        // Explicit: (C(4,2)+1)*2 = 14 tuples. Virtual: 2 unknowns + 2
        // oriented NE′ tuples = 4 entries.
        assert_eq!(explicit.stored_entries(), 14);
        assert_eq!(virt.stored_entries(), 4);
    }

    #[test]
    fn fully_specified_has_empty_virtual_side() {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b", "c"]).unwrap();
        let db = CwDatabase::builder(voc).fully_specified().build().unwrap();
        let virt = NeStore::virtualized(&db);
        match &virt {
            NeStore::Virtual { unknown, ne_prime } => {
                assert!(unknown.is_empty());
                assert!(ne_prime.is_empty());
            }
            other => panic!("expected virtual store, got {other:?}"),
        }
        // NE(x,y) ≡ x ≠ y, as the paper says.
        assert!(virt.contains(0, 1));
        assert!(!virt.contains(2, 2));
    }

    #[test]
    fn no_axioms_means_everything_unknown() {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b"]).unwrap();
        let db = CwDatabase::builder(voc).build().unwrap();
        let virt = NeStore::virtualized(&db);
        assert!(!virt.contains(0, 1));
        // One constant may sit in the (vacuous) known clique; the other is
        // unknown — and no pair is reported distinct.
        assert_eq!(virt.stored_entries(), 1);
        assert!(virt.to_relation(2).is_empty());
    }

    #[test]
    fn known_unknown_pair_not_ne_unless_axiom() {
        let db = db();
        let virt = NeStore::virtualized(&db);
        // u4 ≠ k0 is an axiom → in NE.
        assert!(virt.contains(4, 0));
        // u4 vs k1: no axiom → not in NE (u4 might equal k1).
        assert!(!virt.contains(4, 1));
        // u4 vs u5: no axiom → not in NE.
        assert!(!virt.contains(4, 5));
    }
}
