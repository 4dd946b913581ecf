//! The explicit `NE` relation of `Ph₂(LB)`, as the engine stores it.
//!
//! The `α_P` construction probes `NE` a few times per tuple of `C^k`, so
//! [`NeBits`] keeps the uniqueness axioms as a dense `|C| × |C|` bit
//! matrix (one shift and mask per probe) instead of binary-searching the
//! axiom list, and hands `Ph₂(LB)` the full symmetric pair relation.

use qld_core::CwDatabase;
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
