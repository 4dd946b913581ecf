//! Iteration over the tuple space `Dᵏ` and enumeration of relations over it.
//!
//! [`TupleSpace`] has one odometer, [`TupleSpace::next_into`], which writes
//! the next tuple into a row the caller reuses — what
//! [`TupleSpace::select`] filters the space into a relation with,
//! allocation-free. The `Iterator` impl hands the
//! same tuples out as fresh `Vec`s for callers that keep them (the oracles,
//! the tests) and for [`Relation::from_rows`].

use crate::relation::{Elem, Relation, RowWriter};

/// Iterator over all `arity`-tuples with components drawn from `domain`,
/// in lexicographic order of component *positions* (odometer order).
///
/// Yields `|domain|^arity` tuples; the zero-arity space yields exactly the
/// empty tuple.
#[derive(Debug, Clone)]
pub struct TupleSpace<'a> {
    domain: &'a [Elem],
    /// The next tuple, as indices into `domain`.
    counters: Vec<usize>,
    exhausted: bool,
}

impl<'a> TupleSpace<'a> {
    /// Creates the tuple space `domain^arity`.
    pub fn new(domain: &'a [Elem], arity: usize) -> Self {
        TupleSpace {
            domain,
            counters: vec![0; arity],
            // An empty domain has no tuples of positive arity.
            exhausted: arity > 0 && domain.is_empty(),
        }
    }

    /// Total number of tuples in the space.
    pub fn size(&self) -> usize {
        if self.exhausted {
            return 0;
        }
        self.domain
            .len()
            .checked_pow(self.counters.len() as u32)
            .expect("tuple space too large")
    }

    /// Writes the next tuple into `row` and returns `true`, or returns
    /// `false` (leaving `row` alone) once the space is exhausted.
    ///
    /// # Panics
    /// Panics if `row`'s length differs from the space's arity.
    pub fn next_into(&mut self, row: &mut [Elem]) -> bool {
        if self.exhausted {
            return false;
        }
        assert_eq!(row.len(), self.counters.len(), "tuple arity mismatch");
        for (slot, &i) in row.iter_mut().zip(&self.counters) {
            *slot = self.domain[i];
        }
        // Advance the odometer (most significant digit first, so iteration
        // is lexicographic in the tuple).
        self.exhausted = true;
        for counter in self.counters.iter_mut().rev() {
            *counter += 1;
            if *counter < self.domain.len() {
                self.exhausted = false;
                break;
            }
            *counter = 0;
        }
        true
    }

    /// The relation of the (remaining) tuples `keep` approves, stepped
    /// through one reused row.
    pub fn select(mut self, mut keep: impl FnMut(&[Elem]) -> bool) -> Relation {
        let mut row = vec![0; self.counters.len()];
        let mut out = RowWriter::new(row.len());
        while self.next_into(&mut row) {
            if keep(&row) {
                out.push(&row);
            }
        }
        out.finish()
    }
}

impl Iterator for TupleSpace<'_> {
    type Item = Vec<Elem>;

    fn next(&mut self) -> Option<Vec<Elem>> {
        if self.exhausted {
            return None;
        }
        let mut tuple = vec![0; self.counters.len()];
        self.next_into(&mut tuple);
        Some(tuple)
    }
}

/// Enumerates every relation of the given arity over `domain`, invoking
/// `visit` on each; stops early (returning `false`) when `visit` returns
/// `false`.
///
/// There are `2^(|domain|^arity)` such relations, so this is only usable
/// for tiny universes — exactly the situation of the Theorem 3 precise
/// simulation, whose cost this brute force *is* (the "second-order
/// universal quantification hidden in the semantics"). The universe is
/// capped at 2⁶³ subsets (tuple-space size ≤ 63) to keep the bitmask in a
/// `u64`; larger requests panic rather than silently truncating.
pub fn for_each_relation(
    domain: &[Elem],
    arity: usize,
    mut visit: impl FnMut(&Relation) -> bool,
) -> bool {
    let universe = Relation::from_rows(arity, TupleSpace::new(domain, arity));
    assert!(
        universe.len() <= 63,
        "second-order enumeration over {} tuples is infeasible",
        universe.len()
    );
    let mut rel = Relation::empty(arity);
    for mask in 0..1u64 << universe.len() {
        let mut subset = RowWriter::reusing(rel, arity);
        for (i, t) in universe.iter().enumerate() {
            if mask & (1u64 << i) != 0 {
                subset.push(t);
            }
        }
        rel = subset.finish();
        if !visit(&rel) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_space_counts() {
        let domain = [0, 1, 2];
        assert_eq!(TupleSpace::new(&domain, 0).count(), 1);
        assert_eq!(TupleSpace::new(&domain, 1).count(), 3);
        assert_eq!(TupleSpace::new(&domain, 2).count(), 9);
        assert_eq!(TupleSpace::new(&domain, 3).count(), 27);
    }

    #[test]
    fn tuple_space_order_is_lexicographic() {
        let domain = [5, 7];
        let tuples: Vec<Vec<Elem>> = TupleSpace::new(&domain, 2).collect();
        assert_eq!(tuples, vec![vec![5, 5], vec![5, 7], vec![7, 5], vec![7, 7]]);
    }

    #[test]
    fn empty_domain_positive_arity() {
        let domain: [Elem; 0] = [];
        assert_eq!(TupleSpace::new(&domain, 2).count(), 0);
        // Zero arity still has the empty tuple even over an empty domain.
        assert_eq!(TupleSpace::new(&domain, 0).count(), 1);
    }

    #[test]
    fn size_matches_count() {
        let domain = [1, 2, 3, 4];
        for arity in 0..4 {
            let ts = TupleSpace::new(&domain, arity);
            assert_eq!(ts.size(), ts.clone().count());
        }
    }

    #[test]
    fn next_into_steps_exactly_like_the_iterator() {
        let empty: [Elem; 0] = [];
        for domain in [&empty[..], &[4], &[5, 7], &[1, 2, 3]] {
            for arity in 0..4 {
                let mut space = TupleSpace::new(domain, arity);
                let mut row = vec![99; arity];
                for expected in TupleSpace::new(domain, arity) {
                    assert!(space.next_into(&mut row));
                    assert_eq!(row, expected, "domain {domain:?}, arity {arity}");
                }
                let last = row.clone();
                assert!(!space.next_into(&mut row), "exhausted together");
                assert!(!space.next_into(&mut row), "and stays exhausted");
                assert_eq!(row, last, "an exhausted space leaves the row alone");
            }
        }
    }

    #[test]
    fn select_filters_the_space_in_order() {
        let domain = [1, 2, 3];
        let all = TupleSpace::new(&domain, 2).select(|_| true);
        assert_eq!(all, Relation::from_rows(2, TupleSpace::new(&domain, 2)));
        let diagonal = TupleSpace::new(&domain, 2).select(|t| t[0] == t[1]);
        assert_eq!(diagonal, Relation::from_rows(2, [[1, 1], [2, 2], [3, 3]]));
        // Arity 0: the empty tuple, kept or not.
        assert_eq!(TupleSpace::new(&domain, 0).select(|_| true).len(), 1);
        assert!(TupleSpace::new(&domain, 0).select(|_| false).is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn next_into_checks_the_row_length() {
        TupleSpace::new(&[0, 1], 2).next_into(&mut [0]);
    }

    #[test]
    fn relation_enumeration_counts() {
        let domain = [0, 1];
        let mut n = 0usize;
        for_each_relation(&domain, 1, |_| {
            n += 1;
            true
        });
        assert_eq!(n, 4); // 2^(2^1)
        n = 0;
        for_each_relation(&domain, 2, |_| {
            n += 1;
            true
        });
        assert_eq!(n, 16); // 2^(2^2)
    }

    #[test]
    fn relation_enumeration_early_exit() {
        let domain = [0, 1];
        let mut n = 0usize;
        let completed = for_each_relation(&domain, 2, |_| {
            n += 1;
            n < 3
        });
        assert!(!completed);
        assert_eq!(n, 3);
    }
}
