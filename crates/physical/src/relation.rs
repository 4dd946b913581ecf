//! Relations: sorted, duplicate-free tuple sets in one flat buffer.
//!
//! A relation of arity `k` with `n` tuples is a single row-major
//! `Vec<Elem>` of `n · k` dense `u32` domain elements: row `i` is
//! `data[i·k .. (i+1)·k]`, rows are sorted lexicographically and no row
//! occurs twice. The sorted representation gives `O(log n)` membership,
//! cheap set-equality, and deterministic iteration order (important for
//! reproducible experiment output); the flat one makes a copy of a
//! relation one allocation and one `memcpy` whatever its size — what a
//! copy-on-write database publish pays for the relation a delta touches —
//! and lets scans read contiguous memory. The row count is stored beside
//! the buffer because at arity 0 the buffer is empty either way, yet
//! `{}` (false) and `{()}` (true) are different relations.
//!
//! A tuple is a `&[Elem]` row of such a buffer; nobody owns a boxed one.
//! Relations are built one way: rows go into a [`RowWriter`] in whatever
//! order a producer finds them and [`RowWriter::finish`] sorts and
//! deduplicates once ([`Relation::from_rows`] is that loop over an
//! iterator). An existing relation changes by [`Relation::insert`],
//! [`Relation::retain`] and [`Relation::assign_mapped`], all in place.

use std::cmp::Ordering;
use std::fmt;

/// A domain element. Physical databases in this reproduction always use
/// dense small integers; for the canonical database `Ph₁(LB)` the element
/// `i` *is* the constant `ConstId(i)`.
pub type Elem = u32;

/// A relation: a set of `arity`-tuples over some domain.
///
/// The representation is canonical — equal sets have equal fields — so
/// the derived `PartialEq`/`Eq`/`Hash` are set equality and a set hash.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    arity: usize,
    /// Number of rows; `data.len() == arity * len`.
    len: usize,
    /// Row-major; rows sorted lexicographically, no duplicates.
    data: Vec<Elem>,
}

impl Relation {
    /// The empty relation of the given arity.
    pub fn empty(arity: usize) -> Relation {
        Relation {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Builds a relation from rows through a [`RowWriter`]: each row is
    /// appended to the flat buffer without a per-tuple allocation. Rows
    /// that arrive in strictly increasing order (a
    /// [`TupleSpace`](crate::TupleSpace) scan, another relation's rows) are
    /// kept as they are; anything else is sorted and deduplicated in place.
    ///
    /// # Panics
    /// Panics if a row's length differs from `arity`.
    pub fn from_rows<R: AsRef<[Elem]>>(
        arity: usize,
        rows: impl IntoIterator<Item = R>,
    ) -> Relation {
        let mut writer = RowWriter::new(arity);
        for row in rows {
            writer.push(row.as_ref());
        }
        writer.finish()
    }

    /// Number of argument positions.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` of the buffer.
    #[inline]
    fn row(&self, i: usize) -> &[Elem] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Binary search over the rows: `Ok(i)` if row `i` is `tuple`,
    /// otherwise `Err(i)` with the row index that keeps the order.
    #[inline]
    fn search(&self, tuple: &[Elem]) -> Result<usize, usize> {
        self.search_mapped(tuple, |e| e)
    }

    /// [`Relation::search`] for the image of `tuple` under `f`, which is
    /// never materialised on the heap.
    ///
    /// Dispatches once on the arity and then compares whole rows the way
    /// [`Relation::canonicalize`] sorts them: a scalar at arity 1, one
    /// `u64` key at arity 2, `[Elem; N]` arrays at 3 and 4. Only wider rows
    /// compare component by component. (A linear count through short
    /// binary relations measured no better than the bisection, which
    /// compiles to conditional moves: there is no length threshold.)
    ///
    /// # Panics
    /// Panics if the tuple's length differs from the relation's arity.
    #[inline]
    fn search_mapped(&self, tuple: &[Elem], f: impl Fn(Elem) -> Elem) -> Result<usize, usize> {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        match self.arity {
            0 => {
                if self.len == 0 {
                    Err(0)
                } else {
                    Ok(0)
                }
            }
            1 => self.data.binary_search(&f(tuple[0])),
            2 => {
                let probe = pair_key([f(tuple[0]), f(tuple[1])]);
                let (rows, _) = self.data.as_chunks::<2>();
                rows.binary_search_by_key(&probe, |row| pair_key(*row))
            }
            3 => search_rows::<3>(&self.data, std::array::from_fn(|i| f(tuple[i]))),
            4 => search_rows::<4>(&self.data, std::array::from_fn(|i| f(tuple[i]))),
            _ => {
                let (mut lo, mut hi) = (0, self.len);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let row = self.row(mid).iter().copied();
                    match row.cmp(tuple.iter().map(|&e| f(e))) {
                        Ordering::Less => lo = mid + 1,
                        Ordering::Equal => return Ok(mid),
                        Ordering::Greater => hi = mid,
                    }
                }
                Err(lo)
            }
        }
    }

    /// Membership test (binary search).
    ///
    /// # Panics
    /// Panics if the tuple's length differs from the relation's arity.
    #[inline]
    pub fn contains(&self, tuple: &[Elem]) -> bool {
        self.search(tuple).is_ok()
    }

    /// Is the image of `tuple` under `f` — `(f(t₁), …, f(t_k))` — a row?
    /// One gather and one search, with no tuple built in between: how the
    /// evaluator tests an atom (its argument slots through the
    /// environment) and the Theorem 1 walk a candidate (its constants
    /// through the mapping `h`).
    ///
    /// # Panics
    /// Panics if the tuple's length differs from the relation's arity.
    #[inline]
    pub fn contains_mapped(&self, tuple: &[Elem], f: impl Fn(Elem) -> Elem) -> bool {
        self.search_mapped(tuple, f).is_ok()
    }

    /// The rows that begin with the image of `prefix` under `f`, in order.
    /// Rows are sorted, so they are one contiguous run, found by two
    /// bisections (the first row not below the prefix, the first row past
    /// it) with no row built in between: how the evaluator scans the rows
    /// of a quantifier's guard that match its bound arguments. An empty
    /// prefix matches every row.
    ///
    /// # Panics
    /// Panics if the prefix is longer than the relation's arity.
    pub fn rows_with_prefix_mapped(&self, prefix: &[Elem], f: impl Fn(Elem) -> Elem) -> Rows<'_> {
        let (k, m) = (self.arity, prefix.len());
        assert!(m <= k, "prefix longer than the arity");
        let (lo, hi) = match prefix {
            [] => (0, self.len),
            // One bound column — `P(x, y)` guarding `y` — compares scalars:
            // the semi-join `Q̂` evaluates ≈ 1.8× faster than through the
            // slice comparison below (32 constants, pinned).
            &[first] => {
                let first = f(first);
                let lo = self.partition_point_from(0, |row| row[0] < first);
                (lo, self.partition_point_from(lo, |row| row[0] <= first))
            }
            _ => {
                let order =
                    |row: &[Elem]| row[..m].iter().copied().cmp(prefix.iter().map(|&e| f(e)));
                let lo = self.partition_point_from(0, |row| order(row).is_lt());
                (lo, self.partition_point_from(lo, |row| order(row).is_le()))
            }
        };
        Rows {
            data: &self.data[lo * k..hi * k],
            arity: k,
            remaining: hi - lo,
        }
    }

    /// The index of the first row at or after `lo` for which `pred` fails,
    /// given that `pred` holds on a (possibly empty) run of rows from `lo`
    /// and fails on every row after it.
    #[inline]
    fn partition_point_from(&self, lo: usize, pred: impl Fn(&[Elem]) -> bool) -> usize {
        let (mut lo, mut hi) = (lo, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.row(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Iterates over tuples in lexicographic order.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            data: &self.data,
            arity: self.arity,
            remaining: self.len,
        }
    }

    /// Applies `f` to every component of every tuple, producing a new
    /// relation (used to compute `h(I(P))` in Theorem 1).
    pub fn map_elems(&self, f: impl FnMut(Elem) -> Elem) -> Relation {
        let mut image = Relation::empty(self.arity);
        image.assign_mapped(self, f);
        image
    }

    /// In-place variant of [`Relation::map_elems`] for hot loops: rewrites
    /// `self` to be `{ f(t) : t ∈ src }` inside this relation's existing
    /// buffer. Repeatedly overwriting the same target relation with the
    /// images of one source (as the Theorem 1 enumeration does, one
    /// mapping after another) allocates nothing once the buffer has grown
    /// to the source's size, whatever the images dedup down to in between
    /// (arities above 4 sort through a scratch permutation when an image
    /// comes out unsorted).
    pub fn assign_mapped(&mut self, src: &Relation, f: impl FnMut(Elem) -> Elem) {
        self.arity = src.arity;
        self.len = src.len;
        self.data.clear();
        self.data.extend(src.data.iter().copied().map(f));
        self.canonicalize();
    }

    /// Inserts one tuple, keeping the sorted duplicate-free invariant.
    /// Returns `true` iff the tuple was new — the incremental-maintenance
    /// append path: a binary search, then one `memmove` of the elements
    /// behind the insertion point (no per-tuple allocation, no rebuild).
    ///
    /// # Panics
    /// Panics if the tuple's length differs from the relation's arity.
    pub fn insert(&mut self, tuple: &[Elem]) -> bool {
        let Err(pos) = self.search(tuple) else {
            return false;
        };
        // Open a row-sized gap by hand: for one short row this measures
        // ≈ 20 % under `Vec::splice` (`physical.relation_insert_ns`).
        let (at, end) = (pos * self.arity, self.data.len());
        self.data.extend_from_slice(tuple);
        self.data.copy_within(at..end, at + self.arity);
        self.data[at..at + self.arity].copy_from_slice(tuple);
        self.len += 1;
        true
    }

    /// Keeps only the tuples for which `keep` returns true (in place;
    /// order and uniqueness are preserved automatically). Returns how many
    /// tuples were dropped. Used by incremental `α_P` maintenance, where a
    /// new fact can only *shrink* the disagreement relation.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Elem]) -> bool) -> usize {
        self.compact(|_, row| keep(row))
    }

    /// Moves the rows for which `keep(rows kept so far, row)` holds to the
    /// front of the buffer, in order, and truncates to them. Returns how
    /// many rows were dropped.
    fn compact(&mut self, mut keep: impl FnMut(&[Elem], &[Elem]) -> bool) -> usize {
        let k = self.arity;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&self.data[..kept * k], &self.data[i * k..(i + 1) * k]) {
                if kept < i {
                    self.data.copy_within(i * k..(i + 1) * k, kept * k);
                }
                kept += 1;
            }
        }
        let dropped = self.len - kept;
        self.data.truncate(kept * k);
        self.len = kept;
        dropped
    }

    /// True iff `self ⊆ other` (both must have equal arity).
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        debug_assert_eq!(self.arity, other.arity);
        // Merge-walk over the two sorted row lists.
        let mut oi = other.iter();
        'outer: for t in self {
            for o in oi.by_ref() {
                match o.cmp(t) {
                    Ordering::Less => continue,
                    Ordering::Equal => continue 'outer,
                    Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// The set of elements occurring in any tuple (the active domain
    /// contribution of this relation), sorted.
    pub fn active_elems(&self) -> Vec<Elem> {
        let mut elems = self.data.clone();
        elems.sort_unstable();
        elems.dedup();
        elems
    }

    /// Restores the invariant over `len` arbitrary rows in `data`: sorts
    /// them lexicographically and drops duplicates, in place. Rows that
    /// are already strictly increasing cost one comparison pass.
    fn canonicalize(&mut self) {
        match self.arity {
            0 => self.len = self.len.min(1),
            1 => self.len = canonical_rows::<1>(&mut self.data),
            2 => self.len = canonical_rows::<2>(&mut self.data),
            3 => self.len = canonical_rows::<3>(&mut self.data),
            4 => self.len = canonical_rows::<4>(&mut self.data),
            k => {
                let rows = || self.data.chunks_exact(k);
                if rows().zip(rows().skip(1)).all(|(a, b)| a < b) {
                    return;
                }
                // Wider rows: sort a permutation of the row indices, then
                // gather the rows in that order.
                let mut order: Vec<usize> = (0..self.len).collect();
                order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
                let mut sorted = Vec::with_capacity(self.data.len());
                for &i in &order {
                    sorted.extend_from_slice(self.row(i));
                }
                self.data = sorted;
                // Sorted, so a duplicate row sits right behind its first copy.
                self.compact(|kept, row| !kept.ends_with(row));
            }
        }
    }
}

/// Sorts and deduplicates the `N`-element rows of a flat buffer as
/// `[Elem; N]` values (arrays order lexicographically, like the slices they
/// stand for) and returns how many are left. Rows already strictly
/// increasing cost one comparison pass.
fn canonical_rows<const N: usize>(data: &mut Vec<Elem>) -> usize {
    let (rows, rest) = data.as_chunks_mut::<N>();
    debug_assert!(rest.is_empty());
    if rows.is_sorted_by(|a, b| a < b) {
        return rows.len();
    }
    rows.sort_unstable();
    // Sorted, so a duplicate row sits right behind its first copy.
    let mut kept = 1;
    for i in 1..rows.len() {
        if rows[i] != rows[kept - 1] {
            rows[kept] = rows[i];
            kept += 1;
        }
    }
    data.truncate(kept * N);
    kept
}

/// A binary row as one integer that orders like the row: the first column
/// in the high half, so no pair of `u32` components can overflow the key.
#[inline]
fn pair_key([a, b]: [Elem; 2]) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// Binary search of `probe` among the `N`-element rows of a flat buffer,
/// compared as `[Elem; N]` values.
#[inline]
fn search_rows<const N: usize>(data: &[Elem], probe: [Elem; N]) -> Result<usize, usize> {
    let (rows, rest) = data.as_chunks::<N>();
    debug_assert!(rest.is_empty());
    rows.binary_search(&probe)
}

/// The one append path into a [`Relation`]: rows are pushed in any order,
/// repeats included, straight into the flat buffer, and
/// [`RowWriter::finish`] restores the sorted duplicate-free invariant once.
/// Every producer of tuples — the evaluator, the algebra operators, the
/// Theorem 1 walk — writes here; nobody owns a boxed tuple.
#[derive(Debug, Clone)]
pub struct RowWriter {
    /// The rows pushed so far, with `Relation`'s invariant suspended.
    rows: Relation,
}

impl RowWriter {
    /// A writer of `arity`-tuples with nothing pushed yet.
    pub fn new(arity: usize) -> RowWriter {
        RowWriter::reusing(Relation::empty(arity), arity)
    }

    /// [`RowWriter::new`] inside `buffer`'s allocation (its rows are
    /// dropped): rebuilding one relation over and over — the answers of one
    /// query over successive database images — allocates only when the
    /// buffer has to grow.
    pub fn reusing(mut buffer: Relation, arity: usize) -> RowWriter {
        buffer.arity = arity;
        buffer.len = 0;
        buffer.data.clear();
        RowWriter { rows: buffer }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row's length differs from the writer's arity.
    #[inline]
    pub fn push(&mut self, row: &[Elem]) {
        assert_eq!(row.len(), self.rows.arity, "tuple arity mismatch");
        self.rows.data.extend_from_slice(row);
        self.rows.len += 1;
    }

    /// Appends one row assembled from parts — a projection's gathered
    /// columns, a join's left row chained with its right row — without a
    /// temporary tuple.
    ///
    /// # Panics
    /// Panics if the row's length differs from the writer's arity.
    #[inline]
    pub fn push_with(&mut self, row: impl IntoIterator<Item = Elem>) {
        self.rows.data.extend(row);
        self.rows.len += 1;
        assert_eq!(
            self.rows.data.len(),
            self.rows.len * self.rows.arity,
            "tuple arity mismatch"
        );
    }

    /// Number of rows pushed so far (repeats counted). At arity 0 this is
    /// all that tells `{}` from `{()}`.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// True iff nothing was pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// Sorts and deduplicates the pushed rows into the relation they
    /// denote; rows pushed in strictly increasing order cost one
    /// comparison pass.
    pub fn finish(mut self) -> Relation {
        self.rows.canonicalize();
        self.rows
    }
}

/// Iterator over a relation's tuples, in lexicographic order (see
/// [`Relation::iter`]).
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    /// The rows not yet yielded, row-major.
    data: &'a [Elem],
    arity: usize,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Elem];

    #[inline]
    fn next(&mut self) -> Option<&'a [Elem]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (row, rest) = self.data.split_at(self.arity);
        self.data = rest;
        Some(row)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation/{}{{", self.arity)?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:?}")?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a [Elem];
    type IntoIter = Rows<'a>;
    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(tuples: &[&[Elem]]) -> Relation {
        Relation::from_rows(tuples.first().map_or(2, |t| t.len()), tuples)
    }

    #[test]
    fn dedup_and_sort() {
        let r = rel(&[&[2, 1], &[1, 2], &[2, 1]]);
        assert_eq!(r.len(), 2);
        let collected: Vec<&[Elem]> = r.iter().collect();
        assert_eq!(collected, vec![&[1, 2][..], &[2, 1][..]]);
    }

    #[test]
    fn contains_works() {
        let r = rel(&[&[0, 1], &[1, 0], &[3, 3]]);
        assert!(r.contains(&[1, 0]));
        assert!(!r.contains(&[0, 0]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        Relation::from_rows(2, [[1]]);
    }

    #[test]
    fn map_elems_merges() {
        let r = rel(&[&[0, 1], &[1, 2]]);
        // Collapse 1 into 0.
        let m = r.map_elems(|e| if e == 1 { 0 } else { e });
        assert_eq!(m.len(), 2);
        assert!(m.contains(&[0, 0]));
        assert!(m.contains(&[0, 2]));
    }

    #[test]
    fn assign_mapped_matches_map_elems() {
        let src = rel(&[&[0, 1], &[1, 2], &[2, 0]]);
        let mut buf = Relation::empty(2);
        for target in 0..3u32 {
            let f = |e: Elem| if e > target { target } else { e };
            buf.assign_mapped(&src, f);
            assert_eq!(buf, src.map_elems(f), "collapse above {target}");
        }
        // Growing back after a dedup-shrunken image also works.
        buf.assign_mapped(&src, |e| e);
        assert_eq!(buf, src);
        // Arity change is tracked from the source.
        let unary = rel(&[&[4]]);
        buf.assign_mapped(&unary, |e| e + 1);
        assert_eq!(buf.arity(), 1);
        assert!(buf.contains(&[5]));
    }

    #[test]
    fn insert_keeps_invariants() {
        let mut r = rel(&[&[1, 2], &[3, 4]]);
        assert!(r.insert(&[2, 2]));
        assert!(!r.insert(&[1, 2]), "duplicate insert is a no-op");
        assert!(r.insert(&[0, 0]));
        let collected: Vec<&[Elem]> = r.iter().collect();
        assert_eq!(
            collected,
            vec![&[0, 0][..], &[1, 2][..], &[2, 2][..], &[3, 4][..]]
        );
        assert!(r.contains(&[2, 2]));
        // Equivalent to rebuilding from the union.
        let rebuilt = rel(&[&[1, 2], &[3, 4], &[2, 2], &[0, 0]]);
        assert_eq!(r, rebuilt);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn insert_checks_arity() {
        rel(&[&[1, 2]]).insert(&[1]);
    }

    #[test]
    fn retain_filters_in_place() {
        let mut r = rel(&[&[0, 1], &[1, 1], &[2, 1]]);
        let dropped = r.retain(|t| t[0] != 1);
        assert_eq!(dropped, 1);
        assert_eq!(r, rel(&[&[0, 1], &[2, 1]]));
        assert_eq!(r.retain(|_| true), 0);
    }

    #[test]
    fn subset() {
        let small = rel(&[&[1, 2]]);
        let big = rel(&[&[0, 0], &[1, 2], &[3, 4]]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(Relation::empty(2).is_subset_of(&small));
    }

    #[test]
    fn active_elems() {
        let r = rel(&[&[5, 2], &[2, 7]]);
        assert_eq!(r.active_elems(), vec![2, 5, 7]);
    }

    #[test]
    fn zero_arity_relation() {
        // Boolean answers: {} = no, {()} = yes.
        let no = Relation::empty(0);
        let yes = Relation::from_rows(0, [[]]);
        assert!(no.is_empty());
        assert_eq!(yes.len(), 1);
        assert!(yes.contains(&[]));
    }
}
