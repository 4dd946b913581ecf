//! The polynomial-time disagreement test behind `α_P` (Lemma 10 /
//! Theorem 14), and the construction of `α_P` on top of it.
//!
//! Two tuples of constants `c` and `d` *disagree* with respect to the
//! theory when `Unique(T) ∧ c = d` is unsatisfiable: asserting the
//! component-wise equalities `cᵢ = dᵢ` and closing under equivalence
//! forces two constants with a uniqueness axiom between them to coincide.
//! Graph-theoretically (the paper's formulation): some two vertices of the
//! graph `G_{c,d}` — whose edges are the pairs `(cᵢ, dᵢ)` — are connected
//! and carry a `¬(·=·)` axiom.
//!
//! The test ([`DisagreeScratch::disagrees`]) is union-find over the (at
//! most `2k`) constants of the two tuples, then a probe of every NE pair
//! within a component: `O(k α(k) + k²)` per pair of tuples, comfortably
//! the polynomial bound Theorem 14 needs.
//!
//! # What building `α_P` costs
//!
//! `α_P` holds the tuples of `C^k` that disagree with *every* fact of `P`.
//! The build ([`alpha_additions_for_ne`]) walks `C^k` in odometer order,
//! skips the rows a fact rules out wholesale, and asks the union-find test
//! only what three cheaper facts leave open:
//!
//! * `NE(cᵢ, dᵢ)` on any one coordinate already proves that `c` and `d`
//!   disagree. So the facts a tuple still has to be tested against are
//!   those no coordinate of its *prefix* `c[..i]` rules out — one list per
//!   prefix length, re-filtered only when coordinate `i - 1` of the
//!   odometer moves (`|C|^i` times, not `|C|^k`), and the last coordinate
//!   is checked while scanning the deepest list, which stops at the first
//!   fact the tuple fails to disagree with.
//! * When the non-loop edges `(cᵢ, dᵢ)` of `G_{c,d}` are pairwise
//!   vertex-disjoint, its components are those edges, so the
//!   coordinate-wise test is exact: no `NE(cᵢ, dᵢ)`, no disagreement.
//! * A fact *absorbs* the rows of a prefix `p = c[..k−1]`: call a fact `d`
//!   of the deepest list absorbing when its last argument `u` has no
//!   uniqueness axiom, `u` is no vertex of the prefix's non-loop edges
//!   `(pⱼ, dⱼ)`, and `p` does not disagree with `d[..k−1]`. Then no row
//!   `p·v` with `v` off those edges disagrees with `d`: `G_{p·v,d}` is the
//!   prefix's graph, whose components hold no `NE` pair, plus the edge
//!   `(v, u)`, a component of its own that holds none either. So under
//!   such a prefix the odometer visits only the ≤ 2(k − 1) vertices of the
//!   edges as last coordinate, and for `k = 1` one fact `P(u)` over an
//!   unconstrained `u` leaves `α_P` empty without a visit.
//!
//! Only a pair that survives the coordinates *and* has two edges sharing a
//! vertex (a repeated constant, or a chain such as `(a, u)` against
//! `(u, b)`) reaches the union-find test, which stays the arbiter. The
//! work is at most `|C|^k` tuple visits, `Σ_{i<k} |C|^i · |facts|` list
//! entries filtered at most (one `NE` bit each) and the early-exit scans.
//! The worst case is still `|C|^k · |facts|` union-find tests — every pair
//! disagreeing, and none of them on a single coordinate, on a database
//! without nulls — but on the generated serving databases (70 % known
//! constants, `2·|C|` facts per predicate) almost every prefix has an
//! absorbing fact, and a build visits 40 of the 1,024 + 32 tuples of a
//! binary and a unary predicate at 32 constants, 226 of 25,600 + 160 at
//! 160 and 14,206 of the 262,144 of a ternary predicate at 64, running 38,
//! 428 and 15,709 union-find tests, and no more when the facts double
//! (`tests/alpha_build_cost.rs` pins the rows, `≤ |C|^k` tests and the
//! flatness). The scan the prefix lists replaced — every tuple against
//! every fact, `|C|^k · |facts| / 2` union-find tests — survives as the
//! test module's oracle; it took an `ApproxEngine` build 1.9 ms at 32
//! constants and 0.4 s at 160. With every tuple visited the build took
//! 0.033 and 0.72 ms; with the absorbing rule it takes 0.025 and 0.46 ms
//! (best of 50, one pinned CPU of a shared 2-vCPU x86-64 host), the rest
//! of it the extended database around `α_P`.

use crate::ne_store::NeBits;
use qld_core::CwDatabase;
use qld_logic::PredId;
use qld_physical::{Elem, Relation, RowWriter};

/// A small union-find over dense keys with path halving.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    /// Resets to `n` singleton sets, reusing the existing allocation — the
    /// incremental-insertion path: hot loops (the `α_P` maintenance scans)
    /// keep one union-find and re-seed it per tuple pair instead of
    /// allocating a fresh one.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
    }

    /// Finds the representative of `x`, halving paths as it walks.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Unions the sets of `a` and `b`.
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }

    /// Are `a` and `b` in the same set?
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Reusable buffers for repeated disagreement tests: the vertex list of
/// `G_{c,d}` and the union-find over it. The maintenance scans (building
/// `α_P`, filtering it after a fact insertion, extending it after a new
/// uniqueness axiom) call [`DisagreeScratch::disagrees`] many times;
/// re-seeding one scratch per pair keeps the inner loop allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DisagreeScratch {
    verts: Vec<Elem>,
    uf: UnionFind,
    tests: u64,
    rows: u64,
}

impl DisagreeScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> DisagreeScratch {
        DisagreeScratch::default()
    }

    /// How many times [`DisagreeScratch::disagrees`] has run on this
    /// scratch — the count `tests/alpha_build_cost.rs` bounds.
    pub fn tests(&self) -> u64 {
        self.tests
    }

    /// How many tuples of `C^k` the `α_P` builds and rechecks on this
    /// scratch ([`alpha_additions_for_ne`]) have visited — the other count
    /// `tests/alpha_build_cost.rs` pins.
    pub fn rows_visited(&self) -> u64 {
        self.rows
    }

    /// Do the constant tuples `c` and `d` disagree with respect to the
    /// uniqueness axioms in `ne`? (Elements are `ConstId` indices.)
    pub fn disagrees(&mut self, ne: &NeBits, c: &[Elem], d: &[Elem]) -> bool {
        debug_assert_eq!(c.len(), d.len());
        self.tests += 1;
        // Collect the vertices of G_{c,d}: the constants mentioned by
        // either tuple, locally renumbered for the union-find.
        self.verts.clear();
        self.verts.extend(c.iter().chain(d.iter()).copied());
        self.verts.sort_unstable();
        self.verts.dedup();
        let verts = &self.verts;
        let local = |e: Elem| verts.binary_search(&e).expect("collected above") as u32;
        self.uf.reset(verts.len());
        for (a, b) in c.iter().zip(d.iter()) {
            self.uf.union(local(*a), local(*b));
        }
        // Unsatisfiable iff some NE pair lies within one equivalence
        // class. Only pairs whose both endpoints are vertices can collide.
        for (i, &a) in verts.iter().enumerate() {
            for &b in &verts[i + 1..] {
                if ne.contains(a, b) && self.uf.same(local(a), local(b)) {
                    return true;
                }
            }
        }
        false
    }
}

/// Do the constant tuples `c` and `d` disagree with respect to the
/// database's uniqueness axioms? (Elements are `ConstId` indices.)
/// One-shot convenience over [`DisagreeScratch::disagrees`]: it builds the
/// database's [`NeBits`] for the one test, so loops should keep their own.
pub fn disagrees(db: &CwDatabase, c: &[Elem], d: &[Elem]) -> bool {
    DisagreeScratch::new().disagrees(&NeBits::new(db), c, d)
}

/// Do two non-loop edges `(cᵢ, dᵢ)` of `G_{c,d}` share a vertex? If not,
/// the components of `G_{c,d}` are its edges and `c`, `d` disagree iff
/// `NE(cᵢ, dᵢ)` holds on some coordinate.
fn edges_share_vertex(c: &[Elem], d: &[Elem]) -> bool {
    (0..c.len()).any(|i| {
        c[i] != d[i]
            && (i + 1..c.len())
                .any(|j| c[j] != d[j] && [c[j], d[j]].iter().any(|&v| v == c[i] || v == d[i]))
    })
}

/// Materializes the `α_P` relation: every tuple over `C^k` that disagrees
/// with **all** facts of `P`. This is the set the rewritten `¬P(x)` scans
/// (Theorem 14 treats `α_P` as an atomic formula decided in polynomial
/// time; for fixed arity the whole relation is polynomial in `|C|`).
/// `ne` must hold `db`'s uniqueness axioms.
pub fn alpha_relation(
    db: &CwDatabase,
    p: PredId,
    ne: &NeBits,
    scratch: &mut DisagreeScratch,
) -> Relation {
    // Everything is new to an empty `α_P`.
    let nothing = Relation::empty(db.voc().pred_arity(p));
    alpha_additions_for_ne(db, p, &nothing, ne, scratch)
}

/// The tuples that newly *enter* `α_P` after uniqueness axioms were added
/// to `db` (which, like `ne`, must already carry the additions).
///
/// Incremental by monotonicity: more axioms can only create more
/// disagreement, so every tuple already in `α_P` stays in it and only the
/// complement is rechecked, as the module docs describe.
pub fn alpha_additions_for_ne(
    db: &CwDatabase,
    p: PredId,
    current: &Relation,
    ne: &NeBits,
    scratch: &mut DisagreeScratch,
) -> Relation {
    let arity = db.voc().pred_arity(p);
    let n = db.num_consts() as Elem;
    let mut out = RowWriter::new(arity);
    // `current`'s rows come in the odometer's own order.
    let mut skip = current.iter().peekable();
    let Some(deepest) = arity.checked_sub(1) else {
        // The empty tuple disagrees with no fact: it is in `α_P` iff `P`
        // has none.
        scratch.rows += 1;
        if db.facts(p).is_empty() && current.is_empty() {
            out.push(&[]);
        }
        return out.finish();
    };
    // `lists[i]`: the facts that no coordinate of `row[..i]` proves to
    // disagree with `row`.
    let mut lists: Vec<Vec<&[Elem]>> = vec![Vec::new(); deepest + 1];
    lists[0].extend(db.facts(p));
    // `lists[stale..]` were filtered for an earlier prefix.
    let mut stale = 1;
    let mut row: Vec<Elem> = vec![0; arity];
    // The values the last coordinate takes under the current prefix: the
    // vertices of an absorbing fact's edges, or all of `C`.
    let mut last: Vec<Elem> = Vec::new();
    loop {
        for i in stale..=deepest {
            let (done, rest) = lists.split_at_mut(i);
            let (v, list) = (row[i - 1], &mut rest[0]);
            list.clear();
            list.extend(
                done[i - 1]
                    .iter()
                    .filter(|d| !ne.contains(v, d[i - 1]))
                    .copied(),
            );
        }
        if !absorbing_vertices(&row[..deepest], &lists[deepest], ne, scratch, &mut last) {
            last.clear();
            last.extend(0..n);
        }
        for &v in &last {
            row[deepest] = v;
            scratch.rows += 1;
            // A row the absorbing rule jumped over is in no `α_P`, so
            // `current` has none; passing its smaller rows keeps the
            // iterator in step whatever the caller hands in.
            while skip.next_if(|r| *r < &row[..]).is_some() {}
            let is_new = skip.next_if_eq(&&row[..]).is_none();
            // The scan checks the last coordinate fact by fact and stops
            // at the first fact `row` does not disagree with.
            if is_new
                && lists[deepest].iter().all(|d| {
                    ne.contains(row[deepest], d[deepest])
                        || edges_share_vertex(&row, d) && scratch.disagrees(ne, &row, d)
                })
            {
                out.push(&row);
            }
        }
        // Advance the prefix odometer; coordinate `moved` is the first to
        // change.
        let Some(moved) = (0..deepest).rev().find(|&i| {
            row[i] += 1;
            if row[i] == n {
                row[i] = 0;
            }
            row[i] != 0
        }) else {
            return out.finish();
        };
        stale = moved + 1;
    }
}

/// The absorbing rule of the module docs. Looks in `list` — the facts no
/// coordinate of `prefix` disagrees with — for a fact `d` that absorbs
/// every row `prefix·v` with `v` off the non-loop edges `(pⱼ, dⱼ)`: `d`'s
/// last argument has no uniqueness axiom and is no vertex of those edges,
/// and `prefix` does not disagree with `d`'s prefix. If one does, leaves
/// the vertices of its edges in `vertices`, sorted, and returns `true`.
fn absorbing_vertices(
    prefix: &[Elem],
    list: &[&[Elem]],
    ne: &NeBits,
    scratch: &mut DisagreeScratch,
    vertices: &mut Vec<Elem>,
) -> bool {
    let k = prefix.len();
    list.iter().any(|d| {
        let (head, u) = (&d[..k], d[k]);
        if ne.is_constrained(u) {
            return false;
        }
        vertices.clear();
        for (&c, &e) in prefix.iter().zip(head) {
            if c != e {
                vertices.extend([c, e]);
            }
        }
        if vertices.contains(&u) {
            return false;
        }
        // No coordinate of `head` disagrees with `prefix`; when its edges
        // are vertex-disjoint that settles it.
        if edges_share_vertex(prefix, head) && scratch.disagrees(ne, prefix, head) {
            return false;
        }
        vertices.sort_unstable();
        vertices.dedup();
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::{ConstId, Vocabulary};
    use qld_physical::TupleSpace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db() -> CwDatabase {
        let mut voc = Vocabulary::new();
        // a, b, c pairwise distinct; u, v unconstrained nulls.
        let ids = voc.add_consts(["a", "b", "c", "u", "v"]).unwrap();
        let p = voc.add_pred("P", 2).unwrap();
        CwDatabase::builder(voc)
            .fact(p, &[ids[0], ids[1]])
            .pairwise_unique(&ids[..3])
            .build()
            .unwrap()
    }

    fn build_alpha(db: &CwDatabase, p: PredId) -> Relation {
        alpha_relation(db, p, &NeBits::new(db), &mut DisagreeScratch::new())
    }

    /// The scan the index-driven build replaced, kept as its oracle: every
    /// tuple of `C^k` against every fact through the union-find test.
    fn reference_alpha(db: &CwDatabase, p: PredId) -> Relation {
        let ne = NeBits::new(db);
        let mut scratch = DisagreeScratch::new();
        let consts: Vec<Elem> = (0..db.num_consts() as Elem).collect();
        let facts = db.facts(p);
        TupleSpace::new(&consts, db.voc().pred_arity(p))
            .select(|c| facts.iter().all(|d| scratch.disagrees(&ne, c, d)))
    }

    /// 1–6 constants (the builder rejects none); predicates of arity 0–3
    /// with 0–5 facts each plus a binary one without facts; the uniqueness
    /// axioms a chain, a clique over a prefix of the constants (the rest
    /// unconstrained nulls), random pairs, or none at all. Six constants
    /// under arity 3 repeat constants inside tuples and across the
    /// coordinates of a tuple and a fact all the time.
    fn random_db(rng: &mut StdRng) -> CwDatabase {
        let n = rng.gen_range(1..=6u32);
        let mut voc = Vocabulary::new();
        for i in 0..n {
            voc.add_const(&format!("c{i}")).unwrap();
        }
        let preds: Vec<PredId> = (0..=3)
            .map(|k| voc.add_pred(&format!("P{k}"), k).unwrap())
            .collect();
        voc.add_pred("EMPTY", 2).unwrap();
        let mut builder = CwDatabase::builder(voc);
        for (k, &p) in preds.iter().enumerate() {
            for _ in 0..rng.gen_range(0..=5) {
                let fact: Vec<ConstId> = (0..k).map(|_| ConstId(rng.gen_range(0..n))).collect();
                builder = builder.fact(p, &fact);
            }
        }
        match rng.gen_range(0..4) {
            // No axiom: every constant is an unconstrained null.
            3 => {}
            0 => {
                for a in 1..n {
                    builder = builder.unique(ConstId(a - 1), ConstId(a));
                }
            }
            1 => {
                let known: Vec<ConstId> = (0..rng.gen_range(0..=n)).map(ConstId).collect();
                builder = builder.pairwise_unique(&known);
            }
            _ => {
                for _ in 0..rng.gen_range(0..=n) {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a != b {
                        builder = builder.unique(ConstId(a), ConstId(b));
                    }
                }
            }
        }
        builder.build().unwrap()
    }

    /// The oracle: the index-driven build and its complement recheck equal
    /// the old scan, on arities 0–3, with and without unconstrained nulls,
    /// and the recheck against a non-empty `current`. Five seeded mutants
    /// die here. Three make it fail within the first two databases: the
    /// matching shortcut without its `edges_share_vertex` condition; a
    /// prefix list also pruned on a cross-coordinate `NE(cᵢ, dⱼ)`;
    /// `stale` left at the deepest list when a middle coordinate moves.
    /// An absorbing fact whose last argument may be a vertex of the
    /// prefix's edges fails the second database's recheck, and one whose
    /// prefix may disagree with the row's the 26th's.
    #[test]
    fn build_and_recheck_match_reference_scan() {
        let mut rng = StdRng::seed_from_u64(21);
        // Builds and rechecks the absorbing rule cut short, the latter
        // against a non-empty `current`.
        let (mut absorbed_builds, mut absorbed_rechecks) = (0, 0);
        for round in 0..400 {
            let mut db = random_db(&mut rng);
            let n = db.num_consts() as Elem;
            let mut ne = NeBits::new(&db);
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                assert_eq!(ne.contains(a, b), db.is_ne(ConstId(a), ConstId(b)));
            }
            for a in 0..n {
                let mentioned = db.ne_pairs().iter().any(|&(x, y)| x == a || y == a);
                assert_eq!(ne.is_constrained(a), mentioned);
            }
            let mut scratch = DisagreeScratch::new();
            // Did a build or recheck visit fewer rows than `C^arity` has?
            let cut_short = |visited: u64, arity: usize| visited < (n as u64).pow(arity as u32);
            let preds: Vec<PredId> = db.voc().preds().collect();
            let mut before = Vec::new();
            for &p in &preds {
                let visited = scratch.rows_visited();
                let alpha_p = alpha_relation(&db, p, &ne, &mut scratch);
                let visited = scratch.rows_visited() - visited;
                absorbed_builds += usize::from(cut_short(visited, alpha_p.arity()));
                assert_eq!(
                    alpha_p,
                    reference_alpha(&db, p),
                    "round {round}: build ≠ scan on {db:?}"
                );
                before.push(alpha_p);
            }
            for _ in 0..rng.gen_range(1..=3) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b && db.insert_ne(ConstId(a), ConstId(b)).unwrap() {
                    ne.insert(a, b);
                }
            }
            for (&p, old) in preds.iter().zip(&before) {
                let visited = scratch.rows_visited();
                let additions = alpha_additions_for_ne(&db, p, old, &ne, &mut scratch);
                if !old.is_empty() {
                    let visited = scratch.rows_visited() - visited;
                    absorbed_rechecks += usize::from(cut_short(visited, old.arity()));
                }
                assert!(additions.iter().all(|t| !old.contains(t)));
                let merged = Relation::from_rows(old.arity(), old.iter().chain(&additions));
                assert_eq!(
                    merged,
                    reference_alpha(&db, p),
                    "round {round}: recheck ≠ scan on {db:?}"
                );
            }
        }
        assert!(
            absorbed_builds >= 500 && absorbed_rechecks >= 20,
            "the absorbing rule fired on {absorbed_builds} builds and {absorbed_rechecks} rechecks"
        );
    }

    /// One fact `P(u)` with `u` unconstrained empties `α_P` without a
    /// visit; with `u` constrained every constant is visited.
    #[test]
    fn an_unconstrained_unary_fact_absorbs_every_row() {
        let db = db();
        let mut voc = db.voc().clone();
        let q = voc.add_pred("Q", 1).unwrap();
        let ids: Vec<ConstId> = voc.consts().collect();
        for (arg, visits) in [(ids[3], 0), (ids[0], 5)] {
            let with_fact = CwDatabase::builder(voc.clone())
                .fact(q, &[arg])
                .pairwise_unique(&ids[..3])
                .build()
                .unwrap();
            let mut scratch = DisagreeScratch::new();
            let alpha = alpha_relation(&with_fact, q, &NeBits::new(&with_fact), &mut scratch);
            assert_eq!(alpha, reference_alpha(&with_fact, q));
            assert_eq!(scratch.rows_visited(), visits, "Q({arg:?})");
        }
    }

    #[test]
    fn vertex_disjoint_edges_are_decided_by_coordinates() {
        // Loops and an edge through a looped vertex do not count.
        assert!(!edges_share_vertex(&[0, 1], &[2, 3]));
        assert!(!edges_share_vertex(&[0, 0], &[0, 1]));
        assert!(!edges_share_vertex(&[], &[]));
        // A repeated constant, a chain, the same edge twice.
        assert!(edges_share_vertex(&[3, 3], &[0, 1]));
        assert!(edges_share_vertex(&[0, 3], &[3, 1]));
        assert!(edges_share_vertex(&[0, 0], &[1, 1]));
        assert!(edges_share_vertex(&[0, 5, 1], &[2, 5, 0]));
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.same(0, 1));
        uf.union(0, 1);
        uf.union(3, 4);
        assert!(uf.same(0, 1));
        assert!(uf.same(3, 4));
        assert!(!uf.same(1, 3));
        uf.union(1, 3);
        assert!(uf.same(0, 4));
    }

    #[test]
    fn distinct_known_constants_disagree() {
        let db = db();
        // (a,?) vs (b,?) with a≠b axiom: equating component-wise forces
        // a=b — unsatisfiable, so they disagree.
        assert!(disagrees(&db, &[0, 3], &[1, 3]));
    }

    #[test]
    fn null_does_not_disagree_with_known() {
        let db = db();
        // (u) vs (a): u has no uniqueness axioms, u=a is satisfiable.
        assert!(!disagrees(&db, &[3], &[0]));
        // (u) vs (v): two nulls can be equal.
        assert!(!disagrees(&db, &[3], &[4]));
    }

    #[test]
    fn transitive_disagreement_through_chain() {
        let db = db();
        // c = (a, u), d = (u, b): equalities a=u and u=b force a=b,
        // contradicting a≠b — disagreement via the *connectivity* of
        // G_{c,d}, not via any single coordinate.
        assert!(disagrees(&db, &[0, 3], &[3, 1]));
    }

    #[test]
    fn repeated_variable_pattern() {
        let db = db();
        // c = (u, u) vs d = (a, b): u=a and u=b force a=b — disagree.
        assert!(disagrees(&db, &[3, 3], &[0, 1]));
        // c = (u, u) vs d = (a, a): satisfiable (u=a).
        assert!(!disagrees(&db, &[3, 3], &[0, 0]));
    }

    #[test]
    fn identical_tuples_never_disagree() {
        let db = db();
        for t in [[0, 1], [3, 4], [2, 2]] {
            assert!(!disagrees(&db, &t, &t));
        }
    }

    #[test]
    fn alpha_relation_contents() {
        let db = db();
        let p = db.voc().pred_id("P").unwrap();
        let alpha = build_alpha(&db, p);
        // (b,a) disagrees with the only fact (a,b): b≠a. In α.
        assert!(alpha.contains(&[1, 0]));
        // (a,b) is the fact itself: agrees. Not in α.
        assert!(!alpha.contains(&[0, 1]));
        // (a,u): u might be b, agreeing with (a,b). Not in α.
        assert!(!alpha.contains(&[0, 3]));
        // (b,c) disagrees (first component b≠a). In α.
        assert!(alpha.contains(&[1, 2]));
        // (u,v): could be (a,b). Not in α.
        assert!(!alpha.contains(&[3, 4]));
    }

    #[test]
    fn scratch_reuse_matches_one_shot() {
        let db = db();
        let ne = NeBits::new(&db);
        let mut scratch = DisagreeScratch::new();
        let tuples: &[&[Elem]] = &[&[0, 3], &[1, 3], &[3, 3], &[0, 1], &[2, 4]];
        for c in tuples {
            for d in tuples {
                assert_eq!(
                    scratch.disagrees(&ne, c, d),
                    disagrees(&db, c, d),
                    "scratch diverged on {c:?} vs {d:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_alpha_after_fact_insert_matches_rebuild() {
        let mut db = db();
        let p = db.voc().pred_id("P").unwrap();
        let mut alpha = build_alpha(&db, p);
        // Insert a fact: α_P can only shrink, by exactly the tuples that
        // fail to disagree with the new fact.
        let new_fact: Vec<Elem> = vec![2, 3]; // P(c, u)
        db.insert_fact(
            p,
            &[
                qld_logic::ConstId(new_fact[0]),
                qld_logic::ConstId(new_fact[1]),
            ],
        )
        .unwrap();
        let ne = NeBits::new(&db);
        let mut scratch = DisagreeScratch::new();
        alpha.retain(|t| scratch.disagrees(&ne, t, &new_fact));
        assert_eq!(alpha, build_alpha(&db, p), "retain ≠ rebuild");
    }

    #[test]
    fn incremental_alpha_after_ne_insert_matches_rebuild() {
        let mut db = db();
        let p = db.voc().pred_id("P").unwrap();
        let alpha_old = build_alpha(&db, p);
        // New axiom u ≠ a: disagreement (and hence α_P) can only grow.
        db.insert_ne(qld_logic::ConstId(3), qld_logic::ConstId(0))
            .unwrap();
        let ne = NeBits::new(&db);
        let mut scratch = DisagreeScratch::new();
        let additions = alpha_additions_for_ne(&db, p, &alpha_old, &ne, &mut scratch);
        let merged = Relation::from_rows(alpha_old.arity(), alpha_old.iter().chain(&additions));
        let rebuilt = build_alpha(&db, p);
        assert!(!additions.is_empty(), "the new axiom must grow α_P");
        assert!(alpha_old.is_subset_of(&rebuilt), "monotonicity");
        assert_eq!(merged, rebuilt, "complement recheck ≠ rebuild");
    }

    #[test]
    fn alpha_of_empty_predicate_is_everything() {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b"]).unwrap();
        let p = voc.add_pred("P", 1).unwrap();
        let db = CwDatabase::builder(voc).build().unwrap();
        let alpha = build_alpha(&db, p);
        // No facts → every tuple vacuously disagrees with all of them:
        // the completion axiom ∀x ¬P(x) makes ¬P certain everywhere.
        assert_eq!(alpha.len(), 2);
    }
}
