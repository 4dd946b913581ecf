//! The polynomial-time disagreement test behind `α_P` (Lemma 10 /
//! Theorem 14).
//!
//! Two tuples of constants `c` and `d` *disagree* with respect to the
//! theory when `Unique(T) ∧ c = d` is unsatisfiable: asserting the
//! component-wise equalities `cᵢ = dᵢ` and closing under equivalence
//! forces two constants with a uniqueness axiom between them to coincide.
//! Graph-theoretically (the paper's formulation): some two vertices of the
//! graph `G_{c,d}` — whose edges are the pairs `(cᵢ, dᵢ)` — are connected
//! and carry a `¬(·=·)` axiom.
//!
//! The test here is union-find over the (at most `2k`) constants of the
//! two tuples, then a probe of every NE pair within a component:
//! `O(k α(k) + k²)` per pair of tuples, comfortably the polynomial bound
//! Theorem 14 needs.

use qld_core::CwDatabase;
use qld_logic::{ConstId, PredId};
use qld_physical::{Elem, Relation, TupleSpace};

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
/// uniqueness axiom) call [`DisagreeScratch::disagrees`] thousands of
/// times; re-seeding one scratch per pair keeps the inner loop
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DisagreeScratch {
    verts: Vec<Elem>,
    uf: UnionFind,
}

impl DisagreeScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> DisagreeScratch {
        DisagreeScratch::default()
    }

    /// Do the constant tuples `c` and `d` disagree with respect to the
    /// database's uniqueness axioms? (Elements are `ConstId` indices.)
    pub fn disagrees(&mut self, db: &CwDatabase, c: &[Elem], d: &[Elem]) -> bool {
        debug_assert_eq!(c.len(), d.len());
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
                if db.is_ne(ConstId(a), ConstId(b)) && self.uf.same(local(a), local(b)) {
                    return true;
                }
            }
        }
        false
    }
}

/// Do the constant tuples `c` and `d` disagree with respect to the
/// database's uniqueness axioms? (Elements are `ConstId` indices.)
/// One-shot convenience over [`DisagreeScratch::disagrees`].
pub fn disagrees(db: &CwDatabase, c: &[Elem], d: &[Elem]) -> bool {
    DisagreeScratch::new().disagrees(db, c, d)
}

/// Materializes the `α_P` relation: every tuple over `C^k` that disagrees
/// with **all** facts of `P`. This is the set the rewritten `¬P(x)` scans
/// (Theorem 14 treats `α_P` as an atomic formula decided in polynomial
/// time; for fixed arity the whole relation is polynomial in `|C|`).
pub fn alpha_relation(db: &CwDatabase, p: PredId) -> Relation {
    // Everything is new to an empty `α_P`.
    let nothing = Relation::empty(db.voc().pred_arity(p));
    alpha_additions_for_ne(db, p, &nothing, &mut DisagreeScratch::new())
}

/// The tuples that newly *enter* `α_P` after uniqueness axioms were added
/// to `db` (which must already carry the additions).
///
/// Incremental by monotonicity: more axioms can only create more
/// disagreement, so every tuple already in `α_P` stays in it and only the
/// complement needs rechecking — the scan skips `|α_P|` of the `|C|^k`
/// candidate tuples and re-tests just the rest against the facts.
pub fn alpha_additions_for_ne(
    db: &CwDatabase,
    p: PredId,
    current: &Relation,
    scratch: &mut DisagreeScratch,
) -> Relation {
    let arity = db.voc().pred_arity(p);
    let consts: Vec<Elem> = (0..db.num_consts() as Elem).collect();
    let facts = db.facts(p);
    TupleSpace::new(&consts, arity)
        .select(|c| !current.contains(c) && facts.iter().all(|d| scratch.disagrees(db, c, d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::Vocabulary;

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
        let alpha = alpha_relation(&db, p);
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
        let mut scratch = DisagreeScratch::new();
        let tuples: &[&[Elem]] = &[&[0, 3], &[1, 3], &[3, 3], &[0, 1], &[2, 4]];
        for c in tuples {
            for d in tuples {
                assert_eq!(
                    scratch.disagrees(&db, c, d),
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
        let mut alpha = alpha_relation(&db, p);
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
        let mut scratch = DisagreeScratch::new();
        alpha.retain(|t| scratch.disagrees(&db, t, &new_fact));
        assert_eq!(alpha, alpha_relation(&db, p), "retain ≠ rebuild");
    }

    #[test]
    fn incremental_alpha_after_ne_insert_matches_rebuild() {
        let mut db = db();
        let p = db.voc().pred_id("P").unwrap();
        let alpha_old = alpha_relation(&db, p);
        // New axiom u ≠ a: disagreement (and hence α_P) can only grow.
        db.insert_ne(qld_logic::ConstId(3), qld_logic::ConstId(0))
            .unwrap();
        let mut scratch = DisagreeScratch::new();
        let additions = alpha_additions_for_ne(&db, p, &alpha_old, &mut scratch);
        let merged = Relation::from_rows(alpha_old.arity(), alpha_old.iter().chain(&additions));
        let rebuilt = alpha_relation(&db, p);
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
        let alpha = alpha_relation(&db, p);
        // No facts → every tuple vacuously disagrees with all of them:
        // the completion axiom ∀x ¬P(x) makes ¬P certain everywhere.
        assert_eq!(alpha.len(), 2);
    }
}
