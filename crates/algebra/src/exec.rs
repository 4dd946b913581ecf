//! Plan execution against a physical database.
//!
//! Every operator produces a flat [`Relation`]: filters (`Select`,
//! `Difference`) shrink the input they own with [`Relation::retain`],
//! everything that builds new rows (`Project`, `Product`, the joins)
//! pushes them straight into a [`RowWriter`] — gathered columns or a left
//! row chained with a right row, never a boxed tuple in between. Executing
//! a plan therefore allocates per operator (an output buffer and its
//! doublings, a join's two key arrays), not per row.

use crate::plan::{Cond, Plan};
use qld_physical::{Elem, PhysicalDb, Relation, RowWriter};

/// Join algorithm selection (an ablation axis in the benchmarks).
///
/// Sort-merge is the default, and there is no hash join: on this engine's
/// small packed keys ablation A1 measured one slower than sort-merge at
/// every relation size from 64 to 4,096 rows per side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinAlgo {
    /// Sort both sides by key, merge equal-key groups.
    #[default]
    SortMerge,
    /// Quadratic reference implementation.
    NestedLoop,
}

/// Execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Which join algorithm [`execute`] uses for `Plan::Join`.
    pub join: JoinAlgo,
}

/// Executes a plan, producing the result relation.
///
/// Plans produced by [`crate::compile::compile_query`] are well-formed by
/// construction; hand-built plans with arity mismatches will panic (debug
/// assertions check the invariants).
pub fn execute(db: &PhysicalDb, plan: &Plan, opts: ExecOptions) -> Relation {
    match plan {
        Plan::Values(rel) => rel.clone(),
        Plan::Dom => Relation::from_rows(1, db.domain().iter().map(|&e| [e])),
        Plan::ConstVal(c) => Relation::from_rows(1, [[db.const_val(*c)]]),
        Plan::Scan(p) => db.relation(*p).clone(),
        Plan::Select { input, conds } => {
            let mut rel = execute(db, input, opts);
            rel.retain(|t| conds.iter().all(|c| eval_cond(db, c, t)));
            rel
        }
        Plan::Project { input, cols } => {
            let rel = execute(db, input, opts);
            let mut out = RowWriter::new(cols.len());
            for t in &rel {
                out.push_with(cols.iter().map(|&i| t[i]));
            }
            out.finish()
        }
        Plan::Product(l, r) => nested_loop_join(&execute(db, l, opts), &execute(db, r, opts), &[]),
        Plan::Join { left, right, keys } => {
            let l = execute(db, left, opts);
            let r = execute(db, right, opts);
            join(&l, &r, keys, opts.join)
        }
        Plan::Union(l, r) => {
            let left = execute(db, l, opts);
            let right = execute(db, r, opts);
            debug_assert_eq!(left.arity(), right.arity(), "union arity mismatch");
            Relation::from_rows(left.arity(), left.iter().chain(&right))
        }
        Plan::Difference(l, r) => {
            let mut left = execute(db, l, opts);
            let right = execute(db, r, opts);
            debug_assert_eq!(left.arity(), right.arity(), "difference arity mismatch");
            left.retain(|t| !right.contains(t));
            left
        }
    }
}

fn eval_cond(db: &PhysicalDb, cond: &Cond, t: &[Elem]) -> bool {
    match *cond {
        Cond::EqCol(i, j) => t[i] == t[j],
        Cond::NeCol(i, j) => t[i] != t[j],
        Cond::EqConst(i, c) => t[i] == db.const_val(c),
        Cond::NeConst(i, c) => t[i] != db.const_val(c),
    }
}

/// Dispatches to the configured join implementation. Output tuples are
/// left ++ right.
pub fn join(
    left: &Relation,
    right: &Relation,
    keys: &[(usize, usize)],
    algo: JoinAlgo,
) -> Relation {
    match algo {
        JoinAlgo::NestedLoop => nested_loop_join(left, right, keys),
        JoinAlgo::SortMerge => sort_merge_join(left, right, keys),
    }
}

fn nested_loop_join(left: &Relation, right: &Relation, keys: &[(usize, usize)]) -> Relation {
    let mut out = RowWriter::new(left.arity() + right.arity());
    for lt in left {
        for rt in right {
            if keys.iter().all(|&(li, ri)| lt[li] == rt[ri]) {
                out.push_with(lt.iter().chain(rt).copied());
            }
        }
    }
    out.finish()
}

/// Join keys are extracted once per row and packed: up to four 32-bit
/// columns fit a `u128`, avoiding per-row heap allocation during sorting
/// (longer keys are rare in compiled plans and fall back to boxed slices).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Packed(u128),
    Wide(Box<[Elem]>),
}

fn key_of(t: &[Elem], cols: &[usize]) -> Key {
    if cols.len() <= 4 {
        let mut packed: u128 = cols.len() as u128; // length-tag avoids collisions
        for &i in cols {
            packed = (packed << 32) | u128::from(t[i]);
        }
        Key::Packed(packed)
    } else {
        Key::Wide(cols.iter().map(|&i| t[i]).collect())
    }
}

fn sort_merge_join(left: &Relation, right: &Relation, keys: &[(usize, usize)]) -> Relation {
    if keys.is_empty() {
        return nested_loop_join(left, right, keys);
    }
    let lkeys: Vec<usize> = keys.iter().map(|&(l, _)| l).collect();
    let rkeys: Vec<usize> = keys.iter().map(|&(_, r)| r).collect();
    // Extract keys once, then sort (key, row) pairs.
    let mut ls: Vec<(Key, &[Elem])> = left.iter().map(|t| (key_of(t, &lkeys), t)).collect();
    let mut rs: Vec<(Key, &[Elem])> = right.iter().map(|t| (key_of(t, &rkeys), t)).collect();
    ls.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    rs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut out = RowWriter::new(left.arity() + right.arity());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ls.len() && j < rs.len() {
        match ls[i].0.cmp(&rs[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Find the extent of the equal-key groups on both sides.
                let i_end = i + ls[i..].iter().take_while(|(k, _)| *k == ls[i].0).count();
                let j_end = j + rs[j..].iter().take_while(|(k, _)| *k == rs[j].0).count();
                for &(_, lt) in &ls[i..i_end] {
                    for &(_, rt) in &rs[j..j_end] {
                        out.push_with(lt.iter().chain(rt).copied());
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::Vocabulary;

    fn setup() -> (Vocabulary, PhysicalDb) {
        let mut voc = Vocabulary::new();
        let a = voc.add_const("a").unwrap();
        let b = voc.add_const("b").unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let s = voc.add_pred("S", 2).unwrap();
        let db = PhysicalDb::builder(&voc)
            .domain(0..4)
            .constant(a, 0)
            .constant(b, 1)
            .relation_from_tuples(r, vec![vec![0, 1], vec![1, 2], vec![2, 3]])
            .relation_from_tuples(s, vec![vec![1, 0], vec![2, 1], vec![3, 3]])
            .build()
            .unwrap();
        (voc, db)
    }

    fn all_algos() -> [JoinAlgo; 2] {
        [JoinAlgo::SortMerge, JoinAlgo::NestedLoop]
    }

    #[test]
    fn scan_and_select() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        let a = voc.const_id("a").unwrap();
        let plan = Plan::select(Plan::Scan(r), vec![Cond::EqConst(0, a)]);
        let out = execute(&db, &plan, ExecOptions::default());
        assert_eq!(out.len(), 1);
        assert!(out.contains(&[0, 1]));
    }

    #[test]
    fn project_reorders_and_dedups() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        let plan = Plan::project(Plan::Scan(r), vec![1, 0]);
        let out = execute(&db, &plan, ExecOptions::default());
        assert!(out.contains(&[1, 0]));
        assert!(out.contains(&[3, 2]));
        // Project to a constant column set that collapses tuples.
        let plan = Plan::project(Plan::Scan(r), vec![]);
        let out = execute(&db, &plan, ExecOptions::default());
        assert_eq!(out.len(), 1); // nonempty → {()}
    }

    #[test]
    fn joins_agree_across_algorithms() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        let s = voc.pred_id("S").unwrap();
        let plan = |_algo| Plan::Join {
            left: Box::new(Plan::Scan(r)),
            right: Box::new(Plan::Scan(s)),
            keys: vec![(1, 0)],
        };
        let reference = execute(
            &db,
            &plan(JoinAlgo::NestedLoop),
            ExecOptions {
                join: JoinAlgo::NestedLoop,
            },
        );
        assert!(!reference.is_empty());
        for algo in all_algos() {
            let out = execute(&db, &plan(algo), ExecOptions { join: algo });
            assert_eq!(out, reference, "algo {algo:?} disagrees");
        }
    }

    #[test]
    fn multi_key_join() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        // Self-join R(x,y) ⋈ R(x,y) on both columns = identity.
        let plan = Plan::Join {
            left: Box::new(Plan::Scan(r)),
            right: Box::new(Plan::Scan(r)),
            keys: vec![(0, 0), (1, 1)],
        };
        for algo in all_algos() {
            let out = execute(&db, &plan, ExecOptions { join: algo });
            assert_eq!(out.len(), 3, "algo {algo:?}");
            assert!(out.contains(&[0, 1, 0, 1]));
        }
    }

    #[test]
    fn empty_key_join_is_product() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        let plan = Plan::Join {
            left: Box::new(Plan::Scan(r)),
            right: Box::new(Plan::Dom),
            keys: vec![],
        };
        for algo in all_algos() {
            let out = execute(&db, &plan, ExecOptions { join: algo });
            assert_eq!(out.len(), 12, "algo {algo:?}"); // 3 tuples × 4 domain
        }
    }

    #[test]
    fn union_difference() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        let s = voc.pred_id("S").unwrap();
        let u = execute(
            &db,
            &Plan::Union(Box::new(Plan::Scan(r)), Box::new(Plan::Scan(s))),
            ExecOptions::default(),
        );
        assert_eq!(u.len(), 6);
        let d = execute(
            &db,
            &Plan::Difference(Box::new(Plan::Scan(r)), Box::new(Plan::Scan(s))),
            ExecOptions::default(),
        );
        assert_eq!(d.len(), 3); // disjoint
        let d2 = execute(
            &db,
            &Plan::Difference(Box::new(Plan::Scan(r)), Box::new(Plan::Scan(r))),
            ExecOptions::default(),
        );
        assert!(d2.is_empty());
    }

    #[test]
    fn dom_and_constval() {
        let (voc, db) = setup();
        let b = voc.const_id("b").unwrap();
        let dom = execute(&db, &Plan::Dom, ExecOptions::default());
        assert_eq!(dom.len(), 4);
        let cv = execute(&db, &Plan::ConstVal(b), ExecOptions::default());
        assert_eq!(cv.len(), 1);
        assert!(cv.contains(&[1]));
    }

    #[test]
    fn ne_conditions() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        let a = voc.const_id("a").unwrap();
        let plan = Plan::select(Plan::Scan(r), vec![Cond::NeConst(0, a), Cond::NeCol(0, 1)]);
        let out = execute(&db, &plan, ExecOptions::default());
        assert_eq!(out.len(), 2); // (1,2),(2,3)
    }
}
