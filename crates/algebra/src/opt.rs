//! A conservative plan optimizer.
//!
//! The compiler's output is deliberately naive (selections above scans,
//! products instead of joins when conditions arrive late, towers of
//! projections); this pass applies the standard algebraic rewrites:
//!
//! * selection fusion: `σ_c1(σ_c2(P)) → σ_{c1∧c2}(P)`;
//! * projection fusion: `π_a(π_b(P)) → π_{b∘a}(P)`;
//! * identity-projection elimination;
//! * selection-over-product to equi-join conversion, with one-sided
//!   conditions pushed below the product;
//! * selection pushdown through joins (and boundary equalities promoted to
//!   join keys);
//! * unit/empty algebraic simplifications.
//!
//! Every rewrite is semantics-preserving; the compile-tests battery runs
//! optimized and unoptimized plans side by side.

use crate::plan::{Cond, Plan};
use qld_logic::Vocabulary;

/// Applies the rewrites bottom-up until a fixpoint (bounded passes).
pub fn optimize(voc: &Vocabulary, plan: Plan) -> Plan {
    let mut current = plan;
    for _ in 0..16 {
        let (next, changed) = pass(voc, current);
        current = next;
        if !changed {
            break;
        }
    }
    current
}

fn is_unit(p: &Plan) -> bool {
    matches!(p, Plan::Values(rel) if rel.arity() == 0 && rel.len() == 1)
}

fn is_empty_values(p: &Plan) -> bool {
    matches!(p, Plan::Values(rel) if rel.is_empty())
}

/// One bottom-up rewriting pass. Returns the plan and whether anything
/// changed.
fn pass(voc: &Vocabulary, plan: Plan) -> (Plan, bool) {
    match plan {
        Plan::Values(_) | Plan::Dom | Plan::ConstVal(_) | Plan::Scan(_) => (plan, false),
        Plan::Select { input, conds } => {
            let (input, mut changed) = pass(voc, *input);
            let plan = match input {
                // σ_c1(σ_c2(P)) → σ_{c2∧c1}(P)
                Plan::Select {
                    input: inner,
                    conds: mut inner_conds,
                } => {
                    changed = true;
                    inner_conds.extend(conds);
                    Plan::Select {
                        input: inner,
                        conds: inner_conds,
                    }
                }
                // σ over a product: split conditions by side, promote
                // boundary equalities to join keys.
                Plan::Product(left, right) => {
                    let la = left.arity(voc);
                    let mut keys = Vec::new();
                    let mut lconds = Vec::new();
                    let mut rconds = Vec::new();
                    let mut above = Vec::new();
                    for c in conds {
                        route_cond(c, la, &mut keys, &mut lconds, &mut rconds, &mut above);
                    }
                    if keys.is_empty() && lconds.is_empty() && rconds.is_empty() {
                        Plan::select(Plan::Product(left, right), above)
                    } else {
                        changed = true;
                        let join = Plan::Join {
                            left: Box::new(Plan::select(*left, lconds)),
                            right: Box::new(Plan::select(*right, rconds)),
                            keys,
                        };
                        Plan::select(join, above)
                    }
                }
                // σ over a join: same routing, extending the key list.
                Plan::Join { left, right, keys } => {
                    let la = left.arity(voc);
                    let mut keys = keys;
                    let mut lconds = Vec::new();
                    let mut rconds = Vec::new();
                    let mut above = Vec::new();
                    let before = (keys.len(), conds.len());
                    for c in conds {
                        route_cond(c, la, &mut keys, &mut lconds, &mut rconds, &mut above);
                    }
                    if keys.len() != before.0 || above.len() != before.1 {
                        changed = true;
                    }
                    let join = Plan::Join {
                        left: Box::new(Plan::select(*left, lconds)),
                        right: Box::new(Plan::select(*right, rconds)),
                        keys,
                    };
                    Plan::select(join, above)
                }
                other if is_empty_values(&other) => {
                    changed = true;
                    other
                }
                other => Plan::select(other, conds),
            };
            (plan, changed)
        }
        Plan::Project { input, cols } => {
            let (input, mut changed) = pass(voc, *input);
            // π identity
            if cols.len() == input.arity(voc) && cols.iter().enumerate().all(|(i, &c)| i == c) {
                return (input, true);
            }
            let plan = match input {
                Plan::Project {
                    input: inner,
                    cols: inner_cols,
                } => {
                    changed = true;
                    Plan::Project {
                        input: inner,
                        cols: cols.iter().map(|&i| inner_cols[i]).collect(),
                    }
                }
                other => Plan::project(other, cols),
            };
            (plan, changed)
        }
        Plan::Product(l, r) => {
            let (l, cl) = pass(voc, *l);
            let (r, cr) = pass(voc, *r);
            if is_unit(&l) {
                return (r, true);
            }
            if is_unit(&r) {
                return (l, true);
            }
            if is_empty_values(&l) || is_empty_values(&r) {
                let arity = l.arity(voc) + r.arity(voc);
                return (Plan::empty(arity), true);
            }
            (Plan::Product(Box::new(l), Box::new(r)), cl || cr)
        }
        Plan::Join { left, right, keys } => {
            let (l, cl) = pass(voc, *left);
            let (r, cr) = pass(voc, *right);
            if is_empty_values(&l) || is_empty_values(&r) {
                let arity = l.arity(voc) + r.arity(voc);
                return (Plan::empty(arity), true);
            }
            (
                Plan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    keys,
                },
                cl || cr,
            )
        }
        Plan::Union(l, r) => {
            let (l, cl) = pass(voc, *l);
            let (r, cr) = pass(voc, *r);
            if is_empty_values(&l) {
                return (r, true);
            }
            if is_empty_values(&r) {
                return (l, true);
            }
            (Plan::Union(Box::new(l), Box::new(r)), cl || cr)
        }
        Plan::Difference(l, r) => {
            let (l, cl) = pass(voc, *l);
            let (r, cr) = pass(voc, *r);
            if is_empty_values(&l) {
                let arity = l.arity(voc);
                return (Plan::empty(arity), true);
            }
            if is_empty_values(&r) {
                return (l, true);
            }
            (Plan::Difference(Box::new(l), Box::new(r)), cl || cr)
        }
    }
}

/// Routes a selection condition sitting above a two-sided operator with
/// left arity `la`: into join keys, the left side, the right side, or kept
/// above.
fn route_cond(
    c: Cond,
    la: usize,
    keys: &mut Vec<(usize, usize)>,
    lconds: &mut Vec<Cond>,
    rconds: &mut Vec<Cond>,
    above: &mut Vec<Cond>,
) {
    match c {
        Cond::EqCol(i, j) => {
            let (lo, hi) = (i.min(j), i.max(j));
            if lo < la && hi >= la {
                keys.push((lo, hi - la));
            } else if hi < la {
                lconds.push(c);
            } else {
                rconds.push(Cond::EqCol(lo - la, hi - la));
            }
        }
        Cond::NeCol(i, j) => {
            let (lo, hi) = (i.min(j), i.max(j));
            if lo < la && hi >= la {
                above.push(c);
            } else if hi < la {
                lconds.push(c);
            } else {
                rconds.push(Cond::NeCol(lo - la, hi - la));
            }
        }
        Cond::EqConst(i, k) => {
            if i < la {
                lconds.push(c);
            } else {
                rconds.push(Cond::EqConst(i - la, k));
            }
        }
        Cond::NeConst(i, k) => {
            if i < la {
                lconds.push(c);
            } else {
                rconds.push(Cond::NeConst(i - la, k));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use qld_physical::PhysicalDb;

    fn setup() -> (Vocabulary, PhysicalDb) {
        let mut voc = Vocabulary::new();
        let a = voc.add_const("a").unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let s = voc.add_pred("S", 2).unwrap();
        let db = PhysicalDb::builder(&voc)
            .domain(0..5)
            .constant(a, 0)
            .relation_from_tuples(r, vec![vec![0, 1], vec![1, 2], vec![2, 3]])
            .relation_from_tuples(s, vec![vec![1, 4], vec![2, 0]])
            .build()
            .unwrap();
        (voc, db)
    }

    #[test]
    fn select_over_product_becomes_join() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        let s = voc.pred_id("S").unwrap();
        let naive = Plan::select(
            Plan::Product(Box::new(Plan::Scan(r)), Box::new(Plan::Scan(s))),
            vec![Cond::EqCol(1, 2)],
        );
        let optimized = optimize(&voc, naive.clone());
        assert!(
            matches!(optimized, Plan::Join { .. }),
            "expected join, got {optimized:?}"
        );
        assert_eq!(
            execute(&db, &naive, ExecOptions::default()),
            execute(&db, &optimized, ExecOptions::default())
        );
    }

    #[test]
    fn selection_fusion() {
        let (voc, _) = setup();
        let r = voc.pred_id("R").unwrap();
        let a = voc.const_id("a").unwrap();
        let plan = Plan::select(
            Plan::select(Plan::Scan(r), vec![Cond::EqConst(0, a)]),
            vec![Cond::NeCol(0, 1)],
        );
        let optimized = optimize(&voc, plan);
        match optimized {
            Plan::Select { conds, .. } => assert_eq!(conds.len(), 2),
            other => panic!("expected fused select, got {other:?}"),
        }
    }

    #[test]
    fn projection_fusion_and_identity() {
        let (voc, _) = setup();
        let r = voc.pred_id("R").unwrap();
        let plan = Plan::project(Plan::project(Plan::Scan(r), vec![1, 0]), vec![1, 0]);
        // π_{1,0}(π_{1,0}(R)) = identity projection = R.
        assert_eq!(optimize(&voc, plan), Plan::Scan(r));
    }

    #[test]
    fn unit_product_elimination() {
        let (voc, _) = setup();
        let r = voc.pred_id("R").unwrap();
        let plan = Plan::Product(Box::new(Plan::unit()), Box::new(Plan::Scan(r)));
        assert_eq!(optimize(&voc, plan), Plan::Scan(r));
    }

    #[test]
    fn empty_propagation() {
        let (voc, _) = setup();
        let r = voc.pred_id("R").unwrap();
        let plan = Plan::Join {
            left: Box::new(Plan::empty(2)),
            right: Box::new(Plan::Scan(r)),
            keys: vec![(0, 0)],
        };
        assert_eq!(optimize(&voc, plan), Plan::empty(4));
        let plan = Plan::Union(Box::new(Plan::empty(2)), Box::new(Plan::Scan(r)));
        assert_eq!(optimize(&voc, plan), Plan::Scan(r));
        let plan = Plan::Difference(Box::new(Plan::Scan(r)), Box::new(Plan::empty(2)));
        assert_eq!(optimize(&voc, plan), Plan::Scan(r));
    }

    #[test]
    fn one_sided_conditions_pushed_down() {
        let (voc, db) = setup();
        let r = voc.pred_id("R").unwrap();
        let s = voc.pred_id("S").unwrap();
        let a = voc.const_id("a").unwrap();
        let plan = Plan::select(
            Plan::Product(Box::new(Plan::Scan(r)), Box::new(Plan::Scan(s))),
            vec![Cond::EqConst(0, a), Cond::EqConst(3, a), Cond::EqCol(1, 2)],
        );
        let optimized = optimize(&voc, plan.clone());
        // The product became a join with selections pushed to its inputs.
        fn has_product(p: &Plan) -> bool {
            match p {
                Plan::Product(..) => true,
                Plan::Select { input, .. } | Plan::Project { input, .. } => has_product(input),
                Plan::Join { left, right, .. }
                | Plan::Union(left, right)
                | Plan::Difference(left, right) => has_product(left) || has_product(right),
                _ => false,
            }
        }
        assert!(!has_product(&optimized));
        assert_eq!(
            execute(&db, &plan, ExecOptions::default()),
            execute(&db, &optimized, ExecOptions::default())
        );
    }
}
