//! Cardinality estimation and greedy join ordering.
//!
//! The Codd translation folds conjunctions left to right, which can build
//! a terrible join order (e.g. a cross product before a selective scan).
//! [`order_conjuncts`] implements the classic greedy heuristic: start
//! from the smallest estimated input, then repeatedly take the cheapest
//! *connected* conjunct (one sharing a variable with what has been joined
//! so far), falling back to the cheapest disconnected one only when
//! nothing is connected. `compile_query_ordered` plugs this into the
//! compiler; the workspace equivalence tests run it against the naive
//! order on random queries.

use crate::plan::Plan;
use qld_logic::{PredId, Var};
use qld_physical::PhysicalDb;

/// Source of table and domain cardinalities for planning.
pub trait CardinalityEstimator {
    /// Estimated number of rows of a base relation.
    fn scan_rows(&self, p: PredId) -> usize;
    /// Size of the domain (`Dom` scans, padding products).
    fn domain_size(&self) -> usize;
}

impl CardinalityEstimator for PhysicalDb {
    fn scan_rows(&self, p: PredId) -> usize {
        self.relation(p).len()
    }

    fn domain_size(&self) -> usize {
        self.domain().len()
    }
}

/// A fixed-shape estimator for planning without a database at hand
/// (uniform table size, configurable domain).
#[derive(Debug, Clone)]
pub struct UniformEstimator {
    /// Row count assumed for every base relation.
    pub rows_per_table: usize,
    /// Assumed domain size.
    pub domain: usize,
}

impl CardinalityEstimator for UniformEstimator {
    fn scan_rows(&self, _p: PredId) -> usize {
        self.rows_per_table
    }

    fn domain_size(&self) -> usize {
        self.domain
    }
}

/// Rough output-cardinality estimate of a translated sub-plan. Scans
/// count their table; everything else is bounded by the tuple space of
/// its columns. Good enough to separate "a selective scan" from "a
/// padded domain product", which is what the greedy order needs.
pub fn estimate_plan(est: &dyn CardinalityEstimator, plan: &Plan) -> f64 {
    match plan {
        Plan::Values(rel) => rel.len() as f64,
        Plan::Dom => est.domain_size() as f64,
        Plan::ConstVal(_) => 1.0,
        Plan::Scan(p) => est.scan_rows(*p) as f64,
        // Selections filter: attenuate by a conventional factor per
        // condition.
        Plan::Select { input, conds } => estimate_plan(est, input) / (1.0 + conds.len() as f64),
        Plan::Project { input, .. } => estimate_plan(est, input),
        Plan::Product(l, r) => estimate_plan(est, l) * estimate_plan(est, r),
        Plan::Join { left, right, keys } => {
            let cross = estimate_plan(est, left) * estimate_plan(est, right);
            // Each key equality divides by the domain size (uniformity
            // assumption).
            cross / (est.domain_size().max(1) as f64).powi(keys.len() as i32)
        }
        Plan::Union(l, r) => estimate_plan(est, l) + estimate_plan(est, r),
        Plan::Difference(l, _) => estimate_plan(est, l),
    }
}

/// Greedy ordering of conjunct sub-plans (each given with its estimated
/// cardinality and output variables). Returns the order as indices into
/// the input.
pub fn order_conjuncts(items: &[(f64, Vec<Var>)]) -> Vec<usize> {
    let n = items.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let mut remaining: Vec<usize> = (0..n).collect();
    // Seed: globally cheapest.
    let seed_pos = remaining
        .iter()
        .enumerate()
        .min_by(|(_, &a), (_, &b)| items[a].0.total_cmp(&items[b].0))
        .map(|(pos, _)| pos)
        .expect("nonempty");
    let mut order = vec![remaining.swap_remove(seed_pos)];
    let mut bound: Vec<Var> = items[order[0]].1.clone();
    while !remaining.is_empty() {
        let connected = |idx: usize| items[idx].1.iter().any(|v| bound.contains(v));
        let pick_pos = remaining
            .iter()
            .enumerate()
            .filter(|(_, &idx)| connected(idx))
            .min_by(|(_, &a), (_, &b)| items[a].0.total_cmp(&items[b].0))
            .map(|(pos, _)| pos)
            .or_else(|| {
                remaining
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| items[a].0.total_cmp(&items[b].0))
                    .map(|(pos, _)| pos)
            })
            .expect("nonempty");
        let idx = remaining.swap_remove(pick_pos);
        for v in &items[idx].1 {
            if !bound.contains(v) {
                bound.push(*v);
            }
        }
        order.push(idx);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::Vocabulary;

    #[test]
    fn uniform_estimator() {
        let est = UniformEstimator {
            rows_per_table: 10,
            domain: 5,
        };
        assert_eq!(est.scan_rows(PredId(0)), 10);
        assert_eq!(est.domain_size(), 5);
    }

    #[test]
    fn estimate_respects_structure() {
        let mut voc = Vocabulary::new();
        let r = voc.add_pred("R", 2).unwrap();
        let est = UniformEstimator {
            rows_per_table: 100,
            domain: 10,
        };
        let scan = Plan::Scan(r);
        let product = Plan::Product(Box::new(scan.clone()), Box::new(Plan::Dom));
        let join = Plan::Join {
            left: Box::new(scan.clone()),
            right: Box::new(scan.clone()),
            keys: vec![(1, 0)],
        };
        let e_scan = estimate_plan(&est, &scan);
        let e_prod = estimate_plan(&est, &product);
        let e_join = estimate_plan(&est, &join);
        assert_eq!(e_scan, 100.0);
        assert_eq!(e_prod, 1000.0);
        assert_eq!(e_join, 1000.0); // 100·100/10
        assert!(e_join < e_prod * e_scan);
    }

    #[test]
    fn greedy_starts_at_cheapest() {
        let items = vec![
            (100.0, vec![Var(0), Var(1)]),
            (1.0, vec![Var(1), Var(2)]),
            (50.0, vec![Var(2), Var(3)]),
        ];
        let order = order_conjuncts(&items);
        assert_eq!(order[0], 1);
        // Both others connect through shared variables; cheaper first.
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn greedy_prefers_connected_over_cheaper_disconnected() {
        let items = vec![
            (1.0, vec![Var(0)]),
            (5.0, vec![Var(0), Var(1)]), // connected to seed
            (2.0, vec![Var(9)]),         // cheaper but a cross product
        ];
        let order = order_conjuncts(&items);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(order_conjuncts(&[]).is_empty());
        assert_eq!(order_conjuncts(&[(3.0, vec![])]), vec![0]);
    }
}
