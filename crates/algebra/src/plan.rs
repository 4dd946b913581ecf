//! Relational-algebra plans.

use qld_logic::{ConstId, PredId, Vocabulary};
use qld_physical::Relation;

/// A selection condition over the columns of a plan's output.
///
/// Constant comparisons reference *constant symbols*, resolved against the
/// database at execution time — never pre-folded, because in the image
/// databases `h(Ph₁(LB))` two distinct constant symbols may denote the same
/// element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Column `i` equals column `j`.
    EqCol(usize, usize),
    /// Column `i` equals the value of constant `c`.
    EqConst(usize, ConstId),
    /// Column `i` differs from column `j`.
    NeCol(usize, usize),
    /// Column `i` differs from the value of constant `c`.
    NeConst(usize, ConstId),
}

impl Cond {
    /// The columns this condition reads.
    pub fn columns(&self) -> (usize, Option<usize>) {
        match self {
            Cond::EqCol(i, j) | Cond::NeCol(i, j) => (*i, Some(*j)),
            Cond::EqConst(i, _) | Cond::NeConst(i, _) => (*i, None),
        }
    }

    /// Shifts every column reference left by `offset` (used when pushing
    /// conditions below the right side of a product).
    pub fn shifted_left(&self, offset: usize) -> Cond {
        match *self {
            Cond::EqCol(i, j) => Cond::EqCol(i - offset, j - offset),
            Cond::NeCol(i, j) => Cond::NeCol(i - offset, j - offset),
            Cond::EqConst(i, c) => Cond::EqConst(i - offset, c),
            Cond::NeConst(i, c) => Cond::NeConst(i - offset, c),
        }
    }
}

/// A relational-algebra plan. Output columns are positional.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// A literal relation.
    Values(Relation),
    /// The full domain as a unary relation (the "Dom" relation of the
    /// active-domain translation — exact here, since domains are finite
    /// and explicit).
    Dom,
    /// The singleton unary relation `{I(c)}`.
    ConstVal(ConstId),
    /// A base relation.
    Scan(PredId),
    /// `σ_conds(input)`.
    Select {
        /// Input plan.
        input: Box<Plan>,
        /// Conjunction of conditions.
        conds: Vec<Cond>,
    },
    /// `π_cols(input)` — may reorder and duplicate columns.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// For each output column, the input column it copies.
        cols: Vec<usize>,
    },
    /// Cartesian product; output columns are left's then right's.
    Product(Box<Plan>, Box<Plan>),
    /// Equi-join on `keys = [(left_col, right_col), …]`; output columns
    /// are left's then right's (join columns are *not* deduplicated).
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Pairs of (left column, right column) that must be equal.
        keys: Vec<(usize, usize)>,
    },
    /// Set union (same arity both sides).
    Union(Box<Plan>, Box<Plan>),
    /// Set difference `left ∖ right` (same arity both sides).
    Difference(Box<Plan>, Box<Plan>),
}

impl Plan {
    /// Output arity of the plan.
    pub fn arity(&self, voc: &Vocabulary) -> usize {
        match self {
            Plan::Values(rel) => rel.arity(),
            Plan::Dom | Plan::ConstVal(_) => 1,
            Plan::Scan(p) => voc.pred_arity(*p),
            Plan::Select { input, .. } => input.arity(voc),
            Plan::Project { cols, .. } => cols.len(),
            Plan::Product(l, r)
            | Plan::Join {
                left: l, right: r, ..
            } => l.arity(voc) + r.arity(voc),
            Plan::Union(l, _) | Plan::Difference(l, _) => l.arity(voc),
        }
    }

    /// Number of operator nodes (for optimizer tests and plan statistics).
    pub fn num_nodes(&self) -> usize {
        match self {
            Plan::Values(_) | Plan::Dom | Plan::ConstVal(_) | Plan::Scan(_) => 1,
            Plan::Select { input, .. } => 1 + input.num_nodes(),
            Plan::Project { input, .. } => 1 + input.num_nodes(),
            Plan::Product(l, r)
            | Plan::Join {
                left: l, right: r, ..
            }
            | Plan::Union(l, r)
            | Plan::Difference(l, r) => 1 + l.num_nodes() + r.num_nodes(),
        }
    }

    /// Convenience constructor: selection (drops empty condition lists).
    pub fn select(input: Plan, conds: Vec<Cond>) -> Plan {
        if conds.is_empty() {
            input
        } else {
            Plan::Select {
                input: Box::new(input),
                conds,
            }
        }
    }

    /// Convenience constructor: projection.
    pub fn project(input: Plan, cols: Vec<usize>) -> Plan {
        Plan::Project {
            input: Box::new(input),
            cols,
        }
    }

    /// The empty relation of a given arity.
    pub fn empty(arity: usize) -> Plan {
        Plan::Values(Relation::empty(arity))
    }

    /// The unit relation `{()}` (identity for products).
    pub fn unit() -> Plan {
        Plan::Values(Relation::from_rows(0, [[]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_computation() {
        let mut voc = Vocabulary::new();
        voc.add_const("a").unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let plan = Plan::project(
            Plan::Join {
                left: Box::new(Plan::Scan(r)),
                right: Box::new(Plan::Dom),
                keys: vec![(1, 0)],
            },
            vec![0],
        );
        assert_eq!(plan.arity(&voc), 1);
        assert_eq!(plan.num_nodes(), 4);
    }

    #[test]
    fn select_constructor_drops_empty() {
        let p = Plan::select(Plan::Dom, vec![]);
        assert_eq!(p, Plan::Dom);
    }

    #[test]
    fn cond_shift() {
        assert_eq!(Cond::EqCol(3, 5).shifted_left(2), Cond::EqCol(1, 3));
        let c = ConstId(0);
        assert_eq!(Cond::NeConst(4, c).shifted_left(4), Cond::NeConst(0, c));
    }
}
