//! The classic first-order → relational-algebra translation (Codd's
//! theorem, constructive direction), over the explicit finite domain.
//!
//! Because every [`qld_physical::PhysicalDb`] carries its domain, the
//! translation needs no range-restriction analysis: quantifiers and
//! negation compile against the `Dom` relation and the result provably
//! agrees with the naive Tarskian evaluator on *every* first-order query
//! (property-tested in this crate and in the workspace integration tests).
//!
//! The §5 pipeline uses this to run approximate logical-database queries
//! on the relational engine: `Q ↦ Q̂ ↦ plan over Ph₂(LB)`.

use crate::exec::{execute, ExecOptions};
use crate::opt::optimize;
use crate::plan::{Cond, Plan};
use crate::stats::{estimate_plan, order_conjuncts, CardinalityEstimator};
use qld_logic::{Formula, LogicError, Query, Term, Var, Vocabulary};
use qld_physical::{PhysicalDb, Relation};
use std::fmt;

/// Errors from query compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The algebra engine only handles first-order queries.
    SecondOrder,
    /// The query is ill-formed for the vocabulary.
    Logic(LogicError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::SecondOrder => {
                write!(
                    f,
                    "second-order queries cannot be compiled to relational algebra"
                )
            }
            CompileError::Logic(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LogicError> for CompileError {
    fn from(e: LogicError) -> Self {
        CompileError::Logic(e)
    }
}

/// Compiles a first-order query into a plan whose output columns are the
/// query's head variables, in head order.
pub fn compile_query(voc: &Vocabulary, query: &Query) -> Result<Plan, CompileError> {
    compile_inner(voc, None, query)
}

/// Like [`compile_query`], but orders conjunctions greedily using the
/// estimator (smallest connected input first) — see [`crate::stats`].
pub fn compile_query_ordered(
    voc: &Vocabulary,
    est: &dyn CardinalityEstimator,
    query: &Query,
) -> Result<Plan, CompileError> {
    compile_inner(voc, Some(est), query)
}

fn compile_inner(
    voc: &Vocabulary,
    est: Option<&dyn CardinalityEstimator>,
    query: &Query,
) -> Result<Plan, CompileError> {
    query.check(voc)?;
    let (mut plan, mut cols) = translate(est, query.body())?;
    // Pad head variables that the body never mentions (they range over the
    // whole domain, matching the naive evaluator).
    for hv in query.head() {
        if !cols.contains(hv) {
            plan = Plan::Product(Box::new(plan), Box::new(Plan::Dom));
            cols.push(*hv);
        }
    }
    let out_cols: Vec<usize> = query
        .head()
        .iter()
        .map(|hv| {
            cols.iter()
                .position(|c| c == hv)
                .expect("head variables are free in the body or padded")
        })
        .collect();
    Ok(Plan::project(plan, out_cols))
}

/// Compiles (with optimization) and executes in one step.
pub fn eval_via_algebra(
    voc: &Vocabulary,
    db: &PhysicalDb,
    query: &Query,
    opts: ExecOptions,
) -> Result<Relation, CompileError> {
    let plan = optimize(voc, compile_query(voc, query)?);
    Ok(execute(db, &plan, opts))
}

fn dom_pow(k: usize) -> Plan {
    let mut plan = Plan::unit();
    for _ in 0..k {
        plan = Plan::Product(Box::new(plan), Box::new(Plan::Dom));
    }
    plan
}

/// Translates a formula into a plan over its free variables; returns the
/// plan and the variable each output column carries.
fn translate(
    est: Option<&dyn CardinalityEstimator>,
    f: &Formula,
) -> Result<(Plan, Vec<Var>), CompileError> {
    match f {
        Formula::True => Ok((Plan::unit(), Vec::new())),
        Formula::False => Ok((Plan::empty(0), Vec::new())),
        Formula::Atom(p, ts) => {
            let mut conds: Vec<Cond> = Vec::new();
            let mut first: Vec<(Var, usize)> = Vec::new();
            for (i, t) in ts.iter().enumerate() {
                match t {
                    Term::Const(c) => conds.push(Cond::EqConst(i, *c)),
                    Term::Var(v) => match first.iter().find(|(w, _)| w == v) {
                        Some((_, j)) => conds.push(Cond::EqCol(*j, i)),
                        None => first.push((*v, i)),
                    },
                }
            }
            let plan = Plan::select(Plan::Scan(*p), conds);
            let cols: Vec<usize> = first.iter().map(|(_, i)| *i).collect();
            let vars: Vec<Var> = first.iter().map(|(v, _)| *v).collect();
            Ok((Plan::project(plan, cols), vars))
        }
        Formula::SoAtom(..) | Formula::SoExists(..) | Formula::SoForall(..) => {
            Err(CompileError::SecondOrder)
        }
        Formula::Eq(a, b) => match (a, b) {
            (Term::Var(x), Term::Var(y)) if x == y => Ok((Plan::Dom, vec![*x])),
            (Term::Var(x), Term::Var(y)) => {
                let plan = Plan::select(
                    Plan::Product(Box::new(Plan::Dom), Box::new(Plan::Dom)),
                    vec![Cond::EqCol(0, 1)],
                );
                Ok((plan, vec![*x, *y]))
            }
            (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                Ok((Plan::ConstVal(*c), vec![*x]))
            }
            (Term::Const(c1), Term::Const(c2)) => {
                // Never fold by symbol identity: in image databases two
                // symbols may denote one element.
                let plan = Plan::project(
                    Plan::select(
                        Plan::Product(Box::new(Plan::ConstVal(*c1)), Box::new(Plan::ConstVal(*c2))),
                        vec![Cond::EqCol(0, 1)],
                    ),
                    vec![],
                );
                Ok((plan, Vec::new()))
            }
        },
        Formula::Not(g) => {
            let (pg, cols) = translate(est, g)?;
            Ok((
                Plan::Difference(Box::new(dom_pow(cols.len())), Box::new(pg)),
                cols,
            ))
        }
        Formula::And(fs) => {
            let mut parts: Vec<(Plan, Vec<Var>)> = fs
                .iter()
                .map(|g| translate(est, g))
                .collect::<Result<_, _>>()?;
            if let Some(est) = est {
                // Greedy join ordering: smallest connected conjunct first.
                let items: Vec<(f64, Vec<Var>)> = parts
                    .iter()
                    .map(|(p, vars)| (estimate_plan(est, p), vars.clone()))
                    .collect();
                let order = order_conjuncts(&items);
                let mut reordered: Vec<Option<(Plan, Vec<Var>)>> =
                    parts.into_iter().map(Some).collect();
                parts = order
                    .into_iter()
                    .map(|i| reordered[i].take().expect("each index used once"))
                    .collect();
            }
            let mut acc: Option<(Plan, Vec<Var>)> = None;
            for next in parts {
                acc = Some(match acc {
                    None => next,
                    Some(prev) => join_on_shared(prev, next),
                });
            }
            Ok(acc.unwrap_or((Plan::unit(), Vec::new())))
        }
        Formula::Or(fs) => {
            let translated: Vec<(Plan, Vec<Var>)> = fs
                .iter()
                .map(|g| translate(est, g))
                .collect::<Result<_, _>>()?;
            // Target column set: union of free variables, sorted by index.
            let mut union_vars: Vec<Var> = translated
                .iter()
                .flat_map(|(_, cols)| cols.iter().copied())
                .collect();
            union_vars.sort_unstable();
            union_vars.dedup();
            let mut acc: Option<Plan> = None;
            for (mut plan, mut cols) in translated {
                for v in &union_vars {
                    if !cols.contains(v) {
                        plan = Plan::Product(Box::new(plan), Box::new(Plan::Dom));
                        cols.push(*v);
                    }
                }
                let reorder: Vec<usize> = union_vars
                    .iter()
                    .map(|v| cols.iter().position(|c| c == v).expect("padded above"))
                    .collect();
                let aligned = Plan::project(plan, reorder);
                acc = Some(match acc {
                    None => aligned,
                    Some(prev) => Plan::Union(Box::new(prev), Box::new(aligned)),
                });
            }
            Ok((acc.unwrap_or(Plan::empty(0)), union_vars))
        }
        Formula::Implies(p, q) => translate(
            est,
            &Formula::or(vec![Formula::not((**p).clone()), (**q).clone()]),
        ),
        Formula::Iff(p, q) => translate(
            est,
            &Formula::or(vec![
                Formula::and(vec![(**p).clone(), (**q).clone()]),
                Formula::and(vec![
                    Formula::not((**p).clone()),
                    Formula::not((**q).clone()),
                ]),
            ]),
        ),
        Formula::Exists(v, g) => {
            let (pg, mut cols) = translate(est, g)?;
            match cols.iter().position(|c| c == v) {
                // v not free in g: ∃v g ≡ g over a nonempty domain (which
                // §2.1 guarantees).
                None => Ok((pg, cols)),
                Some(pos) => {
                    cols.remove(pos);
                    let keep: Vec<usize> = (0..=cols.len()).filter(|&i| i != pos).collect();
                    Ok((Plan::project(pg, keep), cols))
                }
            }
        }
        Formula::Forall(v, g) => translate(
            est,
            &Formula::not(Formula::Exists(*v, Box::new(Formula::not((**g).clone())))),
        ),
    }
}

/// Natural join of two translated sub-plans on their shared variables.
fn join_on_shared(
    (lp, lcols): (Plan, Vec<Var>),
    (rp, rcols): (Plan, Vec<Var>),
) -> (Plan, Vec<Var>) {
    let mut keys: Vec<(usize, usize)> = Vec::new();
    for (j, rv) in rcols.iter().enumerate() {
        if let Some(i) = lcols.iter().position(|lv| lv == rv) {
            keys.push((i, j));
        }
    }
    let joined = Plan::Join {
        left: Box::new(lp),
        right: Box::new(rp),
        keys,
    };
    // Keep all left columns, plus right columns for new variables.
    let l_arity = lcols.len();
    let mut out_cols: Vec<usize> = (0..l_arity).collect();
    let mut out_vars = lcols;
    for (j, rv) in rcols.iter().enumerate() {
        if !out_vars.contains(rv) {
            out_cols.push(l_arity + j);
            out_vars.push(*rv);
        }
    }
    (Plan::project(joined, out_cols), out_vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qld_logic::parser::parse_query;
    use qld_physical::eval_query;

    fn setup() -> (Vocabulary, PhysicalDb) {
        let mut voc = Vocabulary::new();
        let a = voc.add_const("a").unwrap();
        let b = voc.add_const("b").unwrap();
        let r = voc.add_pred("R", 2).unwrap();
        let m = voc.add_pred("M", 1).unwrap();
        let db = PhysicalDb::builder(&voc)
            .domain(0..4)
            .constant(a, 0)
            .constant(b, 1)
            .relation_from_tuples(r, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]])
            .relation_from_tuples(m, vec![vec![0], vec![2]])
            .build()
            .unwrap();
        (voc, db)
    }

    /// The battery: every query here is checked algebra-vs-naive.
    const QUERIES: &[&str] = &[
        "(x) . M(x)",
        "(x, y) . R(x, y)",
        "(x) . exists y. R(x, y) & M(y)",
        "(x, z) . exists y. R(x, y) & R(y, z)",
        "(x) . !M(x)",
        "(x) . M(x) | exists y. R(y, x)",
        "(x) . forall y. R(x, y) -> M(y)",
        "(x, y) . R(x, y) & x != y",
        "(x) . R(a, x)",
        "(x) . R(x, x)",
        "(x) . x = b",
        "(x) . x != a & M(x)",
        "(x, y) . M(x) & M(y)",
        "exists x. M(x) & !M(x)",
        "forall x. M(x) | !M(x)",
        "(x) . M(x) <-> exists y. R(x, y)",
        "(x, y) . R(x, y) | R(y, x)",
        "(x) . exists y, z. R(x, y) & R(y, z) & M(z)",
        "a = b",
        "a = a",
        "(x, y) . x = y & M(x)",
        "(y, x) . R(x, y)",
    ];

    #[test]
    fn algebra_matches_naive_on_battery() {
        let (voc, db) = setup();
        for input in QUERIES {
            let q = parse_query(&voc, input).unwrap();
            let naive = eval_query(&db, &q);
            let plan = compile_query(&voc, &q).unwrap();
            let alg = execute(&db, &plan, ExecOptions::default());
            assert_eq!(alg, naive, "mismatch on {input}");
            // Also through the optimizer and every join algorithm.
            let opt_plan = optimize(&voc, plan);
            for join in [
                crate::exec::JoinAlgo::SortMerge,
                crate::exec::JoinAlgo::NestedLoop,
            ] {
                let out = execute(&db, &opt_plan, ExecOptions { join });
                assert_eq!(out, naive, "optimized mismatch on {input} with {join:?}");
            }
        }
    }

    #[test]
    fn head_var_not_in_body_ranges_over_domain() {
        let (voc, db) = setup();
        let q = parse_query(&voc, "(x, y) . M(x)").unwrap();
        let naive = eval_query(&db, &q);
        let plan = compile_query(&voc, &q).unwrap();
        let alg = execute(&db, &plan, ExecOptions::default());
        assert_eq!(alg, naive);
        assert_eq!(alg.len(), 2 * 4);
    }

    #[test]
    fn second_order_rejected() {
        let (voc, _) = setup();
        let q = parse_query(&voc, "exists2 ?S:1. exists x. ?S(x)").unwrap();
        assert_eq!(
            compile_query(&voc, &q).unwrap_err(),
            CompileError::SecondOrder
        );
    }

    #[test]
    fn ordered_compilation_is_equivalent_and_reorders() {
        let (voc, db) = setup();
        // Written worst-first: a padded inequality, then a domain-wide
        // atom, then the selective constant scan. The greedy order should
        // start from the selective scan.
        let q = parse_query(&voc, "(x) . exists y. x != y & R(x, y) & R(a, x)").unwrap();
        let naive = eval_query(&db, &q);
        let plain = compile_query(&voc, &q).unwrap();
        let ordered = crate::compile::compile_query_ordered(&voc, &db, &q).unwrap();
        assert_eq!(execute(&db, &plain, ExecOptions::default()), naive);
        assert_eq!(execute(&db, &ordered, ExecOptions::default()), naive);
        // And under the optimizer too.
        let opt = optimize(&voc, ordered);
        assert_eq!(execute(&db, &opt, ExecOptions::default()), naive);
    }

    #[test]
    fn ordered_compilation_battery() {
        let (voc, db) = setup();
        for input in QUERIES {
            let q = parse_query(&voc, input).unwrap();
            let naive = eval_query(&db, &q);
            let ordered = crate::compile::compile_query_ordered(&voc, &db, &q).unwrap();
            let out = execute(&db, &optimize(&voc, ordered), ExecOptions::default());
            assert_eq!(out, naive, "ordered compile mismatch on {input}");
        }
    }

    #[test]
    fn constant_equality_not_folded_by_symbol() {
        // In a database where two constant symbols share a value, a = b
        // must be TRUE at runtime even though the symbols differ.
        let mut voc = Vocabulary::new();
        let a = voc.add_const("a").unwrap();
        let b = voc.add_const("b").unwrap();
        let db = PhysicalDb::builder(&voc)
            .domain([7])
            .constant(a, 7)
            .constant(b, 7)
            .build()
            .unwrap();
        let q = parse_query(&voc, "a = b").unwrap();
        let plan = compile_query(&voc, &q).unwrap();
        let out = execute(&db, &plan, ExecOptions::default());
        assert_eq!(out.len(), 1, "a = b must hold when I(a) = I(b)");
    }
}
