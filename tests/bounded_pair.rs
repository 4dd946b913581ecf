//! The bracket an over-budget `Auto` engine answers with, against the
//! formulas of §5 it is defined by.
//!
//! Over its mapping budget, an `Auto` query that no completeness theorem
//! covers is answered by `Certificate::BoundedPair`: `approx(Q)` as the
//! tuples, and `Cᵏ \ approx(¬Q)` as `Answers::upper_bound`, both sound by
//! Theorem 11. The engine evaluates the upper side as one query over
//! `Ph₂(LB)`; this test computes it the long way — `(¬Q)^` evaluated over
//! `Ph₂(LB)`, then every tuple of `Cᵏ` searched for in it — and the lower
//! side as `Q̂` over `Ph₂(LB)`. At six constants and fewer it also holds
//! the bracket around the certain answers of the Theorem 1 walk.
//!
//! The queries are random first-order ones of arity 0–3 plus one fixed
//! query per top-level connective of `(¬Q)^` — `∨`, `∃`, `∀`, an atom, `∧`
//! — and `every_top_level_shape_is_bracketed` checks each shape was seen.

use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::approx::AlphaMode;
use querying_logical_databases::core::{certain_answers, CwDatabase};
use querying_logical_databases::engine::{Certificate, Engine, Semantics};
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::{Formula, Query};
use querying_logical_databases::physical::{eval_query, Elem, TupleSpace};

/// One fixed query per top-level connective of its `(¬Q)^`.
const SHAPES: [(&str, Shape); 5] = [
    ("(x, y) . P0(x, y) & !P1(x)", Shape::Or),
    ("(x) . forall y. P0(x, y) -> P1(y)", Shape::Exists),
    ("(x) . exists y. !P0(x, y)", Shape::Forall),
    ("(x) . !P1(x)", Shape::Atom),
    ("(x, y) . !P0(x, y) | !P1(y)", Shape::And),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Or,
    Exists,
    Forall,
    Atom,
    And,
    Other,
}

impl Shape {
    fn of(f: &Formula) -> Shape {
        match f {
            Formula::Or(_) => Shape::Or,
            Formula::Exists(..) => Shape::Exists,
            Formula::Forall(..) => Shape::Forall,
            Formula::Atom(..) => Shape::Atom,
            Formula::And(_) => Shape::And,
            _ => Shape::Other,
        }
    }
}

/// `qld_bench`'s database shape: binary `P0`, unary `P1`, half the
/// constants unknown, so no database is fully specified.
fn database(num_consts: usize, seed: u64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts,
        pred_arities: vec![2, 1],
        facts_per_pred: 2 * num_consts,
        known_fraction: 0.5,
        extra_ne_pairs: 2,
        seed,
    })
}

/// Checks one query's bracket; returns the top-level shape of its
/// `(¬Q)^`, or `None` if the engine did not answer with a bracket (a
/// completeness theorem made the approximation exact).
fn check(db: &CwDatabase, query: &Query) -> Option<Shape> {
    let engine = Engine::builder(db.clone())
        .semantics(Semantics::Auto)
        .mapping_budget(0)
        .build();
    let answers = engine.eval(query).unwrap();
    if answers.evidence().certificate != Certificate::BoundedPair {
        return None;
    }
    let approx = engine.approx_engine();
    let ph2 = approx.extended_db();
    let lower = eval_query(
        ph2,
        &approx.rewrite(query, AlphaMode::Materialized).unwrap(),
    );
    let (head, body) = query.clone().into_parts();
    let negated = Query::new(head, Formula::not(body)).unwrap();
    let neg_hat = approx.rewrite(&negated, AlphaMode::Materialized).unwrap();
    let certainly_not = eval_query(ph2, &neg_hat);
    let consts: Vec<Elem> = (0..db.num_consts() as Elem).collect();
    let upper = TupleSpace::new(&consts, query.arity()).select(|t| !certainly_not.contains(t));
    let label = format!("{query:?} over {} constants", db.num_consts());
    assert_eq!(answers.tuples(), &lower, "lower bound of {label}");
    assert_eq!(
        answers.upper_bound(),
        Some(&upper),
        "upper bound of {label}"
    );
    if db.num_consts() <= 6 {
        let certain = certain_answers(db, query).unwrap();
        assert!(lower.is_subset_of(&certain), "lower ⊄ certain: {label}");
        assert!(certain.is_subset_of(&upper), "certain ⊄ upper: {label}");
    }
    Some(Shape::of(neg_hat.body()))
}

#[test]
fn every_top_level_shape_is_bracketed() {
    for (num_consts, seed) in [(4, 1), (6, 2), (12, 3), (32, 4)] {
        let db = database(num_consts, seed);
        for (text, shape) in SHAPES {
            let query = parse_query(db.voc(), text).unwrap();
            assert_eq!(check(&db, &query), Some(shape), "{text}");
        }
    }
}

#[test]
fn random_queries_are_bracketed_by_their_formulas() {
    let mut counts = [0usize; 6];
    for (num_consts, queries) in [(4, 60), (5, 60), (6, 60), (8, 30), (16, 20), (32, 10)] {
        for seed in 0..3 {
            let db = database(num_consts, 100 * num_consts as u64 + seed);
            for q in 0..queries / 3 {
                let query = random_query(
                    db.voc(),
                    &QueryGenConfig {
                        fragment: QueryFragment::FullFo,
                        max_depth: 3,
                        head_arity: (q % 4) as usize,
                        seed: 1000 * seed + q as u64,
                    },
                );
                if let Some(shape) = check(&db, &query) {
                    counts[shape as usize] += 1;
                }
            }
        }
    }
    // Every connective `(¬Q)^` can start with, from the generator alone.
    assert!(counts[..5].iter().all(|&n| n >= 3), "{counts:?}");
    let bracketed: usize = counts.iter().sum();
    assert!(bracketed >= 120, "{bracketed} bracketed, {counts:?}");
}
