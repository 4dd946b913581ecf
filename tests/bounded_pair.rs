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
//!
//! `Auto`'s budget probe counts kernels once per axiom set, and the
//! snapshots of a `SharedEngine` share that count until an NE delta:
//! `an_ne_delta_under_the_budget_turns_brackets_into_theorem_1` checks a
//! shared reader leaves the bracket exactly when a fresh engine does.

use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::approx::AlphaMode;
use querying_logical_databases::core::mappings::count_kernel_mappings;
use querying_logical_databases::core::{certain_answers, CwDatabase};
use querying_logical_databases::engine::{Certificate, Delta, Engine, Semantics, SharedEngine};
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::logic::{ConstId, Formula, Query};
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

/// A shared reader answers every shape with a bracket while the kernel
/// count is over the budget, keeps doing so across a fact delta (which
/// keeps the count), and answers with Theorem 1 after an NE delta that
/// takes the count to the budget — at every epoch equal to a fresh solo
/// engine with the same budget. The NE delta asserts every missing
/// inequality but one, so the database stays short of fully specified.
#[test]
fn an_ne_delta_under_the_budget_turns_brackets_into_theorem_1() {
    for (num_consts, seed) in [(5, 7), (6, 8), (7, 9)] {
        let db = database(num_consts, seed);
        let n = num_consts as u32;
        let missing: Vec<(ConstId, ConstId)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (ConstId(a), ConstId(b))))
            .filter(|&(a, b)| !db.is_ne(a, b))
            .collect();
        let axioms = missing[1..]
            .iter()
            .fold(Delta::new(), |delta, &(a, b)| delta.assert_ne(a, b));
        let budget = 2; // the one pair left: equal or not
        assert!(
            count_kernel_mappings(&db) > budget,
            "{num_consts} constants"
        );
        let engine = |db: CwDatabase| {
            Engine::builder(db)
                .semantics(Semantics::Auto)
                .mapping_budget(budget)
                .build()
        };
        let shared = SharedEngine::new(engine(db.clone()));
        let mut session = shared.session();
        let prepared: Vec<_> = SHAPES
            .iter()
            .map(|(text, _)| session.prepare_text(text).unwrap())
            .collect();
        let p0 = db.voc().pred_id("P0").unwrap();
        let absent = (0..n * n)
            .map(|i| [i / n, i % n])
            .find(|row| !db.facts(p0).contains(row))
            .unwrap();
        let fact = Delta::new().insert_fact(p0, &absent.map(ConstId));
        for (delta, want) in [
            (None, Certificate::BoundedPair),
            (Some(fact), Certificate::BoundedPair),
            (Some(axioms), Certificate::ExactTheorem1),
        ] {
            if let Some(delta) = delta {
                assert!(shared.apply(&delta).unwrap().changed());
            }
            let snapshot = shared.snapshot();
            let solo = engine(snapshot.engine().db().clone());
            for (prepared, (text, _)) in prepared.iter().zip(SHAPES) {
                let got = session.execute(prepared).unwrap();
                let label = format!("{text}, {num_consts} constants, epoch {}", snapshot.epoch());
                assert_eq!(got.evidence().certificate, want, "{label}");
                let fresh = solo.query(text).unwrap();
                assert_eq!(
                    got.evidence().certificate,
                    fresh.evidence().certificate,
                    "{label}"
                );
                assert_eq!(got.tuples(), fresh.tuples(), "{label}");
                assert_eq!(got.upper_bound(), fresh.upper_bound(), "{label}");
            }
        }
    }
}
