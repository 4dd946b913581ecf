//! Differential tests of the exact certain-answer evaluator: the
//! production Theorem 1 walk against the raw-mapping oracle (Theorem 1
//! verbatim), against the model-enumeration oracle, and against the
//! Theorem 3 precise simulation — on seeded random databases and queries.

use querying_logical_databases::core::exact::{certain_answers_with, AnswerMode, ExactOptions};
use querying_logical_databases::core::{certain_answers, oracle, precise};
use querying_logical_databases::workloads::{
    random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig,
};

fn kernels() -> ExactOptions {
    ExactOptions {
        corollary2_fast_path: false,
        ..ExactOptions::new()
    }
}

#[test]
fn kernel_enumeration_equals_raw_enumeration() {
    for seed in 0..30 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: 5,
            pred_arities: vec![2, 1],
            facts_per_pred: 4,
            known_fraction: 0.5,
            extra_ne_pairs: 1,
            seed,
        });
        for qseed in 0..6 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 3,
                    head_arity: (qseed % 3) as usize,
                    seed: qseed * 1000 + seed,
                },
            );
            let a = certain_answers_with(&db, &q, kernels()).unwrap().0;
            let b = oracle::answers_by_raw_mappings(&db, &q, AnswerMode::Certain).0;
            assert_eq!(
                a, b,
                "kernel walk ≠ raw mappings: db seed {seed}, query seed {qseed}, query {q:?}"
            );
        }
    }
}

#[test]
fn exact_equals_model_enumeration_oracle() {
    // Tiny instances: the oracle is doubly exponential.
    for seed in 0..12 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: 3,
            pred_arities: vec![2],
            facts_per_pred: 2,
            known_fraction: if seed % 2 == 0 { 0.34 } else { 0.67 },
            extra_ne_pairs: 0,
            seed,
        });
        for qseed in 0..4 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 2,
                    head_arity: (qseed % 2) as usize,
                    seed: qseed * 777 + seed,
                },
            );
            let fast = certain_answers(&db, &q).unwrap();
            let slow = oracle::certain_answers_oracle(&db, &q).unwrap();
            assert_eq!(fast, slow, "oracle mismatch: db seed {seed}, query {q:?}");
        }
    }
}

#[test]
fn precise_simulation_equals_exact() {
    // The Theorem 3 second-order simulation is doubly exponential in the
    // database: keep |C| minimal.
    for seed in 0..8 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: 3,
            pred_arities: vec![1],
            facts_per_pred: 2,
            known_fraction: 0.34,
            extra_ne_pairs: (seed % 2) as usize,
            seed,
        });
        for qseed in 0..4 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 2,
                    head_arity: (qseed % 2) as usize,
                    seed: qseed * 131 + seed,
                },
            );
            let direct = certain_answers(&db, &q).unwrap();
            let simulated = precise::evaluate(&db, &q).unwrap();
            assert_eq!(
                simulated, direct,
                "Theorem 3 mismatch: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn corollary2_on_random_fully_specified_databases() {
    for seed in 0..20 {
        let db = random_cw_db(&DbGenConfig {
            num_consts: 5,
            pred_arities: vec![2, 1],
            facts_per_pred: 5,
            known_fraction: 1.0,
            extra_ne_pairs: 0,
            seed,
        });
        assert!(db.is_fully_specified());
        for qseed in 0..5 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 3,
                    head_arity: 1,
                    seed: qseed * 313 + seed,
                },
            );
            let (fast, s) = certain_answers_with(&db, &q, ExactOptions::new()).unwrap();
            assert!(s.fast_path);
            let (generic, _) = certain_answers_with(&db, &q, kernels()).unwrap();
            assert_eq!(
                fast, generic,
                "Corollary 2 violated: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn certain_answers_monotone_in_uniqueness_axioms() {
    // Adding uniqueness axioms shrinks the model set, so certain answers
    // can only grow — for *positive* queries this is observable and makes
    // a good metamorphic invariant. (For queries with negation the answer
    // sets are not comparable in general.)
    use querying_logical_databases::logic::ConstId;
    for seed in 0..15 {
        let base_cfg = DbGenConfig {
            num_consts: 5,
            pred_arities: vec![2],
            facts_per_pred: 4,
            known_fraction: 0.0,
            extra_ne_pairs: 0,
            seed,
        };
        let weak = random_cw_db(&base_cfg);
        // Same facts, plus axioms: rebuild with one extra pair.
        let mut builder = querying_logical_databases::core::CwDatabase::builder(weak.voc().clone());
        for p in weak.voc().preds() {
            for t in weak.facts(p).iter() {
                let args: Vec<ConstId> = t.iter().map(|&e| ConstId(e)).collect();
                builder = builder.fact(p, &args);
            }
        }
        let strong = builder.unique(ConstId(0), ConstId(1)).build().unwrap();
        for qseed in 0..5 {
            let q = random_query(
                weak.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::Positive,
                    max_depth: 3,
                    head_arity: 1,
                    seed: qseed * 97 + seed,
                },
            );
            let weak_ans = certain_answers(&weak, &q).unwrap();
            let strong_ans = certain_answers(&strong, &q).unwrap();
            assert!(
                weak_ans.is_subset_of(&strong_ans),
                "monotonicity violated: seed {seed}, query {q:?}"
            );
        }
    }
}
