//! Integration tests of the unified `qld_engine::Engine` session API:
//! certificate correctness on random workloads, prepared-query reuse,
//! and the builder's knobs.

use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::{certain_answers, possible_answers};
use querying_logical_databases::prelude::{Certificate, Engine, Regime, Semantics};

fn random_db(known_fraction: f64, seed: u64) -> querying_logical_databases::core::CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts: 5,
        pred_arities: vec![2, 1],
        facts_per_pred: 4,
        known_fraction,
        extra_ne_pairs: 1,
        seed,
    })
}

/// The acceptance criterion for `Auto` mode, differentially: on random
/// databases and queries, every `Auto` answer is certified exact and is
/// bit-identical to `certain_answers`, and escalation to Theorem 1
/// happens exactly when no completeness theorem applies.
#[test]
fn auto_mode_agrees_with_certain_answers_and_certifies_correctly() {
    for seed in 0..25 {
        // Sweep null density so all three auto regimes are exercised.
        let known = [0.0, 0.4, 0.8, 1.0][seed as usize % 4];
        let db = random_db(known, seed);
        let engine = Engine::new(db.clone());
        for qseed in 0..6 {
            for fragment in [QueryFragment::FullFo, QueryFragment::Positive] {
                let q = random_query(
                    db.voc(),
                    &QueryGenConfig {
                        fragment,
                        max_depth: 3,
                        head_arity: (qseed % 3) as usize,
                        seed: qseed * 1000 + seed,
                    },
                );
                let reference = certain_answers(&db, &q).unwrap();
                let answers = engine.eval(&q).unwrap();
                let ev = answers.evidence();
                assert!(
                    ev.certificate.is_exact(),
                    "auto must always certify: seed {seed}, query {q:?}"
                );
                assert_eq!(
                    *answers.tuples(),
                    reference,
                    "auto disagrees with certain_answers under certificate {:?}: \
                     seed {seed}, query {q:?}",
                    ev.certificate
                );
                // Escalation discipline: Theorem 1 runs iff no
                // completeness theorem applies.
                let prepared = engine.prepare(q.clone()).unwrap();
                match prepared.completeness() {
                    Some(_) => assert_ne!(
                        ev.regime,
                        Regime::Theorem1,
                        "needless escalation: seed {seed}, query {q:?}"
                    ),
                    None => assert_eq!(
                        ev.regime,
                        Regime::Theorem1,
                        "missing escalation: seed {seed}, query {q:?}"
                    ),
                }
            }
        }
    }
}

/// Approx-semantics certificates are honest on random workloads: claimed
/// exactness implies equality, and the uncertified case is still sound.
#[test]
fn approx_certificates_are_sound_on_random_workloads() {
    for seed in 0..15 {
        let known = [0.0, 0.5, 1.0][seed as usize % 3];
        let db = random_db(known, seed * 7 + 1);
        let engine = Engine::builder(db.clone())
            .semantics(Semantics::Approx)
            .build();
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
            let reference = certain_answers(&db, &q).unwrap();
            let answers = engine.eval(&q).unwrap();
            assert!(
                answers.tuples().is_subset_of(&reference),
                "Theorem 11 soundness violated: seed {seed}, query {q:?}"
            );
            if answers.is_exact() {
                assert_eq!(
                    *answers.tuples(),
                    reference,
                    "exactness certificate lied: seed {seed}, query {q:?}"
                );
            }
        }
    }
}

/// A reused `PreparedQuery` returns identical results to one-shot
/// evaluation across all four semantics — repeatedly.
#[test]
fn prepared_query_reuse_matches_one_shot_across_semantics() {
    for seed in 0..10 {
        let db = random_db(0.5, seed * 11 + 3);
        let engine = Engine::new(db.clone());
        for qseed in 0..4 {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 3,
                    head_arity: (qseed % 2) as usize,
                    seed: qseed * 97 + seed,
                },
            );
            let prepared = engine.prepare(q.clone()).unwrap();
            for semantics in Semantics::ALL {
                let one_shot = {
                    let mut e = Engine::new(db.clone());
                    e.set_semantics(semantics);
                    e.eval(&q).unwrap()
                };
                // Execute the same prepared query twice: identical both
                // times, and identical to the fresh one-shot engine.
                let first = engine.execute_as(&prepared, semantics).unwrap();
                let second = engine.execute_as(&prepared, semantics).unwrap();
                assert_eq!(
                    first.tuples(),
                    second.tuples(),
                    "prepared reuse unstable: {semantics:?}, seed {seed}, query {q:?}"
                );
                assert_eq!(
                    first.tuples(),
                    one_shot.tuples(),
                    "prepared vs one-shot mismatch: {semantics:?}, seed {seed}, query {q:?}"
                );
                assert_eq!(
                    first.evidence().certificate,
                    one_shot.evidence().certificate
                );
            }
        }
    }
}

/// Exact and Possible semantics through the engine match the qld_core
/// reference functions, and the evidence layer reports mapping effort.
#[test]
fn exact_and_possible_match_reference_functions() {
    for seed in 0..10 {
        let db = random_db(0.5, seed + 41);
        let engine = Engine::new(db.clone());
        for qseed in [0u64, 1] {
            let q = random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: QueryFragment::FullFo,
                    max_depth: 2,
                    head_arity: 1,
                    seed: qseed * 53 + seed,
                },
            );
            let prepared = engine.prepare(q.clone()).unwrap();
            let exact = engine.execute_as(&prepared, Semantics::Exact).unwrap();
            assert_eq!(*exact.tuples(), certain_answers(&db, &q).unwrap());

            let possible = engine.execute_as(&prepared, Semantics::Possible).unwrap();
            assert_eq!(*possible.tuples(), possible_answers(&db, &q).unwrap());
            assert_eq!(
                possible.evidence().certificate,
                Certificate::PossibleUpperBound
            );
            assert!(possible.evidence().mappings_evaluated > 0);
            assert!(exact.tuples().is_subset_of(possible.tuples()));
        }
    }
}
