//! Randomized verification of the §5 approximation theorems:
//! soundness (Thm 11), completeness on fully specified databases
//! (Thm 12), completeness on positive queries (Thm 13), agreement of the
//! two α_P realizations, the virtual-NE representation, and the algebra
//! backend.

use querying_logical_databases::algebra::ExecOptions;
use querying_logical_databases::approx::{AlphaMode, ApproxEngine, Backend};
use querying_logical_databases::core::certain_answers;
use querying_logical_databases::workloads::{
    random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig,
};

fn db_cfg(seed: u64, known_fraction: f64) -> DbGenConfig {
    DbGenConfig {
        num_consts: 5,
        pred_arities: vec![2, 1],
        facts_per_pred: 4,
        known_fraction,
        extra_ne_pairs: 1,
        seed,
    }
}

fn q_cfg(fragment: QueryFragment, head_arity: usize, seed: u64) -> QueryGenConfig {
    QueryGenConfig {
        fragment,
        max_depth: 3,
        head_arity,
        seed,
    }
}

#[test]
fn theorem_11_soundness_on_random_instances() {
    for seed in 0..25 {
        let db = random_cw_db(&db_cfg(seed, 0.4));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..8 {
            let q = random_query(
                db.voc(),
                &q_cfg(
                    QueryFragment::FullFo,
                    (qseed % 3) as usize,
                    qseed * 31 + seed,
                ),
            );
            let approx = engine.eval(&q).unwrap();
            let exact = certain_answers(&db, &q).unwrap();
            assert!(
                approx.is_subset_of(&exact),
                "UNSOUND: db seed {seed}, query {q:?}: {approx:?} ⊄ {exact:?}"
            );
        }
    }
}

#[test]
fn theorem_12_completeness_on_fully_specified() {
    for seed in 0..20 {
        let db = random_cw_db(&db_cfg(seed, 1.0));
        assert!(db.is_fully_specified());
        let engine = ApproxEngine::new(&db);
        for qseed in 0..8 {
            let q = random_query(
                db.voc(),
                &q_cfg(QueryFragment::FullFo, 1, qseed * 61 + seed),
            );
            assert_eq!(
                engine.eval(&q).unwrap(),
                certain_answers(&db, &q).unwrap(),
                "Theorem 12 violated: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn theorem_13_completeness_on_positive_queries() {
    for seed in 0..20 {
        let db = random_cw_db(&db_cfg(seed, 0.4));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..8 {
            let q = random_query(
                db.voc(),
                &q_cfg(QueryFragment::Positive, 1, qseed * 47 + seed),
            );
            assert!(q.is_positive());
            assert_eq!(
                engine.eval(&q).unwrap(),
                certain_answers(&db, &q).unwrap(),
                "Theorem 13 violated: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn alpha_modes_agree() {
    for seed in 0..15 {
        let db = random_cw_db(&db_cfg(seed, 0.4));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..6 {
            let q = random_query(
                db.voc(),
                &q_cfg(QueryFragment::FullFo, 1, qseed * 17 + seed),
            );
            assert_eq!(
                engine
                    .eval_with(&q, AlphaMode::Materialized, Backend::Naive)
                    .unwrap(),
                engine
                    .eval_with(&q, AlphaMode::Lemma10, Backend::Naive)
                    .unwrap(),
                "α modes disagree: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn virtual_ne_agrees_with_explicit() {
    for seed in 0..15 {
        let db = random_cw_db(&db_cfg(seed, 0.6));
        let explicit = ApproxEngine::new(&db);
        let virt = ApproxEngine::with_virtual_ne(&db);
        for qseed in 0..6 {
            let q = random_query(
                db.voc(),
                &q_cfg(QueryFragment::FullFo, 1, qseed * 11 + seed),
            );
            assert_eq!(
                explicit.eval(&q).unwrap(),
                virt.eval(&q).unwrap(),
                "virtual NE disagrees: db seed {seed}, query {q:?}"
            );
        }
    }
}

#[test]
fn algebra_backend_agrees_with_naive() {
    use querying_logical_databases::algebra::JoinAlgo;
    for seed in 0..15 {
        let db = random_cw_db(&db_cfg(seed, 0.4));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..6 {
            let q = random_query(
                db.voc(),
                &q_cfg(
                    QueryFragment::FullFo,
                    (qseed % 2) as usize,
                    qseed * 13 + seed,
                ),
            );
            let naive = engine.eval(&q).unwrap();
            for join in [JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
                let algebra = engine
                    .eval_with(
                        &q,
                        AlphaMode::Materialized,
                        Backend::Algebra(ExecOptions { join }),
                    )
                    .unwrap();
                assert_eq!(
                    naive, algebra,
                    "algebra backend ({join:?}) disagrees: db seed {seed}, query {q:?}"
                );
            }
        }
    }
}

#[test]
fn approximation_precision_is_exactly_one() {
    // Soundness means precision 1.0 — every reported tuple is certain.
    // Measure it the way experiment E7 does, as a sanity-check of the
    // metric computation itself.
    let mut reported = 0usize;
    let mut correct = 0usize;
    for seed in 0..10 {
        let db = random_cw_db(&db_cfg(seed, 0.3));
        let engine = ApproxEngine::new(&db);
        for qseed in 0..5 {
            let q = random_query(db.voc(), &q_cfg(QueryFragment::FullFo, 1, qseed + seed));
            let approx = engine.eval(&q).unwrap();
            let exact = certain_answers(&db, &q).unwrap();
            reported += approx.len();
            correct += approx.iter().filter(|t| exact.contains(t)).count();
        }
    }
    assert_eq!(reported, correct, "precision must be exactly 1");
}
