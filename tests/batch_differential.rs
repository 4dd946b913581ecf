//! Differential tests of batched multi-query execution and the answer
//! cache: `Engine::execute_batch` must be bit-identical to per-query
//! `execute` under every semantics, a batch of Theorem-1-bound queries
//! must pay for exactly one mapping enumeration (not N), and cache hits
//! must return byte-identical answers with `cache_hit` set and zero new
//! mappings.

use proptest::prelude::*;
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::exact::{
    certain_answers_batch_with, certain_answers_with, possible_answers_batch_with,
    possible_answers_with, ExactOptions,
};
use querying_logical_databases::core::mappings::{analyze_decomposition, count_kernel_mappings};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::Query;
use querying_logical_databases::prelude::{Engine, Semantics};

fn random_db(seed: u64, n: usize, known: f64) -> CwDatabase {
    random_cw_db(&DbGenConfig {
        num_consts: n,
        pred_arities: vec![2, 1],
        facts_per_pred: 3,
        known_fraction: known,
        extra_ne_pairs: (seed % 3) as usize,
        seed,
    })
}

fn random_queries(db: &CwDatabase, count: usize, seed: u64) -> Vec<Query> {
    (0..count)
        .map(|i| {
            random_query(
                db.voc(),
                &QueryGenConfig {
                    fragment: if i % 2 == 0 {
                        QueryFragment::FullFo
                    } else {
                        QueryFragment::Positive
                    },
                    max_depth: 3,
                    head_arity: i % 3,
                    seed: seed.wrapping_mul(31).wrapping_add(i as u64 * 977),
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// `execute_batch` ≡ per-query `execute` for every semantics, on
    /// random databases and random query sets (mixed positive / full FO,
    /// so Auto partitions the batch between the §5 path and the shared
    /// Theorem 1 enumeration).
    #[test]
    fn batch_equals_individual_execution(
        seed in 0u64..10_000,
        n in 1usize..5,
        known in 0u8..=10,
        batch_size in 1usize..5,
        threads in 1usize..=4,
    ) {
        let db = random_db(seed, n, f64::from(known) / 10.0);
        let queries = random_queries(&db, batch_size, seed);
        let engine = Engine::builder(db.clone())
            .parallelism(threads)
            .answer_cache(false)
            .build();
        let reference = Engine::builder(db).answer_cache(false).build();
        let prepared: Vec<_> = queries
            .iter()
            .map(|q| engine.prepare(q.clone()).unwrap())
            .collect();
        for semantics in Semantics::ALL {
            let batch = engine.execute_batch_as(&prepared, semantics).unwrap();
            prop_assert_eq!(batch.len(), queries.len());
            for (i, q) in queries.iter().enumerate() {
                let solo = reference
                    .execute_as(&reference.prepare(q.clone()).unwrap(), semantics)
                    .unwrap();
                prop_assert_eq!(
                    batch[i].tuples(),
                    solo.tuples(),
                    "batch diverged from individual execution: {:?}, query {} ({:?})",
                    semantics, i, q
                );
                prop_assert_eq!(
                    batch[i].evidence().certificate,
                    solo.evidence().certificate,
                    "certificate diverged: {:?}, query {}", semantics, i
                );
            }
        }
    }

    /// The core batch evaluators are bit-identical to N independent calls
    /// — answers *and* (without early exit) mapping totals, which must be
    /// one enumeration for the whole batch.
    #[test]
    fn core_batch_evaluators_match_independent_calls(
        seed in 0u64..10_000,
        n in 1usize..5,
        known in 0u8..=10,
        batch_size in 1usize..4,
        threads in 1usize..=4,
    ) {
        let db = random_db(seed.wrapping_add(7), n, f64::from(known) / 10.0);
        let queries = random_queries(&db, batch_size, seed.wrapping_mul(13));
        let opts = ExactOptions {
            corollary2_fast_path: false,
            early_exit: false,
            ..ExactOptions::with_threads(threads)
        };
        let (certain, cstats) = certain_answers_batch_with(&db, &queries, opts).unwrap();
        let (possible, pstats) = possible_answers_batch_with(&db, &queries, opts).unwrap();
        // One enumeration for the whole batch: with early exit off the
        // shared total plus what the walk collapsed is exactly the kernel
        // count — not batch_size times it — and both duals walk the same
        // images.
        let kernel_count = count_kernel_mappings(&db);
        prop_assert_eq!(cstats.mappings_evaluated + cstats.mappings_pruned, kernel_count);
        prop_assert_eq!(pstats, cstats);
        // A batch collapses the constants free for *all* its members up to
        // its widest member's cap, so a solo total can fall below the batch
        // total; with no free constant the plans coincide.
        let plans_coincide = analyze_decomposition(&db).free.is_empty();
        for (i, q) in queries.iter().enumerate() {
            let (solo_c, solo_cstats) = certain_answers_with(&db, q, opts).unwrap();
            let (solo_p, _) = possible_answers_with(&db, q, opts).unwrap();
            prop_assert_eq!(&certain[i], &solo_c, "certain batch diverged on query {}", i);
            prop_assert_eq!(&possible[i], &solo_p, "possible batch diverged on query {}", i);
            prop_assert_eq!(
                solo_cstats.mappings_evaluated + solo_cstats.mappings_pruned,
                kernel_count
            );
            if plans_coincide {
                // Each independent call pays the same enumeration the batch
                // paid once.
                prop_assert_eq!(solo_cstats.mappings_evaluated, cstats.mappings_evaluated);
            }
        }
    }

    /// Cache hits are byte-identical to the uncached answer, marked
    /// `cache_hit`, and enumerate zero new mappings — under every
    /// semantics.
    #[test]
    fn cache_hits_are_byte_identical(
        seed in 0u64..10_000,
        n in 1usize..5,
        known in 0u8..=10,
    ) {
        let db = random_db(seed.wrapping_add(99), n, f64::from(known) / 10.0);
        let q = random_queries(&db, 1, seed.wrapping_mul(41)).pop().unwrap();
        let engine = Engine::new(db);
        let prepared = engine.prepare(q).unwrap();
        for semantics in Semantics::ALL {
            let first = engine.execute_as(&prepared, semantics).unwrap();
            prop_assert!(!first.evidence().cache_hit);
            let second = engine.execute_as(&prepared, semantics).unwrap();
            prop_assert!(second.evidence().cache_hit, "{:?} not served from cache", semantics);
            prop_assert_eq!(second.evidence().mappings_evaluated, 0);
            prop_assert_eq!(second.tuples(), first.tuples());
            prop_assert_eq!(second.evidence().certificate, first.evidence().certificate);
            prop_assert_eq!(second.evidence().regime, first.evidence().regime);
            // Batches are served from the same cache.
            let batched = engine.execute_batch_as(
                std::slice::from_ref(&prepared), semantics
            ).unwrap();
            prop_assert!(batched[0].evidence().cache_hit);
            prop_assert_eq!(batched[0].tuples(), first.tuples());
        }
    }
}

/// A batch of Theorem-1-bound queries through the engine pays for exactly
/// one enumeration: every member reports the same shared total, that total
/// equals what a single query pays alone, and it accounts for the full
/// kernel count (the queries are built to never stabilize, so early exit
/// cannot blur the accounting; they mention no constant and share one cap,
/// so every solo plan is the batch's plan).
#[test]
fn engine_batch_shares_exactly_one_enumeration() {
    let db = random_db(5, 4, 0.3);
    let texts = [
        "(x) . (exists y. !P0(x, y)) | x = x",
        "(x, y) . !P0(x, y) | y = y",
        "(x) . (forall y. !P0(x, y)) | x = x",
        "(x, y) . !P1(x) | y = y",
    ];
    let engine = Engine::builder(db.clone())
        .semantics(Semantics::Exact)
        .answer_cache(false)
        .build();
    let prepared: Vec<_> = texts
        .iter()
        .map(|t| engine.prepare_text(t).unwrap())
        .collect();
    let batch = engine.execute_batch(&prepared).unwrap();
    let kernel_count = count_kernel_mappings(&db);
    let shared = batch[0].evidence().mappings_evaluated;
    assert_eq!(
        shared + batch[0].evidence().mappings_pruned,
        kernel_count,
        "batch must account for the kernel set once"
    );
    for (i, a) in batch.iter().enumerate() {
        assert_eq!(
            a.evidence().mappings_evaluated,
            shared,
            "member {i} reports a different shared total"
        );
        assert_eq!(a.evidence().shared_batch, Some(texts.len()));
        assert!(a.evidence().workers_used >= 1, "enumeration ran: ≥1 worker");
        // Each member matches its individual execution.
        let solo = engine.execute(&prepared[i]).unwrap();
        assert_eq!(a.tuples(), solo.tuples());
        assert_eq!(solo.evidence().mappings_evaluated, shared);
    }
}
