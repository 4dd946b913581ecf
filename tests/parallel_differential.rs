//! Differential and determinism tests of the parallel Theorem 1 /
//! possible-answer enumeration: at every thread count the parallel
//! evaluators must be bit-identical to the sequential ones — same certain
//! answers, same possible answers, and (with early exit disabled, so the
//! totals are comparable) the same number of mappings evaluated.

use proptest::prelude::*;
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::exact::{
    certain_answers_with, possible_answers_with, ExactOptions,
};
use querying_logical_databases::core::mappings::count_kernel_mappings;

/// Options with the fast path off (we want the enumeration, not
/// Corollary 2) and early exit off (so `mappings_evaluated` is the full
/// deterministic total at any thread count).
fn opts(threads: usize) -> ExactOptions {
    ExactOptions {
        corollary2_fast_path: false,
        early_exit: false,
        ..ExactOptions::with_threads(threads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel == sequential across random databases, NE densities, and
    /// thread counts 1–8, for both certain and possible answers, with
    /// matching mapping totals.
    #[test]
    fn parallel_equals_sequential(
        seed in 0u64..10_000,
        n in 1usize..5,
        known in 0u8..=10,
        threads in 1usize..=8,
    ) {
        let db = random_cw_db(&DbGenConfig {
            num_consts: n,
            pred_arities: vec![2, 1],
            facts_per_pred: 3,
            known_fraction: f64::from(known) / 10.0,
            extra_ne_pairs: (seed % 3) as usize,
            seed,
        });
        let q = random_query(db.voc(), &QueryGenConfig {
            fragment: QueryFragment::FullFo,
            max_depth: 3,
            head_arity: (seed % 3) as usize,
            seed: seed.wrapping_mul(31),
        });

        let seq = opts(1);
        let par = opts(threads);
        let (cs, cs_stats) = certain_answers_with(&db, &q, seq).unwrap();
        let (cp, cp_stats) = certain_answers_with(&db, &q, par).unwrap();
        prop_assert_eq!(&cs, &cp, "certain answers diverged at {} threads", threads);
        prop_assert_eq!(
            cs_stats.mappings_evaluated, cp_stats.mappings_evaluated,
            "mapping totals diverged at {} threads", threads
        );
        // With early exit disabled the total accounts for the whole kernel
        // set.
        prop_assert_eq!(
            cs_stats.mappings_evaluated + cs_stats.mappings_pruned,
            count_kernel_mappings(&db)
        );
        prop_assert!(cp_stats.workers_used >= 1);

        let (ps, ps_stats) = possible_answers_with(&db, &q, seq).unwrap();
        let (pp, pp_stats) = possible_answers_with(&db, &q, par).unwrap();
        prop_assert_eq!(&ps, &pp, "possible answers diverged at {} threads", threads);
        prop_assert_eq!(ps_stats.mappings_evaluated, pp_stats.mappings_evaluated);
        prop_assert!(cs.is_subset_of(&ps), "certain ⊆ possible must hold");
    }

    /// Early exit on: the *answers* are still identical at any thread
    /// count (only the mapping count may differ — a worker may refute a
    /// little earlier or later depending on scheduling).
    #[test]
    fn parallel_early_exit_answers_are_deterministic(
        seed in 0u64..10_000,
        n in 2usize..5,
        threads in 2usize..=8,
    ) {
        let db = random_cw_db(&DbGenConfig {
            num_consts: n,
            pred_arities: vec![2, 1],
            facts_per_pred: 3,
            known_fraction: 0.3,
            extra_ne_pairs: 0,
            seed,
        });
        let q = random_query(db.voc(), &QueryGenConfig {
            fragment: QueryFragment::FullFo,
            max_depth: 3,
            head_arity: 1,
            seed: seed.wrapping_mul(13),
        });
        let eager = ExactOptions {
            corollary2_fast_path: false,
            ..ExactOptions::with_threads(threads)
        };
        let (par, _) = certain_answers_with(&db, &q, eager).unwrap();
        let (seq, _) = certain_answers_with(
            &db,
            &q,
            ExactOptions { corollary2_fast_path: false, ..ExactOptions::sequential() },
        )
        .unwrap();
        prop_assert_eq!(par, seq);
    }
}

/// Repeated parallel runs agree exactly — answers every time, and mapping
/// totals too when early exit is disabled.
#[test]
fn repeated_parallel_runs_agree() {
    let db = random_cw_db(&DbGenConfig {
        num_consts: 5,
        pred_arities: vec![2, 1],
        facts_per_pred: 4,
        known_fraction: 0.2,
        extra_ne_pairs: 1,
        seed: 7,
    });
    let q = random_query(
        db.voc(),
        &QueryGenConfig {
            fragment: QueryFragment::FullFo,
            max_depth: 3,
            head_arity: 2,
            seed: 99,
        },
    );
    let o = opts(4);
    let (first_certain, first_stats) = certain_answers_with(&db, &q, o).unwrap();
    let (first_possible, _) = possible_answers_with(&db, &q, o).unwrap();
    for run in 0..10 {
        let (c, s) = certain_answers_with(&db, &q, o).unwrap();
        assert_eq!(c, first_certain, "certain answers changed on run {run}");
        assert_eq!(
            s.mappings_evaluated, first_stats.mappings_evaluated,
            "mapping total changed on run {run}"
        );
        let (p, _) = possible_answers_with(&db, &q, o).unwrap();
        assert_eq!(p, first_possible, "possible answers changed on run {run}");
    }
}
