//! Differential and determinism tests of the parallel Theorem 1 /
//! possible-answer enumeration: at every thread count the parallel
//! evaluators must be bit-identical to the sequential ones — same certain
//! answers, same possible answers, and (with early exit disabled, so the
//! totals are comparable) the same number of mappings evaluated.

#[macro_use]
#[path = "support/cases.rs"]
mod cases;
#[path = "support/scenario.rs"]
mod scenario;

use querying_logical_databases::core::exact::{
    certain_answers_with, possible_answers_with, ExactOptions,
};
use querying_logical_databases::core::mappings::count_kernel_mappings;
use querying_logical_databases::prelude::Engine;
use rand::rngs::StdRng;
use rand::Rng;
use scenario::{observe, prepare_all, random_db, random_queries, Scenario, Shape, SMALL};

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

/// A scenario of `shape` whose engine runs `threads` workers.
fn with_threads(
    shape: &'static Shape,
    threads: std::ops::RangeInclusive<usize>,
) -> impl FnMut(&mut StdRng) -> Scenario {
    move |rng| Scenario {
        threads: rng.gen_range(threads.clone()),
        ..Scenario::generate(shape, rng)
    }
}

property! {
    /// Parallel == sequential across random databases, NE densities, and
    /// thread counts 1–8, for both certain and possible answers, with
    /// matching mapping totals; and the parallel adaptor, an engine at that
    /// thread count, answers like the one-worker oracle under every
    /// semantics.
    fn parallel_equals_sequential(s in with_threads(&SMALL, 1..=8); 24) {
        let (db, threads) = (&s.db, s.threads);
        for q in &s.queries {
            let (cs, cs_stats) = certain_answers_with(db, q, opts(1)).unwrap();
            let (cp, cp_stats) = certain_answers_with(db, q, opts(threads)).unwrap();
            ensure_eq!(&cs, &cp, "certain answers diverged at {threads} threads");
            ensure_eq!(
                cs_stats.mappings_evaluated,
                cp_stats.mappings_evaluated,
                "mapping totals diverged at {threads} threads"
            );
            // With early exit disabled the total accounts for the whole
            // kernel set.
            ensure_eq!(
                cs_stats.mappings_evaluated + cs_stats.mappings_pruned,
                count_kernel_mappings(db)
            );
            ensure!(cp_stats.workers_used >= 1);
            let (ps, ps_stats) = possible_answers_with(db, q, opts(1)).unwrap();
            let (pp, pp_stats) = possible_answers_with(db, q, opts(threads)).unwrap();
            ensure_eq!(&ps, &pp, "possible answers diverged at {threads} threads");
            ensure_eq!(ps_stats.mappings_evaluated, pp_stats.mappings_evaluated);
            ensure!(cs.is_subset_of(&ps), "certain ⊆ possible must hold");
        }
        let engine = Engine::builder(db.clone()).parallelism(threads).answer_cache(false).build();
        s.check(&observe(&engine, &prepare_all(&engine, s)))
    }

    /// Early exit on: the *answers* are still identical at any thread
    /// count (only the mapping count may differ — a worker may refute a
    /// little earlier or later depending on scheduling).
    fn parallel_early_exit_answers_are_deterministic(s in with_threads(&EARLY_EXIT, 2..=8); 24) {
        let eager = |threads| ExactOptions {
            corollary2_fast_path: false,
            ..ExactOptions::with_threads(threads)
        };
        for q in &s.queries {
            let (par, _) = certain_answers_with(&s.db, q, eager(s.threads)).unwrap();
            let (seq, _) = certain_answers_with(&s.db, q, eager(1)).unwrap();
            ensure_eq!(par, seq);
        }
        Ok(())
    }
}

/// At least two constants, three tenths of them known.
const EARLY_EXIT: Shape = Shape {
    consts: 2..=4,
    known_tenths: 3..=3,
    ..SMALL
};

/// Repeated parallel runs agree exactly — answers every time, and mapping
/// totals too when early exit is disabled.
#[test]
fn repeated_parallel_runs_agree() {
    let db = random_db(5, 0.2, 4, 7);
    let q = random_queries(&db, 3, 99).pop().unwrap();
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
