//! Differential tests of batched multi-query execution and the answer
//! cache: `Engine::execute_batch` must be bit-identical to per-query
//! `execute` under every semantics, a batch of Theorem-1-bound queries
//! must pay for exactly one mapping enumeration (not N), and cache hits
//! must return byte-identical answers with `cache_hit` set and zero new
//! mappings.

#[macro_use]
#[path = "support/cases.rs"]
mod cases;
#[path = "support/scenario.rs"]
mod scenario;

use querying_logical_databases::core::exact::{
    certain_answers_batch_with, certain_answers_with, possible_answers_batch_with,
    possible_answers_with, ExactOptions,
};
use querying_logical_databases::core::mappings::{analyze_decomposition, count_kernel_mappings};
use querying_logical_databases::prelude::{Engine, Semantics};
use querying_logical_databases::server::script::Database;
use scenario::{prepare_all, random_db, stamped, Observation, Scenario, Shape, SMALL};

/// The batch adaptor: before the ops and after each, every semantics
/// runs the whole query set as one `script::Database::execute_batch` batch
/// (cache off), each answer [`stamped`] with the epoch the ops so far
/// reach.
fn batched(s: &Scenario) -> Result<Vec<Observation>, String> {
    let mut engine = Engine::builder(s.db.clone())
        .parallelism(s.threads)
        .answer_cache(false)
        .build();
    let prepared = prepare_all(&engine, s);
    let mut observed = Vec::new();
    for k in 0..=s.ops.len() {
        if k > 0 {
            engine.add(&s.ops[k - 1].to_delta().unwrap()).unwrap();
        }
        for semantics in Semantics::ALL {
            engine.set_semantics(semantics);
            let batch = Database::execute_batch(&mut engine, &prepared).unwrap();
            let seen: Vec<_> = (0..batch.len())
                .map(|i| Observation::of(i, semantics, &batch[i]))
                .collect();
            stamped(s, k, engine.epoch(), &seen)?;
            observed.extend(seen);
        }
    }
    Ok(observed)
}

property! {
    /// `execute_batch` ≡ the oracle for every semantics, on random
    /// databases and random query sets (mixed positive / full FO, so Auto
    /// partitions the batch between the §5 path and the shared Theorem 1
    /// enumeration), before and after each delta.
    fn batch_equals_individual_execution(
        s in |rng| Scenario::generate(&Shape { queries: 4, ..SMALL }, rng); 20
    ) {
        s.check(&batched(s)?)
    }

    /// The core batch evaluators are bit-identical to N independent calls
    /// — answers *and* (without early exit) mapping totals, which must be
    /// one enumeration for the whole batch.
    fn core_batch_evaluators_match_independent_calls(
        s in |rng| Scenario::generate(&SMALL, rng); 20
    ) {
        let (db, queries) = (&s.db, &s.queries);
        let opts = ExactOptions {
            corollary2_fast_path: false,
            early_exit: false,
            ..ExactOptions::with_threads(s.threads)
        };
        let (certain, cstats) = certain_answers_batch_with(db, queries, opts).unwrap();
        let (possible, pstats) = possible_answers_batch_with(db, queries, opts).unwrap();
        // One enumeration for the whole batch: with early exit off the
        // shared total plus what the walk collapsed is exactly the kernel
        // count — not batch_size times it — and both duals walk the same
        // images.
        let kernel_count = count_kernel_mappings(db);
        ensure_eq!(cstats.mappings_evaluated + cstats.mappings_pruned, kernel_count);
        ensure_eq!(pstats, cstats);
        // A batch collapses the constants free for *all* its members up to
        // its widest member's cap, so a solo total can fall below the batch
        // total; with no free constant the plans coincide.
        let plans_coincide = analyze_decomposition(db).free.is_empty();
        for (i, q) in queries.iter().enumerate() {
            let (solo_c, solo_cstats) = certain_answers_with(db, q, opts).unwrap();
            let (solo_p, _) = possible_answers_with(db, q, opts).unwrap();
            ensure_eq!(&certain[i], &solo_c, "certain batch diverged on query {i}");
            ensure_eq!(&possible[i], &solo_p, "possible batch diverged on query {i}");
            ensure_eq!(solo_cstats.mappings_evaluated + solo_cstats.mappings_pruned, kernel_count);
            if plans_coincide {
                // Each independent call pays the same enumeration the batch
                // paid once.
                ensure_eq!(solo_cstats.mappings_evaluated, cstats.mappings_evaluated);
            }
        }
        Ok(())
    }

    /// Cache hits are byte-identical to the uncached answer, marked
    /// `cache_hit`, and enumerate zero new mappings — under every
    /// semantics.
    fn cache_hits_are_byte_identical(
        s in |rng| Scenario::generate(&Shape { queries: 1, ..SMALL }, rng); 20
    ) {
        let engine = Engine::new(s.db.clone());
        for prepared in prepare_all(&engine, s) {
            for semantics in Semantics::ALL {
                let first = engine.execute_as(&prepared, semantics).unwrap();
                ensure!(!first.evidence().cache_hit);
                let second = engine.execute_as(&prepared, semantics).unwrap();
                ensure!(second.evidence().cache_hit, "{semantics:?} not served from cache");
                ensure_eq!(second.evidence().mappings_evaluated, 0);
                ensure_eq!(second.tuples(), first.tuples());
                ensure_eq!(second.evidence().certificate, first.evidence().certificate);
                ensure_eq!(second.evidence().regime, first.evidence().regime);
                // Batches are served from the same cache.
                let batched = engine
                    .execute_batch_as(std::slice::from_ref(&prepared), semantics)
                    .unwrap();
                ensure!(batched[0].evidence().cache_hit);
                ensure_eq!(batched[0].tuples(), first.tuples());
            }
        }
        Ok(())
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
    let db = random_db(4, 0.3, 3, 5);
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
