//! Differential tests of the delta-update subsystem: an engine mutated
//! through `Engine::apply` must be answer-for-answer identical to an
//! engine rebuilt from scratch over the final database — across every
//! semantics, with the derived structures (`Ph₁`, `Ph₂`, `α_P`, `NE`)
//! refreshed incrementally and the answer cache invalidated selectively —
//! and a stale cache hit must be impossible after a footprint-overlapping
//! delta.

use proptest::prelude::*;
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::{ConstId, Query};
use querying_logical_databases::prelude::{Delta, Engine, PreparedQuery, Semantics};

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
                    seed: seed.wrapping_mul(37).wrapping_add(i as u64 * 613),
                },
            )
        })
        .collect()
}

/// One generated mutation: `(kind, a, b)` over constant indices modulo
/// `|C|`. Kind 0 inserts `P0(a, b)`, kind 1 inserts `P1(a)`, kind 2
/// asserts `a != b` (skipped when the indices coincide — reflexive axioms
/// are invalid by construction).
fn op_to_delta(db: &CwDatabase, op: (u8, u32, u32)) -> Option<Delta> {
    let n = db.num_consts() as u32;
    let (kind, a, b) = op;
    let (a, b) = (ConstId(a % n), ConstId(b % n));
    let p0 = db.voc().pred_id("P0").unwrap();
    let p1 = db.voc().pred_id("P1").unwrap();
    match kind {
        0 => Some(Delta::new().insert_fact(p0, &[a, b])),
        1 => Some(Delta::new().insert_fact(p1, &[a])),
        _ if a != b => Some(Delta::new().assert_ne(a, b)),
        _ => None,
    }
}

/// Executes every query under every semantics on both engines and
/// asserts bit-identical tuples and certificates. The incremental engine
/// runs its *original* (possibly stale) prepared queries — exactly what a
/// long-lived session would hold across deltas.
fn assert_engines_agree(
    incremental: &Engine,
    prepared: &[PreparedQuery],
    rebuilt: &Engine,
    queries: &[Query],
    context: &str,
) -> Result<(), TestCaseError> {
    for (p, q) in prepared.iter().zip(queries) {
        let fresh = rebuilt.prepare(q.clone()).unwrap();
        for semantics in Semantics::ALL {
            let inc = incremental.execute_as(p, semantics).unwrap();
            let truth = rebuilt.execute_as(&fresh, semantics).unwrap();
            prop_assert_eq!(
                inc.tuples(),
                truth.tuples(),
                "tuples diverged from rebuild under {:?} on {:?} ({})",
                semantics,
                q,
                context
            );
            prop_assert_eq!(
                inc.evidence().certificate,
                truth.evidence().certificate,
                "certificate diverged from rebuild under {:?} on {:?} ({})",
                semantics,
                q,
                context
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random delta sequences: after every applied delta, the
    /// incrementally-maintained engine (structures built *before* the
    /// deltas, answer cache warm, prepared queries stale) answers
    /// identically to an engine rebuilt from the final database — across
    /// all four semantics.
    #[test]
    fn engine_after_deltas_equals_engine_rebuilt_from_final_db(
        seed in 0u64..10_000,
        n in 1usize..5,
        known in 0u8..=10,
        ops in proptest::collection::vec((0u8..3, 0u32..8, 0u32..8), 1..5),
        threads in 1usize..=4,
    ) {
        let db = random_db(seed, n, f64::from(known) / 10.0);
        let queries = random_queries(&db, 3, seed);
        let mut engine = Engine::builder(db).parallelism(threads).build();
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| engine.prepare(q.clone()).unwrap())
            .collect();
        // Build Ph₁ and the §5 machinery and warm the cache under every
        // semantics *before* mutating: the deltas must refresh live
        // structures, not profit from lazy rebuilds.
        for p in &prepared {
            for semantics in Semantics::ALL {
                engine.execute_as(p, semantics).unwrap();
            }
        }
        for (i, &op) in ops.iter().enumerate() {
            let Some(delta) = op_to_delta(engine.db(), op) else { continue };
            engine.apply(&delta).unwrap();
            let rebuilt = Engine::builder(engine.db().clone())
                .parallelism(threads)
                .answer_cache(false)
                .build();
            assert_engines_agree(
                &engine,
                &prepared,
                &rebuilt,
                &queries,
                &format!("after op {i} = {op:?}"),
            )?;
        }
    }

    /// Stale cache hits are impossible: warm the cache, apply a delta
    /// whose footprint overlaps a cached query, and the overlapping entry
    /// must be re-evaluated (no `cache_hit`) while every answer — hit or
    /// not — equals a from-scratch engine's.
    #[test]
    fn no_stale_hit_after_footprint_overlapping_delta(
        seed in 0u64..10_000,
        n in 2usize..5,
        known in 0u8..=10,
        a in 0u32..8,
        b in 0u32..8,
    ) {
        let db = random_db(seed.wrapping_add(31), n, f64::from(known) / 10.0);
        let engine_db = db.clone();
        let mut engine = Engine::new(engine_db);
        let texts = [
            "(x, y) . P0(x, y)",     // positive, mentions P0
            "(x) . !P0(x, x)",       // axiom-sensitive, mentions P0
            "(x) . P1(x)",           // positive, disjoint from P0 deltas
        ];
        let prepared: Vec<PreparedQuery> = texts
            .iter()
            .map(|t| engine.prepare_text(t).unwrap())
            .collect();
        for p in &prepared {
            engine.execute(p).unwrap();
        }
        prop_assert_eq!(engine.cache_len(), 3);
        // A fact delta on P0: both P0 entries must go, the P1 entry must
        // survive and keep serving from cache.
        let p0 = engine.db().voc().pred_id("P0").unwrap();
        let (ca, cb) = (ConstId(a % n as u32), ConstId(b % n as u32));
        let report = engine
            .apply(&Delta::new().insert_fact(p0, &[ca, cb]))
            .unwrap();
        if report.changed() {
            prop_assert_eq!(report.cache_evicted, 2, "both P0 entries evicted");
            prop_assert_eq!(report.cache_retained, 1);
        }
        let rebuilt = Engine::builder(engine.db().clone()).answer_cache(false).build();
        for (p, text) in prepared.iter().zip(texts.iter()) {
            let answers = engine.execute(p).unwrap();
            let truth = rebuilt
                .execute(&rebuilt.prepare_text(text).unwrap())
                .unwrap();
            prop_assert_eq!(
                answers.tuples(),
                truth.tuples(),
                "stale answer served for {} after delta",
                text
            );
            if report.changed() && text.contains("P0") {
                prop_assert!(
                    !answers.evidence().cache_hit,
                    "footprint-overlapping entry must not be a cache hit ({})",
                    text
                );
            }
        }
        // The disjoint entry survived as a hit.
        if report.changed() {
            let survivor = engine.execute(&prepared[2]).unwrap();
            prop_assert!(survivor.evidence().cache_hit, "disjoint entry evicted");
        }
    }

    /// The interleaving case: queries prepared at epoch `k`, then `m`
    /// deltas applied with *no* execution in between, then executed —
    /// the automatic re-certification at execution time must produce
    /// tuples and certificates identical to a fresh engine over the
    /// final database, and the epoch bookkeeping must line up: the
    /// prepared query still reports its prepare-time epoch, the engine
    /// reports `k + m'` (one per *changed* delta), and every answer's
    /// evidence — a hit that survived the deltas included — is stamped
    /// with the epoch it was served at.
    #[test]
    fn prepared_at_epoch_k_executed_after_m_deltas_matches_fresh_engine(
        seed in 0u64..10_000,
        n in 2usize..5,
        known in 0u8..=10,
        warm in 0u8..=1,
        ops in proptest::collection::vec((0u8..3, 0u32..8, 0u32..8), 2..7),
    ) {
        let db = random_db(seed.wrapping_add(123), n, f64::from(known) / 10.0);
        let queries = random_queries(&db, 3, seed);
        let mut engine = Engine::new(db);
        let prepared: Vec<PreparedQuery> = queries
            .iter()
            .map(|q| engine.prepare(q.clone()).unwrap())
            .collect();
        let epoch_at_prepare = engine.epoch();
        prop_assert_eq!(epoch_at_prepare, 0);
        // Half the cases execute once before the deltas (warm cache +
        // built structures), half go in cold — re-certification must be
        // correct either way.
        if warm == 1 {
            for p in &prepared {
                engine.execute(p).unwrap();
            }
        }
        let mut calls = 0u64;
        let mut changed = 0u64;
        for &op in &ops {
            let Some(delta) = op_to_delta(engine.db(), op) else { continue };
            let report = engine.apply(&delta).unwrap();
            calls += 1;
            if report.changed() {
                changed += 1;
            }
            prop_assert_eq!(report.epoch, engine.epoch(), "report names its epoch");
        }
        prop_assert_eq!(engine.epoch(), changed, "one epoch per changed delta");
        prop_assert_eq!(engine.delta_stats().deltas_applied, calls);
        let rebuilt = Engine::builder(engine.db().clone())
            .answer_cache(false)
            .build();
        for (p, q) in prepared.iter().zip(&queries) {
            prop_assert_eq!(
                p.epoch(),
                epoch_at_prepare,
                "prepare-time epoch is immutable on the handle"
            );
            for semantics in Semantics::ALL {
                let stale = engine.execute_as(p, semantics).unwrap();
                // A surviving (footprint-disjoint) cache entry is stamped
                // where it was served, like anything computed fresh.
                prop_assert_eq!(stale.evidence().epoch, engine.epoch());
                let truth = rebuilt
                    .execute_as(&rebuilt.prepare(q.clone()).unwrap(), semantics)
                    .unwrap();
                prop_assert_eq!(
                    stale.tuples(),
                    truth.tuples(),
                    "stale prepared query diverged under {:?} on {:?}",
                    semantics,
                    q
                );
                prop_assert_eq!(
                    stale.evidence().certificate,
                    truth.evidence().certificate,
                    "re-certification diverged under {:?} on {:?}",
                    semantics,
                    q
                );
            }
        }
    }

    /// The mutated `CwDatabase` itself (not just the engine's answers)
    /// equals one rebuilt from scratch with the same axioms.
    #[test]
    fn mutated_database_equals_rebuilt_database(
        seed in 0u64..10_000,
        n in 1usize..6,
        known in 0u8..=10,
        ops in proptest::collection::vec((0u8..3, 0u32..8, 0u32..8), 0..6),
    ) {
        let base = random_db(seed.wrapping_add(77), n, f64::from(known) / 10.0);
        let mut mutated = base.clone();
        let mut applied: Vec<(u8, ConstId, ConstId)> = Vec::new();
        for &op in &ops {
            let Some(_) = op_to_delta(&base, op) else { continue };
            let m = base.num_consts() as u32;
            let (kind, a, b) = op;
            let (a, b) = (ConstId(a % m), ConstId(b % m));
            match kind {
                0 => { mutated.insert_fact(base.voc().pred_id("P0").unwrap(), &[a, b]).unwrap(); }
                1 => { mutated.insert_fact(base.voc().pred_id("P1").unwrap(), &[a]).unwrap(); }
                _ => { mutated.insert_ne(a, b).unwrap(); }
            }
            applied.push((kind, a, b));
        }
        // Rebuild from scratch: replay the base facts/axioms plus the ops
        // through the validating builder.
        let mut builder = CwDatabase::builder(base.voc().clone());
        for p in base.voc().preds() {
            for t in base.facts(p).iter() {
                let args: Vec<ConstId> = t.iter().map(|&e| ConstId(e)).collect();
                builder = builder.fact(p, &args);
            }
        }
        for &(lo, hi) in base.ne_pairs() {
            builder = builder.unique(ConstId(lo), ConstId(hi));
        }
        for &(kind, a, b) in &applied {
            builder = match kind {
                0 => builder.fact(base.voc().pred_id("P0").unwrap(), &[a, b]),
                1 => builder.fact(base.voc().pred_id("P1").unwrap(), &[a]),
                _ => builder.unique(a, b),
            };
        }
        prop_assert_eq!(mutated, builder.build().unwrap());
    }
}
