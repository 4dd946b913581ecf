//! Differential tests of the concurrent serving layer: every answer a
//! concurrent reader gets from a [`SharedEngine`] must be byte-identical
//! — tuples *and* certificates — to a solo engine rebuilt from the
//! database as it stood at the epoch stamped into the answer's evidence,
//! across all four semantics, while a writer races delta publications
//! against the readers.
//!
//! The battery is three tiers:
//!
//! * a proptest suite over random databases, random queries, and random
//!   delta sequences (linearizable snapshot semantics, adversarially
//!   interleaved);
//! * a stress test — 8 reader threads hammering prepared queries against
//!   a writer applying 64+ deltas: no torn reads (all readers agree on
//!   every `(query, epoch)` answer, and each agrees with a solo rebuild),
//!   every answer stamped with exactly the epoch of the snapshot the
//!   session read — cache hits included, and some of those were computed
//!   at an earlier epoch and kept across the publishes since (the test
//!   fails if it saw none) — monotone epoch observation per session;
//! * a small-interleaving smoke pass: many short writer/reader races on
//!   tiny databases, so races fail fast in CI rather than only under
//!   load.
//!
//! Run under `QLD_THREADS=1` and `QLD_THREADS=4` (CI does both): the
//! enumeration worker pool inside each snapshot is orthogonal to the
//! session concurrency outside it.

use proptest::prelude::*;
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::logic::{ConstId, Query};
use querying_logical_databases::physical::Relation;
use querying_logical_databases::prelude::{
    Certificate, Delta, Engine, PreparedQuery, Semantics, SharedEngine,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

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

/// One generated mutation, as in `delta_differential`: kind 0 inserts
/// `P0(a, b)`, kind 1 inserts `P1(a)`, kind 2 asserts `a != b`.
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

/// What one reader saw for one execution: which query, which semantics,
/// the epoch stamped into the evidence, the tuples, and the certificate.
type Observation = (usize, Semantics, u64, Relation, Certificate);

/// Drives `readers` concurrent sessions against a writer applying `ops`,
/// then verifies every observation against a solo engine rebuilt from
/// the database as captured at the observed epoch.
fn run_differential_case(
    db: CwDatabase,
    queries: &[Query],
    ops: &[(u8, u32, u32)],
    readers: usize,
    rounds: usize,
) -> Result<(), TestCaseError> {
    let shared = SharedEngine::new(Engine::new(db.clone()));
    let prepared: Vec<PreparedQuery> = {
        let snap = shared.snapshot();
        queries
            .iter()
            .map(|q| snap.engine().prepare(q.clone()).unwrap())
            .collect()
    };

    let (db_log, observations) = thread::scope(|scope| {
        let writer = {
            let shared = shared.clone();
            let base = db.clone();
            scope.spawn(move || {
                let mut log: Vec<(u64, CwDatabase)> = Vec::new();
                for &op in ops {
                    let Some(delta) = op_to_delta(&base, op) else {
                        continue;
                    };
                    let report = shared.apply(&delta).unwrap();
                    if report.changed() {
                        // Single writer: the snapshot right after our
                        // apply is our publication.
                        let snap = shared.snapshot();
                        assert_eq!(snap.epoch(), report.epoch, "publication raced");
                        log.push((report.epoch, snap.engine().db().clone()));
                    }
                }
                log
            })
        };
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let shared = shared.clone();
                let prepared = &prepared;
                scope.spawn(move || {
                    let mut session = shared.session();
                    let mut observed: Vec<Observation> = Vec::new();
                    let mut last_epoch = 0u64;
                    for _ in 0..rounds {
                        for (qi, p) in prepared.iter().enumerate() {
                            for semantics in Semantics::ALL {
                                let ans = session.execute_as(p, semantics).unwrap();
                                let epoch = ans.evidence().epoch;
                                // Monotone epoch observation per session.
                                assert!(
                                    epoch >= last_epoch,
                                    "epoch ran backwards: {epoch} after {last_epoch}"
                                );
                                last_epoch = epoch;
                                // Hit or not, the answer is stamped with
                                // exactly the epoch of the snapshot this
                                // call read (and checked against a fresh
                                // engine at that epoch below).
                                assert_eq!(
                                    epoch,
                                    session.observed_epoch(),
                                    "answer stamped with a foreign epoch"
                                );
                                observed.push((
                                    qi,
                                    semantics,
                                    epoch,
                                    ans.tuples().clone(),
                                    ans.evidence().certificate,
                                ));
                            }
                        }
                    }
                    observed
                })
            })
            .collect();
        let log = writer.join().expect("writer panicked");
        let observations: Vec<Observation> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader panicked"))
            .collect();
        (log, observations)
    });

    // The database as it stood at each published epoch.
    let mut db_at: HashMap<u64, CwDatabase> = HashMap::new();
    db_at.insert(0, db);
    for (epoch, snapshot_db) in db_log {
        db_at.insert(epoch, snapshot_db);
    }

    // Solo verification: rebuild an engine from the observed epoch's
    // database and demand byte-identical tuples and certificates.
    let mut solo: HashMap<u64, Engine> = HashMap::new();
    for (qi, semantics, epoch, tuples, certificate) in observations {
        prop_assert!(
            db_at.contains_key(&epoch),
            "reader observed epoch {} the writer never published (torn read)",
            epoch
        );
        let engine = solo.entry(epoch).or_insert_with(|| {
            Engine::builder(db_at[&epoch].clone())
                .answer_cache(false)
                .build()
        });
        let fresh = engine.prepare(queries[qi].clone()).unwrap();
        let truth = engine.execute_as(&fresh, semantics).unwrap();
        prop_assert_eq!(
            &tuples,
            truth.tuples(),
            "concurrent answer diverged from solo engine at epoch {} under {:?} on {:?}",
            epoch,
            semantics,
            &queries[qi]
        );
        prop_assert_eq!(
            certificate,
            truth.evidence().certificate,
            "certificate diverged from solo engine at epoch {} under {:?} on {:?}",
            epoch,
            semantics,
            &queries[qi]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Linearizable snapshot semantics, randomized: concurrent readers
    /// race a delta-applying writer, and every answer any reader ever
    /// sees equals a solo engine rebuilt at that answer's observed epoch
    /// — all four semantics, certificates included.
    #[test]
    fn concurrent_readers_match_solo_engines_at_their_observed_epochs(
        seed in 0u64..10_000,
        n in 2usize..5,
        known in 0u8..=10,
        ops in proptest::collection::vec((0u8..3, 0u32..8, 0u32..8), 1..6),
        readers in 2usize..5,
    ) {
        let db = random_db(seed, n, f64::from(known) / 10.0);
        let queries = random_queries(&db, 3, seed);
        run_differential_case(db, &queries, &ops, readers, 3)?;
    }

    /// Prepared-query staleness under concurrency: queries prepared at
    /// epoch 0 keep executing correctly on snapshots many epochs later
    /// (re-certification happens inside the snapshot execution), even
    /// while the writer is still publishing.
    #[test]
    fn stale_prepared_queries_recertify_on_later_snapshots(
        seed in 0u64..10_000,
        n in 2usize..5,
        ops in proptest::collection::vec((0u8..3, 0u32..8, 0u32..8), 4..8),
    ) {
        let db = random_db(seed.wrapping_add(991), n, 0.3);
        let queries = random_queries(&db, 2, seed);
        let shared = SharedEngine::new(Engine::new(db.clone()));
        // Prepare at epoch 0, execute nothing yet.
        let prepared: Vec<PreparedQuery> = {
            let snap = shared.snapshot();
            queries.iter().map(|q| snap.engine().prepare(q.clone()).unwrap()).collect()
        };
        // Apply the whole delta sequence first…
        let base = db.clone();
        for &op in &ops {
            if let Some(delta) = op_to_delta(&base, op) {
                shared.apply(&delta).unwrap();
            }
        }
        // …then execute the stale prepared queries: they must match a
        // fresh engine prepared *and* executed at the final epoch.
        let final_epoch = shared.epoch();
        let rebuilt = Engine::builder(shared.snapshot().engine().db().clone())
            .answer_cache(false)
            .build();
        let mut session = shared.session();
        for (p, q) in prepared.iter().zip(&queries) {
            prop_assert_eq!(p.epoch(), 0, "prepared at the initial epoch");
            for semantics in Semantics::ALL {
                let stale = session.execute_as(p, semantics).unwrap();
                prop_assert_eq!(stale.evidence().epoch, final_epoch);
                let truth = rebuilt
                    .execute_as(&rebuilt.prepare(q.clone()).unwrap(), semantics)
                    .unwrap();
                prop_assert_eq!(stale.tuples(), truth.tuples());
                prop_assert_eq!(
                    stale.evidence().certificate,
                    truth.evidence().certificate
                );
            }
        }
    }
}

/// The stress tier: 8 reader sessions hammer prepared queries under all
/// four semantics while one writer applies 64+ distinct deltas. Checks:
/// no torn reads (every reader's answer for a `(query, semantics, epoch)`
/// triple is identical across readers *and* to a solo engine rebuilt at
/// that epoch), every answer stamped with the epoch it was read at,
/// monotone epoch observation per session, that readers really did
/// observe the database evolving, and that some of the hits they were
/// served had been computed at an earlier epoch (a `P1`-only query
/// outlives every `P0` publish) — the cross-epoch path ran under races.
#[test]
fn stress_eight_readers_against_writer_applying_64_deltas() {
    const READERS: usize = 8;
    const TARGET_DELTAS: u64 = 64;
    // Fully specified database: every regime is polynomial (Corollary 2),
    // so the stress volume stays cheap while the concurrency machinery —
    // snapshot publication, the shared answer cache, epoch stamping — is
    // exercised exactly as in the general case.
    let db = random_db(4242, 12, 1.0);
    let texts = [
        "(x, y) . P0(x, y)",
        "(x) . P1(x)",
        "(x) . !P0(x, x)",
        "exists x. P0(x, x)",
    ];
    let shared = SharedEngine::new(Engine::new(db.clone()));
    let prepared: Vec<PreparedQuery> = {
        let snap = shared.snapshot();
        texts
            .iter()
            .map(|t| snap.engine().prepare_text(t).unwrap())
            .collect()
    };
    let done = AtomicBool::new(false);
    // Highest epoch any reader has observed so far. The writer gates each
    // publication on a reader having caught up with the previous one, so
    // the test deterministically interleaves (a fast writer cannot finish
    // all 64 deltas before the readers have even started) and every epoch
    // is observed live by at least one concurrent session.
    let max_observed = AtomicU64::new(0);

    type Key = (usize, Semantics, u64);
    type Seen = HashMap<Key, Relation>;
    /// What one reader saw, and which of it was a hit / computed afresh.
    type Read = (Seen, HashSet<Key>, HashSet<Key>);
    let (db_log, reads) = thread::scope(|scope| {
        let writer = {
            let shared = shared.clone();
            let done = &done;
            let max_observed = &max_observed;
            let base = db.clone();
            scope.spawn(move || {
                let voc = base.voc();
                let (p0, p1) = (voc.pred_id("P0").unwrap(), voc.pred_id("P1").unwrap());
                let n = base.num_consts() as u64;
                let mut log: Vec<(u64, CwDatabase)> = Vec::new();
                let mut state = 0x5eed_cafe_d00d_f00du64;
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 33
                };
                while (log.len() as u64) < TARGET_DELTAS {
                    let (kind, a, b) = (next() % 2, next() % n, next() % n);
                    let (a, b) = (ConstId(a as u32), ConstId(b as u32));
                    let delta = if kind == 0 {
                        Delta::new().insert_fact(p0, &[a, b])
                    } else {
                        Delta::new().insert_fact(p1, &[a])
                    };
                    let report = shared.apply(&delta).unwrap();
                    if report.changed() {
                        let snap = shared.snapshot();
                        assert_eq!(snap.epoch(), report.epoch);
                        log.push((report.epoch, snap.engine().db().clone()));
                        // Interleave for real: wait until some reader has
                        // answered at this epoch before publishing the
                        // next one.
                        while max_observed.load(Ordering::Acquire) < report.epoch {
                            thread::yield_now();
                        }
                    }
                }
                done.store(true, Ordering::Release);
                log
            })
        };
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let shared = shared.clone();
                let prepared = &prepared;
                let done = &done;
                let max_observed = &max_observed;
                scope.spawn(move || {
                    let mut session = shared.session();
                    let mut seen: Seen = HashMap::new();
                    let (mut hits, mut computed) = (HashSet::new(), HashSet::new());
                    let mut last_epoch = 0u64;
                    let mut executions = 0u64;
                    // Keep reading until the writer is done, then one more
                    // sweep so every reader also observes the final epoch.
                    let mut final_sweep = false;
                    loop {
                        for (qi, p) in prepared.iter().enumerate() {
                            for semantics in Semantics::ALL {
                                let ans = session.execute_as(p, semantics).unwrap();
                                let epoch = ans.evidence().epoch;
                                assert!(epoch >= last_epoch, "epoch ran backwards");
                                last_epoch = epoch;
                                assert_eq!(
                                    epoch,
                                    session.observed_epoch(),
                                    "answer stamped with a foreign epoch"
                                );
                                max_observed.fetch_max(epoch, Ordering::AcqRel);
                                executions += 1;
                                if ans.evidence().cache_hit {
                                    hits.insert((qi, semantics, epoch));
                                } else {
                                    computed.insert((qi, semantics, epoch));
                                }
                                // Torn-read guard, intra-reader: the same
                                // (query, semantics, epoch) must always
                                // produce the same tuples.
                                let tuples = ans.tuples().clone();
                                if let Some(prev) = seen.insert((qi, semantics, epoch), tuples) {
                                    assert_eq!(
                                        &prev,
                                        seen.get(&(qi, semantics, epoch)).unwrap(),
                                        "torn read: same query+epoch, different tuples"
                                    );
                                }
                            }
                        }
                        if final_sweep {
                            break;
                        }
                        final_sweep = done.load(Ordering::Acquire);
                    }
                    assert!(executions >= 16, "reader barely ran");
                    (seen, hits, computed)
                })
            })
            .collect();
        let log = writer.join().expect("writer panicked");
        let reads: Vec<Read> = handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
        (log, reads)
    });

    assert_eq!(db_log.len() as u64, TARGET_DELTAS);
    assert_eq!(shared.epoch(), TARGET_DELTAS);

    // Cross-reader torn-read check: merge all observations; any two
    // readers that saw the same (query, semantics, epoch) must have seen
    // identical tuples.
    let mut merged: Seen = HashMap::new();
    for (map, _, _) in &reads {
        for (key, tuples) in map {
            if let Some(prev) = merged.insert(*key, tuples.clone()) {
                assert_eq!(
                    &prev, tuples,
                    "torn read across readers at {key:?}: two sessions saw different answers"
                );
            }
        }
    }

    // Every read of this engine is in `reads`, so a hit at an epoch where
    // nobody computed that query under that semantics was served from an
    // entry computed earlier and carried across at least one publish.
    let computed: HashSet<&Key> = reads.iter().flat_map(|(_, _, c)| c).collect();
    let carried = reads
        .iter()
        .flat_map(|(_, hits, _)| hits)
        .filter(|key| !computed.contains(key))
        .count();
    assert!(
        carried > 0,
        "no hit outlived a publish: the cross-epoch path went untested"
    );

    // The epoch gate above guarantees a live observation of every epoch
    // 1..=64 (epoch 0 too, unless the first publish won the startup race).
    let distinct_epochs: HashSet<u64> = merged.keys().map(|&(_, _, e)| e).collect();
    assert!(
        distinct_epochs.len() as u64 >= TARGET_DELTAS,
        "readers observed only {} distinct epochs of {}",
        distinct_epochs.len(),
        TARGET_DELTAS + 1
    );

    // Solo verification of every distinct observation.
    let mut db_at: HashMap<u64, CwDatabase> = HashMap::new();
    db_at.insert(0, db);
    for (epoch, snapshot_db) in db_log {
        db_at.insert(epoch, snapshot_db);
    }
    let mut solo: HashMap<u64, Engine> = HashMap::new();
    for ((qi, semantics, epoch), tuples) in &merged {
        let engine = solo.entry(*epoch).or_insert_with(|| {
            Engine::builder(db_at[epoch].clone())
                .answer_cache(false)
                .build()
        });
        let truth = engine
            .execute_as(&engine.prepare_text(texts[*qi]).unwrap(), *semantics)
            .unwrap();
        assert_eq!(
            tuples,
            truth.tuples(),
            "concurrent answer diverged from solo engine at epoch {epoch} \
             under {semantics:?} on {:?}",
            texts[*qi]
        );
    }
}

/// The smoke tier: many short races on tiny databases — cheap enough for
/// every CI run, adversarial enough (engine built, raced, and verified
/// dozens of times) that an ordering bug in the snapshot-publish protocol
/// fails fast rather than only under load.
#[test]
fn interleaving_smoke_many_short_races() {
    for round in 0u64..24 {
        let db = random_db(round * 97 + 5, 3, 0.5);
        let shared = SharedEngine::new(Engine::new(db.clone()));
        let prepared = {
            let snap = shared.snapshot();
            snap.engine().prepare_text("(x, y) . P0(x, y)").unwrap()
        };
        let ops: Vec<(u8, u32, u32)> = vec![
            (0, round as u32, round as u32 + 1),
            (1, round as u32 + 2, 0),
            (2, round as u32, round as u32 + 1),
        ];
        let db_log = thread::scope(|scope| {
            let writer = {
                let shared = shared.clone();
                let base = db.clone();
                let ops = ops.clone();
                scope.spawn(move || {
                    let mut log = Vec::new();
                    for &op in &ops {
                        let Some(delta) = op_to_delta(&base, op) else {
                            continue;
                        };
                        let report = shared.apply(&delta).unwrap();
                        if report.changed() {
                            log.push((report.epoch, shared.snapshot().engine().db().clone()));
                        }
                    }
                    log
                })
            };
            for _ in 0..2 {
                let shared = shared.clone();
                let prepared = &prepared;
                scope.spawn(move || {
                    let mut session = shared.session();
                    let mut observed: Vec<(u64, Relation)> = Vec::new();
                    for _ in 0..12 {
                        let ans = session.execute(prepared).unwrap();
                        assert_eq!(
                            ans.evidence().epoch,
                            session.observed_epoch(),
                            "answer stamped with a foreign epoch in smoke race"
                        );
                        observed.push((ans.evidence().epoch, ans.tuples().clone()));
                    }
                    // Verify in-thread: positive query over insert-only
                    // P0 facts — answers can only grow with the epoch.
                    for pair in observed.windows(2) {
                        assert!(pair[0].0 <= pair[1].0, "epoch ran backwards");
                        if pair[0].0 == pair[1].0 {
                            assert_eq!(pair[0].1, pair[1].1, "torn read at one epoch");
                        }
                    }
                    observed
                });
            }
            writer.join().expect("writer panicked")
        });
        // Differential close-out for this round: the final snapshot equals
        // a from-scratch engine over the final database.
        let mut db_at: HashMap<u64, CwDatabase> = HashMap::new();
        db_at.insert(0, db);
        for (epoch, snapshot_db) in db_log {
            db_at.insert(epoch, snapshot_db);
        }
        let final_epoch = shared.epoch();
        let rebuilt = Engine::builder(db_at[&final_epoch].clone())
            .answer_cache(false)
            .build();
        let mut session = shared.session();
        let ans = session.execute(&prepared).unwrap();
        assert_eq!(ans.evidence().epoch, final_epoch);
        let truth = rebuilt
            .execute(&rebuilt.prepare_text("(x, y) . P0(x, y)").unwrap())
            .unwrap();
        assert_eq!(ans.tuples(), truth.tuples(), "round {round} diverged");
    }
}
