//! Differential tests of the concurrent serving layer: every answer a
//! concurrent reader gets from a [`SharedEngine`] must be byte-identical
//! — tuples *and* certificates — to a solo engine rebuilt from the
//! database as it stood at the epoch stamped into the answer's evidence,
//! across all four semantics, while a writer races delta publications
//! against the readers.
//!
//! The battery is four tiers:
//!
//! * the concurrent adaptors of the shared harness (`tests/support/`)
//!   over random scenarios: real reader threads racing a delta-applying
//!   writer (linearizable snapshot semantics, adversarially
//!   interleaved), and stale prepared queries executed on a later
//!   snapshot — every answer checked against the oracle at its stamped
//!   epoch;
//! * a seeded single-thread schedule: writes by the `SharedEngine` and
//!   reads by 2–4 sessions interleaved by the scenario's seed, so a
//!   cached answer is read across an NE delta in a way a failure can
//!   replay (the test fails if none is);
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

#[macro_use]
#[path = "support/cases.rs"]
mod cases;
#[path = "support/scenario.rs"]
mod scenario;

use cases::check;
use querying_logical_databases::logic::parser::parse_query;
use querying_logical_databases::prelude::{
    Engine, PreparedQuery, Semantics, SharedEngine, SharedSession,
};
use querying_logical_databases::server::script::ScriptLine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::{
    changing, op_to_delta, prepare_all, random_db, Observation, Scenario, Shape, SMALL,
};
use std::collections::{HashMap, HashSet};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

/// The scenarios of the concurrent tiers: at least two constants.
const CONCURRENT: Shape = Shape {
    consts: 2..=4,
    ops: 1..=5,
    ..SMALL
};

/// A shared engine over the scenario's database, and its queries
/// prepared at epoch 0.
fn shared_engine(s: &Scenario) -> (SharedEngine, Vec<PreparedQuery>) {
    let shared = SharedEngine::new(Engine::new(s.db.clone()));
    let prepared = prepare_all(shared.snapshot().engine(), s);
    (shared, prepared)
}

/// One read through `session`, checked for a monotone epoch stamped with
/// exactly the snapshot the call read.
fn read(
    session: &mut SharedSession,
    query: usize,
    p: &PreparedQuery,
    semantics: Semantics,
    last_epoch: &mut u64,
) -> (Observation, bool) {
    let answers = session.execute_as(p, semantics).unwrap();
    let seen = Observation::of(query, semantics, &answers);
    assert!(
        seen.epoch >= *last_epoch,
        "epoch ran backwards: {} after {last_epoch}",
        seen.epoch
    );
    assert_eq!(
        seen.epoch,
        session.observed_epoch(),
        "answer stamped with a foreign epoch"
    );
    *last_epoch = seen.epoch;
    (seen, answers.evidence().cache_hit)
}

/// A [`read`] of every prepared query under every semantics.
fn sweep(
    session: &mut SharedSession,
    prepared: &[PreparedQuery],
    last_epoch: &mut u64,
) -> Vec<(Observation, bool)> {
    let reads = prepared.iter().enumerate();
    let reads = reads.flat_map(|(query, p)| Semantics::ALL.map(|semantics| (query, p, semantics)));
    reads
        .map(|(query, p, semantics)| read(session, query, p, semantics, last_epoch))
        .collect()
}

/// The real-thread adaptor: two to four reader sessions, three rounds
/// each over every query under every semantics, race one writer applying
/// the ops.
fn racing_readers(s: &Scenario) -> Vec<Observation> {
    let (shared, prepared) = shared_engine(s);
    thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for op in &s.ops {
                shared.apply(&op.to_delta().unwrap()).unwrap();
            }
        });
        let readers: Vec<_> = (0..s.adaptor_rng().gen_range(2..=4))
            .map(|_| {
                scope.spawn(|| {
                    let (mut session, mut last_epoch) = (shared.session(), 0);
                    let sweeps =
                        (0..3).flat_map(|_| sweep(&mut session, &prepared, &mut last_epoch));
                    sweeps.map(|(seen, _)| seen).collect::<Vec<_>>()
                })
            })
            .collect();
        writer.join().unwrap_or_else(|panic| resume_unwind(panic));
        let observed = readers
            .into_iter()
            .flat_map(|r| r.join().unwrap_or_else(|panic| resume_unwind(panic)));
        observed.collect()
    })
}

property! {
    /// Linearizable snapshot semantics, randomized: concurrent readers race
    /// a delta-applying writer, and every answer any reader ever sees
    /// equals the oracle at that answer's stamped epoch — all four
    /// semantics, certificates included.
    fn concurrent_readers_match_solo_engines_at_their_observed_epochs(
        s in |rng| Scenario::generate(&CONCURRENT, rng); 8
    ) {
        s.check(&racing_readers(s))
    }

    /// Prepared-query staleness under concurrency: queries prepared at
    /// epoch 0 keep executing correctly on snapshots many epochs later
    /// (re-certification happens inside the snapshot execution).
    fn stale_prepared_queries_recertify_on_later_snapshots(s in |rng| {
        let shape = Shape { known_tenths: 3..=3, queries: 2, ops: 4..=7, ..CONCURRENT };
        Scenario::generate(&shape, rng)
    }; 8) {
        let (shared, prepared) = shared_engine(s);
        // Apply the whole delta sequence first, then execute the stale
        // prepared queries.
        for op in &s.ops {
            shared.apply(&op.to_delta().unwrap()).unwrap();
        }
        ensure!(prepared.iter().all(|p| p.epoch() == 0), "prepared at the initial epoch");
        let mut last_epoch = 0;
        let observed = sweep(&mut shared.session(), &prepared, &mut last_epoch);
        ensure_eq!(last_epoch, s.final_epoch());
        s.check(&observed.into_iter().map(|(seen, _)| seen).collect::<Vec<_>>())
    }
}

/// The schedule adaptor: one thread interleaves the writes of the
/// `SharedEngine` with reads by two to four sessions: before each op and
/// after the last, every query under every semantics, in an order and
/// each through a session drawn from the scenario's adaptor stream. Also
/// returns how many reads were cache hits computed before an NE delta
/// published since.
fn schedule(s: &Scenario) -> (Vec<Observation>, usize) {
    let (shared, prepared) = shared_engine(s);
    let mut rng = s.adaptor_rng();
    let sessions = rng.gen_range(2..=4);
    let mut sessions: Vec<_> = (0..sessions).map(|_| (shared.session(), 0)).collect();
    // Per (query, semantics): the epoch of the newest answer computed.
    let mut computed: HashMap<(usize, Semantics), u64> = HashMap::new();
    let (mut observed, mut last_ne, mut across_ne) = (Vec::new(), 0, 0);
    for op in s.ops.iter().map(Some).chain([None]) {
        let mut reads: Vec<(usize, Semantics)> = (0..prepared.len())
            .flat_map(|query| Semantics::ALL.map(|semantics| (query, semantics)))
            .collect();
        while !reads.is_empty() {
            let (query, semantics) = reads.swap_remove(rng.gen_range(0..reads.len()));
            let reader = rng.gen_range(0..sessions.len());
            let (session, last_epoch) = &mut sessions[reader];
            let (seen, hit) = read(session, query, &prepared[query], semantics, last_epoch);
            if !hit {
                computed.insert((query, semantics), seen.epoch);
            } else if computed
                .get(&(query, semantics))
                .is_some_and(|&c| c < last_ne)
            {
                across_ne += 1;
            }
            observed.push(seen);
        }
        if let Some(op) = op {
            let report = shared.apply(&op.to_delta().unwrap()).unwrap();
            if report.changed() && matches!(op, ScriptLine::AssertNe(..)) {
                last_ne = report.epoch;
            }
        }
    }
    (observed, across_ne)
}

/// The seeded schedule: every read equals the oracle at its stamped
/// epoch, and cached answers are served across NE deltas — the entries
/// an NE delta must evict and those it may keep both get read after one.
#[test]
fn seeded_schedule_serves_cached_answers_across_ne_deltas() {
    let mut across_ne = 0;
    check(
        "seeded_schedule_serves_cached_answers_across_ne_deltas",
        64,
        |rng| Scenario::generate(&CONCURRENT, rng),
        |s| {
            let (observed, n) = schedule(s);
            across_ne += n;
            s.check(&observed)
        },
    );
    assert!(
        across_ne > 0,
        "no cached answer was read across an NE delta"
    );
}

/// The stress tier: 8 reader sessions hammer prepared queries under all
/// four semantics while one writer applies 64 changing deltas. Checks:
/// no torn reads (every reader's answer for a `(query, semantics, epoch)`
/// triple is identical across readers *and* to the oracle at that
/// epoch), every answer stamped with the epoch it was read at, monotone
/// epoch observation per session, that readers really did observe the
/// database evolving, and that some of the hits they were served had
/// been computed at an earlier epoch (a `P1`-only query outlives every
/// `P0` publish) — the cross-epoch path ran under races.
#[test]
fn stress_eight_readers_against_writer_applying_64_deltas() {
    const READERS: usize = 8;
    const TARGET_DELTAS: usize = 64;
    // Fully specified database: every regime is polynomial (Corollary 2),
    // so the stress volume stays cheap while the concurrency machinery —
    // snapshot publication, the shared answer cache, epoch stamping — is
    // exercised exactly as in the general case.
    let db = random_db(12, 1.0, 3, 4242);
    let texts = [
        "(x, y) . P0(x, y)",
        "(x) . P1(x)",
        "(x) . !P0(x, x)",
        "exists x. P0(x, x)",
    ];
    let queries = texts.map(|t| parse_query(db.voc(), t).unwrap()).to_vec();
    // `P0` and `P1` inserts from a fixed stream, the ones that change
    // nothing skipped.
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe_d00d_f00d);
    let draws = std::iter::repeat_with(|| {
        (
            rng.gen_range(0..2),
            rng.gen_range(0..12),
            rng.gen_range(0..12),
        )
    });
    let ops = changing(
        &db,
        draws.filter_map(|op| op_to_delta(&db, op)),
        TARGET_DELTAS,
    );
    let s = Scenario::fixed(db, queries, ops);
    let (shared, prepared) = shared_engine(&s);
    let done = AtomicBool::new(false);
    // Highest epoch any reader has observed so far. The writer gates each
    // publication on a reader having caught up with the previous one, so
    // the test deterministically interleaves (a fast writer cannot finish
    // all 64 deltas before the readers have even started) and every epoch
    // is observed live by at least one concurrent session.
    let max_observed = AtomicU64::new(0);

    type Key = (usize, Semantics, u64);
    /// What one reader saw, and which of it was a hit / computed afresh.
    type Read = (HashMap<Key, Observation>, HashSet<Key>, HashSet<Key>);
    let reads: Vec<Read> = thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut session, mut last_epoch) = (shared.session(), 0);
                    let mut seen = HashMap::new();
                    let (mut hits, mut computed) = (HashSet::new(), HashSet::new());
                    // Keep reading until the writer is done, then one more
                    // sweep so every reader also observes the final epoch.
                    let mut final_sweep = false;
                    loop {
                        for (answer, hit) in sweep(&mut session, &prepared, &mut last_epoch) {
                            let key = (answer.query, answer.semantics, answer.epoch);
                            max_observed.fetch_max(answer.epoch, Ordering::AcqRel);
                            if hit { &mut hits } else { &mut computed }.insert(key);
                            // Torn-read guard, intra-reader: the same
                            // (query, semantics, epoch) must always produce
                            // the same answer.
                            if let Some(prev) = seen.insert(key, answer.clone()) {
                                assert_eq!(prev, answer, "torn read at {key:?}");
                            }
                        }
                        if final_sweep {
                            break;
                        }
                        final_sweep = done.load(Ordering::Acquire);
                    }
                    assert!(hits.len() + computed.len() >= 16, "reader barely ran");
                    (seen, hits, computed)
                })
            })
            .collect();
        // The writer. A reader ends before `done` only by panicking; then
        // stop writing, so the join below reports the panic instead of
        // the writer waiting for it forever.
        'write: for op in &s.ops {
            let report = shared.apply(&op.to_delta().unwrap()).unwrap();
            // Interleave for real: wait until some reader has answered at
            // this epoch before publishing the next one.
            while max_observed.load(Ordering::Acquire) < report.epoch {
                if handles.iter().any(|h| h.is_finished()) {
                    break 'write;
                }
                thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
        handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    assert_eq!(shared.epoch(), TARGET_DELTAS as u64);

    // Cross-reader torn-read check: any two readers that saw the same
    // (query, semantics, epoch) must have seen identical answers.
    let mut merged: HashMap<Key, Observation> = HashMap::new();
    for (map, _, _) in &reads {
        for (key, answer) in map {
            if let Some(prev) = merged.insert(*key, answer.clone()) {
                assert_eq!(&prev, answer, "torn read across readers at {key:?}");
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
        distinct_epochs.len() >= TARGET_DELTAS,
        "readers observed only {} distinct epochs of {}",
        distinct_epochs.len(),
        TARGET_DELTAS + 1
    );

    // Every distinct observation against the oracle at its epoch.
    let merged: Vec<Observation> = merged.into_values().collect();
    s.check(&merged).unwrap();
}

/// The smoke tier: many short races on tiny databases — cheap enough for
/// every CI run, adversarial enough (engine built, raced, and verified
/// dozens of times) that an ordering bug in the snapshot-publish protocol
/// fails fast rather than only under load. Every read, and the final
/// snapshot's answer, equals the oracle at its stamped epoch.
#[test]
fn interleaving_smoke_many_short_races() {
    for round in 0u32..24 {
        let db = random_db(3, 0.5, 3, u64::from(round) * 97 + 5);
        let query = parse_query(db.voc(), "(x, y) . P0(x, y)").unwrap();
        let draws = [
            (0, round, round + 1),
            (1, round + 2, 0),
            (2, round, round + 1),
        ];
        let ops = draws
            .iter()
            .filter_map(|&op| op_to_delta(&db, op))
            .collect();
        let s = Scenario::fixed(db, vec![query], ops);
        let (shared, prepared) = shared_engine(&s);
        let mut observed: Vec<Observation> = thread::scope(|scope| {
            scope.spawn(|| {
                for op in &s.ops {
                    shared.apply(&op.to_delta().unwrap()).unwrap();
                }
            });
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let (mut session, mut last_epoch) = (shared.session(), 0);
                        (0..12)
                            .map(|_| {
                                let p = &prepared[0];
                                read(&mut session, 0, p, Semantics::Auto, &mut last_epoch).0
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let readers = readers.into_iter();
            readers
                .flat_map(|r| r.join().expect("reader panicked"))
                .collect()
        });
        // Differential close-out for this round: the final snapshot too.
        let (last, _) = read(
            &mut shared.session(),
            0,
            &prepared[0],
            Semantics::Auto,
            &mut 0,
        );
        assert_eq!(last.epoch, s.final_epoch(), "round {round}");
        observed.push(last);
        s.check(&observed)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}
