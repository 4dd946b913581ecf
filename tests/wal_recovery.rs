//! Crash-point recovery differential tests of the durability layer: an
//! engine recovered after a crash injected at *any* byte offset of the
//! WAL must equal a solo engine rebuilt from some prefix of the applied
//! deltas — and under [`FsyncPolicy::Always`] that prefix contains every
//! delta whose `apply` returned `Ok` (log-before-publish means an
//! acknowledged epoch is always durable).
//!
//! The battery is three tiers:
//!
//! * an exhaustive pass over a fixed delta sequence, crashing the
//!   fault-injecting storage at **every byte offset** of the log and
//!   checking the recovered record count, epoch, and database at each;
//! * a proptest suite over random databases, random delta sequences, and
//!   crashes at every record boundary plus a random intra-record offset
//!   per record, asserting the recovered engine answers identically —
//!   tuples *and* certificates — to a fresh engine built from the
//!   surviving delta prefix, across all four semantics;
//! * a sweep through *automatic* checkpoints, which a background
//!   checkpointer writes while the writer keeps appending: a crash at
//!   every byte, every sync and every remove, the crash a process kill
//!   or a power loss (unsynced bytes and unsynced directory changes
//!   lost), the writer waiting for each checkpoint, racing it, or running
//!   ahead of two checkpoints in flight (the most the writer lets be
//!   outstanding).
//!
//! Run under `QLD_THREADS=1` and `QLD_THREADS=4` (CI does both): the
//! enumeration worker pool is orthogonal to recovery, so the invariant
//! must hold at any parallelism.
//!
//! [`FsyncPolicy::Always`]: querying_logical_databases::engine::FsyncPolicy::Always

use proptest::prelude::*;
use qld_workloads::{random_cw_db, random_query, DbGenConfig, QueryFragment, QueryGenConfig};
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::engine::{
    DurabilityConfig, FaultPlan, FaultyStorage, FsyncPolicy, MemStorage, PowerLoss, Storage,
    WalConfig,
};
use querying_logical_databases::logic::{ConstId, Query};
use querying_logical_databases::prelude::{Delta, Engine, EngineError, Semantics, SharedEngine};
use std::io;
use std::sync::{Arc, Condvar, Mutex};

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

/// No automatic checkpoints, so every byte appended after the seed
/// checkpoint is a record frame and crash offsets address records
/// directly.
fn config(fsync: FsyncPolicy) -> DurabilityConfig {
    DurabilityConfig {
        wal: WalConfig {
            fsync,
            ..WalConfig::default()
        },
        checkpoint_every: 0,
    }
}

/// Seeds a fresh durable engine on `mem` and applies every delta cleanly,
/// returning the cumulative WAL byte offset after the seed checkpoint
/// (`0`) and after each *changing* delta's record. Seeding is
/// deterministic, so these offsets address the same bytes in every crash
/// run over the same inputs.
fn clean_record_boundaries(db: &CwDatabase, deltas: &[Delta], fsync: FsyncPolicy) -> Vec<u64> {
    let mem = MemStorage::new();
    let shared = SharedEngine::durable(Engine::new(db.clone()), Box::new(mem), config(fsync))
        .expect("seeding a fresh WAL");
    let mut boundaries = vec![0u64];
    for delta in deltas {
        let report = shared.apply(delta).expect("clean apply");
        if report.changed() {
            boundaries.push(shared.wal_stats().expect("durable engine").bytes_appended);
        }
    }
    boundaries
}

/// What a crash run acknowledged before the injected fault killed it.
struct CrashOutcome {
    /// Deltas whose `apply` returned `Ok` (the acknowledged prefix, in
    /// delta indices — includes no-op deltas, which are never logged).
    acked: usize,
    /// Changing deltas among the acknowledged prefix (each appended one
    /// record and bumped the epoch).
    acked_changed: u64,
    /// Whether the injected crash actually fired (`false` when the
    /// offset sits at or past the end of the log).
    crashed: bool,
}

/// Seeds a clean WAL on a fresh [`MemStorage`], reopens it through a
/// [`FaultyStorage`] that tears the append crossing byte `offset`, and
/// applies deltas until the crash. Returns the surviving bytes and what
/// was acknowledged. Recovery of a cleanly-checkpointed directory appends
/// nothing, so `offset` counts bytes from the first logged record.
fn run_until_crash(
    db: &CwDatabase,
    deltas: &[Delta],
    offset: u64,
    fsync: FsyncPolicy,
) -> (MemStorage, CrashOutcome) {
    let mem = MemStorage::new();
    let seeded = SharedEngine::durable(
        Engine::new(db.clone()),
        Box::new(mem.clone()),
        config(fsync),
    )
    .expect("seeding a fresh WAL");
    drop(seeded);
    let faulty = FaultyStorage::new(mem.clone(), FaultPlan::crash_after_bytes(offset));
    let (shared, report) = SharedEngine::recover_with(Box::new(faulty), config(fsync), Engine::new)
        .expect("recovering the seed checkpoint");
    assert_eq!(report.records_replayed, 0, "seed-only log has no tail");
    let mut outcome = CrashOutcome {
        acked: 0,
        acked_changed: 0,
        crashed: false,
    };
    for delta in deltas {
        match shared.apply(delta) {
            Ok(report) => {
                outcome.acked += 1;
                if report.changed() {
                    outcome.acked_changed += 1;
                }
            }
            Err(EngineError::Durability(_)) => {
                outcome.crashed = true;
                break;
            }
            Err(e) => panic!("unexpected engine error during crash run: {e}"),
        }
    }
    (mem, outcome)
}

/// The recovery invariant, checked end to end: recover the surviving
/// bytes, demand that exactly the acknowledged changing deltas replay
/// (the `Always` guarantee), rebuild a fresh solo engine from the
/// acknowledged delta prefix, and compare databases plus every query
/// under every semantics — tuples and certificates.
fn assert_recovery_matches_prefix(
    db: &CwDatabase,
    deltas: &[Delta],
    queries: &[Query],
    mem: &MemStorage,
    outcome: &CrashOutcome,
    fsync: FsyncPolicy,
    context: &str,
) -> Result<(), TestCaseError> {
    let (recovered, report) =
        SharedEngine::recover_with(Box::new(mem.clone()), config(fsync), Engine::new)
            .expect("recovery after an injected crash");
    prop_assert_eq!(
        report.records_replayed,
        outcome.acked_changed,
        "every acknowledged delta must be durable, and only those ({})",
        context
    );
    prop_assert_eq!(
        report.epoch,
        outcome.acked_changed,
        "epoch = changing deltas ({})",
        context
    );
    prop_assert_eq!(recovered.epoch(), report.epoch);

    let mut fresh = Engine::new(db.clone());
    for delta in &deltas[..outcome.acked] {
        fresh
            .apply(delta)
            .expect("prefix replay on the fresh engine");
    }
    prop_assert_eq!(
        fresh.epoch(),
        recovered.epoch(),
        "prefix epoch ({})",
        context
    );
    let snap = recovered.snapshot();
    prop_assert_eq!(
        snap.engine().db(),
        fresh.db(),
        "recovered database diverged from the acknowledged prefix ({})",
        context
    );

    let mut session = recovered.session();
    for q in queries {
        let p = session.prepare(q.clone()).expect("prepare on recovered");
        let f = fresh.prepare(q.clone()).expect("prepare on fresh");
        for semantics in Semantics::ALL {
            let got = session
                .execute_as(&p, semantics)
                .expect("recovered execute");
            let want = fresh.execute_as(&f, semantics).expect("fresh execute");
            prop_assert_eq!(
                got.tuples(),
                want.tuples(),
                "tuples diverged under {:?} on {:?} ({})",
                semantics,
                q,
                context
            );
            prop_assert_eq!(
                got.evidence().certificate,
                want.evidence().certificate,
                "certificate diverged under {:?} on {:?} ({})",
                semantics,
                q,
                context
            );
        }
    }
    Ok(())
}

/// Exhaustive tier: a fixed database and delta sequence, a crash at
/// every single byte offset of the record log (plus one past the end =
/// no crash at all). At each offset the recovered record count and epoch
/// are exactly the acknowledged prefix and the database matches a fresh
/// engine over that prefix.
#[test]
fn crash_at_every_byte_offset_recovers_the_acked_prefix() {
    let db = random_db(7, 3, 0.5);
    let ops = [(0u8, 0u32, 1u32), (2, 0, 2), (1, 1, 0), (0, 2, 0)];
    let deltas: Vec<Delta> = ops.iter().filter_map(|&op| op_to_delta(&db, op)).collect();
    assert!(!deltas.is_empty());
    let boundaries = clean_record_boundaries(&db, &deltas, FsyncPolicy::Always);
    let total = *boundaries.last().unwrap();
    assert!(total > 0, "the fixed sequence must log something");

    for offset in 0..=total {
        let (mem, outcome) = run_until_crash(&db, &deltas, offset, FsyncPolicy::Always);
        // Torn writes never lose acknowledged records: the records whose
        // frames end at or before the crash offset are exactly the acked
        // ones.
        let expected = boundaries[1..].iter().filter(|&&b| b <= offset).count() as u64;
        assert_eq!(
            outcome.acked_changed, expected,
            "offset {offset}: acked prefix must stop at the torn record"
        );
        assert_eq!(outcome.crashed, offset < total, "offset {offset}");
        let (recovered, report) = SharedEngine::recover_with(
            Box::new(mem.clone()),
            config(FsyncPolicy::Always),
            Engine::new,
        )
        .expect("recovery after an injected crash");
        assert_eq!(report.records_replayed, expected, "offset {offset}");
        assert_eq!(recovered.epoch(), expected, "offset {offset}");
        let mut fresh = Engine::new(db.clone());
        for delta in &deltas[..outcome.acked] {
            fresh.apply(delta).unwrap();
        }
        let snap = recovered.snapshot();
        assert_eq!(
            snap.engine().db(),
            fresh.db(),
            "offset {offset}: recovered database diverged from the prefix"
        );
    }
}

/// A recovered engine is a first-class durable engine: it keeps logging
/// into the same storage, and a second crash-recovery cycle sees both
/// the pre-crash and post-recovery deltas.
#[test]
fn recovery_after_recovery_preserves_the_whole_history() {
    let db = random_db(11, 3, 0.5);
    let deltas: Vec<Delta> = [(0u8, 0u32, 1u32), (1, 2, 0), (2, 1, 2)]
        .iter()
        .filter_map(|&op| op_to_delta(&db, op))
        .collect();
    let boundaries = clean_record_boundaries(&db, &deltas, FsyncPolicy::Always);
    // Crash in the middle of the second record.
    let offset = (boundaries[1] + boundaries[2]) / 2;
    let (mem, outcome) = run_until_crash(&db, &deltas, offset, FsyncPolicy::Always);
    assert!(outcome.crashed);
    assert_eq!(outcome.acked_changed, 1);

    let (recovered, report) = SharedEngine::recover_with(
        Box::new(mem.clone()),
        config(FsyncPolicy::Always),
        Engine::new,
    )
    .unwrap();
    assert_eq!(report.records_replayed, 1);
    // Finish the sequence on the recovered engine.
    for delta in &deltas[outcome.acked..] {
        recovered.apply(delta).unwrap();
    }
    let final_epoch = recovered.epoch();
    drop(recovered);

    // Second cycle: everything — replayed and freshly logged — survives.
    let (again, report) =
        SharedEngine::recover_with(Box::new(mem), config(FsyncPolicy::Always), Engine::new)
            .unwrap();
    assert_eq!(again.epoch(), final_epoch);
    assert_eq!(report.epoch, final_epoch);
    let mut fresh = Engine::new(db);
    for delta in &deltas {
        fresh.apply(delta).unwrap();
    }
    let snap = again.snapshot();
    assert_eq!(snap.engine().db(), fresh.db());
}

/// How a crash run interleaves with the background checkpointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// `wal_stats()` after every apply waits for the checkpoints in
    /// flight, so every run performs the same operations in the same
    /// order and a crash point always lands on the same one.
    Waiting,
    /// The writer races the checkpointer.
    Racing,
    /// The checkpointer's first sync of each checkpoint is held until
    /// the writer has handed over the next one ([`HeldSyncs`]), so two
    /// checkpoints are in flight whenever a later one exists.
    Overlapping,
}

/// A [`FaultyStorage`] that holds the sync of each checkpoint file until
/// the epoch it checkpoints is released: [`Schedule::Overlapping`].
#[derive(Debug, Clone)]
struct HeldSyncs {
    inner: FaultyStorage,
    /// The newest checkpoint epoch whose file may sync.
    released: Arc<(Mutex<u64>, Condvar)>,
}

impl HeldSyncs {
    fn release(&self, epoch: u64) {
        let (released, changed) = &*self.released;
        let mut released = released.lock().unwrap();
        *released = (*released).max(epoch);
        changed.notify_all();
    }
}

impl Storage for HeldSyncs {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.append(name, data)
    }
    fn sync(&mut self, name: &str) -> io::Result<()> {
        let checkpoint = name
            .strip_prefix("ckpt-")
            .and_then(|n| n.strip_suffix(".ck"));
        if let Some(epoch) = checkpoint.and_then(|hex| u64::from_str_radix(hex, 16).ok()) {
            let (released, changed) = &*self.released;
            let released = released.lock().unwrap();
            drop(changed.wait_while(released, |released| *released < epoch));
        }
        self.inner.sync(name)
    }
    fn sync_dir(&mut self) -> io::Result<()> {
        self.inner.sync_dir()
    }
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
    fn reopen(&self) -> io::Result<Box<dyn Storage>> {
        Ok(Box::new(self.clone()))
    }
}

/// Automatic checkpoints every `every` changing deltas, in segments of
/// two records (so the log also rotates between checkpoints).
fn checkpointing(fsync: FsyncPolicy, every: u64) -> DurabilityConfig {
    DurabilityConfig {
        wal: WalConfig {
            fsync,
            segment_max_records: 2,
        },
        checkpoint_every: every,
    }
}

/// Seeds a log on a fresh [`MemStorage`], recovers it through a
/// [`FaultyStorage`] with `plan`, and applies `deltas` (all changing)
/// until one fails. Returns the surviving bytes, the deltas
/// acknowledged, whether the crash fired, and the bytes appended.
fn checkpointing_run(
    db: &CwDatabase,
    deltas: &[Delta],
    config: DurabilityConfig,
    plan: FaultPlan,
    schedule: Schedule,
) -> (MemStorage, usize, bool, u64) {
    let mem = MemStorage::new();
    let seeded = SharedEngine::durable(Engine::new(db.clone()), Box::new(mem.clone()), config)
        .expect("seeding a fresh WAL");
    drop(seeded);
    let faulty = FaultyStorage::new(mem.clone(), plan);
    let held = HeldSyncs {
        inner: faulty.clone(),
        released: Arc::default(),
    };
    let storage: Box<dyn Storage> = match schedule {
        Schedule::Overlapping => Box::new(held.clone()),
        _ => Box::new(faulty.clone()),
    };
    let (shared, _) = SharedEngine::recover_with(storage, config, Engine::new)
        .expect("recovering the seed checkpoint writes nothing");
    let mut acked = 0;
    for delta in deltas {
        match shared.apply(delta) {
            Ok(report) => {
                assert!(report.changed());
                acked += 1;
                // This write handed over the checkpoint after the one at
                // `epoch - every`, if any: that one may finish now.
                held.release(report.epoch.saturating_sub(config.checkpoint_every));
            }
            Err(EngineError::Durability(_)) => break,
            Err(e) => panic!("unexpected engine error during crash run: {e}"),
        }
        if schedule == Schedule::Waiting {
            shared.wal_stats();
        }
    }
    held.release(u64::MAX);
    drop(shared);
    (mem, acked, faulty.crashed(), faulty.bytes_appended())
}

/// Crashes one run at `plan` and checks what survives: an exact prefix
/// of the deltas, at most one past the acknowledged ones (the write
/// whose checkpoint hand-over failed was logged first), all of them
/// without a crash, and under `Always` at least every acknowledged one.
/// Returns whether the crash fired.
fn crash_and_recover_a_prefix(
    db: &CwDatabase,
    deltas: &[Delta],
    config: DurabilityConfig,
    plan: FaultPlan,
    schedule: Schedule,
) -> bool {
    let (mem, acked, crashed, _) = checkpointing_run(db, deltas, config, plan, schedule);
    let context = format!("{plan:?}, {schedule:?}, {config:?}: {acked} acked");
    let (recovered, report) = SharedEngine::recover_with(Box::new(mem), config, Engine::new)
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    let kept = report.epoch as usize;
    assert!(kept <= acked + 1, "{context}: recovered epoch {kept}");
    if !crashed {
        assert_eq!(kept, deltas.len(), "{context}: no crash, nothing lost");
    }
    if config.wal.fsync == FsyncPolicy::Always {
        assert!(kept >= acked, "{context}: an acknowledged delta was lost");
    }
    let mut fresh = Engine::new(db.clone());
    for delta in &deltas[..kept] {
        fresh.apply(delta).unwrap();
    }
    assert_eq!(
        recovered.snapshot().engine().db(),
        fresh.db(),
        "{context}: not the {kept}-delta prefix"
    );
    crashed
}

/// The power-loss tier: automatic checkpoints every 2 and every 3
/// changing deltas, under `Always` and `Never`, each crash a process kill
/// or one of the two power losses, each run waiting for the checkpointer,
/// racing it, or holding two checkpoints in flight; a crash at every byte
/// appended, every sync and every remove. Every run must recover an exact prefix, and under `Always` one
/// that covers every acknowledged delta.
#[test]
fn crashes_through_automatic_checkpoints_recover_a_prefix() {
    let db = random_db(7, 3, 0.5);
    let p0 = db.voc().pred_id("P0").unwrap();
    let deltas: Vec<Delta> = (0..3u32)
        .flat_map(|a| (0..3u32).map(move |b| (a, b)))
        .filter(|&(a, b)| !db.facts(p0).contains(&[a, b]))
        .map(|(a, b)| Delta::new().insert_fact(p0, &[ConstId(a), ConstId(b)]))
        .collect();
    assert_eq!(deltas.len(), 6, "the database leaves six fresh pairs");
    for every in [2, 3] {
        for fsync in [FsyncPolicy::Always, FsyncPolicy::Never] {
            let config = checkpointing(fsync, every);
            for power_loss in [None, Some(PowerLoss::Revert), Some(PowerLoss::KeepRemovals)] {
                for schedule in [Schedule::Waiting, Schedule::Racing, Schedule::Overlapping] {
                    let with = |plan: FaultPlan| FaultPlan { power_loss, ..plan };
                    let run = |plan| {
                        crash_and_recover_a_prefix(&db, &deltas, config, with(plan), schedule)
                    };
                    let (_, _, _, total) =
                        checkpointing_run(&db, &deltas, config, FaultPlan::default(), schedule);
                    for k in 0..=total {
                        run(FaultPlan::crash_after_bytes(k));
                    }
                    let syncs = (1..)
                        .take_while(|&n| run(FaultPlan::crash_on_sync(n)))
                        .count();
                    let removes = (1..)
                        .take_while(|&n| run(FaultPlan::crash_on_remove(n)))
                        .count();
                    assert!(
                        syncs >= 6 && removes >= 4,
                        "{syncs} syncs, {removes} removes"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random databases and delta sequences; a crash at every record
    /// boundary and at one random offset strictly inside each record.
    /// After each crash the recovered engine must answer — tuples and
    /// certificates, all four semantics — exactly like a fresh engine
    /// built from the acknowledged delta prefix. The fsync policy must
    /// not matter for the differential (it only widens the potential
    /// loss window on real disks; the in-memory storage persists every
    /// append).
    #[test]
    fn crash_at_boundaries_and_torn_records_recovers_the_acked_prefix(
        seed in 0u64..10_000,
        n in 2usize..5,
        known in 0u8..=10,
        ops in proptest::collection::vec((0u8..3, 0u32..8, 0u32..8), 1..5),
        tear in 1u64..10_000,
        fsync_pick in 0u8..=2,
    ) {
        let fsync = match fsync_pick {
            0 => FsyncPolicy::Always,
            1 => FsyncPolicy::Never,
            _ => FsyncPolicy::EveryN(3),
        };
        let db = random_db(seed, n, f64::from(known) / 10.0);
        let queries = random_queries(&db, 2, seed);
        let deltas: Vec<Delta> = ops.iter().filter_map(|&op| op_to_delta(&db, op)).collect();
        let boundaries = clean_record_boundaries(&db, &deltas, fsync);

        // Every record boundary (including 0 = crash before anything and
        // the total = no crash at all) …
        let mut offsets: Vec<u64> = boundaries.clone();
        // … plus one random offset strictly inside each record: a torn
        // frame that recovery must truncate away.
        for w in boundaries.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            offsets.push(lo + 1 + tear.wrapping_mul(hi) % (hi - lo - 1).max(1));
        }

        for offset in offsets {
            let (mem, outcome) = run_until_crash(&db, &deltas, offset, fsync);
            assert_recovery_matches_prefix(
                &db,
                &deltas,
                &queries,
                &mem,
                &outcome,
                fsync,
                &format!("seed {seed}, crash at byte {offset}"),
            )?;
        }
    }
}
