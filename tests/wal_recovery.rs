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
//! * the recovery adaptor of the shared harness (`tests/support/`) over
//!   random scenarios, crashing at every record boundary plus a seeded
//!   intra-record offset per record: the recovered engine must hold the
//!   acknowledged prefix and answer like the oracle at its epoch —
//!   tuples *and* certificates, across all four semantics;
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

#[macro_use]
#[path = "support/cases.rs"]
mod cases;
#[path = "support/scenario.rs"]
mod scenario;

use cases::Outcome;
use querying_logical_databases::core::CwDatabase;
use querying_logical_databases::engine::{
    DurabilityConfig, FaultPlan, FaultyStorage, FsyncPolicy, MemStorage, PowerLoss, Storage,
    WalConfig,
};
use querying_logical_databases::prelude::{Delta, Engine, EngineError, SharedEngine};
use rand::Rng;
use scenario::{changing, observe, op_to_delta, prepare_all, random_db, Scenario, Shape, SMALL};
use std::io;
use std::sync::{Arc, Condvar, Mutex};

/// A scenario over `random_db(3, 0.5, 3, seed)` with the deltas of
/// `ops`, reflexive axioms dropped.
fn fixed(seed: u64, ops: &[(u8, u32, u32)]) -> Scenario {
    let db = random_db(3, 0.5, 3, seed);
    let ops = ops.iter().filter_map(|&op| op_to_delta(&db, op)).collect();
    Scenario::fixed(db, Vec::new(), ops)
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
    /// The bytes the run appended.
    appended: u64,
}

/// Seeds a log on a fresh [`MemStorage`], recovers it through a
/// [`FaultyStorage`] with `plan`, and applies `deltas` until one fails.
/// Returns the surviving bytes and what was acknowledged. Recovery of a
/// cleanly-checkpointed directory appends nothing, so a byte offset in
/// `plan` counts bytes from the first logged record.
fn crash_run(
    db: &CwDatabase,
    deltas: &[Delta],
    config: DurabilityConfig,
    plan: FaultPlan,
    schedule: Schedule,
) -> (MemStorage, CrashOutcome) {
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
    let (shared, report) = SharedEngine::recover_with(storage, config, Engine::new)
        .expect("recovering the seed checkpoint writes nothing");
    assert_eq!(report.records_replayed, 0, "seed-only log has no tail");
    let (mut acked, mut acked_changed) = (0, 0);
    for delta in deltas {
        match shared.apply(delta) {
            Ok(report) => {
                acked += 1;
                acked_changed += u64::from(report.changed());
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
    let crashed = faulty.crashed();
    let appended = faulty.bytes_appended();
    let outcome = CrashOutcome {
        acked,
        acked_changed,
        crashed,
        appended,
    };
    (mem, outcome)
}

/// A crash run without checkpoints that tears the append crossing byte
/// `offset` of the record log.
fn run_until_crash(
    db: &CwDatabase,
    deltas: &[Delta],
    offset: u64,
    fsync: FsyncPolicy,
) -> (MemStorage, CrashOutcome) {
    let plan = FaultPlan::crash_after_bytes(offset);
    crash_run(db, deltas, config(fsync), plan, Schedule::Racing)
}

/// The recovery adaptor: recover the surviving bytes, demand that
/// exactly the acknowledged changing deltas replay (the `Always`
/// guarantee) and that the database is the scenario's at that epoch, and
/// check every query under every semantics on the recovered engine
/// against the oracle.
fn recovered_matches_the_acked_prefix(
    s: &Scenario,
    mem: &MemStorage,
    outcome: &CrashOutcome,
    fsync: FsyncPolicy,
) -> Outcome {
    let (recovered, report) =
        SharedEngine::recover_with(Box::new(mem.clone()), config(fsync), Engine::new)
            .expect("recovery after an injected crash");
    ensure_eq!(
        report.records_replayed,
        outcome.acked_changed,
        "every acknowledged delta must be durable, and only those"
    );
    ensure_eq!(
        report.epoch,
        outcome.acked_changed,
        "epoch = changing deltas"
    );
    ensure_eq!(recovered.epoch(), report.epoch);
    ensure!(
        Some(recovered.snapshot().engine().db()) == s.db_at(report.epoch).as_ref(),
        "the recovered database is not the acknowledged prefix"
    );
    let snapshot = recovered.snapshot();
    let engine = snapshot.engine();
    s.check(&observe(engine, &prepare_all(engine, s)))
}

/// Exhaustive tier: a fixed database and delta sequence, a crash at
/// every single byte offset of the record log (plus one past the end =
/// no crash at all). At each offset the recovered record count and epoch
/// are exactly the acknowledged prefix and the database is the
/// scenario's at that epoch.
#[test]
fn crash_at_every_byte_offset_recovers_the_acked_prefix() {
    let s = fixed(7, &[(0, 0, 1), (2, 0, 2), (1, 1, 0), (0, 2, 0)]);
    let (db, deltas) = (&s.db, s.deltas());
    assert!(!deltas.is_empty());
    let boundaries = clean_record_boundaries(db, &deltas, FsyncPolicy::Always);
    let total = *boundaries.last().unwrap();
    assert!(total > 0, "the fixed sequence must log something");

    for offset in 0..=total {
        let (mem, outcome) = run_until_crash(db, &deltas, offset, FsyncPolicy::Always);
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
        assert_eq!(
            Some(recovered.snapshot().engine().db()),
            s.db_at(expected).as_ref(),
            "offset {offset}: recovered database diverged from the prefix"
        );
    }
}

/// A recovered engine is a first-class durable engine: it keeps logging
/// into the same storage, and a second crash-recovery cycle sees both
/// the pre-crash and post-recovery deltas.
#[test]
fn recovery_after_recovery_preserves_the_whole_history() {
    let s = fixed(11, &[(0, 0, 1), (1, 2, 0), (2, 1, 2)]);
    let (db, deltas) = (&s.db, s.deltas());
    let boundaries = clean_record_boundaries(db, &deltas, FsyncPolicy::Always);
    // Crash in the middle of the second record.
    let offset = (boundaries[1] + boundaries[2]) / 2;
    let (mem, outcome) = run_until_crash(db, &deltas, offset, FsyncPolicy::Always);
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
    assert_eq!(final_epoch, s.final_epoch());
    assert_eq!(
        Some(again.snapshot().engine().db()),
        s.db_at(final_epoch).as_ref()
    );
}

/// How a crash run interleaves with the background checkpointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// `wal_stats()` after every apply waits for the checkpoints in
    /// flight, so every run performs the same operations in the same
    /// order and a crash point always lands on the same one.
    Waiting,
    /// The writer races the checkpointer (or, with checkpoints off, just
    /// runs).
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

/// Crashes one run at `plan` and checks what survives: an exact prefix
/// of the deltas, at most one past the acknowledged ones (the write
/// whose checkpoint hand-over failed was logged first), all of them
/// without a crash, and under `Always` at least every acknowledged one.
/// Returns whether the crash fired.
fn crash_and_recover_a_prefix(
    s: &Scenario,
    config: DurabilityConfig,
    plan: FaultPlan,
    schedule: Schedule,
) -> bool {
    let (mem, CrashOutcome { acked, crashed, .. }) =
        crash_run(&s.db, &s.deltas(), config, plan, schedule);
    let context = format!("{plan:?}, {schedule:?}, {config:?}: {acked} acked");
    let (recovered, report) = SharedEngine::recover_with(Box::new(mem), config, Engine::new)
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    let kept = report.epoch as usize;
    assert!(kept <= acked + 1, "{context}: recovered epoch {kept}");
    if !crashed {
        assert_eq!(kept, s.ops.len(), "{context}: no crash, nothing lost");
    }
    if config.wal.fsync == FsyncPolicy::Always {
        assert!(kept >= acked, "{context}: an acknowledged delta was lost");
    }
    assert_eq!(
        Some(recovered.snapshot().engine().db()),
        s.db_at(report.epoch).as_ref(),
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
    // Inserts of the six `P0` pairs the database lacks.
    let db = random_db(3, 0.5, 3, 7);
    let inserts = (0..9).filter_map(|i| op_to_delta(&db, (0, i / 3, i % 3)));
    let ops = changing(&db, inserts, 6);
    let s = Scenario::fixed(db, Vec::new(), ops);
    for every in [2, 3] {
        for fsync in [FsyncPolicy::Always, FsyncPolicy::Never] {
            let config = checkpointing(fsync, every);
            for power_loss in [None, Some(PowerLoss::Revert), Some(PowerLoss::KeepRemovals)] {
                for schedule in [Schedule::Waiting, Schedule::Racing, Schedule::Overlapping] {
                    let with = |plan: FaultPlan| FaultPlan { power_loss, ..plan };
                    let run = |plan| crash_and_recover_a_prefix(&s, config, with(plan), schedule);
                    let clean =
                        crash_run(&s.db, &s.deltas(), config, FaultPlan::default(), schedule);
                    for k in 0..=clean.1.appended {
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

property! {
    /// Random scenarios; a crash at every record boundary and at one
    /// seeded offset strictly inside each record. After each crash the
    /// recovered engine must hold exactly the acknowledged delta prefix and
    /// answer like the oracle there. The fsync policy must not matter for
    /// the differential (it only widens the potential loss window on real
    /// disks; the in-memory storage persists every append).
    fn crash_at_boundaries_and_torn_records_recovers_the_acked_prefix(
        s in |rng| Scenario::generate(&Shape { consts: 2..=4, queries: 2, ..SMALL }, rng); 6
    ) {
        let mut rng = s.adaptor_rng();
        let fsync = [FsyncPolicy::Always, FsyncPolicy::Never, FsyncPolicy::EveryN(3)];
        let fsync = fsync[rng.gen_range(0..3usize)];
        let deltas = s.deltas();
        let boundaries = clean_record_boundaries(&s.db, &deltas, fsync);
        // Every record boundary (including 0 = crash before anything and
        // the total = no crash at all) …
        let mut offsets: Vec<u64> = boundaries.clone();
        // … plus one offset strictly inside each record: a torn frame that
        // recovery must truncate away.
        for w in boundaries.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            offsets.push(lo + 1 + rng.gen_range(0..(hi - lo - 1).max(1)));
        }
        for offset in offsets {
            let (mem, outcome) = run_until_crash(&s.db, &deltas, offset, fsync);
            recovered_matches_the_acked_prefix(s, &mem, &outcome, fsync)
                .map_err(|e| format!("{fsync:?}, crash at byte {offset}: {e}"))?;
        }
        Ok(())
    }
}
