//! Durability for the serving stack: a [`SharedEngine`] backed by a
//! [`qld_wal::Wal`], with crash recovery by checkpoint-plus-replay.
//!
//! The engine side of the story is small because `Engine::apply` is
//! deterministic and differential-tested against rebuild: persisting the
//! delta sequence *is* persisting the database. This module provides the
//! glue:
//!
//! * [`SharedEngine::durable`] attaches a fresh WAL to an engine and
//!   seeds it with a checkpoint of the current database, so the log
//!   directory is self-contained from the first byte;
//! * every changing [`SharedEngine::apply`] then appends one
//!   [`WalRecord`] **before** the new snapshot is published
//!   (log-before-publish) — under [`FsyncPolicy::Always`] an
//!   acknowledged epoch is always durable;
//! * [`SharedEngine::recover_with`] rebuilds after a crash: newest valid
//!   checkpoint → database → replay the record tail through the ordinary
//!   `apply` path, asserting each record lands on exactly the epoch it
//!   was logged at;
//! * periodic checkpoints (every [`DurabilityConfig::checkpoint_every`]
//!   changing deltas) bound replay time and let the WAL truncate old
//!   segments.
//!
//! **Checkpoints are written off the write path.** A database is fully
//! determined by its constants, facts and uniqueness axioms, and every
//! published epoch is a frozen, `Arc`-shared value, so a checkpoint is a
//! pure function of a state the writer already holds. At the cadence the
//! writer counts the checkpoints that have finished since (without
//! waiting for the others), rotates the log to a fresh segment — every
//! later record lands in a segment the checkpoint keeps — and hands
//! `(epoch, generation, database, first kept segment)` to one background
//! checkpointer thread, then returns. The hand-over waits only while two
//! checkpoints are unfinished, one being written and one queued behind
//! it. So the writer runs ahead of the checkpointer by at most two
//! checkpoints: a burst of writes does not wait for them, but a stream
//! whose writes outrun the checkpointer for longer goes at its pace, as
//! when each hand-over waited for the one before. The checkpointer writes
//! its jobs one at a time, in order: it encodes the database and runs
//! [`qld_wal::write_checkpoint`] (write + sync the file, sync the
//! directory, remove what the checkpoint supersedes, sync the directory
//! again) through a second handle on the same storage
//! ([`qld_wal::Storage::reopen`]). A failure there poisons the write path
//! exactly as a failed append does, and stops the checkpointer: every
//! job queued behind the failed one is answered with an error and
//! touches no storage. The seed checkpoint,
//! [`SharedEngine::checkpoint_now`] and [`SharedEngine::promote`] wait
//! for every outstanding checkpoint and then write theirs synchronously;
//! [`SharedEngine::wal_stats`], [`SharedEngine::wal_tail`] and dropping
//! the engine wait for all of them too, so counters are exact and a tail
//! read never races a removal.
//!
//! A checkpoint's payload is the database in the binary layout of
//! [`qld_core::codec`] — constants, fact rows and uniqueness pairs as
//! `u32` lists, not `.qld` text. Recovery decodes it through the same
//! module, which also reads the `.qld` text payloads that logs written
//! before the binary layout hold.
//!
//! The recovery invariant — an engine recovered after a crash at *any*
//! byte offset equals a solo engine rebuilt from some prefix of the
//! applied deltas, and under `Always` that prefix covers every
//! acknowledged delta — is exercised exhaustively in
//! `tests/wal_recovery.rs` with [`qld_wal::FaultyStorage`].
//!
//! [`FsyncPolicy::Always`]: qld_wal::FsyncPolicy::Always

use crate::concurrent::SharedEngine;
use crate::delta::Delta;
use crate::error::EngineError;
use crate::session::Engine;
use qld_core::{codec, CwDatabase};
use qld_logic::{ConstId, PredId};
use qld_wal::{Storage, Wal, WalConfig, WalRecord, WalStats};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// How a [`SharedEngine`] uses its WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// The log's own knobs: fsync policy and segment size.
    pub wal: WalConfig,
    /// Write a database checkpoint (and truncate older log state) every
    /// this many changing deltas; `0` disables automatic checkpoints
    /// (the seed checkpoint at attach time is still written). The
    /// checkpoint is written in the background while later writes are
    /// logged, and up to two may be outstanding at once, so recovery
    /// replays at most `3 × checkpoint_every` records after the newest
    /// durable checkpoint.
    pub checkpoint_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            wal: WalConfig::default(),
            checkpoint_every: 256,
        }
    }
}

/// What a recovery did, for operators and tests (`qld recover` prints
/// it; `:stats` carries the counters via [`WalStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch of the checkpoint the database was rebuilt from.
    pub checkpoint_epoch: u64,
    /// Records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Whole records dropped because they sat beyond a corrupt frame.
    pub records_truncated: u64,
    /// Torn/corrupt bytes discarded from the log tail.
    pub bytes_truncated: u64,
    /// The epoch the recovered engine resumed at.
    pub epoch: u64,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered epoch {} (checkpoint at {}, {} record(s) replayed, \
             {} record(s) / {} byte(s) truncated)",
            self.epoch,
            self.checkpoint_epoch,
            self.records_replayed,
            self.records_truncated,
            self.bytes_truncated
        )
    }
}

/// The WAL plus its checkpoint cadence, held behind the writer path of a
/// [`SharedEngine`], and the checkpointer that writes the automatic
/// checkpoints beside it.
#[derive(Debug)]
pub(crate) struct DurableState {
    wal: Wal,
    checkpoint_every: u64,
    since_checkpoint: u64,
    /// Spawned at the first automatic checkpoint.
    checkpointer: Option<Checkpointer>,
    /// Set (never cleared) when a background checkpoint fails. The
    /// [`SharedEngine`] gates its write path on this same flag.
    poisoned: Arc<AtomicBool>,
}

/// The background checkpointer: one thread that encodes each
/// handed-over database and runs [`qld_wal::write_checkpoint`] through
/// its own handle on the log's storage, in hand-over order, reporting
/// each result back with the checkpoint's first kept segment.
#[derive(Debug)]
struct Checkpointer {
    /// Room for one job beside the one being written: a hand-over
    /// blocks while two checkpoints are unfinished.
    jobs: mpsc::SyncSender<Job>,
    done: mpsc::Receiver<(u64, io::Result<()>)>,
    thread: thread::JoinHandle<()>,
    /// Checkpoints handed over whose result is not collected yet.
    outstanding: usize,
}

/// One checkpoint for the checkpointer to write.
#[derive(Debug)]
struct Job {
    epoch: u64,
    generation: u64,
    /// The database at `epoch`: a clone of the writer's, which shares
    /// every relation with it (`Arc` bumps, no copy).
    db: CwDatabase,
    keep_from_seq: u64,
}

impl Checkpointer {
    fn spawn(mut storage: Box<dyn Storage>, poisoned: Arc<AtomicBool>) -> io::Result<Checkpointer> {
        let (jobs, inbox) = mpsc::sync_channel::<Job>(1);
        let (outbox, done) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("qld-checkpointer".to_string())
            .spawn(move || {
                // Fail-stop: after a failure the storage is left exactly
                // as the failed job left it.
                let mut failed = false;
                for job in inbox {
                    let result = if failed {
                        Err(io::Error::other(
                            "not written: an earlier background checkpoint failed",
                        ))
                    } else {
                        let payload = codec::encode(&job.db);
                        // Let go of the relations before the syncs: the
                        // writer has moved past them, and held they pin
                        // its memory.
                        drop(job.db);
                        qld_wal::write_checkpoint(
                            &mut *storage,
                            job.epoch,
                            job.generation,
                            &payload,
                            job.keep_from_seq,
                        )
                    };
                    if result.is_err() {
                        failed = true;
                        poisoned.store(true, Ordering::Release);
                    }
                    if outbox.send((job.keep_from_seq, result)).is_err() {
                        return;
                    }
                }
            })?;
        Ok(Checkpointer {
            jobs,
            done,
            thread,
            outstanding: 0,
        })
    }
}

fn checkpointer_stopped() -> io::Error {
    io::Error::other("the background checkpointer stopped")
}

impl DurableState {
    fn new(wal: Wal, checkpoint_every: u64) -> DurableState {
        DurableState {
            wal,
            checkpoint_every,
            since_checkpoint: 0,
            checkpointer: None,
            poisoned: Arc::default(),
        }
    }

    /// The flag a failed background checkpoint sets.
    pub(crate) fn poison_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.poisoned)
    }

    /// Appends the record for a just-applied changing delta, then hands
    /// a checkpoint (stamped with the serving `generation`) to the
    /// background checkpointer if the cadence says so. Called with the
    /// writer lock held, before the snapshot is published.
    pub(crate) fn log(
        &mut self,
        delta: &Delta,
        engine: &Engine,
        generation: u64,
    ) -> io::Result<()> {
        self.wal.append(&delta_to_record(delta, engine.epoch()))?;
        self.since_checkpoint += 1;
        if self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every {
            self.hand_over(engine, generation)?;
        }
        Ok(())
    }

    /// The writer's side of an automatic checkpoint: collect the earlier
    /// ones that have finished (failing if one failed), rotate so that
    /// every later record lands in a segment this checkpoint keeps, and
    /// hand the database over — waiting, while two checkpoints are
    /// unfinished, until the checkpointer takes the queued one.
    fn hand_over(&mut self, engine: &Engine, generation: u64) -> io::Result<()> {
        self.collect(false)?;
        let keep_from_seq = self.wal.rotate()?;
        let checkpointer = match &mut self.checkpointer {
            Some(checkpointer) => checkpointer,
            none => none.insert(Checkpointer::spawn(
                self.wal.reopen_storage()?,
                Arc::clone(&self.poisoned),
            )?),
        };
        let job = Job {
            epoch: engine.epoch(),
            generation,
            db: engine.db().clone(),
            keep_from_seq,
        };
        checkpointer
            .jobs
            .send(job)
            .map_err(|_| checkpointer_stopped())?;
        checkpointer.outstanding += 1;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Collects the results of the checkpoints that have finished — of
    /// every outstanding one, waiting for them, when `wait` — and counts
    /// each written one in the log's stats. Returns the first error; a
    /// failed checkpoint has already poisoned the write path.
    fn collect(&mut self, wait: bool) -> io::Result<()> {
        let Some(checkpointer) = &mut self.checkpointer else {
            return Ok(());
        };
        let mut failed = None;
        while checkpointer.outstanding > 0 {
            let received = if wait {
                checkpointer.done.recv().ok()
            } else {
                match checkpointer.done.try_recv() {
                    Err(mpsc::TryRecvError::Empty) => break,
                    received => received.ok(),
                }
            };
            checkpointer.outstanding -= 1;
            match received {
                Some((keep_from_seq, Ok(()))) => self.wal.checkpoint_written(keep_from_seq),
                Some((_, Err(e))) => {
                    failed.get_or_insert(e);
                }
                None => {
                    failed.get_or_insert_with(checkpointer_stopped);
                }
            }
        }
        match failed {
            None => Ok(()),
            Some(e) => {
                self.poisoned.store(true, Ordering::Release);
                Err(e)
            }
        }
    }

    /// Waits for every outstanding checkpoint; see [`DurableState::collect`].
    fn settle(&mut self) -> io::Result<()> {
        self.collect(true)
    }

    /// Serializes the engine's database and checkpoints the log at its
    /// epoch, under the primary generation currently being served — after
    /// every outstanding checkpoint, and before returning.
    pub(crate) fn checkpoint(&mut self, engine: &Engine, generation: u64) -> io::Result<()> {
        self.settle()?;
        self.wal
            .checkpoint(engine.epoch(), generation, &codec::encode(engine.db()))?;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// The log's counters, every outstanding checkpoint included. (A
    /// failed one is not counted; the poison flag reports it.)
    pub(crate) fn stats(&mut self) -> WalStats {
        let _ = self.settle();
        self.wal.stats()
    }

    /// Read-only view of the live log tail, for replication catch-up,
    /// read once no checkpoint is removing files under it.
    pub(crate) fn tail(&mut self) -> io::Result<(Option<qld_wal::Checkpoint>, Vec<WalRecord>)> {
        let _ = self.settle();
        self.wal.tail()
    }
}

impl Drop for DurableState {
    /// The outstanding checkpoints finish (or fail — the poison flag
    /// records it) before the log goes away, and so does the thread.
    fn drop(&mut self) {
        let _ = self.settle();
        if let Some(Checkpointer { jobs, thread, .. }) = self.checkpointer.take() {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

fn durability_err(e: io::Error) -> EngineError {
    EngineError::Durability(e.to_string())
}

/// Serializes a changing delta as the storage-neutral WAL record for the
/// epoch it produced. Shared with the replication hooks in
/// `concurrent.rs` — the feed streams exactly these records.
pub(crate) fn delta_to_record(delta: &Delta, epoch: u64) -> WalRecord {
    WalRecord {
        epoch,
        facts: delta
            .facts
            .iter()
            .map(|(p, args)| (p.0, args.iter().map(|c| c.0).collect()))
            .collect(),
        ne_pairs: delta.ne_pairs.iter().map(|(a, b)| (a.0, b.0)).collect(),
    }
}

/// The inverse of [`delta_to_record`], for replay and replication.
pub(crate) fn record_to_delta(record: &WalRecord) -> Delta {
    Delta {
        facts: record
            .facts
            .iter()
            .map(|(p, args)| {
                (
                    PredId(*p),
                    args.iter().map(|c| ConstId(*c)).collect::<Vec<_>>().into(),
                )
            })
            .collect(),
        ne_pairs: record
            .ne_pairs
            .iter()
            .map(|(a, b)| (ConstId(*a), ConstId(*b)))
            .collect(),
    }
}

impl SharedEngine {
    /// Wraps an engine for concurrent serving **with durability**: opens
    /// the WAL in `storage` (which must not already hold log state — use
    /// [`SharedEngine::recover_with`] after a crash), writes a seed
    /// checkpoint of the engine's current database, and logs every
    /// subsequent changing delta before publishing it.
    pub fn durable(
        engine: Engine,
        storage: Box<dyn qld_wal::Storage>,
        config: DurabilityConfig,
    ) -> Result<SharedEngine, EngineError> {
        let (mut wal, recovery) = Wal::open(storage, config.wal).map_err(durability_err)?;
        if recovery.checkpoint.is_some() || !recovery.records.is_empty() {
            return Err(EngineError::Durability(
                "WAL directory already holds state; recover from it instead of seeding a new log"
                    .to_string(),
            ));
        }
        // Seed checkpoint: the directory is self-contained from now on —
        // recovery never needs the original database file. A fresh
        // primary starts at generation 1 (generation 0 is reserved for
        // legacy checkpoints written before fencing existed).
        wal.checkpoint(engine.epoch(), 1, &codec::encode(engine.db()))
            .map_err(durability_err)?;
        let state = DurableState::new(wal, config.checkpoint_every);
        Ok(SharedEngine::with_wal(engine, state, 1))
    }

    /// Rebuilds a durable engine from whatever the log holds: the newest
    /// valid checkpoint's database (handed to `build` so the caller
    /// configures semantics/parallelism/cache as usual), the checkpoint
    /// epoch restored, and every surviving record replayed through the
    /// ordinary [`Engine::apply`] path. Returns the serving engine (the
    /// WAL stays attached and continues at the log tail) and a
    /// [`RecoveryReport`].
    ///
    /// Every replayed record must land on exactly the epoch it was
    /// logged at — a mismatch means the log does not describe a delta
    /// history of this database and recovery refuses to guess.
    pub fn recover_with<F>(
        storage: Box<dyn qld_wal::Storage>,
        config: DurabilityConfig,
        build: F,
    ) -> Result<(SharedEngine, RecoveryReport), EngineError>
    where
        F: FnOnce(CwDatabase) -> Engine,
    {
        let (wal, recovery) = Wal::open(storage, config.wal).map_err(durability_err)?;
        let checkpoint = recovery.checkpoint.ok_or_else(|| {
            EngineError::Durability(
                "no valid checkpoint in the WAL directory (not a WAL, or its seed \
                 checkpoint was destroyed)"
                    .to_string(),
            )
        })?;
        let db = codec::decode(&checkpoint.payload)
            .map_err(|e| EngineError::Durability(format!("checkpoint database invalid: {e}")))?;
        let mut engine = build(db);
        engine.set_epoch(checkpoint.epoch);
        for record in &recovery.records {
            let report = engine.apply(&record_to_delta(record))?;
            if report.epoch != record.epoch {
                return Err(EngineError::Durability(format!(
                    "replay diverged: record logged at epoch {} landed on epoch {}",
                    record.epoch, report.epoch
                )));
            }
        }
        let report = RecoveryReport {
            checkpoint_epoch: checkpoint.epoch,
            records_replayed: recovery.records.len() as u64,
            records_truncated: recovery.records_truncated,
            bytes_truncated: recovery.bytes_truncated,
            epoch: engine.epoch(),
        };
        let state = DurableState::new(wal, config.checkpoint_every);
        // Resume under the generation the checkpoint was written at;
        // legacy pre-fencing checkpoints (generation 0) resume as 1.
        let generation = checkpoint.generation.max(1);
        Ok((SharedEngine::with_wal(engine, state, generation), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::Semantics;
    use qld_logic::Vocabulary;
    use qld_wal::{has_state, FaultPlan, FaultyStorage, FsyncPolicy, MemStorage};
    use std::ops::Range;
    use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

    fn small_db() -> CwDatabase {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b", "c"]).unwrap();
        voc.add_pred("P", 1).unwrap();
        voc.add_pred("R", 2).unwrap();
        CwDatabase::builder(voc).build().unwrap()
    }

    fn ids(shared: &SharedEngine) -> (PredId, PredId, Vec<ConstId>) {
        let snap = shared.snapshot();
        let voc = snap.engine().db().voc();
        (
            voc.pred_id("P").unwrap(),
            voc.pred_id("R").unwrap(),
            ["a", "b", "c"]
                .iter()
                .map(|c| voc.const_id(c).unwrap())
                .collect(),
        )
    }

    #[test]
    fn a_log_with_a_text_checkpoint_recovers() {
        // Seed the log the way builds before the binary codec did: the
        // checkpoint payload is `.qld` text.
        let db = small_db();
        let mem = MemStorage::new();
        let (mut wal, _) = Wal::open(Box::new(mem.clone()), WalConfig::default()).unwrap();
        wal.checkpoint(0, 1, qld_core::textio::to_text(&db).as_bytes())
            .unwrap();
        let mut solo = Engine::new(db);
        let (p, r) = (PredId(0), PredId(1));
        for delta in [
            Delta::new().insert_fact(p, &[ConstId(2)]),
            Delta::new().insert_fact(r, &[ConstId(0), ConstId(1)]),
            Delta::new().assert_ne(ConstId(1), ConstId(2)),
        ] {
            let report = solo.apply(&delta).unwrap();
            wal.append(&delta_to_record(&delta, report.epoch)).unwrap();
        }
        drop(wal);

        let recover = || {
            SharedEngine::recover_with(
                Box::new(mem.clone()),
                DurabilityConfig::default(),
                Engine::new,
            )
            .unwrap()
        };
        let (recovered, report) = recover();
        assert_eq!((report.checkpoint_epoch, report.epoch), (0, 3));
        assert_eq!(recovered.epoch(), solo.epoch());
        let db = recovered.snapshot().engine().db().clone();
        assert_eq!(&db, solo.db());
        assert_eq!(
            qld_core::textio::to_text(&db),
            qld_core::textio::to_text(solo.db())
        );
        // Its next checkpoint is binary, and recovers to the same state.
        recovered.checkpoint_now().unwrap();
        drop(recovered);
        let (again, report) = recover();
        assert_eq!((report.checkpoint_epoch, report.records_replayed), (3, 0));
        assert_eq!(again.snapshot().engine().db(), solo.db());
    }

    #[test]
    fn checkpoint_decoders_never_panic_on_mutated_bytes() {
        // A seeded mutation fuzz of the two decoders recovery runs on the
        // bytes it reads: `Checkpoint::decode`, then `codec::decode` of
        // its payload. Flips, truncations, extensions and overwritten
        // words must give an error (`None`), never a panic, and whatever
        // is accepted must survive its own re-encoding.
        let db = qld_core::textio::from_text(
            "const a b c d\npred P/1 R/2 T/3 F/0 E/2\n\
             fact P(a)\nfact P(c)\nfact R(a, b)\nfact R(d, a)\nfact T(a, b, c)\nfact F()\n\
             unique a b\nunique c d\nunique a d\n",
        )
        .unwrap();
        let payload = codec::encode(&db);
        let checkpoint = qld_wal::Checkpoint {
            epoch: 9,
            generation: 2,
            payload: payload.clone(),
        }
        .encode();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound.max(1) as u64) as usize
        };
        let (mut accepted, mut refused) = (0u32, 0u32);
        for round in 0..20_000 {
            let source = if round % 4 == 0 {
                &checkpoint
            } else {
                &payload
            };
            let mut bytes = source.clone();
            for _ in 0..1 + next(3) {
                match next(4) {
                    0 => {
                        let at = next(bytes.len());
                        if let Some(b) = bytes.get_mut(at) {
                            *b ^= 1 + next(255) as u8;
                        }
                    }
                    1 => bytes.truncate(next(bytes.len() + 1)),
                    2 => bytes.extend((0..1 + next(8)).map(|_| next(256) as u8)),
                    _ => {
                        // A word overwritten with a small or a huge value
                        // reaches the counts and ids behind the lengths.
                        let at = next(bytes.len().saturating_sub(3));
                        let word = [0, 1, 2, 7, u32::MAX, 1 << 31][next(6)].to_le_bytes();
                        if let Some(slot) = bytes.get_mut(at..at + 4) {
                            slot.copy_from_slice(&word);
                        }
                    }
                }
            }
            let payload = if round % 4 == 0 {
                match qld_wal::Checkpoint::decode(&bytes) {
                    Some(ckpt) => {
                        assert_eq!(
                            qld_wal::Checkpoint::decode(&ckpt.encode()),
                            Some(ckpt.clone())
                        );
                        ckpt.payload
                    }
                    None => {
                        refused += 1;
                        continue;
                    }
                }
            } else {
                bytes
            };
            match codec::decode(&payload) {
                Ok(db) => {
                    accepted += 1;
                    assert_eq!(codec::decode(&codec::encode(&db)), Ok(db));
                }
                Err(_) => refused += 1,
            }
        }
        assert!(
            accepted > 100 && refused > 10_000,
            "{accepted} accepted, {refused} refused"
        );
    }

    #[test]
    fn record_conversion_round_trips() {
        let delta = Delta::new()
            .insert_fact(PredId(2), &[ConstId(0), ConstId(1)])
            .assert_ne(ConstId(0), ConstId(2));
        let record = delta_to_record(&delta, 17);
        assert_eq!(record.epoch, 17);
        let back = record_to_delta(&record);
        assert_eq!(back.facts, delta.facts);
        assert_eq!(back.ne_pairs, delta.ne_pairs);
    }

    #[test]
    fn durable_engine_logs_and_recovers_identically() {
        let mem = MemStorage::new();
        let shared = SharedEngine::durable(
            Engine::new(small_db()),
            Box::new(mem.clone()),
            DurabilityConfig::default(),
        )
        .unwrap();
        let (p, r, c) = ids(&shared);
        shared.apply(&Delta::new().insert_fact(p, &[c[0]])).unwrap();
        shared
            .apply(&Delta::new().insert_fact(r, &[c[0], c[1]]))
            .unwrap();
        shared.apply(&Delta::new().assert_ne(c[0], c[2])).unwrap();
        // Duplicates are not logged.
        shared.apply(&Delta::new().insert_fact(p, &[c[0]])).unwrap();
        assert_eq!(shared.epoch(), 3);
        let stats = shared.wal_stats().unwrap();
        assert_eq!(stats.records_appended, 3);
        assert_eq!(stats.checkpoints, 1, "seed checkpoint only");
        assert!(stats.fsyncs >= 3, "Always syncs per record");
        drop(shared);

        let (recovered, report) = SharedEngine::recover_with(
            Box::new(mem.clone()),
            DurabilityConfig::default(),
            Engine::new,
        )
        .unwrap();
        assert_eq!(report.checkpoint_epoch, 0);
        assert_eq!(report.records_replayed, 3);
        assert_eq!(report.epoch, 3);
        assert_eq!(recovered.epoch(), 3);
        let line = report.to_string();
        assert!(line.contains("recovered epoch 3"), "{line}");

        // The recovered engine answers like the original across
        // semantics.
        let mut session = recovered.session();
        for (text, semantics) in [
            ("(x) . P(x)", Semantics::Auto),
            ("(x) . !P(x)", Semantics::Exact),
            ("(x, y) . R(x, y)", Semantics::Possible),
            ("(x) . x != a", Semantics::Approx),
        ] {
            let q = session.prepare_text(text).unwrap();
            let ans = session.execute_as(&q, semantics).unwrap();
            assert_eq!(ans.evidence().epoch, 3, "{text}");
        }
        // And it keeps logging: a fourth delta lands in the same WAL.
        let (p, _, c) = ids(&recovered);
        recovered
            .apply(&Delta::new().insert_fact(p, &[c[1]]))
            .unwrap();
        assert_eq!(recovered.epoch(), 4);
        drop(recovered);
        let (_, report) =
            SharedEngine::recover_with(Box::new(mem), DurabilityConfig::default(), Engine::new)
                .unwrap();
        assert_eq!(report.epoch, 4);
        assert_eq!(report.records_replayed, 4);
    }

    #[test]
    fn automatic_checkpoints_bound_replay() {
        let mem = MemStorage::new();
        let config = DurabilityConfig {
            checkpoint_every: 2,
            ..DurabilityConfig::default()
        };
        let shared =
            SharedEngine::durable(Engine::new(small_db()), Box::new(mem.clone()), config).unwrap();
        let (p, r, c) = ids(&shared);
        shared.apply(&Delta::new().insert_fact(p, &[c[0]])).unwrap();
        shared.apply(&Delta::new().insert_fact(p, &[c[1]])).unwrap();
        shared.apply(&Delta::new().insert_fact(p, &[c[2]])).unwrap();
        let stats = shared.wal_stats().unwrap();
        assert_eq!(stats.checkpoints, 2, "seed + one automatic");
        drop(shared);

        let (recovered, report) =
            SharedEngine::recover_with(Box::new(mem), config, Engine::new).unwrap();
        assert_eq!(report.checkpoint_epoch, 2);
        assert_eq!(report.records_replayed, 1, "only the post-checkpoint tail");
        assert_eq!(recovered.epoch(), 3);
        // The checkpointed database carries the first two facts.
        let mut session = recovered.session();
        let q = session.prepare_text("(x) . P(x)").unwrap();
        assert_eq!(session.execute(&q).unwrap().len(), 3);
        let _ = r;
    }

    #[test]
    fn durable_refuses_a_dirty_directory_and_recover_refuses_an_empty_one() {
        let mem = MemStorage::new();
        let shared = SharedEngine::durable(
            Engine::new(small_db()),
            Box::new(mem.clone()),
            DurabilityConfig::default(),
        )
        .unwrap();
        drop(shared);
        let err = SharedEngine::durable(
            Engine::new(small_db()),
            Box::new(mem.clone()),
            DurabilityConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Durability(_)));
        assert!(err.to_string().contains("already holds state"), "{err}");

        let err = SharedEngine::recover_with(
            Box::new(MemStorage::new()),
            DurabilityConfig::default(),
            Engine::new,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no valid checkpoint"), "{err}");
    }

    #[test]
    fn torn_seed_checkpoint_reseeds_instead_of_wedging() {
        // Crash in the middle of the very first (seed) checkpoint
        // write: the directory holds a segment header and a torn ckpt
        // file. That is not recoverable state — `has_state` must report
        // the directory as empty so the serve front-end re-seeds it,
        // rather than taking the recover path and refusing to start
        // until an operator wipes the directory by hand.
        let mem = MemStorage::new();
        let faulty = FaultyStorage::new(mem.clone(), FaultPlan::crash_after_bytes(20));
        let err = SharedEngine::durable(
            Engine::new(small_db()),
            Box::new(faulty),
            DurabilityConfig::default(),
        );
        assert!(err.is_err(), "the injected crash fails the seed");
        assert!(
            mem.list().unwrap().iter().any(|n| n.ends_with(".ck")),
            "a torn checkpoint file is left behind"
        );
        assert!(!has_state(&mem).unwrap(), "torn seed is not state");

        // Seeding over the debris succeeds and produces a working log.
        let shared = SharedEngine::durable(
            Engine::new(small_db()),
            Box::new(mem.clone()),
            DurabilityConfig::default(),
        )
        .unwrap();
        let (p, _, c) = ids(&shared);
        shared.apply(&Delta::new().insert_fact(p, &[c[0]])).unwrap();
        drop(shared);
        let (recovered, report) =
            SharedEngine::recover_with(Box::new(mem), DurabilityConfig::default(), Engine::new)
                .unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(recovered.epoch(), 1);
    }

    #[test]
    fn wal_append_failure_fails_apply_without_publishing() {
        // Seed a clean WAL directory, then reopen it through a faulty
        // storage that dies on the very first append. Recovery after a
        // clean checkpoint appends nothing, so the crash lands exactly on
        // the first logged delta.
        let mem = MemStorage::new();
        let shared = SharedEngine::durable(
            Engine::new(small_db()),
            Box::new(mem.clone()),
            DurabilityConfig::default(),
        )
        .unwrap();
        drop(shared);
        let faulty = FaultyStorage::new(mem.clone(), FaultPlan::crash_after_bytes(0));
        let (shared, _) =
            SharedEngine::recover_with(Box::new(faulty), DurabilityConfig::default(), Engine::new)
                .unwrap();
        let (p, _, c) = ids(&shared);
        let err = shared
            .apply(&Delta::new().insert_fact(p, &[c[0]]))
            .unwrap_err();
        assert!(matches!(err, EngineError::Durability(_)), "{err}");
        // Log-before-publish: the failed delta was never published, and
        // the write path is poisoned from here on.
        assert_eq!(shared.epoch(), 0);
        assert!(shared.wal_poisoned());
        // And recovery of the surviving bytes sees the seed state only.
        let (recovered, report) =
            SharedEngine::recover_with(Box::new(mem), DurabilityConfig::default(), Engine::new)
                .unwrap();
        assert_eq!(report.records_replayed, 0);
        assert_eq!(recovered.epoch(), 0);
    }

    #[test]
    fn transient_wal_failure_poisons_all_subsequent_writes() {
        // Seed a clean WAL, then reopen it through a storage that fails
        // exactly one append *transiently* — the medium recovers, think
        // ENOSPC. The failed apply leaves the writer engine one delta
        // ahead of the log; were a later apply allowed to proceed, it
        // would log a record with a gapped epoch and recovery would
        // refuse the whole tail ("replay diverged"), losing every acked
        // write since the checkpoint. The poison flag forbids it.
        let mem = MemStorage::new();
        let shared = SharedEngine::durable(
            Engine::new(small_db()),
            Box::new(mem.clone()),
            DurabilityConfig::default(),
        )
        .unwrap();
        drop(shared);
        let faulty = FaultyStorage::new(mem.clone(), FaultPlan::fail_append(1));
        let (shared, _) =
            SharedEngine::recover_with(Box::new(faulty), DurabilityConfig::default(), Engine::new)
                .unwrap();
        let (p, _, c) = ids(&shared);
        assert!(!shared.wal_poisoned());
        let err = shared
            .apply(&Delta::new().insert_fact(p, &[c[0]]))
            .unwrap_err();
        assert!(matches!(err, EngineError::Durability(_)), "{err}");
        assert!(shared.wal_poisoned());

        // The storage is healthy again, but the engine must never trust
        // it: the next apply fails fast, before touching the writer…
        let err = shared
            .apply(&Delta::new().insert_fact(p, &[c[1]]))
            .unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // …and so does an explicit checkpoint (it would persist the
        // unlogged delta under a gapped epoch).
        let err = shared.checkpoint_now().unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // Reads keep working at the last durable epoch.
        assert_eq!(shared.epoch(), 0);
        let mut session = shared.session();
        let q = session.prepare_text("(x) . P(x)").unwrap();
        assert_eq!(session.execute(&q).unwrap().evidence().epoch, 0);
        drop(shared);

        // Recovery sees exactly the durable prefix: no gapped record,
        // no divergence, nothing acked lost (nothing was acked).
        let (recovered, report) =
            SharedEngine::recover_with(Box::new(mem), DurabilityConfig::default(), Engine::new)
                .unwrap();
        assert_eq!(report.records_replayed, 0);
        assert_eq!(recovered.epoch(), 0);
        assert!(!recovered.wal_poisoned());
    }

    #[test]
    fn fsync_policies_flow_through_the_config() {
        let mem = MemStorage::new();
        let config = DurabilityConfig {
            wal: WalConfig {
                fsync: FsyncPolicy::Never,
                ..WalConfig::default()
            },
            ..DurabilityConfig::default()
        };
        let shared =
            SharedEngine::durable(Engine::new(small_db()), Box::new(mem.clone()), config).unwrap();
        let (p, _, c) = ids(&shared);
        let before = shared.wal_stats().unwrap().fsyncs;
        shared.apply(&Delta::new().insert_fact(p, &[c[0]])).unwrap();
        shared.apply(&Delta::new().insert_fact(p, &[c[1]])).unwrap();
        assert_eq!(
            shared.wal_stats().unwrap().fsyncs,
            before,
            "Never policy issues no per-record syncs"
        );
    }

    /// A checkpoint every two writes, no per-record syncs: every sync
    /// and remove after recovery is the background checkpointer's.
    fn every_two() -> DurabilityConfig {
        DurabilityConfig {
            wal: WalConfig {
                fsync: FsyncPolicy::Never,
                ..WalConfig::default()
            },
            checkpoint_every: 2,
        }
    }

    /// Seeds a log on a fresh `MemStorage` and recovers it through a
    /// `FaultyStorage` with `plan` — as a follower when `follower` — then
    /// writes twice, which hands one checkpoint to the checkpointer.
    fn two_writes_through(plan: FaultPlan, follower: bool) -> (MemStorage, SharedEngine) {
        let mem = MemStorage::new();
        drop(
            SharedEngine::durable(Engine::new(small_db()), Box::new(mem.clone()), every_two())
                .unwrap(),
        );
        let faulty = FaultyStorage::new(mem.clone(), plan);
        let (shared, _) =
            SharedEngine::recover_with(Box::new(faulty), every_two(), Engine::new).unwrap();
        shared.set_read_only(follower);
        let (p, _, c) = ids(&shared);
        for (epoch, arg) in [(1, c[0]), (2, c[1])] {
            let delta = Delta::new().insert_fact(p, &[arg]);
            if follower {
                assert_eq!(
                    shared
                        .apply_replica(&delta_to_record(&delta, epoch))
                        .unwrap(),
                    epoch
                );
            } else {
                shared.apply(&delta).unwrap();
            }
        }
        (mem, shared)
    }

    #[test]
    fn background_checkpoint_failures_poison_the_write_path() {
        // The checkpointer's three syncs (file, directory, directory)
        // and its two removes (the seed checkpoint, the old segment).
        let plans = [
            FaultPlan::crash_on_sync(1),
            FaultPlan::crash_on_sync(2),
            FaultPlan::crash_on_sync(3),
            FaultPlan::crash_on_remove(1),
            FaultPlan::crash_on_remove(2),
        ];
        for plan in plans {
            for next in ["apply", "checkpoint_now", "promote"] {
                let (mem, shared) = two_writes_through(plan, next == "promote");
                let err = match next {
                    "apply" => {
                        // Waiting for the checkpointer is what makes the
                        // failure visible before the next write.
                        let stats = shared.wal_stats().unwrap();
                        assert_eq!(
                            stats.checkpoints, 0,
                            "{plan:?}: a failed one is not counted"
                        );
                        assert!(shared.wal_poisoned(), "{plan:?}");
                        let (p, _, c) = ids(&shared);
                        shared
                            .apply(&Delta::new().insert_fact(p, &[c[2]]))
                            .unwrap_err()
                    }
                    "checkpoint_now" => shared.checkpoint_now().unwrap_err(),
                    _ => shared.promote().unwrap_err(),
                };
                assert!(
                    matches!(err, EngineError::Durability(_)),
                    "{plan:?} {next}: {err}"
                );
                assert!(shared.wal_poisoned(), "{plan:?} {next}");
                // Reads keep serving the last epoch.
                let mut session = shared.session();
                let q = session.prepare_text("(x) . P(x)").unwrap();
                let answers = session.execute(&q).unwrap();
                assert_eq!((answers.len(), answers.evidence().epoch), (2, 2));
                drop(shared);

                // Both records were appended before the checkpoint was
                // handed over, and the crash kept every byte.
                let (recovered, report) =
                    SharedEngine::recover_with(Box::new(mem), every_two(), Engine::new).unwrap();
                assert_eq!(report.epoch, 2, "{plan:?} {next}");
                assert!(!recovered.wal_poisoned());
            }
        }
    }

    #[test]
    fn dropping_an_engine_whose_checkpoint_fails_recovers_a_prefix() {
        for plan in [FaultPlan::crash_on_sync(1), FaultPlan::crash_on_remove(2)] {
            let (mem, shared) = two_writes_through(plan, false);
            drop(shared); // the in-flight checkpoint fails on the way out
            let (recovered, report) =
                SharedEngine::recover_with(Box::new(mem), every_two(), Engine::new).unwrap();
            assert_eq!(report.epoch, 2, "{plan:?}");
            assert_eq!(recovered.snapshot().engine().db().num_facts(), 2);
        }
    }

    /// A `MemStorage` whose reads and directory syncs take a
    /// millisecond, so a checkpoint is still in flight when the writer's
    /// next call arrives, and a tail read takes long enough for it to
    /// remove files under it.
    #[derive(Debug, Clone)]
    struct SlowStorage(MemStorage);

    impl Storage for SlowStorage {
        fn list(&self) -> io::Result<Vec<String>> {
            self.0.list()
        }
        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            thread::sleep(std::time::Duration::from_millis(1));
            self.0.read(name)
        }
        fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
            self.0.append(name, data)
        }
        fn sync(&mut self, name: &str) -> io::Result<()> {
            self.0.sync(name)
        }
        fn sync_dir(&mut self) -> io::Result<()> {
            thread::sleep(std::time::Duration::from_millis(1));
            Ok(())
        }
        fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
            self.0.truncate(name, len)
        }
        fn remove(&mut self, name: &str) -> io::Result<()> {
            self.0.remove(name)
        }
        fn reopen(&self) -> io::Result<Box<dyn Storage>> {
            Ok(Box::new(self.clone()))
        }
    }

    #[test]
    fn a_tail_read_waits_for_the_checkpoint_in_flight() {
        let shared = SharedEngine::durable(
            Engine::new(small_db()),
            Box::new(SlowStorage(MemStorage::new())),
            every_two(),
        )
        .unwrap();
        let (p, r, c) = ids(&shared);
        let mut deltas = Vec::new();
        for &x in &c {
            deltas.push(Delta::new().insert_fact(p, &[x]));
            for &y in &c {
                deltas.push(Delta::new().insert_fact(r, &[x, y]));
            }
        }
        for delta in &deltas {
            shared.apply(delta).unwrap();
            // Right after a cadence write the checkpoint is in flight:
            // the tail read must neither fail on a file it removed nor
            // miss a record.
            let (from, records) = shared
                .wal_tail()
                .expect("a tail read never races a removal")
                .unwrap();
            let epochs: Vec<u64> = records.iter().map(|r| r.epoch).collect();
            assert_eq!(epochs, (from + 1..=shared.epoch()).collect::<Vec<_>>());
        }
        assert_eq!(
            shared.wal_stats().unwrap().checkpoints,
            1 + deltas.len() as u64 / 2
        );
    }

    /// A storage that holds the checkpointer at a gate the test opens:
    /// the first `hold` operation (`"append"` or `"sync"`) on each new
    /// checkpoint file is the nth arrival, and it runs once the test has
    /// released n. Every operation asked of it is logged.
    #[derive(Debug, Clone)]
    struct Gated<S> {
        inner: S,
        hold: &'static str,
        gate: Arc<Gate>,
    }

    #[derive(Debug, Default)]
    struct Gate {
        state: Mutex<GateState>,
        changed: Condvar,
    }

    #[derive(Debug, Default)]
    struct GateState {
        released: usize,
        /// The checkpoint files that reached the gate, in order.
        arrived: Vec<String>,
        /// `(operation, file, succeeded)` for every call, in order.
        ops: Vec<(&'static str, String, bool)>,
    }

    /// An append to a log segment: a record, or the header a rotation
    /// writes.
    fn segment_append(op: &str, name: &str) -> bool {
        op == "append" && name.ends_with(".seg")
    }

    impl GateState {
        fn count(&self, matches: fn(&str, &str) -> bool) -> usize {
            let ops = self.ops.iter();
            ops.filter(|(op, name, _)| matches(op, name)).count()
        }
    }

    impl Gate {
        fn lock(&self) -> MutexGuard<'_, GateState> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn update(&self, change: impl FnOnce(&mut GateState)) {
            change(&mut self.lock());
            self.changed.notify_all();
        }

        fn wait_until(&self, done: impl Fn(&GateState) -> bool) -> MutexGuard<'_, GateState> {
            let mut state = self.lock();
            while !done(&state) {
                state = self
                    .changed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state
        }

        fn release(&self, n: usize) {
            self.update(|state| state.released = state.released.max(n));
        }
    }

    impl<S> Gated<S> {
        fn arrive(&self, op: &'static str, name: &str) {
            if op != self.hold || !name.ends_with(".ck") {
                return;
            }
            let mut nth = 0;
            self.gate.update(|state| {
                if !state.arrived.iter().any(|a| a == name) {
                    state.arrived.push(name.to_string());
                    nth = state.arrived.len();
                }
            });
            drop(self.gate.wait_until(|state| state.released >= nth));
        }

        fn logged<T>(&self, op: &'static str, name: &str, result: io::Result<T>) -> io::Result<T> {
            let ok = result.is_ok();
            self.gate
                .update(|state| state.ops.push((op, name.to_string(), ok)));
            result
        }
    }

    impl<S: Storage + Clone + 'static> Storage for Gated<S> {
        fn list(&self) -> io::Result<Vec<String>> {
            self.logged("list", "", self.inner.list())
        }
        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            self.logged("read", name, self.inner.read(name))
        }
        fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
            self.arrive("append", name);
            let result = self.inner.append(name, data);
            self.logged("append", name, result)
        }
        fn sync(&mut self, name: &str) -> io::Result<()> {
            self.arrive("sync", name);
            let result = self.inner.sync(name);
            self.logged("sync", name, result)
        }
        fn sync_dir(&mut self) -> io::Result<()> {
            let result = self.inner.sync_dir();
            self.logged("sync_dir", "", result)
        }
        fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
            let result = self.inner.truncate(name, len);
            self.logged("truncate", name, result)
        }
        fn remove(&mut self, name: &str) -> io::Result<()> {
            let result = self.inner.remove(name);
            self.logged("remove", name, result)
        }
        fn reopen(&self) -> io::Result<Box<dyn Storage>> {
            Ok(Box::new(self.clone()))
        }
    }

    /// A durable engine, with a checkpoint every two writes, over a
    /// [`Gated`] storage. Dropping it opens the gate before the engine
    /// goes, so a failing test does not hang on a held checkpoint.
    struct GatedLog {
        mem: MemStorage,
        gate: Arc<Gate>,
        shared: SharedEngine,
        /// Six changing deltas over [`small_db`].
        deltas: Vec<Delta>,
    }

    impl Drop for GatedLog {
        fn drop(&mut self) {
            self.gate.release(usize::MAX);
        }
    }

    impl GatedLog {
        /// Seeds a log on a fresh `MemStorage` and recovers it through a
        /// [`Gated`] wrapper of `wrap(storage)`.
        fn new<S: Storage + Clone + 'static>(
            wrap: impl FnOnce(MemStorage) -> S,
            hold: &'static str,
        ) -> GatedLog {
            let mem = MemStorage::new();
            drop(
                SharedEngine::durable(Engine::new(small_db()), Box::new(mem.clone()), every_two())
                    .unwrap(),
            );
            let gate = Arc::new(Gate::default());
            let gated = Gated {
                inner: wrap(mem.clone()),
                hold,
                gate: Arc::clone(&gate),
            };
            let (shared, _) =
                SharedEngine::recover_with(Box::new(gated), every_two(), Engine::new).unwrap();
            let (p, r, c) = ids(&shared);
            let unary = c.iter().map(|&x| Delta::new().insert_fact(p, &[x]));
            let binary = c.iter().map(|&y| Delta::new().insert_fact(r, &[c[0], y]));
            let deltas = unary.chain(binary).collect();
            GatedLog {
                mem,
                gate,
                shared,
                deltas,
            }
        }

        fn apply(&self, writes: Range<usize>) {
            for delta in &self.deltas[writes] {
                self.shared.apply(delta).unwrap();
            }
        }

        /// Writes 1 and 2, which hand over checkpoint 1, and waits until
        /// the checkpointer is held at the gate.
        fn hold_checkpoint_one(&self) {
            self.apply(0..2);
            drop(self.gate.wait_until(|state| state.arrived.len() == 1));
        }

        /// Starts write 6 on a thread of its own, and waits until its
        /// record is logged and the log rotated for checkpoint 3. Once the
        /// write returns, the thread reports its epoch and how many
        /// directory syncs the storage had done by then (two per finished
        /// checkpoint: the writer syncs none under `Never`).
        fn start_write_six(&self) -> (mpsc::Receiver<(u64, usize)>, thread::JoinHandle<()>) {
            let logged = self.gate.lock().count(segment_append);
            let (returned, rx) = mpsc::channel();
            let (shared, delta) = (self.shared.clone(), self.deltas[5].clone());
            let gate = Arc::clone(&self.gate);
            let writer = thread::spawn(move || {
                let epoch = shared.apply(&delta).unwrap().epoch;
                let dir_syncs = gate.lock().count(|op, _| op == "sync_dir");
                let _ = returned.send((epoch, dir_syncs));
            });
            drop(
                self.gate
                    .wait_until(|state| state.count(segment_append) == logged + 2),
            );
            (rx, writer)
        }

        /// A solo engine after the first `writes` deltas.
        fn solo(&self, writes: usize) -> Engine {
            let mut solo = Engine::new(small_db());
            for delta in &self.deltas[..writes] {
                solo.apply(delta).unwrap();
            }
            solo
        }
    }

    #[test]
    fn a_cadence_write_waits_only_when_two_checkpoints_are_outstanding() {
        // A write that did not wait would return before checkpoint 1
        // finished unless the test's release outran it: twenty rounds
        // make catching it all but certain.
        for round in 0..20 {
            let log = GatedLog::new(|mem| mem, "sync");
            // Writes 2 and 4 hand over checkpoints 1 and 2, and return
            // while checkpoint 1 is held at its file sync.
            log.hold_checkpoint_one();
            log.apply(2..5);
            // Write 6 hands over a third: its record is logged and the
            // log rotated, and it does not return while checkpoint 1 is
            // held.
            let (returned, writer) = log.start_write_six();
            let early = returned.try_recv();
            assert_eq!(early, Err(mpsc::TryRecvError::Empty), "round {round}");
            let arrived = log.gate.lock().arrived.len();
            assert_eq!(arrived, 1, "checkpoint 2 waits behind 1");
            log.gate.release(1);
            // It returned only once checkpoint 1 had finished (its second
            // directory sync).
            let (epoch, dir_syncs) = returned.recv().unwrap();
            assert_eq!(epoch, 6);
            assert!(
                dir_syncs >= 2,
                "round {round}: {dir_syncs} directory sync(s)"
            );
            writer.join().unwrap();
            log.gate.release(usize::MAX);
            assert_eq!(log.shared.wal_stats().unwrap().checkpoints, 3);
            assert!(!log.shared.wal_poisoned());
        }
    }

    #[test]
    fn a_failed_checkpoint_stops_the_checkpointer() {
        // Three jobs straight to the checkpointer: the first held at its
        // file sync, which crashes the storage, the second queued behind
        // it, the third sent once it is released.
        let mem = MemStorage::new();
        let gate = Arc::new(Gate::default());
        let storage = Gated {
            inner: FaultyStorage::new(mem.clone(), FaultPlan::crash_on_sync(1)),
            hold: "sync",
            gate: Arc::clone(&gate),
        };
        let poisoned = Arc::new(AtomicBool::new(false));
        let checkpointer = Checkpointer::spawn(Box::new(storage), Arc::clone(&poisoned)).unwrap();
        let send = |epoch, keep_from_seq| {
            let job = Job {
                epoch,
                generation: 1,
                db: small_db(),
                keep_from_seq,
            };
            checkpointer.jobs.send(job).unwrap();
        };
        send(2, 1);
        drop(gate.wait_until(|state| state.arrived.len() == 1));
        send(4, 2);
        gate.release(usize::MAX);
        send(6, 3);
        for keep_from_seq in 1..=3 {
            let (kept, result) = checkpointer.done.recv().unwrap();
            assert_eq!(kept, keep_from_seq, "results come back in order");
            assert!(result.is_err(), "job {keep_from_seq}");
        }
        assert!(poisoned.load(Ordering::Acquire));
        // Nothing after the crash: the storage is as the failed job left
        // it, its checkpoint file written and never synced.
        let ops = gate.lock().ops.clone();
        let crash = ops.iter().position(|(_, _, ok)| !ok).unwrap();
        assert_eq!(crash + 1, ops.len(), "{ops:?}");
        assert_eq!(ops[crash].0, "sync", "{ops:?}");
        assert_eq!(mem.list().unwrap(), ["ckpt-0000000000000002.ck"]);
        let Checkpointer { jobs, thread, .. } = checkpointer;
        drop(jobs);
        thread.join().unwrap();
    }

    #[test]
    fn a_failed_checkpoint_fails_the_one_queued_behind_it() {
        let log = GatedLog::new(
            |mem| FaultyStorage::new(mem, FaultPlan::crash_on_sync(1)),
            "sync",
        );
        log.hold_checkpoint_one();
        log.apply(2..4);
        log.gate.release(usize::MAX);
        // Neither checkpoint is counted, and after the crash the
        // checkpointer asked nothing more of the storage.
        assert_eq!(log.shared.wal_stats().unwrap().checkpoints, 0);
        assert!(log.shared.wal_poisoned());
        let ops = log.gate.lock().ops.clone();
        let crash = ops.iter().position(|(_, _, ok)| !ok).unwrap();
        assert_eq!(crash + 1, ops.len(), "{ops:?}");
        assert!(log.shared.apply(&log.deltas[4]).is_err());
        let (mem, solo) = (log.mem.clone(), log.solo(4));
        drop(log);

        let (recovered, report) =
            SharedEngine::recover_with(Box::new(mem), every_two(), Engine::new).unwrap();
        assert_eq!(report.epoch, 4);
        assert_eq!(recovered.snapshot().engine().db(), solo.db());
    }

    #[test]
    fn two_checkpoints_outstanding_at_a_crash_bound_replay_by_three_cadences() {
        // Checkpoint 1 is held before it writes a byte and checkpoint 2
        // waits behind it; write 6 is logged and waits for checkpoint 1.
        // The process dies there: the directory keeps what it holds.
        let log = GatedLog::new(|mem| mem, "append");
        log.hold_checkpoint_one();
        log.apply(2..5);
        let (returned, writer) = log.start_write_six();
        let crashed = MemStorage::new();
        for name in log.mem.list().unwrap() {
            let bytes = log.mem.read(&name).unwrap();
            crashed.clone().append(&name, &bytes).unwrap();
        }
        log.gate.release(usize::MAX);
        assert_eq!(returned.recv().map(|(epoch, _)| epoch), Ok(6));
        writer.join().unwrap();

        let (recovered, report) =
            SharedEngine::recover_with(Box::new(crashed), every_two(), Engine::new).unwrap();
        let every = every_two().checkpoint_every;
        assert_eq!((report.checkpoint_epoch, report.epoch), (0, 6));
        assert!(2 * every < report.records_replayed && report.records_replayed <= 3 * every);
        assert_eq!(recovered.snapshot().engine().db(), log.solo(6).db());
    }
}
