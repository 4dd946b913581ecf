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
//! writer waits for the previous checkpoint if it is still in flight (at
//! most one is), rotates the log to a fresh segment — every later record
//! lands in a segment the checkpoint keeps — and hands
//! `(epoch, generation, database, first kept segment)` to one background
//! checkpointer thread, then returns. The checkpointer encodes the
//! database and runs [`qld_wal::write_checkpoint`] (write + sync the
//! file, sync the directory, remove what the checkpoint supersedes, sync
//! the directory again) through a second handle on the same storage
//! ([`qld_wal::Storage::reopen`]). A failure there poisons the write path
//! exactly as a failed append does. The seed checkpoint,
//! [`SharedEngine::checkpoint_now`] and [`SharedEngine::promote`] wait
//! for the in-flight checkpoint and then write theirs synchronously;
//! [`SharedEngine::wal_stats`], [`SharedEngine::wal_tail`] and dropping
//! the engine wait for it too, so counters are exact and a tail read
//! never races a removal.
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
    /// logged, so recovery replays at most `2 × checkpoint_every`
    /// records after the newest durable checkpoint.
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
/// its own handle on the log's storage, reporting each result back.
#[derive(Debug)]
struct Checkpointer {
    jobs: mpsc::Sender<Job>,
    done: mpsc::Receiver<io::Result<()>>,
    thread: thread::JoinHandle<()>,
    /// The first kept segment of the checkpoint being written, if one is
    /// in flight (never more than one).
    in_flight: Option<u64>,
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
        let (jobs, inbox) = mpsc::channel::<Job>();
        let (outbox, done) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("qld-checkpointer".to_string())
            .spawn(move || {
                for job in inbox {
                    let payload = codec::encode(&job.db);
                    // Let go of the relations before the syncs: the writer
                    // has moved past them, and held they pin its memory.
                    drop(job.db);
                    let result = qld_wal::write_checkpoint(
                        &mut *storage,
                        job.epoch,
                        job.generation,
                        &payload,
                        job.keep_from_seq,
                    );
                    if result.is_err() {
                        poisoned.store(true, Ordering::Release);
                    }
                    if outbox.send(result).is_err() {
                        return;
                    }
                }
            })?;
        Ok(Checkpointer {
            jobs,
            done,
            thread,
            in_flight: None,
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

    /// The writer's side of an automatic checkpoint: wait for the
    /// previous one (failing if it failed), rotate so that every later
    /// record lands in a segment this checkpoint keeps, and hand the
    /// database over.
    fn hand_over(&mut self, engine: &Engine, generation: u64) -> io::Result<()> {
        self.settle()?;
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
        checkpointer.in_flight = Some(keep_from_seq);
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Waits for the in-flight checkpoint, if any, and counts it in the
    /// log's stats once it is written. Its error, if it failed, has
    /// already poisoned the write path.
    fn settle(&mut self) -> io::Result<()> {
        let Some(checkpointer) = &mut self.checkpointer else {
            return Ok(());
        };
        let Some(keep_from_seq) = checkpointer.in_flight.take() else {
            return Ok(());
        };
        let written = checkpointer
            .done
            .recv()
            .unwrap_or_else(|_| Err(checkpointer_stopped()));
        if let Err(e) = written {
            self.poisoned.store(true, Ordering::Release);
            return Err(e);
        }
        self.wal.checkpoint_written(keep_from_seq);
        Ok(())
    }

    /// Serializes the engine's database and checkpoints the log at its
    /// epoch, under the primary generation currently being served — after
    /// the in-flight checkpoint, and before returning.
    pub(crate) fn checkpoint(&mut self, engine: &Engine, generation: u64) -> io::Result<()> {
        self.settle()?;
        self.wal
            .checkpoint(engine.epoch(), generation, &codec::encode(engine.db()))?;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// The log's counters, the in-flight checkpoint included. (A failed
    /// one is not counted; the poison flag reports it.)
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
    /// The in-flight checkpoint finishes (or fails — the poison flag
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
}
