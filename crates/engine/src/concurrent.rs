//! Concurrent multi-session serving: one shared, `Send + Sync` engine
//! behind many reader sessions and a single delta-applying writer.
//!
//! The single-owner [`Engine`] is a session: reads take `&self`, but
//! [`Engine::apply`] takes `&mut self`, so one database cannot serve
//! concurrent clients while it evolves. [`SharedEngine`] closes that gap
//! with the classic snapshot-publish architecture:
//!
//! * the current database state lives in an immutable, epoch-stamped
//!   [`EngineSnapshot`] behind an `Arc`-swapped pointer;
//! * **readers** ([`SharedSession`]) grab the published `Arc` (a
//!   sub-microsecond pointer clone) and execute entirely against that
//!   snapshot — they never lock anything the writer holds during
//!   maintenance, never observe a half-applied delta, and the epoch
//!   stamped into every answer's [`Evidence`](crate::Evidence) names the
//!   exact database state that produced the tuples;
//! * the **writer** ([`SharedEngine::apply`]) serializes behind one
//!   mutex, applies each [`Delta`] to the master engine with the existing
//!   incremental maintenance, and publishes a fresh snapshot atomically —
//!   in-flight readers keep their old snapshot alive through their `Arc`
//!   and finish consistently at the old epoch;
//! * every snapshot shares the writer engine's **answer cache** — a read
//!   on a snapshot is [`Engine::execute_as`] on the engine frozen inside
//!   it, nothing else — so an answer whose footprint a delta does not
//!   touch is still a hit at the next epoch: the writer's
//!   [`Engine::apply`] widens or evicts each entry before the new
//!   snapshot is published, and an entry is served only at the epochs it
//!   was widened to.
//!
//! Epoch observation is monotone per session: the published epoch only
//! moves forward, and [`SharedSession`] asserts it never sees time run
//! backwards. The whole protocol is differential-tested in
//! `tests/concurrent_differential.rs`: every concurrent reader's answer
//! must be byte-identical (certificates included) to a solo engine
//! rebuilt from the database as it stood at the reader's observed epoch,
//! hits served across epochs included.

use crate::cache::SHARD_COUNT;
use crate::delta::{Delta, DeltaReport, DeltaStats};
use crate::durable::{delta_to_record, record_to_delta, DurableState};
use crate::error::EngineError;
use crate::evidence::{Answers, Semantics};
use crate::prepared::PreparedQuery;
use crate::session::Engine;
use qld_logic::Query;
use qld_wal::WalRecord;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Duration;

/// An immutable, epoch-stamped view of the database and all its derived
/// structures (`Ph₁`, `Ph₂`, `α_P`, `NE`), published atomically by the
/// writer and executed against by readers.
///
/// A snapshot is a full [`Engine`] frozen at one epoch: readers prepare
/// and execute queries on it with the complete single-owner feature set
/// (all four semantics, certificates, batching, budgets). Because nothing
/// ever mutates a published snapshot, readers need no locks during
/// evaluation — the `Arc` they hold keeps the snapshot alive even after
/// the writer publishes successors.
///
/// Successive snapshots share what the deltas between them did not touch:
/// the vocabulary, every untouched fact relation and the axiom list are
/// the same `Arc`ed parts of `CwDatabase` in all of them (see
/// [`Engine::clone`]), so keeping an old snapshot alive pins only the
/// relations that have been rewritten since. The derived structures are
/// per snapshot — built on its first read, dropped with it.
#[derive(Debug)]
pub struct EngineSnapshot {
    engine: Engine,
    epoch: u64,
}

impl EngineSnapshot {
    /// The database epoch this snapshot was frozen at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen engine. Reading a snapshot is calling this engine:
    /// its answer cache is the one the writer and every other snapshot of
    /// the same [`SharedEngine`] use, and it serves — and stamps — at
    /// this snapshot's epoch.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

/// Aggregate statistics of a [`SharedEngine`] (surfaced by the CLI's
/// concurrent mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedStats {
    /// The currently published epoch.
    pub epoch: u64,
    /// Reader sessions handed out so far.
    pub sessions_started: u64,
    /// Entries currently in the answer cache.
    pub cache_len: usize,
    /// Total answer-cache capacity.
    pub cache_capacity: usize,
    /// Cumulative delta counters of the master engine.
    pub deltas: DeltaStats,
    /// WAL counters, when this engine was built with
    /// [`SharedEngine::durable`] or
    /// [`SharedEngine::recover_with`](crate::SharedEngine::recover_with).
    pub wal: Option<qld_wal::WalStats>,
    /// Whether this engine is a read-only replication follower.
    pub read_only: bool,
    /// The primary generation (failover term) this engine serves under.
    pub generation: u64,
    /// Highest epoch the upstream primary has reported (followers only;
    /// `0` on a primary).
    pub source_epoch: u64,
    /// Replication feed connections currently attached (primaries only).
    pub followers: usize,
}

impl SharedStats {
    /// Replication lag in epochs: how far this follower's applied epoch
    /// trails the highest epoch its primary has reported. Always `0` on a
    /// primary (and on a follower that is fully caught up).
    pub fn replication_lag(&self) -> u64 {
        if self.read_only {
            self.source_epoch.saturating_sub(self.epoch)
        } else {
            0
        }
    }
}

/// A point-in-time picture of the snapshot-publish machinery itself:
/// which epoch is published, how the answer cache's shards are filling up,
/// and how far the published snapshot lags the writer (surfaced by `:stats`
/// both locally and over the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// The currently published epoch.
    pub epoch: u64,
    /// Entries currently in the answer cache.
    pub cache_entries: usize,
    /// Total answer-cache capacity.
    pub cache_capacity: usize,
    /// Shards holding at least one entry.
    pub shards_occupied: usize,
    /// Total shard count.
    pub shard_count: usize,
    /// Entries in the fullest shard (skew indicator).
    pub max_shard_len: usize,
    /// Deltas the writer has applied beyond the published snapshot.
    /// Non-zero only in the window between an `apply` mutating the master
    /// engine and the snapshot swap — sampling it concurrently with a
    /// writer can legitimately observe `1`.
    pub snapshot_age_deltas: u64,
}

impl std::fmt::Display for SnapshotStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {}, shared cache {}/{} answer(s) in {}/{} shard(s) (largest {}), \
             snapshot age {} delta(s)",
            self.epoch,
            self.cache_entries,
            self.cache_capacity,
            self.shards_occupied,
            self.shard_count,
            self.max_shard_len,
            self.snapshot_age_deltas
        )
    }
}

#[derive(Debug)]
struct SharedInner {
    /// The published snapshot. Readers hold the read lock only long
    /// enough to clone the `Arc`; the writer holds the write lock only
    /// long enough to store a new pointer — query evaluation itself never
    /// runs under either.
    published: RwLock<Arc<EngineSnapshot>>,
    /// The master engine the single writer maintains incrementally.
    /// Serializing `apply` calls behind this mutex *is* the single-writer
    /// discipline.
    writer: Mutex<Engine>,
    sessions: AtomicU64,
    /// The write-ahead log, when durability is attached. Locked only on
    /// the write path, nested inside the writer lock — readers never
    /// touch it.
    wal: Option<Mutex<DurableState>>,
    /// Set (never cleared) on the first WAL error. Once a record append
    /// or checkpoint fails, the writer engine may hold a delta the log
    /// does not — publishing anything after that, or appending a later
    /// record over a possibly torn frame, would break the
    /// log-before-publish guarantee. Every subsequent write therefore
    /// fails fast until the process restarts and recovers from the log.
    wal_poisoned: AtomicBool,
    /// Replication commit watchers (feed connections on a primary).
    /// Senders are registered under the writer lock by
    /// [`SharedEngine::subscribe_commits`] and notified under the same
    /// lock on every changing apply, so every subscriber sees a gap-free
    /// record stream starting exactly after its subscription snapshot.
    /// Senders whose receiver hung up are dropped on notify.
    watchers: Mutex<Vec<mpsc::Sender<WalRecord>>>,
    /// Whether this engine is a replication follower: the public
    /// [`SharedEngine::apply`] is refused with [`EngineError::ReadOnly`]
    /// (the replication stream mutates through
    /// [`SharedEngine::apply_replica`] instead). Cleared by
    /// [`SharedEngine::promote`].
    read_only: AtomicBool,
    /// The primary generation (failover term). Bumped by `promote`;
    /// stamped into WAL checkpoints so a recovered engine resumes under
    /// the generation it last served, and carried in the replication
    /// handshake to fence stale primaries.
    generation: AtomicU64,
    /// Replication feed connections currently attached (primary side).
    followers: AtomicUsize,
    /// Highest epoch the upstream primary has reported (follower side);
    /// `source_epoch - epoch` is the replication lag.
    source_epoch: AtomicU64,
}

/// A shareable, concurrently correct engine over one evolving database:
/// wait-free readers on immutable epoch snapshots, one writer publishing
/// [`Delta`]s atomically, and the engine's answer cache shared by all of
/// them.
///
/// `SharedEngine` is `Send + Sync + Clone` — clone it (an `Arc` bump)
/// into as many threads as you like; every clone sees the same database,
/// cache, and epoch stream. Spawn per-thread [`SharedSession`]s with
/// [`SharedEngine::session`] for reads and call
/// [`SharedEngine::apply`] from anywhere for writes (concurrent writers
/// serialize; each published delta is observed in full or not at all).
///
/// # Example
///
/// ```
/// use qld_engine::{Delta, Engine, SharedEngine};
/// use qld_core::CwDatabase;
/// use qld_logic::Vocabulary;
///
/// let mut voc = Vocabulary::new();
/// let ids = voc.add_consts(["a", "b"]).unwrap();
/// let p = voc.add_pred("P", 1).unwrap();
/// let db = CwDatabase::builder(voc).fact(p, &[ids[0]]).build().unwrap();
///
/// let shared = SharedEngine::new(Engine::new(db));
/// std::thread::scope(|scope| {
///     let reader = shared.clone();
///     scope.spawn(move || {
///         let mut session = reader.session();
///         let q = session.prepare_text("(x) . P(x)").unwrap();
///         let answers = session.execute(&q).unwrap();
///         // The answer names the database state it was computed at.
///         assert!(answers.evidence().epoch <= reader.epoch());
///     });
///     let writer = shared.clone();
///     scope.spawn(move || {
///         let p = writer.snapshot().engine().db().voc().pred_id("P").unwrap();
///         writer
///             .apply(&Delta::new().insert_fact(p, &[ids[1]]))
///             .unwrap();
///     });
/// });
/// assert_eq!(shared.epoch(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SharedEngine {
    inner: Arc<SharedInner>,
}

impl SharedEngine {
    /// Wraps a configured [`Engine`] for concurrent serving. Its answer
    /// cache — whatever it holds, on or
    /// [off](crate::EngineBuilder::answer_cache) — becomes the one every
    /// published snapshot reads through.
    pub fn new(engine: Engine) -> SharedEngine {
        SharedEngine::build(engine, None, 1)
    }

    /// Constructs the shared machinery, optionally with a WAL on the
    /// write path (used by [`SharedEngine::durable`] and
    /// [`SharedEngine::recover_with`](crate::SharedEngine::recover_with)),
    /// serving under `generation`.
    pub(crate) fn with_wal(engine: Engine, state: DurableState, generation: u64) -> SharedEngine {
        SharedEngine::build(engine, Some(state), generation)
    }

    fn build(engine: Engine, wal: Option<DurableState>, generation: u64) -> SharedEngine {
        let snapshot = Arc::new(EngineSnapshot {
            engine: engine.snapshot(),
            epoch: engine.epoch(),
        });
        SharedEngine {
            inner: Arc::new(SharedInner {
                published: RwLock::new(snapshot),
                writer: Mutex::new(engine),
                sessions: AtomicU64::new(0),
                wal: wal.map(Mutex::new),
                wal_poisoned: AtomicBool::new(false),
                watchers: Mutex::new(Vec::new()),
                read_only: AtomicBool::new(false),
                generation: AtomicU64::new(generation),
                followers: AtomicUsize::new(0),
                source_epoch: AtomicU64::new(0),
            }),
        }
    }

    /// The currently published snapshot. The read lock is held only for
    /// the `Arc` clone; evaluation on the snapshot runs lock-free.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.inner
            .published
            .read()
            .expect("published snapshot poisoned")
            .clone()
    }

    /// The currently published epoch (monotone non-decreasing).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Starts a new reader session. Sessions are cheap (an `Arc` clone
    /// plus a counter bump) and independent — hand one to each thread or
    /// client connection.
    pub fn session(&self) -> SharedSession {
        let id = self.inner.sessions.fetch_add(1, Ordering::Relaxed);
        SharedSession {
            shared: self.clone(),
            id,
            observed: 0,
        }
    }

    /// Applies a [`Delta`] to the master engine (full incremental
    /// maintenance, all-or-nothing validation — see [`Engine::apply`])
    /// and, if the database changed, publishes a fresh epoch-stamped
    /// snapshot atomically before returning.
    ///
    /// Concurrent `apply` calls serialize behind the writer mutex;
    /// snapshots are published in apply order while the lock is still
    /// held, so the epoch stream readers observe is exactly the sequence
    /// of applied deltas. Readers holding the previous snapshot finish
    /// their queries against it — they never see a half-applied delta —
    /// and keep hitting the cached answers that were true at its epoch.
    ///
    /// With durability attached ([`SharedEngine::durable`]), the delta's
    /// WAL record is appended — and synced, per policy — **before** the
    /// snapshot is published (*log-before-publish*): no reader, and no
    /// client reply, can ever observe an epoch the log does not hold. A
    /// WAL failure fails the `apply` with [`EngineError::Durability`],
    /// publishes nothing, and **poisons the engine for writes**: the
    /// writer holds a delta the log may not, and a later append could
    /// land beyond a torn frame, so every subsequent `apply` (and
    /// [`SharedEngine::checkpoint_now`]) fails until the process
    /// restarts and recovers from the log — even if the underlying
    /// storage error was transient. Reads keep being served from the
    /// last published (durable) snapshot; see
    /// [`SharedEngine::wal_poisoned`].
    pub fn apply(&self, delta: &Delta) -> Result<DeltaReport, EngineError> {
        let mut writer = self.inner.writer.lock().expect("writer engine poisoned");
        self.check_wal_poisoned()?;
        if self.inner.read_only.load(Ordering::Acquire) {
            return Err(EngineError::ReadOnly);
        }
        let report = writer.apply(delta)?;
        if report.changed() {
            self.commit(&writer, delta, || delta_to_record(delta, writer.epoch()))?;
        }
        Ok(report)
    }

    /// Makes the delta the writer engine just applied visible, in the
    /// one order that keeps every guarantee: WAL record first
    /// (*log-before-publish*; a failure poisons the write path and
    /// publishes nothing), then the snapshot swap, then the replication
    /// fan-out of `record`. Called with the writer lock held.
    fn commit(
        &self,
        writer: &Engine,
        delta: &Delta,
        record: impl FnOnce() -> WalRecord,
    ) -> Result<(), EngineError> {
        if let Some(wal) = &self.inner.wal {
            let generation = self.inner.generation.load(Ordering::Acquire);
            if let Err(e) = wal
                .lock()
                .expect("wal poisoned")
                .log(delta, writer, generation)
            {
                self.inner.wal_poisoned.store(true, Ordering::Release);
                return Err(EngineError::Durability(e.to_string()));
            }
        }
        self.publish(writer.snapshot(), writer.epoch());
        self.notify_watchers(record);
        Ok(())
    }

    /// Swaps the published snapshot for `engine` frozen at `epoch`. The
    /// write lock is held only for the pointer swap: the retired snapshot
    /// — which may own a built `ApproxEngine` — is dropped after readers
    /// are let back in.
    fn publish(&self, engine: Engine, epoch: u64) {
        let fresh = Arc::new(EngineSnapshot { engine, epoch });
        let mut published = self
            .inner
            .published
            .write()
            .expect("published snapshot poisoned");
        let retired = std::mem::replace(&mut *published, fresh);
        drop(published);
        drop(retired);
    }

    /// Fans a committed record out to every replication subscriber,
    /// dropping senders whose feed hung up. Called with the writer lock
    /// held, *after* the snapshot swap, so subscribers receive commits in
    /// publish order with no gaps. The record is built lazily — the
    /// common case (no followers) pays one uncontended lock and nothing
    /// else.
    fn notify_watchers(&self, record: impl FnOnce() -> WalRecord) {
        let mut watchers = self.inner.watchers.lock().expect("watcher list poisoned");
        if watchers.is_empty() {
            return;
        }
        let record = record();
        watchers.retain(|tx| tx.send(record.clone()).is_ok());
    }

    /// Whether a WAL failure has poisoned this engine for writes (always
    /// `false` without durability). A poisoned engine keeps serving
    /// reads at the last published epoch but rejects every write; the
    /// only way forward is to restart and
    /// [`recover_with`](SharedEngine::recover_with).
    pub fn wal_poisoned(&self) -> bool {
        self.inner.wal_poisoned.load(Ordering::Acquire)
    }

    /// Fails if a previous WAL error poisoned the write path. Called
    /// with the writer lock held, *before* mutating the writer engine,
    /// so a poisoned engine's state stops evolving entirely.
    fn check_wal_poisoned(&self) -> Result<(), EngineError> {
        if self.wal_poisoned() {
            return Err(EngineError::Durability(
                "a write-ahead-log failure poisoned this engine; restart and recover \
                 from the log"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Aggregate statistics: published epoch, sessions started, cache
    /// occupancy, and the master engine's cumulative delta counters.
    pub fn stats(&self) -> SharedStats {
        let deltas = self
            .inner
            .writer
            .lock()
            .expect("writer engine poisoned")
            .delta_stats();
        let snapshot = self.snapshot();
        SharedStats {
            epoch: snapshot.epoch,
            sessions_started: self.inner.sessions.load(Ordering::Relaxed),
            cache_len: snapshot.engine.cache_len(),
            cache_capacity: snapshot.engine.cache_capacity(),
            deltas,
            wal: self.wal_stats(),
            read_only: self.is_read_only(),
            generation: self.generation(),
            source_epoch: self.source_epoch(),
            followers: self.followers(),
        }
    }

    /// Cumulative WAL counters (`None` when the engine was built without
    /// durability).
    pub fn wal_stats(&self) -> Option<qld_wal::WalStats> {
        self.inner
            .wal
            .as_ref()
            .map(|w| w.lock().expect("wal poisoned").stats())
    }

    /// Writes a database checkpoint now (serializes the writer's
    /// database, then truncates older log state), regardless of the
    /// automatic cadence. Returns the checkpointed epoch, or `None` when
    /// the engine has no WAL. A failure poisons the engine for writes,
    /// exactly like a failed [`SharedEngine::apply`] — the log may be
    /// mid-rotation, so appending anything more could tear it.
    pub fn checkpoint_now(&self) -> Result<Option<u64>, EngineError> {
        let Some(wal) = &self.inner.wal else {
            return Ok(None);
        };
        let writer = self.inner.writer.lock().expect("writer engine poisoned");
        self.check_wal_poisoned()?;
        let generation = self.inner.generation.load(Ordering::Acquire);
        self.checkpoint_or_poison(wal, &writer, generation)?;
        Ok(Some(writer.epoch()))
    }

    /// Checkpoints the writer's database under `generation`; a failure
    /// poisons the write path (the log may be mid-rotation). Called with
    /// the writer lock held.
    fn checkpoint_or_poison(
        &self,
        wal: &Mutex<DurableState>,
        writer: &Engine,
        generation: u64,
    ) -> Result<(), EngineError> {
        wal.lock()
            .expect("wal poisoned")
            .checkpoint(writer, generation)
            .map_err(|e| {
                self.inner.wal_poisoned.store(true, Ordering::Release);
                EngineError::Durability(e.to_string())
            })
    }

    /// Snapshot-machinery statistics: published epoch, per-shard cache
    /// occupancy, and the published snapshot's age in deltas (how many
    /// deltas the writer has applied past it — normally `0`, since
    /// publication happens under the writer lock).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        let writer_deltas = self
            .inner
            .writer
            .lock()
            .expect("writer engine poisoned")
            .delta_stats()
            .deltas_applied;
        let snapshot = self.snapshot();
        let snapshot_deltas = snapshot.engine().delta_stats().deltas_applied;
        let (shards_occupied, max_shard_len) = snapshot.engine.cache_occupancy();
        SnapshotStats {
            epoch: snapshot.epoch(),
            cache_entries: snapshot.engine.cache_len(),
            cache_capacity: snapshot.engine.cache_capacity(),
            shards_occupied,
            shard_count: SHARD_COUNT,
            max_shard_len,
            snapshot_age_deltas: writer_deltas.saturating_sub(snapshot_deltas),
        }
    }

    // --- replication ----------------------------------------------------
    //
    // A primary streams committed deltas to followers; a follower applies
    // them through `apply_replica` (or swallows a whole snapshot through
    // `reset_replica` when it is too far behind the truncated log) and
    // serves wait-free reads at its stamped epoch. Because `Engine::apply`
    // is deterministic, a follower that has applied the epoch-ordered
    // record stream answers byte-identically to a solo engine rebuilt at
    // the same epoch — the invariant `tests/replication.rs` checks.

    /// Subscribes to the commit stream: returns the currently published
    /// snapshot and a [`CommitFeed`] delivering the [`WalRecord`] of every
    /// changing delta applied *after* that snapshot, in epoch order with
    /// no gaps (registration happens under the writer lock, so no commit
    /// can slip between the snapshot and the first delivered record).
    ///
    /// Dropping the feed unsubscribes: the writer discards the sender on
    /// its next commit.
    pub fn subscribe_commits(&self) -> (Arc<EngineSnapshot>, CommitFeed) {
        let _writer = self.inner.writer.lock().expect("writer engine poisoned");
        let (tx, rx) = mpsc::channel();
        self.inner
            .watchers
            .lock()
            .expect("watcher list poisoned")
            .push(tx);
        let snapshot = self
            .inner
            .published
            .read()
            .expect("published snapshot poisoned")
            .clone();
        (snapshot, CommitFeed { rx })
    }

    /// Applies one replicated [`WalRecord`] on a follower, bypassing the
    /// read-only gate. Returns the engine's epoch after the call.
    ///
    /// Epoch discipline makes resumption and stream overlap safe:
    ///
    /// * a record at or below the current epoch is **skipped** (the
    ///   snapshot transfer and the live feed can legitimately overlap by
    ///   a few epochs);
    /// * the record at exactly `current + 1` is applied, logged to the
    ///   local WAL if one is attached, published, and forwarded to this
    ///   engine's own subscribers (so chained followers work);
    /// * a record further ahead is a **gap** — the caller must tear down
    ///   the stream and resync from its last applied epoch.
    ///
    /// Records with no facts and no `NE` pairs are heartbeats: they only
    /// refresh [`SharedEngine::source_epoch`].
    pub fn apply_replica(&self, record: &WalRecord) -> Result<u64, EngineError> {
        self.note_source_epoch(record.epoch);
        let mut writer = self.inner.writer.lock().expect("writer engine poisoned");
        self.check_wal_poisoned()?;
        let current = writer.epoch();
        if record.facts.is_empty() && record.ne_pairs.is_empty() {
            return Ok(current);
        }
        if record.epoch <= current {
            return Ok(current);
        }
        if record.epoch != current + 1 {
            return Err(EngineError::Durability(format!(
                "replication gap: record for epoch {} arrived at epoch {current}; \
                 resync from the last applied epoch",
                record.epoch
            )));
        }
        let delta = record_to_delta(record);
        let report = writer.apply(&delta)?;
        if report.epoch != record.epoch {
            return Err(EngineError::Durability(format!(
                "replicated record for epoch {} left the engine at epoch {} — \
                 the streams have diverged",
                record.epoch, report.epoch
            )));
        }
        self.commit(&writer, &delta, || record.clone())?;
        Ok(record.epoch)
    }

    /// Replaces the whole database with a transferred snapshot stamped at
    /// `epoch` — the catch-up path for a follower too far behind the
    /// primary's truncated log for incremental records.
    ///
    /// The new epoch must be at least the current one: published epochs
    /// are monotone and live [`SharedSession`]s assert they never run
    /// backwards. The replaced engine's answer cache goes with it —
    /// `engine` brings its own — so nothing answered before the reset is
    /// served after it, whatever the two epochs are. Subscribers are
    /// *not* notified of resets; feeds only ever carry incremental
    /// records.
    ///
    /// [`PreparedQuery`]s prepared before the reset are bound to the
    /// replaced engine and fail with
    /// [`EngineError::PreparedElsewhere`] afterwards — re-prepare them.
    /// (A server connection drops the statement and re-prepares the line,
    /// so wire clients never see this.)
    pub fn reset_replica(&self, mut engine: Engine, epoch: u64) -> Result<(), EngineError> {
        engine.set_epoch(epoch);
        let mut writer = self.inner.writer.lock().expect("writer engine poisoned");
        self.check_wal_poisoned()?;
        if epoch < writer.epoch() {
            return Err(EngineError::Durability(format!(
                "replication reset to epoch {epoch} would run the engine backwards \
                 from epoch {}",
                writer.epoch()
            )));
        }
        let frozen = engine.snapshot();
        *writer = engine;
        self.publish(frozen, epoch);
        Ok(())
    }

    /// Promotes a read-only follower into a writable primary: clears the
    /// read-only gate, bumps the generation, and — when a WAL is attached
    /// — immediately checkpoints under the new generation so the fencing
    /// term survives a crash. Returns the new generation.
    ///
    /// Errors if the engine is already writable: promotion is a failover
    /// action, not an idempotent toggle, and a double-promote usually
    /// means two operators are racing.
    pub fn promote(&self) -> Result<u64, EngineError> {
        let writer = self.inner.writer.lock().expect("writer engine poisoned");
        if !self.inner.read_only.load(Ordering::Acquire) {
            return Err(EngineError::Durability(
                "promote: this engine is already a writable primary".to_string(),
            ));
        }
        self.check_wal_poisoned()?;
        let generation = self.inner.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.inner.read_only.store(false, Ordering::Release);
        if let Some(wal) = &self.inner.wal {
            self.checkpoint_or_poison(wal, &writer, generation)?;
        }
        Ok(generation)
    }

    /// Whether this engine is a read-only replication follower.
    pub fn is_read_only(&self) -> bool {
        self.inner.read_only.load(Ordering::Acquire)
    }

    /// Marks this engine as a read-only follower (or clears the mark).
    /// Set by the follower runtime before serving; cleared by
    /// [`SharedEngine::promote`].
    pub fn set_read_only(&self, read_only: bool) {
        self.inner.read_only.store(read_only, Ordering::Release);
    }

    /// The primary generation (failover term) this engine serves under.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// Adopts a generation learned from the replication handshake (a
    /// follower tracks its primary's term so a later promote fences the
    /// old primary).
    pub fn set_generation(&self, generation: u64) {
        self.inner.generation.store(generation, Ordering::Release);
    }

    /// Highest epoch the upstream primary has reported (followers only).
    pub fn source_epoch(&self) -> u64 {
        self.inner.source_epoch.load(Ordering::Acquire)
    }

    /// Records an epoch the upstream primary reported (monotone max).
    pub fn note_source_epoch(&self, epoch: u64) {
        self.inner.source_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Replication feed connections currently attached (primary side).
    pub fn followers(&self) -> usize {
        self.inner.followers.load(Ordering::Acquire)
    }

    /// Counts a replication feed connection in (primary side gauge).
    pub fn follower_attached(&self) {
        self.inner.followers.fetch_add(1, Ordering::AcqRel);
    }

    /// Counts a replication feed connection out.
    pub fn follower_detached(&self) {
        self.inner.followers.fetch_sub(1, Ordering::AcqRel);
    }

    /// Reads the live WAL tail for replication catch-up: `None` without
    /// a WAL, otherwise the newest checkpoint's epoch and every record
    /// logged after it. A feed can serve a follower incrementally iff
    /// the checkpoint epoch is at or below the follower's last applied
    /// epoch — otherwise the truncated log no longer covers the gap and
    /// a snapshot transfer is needed.
    pub fn wal_tail(&self) -> Result<Option<(u64, Vec<WalRecord>)>, EngineError> {
        let Some(wal) = &self.inner.wal else {
            return Ok(None);
        };
        let (checkpoint, records) = wal
            .lock()
            .expect("wal poisoned")
            .tail()
            .map_err(|e| EngineError::Durability(e.to_string()))?;
        Ok(Some((checkpoint.map_or(0, |c| c.epoch), records)))
    }
}

/// The receiving end of a [`SharedEngine::subscribe_commits`]
/// subscription: an in-order, gap-free stream of the [`WalRecord`]s the
/// engine commits after the subscription snapshot.
///
/// The feed buffers without bound while the subscriber is slow (the
/// writer never blocks on a follower); dropping it unsubscribes.
#[derive(Debug)]
pub struct CommitFeed {
    rx: mpsc::Receiver<WalRecord>,
}

impl CommitFeed {
    /// Waits up to `timeout` for the next committed record.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<WalRecord, mpsc::RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Returns the next committed record if one is already queued.
    pub fn try_recv(&self) -> Result<WalRecord, mpsc::TryRecvError> {
        self.rx.try_recv()
    }
}

/// One reader's view of a [`SharedEngine`]: prepares and executes
/// queries against the latest published snapshot, tracks the epochs it
/// has observed, and guarantees the observation is monotone — a session
/// can see the database advance between calls, but never run backwards.
///
/// Sessions are single-threaded by design (`&mut self` on the execution
/// path keeps the epoch bookkeeping race-free); create one per thread
/// with [`SharedEngine::session`].
#[derive(Debug)]
pub struct SharedSession {
    shared: SharedEngine,
    id: u64,
    observed: u64,
}

impl SharedSession {
    /// This session's id (unique per [`SharedEngine`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The highest epoch this session has observed so far.
    pub fn observed_epoch(&self) -> u64 {
        self.observed
    }

    /// The engine this session reads from — where its writes go
    /// ([`SharedEngine::apply`]) and its counters live.
    pub fn shared(&self) -> &SharedEngine {
        &self.shared
    }

    /// The latest published snapshot, its epoch folded into the monotone
    /// observation record. A caller that must prepare, execute and render
    /// against *one* database state takes the snapshot once and calls its
    /// [`engine`](EngineSnapshot::engine) for each step.
    pub fn snapshot(&mut self) -> Arc<EngineSnapshot> {
        let snapshot = self.shared.snapshot();
        assert!(
            snapshot.epoch >= self.observed,
            "session {} observed epoch {} after {} — published epochs ran backwards",
            self.id,
            snapshot.epoch,
            self.observed
        );
        self.observed = snapshot.epoch;
        snapshot
    }

    /// Parses and prepares a query against the current snapshot. The
    /// result is valid on every snapshot of this engine, past and future
    /// (prepared artifacts reference stable predicate ids; certificates
    /// are re-validated per epoch at execution time).
    pub fn prepare_text(&mut self, text: &str) -> Result<PreparedQuery, EngineError> {
        self.snapshot().engine.prepare_text(text)
    }

    /// Prepares an already-built [`Query`] against the current snapshot.
    pub fn prepare(&mut self, query: Query) -> Result<PreparedQuery, EngineError> {
        self.snapshot().engine.prepare(query)
    }

    /// Executes a prepared query under the engine's default semantics —
    /// read from the same snapshot the answer is computed on.
    pub fn execute(&mut self, prepared: &PreparedQuery) -> Result<Answers, EngineError> {
        self.snapshot().engine.execute(prepared)
    }

    /// Executes a prepared query under an explicit semantics against the
    /// latest published snapshot. The answer's
    /// [`Evidence::epoch`](crate::Evidence::epoch) is the snapshot's
    /// epoch, hit or not.
    pub fn execute_as(
        &mut self,
        prepared: &PreparedQuery,
        semantics: Semantics,
    ) -> Result<Answers, EngineError> {
        self.snapshot().engine.execute_as(prepared, semantics)
    }

    /// [`Engine::execute_batch_as`] against one snapshot: all members see
    /// the same epoch.
    pub fn execute_batch_as(
        &mut self,
        prepared: &[PreparedQuery],
        semantics: Semantics,
    ) -> Result<Vec<Answers>, EngineError> {
        self.snapshot().engine.execute_batch_as(prepared, semantics)
    }

    /// Renders answer tuples with the vocabulary's constant names.
    pub fn answer_names(&self, answers: &Answers) -> Vec<Vec<String>> {
        qld_core::answer_names(self.shared.snapshot().engine.db().voc(), answers.tuples())
    }
}

// The whole point of the module, enforced at compile time: the shared
// serving layer (and everything a reader thread needs to hold) crosses
// thread boundaries. A regression — say an `Rc` or `RefCell` sneaking
// into `CwDatabase` or a derived structure — fails the build here, not
// under load.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<SharedEngine>();
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<SharedSession>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<Answers>();
    assert_send_sync::<Delta>();
    // The commit feed moves into the per-follower feed thread; mpsc
    // receivers are deliberately single-consumer, so `Send` is the
    // contract (not `Sync`).
    const fn assert_send<T: Send>() {}
    assert_send::<CommitFeed>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use qld_core::CwDatabase;
    use qld_logic::Vocabulary;
    use std::thread;

    fn small_engine() -> Engine {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b", "c", "u"]).unwrap();
        voc.add_pred("P", 1).unwrap();
        voc.add_pred("R", 2).unwrap();
        let db = CwDatabase::builder(voc).build().unwrap();
        Engine::new(db)
    }

    #[test]
    fn an_engine_built_without_a_cache_is_served_without_one() {
        let mut voc = Vocabulary::new();
        voc.add_consts(["a", "b"]).unwrap();
        voc.add_pred("P", 1).unwrap();
        let db = CwDatabase::builder(voc).build().unwrap();
        let shared = SharedEngine::new(Engine::builder(db).answer_cache(false).build());
        let mut session = shared.session();
        let q = session.prepare_text("(x) . !P(x)").unwrap();
        for _ in 0..2 {
            assert!(!session.execute(&q).unwrap().evidence().cache_hit);
        }
        assert_eq!(shared.stats().cache_len, 0);
    }

    #[test]
    fn snapshot_publish_and_epoch_stamping() {
        let shared = SharedEngine::new(small_engine());
        assert_eq!(shared.epoch(), 0);
        let mut session = shared.session();
        let q = session.prepare_text("(x) . P(x)").unwrap();
        let before = session.execute(&q).unwrap();
        assert_eq!(before.evidence().epoch, 0);

        let voc_p = shared.snapshot().engine().db().voc().pred_id("P").unwrap();
        let a = shared.snapshot().engine().db().voc().const_id("a").unwrap();
        let old = shared.snapshot();
        let report = shared
            .apply(&Delta::new().insert_fact(voc_p, &[a]))
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(shared.epoch(), 1);
        // The pre-delta snapshot is still alive and still answers at its
        // own epoch.
        assert_eq!(old.epoch(), 0);
        assert!(old.engine().execute(&q).unwrap().tuples().is_empty());

        let after = session.execute(&q).unwrap();
        assert_eq!(after.evidence().epoch, 1);
        assert_eq!(after.len(), 1);
        assert_eq!(session.observed_epoch(), 1);
    }

    #[test]
    fn duplicate_delta_publishes_nothing() {
        let shared = SharedEngine::new(small_engine());
        let snap = shared.snapshot();
        let voc = snap.engine().db().voc();
        let (p, a) = (voc.pred_id("P").unwrap(), voc.const_id("a").unwrap());
        shared.apply(&Delta::new().insert_fact(p, &[a])).unwrap();
        let published = shared.snapshot();
        let report = shared.apply(&Delta::new().insert_fact(p, &[a])).unwrap();
        assert!(!report.changed());
        // Same snapshot object: a pure-duplicate delta is not republished.
        assert!(Arc::ptr_eq(&published, &shared.snapshot()));
    }

    /// Counts, not clocks: what survives a publish is decided by the
    /// footprint, on the serving path as on the solo engine.
    #[test]
    fn answers_survive_exactly_the_publishes_their_footprint_misses() {
        let shared = SharedEngine::new(small_engine());
        let snap = shared.snapshot();
        let voc = snap.engine().db().voc();
        let (p, r) = (voc.pred_id("P").unwrap(), voc.pred_id("R").unwrap());
        let consts: Vec<_> = ["a", "b", "c", "u"]
            .iter()
            .map(|name| voc.const_id(name).unwrap())
            .collect();
        let mut session = shared.session();
        let positive_p = session.prepare_text("(x) . P(x)").unwrap();
        let negated_p = session.prepare_text("(x) . !P(x)").unwrap();
        let on_r = session.prepare_text("(x, y) . R(x, y)").unwrap();
        for q in [&positive_p, &negated_p, &on_r] {
            assert!(!session.execute(q).unwrap().evidence().cache_hit);
        }

        // Ten publishes into `R`, then one axiom: the positive query over
        // `P` alone is a hit after each, served at the reader's epoch.
        let mut writes: Vec<Delta> = consts
            .iter()
            .flat_map(|&x| consts.iter().map(move |&y| (x, y)))
            .take(10)
            .map(|(x, y)| Delta::new().insert_fact(r, &[x, y]))
            .collect();
        writes.push(Delta::new().assert_ne(consts[0], consts[1]));
        let pinned = shared.snapshot();
        for (i, delta) in writes.iter().enumerate() {
            let report = shared.apply(delta).unwrap();
            assert_eq!(report.epoch, i as u64 + 1);
            assert!(report.cache_retained >= 1, "{report}");
            let hit = session.execute(&positive_p).unwrap();
            assert!(
                hit.evidence().cache_hit,
                "write {i} evicted a disjoint entry"
            );
            assert_eq!(hit.evidence().epoch, report.epoch);
            assert!(hit.is_empty());
            // A query over the written predicate misses after each write,
            // a negated one over `P` only after the axiom.
            let is_axiom = i == 10;
            let over_r = session.execute(&on_r).unwrap();
            assert_eq!(over_r.evidence().cache_hit, is_axiom, "write {i}");
            assert_eq!(over_r.len(), (i + 1).min(10));
            let negated = session.execute(&negated_p).unwrap();
            assert_eq!(negated.evidence().cache_hit, !is_axiom, "write {i}");
            assert_eq!(negated.evidence().epoch, report.epoch);
        }
        assert_eq!(shared.stats().deltas.cache_evicted, 11);

        // A reader still on the pre-delta snapshot gets the pre-delta
        // answer at the pre-delta epoch.
        let old = pinned.engine().execute_as(&on_r, Semantics::Auto).unwrap();
        assert_eq!((old.len(), old.evidence().epoch), (0, 0));
        // Its late insert is not what current readers are served.
        let current = session.execute(&on_r).unwrap();
        assert_eq!((current.len(), current.evidence().epoch), (10, 11));

        // A write into `P` is the one that evicts the positive query.
        shared
            .apply(&Delta::new().insert_fact(p, &[consts[0]]))
            .unwrap();
        let fresh = session.execute(&positive_p).unwrap();
        assert!(!fresh.evidence().cache_hit);
        assert_eq!((fresh.len(), fresh.evidence().epoch), (1, 12));
    }

    #[test]
    fn batch_on_shared_session_mixes_hits_and_misses() {
        let shared = SharedEngine::new(small_engine());
        let mut session = shared.session();
        let q1 = session.prepare_text("(x) . !P(x)").unwrap();
        let q2 = session.prepare_text("(x) . !R(x, x)").unwrap();
        session.execute(&q1).unwrap(); // q1 cached
        let batch = session
            .execute_batch_as(&[q1.clone(), q2.clone()], Semantics::Auto)
            .unwrap();
        assert!(batch[0].evidence().cache_hit);
        assert!(!batch[1].evidence().cache_hit);
        // Everything cached now: the second batch is all hits.
        let again = session
            .execute_batch_as(&[q1, q2], Semantics::Auto)
            .unwrap();
        assert!(again.iter().all(|a| a.evidence().cache_hit));
        for (a, b) in batch.iter().zip(again.iter()) {
            assert_eq!(a.tuples(), b.tuples());
        }
    }

    #[test]
    fn stats_report_sessions_epoch_and_deltas() {
        let shared = SharedEngine::new(small_engine());
        let _s1 = shared.session();
        let mut s2 = shared.session();
        let q = s2.prepare_text("P(a)").unwrap();
        s2.execute(&q).unwrap();
        let snap = shared.snapshot();
        let voc = snap.engine().db().voc();
        let (p, b) = (voc.pred_id("P").unwrap(), voc.const_id("b").unwrap());
        shared.apply(&Delta::new().insert_fact(p, &[b])).unwrap();
        s2.execute(&q).unwrap();
        let stats = shared.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.sessions_started, 2);
        assert_eq!(stats.deltas.deltas_applied, 1);
        assert_eq!(stats.deltas.facts_inserted, 1);
        assert_eq!(
            stats.deltas.cache_evicted, 1,
            "the writer's count is the cache's"
        );
        assert_eq!(stats.cache_len, 1);
        assert!(stats.cache_capacity >= stats.cache_len);
        shared.snapshot().engine().invalidate_cache();
        assert_eq!(shared.stats().cache_len, 0);
    }

    #[test]
    fn snapshot_stats_track_occupancy_and_age() {
        let shared = SharedEngine::new(small_engine());
        let zero = shared.snapshot_stats();
        assert_eq!(zero.epoch, 0);
        assert_eq!(zero.cache_entries, 0);
        assert_eq!(zero.shards_occupied, 0);
        assert_eq!(zero.shard_count, SHARD_COUNT);
        assert_eq!(zero.snapshot_age_deltas, 0);

        let mut session = shared.session();
        let q1 = session.prepare_text("P(a)").unwrap();
        let q2 = session.prepare_text("(x) . !P(x)").unwrap();
        session.execute(&q1).unwrap();
        session.execute(&q2).unwrap();
        let warm = shared.snapshot_stats();
        assert_eq!(warm.cache_entries, 2);
        assert!(warm.shards_occupied >= 1 && warm.shards_occupied <= 2);
        assert!(warm.max_shard_len >= 1);
        assert_eq!(warm.cache_capacity, 4096);

        // A changing delta republished the snapshot: age stays 0.
        let snap = shared.snapshot();
        let voc = snap.engine().db().voc();
        let (p, a) = (voc.pred_id("P").unwrap(), voc.const_id("a").unwrap());
        shared.apply(&Delta::new().insert_fact(p, &[a])).unwrap();
        let fresh = shared.snapshot_stats();
        assert_eq!(fresh.epoch, 1);
        assert_eq!(fresh.snapshot_age_deltas, 0);

        // A pure-duplicate delta advances the writer's counter without
        // republishing: the published snapshot ages by one delta.
        shared.apply(&Delta::new().insert_fact(p, &[a])).unwrap();
        let aged = shared.snapshot_stats();
        assert_eq!(aged.epoch, 1);
        assert_eq!(aged.snapshot_age_deltas, 1);
    }

    /// Concurrent insert/lookup from many threads: every hit must be
    /// byte-identical to the inserted answer, and racing inserts of one
    /// key never count twice.
    #[test]
    fn cache_contention_insert_lookup_races() {
        let shared = SharedEngine::new(small_engine());
        let mut seed = shared.session();
        // 16 distinct queries × two semantics — comfortably within
        // capacity, so every entry must survive and be served identically.
        let texts = [
            "(x) . P(x)",
            "(x) . !P(x)",
            "(x, y) . R(x, y)",
            "(x) . R(x, x)",
            "(x) . !R(x, x)",
            "P(a)",
            "P(b)",
            "P(c)",
            "P(u)",
            "R(a, b)",
            "R(b, a)",
            "exists x. P(x)",
            "exists x. R(x, a)",
            "exists x. !P(x)",
            "forall x. P(x) -> x != u",
            "(x) . P(x) | x != a",
        ];
        let prepared: Vec<PreparedQuery> = texts
            .iter()
            .map(|t| seed.prepare_text(t).unwrap())
            .collect();
        let truth: Vec<(Answers, Answers)> = prepared
            .iter()
            .map(|p| {
                let snap = shared.snapshot();
                (
                    snap.engine().execute_as(p, Semantics::Auto).unwrap(),
                    snap.engine().execute_as(p, Semantics::Possible).unwrap(),
                )
            })
            .collect();
        thread::scope(|scope| {
            for t in 0..8 {
                let shared = shared.clone();
                let prepared = &prepared;
                let truth = &truth;
                scope.spawn(move || {
                    let mut session = shared.session();
                    for round in 0..40 {
                        let i = (t * 7 + round) % prepared.len();
                        let (p, (auto_truth, possible_truth)) = (&prepared[i], &truth[i]);
                        let a = session.execute_as(p, Semantics::Auto).unwrap();
                        assert_eq!(a.tuples(), auto_truth.tuples());
                        let pa = session.execute_as(p, Semantics::Possible).unwrap();
                        assert_eq!(pa.tuples(), possible_truth.tuples());
                        assert!(shared.stats().cache_len <= 2 * prepared.len());
                    }
                });
            }
        });
        // Steady state: all 16 × 2 entries cached, every further read a hit.
        let mut session = shared.session();
        for p in &prepared {
            assert!(
                session
                    .execute_as(p, Semantics::Auto)
                    .unwrap()
                    .evidence()
                    .cache_hit
            );
        }
    }

    // --- replication hooks ----------------------------------------------

    fn pa_delta(shared: &SharedEngine, name: &str) -> Delta {
        let snap = shared.snapshot();
        let voc = snap.engine().db().voc();
        Delta::new().insert_fact(voc.pred_id("P").unwrap(), &[voc.const_id(name).unwrap()])
    }

    #[test]
    fn read_only_engines_reject_apply_but_accept_replica_records() {
        let primary = SharedEngine::new(small_engine());
        let follower = SharedEngine::new(small_engine());
        follower.set_read_only(true);
        assert!(follower.is_read_only());
        let delta = pa_delta(&follower, "a");
        assert_eq!(
            follower.apply(&delta).unwrap_err(),
            EngineError::ReadOnly,
            "a follower must refuse direct writes"
        );
        assert!(follower
            .apply(&delta)
            .unwrap_err()
            .to_string()
            .starts_with("read-only"));

        // The same mutation arrives as a replicated record and applies.
        let (_, feed) = primary.subscribe_commits();
        primary.apply(&delta).unwrap();
        let record = feed.try_recv().unwrap();
        assert_eq!(follower.apply_replica(&record).unwrap(), 1);
        assert_eq!(follower.epoch(), 1);
        let mut session = follower.session();
        let q = session.prepare_text("(x) . P(x)").unwrap();
        assert_eq!(session.execute(&q).unwrap().len(), 1);
    }

    #[test]
    fn subscribe_commits_is_gap_free_from_the_snapshot() {
        let shared = SharedEngine::new(small_engine());
        shared.apply(&pa_delta(&shared, "a")).unwrap();
        let (snapshot, feed) = shared.subscribe_commits();
        assert_eq!(snapshot.epoch(), 1);
        shared.apply(&pa_delta(&shared, "b")).unwrap();
        shared.apply(&pa_delta(&shared, "c")).unwrap();
        // Exactly the post-subscription commits, in epoch order.
        assert_eq!(feed.try_recv().unwrap().epoch, 2);
        assert_eq!(feed.try_recv().unwrap().epoch, 3);
        assert!(feed.try_recv().is_err());
        // A dropped feed unsubscribes on the next commit without
        // disturbing the writer.
        drop(feed);
        shared.apply(&pa_delta(&shared, "u")).unwrap();
        assert_eq!(shared.epoch(), 4);
    }

    #[test]
    fn apply_replica_skips_duplicates_and_rejects_gaps() {
        let primary = SharedEngine::new(small_engine());
        let follower = SharedEngine::new(small_engine());
        follower.set_read_only(true);
        let (_, feed) = primary.subscribe_commits();
        for name in ["a", "b", "c"] {
            primary.apply(&pa_delta(&primary, name)).unwrap();
        }
        let records: Vec<WalRecord> = (0..3).map(|_| feed.try_recv().unwrap()).collect();
        assert_eq!(follower.apply_replica(&records[0]).unwrap(), 1);
        // Replaying an already-applied epoch is a no-op, not an error.
        assert_eq!(follower.apply_replica(&records[0]).unwrap(), 1);
        // Skipping an epoch is a gap: the stream must resync.
        let err = follower.apply_replica(&records[2]).unwrap_err();
        assert!(err.to_string().contains("replication gap"), "{err}");
        assert_eq!(follower.epoch(), 1);
        // A heartbeat (empty record) only refreshes the source epoch.
        let heartbeat = WalRecord {
            epoch: 9,
            facts: Vec::new(),
            ne_pairs: Vec::new(),
        };
        assert_eq!(follower.apply_replica(&heartbeat).unwrap(), 1);
        assert_eq!(follower.source_epoch(), 9);
        assert_eq!(follower.stats().replication_lag(), 8);
    }

    #[test]
    fn reset_replica_swaps_the_database_and_keeps_epochs_monotone() {
        let primary = SharedEngine::new(small_engine());
        for name in ["a", "b"] {
            primary.apply(&pa_delta(&primary, name)).unwrap();
        }
        let follower = SharedEngine::new(small_engine());
        follower.set_read_only(true);
        let mut session = follower.session();
        let q = session.prepare_text("(x) . P(x)").unwrap();
        assert_eq!(session.execute(&q).unwrap().len(), 0);

        let transferred = Engine::new(primary.snapshot().engine().db().clone());
        follower.reset_replica(transferred, 2).unwrap();
        assert_eq!(follower.epoch(), 2);
        // Prepared artifacts are engine-bound: the pre-reset preparation
        // refers to the replaced engine and must be redone. (The server
        // prepares per request line, so this never reaches the wire.)
        assert_eq!(
            session.execute(&q).unwrap_err(),
            EngineError::PreparedElsewhere
        );
        let q = session.prepare_text("(x) . P(x)").unwrap();
        assert_eq!(session.execute(&q).unwrap().len(), 2);

        // Running backwards is refused.
        let stale = Engine::new(small_engine().db().clone());
        let err = follower.reset_replica(stale, 1).unwrap_err();
        assert!(err.to_string().contains("backwards"), "{err}");
        assert_eq!(follower.epoch(), 2);
    }

    #[test]
    fn an_equal_epoch_reset_serves_nothing_the_replaced_database_answered() {
        // A follower's placeholder database need not be the primary's,
        // and both can be at epoch 0.
        let follower = SharedEngine::new(small_engine());
        follower.set_read_only(true);
        let mut session = follower.session();
        let q = session.prepare_text("(x) . P(x)").unwrap();
        assert_eq!(session.execute(&q).unwrap().len(), 0);

        let snap = follower.snapshot();
        let voc = snap.engine().db().voc();
        let (p, a, b) = (
            voc.pred_id("P").unwrap(),
            voc.const_id("a").unwrap(),
            voc.const_id("b").unwrap(),
        );
        let db = CwDatabase::builder(voc.clone())
            .fact(p, &[a])
            .fact(p, &[b])
            .build()
            .unwrap();
        follower.reset_replica(Engine::new(db), 0).unwrap();
        let q = session.prepare_text("(x) . P(x)").unwrap();
        let answers = session.execute(&q).unwrap();
        assert_eq!(answers.len(), 2);
        assert!(!answers.evidence().cache_hit);
    }

    #[test]
    fn promote_clears_read_only_and_bumps_the_generation() {
        let follower = SharedEngine::new(small_engine());
        follower.set_read_only(true);
        follower.set_generation(3);
        let delta = pa_delta(&follower, "a");
        assert_eq!(follower.apply(&delta).unwrap_err(), EngineError::ReadOnly);

        assert_eq!(follower.promote().unwrap(), 4);
        assert!(!follower.is_read_only());
        assert_eq!(follower.generation(), 4);
        follower.apply(&delta).unwrap();
        assert_eq!(follower.epoch(), 1);

        // Promoting a primary is an operator error, not a toggle.
        let err = follower.promote().unwrap_err();
        assert!(
            err.to_string().contains("already a writable primary"),
            "{err}"
        );
        assert_eq!(follower.generation(), 4);
    }

    #[test]
    fn follower_gauge_counts_attach_and_detach() {
        let shared = SharedEngine::new(small_engine());
        assert_eq!(shared.followers(), 0);
        shared.follower_attached();
        shared.follower_attached();
        assert_eq!(shared.stats().followers, 2);
        shared.follower_detached();
        assert_eq!(shared.followers(), 1);
        // A primary reports zero lag no matter what it has heard.
        shared.note_source_epoch(7);
        assert_eq!(shared.stats().replication_lag(), 0);
    }
}
