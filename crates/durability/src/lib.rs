//! `qld_wal` — the durability layer under the qld serving stack.
//!
//! The engine's whole state is derivable: a closed-world database plus a
//! deterministic, differential-tested `apply` function means durability
//! only has to persist *the sequence of deltas* — restart is replay. This
//! crate provides exactly that, with nothing engine-specific in it:
//!
//! * [`Wal`] — an append-only, **segmented**, CRC-checksummed log of
//!   [`WalRecord`]s (storage-neutral serialized deltas) with a
//!   configurable [`FsyncPolicy`];
//! * **checkpoints** — [`write_checkpoint`] persists an opaque snapshot
//!   payload (the engine layer stores its database in the binary
//!   `qld_core::codec` layout) stamped with an epoch, then truncates
//!   every older segment and checkpoint, bounding replay work. It needs
//!   only a [`Storage`] handle, so it can run on a thread of its own
//!   (through [`Storage::reopen`]) after [`Wal::rotate`] has moved the
//!   writer to a segment the checkpoint keeps; [`Wal::checkpoint`] is
//!   the two in a row;
//! * **recovery** — [`Wal::open`] scans whatever bytes survived, picks
//!   the newest *valid* checkpoint, replays the record tail after it,
//!   and tolerates torn tails and corrupt records by truncating the log
//!   at the first bad frame (every complete, checksummed record before
//!   the tear survives; nothing after it does);
//! * an injectable [`Storage`] trait with a real-file implementation
//!   ([`DiskStorage`]), an in-memory one ([`MemStorage`]), and a
//!   deterministic crash simulator ([`FaultyStorage`] driven by a
//!   [`FaultPlan`]) — so crash-at-every-byte-offset recovery tests are
//!   exhaustive and reproducible.
//!
//! The intended write protocol is *log-before-publish*: append (and,
//! under [`FsyncPolicy::Always`], sync) the record for a delta **before**
//! acknowledging it to any client. Under that discipline every
//! acknowledged epoch survives a crash, and recovery always lands on a
//! prefix of the acknowledged history.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod record;
mod storage;

pub use record::{
    crc32, decode_segment, Checkpoint, SegmentScan, WalRecord, CHECKPOINT_MAGIC,
    CHECKPOINT_MAGIC_V2, MAX_RECORD_BYTES, SEGMENT_MAGIC,
};
pub use storage::{
    DiskStorage, FaultPlan, FaultyStorage, MemStorage, PowerLoss, ReadOnlyStorage, Storage,
    INJECTED_CRASH,
};

use std::fmt;
use std::io;

/// When the WAL forces appended bytes to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every appended record: an acknowledged delta is always
    /// durable (the strongest guarantee, one fsync per write).
    Always,
    /// Sync after every `n` appended records: bounded data loss (at most
    /// `n - 1` acknowledged records) at a fraction of the fsync cost.
    EveryN(u64),
    /// Never sync explicitly: throughput of a plain append, durability
    /// only as good as the OS page cache.
    Never,
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// The fsync policy (default [`FsyncPolicy::Always`]).
    pub fsync: FsyncPolicy,
    /// Records per segment before rotating to a fresh file (default
    /// 1024). Smaller segments mean finer-grained truncation; larger
    /// ones mean fewer files.
    pub segment_max_records: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            fsync: FsyncPolicy::Always,
            segment_max_records: 1024,
        }
    }
}

/// Cumulative counters of one [`Wal`] (surfaced in `:stats` by the
/// engine and server layers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub records_appended: u64,
    /// Frame bytes appended since open.
    pub bytes_appended: u64,
    /// Explicit syncs issued (per policy plus checkpoint syncs).
    pub fsyncs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Segment files created (including the one recovered into).
    pub segments_created: u64,
    /// Records recovered (decoded and surviving the checkpoint filter)
    /// when the log was opened.
    pub records_recovered: u64,
    /// Whole decodable records dropped at open because they sat beyond a
    /// corrupt frame.
    pub records_truncated: u64,
    /// Torn/corrupt tail bytes discarded at open.
    pub bytes_truncated: u64,
}

impl fmt::Display for WalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record(s) appended ({} bytes), {} fsync(s), {} checkpoint(s), \
             {} segment(s); recovery: {} replayed, {} record(s) / {} byte(s) truncated",
            self.records_appended,
            self.bytes_appended,
            self.fsyncs,
            self.checkpoints,
            self.segments_created,
            self.records_recovered,
            self.records_truncated,
            self.bytes_truncated
        )
    }
}

/// What [`Wal::open`] found in the storage: the state to rebuild from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The newest valid checkpoint, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Records after the checkpoint, in log order — the replay tail.
    pub records: Vec<WalRecord>,
    /// Whole decodable records dropped because they followed a corrupt
    /// frame (only possible with mid-log corruption, never a plain torn
    /// tail).
    pub records_truncated: u64,
    /// Torn/corrupt bytes discarded.
    pub bytes_truncated: u64,
}

impl Recovery {
    /// The epoch the recovered state ends at: the last replayed record's
    /// epoch, else the checkpoint's, else 0.
    pub fn final_epoch(&self) -> u64 {
        self.records
            .last()
            .map(|r| r.epoch)
            .or(self.checkpoint.as_ref().map(|c| c.epoch))
            .unwrap_or(0)
    }
}

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:016x}.seg")
}

fn checkpoint_name(epoch: u64) -> String {
    format!("ckpt-{epoch:016x}.ck")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    u64::from_str_radix(hex, 16).ok()
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ck")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Whether the storage holds recoverable WAL state: at least one
/// checkpoint file that *decodes to a valid [`Checkpoint`]* (every log
/// seeded through a checkpoint has one from its first instant, so this
/// is how front-ends decide between seeding a fresh log and recovering
/// an existing one). A directory with only torn checkpoints — a crash
/// during the very first, seed checkpoint — or with segments but no
/// checkpoint at all is not recoverable and is reported as empty, so
/// the front-end re-seeds instead of refusing to start.
pub fn has_state(storage: &dyn Storage) -> io::Result<bool> {
    Ok(newest_checkpoint(storage, &storage.list()?).is_some())
}

/// The newest checkpoint among `names` that decodes cleanly. Torn ones are
/// skipped: they never finished, so an older consistent one — or none — is
/// the truth.
fn newest_checkpoint(storage: &dyn Storage, names: &[String]) -> Option<Checkpoint> {
    let mut epochs: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_checkpoint_name(n))
        .collect();
    epochs.sort_unstable();
    epochs.iter().rev().find_map(|&epoch| {
        let bytes = storage.read(&checkpoint_name(epoch)).ok()?;
        Checkpoint::decode(&bytes)
    })
}

/// Drops the records at or below `checkpoint`'s epoch: they are already
/// inside its payload (leftovers of a crash between the checkpoint write
/// and the segment removal).
fn drop_checkpointed(records: &mut Vec<WalRecord>, checkpoint: Option<&Checkpoint>) {
    if let Some(ckpt) = checkpoint {
        records.retain(|r| r.epoch > ckpt.epoch);
    }
}

/// Writes a checkpoint capturing `payload` at `epoch` under the primary
/// `generation`, then truncates the log behind it: every segment
/// numbered below `keep_from_seq` and every other checkpoint is removed.
/// This is the one place the checkpoint file protocol lives, and its
/// order is what makes a crash at any point recoverable:
///
/// 1. the checkpoint file is written — its header, then the borrowed
///    payload, with no copy of it made — and synced (a file torn
///    anywhere fails its length or CRC check and is ignored);
/// 2. the directory is synced, so the file's entry is durable *before*
///    anything older goes — otherwise a crash could persist the removals
///    but not the checkpoint;
/// 3. the old segments and checkpoints are removed, and the directory
///    is synced again (not load-bearing: recovery skips leftover records
///    at or below the checkpoint's epoch, but it keeps removed files from
///    coming back).
///
/// `keep_from_seq` must be a segment the writer rotated to *after* the
/// last record the payload contains ([`Wal::rotate`]'s return value), so
/// every later record lands in a segment this keeps. Everything the
/// function touches goes through `storage`, so it may run on another
/// handle ([`Storage::reopen`]) while the writer keeps appending.
pub fn write_checkpoint(
    storage: &mut dyn Storage,
    epoch: u64,
    generation: u64,
    payload: &[u8],
    keep_from_seq: u64,
) -> io::Result<()> {
    let name = checkpoint_name(epoch);
    let names = storage.list()?;
    // Replace any stale file of the same epoch (possible after a crash
    // mid-checkpoint and replay to the same epoch).
    if names.contains(&name) {
        storage.remove(&name)?;
    }
    storage.append(&name, &Checkpoint::header(epoch, generation, payload))?;
    storage.append(&name, payload)?;
    storage.sync(&name)?;
    storage.sync_dir()?;
    for n in &names {
        let stale = parse_segment_name(n).is_some_and(|seq| seq < keep_from_seq)
            || parse_checkpoint_name(n).is_some_and(|e| e != epoch);
        if stale {
            storage.remove(n)?;
        }
    }
    storage.sync_dir()
}

/// The write-ahead log: appends [`WalRecord`]s to segment files through
/// a [`Storage`], rotating, syncing, and checkpointing per its
/// [`WalConfig`]. Open with [`Wal::open`], which doubles as recovery.
#[derive(Debug)]
pub struct Wal {
    storage: Box<dyn Storage>,
    config: WalConfig,
    active_seq: u64,
    active_name: String,
    active_records: u64,
    unsynced: u64,
    /// A segment may exist whose directory entry is not yet durable: a
    /// record synced into it is not durable either until the directory
    /// is synced. Set by [`Wal::rotate`] and by [`Wal::open`] (which
    /// cannot know about segments it did not create); cleared by the
    /// directory sync in [`Wal::sync`], or by a checkpoint's directory
    /// sync that covered every segment ([`Wal::checkpoint_written`]).
    dir_sync_pending: bool,
    stats: WalStats,
}

impl Wal {
    /// Opens (or creates) the log in `storage` and recovers whatever it
    /// holds: the newest valid checkpoint plus every whole,
    /// CRC-verified record after it. Torn tails and corrupt records are
    /// truncated away — physically, so the next append continues from a
    /// clean frame boundary.
    pub fn open(storage: Box<dyn Storage>, config: WalConfig) -> io::Result<(Wal, Recovery)> {
        let mut storage = storage;
        let names = storage.list()?;
        let checkpoint = newest_checkpoint(&*storage, &names);

        // Scan segments in sequence order, stopping at the first corrupt
        // frame: that segment is truncated to its valid prefix and every
        // later segment is dropped whole (its records sit beyond the
        // corruption, so replaying them would apply a non-prefix).
        let mut seg_seqs: Vec<u64> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
        seg_seqs.sort_unstable();
        let mut records = Vec::new();
        let mut records_truncated = 0u64;
        let mut bytes_truncated = 0u64;
        // The last surviving segment: (sequence number, records, length
        // on the medium) — the one the log continues appending into.
        let mut last: Option<(u64, u64, usize)> = None;
        let mut corrupted = false;
        for &seq in &seg_seqs {
            let name = segment_name(seq);
            let bytes = storage.read(&name)?;
            let scan = decode_segment(&bytes);
            if corrupted {
                records_truncated += scan.records.len() as u64;
                bytes_truncated += bytes.len() as u64;
                storage.remove(&name)?;
                continue;
            }
            let count = scan.records.len() as u64;
            records.extend(scan.records);
            let mut len = bytes.len();
            if scan.corrupt {
                bytes_truncated += bytes.len() as u64 - scan.valid_len;
                storage.truncate(&name, scan.valid_len)?;
                corrupted = true;
                // What the medium now holds (a read-only storage keeps
                // the torn bytes).
                len = storage.read(&name)?.len();
            }
            last = Some((seq, count, len));
        }

        drop_checkpointed(&mut records, checkpoint.as_ref());

        let mut stats = WalStats {
            records_recovered: records.len() as u64,
            records_truncated,
            bytes_truncated,
            ..WalStats::default()
        };

        // Continue appending into the last surviving segment — or a
        // fresh one if the log is empty.
        let (active_seq, active_records, active_len) = last.unwrap_or((0, 0, 0));
        let active_name = segment_name(active_seq);
        if active_len == 0 {
            // Fresh log, or a segment torn inside its magic header
            // (truncated to zero above): write the header. Its directory
            // entry is synced before any record in it is acknowledged
            // (`dir_sync_pending`).
            storage.append(&active_name, SEGMENT_MAGIC)?;
            stats.segments_created += 1;
        }

        let recovery = Recovery {
            checkpoint,
            records,
            records_truncated,
            bytes_truncated,
        };
        Ok((
            Wal {
                storage,
                config,
                active_seq,
                active_name,
                active_records,
                unsynced: 0,
                dir_sync_pending: true,
                stats,
            },
            recovery,
        ))
    }

    /// Appends one record, rotating segments and syncing per the
    /// configured policy. When this returns `Ok` under
    /// [`FsyncPolicy::Always`], the record is durable.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        if self.active_records >= self.config.segment_max_records {
            self.rotate()?;
        }
        let frame = record.encode_frame();
        self.storage.append(&self.active_name, &frame)?;
        self.active_records += 1;
        self.unsynced += 1;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += frame.len() as u64;
        match self.config.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Forces all appended records to durable storage now, regardless of
    /// policy — the records' bytes and, if a segment was created since
    /// the directory was last synced, its directory entry.
    pub fn sync(&mut self) -> io::Result<()> {
        self.storage.sync(&self.active_name)?;
        if self.dir_sync_pending {
            self.storage.sync_dir()?;
            self.dir_sync_pending = false;
        }
        self.stats.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Writes a checkpoint capturing `payload` at `epoch` under the
    /// primary `generation` and truncates the log behind it, all before
    /// returning: [`Wal::rotate`], then [`write_checkpoint`] through this
    /// log's own storage handle, then [`Wal::checkpoint_written`]. A
    /// crash at any point leaves either the old state (checkpoint torn or
    /// its entry not durable → ignored at recovery) or the new one
    /// (leftover segments' records filtered by epoch at recovery).
    pub fn checkpoint(&mut self, epoch: u64, generation: u64, payload: &[u8]) -> io::Result<()> {
        let keep_from_seq = self.rotate()?;
        write_checkpoint(
            &mut *self.storage,
            epoch,
            generation,
            payload,
            keep_from_seq,
        )?;
        self.checkpoint_written(keep_from_seq);
        Ok(())
    }

    /// Counts a checkpoint that [`write_checkpoint`] wrote with
    /// `keep_from_seq` from this log's [`Wal::rotate`] — here or through
    /// another handle. Its directory sync covered every segment up to
    /// `keep_from_seq`, so unless the log has rotated since, no
    /// directory sync is owed.
    pub fn checkpoint_written(&mut self, keep_from_seq: u64) {
        self.stats.fsyncs += 1;
        self.stats.checkpoints += 1;
        if self.active_seq == keep_from_seq {
            self.dir_sync_pending = false;
        }
    }

    /// A second handle on this log's storage ([`Storage::reopen`]), for
    /// a checkpointer that runs beside the writer.
    pub fn reopen_storage(&self) -> io::Result<Box<dyn Storage>> {
        self.storage.reopen()
    }

    /// Re-reads the log's current durable state without disturbing it:
    /// the newest valid checkpoint plus every whole record after it, in
    /// epoch order. This is the catch-up read a replication feed serves
    /// from an *open* log — unlike [`Wal::open`] it takes `&self`, never
    /// repairs anything, and tolerates a torn in-flight tail by simply
    /// stopping at it (the torn frame, if any, is the record currently
    /// being appended, which has not been acknowledged yet).
    pub fn tail(&self) -> io::Result<(Option<Checkpoint>, Vec<WalRecord>)> {
        let names = self.storage.list()?;
        let checkpoint = newest_checkpoint(&*self.storage, &names);
        let mut seg_seqs: Vec<u64> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
        seg_seqs.sort_unstable();
        let mut records = Vec::new();
        for &seq in &seg_seqs {
            let bytes = self.storage.read(&segment_name(seq))?;
            let scan = decode_segment(&bytes);
            records.extend(scan.records);
            if scan.corrupt {
                break; // stop at the first torn frame — never a non-prefix
            }
        }
        drop_checkpointed(&mut records, checkpoint.as_ref());
        Ok((checkpoint, records))
    }

    /// Cumulative counters since open.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The configured fsync policy.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Moves the log to a fresh segment (syncing the old one first,
    /// unless the policy is [`FsyncPolicy::Never`]) and returns its
    /// sequence number: every record appended from now on lands at or
    /// above it, which is what a checkpoint of the state so far may keep
    /// from ([`write_checkpoint`]). The new file's directory entry is
    /// synced lazily — by the next [`Wal::sync`], or by a checkpoint's
    /// directory sync, whichever comes first — since nothing in the
    /// segment is acknowledged as durable before one of them.
    pub fn rotate(&mut self) -> io::Result<u64> {
        if !matches!(self.config.fsync, FsyncPolicy::Never) && self.unsynced > 0 {
            self.sync()?;
        }
        self.active_seq += 1;
        self.active_name = segment_name(self.active_seq);
        self.active_records = 0;
        self.storage.append(&self.active_name, SEGMENT_MAGIC)?;
        self.dir_sync_pending = true;
        self.stats.segments_created += 1;
        Ok(self.active_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> WalRecord {
        WalRecord {
            epoch,
            facts: vec![(0, vec![epoch as u32, 1])],
            ne_pairs: vec![],
        }
    }

    fn open_mem(mem: &MemStorage, config: WalConfig) -> (Wal, Recovery) {
        Wal::open(Box::new(mem.clone()), config).unwrap()
    }

    #[test]
    fn append_and_recover_round_trips() {
        let mem = MemStorage::new();
        let (mut wal, empty) = open_mem(&mem, WalConfig::default());
        assert_eq!(
            empty,
            Recovery {
                checkpoint: None,
                records: vec![],
                records_truncated: 0,
                bytes_truncated: 0
            }
        );
        assert_eq!(empty.final_epoch(), 0);
        for e in 1..=5 {
            wal.append(&record(e)).unwrap();
        }
        assert_eq!(wal.stats().records_appended, 5);
        assert_eq!(wal.stats().fsyncs, 5, "Always syncs per record");
        drop(wal);

        let (wal, recovery) = open_mem(&mem, WalConfig::default());
        assert_eq!(recovery.records, (1..=5).map(record).collect::<Vec<_>>());
        assert_eq!(recovery.final_epoch(), 5);
        assert_eq!(wal.stats().records_recovered, 5);
        assert_eq!(wal.stats().bytes_truncated, 0);
    }

    #[test]
    fn fsync_policies_count_syncs() {
        let mem = MemStorage::new();
        let config = WalConfig {
            fsync: FsyncPolicy::EveryN(3),
            ..WalConfig::default()
        };
        let (mut wal, _) = open_mem(&mem, config);
        for e in 1..=7 {
            wal.append(&record(e)).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 2, "7 appends at n=3 sync twice");
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs, 3);

        let mem = MemStorage::new();
        let config = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        };
        let (mut wal, _) = open_mem(&mem, config);
        for e in 1..=7 {
            wal.append(&record(e)).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 0);
    }

    #[test]
    fn segments_rotate_and_all_records_survive() {
        let mem = MemStorage::new();
        let config = WalConfig {
            segment_max_records: 2,
            ..WalConfig::default()
        };
        let (mut wal, _) = open_mem(&mem, config);
        for e in 1..=7 {
            wal.append(&record(e)).unwrap();
        }
        // 7 records at 2 per segment: segments 0..=3 exist.
        assert_eq!(wal.stats().segments_created, 4);
        let segs = mem
            .list()
            .unwrap()
            .iter()
            .filter(|n| parse_segment_name(n).is_some())
            .count();
        assert_eq!(segs, 4);
        drop(wal);
        let (_, recovery) = open_mem(&mem, config);
        assert_eq!(recovery.records.len(), 7);
        assert_eq!(recovery.final_epoch(), 7);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let mem = MemStorage::new();
        let (mut wal, _) = open_mem(&mem, WalConfig::default());
        for e in 1..=3 {
            wal.append(&record(e)).unwrap();
        }
        drop(wal);
        // Tear the last record: chop 3 bytes off the segment.
        let name = segment_name(0);
        let len = mem.read(&name).unwrap().len() as u64;
        let mut handle = mem.clone();
        handle.truncate(&name, len - 3).unwrap();

        let (mut wal, recovery) = open_mem(&mem, WalConfig::default());
        assert_eq!(recovery.records.len(), 2);
        assert_eq!(recovery.final_epoch(), 2);
        assert!(recovery.bytes_truncated > 0);
        assert_eq!(recovery.records_truncated, 0);
        // The log continues cleanly from the truncation point.
        wal.append(&record(3)).unwrap();
        drop(wal);
        let (_, again) = open_mem(&mem, WalConfig::default());
        assert_eq!(again.records.len(), 3);
        assert_eq!(again.bytes_truncated, 0);
    }

    #[test]
    fn mid_log_corruption_drops_later_segments() {
        let mem = MemStorage::new();
        let config = WalConfig {
            segment_max_records: 2,
            ..WalConfig::default()
        };
        let (mut wal, _) = open_mem(&mem, config);
        for e in 1..=6 {
            wal.append(&record(e)).unwrap();
        }
        drop(wal);
        // Corrupt the middle segment (seq 1, records 3 and 4) by tearing
        // its second record.
        let name = segment_name(1);
        let len = mem.read(&name).unwrap().len() as u64;
        mem.clone().truncate(&name, len - 1).unwrap();

        let (_, recovery) = open_mem(&mem, config);
        // Records 1..=3 survive; 4 is torn; 5..=6 sit beyond the tear and
        // are dropped whole.
        assert_eq!(recovery.records.len(), 3);
        assert_eq!(recovery.final_epoch(), 3);
        assert_eq!(recovery.records_truncated, 2);
        assert!(recovery.bytes_truncated > 0);
        // The dropped segment is gone from storage.
        assert!(!mem.list().unwrap().contains(&segment_name(2)));
    }

    #[test]
    fn checkpoint_truncates_older_state() {
        let mem = MemStorage::new();
        let (mut wal, _) = open_mem(&mem, WalConfig::default());
        for e in 1..=4 {
            wal.append(&record(e)).unwrap();
        }
        wal.checkpoint(4, 2, b"state at four").unwrap();
        for e in 5..=6 {
            wal.append(&record(e)).unwrap();
        }
        assert_eq!(wal.stats().checkpoints, 1);
        drop(wal);

        let (_, recovery) = open_mem(&mem, WalConfig::default());
        let ckpt = recovery.checkpoint.as_ref().unwrap();
        assert_eq!(ckpt.epoch, 4);
        assert_eq!(ckpt.generation, 2);
        assert_eq!(ckpt.payload, b"state at four");
        assert_eq!(
            recovery.records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![5, 6]
        );
        assert_eq!(recovery.final_epoch(), 6);
        // Only the post-checkpoint segment and the one checkpoint remain.
        let names = mem.list().unwrap();
        assert_eq!(
            names
                .iter()
                .filter(|n| parse_segment_name(n).is_some())
                .count(),
            1
        );
        assert_eq!(
            names
                .iter()
                .filter(|n| parse_checkpoint_name(n).is_some())
                .count(),
            1
        );
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_state() {
        let mem = MemStorage::new();
        let (mut wal, _) = open_mem(&mem, WalConfig::default());
        for e in 1..=3 {
            wal.append(&record(e)).unwrap();
        }
        drop(wal);
        // Hand-write a torn checkpoint claiming epoch 99.
        let bytes = Checkpoint {
            epoch: 99,
            generation: 1,
            payload: b"never finished".to_vec(),
        }
        .encode();
        mem.clone()
            .append(&checkpoint_name(99), &bytes[..bytes.len() - 2])
            .unwrap();

        let (_, recovery) = open_mem(&mem, WalConfig::default());
        assert_eq!(recovery.checkpoint, None);
        assert_eq!(recovery.records.len(), 3);
    }

    #[test]
    fn crash_during_checkpoint_removal_recovers_consistently() {
        let mem = MemStorage::new();
        let config = WalConfig {
            segment_max_records: 2,
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open(
            Box::new(FaultyStorage::new(
                mem.clone(),
                FaultPlan::crash_on_remove(1),
            )),
            config,
        )
        .unwrap();
        for e in 1..=5 {
            wal.append(&record(e)).unwrap();
        }
        // The checkpoint file lands and syncs; the first removal dies.
        let err = wal.checkpoint(5, 1, b"at five").unwrap_err();
        assert_eq!(err.kind(), INJECTED_CRASH);
        drop(wal);

        let (_, recovery) = open_mem(&mem, config);
        let ckpt = recovery.checkpoint.as_ref().unwrap();
        assert_eq!(ckpt.epoch, 5);
        // Leftover pre-checkpoint records are filtered out by epoch.
        assert_eq!(recovery.records, vec![]);
        assert_eq!(recovery.final_epoch(), 5);
    }

    #[test]
    fn crash_at_every_byte_recovers_a_prefix() {
        // The exhaustive sweep in miniature: run the workload cleanly to
        // learn the byte count, then crash at every offset and assert
        // recovery yields a prefix of the record sequence.
        let mem = MemStorage::new();
        let (mut wal, _) = open_mem(&mem, WalConfig::default());
        for e in 1..=4 {
            wal.append(&record(e)).unwrap();
        }
        let total = mem.total_bytes();
        drop(wal);

        for crash_at in 0..=total {
            let mem = MemStorage::new();
            let storage = FaultyStorage::new(mem.clone(), FaultPlan::crash_after_bytes(crash_at));
            let mut acked = 0u64;
            if let Ok((mut wal, _)) = Wal::open(Box::new(storage), WalConfig::default()) {
                for e in 1..=4 {
                    match wal.append(&record(e)) {
                        Ok(()) => acked = e,
                        Err(_) => break,
                    }
                }
            }
            let (_, recovery) = open_mem(&mem, WalConfig::default());
            let epochs: Vec<u64> = recovery.records.iter().map(|r| r.epoch).collect();
            let expect: Vec<u64> = (1..=epochs.len() as u64).collect();
            assert_eq!(epochs, expect, "crash at byte {crash_at}: not a prefix");
            assert!(
                epochs.len() as u64 >= acked,
                "crash at byte {crash_at}: acked {acked} but only {} recovered",
                epochs.len()
            );
        }
    }

    /// The power-loss sweep at the log level, one thread, deterministic:
    /// segments of two records, a checkpoint after the third, `Always`,
    /// and a crash at every sync (file or directory), every remove and
    /// every byte. Recovery must keep every acknowledged record, in
    /// order after the checkpoint it starts from, whether unsynced
    /// removals come back or persist.
    #[test]
    fn power_loss_at_every_point_keeps_every_acknowledged_record() {
        let config = WalConfig {
            segment_max_records: 2,
            ..WalConfig::default()
        };
        let run = |plan: FaultPlan| {
            let mem = MemStorage::new();
            let faulty = FaultyStorage::new(mem.clone(), plan);
            let mut acked = 0;
            if let Ok((mut wal, _)) = Wal::open(Box::new(faulty.clone()), config) {
                for e in 1..=6 {
                    let step = wal.append(&record(e)).and_then(|()| match e {
                        3 => wal.checkpoint(3, 1, b"at three"),
                        _ => Ok(()),
                    });
                    if step.is_err() {
                        break;
                    }
                    acked = e;
                }
            }
            (mem, acked, faulty.crashed(), faulty.bytes_appended())
        };
        let check = |plan: FaultPlan| {
            let (mem, acked, crashed, _) = run(plan);
            let (_, recovery) = open_mem(&mem, config);
            let from = recovery.checkpoint.as_ref().map_or(0, |c| c.epoch);
            let epochs: Vec<u64> = recovery.records.iter().map(|r| r.epoch).collect();
            let expect: Vec<u64> = (from + 1..=recovery.final_epoch()).collect();
            assert_eq!(epochs, expect, "{plan:?}: not a prefix");
            assert!(
                recovery.final_epoch() >= acked,
                "{plan:?}: acked {acked}, recovered {}",
                recovery.final_epoch()
            );
            crashed
        };
        let (_, acked, _, total) = run(FaultPlan::default());
        assert_eq!(acked, 6);
        for kind in [PowerLoss::Revert, PowerLoss::KeepRemovals] {
            for k in 0..=total {
                check(FaultPlan::crash_after_bytes(k).with_power_loss(kind));
            }
            let mut n = 1;
            while check(FaultPlan::crash_on_sync(n).with_power_loss(kind)) {
                n += 1;
            }
            assert!(n > 10, "the sweep reached {n} syncs");
            let mut n = 1;
            while check(FaultPlan::crash_on_remove(n).with_power_loss(kind)) {
                n += 1;
            }
            assert!(n > 2, "the sweep reached {n} removes");
        }
    }

    #[test]
    fn tail_reads_the_open_log_without_disturbing_it() {
        let mem = MemStorage::new();
        let config = WalConfig {
            segment_max_records: 2,
            ..WalConfig::default()
        };
        let (mut wal, _) = open_mem(&mem, config);
        // Empty log: nothing yet.
        let (ckpt, records) = wal.tail().unwrap();
        assert!(ckpt.is_none() && records.is_empty());
        for e in 1..=3 {
            wal.append(&record(e)).unwrap();
        }
        let (ckpt, records) = wal.tail().unwrap();
        assert!(ckpt.is_none());
        assert_eq!(
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        // After a checkpoint the tail starts from it.
        wal.checkpoint(3, 1, b"at three").unwrap();
        for e in 4..=5 {
            wal.append(&record(e)).unwrap();
        }
        let (ckpt, records) = wal.tail().unwrap();
        let ckpt = ckpt.unwrap();
        assert_eq!((ckpt.epoch, ckpt.generation), (3, 1));
        assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), [4, 5]);
        // A torn in-flight frame stops the scan but changes nothing on
        // the medium, and the wal keeps appending where it was.
        let name = segment_name(wal.active_seq);
        mem.clone().append(&name, &[0xFF, 0x01, 0x02]).unwrap();
        let (_, torn_tail) = wal.tail().unwrap();
        assert_eq!(
            torn_tail.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            [4, 5]
        );
    }

    #[test]
    fn has_state_requires_a_checkpoint_that_decodes() {
        let mem = MemStorage::new();
        assert!(!has_state(&mem).unwrap(), "empty directory");

        // A torn checkpoint — a crash during the seed write — is not
        // state: the front-end should re-seed, not refuse to start.
        let bytes = Checkpoint {
            epoch: 0,
            generation: 1,
            payload: b"seed".to_vec(),
        }
        .encode();
        mem.clone()
            .append(&checkpoint_name(0), &bytes[..bytes.len() - 1])
            .unwrap();
        assert!(!has_state(&mem).unwrap(), "torn checkpoint only");

        // A valid one (any epoch) is.
        mem.clone().append(&checkpoint_name(7), &bytes).unwrap();
        assert!(has_state(&mem).unwrap());
    }

    #[test]
    fn read_only_open_scans_without_repairing() {
        let mem = MemStorage::new();
        let (mut wal, _) = open_mem(&mem, WalConfig::default());
        for e in 1..=3 {
            wal.append(&record(e)).unwrap();
        }
        drop(wal);
        // Tear the last record.
        let name = segment_name(0);
        let len = mem.read(&name).unwrap().len() as u64;
        mem.clone().truncate(&name, len - 3).unwrap();
        let torn = mem.read(&name).unwrap();

        let (_, recovery) = Wal::open(
            Box::new(ReadOnlyStorage::new(mem.clone())),
            WalConfig::default(),
        )
        .unwrap();
        // Same recovery result as a repairing open…
        assert_eq!(recovery.records.len(), 2);
        assert_eq!(recovery.final_epoch(), 2);
        assert!(recovery.bytes_truncated > 0);
        // …but the torn tail is still on the medium, untouched.
        assert_eq!(mem.read(&name).unwrap(), torn);

        // A plain open afterwards repairs it physically.
        let (_, again) = open_mem(&mem, WalConfig::default());
        assert_eq!(again.records.len(), 2);
        assert!(mem.read(&name).unwrap().len() < torn.len());
    }

    #[test]
    fn stats_display_mentions_the_counters() {
        let line = WalStats {
            records_appended: 3,
            bytes_appended: 120,
            fsyncs: 3,
            checkpoints: 1,
            segments_created: 2,
            records_recovered: 0,
            records_truncated: 0,
            bytes_truncated: 0,
        }
        .to_string();
        assert!(line.contains("3 record(s) appended"), "{line}");
        assert!(line.contains("1 checkpoint(s)"), "{line}");
    }
}
