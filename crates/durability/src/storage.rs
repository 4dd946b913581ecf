//! The injectable storage layer: every byte the WAL persists flows
//! through the [`Storage`] trait, so the same log code runs against real
//! files ([`DiskStorage`]), an in-process map ([`MemStorage`]), or a
//! deterministic crash simulator ([`FaultyStorage`]).
//!
//! The trait models exactly the operations an append-only log needs —
//! list/read/append/sync/truncate/remove over flat file names, plus a
//! directory-entry sync for media that distinguish file content from
//! namespace durability, plus a second handle on the same files for a
//! background checkpointer — and nothing more. Keeping the surface this
//! small is what makes the fault-injection implementation *exhaustive*:
//! a crash can be placed at any byte of any append, at any sync and at
//! any remove, and recovery sees precisely the bytes that were persisted
//! before it — or, under a simulated power loss, only the ones a sync
//! made durable.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Flat-namespace file storage for the WAL. Names never contain path
/// separators; implementations map them onto whatever medium they wrap.
///
/// The durability contract is the usual one: [`Storage::append`] makes
/// bytes *visible* to a subsequent [`Storage::read`], but only
/// [`Storage::sync`] makes them *durable* across a crash. Fault
/// injectors exploit the gap deliberately.
pub trait Storage: fmt::Debug + Send {
    /// Every file name currently stored, in unspecified order.
    fn list(&self) -> io::Result<Vec<String>>;
    /// The full contents of `name` (`NotFound` if absent).
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Appends `data` to `name`, creating it if absent.
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Forces previously appended bytes of `name` to durable storage.
    fn sync(&mut self, name: &str) -> io::Result<()>;
    /// Forces the *namespace itself* to durable storage: on POSIX,
    /// syncing a file does not persist its directory entry, so a newly
    /// created (or removed) file can vanish across a crash even though
    /// its bytes were synced. Implementations backed by a real
    /// directory fsync it; the default is a no-op for media without the
    /// distinction (in-memory maps).
    fn sync_dir(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Shrinks `name` to `len` bytes (no-op if already shorter).
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;
    /// Deletes `name` (`NotFound` if absent).
    fn remove(&mut self, name: &str) -> io::Result<()>;
    /// A second, independent handle on the same files: what one handle
    /// appends, removes or syncs, the other sees. The log's background
    /// checkpointer writes through one while the writer appends through
    /// the other.
    fn reopen(&self) -> io::Result<Box<dyn Storage>>;
}

/// Real files under one root directory, via `std::fs`.
#[derive(Debug)]
pub struct DiskStorage {
    root: PathBuf,
    /// The file last appended to, kept open in append mode: a log writes
    /// one segment many times in a row, and opening it per record cost an
    /// `openat` and a `close` per write. [`Storage::remove`] and
    /// [`Storage::truncate`] of that name drop it first, so the handle
    /// never outlives the directory entry it was opened through.
    open: Option<(String, fs::File)>,
}

impl DiskStorage {
    /// Opens (creating if needed) the directory the log lives in.
    pub fn open(root: impl AsRef<Path>) -> io::Result<DiskStorage> {
        fs::create_dir_all(root.as_ref())?;
        Ok(DiskStorage {
            root: root.as_ref().to_path_buf(),
            open: None,
        })
    }

    /// The directory this storage is rooted at.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// The append handle of `name`: the kept one, or a fresh one that
    /// replaces it.
    fn appender(&mut self, name: &str) -> io::Result<&mut fs::File> {
        if !matches!(&self.open, Some((open, _)) if open == name) {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(name))?;
            self.open = Some((name.to_string(), file));
        }
        Ok(&mut self.open.as_mut().expect("the slot holds `name`").1)
    }

    /// Drops the kept handle if it is `name`'s.
    fn close(&mut self, name: &str) {
        if matches!(&self.open, Some((open, _)) if open == name) {
            self.open = None;
        }
    }
}

impl Storage for DiskStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path(name))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        use io::Write;
        self.appender(name)?.write_all(data)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.appender(name)?.sync_all()
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        fs::File::open(&self.root)?.sync_all()
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.close(name);
        let file = fs::OpenOptions::new().write(true).open(self.path(name))?;
        if file.metadata()?.len() > len {
            file.set_len(len)?;
            file.sync_all()?;
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.close(name);
        fs::remove_file(self.path(name))
    }

    fn reopen(&self) -> io::Result<Box<dyn Storage>> {
        Ok(Box::new(DiskStorage::open(&self.root)?))
    }
}

/// In-memory storage: a shared map of name → bytes.
///
/// Clones share the same underlying map, which is the crash-simulation
/// hook: wrap one handle in a [`FaultyStorage`], drive it until the
/// injected crash kills it, then open a *fresh* clone of the same
/// [`MemStorage`] for recovery — exactly the bytes persisted before the
/// crash are still there, and nothing else.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemStorage {
    /// A fresh, empty in-memory store.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Total bytes across all files (test instrumentation).
    pub fn total_bytes(&self) -> u64 {
        let files = self.files.lock().expect("mem storage poisoned");
        files.values().map(|v| v.len() as u64).sum()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.files.lock().expect("mem storage poisoned")
    }
}

impl Storage for MemStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.lock().keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.lock()
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}")))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.lock()
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        if let Some(bytes) = self.lock().get_mut(name) {
            if bytes.len() as u64 > len {
                bytes.truncate(len as usize);
            }
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}")))
    }

    fn reopen(&self) -> io::Result<Box<dyn Storage>> {
        Ok(Box::new(self.clone()))
    }
}

/// Where a [`FaultyStorage`] is scheduled to fail.
///
/// All triggers are cumulative across files and calls, which is what
/// exhaustive crash-point testing wants: `crash_after_bytes(k)` for every
/// `k` up to the clean run's total byte count places a torn write at
/// every possible offset of the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crash once this many cumulative bytes have been appended: the
    /// append that crosses the threshold persists only the prefix up to
    /// it (a torn write), then the storage is dead.
    pub crash_after_bytes: Option<u64>,
    /// Fail the nth sync (1-based) — [`Storage::sync`] and
    /// [`Storage::sync_dir`] count alike — then die.
    pub crash_on_sync: Option<u64>,
    /// Fail the nth [`Storage::remove`] call (1-based), then die — this
    /// lands a crash in the middle of checkpoint truncation.
    pub crash_on_remove: Option<u64>,
    /// Fail the nth [`Storage::append`] call (1-based) *transiently*:
    /// nothing is persisted, the error is returned, and the storage
    /// stays alive — a later append succeeds. This models a recoverable
    /// medium error (ENOSPC, a blip) rather than a process crash, and
    /// exists to prove the engine never trusts a storage again after
    /// one lost write.
    pub fail_append_nth: Option<u64>,
    /// Make the crash a power loss: what no sync made durable is lost
    /// (see [`PowerLoss`]). `None` keeps every byte and namespace change
    /// made before the crash, as a killed process would.
    pub power_loss: Option<PowerLoss>,
}

/// What a simulated power loss keeps. Either way each surviving file
/// reverts to the length its last [`Storage::sync`] (or shrinking
/// [`Storage::truncate`]) made durable, and a file created since the
/// last [`Storage::sync_dir`] vanishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerLoss {
    /// A file removed since the last `sync_dir` reappears with its
    /// synced bytes: no namespace change outlives the crash unsynced.
    Revert,
    /// Removals since the last `sync_dir` persist while creations do
    /// not — the worst case for a protocol that removes old files before
    /// the new file's directory entry is durable.
    KeepRemovals,
}

impl FaultPlan {
    /// A plan that tears the append crossing byte `k` and dies.
    pub fn crash_after_bytes(k: u64) -> FaultPlan {
        FaultPlan {
            crash_after_bytes: Some(k),
            ..FaultPlan::default()
        }
    }

    /// A plan that fails the nth sync (1-based) and dies.
    pub fn crash_on_sync(n: u64) -> FaultPlan {
        FaultPlan {
            crash_on_sync: Some(n),
            ..FaultPlan::default()
        }
    }

    /// A plan that fails the nth remove (1-based) and dies.
    pub fn crash_on_remove(n: u64) -> FaultPlan {
        FaultPlan {
            crash_on_remove: Some(n),
            ..FaultPlan::default()
        }
    }

    /// A plan that fails the nth append (1-based) transiently, leaving
    /// the storage alive afterwards.
    pub fn fail_append(n: u64) -> FaultPlan {
        FaultPlan {
            fail_append_nth: Some(n),
            ..FaultPlan::default()
        }
    }

    /// This plan with its crash made a power loss of the given kind.
    pub fn with_power_loss(self, kind: PowerLoss) -> FaultPlan {
        FaultPlan {
            power_loss: Some(kind),
            ..self
        }
    }
}

/// The error kind every injected fault surfaces as.
pub const INJECTED_CRASH: io::ErrorKind = io::ErrorKind::Other;

fn injected() -> io::Error {
    io::Error::new(INJECTED_CRASH, "injected crash")
}

/// Deterministic fault injection over a [`MemStorage`]: follows a
/// [`FaultPlan`], persists exactly the bytes a real crash would have
/// persisted (or, under [`FaultPlan::power_loss`], only what was
/// synced), and fails every operation once the crash point is reached.
///
/// Clones — and [`Storage::reopen`] — share one fault state: the plan's
/// counters run across every handle, and a crash through one kills them
/// all, like the process that was killed. After the simulated crash,
/// recover from a clone of the underlying [`MemStorage`].
///
/// Files that already exist when the wrapper is made count as durable,
/// bytes and directory entry alike.
#[derive(Debug, Clone)]
pub struct FaultyStorage {
    inner: MemStorage,
    state: Arc<Mutex<FaultState>>,
}

/// The counters and durability bookkeeping the handles of one
/// [`FaultyStorage`] share.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    appended: u64,
    appends: u64,
    syncs: u64,
    removes: u64,
    dead: bool,
    /// Per live file, the length a sync made durable.
    synced: BTreeMap<String, u64>,
    /// Files created since the last `sync_dir`.
    created: BTreeSet<String>,
    /// Files removed since the last `sync_dir` that were durable, with
    /// their synced bytes.
    removed: BTreeMap<String, Vec<u8>>,
}

impl FaultState {
    fn alive(&self) -> io::Result<()> {
        if self.dead {
            Err(injected())
        } else {
            Ok(())
        }
    }

    /// Kills every handle. Under a power-loss plan, `files` first loses
    /// whatever no sync made durable.
    fn crash(&mut self, files: &mut BTreeMap<String, Vec<u8>>) -> io::Error {
        self.dead = true;
        if let Some(kind) = self.plan.power_loss {
            files.retain(|name, bytes| {
                bytes.truncate(self.synced.get(name).copied().unwrap_or(0) as usize);
                !self.created.contains(name)
            });
            if kind == PowerLoss::Revert {
                files.extend(std::mem::take(&mut self.removed));
            }
        }
        injected()
    }

    /// Counts one sync of either kind, crashing if the plan says so.
    fn sync_point(&mut self, files: &mut BTreeMap<String, Vec<u8>>) -> io::Result<()> {
        self.alive()?;
        self.syncs += 1;
        if self.plan.crash_on_sync.is_some_and(|n| self.syncs >= n) {
            return Err(self.crash(files));
        }
        Ok(())
    }
}

impl FaultyStorage {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: MemStorage, plan: FaultPlan) -> FaultyStorage {
        let synced = inner
            .lock()
            .iter()
            .map(|(name, bytes)| (name.clone(), bytes.len() as u64))
            .collect();
        let state = FaultState {
            plan,
            appended: 0,
            appends: 0,
            syncs: 0,
            removes: 0,
            dead: false,
            synced,
            created: BTreeSet::new(),
            removed: BTreeMap::new(),
        };
        FaultyStorage {
            inner,
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.lock().dead
    }

    /// Cumulative bytes appended (including the torn prefix).
    pub fn bytes_appended(&self) -> u64 {
        self.lock().appended
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault state poisoned")
    }
}

impl Storage for FaultyStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        let state = self.lock();
        state.alive()?;
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let state = self.lock();
        state.alive()?;
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        state.alive()?;
        state.appends += 1;
        if state.plan.fail_append_nth == Some(state.appends) {
            // Transient: nothing persisted, storage stays alive.
            return Err(injected());
        }
        let mut files = self.inner.lock();
        if !files.contains_key(name) {
            state.created.insert(name.to_string());
            state.synced.insert(name.to_string(), 0);
        }
        // A torn write persists only the prefix up to the crash point.
        let room = state
            .plan
            .crash_after_bytes
            .map_or(u64::MAX, |limit| limit.saturating_sub(state.appended));
        let keep = data.len().min(usize::try_from(room).unwrap_or(usize::MAX));
        files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(&data[..keep]);
        state.appended += keep as u64;
        if keep < data.len() {
            return Err(state.crash(&mut files));
        }
        Ok(())
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let mut state = self.lock();
        let mut files = self.inner.lock();
        state.sync_point(&mut files)?;
        if let Some(bytes) = files.get(name) {
            state.synced.insert(name.to_string(), bytes.len() as u64);
        }
        Ok(())
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        let mut state = self.lock();
        state.sync_point(&mut self.inner.lock())?;
        state.created.clear();
        state.removed.clear();
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        let mut state = self.lock();
        state.alive()?;
        if let Some(bytes) = self.inner.lock().get_mut(name) {
            if bytes.len() as u64 > len {
                // A shrink is synced on the spot (as `DiskStorage` does).
                bytes.truncate(len as usize);
                state.synced.insert(name.to_string(), len);
            }
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        let mut state = self.lock();
        state.alive()?;
        state.removes += 1;
        let mut files = self.inner.lock();
        if state
            .plan
            .crash_on_remove
            .is_some_and(|n| state.removes >= n)
        {
            return Err(state.crash(&mut files));
        }
        let mut bytes = files.remove(name).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
        })?;
        bytes.truncate(state.synced.remove(name).unwrap_or(0) as usize);
        if !state.created.remove(name) {
            state.removed.entry(name.to_string()).or_insert(bytes);
        }
        Ok(())
    }

    fn reopen(&self) -> io::Result<Box<dyn Storage>> {
        Ok(Box::new(self.clone()))
    }
}

/// A storage wrapper that reads the underlying medium but silently
/// drops every mutation (append/sync/truncate/remove become no-ops).
///
/// This turns [`Wal::open`](crate::Wal::open) into a pure scan: the
/// same recovery result is computed (decoding stops at the first bad
/// frame either way), but torn tails are not physically truncated,
/// post-corruption segments are not deleted, and no fresh segment
/// header is written — the evidence of a crash survives inspection.
/// `qld recover --read-only` is built on this.
#[derive(Debug)]
pub struct ReadOnlyStorage(Box<dyn Storage>);

impl ReadOnlyStorage {
    /// Wraps `inner`, exposing its contents immutably.
    pub fn new(inner: impl Storage + 'static) -> ReadOnlyStorage {
        ReadOnlyStorage(Box::new(inner))
    }
}

impl Storage for ReadOnlyStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        self.0.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.0.read(name)
    }

    fn append(&mut self, _name: &str, _data: &[u8]) -> io::Result<()> {
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, _name: &str, _len: u64) -> io::Result<()> {
        Ok(())
    }

    fn remove(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn reopen(&self) -> io::Result<Box<dyn Storage>> {
        Ok(Box::new(ReadOnlyStorage(self.0.reopen()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trips_and_shares() {
        let mut a = MemStorage::new();
        a.append("f", b"hello").unwrap();
        a.append("f", b" world").unwrap();
        let b = a.clone();
        assert_eq!(b.read("f").unwrap(), b"hello world");
        assert_eq!(b.list().unwrap(), vec!["f".to_string()]);
        let mut b = b;
        b.truncate("f", 5).unwrap();
        assert_eq!(a.read("f").unwrap(), b"hello");
        b.truncate("f", 100).unwrap(); // no-op past the end
        assert_eq!(a.total_bytes(), 5);
        b.remove("f").unwrap();
        assert_eq!(a.read("f").unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(b.remove("f").unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn faulty_storage_tears_the_crossing_append() {
        let mem = MemStorage::new();
        let mut faulty = FaultyStorage::new(mem.clone(), FaultPlan::crash_after_bytes(7));
        faulty.append("f", b"hello").unwrap(); // 5 bytes, under the limit
        let err = faulty.append("f", b"world").unwrap_err();
        assert_eq!(err.kind(), INJECTED_CRASH);
        assert!(faulty.crashed());
        // Exactly two bytes of the torn append survived.
        assert_eq!(mem.read("f").unwrap(), b"hellowo");
        // Everything after the crash fails.
        assert_eq!(faulty.read("f").unwrap_err().kind(), INJECTED_CRASH);
        assert_eq!(faulty.append("f", b"x").unwrap_err().kind(), INJECTED_CRASH);
        assert_eq!(faulty.sync("f").unwrap_err().kind(), INJECTED_CRASH);
        // The shared map is untouched by the dead handle.
        assert_eq!(mem.read("f").unwrap(), b"hellowo");
    }

    #[test]
    fn faulty_storage_crash_at_exact_boundary_keeps_full_record() {
        let mem = MemStorage::new();
        let mut faulty = FaultyStorage::new(mem.clone(), FaultPlan::crash_after_bytes(5));
        faulty.append("f", b"hello").unwrap(); // lands exactly on the limit
        let err = faulty.append("f", b"x").unwrap_err();
        assert_eq!(err.kind(), INJECTED_CRASH);
        assert_eq!(mem.read("f").unwrap(), b"hello");
    }

    #[test]
    fn faulty_storage_sync_and_remove_triggers() {
        let mem = MemStorage::new();
        let mut faulty = FaultyStorage::new(mem.clone(), FaultPlan::crash_on_sync(2));
        faulty.append("f", b"a").unwrap();
        faulty.sync("f").unwrap();
        assert_eq!(faulty.sync("f").unwrap_err().kind(), INJECTED_CRASH);
        assert!(faulty.crashed());

        let mut faulty = FaultyStorage::new(mem.clone(), FaultPlan::crash_on_remove(1));
        assert_eq!(faulty.remove("f").unwrap_err().kind(), INJECTED_CRASH);
        assert_eq!(mem.read("f").unwrap(), b"a", "remove must not reach disk");
    }

    #[test]
    fn transient_append_failure_leaves_storage_alive() {
        let mem = MemStorage::new();
        let mut faulty = FaultyStorage::new(mem.clone(), FaultPlan::fail_append(2));
        faulty.append("f", b"one").unwrap();
        // The second append fails without persisting anything…
        assert_eq!(
            faulty.append("f", b"two").unwrap_err().kind(),
            INJECTED_CRASH
        );
        assert!(!faulty.crashed(), "a transient failure is not a crash");
        assert_eq!(mem.read("f").unwrap(), b"one");
        // …and the storage works again afterwards.
        faulty.append("f", b"three").unwrap();
        faulty.sync("f").unwrap();
        assert_eq!(mem.read("f").unwrap(), b"onethree");
    }

    #[test]
    fn handles_share_one_fault_state() {
        let mem = MemStorage::new();
        let mut writer = FaultyStorage::new(mem.clone(), FaultPlan::crash_on_sync(2));
        let mut second = writer.reopen().unwrap();
        writer.append("f", b"a").unwrap();
        second.sync("f").unwrap(); // sync 1, through the other handle
                                   // Sync 2 crashes, and the crash kills both handles.
        assert_eq!(writer.sync_dir().unwrap_err().kind(), INJECTED_CRASH);
        assert!(writer.crashed());
        assert_eq!(second.list().unwrap_err().kind(), INJECTED_CRASH);
    }

    /// Lays out the cases a power loss distinguishes, then crashes on
    /// the next sync: `old` (durable before the wrapper, grown
    /// unsynced), `gone` (durable, removed), `synced` (created, synced,
    /// entry synced, grown unsynced), `fresh` (created and synced after
    /// the last directory sync).
    fn lose_power(kind: PowerLoss) -> MemStorage {
        let mut mem = MemStorage::new();
        mem.append("old", b"kept").unwrap();
        mem.append("gone", b"durable").unwrap();
        let plan = FaultPlan::crash_on_sync(4).with_power_loss(kind);
        let mut faulty = FaultyStorage::new(mem.clone(), plan);
        faulty.append("old", b" lost").unwrap();
        faulty.append("synced", b"123").unwrap();
        faulty.sync("synced").unwrap();
        faulty.sync_dir().unwrap();
        faulty.append("synced", b"45").unwrap();
        faulty.remove("gone").unwrap();
        faulty.append("fresh", b"x").unwrap();
        faulty.sync("fresh").unwrap();
        assert_eq!(
            faulty.sync("synced").unwrap_err().kind(),
            INJECTED_CRASH,
            "the fourth sync"
        );
        mem
    }

    #[test]
    fn power_loss_keeps_only_what_was_synced() {
        let mem = lose_power(PowerLoss::Revert);
        assert_eq!(mem.read("old").unwrap(), b"kept");
        assert_eq!(mem.read("synced").unwrap(), b"123");
        assert_eq!(mem.read("gone").unwrap(), b"durable", "removal undone");
        assert_eq!(
            mem.read("fresh").unwrap_err().kind(),
            io::ErrorKind::NotFound,
            "creation undone"
        );

        let mem = lose_power(PowerLoss::KeepRemovals);
        assert_eq!(mem.list().unwrap(), ["old", "synced"]);
        assert_eq!(mem.read("synced").unwrap(), b"123");

        // Without a power loss the crash keeps everything.
        let mut mem = MemStorage::new();
        mem.append("f", b"ab").unwrap();
        let mut faulty = FaultyStorage::new(mem.clone(), FaultPlan::crash_on_sync(1));
        faulty.append("f", b"cd").unwrap();
        faulty.append("g", b"e").unwrap();
        assert!(faulty.sync_dir().is_err());
        assert_eq!(mem.read("f").unwrap(), b"abcd");
        assert_eq!(mem.read("g").unwrap(), b"e");
    }

    #[test]
    fn read_only_storage_reads_but_never_writes() {
        let mut mem = MemStorage::new();
        mem.append("f", b"bytes").unwrap();
        let mut ro = ReadOnlyStorage::new(mem.clone());
        assert_eq!(ro.read("f").unwrap(), b"bytes");
        assert_eq!(ro.list().unwrap(), vec!["f".to_string()]);
        ro.append("f", b"more").unwrap();
        ro.truncate("f", 1).unwrap();
        ro.remove("f").unwrap();
        ro.sync("f").unwrap();
        ro.sync_dir().unwrap();
        assert_eq!(mem.read("f").unwrap(), b"bytes", "mutations must not land");
    }

    #[test]
    fn disk_storage_round_trips() {
        let root = std::env::temp_dir().join(format!("qld_wal_storage_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut disk = DiskStorage::open(&root).unwrap();
        assert!(disk.list().unwrap().is_empty());
        disk.append("wal-0", b"abc").unwrap();
        disk.append("wal-0", b"def").unwrap();
        disk.sync("wal-0").unwrap();
        disk.sync_dir().unwrap();
        assert_eq!(disk.read("wal-0").unwrap(), b"abcdef");
        disk.truncate("wal-0", 4).unwrap();
        assert_eq!(disk.read("wal-0").unwrap(), b"abcd");
        disk.append("ckpt-1", b"x").unwrap();
        let mut names = disk.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["ckpt-1".to_string(), "wal-0".to_string()]);
        disk.remove("ckpt-1").unwrap();
        assert_eq!(disk.list().unwrap(), vec!["wal-0".to_string()]);
        assert_eq!(
            disk.read("missing").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );

        // The kept append handle follows the last name appended to and
        // never outlives a remove or a truncate of that name.
        disk.append("a", b"1").unwrap();
        disk.append("b", b"2").unwrap();
        disk.append("a", b"3").unwrap();
        assert_eq!(disk.read("a").unwrap(), b"13");
        assert_eq!(disk.read("b").unwrap(), b"2");
        disk.remove("a").unwrap();
        disk.append("a", b"new").unwrap();
        assert_eq!(disk.read("a").unwrap(), b"new", "remove then append");
        disk.truncate("a", 1).unwrap();
        disk.append("a", b"xy").unwrap();
        disk.sync("a").unwrap();
        assert_eq!(disk.read("a").unwrap(), b"nxy", "truncate then append");
        assert_eq!(disk.root(), root.as_path());
        fs::remove_dir_all(&root).unwrap();
    }
}
