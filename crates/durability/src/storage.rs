//! The injectable storage layer: every byte the WAL persists flows
//! through the [`Storage`] trait, so the same log code runs against real
//! files ([`DiskStorage`]), an in-process map ([`MemStorage`]), or a
//! deterministic crash simulator ([`FaultyStorage`]).
//!
//! The trait models exactly the operations an append-only log needs —
//! list/read/append/sync/truncate/remove over flat file names, plus a
//! directory-entry sync for media that distinguish file content from
//! namespace durability — and nothing more. Keeping the surface this small is what makes the
//! fault-injection implementation *exhaustive*: a crash can be placed at
//! any byte of any append, and recovery sees precisely the bytes that
//! were persisted before it.

use std::collections::BTreeMap;
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
    /// Fail the nth [`Storage::sync`] call (1-based), then die.
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
}

/// The error kind every injected fault surfaces as.
pub const INJECTED_CRASH: io::ErrorKind = io::ErrorKind::Other;

fn injected() -> io::Error {
    io::Error::new(INJECTED_CRASH, "injected crash")
}

/// Deterministic fault injection over a [`MemStorage`]: follows a
/// [`FaultPlan`], persists exactly the bytes a real crash would have
/// persisted, and fails every operation once the crash point is reached.
///
/// After the simulated crash, recover from a clone of the underlying
/// [`MemStorage`] — the faulty wrapper stays dead forever, like the
/// process that was killed.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: MemStorage,
    plan: FaultPlan,
    appended: u64,
    appends: u64,
    syncs: u64,
    removes: u64,
    dead: bool,
}

impl FaultyStorage {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: MemStorage, plan: FaultPlan) -> FaultyStorage {
        FaultyStorage {
            inner,
            plan,
            appended: 0,
            appends: 0,
            syncs: 0,
            removes: 0,
            dead: false,
        }
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.dead
    }

    /// Cumulative bytes appended (including the torn prefix).
    pub fn bytes_appended(&self) -> u64 {
        self.appended
    }

    fn alive(&self) -> io::Result<()> {
        if self.dead {
            Err(injected())
        } else {
            Ok(())
        }
    }
}

impl Storage for FaultyStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        self.alive()?;
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.alive()?;
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.alive()?;
        self.appends += 1;
        if self.plan.fail_append_nth == Some(self.appends) {
            // Transient: nothing persisted, storage stays alive.
            return Err(injected());
        }
        if let Some(limit) = self.plan.crash_after_bytes {
            let after = self.appended + data.len() as u64;
            if after > limit {
                // Torn write: persist only the prefix up to the limit.
                let keep = limit.saturating_sub(self.appended) as usize;
                self.inner.append(name, &data[..keep])?;
                self.appended = limit;
                self.dead = true;
                return Err(injected());
            }
        }
        self.inner.append(name, data)?;
        self.appended += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.alive()?;
        self.syncs += 1;
        if let Some(n) = self.plan.crash_on_sync {
            if self.syncs >= n {
                self.dead = true;
                return Err(injected());
            }
        }
        self.inner.sync(name)
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        self.alive()?;
        self.inner.sync_dir()
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.alive()?;
        self.inner.truncate(name, len)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.alive()?;
        self.removes += 1;
        if let Some(n) = self.plan.crash_on_remove {
            if self.removes >= n {
                self.dead = true;
                return Err(injected());
            }
        }
        self.inner.remove(name)
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
pub struct ReadOnlyStorage<S: Storage>(S);

impl<S: Storage> ReadOnlyStorage<S> {
    /// Wraps `inner`, exposing its contents immutably.
    pub fn new(inner: S) -> ReadOnlyStorage<S> {
        ReadOnlyStorage(inner)
    }
}

impl<S: Storage> Storage for ReadOnlyStorage<S> {
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
