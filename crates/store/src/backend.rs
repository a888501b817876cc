//! Pluggable storage backends: the [`StorageBackend`] trait, a real
//! filesystem implementation with atomic-rename snapshot writes and
//! explicit fsync discipline, and a deterministic fault-injecting
//! in-memory implementation for crash testing.

use crate::crc::crc32;
use crate::error::StoreError;
use crate::frame::{seal, HEAD_LEN};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{mpsc, Arc, Mutex};

/// A flat namespace of named byte files with the three durability
/// primitives the format layer needs: atomic whole-file replacement,
/// append, and sync. Object-safe, so drivers can hold
/// `Box<dyn StorageBackend>`.
///
/// Durability contract:
/// - [`write_atomic`](Self::write_atomic) either installs the complete new
///   content durably or leaves the previous content untouched — readers
///   never observe a half-written file under this name.
/// - [`append`](Self::append) extends a file but guarantees nothing about
///   durability until [`sync`](Self::sync) returns; a crash between the
///   two may keep any prefix of the appended bytes (a *torn write*) and
///   loses any unsynced suffix.
pub trait StorageBackend: std::fmt::Debug {
    /// Full contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Atomically replace (or create) `name` with `bytes`, durably.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// [`write_atomic`](Self::write_atomic) of a single-record file whose
    /// frame is still unfilled: `file` is a file header, eight zero bytes
    /// for the record's `[len][crc]`, then the payload (at least those
    /// 24 head bytes). The backend fills the frame with the payload's
    /// length and CRC-32 and installs the sealed bytes; `name` never shows
    /// an unsealed file. Filling first and then writing is the default; a
    /// backend may checksum while it writes instead.
    fn write_sealed(&mut self, name: &str, file: &mut [u8]) -> Result<(), StoreError> {
        seal(file, crc32(&file[HEAD_LEN..]));
        self.write_atomic(name, file)
    }

    /// Delete what an interrupted [`write_atomic`](Self::write_atomic) to
    /// a name that `ours` accepts left behind. The default, for backends
    /// whose atomic writes leave nothing behind, deletes nothing.
    fn remove_orphans(&mut self, ours: &dyn Fn(&str) -> bool) -> Result<(), StoreError> {
        let _ = ours;
        Ok(())
    }

    /// Append `bytes` to `name` (creating it empty first if absent).
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Make every byte previously appended to `name` durable.
    fn sync(&mut self, name: &str) -> Result<(), StoreError>;

    /// All file names, sorted ascending.
    fn list(&self) -> Result<Vec<String>, StoreError>;

    /// Delete `name` (a no-op if it does not exist).
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
}

impl StorageBackend for Box<dyn StorageBackend> {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        (**self).read(name)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).write_atomic(name, bytes)
    }
    fn write_sealed(&mut self, name: &str, file: &mut [u8]) -> Result<(), StoreError> {
        (**self).write_sealed(name, file)
    }
    fn remove_orphans(&mut self, ours: &dyn Fn(&str) -> bool) -> Result<(), StoreError> {
        (**self).remove_orphans(ours)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).append(name, bytes)
    }
    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        (**self).sync(name)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        (**self).list()
    }
    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        (**self).remove(name)
    }
}

/// Real files under one directory.
///
/// - `write_atomic` = write to the temp file `.<name>.tmp`, `fsync` it,
///   `rename` over the target, then `fsync` the parent directory so the
///   rename itself is durable.
/// - `write_sealed` overlaps the checksum with the disk. A scoped helper
///   thread computes the payload's CRC-32 while this thread writes the
///   whole file, its frame still zero, and calls `sync_data`. Once the
///   helper is joined, the 24 head bytes (header and filled frame) are
///   rewritten at offset 0, then `sync_all`, `rename` and the directory
///   `fsync` follow as above. A crash before the `rename` leaves the
///   target as it was and an orphaned temp file, zero frame or not; a
///   crash after it leaves the old or the new file under the target,
///   both complete, until the directory `fsync` makes the new one
///   durable.
/// - `append`/`sync` = `O_APPEND` writes plus an explicit `File::sync_all`.
/// - `remove` opens the file, unlinks it and `fsync`s the directory, so
///   the name is gone when it returns. The open handle keeps the inode
///   alive, and a closer thread, started by the first `remove` and joined
///   on drop, drops it: freeing a large file's page cache and extents
///   happens there, not on the caller's thread. If the open or the spawn
///   fails, the handle is dropped in the call instead.
/// - Dot-prefixed names are reserved for temp files and never listed;
///   [`remove_orphans`](StorageBackend::remove_orphans) deletes the
///   leftovers of an interrupted write.
#[derive(Debug)]
pub struct FsBackend {
    dir: PathBuf,
    closer: Option<Closer>,
}

/// The thread that drops the handles of removed files, and the channel
/// that feeds it.
#[derive(Debug)]
struct Closer {
    files: mpsc::Sender<std::fs::File>,
    thread: std::thread::JoinHandle<()>,
}

impl FsBackend {
    /// Open (creating if needed) the directory the files live in.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io("create_dir", dir.display().to_string(), e))?;
        Ok(Self { dir, closer: None })
    }

    /// The backing directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Flush the directory entry table itself — on Linux, renames and
    /// creations are only durable once the parent directory is synced.
    fn sync_dir(&self) -> Result<(), StoreError> {
        let dir = std::fs::File::open(&self.dir)
            .map_err(|e| StoreError::io("open_dir", self.dir.display().to_string(), e))?;
        dir.sync_all()
            .map_err(|e| StoreError::io("fsync_dir", self.dir.display().to_string(), e))
    }

    /// Every name in the directory, temp files included.
    fn entries(&self) -> Result<Vec<String>, StoreError> {
        let read_dir_err = |e| StoreError::io("read_dir", self.dir.display().to_string(), e);
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(read_dir_err)? {
            let name = entry.map_err(read_dir_err)?.file_name();
            names.push(name.to_string_lossy().into_owned());
        }
        Ok(names)
    }

    /// Install `name` atomically: `fill` writes the temp file, which is
    /// then synced, renamed over `name`, and the rename made durable.
    fn install(
        &self,
        name: &str,
        fill: impl FnOnce(&std::fs::File, &str) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let tmp_name = format!(".{name}.tmp");
        let tmp = self.path(&tmp_name);
        {
            let f = std::fs::File::create(&tmp)
                .map_err(|e| StoreError::io("create", tmp_name.clone(), e))?;
            fill(&f, &tmp_name)?;
            f.sync_all()
                .map_err(|e| StoreError::io("fsync", tmp_name.clone(), e))?;
        }
        std::fs::rename(&tmp, self.path(name)).map_err(|e| StoreError::io("rename", name, e))?;
        self.sync_dir()
    }

    /// Drop `file`, the last handle on an unlinked file, on the closer
    /// thread, starting it first if need be.
    fn close_later(&mut self, file: std::fs::File) {
        if self.closer.is_none() {
            let (files, received) = mpsc::channel::<std::fs::File>();
            let Ok(thread) = std::thread::Builder::new()
                .name("fairkm-store-closer".into())
                .spawn(move || received.into_iter().for_each(drop))
            else {
                return;
            };
            self.closer = Some(Closer { files, thread });
        }
        if let Some(closer) = &self.closer {
            // A send fails only once the thread is gone; the handle then
            // comes back in the error and is dropped here.
            let _ = closer.files.send(file);
        }
    }
}

impl Drop for FsBackend {
    fn drop(&mut self) {
        if let Some(Closer { files, thread }) = self.closer.take() {
            drop(files);
            // The thread only drops handles: nothing to report, and a drop
            // must not panic.
            let _ = thread.join();
        }
    }
}

impl StorageBackend for FsBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::io("read", name, e)),
        }
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.install(name, |mut f, tmp| {
            f.write_all(bytes)
                .map_err(|e| StoreError::io("write", tmp, e))
        })
    }

    fn write_sealed(&mut self, name: &str, file: &mut [u8]) -> Result<(), StoreError> {
        self.install(name, |mut f, tmp| {
            let io = |op| move |e| StoreError::io(op, tmp, e);
            // Only the head waits for the checksum; the bulk of the file
            // reaches the disk while the helper computes it.
            let crc = std::thread::scope(|s| {
                let bytes: &[u8] = file;
                let helper = std::thread::Builder::new()
                    .spawn_scoped(s, || crc32(&bytes[HEAD_LEN..]))
                    .map_err(io("spawn"))?;
                let written = f.write_all(bytes).map_err(io("write"));
                let synced = written.and_then(|()| f.sync_data().map_err(io("fsync")));
                let crc = helper
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                synced.map(|()| crc)
            })?;
            seal(file, crc);
            f.seek(SeekFrom::Start(0)).map_err(io("seek"))?;
            f.write_all(&file[..HEAD_LEN]).map_err(io("write"))
        })
    }

    fn remove_orphans(&mut self, ours: &dyn Fn(&str) -> bool) -> Result<(), StoreError> {
        for name in self.entries()? {
            let target = name.strip_prefix('.').and_then(|n| n.strip_suffix(".tmp"));
            if target.is_some_and(ours) {
                self.remove(&name)?;
            }
        }
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let created = !self.path(name).exists();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| StoreError::io("open", name, e))?;
        f.write_all(bytes)
            .map_err(|e| StoreError::io("append", name, e))?;
        if created {
            // Make the new directory entry durable alongside its first
            // bytes' eventual sync.
            self.sync_dir()?;
        }
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        let f = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))
            .map_err(|e| StoreError::io("open", name, e))?;
        f.sync_all().map_err(|e| StoreError::io("fsync", name, e))
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut names = self.entries()?;
        names.retain(|name| !name.starts_with('.'));
        names.sort();
        Ok(names)
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        let path = self.path(name);
        let held = std::fs::File::open(&path).ok();
        match std::fs::remove_file(&path) {
            Ok(()) => self.sync_dir()?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(StoreError::io("remove", name, e)),
        }
        if let Some(file) = held {
            self.close_later(file);
        }
        Ok(())
    }
}

/// A torn append: on the `at_op`-th mutating operation (1-based, counting
/// `append` and `write_atomic` calls), keep only the first `keep` bytes of
/// the payload and crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWrite {
    /// Which mutating operation tears (1-based).
    pub at_op: u64,
    /// Bytes of that operation's payload that reach the file.
    pub keep: usize,
}

/// A single bit flip applied to whatever survives the next crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitFlip {
    /// File to corrupt (a flip aimed at a missing file is a no-op).
    pub file: String,
    /// Byte offset within the file (out-of-range flips are no-ops).
    pub offset: usize,
    /// Bit index `0..8` within that byte.
    pub bit: u8,
}

/// Deterministic storage faults armed on a [`MemBackend`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// At most one torn write per plan (crashing ends the run anyway).
    pub torn: Option<TornWrite>,
    /// Bit flips applied at the next crash, after suffix loss.
    pub flips: Vec<BitFlip>,
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a crash (advanced by `sync` and by
    /// `write_atomic`, which is durable by contract).
    synced: usize,
}

/// Deterministic in-memory backend with fault injection: torn writes at a
/// chosen operation and byte offset, lost-unsynced-suffix on crash, and
/// single bit flips in the surviving bytes.
///
/// The crash model: [`crash`](Self::crash) throws away every byte past
/// each file's last sync point, applies the armed bit flips, and clears
/// the crashed flag so a recovering process can reopen the "disk". While
/// crashed (after a torn write fired), every operation returns
/// [`StoreError::Crashed`] — the simulated process is dead.
#[derive(Debug, Default)]
pub struct MemBackend {
    files: BTreeMap<String, MemFile>,
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
}

impl MemBackend {
    /// A fault-free in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// A backend with a fault plan armed.
    pub fn with_faults(plan: FaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// Arm (replace) the fault plan. The mutating-op counter restarts, so
    /// `TornWrite::at_op` counts from this call — arming mid-stream targets
    /// "the Nth write from now", not from backend construction.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.ops = 0;
    }

    /// Whether a torn write has fired and the owner is "dead".
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Simulate a machine crash + restart: unsynced suffixes vanish, armed
    /// bit flips corrupt the survivors (then disarm), and the backend is
    /// usable again.
    pub fn crash(&mut self) {
        for file in self.files.values_mut() {
            file.data.truncate(file.synced);
        }
        for flip in std::mem::take(&mut self.plan.flips) {
            if let Some(file) = self.files.get_mut(&flip.file) {
                if let Some(byte) = file.data.get_mut(flip.offset) {
                    *byte ^= 1 << (flip.bit & 7);
                }
            }
        }
        self.crashed = false;
    }

    /// `Err(Crashed)` while dead; otherwise count the mutating op and
    /// report whether the armed torn write fires on it.
    fn gate(&mut self) -> Result<bool, StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed);
        }
        self.ops += 1;
        Ok(self.plan.torn.is_some_and(|t| t.at_op == self.ops))
    }
}

impl StorageBackend for MemBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed);
        }
        Ok(self.files.get(name).map(|f| f.data.clone()))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if self.gate()? {
            // Atomic replacement that tears = the rename never happened:
            // the old content survives untouched.
            self.crashed = true;
            return Err(StoreError::Crashed);
        }
        let file = self.files.entry(name.to_string()).or_default();
        file.data = bytes.to_vec();
        file.synced = bytes.len();
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let torn = self.gate()?;
        let keep = if torn {
            self.plan.torn.map_or(0, |t| t.keep).min(bytes.len())
        } else {
            bytes.len()
        };
        let file = self.files.entry(name.to_string()).or_default();
        file.data.extend_from_slice(&bytes[..keep]);
        if torn {
            // The torn prefix reached the platter before the crash; the
            // sync point does NOT advance past it — `crash()` may still
            // shear it off unless the caller had synced earlier bytes.
            // Model the worst legal outcome: the prefix is visible now but
            // only `synced` bytes survive the crash.
            self.crashed = true;
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed);
        }
        if let Some(file) = self.files.get_mut(name) {
            file.synced = file.data.len();
        }
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed);
        }
        Ok(self.files.keys().cloned().collect())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        if self.crashed {
            return Err(StoreError::Crashed);
        }
        self.files.remove(name);
        Ok(())
    }
}

/// A clonable handle to one [`MemBackend`] "disk", so a simulated node and
/// the simulator harness can share it: the node writes through its handle,
/// the harness injects the crash and hands a fresh handle to the recovered
/// node. Single-threaded by design (the simulator is deterministic and
/// sequential), hence `Rc`.
#[derive(Debug, Clone, Default)]
pub struct SharedMemBackend(Rc<RefCell<MemBackend>>);

impl SharedMemBackend {
    /// A fault-free shared disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (replace) the underlying fault plan.
    pub fn set_faults(&self, plan: FaultPlan) {
        self.0.borrow_mut().set_faults(plan);
    }

    /// Whether the disk's owner tore a write and died.
    pub fn is_crashed(&self) -> bool {
        self.0.borrow().is_crashed()
    }

    /// Crash the disk: lose unsynced suffixes, apply armed flips, revive.
    pub fn crash(&self) {
        self.0.borrow_mut().crash();
    }
}

impl StorageBackend for SharedMemBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.0.borrow().read(name)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.0.borrow_mut().write_atomic(name, bytes)
    }
    fn write_sealed(&mut self, name: &str, file: &mut [u8]) -> Result<(), StoreError> {
        self.0.borrow_mut().write_sealed(name, file)
    }
    fn remove_orphans(&mut self, ours: &dyn Fn(&str) -> bool) -> Result<(), StoreError> {
        self.0.borrow_mut().remove_orphans(ours)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.0.borrow_mut().append(name, bytes)
    }
    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        self.0.borrow_mut().sync(name)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.0.borrow().list()
    }
    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.0.borrow_mut().remove(name)
    }
}

/// The thread-safe sibling of [`SharedMemBackend`]: a clonable,
/// `Send + Sync` handle to one fault-injecting [`MemBackend`] "disk".
/// Built for the multi-threaded serving layer, where a tenant's durable
/// stream lives behind a mutex on one thread while the test harness arms
/// faults and triggers crashes from another. Same fault model, same
/// determinism: which operation tears is fixed by the armed
/// [`FaultPlan`], not by scheduling.
#[derive(Debug, Clone, Default)]
pub struct SyncMemBackend(Arc<Mutex<MemBackend>>);

impl SyncMemBackend {
    /// A fault-free shared disk.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemBackend> {
        // A panic while holding the lock leaves the fake disk in a valid
        // (if mid-operation) state; recovery code should still read it,
        // exactly like a real disk after a process crash.
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Arm (replace) the underlying fault plan.
    pub fn set_faults(&self, plan: FaultPlan) {
        self.lock().set_faults(plan);
    }

    /// Whether the disk's owner tore a write and died.
    pub fn is_crashed(&self) -> bool {
        self.lock().is_crashed()
    }

    /// Crash the disk: lose unsynced suffixes, apply armed flips, revive.
    pub fn crash(&self) {
        self.lock().crash();
    }
}

impl StorageBackend for SyncMemBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.lock().read(name)
    }
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.lock().write_atomic(name, bytes)
    }
    fn write_sealed(&mut self, name: &str, file: &mut [u8]) -> Result<(), StoreError> {
        self.lock().write_sealed(name, file)
    }
    fn remove_orphans(&mut self, ours: &dyn Fn(&str) -> bool) -> Result<(), StoreError> {
        self.lock().remove_orphans(ours)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.lock().append(name, bytes)
    }
    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        self.lock().sync(name)
    }
    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.lock().list()
    }
    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.lock().remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trips() {
        let mut b = MemBackend::new();
        assert_eq!(b.read("a").unwrap(), None);
        b.append("a", b"hel").unwrap();
        b.append("a", b"lo").unwrap();
        assert_eq!(b.read("a").unwrap().as_deref(), Some(&b"hello"[..]));
        b.write_atomic("b", b"x").unwrap();
        assert_eq!(b.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        b.remove("a").unwrap();
        assert_eq!(b.list().unwrap(), vec!["b".to_string()]);
    }

    #[test]
    fn crash_loses_the_unsynced_suffix() {
        let mut b = MemBackend::new();
        b.append("log", b"durable").unwrap();
        b.sync("log").unwrap();
        b.append("log", b"volatile").unwrap();
        b.crash();
        assert_eq!(b.read("log").unwrap().as_deref(), Some(&b"durable"[..]));
    }

    #[test]
    fn torn_append_keeps_a_prefix_and_kills_the_owner() {
        let mut b = MemBackend::with_faults(FaultPlan {
            torn: Some(TornWrite { at_op: 2, keep: 3 }),
            flips: Vec::new(),
        });
        b.append("log", b"aaaa").unwrap();
        b.sync("log").unwrap();
        assert_eq!(b.append("log", b"bbbb"), Err(StoreError::Crashed));
        assert_eq!(b.append("log", b"cccc"), Err(StoreError::Crashed));
        b.crash();
        // The torn prefix was never synced, so the crash shears it too.
        assert_eq!(b.read("log").unwrap().as_deref(), Some(&b"aaaa"[..]));
    }

    #[test]
    fn torn_atomic_write_preserves_the_old_content() {
        let mut b = MemBackend::with_faults(FaultPlan {
            torn: Some(TornWrite { at_op: 2, keep: 1 }),
            flips: Vec::new(),
        });
        b.write_atomic("snap", b"old").unwrap();
        assert_eq!(b.write_atomic("snap", b"new"), Err(StoreError::Crashed));
        b.crash();
        assert_eq!(b.read("snap").unwrap().as_deref(), Some(&b"old"[..]));
    }

    #[test]
    fn bit_flips_apply_at_crash_then_disarm() {
        let mut b = MemBackend::with_faults(FaultPlan {
            torn: None,
            flips: vec![BitFlip {
                file: "f".into(),
                offset: 1,
                bit: 0,
            }],
        });
        b.write_atomic("f", &[0x10, 0x20]).unwrap();
        b.crash();
        assert_eq!(b.read("f").unwrap().as_deref(), Some(&[0x10, 0x21][..]));
        b.crash();
        assert_eq!(
            b.read("f").unwrap().as_deref(),
            Some(&[0x10, 0x21][..]),
            "flips fire once"
        );
    }

    #[test]
    fn shared_handles_see_one_disk() {
        let disk = SharedMemBackend::new();
        let mut a = disk.clone();
        a.append("x", b"1").unwrap();
        a.sync("x").unwrap();
        assert_eq!(disk.read("x").unwrap().as_deref(), Some(&b"1"[..]));
    }

    #[test]
    fn sync_handles_share_one_disk_across_threads() {
        let disk = SyncMemBackend::new();
        let mut writer = disk.clone();
        let handle = std::thread::spawn(move || {
            writer.append("x", b"from-thread").unwrap();
            writer.sync("x").unwrap();
        });
        handle.join().unwrap();
        assert_eq!(
            disk.read("x").unwrap().as_deref(),
            Some(&b"from-thread"[..])
        );
        // Same fault model as the single-threaded handle: a torn write
        // kills the owner, a crash shears the unsynced suffix.
        let mut w = disk.clone();
        w.append("x", b"-unsynced").unwrap();
        disk.set_faults(FaultPlan {
            torn: Some(TornWrite { at_op: 1, keep: 1 }),
            flips: Vec::new(),
        });
        assert!(matches!(w.append("x", b"zz"), Err(StoreError::Crashed)));
        assert!(disk.is_crashed());
        disk.crash();
        assert_eq!(
            disk.read("x").unwrap().as_deref(),
            Some(&b"from-thread"[..])
        );
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fairkm-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sealed_writes_equal_the_serially_framed_bytes() {
        use crate::frame::{put_header, put_record, put_unsealed, SNAP_MAGIC};
        let dir = scratch_dir("sealed");
        let mut fs = FsBackend::open(&dir).unwrap();
        let mut mem = MemBackend::new();
        for len in [0, 1, 4095, 4103, 5 * 1024 * 1024 + 3] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            let mut serial = Vec::new();
            put_header(&mut serial, SNAP_MAGIC, len as u64);
            put_record(&mut serial, &payload);
            let unsealed = || {
                let mut file = Vec::new();
                put_unsealed(&mut file, SNAP_MAGIC, len as u64);
                file.extend_from_slice(&payload);
                file
            };
            let name = format!("snap-{len}");
            fs.write_sealed(&name, &mut unsealed()).unwrap();
            mem.write_sealed(&name, &mut unsealed()).unwrap();
            let on_disk = fs.read(&name).unwrap().unwrap();
            assert!(on_disk == serial, "fs, payload of {len} B");
            assert!(mem.read(&name).unwrap().unwrap() == serial, "mem, {len} B");
            let names = fs.entries().unwrap();
            assert!(names.iter().all(|n| !n.starts_with('.')), "{names:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_temp_files_of_accepted_names_are_removed() {
        let dir = scratch_dir("orphans");
        let mut b = FsBackend::open(&dir).unwrap();
        b.write_atomic("keep", b"k").unwrap();
        for name in [".ours.tmp", ".theirs.tmp", ".ours", "ours.tmp"] {
            std::fs::write(dir.join(name), b"partial").unwrap();
        }
        b.remove_orphans(&|name| name == "ours").unwrap();
        let mut left = b.entries().unwrap();
        left.sort();
        assert_eq!(left, [".ours", ".theirs.tmp", "keep", "ours.tmp"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removed_names_vanish_at_once_and_the_closer_drops_their_handles() {
        let dir = scratch_dir("closer");
        let mut b = FsBackend::open(&dir).unwrap();
        b.remove("absent").unwrap();
        assert!(b.closer.is_none(), "nothing was handed off");
        for name in ["a", "b"] {
            b.write_atomic(name, &vec![7; 1 << 20]).unwrap();
        }
        b.remove("a").unwrap();
        assert_eq!(b.entries().unwrap(), ["b"]);
        assert!(b.closer.is_some(), "the first remove starts the closer");
        b.remove("b").unwrap();
        assert!(b.entries().unwrap().is_empty());
        let closer = b.closer.take().unwrap();
        drop(closer.files);
        closer.thread.join().unwrap();
        // Once the closer is joined, no descriptor of this process points
        // at the unlinked files (checked where `/proc` lists them).
        if let Ok(fds) = std::fs::read_dir("/proc/self/fd") {
            for fd in fds.flatten() {
                let target = std::fs::read_link(fd.path()).unwrap_or_default();
                assert!(!target.starts_with(&dir), "{target:?} is still open");
            }
        }
        drop(b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_backend_round_trips_and_survives_reopen() {
        let dir = scratch_dir("reopen");
        let mut b = FsBackend::open(&dir).unwrap();
        b.write_atomic("snap", b"payload").unwrap();
        b.append("log", b"one").unwrap();
        b.append("log", b"two").unwrap();
        b.sync("log").unwrap();
        assert_eq!(
            b.list().unwrap(),
            vec!["log".to_string(), "snap".to_string()]
        );
        drop(b);
        let mut b = FsBackend::open(&dir).unwrap();
        assert_eq!(b.read("snap").unwrap().as_deref(), Some(&b"payload"[..]));
        assert_eq!(b.read("log").unwrap().as_deref(), Some(&b"onetwo"[..]));
        b.remove("log").unwrap();
        assert_eq!(b.read("log").unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
