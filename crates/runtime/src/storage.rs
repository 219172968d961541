//! Pluggable storage backend with deterministic disk-fault injection.
//!
//! Every durable byte the runtime touches — WAL frames, checkpoint
//! generations, the shard manifest — flows through a [`StorageBackend`]
//! rather than raw `std::fs` (enforced by the `no-raw-fs-in-runtime`
//! lint). Production uses [`RealFs`], a thin veneer over the OS.
//! Conformance sweeps use [`FaultFs`], which wraps `RealFs` and injects
//! the disk's failure modes deterministically from a seeded
//! [`DiskFaultPlan`]: short writes, failed fsyncs, ENOSPC after a byte
//! budget, read-time bit-rot at seeded offsets, rename failures, and a
//! crash-point hook after which every mutation fails (simulating power
//! loss mid-sequence). Because the runtime is single-threaded per shard,
//! the operation order — and therefore the fault schedule — is a pure
//! function of the input stream and the plan.
//!
//! Fault taxonomy and the self-healing machinery built on top of this
//! layer (scrub, quarantine, bounded retention GC, the ENOSPC rung) are
//! documented in DESIGN.md §14.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An open durable file: the append/overwrite handle side of a
/// [`StorageBackend`]. Handles keep their backend's fault schedule — a
/// `FaultFs` handle injects faults with the same counters as the backend
/// that opened it.
pub trait StorageFile: Send {
    /// Writes the whole buffer at the current position.
    ///
    /// # Errors
    /// Any I/O failure, including injected short writes and ENOSPC.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes data to stable storage (`fsync`-equivalent).
    ///
    /// # Errors
    /// Any I/O failure, including injected sync failures.
    fn sync(&mut self) -> io::Result<()>;

    /// Truncates (or extends) to `len` bytes and repositions the write
    /// cursor at the new end.
    ///
    /// # Errors
    /// Any I/O failure.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The durable-storage seam: open/read/write/sync/rename/remove/list
/// plus free-space accounting. Object-safe so runtimes can hold an
/// `Arc<dyn StorageBackend>` and tests can swap in [`FaultFs`].
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Opens `path` for appending, creating it if absent; the cursor
    /// starts at the current end of file.
    ///
    /// # Errors
    /// Any I/O failure, including an injected crash point.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    /// Any I/O failure, including an injected crash point.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Reads the whole file. Injected bit-rot surfaces here: the bytes
    /// returned may deterministically differ from what was written.
    ///
    /// # Errors
    /// Any I/O failure (a missing file is `ErrorKind::NotFound`).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Atomically renames `from` onto `to` (same directory).
    ///
    /// # Errors
    /// Any I/O failure, including injected rename failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes one file.
    ///
    /// # Errors
    /// Any I/O failure.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Lists the file paths directly inside `dir`, sorted by name so the
    /// result is deterministic across platforms.
    ///
    /// # Errors
    /// Any I/O failure.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    /// Any I/O failure.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Remaining write budget in bytes, when the backend accounts for
    /// one. [`RealFs`] returns `None` (the OS budget is not modelled);
    /// [`FaultFs`] returns the remainder of its `capacity_bytes` plan.
    fn free_bytes(&self) -> Option<u64> {
        None
    }
}

/// Shared default backend: one process-wide [`RealFs`].
pub fn real_fs() -> Arc<dyn StorageBackend> {
    Arc::new(RealFs)
}

/// Does this error mean the disk (real or simulated) is out of space?
///
/// Matches the typed kind first, then the strings the two worlds
/// produce: Linux ENOSPC ("No space left on device") and the
/// [`FaultFs`] marker.
pub fn is_storage_full(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::StorageFull
        || e.raw_os_error() == Some(28)
        || e.to_string().contains("ENOSPC")
}

/// Marker carried by crash-point injections; everything after the
/// configured operation fails with this message, modelling power loss.
pub const CRASH_POINT_MARKER: &str = "injected crash point";

/// Does this error come from a [`DiskFaultPlan`] crash point?
pub fn is_crash_point(e: &io::Error) -> bool {
    e.to_string().contains(CRASH_POINT_MARKER)
}

/// The production backend: `std::fs` with no interposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

struct RealFile(File);

impl StorageFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)?;
        self.0.seek(SeekFrom::Start(len))?;
        Ok(())
    }
}

impl StorageBackend for RealFs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Box::new(RealFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut file = File::open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        Ok(raw)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

/// Deterministic disk-fault schedule for [`FaultFs`].
///
/// All knobs are keyed on operation-class counters (the Nth write, the
/// Nth sync, …) or on cumulative bytes, never on wall time, so a plan
/// replays identically given the same input stream. Mirrors the engine's
/// [`lbs_parallel::FaultPlan`] builder style.
#[derive(Debug, Clone, Default)]
pub struct DiskFaultPlan {
    /// write-call index → bytes that actually land before the write
    /// fails (a short write: the prefix is durable, the call errors).
    short_writes: BTreeMap<u64, usize>,
    /// sync-call indices that fail after the data may or may not have
    /// reached the platter — the caller must treat the frame as torn.
    sync_failures: Vec<u64>,
    /// Total byte budget; cumulative writes past it fail with a
    /// `StorageFull` error (ENOSPC). Removing (or replacing via rename)
    /// a file refunds its size, so an emergency retention GC can free
    /// simulated space the way deleting frees a real disk.
    capacity_bytes: Option<u64>,
    /// (file-name substring, byte offset) pairs: reads of matching files
    /// come back with one bit flipped at `offset % len` — latent sector
    /// decay surfacing at read time.
    bit_rot: Vec<(String, u64)>,
    /// rename-call indices that fail (the temp file survives, the
    /// publish does not happen).
    rename_failures: Vec<u64>,
    /// Global operation index after which every *mutating* operation
    /// fails — power loss mid-sequence. Reads keep working so the
    /// harness can observe state; recovery restarts on a clean backend.
    crash_after_op: Option<u64>,
}

impl DiskFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// The `nth` write call lands only `keep` bytes, then errors.
    pub fn short_write(mut self, nth: u64, keep: usize) -> Self {
        self.short_writes.insert(nth, keep);
        self
    }

    /// The `nth` sync call fails.
    pub fn fail_sync(mut self, nth: u64) -> Self {
        self.sync_failures.push(nth);
        self
    }

    /// Cumulative writes past `bytes` fail with ENOSPC.
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity_bytes = Some(bytes);
        self
    }

    /// Reads of files whose name contains `name` flip one bit at
    /// `offset % file_len`.
    pub fn bit_rot(mut self, name: &str, offset: u64) -> Self {
        self.bit_rot.push((name.to_string(), offset));
        self
    }

    /// The `nth` rename call fails.
    pub fn fail_rename(mut self, nth: u64) -> Self {
        self.rename_failures.push(nth);
        self
    }

    /// Every mutating operation after global operation `op` fails.
    pub fn crash_after(mut self, op: u64) -> Self {
        self.crash_after_op = Some(op);
        self
    }

    /// A seeded pseudo-random plan: one or two fault classes drawn by
    /// splitmix64, so a sweep over consecutive seeds covers short
    /// writes, sync failures, ENOSPC budgets, checkpoint bit-rot,
    /// rename failures, and crash points. Pure function of `seed`, so
    /// failing sweep points replay.
    pub fn seeded(seed: u64) -> Self {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut state = seed;
        let mut plan = DiskFaultPlan::new();
        let classes = 1 + (splitmix(&mut state) % 2);
        for _ in 0..classes {
            let roll = splitmix(&mut state);
            let a = splitmix(&mut state);
            match roll % 6 {
                0 => {
                    plan = plan.short_write(2 + a % 14, (a >> 8) as usize % 24);
                }
                1 => {
                    plan = plan.fail_sync(1 + a % 10);
                }
                2 => {
                    plan = plan.capacity_bytes(2_048 + a % 14_000);
                }
                3 => {
                    plan = plan.bit_rot("checkpoint-", a % 4_096);
                }
                4 => {
                    plan = plan.fail_rename(a % 4);
                }
                _ => {
                    plan = plan.crash_after(6 + a % 60);
                }
            }
        }
        plan
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.short_writes.is_empty()
            && self.sync_failures.is_empty()
            && self.capacity_bytes.is_none()
            && self.bit_rot.is_empty()
            && self.rename_failures.is_empty()
            && self.crash_after_op.is_none()
    }
}

#[derive(Debug, Default)]
struct FaultState {
    ops: u64,
    writes: u64,
    syncs: u64,
    renames: u64,
    bytes_written: u64,
}

#[derive(Debug)]
struct FaultCore {
    plan: DiskFaultPlan,
    state: Mutex<FaultState>,
}

impl FaultCore {
    fn injected(kind: io::ErrorKind, message: String) -> io::Error {
        io::Error::new(kind, message)
    }

    /// Bumps the global op counter; errors if the crash point has been
    /// reached and this is a mutating operation.
    fn tick(&self, mutating: bool, what: &str) -> io::Result<u64> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.ops += 1;
        let op = st.ops;
        if mutating {
            if let Some(after) = self.plan.crash_after_op {
                if op > after {
                    return Err(Self::injected(
                        io::ErrorKind::Other,
                        format!("{CRASH_POINT_MARKER} (op {op} > {after}, during {what})"),
                    ));
                }
            }
        }
        Ok(op)
    }

    fn on_write(&self, buf_len: usize) -> io::Result<Option<usize>> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.writes += 1;
        let nth = st.writes;
        if let Some(cap) = self.plan.capacity_bytes {
            if st.bytes_written + buf_len as u64 > cap {
                return Err(Self::injected(
                    io::ErrorKind::StorageFull,
                    format!(
                        "injected ENOSPC: write of {buf_len} bytes exceeds the \
                         {cap}-byte budget ({} already written)",
                        st.bytes_written
                    ),
                ));
            }
        }
        if let Some(&keep) = self.plan.short_writes.get(&nth) {
            let keep = keep.min(buf_len);
            st.bytes_written += keep as u64;
            return Ok(Some(keep));
        }
        st.bytes_written += buf_len as u64;
        Ok(None)
    }

    fn on_sync(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.syncs += 1;
        if self.plan.sync_failures.contains(&st.syncs) {
            return Err(Self::injected(
                io::ErrorKind::Other,
                format!("injected fsync failure (sync #{})", st.syncs),
            ));
        }
        Ok(())
    }

    fn on_rename(&self, from: &Path) -> io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.renames += 1;
        if self.plan.rename_failures.contains(&st.renames) {
            return Err(Self::injected(
                io::ErrorKind::Other,
                format!("injected rename failure (rename #{} of {})", st.renames, from.display()),
            ));
        }
        Ok(())
    }

    fn rot(&self, path: &Path, raw: &mut [u8]) {
        if raw.is_empty() {
            return;
        }
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        for (substr, offset) in &self.plan.bit_rot {
            if name.contains(substr.as_str()) {
                let at = (*offset as usize) % raw.len();
                raw[at] ^= 1 << (offset % 8);
            }
        }
    }

    /// Credits back bytes freed by a remove (or a rename that replaced
    /// an existing file), shrinking the consumed side of the budget.
    fn refund(&self, bytes: u64) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.bytes_written = st.bytes_written.saturating_sub(bytes);
    }

    fn free_bytes(&self) -> Option<u64> {
        let cap = self.plan.capacity_bytes?;
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        Some(cap.saturating_sub(st.bytes_written))
    }
}

/// A fault-injecting backend: [`RealFs`] semantics plus the failures of
/// a [`DiskFaultPlan`], scheduled deterministically by operation
/// counters. Cloning shares the counters, so a clone handed to a shard
/// sees the same global schedule.
#[derive(Debug, Clone)]
pub struct FaultFs {
    inner: RealFs,
    core: Arc<FaultCore>,
}

impl FaultFs {
    /// Wraps the real filesystem with `plan`'s fault schedule.
    pub fn new(plan: DiskFaultPlan) -> Self {
        FaultFs { inner: RealFs, core: Arc::new(FaultCore { plan, state: Mutex::default() }) }
    }

    /// Operations performed so far (for asserting schedules in tests).
    pub fn ops(&self) -> u64 {
        self.core.state.lock().unwrap_or_else(|p| p.into_inner()).ops
    }

    /// Write calls performed so far — with [`ops`](Self::ops), what a
    /// harness needs to aim a short write at one known frame.
    pub fn writes(&self) -> u64 {
        self.core.state.lock().unwrap_or_else(|p| p.into_inner()).writes
    }
}

struct FaultFile {
    inner: Box<dyn StorageFile>,
    core: Arc<FaultCore>,
    path: PathBuf,
}

impl StorageFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.core.tick(true, "write")?;
        match self.core.on_write(buf.len())? {
            None => self.inner.write_all(buf),
            Some(keep) => {
                self.inner.write_all(&buf[..keep])?;
                Err(FaultCore::injected(
                    io::ErrorKind::WriteZero,
                    format!(
                        "injected short write: {keep} of {} bytes landed in {}",
                        buf.len(),
                        self.path.display()
                    ),
                ))
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.core.tick(true, "sync")?;
        self.core.on_sync()?;
        self.inner.sync()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.core.tick(true, "set_len")?;
        let before = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        self.inner.set_len(len)?;
        self.core.refund(before.saturating_sub(len));
        Ok(())
    }
}

impl StorageBackend for FaultFs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.core.tick(true, "open_append")?;
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FaultFile { inner, core: Arc::clone(&self.core), path: path.to_path_buf() }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.core.tick(true, "create")?;
        let truncated = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let inner = self.inner.create(path)?;
        self.core.refund(truncated);
        Ok(Box::new(FaultFile { inner, core: Arc::clone(&self.core), path: path.to_path_buf() }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.core.tick(false, "read")?;
        let mut raw = self.inner.read(path)?;
        self.core.rot(path, &mut raw);
        Ok(raw)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.core.tick(true, "rename")?;
        self.core.on_rename(from)?;
        let replaced = std::fs::metadata(to).map(|m| m.len()).unwrap_or(0);
        self.inner.rename(from, to)?;
        self.core.refund(replaced);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.core.tick(true, "remove")?;
        let freed = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        self.inner.remove(path)?;
        self.core.refund(freed);
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.core.tick(false, "list")?;
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.core.tick(true, "create_dir_all")?;
        self.inner.create_dir_all(dir)
    }

    fn free_bytes(&self) -> Option<u64> {
        self.core.free_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lbs-storage-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_fs_round_trips_and_lists_sorted() {
        let dir = tmp_dir("real");
        let fs = RealFs;
        for name in ["b.txt", "a.txt"] {
            let mut f = fs.create(&dir.join(name)).unwrap();
            f.write_all(name.as_bytes()).unwrap();
            f.sync().unwrap();
        }
        assert_eq!(fs.read(&dir.join("a.txt")).unwrap(), b"a.txt");
        let names: Vec<String> = fs
            .list(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.txt", "b.txt"]);
        assert_eq!(fs.free_bytes(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_keeps_exactly_the_prefix() {
        let dir = tmp_dir("short");
        let fs = FaultFs::new(DiskFaultPlan::new().short_write(1, 3));
        let mut f = fs.create(&dir.join("x")).unwrap();
        let err = f.write_all(b"hello world").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        drop(f);
        assert_eq!(RealFs.read(&dir.join("x")).unwrap(), b"hel");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_budget_surfaces_enospc_and_accounts_free_space() {
        let dir = tmp_dir("enospc");
        let fs = FaultFs::new(DiskFaultPlan::new().capacity_bytes(10));
        let mut f = fs.create(&dir.join("x")).unwrap();
        f.write_all(b"123456").unwrap();
        assert_eq!(fs.free_bytes(), Some(4));
        let err = f.write_all(b"789012").unwrap_err();
        assert!(is_storage_full(&err), "{err}");
        // The rejected write lands nothing; the budget is unchanged.
        assert_eq!(fs.free_bytes(), Some(4));
        // Removing the file refunds its size — emergency GC frees space.
        drop(f);
        fs.remove(&dir.join("x")).unwrap();
        assert_eq!(fs.free_bytes(), Some(10));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_and_rename_failures_fire_on_their_nth_call() {
        let dir = tmp_dir("syncfail");
        let fs = FaultFs::new(DiskFaultPlan::new().fail_sync(2).fail_rename(1));
        let mut f = fs.create(&dir.join("x")).unwrap();
        f.write_all(b"a").unwrap();
        f.sync().unwrap();
        assert!(f.sync().unwrap_err().to_string().contains("fsync"));
        let err = fs.rename(&dir.join("x"), &dir.join("y")).unwrap_err();
        assert!(err.to_string().contains("rename failure"), "{err}");
        assert!(RealFs.read(&dir.join("y")).is_err(), "failed rename must not publish");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rot_flips_one_deterministic_bit_on_matching_reads() {
        let dir = tmp_dir("rot");
        let clean = RealFs;
        let mut f = clean.create(&dir.join("checkpoint-000000000001.ckpt")).unwrap();
        f.write_all(&[0u8; 64]).unwrap();
        drop(f);
        let fs = FaultFs::new(DiskFaultPlan::new().bit_rot("checkpoint-", 17));
        let a = fs.read(&dir.join("checkpoint-000000000001.ckpt")).unwrap();
        let b = fs.read(&dir.join("checkpoint-000000000001.ckpt")).unwrap();
        assert_eq!(a, b, "rot is deterministic");
        assert_eq!(a.iter().filter(|&&x| x != 0).count(), 1);
        assert_ne!(a[17], 0);
        // Non-matching files read back clean.
        let mut f = clean.create(&dir.join("wal.log")).unwrap();
        f.write_all(&[0u8; 8]).unwrap();
        drop(f);
        assert_eq!(fs.read(&dir.join("wal.log")).unwrap(), vec![0u8; 8]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_point_fails_every_later_mutation_but_not_reads() {
        let dir = tmp_dir("crash");
        let fs = FaultFs::new(DiskFaultPlan::new().crash_after(2));
        let mut f = fs.create(&dir.join("x")).unwrap(); // op 1
        f.write_all(b"a").unwrap(); // op 2
        let err = f.write_all(b"b").unwrap_err(); // op 3 > 2
        assert!(is_crash_point(&err), "{err}");
        assert!(is_crash_point(&fs.rename(&dir.join("x"), &dir.join("y")).unwrap_err()));
        assert_eq!(fs.read(&dir.join("x")).unwrap(), b"a");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_plans_are_reproducible_and_varied() {
        let a = format!("{:?}", DiskFaultPlan::seeded(7));
        let b = format!("{:?}", DiskFaultPlan::seeded(7));
        assert_eq!(a, b);
        assert!(!DiskFaultPlan::seeded(7).is_empty());
        // A run of seeds hits several distinct fault classes.
        let mut classes = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            let p = DiskFaultPlan::seeded(seed);
            if !p.short_writes.is_empty() {
                classes.insert("short");
            }
            if !p.sync_failures.is_empty() {
                classes.insert("sync");
            }
            if p.capacity_bytes.is_some() {
                classes.insert("enospc");
            }
            if !p.bit_rot.is_empty() {
                classes.insert("rot");
            }
            if !p.rename_failures.is_empty() {
                classes.insert("rename");
            }
            if p.crash_after_op.is_some() {
                classes.insert("crash");
            }
        }
        assert!(classes.len() >= 5, "seeded plans cover {classes:?}");
    }
}
