//! A pass-through [`StorageBackend`] over [`RealFs`] that counts every
//! operation, so the traced run can attribute bytes and fsyncs to the WAL,
//! checkpoints, GC, scrub and recovery without touching the runtime.

use lbs_runtime::{RealFs, StorageBackend, StorageFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Operation counters. Every field only ever grows; `Relaxed` suffices
/// because each value is a statistic that publishes no other data.
#[derive(Debug, Default)]
pub struct StorageCounts {
    writes: AtomicU64,
    write_bytes: AtomicU64,
    wal_bytes: AtomicU64,
    checkpoint_bytes: AtomicU64,
    syncs: AtomicU64,
    wal_syncs: AtomicU64,
    sync_ns: AtomicU64,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    renames: AtomicU64,
    removes: AtomicU64,
}

/// A point-in-time copy of [`StorageCounts`]; subtract two to get the
/// operations of the interval between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageTotals {
    /// `write_all` calls.
    pub writes: u64,
    /// Bytes written, all files.
    pub write_bytes: u64,
    /// Bytes written to the WAL.
    pub wal_bytes: u64,
    /// Bytes written to checkpoint files (including their temp files).
    pub checkpoint_bytes: u64,
    /// `sync` calls, all files.
    pub syncs: u64,
    /// `sync` calls on the WAL.
    pub wal_syncs: u64,
    /// Time spent inside `sync`, in nanoseconds.
    pub sync_ns: u64,
    /// Whole-file reads.
    pub reads: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Renames.
    pub renames: u64,
    /// File removals.
    pub removes: u64,
}

impl std::ops::Sub for StorageTotals {
    type Output = StorageTotals;

    fn sub(self, rhs: StorageTotals) -> StorageTotals {
        StorageTotals {
            writes: self.writes - rhs.writes,
            write_bytes: self.write_bytes - rhs.write_bytes,
            wal_bytes: self.wal_bytes - rhs.wal_bytes,
            checkpoint_bytes: self.checkpoint_bytes - rhs.checkpoint_bytes,
            syncs: self.syncs - rhs.syncs,
            wal_syncs: self.wal_syncs - rhs.wal_syncs,
            sync_ns: self.sync_ns - rhs.sync_ns,
            reads: self.reads - rhs.reads,
            read_bytes: self.read_bytes - rhs.read_bytes,
            renames: self.renames - rhs.renames,
            removes: self.removes - rhs.removes,
        }
    }
}

fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl StorageCounts {
    /// Current values.
    pub fn totals(&self) -> StorageTotals {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StorageTotals {
            writes: get(&self.writes),
            write_bytes: get(&self.write_bytes),
            wal_bytes: get(&self.wal_bytes),
            checkpoint_bytes: get(&self.checkpoint_bytes),
            syncs: get(&self.syncs),
            wal_syncs: get(&self.wal_syncs),
            sync_ns: get(&self.sync_ns),
            reads: get(&self.reads),
            read_bytes: get(&self.read_bytes),
            renames: get(&self.renames),
            removes: get(&self.removes),
        }
    }
}

/// Which durable structure a file belongs to, from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileClass {
    Wal,
    Checkpoint,
    Other,
}

fn classify(path: &Path) -> FileClass {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with(lbs_runtime::WAL_FILE) {
        FileClass::Wal
    } else if name.starts_with("checkpoint-") {
        FileClass::Checkpoint
    } else {
        FileClass::Other
    }
}

/// [`RealFs`] with every operation counted.
#[derive(Debug, Default)]
pub struct CountingFs {
    counts: Arc<StorageCounts>,
}

impl CountingFs {
    /// A counting backend over the real filesystem.
    pub fn new() -> Self {
        CountingFs::default()
    }

    /// The live counters (shared with every open file handle).
    pub fn counts(&self) -> Arc<StorageCounts> {
        Arc::clone(&self.counts)
    }
}

struct CountingFile {
    inner: Box<dyn StorageFile>,
    class: FileClass,
    counts: Arc<StorageCounts>,
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let c = &self.counts;
        bump(&c.writes, 1);
        bump(&c.write_bytes, buf.len() as u64);
        match self.class {
            FileClass::Wal => bump(&c.wal_bytes, buf.len() as u64),
            FileClass::Checkpoint => bump(&c.checkpoint_bytes, buf.len() as u64),
            FileClass::Other => {}
        }
        self.inner.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let result = self.inner.sync();
        let c = &self.counts;
        bump(&c.syncs, 1);
        if self.class == FileClass::Wal {
            bump(&c.wal_syncs, 1);
        }
        bump(&c.sync_ns, u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        result
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

impl CountingFs {
    fn wrap(&self, path: &Path, inner: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(CountingFile { inner, class: classify(path), counts: self.counts() })
    }
}

impl StorageBackend for CountingFs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, RealFs.open_append(path)?))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, RealFs.create(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let raw = RealFs.read(path)?;
        bump(&self.counts.reads, 1);
        bump(&self.counts.read_bytes, raw.len() as u64);
        Ok(raw)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        bump(&self.counts.renames, 1);
        RealFs.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        bump(&self.counts.removes, 1);
        RealFs.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }
}
