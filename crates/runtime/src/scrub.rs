//! Self-healing maintenance passes: scrub (CRC re-verification plus
//! quarantine of rotten checkpoint generations) and the reports the
//! retention GC produces. DESIGN.md §14 covers the invariants.
//!
//! A scrub walks every checkpoint generation through the storage
//! backend, re-verifies the trailing CRC, and renames files that fail
//! structural verification to `*.ckpt.quarantined`. Quarantined files
//! keep their bytes on disk for forensics but vanish from listing and
//! recovery (their name no longer parses as a checkpoint), so the next
//! recovery falls back to the newest clean generation plus WAL replay.
//! The WAL itself is scanned but never mutated here: a torn tail is
//! reported and left for [`Wal::open_with`](crate::Wal) to truncate.

use crate::checkpoint::{list_checkpoints_via, quarantine, verify_checkpoint_bytes};
use crate::error::{io_err, RuntimeError};
use crate::storage::StorageBackend;
use crate::wal::{scan, WAL_FILE};
use std::io;
use std::path::{Path, PathBuf};

/// What a scrub pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Checkpoint generations whose CRC verified clean.
    pub checked: usize,
    /// Corrupt generations renamed to `*.quarantined` (new paths).
    pub quarantined: Vec<PathBuf>,
    /// Valid records in the WAL's consistent prefix.
    pub wal_records: usize,
    /// Whether bytes past the WAL's valid prefix exist (a torn tail;
    /// the next open truncates it).
    pub wal_tail_torn: bool,
    /// Sequence of the newest generation that verified clean.
    pub newest_verified_seq: Option<u64>,
}

impl ScrubReport {
    /// Whether the scrub found nothing to heal.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && !self.wal_tail_torn
    }
}

/// What a retention GC pass removed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Checkpoint generations removed (older than the retained set).
    pub checkpoints_removed: Vec<PathBuf>,
    /// WAL records dropped by [`Wal::prune_to`](crate::Wal::prune_to).
    pub wal_records_pruned: u64,
    /// Verified generations kept on disk.
    pub retained: usize,
}

/// Re-verifies every checkpoint generation in `dir` and quarantines the
/// ones that fail CRC/structural checks. Works on an offline directory —
/// no recovery needed — which is what `lbs scrub` uses.
///
/// # Errors
/// I/O failures reading or renaming files (corruption itself is not an
/// error; it is the report's content).
pub fn scrub_dir(storage: &dyn StorageBackend, dir: &Path) -> Result<ScrubReport, RuntimeError> {
    let mut report = ScrubReport::default();
    for (seq, path) in list_checkpoints_via(storage, dir)? {
        let raw = storage.read(&path).map_err(|e| io_err("scrub-read", &path, e))?;
        if verify_checkpoint_bytes(&raw) {
            report.checked += 1;
            report.newest_verified_seq = Some(report.newest_verified_seq.unwrap_or(0).max(seq));
        } else {
            let parked = quarantine(storage, &path)?;
            report.quarantined.push(parked);
        }
    }
    let wal_path = dir.join(WAL_FILE);
    match storage.read(&wal_path) {
        Ok(raw) => {
            let (records, valid_len) = scan(&raw);
            report.wal_records = records.len();
            report.wal_tail_torn = (valid_len as usize) < raw.len();
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("scrub-read", &wal_path, e)),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{checkpoint_path, write_checkpoint, CheckpointHeader};
    use crate::storage::real_fs;
    use lbs_geom::{Point, Rect};
    use lbs_model::{LocationDb, UserId};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lbs-scrub-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_ckpt(dir: &Path, wal_seq: u64) {
        let db =
            LocationDb::from_rows((0..6).map(|i| (UserId(i), Point::new(i as i64, 2)))).unwrap();
        let header =
            CheckpointHeader { epoch: wal_seq, wal_seq, k: 2, map: Rect::square(0, 0, 16) };
        write_checkpoint(dir, &header, &db, false).unwrap();
    }

    #[test]
    fn scrub_quarantines_rot_and_keeps_clean_generations() {
        let dir = tmp_dir("rot");
        let storage = real_fs();
        for seq in [1, 2, 3] {
            write_ckpt(&dir, seq);
        }
        // Flip one byte in the middle generation.
        let victim = checkpoint_path(&dir, 2);
        let mut raw = std::fs::read(&victim).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&victim, raw).unwrap();

        let report = scrub_dir(storage.as_ref(), &dir).unwrap();
        assert_eq!(report.checked, 2);
        assert_eq!(report.newest_verified_seq, Some(3));
        assert_eq!(report.quarantined.len(), 1);
        assert!(!report.is_clean());
        assert!(report.quarantined[0].to_string_lossy().ends_with(".quarantined"));
        assert!(report.quarantined[0].exists(), "bytes kept for forensics");
        assert!(!victim.exists(), "corrupt file no longer under its checkpoint name");

        // A second scrub over the healed directory is clean.
        let again = scrub_dir(storage.as_ref(), &dir).unwrap();
        assert_eq!(again.checked, 2);
        assert!(again.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_reports_a_torn_wal_tail_without_mutating_it() {
        let dir = tmp_dir("tail");
        let storage = real_fs();
        let (mut wal, _) = crate::Wal::open(&dir).unwrap();
        wal.append(&[]).unwrap();
        drop(wal);
        let wal_path = dir.join(WAL_FILE);
        let mut raw = std::fs::read(&wal_path).unwrap();
        raw.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&wal_path, &raw).unwrap();

        let report = scrub_dir(storage.as_ref(), &dir).unwrap();
        assert_eq!(report.wal_records, 1);
        assert!(report.wal_tail_torn);
        assert_eq!(std::fs::read(&wal_path).unwrap(), raw, "scrub never rewrites the WAL");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
