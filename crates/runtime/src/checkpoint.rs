//! Durable checkpoints: the committed state of the anonymizer at one WAL
//! sequence number.
//!
//! A checkpoint file `checkpoint-<seq>.ckpt` holds the location database
//! snapshot as of WAL record `seq`, plus the runtime parameters (k, map,
//! epoch) needed to resume. The spatial tree, the DP matrix and the
//! committed [`BulkPolicy`](lbs_model::BulkPolicy) are *not* stored: all
//! three are deterministic functions of the database (proved by the tree
//! and core test suites), so recovery rebuilds the tree and re-extracts
//! the policy — a checkpoint stays small and can never disagree with its
//! own database.
//!
//! Layout (version 2), little-endian throughout, `88 + 24·n` bytes for
//! `n` users:
//!
//! ```text
//! [magic: u32][version: u32 = 2][epoch: u64][wal_seq: u64][k: u64]
//! [map x0, y0, x1, y1: i64 × 4]                     64-byte header
//! [db_len: u64][snapshot: db_len = 12 + 24·n bytes]
//! [crc32(everything before): u32]
//! ```
//!
//! Version 1 also stored the committed policy after the snapshot; the
//! decoder rejects it as corrupt rather than guess at its layout.
//!
//! Files are written atomically (temp file + fsync + rename) and never
//! modified afterwards. A corrupt generation degrades recovery to an
//! older one plus a longer WAL replay; the scrub pass quarantines files
//! that fail their CRC (renamed to `*.quarantined`, invisible to
//! listing), and retention GC prunes generations strictly older than the
//! newest *verified* checkpoint plus the WAL records it no longer needs
//! (DESIGN.md §14). All I/O flows through a [`StorageBackend`] so the
//! disk-fault sweeps can exercise every failure mode deterministically.

use crate::error::{io_err, RuntimeError};
use crate::storage::{real_fs, StorageBackend};
use crate::wal::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use lbs_geom::Rect;
use lbs_model::{decode_snapshot, put_snapshot, snapshot_len, LocationDb};
use std::path::{Path, PathBuf};

const MAGIC: u32 = 0x4C42_5343; // "LBSC"
const VERSION: u32 = 2;

/// Byte length of the fixed header (magic through map).
const HEADER_LEN: usize = 64;

/// Extension appended to files the scrub pass quarantines; quarantined
/// files no longer match the checkpoint name shape, so every listing and
/// recovery path ignores them while the bytes stay on disk for forensics.
pub const QUARANTINE_SUFFIX: &str = "quarantined";

/// The runtime parameters a checkpoint carries besides the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Policy epoch at the checkpoint (count of commits so far).
    pub epoch: u64,
    /// WAL sequence number this state reflects: recovery replays records
    /// with `seq > wal_seq`.
    pub wal_seq: u64,
    /// Anonymity level the runtime was configured with.
    pub k: usize,
    /// The map every tree is built over.
    pub map: Rect,
}

/// A decoded checkpoint: committed runtime state as of one WAL sequence
/// number.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Epoch, sequence number, k and map.
    pub header: CheckpointHeader,
    /// Location database at `header.wal_seq`.
    pub db: LocationDb,
}

/// Canonical file name for the checkpoint at `seq`.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:012}.ckpt"))
}

fn seq_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let middle = name.strip_prefix("checkpoint-")?.strip_suffix(".ckpt")?;
    middle.parse().ok()
}

/// Serializes a checkpoint (trailing CRC included), writing the snapshot
/// straight from the borrowed database.
pub fn encode_checkpoint(header: &CheckpointHeader, db: &LocationDb) -> Bytes {
    let db_len = snapshot_len(db);
    let mut buf = BytesMut::with_capacity(HEADER_LEN + 8 + db_len + 4);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(header.epoch);
    buf.put_u64_le(header.wal_seq);
    buf.put_u64_le(header.k as u64);
    buf.put_i64_le(header.map.x0);
    buf.put_i64_le(header.map.y0);
    buf.put_i64_le(header.map.x1);
    buf.put_i64_le(header.map.y1);
    buf.put_u64_le(db_len as u64);
    put_snapshot(&mut buf, db);
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.freeze()
}

/// Decodes and validates a checkpoint buffer, parsing it in place.
///
/// # Errors
/// [`RuntimeError::CorruptCheckpoint`] (with `path` for context) on any
/// structural problem: truncation, bad magic, a version other than 2,
/// CRC mismatch, or a corrupt inner snapshot.
pub fn decode_checkpoint(raw: &[u8], path: &Path) -> Result<Checkpoint, RuntimeError> {
    let corrupt =
        |message: String| RuntimeError::CorruptCheckpoint { path: path.to_path_buf(), message };
    if raw.len() < HEADER_LEN + 4 {
        return Err(corrupt(format!("truncated: {} bytes", raw.len())));
    }
    let (mut buf, tail) = raw.split_at(raw.len() - 4);
    let want_crc = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    if crc32(buf) != want_crc {
        return Err(corrupt("checksum mismatch".into()));
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:#x}")));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported version {version}; this build reads version {VERSION} only"
        )));
    }
    let epoch = buf.get_u64_le();
    let wal_seq = buf.get_u64_le();
    let k = usize::try_from(buf.get_u64_le()).map_err(|_| corrupt("k overflows usize".into()))?;
    let (x0, y0, x1, y1) = (buf.get_i64_le(), buf.get_i64_le(), buf.get_i64_le(), buf.get_i64_le());
    if x0 >= x1 || y0 >= y1 {
        return Err(corrupt("empty or inverted map".into()));
    }
    let map = Rect::new(x0, y0, x1, y1);
    if buf.remaining() < 8 {
        return Err(corrupt("truncated database length".into()));
    }
    let db_len = buf.get_u64_le();
    if usize::try_from(db_len).ok() != Some(buf.remaining()) {
        return Err(corrupt(format!(
            "expected {db_len} database bytes, found {}",
            buf.remaining()
        )));
    }
    let db = decode_snapshot(buf).map_err(|e| corrupt(format!("database: {e}")))?;
    Ok(Checkpoint { header: CheckpointHeader { epoch, wal_seq, k, map }, db })
}

/// Cheap structural verification: minimum length, trailing CRC over the
/// body, magic, and version — everything scrub and GC need to classify a
/// generation as clean without paying for a full snapshot decode.
pub fn verify_checkpoint_bytes(raw: &[u8]) -> bool {
    if raw.len() < HEADER_LEN + 4 {
        return false;
    }
    let (body, tail) = raw.split_at(raw.len() - 4);
    if crc32(body) != u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]) {
        return false;
    }
    u32::from_le_bytes([body[0], body[1], body[2], body[3]]) == MAGIC
        && u32::from_le_bytes([body[4], body[5], body[6], body[7]]) == VERSION
}

/// Writes a checkpoint atomically on the real filesystem. See
/// [`write_checkpoint_via`].
///
/// # Errors
/// [`RuntimeError::Io`] on filesystem failure;
/// [`RuntimeError::FaultInjected`] when `torn` fired.
pub fn write_checkpoint(
    dir: &Path,
    header: &CheckpointHeader,
    db: &LocationDb,
    torn: bool,
) -> Result<PathBuf, RuntimeError> {
    write_checkpoint_via(real_fs().as_ref(), dir, header, db, torn)
}

/// Writes a checkpoint atomically through `storage`: temp file, fsync,
/// rename. When `torn` is set (fault injection), only a prefix of the
/// bytes is written and the temp file is left behind *without* renaming —
/// exactly the on-disk state of a crash mid-checkpoint.
///
/// # Errors
/// [`RuntimeError::Io`] on storage failure (injected disk faults
/// included); [`RuntimeError::FaultInjected`] when `torn` fired.
pub fn write_checkpoint_via(
    storage: &dyn StorageBackend,
    dir: &Path,
    header: &CheckpointHeader,
    db: &LocationDb,
    torn: bool,
) -> Result<PathBuf, RuntimeError> {
    let bytes = encode_checkpoint(header, db);
    let final_path = checkpoint_path(dir, header.wal_seq);
    let tmp_path = final_path.with_extension("ckpt.tmp");
    let mut file = storage.create(&tmp_path).map_err(|e| io_err("create", &tmp_path, e))?;
    if torn {
        let cut = bytes.len() / 2;
        file.write_all(&bytes[..cut]).map_err(|e| io_err("write", &tmp_path, e))?;
        let _ = file.sync();
        return Err(RuntimeError::FaultInjected(format!(
            "crash mid-checkpoint at seq {}",
            header.wal_seq
        )));
    }
    file.write_all(&bytes).map_err(|e| io_err("write", &tmp_path, e))?;
    file.sync().map_err(|e| io_err("sync", &tmp_path, e))?;
    drop(file);
    storage.rename(&tmp_path, &final_path).map_err(|e| io_err("rename", &tmp_path, e))?;
    Ok(final_path)
}

/// Lists checkpoint files in `dir` on the real filesystem, newest
/// (highest seq) first. See [`list_checkpoints_via`].
///
/// # Errors
/// [`RuntimeError::Io`] when the directory cannot be read.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, RuntimeError> {
    list_checkpoints_via(real_fs().as_ref(), dir)
}

/// Lists checkpoint files in `dir` through `storage`, newest (highest
/// seq) first. Temp files from torn writes and quarantined files are
/// ignored — neither matches the `checkpoint-<seq>.ckpt` shape.
///
/// # Errors
/// [`RuntimeError::Io`] when the directory cannot be read.
pub fn list_checkpoints_via(
    storage: &dyn StorageBackend,
    dir: &Path,
) -> Result<Vec<(u64, PathBuf)>, RuntimeError> {
    let entries = storage.list(dir).map_err(|e| io_err("read_dir", dir, e))?;
    let mut found = Vec::new();
    for path in entries {
        if let Some(seq) = seq_of(&path) {
            found.push((seq, path));
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Renames `path` out of the checkpoint namespace (appending
/// `.quarantined`) so recovery and GC never consider it again, while the
/// corrupt bytes stay on disk for forensics. Returns the new path.
///
/// # Errors
/// [`RuntimeError::Io`] when the rename fails.
pub fn quarantine(storage: &dyn StorageBackend, path: &Path) -> Result<PathBuf, RuntimeError> {
    let mut name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    name.push('.');
    name.push_str(QUARANTINE_SUFFIX);
    let target = path.with_file_name(name);
    storage.rename(path, &target).map_err(|e| io_err("quarantine", path, e))?;
    Ok(target)
}

/// What [`load_latest_via`] found: the newest structurally valid
/// checkpoint (if any) and the newer generations it had to skip because
/// they failed validation — each skip is a generation fallback the
/// caller should surface in metrics.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The newest checkpoint that decoded cleanly.
    pub checkpoint: Option<Checkpoint>,
    /// Corrupt (unreadable or CRC-failing) checkpoint files skipped on
    /// the way down, newest first.
    pub skipped: Vec<PathBuf>,
}

/// Loads the newest structurally valid checkpoint on the real
/// filesystem. See [`load_latest_via`].
///
/// # Errors
/// [`RuntimeError::Io`] on directory or file read failure.
pub fn load_latest(dir: &Path) -> Result<Option<Checkpoint>, RuntimeError> {
    Ok(load_latest_via(real_fs().as_ref(), dir)?.checkpoint)
}

/// Loads the newest structurally valid checkpoint through `storage`,
/// skipping corrupt ones (a skipped generation only means a longer WAL
/// replay — retention GC never prunes records a retained generation
/// still needs). Returns the checkpoint plus the skipped corrupt paths.
///
/// # Errors
/// [`RuntimeError::Io`] on directory or file read failure.
pub fn load_latest_via(
    storage: &dyn StorageBackend,
    dir: &Path,
) -> Result<LoadOutcome, RuntimeError> {
    let mut skipped = Vec::new();
    for (_, path) in list_checkpoints_via(storage, dir)? {
        let raw = storage.read(&path).map_err(|e| io_err("read", &path, e))?;
        match decode_checkpoint(&raw, &path) {
            Ok(ckpt) => return Ok(LoadOutcome { checkpoint: Some(ckpt), skipped }),
            Err(RuntimeError::CorruptCheckpoint { .. }) => skipped.push(path),
            Err(other) => return Err(other),
        }
    }
    Ok(LoadOutcome { checkpoint: None, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_geom::Point;
    use lbs_model::{encode_policy, encode_snapshot, BulkPolicy, UserId};

    fn header(wal_seq: u64) -> CheckpointHeader {
        CheckpointHeader { epoch: 4, wal_seq, k: 3, map: Rect::square(0, 0, 32) }
    }

    fn db(n: u64) -> LocationDb {
        LocationDb::from_rows((0..n).map(|i| (UserId(i), Point::new(i as i64 * 3, 7 - i as i64))))
            .unwrap()
    }

    fn write(dir: &Path, wal_seq: u64, torn: bool) -> Result<PathBuf, RuntimeError> {
        write_checkpoint(dir, &header(wal_seq), &db(8), torn)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lbs-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `body` with its CRC-32 appended, as checkpoint files end.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    #[test]
    fn round_trip_preserves_everything() {
        let bytes = encode_checkpoint(&header(17), &db(8));
        let back = decode_checkpoint(&bytes, Path::new("x")).unwrap();
        assert_eq!(back.header, header(17));
        assert_eq!(encode_snapshot(&back.db), encode_snapshot(&db(8)));
    }

    /// A 64-byte header, the 8-byte database length, a `12 + 24·n`-byte
    /// snapshot and the 4-byte CRC: nothing else.
    #[test]
    fn an_encoded_checkpoint_is_exactly_88_plus_24_bytes_per_user() {
        for n in [0, 1, 8, 1000] {
            assert_eq!(encode_checkpoint(&header(1), &db(n)).len() as u64, 88 + 24 * n, "{n}");
        }
    }

    /// A version-1 file (header, database, then the committed policy that
    /// version 2 dropped) is typed corruption naming its version, even
    /// with a valid CRC: the decoder never guesses at an old layout.
    #[test]
    fn a_crc_valid_version_1_file_is_rejected() {
        let mut body = encode_checkpoint(&header(5), &db(4)).to_vec();
        body.truncate(body.len() - 4);
        body[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mut policy = BulkPolicy::new("v1");
        for user in db(4).users() {
            policy.assign(user, Rect::square(0, 0, 32).into());
        }
        let policy = encode_policy(&policy);
        body.extend_from_slice(&(policy.len() as u64).to_le_bytes());
        body.extend_from_slice(&policy);
        let raw = sealed(body);
        match decode_checkpoint(&raw, Path::new("v1.ckpt")) {
            Err(RuntimeError::CorruptCheckpoint { message, .. }) => {
                assert!(message.contains("version 1"), "{message}");
            }
            other => panic!("a version-1 file must be CorruptCheckpoint, got {other:?}"),
        }
        assert!(!verify_checkpoint_bytes(&raw), "scrub and GC must not count it as clean");
    }

    #[test]
    fn every_truncation_and_any_bitflip_is_rejected() {
        let bytes = encode_checkpoint(&header(1), &db(8));
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..cut], Path::new("x")).is_err(),
                "truncation at {cut} accepted"
            );
        }
        for idx in [0, 5, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.to_vec();
            bad[idx] ^= 0x01;
            assert!(decode_checkpoint(&bad, Path::new("x")).is_err(), "bitflip at {idx} accepted");
        }
    }

    /// CRC-valid bodies that end right after the fixed header, claim a
    /// database longer or shorter than the bytes present, or carry an
    /// empty map are typed errors, not panics.
    #[test]
    fn crc_valid_truncated_or_oversized_bodies_are_rejected() {
        let mut fixed = Vec::new();
        fixed.extend_from_slice(&MAGIC.to_le_bytes());
        fixed.extend_from_slice(&VERSION.to_le_bytes());
        fixed.extend_from_slice(&[0u8; 24]);
        for coord in [0i64, 0, 32, 32] {
            fixed.extend_from_slice(&coord.to_le_bytes());
        }
        for len in HEADER_LEN..HEADER_LEN + 8 {
            let mut body = fixed.clone();
            body.resize(len, 0);
            let res = decode_checkpoint(&sealed(body), Path::new("x"));
            assert!(matches!(res, Err(RuntimeError::CorruptCheckpoint { .. })), "{len} bytes");
        }
        let snapshot = encode_snapshot(&db(2));
        for db_len in [u64::MAX, snapshot.len() as u64 + 1, snapshot.len() as u64 - 1] {
            let mut body = fixed.clone();
            body.extend_from_slice(&db_len.to_le_bytes());
            body.extend_from_slice(&snapshot);
            let res = decode_checkpoint(&sealed(body), Path::new("x"));
            assert!(matches!(res, Err(RuntimeError::CorruptCheckpoint { .. })), "{db_len}");
        }
        // An empty map rect (x0 == x1) is corruption, not a Rect::new panic.
        let mut body = fixed.clone();
        body[48..56].copy_from_slice(&0i64.to_le_bytes());
        body.resize(80, 0);
        let res = decode_checkpoint(&sealed(body), Path::new("x"));
        assert!(matches!(res, Err(RuntimeError::CorruptCheckpoint { .. })));
    }

    #[test]
    fn load_latest_skips_corrupt_and_torn_files() {
        let dir = tmp_dir("skip");
        write(&dir, 3, false).unwrap();
        write(&dir, 9, false).unwrap();
        // Corrupt the newest in place.
        let newest = checkpoint_path(&dir, 9);
        let mut raw = std::fs::read(&newest).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&newest, &raw).unwrap();
        // Plus a torn temp file from a crashed write of seq 12.
        assert!(matches!(write(&dir, 12, true), Err(RuntimeError::FaultInjected(_))));
        assert!(!checkpoint_path(&dir, 12).exists(), "torn write must not publish");

        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.header.wal_seq, 3, "fell back past the corrupt newest checkpoint");
        // The via-variant names the generation it skipped.
        let outcome = load_latest_via(real_fs().as_ref(), &dir).unwrap();
        assert_eq!(outcome.checkpoint.as_ref().unwrap().header.wal_seq, 3);
        assert_eq!(outcome.skipped, vec![newest]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_state() {
        let dir = tmp_dir("empty");
        assert!(load_latest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_files_vanish_from_listing_and_recovery() {
        let dir = tmp_dir("quarantine");
        write(&dir, 2, false).unwrap();
        write(&dir, 5, false).unwrap();
        let fs = real_fs();
        let target = quarantine(fs.as_ref(), &checkpoint_path(&dir, 5)).unwrap();
        assert!(target.to_string_lossy().ends_with(".ckpt.quarantined"));
        assert!(target.exists(), "quarantine keeps the bytes for forensics");
        let listed = list_checkpoints(&dir).unwrap();
        assert_eq!(listed.iter().map(|&(s, _)| s).collect::<Vec<_>>(), [2]);
        assert_eq!(load_latest(&dir).unwrap().unwrap().header.wal_seq, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
