//! Compact binary encoding of location-database snapshots.
//!
//! The paper's CSP refreshes the location database every ~30 s for millions
//! of users; shipping snapshots to anonymization servers (Section V's
//! jurisdiction model) wants a compact wire format. Rows are fixed-width
//! little-endian integers: a 12-byte header, then 24 bytes per user.

use crate::{LocationDb, ModelError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x4C42_5331; // "LBS1"

/// Encodes a snapshot into a self-describing byte buffer.
pub fn encode_snapshot(db: &LocationDb) -> Bytes {
    let mut buf = BytesMut::with_capacity(snapshot_len(db));
    put_snapshot(&mut buf, db);
    buf.freeze()
}

/// Byte length of `db`'s snapshot encoding.
pub fn snapshot_len(db: &LocationDb) -> usize {
    12 + 24 * db.len()
}

/// Appends `db`'s snapshot encoding to `buf`: the bytes
/// [`encode_snapshot`] returns, written in place by a caller that frames
/// them inside a larger file.
pub fn put_snapshot(buf: &mut impl BufMut, db: &LocationDb) {
    buf.put_u32_le(MAGIC);
    buf.put_u64_le(db.len() as u64);
    for (user, point) in db.iter() {
        let mut row = [0u8; 24];
        row[..8].copy_from_slice(&user.0.to_le_bytes());
        row[8..16].copy_from_slice(&point.x.to_le_bytes());
        row[16..].copy_from_slice(&point.y.to_le_bytes());
        buf.put_slice(&row);
    }
}

/// Decodes a snapshot produced by [`encode_snapshot`] from any buffer, a
/// borrowed `&[u8]` included.
///
/// # Errors
/// Returns [`ModelError::CorruptSnapshot`] on truncation or bad magic, and
/// [`ModelError::DuplicateUser`] if the payload repeats a user id.
pub fn decode_snapshot(mut bytes: impl Buf) -> Result<LocationDb, ModelError> {
    if bytes.remaining() < 12 {
        return Err(ModelError::CorruptSnapshot("truncated header".into()));
    }
    let magic = bytes.get_u32_le();
    if magic != MAGIC {
        return Err(ModelError::CorruptSnapshot(format!("bad magic {magic:#x}")));
    }
    let n = bytes.get_u64_le();
    let rows = usize::try_from(n).ok().and_then(|n| n.checked_mul(24));
    if rows != Some(bytes.remaining()) {
        return Err(ModelError::CorruptSnapshot(format!(
            "{n} rows do not fit the {} row bytes present",
            bytes.remaining()
        )));
    }
    let mut db = LocationDb::new();
    for _ in 0..n {
        let user = crate::UserId(bytes.get_u64_le());
        let x = bytes.get_i64_le();
        let y = bytes.get_i64_le();
        db.insert(user, lbs_geom::Point::new(x, y))?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UserId;
    use lbs_geom::Point;

    fn sample() -> LocationDb {
        LocationDb::from_rows([
            (UserId(1), Point::new(1, 1)),
            (UserId(2), Point::new(-5, 42)),
            (UserId(900), Point::new(i64::MAX / 4, i64::MIN / 4)),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_rows() {
        let db = sample();
        let decoded = decode_snapshot(encode_snapshot(&db)).unwrap();
        assert_eq!(decoded.len(), db.len());
        for (user, point) in db.iter() {
            assert_eq!(decoded.location(user), Some(point));
        }
    }

    #[test]
    fn empty_round_trip() {
        let decoded = decode_snapshot(encode_snapshot(&LocationDb::new())).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = encode_snapshot(&sample());
        let cut = bytes.slice(0..bytes.len() - 3);
        assert!(matches!(decode_snapshot(cut), Err(ModelError::CorruptSnapshot(_))));
    }

    #[test]
    fn overflowing_row_count_rejected() {
        let mut raw = MAGIC.to_le_bytes().to_vec();
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode_snapshot(Bytes::from(raw)), Err(ModelError::CorruptSnapshot(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = encode_snapshot(&sample()).to_vec();
        raw[0] ^= 0xFF;
        assert!(matches!(decode_snapshot(Bytes::from(raw)), Err(ModelError::CorruptSnapshot(_))));
    }
}
