//! Compact binary encoding of bulk policies.
//!
//! The CSP recomputes the policy every snapshot and must distribute it to
//! the request-serving front-ends (and, in the jurisdiction model of
//! Section V, collect per-server policies into the master policy). One
//! entry is a user id plus a cloak; rectangles dominate, so they get the
//! compact arm.

use crate::policy::ColumnBuilder;
use crate::{BulkPolicy, ModelError, UserId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use lbs_geom::{Circle, Point, Rect, Region};

const MAGIC: u32 = 0x4C42_5350; // "LBSP"
const TAG_RECT: u8 = 0;
const TAG_CIRCLE: u8 = 1;

/// Encodes a bulk policy into a self-describing byte buffer.
///
/// Entries follow the policy's user column, ascending by user id, so
/// equal policies encode identically (byte-comparable snapshots for
/// replication checks).
pub fn encode_policy(policy: &BulkPolicy) -> Bytes {
    let name = policy.name().as_bytes();
    let mut buf = BytesMut::with_capacity(16 + name.len() + 48 * policy.len());
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name);
    buf.put_u64_le(policy.len() as u64);
    for (user, region) in policy.iter() {
        buf.put_u64_le(user.0);
        match region {
            Region::Rect(r) => {
                buf.put_u8(TAG_RECT);
                buf.put_i64_le(r.x0);
                buf.put_i64_le(r.y0);
                buf.put_i64_le(r.x1);
                buf.put_i64_le(r.y1);
            }
            Region::Circle(c) => {
                buf.put_u8(TAG_CIRCLE);
                buf.put_i64_le(c.center.x);
                buf.put_i64_le(c.center.y);
                buf.put_u128_le(c.radius2);
            }
        }
    }
    buf.freeze()
}

/// Decodes a policy produced by [`encode_policy`].
///
/// Entries append to the policy's columns, each region numbered on first
/// sight. Entries out of user order or repeated are also accepted, with
/// the meaning of assigning them one by one (the last of a user wins).
///
/// # Errors
/// [`ModelError::CorruptSnapshot`] on truncation, bad magic, bad region
/// tags, or degenerate rectangles.
pub fn decode_policy(mut bytes: Bytes) -> Result<BulkPolicy, ModelError> {
    let corrupt = |msg: &str| ModelError::CorruptSnapshot(msg.to_string());
    if bytes.remaining() < 8 {
        return Err(corrupt("truncated header"));
    }
    if bytes.get_u32_le() != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let name_len = bytes.get_u32_le() as usize;
    if bytes.remaining() < name_len {
        return Err(corrupt("truncated name"));
    }
    let name = String::from_utf8(bytes.split_to(name_len).to_vec())
        .map_err(|_| corrupt("policy name is not UTF-8"))?;
    if bytes.remaining() < 8 {
        return Err(corrupt("truncated entry count"));
    }
    let count = bytes.get_u64_le() as usize;
    let mut columns = ColumnBuilder::default();
    for _ in 0..count {
        if bytes.remaining() < 9 {
            return Err(corrupt("truncated entry"));
        }
        let user = UserId(bytes.get_u64_le());
        let region = match bytes.get_u8() {
            TAG_RECT => {
                if bytes.remaining() < 32 {
                    return Err(corrupt("truncated rect"));
                }
                let (x0, y0, x1, y1) = (
                    bytes.get_i64_le(),
                    bytes.get_i64_le(),
                    bytes.get_i64_le(),
                    bytes.get_i64_le(),
                );
                if x0 >= x1 || y0 >= y1 {
                    return Err(corrupt("degenerate rect"));
                }
                Region::Rect(Rect::new(x0, y0, x1, y1))
            }
            TAG_CIRCLE => {
                if bytes.remaining() < 32 {
                    return Err(corrupt("truncated circle"));
                }
                let center = Point::new(bytes.get_i64_le(), bytes.get_i64_le());
                Region::Circle(Circle::from_radius2(center, bytes.get_u128_le()))
            }
            tag => return Err(ModelError::CorruptSnapshot(format!("unknown region tag {tag}"))),
        };
        columns.push(user, region);
    }
    if bytes.has_remaining() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(columns.finish(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BulkPolicy {
        let mut p = BulkPolicy::new("test-policy");
        p.assign(UserId(3), Rect::new(0, 0, 4, 4).into());
        p.assign(UserId(1), Rect::new(-8, -8, 8, 8).into());
        p.assign(UserId(2), Circle::from_radius2(Point::new(5, 5), 169).into());
        p
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "a lossless round trip must reproduce the cost bit for bit"
    )]
    fn round_trip_preserves_everything() {
        let p = sample();
        let decoded = decode_policy(encode_policy(&p)).unwrap();
        assert_eq!(decoded.name(), "test-policy");
        assert_eq!(decoded.len(), 3);
        for (user, region) in p.iter() {
            assert_eq!(decoded.cloak_of(user), Some(region));
        }
        assert_eq!(decoded.cost_f64(), p.cost_f64());
    }

    #[test]
    fn encoding_is_canonical() {
        // Assignment order must not affect the bytes.
        let mut a = BulkPolicy::new("p");
        let mut b = BulkPolicy::new("p");
        let r1: Region = Rect::new(0, 0, 2, 2).into();
        let r2: Region = Rect::new(2, 2, 4, 4).into();
        a.assign(UserId(1), r1);
        a.assign(UserId(2), r2);
        b.assign(UserId(2), r2);
        b.assign(UserId(1), r1);
        assert_eq!(encode_policy(&a), encode_policy(&b));
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let good = encode_policy(&sample());
        // Truncations at every prefix length must error, never panic.
        for cut in 0..good.len() {
            let res = decode_policy(good.slice(0..cut));
            assert!(res.is_err(), "prefix of {cut} bytes decoded");
        }
        // Bad magic.
        let mut raw = good.to_vec();
        raw[1] ^= 0x55;
        assert!(decode_policy(Bytes::from(raw)).is_err());
        // Bad region tag.
        let mut raw = good.to_vec();
        let tag_pos = 4 + 4 + "test-policy".len() + 8 + 8;
        raw[tag_pos] = 9;
        assert!(decode_policy(Bytes::from(raw)).is_err());
        // Trailing garbage.
        let mut raw = good.to_vec();
        raw.push(0);
        assert!(decode_policy(Bytes::from(raw)).is_err());
    }

    #[test]
    fn degenerate_rect_rejected_without_panic() {
        let mut p = BulkPolicy::new("x");
        p.assign(UserId(1), Rect::new(0, 0, 4, 4).into());
        let mut raw = encode_policy(&p).to_vec();
        // Make x1 == x0: decode must return an error, not panic in
        // Rect::new.
        let rect_x1_pos = raw.len() - 16;
        raw[rect_x1_pos..rect_x1_pos + 8].copy_from_slice(&0i64.to_le_bytes());
        assert!(matches!(decode_policy(Bytes::from(raw)), Err(ModelError::CorruptSnapshot(_))));
    }

    #[test]
    fn empty_policy_round_trips() {
        let p = BulkPolicy::new("empty");
        let decoded = decode_policy(encode_policy(&p)).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.name(), "empty");
    }

    #[test]
    fn unordered_and_repeated_entries_decode_as_one_by_one_assignments() {
        let (r1, r2): (Region, Region) =
            (Rect::new(0, 0, 2, 2).into(), Rect::new(2, 2, 4, 4).into());
        let mut p = BulkPolicy::new("p");
        p.assign(UserId(1), r1);
        p.assign(UserId(2), r2);
        let raw = encode_policy(&p).to_vec();
        let first = 4 + 4 + 1 + 8; // magic, name length, name, count
        let entry = 8 + 1 + 32; // user, tag, rect
        let with_users = |a: u64, b: u64| {
            let mut raw = raw.clone();
            raw[first..first + 8].copy_from_slice(&a.to_le_bytes());
            raw[first + entry..first + entry + 8].copy_from_slice(&b.to_le_bytes());
            decode_policy(Bytes::from(raw)).unwrap()
        };
        let swapped = with_users(2, 1);
        assert_eq!(swapped.cloak_of(UserId(2)), Some(&r1));
        assert_eq!(swapped.cloak_of(UserId(1)), Some(&r2));
        let repeated = with_users(7, 7);
        assert_eq!(repeated.len(), 1);
        assert_eq!(repeated.cloak_of(UserId(7)), Some(&r2), "the later entry wins");
        assert_eq!(repeated.cloaks(), [r2], "the overwritten cloak is dropped");
    }
}
