//! Surface-level contract tests for the model crate: stats, display
//! formats, error messages, and serde round trips — the parts downstream
//! tools (CLI, experiment tables, logs) depend on.

use lbs_geom::{Circle, Point, Rect, Region};
use lbs_model::{
    decode_snapshot, encode_snapshot, BulkPolicy, LocationDb, ModelError, RequestId, RequestParams,
    UserId,
};

fn policy() -> BulkPolicy {
    let mut p = BulkPolicy::new("stats");
    let r1: Region = Rect::new(0, 0, 4, 4).into(); // 16 m²
    let r2: Region = Rect::new(4, 0, 8, 2).into(); // 8 m²
    p.assign(UserId(0), r1);
    p.assign(UserId(1), r1);
    p.assign(UserId(2), r1);
    p.assign(UserId(3), r2);
    p.assign(UserId(4), r2);
    p
}

#[test]
#[expect(clippy::float_cmp, reason = "64.0 is the exact f64 image of the integer cost 64")]
fn policy_stats_fields_are_exact() {
    let stats = policy().stats();
    assert_eq!(stats.users, 5);
    assert_eq!(stats.groups, 2);
    assert_eq!(stats.min_group, 2);
    assert_eq!(stats.max_group, 3);
    assert_eq!(stats.cost_exact, Some(3 * 16 + 2 * 8));
    assert_eq!(stats.cost_f64, 64.0);
    assert!((stats.avg_area - 64.0 / 5.0).abs() < 1e-12);
}

#[test]
fn mixed_shape_policies_have_no_exact_cost() {
    let mut p = policy();
    p.assign(UserId(9), Circle::from_radius2(Point::new(0, 0), 4).into());
    assert_eq!(p.cost_exact(), None, "circles have irrational area");
    assert!(p.cost_f64() > 64.0);
}

#[test]
fn display_formats_are_stable() {
    assert_eq!(UserId(7).to_string(), "u7");
    assert_eq!(RequestId(3).to_string(), "r3");
    assert_eq!(Rect::new(0, 1, 2, 3).to_string(), "[0,2)x[1,3)");
    assert_eq!(Point::new(-4, 9).to_string(), "(-4, 9)");
    let region: Region = Rect::new(0, 0, 1, 1).into();
    assert_eq!(region.to_string(), "[0,1)x[0,1)");
    assert_eq!(RequestParams::from_pairs([("poi", "gas")]).to_string(), "[(poi, gas)]");
}

#[test]
fn error_messages_name_the_culprit() {
    assert_eq!(ModelError::DuplicateUser(UserId(5)).to_string(), "duplicate user u5 in snapshot");
    assert_eq!(ModelError::UnknownUser(UserId(1)).to_string(), "unknown user u1");
    assert!(ModelError::OutOfBounds { user: UserId(2), x: 9, y: -1 }
        .to_string()
        .contains("(9, -1)"));
    assert!(ModelError::CorruptSnapshot("bad".into()).to_string().contains("bad"));
}

#[test]
fn snapshot_codec_handles_maximal_coordinates() {
    let db = LocationDb::from_rows([
        (UserId(u64::MAX), Point::new(i64::MAX, i64::MIN)),
        (UserId(0), Point::new(0, 0)),
    ])
    .unwrap();
    let decoded = decode_snapshot(encode_snapshot(&db)).unwrap();
    assert_eq!(decoded.location(UserId(u64::MAX)), Some(Point::new(i64::MAX, i64::MIN)));
}

#[test]
#[expect(clippy::float_cmp, reason = "the empty policy's average area is exactly zero")]
fn empty_policy_stats_are_zeroed() {
    let p = BulkPolicy::new("empty");
    let stats = p.stats();
    assert_eq!((stats.users, stats.groups, stats.min_group, stats.max_group), (0, 0, 0, 0));
    assert_eq!(stats.cost_exact, Some(0));
    assert_eq!(p.avg_area_f64(), 0.0);
    assert_eq!(p.min_group_size(), None);
}
