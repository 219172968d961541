//! Structural invariants of jurisdiction partitioning beyond the
//! cost-focused unit tests: determinism, spatial disjointness, the
//! contiguous-range layout, and stability of the greedy order.

use lbs_geom::{Point, Rect};
use lbs_model::{LocationDb, UserId};
use lbs_parallel::{anonymize_partitioned, partition_users, Jurisdiction};
use lbs_workload::{generate_master, BayAreaConfig};

fn setup(n: usize) -> (LocationDb, Rect) {
    let mut cfg = BayAreaConfig::scaled_to(n);
    cfg.map_side = 1 << 14;
    let db = generate_master(&cfg);
    let map = cfg.map();
    (db, map)
}

/// Partitions a fresh copy of `db`'s users; returns the reordered users
/// with the jurisdictions over them.
#[expect(clippy::unwrap_used, reason = "a partitioning error fails the calling test")]
fn partition(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
) -> (Vec<(UserId, Point)>, Vec<Jurisdiction>) {
    let mut users: Vec<(UserId, Point)> = db.iter().collect();
    let parts = partition_users(&mut users, map, k, servers, 1, None).unwrap();
    (users, parts)
}

#[test]
fn jurisdiction_rects_are_pairwise_disjoint_and_cover_all_users() {
    let k = 10;
    let (db, map) = setup(3_000);
    for servers in [2usize, 7, 33, 128] {
        let (_, parts) = partition(&db, map, k, servers);
        // Pairwise disjoint rects.
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                assert!(
                    !a.rect.intersects(&b.rect),
                    "servers={servers}: {} and {} overlap",
                    a.rect,
                    b.rect
                );
            }
        }
        // Every user falls in exactly one jurisdiction.
        for (user, p) in db.iter() {
            let n = parts.iter().filter(|j| j.rect.contains(&p)).count();
            assert_eq!(n, 1, "servers={servers}: {user} covered {n} times");
        }
    }
}

#[test]
fn jurisdiction_ranges_tile_the_users_and_hold_only_their_own() {
    let k = 10;
    let (db, map) = setup(3_000);
    for servers in [1usize, 2, 7, 33, 128] {
        let (users, parts) = partition(&db, map, k, servers);
        // The ranges tile 0..n (empty ones sort before their neighbour).
        let mut ranges: Vec<_> = parts.iter().map(|j| j.users.clone()).collect();
        ranges.sort_by_key(|r| (r.start, r.end));
        let mut next = 0;
        for range in &ranges {
            assert_eq!(range.start, next, "servers={servers}: gap or overlap at {next}");
            next = range.end;
        }
        assert_eq!(next, users.len(), "servers={servers}: ranges must end at n");
        // Every user in a range lies inside that jurisdiction's rect.
        for j in &parts {
            for (user, p) in &users[j.users.clone()] {
                assert!(j.rect.contains(p), "servers={servers}: {user} outside {}", j.rect);
            }
        }
        // The reordering is a permutation of the input.
        let mut before: Vec<UserId> = db.users().collect();
        let mut after: Vec<UserId> = users.iter().map(|&(u, _)| u).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "servers={servers}");
    }
}

#[test]
fn partitioning_is_deterministic() {
    let k = 10;
    let (db, map) = setup(2_000);
    let (users_a, a) = partition(&db, map, k, 16);
    let (users_b, b) = partition(&db, map, k, 16);
    assert_eq!(a, b);
    assert_eq!(users_a, users_b);
    // Re-partitioning an already reordered slice picks the same rects.
    let mut again = users_a;
    let c = partition_users(&mut again, map, k, 16, 1, None).unwrap();
    let rects = |parts: &[Jurisdiction]| parts.iter().map(|j| j.rect).collect::<Vec<_>>();
    assert_eq!(rects(&a), rects(&c));
}

#[test]
fn more_servers_refine_the_partition() {
    // Greedy always splits the most populous splittable node, so the
    // 2s-server partition's rects are each contained in some rect of the
    // s-server partition.
    let k = 10;
    let (db, map) = setup(3_000);
    let (_, coarse) = partition(&db, map, k, 8);
    let (_, fine) = partition(&db, map, k, 16);
    for f in &fine {
        assert!(
            coarse.iter().any(|c| c.rect.contains_rect(&f.rect)),
            "{} not nested in the coarse partition",
            f.rect
        );
    }
}

#[test]
fn requesting_more_servers_than_splittable_nodes_saturates() {
    let k = 10;
    let (db, map) = setup(500);
    let (_, parts) = partition(&db, map, k, 1_000_000);
    assert!(parts.len() < 1_000_000);
    let total: usize = parts.iter().map(|j| j.users.len()).sum();
    assert_eq!(total, db.len());
    // The saturated partition still anonymizes everything correctly.
    let outcome = anonymize_partitioned(&db, map, k, 1_000_000).unwrap();
    assert_eq!(outcome.policy.len(), db.len());
}

#[test]
fn zero_user_map_yields_single_empty_jurisdiction() {
    let db = LocationDb::new();
    let map = Rect::square(0, 0, 1 << 10);
    let (_, parts) = partition(&db, map, 5, 8);
    assert_eq!(parts, vec![Jurisdiction { rect: map, users: 0..0 }]);
    let outcome = anonymize_partitioned(&db, map, 5, 8).unwrap();
    assert_eq!(outcome.total_cost, 0);
    assert!(outcome.policy.is_empty());
}
