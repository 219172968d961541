//! Integration tests for incremental maintenance (Section IV) and
//! jurisdiction-partitioned parallel anonymization (Section V).

use lbs_core::verify_policy_aware;
use lbs_parallel::anonymize_partitioned;
use policy_aware_lbs::prelude::*;

fn bay(n: usize) -> (LocationDb, Rect, BayAreaConfig) {
    let mut cfg = BayAreaConfig::scaled_to(n);
    cfg.map_side = 1 << 14;
    let db = generate_master(&cfg);
    let map = cfg.map();
    (db, map, cfg)
}

/// A long snapshot sequence: incremental cost tracks from-scratch cost
/// exactly, and the maintained policy stays verified.
#[test]
fn incremental_tracks_bulk_over_long_sequences() {
    let k = 20;
    let (mut db, map, _) = bay(5_000);
    let config = TreeConfig::lazy(TreeKind::Binary, map, k);
    let mut engine = IncrementalAnonymizer::new(&db, config, k).unwrap();
    for snapshot in 1..=10u64 {
        let fraction = if snapshot % 3 == 0 { 0.08 } else { 0.01 };
        let moves = random_moves(&db, &map, fraction, 200.0, snapshot);
        db.apply_moves(&moves).unwrap();
        engine.apply_moves(&moves).unwrap();

        let fresh = Anonymizer::build(&db, map, k).unwrap();
        assert_eq!(engine.optimal_cost().unwrap(), fresh.cost(), "snapshot {snapshot}");
        let policy = engine.policy().unwrap();
        verify_policy_aware(policy, &db, k).unwrap();
    }
}

/// Incremental maintenance on an *empty* move batch is a no-op that
/// recomputes nothing.
#[test]
fn empty_move_batch_recomputes_nothing() {
    let k = 10;
    let (db, map, _) = bay(2_000);
    let mut engine =
        IncrementalAnonymizer::new(&db, TreeConfig::lazy(TreeKind::Binary, map, k), k).unwrap();
    let before = engine.optimal_cost().unwrap();
    let report = engine.apply_moves(&[]).unwrap();
    assert_eq!(report.moved, 0);
    assert_eq!(report.rows_recomputed, 0);
    assert_eq!(engine.optimal_cost().unwrap(), before);
}

/// Mass migration (every user moves) still converges to the fresh build.
#[test]
fn full_migration_equals_fresh_build() {
    let k = 15;
    let (mut db, map, _) = bay(3_000);
    let mut engine =
        IncrementalAnonymizer::new(&db, TreeConfig::lazy(TreeKind::Binary, map, k), k).unwrap();
    let moves = random_moves(&db, &map, 1.0, 5_000.0, 99);
    assert_eq!(moves.len(), db.len());
    db.apply_moves(&moves).unwrap();
    engine.apply_moves(&moves).unwrap();
    let fresh = Anonymizer::build(&db, map, k).unwrap();
    assert_eq!(engine.optimal_cost().unwrap(), fresh.cost());
}

/// Jurisdiction partitioning: users are split disjointly and exhaustively,
/// per-jurisdiction populations honor the 0-or-≥k rule, and the master
/// policy is anonymous with cost ≥ the single-server optimum.
#[test]
fn partitioning_invariants_across_server_counts() {
    let k = 25;
    let (db, map, _) = bay(8_000);
    let optimal = Anonymizer::build(&db, map, k).unwrap().cost();
    let mut previous_cost = optimal;
    for servers in [1usize, 2, 4, 8, 16, 64, 256] {
        let outcome = anonymize_partitioned(&db, map, k, servers).unwrap();
        // Exhaustive and disjoint: every user cloaked exactly once.
        assert_eq!(outcome.policy.len(), db.len(), "servers={servers}");
        assert!(outcome.policy.is_masking_and_total(&db));
        verify_policy_aware(&outcome.policy, &db, k).unwrap();
        // Monotone-ish degradation: more jurisdictions never reduce cost
        // below the global optimum.
        assert!(outcome.total_cost >= optimal, "servers={servers}");
        // Divergence stays tiny at sane server counts (paper: < 1% even
        // at 4096 jurisdictions on 1M users).
        assert!(
            outcome.divergence_from(optimal) < 0.02,
            "servers={servers}: divergence {}",
            outcome.divergence_from(optimal)
        );
        previous_cost = previous_cost.max(outcome.total_cost);
        // Per-server sanity.
        let total_users: usize = outcome.servers.iter().map(|s| s.users).sum();
        assert_eq!(total_users, db.len());
        for s in &outcome.servers {
            assert!(s.users == 0 || s.users >= k, "jurisdiction with 0 < {} < k", s.users);
        }
    }
}

/// One server == the plain anonymizer, exactly.
#[test]
fn one_server_equals_plain_anonymizer() {
    let k = 10;
    let (db, map, _) = bay(1_500);
    let plain = Anonymizer::build(&db, map, k).unwrap();
    let outcome = anonymize_partitioned(&db, map, k, 1).unwrap();
    assert_eq!(outcome.total_cost, plain.cost());
    for (user, _) in db.iter() {
        // Same optimal equivalence class: per-user cloak areas may differ
        // (Lemma 1 allows any representative) but the multiset of group
        // sizes and the cost must match. Check cost per cloak family:
        let a = outcome.policy.cloak_of(user).unwrap().rect().unwrap().area();
        let b = plain.policy().cloak_of(user).unwrap().rect().unwrap().area();
        // Both derive from the same DP matrix and extraction order, hence
        // identical in practice:
        assert_eq!(a, b, "{user}");
    }
}

/// Insufficient population anywhere surfaces cleanly.
#[test]
fn sparse_population_fails_cleanly() {
    let db = LocationDb::from_rows([
        (UserId(0), Point::new(10, 10)),
        (UserId(1), Point::new(4_000, 4_000)),
    ])
    .unwrap();
    let map = Rect::square(0, 0, 1 << 14);
    let err = anonymize_partitioned(&db, map, 3, 4).unwrap_err();
    assert!(matches!(err, CoreError::InsufficientPopulation { population: 2, k: 3 }));
}
