//! The DP's `u64` cost column and the entry bound that makes it exact.
//!
//! Every builder checks `count(root) × area(root) ≤ COST_BOUND` (2⁶²)
//! before it computes a row. Under the bound every dense cost and every
//! Stage-2 weighted sum fits in `u64` below the `INFINITE_COST` sentinel;
//! past it each entry point returns `CoreError::CostOverflow` instead of
//! overflowing (a panic in a debug build, a wrong policy in a release
//! one).

use lbs_core::{
    brute_force_optimal_cost, bulk_dp_dense, bulk_dp_fast, bulk_dp_fast_quad, bulk_dp_fast_rowwise,
    bulk_dp_fast_with_options, bulk_dp_fast_with_scratch, DpScratch, COST_BOUND,
};
use policy_aware_lbs::model::UserUpdate;
use policy_aware_lbs::prelude::*;

const K: usize = 2;

fn db(points: &[(i64, i64)]) -> LocationDb {
    LocationDb::from_rows(
        points.iter().enumerate().map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
    )
    .unwrap()
}

/// One user near each corner of a square map of side `side` (the first
/// `n` of them).
fn corners(side: i64, n: usize) -> LocationDb {
    let far = side - 2;
    db(&[(1, 1), (far, 1), (1, far), (far, far)][..n])
}

fn assert_overflow<T: std::fmt::Debug>(got: Result<T, CoreError>, population: usize, side: i64) {
    let area = (side as u128) * (side as u128);
    match got {
        Err(CoreError::CostOverflow { population: p, area: a }) => {
            assert_eq!((p, a), (population, area));
        }
        other => panic!("expected CostOverflow, got {other:?}"),
    }
}

#[test]
fn every_builder_rejects_a_population_past_the_bound() {
    // 3 users on a 2³² m map (area 2⁶⁴): 3·2⁶⁴ > 2⁶².
    let side = 1i64 << 32;
    let users = corners(side, 3);
    let map = Rect::square(0, 0, side);
    let binary = SpatialTree::build(&users, TreeConfig::lazy(TreeKind::Binary, map, K)).unwrap();
    let quad = SpatialTree::build(&users, TreeConfig::lazy(TreeKind::Quad, map, K)).unwrap();
    assert_overflow(bulk_dp_fast(&binary, K), 3, side);
    assert_overflow(bulk_dp_fast_with_options(&binary, K, false), 3, side);
    assert_overflow(bulk_dp_fast_with_scratch(&binary, K, &mut DpScratch::new()), 3, side);
    assert_overflow(bulk_dp_fast_rowwise(&binary, K), 3, side);
    assert_overflow(bulk_dp_fast_quad(&quad, K), 3, side);
    assert_overflow(bulk_dp_dense(&binary, K), 3, side);
    assert_overflow(bulk_dp_dense(&quad, K), 3, side);
    assert_overflow(Anonymizer::build(&users, map, K).map(|a| a.cost()), 3, side);
}

#[test]
fn an_insert_past_the_bound_fails_the_incremental_refresh() {
    // 4 users on a 2³⁰ m map sit exactly at the bound (4·2⁶⁰ = 2⁶²); a
    // fifth pushes |D|·A past it.
    let side = 1i64 << 30;
    let map = Rect::square(0, 0, side);
    let cfg = TreeConfig::lazy(TreeKind::Binary, map, K);
    let mut inc = IncrementalAnonymizer::new(&corners(side, 4), cfg, K).unwrap();
    let before = inc.optimal_cost().unwrap();
    inc.stage_updates(&[UserUpdate::Insert { user: UserId(4), at: Point::new(2, 2) }]).unwrap();
    assert_overflow(inc.refresh(), 5, side);
    assert!(matches!(inc.optimal_cost(), Err(CoreError::StaleMatrix(_))), "rows stay pending");
    // Deleting the fifth user brings the population back within the bound.
    inc.stage_updates(&[UserUpdate::Delete { user: UserId(4) }]).unwrap();
    inc.refresh().unwrap();
    assert_eq!(inc.optimal_cost().unwrap(), before);
}

#[test]
fn at_the_bound_every_builder_agrees_cell_for_cell_and_with_brute_force() {
    // 4 users on a 2³⁰ m map: |D|·A = 2⁶² exactly, and the root's
    // Stage-2 weighted sums reach it (cloaking all 4 there: 4 × 2⁶⁰).
    let side = 1i64 << 30;
    let users = corners(side, 4);
    let map = Rect::square(0, 0, side);
    let tree = SpatialTree::build(&users, TreeConfig::eager(TreeKind::Binary, map, 4)).unwrap();
    let fast = bulk_dp_fast(&tree, K).unwrap();
    let rowwise = bulk_dp_fast_rowwise(&tree, K).unwrap();
    let dense = bulk_dp_dense(&tree, K).unwrap();
    for id in tree.postorder() {
        let (f, r, d) = (fast.row(id).unwrap(), rowwise.row(id).unwrap(), dense.row(id).unwrap());
        assert_eq!(f.dense, r.dense, "fast vs rowwise at {id}");
        // The dense reference has no Lemma-5 cap: the capped rows are a
        // prefix of its rows.
        assert_eq!(f.dense[..], d.dense[..f.dense.len()], "fast vs dense at {id}");
        for (u, _) in f.iter() {
            assert_eq!(fast.split_of(&tree, id, u), rowwise.split_of(&tree, id, u), "{id} u={u}");
        }
    }
    let optimum = fast.optimal_cost(&tree).unwrap();
    assert_eq!(Some(optimum), brute_force_optimal_cost(&tree, K));
    assert_eq!(rowwise.optimal_cost(&tree).unwrap(), optimum);
    assert_eq!(dense.optimal_cost(&tree).unwrap(), optimum);
    // Two users per half: each pair cloaks in its half (2 × 2⁵⁹ × 2).
    assert_eq!(optimum, 1 << 61);
    let policy = fast.extract_policy(&tree).unwrap();
    assert_eq!(policy.cost_exact(), Some(optimum));
    assert!(verify_policy_aware(&policy, &users, K).is_ok());
}

#[test]
fn the_paper_scale_population_fits_the_bound() {
    // EXPERIMENTS.md and the benchmark anonymize up to 1.75M users on the
    // Bay Area map; 2²¹ covers them with room to spare. A map or
    // population change that breaks this would make `bulk_paper` fail with
    // CostOverflow, so it fails here first.
    let area = BayAreaConfig::scaled_to(2_000_000).map().area();
    assert!(area * (1 << 21) <= COST_BOUND, "2²¹ users × {area} m² exceeds 2⁶²");
}
