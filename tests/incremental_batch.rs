//! Byte-identity sweep for the batched incremental recompute path.
//!
//! The contract under test (DESIGN.md §13) has two layers:
//!
//! 1. **Matrix byte-identity**: for one staged batch, refreshing on the
//!    parallel work-stealing pool at any worker count produces the
//!    byte-identical `DpMatrix` as the sequential sweep — same bytes,
//!    same arena slots.
//! 2. **Grouping invariance**: committing a batch at once versus one
//!    move at a time yields the identical encoded policy and optimal
//!    cost. The raw arena layout is *history-dependent* (a lazy tree
//!    materializes nodes in commit order, so different groupings can
//!    permute arena slots), which is why this layer compares the policy
//!    fingerprint rather than raw matrix bytes.
//!
//! The sweep covers binary and quad trees, batch sizes {1, 7, 64, 4096},
//! and 1–8 refresh workers; the proptest below covers adversarial batch
//! shapes (same-user multi-move, move-then-move-back no-ops) with a
//! greedy 1-minimal move-list shrinker, since the vendored proptest has
//! no integrated shrinking.

use lbs_model::{encode_policy, UserUpdate};
use lbs_parallel::refresh_parallel;
use policy_aware_lbs::prelude::*;
use proptest::prelude::*;

const SWEEP_USERS: usize = 5_000;

fn sweep_base(kind: TreeKind, k: usize) -> (LocationDb, Rect, IncrementalAnonymizer) {
    let mut cfg = BayAreaConfig::scaled_to(SWEEP_USERS);
    cfg.map_side = 1 << 12;
    let db = generate_master(&cfg);
    let map = cfg.map();
    let inc = IncrementalAnonymizer::new(&db, TreeConfig::lazy(kind, map, k), k).unwrap();
    (db, map, inc)
}

/// Clones `base`, stages `moves` as one batch, and refreshes it — on the
/// work-stealing pool when `workers` is `Some(w)`, sequentially otherwise.
fn batched_refresh(
    base: &IncrementalAnonymizer,
    moves: &[Move],
    workers: Option<usize>,
) -> IncrementalAnonymizer {
    let mut inc = base.clone();
    let updates: Vec<UserUpdate> = moves.iter().copied().map(UserUpdate::Move).collect();
    inc.stage_updates(&updates).unwrap();
    match workers {
        Some(w) => {
            let config = EngineConfig { workers: w, ..EngineConfig::default() };
            refresh_parallel(&mut inc, &config, None, None, &|| false).unwrap();
        }
        None => {
            inc.refresh().unwrap();
        }
    }
    assert!(inc.is_fresh());
    inc
}

fn sweep(kind: TreeKind) {
    let k = 10;
    let (db, map, base) = sweep_base(kind, k);
    for (mi, &m) in [1usize, 7, 64, 4_096].iter().enumerate() {
        let moves =
            random_moves(&db, &map, m as f64 / SWEEP_USERS as f64, 200.0, 0x9_0 + mi as u64);
        assert_eq!(moves.len(), m, "workload produces exactly m movers");

        // Layer 2 reference: the same moves, one commit each.
        let mut one_at_a_time = base.clone();
        for mv in &moves {
            one_at_a_time.apply_moves(std::slice::from_ref(mv)).unwrap();
        }
        let ref_policy = encode_policy(one_at_a_time.policy().unwrap());
        let ref_cost = one_at_a_time.optimal_cost().unwrap();

        // Layer 1 reference: the same staged batch, sequential sweep.
        let mut seq = batched_refresh(&base, &moves, None);
        assert_eq!(
            encode_policy(seq.policy().unwrap()),
            ref_policy,
            "{kind:?} m={m}: batched policy diverged from one-at-a-time"
        );
        assert_eq!(seq.optimal_cost().unwrap(), ref_cost, "{kind:?} m={m}");

        for workers in 1..=8usize {
            let mut par = batched_refresh(&base, &moves, Some(workers));
            assert_eq!(
                par.matrix(),
                seq.matrix(),
                "{kind:?} m={m} workers={workers}: DP matrix diverged from sequential refresh"
            );
            assert_eq!(
                encode_policy(par.policy().unwrap()),
                ref_policy,
                "{kind:?} m={m} workers={workers}: policy fingerprint diverged"
            );
        }
    }
}

#[test]
fn batched_parallel_refresh_is_byte_identical_on_binary_trees() {
    sweep(TreeKind::Binary);
}

#[test]
fn batched_parallel_refresh_is_byte_identical_on_quad_trees() {
    sweep(TreeKind::Quad);
}

// ---------------------------------------------------------------------------
// Property-based batch shapes.
// ---------------------------------------------------------------------------

const SIDE: i64 = 64;

/// Greedy 1-minimal move-list shrinker: repeatedly drops any single move
/// whose removal keeps `failing` true, until every remaining move is
/// load-bearing for the failure.
fn shrink_moves<F: Fn(&[Move]) -> bool>(moves: &[Move], failing: F) -> Vec<Move> {
    let mut kept = moves.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            if failing(&candidate) {
                kept = candidate;
                shrunk = true;
                // Do not advance: the element now at `i` is untested.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return kept;
        }
    }
}

fn render_case(db: &LocationDb, moves: &[Move]) -> String {
    let mut rows: Vec<String> =
        db.iter().map(|(u, p)| format!("({u}, Point::new({}, {}))", p.x, p.y)).collect();
    rows.sort();
    let ms: Vec<String> = moves
        .iter()
        .map(|m| format!("Move {{ user: {}, to: Point::new({}, {}) }}", m.user, m.to.x, m.to.y))
        .collect();
    format!("db: [{}]\nmoves: [{}]", rows.join(", "), ms.join(", "))
}

/// The differential oracle: batched + parallel refresh versus the
/// sequential sweep of the same staged batch (matrix bytes) and versus
/// one commit per move (policy fingerprint + cost). `Ok` means
/// identical; `Err` carries the first divergence.
fn batch_pipeline(db: &LocationDb, moves: &[Move], kind: TreeKind) -> Result<(), String> {
    let k = 2;
    let map = Rect::square(0, 0, SIDE);
    let base = IncrementalAnonymizer::new(db, TreeConfig::lazy(kind, map, k), k)
        .map_err(|e| format!("init: {e}"))?;

    let mut one_at_a_time = base.clone();
    for mv in moves {
        one_at_a_time
            .apply_moves(std::slice::from_ref(mv))
            .map_err(|e| format!("seq commit: {e}"))?;
    }
    let ref_policy = encode_policy(one_at_a_time.policy().map_err(|e| e.to_string())?);

    let mut seq = base.clone();
    let updates: Vec<UserUpdate> = moves.iter().copied().map(UserUpdate::Move).collect();
    seq.stage_updates(&updates).map_err(|e| format!("stage: {e}"))?;
    seq.refresh().map_err(|e| format!("sequential refresh: {e}"))?;
    if encode_policy(seq.policy().map_err(|e| e.to_string())?) != ref_policy {
        return Err(format!("{kind:?}: batched policy diverged from one-at-a-time"));
    }

    for workers in [1usize, 3, 8] {
        let mut par = base.clone();
        par.stage_updates(&updates).map_err(|e| format!("stage: {e}"))?;
        let config = EngineConfig { workers, ..EngineConfig::default() };
        refresh_parallel(&mut par, &config, None, None, &|| false)
            .map_err(|e| format!("parallel refresh: {e}"))?;
        if par.matrix() != seq.matrix() {
            return Err(format!("{kind:?} workers={workers}: matrix diverged"));
        }
        if encode_policy(par.policy().map_err(|e| e.to_string())?) != ref_policy {
            return Err(format!("{kind:?} workers={workers}: policy diverged"));
        }
    }
    Ok(())
}

/// Random batches over a small map: raw moves draw users with repetition
/// (same-user multi-move), and a third of the entries are rewritten into
/// move-then-move-back pairs so no-op round trips are always represented.
fn arb_case() -> impl Strategy<Value = (LocationDb, Vec<Move>)> {
    let db = prop::collection::vec((0..SIDE, 0..SIDE), 2..24).prop_map(|points| {
        LocationDb::from_rows(
            points.into_iter().enumerate().map(|(i, (x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    });
    let raw = prop::collection::vec((0usize..24, 0..SIDE, 0..SIDE, 0u8..3), 0..20);
    (db, raw).prop_map(|(db, raw)| {
        let n = db.len() as u64;
        let start: std::collections::HashMap<UserId, Point> = db.iter().collect();
        let mut moves = Vec::new();
        for (idx, x, y, shape) in raw {
            let user = UserId(idx as u64 % n);
            moves.push(Move { user, to: Point::new(x, y) });
            if shape == 0 {
                // Move-then-move-back: the batch nets out to a no-op for
                // this user, but both hops dirty the tree.
                moves.push(Move { user, to: start[&user] });
            }
        }
        (db, moves)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched + parallel refresh matches the sequential sweep byte for
    /// byte and one-move-at-a-time commits policy for policy, for
    /// arbitrary batch shapes on both tree kinds. Failures are minimized
    /// to a 1-minimal move list before reporting.
    #[test]
    fn random_batches_are_byte_identical((db, moves) in arb_case()) {
        for kind in [TreeKind::Binary, TreeKind::Quad] {
            if let Err(first) = batch_pipeline(&db, &moves, kind) {
                let minimal =
                    shrink_moves(&moves, |ms| batch_pipeline(&db, ms, kind).is_err());
                let err = batch_pipeline(&db, &minimal, kind).unwrap_err();
                panic!(
                    "batched refresh diverged ({first}); 1-minimal witness ({err}):\n{}",
                    render_case(&db, &minimal)
                );
            }
        }
    }
}
