//! Property-based tests (proptest) over the core invariants.
//!
//! The vendored proptest stand-in has no shrinking, so failing inputs are
//! minimized by [`shrink_vec`] — a greedy 1-minimal pass that drops
//! elements (database users, fuzz bytes) while the failure persists — and
//! reported in the panic message.

use lbs_attack::audit_policy;
use lbs_conformance::{durability_sweep, run_lives, DurabilityConfig, Reference};
use lbs_core::{
    anonymize_per_user_k, bulk_dp_fast, bulk_dp_fast_rowwise, minplus_argmin, minplus_convolve,
    verify_per_user_k, verify_policy_aware, KRequirements, StickyAnonymizer, INFINITE_COST,
};
use policy_aware_lbs::prelude::*;
use proptest::prelude::*;

const SIDE: i64 = 64;

/// Greedy 1-minimal shrinker. Repeatedly removes any single element
/// whose removal keeps `failing` true; the result is a list where every
/// element is load-bearing for the failure. (The vendored proptest has no
/// integrated shrinking, so properties call this explicitly when they
/// fail and embed the minimal counterexample in the failure message for
/// replay.)
fn shrink_vec<T: Clone, F: Fn(&[T]) -> bool>(items: &[T], failing: F) -> Vec<T> {
    let mut items = items.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < items.len() && items.len() > 1 {
            let mut candidate = items.clone();
            candidate.remove(i);
            if failing(&candidate) {
                items = candidate;
                shrunk = true;
                // Do not advance: the element now at `i` is untested.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return items;
        }
    }
}

/// [`shrink_vec`] over a database's users.
fn shrink_db<F: Fn(&LocationDb) -> bool>(db: &LocationDb, failing: F) -> LocationDb {
    let rows: Vec<(UserId, Point)> = db.iter().collect();
    let as_db =
        |rows: &[(UserId, Point)]| LocationDb::from_rows(rows.to_vec()).expect("ids stay unique");
    as_db(&shrink_vec(&rows, |rows| failing(&as_db(rows))))
}

/// Renders a database small enough to paste back into a unit test.
fn render_db(db: &LocationDb) -> String {
    let mut rows: Vec<String> =
        db.iter().map(|(u, p)| format!("({u}, Point::new({}, {}))", p.x, p.y)).collect();
    rows.sort();
    rows.join(", ")
}

/// Random location databases: up to 40 users on a 64 m map, duplicates
/// coordinates allowed (users can share a position).
fn arb_db() -> impl Strategy<Value = LocationDb> {
    prop::collection::vec((0..SIDE, 0..SIDE), 1..40).prop_map(|points| {
        LocationDb::from_rows(
            points.into_iter().enumerate().map(|(i, (x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    })
}

/// Per-user anonymity requirements: a small default level plus up to a
/// dozen overrides over the id space [`arb_db`] draws from.
fn arb_reqs() -> impl Strategy<Value = KRequirements> {
    (1usize..4, prop::collection::vec((0u64..40, 1usize..8), 0..12)).prop_map(
        |(default_k, overrides)| {
            let mut reqs = KRequirements::with_default(default_k);
            for (user, k) in overrides {
                reqs.set(UserId(user), k);
            }
            reqs
        },
    )
}

/// The full per-user-k oracle pipeline, reused by the shrinker so the
/// minimized database fails for the same reason.
fn per_user_pipeline(db: &LocationDb, reqs: &KRequirements) -> Result<(), String> {
    let map = Rect::square(0, 0, SIDE);
    match anonymize_per_user_k(db, map, reqs) {
        Err(CoreError::InsufficientPopulation { population, k }) => {
            // A tier fold may legitimately strand fewer users than the
            // strictest surviving requirement; anything else is a bug.
            if population < k {
                Ok(())
            } else {
                Err(format!("InsufficientPopulation with population {population} >= k {k}"))
            }
        }
        Err(e) => Err(format!("unexpected error: {e}")),
        Ok(policy) => {
            if !policy.is_masking_and_total(db) {
                return Err("policy is not masking and total".into());
            }
            verify_per_user_k(&policy, db, reqs)
                .map_err(|v| format!("per-user-k violations {v:?}"))?;
            // The PRE-enumerating attacker at the weakest requested level
            // must come up empty.
            let min_k = db.users().map(|u| reqs.k_of(u)).min().unwrap_or(1);
            let breaches = audit_policy(&policy, db, min_k);
            if breaches.is_empty() {
                Ok(())
            } else {
                Err(format!("{} attacker breaches at k={min_k}", breaches.len()))
            }
        }
    }
}

/// The sticky-cohort oracle pipeline: fix cohorts on `db`, apply `moves`
/// (filtered to present users, last-wins), and judge the epoch-1 policy.
fn sticky_pipeline(db: &LocationDb, k: usize, moves: &[(u64, i64, i64)]) -> Result<(), String> {
    let map = Rect::square(0, 0, SIDE);
    let sticky = StickyAnonymizer::new(db, map, k).map_err(|e| format!("init: {e}"))?;
    let mut current = db.clone();
    let mut seen = std::collections::HashSet::new();
    let moves: Vec<Move> = moves
        .iter()
        .rev()
        .filter(|(u, _, _)| current.contains(UserId(*u)) && seen.insert(*u))
        .map(|&(u, x, y)| Move { user: UserId(u), to: Point::new(x, y) })
        .collect();
    current.apply_moves(&moves).map_err(|e| format!("moves: {e}"))?;
    let policy = sticky.policy_for(&current).map_err(|e| format!("epoch 1: {e}"))?;
    if !policy.is_masking_and_total(&current) {
        return Err("epoch-1 policy is not masking and total".into());
    }
    verify_policy_aware(&policy, &current, k)
        .map_err(|v| format!("{} anonymity violations", v.len()))?;
    let breaches = audit_policy(&policy, &current, k);
    if !breaches.is_empty() {
        return Err(format!("{} attacker breaches", breaches.len()));
    }
    // Trajectory defence: an original cohort never splits across cloaks,
    // so linked requests intersect to the same >= k candidates.
    for cohort in sticky.cohorts() {
        let mut regions = cohort.iter().filter_map(|&u| policy.cloak_of(u));
        if let Some(first) = regions.next() {
            if regions.any(|r| r != first) {
                return Err("a sticky cohort split across cloaks".into());
            }
        }
    }
    Ok(())
}

/// The shrinker must land on a 1-minimal database: the failure persists,
/// but removing any single remaining user makes it vanish.
#[test]
fn shrinker_reaches_a_1_minimal_database() {
    let db = LocationDb::from_rows(
        (0..20).map(|i| (UserId(i), Point::new(i as i64 * 3, i as i64 * 3 % SIDE))),
    )
    .unwrap();
    // "Failure": at least three users in the left half of the map.
    let failing = |d: &LocationDb| d.iter().filter(|(_, p)| p.x < SIDE / 2).count() >= 3;
    let minimal = shrink_db(&db, failing);
    assert!(failing(&minimal), "shrinking must preserve the failure");
    assert_eq!(minimal.len(), 3, "greedy pass should reach the minimal witness");
    assert!(minimal.iter().all(|(_, p)| p.x < SIDE / 2), "{}", render_db(&minimal));
    for (user, _) in minimal.iter() {
        let rest: Vec<(UserId, Point)> =
            minimal.iter().filter(|(other, _)| *other != user).collect();
        assert!(
            !failing(&LocationDb::from_rows(rest).unwrap()),
            "dropping {user} should break the predicate (1-minimality)"
        );
    }
}

/// Random min-plus cost vectors straddling the kernel's narrow/wide lane
/// split: `wide == 1` entries are shifted past 2⁶² so a single one of
/// them pushes the whole convolution onto the u128 scalar lane, while
/// all-small vectors stay on the vectorized u64 lane.
fn arb_cost_vec() -> impl Strategy<Value = Vec<u128>> {
    prop::collection::vec((0u8..2, 0u64..1 << 50), 0..14).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(wide, v)| if wide == 1 { (v as u128) << 40 } else { v as u128 })
            .collect()
    })
}

/// Naive O(a₁·a₂) min-plus reference: per output diagonal, the minimum
/// sum and the smallest `l1` attaining it (the bit-identity tie-break).
fn naive_minplus(c1: &[u128], c2: &[u128]) -> Vec<(u128, u32)> {
    if c1.is_empty() || c2.is_empty() {
        return Vec::new();
    }
    let mut out = vec![(INFINITE_COST, u32::MAX); c1.len() + c2.len() - 1];
    for (l1, &a) in c1.iter().enumerate() {
        for (l2, &b) in c2.iter().enumerate() {
            let slot = &mut out[l1 + l2];
            if a + b < slot.0 {
                *slot = (a + b, l1 as u32);
            }
        }
    }
    out
}

/// Checks the SoA convolution kernel against [`naive_minplus`] on every
/// internal node's children rows of a real DP run — the exact pool
/// shapes (dense lengths capped by Lemma 5, `u_max` truncation) the
/// production sweep feeds it. Reused by the shrinker.
fn conv_pipeline(db: &LocationDb, k: usize) -> Result<(), String> {
    let map = Rect::square(0, 0, SIDE);
    let tree = SpatialTree::build(db, TreeConfig::lazy(TreeKind::Binary, map, k))
        .map_err(|e| format!("tree: {e}"))?;
    let matrix = match bulk_dp_fast_rowwise(&tree, k, true) {
        Err(CoreError::InsufficientPopulation { .. }) => return Ok(()),
        Err(e) => return Err(format!("dp: {e}")),
        Ok(m) => m,
    };
    for id in tree.postorder() {
        let node = tree.node(id);
        let children = node.children.as_slice();
        if children.len() != 2 {
            continue;
        }
        let dense = |c: lbs_tree::NodeId| -> Result<Vec<u128>, String> {
            let row = matrix.row(c).ok_or_else(|| format!("missing row for {c}"))?;
            Ok(row.dense.iter().map(|e| e.cost).collect())
        };
        let (c1, c2) = (dense(children[0])?, dense(children[1])?);
        let got = minplus_convolve(&c1, &c2);
        let expect = naive_minplus(&c1, &c2);
        if got.len() != expect.len() {
            return Err(format!("{id}: conv length {} != naive {}", got.len(), expect.len()));
        }
        for (j, (&cost, &(want_cost, want_l1))) in got.iter().zip(&expect).enumerate() {
            if cost != want_cost {
                return Err(format!("{id} j={j}: kernel {cost} != naive {want_cost}"));
            }
            let l1 = minplus_argmin(&c1, &c2, j, cost);
            if l1 != want_l1 {
                return Err(format!("{id} j={j}: argmin {l1} != smallest witness {want_l1}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA k-summation kernel on raw random pools: every diagonal's
    /// minimum and its smallest-`l1` witness match the naive reference,
    /// on both the u64 narrow lane and the u128 wide lane.
    #[test]
    fn conv_kernel_matches_naive_reference_on_random_pools(
        c1 in arb_cost_vec(),
        c2 in arb_cost_vec(),
    ) {
        let got = minplus_convolve(&c1, &c2);
        let expect = naive_minplus(&c1, &c2);
        prop_assert_eq!(got.len(), expect.len());
        for (j, (&cost, &(want_cost, want_l1))) in got.iter().zip(&expect).enumerate() {
            prop_assert_eq!(cost, want_cost, "j={}", j);
            prop_assert_eq!(minplus_argmin(&c1, &c2, j, cost), want_l1, "argmin j={}", j);
        }
    }

    /// The kernel on the pool shapes a real DP produces (random db × k),
    /// minimized through the 1-minimal shrinker on failure.
    #[test]
    fn conv_kernel_matches_naive_on_dp_pools(db in arb_db(), k in 1usize..6) {
        if let Err(msg) = conv_pipeline(&db, k) {
            let minimal = shrink_db(&db, |d| conv_pipeline(d, k).is_err());
            return Err(TestCaseError::fail(format!(
                "{msg}; minimal db: {}",
                render_db(&minimal)
            )));
        }
    }

    /// For every feasible (db, k): the extracted policy is masking, total,
    /// policy-aware k-anonymous, and its cost equals the matrix optimum.
    #[test]
    fn optimal_policy_invariants(db in arb_db(), k in 1usize..6) {
        let map = Rect::square(0, 0, SIDE);
        match Anonymizer::build(&db, map, k) {
            Err(CoreError::InsufficientPopulation { population, k: kk }) => {
                prop_assert_eq!(population, db.len());
                prop_assert_eq!(kk, k);
                prop_assert!(db.len() < k);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
            Ok(engine) => {
                prop_assert!(db.len() >= k);
                prop_assert!(engine.policy().is_masking_and_total(&db));
                prop_assert!(verify_policy_aware(engine.policy(), &db, k).is_ok());
                prop_assert_eq!(engine.policy().cost_exact(), Some(engine.cost()));
                // Each user's cloak is a tree rectangle containing them
                // with at least k co-grouped users.
                let groups = engine.policy().groups();
                for members in groups.values() {
                    prop_assert!(members.len() >= k);
                }
            }
        }
    }

    /// The extracted configuration satisfies Definition 7 validity,
    /// completeness, and k-summation, and Cost_c equals the policy cost
    /// (Lemmas 2 and 3).
    #[test]
    fn configuration_lemmas(db in arb_db(), k in 1usize..5) {
        prop_assume!(db.len() >= k);
        let map = Rect::square(0, 0, SIDE);
        let tree = SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k)).unwrap();
        let matrix = bulk_dp_fast(&tree, k).unwrap();
        let config = matrix.extract_configuration(&tree).unwrap();
        prop_assert!(config.is_valid(&tree));
        prop_assert!(config.is_complete(&tree));
        prop_assert!(config.satisfies_k_summation(&tree, k));
        let policy = matrix.extract_policy(&tree).unwrap();
        prop_assert_eq!(config.cost(&tree), policy.cost_exact());
    }

    /// Incremental maintenance equals a fresh build after arbitrary moves.
    #[test]
    fn incremental_equals_fresh(
        db in arb_db(),
        k in 2usize..4,
        moves in prop::collection::vec((0u64..40, 0..SIDE, 0..SIDE), 0..12),
    ) {
        prop_assume!(db.len() >= k);
        let map = Rect::square(0, 0, SIDE);
        let config = TreeConfig::lazy(TreeKind::Binary, map, k);
        let mut engine = IncrementalAnonymizer::new(&db, config, k).unwrap();
        let mut reference = db.clone();
        // Keep only moves that reference existing users, dedup last-wins.
        let mut seen = std::collections::HashSet::new();
        let moves: Vec<Move> = moves
            .into_iter()
            .rev()
            .filter(|(u, _, _)| reference.contains(UserId(*u)) && seen.insert(*u))
            .map(|(u, x, y)| Move { user: UserId(u), to: Point::new(x, y) })
            .collect();
        reference.apply_moves(&moves).unwrap();
        engine.apply_moves(&moves).unwrap();
        let fresh = Anonymizer::build(&reference, map, k).unwrap();
        prop_assert_eq!(engine.optimal_cost().unwrap(), fresh.cost());
    }

    /// k-inside baselines are k-inside (every cloak covers >= k users) and
    /// masking, whenever they produce a cloak.
    #[test]
    fn baselines_are_k_inside(db in arb_db(), k in 1usize..6) {
        let map = Rect::square(0, 0, SIDE);
        let casper = Casper::build(&db, map, k).unwrap();
        let puq = PolicyUnawareQuad::build(&db, map, k).unwrap();
        let pub_ = PolicyUnawareBinary::build(&db, map, k).unwrap();
        for (user, point) in db.iter() {
            for policy in [&casper as &dyn CloakingPolicy, &puq, &pub_] {
                if let Some(region) = policy.cloak(&db, user) {
                    prop_assert!(region.contains(&point), "masking");
                    prop_assert!(db.users_in(&region).len() >= k, "k-inside");
                }
            }
        }
    }

    /// Snapshot wire format round-trips arbitrary databases.
    #[test]
    fn snapshot_round_trip(db in arb_db()) {
        let encoded = lbs_model::encode_snapshot(&db);
        let decoded = lbs_model::decode_snapshot(encoded).unwrap();
        prop_assert_eq!(decoded.len(), db.len());
        for (user, point) in db.iter() {
            prop_assert_eq!(decoded.location(user), Some(point));
        }
    }

    /// Per-user-k policies honor every override, stay masking/total, and
    /// survive the PRE attacker at the weakest requested level. Failures
    /// are shrunk to a 1-minimal database before reporting.
    #[test]
    fn per_user_k_policies_survive_the_attacker(db in arb_db(), reqs in arb_reqs()) {
        if let Err(msg) = per_user_pipeline(&db, &reqs) {
            let minimal = shrink_db(&db, |d| per_user_pipeline(d, &reqs).is_err());
            return Err(TestCaseError::fail(format!(
                "{msg}\nminimal counterexample ({} users): {}",
                minimal.len(),
                render_db(&minimal)
            )));
        }
    }

    /// Sticky cohorts keep policy-aware k-anonymity in later epochs: the
    /// per-snapshot policy masks, verifies, yields no PRE breach, and
    /// keeps each original cohort under a single cloak. Failures are
    /// shrunk to a 1-minimal database before reporting.
    #[test]
    fn sticky_epochs_stay_policy_aware(
        db in arb_db(),
        k in 2usize..4,
        moves in prop::collection::vec((0u64..40, 0..SIDE, 0..SIDE), 0..12),
    ) {
        prop_assume!(db.len() >= k);
        if let Err(msg) = sticky_pipeline(&db, k, &moves) {
            let minimal = shrink_db(&db, |d| {
                d.len() >= k && sticky_pipeline(d, k, &moves).is_err()
            });
            return Err(TestCaseError::fail(format!(
                "{msg}\nminimal counterexample ({} users, k={k}): {}",
                minimal.len(),
                render_db(&minimal)
            )));
        }
    }

    /// Tree invariants hold after arbitrary build + move sequences, and
    /// every leaf path terminates at the root with strictly nested rects.
    #[test]
    fn tree_structural_invariants(
        db in arb_db(),
        k in 1usize..5,
        moves in prop::collection::vec((0u64..40, 0..SIDE, 0..SIDE), 0..10),
    ) {
        let map = Rect::square(0, 0, SIDE);
        let mut tree =
            SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k)).unwrap();
        tree.check_invariants().unwrap();
        let mut seen = std::collections::HashSet::new();
        let moves: Vec<Move> = moves
            .into_iter()
            .rev()
            .filter(|(u, _, _)| db.contains(UserId(*u)) && seen.insert(*u))
            .map(|(u, x, y)| Move { user: UserId(u), to: Point::new(x, y) })
            .collect();
        tree.apply_moves(&moves).unwrap();
        tree.check_invariants().unwrap();
        for (user, point) in db.iter() {
            let moved = moves.iter().find(|m| m.user == user).map(|m| m.to).unwrap_or(point);
            let leaf = tree.leaf_of_user(user).unwrap();
            prop_assert!(tree.node(leaf).rect.contains(&moved));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shard routing is total and deterministic: the plan's jurisdictions
    /// tile the map, so every user lands in exactly one shard; re-deriving
    /// the plan from the same population — or round-tripping it through
    /// the persisted manifest encoding — routes every user identically.
    #[test]
    fn shard_routing_is_total_and_deterministic(
        db in arb_db(),
        k in 2usize..4,
        shards in 1usize..5,
    ) {
        use lbs_runtime::ShardPlan;
        prop_assume!(db.len() >= k);
        let map = Rect::square(0, 0, SIDE);
        let plan = match ShardPlan::plan(&db, map, k, shards) {
            Ok(plan) => plan,
            // Too small to split is a legitimate outcome, not a routing bug.
            Err(_) => return Ok(()),
        };
        // Totality: every user is contained by exactly one jurisdiction.
        for (user, point) in db.iter() {
            let containing = plan.regions.iter().filter(|r| r.contains(&point)).count();
            prop_assert_eq!(containing, 1, "user {} at {:?} in {} regions", user, point, containing);
            prop_assert!(plan.route_point(&point).is_some());
        }
        // Determinism: a second derivation and a manifest round-trip both
        // route every user to the same shard index.
        let again = ShardPlan::plan(&db, map, k, shards).unwrap();
        let decoded = ShardPlan::decode(&plan.encode()).unwrap();
        prop_assert_eq!(&again.regions, &plan.regions);
        prop_assert_eq!(&decoded.regions, &plan.regions);
        for (_, point) in db.iter() {
            prop_assert_eq!(again.route_point(&point), plan.route_point(&point));
            prop_assert_eq!(decoded.route_point(&point), plan.route_point(&point));
        }
    }

    /// Merging per-shard policies is order-independent: any permutation of
    /// the parts produces byte-identical `encode_policy` output.
    #[test]
    fn shard_merge_is_order_independent(
        db in arb_db(),
        k in 2usize..4,
        shards in 2usize..5,
    ) {
        use lbs_runtime::{merge_policies, sharded_bulk};
        prop_assume!(db.len() >= k * shards);
        let map = Rect::square(0, 0, SIDE);
        let outcome = match sharded_bulk(&db, map, k, shards) {
            Ok(outcome) => outcome,
            // A jurisdiction below population k is a feasibility limit of
            // the pure path, exercised elsewhere; skip.
            Err(_) => return Ok(()),
        };
        let reference = lbs_model::encode_policy(&merge_policies(&outcome.policies));
        let mut parts = outcome.policies.clone();
        parts.reverse();
        prop_assert_eq!(lbs_model::encode_policy(&merge_policies(&parts)), reference.clone());
        for rotation in 1..parts.len() {
            parts.rotate_left(1);
            prop_assert_eq!(
                lbs_model::encode_policy(&merge_policies(&parts)),
                reference.clone(),
                "rotation {}", rotation
            );
        }
    }
}

proptest! {
    // Each case runs every named crash plan through its own crash-restart
    // lives on a fresh reference history, so the case budget stays small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash-safe recovery, over random service histories: at every named
    /// crash plan — WAL tears at record boundaries and mid-frame, torn
    /// checkpoint temp files, a rotten newest checkpoint — every recovered
    /// committed [`BulkPolicy`] is byte-for-byte identical to the
    /// never-crashed run's policy at the same durable sequence.
    #[test]
    fn recovery_is_bit_identical_at_every_crash_point(
        seed in 0u64..(1 << 32),
        users in 12usize..32,
        k in 2usize..5,
        rounds in 4u64..8,
        checkpoint_every in 1u64..4,
    ) {
        let cfg = DurabilityConfig {
            seed,
            users,
            k,
            rounds,
            checkpoint_every,
            fault_points: 0,
            rot_points: 0,
            shard_points: 0,
        };
        let scratch = std::env::temp_dir().join(format!(
            "lbs-prop-sweep-{}-{seed:x}-{users}-{k}-{rounds}-{checkpoint_every}",
            std::process::id()
        ));
        let sweep = durability_sweep(&scratch, &cfg);
        let _ = std::fs::remove_dir_all(&scratch);
        let report =
            sweep.map_err(|e| TestCaseError::fail(format!("reference run: {e}")))?;
        prop_assert!(report.is_clean(), "crash sweep failed: {:?}", report.failures);
        // Every WAL record contributes a boundary and mid-frame tears, and
        // the checkpoint plans must actually run.
        prop_assert!(report.count("wal-boundary") + report.count("wal-tear") >= 4 * rounds as usize);
        prop_assert!(report.count("torn-tmp") >= 1);
    }
}

/// The storage-fault oracle pipeline, reused by the shrinker so a
/// minimized database fails for the same reason: a clean reference run,
/// then the same history through the conformance life loop under seeded
/// [`DiskFaultPlan`]s (lives 0–1; life 2 on a repaired disk). Every
/// recovery must be bit-identical to the reference at its durable
/// sequence — or the error must be loud and typed.
fn storage_fault_pipeline(
    db: &LocationDb,
    fault_seed: u64,
    k: usize,
    rounds: u64,
) -> Result<(), String> {
    use lbs_runtime::{real_fs, DiskFaultPlan, FaultFs, StorageBackend};
    use std::sync::Arc;

    let scratch = std::env::temp_dir().join(format!(
        "lbs-prop-fault-{}-{fault_seed:x}-{}-{k}-{rounds}",
        std::process::id(),
        db.len(),
    ));
    let lives = |life: usize| -> Arc<dyn StorageBackend> {
        if life < 2 {
            let seed = lbs_workload::derive_seed(fault_seed, life as u64);
            Arc::new(FaultFs::new(DiskFaultPlan::seeded(seed)))
        } else {
            real_fs()
        }
    };
    let metrics = Arc::new(lbs_metrics::Metrics::new());
    let result = Reference::single(&scratch.join("reference"), db, fault_seed, k, rounds, 2)
        .and_then(|reference| {
            run_lives(&scratch.join("faulted"), &reference, &lives, 2, None, &metrics)
        })
        .map(|_| ());
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

proptest! {
    // Each case is two short service runs (one clean, one faulted with
    // crash-restart lives), so the case budget stays small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Self-healing durability, over random populations and random
    /// seeded [`DiskFaultPlan`]s: replaying a service history under
    /// injected short writes, fsync/rename failures, ENOSPC, bit-rot,
    /// and crash points must either recover bit-identically to the
    /// clean reference at the durable sequence or fail loudly with a
    /// typed error — never serve a silently wrong policy. Failing
    /// populations are minimized through the 1-minimal shrinker.
    #[test]
    fn storage_faults_recover_bit_identically_or_fail_loud(
        db in arb_db(),
        fault_seed in 0u64..(1 << 32),
        k in 2usize..4,
        rounds in 3u64..6,
    ) {
        prop_assume!(db.len() >= k + 2);
        if let Err(e) = storage_fault_pipeline(&db, fault_seed, k, rounds) {
            let minimal = shrink_db(&db, |d| {
                d.len() >= k + 2 && storage_fault_pipeline(d, fault_seed, k, rounds).is_err()
            });
            let err = storage_fault_pipeline(&minimal, fault_seed, k, rounds)
                .err()
                .unwrap_or(e);
            prop_assert!(
                false,
                "storage-fault pipeline failed (seed {fault_seed:#x}, k {k}, rounds {rounds}): \
                 {err}\nminimal db: [{}]",
                render_db(&minimal)
            );
        }
    }
}

/// Words the shard-manifest fuzz strings are built from: every keyword,
/// boundary integers, and separators, so inputs reach the number parsing
/// and rect checks instead of failing at the header.
const MANIFEST_TOKENS: [&str; 13] = [
    "lbs-shard-plan v1\n",
    "k ",
    "map ",
    "shard ",
    "0 ",
    "64 ",
    "-1 ",
    "9223372036854775807 ",
    "-9223372036854775808 ",
    "18446744073709551616 ",
    "\n",
    "\t",
    "x",
];

/// Runs `decode` under `catch_unwind`; `Err` names the decoder that
/// panicked.
fn no_panic<T>(what: &str, decode: impl FnOnce() -> T) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(decode))
        .map(|_| ())
        .map_err(|_| format!("{what} panicked"))
}

/// `body` with its CRC-32 appended, as checkpoint files end.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut raw = body.to_vec();
    raw.extend_from_slice(&lbs_runtime::crc32(body).to_le_bytes());
    raw
}

/// Feeds the disk-facing decoders `raw` as is, sealed with a valid CRC,
/// framed as a CRC-valid WAL record, and spliced onto the first `cut`
/// bytes of a real encoding — so arbitrary bytes get past the magic and
/// checksum checks into the length arithmetic behind them.
fn decode_all(cut: usize, raw: &[u8]) -> Result<(), String> {
    use lbs_runtime::{decode_checkpoint, encode_checkpoint, scan, CheckpointHeader};

    let map = Rect::square(0, 0, SIDE);
    let db = LocationDb::from_rows((0..3).map(|i| (UserId(i), Point::new(i as i64, 1)))).unwrap();
    let snapshot = lbs_model::encode_snapshot(&db).to_vec();
    // 156 bytes before the CRC, so every `cut` up to 160 also splices
    // inside the database length and the snapshot's own header.
    let ckpt = encode_checkpoint(&CheckpointHeader { epoch: 1, wal_seq: 0, k: 1, map }, &db);
    let body = &ckpt[..ckpt.len() - 4];
    let splice = |real: &[u8]| [&real[..cut.min(real.len())], raw].concat();
    // A CRC-valid WAL frame carrying `seq` and then `raw`.
    let frame = |seq: u64| {
        let payload = [&seq.to_le_bytes()[..], raw].concat();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&lbs_runtime::crc32(&payload).to_le_bytes());
        [frame, payload].concat()
    };
    // A CRC-valid pruned-log header (magic, base, CRC; see wal.rs) whose
    // base is `raw`'s first word, padded with 0xFF bytes.
    let mut word = [0xFF; 8];
    word[..raw.len().min(8)].copy_from_slice(&raw[..raw.len().min(8)]);
    let base = u64::from_le_bytes(word);
    let mut header = [&0x4C42_5357u32.to_le_bytes()[..], &word].concat();
    header.extend_from_slice(&lbs_runtime::crc32(&header).to_le_bytes());
    let path = std::path::Path::new("fuzz.ckpt");

    no_panic("decode_checkpoint(raw)", || decode_checkpoint(raw, path))?;
    no_panic("decode_checkpoint(sealed)", || decode_checkpoint(&sealed(raw), path))?;
    no_panic("decode_checkpoint(spliced)", || decode_checkpoint(&sealed(&splice(body)), path))?;
    no_panic("scan(raw)", || scan(raw))?;
    no_panic("scan(frame)", || scan(&frame(1)))?;
    no_panic("scan(header + frame)", || scan(&[header, frame(base.wrapping_add(1))].concat()))?;
    no_panic("decode_snapshot(raw)", || lbs_model::decode_snapshot(raw))?;
    no_panic("decode_snapshot(spliced)", || lbs_model::decode_snapshot(&splice(&snapshot)[..]))?;
    no_panic("ShardPlan::decode", || lbs_runtime::ShardPlan::decode(&String::from_utf8_lossy(raw)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoders of disk and user bytes never panic: checkpoint bodies,
    /// WAL frames and headers, snapshots, and shard manifests all return
    /// typed errors on arbitrary input. Failing inputs are minimized
    /// through the 1-minimal shrinker.
    #[test]
    fn decoders_return_typed_errors_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..96),
        cut in 0usize..160,
        tokens in prop::collection::vec(0usize..MANIFEST_TOKENS.len(), 0..24),
    ) {
        if let Err(msg) = decode_all(cut, &raw) {
            let minimal = shrink_vec(&raw, |r| decode_all(cut, r).is_err());
            return Err(TestCaseError::fail(format!("{msg}; 1-minimal input (cut {cut}): {minimal:?}")));
        }
        let manifest = |t: &[usize]| t.iter().map(|&i| MANIFEST_TOKENS[i]).collect::<String>();
        let decode = |t: &[usize]| no_panic("ShardPlan::decode", || lbs_runtime::ShardPlan::decode(&manifest(t)));
        if let Err(msg) = decode(&tokens) {
            let minimal = shrink_vec(&tokens, |t| decode(t).is_err());
            return Err(TestCaseError::fail(format!("{msg}; 1-minimal manifest: {:?}", manifest(&minimal))));
        }
    }
}
