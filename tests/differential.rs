//! Differential test harness: every optimized or concurrent code path is
//! checked against its slow, obviously-correct reference on randomized
//! inputs with fixed seeds.
//!
//! * `bulk_dp_fast` (Section V, all optimizations) vs `bulk_dp_dense`
//!   (Algorithm 1, literal dense DP) — equal optimal cost, both policies
//!   verified policy-aware.
//! * The Lemma-5 pass-up bound on vs off — bit-identical matrices as
//!   observed through cost and the extracted policy.
//! * The work-stealing engine vs the sequential server loop — identical
//!   `total_cost`, per-user cloaks, and report order for every worker
//!   count.
//! * The binary bulk sweep (`bulk_dp_fast`) vs its explicit-split
//!   row-at-a-time reference — every cell's cost and split choice across
//!   a seeded density × k × tree-shape grid, plus the 1–8-worker engine
//!   runs that drive the bulk sweep in production. The quad DP
//!   (`bulk_dp_fast_quad`) has a single row engine shared by its bulk and
//!   incremental paths, so it has no second sweep to compare here; its
//!   unit tests pin it to `bulk_dp_dense`.
//! * The Lemma-5 work bound: dense×dense convolution pairs over the same
//!   grid stay within `|B|·((k+1)·h_max + 1)²`.

use lbs_core::{
    bulk_dp_dense, bulk_dp_fast, bulk_dp_fast_rowwise, bulk_dp_fast_with_options,
    verify_policy_aware,
};
use policy_aware_lbs::prelude::*;
use policy_aware_lbs::tree::NodeId;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const SIDE: i64 = 64;

fn random_db(rng: &mut StdRng, n: usize) -> LocationDb {
    LocationDb::from_rows(
        (0..n).map(|i| {
            (UserId(i as u64), Point::new(rng.gen_range(0..SIDE), rng.gen_range(0..SIDE)))
        }),
    )
    .unwrap()
}

fn bay(n: usize) -> (LocationDb, Rect) {
    let mut cfg = BayAreaConfig::scaled_to(n);
    cfg.map_side = 1 << 14;
    let db = generate_master(&cfg);
    (db, cfg.map())
}

/// Asserts that two policies assign every user the same cloak.
fn assert_same_policy(reference: &BulkPolicy, candidate: &BulkPolicy, context: &str) {
    assert_eq!(reference.len(), candidate.len(), "{context}: user counts differ");
    for (user, region) in reference.iter() {
        assert_eq!(candidate.cloak_of(user), Some(region), "{context}: cloak of {user:?} differs");
    }
}

#[test]
fn fast_dp_matches_dense_reference_on_random_instances() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0001);
    let map = Rect::square(0, 0, SIDE);
    for trial in 0..25 {
        let k = rng.gen_range(1..5usize);
        let n = rng.gen_range(k.max(2)..60);
        let db = random_db(&mut rng, n);
        let tree = SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k)).unwrap();

        let dense = bulk_dp_dense(&tree, k).unwrap();
        let fast = bulk_dp_fast(&tree, k).unwrap();
        assert_eq!(
            dense.optimal_cost(&tree).unwrap(),
            fast.optimal_cost(&tree).unwrap(),
            "trial {trial}: dense and fast optimal costs diverge (n={n}, k={k})"
        );

        let dense_policy = dense.extract_policy(&tree).unwrap();
        let fast_policy = fast.extract_policy(&tree).unwrap();
        assert!(verify_policy_aware(&dense_policy, &db, k).is_ok());
        assert!(verify_policy_aware(&fast_policy, &db, k).is_ok());
        assert_eq!(dense_policy.cost_exact(), fast_policy.cost_exact());
    }
}

#[test]
fn lemma5_bound_is_lossless() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    let map = Rect::square(0, 0, SIDE);
    for trial in 0..15 {
        let k = rng.gen_range(1..6usize);
        let n = rng.gen_range(k.max(2)..120);
        let db = random_db(&mut rng, n);
        let tree = SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k)).unwrap();
        let with = bulk_dp_fast_with_options(&tree, k, true).unwrap();
        let without = bulk_dp_fast_with_options(&tree, k, false).unwrap();
        assert_eq!(
            with.optimal_cost(&tree).unwrap(),
            without.optimal_cost(&tree).unwrap(),
            "trial {trial}: Lemma-5 changed the optimum (n={n}, k={k})"
        );
        assert_same_policy(
            &without.extract_policy(&tree).unwrap(),
            &with.extract_policy(&tree).unwrap(),
            &format!("trial {trial}: Lemma-5 ablation"),
        );
    }
}

#[test]
fn work_stealing_engine_is_bit_identical_to_sequential_servers() {
    let k = 10;
    let (db, map) = bay(2_000);
    let reference = anonymize_partitioned(&db, map, k, 16).unwrap();
    assert!(verify_policy_aware(&reference.policy, &db, k).is_ok());
    for workers in [1usize, 2, 3, 4, 8] {
        let cfg = EngineConfig { workers, ..EngineConfig::default() };
        let ws = anonymize_work_stealing(&db, map, k, 16, &cfg, None).unwrap();
        assert_eq!(ws.total_cost, reference.total_cost, "{workers} workers");
        assert_same_policy(&reference.policy, &ws.policy, &format!("{workers} workers"));
        assert_eq!(ws.servers.len(), reference.servers.len());
        for (seq, par) in reference.servers.iter().zip(&ws.servers) {
            assert_eq!(seq.jurisdiction, par.jurisdiction, "report order must match");
            assert_eq!(seq.users, par.users);
            assert_eq!(seq.cost, par.cost);
        }
    }
}

/// The seeded density × k grid of the sweep differentials: three binary trees
/// per (side, k). Density is driven by the map side at fixed n — side 16
/// packs many users per leaf (dense rows, duplicate coordinates), side
/// 4096 scatters them (deep sparse trees).
fn density_k_grid(seed: u64) -> Vec<(String, LocationDb, SpatialTree, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut grid = Vec::new();
    for side in [16i64, 64, 4096] {
        for k in [1usize, 3, 10, 50] {
            for trial in 0..3 {
                let n = rng.gen_range(k.max(2)..260);
                let db = LocationDb::from_rows((0..n).map(|i| {
                    (UserId(i as u64), Point::new(rng.gen_range(0..side), rng.gen_range(0..side)))
                }))
                .unwrap();
                let map = Rect::square(0, 0, side);
                let tree =
                    SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k)).unwrap();
                grid.push((format!("side={side} k={k} trial={trial} n={n}"), db, tree, k));
            }
        }
    }
    grid
}

/// The binary bulk sweep vs the rowwise walk: for every live node and
/// every cell in its domain, equal cost and equal `split_of` (the bulk
/// sweep stores branch tags, the rowwise walk explicit splits), plus the
/// same extracted policy.
#[test]
fn bulk_binary_sweep_is_byte_identical_to_rowwise_reference() {
    for (context, db, tree, k) in density_k_grid(0xD1FF_0004) {
        let rowwise = bulk_dp_fast_rowwise(&tree, k).unwrap();
        let bulk = bulk_dp_fast(&tree, k).unwrap();
        assert_eq!(rowwise.computed_rows(), bulk.computed_rows(), "{context}");
        for id in tree.postorder() {
            let (want, got) = (rowwise.row(id).unwrap(), bulk.row(id).unwrap());
            assert_eq!(want.d, got.d, "{context}: node {id}");
            assert_eq!(want.dense, got.dense, "{context}: costs of node {id}");
            for (u, _) in want.iter() {
                assert_eq!(
                    rowwise.split_of(&tree, id, u).unwrap(),
                    bulk.split_of(&tree, id, u).unwrap(),
                    "{context}: split of node {id} at u={u}"
                );
            }
        }

        let ref_policy = rowwise.extract_policy(&tree).unwrap();
        let bulk_policy = bulk.extract_policy(&tree).unwrap();
        assert_eq!(ref_policy.cost_exact(), bulk_policy.cost_exact(), "{context}");
        assert_same_policy(&ref_policy, &bulk_policy, &context);
        assert!(verify_policy_aware(&bulk_policy, &db, k).is_ok(), "{context}");
    }
}

/// The per-node work bound behind the paper's `O(|B|·(kh)²)` claim:
/// Lemma 5 caps the dense row of a node at depth `h` at `(k+1)·h + 1`
/// cells, so the dense×dense (min,+) pairs `a₁·a₂` summed over internal
/// nodes stay within `|B|·((k+1)·h_max + 1)²`.
#[test]
fn convolution_pairs_stay_within_the_lemma5_bound() {
    for (context, _, tree, k) in density_k_grid(0xD1FF_0004) {
        let matrix = bulk_dp_fast(&tree, k).unwrap();
        let nodes = tree.postorder();
        let cap = |id: NodeId| (k as u64 + 1) * tree.node(id).depth as u64 + 1;
        let len = |id: NodeId| matrix.row(id).unwrap().dense.len() as u64;
        for &id in &nodes {
            assert!(len(id) <= cap(id), "{context}: node {id} row exceeds its Lemma-5 cap");
        }
        let pairs: u64 = nodes
            .iter()
            .filter_map(|&id| match *tree.node(id).children.as_slice() {
                [c1, c2] => Some(len(c1) * len(c2)),
                _ => None,
            })
            .sum();
        let h_max = nodes.iter().map(|&id| tree.node(id).depth as u64).max().unwrap();
        let per_node = (k as u64 + 1) * h_max + 1;
        let bound = tree.live_len() as u64 * per_node * per_node;
        assert!(pairs <= bound, "{context}: {pairs} dense×dense pairs > bound {bound}");
    }
}

/// The clustered (Bay-Area-shaped) workload through the engine at every
/// worker count from 1 to 8 stays bit-identical to the sequential server
/// loop. This is the production configuration of the bulk sweep: each
/// worker runs it in a reused `DpScratch`.
#[test]
fn bulk_sweep_through_engine_paths_matches_sequential_servers() {
    let k = 12;
    let (db, map) = bay(2_500);
    let reference = anonymize_partitioned(&db, map, k, 16).unwrap();
    for workers in 1usize..=8 {
        let cfg = EngineConfig { workers, ..EngineConfig::default() };
        let ws = anonymize_work_stealing(&db, map, k, 16, &cfg, None).unwrap();
        assert_eq!(ws.total_cost, reference.total_cost, "{workers} workers");
        assert_same_policy(&reference.policy, &ws.policy, &format!("{workers} workers"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized end-to-end differential: for any feasible small
    /// instance, the engine-built policy equals the dense-DP-built one in
    /// cost, and the work-stealing run over a single jurisdiction equals
    /// the direct anonymizer.
    #[test]
    fn engine_agrees_with_dense_dp_on_small_instances(
        seed in 0u64..1_000,
        k in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0003 ^ seed);
        let n = rng.gen_range(k.max(2)..40);
        let db = random_db(&mut rng, n);
        let map = Rect::square(0, 0, SIDE);
        prop_assume!(db.len() >= k);

        let tree =
            SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k)).unwrap();
        let dense_cost = bulk_dp_dense(&tree, k).unwrap().optimal_cost(&tree).unwrap();
        let outcome = anonymize_work_stealing(
            &db,
            map,
            k,
            1,
            &EngineConfig::default(),
            None,
        )
        .unwrap();
        prop_assert_eq!(outcome.total_cost, dense_cost);
        prop_assert!(verify_policy_aware(&outcome.policy, &db, k).is_ok());
    }
}
