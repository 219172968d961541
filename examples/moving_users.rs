//! Incremental maintenance across location-database snapshots
//! (Section IV / Figure 5(b)): users drift up to 200 m between 10-second
//! snapshots and the optimal configuration matrix is patched instead of
//! recomputed.
//!
//! ```text
//! cargo run --release --example moving_users [num_users] [k] [snapshots]
//! ```

use policy_aware_lbs::prelude::*;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let k: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(50);
    let snapshots: usize = std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(5);

    let cfg = BayAreaConfig::scaled_to(n);
    let mut db = generate_master(&cfg);
    let map = cfg.map();

    let started = Instant::now();
    let tree_config = TreeConfig::lazy(TreeKind::Binary, map, k);
    let mut engine = IncrementalAnonymizer::new(&db, tree_config, k).unwrap();
    println!(
        "initial bulk anonymization of {} users in {:?} (cost {} m^2)\n",
        db.len(),
        started.elapsed(),
        engine.optimal_cost().unwrap()
    );

    for snapshot in 1..=snapshots {
        // 1% of users move up to 200 m (the paper's movement bound for a
        // 10 s snapshot interval).
        let moves = random_moves(&db, &map, 0.01, 200.0, snapshot as u64);
        db.apply_moves(&moves).unwrap();

        let started = Instant::now();
        let report = engine.apply_moves(&moves).unwrap();
        let incremental = started.elapsed();

        let started = Instant::now();
        let bulk = Anonymizer::build(&db, map, k).unwrap();
        let from_scratch = started.elapsed();

        assert_eq!(engine.optimal_cost().unwrap(), bulk.cost(), "incremental == bulk");
        println!(
            "snapshot {snapshot}: {} movers -> incremental {:?} \
             (recomputed {} rows, reused {}), bulk {:?}, cost {} m^2",
            report.moved,
            incremental,
            report.rows_recomputed,
            report.rows_reused,
            from_scratch,
            bulk.cost(),
        );
    }

    // The maintained matrix still extracts a verified optimal policy.
    let policy = engine.policy().unwrap();
    verify_policy_aware(policy, &db, k).expect("still policy-aware k-anonymous");
    println!("\nfinal policy verified: every cloak group has >= {k} members");
}
