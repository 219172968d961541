//! Parallel anonymization with jurisdiction partitioning (Section V):
//! split the map among independent anonymization servers, compare the
//! master policy's cost against the single-server optimum, and report the
//! simulated multi-server wall time.
//!
//! ```text
//! cargo run --release --example parallel_servers [num_users] [k]
//! ```

use policy_aware_lbs::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let k: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(50);

    let cfg = BayAreaConfig::scaled_to(n);
    let db = generate_master(&cfg);
    let map = cfg.map();
    println!("{} users, k = {k}\n", db.len());

    let single = Anonymizer::build(&db, map, k).unwrap();
    println!("single server: optimal cost {} m^2", single.cost());

    for servers in [2usize, 4, 8, 16, 32] {
        let outcome = anonymize_partitioned(&db, map, k, servers).unwrap();
        let slowest = outcome.servers.iter().map(|s| s.elapsed).max().unwrap_or_default();
        println!(
            "{:>3} jurisdictions: wall {:?} (partition {:?} + slowest server {:?}), \
             cost divergence {:.3}%, busiest server {} users",
            outcome.servers.len(),
            outcome.simulated_wall_time(),
            outcome.partition_time,
            slowest,
            100.0 * outcome.divergence_from(single.cost()),
            outcome.servers.iter().map(|s| s.users).max().unwrap_or(0),
        );
        // The master policy stays policy-aware k-anonymous: cloaks never
        // span jurisdictions, and each server's groups have >= k members.
        verify_policy_aware(&outcome.policy, &db, k).expect("master policy anonymous");
    }

    // The work-stealing runner exercises the true concurrent path (one
    // worker per core, largest jurisdiction first).
    let pooled = anonymize_work_stealing(&db, map, k, 8, &EngineConfig::default(), None).unwrap();
    println!(
        "\nwork-stealing run (8 servers): cost {} m^2 — identical to sequential: {}",
        pooled.total_cost,
        pooled.total_cost == anonymize_partitioned(&db, map, k, 8).unwrap().total_cost
    );
}
