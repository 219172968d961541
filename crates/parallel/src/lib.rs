//! Parallel anonymization via jurisdiction partitioning (Section V).
//!
//! The bulk-anonymization problem is embarrassingly parallel in space:
//! partition the map into *jurisdictions*, give each to an independent
//! anonymization server with its own binary tree and location sub-database,
//! and let the master policy delegate each location to the server whose
//! jurisdiction contains it. Cloaks never span jurisdictions, so the cost
//! can exceed the single-server optimum — but only for users near borders,
//! and the paper measures the divergence at 0% up to ~2k jurisdictions and
//! < 1% up to 4096 (Section VI-D).
//!
//! Jurisdictions are chosen by the paper's greedy scheme over the binary
//! tree: repeatedly replace the most-populous node whose children each
//! hold 0 or ≥ k users by its children, until enough jurisdictions exist.
//! [`partition_users`] runs that scheme without materializing the tree,
//! reordering one copy of the users so each jurisdiction is a contiguous
//! range that its server reads in place.
//!
//! [`anonymize_partitioned`] runs the servers one after another and times
//! each individually, so `max(per-server time)` is the simulated parallel
//! wall time on any host — exact for shared-nothing servers.
//! [`anonymize_work_stealing`] actually runs them concurrently, largest
//! jurisdiction first, on the [`engine`] module's work-stealing pool: a
//! fixed set of workers pulling indexed tasks from a `crossbeam`
//! injector, each with a reusable DP scratch arena, producing output
//! bit-identical to the sequential run. [`refresh_parallel`] runs the
//! disjoint dirty subtrees of a Section IV incremental refresh on the same
//! pool.

#![warn(missing_docs)]

pub mod engine;
pub mod partition;
pub mod refresh;

pub use partition::{partition_users, Jurisdiction};
pub use refresh::refresh_parallel;

pub use engine::{
    anonymize_work_stealing, anonymize_work_stealing_faulted, EngineConfig, FaultPlan, ScratchPool,
};

use lbs_core::CoreError;
use lbs_geom::{Area, Rect};
use lbs_model::{BulkPolicy, LocationDb};
use std::time::{Duration, Instant};

/// Per-server outcome of a partitioned run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// The server's jurisdiction.
    pub jurisdiction: Rect,
    /// Users under this jurisdiction.
    pub users: usize,
    /// The server's `Cost(P, D_j)` (0 for empty jurisdictions).
    pub cost: Area,
    /// Time this server spent building its tree + DP + policy.
    pub elapsed: Duration,
}

/// Outcome of a partitioned (multi-server) bulk anonymization.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// The master policy: the union of all server policies.
    pub policy: BulkPolicy,
    /// Σ server costs — compare against the single-server optimum for the
    /// Section VI-D divergence figure.
    pub total_cost: Area,
    /// One report per jurisdiction, in partition order.
    pub servers: Vec<ServerReport>,
    /// Time spent choosing jurisdictions and laying their users out as
    /// contiguous ranges of one shared copy.
    pub partition_time: Duration,
    /// Wall time of the server phase as actually executed (sequentially
    /// for [`anonymize_partitioned`], on the work-stealing pool for
    /// [`anonymize_work_stealing`]).
    pub server_wall_time: Duration,
    /// Worker threads used for the server phase (1 for the sequential
    /// runner).
    pub workers: usize,
}

impl ParallelOutcome {
    /// Simulated parallel wall time: partitioning plus the slowest server.
    pub fn simulated_wall_time(&self) -> Duration {
        self.partition_time + self.servers.iter().map(|s| s.elapsed).max().unwrap_or_default()
    }

    /// Cost divergence vs. a reference (single-server) optimal cost, as a
    /// fraction (0.01 = 1%).
    pub fn divergence_from(&self, optimal: Area) -> f64 {
        if optimal == 0 {
            return 0.0;
        }
        (self.total_cost as f64 - optimal as f64) / optimal as f64
    }
}

/// Runs partitioned bulk anonymization sequentially, timing each server.
///
/// # Errors
/// Propagates map/tree/DP failures; a jurisdiction whose population is
/// positive but below k (impossible under the greedy partitioner, possible
/// with hand-made jurisdiction lists) surfaces as
/// [`CoreError::InsufficientPopulation`].
pub fn anonymize_partitioned(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
) -> Result<ParallelOutcome, CoreError> {
    // lbs-lint: allow(no-wall-clock-in-dp, reason = "partition wall time is reported in ParallelOutcome timings only; the partition is input-deterministic")
    let partition_started = Instant::now();
    let tasks = engine::partition_tasks(db, map, k, servers, 1, None)?;
    let partition_time = partition_started.elapsed();

    // lbs-lint: allow(no-wall-clock-in-dp, reason = "aggregate server wall time is reported in ParallelOutcome timings only")
    let servers_started = Instant::now();
    let results = tasks
        .iter()
        .map(|task| engine::anonymize_task(task, k, None, None))
        .collect::<Result<Vec<_>, _>>()?;
    let server_wall_time = servers_started.elapsed();
    Ok(engine::merge_results(k, results, partition_time, server_wall_time, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_core::{verify_policy_aware, Anonymizer};
    use lbs_workload::{generate_master, BayAreaConfig};

    fn workload(n: usize) -> (LocationDb, Rect) {
        let mut cfg = BayAreaConfig::scaled_to(n);
        cfg.map_side = 1 << 14;
        let db = generate_master(&cfg);
        (db, cfg.map())
    }

    #[test]
    fn single_jurisdiction_matches_direct_anonymizer() {
        let (db, map) = workload(1_000);
        let k = 8;
        let direct = Anonymizer::build(&db, map, k).unwrap();
        let outcome = anonymize_partitioned(&db, map, k, 1).unwrap();
        assert_eq!(outcome.total_cost, direct.cost());
        assert_eq!(outcome.servers.len(), 1);
        assert!(verify_policy_aware(&outcome.policy, &db, k).is_ok());
    }

    #[test]
    fn partitioned_cost_close_to_optimal_and_policy_anonymous() {
        let (db, map) = workload(3_000);
        let k = 10;
        let optimal = Anonymizer::build(&db, map, k).unwrap().cost();
        for servers in [4, 16] {
            let outcome = anonymize_partitioned(&db, map, k, servers).unwrap();
            assert!(outcome.total_cost >= optimal, "partitioning cannot beat the optimum");
            assert!(
                outcome.divergence_from(optimal) < 0.05,
                "divergence {} too large at {servers} servers",
                outcome.divergence_from(optimal)
            );
            assert_eq!(outcome.policy.len(), db.len());
            assert!(outcome.policy.is_masking_and_total(&db));
            assert!(verify_policy_aware(&outcome.policy, &db, k).is_ok());
        }
    }

    #[test]
    fn simulated_wall_time_is_partition_plus_slowest() {
        let (db, map) = workload(1_000);
        let outcome = anonymize_partitioned(&db, map, 8, 4).unwrap();
        let slowest = outcome.servers.iter().map(|s| s.elapsed).max().unwrap();
        assert_eq!(outcome.simulated_wall_time(), outcome.partition_time + slowest);
    }
}
