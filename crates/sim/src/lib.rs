//! End-to-end simulation of the privacy-conscious LBS model (Section II-B)
//! over a sequence of location-database snapshots.
//!
//! Each simulated snapshot runs the full pipeline the paper describes:
//!
//! 1. users move (bounded per-snapshot displacement);
//! 2. the CSP incrementally maintains the optimal policy-aware
//!    configuration matrix and extracts the snapshot's policy;
//! 3. a sample of users issues service requests; the CSP anonymizes them
//!    and serves them through the answer cache and the LBS's cloaked
//!    nearest-neighbor evaluation; clients filter exactly;
//! 4. the full attacker suite runs against what each party could log:
//!    the policy-aware group audit (must stay clean), and the
//!    frequency-counting attack against the *post-cache* LBS log (must
//!    find no full exposures).
//!
//! The simulation is fully deterministic per seed, making it suitable
//! both for integration testing (every invariant is asserted every
//! snapshot) and for the `end_to_end` example's reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lbs_attack::{audit_policy, FrequencyAttacker};
use lbs_core::{CoreError, IncrementalAnonymizer};
use lbs_geom::Point;
use lbs_model::{AnonymizedRequest, CloakingPolicy, RequestId, RequestParams, ServiceRequest};
use lbs_query::{CloakedLbs, Poi, PoiId, PoiStore};
use lbs_tree::{TreeConfig, TreeKind};
use lbs_workload::{derive_seed, generate_master, random_moves, BayAreaConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Simulation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Mobile users on the map.
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// Snapshots to simulate (the paper refreshes every ~30 s).
    pub snapshots: usize,
    /// Fraction of users issuing a request each snapshot.
    pub request_rate: f64,
    /// Fraction of users moving between snapshots.
    pub mover_fraction: f64,
    /// Maximum per-snapshot displacement in meters (paper: 200 m / 10 s).
    pub max_move_m: f64,
    /// Points of interest on the map.
    pub pois: usize,
    /// POI categories users ask about.
    pub categories: Vec<String>,
    /// RNG seed (everything downstream is deterministic in it).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            users: 20_000,
            k: 50,
            snapshots: 5,
            request_rate: 0.05,
            mover_fraction: 0.01,
            max_move_m: 200.0,
            pois: 2_000,
            categories: vec!["rest".into(), "groc".into(), "gas".into()],
            seed: 0x51A4,
        }
    }
}

/// Per-snapshot measurements and assertion outcomes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotMetrics {
    /// Snapshot index (0 = initial bulk anonymization).
    pub snapshot: usize,
    /// Users that moved into this snapshot.
    pub moved: usize,
    /// DP rows recomputed by incremental maintenance (all rows at t=0).
    pub rows_recomputed: usize,
    /// Wall time spent maintaining the policy.
    pub maintain_time: Duration,
    /// `Cost(P, D)` of the snapshot's optimal policy.
    pub cost: u128,
    /// Smallest cloak group (≥ k when the audit is clean).
    pub min_group: usize,
    /// Requests issued this snapshot.
    pub requests: usize,
    /// Requests answered from the CSP cache (hidden from the LBS).
    pub cache_hits: usize,
    /// Average NN candidate-set size shipped to clients.
    pub avg_candidates: f64,
    /// Policy-aware audit breaches (must be 0).
    pub breaches: usize,
    /// Full frequency exposures in the post-cache LBS log (must be 0).
    pub frequency_exposures: usize,
}

/// Whole-run report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// The configuration that produced this report.
    pub config: SimConfig,
    /// One entry per snapshot.
    pub snapshots: Vec<SnapshotMetrics>,
}

impl SimReport {
    /// Total requests served across the run.
    pub fn total_requests(&self) -> usize {
        self.snapshots.iter().map(|s| s.requests).sum()
    }

    /// Total breaches across the run (0 for a correct system).
    pub fn total_breaches(&self) -> usize {
        self.snapshots.iter().map(|s| s.breaches + s.frequency_exposures).sum()
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} users, k={}, {} snapshots, {} requests total, {} breaches",
            self.config.users,
            self.config.k,
            self.snapshots.len(),
            self.total_requests(),
            self.total_breaches(),
        )?;
        for s in &self.snapshots {
            writeln!(
                f,
                "  t={}: moved={} rows={} maintain={:.3}s cost={} min_group={} \
                 requests={} cache_hits={} candidates={:.1}",
                s.snapshot,
                s.moved,
                s.rows_recomputed,
                s.maintain_time.as_secs_f64(),
                s.cost,
                s.min_group,
                s.requests,
                s.cache_hits,
                s.avg_candidates,
            )?;
        }
        Ok(())
    }
}

/// Errors of a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// Anonymization failed (population below k, bad map, …).
    Core(CoreError),
    /// POI/tree substrate construction failed.
    Setup(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Core(e) => write!(f, "anonymization failed: {e}"),
            SimError::Setup(msg) => write!(f, "setup failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> Self {
        SimError::Core(e)
    }
}

/// Runs the simulation.
///
/// # Errors
/// Propagates substrate construction and anonymization failures;
/// privacy-invariant violations (audit breaches) are *reported*, not
/// errored, so tests can assert on them.
pub fn run(config: &SimConfig) -> Result<SimReport, SimError> {
    // Stream assignments under the master seed (see `derive_seed`):
    // 0 = POI placement + request traffic, 1 = workload generation,
    // 1000 + t = movement into snapshot t. One master seed replays the
    // entire run, including every conformance assertion along the way.
    let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, 0));
    let bay = BayAreaConfig {
        seed: derive_seed(config.seed, 1),
        ..BayAreaConfig::scaled_to(config.users)
    };
    let mut db = generate_master(&bay);
    let map = bay.map();

    // POIs scattered uniformly (businesses are less clustered than homes).
    let pois: Vec<Poi> = (0..config.pois)
        .map(|i| Poi {
            id: PoiId(i as u64),
            location: Point::new(rng.gen_range(map.x0..map.x1), rng.gen_range(map.y0..map.y1)),
            category: config.categories[i % config.categories.len().max(1)].clone(),
        })
        .collect();
    let store = PoiStore::build(map, (map.width() / 64).max(1), pois).map_err(SimError::Setup)?;
    let mut lbs = CloakedLbs::new(store);

    let tree_config = TreeConfig::lazy(TreeKind::Binary, map, config.k);
    let (mut engine, initial_time) =
        timed(|| IncrementalAnonymizer::new(&db, tree_config, config.k))?;
    let mut next_rid = 0u64;
    let mut snapshots = Vec::with_capacity(config.snapshots);

    for t in 0..config.snapshots {
        // 1. Movement (none before the first snapshot).
        let (moved, rows_recomputed, maintain_time) = if t == 0 {
            (0, engine.tree().live_len(), initial_time)
        } else {
            let moves = random_moves(
                &db,
                &map,
                config.mover_fraction,
                config.max_move_m,
                derive_seed(config.seed, 1000 + t as u64),
            );
            // lbs-lint: allow(no-unwrap-in-lib, reason = "random_moves draws users and in-map targets from this very db, so every move validates")
            db.apply_moves(&moves).expect("moves generated from current db");
            let (report, elapsed) = timed(|| engine.apply_moves(&moves))?;
            (report.moved, report.rows_recomputed, elapsed)
        };

        // 2. Policy for this snapshot.
        let policy = engine.policy()?;
        let cost = policy.cost_exact().unwrap_or(0);
        let min_group = policy.min_group_size().unwrap_or(0);
        let breaches = audit_policy(policy, &db, config.k).len();

        // 3. Requests: sampled users ask for a random category.
        let n_requests = ((db.len() as f64) * config.request_rate).round() as usize;
        let users: Vec<_> = db.users().collect();
        let mut lbs_log: Vec<AnonymizedRequest> = Vec::new();
        let mut cache_hits = 0usize;
        let mut candidates_total = 0usize;
        for _ in 0..n_requests {
            let user = users[rng.gen_range(0..users.len())];
            let category = &config.categories[rng.gen_range(0..config.categories.len())];
            // lbs-lint: allow(no-unwrap-in-lib, reason = "user was just sampled from db.users(), so a location exists")
            let location = db.location(user).expect("sampled from db");
            let sr =
                ServiceRequest::new(user, location, RequestParams::from_pairs([("poi", category)]));
            // lbs-lint: allow(no-unwrap-in-lib, reason = "engine.policy() is masking and total for the current snapshot, so anonymize succeeds for a valid request")
            let ar = policy
                .anonymize(&db, &sr, RequestId(next_rid))
                .expect("valid request under a total policy");
            next_rid += 1;
            let answer = lbs.nearest_for(&ar, location);
            candidates_total += answer.candidates_fetched;
            if answer.cache_hit {
                cache_hits += 1;
            } else {
                // Only cache misses reach the LBS and can be logged there.
                lbs_log.push(ar);
            }
        }

        // 4. Frequency attack on what the LBS actually saw.
        let frequency_exposures =
            FrequencyAttacker::new(policy.clone()).full_exposures(&db, &lbs_log).len();

        snapshots.push(SnapshotMetrics {
            snapshot: t,
            moved,
            rows_recomputed,
            maintain_time,
            cost,
            min_group,
            requests: n_requests,
            cache_hits,
            avg_candidates: if n_requests == 0 {
                0.0
            } else {
                candidates_total as f64 / n_requests as f64
            },
            breaches,
            frequency_exposures,
        });
    }

    Ok(SimReport { config: config.clone(), snapshots })
}

fn timed<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<(T, Duration), E> {
    // lbs-lint: allow(no-wall-clock-in-dp, reason = "elapsed time is reported in SimReport timings only; snapshots and policies are seed-deterministic")
    let started = std::time::Instant::now();
    let value = f()?;
    Ok((value, started.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimConfig {
        SimConfig {
            users: 2_000,
            k: 10,
            snapshots: 4,
            request_rate: 0.1,
            pois: 300,
            ..SimConfig::default()
        }
    }

    #[test]
    fn clean_run_has_no_breaches_and_sane_metrics() {
        let report = run(&small()).unwrap();
        assert_eq!(report.snapshots.len(), 4);
        assert_eq!(report.total_breaches(), 0);
        for s in &report.snapshots {
            assert!(s.min_group >= 10, "t={}: min group {}", s.snapshot, s.min_group);
            assert_eq!(s.breaches, 0);
            assert_eq!(s.frequency_exposures, 0);
            assert!(s.cost > 0);
            assert_eq!(s.requests, 200);
        }
        // Snapshot 0 computes every row; later snapshots with 1% movers
        // recompute strictly fewer.
        assert!(report.snapshots[1].rows_recomputed < report.snapshots[0].rows_recomputed);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(&small()).unwrap();
        let b = run(&small()).unwrap();
        for (x, y) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!(x.cost, y.cost);
            assert_eq!(x.cache_hits, y.cache_hits);
            assert_eq!(x.moved, y.moved);
        }
        let mut other = small();
        other.seed ^= 1;
        let c = run(&other).unwrap();
        assert!(
            a.snapshots.iter().zip(&c.snapshots).any(|(x, y)| x.cost != y.cost),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn cache_absorbs_duplicates_at_high_request_rates() {
        let mut cfg = small();
        cfg.request_rate = 0.5; // lots of duplicate (cloak, V) pairs
        let report = run(&cfg).unwrap();
        let hits: usize = report.snapshots.iter().map(|s| s.cache_hits).sum();
        assert!(hits > 0, "duplicates must hit the cache");
    }

    #[test]
    fn infeasible_population_surfaces_as_core_error() {
        let mut cfg = small();
        cfg.users = 5;
        cfg.k = 100; // scaled_to(5) still emits one 10-user intersection
        assert!(matches!(run(&cfg), Err(SimError::Core(_))));
    }

    #[test]
    fn report_renders() {
        let report = run(&small()).unwrap();
        let text = report.to_string();
        assert!(text.contains("t=0"));
        assert!(text.contains("0 breaches"));
    }
}
