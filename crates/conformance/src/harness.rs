//! The attacker-in-the-loop scenario runner.
//!
//! Every scenario produced by [`scenario_matrix`] runs its algorithm,
//! then faces the oracle stack:
//!
//! 1. **`core::verify`** — masking, totality, group-size k-anonymity
//!    (the Proposition-4 shortcut);
//! 2. **the policy-aware attacker** — [`lbs_attack::audit_policy`]
//!    enumerates candidate senders per cloak exactly as the Example-1
//!    adversary does; policy-aware algorithms must survive, baselines'
//!    breaches are recorded as evidence;
//! 3. **the brute-force optimality oracle** — on tiny instances, every
//!    tree configuration is enumerated and the DP cost must match;
//! 4. **the literal Definition-6 PRE oracle** — on tiny instances, all
//!    possible reverse engineerings are enumerated and k pairwise
//!    sender-disjoint ones must exist.
//!
//! Failures carry the scenario id **and its derived seed**, so any red
//! run replays with `ConformanceReport` alone — no ambient randomness.

use crate::scenario::{scenario_matrix, Algorithm, Scenario, Tier};
use lbs_attack::{audit_policy, literal_k_anonymity};
use lbs_baselines::{Casper, CircularKInside, PolicyUnawareBinary, PolicyUnawareQuad};
use lbs_core::{
    anonymize_per_user_k, brute_force_optimal_cost, bulk_dp_dense, bulk_dp_fast, bulk_dp_fast_quad,
    verify_per_user_k, verify_policy_aware, Anonymizer, IncrementalAnonymizer, KRequirements,
    StickyAnonymizer,
};
use lbs_geom::{Point, Rect};
use lbs_metrics::{Counter, Metrics};
use lbs_model::{
    BulkPolicy, CloakingPolicy, LocationDb, RequestId, RequestParams, ServiceRequest, UserId,
};
use lbs_parallel::{
    anonymize_partitioned, anonymize_work_stealing, anonymize_work_stealing_faulted, EngineConfig,
    FaultPlan,
};
use lbs_tree::{SpatialTree, TreeConfig, TreeKind};
use lbs_workload::{derive_seed, random_moves};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What one scenario produced and which oracles judged it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario id (density/algorithm/k/n).
    pub id: String,
    /// The scenario's derived seed — print this to replay.
    pub seed: u64,
    /// Algorithm name.
    pub algorithm: String,
    /// Whether the algorithm claims policy-aware anonymity.
    pub policy_aware: bool,
    /// Database size.
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// `Cost(P, D)` where the algorithm yields a rectangular bulk policy.
    pub cost: Option<u128>,
    /// Policy-aware attacker breaches found (0 required for policy-aware
    /// algorithms; evidence for baselines).
    pub breaches: usize,
    /// Number of oracle assertions that ran for this scenario.
    pub oracle_checks: usize,
}

/// Aggregate of a whole matrix run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConformanceReport {
    /// The master seed the matrix derived everything from.
    pub master_seed: u64,
    /// Successful scenario outcomes.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Failed scenarios, each message carrying its id and seed.
    pub failures: Vec<String>,
}

impl ConformanceReport {
    /// Total scenario instances attempted.
    pub fn instances(&self) -> usize {
        self.outcomes.len() + self.failures.len()
    }

    /// Every oracle held on every scenario.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Breaches the policy-aware attacker reproduced against the
    /// k-inside baselines (must be ≥ 1 per Example 1).
    pub fn baseline_breaches(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.policy_aware).map(|o| o.breaches).sum()
    }

    /// Breaches against algorithms claiming policy-aware anonymity
    /// (always 0 when [`is_clean`](Self::is_clean); any such breach is
    /// also a failure).
    pub fn policy_aware_breaches(&self) -> usize {
        self.outcomes.iter().filter(|o| o.policy_aware).map(|o| o.breaches).sum()
    }

    /// Total oracle assertions exercised.
    pub fn oracle_checks(&self) -> usize {
        self.outcomes.iter().map(|o| o.oracle_checks).sum()
    }
}

impl std::fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "conformance: {} instances under master seed {} — {} ok, {} failed; \
             {} oracle checks; {} baseline breaches reproduced, {} policy-aware breaches",
            self.instances(),
            self.master_seed,
            self.outcomes.len(),
            self.failures.len(),
            self.oracle_checks(),
            self.baseline_breaches(),
            self.policy_aware_breaches(),
        )?;
        for failure in &self.failures {
            writeln!(f, "  FAIL {failure}")?;
        }
        Ok(())
    }
}

/// Runs the full matrix for `tier` under `master` seed. Panics inside a
/// scenario are caught and reported as that scenario's failure (with its
/// seed), so one bad cell cannot take down the sweep.
pub fn run_matrix(master: u64, tier: Tier) -> ConformanceReport {
    let scenarios = scenario_matrix(master, tier);
    let mut outcomes = Vec::with_capacity(scenarios.len());
    let mut failures = Vec::new();
    for scenario in &scenarios {
        let run = catch_unwind(AssertUnwindSafe(|| run_scenario(scenario)));
        match run {
            Ok(Ok(outcome)) => outcomes.push(outcome),
            Ok(Err(message)) => {
                failures.push(format!("{} (seed {}): {message}", scenario.id, scenario.seed));
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "opaque panic".into());
                failures
                    .push(format!("{} (seed {}): panicked: {message}", scenario.id, scenario.seed));
            }
        }
    }
    ConformanceReport { master_seed: master, outcomes, failures }
}

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

fn oops<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The standard oracle stack for a policy that claims policy-aware
/// k-anonymity: `core::verify` + the policy-aware attacker. Returns the
/// number of checks run.
fn assert_policy_aware(policy: &BulkPolicy, db: &LocationDb, k: usize) -> Result<usize, String> {
    verify_policy_aware(policy, db, k).map_err(|v| {
        format!("core::verify found {} violations: {:?}", v.len(), &v[..v.len().min(3)])
    })?;
    let breaches = audit_policy(policy, db, k);
    ensure!(
        breaches.is_empty(),
        "policy-aware attacker breached {} cloaks (first: {} -> {:?})",
        breaches.len(),
        breaches[0].region,
        breaches[0].candidates
    );
    Ok(2)
}

/// Runs one scenario against the oracle stack.
///
/// # Errors
/// A message describing the first violated oracle; the caller attaches
/// the scenario id and seed.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioOutcome, String> {
    let map = scenario.map();
    let k = scenario.k;
    let mut outcome = ScenarioOutcome {
        id: scenario.id.clone(),
        seed: scenario.seed,
        algorithm: scenario.algorithm.name(),
        policy_aware: scenario.algorithm.policy_aware(),
        users: scenario.users,
        k,
        cost: None,
        breaches: 0,
        oracle_checks: 0,
    };

    match scenario.algorithm {
        Algorithm::BulkFastBinary => {
            let db = scenario.database();
            let engine = Anonymizer::build(&db, map, k).map_err(oops("build"))?;
            outcome.oracle_checks += assert_policy_aware(engine.policy(), &db, k)?;
            ensure!(
                engine.policy().cost_exact() == Some(engine.cost()),
                "policy cost {:?} != matrix optimum {}",
                engine.policy().cost_exact(),
                engine.cost()
            );
            outcome.oracle_checks += 1;
            outcome.cost = Some(engine.cost());
        }
        Algorithm::BulkFastQuad => {
            let db = scenario.database();
            let tree = SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Quad, map, k))
                .map_err(oops("tree"))?;
            let matrix = bulk_dp_fast_quad(&tree, k).map_err(oops("dp"))?;
            let policy = matrix.extract_policy(&tree).map_err(oops("extract"))?;
            outcome.oracle_checks += assert_policy_aware(&policy, &db, k)?;
            let cost = matrix.optimal_cost(&tree).map_err(oops("cost"))?;
            ensure!(policy.cost_exact() == Some(cost), "quad policy cost mismatch");
            outcome.oracle_checks += 1;
            outcome.cost = Some(cost);
        }
        Algorithm::BulkDense => {
            let db = scenario.database();
            let tree = SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k))
                .map_err(oops("tree"))?;
            let dense = bulk_dp_dense(&tree, k).map_err(oops("dense dp"))?;
            let fast = bulk_dp_fast(&tree, k).map_err(oops("fast dp"))?;
            let dense_cost = dense.optimal_cost(&tree).map_err(oops("dense cost"))?;
            let fast_cost = fast.optimal_cost(&tree).map_err(oops("fast cost"))?;
            ensure!(dense_cost == fast_cost, "dense/fast DP diverge: {dense_cost} vs {fast_cost}");
            outcome.oracle_checks += 1;
            let policy = dense.extract_policy(&tree).map_err(oops("extract"))?;
            outcome.oracle_checks += assert_policy_aware(&policy, &db, k)?;
            outcome.cost = Some(dense_cost);
        }
        Algorithm::PerUserK => {
            let db = scenario.database();
            let mut requirements = KRequirements::with_default(k);
            // A seeded quarter of users demand the stricter 2k.
            for user in db.users() {
                if derive_seed(scenario.seed, 60 + user.0).is_multiple_of(4) {
                    requirements.set(user, 2 * k);
                }
            }
            let policy =
                anonymize_per_user_k(&db, map, &requirements).map_err(oops("per-user-k"))?;
            verify_per_user_k(&policy, &db, &requirements)
                .map_err(|v| format!("per-user-k verify: {} violations {:?}", v.len(), v))?;
            outcome.oracle_checks += 1;
            // Default-level audit must also be clean (every member
            // requires at least k).
            outcome.oracle_checks += assert_policy_aware(&policy, &db, k)?;
            outcome.cost = policy.cost_exact();
        }
        Algorithm::Sticky => {
            let mut db = scenario.database();
            let sticky = StickyAnonymizer::new(&db, map, k).map_err(oops("sticky build"))?;
            let policy = sticky.policy_for(&db).map_err(oops("sticky epoch 0"))?;
            outcome.oracle_checks += assert_policy_aware(&policy, &db, k)?;
            // A second epoch after seeded movement must also hold.
            let moves = random_moves(&db, &map, 0.3, 64.0, derive_seed(scenario.seed, 20));
            db.apply_moves(&moves).map_err(oops("apply moves"))?;
            let policy = sticky.policy_for(&db).map_err(oops("sticky epoch 1"))?;
            outcome.oracle_checks += assert_policy_aware(&policy, &db, k)?;
            outcome.cost = policy.cost_exact();
        }
        Algorithm::Incremental => {
            let mut db = scenario.database();
            let config = TreeConfig::lazy(TreeKind::Binary, map, k);
            let mut engine =
                IncrementalAnonymizer::new(&db, config, k).map_err(oops("incremental build"))?;
            for round in 0..3u64 {
                if round > 0 {
                    let moves =
                        random_moves(&db, &map, 0.25, 96.0, derive_seed(scenario.seed, 20 + round));
                    db.apply_moves(&moves).map_err(oops("apply moves"))?;
                    engine.apply_moves(&moves).map_err(oops("incremental moves"))?;
                }
                let fresh = Anonymizer::build(&db, map, k).map_err(oops("fresh build"))?;
                let inc_cost = engine.optimal_cost().map_err(oops("incremental cost"))?;
                ensure!(
                    inc_cost == fresh.cost(),
                    "round {round}: incremental cost {inc_cost} != fresh {}",
                    fresh.cost()
                );
                outcome.oracle_checks += 1;
                let policy = engine.policy().map_err(oops("incremental policy"))?;
                outcome.oracle_checks += assert_policy_aware(policy, &db, k)?;
                outcome.cost = Some(inc_cost);
            }
        }
        Algorithm::Engine { workers } => {
            let db = scenario.database();
            let servers = 8;
            let reference =
                anonymize_partitioned(&db, map, k, servers).map_err(oops("sequential"))?;
            let config = EngineConfig { workers, ..EngineConfig::default() };
            let pooled = anonymize_work_stealing(&db, map, k, servers, &config, None)
                .map_err(oops("work stealing"))?;
            ensure!(
                pooled.total_cost == reference.total_cost,
                "cost diverges at {workers} workers: {} vs {}",
                pooled.total_cost,
                reference.total_cost
            );
            for (user, region) in reference.policy.iter() {
                ensure!(
                    pooled.policy.cloak_of(user) == Some(region),
                    "cloak of {user} differs at {workers} workers"
                );
            }
            outcome.oracle_checks += 2;
            outcome.oracle_checks += assert_policy_aware(&pooled.policy, &db, k)?;
            outcome.cost = Some(pooled.total_cost);
        }
        Algorithm::EngineFaulted { workers, plan_seed } => {
            let db = scenario.database();
            let servers = 8;
            let reference =
                anonymize_partitioned(&db, map, k, servers).map_err(oops("sequential"))?;
            let tasks = reference.servers.len();
            let plan = FaultPlan::seeded(derive_seed(scenario.seed, 30 + plan_seed), tasks);
            let config = EngineConfig { workers, max_task_retries: plan.max_panic_attempts() };
            let metrics = Metrics::new();
            let faulted = anonymize_work_stealing_faulted(
                &db,
                map,
                k,
                servers,
                &config,
                Some(&metrics),
                Some(&plan),
            )
            .map_err(oops("faulted run"))?;
            ensure!(
                faulted.total_cost == reference.total_cost,
                "faulted cost diverges: {} vs {}",
                faulted.total_cost,
                reference.total_cost
            );
            for (user, region) in reference.policy.iter() {
                ensure!(
                    faulted.policy.cloak_of(user) == Some(region),
                    "cloak of {user} differs after fault recovery"
                );
            }
            ensure!(
                metrics.get(Counter::FaultsInjected) == plan.total_injected_panics(),
                "injected {} faults, planned {}",
                metrics.get(Counter::FaultsInjected),
                plan.total_injected_panics()
            );
            ensure!(
                metrics.get(Counter::TaskRetries) == plan.total_injected_panics(),
                "retries {} != injected panics {}",
                metrics.get(Counter::TaskRetries),
                plan.total_injected_panics()
            );
            outcome.oracle_checks += 4;
            outcome.oracle_checks += assert_policy_aware(&faulted.policy, &db, k)?;
            outcome.cost = Some(faulted.total_cost);
        }
        Algorithm::Casper | Algorithm::KInsideQuad | Algorithm::KInsideBinary => {
            let db = scenario.database();
            let policy = match scenario.algorithm {
                Algorithm::Casper => {
                    Casper::build(&db, map, k).map_err(oops("casper"))?.materialize(&db)
                }
                Algorithm::KInsideQuad => {
                    PolicyUnawareQuad::build(&db, map, k).map_err(oops("puq"))?.materialize(&db)
                }
                _ => PolicyUnawareBinary::build(&db, map, k).map_err(oops("pub"))?.materialize(&db),
            };
            outcome.oracle_checks += assert_k_inside(&policy, &db, k)?;
            outcome.breaches = audit_policy(&policy, &db, k).len();
            outcome.cost = policy.cost_exact();
        }
        Algorithm::Circular => {
            let db = scenario.database();
            let side = (map.x1 - map.x0) as u64;
            let centers: Vec<Point> = (0..4u64)
                .map(|i| {
                    Point::new(
                        (derive_seed(scenario.seed, 40 + i) % side) as i64,
                        (derive_seed(scenario.seed, 50 + i) % side) as i64,
                    )
                })
                .collect();
            let circular = CircularKInside::new(centers, k).map_err(oops("circular"))?;
            let policy = circular.materialize(&db);
            outcome.oracle_checks += assert_k_inside(&policy, &db, k)?;
            outcome.breaches = audit_policy(&policy, &db, k).len();
        }
        Algorithm::TinyOracle => {
            let db = scenario.database();
            let engine = Anonymizer::build(&db, map, k).map_err(oops("build"))?;
            outcome.oracle_checks += assert_policy_aware(engine.policy(), &db, k)?;
            // Brute-force optimality: enumerate every configuration.
            let brute = brute_force_optimal_cost(engine.tree(), k);
            ensure!(
                brute == Some(engine.cost()),
                "brute force optimum {brute:?} != DP cost {}",
                engine.cost()
            );
            outcome.oracle_checks += 1;
            // Literal Definition 6: every user requests, all PREs are
            // enumerated, k pairwise sender-disjoint ones must exist.
            let policy = engine.policy().clone();
            let observed: Vec<_> = db
                .iter()
                .enumerate()
                .map(|(i, (user, location))| {
                    let sr = ServiceRequest::new(
                        user,
                        location,
                        RequestParams::from_pairs([("poi", "clinic")]),
                    );
                    policy
                        .anonymize(&db, &sr, RequestId(i as u64))
                        // lbs-lint: allow(location-taint, reason = "user id only; the id taints through the (user, location) tuple binder but no coordinate is in the message")
                        .ok_or_else(|| format!("{user} not cloaked"))
                })
                .collect::<Result<_, _>>()?;
            ensure!(
                literal_k_anonymity(&observed, &db, &policy, k),
                "literal Definition-6 {k}-anonymity fails on the optimal policy"
            );
            ensure!(
                !literal_k_anonymity(&observed, &db, &policy, db.len() + 1),
                "literal {}-anonymity cannot hold with {} users",
                db.len() + 1,
                db.len()
            );
            outcome.oracle_checks += 2;
            outcome.cost = Some(engine.cost());
        }
        Algorithm::CraftedBreach => {
            // Example 1, scaled: the k-inside (Casper) policy produces
            // the semi-quadrant R3 whose *group* is a single user; the
            // policy-aware attacker must identify her.
            let variant =
                scenario.id.rsplit("#v").next().and_then(|v| v.parse::<u32>().ok()).unwrap_or(0);
            let scale = 1i64 << variant;
            let db = LocationDb::from_rows([
                (UserId(0), Point::new(0, 0)),                 // Alice
                (UserId(1), Point::new(0, scale)),             // Bob
                (UserId(2), Point::new(0, 3 * scale)),         // Carol
                (UserId(3), Point::new(2 * scale, 0)),         // Sam
                (UserId(4), Point::new(3 * scale, 3 * scale)), // Tom
            ])
            .map_err(|e| format!("table1 db: {e:?}"))?;
            let crafted_map = Rect::square(0, 0, 4 * scale);
            let policy =
                Casper::build(&db, crafted_map, 2).map_err(oops("casper"))?.materialize(&db);
            outcome.oracle_checks += assert_k_inside(&policy, &db, 2)?;
            let breaches = audit_policy(&policy, &db, 2);
            ensure!(
                !breaches.is_empty(),
                "Example-1 breach NOT reproduced at scale {scale}: the k-inside \
                 baseline unexpectedly withstood the policy-aware attacker"
            );
            ensure!(
                breaches.iter().any(|b| b.candidates == vec![UserId(2)]),
                "expected the attacker to identify Carol (u2); got {:?}",
                breaches.iter().map(|b| &b.candidates).collect::<Vec<_>>()
            );
            outcome.oracle_checks += 2;
            outcome.breaches = breaches.len();
            outcome.cost = policy.cost_exact();
        }
    }

    Ok(outcome)
}

/// The baseline sanity oracle: whatever a k-inside policy cloaks, the
/// cloak must mask its sender and cover ≥ k users (Definition 3 +
/// k-inside). Returns the number of checks run.
fn assert_k_inside(policy: &BulkPolicy, db: &LocationDb, k: usize) -> Result<usize, String> {
    for (user, region) in policy.iter() {
        let point = db.location(user).ok_or_else(|| format!("{user} not in db"))?;
        ensure!(region.contains(&point), "{user}: cloak does not mask its sender");
        let inside = db.users_in(region).len();
        ensure!(inside >= k, "{user}: cloak covers only {inside} < k={k} users");
    }
    Ok(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Density, DEFAULT_MASTER_SEED};

    fn scenario(users: usize, k: usize, algorithm: Algorithm) -> Scenario {
        Scenario {
            id: format!("test/{}/k{k}/n{users}", algorithm.name()),
            seed: 0xFEED,
            density: Density::Uniform,
            users,
            k,
            algorithm,
        }
    }

    #[test]
    fn bulk_fast_scenario_passes_the_oracles() {
        let outcome = run_scenario(&scenario(64, 4, Algorithm::BulkFastBinary)).unwrap();
        assert_eq!(outcome.breaches, 0);
        assert!(outcome.oracle_checks >= 3);
        assert!(outcome.cost.is_some());
    }

    #[test]
    fn crafted_breach_scenario_reproduces_example_1() {
        for variant in 0..4 {
            let mut s = scenario(5, 2, Algorithm::CraftedBreach);
            s.id = format!("{}#v{variant}", s.id);
            let outcome = run_scenario(&s).unwrap();
            assert!(outcome.breaches >= 1, "variant {variant}");
            assert!(!outcome.policy_aware);
        }
    }

    #[test]
    fn tiny_oracle_scenario_runs_both_exponential_oracles() {
        let outcome = run_scenario(&scenario(5, 2, Algorithm::TinyOracle)).unwrap();
        assert!(outcome.oracle_checks >= 5);
        assert_eq!(outcome.breaches, 0);
    }

    #[test]
    fn fault_soak_scenario_recovers_bit_identically() {
        let outcome =
            run_scenario(&scenario(192, 4, Algorithm::EngineFaulted { workers: 3, plan_seed: 1 }))
                .unwrap();
        assert_eq!(outcome.breaches, 0);
        assert!(outcome.oracle_checks >= 6);
    }

    #[test]
    fn failures_carry_id_and_seed() {
        // An infeasible scenario (k > |D|) must fail with a replayable
        // message, not panic the matrix.
        let mut s = scenario(4, 2, Algorithm::BulkFastBinary);
        s.k = 50; // users=4 < k
        let report = ConformanceReport {
            master_seed: DEFAULT_MASTER_SEED,
            outcomes: vec![],
            failures: vec![match run_scenario(&s) {
                Err(e) => format!("{} (seed {}): {e}", s.id, s.seed),
                Ok(_) => panic!("infeasible scenario must fail"),
            }],
        };
        assert!(!report.is_clean());
        assert!(report.failures[0].contains("seed 65261"), "{}", report.failures[0]);
    }
}
