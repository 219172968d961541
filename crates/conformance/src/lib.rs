//! Attacker-in-the-loop conformance subsystem.
//!
//! Five layers of oracle:
//!
//! 1. **Structural verification** — `lbs_core::verify_policy_aware` plus
//!    the PRE-enumerating attacker's `audit_policy`, applied to *every*
//!    scenario instance. Policy-aware algorithms must be clean; the
//!    policy-unaware baselines must reproduce the paper's Example-1
//!    style breach at least once per sweep.
//! 2. **Optimality oracle** — on tiny instances the brute-force
//!    `brute_force_optimal_cost` must agree with the DP, and the literal
//!    Definition-6 check `literal_k_anonymity` must hold at `k` and fail
//!    at `|D| + 1`.
//! 3. **Golden corpus** ([`golden`]) — one frozen `{id, seed, values}`
//!    JSON record per file pins exact costs and assignment fingerprints
//!    for a fixed sub-matrix, the §V pipelines' per-part outputs, and
//!    every deterministic work counter of tiny seeded runs; intentional
//!    changes are re-blessed via the CLI and reviewed as a diff.
//! 4. **Durability oracle** ([`durability`]) — one seeded sweep drives
//!    named crash plans (WAL boundaries and tears, torn checkpoint temp
//!    files, a rotten newest generation), seeded disk faults, on-disk rot
//!    with scrub/GC self-healing, and per-shard victims through the
//!    runtime's storage seam with crash-restart lives: every recovery is
//!    bit-identical to the never-crashed run or fails loudly and typed.
//!    Every degradation-ladder rung faces the policy-aware attacker too.
//! 5. **Sharded soak** ([`soak()`]) — seeded sustained traffic through the
//!    sharded epoch-pipelined service with mid-traffic shard crashes:
//!    no global stall, no attacker breach, aggregate cost within the
//!    paper's divergence bound of the single-shard optimum.
//!
//! The whole subsystem is driven by one master seed
//! ([`DEFAULT_MASTER_SEED`]); every failure message carries the
//! per-scenario derived seed so a red run replays directly with
//! `lbs conformance --seed <seed>` or a targeted unit test.
#![warn(missing_docs)]

pub mod durability;
pub mod golden;
pub mod harness;
pub mod scenario;
pub mod soak;

pub use durability::{
    audit_degradation_ladder, durability_sweep, run_lives, DegradationReport, DurabilityConfig,
    DurabilityReport, LifeLog, Recovered, Reference,
};
pub use golden::{
    bless_all, check_all, check_records, compute_all, policy_fingerprint, GoldenRecord,
};
pub use harness::{run_matrix, run_scenario, ConformanceReport, ScenarioOutcome};
pub use scenario::{scenario_matrix, Algorithm, Density, Scenario, Tier, DEFAULT_MASTER_SEED};
pub use soak::{soak, SoakConfig, SoakCrash, SoakReport};

/// 64-bit FNV-1a of `bytes`: the hash behind scenario and golden seeds,
/// policy fingerprints and the soak fingerprint.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}
