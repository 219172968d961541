//! Conformance-subsystem integration tests.
//!
//! The full smoke matrix (203 instances) runs here in release builds
//! and in the `conformance-smoke` CI stage via the release CLI; debug
//! builds sample every seventh scenario so `cargo test -q` stays fast.
//! The soak tier is `#[ignore]`-gated — run it with
//! `cargo test --release --test conformance_smoke -- --ignored`.

use lbs_conformance::{
    check, check_partitioned, check_sharded, run_matrix, run_scenario, scenario_matrix, Tier,
    DEFAULT_MASTER_SEED,
};
use std::path::Path;

fn assert_report_clean(tier: Tier, min_instances: usize) {
    let report = run_matrix(DEFAULT_MASTER_SEED, tier);
    assert!(
        report.instances() >= min_instances,
        "matrix too narrow: {} < {min_instances}",
        report.instances()
    );
    assert!(report.is_clean(), "conformance failures:\n{report}");
    assert!(
        report.baseline_breaches() >= 1,
        "the PRE attacker must reproduce at least one Example-1 style breach \
         against the k-inside baselines:\n{report}"
    );
    assert_eq!(report.policy_aware_breaches(), 0, "{report}");
}

#[test]
fn smoke_matrix_holds_every_oracle() {
    if cfg!(debug_assertions) {
        // Debug sample: every 7th scenario (~30 cells, < 20 s). The full
        // 203-instance sweep runs in release (CI conformance-smoke stage).
        let scenarios = scenario_matrix(DEFAULT_MASTER_SEED, Tier::Smoke);
        assert!(scenarios.len() >= 200, "smoke matrix must stay >= 200 instances");
        for scenario in scenarios.iter().step_by(7) {
            run_scenario(scenario)
                .unwrap_or_else(|e| panic!("{} (seed {}): {e}", scenario.id, scenario.seed));
        }
    } else {
        assert_report_clean(Tier::Smoke, 200);
    }
}

#[test]
fn golden_corpus_matches_the_checked_in_records() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"));
    match check(dir, DEFAULT_MASTER_SEED) {
        Ok(n) => assert_eq!(n, 12),
        Err(problems) => panic!(
            "golden drift — if intentional, re-bless with \
             `lbs conformance --bless true --golden tests/golden`:\n{}",
            problems.join("\n")
        ),
    }
}

#[test]
fn sharded_golden_corpus_matches_the_checked_in_records() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"));
    match check_sharded(dir, DEFAULT_MASTER_SEED) {
        Ok(n) => assert_eq!(n, 3),
        Err(problems) => panic!(
            "sharded golden drift — if intentional, re-bless with \
             `lbs conformance --bless true --golden tests/golden`:\n{}",
            problems.join("\n")
        ),
    }
}

#[test]
fn partitioned_golden_corpus_matches_the_checked_in_records() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"));
    match check_partitioned(dir, DEFAULT_MASTER_SEED) {
        Ok(n) => assert_eq!(n, 12),
        Err(problems) => panic!(
            "partitioned golden drift — if intentional, re-bless with \
             `lbs conformance --bless true --golden tests/golden`:\n{}",
            problems.join("\n")
        ),
    }
}

/// Full soak: wider k sweep, more fault plans. Minutes in debug, ~10 s
/// in release; kept out of the default run.
#[test]
#[ignore = "soak tier; run with --ignored (release recommended)"]
fn soak_matrix_holds_every_oracle() {
    assert_report_clean(Tier::Soak, 300);
}
