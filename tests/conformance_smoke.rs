//! Conformance-subsystem integration tests.
//!
//! The full smoke matrix (203 instances) runs here in release builds,
//! which is how CI runs it; debug builds sample every seventh scenario
//! so `cargo test -q` stays fast.
//! The soak tier is `#[ignore]`-gated — run it with
//! `cargo test --release --test conformance_smoke -- --ignored`.

use lbs_conformance::{
    check_records, compute_all, run_matrix, run_scenario, scenario_matrix, GoldenRecord, Tier,
    DEFAULT_MASTER_SEED,
};
use std::path::Path;
use std::sync::OnceLock;

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

const REBLESS: &str =
    "if intentional, re-bless with `lbs conformance --bless true --golden tests/golden`";

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
        // 203-instance sweep runs in release (CI's workspace-test stage).
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

/// The golden corpus, computed once per test binary and shared by the
/// tests below.
fn corpus() -> &'static [GoldenRecord] {
    static CORPUS: OnceLock<Result<Vec<GoldenRecord>, String>> = OnceLock::new();
    match CORPUS.get_or_init(|| compute_all(DEFAULT_MASTER_SEED)) {
        Ok(records) => records,
        Err(e) => panic!("golden corpus: {e}"),
    }
}

/// Every checked-in record: policies, the sharded and partitioned
/// pipelines, and the work counters; a stale file fails it too.
#[test]
fn golden_corpus_matches_the_checked_in_records() {
    match check_records(corpus(), golden_dir()) {
        Ok(n) => assert_eq!(n, 36),
        Err(problems) => panic!("golden drift — {REBLESS}:\n{}", problems.join("\n")),
    }
}

/// Checks the `prefix` family of the shared corpus through the same
/// per-record path as [`check_records`], so a drift there is named by
/// its own test.
fn assert_family_matches(prefix: &str, expected: usize) {
    let corpus = corpus();
    let family: Vec<&GoldenRecord> = corpus.iter().filter(|r| r.id.starts_with(prefix)).collect();
    assert_eq!(family.len(), expected, "{prefix}* records");
    let problems: Vec<String> = family.iter().filter_map(|r| r.check(golden_dir()).err()).collect();
    assert!(problems.is_empty(), "golden drift — {REBLESS}:\n{}", problems.join("\n"));
}

#[test]
fn sharded_golden_corpus_matches_the_checked_in_records() {
    assert_family_matches("sharded_", 3);
}

#[test]
fn partitioned_golden_corpus_matches_the_checked_in_records() {
    assert_family_matches("partitioned_", 12);
}

/// Full soak: wider k sweep, more fault plans. Minutes in debug, ~10 s
/// in release; kept out of the default run.
#[test]
#[ignore = "soak tier; run with --ignored (release recommended)"]
fn soak_matrix_holds_every_oracle() {
    assert_report_clean(Tier::Soak, 300);
}
