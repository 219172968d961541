//! Conformance-subsystem integration tests.
//!
//! The full smoke matrix (203 instances) runs here in release builds
//! and in the `conformance-smoke` CI stage via the release CLI; debug
//! builds sample every seventh scenario so `cargo test -q` stays fast.
//! The soak tier is `#[ignore]`-gated — run it with
//! `cargo test --release --test conformance_smoke -- --ignored`.

use lbs_conformance::{
    check_all, compute_partitioned_corpus, compute_sharded_corpus, run_matrix, run_scenario,
    scenario_matrix, PartitionedGoldenRecord, ShardedGoldenRecord, Tier, DEFAULT_MASTER_SEED,
};
use std::path::Path;

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

/// The checked-in `tests/golden/<id>.json`.
fn stored_golden(id: &str) -> String {
    let path = golden_dir().join(format!("{id}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
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

/// Every checked-in corpus: policies, the sharded and partitioned
/// pipelines, and the work counters.
#[test]
fn golden_corpus_matches_the_checked_in_records() {
    match check_all(golden_dir(), DEFAULT_MASTER_SEED) {
        Ok(counts) => {
            assert_eq!(counts, [("policy", 12), ("sharded", 3), ("partitioned", 12), ("work", 9)])
        }
        Err(problems) => panic!("golden drift — {REBLESS}:\n{}", problems.join("\n")),
    }
}

/// The sharded corpus alone, record by record, so a drift here is named
/// by its own test.
#[test]
fn sharded_golden_corpus_matches_the_checked_in_records() {
    let fresh = compute_sharded_corpus(DEFAULT_MASTER_SEED).expect("sharded corpus");
    assert_eq!(fresh.len(), 3);
    for record in &fresh {
        let stored: ShardedGoldenRecord =
            serde_json::from_str(&stored_golden(&record.id)).expect("sharded golden parses");
        assert_eq!(&stored, record, "{} drifted — {REBLESS}", record.id);
    }
}

/// The partitioned corpus alone, record by record.
#[test]
fn partitioned_golden_corpus_matches_the_checked_in_records() {
    let fresh = compute_partitioned_corpus(DEFAULT_MASTER_SEED).expect("partitioned corpus");
    assert_eq!(fresh.len(), 12);
    for record in &fresh {
        let stored: PartitionedGoldenRecord =
            serde_json::from_str(&stored_golden(&record.id)).expect("partitioned golden parses");
        assert_eq!(&stored, record, "{} drifted — {REBLESS}", record.id);
    }
}

/// Full soak: wider k sweep, more fault plans. Minutes in debug, ~10 s
/// in release; kept out of the default run.
#[test]
#[ignore = "soak tier; run with --ignored (release recommended)"]
fn soak_matrix_holds_every_oracle() {
    assert_report_clean(Tier::Soak, 300);
}
