//! Every workload body runs end to end on a tiny instance, untraced and
//! traced, with all of its output checks passing and every metric the
//! benchmark reports present — so the benchmark cannot rot unnoticed.

use lbs_benchmark::bulk::BulkSpec;
use lbs_benchmark::churn::ChurnSpec;
use lbs_benchmark::report::{PassResult, END_TO_END, PER_LAYER};
use lbs_benchmark::{run_pass, PassConfig, Spec, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload) -> Spec {
    match workload.spec() {
        Spec::Bulk(s) => Spec::Bulk(BulkSpec {
            users: 6_000,
            k: 10,
            requests_per_step: 400,
            setups: 1,
            min_steps: 1,
            ..s
        }),
        Spec::Churn(s) => Spec::Churn(ChurnSpec {
            users: 3_000,
            k: 5,
            checkpoint_every: 2,
            retain_checkpoints: 2,
            move_fraction: 0.05,
            requests_per_epoch: 400,
            scrub_every: 2,
            recoveries: 2,
            setups: 1,
            min_epochs: 1,
            ..s
        }),
    }
}

fn run(workload: Workload, traced: bool) -> (PassResult, PathBuf) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("workload-{}-{traced}", workload.name()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let cfg =
        PassConfig { seed: 3, seconds: 0.0, traced, steps: Some(3), out_dir: out_dir.clone() };
    let result = run_pass(workload, tiny(workload), &cfg).expect("the pass sets up");
    (result, out_dir)
}

fn check(workload: Workload) {
    let (untraced, _) = run(workload, false);
    assert!(untraced.correct(), "{}: {:?}", workload.name(), untraced.failures);
    assert_eq!(untraced.steps, 3);
    for (name, unit) in END_TO_END {
        let metric = untraced.metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(metric.value > 0.0, "{}: {name} = {}", workload.name(), metric.value);
        assert_eq!(metric.unit, unit);
    }
    assert!(untraced.layers.is_empty(), "an untraced pass records no layers");

    let (traced, out_dir) = run(workload, true);
    assert!(traced.correct(), "{}: {:?}", workload.name(), traced.failures);
    for (name, _) in PER_LAYER {
        assert!(traced.layers.contains_key(name), "{}: layer {name} missing", workload.name());
    }
    let shares: f64 =
        traced.layers.iter().filter(|(k, _)| k.ends_with("share")).map(|(_, v)| v).sum();
    let sync_share = traced.layers["storage.sync_share"];
    // Self-time shares partition the traced wall time; `storage.sync_share`
    // overlaps them (fsyncs happen inside the WAL and checkpoint layers).
    assert!(
        (shares - sync_share - 1.0).abs() < 0.05,
        "{}: shares sum to {shares}",
        workload.name()
    );
    assert!(traced.layers["traced.step_s"] > 0.0);
    let trace = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    let lines = std::fs::read_to_string(&trace).expect("the traced pass writes its spans");
    assert!(lines.lines().count() > 3, "{}", trace.display());
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn bulk_paper_runs_on_a_tiny_instance() {
    check(Workload::BulkPaper);
}

#[test]
fn partitioned_paper_runs_on_a_tiny_instance() {
    check(Workload::PartitionedPaper);
}

#[test]
fn churn_fresh_runs_on_a_tiny_instance() {
    check(Workload::ChurnFresh);
}

#[test]
fn churn_deadline_runs_on_a_tiny_instance() {
    check(Workload::ChurnDeadline);
}
