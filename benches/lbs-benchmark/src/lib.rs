//! The repository's end-to-end benchmark: four workloads over the
//! anonymizer's public entry points, timed from outside, with output
//! checks, and a traced repeat that breaks each step's wall time down by
//! layer. `BENCHMARK.md` beside this crate documents the workloads,
//! metrics and bounds; `src/main.rs` is the command line.

#![forbid(unsafe_code)]

pub mod bulk;
pub mod churn;
pub mod counting_fs;
pub mod report;
pub mod stats;
pub mod trace;

use lbs_metrics::{Metrics, MetricsSnapshot, Stage};
use report::{PassResult, PER_LAYER, SPAN_LAYERS};
use std::path::PathBuf;
use std::time::Duration;
use trace::{root_total_ns, self_times, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1.75M users, k = 50, one jurisdiction: the paper's `Bulk_dp`.
    BulkPaper,
    /// The same population over 64 jurisdictions on two workers (§V).
    PartitionedPaper,
    /// The two-shard service under churn, every request on the fresh rung.
    ChurnFresh,
    /// The same service with every request's deadline already expired.
    ChurnDeadline,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkPaper,
        Workload::PartitionedPaper,
        Workload::ChurnFresh,
        Workload::ChurnDeadline,
    ];

    /// Stable name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkPaper => "bulk_paper",
            Workload::PartitionedPaper => "partitioned_paper",
            Workload::ChurnFresh => "churn_fresh",
            Workload::ChurnDeadline => "churn_deadline",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload at the scale the benchmark runs it.
    pub fn spec(self) -> Spec {
        match self {
            Workload::BulkPaper => Spec::Bulk(bulk::BulkSpec::paper()),
            Workload::PartitionedPaper => Spec::Bulk(bulk::BulkSpec::partitioned_paper()),
            Workload::ChurnFresh => Spec::Churn(churn::ChurnSpec::fresh()),
            Workload::ChurnDeadline => Spec::Churn(churn::ChurnSpec::deadline()),
        }
    }
}

/// The size and shape of one workload.
#[derive(Debug, Clone, Copy)]
pub enum Spec {
    /// `bulk_paper` or `partitioned_paper`.
    Bulk(bulk::BulkSpec),
    /// `churn_fresh` or `churn_deadline`.
    Churn(churn::ChurnSpec),
}

/// How one pass runs.
#[derive(Debug, Clone)]
pub struct PassConfig {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed loop in seconds.
    pub seconds: f64,
    /// Record spans and layer counters.
    pub traced: bool,
    /// Run exactly this many timed steps instead of filling `seconds`:
    /// the traced repeat runs the work its untraced pass ran.
    pub steps: Option<u64>,
    /// Where traces and service directories go.
    pub out_dir: PathBuf,
}

impl PassConfig {
    /// Whether the timed loop takes another step after `done` steps that
    /// took `spent` in total.
    pub fn more_steps(&self, done: u64, spent: Duration, min_steps: u64) -> bool {
        match self.steps {
            Some(n) => done < n,
            None => done < min_steps || spent.as_secs_f64() < self.seconds,
        }
    }

    /// The JSONL trace of `workload`.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.out_dir.join(format!("trace-{workload}.jsonl"))
    }
}

/// Runs one pass of `workload` at the size `spec` gives.
///
/// # Errors
/// Set-up failures that leave nothing to measure.
pub fn run_pass(workload: Workload, spec: Spec, cfg: &PassConfig) -> Result<PassResult, String> {
    match spec {
        Spec::Bulk(s) => bulk::run(workload.name(), s, cfg),
        Spec::Churn(s) => churn::run(workload.name(), s, cfg),
    }
}

/// Total recorded time of `stage` so far (zero without a sink).
pub(crate) fn stage_total(metrics: Option<&Metrics>, stage: Stage) -> Duration {
    metrics.map_or(Duration::ZERO, |m| m.stage_total(stage))
}

/// A snapshot of the sink (empty without one).
pub(crate) fn snapshot(metrics: Option<&Metrics>) -> MetricsSnapshot {
    metrics.map(Metrics::snapshot).unwrap_or_default()
}

/// Fills the per-layer metrics of a traced pass: self time per layer as a
/// share of the traced steps' wall time (spans under `roots`), the mean
/// traced step, plus the workload's counts. Checks that the self times
/// account for the wall time within 5%.
pub(crate) fn finish_layers(
    out: &mut PassResult,
    tracer: &Tracer,
    roots: &[&str],
    counts: &[(&'static str, f64)],
) {
    let spans = tracer.spans();
    let wall_ns: u64 = roots.iter().map(|r| root_total_ns(spans, r)).sum();
    let wall = wall_ns.max(1) as f64;
    let mut layers: std::collections::BTreeMap<String, f64> =
        PER_LAYER.iter().map(|(name, _)| (name.to_string(), 0.0)).collect();
    layers.insert("traced.step_s".to_string(), wall_ns as f64 / 1e9 / out.steps.max(1) as f64);
    let mut attributed = 0u64;
    for (span, ns) in self_times(spans, roots) {
        out.self_seconds.insert(span.to_string(), ns as f64 / 1e9);
        if let Some((_, layer)) = SPAN_LAYERS.iter().find(|(s, _)| *s == span) {
            attributed += ns;
            *layers.entry(layer.to_string()).or_insert(0.0) += ns as f64 / wall;
        }
    }
    out.check((attributed as f64 - wall).abs() <= 0.05 * wall, || {
        format!("layer self times sum to {attributed} ns of a {wall_ns} ns traced wall")
    });
    for (name, value) in counts {
        layers.insert(name.to_string(), *value);
    }
    out.layers = layers;
}
