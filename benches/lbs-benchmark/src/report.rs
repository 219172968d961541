//! Metric names, per-pass results, and the host record.

use crate::stats::{supported_percentiles, Summary};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// End-to-end metrics every workload reports, with units. `BENCHMARK.json`
/// lists the same names with their regression bounds.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_p50_ms", "ms"),
    ("items_per_s", "1/s"),
    ("serve_p50_us", "us"),
];

/// Per-layer metrics of the traced pass. Layer self times are shares of
/// the traced step's wall time `traced.step_s` (they sum to 1); counts
/// are per step or per epoch. A layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("traced.step_s", "s"),
    ("unattributed.share", "ratio"),
    ("serve.self_share", "ratio"),
    ("tree.share", "ratio"),
    ("dp.share", "ratio"),
    ("extract.share", "ratio"),
    ("bulk.residue_share", "ratio"),
    ("partition.share", "ratio"),
    ("engine.pool_share", "ratio"),
    ("merge.share", "ratio"),
    ("engine.residue_share", "ratio"),
    ("pump.self_share", "ratio"),
    ("commit.share", "ratio"),
    ("wal.append_share", "ratio"),
    ("checkpoint.share", "ratio"),
    ("scrub.share", "ratio"),
    ("tree.nodes", "count"),
    ("dp.rows", "count"),
    ("dp.cells", "count"),
    ("engine.tasks", "count"),
    ("engine.tasks_stolen", "count"),
    ("engine.serial_frac", "ratio"),
    ("engine.worker_util", "ratio"),
    ("engine.queue_wait_frac", "ratio"),
    ("engine.speedup", "ratio"),
    ("commit.calls", "count"),
    ("commit.published", "count"),
    ("commit.useful_frac", "ratio"),
    ("commit.dirty_subtrees", "count"),
    ("commit.cache_hits", "count"),
    ("commit.moves", "count"),
    ("wal.appends", "count"),
    ("wal.bytes", "bytes"),
    ("wal.fsyncs", "count"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "bytes"),
    ("gc.read_bytes", "bytes"),
    ("scrub.read_bytes", "bytes"),
    ("recover.replayed", "count"),
    ("recover.read_bytes", "bytes"),
    ("storage.writes", "count"),
    ("storage.write_bytes", "bytes"),
    ("storage.syncs", "count"),
    ("storage.sync_share", "ratio"),
    ("storage.reads", "count"),
    ("storage.read_bytes", "bytes"),
    ("storage.renames", "count"),
    ("storage.removes", "count"),
    ("storage.disk_mb", "MB"),
    ("migrations", "count"),
    ("serve.requests", "count"),
    ("serve.rung_fresh", "count"),
    ("serve.rung_committed", "count"),
    ("serve.rung_coarsened", "count"),
    ("serve.rung_shed", "count"),
];

/// Which per-layer share each span name's self time feeds. Span names
/// are unique across workloads, so one table serves all of them.
pub const SPAN_LAYERS: [(&str, &str); 16] = [
    ("step", "unattributed.share"),
    ("epoch", "unattributed.share"),
    ("serve", "serve.self_share"),
    ("build", "bulk.residue_share"),
    ("stage.tree_build", "tree.share"),
    ("stage.dp", "dp.share"),
    ("stage.extract", "extract.share"),
    ("engine", "engine.residue_share"),
    ("stage.partition", "partition.share"),
    ("engine.pool", "engine.pool_share"),
    ("stage.merge", "merge.share"),
    ("pump", "pump.self_share"),
    ("stage.commit", "commit.share"),
    ("stage.wal_append", "wal.append_share"),
    ("stage.checkpoint", "checkpoint.share"),
    ("scrub", "scrub.share"),
];

/// Everything one pass (one child process running one workload, traced
/// or not) measured and checked.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PassResult {
    /// Workload name.
    pub workload: String,
    /// Whether spans and counters were recorded.
    pub traced: bool,
    /// Timed steps (anonymizations or epochs) the loop ran.
    pub steps: u64,
    /// Operations attempted: steps, requests, recoveries.
    pub attempted: u64,
    /// Errors, shed requests, and failed output checks.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics, plus workload-specific extras (recovery
    /// latency, disk use, tail percentiles) that only some workloads have.
    pub metrics: BTreeMap<String, Summary>,
    /// Per-layer metrics (traced passes only).
    pub layers: BTreeMap<String, f64>,
    /// Self time in seconds per span name (traced passes only).
    pub self_seconds: BTreeMap<String, f64>,
}

/// At most this many failure messages are kept per pass.
const MAX_FAILURE_MESSAGES: usize = 20;

impl PassResult {
    /// An empty result for `workload`.
    pub fn new(workload: &str, traced: bool) -> Self {
        PassResult { workload: workload.to_string(), traced, ..PassResult::default() }
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(message());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(message);
        }
    }

    /// Stores one metric.
    pub fn put(&mut self, name: &str, summary: Summary) {
        self.metrics.insert(name.to_string(), summary);
    }

    /// Stores `<stem>_p<P>_<unit>` for every tail percentile that has at
    /// least ten of `samples` beyond it.
    pub fn put_tails(&mut self, stem: &str, samples: &[f64], scale: f64, unit: &str) {
        for p in supported_percentiles(samples.len()) {
            self.put(
                &format!("{stem}_p{p}_{unit}"),
                Summary::at_quantile(samples, p / 100.0, scale, unit),
            );
        }
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Where and from what a result was produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// Git revision of the checkout, or `unknown` outside a repository.
    pub git_rev: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The `target-cpu` codegen flag the benchmark was built with.
    pub target_cpu: String,
}

impl Host {
    /// Describes the current host and build.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            git_rev: lbs_bench::suite::git_rev(std::path::Path::new(".")),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            target_cpu: env!("LBS_BENCH_TARGET_CPU").to_string(),
        }
    }
}

/// One metric in the result line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The benchmark's last output line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultLine {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// The full record written to `target/benchmark/result-<workload>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed loop in seconds.
    pub seconds: u64,
    /// Host and build.
    pub host: Host,
    /// The untraced pass: the source of every end-to-end number.
    pub untraced: PassResult,
    /// The traced pass, when requested.
    pub traced: Option<PassResult>,
    /// Tracing overhead per end-to-end metric: (traced − untraced) /
    /// untraced.
    pub trace_overhead: BTreeMap<String, f64>,
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
