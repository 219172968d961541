//! Lock-free observability for the anonymization engine.
//!
//! The paper's evaluation (Section VI) reports wall-clock time per
//! pipeline stage — tree construction, the `Bulk_dp` dynamic program,
//! policy extraction — and per-server load figures for the partitioned
//! runs. This crate provides the plumbing: a [`Metrics`] sink of atomic
//! counters and stage timers that worker threads update without locks,
//! and a serializable [`MetricsSnapshot`] for dashboards, the CLI's
//! `--metrics-json`, and the experiment harness.
//!
//! Design rules:
//!
//! * **Lock-free.** Every update is a single `AtomicU64` RMW with
//!   `Relaxed` ordering; snapshots are not linearizable across fields but
//!   each field is exact once all workers have quiesced (the only time
//!   snapshots are taken in practice).
//! * **Fixed registry.** [`Counter`] and [`Stage`] are closed enums, so a
//!   `Metrics` is two flat arrays — no hashing, no allocation, `const`
//!   constructible, and safely shareable by reference into scoped worker
//!   threads.
//! * **Nesting-safe timers.** [`StageTimer`] guards are independent: a
//!   `Dp` timer running inside a `TreeBuild` timer attributes its span to
//!   both stages (wall-clock inclusion, like a sampling profiler's
//!   inclusive time).
//! * **Critical-path fork-joins.** Branches that run at once record into
//!   private [`Branch`] sinks, folded back by [`Metrics::absorb_branches`]:
//!   counts add up, stage time is the slowest branch's, so a caller's
//!   span still contains the stage time recorded under it.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic event counters maintained by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Jurisdiction tasks pushed into the work-stealing injector.
    TasksInjected,
    /// Tasks executed to completion by some worker.
    TasksExecuted,
    /// Tasks obtained by stealing from another worker's deque (as opposed
    /// to the shared injector or the worker's own queue).
    TasksStolen,
    /// DP scratch arenas reused across tasks (vs freshly allocated).
    ScratchReuses,
    /// Users assigned a cloak by a bulk anonymization.
    UsersAnonymized,
    /// Per-request policy lookups served.
    RequestsServed,
    /// Cloaked-NN answers served from the CSP-side cache.
    CacheHits,
    /// Cloaked-NN answers that had to contact the LBS.
    CacheMisses,
    /// Server tasks that returned an error.
    ServerErrors,
    /// Worker panics caught and converted into errors.
    WorkerPanics,
    /// Faults deliberately injected by a `FaultPlan` (conformance soak).
    FaultsInjected,
    /// Panicked tasks re-enqueued for another attempt.
    TaskRetries,
    /// Requests rejected outright by the service runtime's degradation
    /// ladder (no rung could answer without weakening anonymity).
    RequestsShed,
    /// Requests answered from the last-committed policy instead of a
    /// fresh optimal one (degradation rung 1).
    DegradedCommitted,
    /// Requests answered with a coarser ancestor cloak of the committed
    /// policy (degradation rung 2, Lemma-5 style pass-up).
    DegradedCoarsened,
    /// Milliseconds of injected-clock time spent replaying the WAL during
    /// the most recent crash recovery.
    RecoveryReplayMs,
    /// Records appended (and synced) to the write-ahead log.
    WalAppends,
    /// Checkpoints written and atomically published.
    CheckpointsWritten,
    /// Per-shard commits published by the sharded serve path.
    ShardCommits,
    /// Commits forced early by the admission controller (a shard's staged
    /// backlog hit the limit before the pipeline drained it).
    ShardForcedCommits,
    /// Users whose movement crossed a jurisdiction boundary and was
    /// rewritten into a delete-on-source + insert-on-target pair.
    CrossShardMigrations,
    /// Individual shards recovered from their own WAL + checkpoints
    /// while the rest of the fleet kept serving.
    ShardRecoveries,
    /// Disjoint dirty subtrees refreshed as parallel tasks. A shard's
    /// refresh has been one sequential sweep since the parallel refresh
    /// was removed, so this stays 0; it is kept only because the
    /// end-to-end benchmark still reports it.
    DirtySubtrees,
    /// Child cost vectors served from the incremental maintainer's
    /// version-keyed subtree cache during a refresh.
    SubtreeCacheHits,
    /// User updates (moves/inserts/deletes) applied through batched
    /// commits — the numerator of per-move commit cost.
    BatchedMoves,
    /// Scrub passes completed (CRC re-verification of every checkpoint
    /// generation plus the WAL prefix).
    ScrubsRun,
    /// Corrupt checkpoint files the scrub pass renamed out of the
    /// recovery namespace (`*.quarantined`).
    CorruptFilesQuarantined,
    /// WAL records pruned by retention GC — always strictly older than
    /// the newest verified checkpoint.
    WalSegmentsPruned,
    /// Writes shed with a typed `StorageExhausted` after ENOSPC survived
    /// the emergency-GC rung of the degradation ladder.
    EnospcSheds,
    /// Recoveries (or loads) that skipped a corrupt newer checkpoint
    /// generation and fell back to an older clean one.
    GenerationFallbacks,
    /// Tree nodes whose cloaks a policy extraction computed: every live
    /// node in a bulk build, only the subtrees a refresh touched in an
    /// incremental commit.
    ExtractNodes,
    /// Cloaks written by policy extractions (every user in a bulk build,
    /// the users cloaked at extracted nodes in a commit).
    CloaksWritten,
    /// Committed cloak groups whose degradation rung was re-derived: the
    /// groups of the users staged since the commit, once per derivation.
    /// Untouched groups cost nothing and are not counted.
    DegradedGroupsDerived,
    /// Rows the tree-free jurisdiction partitioner's in-place passes
    /// read: each cell it scans adds its population, once.
    PartitionRows,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 34] = [
        Counter::TasksInjected,
        Counter::TasksExecuted,
        Counter::TasksStolen,
        Counter::ScratchReuses,
        Counter::UsersAnonymized,
        Counter::RequestsServed,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::ServerErrors,
        Counter::WorkerPanics,
        Counter::FaultsInjected,
        Counter::TaskRetries,
        Counter::RequestsShed,
        Counter::DegradedCommitted,
        Counter::DegradedCoarsened,
        Counter::RecoveryReplayMs,
        Counter::WalAppends,
        Counter::CheckpointsWritten,
        Counter::ShardCommits,
        Counter::ShardForcedCommits,
        Counter::CrossShardMigrations,
        Counter::ShardRecoveries,
        Counter::DirtySubtrees,
        Counter::SubtreeCacheHits,
        Counter::BatchedMoves,
        Counter::ScrubsRun,
        Counter::CorruptFilesQuarantined,
        Counter::WalSegmentsPruned,
        Counter::EnospcSheds,
        Counter::GenerationFallbacks,
        Counter::ExtractNodes,
        Counter::CloaksWritten,
        Counter::DegradedGroupsDerived,
        Counter::PartitionRows,
    ];

    /// Stable snake_case name used in [`MetricsSnapshot`] keys.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TasksInjected => "tasks_injected",
            Counter::TasksExecuted => "tasks_executed",
            Counter::TasksStolen => "tasks_stolen",
            Counter::ScratchReuses => "scratch_reuses",
            Counter::UsersAnonymized => "users_anonymized",
            Counter::RequestsServed => "requests_served",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::ServerErrors => "server_errors",
            Counter::WorkerPanics => "worker_panics",
            Counter::FaultsInjected => "faults_injected",
            Counter::TaskRetries => "task_retries",
            Counter::RequestsShed => "requests_shed",
            Counter::DegradedCommitted => "degraded_committed",
            Counter::DegradedCoarsened => "degraded_coarsened",
            Counter::RecoveryReplayMs => "recovery_replay_ms",
            Counter::WalAppends => "wal_appends",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::ShardCommits => "shard_commits",
            Counter::ShardForcedCommits => "shard_forced_commits",
            Counter::CrossShardMigrations => "cross_shard_migrations",
            Counter::ShardRecoveries => "shard_recoveries",
            Counter::DirtySubtrees => "dirty_subtrees",
            Counter::SubtreeCacheHits => "subtree_cache_hits",
            Counter::BatchedMoves => "batched_moves",
            Counter::ScrubsRun => "scrubs_run",
            Counter::CorruptFilesQuarantined => "corrupt_files_quarantined",
            Counter::WalSegmentsPruned => "wal_segments_pruned",
            Counter::EnospcSheds => "enospc_sheds",
            Counter::GenerationFallbacks => "generation_fallbacks",
            Counter::ExtractNodes => "extract_nodes",
            Counter::CloaksWritten => "cloaks_written",
            Counter::DegradedGroupsDerived => "degraded_groups_derived",
            Counter::PartitionRows => "partition_rows",
        }
    }

    /// Slot in the counter array: the declaration-order discriminant,
    /// which the registry unit test pins to the position in [`Self::ALL`].
    fn index(self) -> usize {
        self as usize
    }
}

/// Pipeline stages whose wall-clock time the engine attributes.
///
/// Under a fork-join folded by [`Metrics::absorb_branches`] (a sharded
/// pump commits its shards at once), a stage's call count sums over
/// every branch but its time is the slowest branch's: the critical path
/// the caller waited on, not the CPU time of all branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Spatial tree construction (lazy or eager materialization).
    TreeBuild,
    /// The `Bulk_dp` dynamic program over the tree.
    Dp,
    /// Top-down optimal policy extraction from the filled matrix.
    Extract,
    /// Independent policy-aware anonymity verification.
    Verify,
    /// Jurisdiction partitioning (greedy splitting + sub-DB extraction).
    Partition,
    /// Time tasks spent queued before a worker dequeued them.
    QueueWait,
    /// Merging per-server policies into the master policy.
    Merge,
    /// Per-request serving (policy lookup + cloaked-NN answering).
    Serve,
    /// Appending and syncing one churn batch to the write-ahead log.
    WalAppend,
    /// Writing and atomically publishing one checkpoint.
    Checkpoint,
    /// Replaying WAL records during crash recovery.
    Replay,
    /// Refreshing the DP matrix and committing a new policy epoch.
    Commit,
}

impl Stage {
    /// Every stage, in serialization order.
    pub const ALL: [Stage; 12] = [
        Stage::TreeBuild,
        Stage::Dp,
        Stage::Extract,
        Stage::Verify,
        Stage::Partition,
        Stage::QueueWait,
        Stage::Merge,
        Stage::Serve,
        Stage::WalAppend,
        Stage::Checkpoint,
        Stage::Replay,
        Stage::Commit,
    ];

    /// Stable snake_case name used in [`MetricsSnapshot`] keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::TreeBuild => "tree_build",
            Stage::Dp => "dp",
            Stage::Extract => "extract",
            Stage::Verify => "verify",
            Stage::Partition => "partition",
            Stage::QueueWait => "queue_wait",
            Stage::Merge => "merge",
            Stage::Serve => "serve",
            Stage::WalAppend => "wal_append",
            Stage::Checkpoint => "checkpoint",
            Stage::Replay => "replay",
            Stage::Commit => "commit",
        }
    }

    /// Slot in the stage arrays: the declaration-order discriminant,
    /// which the registry unit test pins to the position in [`Self::ALL`].
    fn index(self) -> usize {
        self as usize
    }
}

const N_COUNTERS: usize = Counter::ALL.len();
const N_STAGES: usize = Stage::ALL.len();

/// Shared, lock-free metrics sink. Cheap enough to pass by reference into
/// every worker thread; all methods take `&self`.
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; N_COUNTERS],
    stage_nanos: [AtomicU64; N_STAGES],
    stage_calls: [AtomicU64; N_STAGES],
}

// Hand-written: std derives `Default` only for arrays of up to 32.
impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A zeroed metrics sink.
    pub const fn new() -> Self {
        Metrics {
            counters: [const { AtomicU64::new(0) }; N_COUNTERS],
            stage_nanos: [const { AtomicU64::new(0) }; N_STAGES],
            stage_calls: [const { AtomicU64::new(0) }; N_STAGES],
        }
    }

    /// Adds 1 to `counter`, returning the post-increment value.
    pub fn incr(&self, counter: Counter) -> u64 {
        self.add(counter, 1)
    }

    /// Adds `n` to `counter`, returning the post-add value.
    // lbs-lint: allow-item(panic-reachability, reason = "counters is sized to Counter::ALL.len() and index() returns a position inside ALL, so the array access is in bounds by construction")
    pub fn add(&self, counter: Counter, n: u64) -> u64 {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed) + n
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Records one completed span of `stage`.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.stage_nanos[stage.index()].fetch_add(nanos, Ordering::Relaxed);
        self.stage_calls[stage.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded time of `stage`.
    pub fn stage_total(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.stage_nanos[stage.index()].load(Ordering::Relaxed))
    }

    /// Number of completed spans of `stage`.
    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.stage_calls[stage.index()].load(Ordering::Relaxed)
    }

    /// Starts an RAII timer; the span is recorded when the guard drops.
    /// Guards for different stages nest freely (inclusive attribution).
    #[must_use = "the span is recorded when the returned guard drops"]
    pub fn start(&self, stage: Stage) -> StageTimer<'_> {
        StageTimer { metrics: self, stage, started: Instant::now() }
    }

    /// Times a closure as one span of `stage`.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let _guard = self.start(stage);
        f()
    }

    /// Resets every counter and stage accumulator to zero.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for (n, k) in self.stage_nanos.iter().zip(&self.stage_calls) {
            n.store(0, Ordering::Relaxed);
            k.store(0, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of all counters and stage accumulators.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL.iter().map(|&c| (c.name().to_owned(), self.get(c))).collect(),
            stages: Stage::ALL
                .iter()
                .map(|&s| {
                    (
                        s.name().to_owned(),
                        StageSnapshot {
                            calls: self.stage_calls(s),
                            total_nanos: self.stage_nanos[s.index()].load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Folds a snapshot back into this sink (used to aggregate per-run
    /// snapshots into an experiment-wide total). Unknown keys are ignored.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        for &c in &Counter::ALL {
            if let Some(v) = snapshot.counters.get(c.name()) {
                self.add(c, *v);
            }
        }
        for &s in &Stage::ALL {
            if let Some(v) = snapshot.stages.get(s.name()) {
                self.stage_nanos[s.index()].fetch_add(v.total_nanos, Ordering::Relaxed);
                self.stage_calls[s.index()].fetch_add(v.calls, Ordering::Relaxed);
            }
        }
    }

    /// Folds the sinks of a fork-join's branches into this sink. Counters
    /// and stage call counts add up over every branch. Stage *durations*
    /// come from the slowest branch only: the branches ran at once, so
    /// the caller waited for the slowest, and a sum would lay more stage
    /// time under the caller's span than the span itself lasted.
    pub fn absorb_branches(&self, branches: &[Branch]) {
        for branch in branches {
            for (total, part) in self.counters.iter().zip(&branch.sink.counters) {
                total.fetch_add(part.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            for (total, part) in self.stage_calls.iter().zip(&branch.sink.stage_calls) {
                total.fetch_add(part.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        if let Some(slowest) = branches.iter().max_by_key(|b| b.wall) {
            for (total, part) in self.stage_nanos.iter().zip(&slowest.sink.stage_nanos) {
                total.fetch_add(part.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }
}

/// One branch of a fork-join: a private sink the branch's code records
/// into, and the branch's wall time, for [`Metrics::absorb_branches`].
#[derive(Debug)]
pub struct Branch {
    sink: Arc<Metrics>,
    started: Instant,
    wall: Duration,
}

impl Branch {
    /// A zeroed sink; the branch's wall clock starts now.
    pub fn start() -> Self {
        Branch { sink: Arc::new(Metrics::new()), started: Instant::now(), wall: Duration::ZERO }
    }

    /// The sink to hand to the code the branch runs.
    pub fn sink(&self) -> &Arc<Metrics> {
        &self.sink
    }

    /// Stops the branch's wall clock.
    pub fn stop(&mut self) {
        self.wall = self.started.elapsed();
    }
}

/// Median and 95th-percentile of a set of nanosecond samples: the
/// per-cell summary of the `experiments` binary's repeated runs.
///
/// Conventions (pinned so tables are comparable across versions):
/// the median of an even-length set is the *upper* middle element (no
/// averaging — the result is always one of the samples), and p95 is the
/// nearest-rank percentile `⌈0.95·n⌉` (1-based), again always a sample.
/// Returns `(0, 0)` for an empty slice.
pub fn median_p95_ns(samples: &[u64]) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    let p95 = sorted[(sorted.len() * 95).div_ceil(100) - 1];
    (median, p95)
}

/// RAII timer returned by [`Metrics::start`].
#[derive(Debug)]
pub struct StageTimer<'a> {
    metrics: &'a Metrics,
    stage: Stage,
    started: Instant,
}

impl StageTimer<'_> {
    /// Elapsed time so far (the span keeps running until drop).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        self.metrics.record(self.stage, self.started.elapsed());
    }
}

/// Accumulated timing of one stage inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Completed spans.
    pub calls: u64,
    /// Total recorded nanoseconds across all spans.
    pub total_nanos: u64,
}

impl StageSnapshot {
    /// Total recorded time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_nanos)
    }

    /// Mean span duration (zero when no spans were recorded).
    pub fn mean(&self) -> Duration {
        self.total_nanos.checked_div(self.calls).map_or(Duration::ZERO, Duration::from_nanos)
    }
}

/// Serializable point-in-time view of a [`Metrics`] sink.
///
/// The JSON schema is two string-keyed maps:
///
/// ```json
/// {
///   "counters": { "tasks_executed": 8, "tasks_stolen": 3, ... },
///   "stages": { "dp": { "calls": 8, "total_nanos": 12345678 }, ... }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values keyed by [`Counter::name`].
    pub counters: BTreeMap<String, u64>,
    /// Stage accumulators keyed by [`Stage::name`].
    pub stages: BTreeMap<String, StageSnapshot>,
}

impl MetricsSnapshot {
    /// Value of `counter` (zero when absent).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter.name()).copied().unwrap_or(0)
    }

    /// Accumulated timing of `stage` (zeroed when absent).
    pub fn stage(&self, stage: Stage) -> StageSnapshot {
        self.stages.get(stage.name()).copied().unwrap_or(StageSnapshot { calls: 0, total_nanos: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::new();
        assert_eq!(m.incr(Counter::TasksExecuted), 1);
        assert_eq!(m.add(Counter::TasksExecuted, 4), 5);
        assert_eq!(m.get(Counter::TasksExecuted), 5);
        assert_eq!(m.get(Counter::TasksStolen), 0);
        m.reset();
        assert_eq!(m.get(Counter::TasksExecuted), 0);
    }

    #[test]
    fn registry_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Stage::ALL.iter().map(|s| s.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        // `index` is the discriminant, so ALL must list every variant in
        // declaration order: position i holds discriminant i.
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn timers_nest_with_inclusive_attribution() {
        let m = Metrics::new();
        {
            let _outer = m.start(Stage::TreeBuild);
            {
                let _inner = m.start(Stage::Dp);
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.stage_calls(Stage::TreeBuild), 1);
        assert_eq!(m.stage_calls(Stage::Dp), 1);
        // Outer span includes the inner one.
        assert!(m.stage_total(Stage::TreeBuild) >= m.stage_total(Stage::Dp));
        assert!(m.stage_total(Stage::Dp) >= Duration::from_millis(2));
    }

    #[test]
    fn time_closure_returns_value() {
        let m = Metrics::new();
        let v = m.time(Stage::Verify, || 7 * 6);
        assert_eq!(v, 42);
        assert_eq!(m.stage_calls(Stage::Verify), 1);
    }

    #[test]
    fn snapshot_reflects_state_and_absorb_adds() {
        let m = Metrics::new();
        m.add(Counter::UsersAnonymized, 100);
        m.record(Stage::Dp, Duration::from_nanos(500));
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::UsersAnonymized), 100);
        assert_eq!(snap.stage(Stage::Dp).calls, 1);
        assert_eq!(snap.stage(Stage::Dp).total_nanos, 500);
        assert_eq!(snap.stage(Stage::Dp).mean(), Duration::from_nanos(500));
        assert_eq!(snap.stage(Stage::Serve).calls, 0);

        let other = Metrics::new();
        other.absorb(&snap);
        other.absorb(&snap);
        assert_eq!(other.get(Counter::UsersAnonymized), 200);
        assert_eq!(other.stage_calls(Stage::Dp), 2);
        assert_eq!(other.stage_total(Stage::Dp), Duration::from_nanos(1000));
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        m.incr(Counter::RequestsServed);
                    }
                    m.record(Stage::Serve, Duration::from_nanos(10));
                });
            }
        });
        assert_eq!(m.get(Counter::RequestsServed), 40_000);
        assert_eq!(m.stage_calls(Stage::Serve), 4);
        assert_eq!(m.stage_total(Stage::Serve), Duration::from_nanos(40));
    }

    #[test]
    fn branches_add_counts_and_keep_the_slowest_branchs_time() {
        let total = Metrics::new();
        total.record(Stage::Commit, Duration::from_nanos(7));
        let mut fast = Branch::start();
        fast.sink().incr(Counter::ShardCommits);
        fast.sink().record(Stage::Commit, Duration::from_nanos(900));
        fast.stop();
        let mut slow = Branch::start();
        slow.sink().incr(Counter::ShardCommits);
        slow.sink().record(Stage::Commit, Duration::from_nanos(500));
        slow.sink().record(Stage::WalAppend, Duration::from_nanos(40));
        std::thread::sleep(Duration::from_millis(2));
        slow.stop();
        total.absorb_branches(&[fast, slow]);
        assert_eq!(total.get(Counter::ShardCommits), 2);
        assert_eq!(total.stage_calls(Stage::Commit), 3);
        assert_eq!(total.stage_calls(Stage::WalAppend), 1);
        // Durations are the slowest branch's by wall time, not the one
        // with the most recorded stage time.
        assert_eq!(total.stage_total(Stage::Commit), Duration::from_nanos(507));
        assert_eq!(total.stage_total(Stage::WalAppend), Duration::from_nanos(40));
        total.absorb_branches(&[]);
        assert_eq!(total.stage_calls(Stage::Commit), 3);
    }

    #[test]
    fn median_and_p95_use_pinned_rank_conventions() {
        assert_eq!(median_p95_ns(&[]), (0, 0));
        assert_eq!(median_p95_ns(&[7]), (7, 7));
        // Even length: upper middle, not an average.
        assert_eq!(median_p95_ns(&[1, 3]), (3, 3));
        assert_eq!(median_p95_ns(&[4, 1, 3, 2]), (3, 4));
        // 20 samples: median = 11th smallest, p95 = 19th smallest.
        let samples: Vec<u64> = (1..=20).rev().collect();
        assert_eq!(median_p95_ns(&samples), (11, 19));
        // 100 samples: p95 = 95th smallest.
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(median_p95_ns(&samples), (51, 95));
    }

    #[test]
    fn snapshot_serde_json_round_trip() {
        let m = Metrics::new();
        m.add(Counter::TasksExecuted, 8);
        m.add(Counter::TasksStolen, 3);
        m.record(Stage::Dp, Duration::from_micros(1234));
        m.record(Stage::Dp, Duration::from_micros(766));
        let snap = m.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        assert!(json.contains("\"tasks_executed\": 8"), "{json}");
        assert!(json.contains("\"dp\""), "{json}");
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.stage(Stage::Dp).calls, 2);
        assert_eq!(back.stage(Stage::Dp).total(), Duration::from_micros(2000));
    }
}
