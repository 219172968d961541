//! The work-stealing pool behind the crate's concurrent jurisdiction runs.
//!
//! [`anonymize_work_stealing`] (Section V) anonymizes one shared-nothing
//! jurisdiction per task. A fixed set of worker threads pulls indexed
//! payloads from a shared [`crossbeam::deque::Injector`]. Each worker
//! owns a LIFO deque plus a reusable [`DpScratch`] arena, and steals from
//! siblings when both its deque and the injector run dry — the classic
//! work-stealing discipline.
//!
//! Properties the tests pin down:
//!
//! * **Determinism** — results carry their payload index and come back
//!   sorted by it, so the produced [`BulkPolicy`] is *bit-identical* to
//!   the sequential run for any worker count and any steal interleaving.
//! * **Skew tolerance** — jurisdiction runs always inject the largest
//!   population first (LPT scheduling), so one giant jurisdiction cannot
//!   strand the pool: it starts first while the small tasks back-fill the
//!   other workers.
//! * **Partial progress** — every task runs under `catch_unwind`. A panic
//!   replaces the worker's arena and surfaces as
//!   [`CoreError::WorkerPanic`] (after up to
//!   [`EngineConfig::max_task_retries`] re-injections); siblings still
//!   complete, and their results are returned next to the first error.
//!
//! The [`Metrics`] sink (optional everywhere) counts injections,
//! executions, steals, scratch reuses, panics, retries, and per-task
//! queue-wait time.

use crate::partition::join;
use crate::{partition_users, ParallelOutcome, ServerReport};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use crossbeam::utils::Backoff;
use lbs_core::{Anonymizer, CoreError, DpScratch};
use lbs_geom::{Point, Rect};
use lbs_metrics::{Counter, Metrics, Stage};
use lbs_model::{BulkPolicy, LocationDb, UserId};
use lbs_tree::{TreeConfig, TreeKind};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the work-stealing pool.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads. `0` means "ask the OS" (`available_parallelism`),
    /// and the pool never spawns more workers than there are tasks.
    pub workers: usize,
    /// How many times a *panicked* task is re-enqueued before the panic is
    /// surfaced as [`CoreError::WorkerPanic`]. `0` (the default) fails
    /// fast. Conformance soak tests pair this with a [`FaultPlan`] whose
    /// injected panics stop firing after a set number of attempts, proving
    /// recovery produces bit-identical output.
    pub max_task_retries: u32,
}

impl EngineConfig {
    /// The number of worker threads the pool will actually spawn for
    /// `tasks` queued tasks: the configured count (or the OS parallelism
    /// for `0`), clamped to `1..=tasks`.
    pub fn effective_workers(&self, tasks: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.workers
        };
        requested.clamp(1, tasks.max(1))
    }
}

/// One server's work: anonymize the users of one jurisdiction.
#[derive(Debug)]
pub(crate) struct JurisdictionTask {
    /// The server's jurisdiction rectangle.
    jurisdiction: Rect,
    /// The whole partitioned population, shared by every task of a run
    /// and ordered so that each jurisdiction's users are contiguous. An
    /// `Arc<Vec>` rather than an `Arc<[_]>`: wrapping the partitioned
    /// `Vec` moves it, where converting it to a slice would copy it.
    population: Arc<Vec<(UserId, Point)>>,
    /// This jurisdiction's range of `population`.
    range: Range<usize>,
}

impl JurisdictionTask {
    /// The users inside the jurisdiction (empty for an out-of-bounds
    /// range).
    fn users(&self) -> &[(UserId, Point)] {
        self.population.get(self.range.clone()).unwrap_or_default()
    }
}

/// Deterministic fault-injection plan for the work-stealing pool.
///
/// Used by the conformance soak harness to prove two properties the
/// paper's production framing depends on: (a) *recovery determinism* —
/// with retries enabled, a run whose tasks panic on their first attempts
/// still produces output **bit-identical** to an undisturbed sequential
/// run, because results are merged by partition index; and (b) *failure
/// surfacing* — without retries, injected panics surface as
/// [`CoreError::WorkerPanic`] while sibling tasks still complete.
///
/// All knobs are keyed on the *task index* (stable across schedules), so
/// plans are reproducible regardless of which worker picks a task up.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// task index → number of leading attempts that panic before the
    /// server is actually called. `panics[&i] == n` means attempts
    /// `0..n` of task `i` blow up, attempt `n` runs normally.
    panics: HashMap<usize, u32>,
    /// task index → artificial stall before executing the task. Forces
    /// steal/starvation interleavings: a stalled worker's siblings must
    /// drain the injector and steal from its deque.
    stalls: HashMap<usize, Duration>,
    /// worker id → sleep before the worker's first pop. Starving a worker
    /// at startup forces the batch it would have claimed onto its
    /// siblings.
    worker_delays: HashMap<usize, Duration>,
    /// WAL sequence number → injected stall while the service runtime
    /// replays that record during crash recovery. Exercises
    /// deadline/progress accounting on the recovery path with the same
    /// deterministic machinery as the engine faults.
    replay_stalls: HashMap<u64, Duration>,
    /// checkpoint sequence number → number of leading attempts at writing
    /// that checkpoint which crash mid-write (leaving a torn temp file
    /// behind), before an attempt is allowed to complete.
    checkpoint_crashes: HashMap<u64, u32>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic on the first `attempts` attempts of task `index`.
    pub fn panic_on(mut self, index: usize, attempts: u32) -> Self {
        self.panics.insert(index, attempts);
        self
    }

    /// Stall for `delay` before executing task `index`.
    pub fn stall_on(mut self, index: usize, delay: Duration) -> Self {
        self.stalls.insert(index, delay);
        self
    }

    /// Delay worker `worker`'s first pop by `delay` (startup starvation).
    pub fn delay_worker(mut self, worker: usize, delay: Duration) -> Self {
        self.worker_delays.insert(worker, delay);
        self
    }

    /// A seeded pseudo-random plan over `tasks` task indices: roughly one
    /// in three tasks panics once, one in four stalls briefly. Splitmix64
    /// keeps the plan a pure function of `seed`, so soak failures replay.
    pub fn seeded(seed: u64, tasks: usize) -> Self {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut state = seed;
        let mut plan = FaultPlan::new();
        for index in 0..tasks {
            let roll = splitmix(&mut state);
            if roll.is_multiple_of(3) {
                plan.panics.insert(index, 1 + (roll >> 8) as u32 % 2);
            }
            if roll % 4 == 1 {
                plan.stalls.insert(index, Duration::from_micros(50 + (roll >> 16) % 450));
            }
        }
        plan
    }

    /// The largest panic-attempt count in the plan — the minimum
    /// [`EngineConfig::max_task_retries`] for every task to eventually
    /// succeed.
    pub fn max_panic_attempts(&self) -> u32 {
        self.panics.values().copied().max().unwrap_or(0)
    }

    /// Total number of panics this plan will inject (given enough
    /// retries for every task to run to completion).
    pub fn total_injected_panics(&self) -> u64 {
        self.panics.values().map(|&n| u64::from(n)).sum()
    }

    /// Does attempt `attempt` of task `index` panic under this plan?
    pub fn should_panic(&self, index: usize, attempt: u32) -> bool {
        self.panics.get(&index).is_some_and(|&n| attempt < n)
    }

    /// Stall for `delay` while replaying WAL record `seq` during recovery.
    pub fn stall_during_replay(mut self, seq: u64, delay: Duration) -> Self {
        self.replay_stalls.insert(seq, delay);
        self
    }

    /// Crash the first `attempts` attempts at writing checkpoint `seq`
    /// mid-write (a torn temp file is left on disk; no rename happens).
    pub fn crash_mid_checkpoint(mut self, seq: u64, attempts: u32) -> Self {
        self.checkpoint_crashes.insert(seq, attempts);
        self
    }

    /// Injected stall for replaying WAL record `seq`, if any.
    pub fn replay_stall(&self, seq: u64) -> Option<Duration> {
        self.replay_stalls.get(&seq).copied()
    }

    /// Does attempt `attempt` at writing checkpoint `seq` crash mid-write?
    pub fn should_crash_checkpoint(&self, seq: u64, attempt: u32) -> bool {
        self.checkpoint_crashes.get(&seq).is_some_and(|&n| attempt < n)
    }

    fn stall_for(&self, index: usize) -> Option<Duration> {
        self.stalls.get(&index).copied()
    }

    fn worker_delay(&self, worker: usize) -> Option<Duration> {
        self.worker_delays.get(&worker).copied()
    }
}

/// Per-task result: the server report plus the server's policy.
pub(crate) type TaskResult = (ServerReport, BulkPolicy);

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One indexed payload queued on the pool.
struct Payload<T> {
    index: usize,
    /// Execution attempt, starting at 0; bumped on each re-injection of a
    /// panicked payload under [`EngineConfig::max_task_retries`].
    attempt: u32,
    /// When the payload entered the injector (queue-wait metric baseline).
    injected_at: Instant,
    body: T,
}

/// Pops the next payload: own deque first (hot, LIFO), then a batch from
/// the injector, then a steal sweep over the sibling deques. `None` once
/// every queue is observed empty — tasks never spawn subtasks, so empty
/// everywhere means the pool is done.
fn find_task<T>(
    me: usize,
    local: &Worker<T>,
    injector: &Injector<T>,
    stealers: &[Stealer<T>],
    metrics: Option<&Metrics>,
) -> Option<T> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    let mut backoff = Backoff::new();
    loop {
        let mut saw_retry = false;
        match injector.steal_batch_and_pop(local) {
            Steal::Success(task) => return Some(task),
            Steal::Retry => saw_retry = true,
            Steal::Empty => {}
        }
        for (victim, stealer) in stealers.iter().enumerate() {
            if victim == me {
                continue;
            }
            match stealer.steal() {
                Steal::Success(task) => {
                    if let Some(m) = metrics {
                        m.incr(Counter::TasksStolen);
                    }
                    return Some(task);
                }
                Steal::Retry => saw_retry = true,
                Steal::Empty => {}
            }
        }
        if !saw_retry {
            return None;
        }
        backoff.snooze();
    }
}

/// What a [`run_pool`] run produced: every completed `(index, result)`
/// pair sorted by index, plus the first error observed — partial progress
/// survives an error.
pub(crate) type PartialResults<R> = (Vec<(usize, R)>, Option<CoreError>);

/// Runs indexed `payloads`, injected in the given order, on a
/// work-stealing pool of [`EngineConfig::effective_workers`] threads.
/// `server` gets each payload with its worker's reusable [`DpScratch`]
/// arena.
///
/// Every call runs under `catch_unwind`. A panic — real, or injected by
/// `faults` before `server` is called (counted under
/// [`Counter::FaultsInjected`]) — is counted under
/// [`Counter::WorkerPanics`] and replaces the worker's arena, which may be
/// mid-mutation. The payload is re-injected up to
/// [`EngineConfig::max_task_retries`] times ([`Counter::TaskRetries`]);
/// after that the panic becomes a [`CoreError::WorkerPanic`]. `faults`
/// stalls and worker delays reshape the schedule without touching results.
///
/// An error never discards sibling results: the return value is every
/// completed `(index, result)` pair **sorted by index**, plus the first
/// error observed (by completion order). [`CoreError::Cancelled`] is
/// routine (a deadline firing) and is not counted under
/// [`Counter::ServerErrors`].
pub(crate) fn run_pool<T, R, F>(
    payloads: Vec<(usize, T)>,
    config: &EngineConfig,
    faults: Option<&FaultPlan>,
    metrics: Option<&Metrics>,
    server: F,
) -> PartialResults<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut DpScratch, &T) -> Result<R, CoreError> + Sync,
{
    let task_count = payloads.len();
    let workers = config.effective_workers(task_count);
    let injector = Injector::new();
    for (index, body) in payloads {
        // lbs-lint: allow(no-wall-clock-in-dp, reason = "injection timestamp feeds queue-wait metrics only; never read by the DP")
        injector.push(Payload { index, attempt: 0, injected_at: Instant::now(), body });
    }
    if let Some(m) = metrics {
        m.add(Counter::TasksInjected, task_count as u64);
    }

    let locals: Vec<Worker<Payload<T>>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<Payload<T>>> = locals.iter().map(Worker::stealer).collect();
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(task_count));
    let first_error: Mutex<Option<CoreError>> = Mutex::new(None);

    let scoped = crossbeam::scope(|scope| {
        for (me, local) in locals.iter().enumerate() {
            let injector = &injector;
            let stealers = &stealers[..];
            let results = &results;
            let first_error = &first_error;
            let server = &server;
            scope.spawn(move |_| {
                if let Some(delay) = faults.and_then(|f| f.worker_delay(me)) {
                    // Startup starvation: siblings must claim this
                    // worker's share of the injector.
                    std::thread::sleep(delay);
                }
                let mut scratch = DpScratch::new();
                // Whether `scratch` has already served a task of this run.
                let mut served = false;
                while let Some(mut task) = find_task(me, local, injector, stealers, metrics) {
                    if let Some(m) = metrics {
                        m.record(Stage::QueueWait, task.injected_at.elapsed());
                        m.incr(Counter::TasksExecuted);
                        if served {
                            m.incr(Counter::ScratchReuses);
                        }
                    }
                    if let Some(stall) = faults.and_then(|f| f.stall_for(task.index)) {
                        std::thread::sleep(stall);
                    }
                    let outcome =
                        if faults.is_some_and(|f| f.should_panic(task.index, task.attempt)) {
                            if let Some(m) = metrics {
                                m.incr(Counter::FaultsInjected);
                            }
                            Err(Box::new(format!(
                                "fault-injected panic: task={} attempt={}",
                                task.index, task.attempt
                            )) as Box<dyn std::any::Any + Send>)
                        } else {
                            catch_unwind(AssertUnwindSafe(|| server(&mut scratch, &task.body)))
                        };
                    served = true;
                    match outcome {
                        Ok(Ok(result)) => results.lock().push((task.index, result)),
                        Ok(Err(e)) => {
                            if let Some(m) = metrics {
                                if !matches!(e, CoreError::Cancelled) {
                                    m.incr(Counter::ServerErrors);
                                }
                            }
                            first_error.lock().get_or_insert(e);
                        }
                        Err(payload) => {
                            if let Some(m) = metrics {
                                m.incr(Counter::WorkerPanics);
                            }
                            // The arena may hold a half-written row; discard it.
                            scratch = DpScratch::new();
                            served = false;
                            if task.attempt < config.max_task_retries {
                                // Recovery path: index-ordered results keep
                                // the output bit-identical no matter which
                                // worker (or how late) the retry lands on.
                                if let Some(m) = metrics {
                                    m.incr(Counter::TaskRetries);
                                }
                                task.attempt += 1;
                                // lbs-lint: allow(no-wall-clock-in-dp, reason = "re-injection timestamp feeds queue-wait metrics only; retry results are bit-identical")
                                task.injected_at = Instant::now();
                                injector.push(task);
                            } else {
                                first_error
                                    .lock()
                                    .get_or_insert(CoreError::WorkerPanic(panic_message(payload)));
                            }
                        }
                    }
                }
            });
        }
    });
    let mut first_error = first_error.into_inner();
    if let Err(payload) = scoped {
        first_error.get_or_insert(CoreError::WorkerPanic(panic_message(payload)));
    }
    let mut gathered = results.into_inner();
    gathered.sort_by_key(|(index, _)| *index);
    (gathered, first_error)
}

/// `db`'s rows, copied by halves at once. The copy costs its page faults
/// more than its bytes: a zeroed buffer of plain integers is mapped
/// lazily, so each half faults on the thread that fills it (zeroing
/// `(UserId, Point)` rows would touch every page on the caller first).
/// The buffer is then retyped in place.
fn copy_rows(db: &LocationDb, workers: usize) -> Vec<(UserId, Point)> {
    let mut raw = vec![[0u64; 3]; db.len()];
    let (head, tail) = raw.split_at_mut(db.len() / 2);
    let fill = |to: &mut [[u64; 3]], skip| {
        for (slot, (user, p)) in to.iter_mut().zip(db.iter().skip(skip)) {
            *slot = [user.0, p.x as u64, p.y as u64];
        }
    };
    join(workers, || fill(head, 0), || fill(tail, db.len() / 2));
    raw.into_iter().map(|[user, x, y]| (UserId(user), Point::new(x as i64, y as i64))).collect()
}

/// `Stage::Partition`: one copy of `db`'s users, reordered by
/// [`partition_users`] on up to `workers` threads so each jurisdiction is
/// a contiguous range, and one task per jurisdiction over that shared
/// copy, in partition order.
pub(crate) fn partition_tasks(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
    workers: usize,
    metrics: Option<&Metrics>,
) -> Result<Vec<JurisdictionTask>, CoreError> {
    let mut users = copy_rows(db, workers);
    let jurisdictions =
        partition_users(&mut users, map, k, servers, workers, metrics).map_err(CoreError::Tree)?;
    let population = Arc::new(users);
    Ok(jurisdictions
        .into_iter()
        .map(|j| JurisdictionTask {
            jurisdiction: j.rect,
            population: Arc::clone(&population),
            range: j.users,
        })
        .collect())
}

/// One server: the optimal policy of `task`'s jurisdiction over its own
/// lazy binary tree, with its report — the policy's cost (0 for an empty
/// jurisdiction) and the server's wall time.
pub(crate) fn anonymize_task(
    task: &JurisdictionTask,
    k: usize,
    scratch: Option<&mut DpScratch>,
    metrics: Option<&Metrics>,
) -> Result<TaskResult, CoreError> {
    // lbs-lint: allow(no-wall-clock-in-dp, reason = "per-server wall time is reported in ServerReport timings only; policies are input-deterministic")
    let started = Instant::now();
    let users = task.users();
    let (policy, cost) = if users.is_empty() {
        (BulkPolicy::new("empty"), 0)
    } else {
        let config = TreeConfig::lazy(TreeKind::Binary, task.jurisdiction, k);
        let engine = Anonymizer::from_items(users.iter().copied(), config, k, scratch, metrics)?;
        let cost = engine.cost();
        (engine.into_policy(), cost)
    };
    let report = ServerReport {
        jurisdiction: task.jurisdiction,
        users: users.len(),
        cost,
        elapsed: started.elapsed(),
    };
    Ok((report, policy))
}

/// `Stage::Merge`: the master policy as one
/// [`BulkPolicy::merge_in_ranges`] of the per-task policies, its sort cut
/// into one user-id range per worker, plus Σ cost and the reports in
/// partition order.
pub(crate) fn merge_results(
    k: usize,
    results: Vec<TaskResult>,
    partition_time: Duration,
    server_wall_time: Duration,
    workers: usize,
) -> ParallelOutcome {
    let name = format!("parallel(k={k},servers={})", results.len());
    let (servers, parts): (Vec<ServerReport>, Vec<BulkPolicy>) = results.into_iter().unzip();
    let total_cost = servers.iter().map(|s| s.cost).sum();
    let policy = BulkPolicy::merge_in_ranges(name, &parts, workers);
    ParallelOutcome { policy, total_cost, servers, partition_time, server_wall_time, workers }
}

/// Partitioned bulk anonymization on the work-stealing pool: the
/// concurrent counterpart of
/// [`anonymize_partitioned`](crate::anonymize_partitioned), producing a
/// **bit-identical** [`ParallelOutcome::policy`] and `total_cost` for any
/// worker count.
///
/// All three stages run on up to [`EngineConfig::workers`] threads: the
/// partition scans two cells at once, the pool runs the jurisdictions,
/// and the merge sorts one user-id range per worker.
///
/// Stages recorded when `metrics` is given: [`Stage::Partition`] (the
/// tree-free greedy partition of one copy of the users, its scanned rows
/// counted under [`Counter::PartitionRows`]), per-server
/// [`Stage::TreeBuild`]/[`Stage::Dp`]/[`Stage::Extract`] (via the
/// instrumented [`Anonymizer`] build), [`Stage::QueueWait`], and
/// [`Stage::Merge`] (one [`BulkPolicy::merge_in_ranges`] of the per-task
/// policies). Only jurisdiction tasks count under
/// [`Counter::TasksExecuted`] and [`Stage::QueueWait`].
///
/// # Errors
/// As [`anonymize_partitioned`](crate::anonymize_partitioned); a worker
/// panic additionally surfaces as [`CoreError::WorkerPanic`].
pub fn anonymize_work_stealing(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
    config: &EngineConfig,
    metrics: Option<&Metrics>,
) -> Result<ParallelOutcome, CoreError> {
    anonymize_work_stealing_faulted(db, map, k, servers, config, metrics, None)
}

/// [`anonymize_work_stealing`] under an optional deterministic
/// [`FaultPlan`]: the conformance soak entry point. With retries covering
/// the plan's injected panics, the outcome is **bit-identical** to the
/// fault-free (and sequential) run; without retries the first surviving
/// panic surfaces as [`CoreError::WorkerPanic`]. Tasks are injected
/// largest population first (LPT), ties in partition order.
///
/// # Errors
/// As [`anonymize_work_stealing`], plus unrecovered injected panics. Any
/// task error fails the whole run.
pub fn anonymize_work_stealing_faulted(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
    config: &EngineConfig,
    metrics: Option<&Metrics>,
    faults: Option<&FaultPlan>,
) -> Result<ParallelOutcome, CoreError> {
    fn staged<T>(metrics: Option<&Metrics>, stage: Stage, f: impl FnOnce() -> T) -> T {
        match metrics {
            Some(m) => m.time(stage, f),
            None => f(),
        }
    }

    // lbs-lint: allow(no-wall-clock-in-dp, reason = "partition wall time is reported in ParallelOutcome timings only; never influences the partition itself")
    let partition_started = Instant::now();
    let tasks = staged(metrics, Stage::Partition, || {
        partition_tasks(db, map, k, servers, config.effective_workers(2), metrics)
    })?;
    let partition_time = partition_started.elapsed();
    let workers = config.effective_workers(tasks.len());

    // LPT: biggest sub-database first, so the long pole starts
    // immediately. The sort is stable, so ties keep partition order.
    let mut queue: Vec<(usize, JurisdictionTask)> = tasks.into_iter().enumerate().collect();
    queue.sort_by_key(|(_, task)| Reverse(task.range.len()));

    // lbs-lint: allow(no-wall-clock-in-dp, reason = "server wall time is reported in ParallelOutcome timings only; task results are merge-order normalized")
    let run_started = Instant::now();
    let (results, error) = run_pool(queue, config, faults, metrics, |scratch, task| {
        anonymize_task(task, k, Some(scratch), metrics)
    });
    let server_wall_time = run_started.elapsed();
    if let Some(err) = error {
        return Err(err);
    }

    let results = results.into_iter().map(|(_, result)| result).collect();
    Ok(staged(metrics, Stage::Merge, || {
        merge_results(k, results, partition_time, server_wall_time, workers)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymize_partitioned;
    use lbs_core::verify_policy_aware;
    use lbs_workload::{generate_master, BayAreaConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn workload(n: usize) -> (LocationDb, Rect) {
        let mut cfg = BayAreaConfig::scaled_to(n);
        cfg.map_side = 1 << 14;
        let db = generate_master(&cfg);
        (db, cfg.map())
    }

    #[test]
    fn recovery_fault_hooks_are_attempt_scoped() {
        let plan = FaultPlan::new()
            .stall_during_replay(7, Duration::from_micros(250))
            .crash_mid_checkpoint(3, 2);
        assert_eq!(plan.replay_stall(7), Some(Duration::from_micros(250)));
        assert_eq!(plan.replay_stall(8), None);
        assert!(plan.should_crash_checkpoint(3, 0));
        assert!(plan.should_crash_checkpoint(3, 1));
        assert!(!plan.should_crash_checkpoint(3, 2), "attempt n succeeds after n crashes");
        assert!(!plan.should_crash_checkpoint(4, 0));
        // Recovery hooks are independent of the engine's task-index knobs.
        assert!(!plan.should_panic(3, 0));
        assert_eq!(plan.max_panic_attempts(), 0);
    }

    #[test]
    fn effective_workers_clamps_to_task_count() {
        let cfg = EngineConfig { workers: 16, ..EngineConfig::default() };
        assert_eq!(cfg.effective_workers(3), 3);
        assert_eq!(cfg.effective_workers(0), 1);
        assert_eq!(cfg.effective_workers(100), 16);
        let auto = EngineConfig::default();
        assert!(auto.effective_workers(64) >= 1);
    }

    #[test]
    fn work_stealing_matches_sequential_bit_for_bit_at_any_worker_count() {
        let (db, map) = workload(1_500);
        let k = 10;
        let seq = anonymize_partitioned(&db, map, k, 8).unwrap();
        for workers in [1, 2, 4, 8] {
            let cfg = EngineConfig { workers, ..EngineConfig::default() };
            let ws = anonymize_work_stealing(&db, map, k, 8, &cfg, None).unwrap();
            assert_eq!(ws.total_cost, seq.total_cost, "cost at {workers} workers");
            assert_eq!(ws.policy.len(), seq.policy.len());
            assert_eq!(ws.workers, cfg.effective_workers(ws.servers.len()));
            for (user, region) in seq.policy.iter() {
                assert_eq!(
                    ws.policy.cloak_of(user),
                    Some(region),
                    "cloak of {user:?} at {workers} workers"
                );
            }
            for (a, b) in seq.servers.iter().zip(&ws.servers) {
                assert_eq!(a.jurisdiction, b.jurisdiction, "report order is partition order");
                assert_eq!(a.users, b.users);
                assert_eq!(a.cost, b.cost);
            }
            assert!(verify_policy_aware(&ws.policy, &db, k).is_ok());
        }
    }

    #[test]
    fn metrics_count_tasks_and_users() {
        let (db, map) = workload(1_200);
        let k = 10;
        let metrics = Metrics::new();
        let cfg = EngineConfig { workers: 4, ..EngineConfig::default() };
        let outcome = anonymize_work_stealing(&db, map, k, 8, &cfg, Some(&metrics)).unwrap();
        let tasks = outcome.servers.len() as u64;
        assert_eq!(metrics.get(Counter::TasksInjected), tasks);
        assert_eq!(metrics.get(Counter::TasksExecuted), tasks);
        assert_eq!(metrics.get(Counter::UsersAnonymized), db.len() as u64);
        assert_eq!(metrics.get(Counter::WorkerPanics), 0);
        assert_eq!(metrics.get(Counter::ServerErrors), 0);
        assert_eq!(metrics.stage_calls(Stage::Partition), 1);
        assert_eq!(metrics.stage_calls(Stage::Merge), 1);
        assert_eq!(metrics.stage_calls(Stage::QueueWait), tasks);
        // Every task beyond each worker's first reuses that worker's arena.
        assert!(metrics.get(Counter::ScratchReuses) <= tasks.saturating_sub(1));
    }

    #[test]
    fn partition_rows_and_task_counts_do_not_depend_on_workers() {
        let (db, map) = workload(2_000);
        let counts: Vec<(u64, u64)> = [1, 2, 4]
            .into_iter()
            .map(|workers| {
                let metrics = Metrics::new();
                let cfg = EngineConfig { workers, ..EngineConfig::default() };
                let outcome =
                    anonymize_work_stealing(&db, map, 10, 16, &cfg, Some(&metrics)).unwrap();
                // The partition's scans and the merge's ranges are not
                // pool tasks.
                let tasks = outcome.servers.len() as u64;
                assert_eq!(metrics.get(Counter::TasksExecuted), tasks, "{workers} workers");
                assert_eq!(metrics.stage_calls(Stage::QueueWait), tasks, "{workers} workers");
                (metrics.get(Counter::PartitionRows), tasks)
            })
            .collect();
        assert!(counts[0].0 >= db.len() as u64, "the root is scanned");
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }

    /// `n` payloads `(i, i)`, injected in index order.
    fn indexed(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i, i)).collect()
    }

    #[test]
    fn panicking_task_surfaces_as_worker_panic_and_keeps_sibling_results() {
        // One worker makes the arena history exact: the first task executed
        // panics on the initial arena, and the five after it share the
        // replacement — four reuses, not five.
        let metrics = Metrics::new();
        let fired = AtomicBool::new(false);
        let cfg = EngineConfig { workers: 1, ..EngineConfig::default() };
        let (results, error) = run_pool(indexed(6), &cfg, None, Some(&metrics), |_, &i| {
            if !fired.swap(true, Ordering::SeqCst) {
                panic!("injected failure in task {i}");
            }
            Ok(i * 10)
        });
        match error {
            Some(CoreError::WorkerPanic(msg)) => assert!(msg.contains("injected failure")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The pool drains the queue after a panic, and every sibling's
        // result survives, sorted by index.
        assert_eq!(results.len(), 5);
        assert!(results.windows(2).all(|w| w[0].0 < w[1].0), "{results:?}");
        assert!(results.iter().all(|&(i, r)| r == i * 10), "{results:?}");
        assert_eq!(metrics.get(Counter::WorkerPanics), 1);
        assert_eq!(metrics.get(Counter::TasksExecuted), 6);
        assert_eq!(metrics.get(Counter::ScratchReuses), 4, "a replaced arena starts unused");
    }

    #[test]
    fn server_error_is_returned_next_to_sibling_results() {
        let metrics = Metrics::new();
        let cfg = EngineConfig { workers: 2, ..EngineConfig::default() };
        let (results, error) = run_pool(indexed(4), &cfg, None, Some(&metrics), |_, &i| {
            if i == 2 {
                Err(CoreError::InvalidK)
            } else {
                Ok(i)
            }
        });
        assert_eq!(error, Some(CoreError::InvalidK));
        assert_eq!(results, [(0, 0), (1, 1), (3, 3)]);
        assert_eq!(metrics.get(Counter::ServerErrors), 1);
        assert_eq!(metrics.get(Counter::WorkerPanics), 0);
    }

    #[test]
    fn skewed_load_completes_with_all_tasks_executed() {
        // One giant jurisdiction plus many tiny ones: LPT injection must
        // schedule the giant first and the pool must still drain the rest.
        let (db, map) = workload(2_500);
        let k = 5;
        let metrics = Metrics::new();
        let cfg = EngineConfig { workers: 3, ..EngineConfig::default() };
        let outcome = anonymize_work_stealing(&db, map, k, 24, &cfg, Some(&metrics)).unwrap();
        assert!(outcome.servers.len() > 4, "skew workload should split");
        let users: usize = outcome.servers.iter().map(|s| s.users).sum();
        assert_eq!(users, db.len());
        assert_eq!(metrics.get(Counter::TasksExecuted), outcome.servers.len() as u64);
        assert!(verify_policy_aware(&outcome.policy, &db, k).is_ok());
    }

    #[test]
    fn fault_plan_with_retries_is_bit_identical_to_sequential() {
        let (db, map) = workload(1_200);
        let k = 8;
        let seq = anonymize_partitioned(&db, map, k, 8).unwrap();
        let faults = FaultPlan::new()
            .panic_on(0, 2)
            .panic_on(3, 1)
            .stall_on(1, std::time::Duration::from_millis(2))
            .delay_worker(0, std::time::Duration::from_millis(1));
        let metrics = Metrics::new();
        let cfg = EngineConfig { workers: 4, max_task_retries: 2 };
        let ws =
            anonymize_work_stealing_faulted(&db, map, k, 8, &cfg, Some(&metrics), Some(&faults))
                .unwrap();
        assert_eq!(ws.total_cost, seq.total_cost);
        assert_eq!(ws.policy.len(), seq.policy.len());
        for (user, region) in seq.policy.iter() {
            assert_eq!(ws.policy.cloak_of(user), Some(region), "cloak of {user:?} after faults");
        }
        assert_eq!(metrics.get(Counter::FaultsInjected), 3);
        assert_eq!(metrics.get(Counter::TaskRetries), 3);
        assert_eq!(metrics.get(Counter::WorkerPanics), 3);
    }

    #[test]
    fn fault_plan_without_retries_surfaces_worker_panic() {
        let (db, map) = workload(800);
        let faults = FaultPlan::new().panic_on(1, 1);
        let metrics = Metrics::new();
        let cfg = EngineConfig { workers: 2, ..EngineConfig::default() };
        let err =
            anonymize_work_stealing_faulted(&db, map, 6, 4, &cfg, Some(&metrics), Some(&faults))
                .unwrap_err();
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("fault-injected panic"), "{msg}");
                assert!(msg.contains("task=1"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert_eq!(metrics.get(Counter::FaultsInjected), 1);
        assert_eq!(metrics.get(Counter::TaskRetries), 0);
    }

    #[test]
    fn seeded_fault_plan_is_deterministic_and_replayable() {
        let a = FaultPlan::seeded(42, 32);
        let b = FaultPlan::seeded(42, 32);
        for index in 0..32 {
            for attempt in 0..4 {
                assert_eq!(a.should_panic(index, attempt), b.should_panic(index, attempt));
            }
            assert_eq!(a.stall_for(index), b.stall_for(index));
        }
        assert!(a.total_injected_panics() > 0, "seed 42 should inject something");
        let c = FaultPlan::seeded(43, 32);
        let differs = (0..32).any(|i| a.should_panic(i, 0) != c.should_panic(i, 0));
        assert!(differs, "different seeds should produce different plans");
    }
}
