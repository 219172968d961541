//! Work-stealing execution engine for jurisdiction anonymization.
//!
//! [`anonymize_partitioned`](crate::anonymize_partitioned) runs servers
//! one after another; this module runs them on a fixed pool of worker
//! threads pulling [`JurisdictionTask`]s from a shared
//! [`crossbeam::deque::Injector`]. Each worker owns a LIFO deque plus a
//! reusable [`DpScratch`] arena, and steals from siblings when both its
//! deque and the injector run dry — the classic work-stealing discipline.
//!
//! Two properties the tests pin down:
//!
//! * **Determinism** — task results carry their partition index and are
//!   merged in index order, so the produced [`BulkPolicy`] is
//!   *bit-identical* to the sequential run for any worker count and any
//!   steal interleaving.
//! * **Skew tolerance** — tasks are injected largest-population-first
//!   (LPT scheduling), so one giant jurisdiction cannot strand the pool:
//!   it starts first while the small tasks back-fill the other workers.
//!
//! Worker panics are caught per task and surfaced as
//! [`CoreError::WorkerPanic`] instead of aborting the run; the
//! [`Metrics`] sink (optional everywhere) counts injections, executions,
//! steals, scratch reuses, panics, and per-task queue-wait time.

use crate::{partition_users, ParallelOutcome, ServerReport};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use crossbeam::utils::Backoff;
use lbs_core::{Anonymizer, CoreError, DpScratch};
use lbs_geom::{Area, Point, Rect, Region};
use lbs_metrics::{Counter, Metrics, Stage};
use lbs_model::{BulkPolicy, LocationDb, UserId};
use lbs_tree::{TreeConfig, TreeKind};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the work-stealing pool.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` means "ask the OS" (`available_parallelism`),
    /// and the pool never spawns more workers than there are tasks.
    pub workers: usize,
    /// Inject tasks largest-population-first (LPT). Keeps a single huge
    /// jurisdiction from becoming the tail of the schedule. Disable to
    /// keep the partition order (useful when benchmarking the skew
    /// pathology itself).
    pub largest_first: bool,
    /// Forward the Lemma-5 pass-up bound to each worker's DP scratch.
    /// Disabling it is the Section-V ablation; results are identical.
    pub use_lemma5: bool,
    /// How many times a *panicked* task is re-enqueued before the panic is
    /// surfaced as [`CoreError::WorkerPanic`]. `0` (the default) keeps the
    /// historical fail-fast behaviour. Conformance soak tests pair this
    /// with a [`FaultPlan`] whose injected panics stop firing after a set
    /// number of attempts, proving recovery produces bit-identical output.
    pub max_task_retries: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { workers: 0, largest_first: true, use_lemma5: true, max_task_retries: 0 }
    }
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

/// One unit of work: anonymize the users of one jurisdiction.
#[derive(Debug, Clone)]
pub struct JurisdictionTask {
    /// Position in the partition order (results are merged by this).
    pub index: usize,
    /// The server's jurisdiction rectangle.
    pub jurisdiction: Rect,
    /// The whole partitioned population, shared by every task of a run
    /// and ordered so that each jurisdiction's users are contiguous.
    pub population: Arc<[(UserId, Point)]>,
    /// This jurisdiction's range of `population`.
    pub range: Range<usize>,
    /// When the task entered the injector (queue-wait metric baseline).
    pub injected_at: Instant,
    /// Execution attempt, starting at 0. Bumped each time a panicked task
    /// is re-enqueued under [`EngineConfig::max_task_retries`].
    pub attempt: u32,
}

impl JurisdictionTask {
    /// Creates a task over `population[range]`; `injected_at` is stamped
    /// (again) at injection.
    pub fn new(
        index: usize,
        jurisdiction: Rect,
        population: Arc<[(UserId, Point)]>,
        range: Range<usize>,
    ) -> Self {
        // lbs-lint: allow(no-wall-clock-in-dp, reason = "injected_at feeds queue-wait metrics only; task ordering and DP output are index-deterministic")
        let injected_at = Instant::now();
        JurisdictionTask { index, jurisdiction, population, range, injected_at, attempt: 0 }
    }

    /// The users inside the jurisdiction (empty for an out-of-bounds
    /// range).
    pub fn users(&self) -> &[(UserId, Point)] {
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

/// Per-task result: the server report plus the server's policy, returned
/// in partition (index) order.
pub type TaskResult = (ServerReport, BulkPolicy);

/// A cross-run cache of worker [`DpScratch`] arenas.
///
/// Within one engine run each worker already reuses its own arena from
/// task to task ([`Counter::ScratchReuses`]); the pool extends that reuse
/// across *runs* — the steady-state shape of a service re-anonymizing
/// every epoch. Workers check an arena out at startup (a hit is counted
/// under [`Counter::ScratchPoolHits`]; a miss allocates fresh) and check
/// it back in when the run drains, so epoch `n+1` starts with epoch `n`'s
/// fully grown buffers and the DP loop allocates nothing at all.
///
/// Pooling never changes results: arenas carry no row data between
/// checkouts, only capacity.
#[derive(Debug, Default)]
pub struct ScratchPool {
    arenas: Mutex<Vec<DpScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks an arena out, reusing a pooled one when available. The
    /// Lemma-5 knob is (re)applied either way, so a pooled arena from a
    /// differently configured run behaves identically to a fresh one.
    pub fn checkout(&self, use_lemma5: bool, metrics: Option<&Metrics>) -> DpScratch {
        match self.arenas.lock().pop() {
            Some(mut arena) => {
                arena.set_lemma5(use_lemma5);
                if let Some(m) = metrics {
                    m.incr(Counter::ScratchPoolHits);
                }
                arena
            }
            None => DpScratch::with_lemma5(use_lemma5),
        }
    }

    /// Returns an arena to the pool for a later run.
    pub fn checkin(&self, arena: DpScratch) {
        self.arenas.lock().push(arena);
    }

    /// Arenas currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.arenas.lock().len()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Pops the next task: own deque first (hot, LIFO), then a batch from the
/// injector, then a steal sweep over the sibling deques. `None` once every
/// queue is observed empty — tasks never spawn subtasks, so empty
/// everywhere means the pool is done. Generic over the task payload so the
/// same stealing discipline serves jurisdiction runs and refresh plans.
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

/// Runs `tasks` on a work-stealing pool of [`EngineConfig::effective_workers`]
/// threads, calling `server` for each task with that worker's reusable
/// [`DpScratch`] arena; `server` returns the task's policy and its
/// `Cost(P, D_j)`. Results come back **sorted by task index**, so the
/// output is independent of scheduling.
///
/// A panicking `server` call is caught, counted under
/// [`Counter::WorkerPanics`], and surfaced as the run's error; the worker
/// replaces its scratch arena (the old one may be mid-mutation) and keeps
/// draining the queue so sibling tasks still complete.
///
/// # Errors
/// The first server error or panic (by completion order) is returned.
pub fn run_tasks<F>(
    tasks: Vec<JurisdictionTask>,
    config: &EngineConfig,
    server: F,
    metrics: Option<&Metrics>,
) -> Result<Vec<TaskResult>, CoreError>
where
    F: Fn(&mut DpScratch, &JurisdictionTask) -> Result<(BulkPolicy, Area), CoreError> + Sync,
{
    run_tasks_faulted(tasks, config, server, metrics, None)
}

/// [`run_tasks`] with an optional deterministic [`FaultPlan`]: injected
/// panics fire *before* the server is called (counted under
/// [`Counter::FaultsInjected`]), stalls and worker delays reshape the
/// schedule without touching results. Panicked tasks — injected or real —
/// are re-enqueued up to [`EngineConfig::max_task_retries`] times
/// (counted under [`Counter::TaskRetries`]); a task that exhausts its
/// retries surfaces as [`CoreError::WorkerPanic`].
///
/// Because results are merged by task index, a faulted run in which every
/// task eventually succeeds is **bit-identical** to a fault-free run.
///
/// # Errors
/// The first unrecovered server error or panic (by completion order).
pub fn run_tasks_faulted<F>(
    tasks: Vec<JurisdictionTask>,
    config: &EngineConfig,
    server: F,
    metrics: Option<&Metrics>,
    faults: Option<&FaultPlan>,
) -> Result<Vec<TaskResult>, CoreError>
where
    F: Fn(&mut DpScratch, &JurisdictionTask) -> Result<(BulkPolicy, Area), CoreError> + Sync,
{
    run_tasks_impl(tasks, config, server, metrics, faults, None)
}

/// [`run_tasks`] with worker arenas checked out of (and returned to) a
/// caller-owned [`ScratchPool`], so repeated runs — re-anonymization
/// epochs — stop allocating DP buffers after the first.
///
/// # Errors
/// As [`run_tasks`].
pub fn run_tasks_pooled<F>(
    tasks: Vec<JurisdictionTask>,
    config: &EngineConfig,
    server: F,
    metrics: Option<&Metrics>,
    pool: &ScratchPool,
) -> Result<Vec<TaskResult>, CoreError>
where
    F: Fn(&mut DpScratch, &JurisdictionTask) -> Result<(BulkPolicy, Area), CoreError> + Sync,
{
    run_tasks_impl(tasks, config, server, metrics, None, Some(pool))
}

fn run_tasks_impl<F>(
    tasks: Vec<JurisdictionTask>,
    config: &EngineConfig,
    server: F,
    metrics: Option<&Metrics>,
    faults: Option<&FaultPlan>,
    pool: Option<&ScratchPool>,
) -> Result<Vec<TaskResult>, CoreError>
where
    F: Fn(&mut DpScratch, &JurisdictionTask) -> Result<(BulkPolicy, Area), CoreError> + Sync,
{
    let task_count = tasks.len();
    let workers = config.effective_workers(task_count);
    let injector = Injector::new();

    // LPT: biggest sub-database first, so the long pole starts immediately.
    let mut queue = tasks;
    if config.largest_first {
        queue.sort_by(|a, b| b.range.len().cmp(&a.range.len()).then(a.index.cmp(&b.index)));
    }
    for mut task in queue {
        // lbs-lint: allow(no-wall-clock-in-dp, reason = "injection timestamp feeds queue-wait metrics only; never read by the DP")
        task.injected_at = Instant::now();
        injector.push(task);
    }
    if let Some(m) = metrics {
        m.add(Counter::TasksInjected, task_count as u64);
    }

    let locals: Vec<Worker<JurisdictionTask>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<JurisdictionTask>> = locals.iter().map(Worker::stealer).collect();

    let results: Mutex<Vec<(usize, TaskResult)>> = Mutex::new(Vec::with_capacity(task_count));
    let first_error: Mutex<Option<CoreError>> = Mutex::new(None);

    crossbeam::scope(|scope| {
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
                let mut scratch = match pool {
                    Some(p) => p.checkout(config.use_lemma5, metrics),
                    None => DpScratch::with_lemma5(config.use_lemma5),
                };
                let mut executed_here = 0usize;
                while let Some(task) = find_task(me, local, injector, stealers, metrics) {
                    if let Some(m) = metrics {
                        m.record(Stage::QueueWait, task.injected_at.elapsed());
                        m.incr(Counter::TasksExecuted);
                        if executed_here > 0 {
                            m.incr(Counter::ScratchReuses);
                        }
                    }
                    if let Some(stall) = faults.and_then(|f| f.stall_for(task.index)) {
                        std::thread::sleep(stall);
                    }
                    // lbs-lint: allow(no-wall-clock-in-dp, reason = "per-task wall time feeds ServerReport/metrics only; the merged policy is order-independent")
                    let started = Instant::now();
                    let outcome =
                        if faults.is_some_and(|f| f.should_panic(task.index, task.attempt)) {
                            if let Some(m) = metrics {
                                m.incr(Counter::FaultsInjected);
                            }
                            // lbs-lint: allow(location-taint, reason = "task index and attempt counter only; the task struct taints through field projection but no coordinate is in the message")
                            Err(Box::new(format!(
                                "fault-injected panic: task={} attempt={}",
                                task.index, task.attempt
                            )) as Box<dyn std::any::Any + Send>)
                        } else {
                            catch_unwind(AssertUnwindSafe(|| server(&mut scratch, &task)))
                        };
                    match outcome {
                        Ok(Ok((policy, cost))) => {
                            let report = ServerReport {
                                jurisdiction: task.jurisdiction,
                                users: task.range.len(),
                                cost,
                                elapsed: started.elapsed(),
                            };
                            results.lock().push((task.index, (report, policy)));
                        }
                        Ok(Err(e)) => {
                            if let Some(m) = metrics {
                                m.incr(Counter::ServerErrors);
                            }
                            first_error.lock().get_or_insert(e);
                        }
                        Err(payload) => {
                            if let Some(m) = metrics {
                                m.incr(Counter::WorkerPanics);
                            }
                            if task.attempt < config.max_task_retries {
                                // Recovery path: hand the task back to the
                                // pool for another attempt. Index-ordered
                                // merging keeps the final output
                                // bit-identical no matter which worker
                                // (or how late) the retry lands on.
                                if let Some(m) = metrics {
                                    m.incr(Counter::TaskRetries);
                                }
                                let mut retry = task.clone();
                                retry.attempt += 1;
                                // lbs-lint: allow(no-wall-clock-in-dp, reason = "re-injection timestamp feeds queue-wait metrics only; retry results are bit-identical")
                                retry.injected_at = Instant::now();
                                injector.push(retry);
                            } else {
                                first_error
                                    .lock()
                                    .get_or_insert(CoreError::WorkerPanic(panic_message(payload)));
                            }
                            // The arena may hold a half-written row; discard it.
                            scratch = DpScratch::with_lemma5(config.use_lemma5);
                        }
                    }
                    executed_here += 1;
                }
                if let Some(p) = pool {
                    p.checkin(scratch);
                }
            });
        }
    })
    .map_err(|payload| CoreError::WorkerPanic(panic_message(payload)))?;

    if let Some(err) = first_error.into_inner() {
        return Err(err);
    }
    let mut gathered = results.into_inner();
    gathered.sort_by_key(|(index, _)| *index);
    Ok(gathered.into_iter().map(|(_, result)| result).collect())
}

/// One indexed payload queued on the generic pool run.
struct Payload<T> {
    index: usize,
    injected_at: Instant,
    body: T,
}

/// What a [`run_payloads`] run produced: every completed `(index, result)`
/// pair sorted by index, plus the first error observed — partial progress
/// survives an error.
pub(crate) type PartialResults<R> = (Vec<(usize, R)>, Option<CoreError>);

/// Runs arbitrary indexed payloads on the same work-stealing discipline as
/// [`run_tasks`] — LIFO deques, injector batches, steal sweep with backoff,
/// one reusable [`DpScratch`] arena per worker — without the
/// jurisdiction-task extras (LPT ordering, fault plans, retries).
///
/// Unlike [`run_tasks`], an error does not discard sibling results: the
/// return value is every completed `(index, result)` pair **sorted by
/// index** plus the first error observed (by completion order). A
/// cancelled run therefore keeps its partial progress, which
/// deadline-bounded callers apply before resuming. [`CoreError::Cancelled`]
/// is routine (a deadline firing) and is not counted under
/// [`Counter::ServerErrors`].
///
/// # Errors
/// Only a worker panic aborts the run.
pub(crate) fn run_payloads<T, R, F>(
    payloads: Vec<T>,
    config: &EngineConfig,
    pool: Option<&ScratchPool>,
    metrics: Option<&Metrics>,
    server: F,
) -> Result<PartialResults<R>, CoreError>
where
    T: Send,
    R: Send,
    F: Fn(&mut DpScratch, usize, &T) -> Result<R, CoreError> + Sync,
{
    let task_count = payloads.len();
    let workers = config.effective_workers(task_count);
    let injector = Injector::new();
    for (index, body) in payloads.into_iter().enumerate() {
        // lbs-lint: allow(no-wall-clock-in-dp, reason = "injection timestamp feeds queue-wait metrics only; never read by the DP")
        injector.push(Payload { index, injected_at: Instant::now(), body });
    }
    if let Some(m) = metrics {
        m.add(Counter::TasksInjected, task_count as u64);
    }

    let locals: Vec<Worker<Payload<T>>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<Payload<T>>> = locals.iter().map(Worker::stealer).collect();
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(task_count));
    let first_error: Mutex<Option<CoreError>> = Mutex::new(None);

    crossbeam::scope(|scope| {
        for (me, local) in locals.iter().enumerate() {
            let injector = &injector;
            let stealers = &stealers[..];
            let results = &results;
            let first_error = &first_error;
            let server = &server;
            scope.spawn(move |_| {
                let mut scratch = match pool {
                    Some(p) => p.checkout(config.use_lemma5, metrics),
                    None => DpScratch::with_lemma5(config.use_lemma5),
                };
                let mut executed_here = 0usize;
                while let Some(task) = find_task(me, local, injector, stealers, metrics) {
                    if let Some(m) = metrics {
                        m.record(Stage::QueueWait, task.injected_at.elapsed());
                        m.incr(Counter::TasksExecuted);
                        if executed_here > 0 {
                            m.incr(Counter::ScratchReuses);
                        }
                    }
                    match server(&mut scratch, task.index, &task.body) {
                        Ok(result) => results.lock().push((task.index, result)),
                        Err(e) => {
                            if let Some(m) = metrics {
                                if !matches!(e, CoreError::Cancelled) {
                                    m.incr(Counter::ServerErrors);
                                }
                            }
                            first_error.lock().get_or_insert(e);
                        }
                    }
                    executed_here += 1;
                }
                if let Some(p) = pool {
                    p.checkin(scratch);
                }
            });
        }
    })
    .map_err(|payload| CoreError::WorkerPanic(panic_message(payload)))?;

    let mut gathered = results.into_inner();
    gathered.sort_by_key(|(index, _)| *index);
    Ok((gathered, first_error.into_inner()))
}

/// `Stage::Partition`: one copy of `db`'s users, reordered by
/// [`partition_users`] so each jurisdiction is a contiguous range, and one
/// task per jurisdiction over that shared slice, in partition order.
pub(crate) fn partition_tasks(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
) -> Result<Vec<JurisdictionTask>, CoreError> {
    let mut users: Vec<(UserId, Point)> = db.iter().collect();
    let jurisdictions = partition_users(&mut users, map, k, servers).map_err(CoreError::Tree)?;
    let population: Arc<[(UserId, Point)]> = users.into();
    Ok(jurisdictions
        .into_iter()
        .enumerate()
        .map(|(i, j)| JurisdictionTask::new(i, j.rect, Arc::clone(&population), j.users))
        .collect())
}

/// One server: the optimal policy of `task`'s jurisdiction over its own
/// lazy binary tree, and that policy's cost (0 for an empty
/// jurisdiction).
pub(crate) fn anonymize_task(
    task: &JurisdictionTask,
    k: usize,
    scratch: Option<&mut DpScratch>,
    metrics: Option<&Metrics>,
) -> Result<(BulkPolicy, Area), CoreError> {
    let users = task.users();
    if users.is_empty() {
        return Ok((BulkPolicy::new("empty"), 0));
    }
    let config = TreeConfig::lazy(TreeKind::Binary, task.jurisdiction, k);
    let engine = Anonymizer::from_items(users.iter().copied(), config, k, scratch, metrics)?;
    let cost = engine.cost();
    Ok((engine.into_policy(), cost))
}

/// `Stage::Merge`: the master policy as one bulk load of the k-way merge
/// of the per-task policies, plus Σ cost and the reports in partition
/// order.
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
    let policy = BulkPolicy::from_assignments(name, merge_ascending(parts));
    ParallelOutcome { policy, total_cost, servers, partition_time, server_wall_time, workers }
}

/// Merges policies — each iterated in ascending user order — into one
/// ascending assignment list. Jurisdictions hold disjoint users; should
/// an id repeat anyway, the later part's cloak comes later and so wins
/// the bulk load, as repeated `assign` in part order would. Each part is
/// consumed (and freed) as the merge advances.
fn merge_ascending(parts: Vec<BulkPolicy>) -> Vec<(UserId, Region)> {
    let mut merged = Vec::with_capacity(parts.iter().map(BulkPolicy::len).sum());
    let mut streams: Vec<_> = parts.into_iter().map(|p| p.into_iter().peekable()).collect();
    let mut heads: BinaryHeap<Reverse<(UserId, usize)>> = streams
        .iter_mut()
        .enumerate()
        .filter_map(|(i, stream)| stream.peek().map(|&(user, _)| Reverse((user, i))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((_, i)) = *head;
        let Some(stream) = streams.get_mut(i) else { break };
        merged.extend(stream.next());
        match stream.peek() {
            Some(&(user, _)) => *head = Reverse((user, i)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    merged
}

/// Partitioned bulk anonymization on the work-stealing pool: the
/// concurrent counterpart of
/// [`anonymize_partitioned`](crate::anonymize_partitioned), producing a
/// **bit-identical** [`ParallelOutcome::policy`] and `total_cost` for any
/// worker count.
///
/// Stages recorded when `metrics` is given: [`Stage::Partition`] (the
/// tree-free greedy partition of one copy of the users), per-server
/// [`Stage::TreeBuild`]/[`Stage::Dp`]/[`Stage::Extract`] (via the
/// instrumented [`Anonymizer`] build), [`Stage::QueueWait`], and
/// [`Stage::Merge`] (k-way merge plus one bulk load).
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
    anonymize_work_stealing_impl(db, map, k, servers, config, metrics, None, None)
}

/// [`anonymize_work_stealing`] with worker arenas drawn from a caller-owned
/// [`ScratchPool`]. Epoch loops (periodic re-anonymization of moving
/// users) hold one pool for the lifetime of the service so every epoch
/// after the first runs allocation-free in the DP; output is bit-identical
/// to the unpooled run.
///
/// # Errors
/// As [`anonymize_work_stealing`].
pub fn anonymize_work_stealing_pooled(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
    config: &EngineConfig,
    metrics: Option<&Metrics>,
    pool: &ScratchPool,
) -> Result<ParallelOutcome, CoreError> {
    anonymize_work_stealing_impl(db, map, k, servers, config, metrics, None, Some(pool))
}

/// [`anonymize_work_stealing`] under a deterministic [`FaultPlan`]: the
/// conformance soak entry point. With retries covering the plan's
/// injected panics, the outcome is **bit-identical** to the fault-free
/// (and sequential) run; without retries the first surviving panic
/// surfaces as [`CoreError::WorkerPanic`].
///
/// # Errors
/// As [`anonymize_work_stealing`], plus unrecovered injected panics.
#[allow(clippy::too_many_arguments)]
pub fn anonymize_work_stealing_faulted(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
    config: &EngineConfig,
    metrics: Option<&Metrics>,
    faults: Option<&FaultPlan>,
) -> Result<ParallelOutcome, CoreError> {
    anonymize_work_stealing_impl(db, map, k, servers, config, metrics, faults, None)
}

#[allow(clippy::too_many_arguments)]
fn anonymize_work_stealing_impl(
    db: &LocationDb,
    map: Rect,
    k: usize,
    servers: usize,
    config: &EngineConfig,
    metrics: Option<&Metrics>,
    faults: Option<&FaultPlan>,
    pool: Option<&ScratchPool>,
) -> Result<ParallelOutcome, CoreError> {
    fn staged<T>(metrics: Option<&Metrics>, stage: Stage, f: impl FnOnce() -> T) -> T {
        match metrics {
            Some(m) => m.time(stage, f),
            None => f(),
        }
    }

    // lbs-lint: allow(no-wall-clock-in-dp, reason = "partition wall time is reported in ParallelOutcome timings only; never influences the partition itself")
    let partition_started = Instant::now();
    let tasks = staged(metrics, Stage::Partition, || partition_tasks(db, map, k, servers))?;
    let partition_time = partition_started.elapsed();
    let workers = config.effective_workers(tasks.len());

    let server = |scratch: &mut DpScratch, task: &JurisdictionTask| {
        anonymize_task(task, k, Some(scratch), metrics)
    };

    // lbs-lint: allow(no-wall-clock-in-dp, reason = "server wall time is reported in ParallelOutcome timings only; task results are merge-order normalized")
    let run_started = Instant::now();
    let task_results = run_tasks_impl(tasks, config, server, metrics, faults, pool)?;
    let server_wall_time = run_started.elapsed();

    Ok(staged(metrics, Stage::Merge, || {
        merge_results(k, task_results, partition_time, server_wall_time, workers)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymize_partitioned;
    use lbs_core::verify_policy_aware;
    use lbs_workload::{generate_master, BayAreaConfig};

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

    /// One single-user task per index over a shared population.
    fn one_user_tasks(n: usize) -> Vec<JurisdictionTask> {
        let population: Arc<[(UserId, Point)]> =
            (0..n).map(|i| (UserId(i as u64), Point::new(1, 1))).collect();
        (0..n)
            .map(|i| JurisdictionTask::new(i, Rect::square(0, 0, 16), population.clone(), i..i + 1))
            .collect()
    }

    #[test]
    fn merge_is_ascending_and_a_later_part_wins_a_repeated_id() {
        let r = |x: i64| -> Region { Rect::new(x, 0, x + 1, 1).into() };
        let part = |rows: &[(u64, i64)]| {
            BulkPolicy::from_assignments(
                "part",
                rows.iter().map(|&(u, x)| (UserId(u), r(x))).collect(),
            )
        };
        let parts =
            vec![part(&[(1, 0), (4, 0), (9, 0)]), part(&[]), part(&[(2, 1), (4, 1), (5, 1)])];
        let merged = merge_ascending(parts);
        let users: Vec<u64> = merged.iter().map(|(u, _)| u.0).collect();
        assert_eq!(users, [1, 2, 4, 4, 5, 9]);
        let policy = BulkPolicy::from_assignments("merged", merged);
        assert_eq!(policy.cloak_of(UserId(4)), Some(&r(1)), "part order decides a repeated id");
        assert!(merge_ascending(Vec::new()).is_empty());
    }

    #[test]
    fn panicking_server_surfaces_as_worker_panic_error() {
        let tasks = one_user_tasks(6);
        let metrics = Metrics::new();
        let cfg = EngineConfig { workers: 2, ..EngineConfig::default() };
        let err = run_tasks(
            tasks,
            &cfg,
            |_, task| {
                if task.index == 3 {
                    panic!("injected failure in task 3");
                }
                Ok((BulkPolicy::new("ok"), 0))
            },
            Some(&metrics),
        )
        .unwrap_err();
        match err {
            CoreError::WorkerPanic(msg) => assert!(msg.contains("injected failure")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert_eq!(metrics.get(Counter::WorkerPanics), 1);
        // The pool drains the queue even after a panic.
        assert_eq!(metrics.get(Counter::TasksExecuted), 6);
    }

    #[test]
    fn server_error_is_propagated_not_panicked() {
        let tasks = one_user_tasks(1);
        let err = run_tasks(tasks, &EngineConfig::default(), |_, _| Err(CoreError::InvalidK), None)
            .unwrap_err();
        assert_eq!(err, CoreError::InvalidK);
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
        let cfg = EngineConfig { workers: 4, max_task_retries: 2, ..EngineConfig::default() };
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

    #[test]
    fn pooled_runs_reuse_arenas_across_epochs_bit_identically() {
        let (db, map) = workload(1_200);
        let k = 10;
        let seq = anonymize_partitioned(&db, map, k, 8).unwrap();
        let pool = ScratchPool::new();
        let cfg = EngineConfig { workers: 4, ..EngineConfig::default() };
        let metrics = Metrics::new();
        // Epoch 1 starts with an empty pool. A late-spawning worker may
        // still hit (a fast sibling can drain the queue and check its
        // arena back in first), so the invariant is conservation, not a
        // hit count: every fresh allocation (checkout minus hit) grows
        // the idle set left behind.
        let first =
            anonymize_work_stealing_pooled(&db, map, k, 8, &cfg, Some(&metrics), &pool).unwrap();
        let workers = first.workers as u64;
        let hits_cold = metrics.get(Counter::ScratchPoolHits);
        assert_eq!(pool.idle() as u64 + hits_cold, workers, "arena conservation after epoch 1");
        assert!(pool.idle() >= 1, "epoch 1 must leave at least one arena parked");
        // Epoch 2 finds a warm pool: its first checkout is a hit.
        let second =
            anonymize_work_stealing_pooled(&db, map, k, 8, &cfg, Some(&metrics), &pool).unwrap();
        assert!(
            metrics.get(Counter::ScratchPoolHits) > hits_cold,
            "a warm pool must serve at least one checkout"
        );
        assert!(pool.idle() >= 1);
        // Both epochs are bit-identical to the sequential reference.
        for outcome in [&first, &second] {
            assert_eq!(outcome.total_cost, seq.total_cost);
            assert_eq!(outcome.policy.len(), seq.policy.len());
            for (user, region) in seq.policy.iter() {
                assert_eq!(outcome.policy.cloak_of(user), Some(region));
            }
        }
    }

    #[test]
    fn pool_checkout_reapplies_the_lemma5_knob() {
        let pool = ScratchPool::new();
        pool.checkin(DpScratch::with_lemma5(false));
        let metrics = Metrics::new();
        let arena = pool.checkout(true, Some(&metrics));
        assert!(arena.use_lemma5(), "pooled arena must adopt the new run's setting");
        assert_eq!(metrics.get(Counter::ScratchPoolHits), 1);
        assert_eq!(pool.idle(), 0);
        let fresh = pool.checkout(false, Some(&metrics));
        assert!(!fresh.use_lemma5());
        assert_eq!(metrics.get(Counter::ScratchPoolHits), 1, "empty pool allocates, no hit");
    }

    #[test]
    fn lemma5_ablation_is_bit_identical() {
        let (db, map) = workload(900);
        let k = 6;
        let on = anonymize_work_stealing(&db, map, k, 4, &EngineConfig::default(), None).unwrap();
        let off_cfg = EngineConfig { use_lemma5: false, ..EngineConfig::default() };
        let off = anonymize_work_stealing(&db, map, k, 4, &off_cfg, None).unwrap();
        assert_eq!(on.total_cost, off.total_cost);
        for (user, region) in on.policy.iter() {
            assert_eq!(off.policy.cloak_of(user), Some(region));
        }
    }
}
