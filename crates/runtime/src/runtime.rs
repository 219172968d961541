//! The long-running anonymization service: durable churn ingestion,
//! deadline-budgeted commits with seeded-jitter retries, crash recovery,
//! and the degradation ladder, wrapped around `query::service`.

use crate::checkpoint::{self, Checkpoint, CheckpointHeader};
use crate::clock::{Clock, SystemClock};
use crate::degrade::{DegradedDelta, Rung};
use crate::error::RuntimeError;
use crate::scrub::{scrub_dir, GcReport, ScrubReport};
use crate::storage::{real_fs, StorageBackend};
use crate::wal::Wal;
use lbs_core::{
    check_population_bound, first_poll_taken, CoreError, IncrementalAnonymizer, IncrementalReport,
};
use lbs_geom::{Rect, Region};
use lbs_metrics::{Counter, Metrics, Stage};
use lbs_model::{
    AnonymizedRequest, BulkPolicy, LocationDb, RequestId, RequestParams, UserId, UserUpdate,
};
use lbs_parallel::FaultPlan;
use lbs_query::{ClientAnswer, CloakedLbs};
use lbs_tree::{TreeConfig, TreeKind};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Tunables of the service runtime.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Anonymity level.
    pub k: usize,
    /// The map all trees and cloaks live on.
    pub map: Rect,
    /// Write a checkpoint every this many commits (0 = only explicit
    /// [`ServiceRuntime::checkpoint_now`] calls).
    pub checkpoint_every: u64,
    /// Retries after a transient failure before giving up.
    pub max_retries: u32,
    /// Base delay of the exponential backoff schedule.
    pub backoff_base: Duration,
    /// Seed of the deterministic backoff jitter.
    pub retry_seed: u64,
    /// Bounded retention: `Some(n)` keeps the newest `n` *verified*
    /// checkpoint generations, removes older ones, and prunes WAL
    /// records no retained generation needs
    /// ([`ServiceRuntime::gc`] runs after every successful checkpoint).
    /// `None` (the default) never prunes — the legacy unbounded layout.
    pub retain_checkpoints: Option<usize>,
}

impl RuntimeConfig {
    /// Defaults: checkpoint every 4 commits, 3 retries, 5ms backoff base.
    pub fn new(k: usize, map: Rect) -> Self {
        RuntimeConfig {
            k,
            map,
            checkpoint_every: 4,
            max_retries: 3,
            backoff_base: Duration::from_millis(5),
            retry_seed: 0xC10C_4A11,
            retain_checkpoints: None,
        }
    }
}

/// What recovery did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// WAL records replayed on top of it.
    pub replayed: usize,
    /// Injected-clock time the replay took (includes injected stalls).
    pub replay_time: Duration,
}

/// A served request: which rung answered, the cloak emitted, and the
/// LBS answer when a [`CloakedLbs`] is attached.
#[derive(Debug, Clone)]
pub struct ServedRequest {
    /// Degradation rung that produced the cloak.
    pub rung: Rung,
    /// The cloak sent to the LBS.
    pub region: Region,
    /// End-to-end answer (None when no LBS is attached).
    pub answer: Option<ClientAnswer>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic seeded-jitter exponential backoff: `base * 2^attempt`
/// plus up to 50% jitter, a pure function of `(seed, attempt)`.
pub fn backoff_delay(base: Duration, seed: u64, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(10));
    let mut state = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let span = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX).max(1);
    let jitter = splitmix(&mut state) % span;
    exp + Duration::from_nanos(jitter / 2)
}

/// Runs a commit's DP refresh, the coalesced sequential sweep, polling
/// the deadline once per recomputed row. The first poll comes before
/// anything else, so an already expired deadline costs one clock read,
/// and a commit never starts past its deadline, even one whose staged
/// updates leave every row current: extraction and the checkpoint that
/// may follow cannot be cancelled. [`Counter::SubtreeCacheHits`] counts
/// the cache hits of every row computed, whether the refresh finished
/// or was cancelled.
fn refresh_for_commit(
    inc: &mut IncrementalAnonymizer,
    metrics: Option<&Metrics>,
    clock: &Arc<dyn Clock>,
    deadline: Option<Duration>,
) -> Result<(), CoreError> {
    let clock = Arc::clone(clock);
    let cancel = move || deadline.is_some_and(|d| clock.now() >= d);
    if cancel() {
        return Err(CoreError::Cancelled);
    }
    let mut report = IncrementalReport::default();
    let result = inc.refresh_into(&first_poll_taken(cancel), &mut report);
    if let Some(m) = metrics {
        m.add(Counter::SubtreeCacheHits, report.cache_hits as u64);
    }
    result
}

/// Brings the maintained policy up to date after a completed refresh —
/// re-extracting only the subtrees the refresh touched — and counts the
/// work into [`Counter::ExtractNodes`] and [`Counter::CloaksWritten`].
/// On an error the committed policy is left as it was.
fn extract_committed(
    inc: &mut IncrementalAnonymizer,
    metrics: Option<&Metrics>,
) -> Result<(), CoreError> {
    let report = inc.extract()?;
    if let Some(m) = metrics {
        m.add(Counter::ExtractNodes, report.nodes as u64);
        m.add(Counter::CloaksWritten, report.cloaks as u64);
    }
    Ok(())
}

/// The body of [`ServiceRuntime::gc`], borrowing fields disjointly so
/// callers holding a metrics stage span can still run the ENOSPC
/// ladder's emergency pass.
fn run_gc(
    storage: &dyn StorageBackend,
    dir: &Path,
    wal: &mut Wal,
    retain_checkpoints: Option<usize>,
    metrics: Option<&Metrics>,
) -> Result<GcReport, RuntimeError> {
    let Some(retain) = retain_checkpoints else {
        return Ok(GcReport::default());
    };
    let retain = retain.max(1);
    let mut report = GcReport::default();
    let mut oldest_retained_seq = None;
    for (seq, path) in checkpoint::list_checkpoints_via(storage, dir)? {
        if report.retained < retain {
            let raw = storage.read(&path).map_err(|e| crate::error::io_err("gc-read", &path, e))?;
            if checkpoint::verify_checkpoint_bytes(&raw) {
                report.retained += 1;
                oldest_retained_seq = Some(seq);
            }
            // Corrupt generations inside the window are skipped — never
            // retained, left for scrub to quarantine.
        } else {
            storage.remove(&path).map_err(|e| crate::error::io_err("gc-remove", &path, e))?;
            report.checkpoints_removed.push(path);
        }
    }
    if let Some(anchor) = oldest_retained_seq {
        let pruned = wal.prune_to(anchor)?;
        report.wal_records_pruned = pruned;
        if pruned > 0 {
            if let Some(m) = metrics {
                m.add(Counter::WalSegmentsPruned, pruned);
            }
        }
    }
    Ok(report)
}

/// Builder for [`ServiceRuntime`]: clock, fault plan, metrics sink, and
/// LBS attachment are all optional.
#[derive(Debug)]
pub struct RuntimeBuilder {
    cfg: RuntimeConfig,
    clock: Arc<dyn Clock>,
    faults: FaultPlan,
    metrics: Option<Arc<Metrics>>,
    lbs: Option<CloakedLbs>,
    storage: Arc<dyn StorageBackend>,
}

impl RuntimeBuilder {
    /// A builder with a [`SystemClock`], the real filesystem, and no
    /// faults/metrics/LBS.
    pub fn new(cfg: RuntimeConfig) -> Self {
        RuntimeBuilder {
            cfg,
            clock: Arc::new(SystemClock::new()),
            faults: FaultPlan::new(),
            metrics: None,
            lbs: None,
            storage: real_fs(),
        }
    }

    /// Injects a time source (tests use a `ManualClock`).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Injects a storage backend. Every durable byte — WAL frames,
    /// checkpoints, scrub/GC maintenance — flows through it; sweeps pass
    /// a [`crate::FaultFs`] to inject deterministic disk faults.
    pub fn storage(mut self, storage: Arc<dyn StorageBackend>) -> Self {
        self.storage = storage;
        self
    }

    /// Installs a deterministic fault plan. Commit panics are keyed by
    /// the epoch being created; checkpoint crashes by the WAL sequence
    /// being checkpointed; replay stalls by the record being replayed.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a metrics sink.
    pub fn metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches the LBS-provider half so requests are answered end to end.
    pub fn lbs(mut self, lbs: CloakedLbs) -> Self {
        self.lbs = Some(lbs);
        self
    }

    /// Initializes a fresh runtime directory: full `Bulk_dp` over `db`,
    /// an initial commit (epoch 1), and checkpoint 0.
    ///
    /// # Errors
    /// [`RuntimeError::AlreadyInitialized`] when `dir` holds state;
    /// DP/tree/IO errors otherwise.
    pub fn create(self, dir: &Path, db: &LocationDb) -> Result<ServiceRuntime, RuntimeError> {
        self.storage.create_dir_all(dir).map_err(|e| crate::error::io_err("create_dir", dir, e))?;
        if checkpoint::load_latest_via(self.storage.as_ref(), dir)?.checkpoint.is_some() {
            return Err(RuntimeError::AlreadyInitialized(dir.to_path_buf()));
        }
        let (wal, records) = Wal::open_with(Arc::clone(&self.storage), dir)?;
        if !records.is_empty() {
            return Err(RuntimeError::AlreadyInitialized(dir.to_path_buf()));
        }
        let tree_cfg = TreeConfig::lazy(TreeKind::Binary, self.cfg.map, self.cfg.k);
        let mut inc = IncrementalAnonymizer::new(db, tree_cfg, self.cfg.k)?;
        extract_committed(&mut inc, self.metrics.as_deref())?;
        let mut runtime = ServiceRuntime {
            cfg: self.cfg,
            dir: dir.to_path_buf(),
            clock: self.clock,
            faults: self.faults,
            metrics: self.metrics,
            storage: self.storage,
            wal,
            db: db.clone(),
            inc,
            epoch: 1,
            durable_seq: 0,
            committed_seq: 0,
            commits_since_checkpoint: 0,
            lbs: self.lbs,
            touched: BTreeSet::new(),
            degraded: None,
            next_request: 0,
        };
        runtime.checkpoint_now()?;
        if let Some(lbs) = runtime.lbs.as_mut() {
            lbs.set_policy_epoch(runtime.epoch);
        }
        Ok(runtime)
    }

    /// Recovers a runtime from `dir`: newest valid checkpoint, then a
    /// replay of every WAL record past it, recomputing only dirty DP rows
    /// per record. `k` and the map come from the checkpoint (the builder
    /// config's values are overridden). Corrupt newer generations are
    /// skipped — counted as
    /// [`Counter::GenerationFallbacks`] — and recovery proceeds from the
    /// newest clean one plus a longer WAL replay.
    ///
    /// # Errors
    /// [`RuntimeError::NoState`] when no valid checkpoint exists;
    /// [`RuntimeError::CorruptCheckpoint`] when the only clean generation
    /// predates the WAL's pruned base (its replay suffix is gone, so
    /// silent divergence is impossible to rule out — fail loudly);
    /// DP/IO errors otherwise.
    pub fn recover(self, dir: &Path) -> Result<(ServiceRuntime, RecoveryReport), RuntimeError> {
        let outcome = checkpoint::load_latest_via(self.storage.as_ref(), dir)?;
        if let Some(m) = self.metrics.as_deref() {
            m.add(Counter::GenerationFallbacks, outcome.skipped.len() as u64);
        }
        let Some(ckpt) = outcome.checkpoint else {
            return Err(RuntimeError::NoState(dir.to_path_buf()));
        };
        let Checkpoint { header: CheckpointHeader { epoch, wal_seq, k, map }, db } = ckpt;
        let mut cfg = self.cfg;
        cfg.k = k;
        cfg.map = map;
        let (wal, records) = Wal::open_with(Arc::clone(&self.storage), dir)?;
        if wal.base_seq() > wal_seq {
            return Err(RuntimeError::CorruptCheckpoint {
                path: checkpoint::checkpoint_path(dir, wal_seq),
                message: format!(
                    "checkpoint at seq {wal_seq} predates the pruned WAL base {}; \
                     its replay suffix is gone",
                    wal.base_seq()
                ),
            });
        }
        let tree_cfg = TreeConfig::lazy(TreeKind::Binary, map, k);
        let mut inc = IncrementalAnonymizer::new(&db, tree_cfg, k)?;
        // The committed policy is a pure function of the tree, which is
        // rebuilt from the database; checkpoints do not store it.
        extract_committed(&mut inc, self.metrics.as_deref())?;
        let mut runtime = ServiceRuntime {
            cfg,
            dir: dir.to_path_buf(),
            clock: self.clock,
            faults: self.faults,
            metrics: self.metrics,
            storage: self.storage,
            wal,
            db,
            inc,
            epoch,
            durable_seq: wal_seq,
            committed_seq: wal_seq,
            commits_since_checkpoint: 0,
            lbs: self.lbs,
            touched: BTreeSet::new(),
            degraded: None,
            next_request: 0,
        };

        let replay_started = runtime.clock.now();
        let span = runtime.metrics.as_deref().map(|m| m.start(Stage::Replay));
        let mut replayed = 0usize;
        for record in records.iter().filter(|r| r.seq > wal_seq) {
            if let Some(stall) = runtime.faults.replay_stall(record.seq) {
                runtime.clock.sleep(stall);
            }
            runtime.db.apply_updates(&record.updates)?;
            runtime.inc.stage_updates(&record.updates)?;
            runtime.durable_seq = record.seq;
            // The reference (never-crashed) run commits after every batch,
            // so replay does too: recovered state at seq n is bit-identical
            // to the uninterrupted state at seq n.
            runtime.inc.refresh()?;
            extract_committed(&mut runtime.inc, runtime.metrics.as_deref())?;
            runtime.epoch += 1;
            runtime.committed_seq = record.seq;
            replayed += 1;
        }
        drop(span);
        let replay_time = runtime.clock.now().saturating_sub(replay_started);
        if let Some(m) = runtime.metrics.as_deref() {
            m.add(
                Counter::RecoveryReplayMs,
                u64::try_from(replay_time.as_millis()).unwrap_or(u64::MAX),
            );
        }
        if let Some(lbs) = runtime.lbs.as_mut() {
            lbs.set_policy_epoch(runtime.epoch);
        }
        Ok((runtime, RecoveryReport { checkpoint_seq: wal_seq, replayed, replay_time }))
    }
}

/// The durable, deadline-aware anonymization service.
#[derive(Debug)]
pub struct ServiceRuntime {
    cfg: RuntimeConfig,
    dir: PathBuf,
    clock: Arc<dyn Clock>,
    faults: FaultPlan,
    metrics: Option<Arc<Metrics>>,
    storage: Arc<dyn StorageBackend>,
    wal: Wal,
    db: LocationDb,
    /// The incremental engine; it also holds the committed policy.
    inc: IncrementalAnonymizer,
    /// Commits so far; doubles as the cache epoch handed to the LBS.
    epoch: u64,
    /// Last WAL sequence durably appended.
    durable_seq: u64,
    /// WAL sequence the committed policy reflects.
    committed_seq: u64,
    commits_since_checkpoint: u64,
    lbs: Option<CloakedLbs>,
    /// Users staged since the commit, each once: the only senders whose
    /// cloak group can have left the Committed rung. Cleared whenever
    /// `committed_seq` catches up with `durable_seq`; a cancelled or
    /// failed commit keeps it.
    touched: BTreeSet<UserId>,
    /// Memoized rung decisions of the touched groups for
    /// `(durable_seq, epoch)`: cloak regions and rungs, no locations.
    degraded: Option<(u64, u64, DegradedDelta)>,
    next_request: u64,
}

impl ServiceRuntime {
    fn incr(&self, counter: Counter) {
        if let Some(m) = self.metrics.as_deref() {
            m.incr(counter);
        }
    }

    /// Replaces the metrics sink, returning the old one: a sharded
    /// fan-out hands each shard a private branch sink for one step.
    pub(crate) fn swap_metrics(&mut self, sink: Option<Arc<Metrics>>) -> Option<Arc<Metrics>> {
        std::mem::replace(&mut self.metrics, sink)
    }

    /// Durably ingests one churn batch: validate → WAL append+sync → apply
    /// to the database and tree, deferring all DP work to the next commit.
    /// Returns the batch's WAL sequence number.
    ///
    /// # Errors
    /// [`RuntimeError::Model`] on an invalid batch and
    /// [`CoreError::CostOverflow`] when the batch's inserts would take
    /// `population × map area` past [`lbs_core::COST_BOUND`] (in both
    /// cases nothing is logged or applied); [`RuntimeError::Io`] when the
    /// append fails.
    pub fn apply_batch(&mut self, updates: &[UserUpdate]) -> Result<u64, RuntimeError> {
        self.db.validate_updates(updates)?;
        for up in updates {
            let target = match *up {
                UserUpdate::Move(m) => Some(m.to),
                UserUpdate::Insert { at, .. } => Some(at),
                UserUpdate::Delete { .. } => None,
            };
            if let Some(p) = target {
                if !self.cfg.map.contains(&p) {
                    // The message deliberately omits the point: raw sender
                    // coordinates must not reach error strings.
                    return Err(RuntimeError::Core(CoreError::Tree(format!(
                        "user {} target is off the map",
                        up.user().0
                    ))));
                }
            }
        }
        // A validated insert adds one user and a validated delete removes
        // one. Checked before the append: a logged batch past the bound
        // would fail every later commit and every replay of the log.
        let (mut inserts, mut deletes) = (0usize, 0usize);
        for up in updates {
            match up {
                UserUpdate::Insert { .. } => inserts += 1,
                UserUpdate::Delete { .. } => deletes += 1,
                UserUpdate::Move(_) => {}
            }
        }
        let population = (self.db.len() + inserts).saturating_sub(deletes);
        check_population_bound(population, self.cfg.map.area())?;
        let span = self.metrics.as_deref().map(|m| m.start(Stage::WalAppend));
        // lbs-lint: allow(location-taint, reason = "the WAL is the crash-recovery log on local disk, inside the anonymizer's trust boundary; frames never leave the host")
        let seq = match self.wal.append(updates) {
            Ok(seq) => seq,
            // The ENOSPC ladder: emergency retention GC, one retry, then a
            // typed shed. The failed append rolled its partial frame back,
            // so durable state is unchanged on every rung.
            Err(e) if e.is_storage_full() => {
                let gc = run_gc(
                    self.storage.as_ref(),
                    &self.dir,
                    &mut self.wal,
                    self.cfg.retain_checkpoints,
                    self.metrics.as_deref(),
                );
                if let Err(ge) = gc {
                    if !ge.is_storage_full() {
                        return Err(ge);
                    }
                    // The WAL rewrite itself ran out of space; generation
                    // removals may still have freed enough for the retry.
                }
                // lbs-lint: allow(location-taint, reason = "ENOSPC retry of the same WAL append; the WAL is the crash-recovery log on local disk, inside the anonymizer's trust boundary")
                match self.wal.append(updates) {
                    Ok(seq) => seq,
                    Err(e2) if e2.is_storage_full() => {
                        drop(span);
                        self.incr(Counter::EnospcSheds);
                        return Err(RuntimeError::StorageExhausted {
                            op: "append",
                            path: self.wal.path().to_path_buf(),
                        });
                    }
                    Err(e2) => return Err(e2),
                }
            }
            Err(e) => return Err(e),
        };
        drop(span);
        self.incr(Counter::WalAppends);
        self.db.apply_updates(updates)?;
        self.inc.stage_updates(updates)?;
        self.touched.extend(updates.iter().map(UserUpdate::user));
        if let Some(m) = self.metrics.as_deref() {
            m.add(Counter::BatchedMoves, updates.len() as u64);
        }
        self.durable_seq = seq;
        self.degraded = None;
        Ok(seq)
    }

    /// Commits: refresh every stale DP row and publish a new policy epoch.
    /// Blocks until done (no deadline), retrying transient failures.
    ///
    /// # Errors
    /// See [`commit_with_deadline`](Self::commit_with_deadline).
    pub fn commit(&mut self) -> Result<u64, RuntimeError> {
        self.commit_with_deadline(None)
    }

    /// Commits under an absolute deadline (a [`Clock::now`] value).
    ///
    /// The DP refresh is cancellable at semi-quadrant granularity: when
    /// the deadline fires mid-sweep, completed rows are kept and the call
    /// returns [`RuntimeError::DeadlineExceeded`] — a later commit resumes
    /// and produces the identical matrix. Transient failures (injected
    /// worker panics) are retried with seeded-jitter exponential backoff
    /// up to `max_retries`, then surface as
    /// [`RuntimeError::RetriesExhausted`]. Returns the new epoch.
    ///
    /// # Errors
    /// `DeadlineExceeded`, `RetriesExhausted`, or DP/IO errors.
    pub fn commit_with_deadline(
        &mut self,
        deadline: Option<Duration>,
    ) -> Result<u64, RuntimeError> {
        let target_epoch = self.epoch + 1;
        let span = self.metrics.as_deref().map(|m| m.start(Stage::Commit));
        let mut attempt: u32 = 0;
        loop {
            let failure = if self.faults.should_panic(target_epoch as usize, attempt) {
                self.incr(Counter::FaultsInjected);
                self.incr(Counter::WorkerPanics);
                RuntimeError::Core(CoreError::WorkerPanic(format!(
                    "injected commit panic at epoch {target_epoch} attempt {attempt}"
                )))
            } else {
                match refresh_for_commit(
                    &mut self.inc,
                    self.metrics.as_deref(),
                    &self.clock,
                    deadline,
                ) {
                    Ok(()) => break,
                    Err(CoreError::Cancelled) => {
                        drop(span);
                        return Err(RuntimeError::DeadlineExceeded);
                    }
                    Err(e) => RuntimeError::Core(e),
                }
            };
            if !failure.is_transient() {
                drop(span);
                return Err(failure);
            }
            attempt += 1;
            if attempt > self.cfg.max_retries {
                drop(span);
                return Err(RuntimeError::RetriesExhausted {
                    attempts: attempt,
                    last: failure.to_string(),
                });
            }
            self.incr(Counter::TaskRetries);
            self.clock.sleep(backoff_delay(
                self.cfg.backoff_base,
                self.cfg.retry_seed ^ target_epoch,
                attempt - 1,
            ));
        }
        extract_committed(&mut self.inc, self.metrics.as_deref())?;
        self.epoch = target_epoch;
        self.committed_seq = self.durable_seq;
        self.touched.clear();
        self.degraded = None;
        self.commits_since_checkpoint += 1;
        drop(span);
        if let Some(lbs) = self.lbs.as_mut() {
            lbs.set_policy_epoch(target_epoch);
        }
        if self.cfg.checkpoint_every > 0
            && self.commits_since_checkpoint >= self.cfg.checkpoint_every
        {
            self.checkpoint_now()?;
        }
        Ok(target_epoch)
    }

    /// Writes a checkpoint of the committed state, retrying crash-mid-
    /// checkpoint fault injections with backoff (a crashed attempt leaves
    /// a torn temp file that recovery ignores).
    ///
    /// # Errors
    /// [`RuntimeError::RetriesExhausted`] when every attempt crashed;
    /// [`RuntimeError::Io`] on real filesystem failure.
    pub fn checkpoint_now(&mut self) -> Result<PathBuf, RuntimeError> {
        // Fold staged updates in first: this may advance epoch/committed,
        // which the checkpoint header must reflect.
        self.db_at_committed()?;
        let header = CheckpointHeader {
            epoch: self.epoch,
            wal_seq: self.committed_seq,
            k: self.cfg.k,
            map: self.cfg.map,
        };
        let span = self.metrics.as_deref().map(|m| m.start(Stage::Checkpoint));
        let mut attempt: u32 = 0;
        let mut enospc_retried = false;
        loop {
            let torn = self.faults.should_crash_checkpoint(header.wal_seq, attempt);
            if torn {
                self.incr(Counter::FaultsInjected);
            }
            let written = checkpoint::write_checkpoint_via(
                self.storage.as_ref(),
                &self.dir,
                &header,
                &self.db,
                torn,
            );
            match written {
                Ok(path) => {
                    drop(span);
                    self.incr(Counter::CheckpointsWritten);
                    self.commits_since_checkpoint = 0;
                    // Bounded retention: prune generations and WAL records
                    // the newly published checkpoint makes redundant.
                    if self.cfg.retain_checkpoints.is_some() {
                        self.gc()?;
                    }
                    return Ok(path);
                }
                Err(e) if e.is_transient() => {
                    attempt += 1;
                    if attempt > self.cfg.max_retries {
                        drop(span);
                        return Err(RuntimeError::RetriesExhausted {
                            attempts: attempt,
                            last: e.to_string(),
                        });
                    }
                    self.incr(Counter::TaskRetries);
                    self.clock.sleep(backoff_delay(
                        self.cfg.backoff_base,
                        self.cfg.retry_seed ^ header.wal_seq.rotate_left(17),
                        attempt - 1,
                    ));
                }
                // The ENOSPC ladder: one emergency GC (a no-op under
                // unbounded retention — the operator chose to keep every
                // generation), one retry, then a typed shed.
                Err(e) if e.is_storage_full() && !enospc_retried => {
                    enospc_retried = true;
                    let gc = run_gc(
                        self.storage.as_ref(),
                        &self.dir,
                        &mut self.wal,
                        self.cfg.retain_checkpoints,
                        self.metrics.as_deref(),
                    );
                    if let Err(ge) = gc {
                        if !ge.is_storage_full() {
                            drop(span);
                            return Err(ge);
                        }
                    }
                }
                Err(e) if e.is_storage_full() => {
                    drop(span);
                    self.incr(Counter::EnospcSheds);
                    return Err(RuntimeError::StorageExhausted {
                        op: "checkpoint",
                        path: checkpoint::checkpoint_path(&self.dir, header.wal_seq),
                    });
                }
                Err(e) => {
                    drop(span);
                    return Err(e);
                }
            }
        }
    }

    /// Re-verifies the CRC of every checkpoint generation through the
    /// storage backend and quarantines corrupt files (renamed to
    /// `*.quarantined`, invisible to recovery, bytes kept for
    /// forensics). The live in-memory state is untouched; the next
    /// checkpoint re-establishes a clean newest generation.
    ///
    /// # Errors
    /// I/O failures reading or renaming; corruption itself is reported,
    /// not an error.
    pub fn scrub(&mut self) -> Result<ScrubReport, RuntimeError> {
        let report = scrub_dir(self.storage.as_ref(), &self.dir)?;
        self.incr(Counter::ScrubsRun);
        if let Some(m) = self.metrics.as_deref() {
            m.add(Counter::CorruptFilesQuarantined, report.quarantined.len() as u64);
        }
        Ok(report)
    }

    /// Bounded-retention garbage collection: keeps the newest
    /// `retain_checkpoints` *verified* generations, removes older
    /// checkpoint files, and prunes WAL records up to the oldest retained
    /// generation's sequence — so every retained generation keeps its
    /// full replay suffix and recovery can fall back across all of them.
    /// A no-op (empty report) under unbounded retention (`None`).
    ///
    /// Corrupt generations inside the retention window are skipped, never
    /// counted as retained, and left for [`scrub`](Self::scrub) to
    /// quarantine.
    ///
    /// # Errors
    /// I/O failures listing, reading, removing, or rewriting the WAL.
    pub fn gc(&mut self) -> Result<GcReport, RuntimeError> {
        run_gc(
            self.storage.as_ref(),
            &self.dir,
            &mut self.wal,
            self.cfg.retain_checkpoints,
            self.metrics.as_deref(),
        )
    }

    /// Commits any staged updates, so that `self.db` is exactly the
    /// database at `committed_seq`. Checkpoints must snapshot committed
    /// state, and with deferred DP the live database can run ahead of
    /// the committed policy.
    fn db_at_committed(&mut self) -> Result<(), RuntimeError> {
        if self.committed_seq != self.durable_seq {
            // Fold the staged updates in so policy and db agree.
            self.inc.refresh()?;
            extract_committed(&mut self.inc, self.metrics.as_deref())?;
            self.epoch += 1;
            self.committed_seq = self.durable_seq;
            self.touched.clear();
            self.degraded = None;
            if let Some(lbs) = self.lbs.as_mut() {
                lbs.set_policy_epoch(self.epoch);
            }
        }
        Ok(())
    }

    /// Serves one cloak request under an optional absolute deadline,
    /// walking the degradation ladder: fresh commit → committed cloak →
    /// coarsened ancestor cloak → shed.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownUser`] for senders not in the database;
    /// [`RuntimeError::Shed`] when the bottom rung is reached.
    pub fn cloak_for(
        &mut self,
        user: UserId,
        deadline: Option<Duration>,
    ) -> Result<(Rung, Region), RuntimeError> {
        if self.db.location(user).is_none() {
            return Err(RuntimeError::UnknownUser(user));
        }
        // Rung 0: fresh. Either the committed policy already covers every
        // durable update, or we try to commit within the deadline.
        let fresh = if self.committed_seq == self.durable_seq {
            true
        } else {
            match self.commit_with_deadline(deadline) {
                Ok(_) => true,
                Err(
                    RuntimeError::DeadlineExceeded
                    | RuntimeError::RetriesExhausted { .. }
                    | RuntimeError::Core(CoreError::InsufficientPopulation { .. }),
                ) => false,
                Err(fatal) => return Err(fatal),
            }
        };
        if fresh {
            if let Some(region) = self.inc.committed_policy().cloak_of(user) {
                return Ok((Rung::Fresh, *region));
            }
        }
        // Rungs 1–2: the groups touched since the commit are re-derived
        // once per (durable_seq, epoch), each labelled Committed (cloak
        // unchanged), Coarsened (ancestor cloak) or shed; every other
        // group stays on its committed cloak.
        let key = (self.durable_seq, self.epoch);
        let cached = matches!(&self.degraded, Some((s, e, _)) if (*s, *e) == key);
        if !cached {
            let (map, k) = (&self.cfg.map, self.cfg.k);
            let committed = self.inc.committed_policy();
            let delta = DegradedDelta::derive(committed, &self.db, &self.touched, map, k);
            if let Some(m) = self.metrics.as_deref() {
                m.add(Counter::DegradedGroupsDerived, delta.groups() as u64);
            }
            self.degraded = Some((key.0, key.1, delta));
        }
        // Invariant: the memo was just populated for `key` above.
        let served = match (&self.degraded, self.inc.committed_policy().cloak_entry(user)) {
            (Some((_, _, delta)), Some((id, cloak))) => delta.serve(id, cloak),
            _ => None,
        };
        if let Some((region, rung)) = served {
            self.incr(match rung {
                Rung::Committed => Counter::DegradedCommitted,
                _ => Counter::DegradedCoarsened,
            });
            return Ok((rung, region));
        }
        // Rung 3: shed.
        self.incr(Counter::RequestsShed);
        Err(RuntimeError::Shed { user })
    }

    /// Serves one request end to end: cloak via the ladder, then (when an
    /// LBS is attached) the cloaked nearest-neighbor answer.
    ///
    /// # Errors
    /// Same as [`cloak_for`](Self::cloak_for).
    pub fn serve(
        &mut self,
        user: UserId,
        params: RequestParams,
        deadline: Option<Duration>,
    ) -> Result<ServedRequest, RuntimeError> {
        let (rung, region) = self.cloak_for(user, deadline)?;
        let Some(true_location) = self.db.location(user) else {
            return Err(RuntimeError::UnknownUser(user));
        };
        let answer = self.lbs.as_mut().map(|lbs| {
            let id = RequestId(self.next_request);
            self.next_request += 1;
            lbs.nearest_for(&AnonymizedRequest::new(id, region, params), true_location)
        });
        Ok(ServedRequest { rung, region, answer })
    }

    /// The injected clock (for computing absolute deadlines).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current location database.
    pub fn db(&self) -> &LocationDb {
        &self.db
    }

    /// Last committed policy.
    pub fn committed_policy(&self) -> &BulkPolicy {
        self.inc.committed_policy()
    }

    /// Commits so far (the cache epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Last durably logged WAL sequence.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// WAL sequence the committed policy reflects.
    pub fn committed_seq(&self) -> u64 {
        self.committed_seq
    }

    /// Anonymity level.
    pub fn k(&self) -> usize {
        self.cfg.k
    }

    /// The map.
    pub fn map(&self) -> Rect {
        self.cfg.map
    }

    /// DP rows staged but not yet refreshed.
    pub fn pending_rows(&self) -> usize {
        self.inc.pending_rows()
    }

    /// The attached LBS half, if any.
    pub fn lbs_mut(&mut self) -> Option<&mut CloakedLbs> {
        self.lbs.as_mut()
    }

    /// Runtime directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The storage backend every durable byte flows through.
    pub fn storage(&self) -> &Arc<dyn StorageBackend> {
        &self.storage
    }
}
