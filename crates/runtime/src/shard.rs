//! The sharded epoch-pipelined serve path.
//!
//! A [`ShardedRuntime`] fronts N shared-nothing [`ServiceRuntime`]s, one
//! per jurisdiction of a frozen [`ShardPlan`]. Each shard owns its own
//! directory — WAL, checkpoint lineage, degradation ladder — so a crash
//! of one shard never stalls, perturbs, or even touches another: shard
//! recovery is `RuntimeBuilder::recover` on that shard's directory alone,
//! byte-identical by the PR-4 recovery proof, while the rest of the fleet
//! keeps serving.
//!
//! **Epoch pipelining.** The batcher decouples durable ingestion (a WAL
//! append, cheap) from commit (the DP refresh, expensive). One
//! [`pump`](ShardedRuntime::pump) cycle gives every up shard one step:
//! commit the *previously* staged epoch, then durably stage the new
//! batch's slice. Epoch e commits while epoch e+1 is logged, so the
//! pipeline is always one epoch deep.
//!
//! **Concurrent shards.** The shards share nothing, so a cycle runs
//! their steps at once — the paper's §V argument that jurisdictions are
//! embarrassingly parallel. The lowest up shard runs on the caller's
//! thread and every other up shard on a scoped thread of its own. The
//! assignment is fixed by shard index, never by ring head or stealing:
//! a shard that hopped threads would scatter its allocations over
//! several malloc arenas and grow the resident set. After the join the
//! steps are settled in ring order (the head rotates each cycle):
//! backlog gauges, residence, the [`PumpReport`], and the first error,
//! which names its shard ([`RuntimeError::Shard`]). The same input
//! stream therefore produces the same bytes on every shard, and the
//! same report, at any thread timing. [`commit_epoch`](ShardedRuntime::commit_epoch)
//! and [`drain`](ShardedRuntime::drain) are the same fan-out without a
//! batch.
//!
//! **Admission control.** Staged-but-uncommitted updates are bounded per
//! shard: when an [`ingest`](ShardedRuntime::ingest) would push a shard's
//! backlog past `admission_limit`, the batcher first forces that shard to
//! commit (a drain, counted as [`Counter::ShardForcedCommits`]) rather
//! than letting WAL replay debt grow without bound. Nothing is dropped —
//! admission trades latency for a bounded recovery window.

use crate::clock::Clock;
use crate::error::RuntimeError;
use crate::router::{merge_policies, ShardPlan};
use crate::runtime::{RecoveryReport, RuntimeBuilder, RuntimeConfig, ServiceRuntime};
use crate::scrub::{GcReport, ScrubReport};
use crate::storage::{real_fs, StorageBackend};
use lbs_core::CoreError;
use lbs_geom::{Point, Rect, Region};
use lbs_metrics::{Branch, Counter, Metrics};
use lbs_model::{BulkPolicy, LocationDb, UserId, UserUpdate};
use lbs_parallel::FaultPlan;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Tunables of the sharded service.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Anonymity level (shared by every shard).
    pub k: usize,
    /// The full map the plan tiles.
    pub map: Rect,
    /// Requested shard count; the plan may settle on fewer when the
    /// population cannot support that many non-empty jurisdictions.
    pub shards: usize,
    /// Staged (durable but uncommitted) updates a shard may hold before
    /// the admission controller forces a drain commit.
    pub admission_limit: usize,
    /// Per-shard checkpoint cadence (commits per checkpoint).
    pub checkpoint_every: u64,
    /// Per-shard bounded retention (see
    /// [`RuntimeConfig::retain_checkpoints`]); `None` keeps every
    /// generation.
    pub retain_checkpoints: Option<usize>,
}

impl ShardedConfig {
    /// Defaults: 8192-update admission window, checkpoint every 4
    /// commits.
    ///
    /// The admission window doubled (4096 → 8192) when commits went
    /// batched: the coalesced refresh amortizes a large staged backlog
    /// across shared ancestors, so a bigger window buys pipeline slack
    /// without the old risk of an O(live-tree) drain commit.
    pub fn new(k: usize, map: Rect, shards: usize) -> Self {
        ShardedConfig {
            k,
            map,
            shards,
            admission_limit: 8192,
            checkpoint_every: 4,
            retain_checkpoints: None,
        }
    }

    fn runtime_config(&self, region: Rect) -> RuntimeConfig {
        let mut rc = RuntimeConfig::new(self.k, region);
        rc.checkpoint_every = self.checkpoint_every;
        rc.retain_checkpoints = self.retain_checkpoints;
        rc
    }
}

/// Builder for [`ShardedRuntime`]: clock, metrics, and per-shard fault
/// plans are optional, mirroring [`RuntimeBuilder`].
pub struct ShardedBuilder {
    cfg: ShardedConfig,
    clock: Option<Arc<dyn Clock>>,
    metrics: Option<Arc<Metrics>>,
    faults: BTreeMap<usize, FaultPlan>,
    storage: Option<Arc<dyn StorageBackend>>,
    shard_storage: BTreeMap<usize, Arc<dyn StorageBackend>>,
}

impl ShardedBuilder {
    /// A builder with a system clock, the real filesystem, and no faults
    /// or metrics.
    pub fn new(cfg: ShardedConfig) -> Self {
        ShardedBuilder {
            cfg,
            clock: None,
            metrics: None,
            faults: BTreeMap::new(),
            storage: None,
            shard_storage: BTreeMap::new(),
        }
    }

    /// Injects a shared time source (tests use one `ManualClock` across
    /// every shard so pipeline timing is deterministic).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches a metrics sink shared by every shard.
    pub fn metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Installs a deterministic fault plan on one shard (commit panics,
    /// checkpoint crashes, replay stalls — see [`FaultPlan`]).
    pub fn shard_faults(mut self, shard: usize, faults: FaultPlan) -> Self {
        self.faults.insert(shard, faults);
        self
    }

    /// Injects a storage backend shared by the manifest and every shard
    /// without its own [`shard_storage`](Self::shard_storage) override.
    pub fn storage(mut self, storage: Arc<dyn StorageBackend>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Injects a storage backend on one shard only — the storage-fault
    /// sweeps point a seeded [`crate::FaultFs`] at a single victim shard
    /// while the rest of the fleet runs clean.
    pub fn shard_storage(mut self, shard: usize, storage: Arc<dyn StorageBackend>) -> Self {
        self.shard_storage.insert(shard, storage);
        self
    }

    fn fleet_storage(&self) -> Arc<dyn StorageBackend> {
        self.storage.clone().unwrap_or_else(real_fs)
    }

    fn shard_builder(&self, region: Rect, shard: usize) -> RuntimeBuilder {
        let mut b = RuntimeBuilder::new(self.cfg.runtime_config(region));
        if let Some(clock) = &self.clock {
            b = b.clock(Arc::clone(clock));
        }
        if let Some(metrics) = &self.metrics {
            b = b.metrics(Arc::clone(metrics));
        }
        if let Some(faults) = self.faults.get(&shard) {
            b = b.faults(faults.clone());
        }
        if let Some(storage) = self.shard_storage.get(&shard).or(self.storage.as_ref()) {
            b = b.storage(Arc::clone(storage));
        }
        b
    }

    /// Initializes a fresh sharded directory: derives the plan from the
    /// initial population, persists the manifest, and creates one
    /// [`ServiceRuntime`] per jurisdiction under `dir/shard-NNN`.
    ///
    /// # Errors
    /// Plan derivation, per-shard bulk DP, or I/O failures.
    pub fn create(self, dir: &Path, db: &LocationDb) -> Result<ShardedRuntime, RuntimeError> {
        let plan = ShardPlan::plan(db, self.cfg.map, self.cfg.k, self.cfg.shards)?;
        let storage = self.fleet_storage();
        storage.create_dir_all(dir).map_err(|e| crate::error::io_err("create_dir", dir, e))?;
        plan.store_via(storage.as_ref(), dir)?;
        // One pass over `db` in its own order, so each shard's rows (and
        // so its checkpoint bytes) keep `db` order. The plan is total
        // over the map and rejected off-map users, so every row routes.
        let mut per_shard: Vec<Vec<(UserId, Point)>> = vec![Vec::new(); plan.len()];
        for (user, p) in db.iter() {
            if let Some(rows) = plan.route_point(&p).and_then(|s| per_shard.get_mut(s)) {
                rows.push((user, p));
            }
        }
        let mut slots = Vec::with_capacity(plan.len());
        for (region, rows) in plan.regions.iter().zip(per_shard) {
            // Not `enumerate()`: the deep lint would label the index with
            // the rows' location taint, and it names the shard directory.
            let i = slots.len();
            let sub = LocationDb::from_rows(rows).map_err(RuntimeError::Model)?;
            let shard = self.shard_builder(*region, i).create(&shard_dir(dir, i), &sub)?;
            slots.push(Some(shard));
        }
        let mut sharded = ShardedRuntime {
            dir: dir.to_path_buf(),
            cfg: self.cfg,
            plan,
            slots,
            staged: Vec::new(),
            residence: BTreeMap::new(),
            builder: self,
            epoch: 0,
            reconciled: Vec::new(),
        };
        sharded.staged = vec![0; sharded.plan.len()];
        sharded.reconciled = vec![0; sharded.plan.len()];
        sharded.rebuild_residence();
        Ok(sharded)
    }

    /// Recovers a sharded directory: manifest first, then every shard in
    /// plan order via its own checkpoint + WAL replay. Returns one
    /// [`RecoveryReport`] per shard.
    ///
    /// # Errors
    /// A missing/corrupt manifest or any shard failing to recover.
    pub fn recover(
        self,
        dir: &Path,
    ) -> Result<(ShardedRuntime, Vec<RecoveryReport>), RuntimeError> {
        let plan = ShardPlan::load_via(self.fleet_storage().as_ref(), dir)?;
        let mut slots = Vec::with_capacity(plan.len());
        let mut reports = Vec::with_capacity(plan.len());
        for (i, region) in plan.regions.iter().enumerate() {
            let (shard, report) = self.shard_builder(*region, i).recover(&shard_dir(dir, i))?;
            slots.push(Some(shard));
            reports.push(report);
        }
        let mut sharded = ShardedRuntime {
            dir: dir.to_path_buf(),
            cfg: self.cfg,
            plan,
            slots,
            staged: Vec::new(),
            residence: BTreeMap::new(),
            builder: self,
            epoch: 0,
            reconciled: Vec::new(),
        };
        sharded.staged = vec![0; sharded.plan.len()];
        sharded.rebuild_residence();
        sharded.reconciled = sharded.reconcile_duplicates(None)?;
        Ok((sharded, reports))
    }
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

/// What one [`ShardedRuntime::ingest`] accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Updates durably staged across all shards (migrations count twice:
    /// a delete on the source shard plus an insert on the target).
    pub staged: usize,
    /// Cross-shard migrations rewritten by the router.
    pub migrations: u64,
    /// Shards the admission controller force-committed before accepting.
    pub forced_commits: usize,
}

/// What one [`ShardedRuntime::pump`] cycle did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PumpReport {
    /// Shards that committed their previously staged epoch this cycle.
    pub committed_shards: usize,
    /// Updates durably staged for the next epoch.
    pub staged: usize,
    /// Cross-shard migrations rewritten by the router.
    pub migrations: u64,
    /// Shards whose commit was skipped because their population dropped
    /// below k (they keep serving from the degradation ladder; the
    /// staged rows stay staged for a later attempt).
    pub degraded_shards: Vec<usize>,
}

/// N shared-nothing service runtimes behind one deterministic router and
/// an admission-controlled, epoch-pipelined batcher.
pub struct ShardedRuntime {
    dir: PathBuf,
    cfg: ShardedConfig,
    plan: ShardPlan,
    /// `None` marks a crashed shard awaiting
    /// [`recover_shard`](Self::recover_shard).
    slots: Vec<Option<ServiceRuntime>>,
    /// Staged (uncommitted) update counts per shard.
    staged: Vec<usize>,
    /// Which shard currently holds each user (kept in lockstep with
    /// applied batches; resynced from disk on shard recovery).
    residence: BTreeMap<UserId, usize>,
    /// Kept to rebuild per-shard runtimes on [`recover_shard`](Self::recover_shard).
    builder: ShardedBuilder,
    epoch: u64,
    /// Per-shard duplicate purges staged by the most recent recovery
    /// reconciliation (see [`reconciled_purges`](Self::reconciled_purges)).
    reconciled: Vec<usize>,
}

impl ShardedRuntime {
    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.plan.len()
    }

    /// The frozen routing plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Pump cycles completed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sharded service directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// One shard's directory (`dir/shard-NNN`).
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        shard_dir(&self.dir, shard)
    }

    /// Borrow one shard's runtime; `None` while it is crashed.
    pub fn shard(&self, shard: usize) -> Option<&ServiceRuntime> {
        self.slots.get(shard).and_then(|s| s.as_ref())
    }

    /// The shard currently holding `user`, if present anywhere.
    pub fn shard_of(&self, user: UserId) -> Option<usize> {
        self.residence.get(&user).copied()
    }

    /// The user→shard residence index (routing state).
    pub fn residence(&self) -> &BTreeMap<UserId, usize> {
        &self.residence
    }

    fn incr(&self, counter: Counter) {
        if let Some(m) = self.builder.metrics.as_deref() {
            m.incr(counter);
        }
    }

    fn check_shard(&self, shard: usize) -> Result<(), RuntimeError> {
        if shard >= self.slots.len() {
            return Err(RuntimeError::NoSuchShard { shard, shards: self.slots.len() });
        }
        Ok(())
    }

    // lbs-lint: allow-item(panic-reachability, reason = "check_shard on the line above returns NoSuchShard for any index >= slots.len(), so the slot indexing is guarded — the guard is just interprocedural, which the reachability pass cannot see")
    fn up_shard(&mut self, shard: usize) -> Result<&mut ServiceRuntime, RuntimeError> {
        self.check_shard(shard)?;
        self.slots[shard].as_mut().ok_or(RuntimeError::ShardDown { shard })
    }

    fn apply_residence(&mut self, shard: usize, batch: &[UserUpdate]) {
        for up in batch {
            match *up {
                UserUpdate::Move(_) => {}
                UserUpdate::Insert { user, .. } => {
                    self.residence.insert(user, shard);
                }
                UserUpdate::Delete { user } => {
                    // A migration's delete must not clobber the insert the
                    // target shard already registered for the same pump.
                    if self.residence.get(&user) == Some(&shard) {
                        self.residence.remove(&user);
                    }
                }
            }
        }
    }

    fn rebuild_residence(&mut self) {
        self.residence.clear();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(shard) = slot {
                for (user, _) in shard.db().iter() {
                    self.residence.insert(user, i);
                }
            }
        }
    }

    /// Purges cross-shard duplicate users left behind by a torn
    /// migration. A migration is a `Delete` on the source shard's WAL
    /// plus an `Insert` on the target's — two independent files, so a
    /// torn tail can lose one side: the surviving `Insert` then leaves
    /// the user durable in *both* shards after recovery. (The mirror
    /// tear — `Insert` lost, `Delete` durable — drops the user from the
    /// fleet entirely; they rejoin on their next `Insert`, and no repair
    /// is possible because the post-move position is gone.)
    ///
    /// One deterministic keeper copy survives: with `cede` set (a shard
    /// freshly recovered while the rest of the fleet stayed up), that
    /// shard loses every duplicate, because the survivors' WALs were
    /// never damaged and are therefore at least as new. With `cede`
    /// unset (whole-fleet recovery, no ordering oracle across WALs), the
    /// keeper is the lowest-indexed shard whose region contains its
    /// copy's position. Losing copies are purged through the normal
    /// staged-delete path — a WAL append on the purged shard — so the
    /// repair itself is durable and replayable, and the next commit
    /// publishes a consistent merged view. Returns per-shard purge
    /// counts.
    fn reconcile_duplicates(&mut self, cede: Option<usize>) -> Result<Vec<usize>, RuntimeError> {
        let mut copies: BTreeMap<UserId, Vec<(usize, Point)>> = BTreeMap::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(shard) = slot {
                for (user, p) in shard.db().iter() {
                    copies.entry(user).or_default().push((i, p));
                }
            }
        }
        let mut purge: Vec<Vec<UserUpdate>> = vec![Vec::new(); self.slots.len()];
        for (user, held) in &copies {
            if held.len() < 2 {
                continue;
            }
            let keeper = cede
                .and_then(|victim| held.iter().map(|&(i, _)| i).find(|&i| i != victim))
                .unwrap_or_else(|| {
                    held.iter()
                        .find(|&&(i, p)| self.plan.regions[i].contains(&p))
                        .map(|&(i, _)| i)
                        .unwrap_or(held[0].0)
                });
            for &(i, _) in held {
                if i != keeper {
                    purge[i].push(UserUpdate::Delete { user: *user });
                }
            }
        }
        let mut counts = vec![0usize; self.slots.len()];
        for (i, batch) in purge.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.up_shard(i)?.apply_batch(batch)?;
            self.staged[i] += batch.len();
            counts[i] = batch.len();
        }
        if counts.iter().any(|&c| c > 0) {
            self.rebuild_residence();
        }
        Ok(counts)
    }

    /// Per-shard duplicate purges staged by the most recent recovery
    /// reconciliation (all zero outside torn-migration recoveries). A
    /// nonzero entry means that shard's durable sequence advanced by one
    /// past what its own WAL held, to carry the purging delete.
    pub fn reconciled_purges(&self) -> &[usize] {
        &self.reconciled
    }

    /// Commits one shard's staged epoch, tolerating an
    /// insufficient-population failure (the shard keeps serving degraded
    /// and retries at the next cycle). Returns whether a commit happened.
    fn commit_shard(&mut self, shard: usize) -> Result<bool, RuntimeError> {
        let step = Step::run(self.up_shard(shard)?, true, &[]);
        self.settle(shard, step, &[])
    }

    /// Books one shard's [`Step`] on the fleet's side: the backlog gauge,
    /// the residence index and the shard-commit counter. Returns whether
    /// the shard published a commit, or the step's error.
    fn settle(
        &mut self,
        shard: usize,
        step: Step,
        slice: &[UserUpdate],
    ) -> Result<bool, RuntimeError> {
        let published = step.commit == Some(Commit::Published);
        if let Some(staged) = self.staged.get_mut(shard) {
            if matches!(step.commit, Some(Commit::Published | Commit::UpToDate)) {
                *staged = 0;
            }
            if step.staged {
                *staged += slice.len();
            }
        }
        if published {
            self.incr(Counter::ShardCommits);
        }
        if step.staged {
            self.apply_residence(shard, slice);
        }
        step.error.map_or(Ok(published), Err)
    }

    /// Runs [`Step::run`] on every up shard at once, shard i staging
    /// `slices[i]` (none past the end). The lowest up shard runs on the
    /// caller and every other up shard on a scoped thread of its own (see
    /// the module doc). With metrics attached, each shard records into a
    /// private [`Branch`] sink, folded back after the join: counts from
    /// every shard, stage time from the slowest.
    ///
    /// The steps are then settled in ring order. Every shard's work is
    /// accounted before the first failure in ring order is returned as
    /// [`RuntimeError::Shard`].
    fn fan_out(
        &mut self,
        tolerant: bool,
        slices: &[Vec<UserUpdate>],
    ) -> Result<FanOut, RuntimeError> {
        let was_staged: Vec<bool> = self.staged.iter().map(|&n| n > 0).collect();
        let metered = self.builder.metrics.is_some();
        let run = |(shard, rt, slice): (usize, &mut ServiceRuntime, &[UserUpdate])| {
            let mut branch = metered.then(Branch::start);
            let shared = branch.as_ref().map(|b| rt.swap_metrics(Some(Arc::clone(b.sink()))));
            let step = Step::run(rt, tolerant, slice);
            if let Some(shared) = shared {
                rt.swap_metrics(shared);
            }
            if let Some(b) = branch.as_mut() {
                b.stop();
            }
            (shard, step, branch)
        };
        let mut jobs = self.slots.iter_mut().enumerate().filter_map(|(i, slot)| {
            slot.as_mut().map(|rt| (i, rt, slices.get(i).map_or(&[][..], Vec::as_slice)))
        });
        let mut done = std::thread::scope(|scope| {
            let inline = jobs.next();
            let spawned: Vec<_> = jobs.map(|job| scope.spawn(move || run(job))).collect();
            let mut done: Vec<_> = inline.map(run).into_iter().collect();
            for handle in spawned {
                match handle.join() {
                    Ok(outcome) => done.push(outcome),
                    // A panic is a bug, not a shard fault: it propagates
                    // exactly as it would have on the caller's thread.
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            done
        });
        if let Some(m) = self.builder.metrics.as_deref() {
            let branches: Vec<Branch> = done.iter_mut().filter_map(|(_, _, b)| b.take()).collect();
            m.absorb_branches(&branches);
        }
        let n = self.slots.len().max(1);
        let head = self.epoch as usize % n;
        done.sort_by_key(|&(shard, ..)| (shard + n - head) % n);
        let mut out = FanOut::default();
        let mut first_error = None;
        for (shard, step, _) in done {
            let slice = slices.get(shard).map_or(&[][..], Vec::as_slice);
            let staged = step.staged;
            match self.settle(shard, step, slice) {
                Ok(true) => out.published += 1,
                Ok(false) if was_staged.get(shard) == Some(&true) => out.degraded.push(shard),
                Ok(false) => {}
                Err(e) => {
                    first_error.get_or_insert(RuntimeError::Shard { shard, source: Box::new(e) });
                }
            }
            if staged {
                out.staged += slice.len();
            }
        }
        out.degraded.sort_unstable();
        first_error.map_or(Ok(out), Err)
    }

    /// Durably stages one churn batch: route, migrate cross-shard moves,
    /// WAL-append each shard's slice. Admission control force-commits a
    /// shard whose staged backlog would exceed the limit; nothing is
    /// dropped. Commits are otherwise deferred to
    /// [`pump`](Self::pump)/[`commit_epoch`](Self::commit_epoch).
    ///
    /// # Errors
    /// Routing failures, a slice targeting a crashed shard, or I/O.
    // lbs-lint: allow-item(panic-reachability, reason = "split_updates returns per_shard sized to plan.len(), and slots/staged are sized to plan.len() at construction, so every enumerate() index i is in bounds for all three")
    pub fn ingest(&mut self, updates: &[UserUpdate]) -> Result<IngestReport, RuntimeError> {
        let split = self.plan.split_updates(&self.residence, updates)?;
        let mut report = IngestReport { migrations: split.migrations, ..Default::default() };
        if split.migrations > 0 {
            if let Some(m) = self.builder.metrics.as_deref() {
                m.add(Counter::CrossShardMigrations, split.migrations);
            }
        }
        // Fail before any side effect if a touched shard is down: batches
        // must not be half-applied across the fleet.
        for (i, slice) in split.per_shard.iter().enumerate() {
            if !slice.is_empty() && self.slots[i].is_none() {
                return Err(RuntimeError::ShardDown { shard: i });
            }
        }
        let limit = self.cfg.admission_limit.max(1);
        for (i, slice) in split.per_shard.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            if self.staged[i] > 0 && self.staged[i] + slice.len() > limit {
                self.commit_shard(i)?;
                self.incr(Counter::ShardForcedCommits);
                report.forced_commits += 1;
            }
            self.up_shard(i)?.apply_batch(slice)?;
            self.staged[i] += slice.len();
            self.apply_residence(i, slice);
            report.staged += slice.len();
        }
        Ok(report)
    }

    /// One epoch-pipelined cycle: every up shard, at once, commits its
    /// previously staged epoch, then durably stages the new batch's
    /// slice. After the call every shard holds epoch `e+1` staged and
    /// epoch `e` committed — the pipeline is always one epoch deep, so
    /// recovery replay is bounded by one batch plus the checkpoint
    /// cadence.
    ///
    /// # Errors
    /// Routing failures or a touched shard being down, before any side
    /// effect. A shard's I/O or DP failure is [`RuntimeError::Shard`],
    /// naming the first failing shard in ring order; every other shard
    /// has then committed and staged its slice.
    // lbs-lint: allow-item(panic-reachability, reason = "split_updates returns per_shard sized to plan.len(), and slots is sized to plan.len() at construction, so every enumerate() index i is in bounds for both")
    pub fn pump(&mut self, updates: &[UserUpdate]) -> Result<PumpReport, RuntimeError> {
        let split = self.plan.split_updates(&self.residence, updates)?;
        if split.migrations > 0 {
            if let Some(m) = self.builder.metrics.as_deref() {
                m.add(Counter::CrossShardMigrations, split.migrations);
            }
        }
        for (i, slice) in split.per_shard.iter().enumerate() {
            if !slice.is_empty() && self.slots[i].is_none() {
                return Err(RuntimeError::ShardDown { shard: i });
            }
        }
        // A crashed shard neither commits nor stages this cycle; its
        // slice was verified empty above.
        let done = self.fan_out(true, &split.per_shard)?;
        self.epoch += 1;
        Ok(PumpReport {
            committed_shards: done.published,
            staged: done.staged,
            migrations: split.migrations,
            degraded_shards: done.degraded,
        })
    }

    /// Commits every up shard's staged epoch, at once. Returns how many
    /// shards published a new policy epoch.
    ///
    /// # Errors
    /// Non-degradable commit failures, as [`RuntimeError::Shard`].
    pub fn commit_epoch(&mut self) -> Result<usize, RuntimeError> {
        let done = self.fan_out(true, &[])?;
        self.epoch += 1;
        Ok(done.published)
    }

    /// Serves one cloak request: route by residence, then the owning
    /// shard's degradation ladder.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownUser`] for unrouted senders,
    /// [`RuntimeError::ShardDown`] while the owning shard is crashed,
    /// plus everything [`ServiceRuntime::cloak_for`] can return.
    // lbs-lint: allow-item(panic-reachability, reason = "shard comes from shard_of, which only returns residence entries, and residence only ever records indices of live slots; up_shard re-checks bounds before the slot and gauge reads")
    pub fn cloak_for(
        &mut self,
        user: UserId,
        deadline: Option<Duration>,
    ) -> Result<(crate::degrade::Rung, Region), RuntimeError> {
        let Some(shard) = self.shard_of(user) else {
            return Err(RuntimeError::UnknownUser(user));
        };
        let out = self.up_shard(shard)?.cloak_for(user, deadline);
        // Serving on the fresh rung commits the shard's staged epoch;
        // keep the backlog gauge in sync with what is actually pending.
        if let Some(rt) = self.slots[shard].as_ref() {
            if rt.committed_seq() == rt.durable_seq() {
                self.staged[shard] = 0;
            }
        }
        out
    }

    /// Marks one shard crashed: its in-memory state is dropped on the
    /// floor (the WAL and checkpoints on disk are untouched). Every other
    /// shard keeps serving.
    ///
    /// # Errors
    /// An out-of-range index or a shard that is already down.
    pub fn crash_shard(&mut self, shard: usize) -> Result<(), RuntimeError> {
        self.check_shard(shard)?;
        if self.slots[shard].take().is_none() {
            return Err(RuntimeError::ShardDown { shard });
        }
        self.staged[shard] = 0;
        Ok(())
    }

    /// Recovers a crashed shard from its own directory (checkpoint + WAL
    /// replay, byte-identical to the uninterrupted run) and resyncs the
    /// routing index for its users.
    ///
    /// # Errors
    /// An index that is not down, or recovery failures.
    pub fn recover_shard(&mut self, shard: usize) -> Result<RecoveryReport, RuntimeError> {
        self.check_shard(shard)?;
        if self.slots[shard].is_some() {
            return Err(RuntimeError::AlreadyInitialized(self.shard_dir(shard)));
        }
        let region = self.plan.regions[shard];
        let (rt, report) =
            self.builder.shard_builder(region, shard).recover(&self.shard_dir(shard))?;
        self.slots[shard] = Some(rt);
        self.staged[shard] = 0;
        self.incr(Counter::ShardRecoveries);
        // Resync routing for this shard: recovery may have truncated a
        // torn WAL tail, so the recovered population is authoritative —
        // except for duplicates, which the still-up fleet wins (their
        // WALs were never damaged).
        self.residence.retain(|_, s| *s != shard);
        let users: Vec<UserId> =
            self.slots[shard].as_ref().map(|rt| rt.db().users().collect()).unwrap_or_default();
        for user in users {
            self.residence.entry(user).or_insert(shard);
        }
        self.reconciled = self.reconcile_duplicates(Some(shard))?;
        Ok(report)
    }

    /// Drains the pipeline: commits until every up shard's committed
    /// sequence equals its durable sequence. Returns commits performed.
    ///
    /// # Errors
    /// Non-degradable commit failures, as [`RuntimeError::Shard`]. A
    /// drain bypasses the degradation tolerance, so a shard stuck below
    /// population k surfaces `InsufficientPopulation` after the retry.
    pub fn drain(&mut self) -> Result<usize, RuntimeError> {
        let done = self.fan_out(false, &[])?;
        if done.published > 0 {
            self.epoch += 1;
        }
        Ok(done.published)
    }

    /// The merged committed policy over every up shard (disjoint user
    /// sets make the merge order-independent).
    pub fn merged_policy(&self) -> BulkPolicy {
        merge_policies(self.slots.iter().flatten().map(|rt| rt.committed_policy()))
    }

    /// The merged live database over every up shard, rows in canonical
    /// (user id) order — shard-local churn history does not leak into
    /// the merged row order.
    ///
    /// # Errors
    /// Duplicate users across shards — recovery reconciliation (see
    /// [`reconciled_purges`](Self::reconciled_purges)) purges the
    /// torn-migration duplicates that could otherwise cause this, so it
    /// only fires if live state diverges while every shard is up.
    pub fn merged_db(&self) -> Result<LocationDb, RuntimeError> {
        let mut rows: Vec<(UserId, Point)> =
            self.slots.iter().flatten().flat_map(|rt| rt.db().iter().collect::<Vec<_>>()).collect();
        rows.sort_by_key(|(user, _)| *user);
        LocationDb::from_rows(rows).map_err(RuntimeError::Model)
    }

    /// Exact aggregate cost of the merged committed policy.
    pub fn aggregate_cost(&self) -> u128 {
        self.merged_policy().cost_exact().unwrap_or(0)
    }

    /// Scrubs every up shard's checkpoint lineage (CRC re-verification
    /// plus quarantine); down shards are skipped — their directories are
    /// scrubbed by the recovery path when they come back. Returns one
    /// report per shard (`None` for down shards).
    ///
    /// # Errors
    /// I/O failures on any shard (corruption itself is reported, not an
    /// error).
    pub fn scrub(&mut self) -> Result<Vec<Option<ScrubReport>>, RuntimeError> {
        let mut reports = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter_mut() {
            reports.push(match slot.as_mut() {
                Some(rt) => Some(rt.scrub()?),
                None => None,
            });
        }
        Ok(reports)
    }

    /// Runs bounded-retention GC on every up shard (a per-shard no-op
    /// under unbounded retention). Returns one report per shard (`None`
    /// for down shards).
    ///
    /// # Errors
    /// I/O failures on any shard.
    pub fn gc(&mut self) -> Result<Vec<Option<GcReport>>, RuntimeError> {
        let mut reports = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter_mut() {
            reports.push(match slot.as_mut() {
                Some(rt) => Some(rt.gc()?),
                None => None,
            });
        }
        Ok(reports)
    }

    /// Whether every shard is up.
    pub fn all_up(&self) -> bool {
        self.slots.iter().all(|s| s.is_some())
    }

    /// Staged (uncommitted) update count of one shard.
    pub fn staged_on(&self, shard: usize) -> usize {
        self.staged.get(shard).copied().unwrap_or(0)
    }
}

/// How one shard's commit went in a [`Step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Commit {
    /// Nothing was staged since the last commit.
    UpToDate,
    /// A new policy epoch was published.
    Published,
    /// The population is below k: the shard keeps serving degraded and
    /// its staged rows wait for a later attempt.
    Degraded,
}

/// One shard's share of a cycle: commit the staged epoch, then durably
/// stage a slice. A failed commit stages nothing.
#[derive(Debug)]
struct Step {
    /// The commit's outcome; `None` when it failed.
    commit: Option<Commit>,
    /// Whether the slice was durably staged.
    staged: bool,
    /// The failure that ended the step.
    error: Option<RuntimeError>,
}

impl Step {
    /// Runs one shard's step. `tolerant` turns a population below k into
    /// [`Commit::Degraded`] instead of a failure.
    fn run(rt: &mut ServiceRuntime, tolerant: bool, slice: &[UserUpdate]) -> Step {
        let commit = if rt.committed_seq() == rt.durable_seq() {
            // A serve may have freshened the shard since the last cycle
            // (cloak_for commits staged work to answer on the fresh rung).
            Commit::UpToDate
        } else {
            match rt.commit() {
                Ok(_) => Commit::Published,
                Err(RuntimeError::Core(CoreError::InsufficientPopulation { .. })) if tolerant => {
                    Commit::Degraded
                }
                Err(e) => return Step { commit: None, staged: false, error: Some(e) },
            }
        };
        let error = if slice.is_empty() { None } else { rt.apply_batch(slice).err() };
        Step { commit: Some(commit), staged: !slice.is_empty() && error.is_none(), error }
    }
}

/// What a fan-out did across the fleet.
#[derive(Debug, Default)]
struct FanOut {
    /// Shards that published a commit.
    published: usize,
    /// Shards that held staged rows but published nothing (population
    /// below k), ascending.
    degraded: Vec<usize>,
    /// Updates durably staged.
    staged: usize,
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("dir", &self.dir)
            .field("shards", &self.plan.len())
            .field("epoch", &self.epoch)
            .field("up", &self.slots.iter().filter(|s| s.is_some()).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use lbs_model::{encode_policy, Move};
    use lbs_workload::derive_seed;

    const SIDE: i64 = 64;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lbs-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_db(seed: u64, users: usize) -> LocationDb {
        LocationDb::from_rows((0..users).map(|i| {
            let i = i as u64;
            (
                UserId(i),
                Point::new(
                    (derive_seed(seed, 2 * i) % SIDE as u64) as i64,
                    (derive_seed(seed, 2 * i + 1) % SIDE as u64) as i64,
                ),
            )
        }))
        .unwrap()
    }

    fn builder(shards: usize) -> ShardedBuilder {
        ShardedBuilder::new(ShardedConfig::new(4, Rect::square(0, 0, SIDE), shards))
            .clock(Arc::new(ManualClock::new()))
    }

    fn moves(db: &LocationDb, seed: u64, round: u64, count: usize) -> Vec<UserUpdate> {
        let users: Vec<UserId> = db.users().collect();
        (0..count)
            .map(|j| {
                let j = j as u64;
                let pick = derive_seed(seed, round * 131 + j) as usize % users.len();
                UserUpdate::Move(Move {
                    user: users[pick],
                    to: Point::new(
                        (derive_seed(seed, round * 131 + 40 + j) % SIDE as u64) as i64,
                        (derive_seed(seed, round * 131 + 80 + j) % SIDE as u64) as i64,
                    ),
                })
            })
            .filter({
                // One update per user per batch (validate_updates rejects dups).
                let mut seen = std::collections::BTreeSet::new();
                move |u| seen.insert(u.user())
            })
            .collect()
    }

    #[test]
    fn create_pump_recover_round_trip() {
        let dir = tmp_dir("roundtrip");
        let db = seeded_db(21, 96);
        let mut rt = builder(2).create(&dir, &db).unwrap();
        assert_eq!(rt.shard_count(), 2);
        let mut mirror = db.clone();
        for round in 0..4u64 {
            let batch = moves(&mirror, 77, round, 6);
            mirror.apply_updates(&batch).unwrap();
            rt.pump(&batch).unwrap();
        }
        rt.drain().unwrap();
        let merged = rt.merged_db().unwrap();
        assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            mirror.iter().collect::<Vec<_>>(),
            "sharded db drifts from the mirror"
        );
        let policy_before = encode_policy(&rt.merged_policy());
        drop(rt);
        let (recovered, reports) = builder(2).recover(&dir).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(encode_policy(&recovered.merged_policy()), policy_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_isolates_and_recovers() {
        let dir = tmp_dir("crash");
        let db = seeded_db(5, 96);
        let mut rt = builder(2).create(&dir, &db).unwrap();
        let mut mirror = db.clone();
        let batch = moves(&mirror, 9, 0, 5);
        mirror.apply_updates(&batch).unwrap();
        rt.pump(&batch).unwrap();

        rt.crash_shard(1).unwrap();
        assert!(rt.shard(1).is_none());
        // Shard 0 still serves while 1 is down; a fresh serve commits its
        // staged slice, so capture the policy after it settles.
        let on_zero = *rt.residence().iter().find(|(_, s)| **s == 0).unwrap().0;
        rt.cloak_for(on_zero, None).unwrap();
        let other_policy = encode_policy(rt.shard(0).unwrap().committed_policy());
        // Users on shard 1 are refused, not wedged.
        let on_one = *rt.residence().iter().find(|(_, s)| **s == 1).unwrap().0;
        assert!(matches!(rt.cloak_for(on_one, None), Err(RuntimeError::ShardDown { shard: 1 })));
        let report = rt.recover_shard(1).unwrap();
        assert!(report.replayed >= 1, "staged batch must replay");
        assert_eq!(
            encode_policy(rt.shard(0).unwrap().committed_policy()),
            other_policy,
            "recovering shard 1 must not touch shard 0"
        );
        rt.cloak_for(on_one, None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_forces_a_drain_commit() {
        let dir = tmp_dir("admission");
        let db = seeded_db(31, 96);
        let mut cfg = ShardedConfig::new(4, Rect::square(0, 0, SIDE), 2);
        cfg.admission_limit = 4;
        let mut rt =
            ShardedBuilder::new(cfg).clock(Arc::new(ManualClock::new())).create(&dir, &db).unwrap();
        let mut mirror = db.clone();
        let mut forced = 0;
        for round in 0..6u64 {
            let batch = moves(&mirror, 55, round, 6);
            mirror.apply_updates(&batch).unwrap();
            forced += rt.ingest(&batch).unwrap().forced_commits;
        }
        assert!(forced > 0, "a 4-update window must force at least one drain");
        assert!((0..rt.shard_count()).all(|i| rt.staged_on(i) <= 2 * 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_migration_duplicate_is_reconciled_on_recovery() {
        let dir = tmp_dir("torn-migration");
        let db = seeded_db(13, 96);
        let mut rt = builder(2).create(&dir, &db).unwrap();
        assert_eq!(rt.shard_count(), 2);
        let regions = rt.plan().regions.clone();

        // Warm-up history so the migration's delete is not record #1.
        let mut mirror = db.clone();
        let batch = moves(&mirror, 41, 0, 6);
        mirror.apply_updates(&batch).unwrap();
        rt.pump(&batch).unwrap();
        rt.drain().unwrap();

        // Migrate one user from shard 0 into shard 1's region.
        let mover = *rt.residence().iter().find(|(_, s)| **s == 0).unwrap().0;
        let target = (0..SIDE)
            .flat_map(|x| (0..SIDE).map(move |y| Point::new(x, y)))
            .find(|p| regions[1].contains(p))
            .unwrap();
        let report = rt.pump(&[UserUpdate::Move(Move { user: mover, to: target })]).unwrap();
        assert_eq!(report.migrations, 1);
        rt.drain().unwrap();
        assert_eq!(rt.shard_of(mover), Some(1));
        drop(rt);

        // Tear shard 0's WAL tail so its half of the migration — the
        // delete — is lost while shard 1's insert stays durable.
        let wal = shard_dir(&dir, 0).join(crate::wal::WAL_FILE);
        let raw = std::fs::read(&wal).unwrap();
        let (records, _) = crate::wal::scan(&raw);
        let idx = records
            .iter()
            .rposition(|r| {
                r.updates.iter().any(|u| matches!(u, UserUpdate::Delete { user } if *user == mover))
            })
            .expect("shard 0 logged the migration delete");
        let cut = if idx == 0 { 0 } else { records[idx - 1].end_offset };
        std::fs::write(&wal, &raw[..cut as usize]).unwrap();

        let (mut recovered, _) = builder(2).recover(&dir).unwrap();
        assert_eq!(
            recovered.reconciled_purges().iter().sum::<usize>(),
            1,
            "exactly the torn duplicate is purged"
        );
        // Whole-fleet recovery has no cross-WAL ordering oracle; the
        // keeper rule settles on shard 0's (stale, in-region) copy.
        assert_eq!(recovered.shard_of(mover), Some(0));
        let merged = recovered.merged_db().expect("reconciliation restores a mergeable fleet");
        assert_eq!(merged.iter().filter(|(u, _)| *u == mover).count(), 1);
        recovered.drain().unwrap();
        assert!(recovered.aggregate_cost() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file under `dir`, by name.
    fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                (
                    path.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect()
    }

    /// Drives a fleet through seeded pumps and drains while a plain
    /// runtime per shard is fed that shard's slices, and asserts every
    /// shard ends byte-identical to its plain twin: committed policy,
    /// WAL and checkpoint files. The ring head rotates every cycle, so
    /// at 3 shards each shard settles first, middle and last in turn.
    fn assert_shards_match_plain_runtimes(tag: &str, shards: usize) {
        let dir = tmp_dir(tag);
        let db = seeded_db(17, 160);
        let mut cfg = ShardedConfig::new(4, Rect::square(0, 0, SIDE), shards);
        cfg.checkpoint_every = 2;
        let mut sharded = ShardedBuilder::new(cfg)
            .clock(Arc::new(ManualClock::new()))
            .create(&dir.join("sharded"), &db)
            .unwrap();
        assert_eq!(sharded.shard_count(), shards);
        let regions = sharded.plan().regions.clone();
        let plain_dir = |i: usize| dir.join(format!("plain-{i}"));
        let mut plain: Vec<ServiceRuntime> = regions
            .iter()
            .enumerate()
            .map(|(i, region)| {
                let rows: Vec<_> = db.iter().filter(|(_, p)| region.contains(p)).collect();
                RuntimeBuilder::new(cfg.runtime_config(*region))
                    .clock(Arc::new(ManualClock::new()))
                    .create(&plain_dir(i), &LocationDb::from_rows(rows).unwrap())
                    .unwrap()
            })
            .collect();
        // What one cycle does to a shard: commit what is staged, then
        // stage the slice.
        let step = |rt: &mut ServiceRuntime, slice: &[UserUpdate]| {
            if rt.committed_seq() != rt.durable_seq() {
                rt.commit().unwrap();
            }
            if !slice.is_empty() {
                rt.apply_batch(slice).unwrap();
            }
        };
        let mut mirror = db.clone();
        for round in 0..7u64 {
            let batch = moves(&mirror, 23, round, 8);
            mirror.apply_updates(&batch).unwrap();
            let split = sharded.plan().split_updates(sharded.residence(), &batch).unwrap();
            sharded.pump(&batch).unwrap();
            for (rt, slice) in plain.iter_mut().zip(&split.per_shard) {
                step(rt, slice);
            }
            if round % 3 == 2 {
                sharded.drain().unwrap();
                plain.iter_mut().for_each(|rt| step(rt, &[]));
            }
        }
        sharded.drain().unwrap();
        plain.iter_mut().for_each(|rt| step(rt, &[]));
        for (i, twin) in plain.iter().enumerate() {
            let shard = sharded.shard(i).unwrap();
            assert_eq!(
                encode_policy(shard.committed_policy()),
                encode_policy(twin.committed_policy()),
                "shard {i}: committed policy differs from its plain twin"
            );
            assert_eq!(
                dir_files(&sharded.shard_dir(i)),
                dir_files(&plain_dir(i)),
                "shard {i}: WAL or checkpoint files differ from its plain twin"
            );
        }
        assert_eq!(
            sharded.merged_db().unwrap().iter().collect::<Vec<_>>(),
            mirror.iter().collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_shard_pump_matches_plain_runtime() {
        assert_shards_match_plain_runtimes("single", 1);
    }

    #[test]
    fn concurrent_shards_match_plain_runtimes() {
        assert_shards_match_plain_runtimes("three", 3);
    }

    #[test]
    fn a_failing_shard_is_named_and_the_rest_of_the_fleet_settles() {
        let dir = tmp_dir("shard-fault");
        let db = seeded_db(29, 96);
        // Every attempt at shard 1's first commit (epoch 2) panics.
        let mut rt =
            builder(2).shard_faults(1, FaultPlan::new().panic_on(2, 99)).create(&dir, &db).unwrap();
        let mut mirror = db.clone();
        let first = moves(&mirror, 61, 0, 8);
        mirror.apply_updates(&first).unwrap();
        rt.pump(&first).unwrap();
        assert!(rt.staged_on(0) > 0 && rt.staged_on(1) > 0, "both shards must stage");
        let plan = rt.plan().clone();
        let second: Vec<UserUpdate> = moves(&mirror, 61, 1, 24)
            .into_iter()
            .filter(|u| match u {
                UserUpdate::Move(m) => {
                    rt.shard_of(m.user) == Some(0) && plan.route_point(&m.to) == Some(0)
                }
                _ => false,
            })
            .collect();
        assert!(!second.is_empty());
        mirror.apply_updates(&second).unwrap();
        let staged_on_one = rt.staged_on(1);
        let seq0 = rt.shard(0).unwrap().durable_seq();

        match rt.pump(&second) {
            Err(RuntimeError::Shard { shard: 1, source }) => {
                assert!(matches!(*source, RuntimeError::RetriesExhausted { .. }), "{source}");
            }
            other => panic!("a failing shard must be named, got {other:?}"),
        }
        // Shard 0 committed the first epoch and staged the second, and the
        // fleet's books agree with its database.
        let zero = rt.shard(0).unwrap();
        assert_eq!(zero.committed_seq(), seq0);
        assert_eq!(zero.durable_seq(), seq0 + 1);
        assert_eq!(rt.staged_on(0), second.len());
        assert!(zero.db().users().all(|user| rt.shard_of(user) == Some(0)));
        // Shard 1 neither committed nor staged.
        assert_eq!(rt.staged_on(1), staged_on_one);
        assert_ne!(rt.shard(1).unwrap().committed_seq(), rt.shard(1).unwrap().durable_seq());
        assert_eq!(
            rt.merged_db().unwrap().iter().collect::<Vec<_>>(),
            mirror.iter().collect::<Vec<_>>(),
            "the fleet must hold exactly what it accepted"
        );
        // A drain fails the same way and names the same shard.
        assert!(matches!(rt.drain(), Err(RuntimeError::Shard { shard: 1, .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn with_every_shard_failing_the_ring_head_is_named() {
        let dir = tmp_dir("ring-fault");
        let db = seeded_db(29, 96);
        let panics = FaultPlan::new().panic_on(2, 99);
        let mut rt = builder(2)
            .shard_faults(0, panics.clone())
            .shard_faults(1, panics)
            .create(&dir, &db)
            .unwrap();
        rt.pump(&moves(&db, 61, 0, 8)).unwrap();
        assert_eq!(rt.epoch(), 1);
        // Epoch 1 puts shard 1 at the ring head; a failed cycle does not
        // advance the epoch, so every retry names it too.
        assert!(matches!(rt.pump(&[]), Err(RuntimeError::Shard { shard: 1, .. })));
        assert!(matches!(rt.commit_epoch(), Err(RuntimeError::Shard { shard: 1, .. })));
        assert!(matches!(rt.drain(), Err(RuntimeError::Shard { shard: 1, .. })));
        assert_eq!(rt.epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The manifest publish protocol (temp + fsync + rename) means a
    /// crash mid-store leaves either the old manifest or the new one.
    /// A leftover `.tmp` next to an intact manifest must not confuse
    /// recovery; a torn manifest *body* must fail loudly and typed,
    /// naming the manifest — and restoring the intact bytes heals it.
    #[test]
    fn torn_manifest_recovers_or_fails_loud() {
        let dir = tmp_dir("torn-manifest");
        let db = seeded_db(33, 96);
        let rt = builder(2).create(&dir, &db).unwrap();
        let reference = encode_policy(&rt.merged_policy());
        drop(rt);
        let manifest = dir.join(crate::router::MANIFEST_FILE);
        let intact = std::fs::read(&manifest).unwrap();

        // Crash after writing the temp but before the rename: the old
        // manifest still routes the fleet; the stale temp is ignored.
        let tmp = dir.join(format!("{}.tmp", crate::router::MANIFEST_FILE));
        std::fs::write(&tmp, &intact[..intact.len() / 2]).unwrap();
        let (rt, reports) = builder(2).recover(&dir).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(encode_policy(&rt.merged_policy()), reference);
        drop(rt);
        std::fs::remove_file(&tmp).unwrap();

        // A torn manifest body (truncated mid-line, as a non-atomic
        // writer would leave it) is a typed error naming the manifest.
        std::fs::write(&manifest, &intact[..intact.len() / 2]).unwrap();
        match builder(2).recover(&dir) {
            Err(RuntimeError::CorruptCheckpoint { path, message }) => {
                assert_eq!(path, manifest, "error must name the manifest");
                assert!(message.contains("manifest"), "{message}");
            }
            other => panic!("torn manifest must be CorruptCheckpoint, got {other:?}"),
        }

        // Restoring the intact bytes (what the atomic rename guarantees
        // survives) heals the fleet completely.
        std::fs::write(&manifest, &intact).unwrap();
        let (rt, _) = builder(2).recover(&dir).unwrap();
        assert_eq!(encode_policy(&rt.merged_policy()), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
