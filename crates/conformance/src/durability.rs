//! The durability oracle: one seeded sweep proving that no crash, torn
//! write, disk fault, or media rot makes the service serve a policy other
//! than the committed one.
//!
//! A clean reference run fixes the committed policy bytes at every WAL
//! sequence number (`per_seq`) and, through a probing
//! [`FaultFs`](lbs_runtime::FaultFs), the storage-operation indices of
//! every WAL frame and checkpoint. Each sweep point then replays the same
//! history through [`run_lives`]: a [`DiskFaultPlan`] injects the fault,
//! every storage failure kills the process model, the next life recovers,
//! and every recovery — plus a final restart of the finished run —
//! must be **bit-identical** (`encode_policy` bytes) to the reference at
//! the recovered durable sequence. Four phases, one master seed:
//!
//! 1. **Named crash plans** — the disk states of a crash, each produced
//!    by the storage seam rather than by editing files:
//!
//!    | Plan | Fault |
//!    |---|---|
//!    | `wal-boundary` | `crash_after` creation or a record's sync |
//!    | `wal-tear` | `short_write` of a frame (1, len/2, len−1 bytes) + `crash_after` that write, so the rollback fails and the tear stays |
//!    | `torn-tmp` | `short_write` of a checkpoint temp write + `crash_after` it |
//!    | `corrupt-newest` | `crash_after` the record past a generation; the recovery backend `bit_rot`s it, so recovery falls back one generation |
//!
//! 2. **Seeded fault plans** — [`DiskFaultPlan::seeded`] lives: short
//!    writes, fsync and rename failures, ENOSPC budgets (which must shed
//!    as a typed [`RuntimeError::StorageExhausted`]), bit-rot, crash
//!    points. Even points run bounded retention so GC and WAL pruning are
//!    proven never to prune a suffix a later recovery needs.
//! 3. **Rot and self-healing** — on-disk rot of real artifacts: fallback,
//!    scrub quarantine, loud total loss, WAL prefix recovery, and GC
//!    suffix safety.
//! 4. **Sharded victims** — the named plans and seeded plans on one victim
//!    shard via [`ShardedBuilder::shard_storage`]; the victim recovers its
//!    durable prefix bit-identically while every survivor recovers
//!    bit-identical to its full reference state. A victim may instead
//!    fail loudly only with a typed error naming it: `NoState` when it
//!    crashed before its first checkpoint was published, or — when its
//!    recovery backend rots every checkpoint — a checkpoint loss after
//!    which a repaired backend must recover every shard in full.
//!
//! Recovered states are also audited with the full oracle stack
//! (`verify_policy_aware` plus the PRE-enumerating attacker) on a sampled
//! schedule, and [`audit_degradation_ladder`] audits every rung of the
//! degradation ladder the same way.

use bytes::Bytes;
use lbs_attack::audit_policy;
use lbs_core::{verify_policy_aware, Anonymizer};
use lbs_geom::{Point, Rect};
use lbs_metrics::{Counter, Metrics};
use lbs_model::{encode_policy, LocationDb, Move, UserId, UserUpdate};
use lbs_runtime::{
    checkpoint_path, list_checkpoints, real_fs, scan, DiskFaultPlan, FaultFs, ManualClock, Rung,
    RuntimeBuilder, RuntimeConfig, RuntimeError, ServiceRuntime, ShardedBuilder, ShardedConfig,
    ShardedRuntime, StorageBackend, WAL_FILE,
};
use lbs_workload::derive_seed;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The four named crash plans, each replacing one hand-built crash state.
const NAMED_PLANS: [&str; 4] = ["wal-boundary", "wal-tear", "torn-tmp", "corrupt-newest"];

/// Parameters of one durability sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// Master seed deriving populations, churn, and every fault plan.
    pub seed: u64,
    /// Single-runtime population; the sharded fleet holds twice as many.
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// Churn batches (one WAL record and commit each) in every history.
    pub rounds: u64,
    /// Checkpoint cadence (commits per checkpoint).
    pub checkpoint_every: u64,
    /// Seeded fault-plan points.
    pub fault_points: usize,
    /// On-disk rot and self-healing points.
    pub rot_points: usize,
    /// Sharded-victim points: half named plans, half seeded (0 skips the
    /// sharded phase).
    pub shard_points: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            seed: 0x5EED_C4A5,
            users: 48,
            k: 4,
            rounds: 13,
            checkpoint_every: 3,
            fault_points: 140,
            rot_points: 30,
            shard_points: 80,
        }
    }
}

/// What one durability sweep covered and found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DurabilityReport {
    /// The sweep's configuration (replay with `lbs recovery-smoke`).
    pub config: DurabilityConfig,
    /// Shards the sharded plan produced (0 when the phase did not run).
    pub shards: usize,
    /// Points run per plan: the [`NAMED_PLANS`], `seeded`, `rot`, and
    /// the sharded phase's `sharded/…` names.
    pub points: BTreeMap<String, usize>,
    /// Longest WAL replay any single-runtime recovery needed.
    pub max_replay: usize,
    /// Longest WAL replay any sharded victim's recovery needed.
    pub shard_max_replay: usize,
    /// Recoveries performed (each checked bit-identical).
    pub restarts: usize,
    /// Injected failures that surfaced as loud typed errors.
    pub loud_failures: usize,
    /// ENOSPC sheds observed (typed `StorageExhausted`).
    pub sheds: usize,
    /// Recovered states audited with the PRE-enumerating attacker.
    pub attacker_audits: usize,
    /// Final [`Counter::ScrubsRun`].
    pub scrubs_run: u64,
    /// Final [`Counter::CorruptFilesQuarantined`].
    pub corrupt_files_quarantined: u64,
    /// Final [`Counter::WalSegmentsPruned`].
    pub wal_segments_pruned: u64,
    /// Final [`Counter::EnospcSheds`].
    pub enospc_sheds: u64,
    /// Final [`Counter::GenerationFallbacks`].
    pub generation_fallbacks: u64,
    /// Divergence or oracle violations, each naming its point.
    pub failures: Vec<String>,
}

impl DurabilityReport {
    /// Every point recovered bit-identically or failed loudly and typed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Points run under plan `name` (0 if none).
    pub fn count(&self, name: &str) -> usize {
        self.points.get(name).copied().unwrap_or(0)
    }

    /// Points run under the single-runtime [`NAMED_PLANS`].
    pub fn named_points(&self) -> usize {
        NAMED_PLANS.iter().map(|name| self.count(name)).sum()
    }

    fn record(&mut self, name: &str, label: &str, outcome: Result<usize, String>) {
        *self.points.entry(name.to_string()).or_insert(0) += 1;
        let max = if name.starts_with("sharded/") {
            &mut self.shard_max_replay
        } else {
            &mut self.max_replay
        };
        match outcome {
            Ok(replayed) => *max = (*max).max(replayed),
            Err(message) => self.failures.push(format!("{name} {label}: {message}")),
        }
    }

    fn absorb(&mut self, log: &LifeLog) {
        self.restarts += log.restarts;
        self.loud_failures += log.loud;
        self.sheds += log.sheds;
    }
}

impl std::fmt::Display for DurabilityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "durability sweep: {} points under seed {} ({} shards), max replay {} records \
             ({} sharded), {} restarts, {} loud failures, {} sheds, {} attacker audits — {}",
            self.points.values().sum::<usize>(),
            self.config.seed,
            self.shards,
            self.max_replay,
            self.shard_max_replay,
            self.restarts,
            self.loud_failures,
            self.sheds,
            self.attacker_audits,
            if self.is_clean() { "all bit-identical or loud" } else { "FAILURES" },
        )?;
        let per_plan: Vec<String> =
            self.points.iter().map(|(name, n)| format!("{name} {n}")).collect();
        writeln!(f, "  plans: {}", per_plan.join(", "))?;
        writeln!(
            f,
            "  counters: scrubs {} quarantined {} wal-pruned {} enospc-sheds {} \
             generation-fallbacks {}",
            self.scrubs_run,
            self.corrupt_files_quarantined,
            self.wal_segments_pruned,
            self.enospc_sheds,
            self.generation_fallbacks,
        )?;
        for failure in &self.failures {
            writeln!(f, "  FAIL {failure}")?;
        }
        Ok(())
    }
}

const SIDE: i64 = 64;

/// Shards the sharded phase asks for (the plan may settle on fewer).
const SHARDS: usize = 2;

fn seeded_db(seed: u64, users: usize) -> Result<LocationDb, String> {
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
    .map_err(|e| format!("seeded db: {e:?}"))
}

/// One deterministic churn batch: a few moves, an occasional insert, an
/// occasional delete — every choice derived from `(seed, round)`.
fn churn_batch(
    seed: u64,
    round: u64,
    present: &mut Vec<UserId>,
    next_id: &mut u64,
) -> Vec<UserUpdate> {
    let mut batch: Vec<UserUpdate> = Vec::new();
    for j in 0..4u64 {
        let pick = derive_seed(seed, round * 97 + j) as usize % present.len();
        let user = present[pick];
        if batch.iter().any(|u| u.user() == user) {
            continue;
        }
        batch.push(UserUpdate::Move(Move {
            user,
            to: Point::new(
                (derive_seed(seed, round * 97 + 10 + j) % SIDE as u64) as i64,
                (derive_seed(seed, round * 97 + 20 + j) % SIDE as u64) as i64,
            ),
        }));
    }
    if round.is_multiple_of(3) {
        let at = Point::new(
            (derive_seed(seed, round * 97 + 30) % SIDE as u64) as i64,
            (derive_seed(seed, round * 97 + 31) % SIDE as u64) as i64,
        );
        batch.push(UserUpdate::Insert { user: UserId(*next_id), at });
        present.push(UserId(*next_id));
        *next_id += 1;
    }
    if round % 4 == 1 && present.len() > 24 {
        if let Some(&victim) = present.iter().find(|u| !batch.iter().any(|b| b.user() == **u)) {
            batch.push(UserUpdate::Delete { user: victim });
            present.retain(|&u| u != victim);
        }
    }
    batch
}

/// `rounds` churn batches over `db0`, fresh ids starting past its largest.
fn history(seed: u64, db0: &LocationDb, rounds: u64) -> Vec<Vec<UserUpdate>> {
    let mut present: Vec<UserId> = db0.users().collect();
    let mut next_id = present.iter().map(|u| u.0 + 1).max().unwrap_or(0);
    (0..rounds).map(|round| churn_batch(seed, round, &mut present, &mut next_id)).collect()
}

fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", from.display()))?;
        let src = entry.path();
        let dst = to.join(entry.file_name());
        let kind = entry.file_type().map_err(|e| format!("stat {}: {e}", src.display()))?;
        if kind.is_dir() {
            copy_tree(&src, &dst)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|e| format!("copy {}: {e}", src.display()))?;
        }
    }
    Ok(())
}

/// Flips one seed-derived bit of `path` in place (media rot).
fn rot_file(path: &Path, seed: u64) -> Result<(), String> {
    let mut raw = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if raw.is_empty() {
        return Err(format!("{} is empty, nothing to rot", path.display()));
    }
    let at = (seed as usize) % raw.len();
    raw[at] ^= 1 << ((seed >> 17) % 8);
    std::fs::write(path, &raw).map_err(|e| format!("rot {}: {e}", path.display()))
}

/// Audits a recovered state with the full oracle stack: structural
/// verification plus the PRE-enumerating attacker over the committed
/// population. Self-healing must never buy durability back at the cost
/// of an anonymity breach.
fn attacker_audit(rt: &ServiceRuntime, k: usize) -> Result<(), String> {
    verify_policy_aware(rt.committed_policy(), rt.db(), k)
        .map_err(|v| format!("recovered policy: {} verify violations", v.len()))?;
    let breaches = audit_policy(rt.committed_policy(), rt.db(), k);
    if !breaches.is_empty() {
        return Err(format!("attacker breached {} cloaks on the recovered policy", breaches.len()));
    }
    Ok(())
}

/// Whether the WAL in `dir` ends in a torn or corrupt tail.
fn wal_torn(dir: &Path) -> bool {
    std::fs::read(dir.join(WAL_FILE)).is_ok_and(|raw| scan(&raw).1 < raw.len() as u64)
}

/// Storage-operation positions in a reference lineage: where the named
/// plans aim their short writes and crash points.
#[derive(Debug, Clone, Default)]
struct Marks {
    /// Operation index once creation finished.
    created: u64,
    /// Per WAL record, in sequence order: the frame's write index, that
    /// write's operation index, and the operation index of its sync.
    records: Vec<(u64, u64, u64)>,
    /// Per checkpoint published after creation: its sequence number, the
    /// temp write's write and operation indices, and the file length.
    checkpoints: Vec<(u64, u64, u64, usize)>,
}

impl Marks {
    /// Records one history step from `(ops, writes)` probe readings:
    /// `before` → `mid` is the WAL append, `mid` → `after` the commit.
    fn step(
        &mut self,
        before: (u64, u64),
        mid: (u64, u64),
        after: (u64, u64),
        dir: &Path,
    ) -> Result<(), String> {
        if mid.1 > before.1 {
            self.records.push((before.1 + 1, before.0 + 1, mid.0));
        }
        if after.1 > mid.1 {
            // A checkpoint is create, write, sync, rename.
            let seq = self.records.len() as u64;
            let path = checkpoint_path(dir, seq);
            let len = std::fs::metadata(&path)
                .map_err(|e| format!("stat {}: {e}", path.display()))?
                .len() as usize;
            self.checkpoints.push((seq, mid.1 + 1, mid.0 + 2, len));
        }
        Ok(())
    }
}

/// `(ops, writes)` of a probing backend.
fn reading(probe: &FaultFs) -> (u64, u64) {
    (probe.ops(), probe.writes())
}

/// One runtime's reference artifacts.
#[derive(Debug, Clone)]
struct Lineage {
    /// `per_seq[n]`: committed policy bytes once records 1..=n are durable.
    per_seq: Vec<Bytes>,
    /// The WAL bytes.
    wal: Vec<u8>,
    /// Checkpoint generations, oldest first.
    gens: Vec<u64>,
    marks: Marks,
}

impl Lineage {
    fn read(dir: &Path, per_seq: Vec<Bytes>, marks: Marks) -> Result<Lineage, String> {
        let wal = std::fs::read(dir.join(WAL_FILE)).map_err(|e| format!("read wal: {e}"))?;
        let (records, valid_len) = scan(&wal);
        if valid_len != wal.len() as u64
            || records.len() != marks.records.len()
            || records.len() + 1 != per_seq.len()
        {
            return Err(format!(
                "reference wal inconsistent: {valid_len} valid of {} bytes, {} records, \
                 {} marked, {} committed",
                wal.len(),
                records.len(),
                marks.records.len(),
                per_seq.len()
            ));
        }
        let mut gens: Vec<u64> = list_checkpoints(dir)
            .map_err(|e| format!("list checkpoints: {e}"))?
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        gens.sort_unstable();
        Ok(Lineage { per_seq, wal, gens, marks })
    }
}

/// A clean single-runtime reference run: the history every sweep point
/// replays, the committed policy at every durable sequence, the WAL
/// bytes, and the checkpoint generations.
#[derive(Debug, Clone)]
pub struct Reference {
    dir: PathBuf,
    db0: LocationDb,
    batches: Vec<Vec<UserUpdate>>,
    k: usize,
    checkpoint_every: u64,
    lineage: Lineage,
}

impl Reference {
    /// Runs `rounds` seeded churn batches over `db0` in `dir` (which the
    /// caller disposes of), one commit each.
    ///
    /// # Errors
    /// A message when the clean run itself fails.
    pub fn single(
        dir: &Path,
        db0: &LocationDb,
        seed: u64,
        k: usize,
        rounds: u64,
        checkpoint_every: u64,
    ) -> Result<Reference, String> {
        let _ = std::fs::remove_dir_all(dir);
        let batches = history(seed, db0, rounds);
        let probe = FaultFs::new(DiskFaultPlan::new());
        let storage = Arc::new(probe.clone());
        let mut rt = runtime_builder(k, checkpoint_every, storage, None, &Arc::new(Metrics::new()))
            .create(dir, db0)
            .map_err(|e| format!("create reference: {e}"))?;
        let mut marks = Marks { created: probe.ops(), ..Marks::default() };
        let mut per_seq = vec![encode_policy(rt.committed_policy())];
        for batch in &batches {
            let before = reading(&probe);
            rt.apply_batch(batch).map_err(|e| format!("reference apply: {e}"))?;
            let mid = reading(&probe);
            rt.commit().map_err(|e| format!("reference commit: {e}"))?;
            marks.step(before, mid, reading(&probe), dir)?;
            per_seq.push(encode_policy(rt.committed_policy()));
        }
        drop(rt);
        Ok(Reference {
            dir: dir.to_path_buf(),
            db0: db0.clone(),
            batches,
            k,
            checkpoint_every,
            lineage: Lineage::read(dir, per_seq, marks)?,
        })
    }

    fn builder(
        &self,
        storage: Arc<dyn StorageBackend>,
        retain: Option<usize>,
        metrics: &Arc<Metrics>,
    ) -> RuntimeBuilder {
        runtime_builder(self.k, self.checkpoint_every, storage, retain, metrics)
    }
}

fn runtime_builder(
    k: usize,
    checkpoint_every: u64,
    storage: Arc<dyn StorageBackend>,
    retain: Option<usize>,
    metrics: &Arc<Metrics>,
) -> RuntimeBuilder {
    let mut rc = RuntimeConfig::new(k, Rect::square(0, 0, SIDE));
    rc.checkpoint_every = checkpoint_every;
    rc.retain_checkpoints = retain;
    RuntimeBuilder::new(rc)
        .clock(Arc::new(ManualClock::new()))
        .metrics(Arc::clone(metrics))
        .storage(storage)
}

/// One successful recovery inside a life loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovered {
    /// Durable sequence the recovery landed on.
    pub durable: u64,
    /// Checkpoint generation it started from.
    pub checkpoint_seq: u64,
    /// WAL records it replayed.
    pub replayed: usize,
    /// Whether the WAL had a torn tail when the process restarted.
    pub torn_tail: bool,
}

/// What one crash-restart life loop went through.
#[derive(Debug, Clone, Default)]
pub struct LifeLog {
    /// Recoveries attempted.
    pub restarts: usize,
    /// Lives that died with a loud typed error.
    pub loud: usize,
    /// ENOSPC sheds (typed `StorageExhausted`).
    pub sheds: usize,
    /// Every successful recovery, in order; the last is the final
    /// restart of the finished run.
    pub recoveries: Vec<Recovered>,
}

impl LifeLog {
    fn died(&mut self, e: &RuntimeError) {
        if matches!(e, RuntimeError::StorageExhausted { .. }) {
            self.sheds += 1;
        } else {
            self.loud += 1;
        }
    }

    fn max_replay(&self) -> usize {
        self.recoveries.iter().map(|r| r.replayed).max().unwrap_or(0)
    }
}

/// A life is abandoned for a cleaner storage after this many failures in
/// the seeded phase, and a life loop fails loudly after `MAX_LIVES`.
const CLEAN_AFTER: usize = 3;
const MAX_LIVES: usize = 12;

/// The crash-restart life loop: replays `reference`'s history in `dir`
/// with life `n` running on `storage(n)`. Every storage failure kills the
/// process model; the next life recovers, and the recovery must be
/// bit-identical to the reference at its durable sequence (a recovery
/// failure is tolerated, as a loud typed error, only before life
/// `clean_from`). Once the history is complete, a final restart on the
/// next clean life's storage must find all of it durable. Returns that
/// restarted runtime.
///
/// # Errors
/// The first divergence, or no progress after `MAX_LIVES` lives.
pub fn run_lives(
    dir: &Path,
    reference: &Reference,
    storage: &dyn Fn(usize) -> Arc<dyn StorageBackend>,
    clean_from: usize,
    retain: Option<usize>,
    metrics: &Arc<Metrics>,
) -> Result<(ServiceRuntime, LifeLog), String> {
    let batches = &reference.batches;
    let mut log = LifeLog::default();
    let mut created = false;
    let mut next_round = 0usize;
    for life in 0..=MAX_LIVES {
        let builder = reference.builder(storage(life), retain, metrics);
        let mut rt = if !created {
            match builder.create(dir, &reference.db0) {
                Ok(rt) => {
                    created = true;
                    rt
                }
                // A prior life crashed after durable state landed; the
                // next life recovers instead of re-creating.
                Err(RuntimeError::AlreadyInitialized(_)) => {
                    created = true;
                    continue;
                }
                Err(e) => {
                    log.died(&e);
                    continue;
                }
            }
        } else {
            match restart(dir, builder, reference, &mut log)? {
                Ok(rt) => {
                    next_round = rt.durable_seq() as usize;
                    rt
                }
                Err(e) if life >= clean_from => {
                    return Err(format!("life {life}: clean recovery failed: {e}"));
                }
                // Recovery through a still-faulty disk may itself fail —
                // loudly and typed — and the next life tries again.
                Err(_) => {
                    log.loud += 1;
                    continue;
                }
            }
        };
        if let Err(e) = advance(&mut rt, batches, &mut next_round, &mut log) {
            if let RuntimeError::StorageExhausted { path, .. } = &e {
                if path.as_os_str().is_empty() {
                    return Err(format!("life {life}: shed without naming a path"));
                }
            }
            log.died(&e);
            continue;
        }
        drop(rt);
        let final_life = reference.builder(storage((life + 1).max(clean_from)), retain, metrics);
        let rt = restart(dir, final_life, reference, &mut log)?
            .map_err(|e| format!("final restart failed: {e}"))?;
        if rt.durable_seq() != batches.len() as u64 {
            return Err(format!(
                "final restart durable at {} of {} records",
                rt.durable_seq(),
                batches.len()
            ));
        }
        return Ok((rt, log));
    }
    Err(format!("no progress after {MAX_LIVES} lives (stuck at round {next_round})"))
}

/// Recovers `dir` and checks it against the reference. The outer error
/// is a divergence; the inner one a (typed) recovery failure.
fn restart(
    dir: &Path,
    builder: RuntimeBuilder,
    reference: &Reference,
    log: &mut LifeLog,
) -> Result<Result<ServiceRuntime, RuntimeError>, String> {
    let torn_tail = wal_torn(dir);
    log.restarts += 1;
    let (rt, report) = match builder.recover(dir) {
        Ok(recovered) => recovered,
        Err(e) => return Ok(Err(e)),
    };
    let durable = rt.durable_seq();
    let expected = reference
        .lineage
        .per_seq
        .get(durable as usize)
        .ok_or_else(|| format!("recovered durable seq {durable} past the reference"))?;
    if encode_policy(rt.committed_policy()) != *expected {
        return Err(format!("policy NOT bit-identical at durable seq {durable}"));
    }
    if rt.epoch() != durable + 1 {
        return Err(format!("epoch {} != {} at durable seq {durable}", rt.epoch(), durable + 1));
    }
    log.recoveries.push(Recovered {
        durable,
        checkpoint_seq: report.checkpoint_seq,
        replayed: report.replayed,
        torn_tail,
    });
    Ok(Ok(rt))
}

/// Applies and commits the remaining batches; an error is the death of
/// the process.
fn advance(
    rt: &mut ServiceRuntime,
    batches: &[Vec<UserUpdate>],
    next_round: &mut usize,
    log: &mut LifeLog,
) -> Result<(), RuntimeError> {
    while let Some(batch) = batches.get(*next_round) {
        rt.apply_batch(batch)?;
        match rt.commit() {
            Ok(_) => {}
            // The commit landed in memory; only the checkpoint was shed.
            // The service keeps serving.
            Err(RuntimeError::StorageExhausted { .. }) => log.sheds += 1,
            Err(e) => return Err(e),
        }
        *next_round += 1;
    }
    Ok(())
}

/// What the first restart after a named plan's crash must observe.
#[derive(Debug, Clone, Default)]
struct Expect {
    /// Durable sequence it lands on (`None`: any durable prefix).
    durable: Option<u64>,
    /// Generation it starts from.
    from_gen: Option<u64>,
    /// Whether it finds a torn WAL tail (checked with `durable`).
    torn_tail: bool,
    /// A torn checkpoint temp file (`seq`, bytes kept) left on disk.
    torn_tmp: Option<(u64, usize)>,
    /// Recovery must instead fail loudly with a typed error.
    loud: bool,
}

impl Expect {
    fn check(&self, first: &Recovered, dir: &Path) -> Result<(), String> {
        if let Some(durable) = self.durable {
            if first.durable != durable {
                return Err(format!("restarted at durable seq {} not {durable}", first.durable));
            }
            if first.torn_tail != self.torn_tail {
                return Err(format!("torn WAL tail {} not {}", first.torn_tail, self.torn_tail));
            }
        }
        if let Some(from) = self.from_gen {
            if first.checkpoint_seq != from {
                return Err(format!(
                    "recovered from generation {} instead of falling back to {from}",
                    first.checkpoint_seq
                ));
            }
        }
        if let Some((seq, keep)) = self.torn_tmp {
            let tmp = checkpoint_path(dir, seq).with_extension("ckpt.tmp");
            let len = std::fs::metadata(&tmp).map(|m| m.len() as usize).unwrap_or(0);
            if len != keep {
                return Err(format!("{} holds {len} bytes, not the torn {keep}", tmp.display()));
            }
        }
        Ok(())
    }
}

/// A named crash plan on one lineage.
#[derive(Debug, Clone)]
struct NamedPlan {
    name: &'static str,
    /// Life 0's fault schedule (`None`: no life 0 — the reference's own
    /// finished state is what crashes).
    plan: Option<DiskFaultPlan>,
    /// Bit-rot of the recovery backend: file-name substring and offset.
    rot: Option<(String, u64)>,
    expect: Expect,
}

impl NamedPlan {
    fn crash(name: &'static str, plan: DiskFaultPlan, expect: Expect) -> NamedPlan {
        NamedPlan { name, plan: Some(plan), rot: None, expect }
    }

    fn recovery_storage(&self) -> Arc<dyn StorageBackend> {
        match &self.rot {
            Some((name, offset)) => {
                Arc::new(FaultFs::new(DiskFaultPlan::new().bit_rot(name, *offset)))
            }
            None => real_fs(),
        }
    }
}

/// Every named crash plan the lineage's marks can place, in record order.
fn named_plans(lineage: &Lineage, seed: u64) -> Vec<NamedPlan> {
    let marks = &lineage.marks;
    let at = |durable: u64| Expect { durable: Some(durable), ..Expect::default() };
    let mut plans = vec![NamedPlan::crash(
        "wal-boundary",
        DiskFaultPlan::new().crash_after(marks.created),
        at(0),
    )];
    let (records, _) = scan(&lineage.wal);
    let mut start = 0u64;
    for ((seq, &(write, write_op, sync_op)), record) in (1u64..).zip(&marks.records).zip(&records) {
        let len = (record.end_offset - start) as usize;
        start = record.end_offset;
        plans.push(NamedPlan::crash(
            "wal-boundary",
            DiskFaultPlan::new().crash_after(sync_op),
            at(seq),
        ));
        let mut keeps = vec![1, len / 2, len - 1];
        keeps.dedup();
        for keep in keeps {
            let plan = DiskFaultPlan::new().short_write(write, keep).crash_after(write_op);
            plans.push(NamedPlan::crash(
                "wal-tear",
                plan,
                Expect { torn_tail: true, ..at(seq - 1) },
            ));
        }
    }
    for &(seq, write, write_op, len) in &marks.checkpoints {
        for keep in [1, len / 2] {
            let plan = DiskFaultPlan::new().short_write(write, keep).crash_after(write_op);
            let expect = Expect { torn_tmp: Some((seq, keep)), ..at(seq) };
            plans.push(NamedPlan::crash("torn-tmp", plan, expect));
        }
    }
    // Crash on the record past a generation, so it is the newest on disk;
    // the recovery backend rots it and recovery must fall back one.
    for pair in lineage.gens.windows(2) {
        let (older, newest) = (pair[0], pair[1]);
        if let Some(&(_, _, sync_op)) = marks.records.get(newest as usize) {
            let mut named = NamedPlan::crash(
                "corrupt-newest",
                DiskFaultPlan::new().crash_after(sync_op),
                Expect { from_gen: Some(older), ..at(newest + 1) },
            );
            named.rot = Some((format!("checkpoint-{newest:012}"), derive_seed(seed, newest)));
            plans.push(named);
        }
    }
    plans
}

/// Picks `budget` items across `groups` as evenly as possible: each group
/// gets an equal share (capped at its size, the rest redistributed),
/// taken at evenly spaced positions so early and late records are both
/// covered.
fn spread<T: Clone>(groups: &[Vec<T>], budget: usize) -> Vec<T> {
    let mut quota = vec![0usize; groups.len()];
    let mut left = budget;
    while left > 0 {
        let before = left;
        for (q, group) in quota.iter_mut().zip(groups) {
            if left > 0 && *q < group.len() {
                *q += 1;
                left -= 1;
            }
        }
        if left == before {
            break;
        }
    }
    groups
        .iter()
        .zip(quota)
        .flat_map(|(group, q)| (0..q).map(move |j| group[j * group.len() / q].clone()))
        .collect()
}

/// One single-runtime named point: life 0 runs the plan, later lives run
/// on the plan's recovery backend.
fn run_named_point(
    scratch: &Path,
    reference: &Reference,
    named: &NamedPlan,
    metrics: &Arc<Metrics>,
    report: &mut DurabilityReport,
) -> Result<usize, String> {
    let dir = scratch.join("named");
    let _ = std::fs::remove_dir_all(&dir);
    let first: Arc<dyn StorageBackend> =
        Arc::new(FaultFs::new(named.plan.clone().unwrap_or_default()));
    let after = named.recovery_storage();
    let lives = |life: usize| Arc::clone(if life == 0 { &first } else { &after });
    let result = run_lives(&dir, reference, &lives, 1, None, metrics).and_then(|(_, log)| {
        report.absorb(&log);
        let restarted = log.recoveries.first().ok_or("the plan never restarted the run")?;
        named.expect.check(restarted, &dir)?;
        Ok(log.max_replay())
    });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The storage a seeded point's life runs under. Life 0 carries the
/// point's own plan (every seventh point forces a tight ENOSPC budget so
/// the shed rung is guaranteed coverage); later lives draw fresh seeded
/// plans; from [`CLEAN_AFTER`] on, the disk is repaired.
fn life_storage(point: usize, point_seed: u64, life: usize) -> Arc<dyn StorageBackend> {
    if life >= CLEAN_AFTER {
        real_fs()
    } else if life == 0 && point % 7 == 3 {
        Arc::new(FaultFs::new(DiskFaultPlan::new().capacity_bytes(2_048 + point_seed % 4_096)))
    } else {
        Arc::new(FaultFs::new(DiskFaultPlan::seeded(derive_seed(point_seed, life as u64))))
    }
}

/// One seeded point: the reference history under seeded fault plans.
fn run_seeded_point(
    scratch: &Path,
    reference: &Reference,
    point: usize,
    point_seed: u64,
    metrics: &Arc<Metrics>,
    report: &mut DurabilityReport,
) -> Result<usize, String> {
    let dir = scratch.join("seeded");
    let _ = std::fs::remove_dir_all(&dir);
    // Even points run bounded retention so GC and WAL pruning happen
    // mid-sweep; odd points keep every generation.
    let retain = point.is_multiple_of(2).then_some(2);
    let lives = |life: usize| life_storage(point, point_seed, life);
    let result =
        run_lives(&dir, reference, &lives, CLEAN_AFTER, retain, metrics).and_then(|(rt, log)| {
            report.absorb(&log);
            if point.is_multiple_of(10) {
                attacker_audit(&rt, reference.k)?;
                report.attacker_audits += 1;
            }
            Ok(log.max_replay())
        });
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// One rot point: on-disk rot of real artifacts, exercising generation
/// fallback, scrub quarantine, loud total-loss failure, WAL prefix
/// recovery, and GC-retention suffix safety.
fn run_rot_point(
    scratch: &Path,
    reference: &Reference,
    point: usize,
    rot_seed: u64,
    metrics: &Arc<Metrics>,
    sweep: &mut DurabilityReport,
) -> Result<usize, String> {
    let dir = scratch.join("rot");
    let _ = std::fs::remove_dir_all(&dir);
    let per_seq = &reference.lineage.per_seq;
    let gens = &reference.lineage.gens;
    let full = per_seq.len() - 1;
    let gen_path = |seq: u64| checkpoint_path(&dir, seq);
    let clean = |retain| reference.builder(real_fs(), retain, metrics);
    let (newest, second) = match gens.as_slice() {
        [.., second, newest] => (*newest, *second),
        _ => return Err("reference has fewer than two generations".into()),
    };

    let result = (|| -> Result<usize, String> {
        copy_tree(&reference.dir, &dir)?;
        sweep.restarts += 1;
        match point % 5 {
            // A rotten newest generation: recovery falls back to the
            // next older one and replays the WAL suffix bit-identically.
            0 => {
                rot_file(&gen_path(newest), rot_seed)?;
                let (rt, report) = clean(None)
                    .recover(&dir)
                    .map_err(|e| format!("fallback recovery failed: {e}"))?;
                if report.checkpoint_seq != second {
                    return Err(format!(
                        "recovered from generation {} instead of falling back to {second}",
                        report.checkpoint_seq
                    ));
                }
                if encode_policy(rt.committed_policy()) != per_seq[full] {
                    return Err("fallback recovery NOT bit-identical".into());
                }
                if point.is_multiple_of(3) {
                    attacker_audit(&rt, reference.k)?;
                    sweep.attacker_audits += 1;
                }
                Ok(report.replayed)
            }
            // Scrub quarantines the rotten generation by name; the next
            // recovery is clean and bit-identical.
            1 => {
                rot_file(&gen_path(newest), rot_seed)?;
                let (mut rt, _) = clean(None)
                    .recover(&dir)
                    .map_err(|e| format!("pre-scrub recovery failed: {e}"))?;
                let report = rt.scrub().map_err(|e| format!("scrub failed: {e}"))?;
                if report.quarantined.len() != 1 {
                    return Err(format!(
                        "scrub quarantined {} files, expected exactly the rotten newest",
                        report.quarantined.len()
                    ));
                }
                let named = report.quarantined[0].to_string_lossy().into_owned();
                if !named.contains(&format!("{newest:012}")) || !named.ends_with("quarantined") {
                    return Err(format!("quarantine path {named} does not name the victim"));
                }
                if !report.quarantined[0].exists() {
                    return Err(format!("{named} vanished — forensic bytes must be kept"));
                }
                if report.newest_verified_seq != Some(second) {
                    return Err(format!(
                        "newest verified generation {:?}, expected {second}",
                        report.newest_verified_seq
                    ));
                }
                drop(rt);
                sweep.restarts += 1;
                let (rt, report) = clean(None)
                    .recover(&dir)
                    .map_err(|e| format!("post-scrub recovery failed: {e}"))?;
                if report.checkpoint_seq != second {
                    return Err("post-scrub recovery ignored the quarantine".into());
                }
                if encode_policy(rt.committed_policy()) != per_seq[full] {
                    return Err("post-scrub recovery NOT bit-identical".into());
                }
                sweep.attacker_audits += 1;
                attacker_audit(&rt, reference.k)?;
                Ok(report.replayed)
            }
            // Every generation rotten: recovery must fail loudly and
            // typed, and scrub must name every victim.
            2 => {
                for &seq in gens {
                    rot_file(&gen_path(seq), derive_seed(rot_seed, seq))?;
                }
                match clean(None).recover(&dir) {
                    Ok(_) => return Err("recovered silently from total checkpoint loss".into()),
                    Err(RuntimeError::NoState(path)) => {
                        sweep.loud_failures += 1;
                        if path != dir {
                            return Err(format!(
                                "NoState names {} instead of the damaged directory",
                                path.display()
                            ));
                        }
                    }
                    Err(e) => return Err(format!("expected NoState, got: {e}")),
                }
                let report = lbs_runtime::scrub_dir(real_fs().as_ref(), &dir)
                    .map_err(|e| format!("scrub failed: {e}"))?;
                if report.quarantined.len() != gens.len() {
                    return Err(format!(
                        "scrub quarantined {} of {} rotten generations",
                        report.quarantined.len(),
                        gens.len()
                    ));
                }
                if report.newest_verified_seq.is_some() {
                    return Err("scrub verified a generation that was rotten".into());
                }
                Ok(0)
            }
            // Rot inside a WAL frame (newer checkpoints removed): the
            // readable prefix recovers bit-identically, nothing more.
            3 => {
                let (records, _) = scan(&reference.lineage.wal);
                let target = 2 + rot_seed % (records.len() as u64 - 2);
                let start = records[target as usize - 2].end_offset;
                let end = records[target as usize - 1].end_offset;
                let at = start + (rot_seed >> 8) % (end - start);
                let wal_path = dir.join(WAL_FILE);
                let mut raw =
                    std::fs::read(&wal_path).map_err(|e| format!("read copied wal: {e}"))?;
                raw[at as usize] ^= 0x20;
                std::fs::write(&wal_path, &raw).map_err(|e| format!("write rotten wal: {e}"))?;
                for &seq in gens.iter().filter(|&&seq| seq >= target) {
                    std::fs::remove_file(gen_path(seq))
                        .map_err(|e| format!("drop future generation: {e}"))?;
                }
                let scrubbed = lbs_runtime::scrub_dir(real_fs().as_ref(), &dir)
                    .map_err(|e| format!("scrub failed: {e}"))?;
                if !scrubbed.wal_tail_torn {
                    return Err("scrub missed the torn WAL tail".into());
                }
                let (rt, report) = clean(None)
                    .recover(&dir)
                    .map_err(|e| format!("prefix recovery failed: {e}"))?;
                let durable = rt.durable_seq();
                if durable != target - 1 {
                    return Err(format!(
                        "recovered durable seq {durable}, expected the readable prefix {}",
                        target - 1
                    ));
                }
                if encode_policy(rt.committed_policy()) != per_seq[durable as usize] {
                    return Err("prefix recovery NOT bit-identical".into());
                }
                Ok(report.replayed)
            }
            // GC under bounded retention, then rot the newest retained
            // generation: the WAL suffix for the older retained one must
            // still be there (GC never prunes a needed segment).
            _ => {
                let (mut rt, _) = clean(Some(2))
                    .recover(&dir)
                    .map_err(|e| format!("pre-GC recovery failed: {e}"))?;
                let report = rt.gc().map_err(|e| format!("gc failed: {e}"))?;
                if report.retained != 2 || report.checkpoints_removed.len() != gens.len() - 2 {
                    return Err(format!(
                        "gc retained {} and removed {} of {} generations",
                        report.retained,
                        report.checkpoints_removed.len(),
                        gens.len()
                    ));
                }
                if report.wal_records_pruned == 0 {
                    return Err("gc pruned no WAL records on a multi-generation lineage".into());
                }
                drop(rt);
                rot_file(&gen_path(newest), rot_seed)?;
                sweep.restarts += 1;
                let (rt, report) = clean(None)
                    .recover(&dir)
                    .map_err(|e| format!("post-GC fallback recovery failed: {e}"))?;
                if report.checkpoint_seq != second {
                    return Err(format!(
                        "post-GC fallback landed on generation {}, expected {second}",
                        report.checkpoint_seq
                    ));
                }
                if report.replayed == 0 {
                    return Err("post-GC fallback replayed nothing — suffix was pruned?".into());
                }
                if encode_policy(rt.committed_policy()) != per_seq[full] {
                    return Err("post-GC fallback NOT bit-identical — GC pruned a needed \
                                segment"
                        .into());
                }
                Ok(report.replayed)
            }
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The sharded reference run: per-shard lineages of one fleet history.
struct Fleet {
    dir: PathBuf,
    db0: LocationDb,
    batches: Vec<Vec<UserUpdate>>,
    cfg: ShardedConfig,
    shards: Vec<Lineage>,
}

impl Fleet {
    /// Pumps (then drains) every round through a fleet whose shards each
    /// run on their own probing backend.
    fn reference(dir: &Path, cfg: &DurabilityConfig) -> Result<Fleet, String> {
        let _ = std::fs::remove_dir_all(dir);
        let seed = derive_seed(cfg.seed, 0xC0DE);
        let db0 = seeded_db(seed, cfg.users * 2)?;
        let batches = history(seed, &db0, cfg.rounds);
        let mut shard_cfg = ShardedConfig::new(cfg.k, Rect::square(0, 0, SIDE), SHARDS);
        shard_cfg.checkpoint_every = cfg.checkpoint_every;
        let probes: Vec<FaultFs> =
            (0..SHARDS).map(|_| FaultFs::new(DiskFaultPlan::new())).collect();
        let mut builder = ShardedBuilder::new(shard_cfg).clock(Arc::new(ManualClock::new()));
        for (i, probe) in probes.iter().enumerate() {
            builder = builder.shard_storage(i, Arc::new(probe.clone()));
        }
        let mut rt =
            builder.create(dir, &db0).map_err(|e| format!("create sharded reference: {e}"))?;
        let probes = &probes[..rt.shard_count()];
        let mut marks: Vec<Marks> =
            probes.iter().map(|p| Marks { created: p.ops(), ..Marks::default() }).collect();
        // per_seq[i][s] = shard i's committed policy bytes once its records
        // 1..=s are durable and committed. Each round is pumped then
        // drained, so every reached sequence number has a committed policy.
        let mut per_seq: Vec<Vec<Bytes>> = Vec::with_capacity(probes.len());
        for i in 0..probes.len() {
            let shard = rt.shard(i).ok_or_else(|| format!("shard {i} not up"))?;
            per_seq.push(vec![encode_policy(shard.committed_policy())]);
        }
        for (round, batch) in batches.iter().enumerate() {
            let before: Vec<_> = probes.iter().map(reading).collect();
            rt.pump(batch).map_err(|e| format!("round {round}: pump: {e}"))?;
            let mid: Vec<_> = probes.iter().map(reading).collect();
            rt.drain().map_err(|e| format!("round {round}: drain: {e}"))?;
            for (i, seqs) in per_seq.iter_mut().enumerate() {
                marks[i].step(before[i], mid[i], reading(&probes[i]), &rt.shard_dir(i))?;
                let shard = rt.shard(i).ok_or_else(|| format!("round {round}: shard {i} down"))?;
                let seq = shard.committed_seq() as usize;
                if seqs.len() == seq {
                    seqs.push(encode_policy(shard.committed_policy()));
                } else if seqs.len() != seq + 1 {
                    return Err(format!(
                        "round {round}: shard {i} jumped to seq {seq} with {} recorded",
                        seqs.len()
                    ));
                }
            }
        }
        let shard_dirs: Vec<PathBuf> = (0..probes.len()).map(|i| rt.shard_dir(i)).collect();
        drop(rt);
        let shards = shard_dirs
            .iter()
            .zip(per_seq)
            .zip(marks)
            .map(|((dir, per_seq), marks)| Lineage::read(dir, per_seq, marks))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet { dir: dir.to_path_buf(), db0, batches, cfg: shard_cfg, shards })
    }

    fn builder(&self, metrics: &Arc<Metrics>) -> ShardedBuilder {
        ShardedBuilder::new(self.cfg)
            .clock(Arc::new(ManualClock::new()))
            .metrics(Arc::clone(metrics))
    }

    /// Life 0 of a sharded point: the fleet replays the reference history
    /// with only `victim` on `plan`; the first failure is the crash.
    fn crash_life(
        &self,
        dir: &Path,
        victim: usize,
        plan: &DiskFaultPlan,
        metrics: &Arc<Metrics>,
    ) -> LifeLog {
        let _ = std::fs::remove_dir_all(dir);
        let storage: Arc<dyn StorageBackend> = Arc::new(FaultFs::new(plan.clone()));
        let died = match self.builder(metrics).shard_storage(victim, storage).create(dir, &self.db0)
        {
            Ok(mut rt) => {
                self.batches.iter().find_map(|b| rt.pump(b).and_then(|_| rt.drain()).err())
            }
            Err(e) => Some(e),
        };
        let mut log = LifeLog::default();
        if let Some(e) = died {
            log.died(&e);
        }
        log
    }
}

/// One sharded point: the victim's directory comes from a crashed life 0
/// (or, without a plan, from the reference), every survivor's from the
/// full reference. The fleet then recovers with the victim on the plan's
/// recovery backend: the victim must land on its durable prefix (or fail
/// loudly when expected to), every survivor on its full reference state.
fn run_shard_point(
    scratch: &Path,
    fleet: &Fleet,
    victim: usize,
    named: &NamedPlan,
    metrics: &Arc<Metrics>,
    report: &mut DurabilityReport,
    audit: bool,
) -> Result<usize, String> {
    let dir = scratch.join("shard-point");
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        copy_tree(&fleet.dir, &dir)?;
        let vdir = dir.join(format!("shard-{victim:03}"));
        if let Some(plan) = &named.plan {
            let life = scratch.join("shard-life");
            report.absorb(&fleet.crash_life(&life, victim, plan, metrics));
            std::fs::remove_dir_all(&vdir).map_err(|e| format!("drop victim copy: {e}"))?;
            let crashed = life.join(format!("shard-{victim:03}"));
            if crashed.exists() {
                std::fs::rename(&crashed, &vdir).map_err(|e| format!("move victim: {e}"))?;
            }
            let _ = std::fs::remove_dir_all(&life);
        }
        let torn_tail = wal_torn(&vdir);
        let victim_name = format!("shard-{victim:03}");
        report.restarts += 1;
        let recovered =
            fleet.builder(metrics).shard_storage(victim, named.recovery_storage()).recover(&dir);
        let (rt, reports) = match recovered {
            Ok(_) if named.expect.loud => {
                return Err("fleet recovered silently through a rotten victim".into())
            }
            Ok(recovered) => recovered,
            Err(e) if named.expect.loud => {
                let path = match &e {
                    RuntimeError::NoState(path) | RuntimeError::CorruptCheckpoint { path, .. } => {
                        path
                    }
                    _ => return Err(format!("expected a typed checkpoint loss, got: {e}")),
                };
                if !path.to_string_lossy().contains(&victim_name) {
                    return Err(format!("{e} names {} instead of the victim", path.display()));
                }
                report.loud_failures += 1;
                // The failed recovery must have left the disk untouched:
                // on a repaired backend every shard recovers in full.
                report.restarts += 1;
                let (rt, _) = fleet
                    .builder(metrics)
                    .recover(&dir)
                    .map_err(|e| format!("repaired fleet recovery failed: {e}"))?;
                check_fleet(&rt, fleet, None)?;
                return Ok(0);
            }
            // A seeded victim that crashed while being created has no
            // durable state: its typed NoState is the loud outcome.
            Err(RuntimeError::NoState(path))
                if named.expect.durable.is_none()
                    && path.ends_with(&victim_name)
                    && !checkpoint_path(&vdir, 0).exists() =>
            {
                report.loud_failures += 1;
                return Ok(0);
            }
            Err(e) => return Err(format!("fleet recovery failed: {e}")),
        };
        check_fleet(&rt, fleet, Some(victim))?;
        let recovery = reports.get(victim).ok_or("no victim recovery report")?;
        let victim_rt = rt.shard(victim).ok_or("victim not up")?;
        let first = Recovered {
            durable: victim_rt.committed_seq(),
            checkpoint_seq: recovery.checkpoint_seq,
            replayed: recovery.replayed,
            torn_tail,
        };
        named.expect.check(&first, &vdir)?;
        if audit {
            attacker_audit(victim_rt, fleet.cfg.k)?;
            report.attacker_audits += 1;
        }
        Ok(recovery.replayed)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Checks a recovered fleet against its reference: `victim` (if any) at
/// its recovered durable prefix, every other shard at its full reference
/// state.
fn check_fleet(rt: &ShardedRuntime, fleet: &Fleet, victim: Option<usize>) -> Result<(), String> {
    if rt.shard_count() != fleet.shards.len() {
        return Err(format!("{} shards up of {}", rt.shard_count(), fleet.shards.len()));
    }
    for (shard, lineage) in fleet.shards.iter().enumerate() {
        let srt = rt.shard(shard).ok_or_else(|| format!("shard {shard} not up"))?;
        // The committed sequence is the recovered durable prefix; a
        // reconciliation purge of a torn migration stages one more.
        let seq = srt.committed_seq();
        let is_victim = victim == Some(shard);
        let expected = if is_victim { seq } else { lineage.per_seq.len() as u64 - 1 };
        let reference = lineage
            .per_seq
            .get(expected as usize)
            .ok_or_else(|| format!("shard {shard} recovered past its reference"))?;
        if seq != expected || encode_policy(srt.committed_policy()) != *reference {
            return Err(format!(
                "shard {shard} NOT bit-identical at seq {expected}{}",
                if is_victim { "" } else { " — isolation violated" },
            ));
        }
        let purged = rt.reconciled_purges().get(shard).copied().unwrap_or(0);
        if srt.durable_seq() != seq + u64::from(purged > 0) {
            return Err(format!(
                "shard {shard} durable seq {} != {seq} ({purged} purged)",
                srt.durable_seq()
            ));
        }
    }
    Ok(())
}

/// Runs the full durability sweep under `scratch` (a disposable
/// directory; everything it creates is removed before returning).
///
/// # Errors
/// A message when a *reference* run cannot be built — individual point
/// violations land in [`DurabilityReport::failures`] instead.
pub fn durability_sweep(
    scratch: &Path,
    cfg: &DurabilityConfig,
) -> Result<DurabilityReport, String> {
    let metrics = Arc::new(Metrics::new());
    let mut report = DurabilityReport {
        config: *cfg,
        shards: 0,
        points: BTreeMap::new(),
        max_replay: 0,
        shard_max_replay: 0,
        restarts: 0,
        loud_failures: 0,
        sheds: 0,
        attacker_audits: 0,
        scrubs_run: 0,
        corrupt_files_quarantined: 0,
        wal_segments_pruned: 0,
        enospc_sheds: 0,
        generation_fallbacks: 0,
        failures: Vec::new(),
    };

    let db0 = seeded_db(cfg.seed, cfg.users)?;
    let reference = Reference::single(
        &scratch.join("reference"),
        &db0,
        cfg.seed,
        cfg.k,
        cfg.rounds,
        cfg.checkpoint_every,
    )?;

    // Phase 1: every named crash plan the reference's marks can place.
    for (i, named) in named_plans(&reference.lineage, cfg.seed).iter().enumerate() {
        let outcome = run_named_point(scratch, &reference, named, &metrics, &mut report);
        report.record(named.name, &format!("point {i}"), outcome);
    }
    for name in NAMED_PLANS {
        if report.count(name) == 0 {
            report.failures.push(format!("{name}: no crash point could be placed"));
        }
    }

    // Phase 2: seeded fault plans with crash-restart lives.
    for point in 0..cfg.fault_points {
        let seed = derive_seed(cfg.seed, 0xA000 + point as u64);
        let outcome = run_seeded_point(scratch, &reference, point, seed, &metrics, &mut report);
        report.record("seeded", &format!("point {point} [seed {seed:#x}]"), outcome);
    }

    // Phase 3: on-disk rot, scrub quarantine, GC-retention safety.
    for point in 0..cfg.rot_points {
        let seed = derive_seed(cfg.seed, 0xB000 + point as u64);
        let outcome = run_rot_point(scratch, &reference, point, seed, &metrics, &mut report);
        report.record("rot", &format!("point {point}"), outcome);
    }
    let _ = std::fs::remove_dir_all(&reference.dir);

    // Phase 4: victims of one shard, half named plans, half seeded.
    if cfg.shard_points > 0 {
        let fleet = Fleet::reference(&scratch.join("sharded-reference"), cfg)?;
        report.shards = fleet.shards.len();
        let per_victim: Vec<Vec<NamedPlan>> =
            fleet.shards.iter().map(|lineage| named_plans(lineage, cfg.seed)).collect();
        let groups: Vec<Vec<(usize, NamedPlan)>> = NAMED_PLANS
            .iter()
            .map(|name| {
                // Interleave victims so any share of a group covers each.
                let longest = per_victim.iter().map(Vec::len).max().unwrap_or(0);
                (0..longest)
                    .flat_map(|i| {
                        per_victim.iter().enumerate().filter_map(move |(victim, plans)| {
                            let plan = plans.iter().filter(|p| p.name == *name).nth(i)?;
                            Some((victim, plan.clone()))
                        })
                    })
                    .collect()
            })
            .collect();
        let named = spread(&groups, cfg.shard_points / 2);
        let covered = named.len() >= NAMED_PLANS.len();
        let seeded = (named.len()..cfg.shard_points).map(|point| {
            let seed = derive_seed(cfg.seed, 0xC000 + point as u64);
            // Every third seeded victim's backend rots every checkpoint
            // read: the fleet recovery must fail loudly and typed, then
            // recover in full once the backend is repaired.
            let plan = if point % 3 == 2 {
                let expect = Expect { loud: true, ..Expect::default() };
                NamedPlan {
                    name: "rot-all",
                    plan: None,
                    rot: Some(("checkpoint-".into(), seed)),
                    expect,
                }
            } else {
                let plan = Some(DiskFaultPlan::seeded(seed));
                NamedPlan { name: "seeded", plan, rot: None, expect: Expect::default() }
            };
            (point % fleet.shards.len(), plan)
        });
        for (point, (victim, plan)) in named.into_iter().chain(seeded).enumerate() {
            let audit = plan.expect.durable.is_none() && point.is_multiple_of(5);
            let outcome =
                run_shard_point(scratch, &fleet, victim, &plan, &metrics, &mut report, audit);
            let label = format!("point {point} on shard {victim}");
            report.record(&format!("sharded/{}", plan.name), &label, outcome);
        }
        if covered {
            for name in NAMED_PLANS {
                if report.count(&format!("sharded/{name}")) == 0 {
                    report.failures.push(format!("sharded/{name}: no crash point could be placed"));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&fleet.dir);
    }

    let snapshot = metrics.snapshot();
    report.scrubs_run = snapshot.counter(Counter::ScrubsRun);
    report.corrupt_files_quarantined = snapshot.counter(Counter::CorruptFilesQuarantined);
    report.wal_segments_pruned = snapshot.counter(Counter::WalSegmentsPruned);
    report.enospc_sheds = snapshot.counter(Counter::EnospcSheds);
    report.generation_fallbacks = snapshot.counter(Counter::GenerationFallbacks);
    Ok(report)
}

/// What the degradation-ladder audit observed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Senders served on the `Committed` rung (cloak unchanged).
    pub committed: usize,
    /// Senders served on the `Coarsened` rung (ancestor cloak).
    pub coarsened: usize,
    /// Senders shed (rung 3).
    pub shed: usize,
    /// Oracle assertions that ran.
    pub oracle_checks: usize,
}

/// Audits every rung of the degradation ladder with the full oracle
/// stack under `seed`.
///
/// # Errors
/// The first violated oracle, with enough context to replay.
pub fn audit_degradation_ladder(
    seed: u64,
    users: usize,
    k: usize,
) -> Result<DegradationReport, String> {
    let map = Rect::square(0, 0, SIDE);
    let mut db = seeded_db(seed, users)?;

    // Rung 0 (fresh): the committed optimal policy itself.
    let engine = Anonymizer::build(&db, map, k).map_err(|e| format!("build: {e}"))?;
    let committed = engine.policy().clone();
    verify_policy_aware(&committed, &db, k)
        .map_err(|v| format!("fresh rung: {} verify violations", v.len()))?;
    let breaches = audit_policy(&committed, &db, k);
    if !breaches.is_empty() {
        return Err(format!("fresh rung: attacker breached {} cloaks", breaches.len()));
    }
    let mut checks = 2;

    // Churn without recommitting, then derive the degraded policy the
    // ladder would serve from.
    let mut present: Vec<UserId> = db.users().collect();
    let mut next_id = users as u64;
    for round in 0..6 {
        let batch = churn_batch(seed ^ 0xDE64, round, &mut present, &mut next_id);
        db.apply_updates(&batch).map_err(|e| format!("churn: {e:?}"))?;
    }
    let degraded = lbs_runtime::degraded_policy(&committed, &db, &map, k);
    let served = degraded
        .served_db(&db)
        .ok_or("degraded policy serves nobody — cannot audit an empty population")?;

    // Rungs 1–2 face the same oracle stack, over the served population:
    // shed senders emit no request, so the attacker's candidate set for
    // each region is exactly the served senders assigned to it.
    verify_policy_aware(&degraded.policy, &served, k)
        .map_err(|v| format!("degraded rungs: {} verify violations", v.len()))?;
    let breaches = audit_policy(&degraded.policy, &served, k);
    if !breaches.is_empty() {
        return Err(format!(
            "degraded rungs: attacker breached {} cloaks (first: {} -> {:?})",
            breaches.len(),
            breaches[0].region,
            breaches[0].candidates
        ));
    }
    checks += 2;

    // Masking must hold against the *live* database too: every served
    // sender's current location is inside the cloak it was served.
    for (user, region) in degraded.policy.iter() {
        let point = db.location(user).ok_or_else(|| format!("{user} served but absent"))?;
        if !region.contains(&point) {
            return Err(format!("{user}: degraded cloak does not mask the live location"));
        }
    }
    checks += 1;

    // Rung 3: shed senders really are outside the served policy.
    for user in &degraded.shed {
        if degraded.policy.cloak_of(*user).is_some() {
            return Err(format!("{user} both shed and served"));
        }
    }
    checks += 1;

    let committed_count = degraded.rungs.values().filter(|r| **r == Rung::Committed).count();
    let coarsened_count = degraded.rungs.values().filter(|r| **r == Rung::Coarsened).count();
    Ok(DegradationReport {
        committed: committed_count,
        coarsened: coarsened_count,
        shed: degraded.shed.len(),
        oracle_checks: checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lbs-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sum(report: &DurabilityReport, names: &[&str]) -> usize {
        names.iter().map(|name| report.count(name)).sum()
    }

    /// The floors of the two sweeps this one replaced: the hand-built
    /// crash sweep (single runtime and sharded) and the storage-fault
    /// sweep.
    #[test]
    fn default_sweep_keeps_every_floor() {
        let dir = scratch("default");
        let r = durability_sweep(&dir, &DurabilityConfig::default()).unwrap();
        assert!(r.is_clean(), "{r}");

        assert!(r.named_points() >= 50, "{r}");
        assert!(r.count("wal-boundary") >= 10, "{r}");
        assert!(r.count("wal-tear") >= 30, "{r}");
        assert!(r.count("torn-tmp") >= 5, "{r}");
        assert!(r.count("corrupt-newest") >= 3, "{r}");
        assert!(r.max_replay >= 1, "some restart must exercise replay");

        let sharded: Vec<String> = NAMED_PLANS.iter().map(|n| format!("sharded/{n}")).collect();
        let sharded: Vec<&str> = sharded.iter().map(String::as_str).collect();
        assert!(r.shards >= 2, "plan collapsed to one shard: {r}");
        assert!(sum(&r, &sharded) >= 40, "{r}");
        assert!(r.count("sharded/torn-tmp") >= 4, "{r}");
        assert!(r.count("sharded/corrupt-newest") >= 2, "{r}");
        assert!(r.shard_max_replay >= 1, "no victim recovery exercised replay: {r}");

        assert!(sum(&r, &["seeded", "rot", "sharded/seeded", "sharded/rot-all"]) >= 200, "{r}");
        assert!(r.restarts >= 25, "crash-restart loops under-exercised: {r}");
        assert!(r.loud_failures >= 10, "typed loud failures under-exercised: {r}");
        assert!(r.sheds >= 3, "ENOSPC shed rung under-exercised: {r}");
        assert!(r.attacker_audits >= 10, "{r}");
        // Every self-healing counter must fire somewhere in the sweep.
        assert!(r.scrubs_run > 0, "{r}");
        assert!(r.corrupt_files_quarantined > 0, "{r}");
        assert!(r.wal_segments_pruned > 0, "{r}");
        assert!(r.enospc_sheds > 0, "{r}");
        assert!(r.generation_fallbacks > 0, "{r}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_sweep_is_deterministic_across_runs() {
        let cfg = DurabilityConfig {
            users: 32,
            k: 3,
            rounds: 4,
            checkpoint_every: 2,
            fault_points: 6,
            rot_points: 5,
            shard_points: 4,
            ..DurabilityConfig::default()
        };
        let dir_a = scratch("det-a");
        let dir_b = scratch("det-b");
        let a = durability_sweep(&dir_a, &cfg).unwrap();
        let b = durability_sweep(&dir_b, &cfg).unwrap();
        assert!(a.is_clean(), "{a}");
        assert_eq!(a.points, b.points);
        assert_eq!(a.restarts, b.restarts, "restart schedule must be a pure function of seed");
        assert_eq!(a.loud_failures, b.loud_failures);
        assert_eq!(a.sheds, b.sheds);
        assert_eq!(a.generation_fallbacks, b.generation_fallbacks);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn degradation_ladder_survives_the_attacker_on_every_rung() {
        let mut saw_coarsened = false;
        let mut saw_shed = false;
        for seed in [3u64, 11, 42] {
            let report = audit_degradation_ladder(seed, 56, 4).unwrap();
            assert!(report.committed + report.coarsened >= 4, "seed {seed}: {report:?}");
            saw_coarsened |= report.coarsened > 0;
            saw_shed |= report.shed > 0;
        }
        assert!(saw_coarsened, "no seed exercised the coarsened rung");
        assert!(saw_shed, "no seed exercised the shed rung");
    }
}
