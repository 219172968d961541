//! The checked-in golden corpora under `tests/golden`.
//!
//! Four corpora share one directory and one bless/check path
//! ([`bless_all`], [`check_all`]):
//!
//! * **policy** ([`GoldenRecord`]) — exact cost, group structure and a
//!   fingerprint of the full user→cloak assignment for each (density, k,
//!   tree) cell;
//! * **sharded** ([`ShardedGoldenRecord`]) and **partitioned**
//!   ([`PartitionedGoldenRecord`]) — the §V pipelines' merged policies
//!   and per-part outputs;
//! * **work** ([`WorkGoldenRecord`]) — every deterministic work counter
//!   (tree nodes, DP rows and cells, extracted nodes, cache hits, WAL and
//!   checkpoint bytes, …) of tiny seeded bulk, incremental, partitioned,
//!   churn and query-cache runs. Counters carry no timing noise, so the
//!   check is exact: a changed counter is a changed algorithm.
//!
//! Every record derives from [`DEFAULT_MASTER_SEED`](crate::DEFAULT_MASTER_SEED)
//! (or the `--seed` given). Any refactor that silently shifts an optimal
//! policy or the work done to reach it trips a corpus; intentional
//! changes are re-blessed with
//! `lbs conformance --bless true --golden tests/golden` and reviewed as
//! a diff.

use crate::scenario::Density;
use lbs_core::{bulk_dp_fast, bulk_dp_fast_quad, Anonymizer, IncrementalAnonymizer};
use lbs_geom::{Point, Rect};
use lbs_metrics::{Counter, Metrics};
use lbs_model::{
    AnonymizedRequest, BulkPolicy, LocationDb, RequestId, RequestParams, UserId, UserUpdate,
};
use lbs_parallel::{anonymize_work_stealing, EngineConfig};
use lbs_query::{CloakedLbs, Poi, PoiId, PoiStore};
use lbs_runtime::{
    list_checkpoints, Clock, DiskFaultPlan, FaultFs, ManualClock, RuntimeError, ShardedBuilder,
    ShardedConfig, ShardedRuntime, StorageBackend, WAL_FILE,
};
use lbs_tree::{SpatialTree, TreeConfig, TreeKind};
use lbs_workload::{derive_seed, generate_master, random_moves, BayAreaConfig};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One frozen conformance output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenRecord {
    /// Record id, also the file stem: `<density>-k<k>-<tree>`.
    pub id: String,
    /// The derived seed the database was generated from.
    pub seed: u64,
    /// Density profile name.
    pub density: String,
    /// Database size.
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// Tree family: `binary` or `quad`.
    pub tree: String,
    /// The optimal `Cost(P, D)`.
    pub cost: u128,
    /// Number of cloak groups in the optimal policy.
    pub groups: usize,
    /// Smallest group (≥ k by construction).
    pub min_group: usize,
    /// FNV-1a over the sorted `user:cloak` assignment strings — pins the
    /// exact policy, not just its cost.
    pub fingerprint: u64,
}

/// The corpus cells: every density × k ∈ {2, 8} × {binary, quad} at 64
/// users. Pure function of `master`.
fn cases(master: u64) -> Vec<(Density, usize, TreeKind)> {
    let _ = master;
    let mut out = Vec::new();
    for density in Density::ALL {
        for k in [2usize, 8] {
            for kind in [TreeKind::Binary, TreeKind::Quad] {
                out.push((density, k, kind));
            }
        }
    }
    out
}

fn tree_name(kind: TreeKind) -> &'static str {
    match kind {
        TreeKind::Binary => "binary",
        TreeKind::Quad => "quad",
    }
}

/// The record's seed: FNV-1a of its id folded into `master` — the same
/// id-hash → seed scheme as the scenario matrix.
fn id_seed(master: u64, id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    derive_seed(master, h)
}

/// One corpus's record type: how it is named, filed and diffed.
trait Record: Serialize + for<'de> Deserialize<'de> + PartialEq {
    /// The corpus name [`bless_all`] and [`check_all`] report.
    const CORPUS: &'static str;

    /// The record id, also its file stem.
    fn id(&self) -> &str;

    /// The message for a fresh record that differs from the stored one;
    /// it carries the seed, so a red check replays directly.
    fn drift(stored: &Self, fresh: &Self) -> String;
}

/// Writes one pretty-printed `dir/<id>.json` per record. Returns the
/// corpus name and the number written.
fn write_records<T: Record>(dir: &Path, records: &[T]) -> Result<(&'static str, usize), String> {
    for record in records {
        let path = dir.join(format!("{}.json", record.id()));
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| format!("{}: serialize: {e}", record.id()))?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("{}: write: {e}", path.display()))?;
    }
    Ok((T::CORPUS, records.len()))
}

/// Diffs freshly computed `records` against `dir/<id>.json`, appending
/// one message per missing or unreadable file and one per divergent
/// record to `problems`. Returns the corpus name and the number of
/// records checked.
fn diff_records<T: Record>(
    dir: &Path,
    records: Result<Vec<T>, String>,
    problems: &mut Vec<String>,
) -> (&'static str, usize) {
    let records = records.unwrap_or_else(|e| {
        problems.push(e);
        Vec::new()
    });
    for fresh in &records {
        let path = dir.join(format!("{}.json", fresh.id()));
        let stored: Option<T> =
            std::fs::read_to_string(&path).ok().and_then(|raw| serde_json::from_str(&raw).ok());
        match stored {
            None => problems.push(format!(
                "{}: missing or unreadable {} golden {} — run with --bless",
                fresh.id(),
                T::CORPUS,
                path.display()
            )),
            Some(stored) if &stored != fresh => problems.push(T::drift(&stored, fresh)),
            Some(_) => {}
        }
    }
    (T::CORPUS, records.len())
}

/// Regenerates every corpus into `dir` (the `--bless` path). Returns
/// `(corpus, records written)` per corpus.
///
/// # Errors
/// Computation or I/O failures as messages.
pub fn bless_all(dir: &Path, master: u64) -> Result<Vec<(&'static str, usize)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    Ok(vec![
        write_records(dir, &compute_corpus(master)?)?,
        write_records(dir, &compute_sharded_corpus(master)?)?,
        write_records(dir, &compute_partitioned_corpus(master)?)?,
        write_records(dir, &compute_work_corpus(master)?)?,
    ])
}

/// Recomputes every corpus and diffs it against `dir`. Returns
/// `(corpus, records checked)` per corpus.
///
/// # Errors
/// One message per missing, unreadable or divergent record over every
/// corpus, each carrying its seed so a red check replays directly.
pub fn check_all(dir: &Path, master: u64) -> Result<Vec<(&'static str, usize)>, Vec<String>> {
    let mut problems = Vec::new();
    let counts = vec![
        diff_records(dir, compute_corpus(master), &mut problems),
        diff_records(dir, compute_sharded_corpus(master), &mut problems),
        diff_records(dir, compute_partitioned_corpus(master), &mut problems),
        diff_records(dir, compute_work_corpus(master), &mut problems),
    ];
    if problems.is_empty() {
        Ok(counts)
    } else {
        Err(problems)
    }
}

/// FNV-1a fingerprint of the full assignment, independent of iteration
/// order (assignments are sorted before hashing).
pub fn policy_fingerprint(policy: &BulkPolicy) -> u64 {
    let mut lines: Vec<String> =
        policy.iter().map(|(user, region)| format!("{user}:{region}")).collect();
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= 0x0A;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Computes the policy corpus records for `master`.
///
/// # Errors
/// Propagates tree/DP failures as messages.
pub fn compute_corpus(master: u64) -> Result<Vec<GoldenRecord>, String> {
    let users = 64usize;
    let map = lbs_geom::Rect::square(0, 0, 1024);
    cases(master)
        .into_iter()
        .map(|(density, k, kind)| {
            let id = format!("{}-k{}-{}", density.name(), k, tree_name(kind));
            let seed = id_seed(master, &id);
            let db = density.generate(users, map, derive_seed(seed, 10));
            let tree = SpatialTree::build(&db, TreeConfig::lazy(kind, map, k))
                .map_err(|e| format!("{id}: tree: {e}"))?;
            let matrix = match kind {
                TreeKind::Binary => bulk_dp_fast(&tree, k),
                TreeKind::Quad => bulk_dp_fast_quad(&tree, k),
            }
            .map_err(|e| format!("{id}: dp: {e}"))?;
            let policy = matrix.extract_policy(&tree).map_err(|e| format!("{id}: extract: {e}"))?;
            let cost = matrix.optimal_cost(&tree).map_err(|e| format!("{id}: cost: {e}"))?;
            Ok(GoldenRecord {
                id,
                seed,
                density: density.name().to_string(),
                users,
                k,
                tree: tree_name(kind).to_string(),
                cost,
                groups: policy.groups().len(),
                min_group: policy.min_group_size().unwrap_or(0),
                fingerprint: policy_fingerprint(&policy),
            })
        })
        .collect()
}

impl Record for GoldenRecord {
    const CORPUS: &'static str = "policy";

    fn id(&self) -> &str {
        &self.id
    }

    fn drift(stored: &Self, fresh: &Self) -> String {
        format!(
            "{} (seed {}): golden drift — stored cost {} fp {:#x}, computed cost {} fp {:#x}",
            fresh.id, fresh.seed, stored.cost, stored.fingerprint, fresh.cost, fresh.fingerprint
        )
    }
}

/// One frozen sharded-pipeline output: the shared-nothing partition of
/// the jurisdiction tree at a fixed shard count, with the merged policy
/// pinned by fingerprint and the per-shard parts pinned individually.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedGoldenRecord {
    /// Record id, also the file stem: `sharded_<n>`.
    pub id: String,
    /// The derived seed the database was generated from.
    pub seed: u64,
    /// Database size.
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// Shards requested from the planner.
    pub shards_requested: usize,
    /// Shards the plan settled on (the planner backs off rather than
    /// produce an empty jurisdiction).
    pub shards_actual: usize,
    /// Exact aggregate cost of the merged sharded policy.
    pub cost: u128,
    /// Exact cost of the single-shard optimum over the same database —
    /// pins the paper's ≤1% divergence bound alongside the policy itself.
    pub single_cost: u128,
    /// FNV-1a fingerprint of the merged whole-population assignment.
    pub merged_fingerprint: u64,
    /// Per-shard policy fingerprints, in plan order.
    pub shard_fingerprints: Vec<u64>,
}

/// The sharded corpus cells: uniform 160-user population at k = 4,
/// partitioned 2/4/8 ways. (Uniform, not clustered: the greedy
/// partitioner backs off to fewer jurisdictions when a dense cluster
/// swallows the population, and the corpus wants real splits.) Pure
/// function of `master`.
///
/// # Errors
/// Propagates planning/DP failures as messages.
pub fn compute_sharded_corpus(master: u64) -> Result<Vec<ShardedGoldenRecord>, String> {
    let users = 160usize;
    let k = 4usize;
    let map = lbs_geom::Rect::square(0, 0, 1024);
    [2usize, 4, 8]
        .into_iter()
        .map(|shards| {
            let id = format!("sharded_{shards}");
            let seed = id_seed(master, &id);
            let db = Density::Uniform.generate(users, map, derive_seed(seed, 10));
            let outcome = lbs_runtime::sharded_bulk(&db, map, k, shards)
                .map_err(|e| format!("{id}: sharded bulk: {e}"))?;
            let single = lbs_core::Anonymizer::build(&db, map, k)
                .map_err(|e| format!("{id}: single-shard: {e}"))?;
            Ok(ShardedGoldenRecord {
                id,
                seed,
                users,
                k,
                shards_requested: shards,
                shards_actual: outcome.plan.len(),
                cost: outcome.cost,
                single_cost: single.cost(),
                merged_fingerprint: policy_fingerprint(&outcome.merged),
                shard_fingerprints: outcome.policies.iter().map(policy_fingerprint).collect(),
            })
        })
        .collect()
}

impl Record for ShardedGoldenRecord {
    const CORPUS: &'static str = "sharded";

    fn id(&self) -> &str {
        &self.id
    }

    fn drift(stored: &Self, fresh: &Self) -> String {
        format!(
            "{} (seed {}): sharded golden drift — stored cost {} fp {:#x}, \
             computed cost {} fp {:#x}",
            fresh.id,
            fresh.seed,
            stored.cost,
            stored.merged_fingerprint,
            fresh.cost,
            fresh.merged_fingerprint
        )
    }
}

/// One jurisdiction of a frozen partitioned run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JurisdictionRecord {
    /// The jurisdiction rect as `[x0, y0, x1, y1]`.
    pub rect: [i64; 4],
    /// Users inside the jurisdiction.
    pub users: usize,
    /// The jurisdiction server's `Cost(P, D_j)`.
    pub cost: u128,
}

/// One frozen partitioned-pipeline output (Section V): the jurisdictions
/// the greedy partitioner chose, each server's population and cost, and
/// the merged master policy pinned by fingerprint — the output of
/// [`anonymize_work_stealing`], which is bit-identical at every worker
/// count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionedGoldenRecord {
    /// Record id, also the file stem: `partitioned_<density>-k<k>-s<servers>`.
    pub id: String,
    /// The derived seed the database was generated from.
    pub seed: u64,
    /// Density profile name.
    pub density: String,
    /// Database size.
    pub users: usize,
    /// Anonymity level.
    pub k: usize,
    /// Jurisdictions requested from the partitioner.
    pub servers_requested: usize,
    /// Σ server costs of the merged policy.
    pub cost: u128,
    /// FNV-1a fingerprint of the merged master policy.
    pub fingerprint: u64,
    /// Per-jurisdiction `(rect, users, cost)`, in partition order.
    pub jurisdictions: Vec<JurisdictionRecord>,
}

/// The partitioned corpus cells: every density × k ∈ {8, 50} × servers ∈
/// {16, 64} over 4,000 users, run on two workers. Pure function of
/// `master`.
///
/// # Errors
/// Propagates partition/DP failures as messages.
pub fn compute_partitioned_corpus(master: u64) -> Result<Vec<PartitionedGoldenRecord>, String> {
    let users = 4_000usize;
    let map = lbs_geom::Rect::square(0, 0, 1 << 12);
    let engine = EngineConfig { workers: 2, ..EngineConfig::default() };
    let mut out = Vec::new();
    for density in Density::ALL {
        for k in [8usize, 50] {
            for servers in [16usize, 64] {
                let id = format!("partitioned_{}-k{k}-s{servers}", density.name());
                let seed = id_seed(master, &id);
                let db = density.generate(users, map, derive_seed(seed, 10));
                let outcome = anonymize_work_stealing(&db, map, k, servers, &engine, None)
                    .map_err(|e| format!("{id}: partitioned: {e}"))?;
                let jurisdictions = outcome
                    .servers
                    .iter()
                    .map(|s| {
                        let r = s.jurisdiction;
                        JurisdictionRecord {
                            rect: [r.x0, r.y0, r.x1, r.y1],
                            users: s.users,
                            cost: s.cost,
                        }
                    })
                    .collect();
                out.push(PartitionedGoldenRecord {
                    id,
                    seed,
                    density: density.name().to_string(),
                    users,
                    k,
                    servers_requested: servers,
                    cost: outcome.total_cost,
                    fingerprint: policy_fingerprint(&outcome.policy),
                    jurisdictions,
                });
            }
        }
    }
    Ok(out)
}

impl Record for PartitionedGoldenRecord {
    const CORPUS: &'static str = "partitioned";

    fn id(&self) -> &str {
        &self.id
    }

    fn drift(stored: &Self, fresh: &Self) -> String {
        format!(
            "{} (seed {}): partitioned golden drift — stored cost {} fp {:#x} over {} \
             jurisdictions, computed cost {} fp {:#x} over {}",
            fresh.id,
            fresh.seed,
            stored.cost,
            stored.fingerprint,
            stored.jurisdictions.len(),
            fresh.cost,
            fresh.fingerprint,
            fresh.jurisdictions.len()
        )
    }
}

/// One frozen work profile: every deterministic work counter of one tiny
/// seeded run, by name. Scheduling- and clock-dependent values (stolen
/// tasks, scratch reuse, replay milliseconds) are never recorded, so a
/// changed counter means a changed algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkGoldenRecord {
    /// Record id, also the file stem: `work_<family>-<parameter>`.
    pub id: String,
    /// The derived seed the run's population and traffic came from.
    pub seed: u64,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
}

impl Record for WorkGoldenRecord {
    const CORPUS: &'static str = "work";

    fn id(&self) -> &str {
        &self.id
    }

    /// Names every counter whose value moved, stored → computed.
    fn drift(stored: &Self, fresh: &Self) -> String {
        let show = |v: Option<&u64>| v.map_or_else(|| "absent".to_string(), u64::to_string);
        let names: BTreeSet<&String> =
            stored.counters.keys().chain(fresh.counters.keys()).collect();
        let mut moved: Vec<String> = names
            .into_iter()
            .filter_map(|name| {
                let (was, now) = (stored.counters.get(name), fresh.counters.get(name));
                (was != now).then(|| format!("{name} {} → {}", show(was), show(now)))
            })
            .collect();
        if stored.seed != fresh.seed {
            moved.push(format!("seed {} → {}", stored.seed, fresh.seed));
        }
        format!("{} (seed {}): work golden drift — {}", fresh.id, fresh.seed, moved.join(", "))
    }
}

/// Users in every work-corpus population: big enough that the tree has
/// depth and a commit touches several subtrees, small enough for a debug
/// build.
const WORK_USERS: usize = 6_000;

/// Workers of the partitioned engine and of each churn shard's refresh.
/// The corpus pins two, so the parallel refresh plan is exercised.
const WORK_WORKERS: usize = 2;

/// Computes the work corpus for `master`: bulk at k ∈ {10, 50},
/// incremental batches of m ∈ {1, 64, 4096} moves, 16 jurisdictions on
/// two workers, a two-shard service under churn (fresh and with expired
/// deadlines), and a query-cache pass.
///
/// # Errors
/// Set-up, DP, runtime or I/O failures as messages.
pub fn compute_work_corpus(master: u64) -> Result<Vec<WorkGoldenRecord>, String> {
    work_corpus(master, WORK_WORKERS)
}

fn work_corpus(master: u64, workers: usize) -> Result<Vec<WorkGoldenRecord>, String> {
    Ok(vec![
        bulk_work(master, 10)?,
        bulk_work(master, 50)?,
        incremental_work(master, 1)?,
        incremental_work(master, 64)?,
        incremental_work(master, 4096)?,
        partitioned_work(master, workers)?,
        churn_work(master, false, workers)?,
        churn_work(master, true, workers)?,
        query_cache_work(master)?,
    ])
}

/// A record's id, seed, and the Bay Area population drawn from that seed.
fn work_population(master: u64, id: String) -> (String, u64, LocationDb, Rect) {
    let seed = id_seed(master, &id);
    let cfg = BayAreaConfig { seed: derive_seed(seed, 1), ..BayAreaConfig::scaled_to(WORK_USERS) };
    (id, seed, generate_master(&cfg), cfg.map())
}

/// The named lbs-metrics counters of `metrics`.
fn metric_counters(metrics: &Metrics, counters: &[Counter]) -> BTreeMap<String, u64> {
    counters.iter().map(|&c| (c.name().to_string(), metrics.get(c))).collect()
}

/// `Bulk_dp` end to end: the tree's shape, the DP rows and cells it
/// filled (the Lemma-5 bound caps the cells), and the extraction.
fn bulk_work(master: u64, k: usize) -> Result<WorkGoldenRecord, String> {
    let (id, seed, db, map) = work_population(master, format!("work_bulk-k{k}"));
    let metrics = Metrics::new();
    let config = TreeConfig::lazy(TreeKind::Binary, map, k);
    let engine = Anonymizer::build_instrumented(&db, config, k, None, Some(&metrics))
        .map_err(|e| format!("{id}: bulk: {e}"))?;
    let matrix = engine.matrix();
    let rows = engine.tree().postorder().into_iter().filter_map(|node| matrix.row(node));
    let cells: usize = rows.map(|row| row.dense.len() + 1).sum();
    let stats = engine.tree_stats();
    let mut counters = metric_counters(&metrics, &[Counter::ExtractNodes, Counter::CloaksWritten]);
    counters.insert("tree.nodes".into(), stats.nodes as u64);
    counters.insert("tree.leaves".into(), stats.leaves as u64);
    counters.insert("dp.rows".into(), matrix.computed_rows() as u64);
    counters.insert("dp.cells".into(), cells as u64);
    Ok(WorkGoldenRecord { id, seed, counters })
}

/// Two batched incremental commits of exactly `m` moves each (≤ 200 m,
/// distinct users), each followed by an incremental extraction; the
/// refresh and extraction reports are summed over both.
fn incremental_work(master: u64, m: usize) -> Result<WorkGoldenRecord, String> {
    let (id, seed, db, map) = work_population(master, format!("work_incremental-m{m}"));
    let k = 10;
    let mut inc = IncrementalAnonymizer::new(&db, TreeConfig::lazy(TreeKind::Binary, map, k), k)
        .map_err(|e| format!("{id}: build: {e}"))?;
    // The first extraction is the full one; the batches measure the rest.
    inc.extract().map_err(|e| format!("{id}: extract: {e}"))?;
    let fraction = m as f64 / db.len() as f64;
    let mut counters = BTreeMap::new();
    let mut add = |name: &str, n: usize| *counters.entry(name.to_string()).or_insert(0) += n as u64;
    for batch in 0..2 {
        let moves = random_moves(&db, &map, fraction, 200.0, derive_seed(seed, 2 + batch));
        if moves.len() != m {
            return Err(format!("{id}: batch {batch} has {} moves", moves.len()));
        }
        let refresh = inc.apply_moves(&moves).map_err(|e| format!("{id}: commit: {e}"))?;
        let extract = inc.extract().map_err(|e| format!("{id}: extract: {e}"))?;
        add("rows_recomputed", refresh.rows_recomputed);
        add("rows_reused", refresh.rows_reused);
        add("cache_hits", refresh.cache_hits);
        add("cache_misses", refresh.cache_misses);
        add("extract_nodes", extract.nodes);
        add("cloaks_written", extract.cloaks);
    }
    Ok(WorkGoldenRecord { id, seed, counters })
}

/// The §V pipeline: 16 jurisdictions anonymized on the work-stealing
/// engine, then merged.
fn partitioned_work(master: u64, workers: usize) -> Result<WorkGoldenRecord, String> {
    let (id, seed, db, map) = work_population(master, "work_partitioned-s16".to_string());
    let metrics = Metrics::new();
    let config = EngineConfig { workers, ..EngineConfig::default() };
    anonymize_work_stealing(&db, map, 10, 16, &config, Some(&metrics))
        .map_err(|e| format!("{id}: partitioned: {e}"))?;
    let counters = metric_counters(
        &metrics,
        &[
            Counter::TasksExecuted,
            Counter::UsersAnonymized,
            Counter::ExtractNodes,
            Counter::CloaksWritten,
        ],
    );
    Ok(WorkGoldenRecord { id, seed, counters })
}

/// Epochs of churn each service run pumps.
const CHURN_EPOCHS: u64 = 12;
/// Cloak requests served per epoch.
const CHURN_REQUESTS: u64 = 50;
/// Epochs between scrubs.
const CHURN_SCRUB_EVERY: u64 = 4;

/// A fresh scratch directory per call: corpora may be computed by
/// several threads of one process at once.
fn scratch_dir(id: &str) -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lbs-{id}-{}-{run}", std::process::id()));
    // A killed earlier process with the same pid may have left it behind.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The two-shard service as `lbs serve --shards 2` runs it, on a manual
/// clock and a fault-free [`FaultFs`]: each epoch pumps a 1% movement
/// wave and serves a wave of requests, every fourth epoch scrubs. With
/// `expired`, every request's deadline has already passed (the
/// degradation ladder answers) and moves stay inside their shard.
fn churn_work(master: u64, expired: bool, workers: usize) -> Result<WorkGoldenRecord, String> {
    let family = if expired { "work_churn-deadline" } else { "work_churn-fresh" };
    let (id, seed, db, map) = work_population(master, family.to_string());
    let dir = scratch_dir(&id);
    let result = drive_churn(&dir, seed, &db, map, expired, workers);
    let _ = std::fs::remove_dir_all(&dir);
    let counters = result.map_err(|e| format!("{id}: {e}"))?;
    Ok(WorkGoldenRecord { id, seed, counters })
}

fn drive_churn(
    dir: &Path,
    seed: u64,
    db: &LocationDb,
    map: Rect,
    expired: bool,
    workers: usize,
) -> Result<BTreeMap<String, u64>, String> {
    let clock = Arc::new(ManualClock::new());
    let metrics = Arc::new(Metrics::new());
    let fs = FaultFs::new(DiskFaultPlan::new());
    let mut cfg = ShardedConfig::new(10, map, 2);
    cfg.checkpoint_every = 4;
    cfg.retain_checkpoints = Some(2);
    cfg.refresh_workers = workers;
    let mut rt = ShardedBuilder::new(cfg)
        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .metrics(Arc::clone(&metrics))
        .storage(Arc::new(fs.clone()) as Arc<dyn StorageBackend>)
        .create(dir, db)
        .map_err(|e| format!("create: {e}"))?;
    let plan = rt.plan().clone();
    let mut mirror = db.clone();
    let users: Vec<UserId> = db.users().collect();
    for epoch in 0..CHURN_EPOCHS {
        let mut moves = random_moves(&mirror, &map, 0.01, 200.0, derive_seed(seed, 100 + epoch));
        if expired {
            let shard_of = |p: &Point| plan.route_point(p);
            moves
                .retain(|m| mirror.location(m.user).map(|p| shard_of(&p)) == Some(shard_of(&m.to)));
        }
        let batch: Vec<UserUpdate> = moves.into_iter().map(UserUpdate::Move).collect();
        mirror.apply_updates(&batch).map_err(|e| format!("epoch {epoch}: mirror: {e:?}"))?;
        rt.pump(&batch).map_err(|e| format!("epoch {epoch}: pump: {e}"))?;
        for j in 0..CHURN_REQUESTS {
            let pick = derive_seed(seed, epoch << 32 | j) % users.len() as u64;
            let user = users[pick as usize];
            let deadline = expired.then(|| clock.now());
            match rt.cloak_for(user, deadline) {
                Ok(_) | Err(RuntimeError::Shed { .. }) => {}
                Err(e) => return Err(format!("epoch {epoch}: cloak for {user}: {e}")),
            }
        }
        if (epoch + 1) % CHURN_SCRUB_EVERY == 0 {
            rt.scrub().map_err(|e| format!("epoch {epoch}: scrub: {e}"))?;
        }
    }
    let mut counters = metric_counters(
        &metrics,
        &[
            Counter::ShardCommits,
            Counter::DirtySubtrees,
            Counter::SubtreeCacheHits,
            Counter::BatchedMoves,
            Counter::ExtractNodes,
            Counter::CloaksWritten,
            Counter::WalAppends,
            Counter::CheckpointsWritten,
            Counter::ScrubsRun,
            Counter::WalSegmentsPruned,
            Counter::DegradedCommitted,
            Counter::DegradedCoarsened,
            Counter::RequestsShed,
        ],
    );
    counters.insert("fs.ops".into(), fs.ops());
    counters.insert("fs.writes".into(), fs.writes());
    let (wal, checkpoints) = stored_bytes(&rt)?;
    counters.insert("wal.bytes".into(), wal);
    counters.insert("checkpoint.bytes".into(), checkpoints);
    Ok(counters)
}

/// Bytes of every shard's WAL and of its retained checkpoints.
fn stored_bytes(rt: &ShardedRuntime) -> Result<(u64, u64), String> {
    let size = |path: &Path| {
        std::fs::metadata(path).map(|m| m.len()).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (mut wal, mut checkpoints) = (0, 0);
    for shard in 0..rt.shard_count() {
        let dir = rt.shard_dir(shard);
        wal += size(&dir.join(WAL_FILE))?;
        for (_, path) in list_checkpoints(&dir).map_err(|e| e.to_string())? {
            checkpoints += size(&path)?;
        }
    }
    Ok((wal, checkpoints))
}

/// The CSP answer cache: a fixed set of 512 cloaked nearest-cafe
/// requests served twice. Senders sharing a cloak hit on the first pass
/// already; the second pass hits throughout.
fn query_cache_work(master: u64) -> Result<WorkGoldenRecord, String> {
    let (id, seed, db, map) = work_population(master, "work_query-cache".to_string());
    let engine = Anonymizer::build(&db, map, 10).map_err(|e| format!("{id}: bulk: {e}"))?;
    let pois: Vec<Poi> = db
        .iter()
        .step_by(40)
        .enumerate()
        .map(|(i, (_, p))| Poi { id: PoiId(i as u64), location: p, category: "cafe".into() })
        .collect();
    let store = PoiStore::build(map, map.width() / 32, pois).map_err(|e| format!("{id}: {e}"))?;
    let metrics = Arc::new(Metrics::new());
    let mut lbs = CloakedLbs::new(store).with_metrics(Arc::clone(&metrics));
    let requests: Vec<(AnonymizedRequest, Point)> = engine
        .policy()
        .iter()
        .take(512)
        .enumerate()
        .filter_map(|(i, (user, region))| {
            let params = RequestParams::from_pairs([("poi", "cafe")]);
            Some((AnonymizedRequest::new(RequestId(i as u64), *region, params), db.location(user)?))
        })
        .collect();
    for _ in 0..2 {
        for (request, location) in &requests {
            lbs.nearest_for(request, *location);
        }
    }
    let counters = metric_counters(&metrics, &[Counter::CacheHits, Counter::CacheMisses]);
    Ok(WorkGoldenRecord { id, seed, counters })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DEFAULT_MASTER_SEED;

    /// Counters that legitimately depend on the worker count. A commit's
    /// refresh splits the dirty set into parallel tasks only on more than
    /// one worker, and a task reads a child it computed itself from its
    /// own rows, not from the subtree cache, so it counts no hit where the
    /// sequential sweep does. Every other recorded counter is identical
    /// at any worker count. Arena reuse and pool hits, like stolen tasks,
    /// vary from run to run at two workers and are not recorded at all.
    const WORKER_DEPENDENT_COUNTERS: &[&str] = &["dirty_subtrees", "subtree_cache_hits"];

    #[test]
    fn corpus_is_deterministic_and_policy_sensitive() {
        let a = compute_corpus(DEFAULT_MASTER_SEED).unwrap();
        let b = compute_corpus(DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        for record in &a {
            assert!(record.min_group >= record.k, "{}", record.id);
            assert!(record.cost > 0, "{}", record.id);
        }
        let other = compute_corpus(DEFAULT_MASTER_SEED ^ 1).unwrap();
        assert!(
            a.iter().zip(&other).any(|(x, y)| x.fingerprint != y.fingerprint),
            "a different master seed must move at least one fingerprint"
        );
    }

    #[test]
    fn sharded_corpus_is_deterministic_and_within_the_divergence_bound() {
        let a = compute_sharded_corpus(DEFAULT_MASTER_SEED).unwrap();
        let b = compute_sharded_corpus(DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for record in &a {
            assert!(record.shards_actual >= 2, "{}: did not split", record.id);
            assert_eq!(record.shard_fingerprints.len(), record.shards_actual, "{}", record.id);
            assert!(
                record.cost >= record.single_cost,
                "{}: sharding cannot beat the optimum",
                record.id
            );
            let divergence = lbs_runtime::divergence_pct(record.cost, record.single_cost);
            assert!(
                divergence <= 1.0,
                "{}: divergence {divergence:.3}% breaks the paper's 1% bound",
                record.id
            );
        }
    }

    #[test]
    fn partitioned_corpus_is_deterministic_and_tiles_every_user() {
        let a = compute_partitioned_corpus(DEFAULT_MASTER_SEED).unwrap();
        let b = compute_partitioned_corpus(DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        for record in &a {
            let jurisdictions = record.jurisdictions.len();
            assert!(jurisdictions >= 2, "{}: did not split", record.id);
            assert!(jurisdictions <= record.servers_requested, "{}", record.id);
            let users: usize = record.jurisdictions.iter().map(|j| j.users).sum();
            assert_eq!(users, record.users, "{}: jurisdictions must cover every user", record.id);
            let cost: u128 = record.jurisdictions.iter().map(|j| j.cost).sum();
            assert_eq!(cost, record.cost, "{}: Σ server costs", record.id);
            for j in &record.jurisdictions {
                assert!(j.users == 0 || j.users >= record.k, "{}: 0 < {} < k", record.id, j.users);
            }
        }
    }

    #[test]
    fn work_corpus_is_deterministic_and_worker_independent() {
        let a = compute_work_corpus(DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(a, compute_work_corpus(DEFAULT_MASTER_SEED).unwrap());
        assert_eq!(a.len(), 9);
        let one = work_corpus(DEFAULT_MASTER_SEED, 1).unwrap();
        for (two, one) in a.iter().zip(&one) {
            let independent = |r: &WorkGoldenRecord| {
                let mut counters = r.counters.clone();
                counters.retain(|name, _| !WORKER_DEPENDENT_COUNTERS.contains(&name.as_str()));
                counters
            };
            assert_eq!(independent(two), independent(one), "{}", two.id);
        }
        let churn = a.iter().find(|r| r.id == "work_churn-fresh").unwrap();
        for name in ["dirty_subtrees", "subtree_cache_hits", "checkpoints_written", "scrubs_run"] {
            assert!(churn.counters[name] > 0, "{name} never moved: {:?}", churn.counters);
        }
    }

    #[test]
    fn bless_all_then_check_all_round_trips_and_names_drift() {
        let dir = std::env::temp_dir().join(format!("lbs-golden-{}", std::process::id()));
        let counts = [("policy", 12), ("sharded", 3), ("partitioned", 12), ("work", 9)];
        assert_eq!(bless_all(&dir, DEFAULT_MASTER_SEED).unwrap(), counts);
        assert_eq!(check_all(&dir, DEFAULT_MASTER_SEED).unwrap(), counts);
        // Tamper with one stored record of every corpus.
        fn tamper<T: Record>(dir: &Path, id: &str, edit: impl FnOnce(&mut T)) {
            let path = dir.join(format!("{id}.json"));
            let mut record: T =
                serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            edit(&mut record);
            std::fs::write(&path, serde_json::to_string(&record).unwrap()).unwrap();
        }
        tamper(&dir, "uniform-k2-binary", |r: &mut GoldenRecord| r.cost += 1);
        tamper(&dir, "sharded_4", |r: &mut ShardedGoldenRecord| r.merged_fingerprint ^= 1);
        tamper(&dir, "partitioned_uniform-k8-s16", |r: &mut PartitionedGoldenRecord| {
            r.jurisdictions[0].cost += 1
        });
        tamper(&dir, "work_bulk-k10", |r: &mut WorkGoldenRecord| {
            *r.counters.get_mut("dp.cells").unwrap() += 1
        });
        let problems = check_all(&dir, DEFAULT_MASTER_SEED).unwrap_err();
        assert_eq!(problems.len(), 4, "{problems:?}");
        assert!(problems[0].contains("uniform-k2-binary (seed"), "{}", problems[0]);
        assert!(problems[1].contains("sharded golden drift"), "{}", problems[1]);
        assert!(problems[2].contains("partitioned golden drift"), "{}", problems[2]);
        assert!(problems[3].starts_with("work_bulk-k10 (seed "), "{}", problems[3]);
        assert!(problems[3].contains("work golden drift — dp.cells "), "{}", problems[3]);
        std::fs::remove_file(dir.join("sharded_2.json")).unwrap();
        let problems = check_all(&dir, DEFAULT_MASTER_SEED).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("missing or unreadable sharded golden")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
