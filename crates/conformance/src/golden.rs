//! The checked-in golden corpus under `tests/golden`.
//!
//! Every file holds one [`GoldenRecord`]: its id (also the file stem),
//! the seed its inputs derive from, and a sorted map of exact named
//! values. [`bless_all`] writes the corpus and [`check_all`] diffs it.
//! Four families fill it:
//!
//! * **policy** (`<density>-k<k>-<tree>`) — exact cost, group structure
//!   and a fingerprint of the full user→cloak assignment;
//! * **sharded** (`sharded_<n>`) and **partitioned**
//!   (`partitioned_<density>-k<k>-s<servers>`) — the §V pipelines'
//!   merged policies and per-part outputs, one zero-padded indexed key
//!   per part (`shard_fingerprints.0`, `jurisdictions.07.cost`), so map
//!   order is partition order;
//! * **work** (`work_<family>-<parameter>`) — every deterministic work
//!   counter (tree nodes, DP rows and cells, extracted nodes, cache hits,
//!   WAL and checkpoint bytes, …) of tiny seeded bulk, incremental,
//!   partitioned, churn and query-cache runs. Counters carry no timing
//!   noise, so the check is exact: a changed counter is a changed
//!   algorithm.
//!
//! Every record derives from [`DEFAULT_MASTER_SEED`](crate::DEFAULT_MASTER_SEED)
//! (or the `--seed` given). A drift names the record, its seed and every
//! moved key as `stored → computed`. Any refactor that silently shifts an
//! optimal policy or the work done to reach it trips the corpus;
//! intentional changes are re-blessed with
//! `lbs conformance --bless true --golden tests/golden` and reviewed as
//! a diff.

use crate::scenario::Density;
use lbs_core::{bulk_dp_fast, bulk_dp_fast_quad, Anonymizer, IncrementalAnonymizer};
use lbs_geom::{Point, Rect};
use lbs_metrics::{Counter, Metrics};
use lbs_model::{
    AnonymizedRequest, BulkPolicy, LocationDb, Move, RequestId, RequestParams, UserId, UserUpdate,
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

/// Value name → exact value.
type Values = BTreeMap<String, u128>;

/// One frozen output: the exact named values of one seeded run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenRecord {
    /// Record id, also the file stem.
    pub id: String,
    /// The derived seed the run's inputs were generated from.
    pub seed: u64,
    /// Value name → exact value. A list is one key per item, zero-padded
    /// so map order is list order: `jurisdictions.07.cost`.
    pub values: Values,
}

impl GoldenRecord {
    /// Diffs this freshly computed record against the stored
    /// `dir/<id>.json`.
    ///
    /// # Errors
    /// The missing or unreadable file, or the drift line: the record, its
    /// seed and every moved key as `stored → computed`.
    pub fn check(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join(format!("{}.json", self.id));
        let stored: GoldenRecord = std::fs::read_to_string(&path)
            .ok()
            .and_then(|raw| serde_json::from_str(&raw).ok())
            .ok_or_else(|| {
                format!(
                    "{}: missing or unreadable golden {} — run with --bless",
                    self.id,
                    path.display()
                )
            })?;
        let show = |v: Option<&u128>| v.map_or_else(|| "absent".to_string(), u128::to_string);
        let keys: BTreeSet<&String> = stored.values.keys().chain(self.values.keys()).collect();
        let mut moved: Vec<String> = keys
            .into_iter()
            .filter_map(|key| {
                let (was, now) = (stored.values.get(key), self.values.get(key));
                (was != now).then(|| format!("{key} {} → {}", show(was), show(now)))
            })
            .collect();
        if stored.seed != self.seed {
            moved.push(format!("seed {} → {}", stored.seed, self.seed));
        }
        if stored.id != self.id {
            moved.push(format!("id {} → {}", stored.id, self.id));
        }
        if moved.is_empty() {
            Ok(())
        } else {
            Err(format!("{} (seed {}): golden drift — {}", self.id, self.seed, moved.join(", ")))
        }
    }
}

/// `Values` from literal `(name, value)` pairs.
fn named<const N: usize>(pairs: [(&str, u128); N]) -> Values {
    pairs.into_iter().map(|(name, value)| (name.to_string(), value)).collect()
}

/// The key of item `i` of a `len`-item list under `prefix`, zero-padded
/// to the width of the last index so map order is list order.
fn indexed(prefix: &str, i: usize, len: usize) -> String {
    let width = len.saturating_sub(1).to_string().len();
    format!("{prefix}.{i:0width$}")
}

/// The record's seed: FNV-1a of its id folded into `master` — the same
/// id-hash → seed scheme as the scenario matrix.
fn id_seed(master: u64, id: &str) -> u64 {
    derive_seed(master, crate::fnv1a(id.bytes()))
}

/// Computes every record for `master`: the policy, sharded, partitioned
/// and work families, in that order.
///
/// # Errors
/// Set-up, tree, DP, runtime or I/O failures as messages.
pub fn compute_all(master: u64) -> Result<Vec<GoldenRecord>, String> {
    let mut records = policy_records(master)?;
    records.extend(sharded_records(master)?);
    records.extend(partitioned_records(master)?);
    records.extend(work_records(master, WORK_WORKERS)?);
    Ok(records)
}

/// Regenerates every record into `dir/<id>.json` (the `--bless` path).
/// Returns the number written.
///
/// # Errors
/// Computation or I/O failures as messages.
pub fn bless_all(dir: &Path, master: u64) -> Result<usize, String> {
    let records = compute_all(master)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    for record in &records {
        let path = dir.join(format!("{}.json", record.id));
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| format!("{}: serialize: {e}", record.id))?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("{}: write: {e}", path.display()))?;
    }
    Ok(records.len())
}

/// Recomputes every record and diffs it against `dir`. Returns the number
/// of records checked.
///
/// # Errors
/// One message per missing, unreadable or divergent record, each carrying
/// its seed so a red check replays directly, and one per stale
/// `dir/*.json` that no record produces.
pub fn check_all(dir: &Path, master: u64) -> Result<usize, Vec<String>> {
    check_records(&compute_all(master).map_err(|e| vec![e])?, dir)
}

/// [`check_all`] over already computed `records`, for a caller that also
/// reads them otherwise and so computes them once.
///
/// # Errors
/// As [`check_all`].
pub fn check_records(records: &[GoldenRecord], dir: &Path) -> Result<usize, Vec<String>> {
    let mut problems: Vec<String> = records.iter().filter_map(|r| r.check(dir).err()).collect();
    let ids: BTreeSet<&str> = records.iter().map(|r| r.id.as_str()).collect();
    let mut stale: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            path.extension().is_some_and(|ext| ext == "json")
                && !path.file_stem().and_then(|s| s.to_str()).is_some_and(|s| ids.contains(s))
        })
        .map(|path| format!("{}: stale golden — no record has this id; delete it", path.display()))
        .collect();
    stale.sort();
    problems.append(&mut stale);
    if problems.is_empty() {
        Ok(records.len())
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
    crate::fnv1a(lines.iter().flat_map(|line| line.bytes().chain([b'\n'])))
}

/// The policy family's cells: every density × k ∈ {2, 8} × {binary, quad}.
fn cases() -> Vec<(Density, usize, TreeKind)> {
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

/// The policy family at 64 users: the optimal `Cost(P, D)`, the number
/// of cloak groups, the smallest group (≥ k by construction), and the
/// assignment fingerprint, which pins the exact policy, not just its
/// cost.
fn policy_records(master: u64) -> Result<Vec<GoldenRecord>, String> {
    let users = 64usize;
    let map = Rect::square(0, 0, 1024);
    cases()
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
            let values = named([
                ("users", users as u128),
                ("k", k as u128),
                ("cost", cost),
                ("groups", policy.groups().len() as u128),
                ("min_group", policy.min_group_size().unwrap_or(0) as u128),
                ("fingerprint", policy_fingerprint(&policy).into()),
            ]);
            Ok(GoldenRecord { id, seed, values })
        })
        .collect()
}

/// The sharded family: a uniform 160-user population at k = 4,
/// partitioned 2/4/8 ways. (Uniform, not clustered: the greedy
/// partitioner backs off to fewer jurisdictions when a dense cluster
/// swallows the population, and the corpus wants real splits.) Pins the
/// shards the plan settled on, the merged policy's cost and fingerprint,
/// each shard's fingerprint in plan order, and the single-shard optimum
/// (`single_cost`), so the paper's ≤1% divergence bound sits beside the
/// policy itself.
fn sharded_records(master: u64) -> Result<Vec<GoldenRecord>, String> {
    let users = 160usize;
    let k = 4usize;
    let map = Rect::square(0, 0, 1024);
    [2usize, 4, 8]
        .into_iter()
        .map(|shards| {
            let id = format!("sharded_{shards}");
            let seed = id_seed(master, &id);
            let db = Density::Uniform.generate(users, map, derive_seed(seed, 10));
            let outcome = lbs_runtime::sharded_bulk(&db, map, k, shards)
                .map_err(|e| format!("{id}: sharded bulk: {e}"))?;
            let single =
                Anonymizer::build(&db, map, k).map_err(|e| format!("{id}: single-shard: {e}"))?;
            let mut values = named([
                ("users", users as u128),
                ("k", k as u128),
                ("shards_requested", shards as u128),
                ("shards_actual", outcome.plan.len() as u128),
                ("cost", outcome.cost),
                ("single_cost", single.cost()),
                ("merged_fingerprint", policy_fingerprint(&outcome.merged).into()),
            ]);
            let parts = outcome.policies.len();
            for (i, policy) in outcome.policies.iter().enumerate() {
                let key = indexed("shard_fingerprints", i, parts);
                values.insert(key, policy_fingerprint(policy).into());
            }
            Ok(GoldenRecord { id, seed, values })
        })
        .collect()
}

/// The partitioned family (Section V): every density × k ∈ {8, 50} ×
/// servers ∈ {16, 64} over 4,000 users, run on two workers through
/// [`anonymize_work_stealing`], which is bit-identical at every worker
/// count. Pins Σ server costs, the merged policy's fingerprint, and per
/// jurisdiction, in partition order, its rect, users and cost.
fn partitioned_records(master: u64) -> Result<Vec<GoldenRecord>, String> {
    let users = 4_000usize;
    let map = Rect::square(0, 0, 1 << 12);
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
                let mut values = named([
                    ("users", users as u128),
                    ("k", k as u128),
                    ("servers_requested", servers as u128),
                    ("cost", outcome.total_cost),
                    ("fingerprint", policy_fingerprint(&outcome.policy).into()),
                ]);
                let parts = outcome.servers.len();
                for (i, server) in outcome.servers.iter().enumerate() {
                    let key = indexed("jurisdictions", i, parts);
                    let r = server.jurisdiction;
                    for (name, coord) in [("x0", r.x0), ("y0", r.y0), ("x1", r.x1), ("y1", r.y1)] {
                        let coord = u128::try_from(coord)
                            .map_err(|_| format!("{id}: {key}.{name} {coord} is negative"))?;
                        values.insert(format!("{key}.{name}"), coord);
                    }
                    values.insert(format!("{key}.users"), server.users as u128);
                    values.insert(format!("{key}.cost"), server.cost);
                }
                out.push(GoldenRecord { id, seed, values });
            }
        }
    }
    Ok(out)
}

/// Users in every work-corpus population: big enough that the tree has
/// depth and a commit touches several subtrees, small enough for a debug
/// build.
const WORK_USERS: usize = 6_000;

/// Workers of the partitioned engine. The corpus pins two, so the
/// engine's work-stealing pool is exercised.
const WORK_WORKERS: usize = 2;

/// Draws an incremental work batch may take to move a user out of its
/// leaf (see `incremental_work`).
const INCREMENTAL_DRAWS: u64 = 64;

/// The work family for `master`: bulk at k ∈ {10, 50}, incremental
/// batches of m ∈ {1, 64, 4096} moves, 16 jurisdictions on the engine at
/// `workers` workers, a two-shard service under churn (fresh and with
/// expired deadlines), and a query-cache pass.
fn work_records(master: u64, workers: usize) -> Result<Vec<GoldenRecord>, String> {
    Ok(vec![
        bulk_work(master, 10)?,
        bulk_work(master, 50)?,
        incremental_work(master, 1)?,
        incremental_work(master, 64)?,
        incremental_work(master, 4096)?,
        partitioned_work(master, workers)?,
        churn_work(master, false)?,
        churn_work(master, true)?,
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
fn metric_counters(metrics: &Metrics, counters: &[Counter]) -> Values {
    counters.iter().map(|&c| (c.name().to_string(), metrics.get(c).into())).collect()
}

/// `Bulk_dp` end to end: the tree's shape, the DP rows and cells it
/// filled (the Lemma-5 bound caps the cells), the dense×dense (min,+)
/// pairs its convolutions span, and the extraction.
fn bulk_work(master: u64, k: usize) -> Result<GoldenRecord, String> {
    let (id, seed, db, map) = work_population(master, format!("work_bulk-k{k}"));
    let metrics = Metrics::new();
    let config = TreeConfig::lazy(TreeKind::Binary, map, k);
    let engine = Anonymizer::build_instrumented(&db, config, k, None, Some(&metrics))
        .map_err(|e| format!("{id}: bulk: {e}"))?;
    let (tree, matrix) = (engine.tree(), engine.matrix());
    let nodes = tree.postorder();
    let cells: usize =
        nodes.iter().filter_map(|&node| matrix.row(node)).map(|row| row.dense.len() + 1).sum();
    let len = |node| matrix.row(node).map_or(0, |row| row.dense.len() as u128);
    let pairs: u128 = nodes
        .iter()
        .filter_map(|&node| match *tree.node(node).children.as_slice() {
            [c1, c2] => Some(len(c1) * len(c2)),
            _ => None,
        })
        .sum();
    let stats = engine.tree_stats();
    let mut values = metric_counters(&metrics, &[Counter::ExtractNodes, Counter::CloaksWritten]);
    values.insert("tree.nodes".into(), stats.nodes as u128);
    values.insert("tree.leaves".into(), stats.leaves as u128);
    values.insert("tree.depth".into(), stats.max_depth.into());
    values.insert("dp.rows".into(), matrix.computed_rows() as u128);
    values.insert("dp.cells".into(), cells as u128);
    values.insert("dp.pairs".into(), pairs);
    Ok(GoldenRecord { id, seed, values })
}

/// Two batched incremental commits of exactly `m` moves each (≤ 200 m,
/// distinct users), each followed by an incremental extraction; the
/// refresh and extraction reports are summed over both.
///
/// Each batch moves at least one user out of its leaf. A move inside
/// its leaf dirties nothing, so a batch of only such moves measures no
/// work at all, while DESIGN §13's per-move cost curve starts at one
/// between-leaf move. Such a batch is redrawn from the next stream
/// (`2 + batch + 2·draw`); in the corpus only m = 1 needs it.
fn incremental_work(master: u64, m: usize) -> Result<GoldenRecord, String> {
    let (id, seed, db, map) = work_population(master, format!("work_incremental-m{m}"));
    let k = 10;
    let mut inc = IncrementalAnonymizer::new(&db, TreeConfig::lazy(TreeKind::Binary, map, k), k)
        .map_err(|e| format!("{id}: build: {e}"))?;
    // The first extraction is the full one; the batches measure the rest.
    inc.extract().map_err(|e| format!("{id}: extract: {e}"))?;
    let fraction = m as f64 / db.len() as f64;
    let mut values = Values::new();
    let mut add = |name: &str, n: usize| *values.entry(name.to_string()).or_insert(0) += n as u128;
    for batch in 0..2 {
        let tree = inc.tree();
        let changes_leaf = |mv: &Move| tree.leaf_of_user(mv.user) != tree.leaf_containing(&mv.to);
        let moves = (0..INCREMENTAL_DRAWS)
            .map(|draw| {
                random_moves(&db, &map, fraction, 200.0, derive_seed(seed, 2 + batch + 2 * draw))
            })
            .find(|moves| moves.iter().any(changes_leaf))
            .ok_or_else(|| format!("{id}: batch {batch} never leaves a leaf"))?;
        if moves.len() != m {
            return Err(format!("{id}: batch {batch} has {} moves", moves.len()));
        }
        let refresh = inc.apply_moves(&moves).map_err(|e| format!("{id}: commit: {e}"))?;
        let extract = inc.extract().map_err(|e| format!("{id}: extract: {e}"))?;
        add("rows_recomputed", refresh.rows_recomputed);
        add("rows_kept", refresh.rows_kept);
        add("rows_reused", refresh.rows_reused);
        add("cache_hits", refresh.cache_hits);
        add("cache_misses", refresh.cache_misses);
        add("extract_nodes", extract.nodes);
        add("cloaks_written", extract.cloaks);
    }
    Ok(GoldenRecord { id, seed, values })
}

/// The §V pipeline: 16 jurisdictions chosen by the lazy partitioner
/// (the rows its in-place passes scan), anonymized on the work-stealing
/// engine, then merged.
fn partitioned_work(master: u64, workers: usize) -> Result<GoldenRecord, String> {
    let (id, seed, db, map) = work_population(master, "work_partitioned-s16".to_string());
    let metrics = Metrics::new();
    let config = EngineConfig { workers, ..EngineConfig::default() };
    anonymize_work_stealing(&db, map, 10, 16, &config, Some(&metrics))
        .map_err(|e| format!("{id}: partitioned: {e}"))?;
    let values = metric_counters(
        &metrics,
        &[
            Counter::TasksExecuted,
            Counter::UsersAnonymized,
            Counter::ExtractNodes,
            Counter::CloaksWritten,
            Counter::PartitionRows,
        ],
    );
    Ok(GoldenRecord { id, seed, values })
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
fn churn_work(master: u64, expired: bool) -> Result<GoldenRecord, String> {
    let family = if expired { "work_churn-deadline" } else { "work_churn-fresh" };
    let (id, seed, db, map) = work_population(master, family.to_string());
    let dir = scratch_dir(&id);
    let result = drive_churn(&dir, seed, &db, map, expired);
    let _ = std::fs::remove_dir_all(&dir);
    let values = result.map_err(|e| format!("{id}: {e}"))?;
    Ok(GoldenRecord { id, seed, values })
}

fn drive_churn(
    dir: &Path,
    seed: u64,
    db: &LocationDb,
    map: Rect,
    expired: bool,
) -> Result<Values, String> {
    let clock = Arc::new(ManualClock::new());
    let metrics = Arc::new(Metrics::new());
    let fs = FaultFs::new(DiskFaultPlan::new());
    let mut cfg = ShardedConfig::new(10, map, 2);
    cfg.checkpoint_every = 4;
    cfg.retain_checkpoints = Some(2);
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
    let mut values = metric_counters(
        &metrics,
        &[
            Counter::ShardCommits,
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
            Counter::DegradedGroupsDerived,
        ],
    );
    values.insert("fs.ops".into(), fs.ops().into());
    values.insert("fs.writes".into(), fs.writes().into());
    let (wal, checkpoints) = stored_bytes(&rt)?;
    values.insert("wal.bytes".into(), wal.into());
    values.insert("checkpoint.bytes".into(), checkpoints.into());
    Ok(values)
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
fn query_cache_work(master: u64) -> Result<GoldenRecord, String> {
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
    let values = metric_counters(&metrics, &[Counter::CacheHits, Counter::CacheMisses]);
    Ok(GoldenRecord { id, seed, values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DEFAULT_MASTER_SEED;

    /// The values of `record` whose key starts with `prefix` and ends
    /// with `suffix`, in key order.
    fn list(record: &GoldenRecord, prefix: &str, suffix: &str) -> Vec<u128> {
        let keys = record.values.iter().filter(|(key, _)| key.starts_with(prefix));
        keys.filter(|(key, _)| key.ends_with(suffix)).map(|(_, v)| *v).collect()
    }

    #[test]
    fn corpus_is_deterministic_and_seed_sensitive() {
        let a = compute_all(DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(a, compute_all(DEFAULT_MASTER_SEED).unwrap());
        assert_eq!(a.len(), 36);
        let ids: BTreeSet<&str> = a.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), a.len(), "ids are file stems and must be unique");
        let other = policy_records(DEFAULT_MASTER_SEED ^ 1).unwrap();
        assert!(
            a.iter().zip(&other).any(|(x, y)| x.values["fingerprint"] != y.values["fingerprint"]),
            "a different master seed must move at least one fingerprint"
        );
    }

    #[test]
    fn policy_records_keep_every_group_at_k() {
        let records = policy_records(DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(records.len(), 12);
        for r in &records {
            assert!(r.values["min_group"] >= r.values["k"], "{}", r.id);
            assert!(r.values["cost"] > 0, "{}", r.id);
        }
    }

    #[test]
    fn sharded_records_split_within_the_divergence_bound() {
        let records = sharded_records(DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(records.len(), 3);
        for r in &records {
            let (cost, single) = (r.values["cost"], r.values["single_cost"]);
            assert!(r.values["shards_actual"] >= 2, "{}: did not split", r.id);
            let parts = list(r, "shard_fingerprints.", "").len();
            assert_eq!(parts as u128, r.values["shards_actual"], "{}", r.id);
            assert!(cost >= single, "{}: sharding cannot beat the optimum", r.id);
            let divergence = lbs_runtime::divergence_pct(cost, single);
            assert!(
                divergence <= 1.0,
                "{}: divergence {divergence:.3}% breaks the paper's 1% bound",
                r.id
            );
        }
    }

    #[test]
    fn partitioned_records_tile_every_user() {
        let records = partitioned_records(DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(records.len(), 12);
        for r in &records {
            let users = list(r, "jurisdictions.", ".users");
            assert!(users.len() >= 2, "{}: did not split", r.id);
            assert!(users.len() as u128 <= r.values["servers_requested"], "{}", r.id);
            let total: u128 = users.iter().sum();
            assert_eq!(total, r.values["users"], "{}: jurisdictions must cover every user", r.id);
            let cost: u128 = list(r, "jurisdictions.", ".cost").iter().sum();
            assert_eq!(cost, r.values["cost"], "{}: Σ server costs", r.id);
            for n in users {
                assert!(n == 0 || n >= r.values["k"], "{}: 0 < {n} < k", r.id);
            }
        }
    }

    /// Every recorded counter is identical at any worker count: only the
    /// partitioned engine takes workers, and its scans, tasks and merge
    /// do not depend on them. Arena reuse, like stolen tasks, varies from
    /// run to run at two workers and is not recorded at all.
    #[test]
    fn work_records_are_worker_independent() {
        let two = work_records(DEFAULT_MASTER_SEED, WORK_WORKERS).unwrap();
        let one = work_records(DEFAULT_MASTER_SEED, 1).unwrap();
        assert_eq!(two.len(), 9);
        for (two, one) in two.iter().zip(&one) {
            assert_eq!(two.values, one.values, "{}", two.id);
        }
        let churn = two.iter().find(|r| r.id == "work_churn-fresh").unwrap();
        for name in ["subtree_cache_hits", "checkpoints_written", "scrubs_run"] {
            assert!(churn.values[name] > 0, "{name} never moved: {:?}", churn.values);
        }
    }

    /// The paper's O(|B|·(kh)²) claim on the stored bulk work records:
    /// Σ dense×dense pairs ≤ |B|·((k+1)·h_max + 1)², each row capped at
    /// its Lemma-5 length (k+1)·h + 1.
    #[test]
    fn stored_bulk_work_stays_within_the_lemma5_pair_bound() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        for k in [10u128, 50] {
            let path = dir.join(format!("work_bulk-k{k}.json"));
            let record: GoldenRecord =
                serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let value = |key: &str| record.values[key];
            let per_node = (k + 1) * value("tree.depth") + 1;
            let bound = value("tree.nodes") * per_node * per_node;
            let pairs = value("dp.pairs");
            assert!(pairs > 0 && pairs <= bound, "{}: {pairs} pairs > bound {bound}", record.id);
        }
    }

    #[test]
    fn bless_all_then_check_all_round_trips_and_names_drift() {
        let dir = scratch_dir("golden");
        assert_eq!(bless_all(&dir, DEFAULT_MASTER_SEED).unwrap(), 36);
        assert_eq!(check_all(&dir, DEFAULT_MASTER_SEED).unwrap(), 36);
        // Tamper with one stored value of every family; each drift names
        // the key, stored → computed, with the record's seed.
        let tampered = [
            ("uniform-k2-binary", "cost"),
            ("sharded_4", "merged_fingerprint"),
            ("partitioned_uniform-k8-s16", "jurisdictions.00.cost"),
            ("work_bulk-k10", "dp.cells"),
        ];
        let mut expected = Vec::new();
        for (id, key) in tampered {
            let path = dir.join(format!("{id}.json"));
            let mut record: GoldenRecord =
                serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let value = record.values.get_mut(key).unwrap();
            *value += 1;
            let (was, now) = (*value, *value - 1);
            expected
                .push(format!("{id} (seed {}): golden drift — {key} {was} → {now}", record.seed));
            std::fs::write(&path, serde_json::to_string(&record).unwrap()).unwrap();
        }
        assert_eq!(check_all(&dir, DEFAULT_MASTER_SEED).unwrap_err(), expected);
        std::fs::remove_file(dir.join("sharded_2.json")).unwrap();
        let problems = check_all(&dir, DEFAULT_MASTER_SEED).unwrap_err();
        assert!(problems.iter().any(|p| p.starts_with("sharded_2: missing or unreadable golden")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_all_names_every_stale_file() {
        let dir = scratch_dir("golden-stale");
        bless_all(&dir, DEFAULT_MASTER_SEED).unwrap();
        // A retired cell's file and a stray one: no record produces either.
        for stem in ["uniform-k4-binary", "sharded_16"] {
            std::fs::copy(dir.join("sharded_2.json"), dir.join(format!("{stem}.json"))).unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "not a record").unwrap();
        let problems = check_all(&dir, DEFAULT_MASTER_SEED).unwrap_err();
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("sharded_16.json: stale golden"), "{}", problems[0]);
        assert!(problems[1].contains("uniform-k4-binary.json: stale golden"), "{}", problems[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
