//! The checked-in golden corpus: frozen optimal-policy outputs for a
//! fixed sub-matrix of scenarios.
//!
//! Each record pins the exact cost, group structure, and a fingerprint
//! of the full user→cloak assignment for one (density, k, tree) cell
//! under [`DEFAULT_MASTER_SEED`](crate::DEFAULT_MASTER_SEED). Any DP,
//! tree, or extraction refactor that silently shifts an optimal policy
//! trips the corpus; intentional changes are re-blessed with
//! `lbs conformance --bless true --golden tests/golden` (or
//! [`bless`]) and reviewed as a diff.

use crate::scenario::Density;
use lbs_core::{bulk_dp_fast, bulk_dp_fast_quad};
use lbs_model::BulkPolicy;
use lbs_parallel::{anonymize_work_stealing, EngineConfig};
use lbs_tree::{SpatialTree, TreeConfig, TreeKind};
use lbs_workload::derive_seed;
use serde::{Deserialize, Serialize};
use std::path::Path;

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

/// Writes one pretty-printed `dir/<id>.json` per record. Returns the
/// number written.
fn write_records<T: Serialize>(
    dir: &Path,
    records: &[T],
    id: impl Fn(&T) -> &str,
) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    for record in records {
        let path = dir.join(format!("{}.json", id(record)));
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| format!("{}: serialize: {e}", id(record)))?;
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("{}: write: {e}", path.display()))?;
    }
    Ok(records.len())
}

/// Diffs freshly computed `records` against `dir/<id>.json`: one message
/// per missing/unreadable file (naming the `what` corpus) and one per
/// divergent record (rendered by `drift(stored, fresh)`). Returns the
/// number of records checked.
fn diff_records<T>(
    dir: &Path,
    records: &[T],
    id: impl Fn(&T) -> &str,
    what: &str,
    drift: impl Fn(&T, &T) -> String,
) -> Result<usize, Vec<String>>
where
    T: PartialEq + for<'de> Deserialize<'de>,
{
    let mut problems = Vec::new();
    for fresh in records {
        let path = dir.join(format!("{}.json", id(fresh)));
        let stored: Option<T> =
            std::fs::read_to_string(&path).ok().and_then(|raw| serde_json::from_str(&raw).ok());
        match stored {
            None => problems.push(format!(
                "{}: missing or unreadable {what} {} — run with --bless",
                id(fresh),
                path.display()
            )),
            Some(stored) if &stored != fresh => problems.push(drift(&stored, fresh)),
            Some(_) => {}
        }
    }
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

/// Computes the corpus records for `master` (what [`bless`] writes and
/// [`check`] recomputes).
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

/// Regenerates `dir/*.json` from scratch (the `--bless` path). Returns
/// the number of records written.
///
/// # Errors
/// Computation or I/O failures as messages.
pub fn bless(dir: &Path, master: u64) -> Result<usize, String> {
    write_records(dir, &compute_corpus(master)?, |r: &GoldenRecord| &r.id)
}

/// Recomputes the corpus and diffs it against `dir/*.json`. Returns the
/// number of records checked.
///
/// # Errors
/// One message per missing/stale/divergent record (with its seed), so a
/// red check replays directly.
pub fn check(dir: &Path, master: u64) -> Result<usize, Vec<String>> {
    let records = compute_corpus(master).map_err(|e| vec![e])?;
    diff_records(
        dir,
        &records,
        |r| &r.id,
        "golden file",
        |stored, fresh| {
            format!(
                "{} (seed {}): golden drift — stored cost {} fp {:#x}, computed cost {} fp {:#x}",
                fresh.id,
                fresh.seed,
                stored.cost,
                stored.fingerprint,
                fresh.cost,
                fresh.fingerprint
            )
        },
    )
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

/// Regenerates `dir/sharded_*.json` (the `--bless` path). Returns the
/// number of records written.
///
/// # Errors
/// Computation or I/O failures as messages.
pub fn bless_sharded(dir: &Path, master: u64) -> Result<usize, String> {
    write_records(dir, &compute_sharded_corpus(master)?, |r: &ShardedGoldenRecord| &r.id)
}

/// Recomputes the sharded corpus and diffs it against `dir/sharded_*.json`.
/// Returns the number of records checked.
///
/// # Errors
/// One message per missing/stale/divergent record, carrying its seed.
pub fn check_sharded(dir: &Path, master: u64) -> Result<usize, Vec<String>> {
    let records = compute_sharded_corpus(master).map_err(|e| vec![e])?;
    diff_records(
        dir,
        &records,
        |r| &r.id,
        "sharded golden",
        |stored, fresh| {
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
        },
    )
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

/// Regenerates `dir/partitioned_*.json` (the `--bless` path). Returns the
/// number of records written.
///
/// # Errors
/// Computation or I/O failures as messages.
pub fn bless_partitioned(dir: &Path, master: u64) -> Result<usize, String> {
    write_records(dir, &compute_partitioned_corpus(master)?, |r: &PartitionedGoldenRecord| &r.id)
}

/// Recomputes the partitioned corpus and diffs it against
/// `dir/partitioned_*.json`. Returns the number of records checked.
///
/// # Errors
/// One message per missing/stale/divergent record, carrying its seed.
pub fn check_partitioned(dir: &Path, master: u64) -> Result<usize, Vec<String>> {
    let records = compute_partitioned_corpus(master).map_err(|e| vec![e])?;
    diff_records(
        dir,
        &records,
        |r| &r.id,
        "partitioned golden",
        |stored, fresh| {
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
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DEFAULT_MASTER_SEED;

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
    fn partitioned_bless_then_check_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("lbs-golden-partitioned-{}", std::process::id()));
        assert_eq!(bless_partitioned(&dir, DEFAULT_MASTER_SEED).unwrap(), 12);
        assert_eq!(check_partitioned(&dir, DEFAULT_MASTER_SEED).unwrap(), 12);
        let victim = dir.join("partitioned_uniform-k8-s16.json");
        let mut record: PartitionedGoldenRecord =
            serde_json::from_str(&std::fs::read_to_string(&victim).unwrap()).unwrap();
        record.jurisdictions[0].cost += 1;
        std::fs::write(&victim, serde_json::to_string(&record).unwrap()).unwrap();
        let problems = check_partitioned(&dir, DEFAULT_MASTER_SEED).unwrap_err();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("partitioned golden drift"), "{}", problems[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_bless_then_check_round_trips() {
        let dir = std::env::temp_dir().join(format!("lbs-golden-sharded-{}", std::process::id()));
        assert_eq!(bless_sharded(&dir, DEFAULT_MASTER_SEED).unwrap(), 3);
        assert_eq!(check_sharded(&dir, DEFAULT_MASTER_SEED).unwrap(), 3);
        let victim = dir.join("sharded_4.json");
        let mut record: ShardedGoldenRecord =
            serde_json::from_str(&std::fs::read_to_string(&victim).unwrap()).unwrap();
        record.merged_fingerprint ^= 1;
        std::fs::write(&victim, serde_json::to_string(&record).unwrap()).unwrap();
        let problems = check_sharded(&dir, DEFAULT_MASTER_SEED).unwrap_err();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("sharded golden drift"), "{}", problems[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bless_then_check_round_trips() {
        let dir = std::env::temp_dir().join(format!("lbs-golden-{}", std::process::id()));
        let written = bless(&dir, DEFAULT_MASTER_SEED).unwrap();
        assert_eq!(written, 12);
        assert_eq!(check(&dir, DEFAULT_MASTER_SEED).unwrap(), 12);
        // Tampering with a stored record must be detected.
        let victim = dir.join("uniform-k2-binary.json");
        let mut record: GoldenRecord =
            serde_json::from_str(&std::fs::read_to_string(&victim).unwrap()).unwrap();
        record.cost += 1;
        std::fs::write(&victim, serde_json::to_string(&record).unwrap()).unwrap();
        let problems = check(&dir, DEFAULT_MASTER_SEED).unwrap_err();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("golden drift"), "{}", problems[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
