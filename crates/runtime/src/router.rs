//! Deterministic user→shard routing over a jurisdiction tiling.
//!
//! The sharded serve path partitions the map into N shared-nothing
//! jurisdictions using the paper's greedy scheme (Section V, via the
//! tree-free [`lbs_parallel::partition_users`]): repeatedly replace the
//! most populous tree node whose children each hold 0 or ≥ k users by its
//! children. Each jurisdiction rect is a node of the binary semi-quadrant
//! tree, so sibling rects partition their parent's half-open rect exactly
//! and the chosen rects **tile the map**: every on-map point lies in
//! exactly one jurisdiction. Routing is therefore total and a pure
//! function of the plan — no hashing, no tie-breaking, no clock.
//!
//! A [`ShardPlan`] is frozen at service-creation time and persisted next
//! to the shard directories (the manifest), so recovery routes exactly
//! like the original process did. A user who moves across a jurisdiction
//! boundary is *migrated*: the router rewrites the `Move` into a
//! `Delete` on the source shard plus an `Insert` on the target shard,
//! keeping every shard's database strictly inside its own rect.

use crate::error::{io_err, RuntimeError};
use lbs_core::{Anonymizer, CoreError};
use lbs_geom::{Point, Rect};
use lbs_model::{BulkPolicy, LocationDb, UserId, UserUpdate};
use lbs_parallel::partition_users;
use lbs_tree::{TreeConfig, TreeKind};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

/// File name of the persisted shard plan inside a sharded service
/// directory.
pub const MANIFEST_FILE: &str = "shards.plan";

/// A frozen jurisdiction tiling: the routing table of the sharded
/// service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Anonymity level the plan was derived under.
    pub k: usize,
    /// The full map every jurisdiction came from.
    pub map: Rect,
    /// Jurisdiction rects in canonical (south-west corner) order. They
    /// tile `map`: disjoint, and their union covers every on-map point.
    pub regions: Vec<Rect>,
}

impl ShardPlan {
    /// Derives a plan for (up to) `shards` jurisdictions over the initial
    /// population. Deterministic: same `(db, map, k, shards)` → same
    /// plan, independent of worker counts, wall clocks, or iteration
    /// order. When the population cannot support `shards` non-empty
    /// jurisdictions (greedy stops splitting, or a split would strand an
    /// empty region), the plan holds fewer regions — never zero.
    ///
    /// # Errors
    /// An empty database, an invalid map, or a user off the map.
    pub fn plan(
        db: &LocationDb,
        map: Rect,
        k: usize,
        shards: usize,
    ) -> Result<ShardPlan, RuntimeError> {
        let mut users: Vec<(UserId, Point)> = db.iter().collect();
        Ok(Self::partition(&mut users, map, k, shards)?.0)
    }

    /// [`ShardPlan::plan`] over `users`, reordered in place so that each
    /// region's users are a contiguous range; also returns those ranges,
    /// in region order.
    fn partition(
        users: &mut [(UserId, Point)],
        map: Rect,
        k: usize,
        shards: usize,
    ) -> Result<(ShardPlan, Vec<Range<usize>>), RuntimeError> {
        if users.is_empty() {
            return Err(RuntimeError::Core(CoreError::Tree(
                "cannot plan shards over an empty database".into(),
            )));
        }
        // Greedy may hand back empty jurisdictions (children with count 0
        // are legal split targets). An empty shard cannot host a runtime,
        // so back off the shard count until every region is populated.
        let mut want = shards.max(1);
        loop {
            let mut jurisdictions = partition_users(users, map, k, want)
                .map_err(|e| RuntimeError::Core(CoreError::Tree(e)))?;
            if jurisdictions.iter().all(|j| !j.users.is_empty()) {
                jurisdictions.sort_by_key(|j| (j.rect.y0, j.rect.x0));
                let regions = jurisdictions.iter().map(|j| j.rect).collect();
                let ranges = jurisdictions.into_iter().map(|j| j.users).collect();
                return Ok((ShardPlan { k, map, regions }, ranges));
            }
            want -= 1; // want >= 2 here: a lone root region is never empty
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the plan has no regions (never true for a built plan).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The shard whose jurisdiction contains `p`, or `None` off-map.
    /// Total over the map: the rects are a partition, so exactly one
    /// contains any on-map point.
    pub fn route_point(&self, p: &Point) -> Option<usize> {
        self.regions.iter().position(|r| r.contains(p))
    }

    /// Splits one churn batch into per-shard batches, rewriting
    /// cross-shard moves into delete+insert migrations. `residence` maps
    /// every present user to the shard currently holding it; it is NOT
    /// updated here (the sharded runtime applies the returned batches
    /// first, then updates its index from them).
    ///
    /// Within each shard, input order is preserved, so per-shard WAL
    /// contents are a deterministic function of the input batch.
    ///
    /// # Errors
    /// An update naming an unknown user, an insert of a present user,
    /// or a target point that routes off the map.
    // lbs-lint: allow-item(panic-reachability, reason = "per_shard is sized to regions.len(); src comes from the residence map, which only holds indices this plan routed, and dst comes from route_point, a position() over regions — every index stays below regions.len()")
    pub fn split_updates(
        &self,
        residence: &BTreeMap<UserId, usize>,
        updates: &[UserUpdate],
    ) -> Result<SplitBatches, RuntimeError> {
        let mut out =
            SplitBatches { per_shard: vec![Vec::new(); self.regions.len()], migrations: 0 };
        // The closure drops the point on purpose: raw sender coordinates
        // must not reach error strings.
        let off_map = |user: UserId, _p: Point| {
            // lbs-lint: allow(location-taint, reason = "user id only; ids taint through the update binders, the coordinate was removed from the message")
            RuntimeError::Core(CoreError::Tree(format!(
                "user {} target routes off the map",
                user.0
            )))
        };
        for up in updates {
            match *up {
                UserUpdate::Move(m) => {
                    let src = *residence.get(&m.user).ok_or(RuntimeError::UnknownUser(m.user))?;
                    let dst = self.route_point(&m.to).ok_or_else(|| off_map(m.user, m.to))?;
                    if src == dst {
                        out.per_shard[src].push(UserUpdate::Move(m));
                    } else {
                        out.per_shard[src].push(UserUpdate::Delete { user: m.user });
                        out.per_shard[dst].push(UserUpdate::Insert { user: m.user, at: m.to });
                        out.migrations += 1;
                    }
                }
                UserUpdate::Insert { user, at } => {
                    if residence.contains_key(&user) {
                        return Err(RuntimeError::Model(lbs_model::ModelError::DuplicateUser(
                            user,
                        )));
                    }
                    let dst = self.route_point(&at).ok_or_else(|| off_map(user, at))?;
                    out.per_shard[dst].push(UserUpdate::Insert { user, at });
                }
                UserUpdate::Delete { user } => {
                    let src = *residence.get(&user).ok_or(RuntimeError::UnknownUser(user))?;
                    out.per_shard[src].push(UserUpdate::Delete { user });
                }
            }
        }
        Ok(out)
    }

    /// Renders the plan as the manifest text format (versioned,
    /// line-oriented, diff-friendly).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("lbs-shard-plan v1\n");
        out.push_str(&format!("k {}\n", self.k));
        let m = self.map;
        out.push_str(&format!("map {} {} {} {}\n", m.x0, m.y0, m.x1, m.y1));
        for r in &self.regions {
            out.push_str(&format!("shard {} {} {} {}\n", r.x0, r.y0, r.x1, r.y1));
        }
        out
    }

    /// Parses a manifest produced by [`encode`](Self::encode).
    ///
    /// # Errors
    /// A message naming the malformed line.
    pub fn decode(raw: &str) -> Result<ShardPlan, String> {
        let mut lines = raw.lines();
        if lines.next() != Some("lbs-shard-plan v1") {
            return Err("manifest header is not `lbs-shard-plan v1`".into());
        }
        fn rect_of(parts: &[&str], what: &str) -> Result<Rect, String> {
            if parts.len() != 4 {
                return Err(format!("{what}: expected 4 coordinates, got {}", parts.len()));
            }
            let mut c = [0i64; 4];
            for (slot, raw) in c.iter_mut().zip(parts) {
                *slot = raw.parse().map_err(|_| format!("{what}: bad coordinate {raw:?}"))?;
            }
            if c[0] >= c[2] || c[1] >= c[3] {
                return Err(format!("{what}: empty or inverted rect"));
            }
            Ok(Rect::new(c[0], c[1], c[2], c[3]))
        }
        let mut k = None;
        let mut map = None;
        let mut regions = Vec::new();
        for line in lines {
            let mut words = line.split_whitespace();
            match words.next() {
                Some("k") => {
                    let raw = words.next().ok_or("k line missing value")?;
                    k = Some(raw.parse::<usize>().map_err(|_| format!("bad k {raw:?}"))?);
                }
                Some("map") => map = Some(rect_of(&words.collect::<Vec<_>>(), "map")?),
                Some("shard") => regions.push(rect_of(&words.collect::<Vec<_>>(), "shard")?),
                None => {}
                Some(other) => return Err(format!("unknown manifest line {other:?}")),
            }
        }
        let k = k.ok_or("manifest missing k")?;
        let map = map.ok_or("manifest missing map")?;
        if regions.is_empty() {
            return Err("manifest has no shard lines".into());
        }
        Ok(ShardPlan { k, map, regions })
    }

    /// Writes the manifest into `dir` as [`MANIFEST_FILE`], atomically
    /// through `storage`: temp file + fsync + rename, the same publish
    /// protocol as checkpoints. A crash mid-write leaves either the old
    /// manifest or the new one — never a torn `shards.plan` that strands
    /// the whole fleet.
    ///
    /// # Errors
    /// Storage failures (injected disk faults included).
    pub fn store_via(
        &self,
        storage: &dyn crate::storage::StorageBackend,
        dir: &Path,
    ) -> Result<(), RuntimeError> {
        let path = dir.join(MANIFEST_FILE);
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        let mut file = storage.create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        file.write_all(self.encode().as_bytes()).map_err(|e| io_err("write", &tmp, e))?;
        file.sync().map_err(|e| io_err("sync", &tmp, e))?;
        drop(file);
        storage.rename(&tmp, &path).map_err(|e| io_err("rename", &tmp, e))
    }

    /// Reads the manifest back from `dir` through `storage`.
    ///
    /// # Errors
    /// A missing directory, unreadable file, or malformed manifest — the
    /// latter as a typed [`RuntimeError::CorruptCheckpoint`] naming the
    /// manifest, never a partial plan.
    pub fn load_via(
        storage: &dyn crate::storage::StorageBackend,
        dir: &Path,
    ) -> Result<ShardPlan, RuntimeError> {
        let path = dir.join(MANIFEST_FILE);
        let raw = storage.read(&path).map_err(|e| io_err("read", &path, e))?;
        let text = String::from_utf8(raw).map_err(|_| RuntimeError::CorruptCheckpoint {
            path: path.clone(),
            message: "shard manifest: not valid UTF-8".into(),
        })?;
        ShardPlan::decode(&text).map_err(|e| RuntimeError::CorruptCheckpoint {
            path,
            message: format!("shard manifest: {e}"),
        })
    }
}

/// Per-shard batches produced by [`ShardPlan::split_updates`].
#[derive(Debug, Clone)]
pub struct SplitBatches {
    /// One batch per shard, input order preserved within each.
    pub per_shard: Vec<Vec<UserUpdate>>,
    /// Cross-shard moves rewritten into delete+insert pairs.
    pub migrations: u64,
}

/// Merges per-shard policy outputs into one bulk policy over the whole
/// population. Shards hold disjoint user sets, so the merge is
/// order-independent: any permutation of `parts` produces a bit-identical
/// policy (the assignment table is keyed by `UserId`). The merged policy
/// keeps the per-shard name — it depends only on `k`, so every part
/// agrees on it and a one-shard merge is bit-identical to its input.
pub fn merge_policies(parts: &[BulkPolicy]) -> BulkPolicy {
    let name = parts.first().map_or("sharded-merged", |p| p.name()).to_string();
    let assignments: Vec<(UserId, lbs_geom::Region)> =
        parts.iter().flat_map(|p| p.iter().map(|(user, region)| (user, *region))).collect();
    BulkPolicy::from_assignments(name, assignments)
}

/// Outcome of the pure (non-durable) sharded bulk anonymization: the
/// reference computation behind the sharded golden corpus and the bench
/// shard-scaling cases.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The tiling used.
    pub plan: ShardPlan,
    /// Per-shard optimal policies, in plan order.
    pub policies: Vec<BulkPolicy>,
    /// The merged whole-population policy.
    pub merged: BulkPolicy,
    /// Exact aggregate cost of the merged policy.
    pub cost: u128,
}

/// Runs bulk anonymization sharded: plan the tiling, anonymize each
/// jurisdiction's sub-population on its own binary tree, merge. At one
/// shard this is exactly the single-shard bulk path (same tree, same DP,
/// same extraction), so the outputs are bit-identical.
///
/// # Errors
/// Plan, tree, or DP failures.
pub fn sharded_bulk(
    db: &LocationDb,
    map: Rect,
    k: usize,
    shards: usize,
) -> Result<ShardOutcome, RuntimeError> {
    let mut users: Vec<(UserId, Point)> = db.iter().collect();
    let (plan, ranges) = ShardPlan::partition(&mut users, map, k, shards)?;
    let mut policies = Vec::with_capacity(plan.len());
    for (region, range) in plan.regions.iter().zip(ranges) {
        let rows = users.get(range).unwrap_or_default();
        let config = TreeConfig::lazy(TreeKind::Binary, *region, k);
        let engine = Anonymizer::from_items(rows.iter().copied(), config, k, None, None)
            .map_err(RuntimeError::Core)?;
        policies.push(engine.into_policy());
    }
    let merged = merge_policies(&policies);
    let cost = merged.cost_exact().unwrap_or(0);
    Ok(ShardOutcome { plan, policies, merged, cost })
}

/// Percent cost divergence of a sharded outcome from the single-shard
/// optimum: `100 * (sharded - single) / single`. Zero when the costs
/// agree; the paper bounds this at ≤ 1% up to 4096 jurisdictions.
pub fn divergence_pct(sharded_cost: u128, single_cost: u128) -> f64 {
    if single_cost == 0 {
        return 0.0;
    }
    let sharded = sharded_cost as f64;
    let single = single_cost as f64;
    (sharded - single) / single * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_model::Move;
    use lbs_workload::derive_seed;

    fn seeded_db(seed: u64, users: usize, side: i64) -> LocationDb {
        LocationDb::from_rows((0..users).map(|i| {
            let i = i as u64;
            (
                UserId(i),
                Point::new(
                    (derive_seed(seed, 2 * i) % side as u64) as i64,
                    (derive_seed(seed, 2 * i + 1) % side as u64) as i64,
                ),
            )
        }))
        .unwrap()
    }

    #[test]
    fn plan_tiles_the_map_and_routes_every_user_once() {
        let map = Rect::square(0, 0, 128);
        let db = seeded_db(7, 200, 128);
        for shards in [1usize, 2, 4, 8] {
            let plan = ShardPlan::plan(&db, map, 4, shards).unwrap();
            assert!(!plan.is_empty() && plan.len() <= shards, "{shards}: {}", plan.len());
            for (user, p) in db.iter() {
                let hits = plan.regions.iter().filter(|r| r.contains(&p)).count();
                assert_eq!(hits, 1, "{user} at {p} in {hits} regions (shards={shards})");
            }
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let map = Rect::square(0, 0, 128);
        let db = seeded_db(11, 150, 128);
        let a = ShardPlan::plan(&db, map, 4, 4).unwrap();
        let b = ShardPlan::plan(&db, map, 4, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn manifest_round_trips() {
        let map = Rect::square(0, 0, 64);
        let db = seeded_db(3, 90, 64);
        let plan = ShardPlan::plan(&db, map, 4, 4).unwrap();
        let decoded = ShardPlan::decode(&plan.encode()).unwrap();
        assert_eq!(plan, decoded);
        assert!(ShardPlan::decode("garbage").is_err());
        assert!(ShardPlan::decode("lbs-shard-plan v1\nk 4\n").is_err());
    }

    #[test]
    fn cross_shard_moves_become_migrations() {
        let map = Rect::square(0, 0, 64);
        let db = seeded_db(5, 80, 64);
        let plan = ShardPlan::plan(&db, map, 4, 2).unwrap();
        assert_eq!(plan.len(), 2);
        let residence: BTreeMap<UserId, usize> =
            db.iter().map(|(u, p)| (u, plan.route_point(&p).unwrap())).collect();
        // Pick a user on shard 0 and move it into shard 1's region.
        let (user, _) = db.iter().find(|(u, _)| residence[u] == 0).unwrap();
        let target = plan.regions[1].center();
        let split =
            plan.split_updates(&residence, &[UserUpdate::Move(Move { user, to: target })]).unwrap();
        assert_eq!(split.migrations, 1);
        assert!(matches!(split.per_shard[0][..], [UserUpdate::Delete { user: u }] if u == user));
        assert!(
            matches!(split.per_shard[1][..], [UserUpdate::Insert { user: u, at }] if u == user && at == target)
        );
    }

    #[test]
    fn merge_is_order_independent_and_single_shard_is_identical() {
        let map = Rect::square(0, 0, 128);
        let db = seeded_db(13, 160, 128);
        let out = sharded_bulk(&db, map, 4, 4).unwrap();
        let mut reversed = out.policies.clone();
        reversed.reverse();
        let remerged = merge_policies(&reversed);
        assert_eq!(lbs_model::encode_policy(&out.merged), lbs_model::encode_policy(&remerged));
        // One shard degenerates to the plain bulk path.
        let one = sharded_bulk(&db, map, 4, 1).unwrap();
        let single = Anonymizer::build(&db, map, 4).unwrap();
        assert_eq!(
            lbs_model::encode_policy(&one.merged),
            lbs_model::encode_policy(single.policy())
        );
        assert!(out.cost >= one.cost, "sharding can only add cost");
    }
}
