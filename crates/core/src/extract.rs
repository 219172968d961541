//! Policy retrieval from a filled configuration matrix.
//!
//! The matrix fixes, for every node, how many locations pass up; Lemma 1
//! licenses picking *which* locations arbitrarily — every choice yields an
//! optimal policy of identical cost and anonymity. The top-down traversal
//! here mirrors the paper's description: start from the minimum-cost entry
//! of the root row (`u = 0` for a complete configuration), follow each
//! visited cell's child split ([`DpMatrix::split_of`] resolves it from the
//! cell's branch tag), then assign concrete users bottom-up.
//!
//! One routine, [`DpMatrix::extract_cloaks`], serves bulk extraction and
//! incremental commits. It is one walk down (pass-up targets into a `Vec`
//! indexed by arena slot) and one walk back up over a single shared stack
//! of passed-up ids. Given an [`ExtractCache`] of what the previous
//! extraction saw at every slot, the walk down stops at any node whose
//! tree version and target are both unchanged: its whole subtree's output
//! is unchanged, so the walk up pushes its recorded passed-up ids instead
//! of re-extracting it (a leaf splits its users again but writes no
//! cloaks). Without a cache every live node is extracted.

use crate::matrix::stale;
use crate::{Configuration, CoreError, DpMatrix};
use lbs_geom::Region;
use lbs_model::{BulkPolicy, UserId};
use lbs_tree::{NodeId, SpatialTree};

/// What one extraction saw at an arena slot.
#[derive(Debug, Clone)]
struct SlotRecord {
    /// [`SpatialTree::version`] of the node.
    version: u64,
    /// The node's pass-up target.
    target: usize,
    /// The `target` ids an internal node passed up (empty at a leaf).
    passed: Vec<UserId>,
}

/// What the last extraction saw, indexed by arena slot.
///
/// A record is reusable while the node's version and target both match
/// it. That is sound because the tree's dirty set is closed under
/// ancestors and bumps the version of every node in it, so an unchanged
/// version means no count or leaf membership changed anywhere in the
/// subtree, and hence no row (a move inside one leaf bumps nothing and
/// changes no cloak); and arena slots are never reused, so a record can
/// never be mistaken for a different node's. A bumped version does not
/// mean a changed row: the refresh may keep it, yet the ids passed up to
/// the node may differ, so the node is extracted again.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExtractCache {
    slots: Vec<Option<SlotRecord>>,
}

impl ExtractCache {
    /// True when nothing is recorded: the next extraction is a full one.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Forgets every record.
    pub(crate) fn clear(&mut self) {
        self.slots = Vec::new();
    }

    /// Releases the records of tombstoned slots, which are never live
    /// again.
    pub(crate) fn release(&mut self, detached: &[NodeId]) {
        for id in detached {
            if let Some(slot) = self.slots.get_mut(id.index()) {
                *slot = None;
            }
        }
    }

    /// The recorded passed-up ids of `id` (empty at a leaf), if its
    /// record is still valid at `version` with pass-up target `target`.
    fn reusable(&self, id: NodeId, version: u64, target: usize) -> Option<&[UserId]> {
        match self.slots.get(id.index()) {
            Some(Some(r)) if r.version == version && r.target == target => Some(&r.passed),
            _ => None,
        }
    }

    /// Records what an extraction of `id` saw.
    fn record(&mut self, id: NodeId, version: u64, target: usize, passed: &[UserId]) {
        if self.slots.len() <= id.index() {
            self.slots.resize_with(id.index() + 1, || None);
        }
        if let Some(slot) = self.slots.get_mut(id.index()) {
            match slot {
                Some(r) => {
                    r.version = version;
                    r.target = target;
                    r.passed.clear();
                    r.passed.extend_from_slice(passed);
                }
                None => *slot = Some(SlotRecord { version, target, passed: passed.to_vec() }),
            }
        }
    }
}

/// One node the walk down visited.
#[derive(Debug, Clone, Copy)]
struct Visit {
    id: NodeId,
    /// Pass-up target.
    target: usize,
    /// Whether a valid cache record stands in for the whole subtree.
    reused: bool,
}

/// The walk down: visited nodes in reverse postorder (children in
/// child-slice order once reversed) and pass-up targets by arena slot.
struct Targets {
    order: Vec<Visit>,
    by_slot: Vec<usize>,
}

/// What one extraction walk produced.
#[derive(Debug)]
pub(crate) struct Extraction {
    /// Users cloaked at extracted nodes as `(user, arena slot)`, sorted
    /// by user.
    pub(crate) cloaked: Vec<(UserId, u32)>,
    /// Nodes extracted (every live node when nothing was reused).
    pub(crate) nodes: usize,
}

impl DpMatrix {
    /// Reads off the optimal complete configuration (the pass-up count
    /// chosen for every node).
    ///
    /// # Errors
    /// Propagates infeasibility ([`CoreError::InsufficientPopulation`]) and
    /// stale-matrix conditions.
    pub fn extract_configuration(&self, tree: &SpatialTree) -> Result<Configuration, CoreError> {
        let mut config = Configuration::new();
        for visit in self.pass_up_targets(tree, None)?.order {
            config.set(visit.id, visit.target);
        }
        Ok(config)
    }

    /// Extracts one optimal policy-aware sender k-anonymous [`BulkPolicy`]
    /// (an arbitrary representative of the optimal equivalence class).
    ///
    /// Users cloaked at a node receive that node's rectangle as their
    /// cloak. Which of the passed-up users a node cloaks is arbitrary
    /// (Lemma 1); this implementation pins the canonical choice — the
    /// largest [`UserId`]s of every pool pass up — so the extracted
    /// policy is a pure function of the tree's rectangle structure and
    /// leaf membership, independent of the order in which users were
    /// inserted or moved (crash recovery relies on this to reproduce
    /// policies bit-identically from a rebuilt tree).
    ///
    /// # Errors
    /// [`CoreError::InsufficientPopulation`] when fewer than k users
    /// exist; [`CoreError::StaleMatrix`] when a row is missing or names a
    /// pass-up target no configuration of the tree can meet.
    pub fn extract_policy(&self, tree: &SpatialTree) -> Result<BulkPolicy, CoreError> {
        let extraction = self.extract_cloaks(tree, None)?;
        cloak_policy(tree, self.policy_name(), extraction.cloaked)
    }

    /// The name every extracted policy carries.
    pub(crate) fn policy_name(&self) -> String {
        format!("policy-aware-optimal(k={})", self.k)
    }

    /// The extraction routine behind [`extract_policy`](Self::extract_policy)
    /// and incremental commits. With `cache`, subtrees whose records are
    /// still valid are reused rather than extracted, and every extracted
    /// node's record is rewritten; without, every live node is extracted.
    ///
    /// On an error the cache may hold a mix of old and new records; the
    /// caller must [`clear`](ExtractCache::clear) it.
    pub(crate) fn extract_cloaks(
        &self,
        tree: &SpatialTree,
        mut cache: Option<&mut ExtractCache>,
    ) -> Result<Extraction, CoreError> {
        let targets = self.pass_up_targets(tree, cache.as_deref())?;
        // A full extraction cloaks every user exactly once.
        let capacity = if cache.is_none() { tree.count(tree.root()) } else { 0 };
        let mut cloaked: Vec<(UserId, u32)> = Vec::with_capacity(capacity);
        let mut nodes = 0usize;
        // Postorder leaves every child's passed-up ids on top of the
        // stack, so a node's pool is the top of the stack: its leaf users
        // at a leaf, the children's passed-up ids otherwise.
        let mut stack: Vec<UserId> = Vec::new();
        for visit in targets.order.iter().rev() {
            let Visit { id, target: u, reused } = *visit;
            let version = tree.version(id);
            let node = tree.node(id);
            let pooled = if node.is_leaf() {
                stack.extend(tree.leaf_users(id).iter().map(|&(user, _)| user));
                tree.leaf_users(id).len()
            } else if reused {
                let passed = cache.as_deref().and_then(|c| c.reusable(id, version, u));
                stack.extend_from_slice(passed.unwrap_or_default());
                continue;
            } else {
                node.children
                    .as_slice()
                    .iter()
                    .map(|c| targets.by_slot.get(c.index()).copied().unwrap_or(0))
                    .sum()
            };
            // A row that names a target larger than the pool below it is
            // a corrupted or foreign matrix: no configuration of this tree
            // meets it.
            let (Some(start), Some(cut)) = (stack.len().checked_sub(pooled), pooled.checked_sub(u))
            else {
                // lbs-lint: allow(location-taint, reason = "names a node id and two counts; no coordinate reaches the message")
                return Err(stale(format!(
                    "{id}: pass-up target {u} exceeds its pool of {pooled}"
                )));
            };
            let pool = &mut stack[start..];
            // Canonical split: the `u` largest ids pass up, the rest are
            // cloaked here. An O(|pool|) partition suffices — the cloaked
            // *set* (not order) determines the policy, and the cloaks are
            // sorted by user once at the end.
            if u > 0 && cut > 0 {
                pool.select_nth_unstable(cut);
            }
            if !reused {
                cloaked.extend(pool[..cut].iter().map(|&user| (user, id.0)));
                nodes += 1;
            }
            stack.drain(start..start + cut);
            if let (Some(c), false) = (cache.as_deref_mut(), reused) {
                // A leaf records no ids: reused, it splits its users again,
                // which costs what copying a record would.
                let passed = if node.is_leaf() { &[][..] } else { &stack[start..] };
                c.record(id, version, u, passed);
            }
        }
        debug_assert!(stack.is_empty(), "a complete configuration leaves nobody uncloaked");
        cloaked.sort_unstable_by_key(|&(user, _)| user);
        Ok(Extraction { cloaked, nodes })
    }

    /// The walk down: parents fix their children's pass-up targets
    /// (the root's is 0), stopping at nodes whose `cache` record is still
    /// valid.
    ///
    /// # Errors
    /// Infeasibility and stale-matrix conditions, as
    /// [`extract_policy`](Self::extract_policy).
    fn pass_up_targets(
        &self,
        tree: &SpatialTree,
        cache: Option<&ExtractCache>,
    ) -> Result<Targets, CoreError> {
        self.optimal_cost(tree)?; // validates feasibility and freshness
        let mut by_slot = vec![0usize; tree.arena_len()];
        let mut order = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let u = by_slot.get(id.index()).copied().unwrap_or(0);
            let reused = cache.is_some_and(|c| c.reusable(id, tree.version(id), u).is_some());
            order.push(Visit { id, target: u, reused });
            if reused {
                continue;
            }
            let split = self.split_of(tree, id, u)?;
            for (&child, &split) in tree.node(id).children.as_slice().iter().zip(&split) {
                let slot = by_slot
                    .get_mut(child.index())
                    .ok_or_else(|| stale(format!("a child of {id} is outside the arena")))?;
                *slot = split as usize;
                stack.push(child);
            }
        }
        Ok(Targets { order, by_slot })
    }
}

/// Turns sorted `(user, arena slot)` cloaks into a policy's columns. A
/// dense per-slot table numbers each cloaking node on first use, so the
/// cloak table holds one rectangle per node and no region is hashed per
/// user.
///
/// # Errors
/// [`CoreError::StaleMatrix`] on a slot outside the arena or a user
/// cloaked twice: no extraction of this tree produces either.
pub(crate) fn cloak_policy(
    tree: &SpatialTree,
    name: String,
    cloaked: Vec<(UserId, u32)>,
) -> Result<BulkPolicy, CoreError> {
    const UNSEEN: u32 = u32::MAX;
    let mut id_of = vec![UNSEEN; tree.arena_len()];
    let mut cloaks: Vec<Region> = Vec::new();
    let mut users = Vec::with_capacity(cloaked.len());
    let mut cloak_ids = Vec::with_capacity(cloaked.len());
    for (user, slot) in cloaked {
        let id = id_of
            .get_mut(slot as usize)
            .ok_or_else(|| stale("a cloak names a slot outside the arena".into()))?;
        if *id == UNSEEN {
            *id = cloaks.len() as u32;
            cloaks.push(tree.node(NodeId(slot)).rect.into());
        }
        users.push(user);
        cloak_ids.push(*id);
    }
    BulkPolicy::from_columns(name, users, cloak_ids, cloaks).map_err(|e| stale(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_fast::Win;
    use crate::matrix::Splits;
    use crate::{bulk_dp_dense, bulk_dp_fast, bulk_dp_fast_quad, verify_policy_aware, Row};
    use lbs_geom::{Point, Rect};
    use lbs_model::{encode_policy, LocationDb, Move, UserUpdate};
    use lbs_tree::{TreeConfig, TreeKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The extractor as it stood before the one-pass walk: a
    /// `Configuration` map of targets, one pool `Vec` per node, and an
    /// unsorted bulk load, reading each visited cell's split through
    /// [`DpMatrix::split_of`]. Kept as the reference the walk must match.
    fn reference_extract_policy(m: &DpMatrix, tree: &SpatialTree) -> BulkPolicy {
        m.optimal_cost(tree).unwrap();
        let mut config = Configuration::new();
        let mut targets = vec![0usize; tree.arena_len()];
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let u = targets[id.index()];
            config.set(id, u);
            let split = m.split_of(tree, id, u).unwrap();
            for (i, &child) in tree.node(id).children.as_slice().iter().enumerate() {
                targets[child.index()] = split[i] as usize;
                stack.push(child);
            }
        }
        let mut assignments: Vec<(UserId, Region)> = Vec::new();
        let mut passed: Vec<Vec<UserId>> = vec![Vec::new(); tree.arena_len()];
        let mut pool: Vec<UserId> = Vec::new();
        for id in tree.postorder() {
            let node = tree.node(id);
            let u = config.get(id).unwrap();
            pool.clear();
            if node.is_leaf() {
                pool.extend(tree.leaf_users(id).iter().map(|&(user, _)| user));
            } else {
                for &child in node.children.as_slice() {
                    pool.append(&mut std::mem::take(&mut passed[child.index()]));
                }
            }
            let cut = pool.len() - u;
            if u > 0 && cut > 0 {
                pool.select_nth_unstable(cut);
            }
            let region: Region = node.rect.into();
            assignments.extend(pool[..cut].iter().map(|&user| (user, region)));
            passed[id.index()] = pool[cut..].to_vec();
        }
        assert!(passed[tree.root().index()].is_empty());
        BulkPolicy::from_assignments(format!("policy-aware-optimal(k={})", m.k), assignments)
    }

    fn db(points: &[(i64, i64)]) -> LocationDb {
        LocationDb::from_rows(
            points.iter().enumerate().map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    }

    fn table1() -> LocationDb {
        db(&[(1, 1), (1, 2), (1, 3), (3, 1), (3, 3)])
    }

    #[test]
    fn extracted_configuration_is_optimal_and_k_summing() {
        let d = table1();
        let tree =
            SpatialTree::build(&d, TreeConfig::eager(TreeKind::Quad, Rect::square(0, 0, 4), 1))
                .unwrap();
        let m = bulk_dp_dense(&tree, 2).unwrap();
        let config = m.extract_configuration(&tree).unwrap();
        assert!(config.is_valid(&tree));
        assert!(config.is_complete(&tree));
        assert!(config.satisfies_k_summation(&tree, 2));
        assert_eq!(config.cost(&tree), Some(m.optimal_cost(&tree).unwrap()));
    }

    #[test]
    fn extracted_policy_cost_equals_matrix_cost() {
        let d = table1();
        let tree =
            SpatialTree::build(&d, TreeConfig::eager(TreeKind::Binary, Rect::square(0, 0, 4), 4))
                .unwrap();
        let m = bulk_dp_fast(&tree, 2).unwrap();
        let policy = m.extract_policy(&tree).unwrap();
        assert_eq!(policy.cost_exact(), Some(m.optimal_cost(&tree).unwrap()));
        assert!(policy.is_masking_and_total(&d));
        assert!(verify_policy_aware(&policy, &d, 2).is_ok());
    }

    #[test]
    fn extraction_fails_cleanly_when_infeasible() {
        let d = db(&[(1, 1)]);
        let tree =
            SpatialTree::build(&d, TreeConfig::eager(TreeKind::Binary, Rect::square(0, 0, 4), 2))
                .unwrap();
        let m = bulk_dp_fast(&tree, 2).unwrap();
        assert!(matches!(m.extract_policy(&tree), Err(CoreError::InsufficientPopulation { .. })));
    }

    #[test]
    fn one_pass_extractor_matches_the_reference_on_random_instances() {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(0xE7_7AC7);
        let side = 64;
        let mut partial_cuts = 0;
        let mut unsorted_pools = 0;
        for trial in 0..240 {
            let kind = if trial % 2 == 0 { TreeKind::Binary } else { TreeKind::Quad };
            let k = 1 + trial % 8;
            let n = rng.gen_range(k..=k * 12 + 20);
            // Ids in random order. A build sorts each leaf by id, so the
            // unsorted pools come from the churn batch below, whose
            // `swap_remove`/`push` leaf edits leave leaves out of id order
            // just as they do under incremental maintenance.
            let mut ids: Vec<u64> = (0..n as u64).collect();
            ids.shuffle(&mut rng);
            let point =
                |rng: &mut StdRng| Point::new(rng.gen_range(0..side), rng.gen_range(0..side));
            let items: Vec<(UserId, Point)> =
                ids.iter().map(|&id| (UserId(id), point(&mut rng))).collect();
            let config = if rng.gen_bool(0.5) {
                TreeConfig::lazy(kind, Rect::square(0, 0, side), k)
            } else {
                TreeConfig::eager(kind, Rect::square(0, 0, side), rng.gen_range(1..=5))
            };
            let mut tree = SpatialTree::from_items(items, config).unwrap();
            if trial % 3 == 0 {
                // Distinct users per event, so any order of the batch is valid.
                let deletes = rng.gen_range(0..=n - k);
                let moves = rng.gen_range(0..=n - deletes);
                let inserts = rng.gen_range(0..=n as u64);
                let mut batch: Vec<UserUpdate> = ids[moves..moves + deletes]
                    .iter()
                    .map(|&id| UserUpdate::Delete { user: UserId(id) })
                    .collect();
                for &id in &ids[..moves] {
                    batch.push(UserUpdate::Move(Move { user: UserId(id), to: point(&mut rng) }));
                }
                for id in n as u64..n as u64 + inserts {
                    batch.push(UserUpdate::Insert { user: UserId(id), at: point(&mut rng) });
                }
                batch.shuffle(&mut rng);
                tree.apply_updates(&batch).unwrap();
            }
            unsorted_pools += usize::from(
                tree.postorder()
                    .into_iter()
                    .any(|id| tree.leaf_users(id).windows(2).any(|pair| pair[0].0 > pair[1].0)),
            );
            let m = match kind {
                TreeKind::Binary => bulk_dp_fast(&tree, k).unwrap(),
                TreeKind::Quad => bulk_dp_fast_quad(&tree, k).unwrap(),
            };
            let policy = m.extract_policy(&tree).unwrap();
            let reference = reference_extract_policy(&m, &tree);
            assert_eq!(policy.name(), reference.name(), "trial {trial}");
            assert_eq!(encode_policy(&policy), encode_policy(&reference), "trial {trial}");
            let config = m.extract_configuration(&tree).unwrap();
            assert_eq!(config.len(), tree.live_len(), "trial {trial}");
            assert!(config.satisfies_k_summation(&tree, k), "trial {trial}");
            // Nodes that both cloak and pass up: where the canonical
            // choice of which ids pass up decides the policy.
            for id in tree.postorder() {
                let node = tree.node(id);
                let pool: usize = if node.is_leaf() {
                    node.count
                } else {
                    node.children.as_slice().iter().map(|&c| config.get(c).unwrap()).sum()
                };
                let u = config.get(id).unwrap();
                partial_cuts += usize::from(u > 0 && u < pool);
            }
        }
        assert!(partial_cuts > 0, "no node both cloaked and passed ids up");
        assert!(unsorted_pools > 0, "no trial extracted from a leaf pool out of id order");
    }

    /// A tree whose root has two leaf children, the first holding `c0`
    /// users, and its matrix with the root's `u = 0` tag rewritten to
    /// pass `c0 + extra` ids up from that leaf (whose row is rewritten to
    /// accept that target). Only the pool-size check can catch it.
    fn corrupted(extra: usize) -> (SpatialTree, DpMatrix) {
        let d = db(&[(1, 1), (1, 2), (3, 1), (3, 3)]);
        let tree =
            SpatialTree::build(&d, TreeConfig::eager(TreeKind::Binary, Rect::square(0, 0, 4), 1))
                .unwrap();
        let mut m = bulk_dp_fast(&tree, 2).unwrap();
        let root = tree.root();
        let [low, _] = *tree.node(root).children.as_slice() else {
            panic!("the root of a 4-user binary tree is internal")
        };
        assert!(tree.node(low).is_leaf());
        let target = tree.count(low) + extra;
        set_tag(&mut m, root, 0, Win::S2(target as u32));
        m.set_row(low, Row::leaf(target + 1, 1, Some(target)));
        (tree, m)
    }

    /// Overwrites the branch tag of cell `u` of `id`'s row.
    fn set_tag(m: &mut DpMatrix, id: NodeId, u: usize, win: Win) {
        let mut row = m.row(id).unwrap().clone();
        let Splits::Tags(tags) = &mut row.splits else { panic!("binary rows carry tags") };
        tags[u] = win.pack();
        m.set_row(id, row);
    }

    #[test]
    fn a_target_beyond_its_pool_is_a_stale_matrix_not_a_panic() {
        let (tree, m) = corrupted(3);
        match m.extract_policy(&tree) {
            Err(CoreError::StaleMatrix(msg)) => assert!(msg.contains("exceeds its pool"), "{msg}"),
            other => panic!("expected StaleMatrix, got {other:?}"),
        }
        // The walk down alone accepts the corrupted rows.
        assert!(m.extract_configuration(&tree).is_ok());
    }

    #[test]
    fn a_corrupted_tag_or_child_cost_is_a_stale_matrix_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(0x7A65);
        let points: Vec<(i64, i64)> =
            (0..80).map(|_| (rng.gen_range(0..32), rng.gen_range(0..32))).collect();
        let d = db(&points);
        let k = 3;
        let tree =
            SpatialTree::build(&d, TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 32), k))
                .unwrap();
        let m = bulk_dp_fast(&tree, k).unwrap();
        let config = m.extract_configuration(&tree).unwrap();
        let expect_stale = |m: &DpMatrix, id: NodeId, u: usize, what: &str| {
            let split = m.split_of(&tree, id, u);
            assert!(matches!(split, Err(CoreError::StaleMatrix(_))), "{what}: {split:?}");
            let policy = m.extract_policy(&tree);
            assert!(matches!(policy, Err(CoreError::StaleMatrix(_))), "{what}: {policy:?}");
        };

        // Tags naming an l1, l2 or j outside the root's children's rows.
        let root = tree.root();
        let [c1, c2] = *tree.node(root).children.as_slice() else { panic!("internal root") };
        let (a1, a2) = (m.row(c1).unwrap().dense.len(), m.row(c2).unwrap().dense.len());
        for win in [Win::S2(a1 as u32), Win::S3(a2 as u32), Win::Conv((a1 + a2) as u32)] {
            let mut bad = m.clone();
            set_tag(&mut bad, root, 0, win);
            expect_stale(&bad, root, 0, &format!("{win:?}"));
        }

        // A child cost raised under a visited Conv cell: the diagonal no
        // longer reaches the cell's cost.
        let conv = tree.postorder().into_iter().find(|&id| {
            let u = config.get(id).unwrap();
            match &m.row(id).unwrap().splits {
                Splits::Tags(tags) => {
                    tags.get(u).is_some_and(|&t| matches!(Win::unpack(t), Win::Conv(_)))
                }
                Splits::Explicit(_) => false,
            }
        });
        let id = conv.expect("some visited cell is won by the convolution");
        let u = config.get(id).unwrap();
        let child = tree.node(id).children.as_slice()[0];
        let mut bad = m.clone();
        let mut row = bad.row(child).unwrap().clone();
        row.dense.iter_mut().for_each(|cost| *cost += 1);
        bad.set_row(child, row);
        expect_stale(&bad, id, u, "raised child cost");

        // A missing child row.
        let mut bad = m.clone();
        bad.clear_row(child);
        expect_stale(&bad, id, u, "missing child row");
    }

    #[test]
    fn random_extractions_are_masking_anonymous_and_cost_exact() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..30 {
            let n = rng.gen_range(3..=20);
            let k = rng.gen_range(1..=3.min(n));
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..32), rng.gen_range(0..32))).collect();
            let d = db(&points);
            let tree = SpatialTree::build(
                &d,
                TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 32), k),
            )
            .unwrap();
            let m = bulk_dp_fast(&tree, k).unwrap();
            let policy = m.extract_policy(&tree).unwrap();
            assert!(policy.is_masking_and_total(&d), "trial {trial}");
            assert!(verify_policy_aware(&policy, &d, k).is_ok(), "trial {trial}");
            assert_eq!(policy.cost_exact(), Some(m.optimal_cost(&tree).unwrap()), "trial {trial}");
        }
    }
}
