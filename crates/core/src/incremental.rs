//! Incremental maintenance of the configuration matrix across snapshots
//! (Section IV, "Incremental Maintenance of M"; evaluated in Figure 5(b)).
//!
//! As users move between snapshots, only the DP rows of nodes whose
//! population `d(m)` (or materialized structure) changed need recomputing —
//! "the same bottom-up steps as algorithm `Bulk_dp`, starting only from the
//! quad tree leaves whose quadrants now contain a changed number of
//! locations". The tree layer reports the nodes whose **membership**
//! changed, ancestor-closed; a move inside one leaf reports none.
//!
//! Three mechanisms keep a batched commit proportional to what changed
//! rather than to the live tree:
//!
//! * **Dirty-path coalescing** — the refresh sweep is a DFS from the root
//!   that descends only into pending children, yielding a postorder of the
//!   dirty set in `O(|dirty|)` time. Overlapping root paths from many moves
//!   in one batch collapse: each shared ancestor is visited exactly once
//!   per commit, no matter how many moves dirtied it. A visited node's row
//!   is **recomputed only when one of its inputs changed**: it has no row,
//!   it was split or collapsed, its count is not the row's `d`, or a
//!   child's row changed since. Otherwise it is kept. Above a move's
//!   lowest common ancestor no count changes, so the sweep keeps rows from
//!   the first node whose children's rows came out unchanged.
//! * **Cost columns read in place** — recomputing an internal binary row
//!   needs only the **dense cost columns** of its two children, and a
//!   row stores its costs as a column of their own, so an untouched
//!   sibling feeds the convolution kernel straight from the matrix. A
//!   [`CostCache`] of the tree's per-node version counters tells such a
//!   re-read (a cache hit) from a first read at a new version (a miss).
//! * **Incremental extraction** — [`extract`](IncrementalAnonymizer::extract)
//!   keeps the committed policy and, per arena slot, what its extraction
//!   saw. It re-extracts only nodes whose version or pass-up target
//!   changed and patches the policy in place (DESIGN.md §9).
//!
//! Rows are produced by the same engines the bulk sweeps use
//! ([`combine_children`] is the binary bulk sweep's parent-row body,
//! [`quad_row`] the quad sweep's whole row engine), so incremental
//! maintenance inherits the bit-identity contract pinned by
//! `tests/differential.rs`.

use crate::dp_fast::{combine_children, dense_cap, missing_child_row, ChildPair};
use crate::dp_fast_quad::quad_row;
use crate::extract::{cloak_policy, ExtractCache};
use crate::matrix::{check_cost_bound, cost_area};
use crate::{bulk_dp_fast, bulk_dp_fast_quad, CoreError, DpMatrix, DpScratch, Row};
use lbs_geom::Area;
use lbs_model::{BulkPolicy, LocationDb, Move, UserId, UserUpdate};
use lbs_tree::{NodeId, SpatialTree, TreeConfig, TreeKind};
use std::cell::Cell;
use std::collections::HashSet;

/// Report of one incremental maintenance round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Moves applied.
    pub moved: usize,
    /// Users inserted.
    pub inserted: usize,
    /// Users deleted.
    pub deleted: usize,
    /// DP rows recomputed (vs. every live node for a bulk recomputation).
    pub rows_recomputed: usize,
    /// Pending rows the sweep visited and kept: no input of theirs changed,
    /// so recomputing them would have reproduced them byte for byte.
    pub rows_kept: usize,
    /// Live rows that could be reused untouched (the kept ones included).
    pub rows_reused: usize,
    /// Child cost columns re-read at a version a refresh already read.
    pub cache_hits: usize,
    /// Child cost columns first read at their current version.
    pub cache_misses: usize,
}

/// Work done by one [`IncrementalAnonymizer::extract`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractReport {
    /// Tree nodes extracted; every other live node's output was reused.
    pub nodes: usize,
    /// Cloaks written into the maintained policy.
    pub cloaks: usize,
}

/// The policy the last extraction produced, what that extraction saw at
/// every arena slot, and the users deleted since.
#[derive(Debug, Clone, Default)]
struct Extracted {
    policy: BulkPolicy,
    /// Empty until the first extraction, and after one that failed: the
    /// next extraction is then a full one and replaces `policy` whole.
    cache: ExtractCache,
    /// Users deleted (migrations out included) since `policy` was
    /// produced; recorded only while `cache` is not empty.
    deleted: Vec<UserId>,
}

/// The tree version at which each child row was last read, indexed by
/// arena id: the bookkeeping behind the refresh's cache counters.
///
/// A row's cost column is read in place, so nothing is copied on either
/// outcome. A hit means the child's membership has not changed since a
/// refresh last read, wrote or kept its row (the tree bumps a node's
/// version whenever a user enters or leaves its subtree, a superset of
/// the times its row changes): an untouched sibling read again.
/// `cache_hits` and `cache_misses` count the two outcomes, and the work
/// golden pins them.
#[derive(Debug, Clone, Default)]
struct CostCache {
    versions: Vec<Option<u64>>,
}

impl CostCache {
    /// Grows the index to cover `arena_len` node slots.
    fn resize(&mut self, arena_len: usize) {
        if self.versions.len() < arena_len {
            self.versions.resize(arena_len, None);
        }
    }

    /// `child`'s cost column: a hit when it is current at the child's
    /// tree version, counted into `report`; on a miss the version is
    /// recorded.
    ///
    /// # Errors
    /// [`CoreError::StaleMatrix`] when the child row is missing.
    fn ensure<'m>(
        &mut self,
        tree: &SpatialTree,
        matrix: &'m DpMatrix,
        parent: NodeId,
        child: NodeId,
        report: &mut IncrementalReport,
    ) -> Result<&'m [u64], CoreError> {
        let row = matrix.row(child).ok_or_else(|| missing_child_row(parent, child))?;
        let version = tree.version(child);
        if self.versions.get(child.index()) == Some(&Some(version)) {
            report.cache_hits += 1;
        } else {
            report.cache_misses += 1;
            self.store(child, version);
        }
        Ok(&row.dense)
    }

    /// Records that `id`'s row is current at `version` (called for every
    /// row a refresh recomputes or keeps, so parents applied later in the
    /// same sweep hit).
    fn store(&mut self, id: NodeId, version: u64) {
        self.resize(id.index() + 1);
        if let Some(slot) = self.versions.get_mut(id.index()) {
            *slot = Some(version);
        }
    }
}

/// Maintains a spatial tree (binary or quad) and its optimal configuration
/// matrix across a sequence of location-database snapshots.
///
/// Two usage modes:
///
/// * **Eager** — [`apply_moves`](Self::apply_moves) /
///   [`apply_updates`](Self::apply_updates) mutate the tree and recompute
///   the dirty DP rows in one call.
/// * **Staged** — [`stage_updates`](Self::stage_updates) mutates the tree
///   (cheap) and only records which rows went stale; a later
///   [`refresh`](Self::refresh) or
///   [`refresh_cancellable`](Self::refresh_cancellable) recomputes them.
///   While any row is pending, [`policy`](Self::policy) and
///   [`optimal_cost`](Self::optimal_cost) refuse with
///   [`CoreError::StaleMatrix`] rather than serve half-updated answers.
#[derive(Debug)]
pub struct IncrementalAnonymizer {
    tree: SpatialTree,
    matrix: DpMatrix,
    k: usize,
    kind: TreeKind,
    /// Rows invalidated by staged updates, not yet recomputed. A superset
    /// of the stale rows: restructuring may free some of these ids, which
    /// the next refresh sweep simply skips.
    pending: HashSet<NodeId>,
    /// Pending nodes whose row must be recomputed although its `d` still
    /// equals their count: nodes split or collapsed since their row was
    /// computed, and parents of rows a refresh changed (the "child
    /// changed" mark). Kept here rather than in a sweep, so a cancelled
    /// refresh resumes with the marks intact.
    stale_inputs: HashSet<NodeId>,
    /// Version of each child row last read (binary trees only; the quad
    /// sweep reads its children's rows without counting).
    cache: CostCache,
    /// Convolution/suffix buffers reused across refreshes.
    scratch: DpScratch,
    /// The maintained policy and what its extraction saw.
    extracted: Extracted,
}

impl Clone for IncrementalAnonymizer {
    fn clone(&self) -> Self {
        IncrementalAnonymizer {
            tree: self.tree.clone(),
            matrix: self.matrix.clone(),
            k: self.k,
            kind: self.kind,
            pending: self.pending.clone(),
            stale_inputs: self.stale_inputs.clone(),
            cache: self.cache.clone(),
            // Scratch holds no state a clone must observe — fresh buffers.
            scratch: DpScratch::new(),
            extracted: self.extracted.clone(),
        }
    }
}

impl IncrementalAnonymizer {
    /// Builds the tree and the full matrix for the initial snapshot.
    /// Binary trees use [`bulk_dp_fast`]'s postorder sweep, quad trees the
    /// sparse candidate-table sweep.
    ///
    /// # Errors
    /// Propagates tree-construction and DP errors.
    pub fn new(db: &LocationDb, config: TreeConfig, k: usize) -> Result<Self, CoreError> {
        let tree = SpatialTree::build(db, config).map_err(CoreError::Tree)?;
        let matrix = match config.kind {
            TreeKind::Binary => bulk_dp_fast(&tree, k)?,
            TreeKind::Quad => bulk_dp_fast_quad(&tree, k)?,
        };
        let mut cache = CostCache::default();
        cache.resize(tree.arena_len());
        Ok(IncrementalAnonymizer {
            tree,
            matrix,
            k,
            kind: config.kind,
            pending: HashSet::new(),
            stale_inputs: HashSet::new(),
            cache,
            scratch: DpScratch::new(),
            extracted: Extracted::default(),
        })
    }

    /// Applies one snapshot transition and recomputes only the dirty rows.
    ///
    /// # Errors
    /// [`CoreError::Tree`] when a move is invalid (unknown user/off-map);
    /// nothing is modified in that case.
    pub fn apply_moves(&mut self, moves: &[Move]) -> Result<IncrementalReport, CoreError> {
        let updates: Vec<UserUpdate> = moves.iter().copied().map(UserUpdate::Move).collect();
        self.apply_updates(&updates)
    }

    /// Applies one churn batch (moves, inserts, deletes) and recomputes
    /// only the dirty rows.
    ///
    /// # Errors
    /// [`CoreError::Tree`] when the batch is invalid (unknown/duplicate
    /// user, off-map target); nothing is modified in that case.
    pub fn apply_updates(
        &mut self,
        updates: &[UserUpdate],
    ) -> Result<IncrementalReport, CoreError> {
        let mut report = self.stage_updates(updates)?;
        let refreshed = self.refresh()?;
        report.rows_recomputed = refreshed.rows_recomputed;
        report.rows_kept = refreshed.rows_kept;
        report.rows_reused = refreshed.rows_reused;
        report.cache_hits = refreshed.cache_hits;
        report.cache_misses = refreshed.cache_misses;
        Ok(report)
    }

    /// Mutates the tree for one churn batch and records the stale DP rows
    /// without recomputing them.
    ///
    /// This is the cheap half of an update round: the expensive DP sweep is
    /// deferred to [`refresh`](Self::refresh), which a service runtime may
    /// run under a deadline. Staged batches compose: calling this several
    /// times before one refresh accumulates the union of dirty rows, and
    /// ancestors shared between batches still refresh once.
    ///
    /// # Errors
    /// [`CoreError::Tree`] when the batch is invalid; nothing is modified.
    pub fn stage_updates(
        &mut self,
        updates: &[UserUpdate],
    ) -> Result<IncrementalReport, CoreError> {
        let update = self.tree.apply_updates(updates).map_err(CoreError::Tree)?;
        self.matrix.resize_for(&self.tree);
        self.cache.resize(self.tree.arena_len());
        self.pending.extend(update.dirty);
        self.stale_inputs.extend(update.restructured);
        let extracted = &mut self.extracted;
        extracted.cache.release(&update.detached);
        if !extracted.cache.is_empty() {
            extracted.deleted.extend(updates.iter().filter_map(|up| match *up {
                UserUpdate::Delete { user } => Some(user),
                _ => None,
            }));
            if extracted.deleted.len() > extracted.policy.len() {
                // Patching would cost more than extracting afresh.
                extracted.cache.clear();
                extracted.deleted = Vec::new();
            }
        }
        Ok(IncrementalReport {
            moved: update.moved,
            inserted: update.inserted,
            deleted: update.deleted,
            ..Default::default()
        })
    }

    /// True when no staged rows await recomputation.
    pub fn is_fresh(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of DP rows staged for recomputation.
    pub fn pending_rows(&self) -> usize {
        self.pending.len()
    }

    /// Recomputes every pending row (the deferred half of
    /// [`stage_updates`](Self::stage_updates)).
    ///
    /// # Errors
    /// Propagates DP errors.
    pub fn refresh(&mut self) -> Result<IncrementalReport, CoreError> {
        self.refresh_cancellable(&|| false)
    }

    /// Recomputes pending rows, polling `cancel` before each recomputed
    /// row — the semi-quadrant granularity of cooperative cancellation.
    ///
    /// The sweep visits the **coalesced dirty postorder**: a DFS from the
    /// root descending only into pending children, `O(|dirty|)` regardless
    /// of tree size. A row is only recomputed after every stale descendant
    /// row has been, and only when one of its inputs changed (see the
    /// module docs); the rest are kept as they are. On cancellation the
    /// rows already retired are kept (they are correct for the current
    /// tree) and the rest stay pending, so a later refresh resumes where
    /// this one stopped and completes identically.
    ///
    /// The first row's poll is taken before the dirty walk, so a deadline
    /// that has already passed cancels in `O(1)`. `cancel` is still polled
    /// exactly once per recomputed row (that first poll standing in for
    /// the first one, or spent alone when every visited row is kept), and
    /// not at all when no live row is pending.
    ///
    /// # Errors
    /// [`CoreError::CostOverflow`] when inserts have grown the population
    /// past the DP's entry bound ([`crate::COST_BOUND`]), with every row
    /// left pending; [`CoreError::Cancelled`] when `cancel` fires with rows
    /// still pending; DP errors otherwise.
    pub fn refresh_cancellable(
        &mut self,
        cancel: &dyn Fn() -> bool,
    ) -> Result<IncrementalReport, CoreError> {
        let mut report = IncrementalReport::default();
        self.refresh_into(cancel, &mut report)?;
        Ok(report)
    }

    /// [`refresh_cancellable`](Self::refresh_cancellable), accumulating
    /// into `report` — so a cancelled sweep still accounts for the rows
    /// and cache hits it did compute.
    ///
    /// # Errors
    /// As [`refresh_cancellable`](Self::refresh_cancellable).
    pub fn refresh_into(
        &mut self,
        cancel: &dyn Fn() -> bool,
        report: &mut IncrementalReport,
    ) -> Result<(), CoreError> {
        if self.has_live_pending() {
            // Inserts can grow |D| past the DP's entry bound.
            check_cost_bound(&self.tree)?;
            if cancel() {
                return Err(CoreError::Cancelled);
            }
            let order = dirty_postorder(&self.tree, &self.pending);
            self.refresh_sequence(&order, &first_poll_taken(cancel), report)?;
        }
        self.finish_refresh(report);
        Ok(())
    }

    /// True when a live row awaits recomputation. The dirty set is
    /// ancestor-closed, so that is exactly when the root is pending; any
    /// other pending ids are strays freed by restructuring.
    fn has_live_pending(&self) -> bool {
        self.pending.contains(&self.tree.root())
    }

    /// True when pending node `id` keeps its row: the row exists, was
    /// computed for the node's current count, and no other input of it
    /// changed since (`stale_inputs` holds no mark for it).
    /// A row is a pure function of its node's count, rect and depth and of
    /// its children's `d` and cost columns, so a kept row is byte-identical
    /// to a recomputed one.
    fn keeps_row(&self, id: NodeId) -> bool {
        !self.stale_inputs.contains(&id)
            && self.matrix.row(id).is_some_and(|row| row.d == self.tree.count(id))
    }

    /// Installs a recomputed row of pending node `id` and retires the
    /// node. When the row's `(d, dense)` differs from the one it replaces,
    /// the parent is marked: its row read this one. Both `d` and `dense`
    /// count, since rows below k all have an empty `dense`.
    fn install(&mut self, id: NodeId, row: Row) {
        if let (true, Some(parent)) =
            (row_changed(self.matrix.row(id), &row), self.tree.node(id).parent)
        {
            self.stale_inputs.insert(parent);
        }
        self.stale_inputs.remove(&id);
        self.matrix.set_row(id, row);
        self.retire(id);
    }

    /// Retires pending node `id`, whose row is current at its version.
    fn retire(&mut self, id: NodeId) {
        if self.kind == TreeKind::Binary {
            self.cache.store(id, self.tree.version(id));
        }
        self.pending.remove(&id);
    }

    /// Visits `nodes` in order, keeping each current row and recomputing
    /// and applying the rest, polling `cancel` before each recomputed row.
    /// `nodes` must be in postorder with every descendant's row already
    /// retired.
    ///
    /// # Errors
    /// [`CoreError::Cancelled`] mid-sweep (retired rows stay retired);
    /// DP errors otherwise.
    fn refresh_sequence(
        &mut self,
        nodes: &[NodeId],
        cancel: &dyn Fn() -> bool,
        report: &mut IncrementalReport,
    ) -> Result<(), CoreError> {
        for &id in nodes {
            if self.keeps_row(id) {
                self.retire(id);
                report.rows_kept += 1;
                continue;
            }
            if cancel() {
                return Err(CoreError::Cancelled);
            }
            let row = recompute_row(
                &self.tree,
                &self.matrix,
                &mut self.cache,
                &mut self.scratch,
                self.k,
                id,
                report,
            )?;
            self.install(id, row);
            report.rows_recomputed += 1;
        }
        Ok(())
    }

    /// Closes out a completed refresh: clears stray pending ids and marks
    /// (ids freed by restructuring are no longer live rows) and fills in
    /// the reuse count.
    fn finish_refresh(&mut self, report: &mut IncrementalReport) {
        self.pending.clear();
        self.stale_inputs.clear();
        report.rows_reused = self.tree.live_len().saturating_sub(report.rows_recomputed);
    }

    /// The maintained tree.
    pub fn tree(&self) -> &SpatialTree {
        &self.tree
    }

    /// The maintained matrix.
    pub fn matrix(&self) -> &DpMatrix {
        &self.matrix
    }

    /// Anonymity level.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Optimal cost for the current snapshot.
    ///
    /// # Errors
    /// [`CoreError::StaleMatrix`] while staged rows await a refresh;
    /// [`CoreError::InsufficientPopulation`] when fewer than k users remain.
    pub fn optimal_cost(&self) -> Result<Area, CoreError> {
        self.ensure_fresh()?;
        self.matrix.optimal_cost(&self.tree)
    }

    /// An optimal policy for the current snapshot: brings the maintained
    /// policy up to date ([`extract`](Self::extract)) and borrows it.
    ///
    /// # Errors
    /// As [`extract`](Self::extract).
    pub fn policy(&mut self) -> Result<&BulkPolicy, CoreError> {
        self.extract()?;
        Ok(&self.extracted.policy)
    }

    /// Brings the maintained policy up to date with the refreshed matrix,
    /// re-extracting only the subtrees the tree touched since the last
    /// extraction.
    ///
    /// The walk down from the root stops at every node whose tree version
    /// and pass-up target both match what the last extraction saw there,
    /// and reuses the ids that node passed up; the rest is extracted in
    /// postorder by the routine behind [`DpMatrix::extract_policy`]. The
    /// policy is then patched in one merge pass over its sorted user
    /// column ([`BulkPolicy::patch`]): users deleted since are removed,
    /// and every user cloaked at an extracted node is rewritten. The first
    /// extraction (and the one after a failure) extracts every node and
    /// replaces the policy whole. Either way the result equals
    /// `matrix().extract_policy(tree())`.
    ///
    /// # Errors
    /// [`CoreError::StaleMatrix`] while staged rows await a refresh, or on
    /// a row that no configuration of the tree can meet;
    /// [`CoreError::InsufficientPopulation`] when fewer than k users
    /// remain. The maintained policy is left as it was.
    pub fn extract(&mut self) -> Result<ExtractReport, CoreError> {
        self.ensure_fresh()?;
        let extracted = &mut self.extracted;
        let full = extracted.cache.is_empty();
        let (tree, matrix) = (&self.tree, &self.matrix);
        let built =
            matrix.extract_cloaks(tree, Some(&mut extracted.cache)).and_then(|extraction| {
                let report =
                    ExtractReport { nodes: extraction.nodes, cloaks: extraction.cloaked.len() };
                Ok((report, cloak_policy(tree, matrix.policy_name(), extraction.cloaked)?))
            });
        let (report, cloaks) = match built {
            Ok(built) => built,
            Err(e) => {
                extracted.cache.clear();
                extracted.deleted = Vec::new();
                return Err(e);
            }
        };
        if full {
            extracted.policy = cloaks;
        } else {
            extracted.policy.patch(std::mem::take(&mut extracted.deleted), &cloaks);
        }
        Ok(report)
    }

    /// The policy the last successful extraction produced (empty before
    /// the first): what a service keeps serving while rows are pending,
    /// after a cancelled refresh, or after a failed extraction.
    pub fn committed_policy(&self) -> &BulkPolicy {
        &self.extracted.policy
    }

    fn ensure_fresh(&self) -> Result<(), CoreError> {
        if self.pending.is_empty() {
            Ok(())
        } else {
            Err(CoreError::StaleMatrix(format!("{} staged rows await refresh", self.pending.len())))
        }
    }
}

/// Wraps `cancel` for a sweep whose first row's poll the caller has
/// already taken: the first call answers `false` without polling, every
/// later call polls. Keeps `cancel` polled exactly once per computed row
/// when the first poll is hoisted ahead of an `O(|dirty|)` walk.
pub fn first_poll_taken<F: Fn() -> bool>(cancel: F) -> impl Fn() -> bool {
    let taken = Cell::new(true);
    move || !taken.replace(false) && cancel()
}

/// Postorder of the pending nodes reachable from the root by descending
/// only into pending children — the coalesced dirty sweep order.
///
/// The dirty set is ancestor-closed (every live pending node's parent is
/// pending up to the root), so a pending root reaches every live pending
/// row; tombstoned strays are unreachable and simply skipped. Sibling
/// order is the tree's child-slice order, so the result is deterministic.
fn dirty_postorder(tree: &SpatialTree, pending: &HashSet<NodeId>) -> Vec<NodeId> {
    let mut stack = vec![tree.root()];
    let mut order = Vec::new();
    while let Some(id) = stack.pop() {
        order.push(id);
        for &c in tree.node(id).children.as_slice() {
            if pending.contains(&c) {
                stack.push(c);
            }
        }
    }
    // `order` holds parents before children with sibling groups reversed;
    // reversing yields children before parents in child-slice order.
    order.reverse();
    order
}

/// True when `new` differs in `d` or cost column from `old`, the row it
/// replaces (or there was none): a parent that read `old` must recompute.
fn row_changed(old: Option<&Row>, new: &Row) -> bool {
    !old.is_some_and(|old| old.d == new.d && old.dense == new.dense)
}

/// Recomputes one row for the sequential sweep, reading each child's
/// cost column through [`CostCache::ensure`].
fn recompute_row(
    tree: &SpatialTree,
    matrix: &DpMatrix,
    cache: &mut CostCache,
    scratch: &mut DpScratch,
    k: usize,
    id: NodeId,
    report: &mut IncrementalReport,
) -> Result<Row, CoreError> {
    let node = tree.node(id);
    let (d, area) = (node.count, cost_area(&node.rect));
    let cap = dense_cap(d, node.depth, k);
    match *node.children.as_slice() {
        [] => Ok(Row::leaf(d, area, cap)),
        [c1, c2] => {
            let pair = ChildPair {
                dense1: cache.ensure(tree, matrix, id, c1, report)?,
                dense2: cache.ensure(tree, matrix, id, c2, report)?,
                d1: tree.node(c1).count,
                d2: tree.node(c2).count,
            };
            Ok(combine_children(pair, d, area, cap, k, scratch))
        }
        _ => quad_row(tree, matrix, id, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_policy_aware;
    use lbs_geom::{Point, Rect};
    use lbs_model::UserId;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_db(rng: &mut StdRng, n: usize, side: i64) -> LocationDb {
        LocationDb::from_rows((0..n).map(|i| {
            (UserId(i as u64), Point::new(rng.gen_range(0..side), rng.gen_range(0..side)))
        }))
        .unwrap()
    }

    fn random_moves(rng: &mut StdRng, n: u64, count: usize, side: i64) -> Vec<Move> {
        let moves: Vec<Move> = (0..count)
            .map(|_| Move {
                user: UserId(rng.gen_range(0..n)),
                to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            })
            .collect();
        // Last-write-wins dedup for unambiguous reference semantics.
        let mut seen = std::collections::HashSet::new();
        moves.into_iter().rev().filter(|m| seen.insert(m.user)).collect()
    }

    #[test]
    fn incremental_equals_bulk_recomputation_over_many_rounds() {
        let mut rng = StdRng::seed_from_u64(31);
        let side = 64i64;
        let n = 60;
        let k = 4;
        let mut db = random_db(&mut rng, n, side);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), k);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();

        for round in 0..20 {
            let moves = random_moves(&mut rng, n as u64, 6, side);
            db.apply_moves(&moves).unwrap();
            let report = inc.apply_moves(&moves).unwrap();
            assert_eq!(report.moved, moves.len());

            let fresh_tree = SpatialTree::build(&db, cfg).unwrap();
            let fresh_cost =
                bulk_dp_fast(&fresh_tree, k).unwrap().optimal_cost(&fresh_tree).unwrap();
            assert_eq!(inc.optimal_cost().unwrap(), fresh_cost, "round {round}");

            let policy = inc.policy().unwrap();
            assert!(policy.is_masking_and_total(&db), "round {round}");
            assert!(verify_policy_aware(policy, &db, k).is_ok(), "round {round}");
        }
    }

    #[test]
    fn small_batches_reuse_most_rows() {
        let mut rng = StdRng::seed_from_u64(8);
        let side = 256i64;
        let db = random_db(&mut rng, 500, side);
        let k = 10;
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), k);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();
        // Users nudge by a few meters, one at a time.
        let nudge = |user: UserId| {
            let from = db.location(user).unwrap();
            Move { user, to: Point::new((from.x + 2).min(side - 1), from.y) }
        };
        let stays = |inc: &IncrementalAnonymizer, m: &Move| {
            inc.tree().leaf_of_user(m.user) == inc.tree().leaf_containing(&m.to)
        };
        let moves: Vec<Move> = (0..500).map(|u| nudge(UserId(u))).collect();
        // A nudge inside its leaf dirties nothing, so nothing is recomputed.
        let inside = *moves.iter().find(|m| stays(&inc, m)).unwrap();
        inc.stage_updates(&[UserUpdate::Move(inside)]).unwrap();
        assert!(inc.is_fresh(), "{} rows pending", inc.pending_rows());
        // A nudge into the next leaf: the vast majority of rows reuse.
        let across = *moves.iter().find(|m| !stays(&inc, m)).unwrap();
        let report = inc.apply_moves(&[across]).unwrap();
        assert!(report.rows_recomputed > 0, "{report:?}");
        assert!(
            report.rows_recomputed <= 2 * 40 + 4,
            "at most two root paths plus restructuring: {report:?}"
        );
        assert!(report.rows_reused > report.rows_recomputed);
    }

    #[test]
    fn repeat_batches_hit_the_subtree_cache() {
        let mut rng = StdRng::seed_from_u64(9);
        let side = 256i64;
        let n = 400u64;
        let mut db = random_db(&mut rng, n as usize, side);
        let k = 8;
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), k);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();

        // First batch fills the cache for every clean sibling it reads.
        let moves = random_moves(&mut rng, n, 8, side);
        db.apply_moves(&moves).unwrap();
        let first = inc.apply_moves(&moves).unwrap();
        assert!(first.cache_misses > 0, "cold cache must fill: {first:?}");

        // A second batch through the same region re-reads clean siblings
        // at versions the cache already holds.
        let moves = random_moves(&mut rng, n, 8, side);
        db.apply_moves(&moves).unwrap();
        let second = inc.apply_moves(&moves).unwrap();
        assert!(second.cache_hits > 0, "warm cache must hit: {second:?}");
    }

    #[test]
    fn invalid_moves_leave_state_intact() {
        let mut rng = StdRng::seed_from_u64(12);
        let db = random_db(&mut rng, 20, 32);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 32), 3);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, 3).unwrap();
        let before = inc.optimal_cost().unwrap();
        let bad = [Move { user: UserId(999), to: Point::new(1, 1) }];
        assert!(inc.apply_moves(&bad).is_err());
        assert_eq!(inc.optimal_cost().unwrap(), before);
    }

    #[test]
    fn churn_batches_match_fresh_recomputation() {
        let mut rng = StdRng::seed_from_u64(77);
        let side = 64i64;
        let k = 4;
        let mut db = random_db(&mut rng, 50, side);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), k);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();
        for round in 0u64..15 {
            let ids: Vec<_> = db.users().collect();
            let mut updates = vec![UserUpdate::Insert {
                user: UserId(50 + round),
                at: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            }];
            updates.push(UserUpdate::Delete { user: ids[rng.gen_range(0..ids.len())] });
            for _ in 0..4 {
                let user = ids[rng.gen_range(0..ids.len())];
                if updates.iter().any(|u| u.user() == user) {
                    continue;
                }
                updates.push(UserUpdate::Move(Move {
                    user,
                    to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
                }));
            }
            db.apply_updates(&updates).unwrap();
            inc.apply_updates(&updates).unwrap();

            let fresh_tree = SpatialTree::build(&db, cfg).unwrap();
            let fresh_cost =
                bulk_dp_fast(&fresh_tree, k).unwrap().optimal_cost(&fresh_tree).unwrap();
            assert_eq!(inc.optimal_cost().unwrap(), fresh_cost, "round {round}");
            let policy = inc.policy().unwrap();
            assert!(policy.is_masking_and_total(&db), "round {round}");
            assert!(verify_policy_aware(policy, &db, k).is_ok(), "round {round}");
        }
    }

    #[test]
    fn staged_updates_defer_and_block_reads() {
        let mut rng = StdRng::seed_from_u64(5);
        let side = 64i64;
        let mut db = random_db(&mut rng, 40, side);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), 4);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, 4).unwrap();
        assert!(inc.is_fresh());

        let moves = [
            Move { user: UserId(0), to: Point::new(1, 1) },
            Move { user: UserId(1), to: Point::new(side - 2, side - 2) },
        ];
        let updates: Vec<UserUpdate> = moves.iter().copied().map(UserUpdate::Move).collect();
        db.apply_moves(&moves).unwrap();
        let staged = inc.stage_updates(&updates).unwrap();
        assert_eq!(staged.moved, 2);
        assert_eq!(staged.rows_recomputed, 0);
        assert!(!inc.is_fresh());
        assert!(inc.pending_rows() > 0);
        assert!(matches!(inc.policy(), Err(CoreError::StaleMatrix(_))));
        assert!(matches!(inc.optimal_cost(), Err(CoreError::StaleMatrix(_))));

        let refreshed = inc.refresh().unwrap();
        assert!(refreshed.rows_recomputed > 0);
        assert!(inc.is_fresh());
        let fresh_tree = SpatialTree::build(&db, cfg).unwrap();
        let fresh_cost = bulk_dp_fast(&fresh_tree, 4).unwrap().optimal_cost(&fresh_tree).unwrap();
        assert_eq!(inc.optimal_cost().unwrap(), fresh_cost);
    }

    #[test]
    fn cancelled_refresh_resumes_to_identical_matrix() {
        let mut rng = StdRng::seed_from_u64(13);
        let side = 128i64;
        let mut db = random_db(&mut rng, 120, side);
        let k = 5;
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), k);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();

        let moves: Vec<Move> = (0..20)
            .map(|i| Move {
                user: UserId(i),
                to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            })
            .collect();
        let updates: Vec<UserUpdate> = moves.iter().copied().map(UserUpdate::Move).collect();
        db.apply_moves(&moves).unwrap();
        inc.stage_updates(&updates).unwrap();
        let total = inc.pending_rows();
        assert!(total > 4, "need enough pending rows to cancel mid-sweep: {total}");

        // Cancel after 3 rows, at every-row (semi-quadrant) granularity.
        let budget = std::cell::Cell::new(3usize);
        let cancel = move || {
            if budget.get() == 0 {
                true
            } else {
                budget.set(budget.get() - 1);
                false
            }
        };
        assert!(matches!(inc.refresh_cancellable(&cancel), Err(CoreError::Cancelled)));
        assert_eq!(inc.pending_rows(), total - 3, "three rows committed before the cut");
        assert!(matches!(inc.policy(), Err(CoreError::StaleMatrix(_))));

        // Resume without a deadline: result identical to a never-cancelled run.
        inc.refresh().unwrap();
        let fresh_tree = SpatialTree::build(&db, cfg).unwrap();
        let fresh_cost = bulk_dp_fast(&fresh_tree, k).unwrap().optimal_cost(&fresh_tree).unwrap();
        assert_eq!(inc.optimal_cost().unwrap(), fresh_cost);
        let policy = inc.policy().unwrap();
        assert!(verify_policy_aware(policy, &db, k).is_ok());
    }

    /// A freshly built anonymizer with one staged batch of `moves` moves.
    fn staged(seed: u64, moves: usize) -> IncrementalAnonymizer {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 128i64;
        let db = random_db(&mut rng, 200, side);
        let k = 5;
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), k);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();
        let updates: Vec<UserUpdate> =
            random_moves(&mut rng, 200, moves, side).into_iter().map(UserUpdate::Move).collect();
        inc.stage_updates(&updates).unwrap();
        inc
    }

    #[test]
    fn a_corrupted_row_fails_extraction_and_keeps_the_committed_policy() {
        use crate::dp_fast::Win;
        use crate::matrix::Splits;
        use lbs_model::encode_policy;
        let mut rng = StdRng::seed_from_u64(23);
        let side = 128i64;
        let db = random_db(&mut rng, 200, side);
        let k = 5;
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), k);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();
        let committed = encode_policy(inc.policy().unwrap());
        let updates: Vec<UserUpdate> =
            random_moves(&mut rng, 200, 8, side).into_iter().map(UserUpdate::Move).collect();
        inc.stage_updates(&updates).unwrap();
        inc.refresh().unwrap();

        // The root now passes more ids up from its first child than that
        // subtree holds, and the child's row accepts the target.
        let root = inc.tree.root();
        let [low, _] = *inc.tree.node(root).children.as_slice() else {
            panic!("the refreshed root is internal")
        };
        let saved = (inc.matrix.row(root).unwrap().clone(), inc.matrix.row(low).unwrap().clone());
        let target = inc.tree.count(low) + 3;
        let mut row = saved.0.clone();
        let Splits::Tags(tags) = &mut row.splits else { panic!("binary rows carry tags") };
        tags[0] = Win::S2(target as u32).pack();
        inc.matrix.set_row(root, row);
        // The first child's row gains a free cell at the target, where its
        // own children pass everything up.
        let mut child = saved.1.clone();
        child.d = target + 1;
        child.dense.resize(target + 1, 0);
        let Splits::Tags(tags) = &mut child.splits else { panic!("binary rows carry tags") };
        tags.resize(target + 1, Win::Block4.pack());
        inc.matrix.set_row(low, child);
        match inc.extract() {
            Err(CoreError::StaleMatrix(msg)) => assert!(msg.contains("exceeds its pool"), "{msg}"),
            other => panic!("expected StaleMatrix, got {other:?}"),
        }
        assert_eq!(encode_policy(inc.committed_policy()), committed, "committed policy kept");

        // With the rows restored, the next extraction starts over in full.
        inc.matrix.set_row(root, saved.0);
        inc.matrix.set_row(low, saved.1);
        let report = inc.extract().unwrap();
        assert_eq!(report.nodes, inc.tree.live_len());
        let full = inc.matrix.extract_policy(&inc.tree).unwrap();
        assert_eq!(encode_policy(inc.committed_policy()), encode_policy(&full));
    }

    /// Every cell's cost and split of `inc`'s matrix equal those of a
    /// fresh row-wise sweep over the maintained tree.
    fn assert_cells_match_rowwise(inc: &IncrementalAnonymizer, context: &str) {
        let tree = inc.tree();
        let fresh = crate::bulk_dp_fast_rowwise(tree, inc.k()).unwrap();
        for id in tree.postorder() {
            let (kept, want) = (inc.matrix().row(id).unwrap(), fresh.row(id).unwrap());
            assert_eq!(kept.d, want.d, "{context}: node {id}");
            assert_eq!(kept.dense, want.dense, "{context}: node {id}");
            for (u, _) in want.iter() {
                assert_eq!(
                    inc.matrix().split_of(tree, id, u).unwrap(),
                    fresh.split_of(tree, id, u).unwrap(),
                    "{context}: node {id} u={u}"
                );
            }
        }
    }

    #[test]
    fn maintained_cells_match_a_fresh_rowwise_sweep_after_every_batch() {
        let mut rng = StdRng::seed_from_u64(0x5B117);
        let side = 128i64;
        let n = 300u64;
        for k in [2usize, 5, 12] {
            let db = random_db(&mut rng, n as usize, side);
            let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), k);
            let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();
            assert_cells_match_rowwise(&inc, &format!("k={k} initial"));
            for round in 0..12 {
                let count = rng.gen_range(1..=40);
                let moves = random_moves(&mut rng, n, count, side);
                inc.apply_moves(&moves).unwrap();
                assert_cells_match_rowwise(&inc, &format!("k={k} round {round}"));
            }
        }
    }

    #[test]
    fn cancel_is_polled_once_per_computed_row() {
        let polls = std::cell::Cell::new(0usize);
        let counting = || {
            polls.set(polls.get() + 1);
            false
        };
        let mut inc = staged(17, 30);
        assert!(inc.has_live_pending());
        let report = inc.refresh_cancellable(&counting).unwrap();
        assert!(report.rows_recomputed > 1);
        assert_eq!(polls.get(), report.rows_recomputed, "one poll per computed row");

        // No live row pending: nothing to compute, so nothing is polled,
        // and every live row is reused.
        polls.set(0);
        assert!(!inc.has_live_pending());
        let idle = IncrementalReport { rows_reused: inc.tree().live_len(), ..Default::default() };
        assert_eq!(inc.refresh_cancellable(&counting).unwrap(), idle);
        assert_eq!(polls.get(), 0);

        // A cancelled sweep polls once per computed row plus the poll
        // that fired.
        let mut inc = staged(17, 30);
        let budget = std::cell::Cell::new(4usize);
        let cancel = || {
            polls.set(polls.get() + 1);
            budget.replace(budget.get().saturating_sub(1)) == 0
        };
        polls.set(0);
        let pending = inc.pending_rows();
        let mut report = IncrementalReport::default();
        assert!(matches!(inc.refresh_into(&cancel, &mut report), Err(CoreError::Cancelled)));
        assert_eq!(report.rows_recomputed, 4);
        assert_eq!(inc.pending_rows(), pending - 4 - report.rows_kept, "retired rows stay retired");
        assert_eq!(polls.get(), 5);
    }

    #[test]
    fn expired_cancel_leaves_pending_rows_and_matrix_untouched() {
        let mut inc = staged(19, 30);
        let (pending, matrix) = (inc.pending_rows(), inc.matrix().clone());
        let polls = std::cell::Cell::new(0usize);
        let expired = || {
            polls.set(polls.get() + 1);
            true
        };
        assert!(matches!(inc.refresh_cancellable(&expired), Err(CoreError::Cancelled)));
        assert_eq!(polls.get(), 1, "cancelled at the first poll, before the dirty walk");
        assert_eq!(inc.pending_rows(), pending);
        assert_eq!(inc.matrix(), &matrix);
    }

    #[test]
    fn quad_trees_maintain_incrementally() {
        let mut rng = StdRng::seed_from_u64(21);
        let side = 64i64;
        let n = 80u64;
        let k = 3;
        let mut db = random_db(&mut rng, n as usize, side);
        let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, side), k);
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();

        for round in 0..10 {
            let moves = random_moves(&mut rng, n, 5, side);
            db.apply_moves(&moves).unwrap();
            inc.apply_moves(&moves).unwrap();

            let fresh_tree = SpatialTree::build(&db, cfg).unwrap();
            let fresh_cost =
                bulk_dp_fast_quad(&fresh_tree, k).unwrap().optimal_cost(&fresh_tree).unwrap();
            assert_eq!(inc.optimal_cost().unwrap(), fresh_cost, "round {round}");
            let policy = inc.policy().unwrap();
            assert!(policy.is_masking_and_total(&db), "round {round}");
            assert!(verify_policy_aware(policy, &db, k).is_ok(), "round {round}");
        }
    }
}
