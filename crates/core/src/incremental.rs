//! Incremental maintenance of the configuration matrix across snapshots
//! (Section IV, "Incremental Maintenance of M"; evaluated in Figure 5(b)).
//!
//! As users move between snapshots, only the DP rows of nodes whose
//! population `d(m)` (or materialized structure) changed need recomputing —
//! "the same bottom-up steps as algorithm `Bulk_dp`, starting only from the
//! quad tree leaves whose quadrants now contain a changed number of
//! locations". The dirty set comes ancestor-closed from the tree layer.
//!
//! Four mechanisms keep a batched commit proportional to the dirty set
//! rather than to the live tree:
//!
//! * **Dirty-path coalescing** — the refresh sweep is a DFS from the root
//!   that descends only into pending children, yielding a postorder of the
//!   dirty set in `O(|dirty|)` time. Overlapping root paths from many moves
//!   in one batch collapse: each shared ancestor is visited (and its row
//!   recomputed) exactly once per commit, no matter how many moves dirtied
//!   it.
//! * **Subtree cost-vector caching** — recomputing an internal binary row
//!   needs only the **dense cost slices** of its two children. Each clean
//!   subtree's cost vector is memoized in a [`CostCache`] keyed by the
//!   tree's per-node version counter, so an untouched sibling feeds the
//!   convolution kernel without widening its matrix row again on every
//!   commit that dirties its parent.
//! * **Parallel refresh plans** — [`plan_refresh`](IncrementalAnonymizer::plan_refresh)
//!   splits the dirty set into disjoint dirty subtrees (tasks) plus the
//!   shared ancestor spine. Tasks touch disjoint rows and read only
//!   task-local rows or clean data, so a work-stealing pool (the
//!   `lbs-parallel` crate) computes them concurrently; applying task rows
//!   in plan order and then sweeping the spine sequentially is
//!   **bit-identical** to the sequential refresh.
//! * **Incremental extraction** — [`extract`](IncrementalAnonymizer::extract)
//!   keeps the committed policy and, per arena slot, what its extraction
//!   saw. It re-extracts only nodes whose version or pass-up target
//!   changed and patches the policy in place (DESIGN.md §9).
//!
//! Rows are produced by the same engines the bulk sweeps use
//! ([`combine_children_row`] wraps the arena sweep's parent-row body,
//! [`quad_row_overlay`] the quad candidate-table body), so incremental
//! maintenance inherits the bit-identity contract pinned by
//! `tests/differential.rs`.

use crate::dp_fast::{combine_children_row, leaf_row, missing_child_row};
use crate::dp_fast_quad::{quad_row_overlay, LocalRows};
use crate::extract::{cloak_regions, ExtractCache};
use crate::{bulk_dp_fast, bulk_dp_fast_quad, CoreError, DpMatrix, DpScratch, Row};
use lbs_geom::Area;
use lbs_model::{BulkPolicy, LocationDb, Move, UserId, UserUpdate};
use lbs_tree::{NodeId, SpatialTree, TreeConfig, TreeKind};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

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
    /// Live rows that could be reused untouched.
    pub rows_reused: usize,
    /// Child cost vectors served from the subtree cache.
    pub cache_hits: usize,
    /// Child cost vectors widened from matrix rows (cache fills).
    pub cache_misses: usize,
    /// Disjoint dirty subtrees refreshed as parallel tasks (0 when the
    /// refresh ran sequentially without a plan).
    pub dirty_subtrees: usize,
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

/// The dense cost slice of one subtree, memoized at a tree version.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// [`SpatialTree::version`] of the node when the vector was captured.
    version: u64,
    /// The row's dense column: `dense[u] = row.dense[u].cost`.
    dense: Vec<u128>,
}

/// Version-keyed memo of subtree cost vectors, indexed by arena id.
///
/// A hit means the node's row has not been recomputed since the vector was
/// captured (the tree bumps a node's version exactly when its row goes
/// stale), so the cached dense column equals what widening the matrix row
/// would produce — the convolution kernel reads it directly.
#[derive(Debug, Clone, Default)]
struct CostCache {
    entries: Vec<Option<CacheEntry>>,
}

impl CostCache {
    /// Grows the index to cover `arena_len` node slots.
    fn resize(&mut self, arena_len: usize) {
        if self.entries.len() < arena_len {
            self.entries.resize_with(arena_len, || None);
        }
    }

    /// The cached vector for `id` if it was captured at `version`.
    fn get(&self, id: NodeId, version: u64) -> Option<&[u128]> {
        match self.entries.get(id.index()) {
            Some(Some(e)) if e.version == version => Some(&e.dense),
            _ => None,
        }
    }

    /// Makes `child`'s vector valid at the current tree version, widening
    /// its matrix row on a miss. Counts the outcome into `report`.
    ///
    /// # Errors
    /// [`CoreError::StaleMatrix`] when the child row is missing.
    fn ensure(
        &mut self,
        tree: &SpatialTree,
        matrix: &DpMatrix,
        parent: NodeId,
        child: NodeId,
        report: &mut IncrementalReport,
    ) -> Result<(), CoreError> {
        let version = tree.version(child);
        let idx = child.index();
        self.resize(idx + 1);
        // lbs-lint: allow-item(panic-reachability, reason = "resize above guarantees idx is in bounds")
        let slot = &mut self.entries[idx];
        if let Some(e) = slot {
            if e.version == version {
                report.cache_hits += 1;
                return Ok(());
            }
        }
        let row = matrix.row(child).ok_or_else(|| missing_child_row(parent, child))?;
        report.cache_misses += 1;
        match slot {
            Some(e) => {
                e.version = version;
                e.dense.clear();
                e.dense.extend(row.dense.iter().map(|cell| cell.cost));
            }
            None => {
                *slot = Some(CacheEntry {
                    version,
                    dense: row.dense.iter().map(|cell| cell.cost).collect(),
                });
            }
        }
        Ok(())
    }

    /// Captures `row`'s dense column for `id` at `version` (called for
    /// every freshly recomputed row, so parents applied later in the same
    /// sweep hit the cache).
    fn store(&mut self, id: NodeId, version: u64, row: &Row) {
        let idx = id.index();
        self.resize(idx + 1);
        match &mut self.entries[idx] {
            Some(e) => {
                e.version = version;
                e.dense.clear();
                e.dense.extend(row.dense.iter().map(|cell| cell.cost));
            }
            slot => {
                *slot = Some(CacheEntry {
                    version,
                    dense: row.dense.iter().map(|cell| cell.cost).collect(),
                });
            }
        }
    }

    /// The vector previously guaranteed by [`ensure`](Self::ensure).
    ///
    /// The empty-slice fallback is unreachable after a successful `ensure`
    /// for the same id (ensure either fills the slot or errors); it exists
    /// only because this crate forbids panicking accessors.
    fn dense(&self, id: NodeId) -> &[u128] {
        match self.entries.get(id.index()) {
            Some(Some(e)) => &e.dense,
            _ => &[],
        }
    }
}

/// A refresh split into independently computable pieces: disjoint dirty
/// subtrees (`tasks`) and the shared ancestors above them (`spine`).
///
/// Produced by [`IncrementalAnonymizer::plan_refresh`]. Every live pending
/// row appears exactly once, either inside one task or on the spine. Tasks
/// are in deterministic tree order (child-slice order, never hash order),
/// each listed in postorder; the spine is in postorder of the whole tree,
/// so sweeping it after all tasks are applied observes fresh children.
#[derive(Debug, Clone, Default)]
pub struct RefreshPlan {
    /// Disjoint dirty subtrees, each in postorder. Rows of one task depend
    /// only on earlier rows of the same task and on clean data, so tasks
    /// may be computed concurrently and applied in any order.
    pub tasks: Vec<Vec<NodeId>>,
    /// Dirty ancestors shared between tasks, in postorder; recomputed
    /// sequentially after every task's rows have been applied.
    pub spine: Vec<NodeId>,
}

/// The recomputed rows of one [`RefreshPlan`] task, ready to apply.
#[derive(Debug)]
pub struct TaskRows {
    /// `(node, fresh row)` pairs in the task's postorder.
    pub rows: Vec<(NodeId, Row)>,
    /// Child cost vectors served from the subtree cache.
    pub cache_hits: usize,
    /// Child cost vectors widened from matrix rows.
    pub cache_misses: usize,
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
///
/// For batched parallel refresh, [`plan_refresh`](Self::plan_refresh) /
/// [`compute_task_rows`](Self::compute_task_rows) /
/// [`apply_task_rows`](Self::apply_task_rows) /
/// [`refresh_sequence`](Self::refresh_sequence) /
/// [`finish_refresh`](Self::finish_refresh) expose the sweep's building
/// blocks; `lbs-parallel` drives them on a work-stealing pool with a
/// result bit-identical to the sequential path.
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
    /// Version-keyed subtree cost vectors (binary trees only; the quad
    /// sweep reads sparse candidate tables straight from matrix rows).
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
            cache: self.cache.clone(),
            // Scratch holds no state a clone must observe — fresh buffers.
            scratch: DpScratch::new(),
            extracted: self.extracted.clone(),
        }
    }
}

impl IncrementalAnonymizer {
    /// Builds the tree and the full matrix for the initial snapshot.
    /// Binary trees use the arena-flattened sweep, quad trees the sparse
    /// candidate-table sweep.
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

    /// Recomputes pending rows, polling `cancel` before each row — the
    /// semi-quadrant granularity of cooperative cancellation.
    ///
    /// The sweep visits the **coalesced dirty postorder**: a DFS from the
    /// root descending only into pending children, `O(|dirty|)` regardless
    /// of tree size. A row is only recomputed after every stale descendant
    /// row has been. On cancellation the rows already recomputed are kept
    /// (they are correct for the current tree) and the rest stay pending,
    /// so a later refresh resumes where this one stopped and completes
    /// identically.
    ///
    /// The first row's poll is taken before the dirty walk, so a deadline
    /// that has already passed cancels in `O(1)`. `cancel` is still polled
    /// exactly once per computed row, and not at all when no live row is
    /// pending.
    ///
    /// # Errors
    /// [`CoreError::Cancelled`] when `cancel` fires with rows still
    /// pending; DP errors otherwise.
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
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.has_live_pending() {
            if cancel() {
                return Err(CoreError::Cancelled);
            }
            let order = dirty_postorder_from(&self.tree, &self.pending, self.tree.root());
            self.refresh_sequence(&order, &first_poll_taken(cancel), report)?;
        }
        self.finish_refresh(report);
        Ok(())
    }

    /// True when a live row awaits recomputation. The dirty set is
    /// ancestor-closed, so that is exactly when the root is pending; any
    /// other pending ids are strays freed by restructuring.
    pub fn has_live_pending(&self) -> bool {
        self.pending.contains(&self.tree.root())
    }

    /// Splits the pending set into a [`RefreshPlan`] of at least
    /// `max_tasks` disjoint dirty subtrees (when the dirty set branches
    /// that wide) plus the shared ancestor spine.
    ///
    /// The frontier starts at the root and repeatedly descends into dirty
    /// children — parents crossed on the way join the spine — until it is
    /// `max_tasks` wide or nothing expands. Order is everywhere the tree's
    /// child-slice order, so plans are deterministic. An empty plan (no
    /// tasks) means the dirty set is a single path or empty; callers fall
    /// back to the sequential sweep.
    pub fn plan_refresh(&self, max_tasks: usize) -> RefreshPlan {
        let root = self.tree.root();
        if max_tasks <= 1 || !self.pending.contains(&root) {
            return RefreshPlan::default();
        }
        let mut frontier = vec![root];
        let mut spine_topdown: Vec<NodeId> = Vec::new();
        while frontier.len() < max_tasks {
            let mut next = Vec::with_capacity(frontier.len() * 2);
            let mut expanded = false;
            for &id in &frontier {
                let mut dirty_kids = 0;
                for &c in self.tree.node(id).children.as_slice() {
                    if self.pending.contains(&c) {
                        dirty_kids += 1;
                    }
                }
                if dirty_kids == 0 {
                    next.push(id);
                } else {
                    expanded = true;
                    spine_topdown.push(id);
                    for &c in self.tree.node(id).children.as_slice() {
                        if self.pending.contains(&c) {
                            next.push(c);
                        }
                    }
                }
            }
            frontier = next;
            if !expanded {
                break;
            }
        }
        if spine_topdown.is_empty() {
            // The root never expanded: the dirty set is the root alone.
            return RefreshPlan::default();
        }
        let tasks: Vec<Vec<NodeId>> = frontier
            .iter()
            .map(|&id| dirty_postorder_from(&self.tree, &self.pending, id))
            .collect();
        spine_topdown.reverse();
        RefreshPlan { tasks, spine: spine_topdown }
    }

    /// Computes the fresh rows of one plan task **without mutating
    /// anything** — safe to run concurrently for disjoint tasks sharing
    /// `&self`. Child cost slices resolve, in order: rows computed earlier
    /// in this task, the (read-only) subtree cache, widening the matrix
    /// row. `cancel` is polled before each row.
    ///
    /// # Errors
    /// [`CoreError::Cancelled`] when `cancel` fires; DP errors otherwise.
    pub fn compute_task_rows(
        &self,
        nodes: &[NodeId],
        scratch: &mut DpScratch,
        cancel: &dyn Fn() -> bool,
    ) -> Result<TaskRows, CoreError> {
        // Tasks must combine children exactly as the sequential sweep does.
        scratch.set_lemma5(self.scratch.use_lemma5());
        let mut rows: Vec<(NodeId, Row)> = Vec::with_capacity(nodes.len());
        let mut index: HashMap<NodeId, usize> = HashMap::new();
        let mut costs: HashMap<NodeId, Vec<u128>> = HashMap::new();
        let (mut hits, mut misses) = (0usize, 0usize);
        let mut tmp1: Vec<u128> = Vec::new();
        let mut tmp2: Vec<u128> = Vec::new();
        for &id in nodes {
            if cancel() {
                return Err(CoreError::Cancelled);
            }
            let node = self.tree.node(id);
            let row = match *node.children.as_slice() {
                [] => leaf_row(
                    node.count,
                    node.rect.area(),
                    node.depth,
                    self.k,
                    self.scratch.use_lemma5(),
                ),
                [c1, c2] => {
                    let (d1, d2) = (self.tree.node(c1).count, self.tree.node(c2).count);
                    let dense1 = task_child_costs(
                        &self.tree,
                        &self.matrix,
                        &self.cache,
                        &costs,
                        id,
                        c1,
                        &mut tmp1,
                        &mut hits,
                        &mut misses,
                    )?;
                    let dense2 = task_child_costs(
                        &self.tree,
                        &self.matrix,
                        &self.cache,
                        &costs,
                        id,
                        c2,
                        &mut tmp2,
                        &mut hits,
                        &mut misses,
                    )?;
                    combine_children_row(
                        dense1,
                        dense2,
                        d1,
                        d2,
                        node.count,
                        node.rect.area(),
                        node.depth,
                        self.k,
                        scratch,
                    )
                }
                _ => {
                    let overlay = LocalRows { index: &index, rows: &rows };
                    quad_row_overlay(&self.tree, &self.matrix, Some(&overlay), id, self.k)?
                }
            };
            match self.kind {
                TreeKind::Binary => {
                    costs.insert(id, row.dense.iter().map(|cell| cell.cost).collect());
                }
                TreeKind::Quad => {
                    index.insert(id, rows.len());
                }
            }
            rows.push((id, row));
        }
        Ok(TaskRows { rows, cache_hits: hits, cache_misses: misses })
    }

    /// Installs one task's rows: matrix rows set, cost vectors captured,
    /// pending entries retired. Returns the number of rows applied.
    ///
    /// Tasks touch disjoint rows, so apply order does not affect the final
    /// matrix; applying in plan order keeps progress reports deterministic.
    pub fn apply_task_rows(&mut self, task: TaskRows) -> usize {
        let applied = task.rows.len();
        for (id, row) in task.rows {
            if self.kind == TreeKind::Binary {
                self.cache.store(id, self.tree.version(id), &row);
            }
            self.matrix.set_row(id, row);
            self.pending.remove(&id);
        }
        applied
    }

    /// Recomputes and applies `nodes` in order, polling `cancel` before
    /// each row. The building block behind
    /// [`refresh_cancellable`](Self::refresh_cancellable) (whole dirty
    /// postorder) and the spine sweep of a parallel refresh. `nodes` must
    /// be in postorder with every descendant's fresh row already applied.
    ///
    /// # Errors
    /// [`CoreError::Cancelled`] mid-sweep (applied rows are kept and
    /// retired from pending); DP errors otherwise.
    pub fn refresh_sequence(
        &mut self,
        nodes: &[NodeId],
        cancel: &dyn Fn() -> bool,
        report: &mut IncrementalReport,
    ) -> Result<(), CoreError> {
        for &id in nodes {
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
            if self.kind == TreeKind::Binary {
                self.cache.store(id, self.tree.version(id), &row);
            }
            self.matrix.set_row(id, row);
            self.pending.remove(&id);
            report.rows_recomputed += 1;
        }
        Ok(())
    }

    /// Closes out a completed refresh: clears stray pending ids (ids freed
    /// by restructuring are no longer live rows) and fills in the reuse
    /// count. Call only after every planned row has been applied.
    pub fn finish_refresh(&mut self, report: &mut IncrementalReport) {
        self.pending.clear();
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
    /// policy is then patched in place: users deleted since are removed,
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
        let extraction = match self.matrix.extract_cloaks(&self.tree, Some(&mut extracted.cache)) {
            Ok(extraction) => extraction,
            Err(e) => {
                extracted.cache.clear();
                extracted.deleted = Vec::new();
                return Err(e);
            }
        };
        let report = ExtractReport { nodes: extraction.nodes, cloaks: extraction.cloaked.len() };
        let cloaks = cloak_regions(&self.tree, extraction.cloaked);
        if full {
            extracted.policy =
                BulkPolicy::from_assignments(self.matrix.policy_name(), cloaks.collect());
        } else {
            for user in extracted.deleted.drain(..) {
                extracted.policy.remove(user);
            }
            for (user, region) in cloaks {
                extracted.policy.assign(user, region);
            }
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
    let taken = AtomicBool::new(true);
    // Relaxed: the flag publishes no other data, and `swap` is one atomic
    // read-modify-write, so exactly one call (on any thread) skips.
    move || !taken.swap(false, Ordering::Relaxed) && cancel()
}

/// Postorder of the pending nodes reachable from `start` by descending
/// only into pending children — the coalesced dirty sweep order.
///
/// The dirty set is ancestor-closed (every live pending node's parent is
/// pending up to the root), so starting at the root reaches every live
/// pending row; tombstoned strays are unreachable and simply skipped.
/// Sibling order is the tree's child-slice order, so the result is
/// deterministic.
fn dirty_postorder_from(
    tree: &SpatialTree,
    pending: &HashSet<NodeId>,
    start: NodeId,
) -> Vec<NodeId> {
    if !pending.contains(&start) {
        return Vec::new();
    }
    let mut stack = vec![start];
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

/// Recomputes one row for the sequential sweep, filling the cost cache
/// through [`CostCache::ensure`] so repeated parents widen each clean
/// child at most once per version.
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
    match *node.children.as_slice() {
        [] => Ok(leaf_row(node.count, node.rect.area(), node.depth, k, scratch.use_lemma5())),
        [c1, c2] => {
            cache.ensure(tree, matrix, id, c1, report)?;
            cache.ensure(tree, matrix, id, c2, report)?;
            let (d1, d2) = (tree.node(c1).count, tree.node(c2).count);
            Ok(combine_children_row(
                cache.dense(c1),
                cache.dense(c2),
                d1,
                d2,
                node.count,
                node.rect.area(),
                node.depth,
                k,
                scratch,
            ))
        }
        _ => quad_row_overlay(tree, matrix, None, id, k),
    }
}

/// Resolves a child's dense cost slice for a task without mutating shared
/// state: task-local rows first, then a version-valid cache entry, then a
/// widen of the matrix row into `tmp`.
#[allow(clippy::too_many_arguments)]
fn task_child_costs<'a>(
    tree: &SpatialTree,
    matrix: &'a DpMatrix,
    cache: &'a CostCache,
    local: &'a HashMap<NodeId, Vec<u128>>,
    parent: NodeId,
    child: NodeId,
    tmp: &'a mut Vec<u128>,
    hits: &mut usize,
    misses: &mut usize,
) -> Result<&'a [u128], CoreError> {
    if let Some(c) = local.get(&child) {
        return Ok(c);
    }
    if let Some(c) = cache.get(child, tree.version(child)) {
        *hits += 1;
        return Ok(c);
    }
    let row = matrix.row(child).ok_or_else(|| missing_child_row(parent, child))?;
    *misses += 1;
    tmp.clear();
    tmp.extend(row.dense.iter().map(|cell| cell.cost));
    Ok(tmp)
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
        // One user nudges by a few meters: the vast majority of rows reuse.
        let user = UserId(3);
        let from = db.location(user).unwrap();
        let to = Point::new((from.x + 2).min(side - 1), from.y);
        let report = inc.apply_moves(&[Move { user, to }]).unwrap();
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

        // First batch fills the cache for every clean sibling it widens.
        let moves = random_moves(&mut rng, n, 8, side);
        db.apply_moves(&moves).unwrap();
        let first = inc.apply_moves(&moves).unwrap();
        assert!(first.cache_misses > 0, "cold cache must fill: {first:?}");

        // A second batch through the same region reuses captured vectors:
        // the shared ancestors' clean children are served from the cache.
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
        use crate::{Entry, Row};
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
        let [low, _] = *inc.tree.node(root).children.as_slice() else { unreachable!() };
        let saved = (inc.matrix.row(root).unwrap().clone(), inc.matrix.row(low).unwrap().clone());
        let target = inc.tree.count(low) + 3;
        let mut row = saved.0.clone();
        row.dense[0].split[0] = target as u32;
        inc.matrix.set_row(root, row);
        inc.matrix.set_row(low, Row { d: target, dense: vec![], special: Entry::zero([0; 4]) });
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

        // No live row pending: nothing to compute, so nothing is polled.
        polls.set(0);
        assert!(!inc.has_live_pending());
        assert_eq!(inc.refresh_cancellable(&counting).unwrap(), IncrementalReport::default());
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
        assert!(matches!(inc.refresh_cancellable(&cancel), Err(CoreError::Cancelled)));
        assert_eq!(inc.pending_rows(), pending - 4);
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

    /// A planned refresh — tasks computed against the pre-refresh state,
    /// applied in order, spine swept last — must be byte-identical to the
    /// plain sequential sweep, and the plan must partition the live
    /// pending set exactly.
    fn assert_plan_matches_sequential(kind: TreeKind, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 128i64;
        let n = 300u64;
        let k = 6;
        let mut db = random_db(&mut rng, n as usize, side);
        let cfg = TreeConfig::lazy(kind, Rect::square(0, 0, side), k);
        let mut seq = IncrementalAnonymizer::new(&db, cfg, k).unwrap();

        let moves = random_moves(&mut rng, n, 40, side);
        db.apply_moves(&moves).unwrap();
        let updates: Vec<UserUpdate> = moves.iter().copied().map(UserUpdate::Move).collect();
        seq.stage_updates(&updates).unwrap();
        let mut planned = seq.clone();

        let plan = planned.plan_refresh(8);
        assert!(plan.tasks.len() > 1, "40 scattered moves must branch: {plan:?}");

        // Tasks + spine partition the planned work; no id appears twice.
        let mut all: Vec<NodeId> = plan.tasks.iter().flatten().copied().collect();
        all.extend(&plan.spine);
        let distinct: HashSet<NodeId> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "plan pieces overlap");

        let seq_report = seq.refresh().unwrap();
        assert_eq!(all.len(), seq_report.rows_recomputed, "plan must cover the dirty sweep");

        let mut report = IncrementalReport::default();
        let mut scratch = DpScratch::new();
        let computed: Vec<TaskRows> = plan
            .tasks
            .iter()
            .map(|t| planned.compute_task_rows(t, &mut scratch, &|| false).unwrap())
            .collect();
        for task in computed {
            report.cache_hits += task.cache_hits;
            report.cache_misses += task.cache_misses;
            report.rows_recomputed += planned.apply_task_rows(task);
        }
        planned.refresh_sequence(&plan.spine, &|| false, &mut report).unwrap();
        planned.finish_refresh(&mut report);

        assert_eq!(report.rows_recomputed, seq_report.rows_recomputed);
        assert_eq!(report.rows_reused, seq_report.rows_reused);
        assert_eq!(planned.matrix(), seq.matrix(), "planned refresh must be bit-identical");
        assert!(planned.is_fresh());
        assert_eq!(planned.optimal_cost().unwrap(), seq.optimal_cost().unwrap());
    }

    #[test]
    fn planned_refresh_is_bit_identical_on_binary_trees() {
        assert_plan_matches_sequential(TreeKind::Binary, 41);
    }

    #[test]
    fn planned_refresh_is_bit_identical_on_quad_trees() {
        assert_plan_matches_sequential(TreeKind::Quad, 42);
    }

    #[test]
    fn plan_is_empty_for_single_path_dirty_sets() {
        let mut rng = StdRng::seed_from_u64(2);
        let side = 64i64;
        let db = random_db(&mut rng, 60, side);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), 4);
        let inc = IncrementalAnonymizer::new(&db, cfg, 4).unwrap();
        // Nothing pending: nothing to plan.
        assert!(inc.plan_refresh(8).tasks.is_empty());
    }
}
