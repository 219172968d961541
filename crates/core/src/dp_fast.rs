//! The production `Bulk_dp` with all Section V optimizations:
//! binary (semi-quadrant) trees, the Lemma-5 pass-up bound, and the
//! two-stage child combination, for `O(|B|(kh)²)` total work.
//!
//! Per internal node `m` with children `m₁, m₂` the computation is staged
//! exactly as in the paper:
//!
//! 1. `temp[m][j] = min_{l₁+l₂=j} (M[m₁][l₁] + M[m₂][l₂])` — the cheapest
//!    way for the children to leave `j` users un-anonymized, over the
//!    *reduced* candidate sets `F′(mᵢ) = [0..min(d−k, (k+1)h(mᵢ))] ∪ {d(mᵢ)}`
//!    (Lemma 5: passing up more than `(k+1)·h(m)` but fewer than `d(m)`
//!    locations is never optimal).
//! 2. `M[m][u] = min_{j=u ∨ j≥u+k} temp[m][j] + (j−u)·area(m)` — `m` cloaks
//!    either none of the passed-up users or at least k of them, resolved
//!    with suffix-minimum sweeps instead of a nested loop.
//!
//! Because each child's candidate set is a dense interval plus the single
//! special value `d(mᵢ)`, `temp` decomposes into four structured blocks
//! (dense×dense, dense×special, special×dense, special×special); only the
//! first needs a true (min,+) convolution, and each block answers the
//! `j ≥ u+k` queries with one precomputed suffix-minimum array. This keeps
//! the constant factor small enough to bulk-anonymize a million users in
//! seconds on one core.
//!
//! Each dense cell stores its cost and a packed tag naming the branch
//! that won it ([`Win`]), not its split: extraction reads the split of
//! one cell per node, and [`DpMatrix::split_of`] recovers it from the tag.

use crate::kernel::{convolve_into, minplus_argmin};
use crate::matrix::{check_cost_bound, cost_area, Splits};
use crate::{CoreError, DpMatrix, Row, INFINITE_COST};
use lbs_tree::{NodeId, SpatialTree, TreeKind};

/// Runs the optimized `Bulk_dp` over a **binary** tree.
///
/// # Errors
/// [`CoreError::InvalidK`] for `k = 0`; [`CoreError::Tree`] when handed a
/// quad tree (use [`crate::bulk_dp_dense`] there, or rebuild as binary);
/// [`CoreError::CostOverflow`] past the entry bound [`crate::COST_BOUND`].
pub fn bulk_dp_fast(tree: &SpatialTree, k: usize) -> Result<DpMatrix, CoreError> {
    bulk_dp_fast_with_options(tree, k, true)
}

/// As [`bulk_dp_fast`], with the Lemma-5 pass-up bound switchable off —
/// the ablation knob behind the `experiments ablation` run. Without the
/// bound every node's dense block spans `[0 .. d(m)−k]`, restoring the
/// pre-optimization `O(|B||D|²)`-ish per-level work while producing the
/// same optimal cost (Lemma 5 only prunes provably suboptimal cells).
///
/// # Errors
/// Same conditions as [`bulk_dp_fast`].
pub fn bulk_dp_fast_with_options(
    tree: &SpatialTree,
    k: usize,
    use_lemma5: bool,
) -> Result<DpMatrix, CoreError> {
    check_binary(tree, k)?;
    bulk_sweep(tree, k, &mut DpScratch::new(), use_lemma5)
}

/// As [`bulk_dp_fast`], reusing a caller-owned [`DpScratch`] arena.
///
/// The DP touches its per-node buffers millions of times; a fresh build
/// allocates them once and lets them grow to the high-water mark. When a
/// worker thread anonymizes many jurisdictions in sequence (the
/// work-stealing engine in `lbs-parallel`), passing the same arena into
/// every call keeps those buffer allocations out of the per-task path.
///
/// # Errors
/// Same conditions as [`bulk_dp_fast`].
pub fn bulk_dp_fast_with_scratch(
    tree: &SpatialTree,
    k: usize,
    scratch: &mut DpScratch,
) -> Result<DpMatrix, CoreError> {
    check_binary(tree, k)?;
    bulk_sweep(tree, k, scratch, true)
}

/// The input checks every binary-tree entry point shares.
fn check_binary(tree: &SpatialTree, k: usize) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidK);
    }
    if tree.config().kind != TreeKind::Binary {
        return Err(CoreError::Tree("bulk_dp_fast requires a binary (semi-quadrant) tree".into()));
    }
    check_cost_bound(tree)
}

/// The explicit-split `Bulk_dp`: a postorder walk computing one [`Row`]
/// per node through the same two-stage block decomposition, with each
/// cell's split stored instead of its branch tag. Kept only as the
/// differential oracle for the parent-row body that both [`bulk_dp_fast`]
/// and the incremental refresh call.
///
/// # Errors
/// Same conditions as [`bulk_dp_fast`].
pub fn bulk_dp_fast_rowwise(tree: &SpatialTree, k: usize) -> Result<DpMatrix, CoreError> {
    check_binary(tree, k)?;
    let mut scratch = DpScratch::new();
    let mut matrix = DpMatrix::new(k, tree.arena_len());
    for id in tree.postorder() {
        let row = compute_row_with(tree, &matrix, id, k, &mut scratch)?;
        matrix.set_row(id, row);
    }
    Ok(matrix)
}

/// The bulk sweep: a postorder walk of the tree, so children come before
/// parents. A leaf gets [`Row::leaf`]; an internal node reads its
/// children's cost columns from the matrix and gets [`combine_children`],
/// the same parent-row body the incremental refresh calls. Each cell's
/// cost and [`DpMatrix::split_of`] equal [`bulk_dp_fast_rowwise`]'s —
/// `tests/differential.rs` pins this. `use_lemma5` is the ablation knob
/// of [`bulk_dp_fast_with_options`].
fn bulk_sweep(
    tree: &SpatialTree,
    k: usize,
    scratch: &mut DpScratch,
    use_lemma5: bool,
) -> Result<DpMatrix, CoreError> {
    let mut matrix = DpMatrix::new(k, tree.arena_len());
    for id in tree.postorder() {
        let node = tree.node(id);
        let (d, area) = (node.count, cost_area(&node.rect));
        let cap = dense_cap_with(d, node.depth, k, use_lemma5);
        let row = match *node.children.as_slice() {
            [] => Row::leaf(d, area, cap),
            [c1, c2] => {
                let child = |c: NodeId| {
                    matrix
                        .row(c)
                        .map(|r| r.dense.as_slice())
                        .ok_or_else(|| missing_child_row(id, c))
                };
                let pair = ChildPair {
                    dense1: child(c1)?,
                    dense2: child(c2)?,
                    d1: tree.count(c1),
                    d2: tree.count(c2),
                };
                combine_children(pair, d, area, cap, k, scratch)
            }
            _ => return Err(CoreError::Tree(format!("{id:?} is not a binary node"))),
        };
        matrix.set_row(id, row);
    }
    Ok(matrix)
}

/// The two children of a binary node, as dense cost slices plus their
/// populations.
pub(crate) struct ChildPair<'a> {
    pub(crate) dense1: &'a [u64],
    pub(crate) dense2: &'a [u64],
    pub(crate) d1: usize,
    pub(crate) d2: usize,
}

/// Which Stage-2 branch won a dense cell: the tag [`combine_children`]
/// stores instead of the split, packed into a `u32` by [`Win::pack`].
/// [`Win::split`] turns it back into the split for the one cell per node
/// that extraction reads; only `Conv(j)` needs a rescan, of one diagonal
/// of the children's cost columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Win {
    /// Block 1 at sum `j`: split `[l1, j−l1, 0, 0]`, with `l1` the
    /// smallest index on diagonal `j` reaching the minimum.
    Conv(u32),
    /// Block 2 at `l1` (covers both the exact `u = l1 + d2` cell and the
    /// suffix branch): split `[l1, d2, 0, 0]`.
    S2(u32),
    /// Block 3 at `l2`: split `[d1, l2, 0, 0]`.
    S3(u32),
    /// Block 4 (`j = d`): split `[d1, d2, 0, 0]`.
    Block4,
}

/// Bits of a packed [`Win`] left for its payload; the top two carry the
/// branch. A payload is below the length of a child's dense row (or the
/// sum of both for `Conv`), and a row of 2²⁹ cells would already take
/// 8 GiB, so 30 bits are never exceeded.
const TAG_SHIFT: u32 = 30;

impl Win {
    /// The branch and its payload in one `u32`.
    pub(crate) fn pack(self) -> u32 {
        match self {
            Win::Conv(j) => j,
            Win::S2(l1) => 1 << TAG_SHIFT | l1,
            Win::S3(l2) => 2 << TAG_SHIFT | l2,
            Win::Block4 => 3 << TAG_SHIFT,
        }
    }

    /// Inverse of [`pack`](Self::pack).
    pub(crate) fn unpack(tag: u32) -> Win {
        let payload = tag & ((1 << TAG_SHIFT) - 1);
        match tag >> TAG_SHIFT {
            0 => Win::Conv(payload),
            1 => Win::S2(payload),
            2 => Win::S3(payload),
            _ => Win::Block4,
        }
    }

    /// The split `[u₁, u₂]` this branch gives dense cell `u` of cost
    /// `cost` at a node of area `area` over `pair`. A `Conv(j)` cell costs
    /// `conv[j] + (j − u)·area`, so its `l₁` is the smallest on diagonal
    /// `j` reaching `conv[j]` — the row-wise reference's tie-break.
    ///
    /// `None` when the branch does not fit the children: an `l₁`, `l₂`
    /// or `j` outside their rows, or a diagonal with no witness.
    pub(crate) fn split(
        self,
        pair: ChildPair<'_>,
        u: usize,
        cost: u64,
        area: u64,
    ) -> Option<[u32; 2]> {
        let ChildPair { dense1, dense2, d1, d2 } = pair;
        match self {
            Win::Conv(j) => {
                let lift = area.checked_mul((j as usize).checked_sub(u)? as u64)?;
                let l1 = minplus_argmin(dense1, dense2, j as usize, cost.checked_sub(lift)?)?;
                Some([l1, j - l1])
            }
            Win::S2(l1) => ((l1 as usize) < dense1.len()).then_some([l1, d2 as u32]),
            Win::S3(l2) => ((l2 as usize) < dense2.len()).then_some([d1 as u32, l2]),
            Win::Block4 => Some([d1 as u32, d2 as u32]),
        }
    }
}

/// One parent row of the bulk sweep and of the incremental refresh:
/// Stage 1 (block decomposition of `temp`) and Stage 2 (resolving every
/// dense `u`), returning the row's cost and tag columns. The children
/// arrive as cost slices read straight from the matrix. This is
/// [`compute_row_with`]'s internal-node body with the same branches, the
/// same order and the same strict-`<` / `<=` asymmetries, but the
/// convolution runs cost-only through the kernel and each cell records
/// only which branch won it.
// lbs-lint: allow-item(panic-reachability, reason = "every scratch vector is resized to conv_len+1 (or the row cap) at the top of the stage that indexes it, and j = l1+l2 < a1+a2-1 = conv_len by the loop bounds; this is the DP inner loop, where a stray bounds check is measurable")
pub(crate) fn combine_children(
    pair: ChildPair<'_>,
    d: usize,
    area: u64,
    cap: Option<usize>,
    k: usize,
    ws: &mut DpScratch,
) -> Row {
    let ChildPair { dense1, dense2, d1, d2 } = pair;
    let (a1, a2) = (dense1.len(), dense2.len());

    // ---- Stage 1: temp[m][j], decomposed into four blocks. ----
    // Block 1 (dense×dense): the cost-only (min,+) convolution kernel.
    let conv_len = if a1 > 0 && a2 > 0 { a1 + a2 - 1 } else { 0 };
    convolve_into(dense1, dense2, &mut ws.conv_cost);
    // Suffix minima of conv_cost[j] + j·area for the "cloak ≥ k here" branch.
    ws.conv_suffix.clear();
    ws.conv_suffix.resize(conv_len + 1, (INFINITE_COST, 0));
    for j in (0..conv_len).rev() {
        let weighted = ws.conv_cost[j].saturating_add(area * j as u64);
        ws.conv_suffix[j] = if weighted <= ws.conv_suffix[j + 1].0 {
            (weighted, j as u32)
        } else {
            ws.conv_suffix[j + 1]
        };
    }
    // Block 2 (dense₁×special₂): j = l1 + d2, cost D₁[l1].
    ws.s2_suffix.clear();
    ws.s2_suffix.resize(a1 + 1, (INFINITE_COST, 0));
    for l1 in (0..a1).rev() {
        let weighted = dense1[l1].saturating_add(area * (l1 + d2) as u64);
        ws.s2_suffix[l1] = if weighted <= ws.s2_suffix[l1 + 1].0 {
            (weighted, l1 as u32)
        } else {
            ws.s2_suffix[l1 + 1]
        };
    }
    // Block 3 (special₁×dense₂): j = d1 + l2, cost D₂[l2].
    ws.s3_suffix.clear();
    ws.s3_suffix.resize(a2 + 1, (INFINITE_COST, 0));
    for l2 in (0..a2).rev() {
        let weighted = dense2[l2].saturating_add(area * (d1 + l2) as u64);
        ws.s3_suffix[l2] = if weighted <= ws.s3_suffix[l2 + 1].0 {
            (weighted, l2 as u32)
        } else {
            ws.s3_suffix[l2 + 1]
        };
    }
    // Block 4 (special×special): j = d, cost 0, always present.
    let block4_weighted = area * d as u64;

    // ---- Stage 2: M[m][u] over u ∈ [0..cap] ∪ {d}. ----
    // Same candidate branches in the same order with the same strict-`<`
    // updates as the row-wise loop; only the bookkeeping differs — each
    // cell records the winning branch's tag, not its split.
    let len = cap.map_or(0, |cap| cap + 1);
    let mut dense = Vec::with_capacity(len);
    let mut tags = Vec::with_capacity(len);
    for u in 0..len {
        let mut best_cost = INFINITE_COST;
        // Block 4 provides a finite candidate for every dense u
        // (u ≤ d−k ⟹ d ≥ u+k), so this placeholder is always replaced.
        let mut win = Win::Block4;

        // Exact branch j == u (m cloaks nothing).
        if u < conv_len && ws.conv_cost[u] < best_cost {
            best_cost = ws.conv_cost[u];
            win = Win::Conv(u as u32);
        }
        if u >= d2 && u - d2 < a1 {
            let cost = dense1[u - d2];
            if cost < best_cost {
                best_cost = cost;
                win = Win::S2((u - d2) as u32);
            }
        }
        if u >= d1 && u - d1 < a2 {
            let cost = dense2[u - d1];
            if cost < best_cost {
                best_cost = cost;
                win = Win::S3((u - d1) as u32);
            }
        }
        // (Block 4 exact would need u == d, impossible for dense u.)

        // Cloak-at-least-k branch: min over j ≥ u + k of temp[j] +
        // (j−u)·area, evaluated per block via the suffix arrays. Each
        // stored value is temp[j] + j·area; subtract u·area at the end.
        let lo = u + k;
        let mut weighted_best = INFINITE_COST;
        let mut weighted_win = Win::Block4;
        let (w, j) = ws.conv_suffix[lo.min(conv_len)];
        if w < weighted_best {
            weighted_best = w;
            weighted_win = Win::Conv(j);
        }
        let l1_from = lo.saturating_sub(d2).min(a1);
        let (w, l1) = ws.s2_suffix[l1_from];
        if w < weighted_best {
            weighted_best = w;
            weighted_win = Win::S2(l1);
        }
        let l2_from = lo.saturating_sub(d1).min(a2);
        let (w, l2) = ws.s3_suffix[l2_from];
        if w < weighted_best {
            weighted_best = w;
            weighted_win = Win::S3(l2);
        }
        if d >= lo && block4_weighted < weighted_best {
            weighted_best = block4_weighted;
            weighted_win = Win::Block4;
        }
        if weighted_best != INFINITE_COST {
            let cost = weighted_best - area * u as u64;
            if cost < best_cost {
                best_cost = cost;
                win = weighted_win;
            }
        }
        dense.push(best_cost);
        tags.push(win.pack());
    }
    Row { d, dense, splits: Splits::Tags(tags) }
}

/// Reusable DP scratch arena for [`bulk_dp_fast_with_scratch`].
///
/// Owns the per-node convolution and suffix-minimum buffers of the
/// optimized binary `Bulk_dp` (the quad DP allocates its sparse tables
/// per row and takes no scratch). The buffers grow to the largest node
/// processed and are retained across calls, so one arena per worker
/// thread removes all allocation from the steady-state DP loop but the
/// rows themselves.
#[derive(Debug, Default)]
pub struct DpScratch {
    /// Block-1 (dense×dense) convolution cost per sum j, written by the
    /// kernel in [`combine_children`] and by the argmin loop of
    /// [`compute_row_with`].
    conv_cost: Vec<u64>,
    /// Argmin l₁ per sum j of the explicit-split reference
    /// ([`compute_row_with`]); [`combine_children`] leaves it unused.
    conv_arg: Vec<u32>,
    /// Suffix minima of `conv_cost[j] + j·area` (value, argmin j).
    conv_suffix: Vec<(u64, u32)>,
    /// Suffix minima of `D₁[l₁] + (l₁+d₂)·area` over l₁ (value, argmin l₁).
    s2_suffix: Vec<(u64, u32)>,
    /// Suffix minima of `D₂[l₂] + (d₁+l₂)·area` over l₂ (value, argmin l₂).
    s3_suffix: Vec<(u64, u32)>,
}

impl DpScratch {
    /// A fresh arena.
    pub fn new() -> Self {
        DpScratch::default()
    }
}

/// Lemma 5 cap on dense pass-up values for a node of depth `h` holding `d`
/// users: `min(d − k, (k+1)·h)`. Returns `None` when the dense block is
/// empty (`d < k`). With `use_lemma5 = false`, only the k-summation bound
/// `d − k` applies.
fn dense_cap_with(d: usize, depth: u16, k: usize, use_lemma5: bool) -> Option<usize> {
    let by_summation = d.checked_sub(k)?;
    if use_lemma5 {
        Some(by_summation.min((k + 1) * depth as usize))
    } else {
        Some(by_summation)
    }
}

/// [`dense_cap_with`] under the Lemma-5 bound, as every path but the
/// ablation sweep applies it.
pub(crate) fn dense_cap(d: usize, depth: u16, k: usize) -> Option<usize> {
    dense_cap_with(d, depth, k, true)
}

/// Computes one matrix row, with explicit splits, into caller-owned
/// scratch: the row engine of [`bulk_dp_fast_rowwise`], the reference
/// [`combine_children`] is checked against.
///
/// # Errors
/// [`CoreError::StaleMatrix`] when a child row is missing (postorder
/// discipline violated — a caller bug surfaced as a value, not a panic).
pub(crate) fn compute_row_with(
    tree: &SpatialTree,
    matrix: &DpMatrix,
    id: NodeId,
    k: usize,
    scratch: &mut DpScratch,
) -> Result<Row, CoreError> {
    let node = tree.node(id);
    let d = node.count;
    let area = cost_area(&node.rect);

    if node.is_leaf() {
        return Ok(Row::leaf(d, area, dense_cap(d, node.depth, k)));
    }

    let children = node.children.as_slice();
    debug_assert_eq!(children.len(), 2, "binary tree");
    let (c1, c2) = (children[0], children[1]);
    let d1 = tree.count(c1);
    let d2 = tree.count(c2);
    let r1 = matrix.row(c1).ok_or_else(|| missing_child_row(id, c1))?;
    let r2 = matrix.row(c2).ok_or_else(|| missing_child_row(id, c2))?;
    debug_assert_eq!(r1.d, d1, "stale child row");
    debug_assert_eq!(r2.d, d2, "stale child row");
    let dense1 = &r1.dense;
    let dense2 = &r2.dense;
    let (a1, a2) = (dense1.len(), dense2.len()); // dense lengths (a = cap+1)

    // ---- Stage 1: temp[m][j], decomposed into four blocks. ----
    // Block 1 (dense×dense): a true (min,+) convolution.
    let conv_len = if a1 > 0 && a2 > 0 { a1 + a2 - 1 } else { 0 };
    scratch.conv_cost.clear();
    scratch.conv_cost.resize(conv_len, INFINITE_COST);
    scratch.conv_arg.clear();
    scratch.conv_arg.resize(conv_len, 0);
    for (l1, &base) in dense1.iter().enumerate() {
        for (l2, &cost2) in dense2.iter().enumerate() {
            let cost = base + cost2;
            let j = l1 + l2;
            if cost < scratch.conv_cost[j] {
                scratch.conv_cost[j] = cost;
                scratch.conv_arg[j] = l1 as u32;
            }
        }
    }
    // Suffix minima of conv_cost[j] + j·area for the "cloak ≥ k here" branch.
    scratch.conv_suffix.clear();
    scratch.conv_suffix.resize(conv_len + 1, (INFINITE_COST, 0));
    for j in (0..conv_len).rev() {
        let weighted = scratch.conv_cost[j].saturating_add(area * j as u64);
        scratch.conv_suffix[j] = if weighted <= scratch.conv_suffix[j + 1].0 {
            (weighted, j as u32)
        } else {
            scratch.conv_suffix[j + 1]
        };
    }
    // Block 2 (dense₁×special₂): j = l1 + d2, cost D₁[l1].
    scratch.s2_suffix.clear();
    scratch.s2_suffix.resize(a1 + 1, (INFINITE_COST, 0));
    for l1 in (0..a1).rev() {
        let weighted = dense1[l1].saturating_add(area * (l1 + d2) as u64);
        scratch.s2_suffix[l1] = if weighted <= scratch.s2_suffix[l1 + 1].0 {
            (weighted, l1 as u32)
        } else {
            scratch.s2_suffix[l1 + 1]
        };
    }
    // Block 3 (special₁×dense₂): j = d1 + l2, cost D₂[l2].
    scratch.s3_suffix.clear();
    scratch.s3_suffix.resize(a2 + 1, (INFINITE_COST, 0));
    for l2 in (0..a2).rev() {
        let weighted = dense2[l2].saturating_add(area * (d1 + l2) as u64);
        scratch.s3_suffix[l2] = if weighted <= scratch.s3_suffix[l2 + 1].0 {
            (weighted, l2 as u32)
        } else {
            scratch.s3_suffix[l2 + 1]
        };
    }
    // Block 4 (special×special): j = d, cost 0, always present.
    let block4_weighted = area * d as u64;

    // ---- Stage 2: M[m][u] over u ∈ [0..cap] ∪ {d}. ----
    let cap = dense_cap(d, node.depth, k);
    let len = cap.map_or(0, |cap| cap + 1);
    let mut dense = Vec::with_capacity(len);
    let mut splits = Vec::with_capacity(len);
    for u in 0..len {
        // (cost, split); unreachable until a branch reaches it.
        let mut best: (u64, [u32; 4]) = (INFINITE_COST, [0; 4]);

        // Exact branch j == u (m cloaks nothing).
        if u < conv_len && scratch.conv_cost[u] < best.0 {
            let l1 = scratch.conv_arg[u];
            best = (scratch.conv_cost[u], [l1, u as u32 - l1, 0, 0]);
        }
        if u >= d2 && u - d2 < a1 {
            let cost = dense1[u - d2];
            if cost < best.0 {
                best = (cost, [(u - d2) as u32, d2 as u32, 0, 0]);
            }
        }
        if u >= d1 && u - d1 < a2 {
            let cost = dense2[u - d1];
            if cost < best.0 {
                best = (cost, [d1 as u32, (u - d1) as u32, 0, 0]);
            }
        }
        // (Block 4 exact would need u == d, impossible for dense u.)

        // Cloak-at-least-k branch: min over j ≥ u + k of temp[j] +
        // (j−u)·area, evaluated per block via the suffix arrays. Each
        // stored value is temp[j] + j·area; subtract u·area at the end.
        let lo = u + k;
        let mut weighted_best: (u64, [u32; 4]) = (INFINITE_COST, [0; 4]);
        let (w, j) = scratch.conv_suffix[lo.min(conv_len)];
        if w < weighted_best.0 {
            let l1 = scratch.conv_arg[j as usize];
            weighted_best = (w, [l1, j - l1, 0, 0]);
        }
        let l1_from = lo.saturating_sub(d2).min(a1);
        let (w, l1) = scratch.s2_suffix[l1_from];
        if w < weighted_best.0 {
            weighted_best = (w, [l1, d2 as u32, 0, 0]);
        }
        let l2_from = lo.saturating_sub(d1).min(a2);
        let (w, l2) = scratch.s3_suffix[l2_from];
        if w < weighted_best.0 {
            weighted_best = (w, [d1 as u32, l2, 0, 0]);
        }
        if d >= lo && block4_weighted < weighted_best.0 {
            weighted_best = (block4_weighted, [d1 as u32, d2 as u32, 0, 0]);
        }
        if weighted_best.0 != INFINITE_COST {
            let cost = weighted_best.0 - area * u as u64;
            if cost < best.0 {
                best = (cost, weighted_best.1);
            }
        }
        dense.push(best.0);
        splits.push(best.1);
    }
    Ok(Row { d, dense, splits: Splits::Explicit(splits) })
}

/// Typed replacement for the old "children computed first" panic.
pub(crate) fn missing_child_row(parent: NodeId, child: NodeId) -> CoreError {
    CoreError::StaleMatrix(format!(
        "row for child {child:?} of {parent:?} is missing; the matrix was not \
         filled in postorder (or was resized without recomputation)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk_dp_dense;
    use lbs_geom::{Point, Rect};
    use lbs_model::{LocationDb, UserId};
    use lbs_tree::TreeConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn db(points: &[(i64, i64)]) -> LocationDb {
        LocationDb::from_rows(
            points.iter().enumerate().map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    }

    #[test]
    fn rejects_quad_trees_and_k_zero() {
        let d = db(&[(0, 0), (1, 1)]);
        let quad =
            SpatialTree::build(&d, TreeConfig::eager(TreeKind::Quad, Rect::square(0, 0, 4), 1))
                .unwrap();
        assert!(matches!(bulk_dp_fast(&quad, 2), Err(CoreError::Tree(_))));
        let binary =
            SpatialTree::build(&d, TreeConfig::eager(TreeKind::Binary, Rect::square(0, 0, 4), 2))
                .unwrap();
        assert!(matches!(bulk_dp_fast(&binary, 0), Err(CoreError::InvalidK)));
    }

    #[test]
    fn matches_dense_reference_on_table1() {
        let d = db(&[(1, 1), (1, 2), (1, 3), (3, 1), (3, 3)]);
        let tree =
            SpatialTree::build(&d, TreeConfig::eager(TreeKind::Binary, Rect::square(0, 0, 4), 4))
                .unwrap();
        for k in 1..=5 {
            let fast = bulk_dp_fast(&tree, k).unwrap().optimal_cost(&tree).unwrap();
            let dense = bulk_dp_dense(&tree, k).unwrap().optimal_cost(&tree).unwrap();
            assert_eq!(fast, dense, "k={k}");
        }
    }

    #[test]
    fn matches_dense_reference_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..60 {
            let n = rng.gen_range(2..=16);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..16), rng.gen_range(0..16))).collect();
            let d = db(&points);
            let k = rng.gen_range(1..=4);
            let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 16), k);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let fast = bulk_dp_fast(&tree, k).unwrap().optimal_cost(&tree);
            let dense = bulk_dp_dense(&tree, k).unwrap().optimal_cost(&tree);
            assert_eq!(fast.clone().ok(), dense.ok(), "trial {trial}, n={n}, k={k}");
            if n >= k {
                assert!(fast.is_ok(), "trial {trial}: {n} >= {k} must be feasible");
            }
        }
    }

    #[test]
    fn matches_dense_on_eager_trees_with_empty_nodes() {
        // Eager trees materialize empty subtrees; the block decomposition
        // must handle d₂ = 0 children (special value 0 overlapping the
        // dense range start).
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..20 {
            let n = rng.gen_range(2..=10);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..8), rng.gen_range(0..8))).collect();
            let d = db(&points);
            let k = rng.gen_range(1..=3);
            let cfg = TreeConfig::eager(TreeKind::Binary, Rect::square(0, 0, 8), 4);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let fast = bulk_dp_fast(&tree, k).unwrap().optimal_cost(&tree);
            let dense = bulk_dp_dense(&tree, k).unwrap().optimal_cost(&tree);
            assert_eq!(fast.ok(), dense.ok(), "trial {trial}, n={n}, k={k}");
        }
    }

    #[test]
    fn lemma5_cap_shapes() {
        assert_eq!(dense_cap(10, 0, 3), Some(0), "root may only pass up 0 or d");
        assert_eq!(dense_cap(10, 2, 3), Some(7), "d−k binds: min(7, 8)");
        assert_eq!(dense_cap(100, 2, 3), Some(8), "(k+1)h binds: min(97, 8)");
        assert_eq!(dense_cap(2, 5, 3), None, "d < k: pass-all-up only");
        assert_eq!(dense_cap_with(100, 2, 3, false), Some(97), "ablation: only d−k");
    }

    #[test]
    fn lemma5_bound_does_not_change_the_optimum() {
        // Lemma 5 prunes only provably suboptimal cells: with and without
        // it, the optimal cost coincides on random instances.
        let mut rng = StdRng::seed_from_u64(0x1E44A5);
        for trial in 0..30 {
            let n = rng.gen_range(3..=40);
            let k = rng.gen_range(1..=5);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..64), rng.gen_range(0..64))).collect();
            let d = db(&points);
            let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 64), k);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let with = bulk_dp_fast_with_options(&tree, k, true).unwrap().optimal_cost(&tree).ok();
            let without =
                bulk_dp_fast_with_options(&tree, k, false).unwrap().optimal_cost(&tree).ok();
            assert_eq!(with, without, "trial {trial}, n={n}, k={k}");
        }
    }

    #[test]
    fn balanced_orientation_trees_match_dense_and_never_cost_more() {
        use lbs_tree::Orientation;
        let mut rng = StdRng::seed_from_u64(0xBA7);
        let mut balanced_wins = 0usize;
        for trial in 0..25 {
            let n = rng.gen_range(4..=30);
            let k = rng.gen_range(2..=4);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..64), rng.gen_range(0..64))).collect();
            let d = db(&points);
            let fixed_cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 64), k);
            let bal_cfg = fixed_cfg.with_orientation(Orientation::Balanced);
            let bal_tree = SpatialTree::build(&d, bal_cfg).unwrap();
            // The fast DP on a balanced tree equals the dense reference on
            // the same tree (the DP is orientation-agnostic).
            let fast = bulk_dp_fast(&bal_tree, k).unwrap().optimal_cost(&bal_tree).ok();
            let dense = bulk_dp_dense(&bal_tree, k).unwrap().optimal_cost(&bal_tree).ok();
            assert_eq!(fast, dense, "trial {trial}");
            // Track how often the adaptive orientation beats the paper's
            // fixed-vertical choice (not guaranteed per-instance).
            let fixed_tree = SpatialTree::build(&d, fixed_cfg).unwrap();
            let fixed = bulk_dp_fast(&fixed_tree, k).unwrap().optimal_cost(&fixed_tree).ok();
            if let (Some(b), Some(f)) = (fast, fixed) {
                if b < f {
                    balanced_wins += 1;
                }
            }
        }
        // Sanity: the adaptive choice helps at least sometimes.
        assert!(balanced_wins > 0, "balanced orientation never helped in 25 trials");
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
        // One arena reused across many instances must produce exactly the
        // matrices a fresh arena produces, and every cell's cost and split
        // must equal the row-wise reference's.
        let mut rng = StdRng::seed_from_u64(0x5C4A7C);
        let mut arena = DpScratch::new();
        for trial in 0..25 {
            let n = rng.gen_range(2..=24);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..32), rng.gen_range(0..32))).collect();
            let d = db(&points);
            let k = rng.gen_range(1..=4);
            let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 32), k);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let reused = bulk_dp_fast_with_scratch(&tree, k, &mut arena).unwrap();
            let fresh = bulk_dp_fast(&tree, k).unwrap();
            assert_eq!(reused, fresh, "trial {trial}");
            let reference = bulk_dp_fast_rowwise(&tree, k).unwrap();
            for id in tree.postorder() {
                let (a, b) = (reused.row(id).unwrap(), reference.row(id).unwrap());
                assert_eq!(a.d, b.d, "trial {trial} node {id}");
                assert_eq!(a.dense, b.dense, "trial {trial} node {id}");
                for (u, _) in a.iter() {
                    assert_eq!(
                        reused.split_of(&tree, id, u).unwrap(),
                        reference.split_of(&tree, id, u).unwrap(),
                        "trial {trial} node {id} u={u}"
                    );
                }
            }
            assert_eq!(
                reused.optimal_cost(&tree).ok(),
                fresh.optimal_cost(&tree).ok(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn special_cell_is_always_free() {
        let d = db(&[(1, 1), (2, 2), (9, 9), (12, 3)]);
        let tree =
            SpatialTree::build(&d, TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 16), 2))
                .unwrap();
        let m = bulk_dp_fast(&tree, 2).unwrap();
        for id in tree.postorder() {
            let row = m.row(id).unwrap();
            assert_eq!(row.cost(row.d), Some(0), "{id}");
            assert_eq!(row.d, tree.count(id));
        }
    }
}
