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

use crate::flat::{minplus_argmin, ConvKernel, FlatTree, NO_CHILD};
use crate::{CoreError, DpMatrix, Entry, Row, INFINITE_COST};
use lbs_tree::{NodeId, SpatialTree, TreeKind};

/// Runs the optimized `Bulk_dp` over a **binary** tree.
///
/// # Errors
/// [`CoreError::InvalidK`] for `k = 0`; [`CoreError::Tree`] when handed a
/// quad tree (use [`crate::bulk_dp_dense`] there, or rebuild as binary).
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
    bulk_dp_fast_arena(tree, k, &mut DpScratch::new(), use_lemma5)
}

/// As [`bulk_dp_fast`], reusing a caller-owned [`DpScratch`] arena.
///
/// The DP touches its per-node buffers millions of times; a fresh build
/// allocates them once and lets them grow to the high-water mark. When a
/// worker thread anonymizes many jurisdictions in sequence (the
/// work-stealing engine in `lbs-parallel`), passing the same arena into
/// every call keeps those allocations out of the per-task path entirely.
///
/// # Errors
/// Same conditions as [`bulk_dp_fast`].
pub fn bulk_dp_fast_with_scratch(
    tree: &SpatialTree,
    k: usize,
    scratch: &mut DpScratch,
) -> Result<DpMatrix, CoreError> {
    check_binary(tree, k)?;
    bulk_dp_fast_arena(tree, k, scratch, true)
}

/// The input checks every binary-tree entry point shares.
fn check_binary(tree: &SpatialTree, k: usize) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidK);
    }
    if tree.config().kind != TreeKind::Binary {
        return Err(CoreError::Tree("bulk_dp_fast requires a binary (semi-quadrant) tree".into()));
    }
    Ok(())
}

/// The pre-arena row-at-a-time `Bulk_dp`: a literal postorder walk of the
/// `NodeId` arena computing one [`Row`] per node through the same
/// two-stage block decomposition. Kept as the differential baseline for
/// the arena-flattened bulk path (and as the engine behind incremental
/// row repair, which recomputes rows one at a time by construction).
///
/// # Errors
/// Same conditions as [`bulk_dp_fast`].
pub fn bulk_dp_fast_rowwise(tree: &SpatialTree, k: usize) -> Result<DpMatrix, CoreError> {
    check_binary(tree, k)?;
    let mut scratch = Scratch::default();
    let mut matrix = DpMatrix::new(k, tree.arena_len());
    for id in tree.postorder() {
        let row = compute_row_with(tree, &matrix, id, k, &mut scratch)?;
        matrix.set_row(id, row);
    }
    Ok(matrix)
}

/// The arena-flattened bulk sweep: snapshot the tree breadth-first into
/// SoA arrays, run the DP by scanning slots in reverse (children before
/// parents, no pointer chasing), and keep every dense row in one
/// contiguous cost arena so each parent's convolution reads its
/// children's costs as dense `&[u128]` slices. The block decomposition,
/// branch evaluation order, and tie-breaks are exactly those of
/// [`compute_row_with`], so the produced matrix is bit-identical to the
/// row-wise reference — `tests/differential.rs` pins this. `use_lemma5`
/// is the ablation knob of [`bulk_dp_fast_with_options`].
// lbs-lint: allow-item(panic-reachability, reason = "off/len/cost are filled in the same reverse sweep that reads them: children precede their parent, so off[c]+len[c] is already written and in bounds when the parent's ChildPair slices are taken; bounds checks here would defeat the arena layout's purpose")
fn bulk_dp_fast_arena(
    tree: &SpatialTree,
    k: usize,
    scratch: &mut DpScratch,
    use_lemma5: bool,
) -> Result<DpMatrix, CoreError> {
    scratch.flat.rebuild(tree);
    let flat = &scratch.flat;
    let n = flat.len();
    let a = &mut scratch.rows;
    a.off.clear();
    a.off.resize(n, 0);
    a.len.clear();
    a.len.resize(n, 0);
    a.cost.clear();
    a.split.clear();

    for slot in (0..n).rev() {
        let d = flat.count[slot];
        let area = flat.area[slot];
        let cap = dense_cap_with(d, flat.depth[slot], k, use_lemma5);
        a.off[slot] = a.cost.len();
        let first = flat.first_child[slot];
        if first == NO_CHILD {
            if let Some(cap) = cap {
                for u in 0..=cap {
                    a.cost.push(area * (d - u) as u128);
                    a.split.push([0; 4]);
                }
                a.len[slot] = cap + 1;
            }
            continue;
        }
        debug_assert_eq!(flat.arity[slot], 2, "binary tree");
        let (c1, c2) = (first as usize, first as usize + 1);
        let pair = ChildPair {
            dense1: &a.cost[a.off[c1]..a.off[c1] + a.len[c1]],
            dense2: &a.cost[a.off[c2]..a.off[c2] + a.len[c2]],
            d1: flat.count[c1],
            d2: flat.count[c2],
        };
        combine_children(pair, d, area, cap, k, &mut scratch.inner, &mut scratch.out);
        a.cost.extend_from_slice(&scratch.out.cost);
        a.split.extend_from_slice(&scratch.out.split);
        a.len[slot] = scratch.out.cost.len();
    }

    // Materialize the arena into the caller-visible matrix format. The
    // forward scan reads the cost arena back-to-front region-wise but
    // each row's cells contiguously.
    let mut matrix = DpMatrix::new(k, tree.arena_len());
    for slot in 0..n {
        let (off, len) = (a.off[slot], a.len[slot]);
        let dense: Vec<Entry> =
            (off..off + len).map(|i| Entry { cost: a.cost[i], split: a.split[i] }).collect();
        let special = if flat.first_child[slot] == NO_CHILD {
            Entry::zero([0; 4])
        } else {
            let c1 = flat.first_child[slot] as usize;
            Entry::zero([flat.count[c1] as u32, flat.count[c1 + 1] as u32, 0, 0])
        };
        matrix.set_row(flat.ids[slot], Row { d: flat.count[slot], dense, special });
    }
    Ok(matrix)
}

/// The two children of a binary node, as dense cost slices into the row
/// arena plus their populations.
struct ChildPair<'a> {
    dense1: &'a [u128],
    dense2: &'a [u128],
    d1: usize,
    d2: usize,
}

/// Which Stage-2 branch won a dense cell, carrying just enough to
/// reconstruct the split after the fact. Deferring split resolution to
/// the single winner (instead of materializing one per candidate branch)
/// is what lets the convolution drop its argmin column: the winning
/// `l1` for a `Conv(j)` cell is recovered by one ascending rescan of the
/// diagonal, which finds the *first* `l1` attaining the minimum — the
/// same representative the strict-`<` update rule of the row-wise loop
/// records.
#[derive(Clone, Copy)]
enum Win {
    /// Block 1 at sum `j`: split `[l1, j−l1, 0, 0]` with `l1` rescanned.
    Conv(u32),
    /// Block 2 at `l1` (covers both the exact `u = l1 + d2` cell and the
    /// suffix branch): split `[l1, d2, 0, 0]`.
    S2(u32),
    /// Block 3 at `l2`: split `[d1, l2, 0, 0]`.
    S3(u32),
    /// Block 4 (`j = d`): split `[d1, d2, 0, 0]`.
    Block4,
}

/// One parent row of the arena sweep: Stage 1 (block decomposition of
/// `temp`) and Stage 2 (resolving every dense `u`), writing cost and
/// split columns into `out`. This is [`compute_row_with`]'s internal-node
/// body transcribed onto slices — same branches, same order, same
/// strict-`<` / `<=` asymmetries — with the convolution running
/// cost-only over contiguous slices and each cell's split resolved once
/// from the winning branch.
// lbs-lint: allow-item(panic-reachability, reason = "every scratch vector is resized to conv_len+1 (or the row cap) at the top of the stage that indexes it, and j = l1+l2 < a1+a2-1 = conv_len by the loop bounds; this is the DP inner loop, where a stray bounds check is measurable")
fn combine_children(
    pair: ChildPair<'_>,
    d: usize,
    area: u128,
    cap: Option<usize>,
    k: usize,
    ws: &mut Scratch,
    out: &mut OutRow,
) {
    let ChildPair { dense1, dense2, d1, d2 } = pair;
    let (a1, a2) = (dense1.len(), dense2.len());

    // ---- Stage 1: temp[m][j], decomposed into four blocks. ----
    // Block 1 (dense×dense): the cost-only (min,+) convolution kernel.
    let conv_len = if a1 > 0 && a2 > 0 { a1 + a2 - 1 } else { 0 };
    ws.kernel.convolve_into(dense1, dense2, &mut ws.conv_cost);
    // Suffix minima of conv_cost[j] + j·area for the "cloak ≥ k here" branch.
    ws.conv_suffix.clear();
    ws.conv_suffix.resize(conv_len + 1, (INFINITE_COST, 0));
    for j in (0..conv_len).rev() {
        let weighted = ws.conv_cost[j].saturating_add(area * j as u128);
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
        let weighted = dense1[l1].saturating_add(area * (l1 + d2) as u128);
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
        let weighted = dense2[l2].saturating_add(area * (d1 + l2) as u128);
        ws.s3_suffix[l2] = if weighted <= ws.s3_suffix[l2 + 1].0 {
            (weighted, l2 as u32)
        } else {
            ws.s3_suffix[l2 + 1]
        };
    }
    // Block 4 (special×special): j = d, cost 0, always present.
    let block4_weighted = area * d as u128;

    // ---- Stage 2: M[m][u] over u ∈ [0..cap] ∪ {d}. ----
    // Same candidate branches in the same order with the same strict-`<`
    // updates as the row-wise loop; only the bookkeeping differs — each
    // branch records a `Win` tag, and the single winner's split is
    // materialized after the scan.
    out.cost.clear();
    out.split.clear();
    if let Some(cap) = cap {
        out.cost.reserve(cap + 1);
        out.split.reserve(cap + 1);
        for u in 0..=cap {
            let mut best_cost = INFINITE_COST;
            let mut win: Option<Win> = None;

            // Exact branch j == u (m cloaks nothing).
            if u < conv_len && ws.conv_cost[u] < best_cost {
                best_cost = ws.conv_cost[u];
                win = Some(Win::Conv(u as u32));
            }
            if u >= d2 && u - d2 < a1 {
                let cost = dense1[u - d2];
                if cost < best_cost {
                    best_cost = cost;
                    win = Some(Win::S2((u - d2) as u32));
                }
            }
            if u >= d1 && u - d1 < a2 {
                let cost = dense2[u - d1];
                if cost < best_cost {
                    best_cost = cost;
                    win = Some(Win::S3((u - d1) as u32));
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
                let cost = weighted_best - area * u as u128;
                if cost < best_cost {
                    best_cost = cost;
                    win = Some(weighted_win);
                }
            }

            let split = match win {
                Some(Win::Conv(j)) => {
                    let l1 = minplus_argmin(dense1, dense2, j as usize, ws.conv_cost[j as usize]);
                    [l1, j - l1, 0, 0]
                }
                Some(Win::S2(l1)) => [l1, d2 as u32, 0, 0],
                Some(Win::S3(l2)) => [d1 as u32, l2, 0, 0],
                Some(Win::Block4) => [d1 as u32, d2 as u32, 0, 0],
                // Unreachable: block 4 guarantees a finite candidate for
                // every dense u (u ≤ d−k ⟹ d ≥ u+k). Mirrors
                // `Entry::UNREACHABLE`'s split for defense in depth.
                None => [0; 4],
            };
            out.cost.push(best_cost);
            out.split.push(split);
        }
    }
}

/// Reusable DP scratch arena for [`bulk_dp_fast_with_scratch`].
///
/// Owns the per-node convolution and suffix-minimum buffers of the
/// optimized `Bulk_dp`. The buffers grow to the largest node processed
/// and are retained across calls, so one arena per worker thread removes
/// all allocation from the steady-state DP loop.
#[derive(Debug, Default)]
pub struct DpScratch {
    inner: Scratch,
    /// Breadth-first SoA snapshot of the tree being swept.
    pub(crate) flat: FlatTree,
    /// Contiguous per-row result arena (all dense cells of all rows).
    pub(crate) rows: RowArena,
    /// Staging row: a parent's cells are built here, then appended to
    /// `rows` (the append would otherwise alias the child slices being
    /// read).
    out: OutRow,
    /// Sparse-table buffers of the quad-tree sweep.
    pub(crate) quad: crate::dp_fast_quad::QuadArena,
}

/// The dense cells of every computed row, stored as parallel cost/split
/// columns. `off[slot] .. off[slot]+len[slot]` indexes slot's row; cost
/// reads during the child convolution touch only the `u128` column —
/// half the stride of the 32-byte [`Entry`] layout.
#[derive(Debug, Default)]
pub(crate) struct RowArena {
    pub(crate) off: Vec<usize>,
    pub(crate) len: Vec<usize>,
    pub(crate) cost: Vec<u128>,
    pub(crate) split: Vec<[u32; 4]>,
}

/// One row being assembled (cost and split columns).
#[derive(Debug, Default)]
struct OutRow {
    cost: Vec<u128>,
    split: Vec<[u32; 4]>,
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
fn dense_cap(d: usize, depth: u16, k: usize) -> Option<usize> {
    dense_cap_with(d, depth, k, true)
}

/// Reusable per-node buffers (the DP touches these millions of times; keep
/// the allocations out of the hot loop).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Block-1 (dense×dense) convolution: cost and argmin l₁ per sum j.
    conv_cost: Vec<u128>,
    conv_arg: Vec<u32>,
    /// The two-lane cost-only convolution kernel (arena sweep).
    kernel: ConvKernel,
    /// Suffix minima of `conv_cost[j] + j·area` (value, argmin j).
    conv_suffix: Vec<(u128, u32)>,
    /// Suffix minima of `D₁[l₁] + (l₁+d₂)·area` over l₁ (value, argmin l₁).
    s2_suffix: Vec<(u128, u32)>,
    /// Suffix minima of `D₂[l₂] + (d₁+l₂)·area` over l₂ (value, argmin l₂).
    s3_suffix: Vec<(u128, u32)>,
}

/// Computes one matrix row into caller-owned scratch. The incremental
/// maintainer hoists one [`Scratch`] across its whole dirty-row sweep.
///
/// # Errors
/// [`CoreError::StaleMatrix`] when a child row is missing (postorder
/// discipline violated — a caller bug surfaced as a value, not a panic).
pub(crate) fn compute_row_with(
    tree: &SpatialTree,
    matrix: &DpMatrix,
    id: NodeId,
    k: usize,
    scratch: &mut Scratch,
) -> Result<Row, CoreError> {
    let node = tree.node(id);
    let d = node.count;
    let area = node.rect.area();

    if node.is_leaf() {
        let dense = match dense_cap(d, node.depth, k) {
            None => Vec::new(),
            Some(cap) => {
                (0..=cap).map(|u| Entry { cost: area * (d - u) as u128, split: [0; 4] }).collect()
            }
        };
        return Ok(Row { d, dense, special: Entry::zero([0; 4]) });
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
    for (l1, e1) in dense1.iter().enumerate() {
        let base = e1.cost;
        for (l2, e2) in dense2.iter().enumerate() {
            let cost = base + e2.cost;
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
        let weighted = scratch.conv_cost[j].saturating_add(area * j as u128);
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
        let weighted = dense1[l1].cost.saturating_add(area * (l1 + d2) as u128);
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
        let weighted = dense2[l2].cost.saturating_add(area * (d1 + l2) as u128);
        scratch.s3_suffix[l2] = if weighted <= scratch.s3_suffix[l2 + 1].0 {
            (weighted, l2 as u32)
        } else {
            scratch.s3_suffix[l2 + 1]
        };
    }
    // Block 4 (special×special): j = d, cost 0, always present.
    let block4_weighted = area * d as u128;

    // ---- Stage 2: M[m][u] over u ∈ [0..cap] ∪ {d}. ----
    let cap = dense_cap(d, node.depth, k);
    let mut dense = Vec::new();
    if let Some(cap) = cap {
        dense.reserve(cap + 1);
        for u in 0..=cap {
            let mut best = Entry::UNREACHABLE;

            // Exact branch j == u (m cloaks nothing).
            if u < conv_len && scratch.conv_cost[u] < best.cost {
                let l1 = scratch.conv_arg[u];
                best = Entry { cost: scratch.conv_cost[u], split: [l1, u as u32 - l1, 0, 0] };
            }
            if u >= d2 && u - d2 < a1 {
                let cost = dense1[u - d2].cost;
                if cost < best.cost {
                    best = Entry { cost, split: [(u - d2) as u32, d2 as u32, 0, 0] };
                }
            }
            if u >= d1 && u - d1 < a2 {
                let cost = dense2[u - d1].cost;
                if cost < best.cost {
                    best = Entry { cost, split: [d1 as u32, (u - d1) as u32, 0, 0] };
                }
            }
            // (Block 4 exact would need u == d, impossible for dense u.)

            // Cloak-at-least-k branch: min over j ≥ u + k of temp[j] +
            // (j−u)·area, evaluated per block via the suffix arrays. Each
            // stored value is temp[j] + j·area; subtract u·area at the end.
            let lo = u + k;
            let mut weighted_best: (u128, [u32; 4]) = (INFINITE_COST, [0; 4]);
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
                let cost = weighted_best.0 - area * u as u128;
                if cost < best.cost {
                    best = Entry { cost, split: weighted_best.1 };
                }
            }
            dense.push(best);
        }
    }

    let special = Entry::zero([d1 as u32, d2 as u32, 0, 0]);
    Ok(Row { d, dense, special })
}

/// Builds one internal binary [`Row`] from its children's **dense cost
/// slices** via [`combine_children`] — the incremental maintainer's row
/// engine. Because [`combine_children`] is the arena sweep's parent-row
/// body, and that sweep is pinned bit-identical to [`compute_row_with`]
/// by `tests/differential.rs`, a row produced here from the same child
/// costs is bit-identical to the row-wise reference.
#[expect(
    clippy::too_many_arguments,
    reason = "both callers pass two child slices plus the parent node's scalar fields; bundling them would only rename those fields"
)]
pub(crate) fn combine_children_row(
    dense1: &[u128],
    dense2: &[u128],
    d1: usize,
    d2: usize,
    d: usize,
    area: u128,
    depth: u16,
    k: usize,
    scratch: &mut DpScratch,
) -> Row {
    let cap = dense_cap(d, depth, k);
    let pair = ChildPair { dense1, dense2, d1, d2 };
    combine_children(pair, d, area, cap, k, &mut scratch.inner, &mut scratch.out);
    let dense: Vec<Entry> = scratch
        .out
        .cost
        .iter()
        .zip(&scratch.out.split)
        .map(|(&cost, &split)| Entry { cost, split })
        .collect();
    Row { d, dense, special: Entry::zero([d1 as u32, d2 as u32, 0, 0]) }
}

/// The row of a leaf with population `d` — identical to
/// [`compute_row_with`]'s leaf branch.
pub(crate) fn leaf_row(d: usize, area: u128, depth: u16, k: usize) -> Row {
    let dense = match dense_cap(d, depth, k) {
        None => Vec::new(),
        Some(cap) => {
            (0..=cap).map(|u| Entry { cost: area * (d - u) as u128, split: [0; 4] }).collect()
        }
    };
    Row { d, dense, special: Entry::zero([0; 4]) }
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
        // matrices a fresh arena produces — entries, splits, and costs.
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
            for id in tree.postorder() {
                let (a, b) = (reused.row(id).unwrap(), fresh.row(id).unwrap());
                assert_eq!(a.d, b.d, "trial {trial} node {id}");
                assert_eq!(a.dense, b.dense, "trial {trial} node {id}");
                assert_eq!(a.special, b.special, "trial {trial} node {id}");
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
            assert_eq!(row.special.cost, 0, "{id}");
            assert_eq!(row.d, tree.count(id));
        }
    }
}
