//! The optimum configuration matrix `M` filled by `Bulk_dp`.

use crate::dp_fast::{ChildPair, Win};
use crate::CoreError;
use lbs_geom::{Area, Rect};
use lbs_tree::{NodeId, SpatialTree};

/// Sentinel for "no configuration reaches this cell".
pub const INFINITE_COST: u64 = u64::MAX;

/// The largest `count(root) × area(root)` a DP accepts: 2⁶².
///
/// A dense cost at node `m` sums one cloak area per cloaked user of its
/// subtree, so it is at most `d(m)·area(m) ≤ |D|·A`, and a weighted
/// suffix value `cost + j·area` of Stage 2 at most `2·|D|·A ≤ 2⁶³`.
/// Under the bound no `u64` sum of the DP overflows and no finite cost
/// equals [`INFINITE_COST`], so the cost column is `u64`.
pub const COST_BOUND: Area = 1 << 62;

/// Checks `population × area` against [`COST_BOUND`], computed in
/// [`Area`]. O(1). The DP's entry check applies it to the root; a durable
/// service applies it to the population a churn batch would leave, before
/// logging the batch, so no logged batch can make a later refresh fail.
///
/// # Errors
/// [`CoreError::CostOverflow`] past the bound.
pub fn check_population_bound(population: usize, area: Area) -> Result<(), CoreError> {
    if (population as Area).saturating_mul(area) > COST_BOUND {
        return Err(CoreError::CostOverflow { population, area });
    }
    Ok(())
}

/// The DP's entry check: [`check_population_bound`] on
/// `count(root) × area(root)`. Every builder and the incremental refresh
/// call it before computing a row.
///
/// # Errors
/// [`CoreError::CostOverflow`] past the bound.
pub(crate) fn check_cost_bound(tree: &SpatialTree) -> Result<(), CoreError> {
    let root = tree.root();
    check_population_bound(tree.count(root), tree.node(root).rect.area())
}

/// A node's area as a DP cost. Once [`check_cost_bound`] holds it fits: a
/// populated map's area is at most 2⁶², and an empty map's DP multiplies
/// the area only by zero, so the saturation never reaches a cost.
#[inline]
pub(crate) fn cost_area(rect: &Rect) -> u64 {
    u64::try_from(rect.area()).unwrap_or(u64::MAX)
}

/// How a row records, for each dense cell, the children pass-up counts
/// `u₁, …` that achieve its cost. [`DpMatrix::split_of`] reads either form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Splits {
    /// The binary fast sweep's column: one packed [`Win`] tag per cell,
    /// naming the winning branch. A `Conv` tag's `l₁` is resolved on
    /// demand by rescanning the children's cost diagonal. Empty at a leaf,
    /// which has no children to split between.
    Tags(Vec<u32>),
    /// The reference builders' column: the explicit counts `u₁..u₄` per
    /// cell (first 2 used on binary trees, all 4 on quad trees).
    Explicit(Vec<[u32; 4]>),
}

/// One matrix row: the cells `M[m][u] = ⟨x, u₁, …⟩` for a single tree
/// node, where `x` is the minimum cost over all k-summation configurations
/// of the subtree rooted at `m` that pass up exactly `u` locations.
///
/// Storage mirrors the search-space reduction of Sections IV–V: a row holds
/// a *dense* block for `u ∈ [0 ..= u_max]` (where `u_max ≤ d(m) − k`,
/// further capped by Lemma 5's `(k+1)·h(m)` in the fast algorithm) plus one
/// *special* cell for `u = d(m)` ("pass everything up", always cost 0, and
/// split into the children's populations, so it is not stored).
/// The excluded values `d(m)−k+1 .. d(m)−1` would cloak fewer than k users
/// at `m` and are ruled out by function `F` in Algorithm 1.
///
/// Costs and splits are separate columns: the child convolution reads
/// only `dense`, and extraction reads one split per visited node through
/// [`DpMatrix::split_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `d(m)` at the time the row was computed.
    pub d: usize,
    /// Costs for `u = 0 ..= u_max` (empty when `d < k`), in `u64` under
    /// the DP's entry bound ([`COST_BOUND`]).
    pub dense: Vec<u64>,
    /// The split column, parallel to `dense`.
    pub(crate) splits: Splits,
}

impl Row {
    /// A leaf's row: passing `u ≤ cap` users up cloaks the other `d − u`
    /// here, at `area` each. `cap` is `None` when only the special cell
    /// exists (`d < k`). A leaf has no children to split between, so every
    /// builder gives it the same empty split column.
    pub(crate) fn leaf(d: usize, area: u64, cap: Option<usize>) -> Row {
        let dense = match cap {
            None => Vec::new(),
            Some(cap) => (0..=cap).map(|u| area * (d - u) as u64).collect(),
        };
        Row { d, dense, splits: Splits::Tags(Vec::new()) }
    }

    /// The cost of pass-up count `u`, if `u` is in the row's domain.
    #[inline]
    pub fn cost(&self, u: usize) -> Option<u64> {
        if u == self.d {
            Some(0)
        } else {
            self.dense.get(u).copied()
        }
    }

    /// Largest dense `u` stored, or `None` when the dense block is empty.
    #[inline]
    pub fn u_max(&self) -> Option<usize> {
        self.dense.len().checked_sub(1)
    }

    /// Iterates `(u, cost)` over the row's whole domain.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.dense.iter().copied().enumerate().chain(std::iter::once((self.d, 0)))
    }
}

/// The filled configuration matrix: one [`Row`] per live tree node,
/// indexed by [`NodeId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpMatrix {
    /// Anonymity level the matrix was computed for.
    pub k: usize,
    rows: Vec<Option<Row>>,
}

/// A [`CoreError::StaleMatrix`] carrying `message`.
pub(crate) fn stale(message: String) -> CoreError {
    CoreError::StaleMatrix(message)
}

impl DpMatrix {
    /// An empty matrix for anonymity level `k`, sized for `arena_len` nodes.
    pub fn new(k: usize, arena_len: usize) -> Self {
        DpMatrix { k, rows: vec![None; arena_len] }
    }

    /// The row of `id`, if computed.
    #[inline]
    pub fn row(&self, id: NodeId) -> Option<&Row> {
        self.rows.get(id.index()).and_then(Option::as_ref)
    }

    /// Installs a row.
    pub fn set_row(&mut self, id: NodeId, row: Row) {
        if self.rows.len() <= id.index() {
            self.rows.resize(id.index() + 1, None);
        }
        self.rows[id.index()] = Some(row);
    }

    /// Drops the row of a detached node.
    pub fn clear_row(&mut self, id: NodeId) {
        if let Some(slot) = self.rows.get_mut(id.index()) {
            *slot = None;
        }
    }

    /// Grows the matrix to cover a grown arena.
    pub fn resize_for(&mut self, tree: &SpatialTree) {
        if self.rows.len() < tree.arena_len() {
            self.rows.resize(tree.arena_len(), None);
        }
    }

    /// Number of computed rows.
    pub fn computed_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// The optimal complete-configuration cost: `M[root][0]`, widened to
    /// the [`lbs_geom::Area`] every policy cost is summed in.
    ///
    /// # Errors
    /// [`CoreError::InsufficientPopulation`] when fewer than k users exist
    /// (no complete configuration satisfies k-summation), or
    /// [`CoreError::StaleMatrix`] when the root row is missing.
    pub fn optimal_cost(&self, tree: &SpatialTree) -> Result<u128, CoreError> {
        let root = tree.root();
        let row = self.row(root).ok_or_else(|| stale(format!("no row for root {root}")))?;
        if row.d != tree.count(root) {
            return Err(stale(format!(
                "root row computed for d={}, tree now has d={}",
                row.d,
                tree.count(root)
            )));
        }
        if tree.count(root) == 0 {
            return Ok(0); // an empty map is vacuously anonymized
        }
        match row.cost(0) {
            Some(cost) if cost != INFINITE_COST => Ok(u128::from(cost)),
            _ => Err(CoreError::InsufficientPopulation { population: tree.count(root), k: self.k }),
        }
    }

    /// The children pass-up counts `[u₁, u₂, u₃, u₄]` achieving the
    /// feasible cell `M[id][u]` (zeros past the node's arity; all zeros at
    /// a leaf). Extraction calls this once per visited node.
    ///
    /// The special cell `u = d(m)` splits into the children's populations,
    /// read from `tree`. An explicit split is returned as stored. A branch
    /// tag is resolved against the children's rows and populations: a
    /// `Conv(j)` tag rescans diagonal `j` of their cost columns, ascending,
    /// for the smallest `l₁` that reaches the cell cost — the split the
    /// row-wise reference records with its strict-`<` update.
    ///
    /// # Errors
    /// [`CoreError::StaleMatrix`] when the row or a child row is missing,
    /// `u` is outside the row's domain or unreachable, a tag names a `j`,
    /// `l₁` or `l₂` outside the children's rows, or no `l₁` on the
    /// diagonal reaches the cell cost.
    pub fn split_of(
        &self,
        tree: &SpatialTree,
        id: NodeId,
        u: usize,
    ) -> Result<[u32; 4], CoreError> {
        let row = self.row(id).ok_or_else(|| stale(format!("missing row for {id}")))?;
        let cost = row
            .cost(u)
            .filter(|&cost| cost != INFINITE_COST)
            .ok_or_else(|| stale(format!("row {id} has no feasible entry for u={u}")))?;
        let node = tree.node(id);
        let children = node.children.as_slice();
        let mut split = [0u32; 4];
        if children.is_empty() {
            return Ok(split);
        }
        if u == row.d {
            for (s, &child) in split.iter_mut().zip(children) {
                *s = tree.count(child) as u32;
            }
            return Ok(split);
        }
        let unresolved =
            || stale(format!("row {id}: the split of u={u} does not resolve against its children"));
        let tag = match &row.splits {
            Splits::Explicit(splits) => return splits.get(u).copied().ok_or_else(unresolved),
            Splits::Tags(tags) => tags.get(u).copied().ok_or_else(unresolved)?,
        };
        let &[c1, c2] = children else { return Err(unresolved()) };
        let dense = |c: NodeId| {
            self.row(c)
                .map(|r| r.dense.as_slice())
                .ok_or_else(|| stale(format!("row for child {c} of {id} is missing")))
        };
        let pair = ChildPair {
            dense1: dense(c1)?,
            dense2: dense(c2)?,
            d1: tree.count(c1),
            d2: tree.count(c2),
        };
        let [u1, u2] =
            Win::unpack(tag).split(pair, u, cost, cost_area(&node.rect)).ok_or_else(unresolved)?;
        Ok([u1, u2, 0, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_domain_lookup() {
        let row = Row { d: 7, dense: vec![0, 5], splits: Splits::Explicit(vec![[0; 4]; 2]) };
        assert_eq!(row.cost(0), Some(0));
        assert_eq!(row.cost(1), Some(5));
        assert!(row.cost(2).is_none(), "outside dense block");
        assert!(row.cost(6).is_none(), "excluded d-k+1..d-1 range");
        assert_eq!(row.cost(7), Some(0), "the special cell is free");
        assert_eq!(row.u_max(), Some(1));
        assert_eq!(row.iter().collect::<Vec<_>>(), vec![(0, 0), (1, 5), (7, 0)]);
    }

    #[test]
    fn empty_dense_block() {
        let row = Row::leaf(3, 4, None);
        assert!(row.cost(0).is_none());
        assert_eq!(row.u_max(), None);
        assert_eq!(row.cost(3), Some(0));
        assert_eq!(Row::leaf(3, 4, Some(1)).dense, vec![12, 8], "d − u users cloaked at area 4");
    }

    #[test]
    fn matrix_grow_and_clear() {
        let mut m = DpMatrix::new(2, 1);
        let id = NodeId(5);
        m.set_row(id, Row::leaf(0, 1, None));
        assert!(m.row(id).is_some());
        assert_eq!(m.computed_rows(), 1);
        m.clear_row(id);
        assert!(m.row(id).is_none());
    }
}
