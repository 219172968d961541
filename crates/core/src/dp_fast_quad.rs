//! Optimized `Bulk_dp` for **quad trees** — Theorem 2's literal setting.
//!
//! The paper's production algorithm runs on binary (semi-quadrant) trees;
//! quad trees appear only in the first-cut Algorithm 1, whose inner loop
//! enumerates 4-tuples of child pass-ups (`O(|D|⁴)` per cell). This module
//! brings the Section V optimizations to the 4-way case by *associating*
//! the child combination: convolve `c₁⊗c₂` and `c₃⊗c₄` into sparse
//! cost-by-sum tables, convolve those two tables, and resolve each `u`
//! with the same suffix-minimum trick as the binary algorithm. Each
//! child's candidate set is a dense interval plus one special value, so
//! every intermediate table has `O(kh)` distinct sums and the per-node
//! work stays `O((kh)²)` — the quad tree gets the binary tree's asymptotics.
//!
//! One row engine, [`quad_row`], computes every quad row: the bulk sweep
//! calls it in postorder and the incremental refresh calls it for each
//! dirty node, so both produce the same rows by construction.
//!
//! The Lemma-5 pass-up cap is applied with the node's *quad* depth; the
//! unit tests cross-validate against the uncapped dense reference on
//! hundreds of random instances. (A quad node has half the ancestors of
//! the corresponding binary node, so the `(k+1)·h(m)` budget is, if
//! anything, conservative relative to the binary-tree lemma.)

use crate::dp_fast::{dense_cap, missing_child_row};
use crate::matrix::Splits;
use crate::{CoreError, DpMatrix, Row, INFINITE_COST};
use lbs_tree::{NodeId, SpatialTree, TreeKind};

/// One sparse cost-by-sum table entry: the cheapest way for a child pair
/// to pass up exactly `j` locations, with the split achieving it.
#[derive(Debug, Clone, Copy)]
struct SumEntry {
    j: usize,
    cost: u128,
    split: [u32; 2],
}

/// Runs the optimized `Bulk_dp` over a **quad** tree.
///
/// # Errors
/// [`CoreError::InvalidK`] for `k = 0`; [`CoreError::Tree`] when handed a
/// binary tree (use [`crate::bulk_dp_fast`] there).
pub fn bulk_dp_fast_quad(tree: &SpatialTree, k: usize) -> Result<DpMatrix, CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidK);
    }
    if tree.config().kind != TreeKind::Quad {
        return Err(CoreError::Tree("bulk_dp_fast_quad requires a quad tree".into()));
    }
    let mut matrix = DpMatrix::new(k, tree.arena_len());
    for id in tree.postorder() {
        let row = quad_row(tree, &matrix, id, k)?;
        matrix.set_row(id, row);
    }
    Ok(matrix)
}

/// All pair sums of two candidate lists, sorted by `j`, min-cost per `j`.
/// The enumeration order (`a` outer, `b` inner) and the
/// `sort_unstable`/`dedup` pair fix which split represents equal-cost
/// sums: `sort_unstable` is deterministic for a given input sequence, so
/// equal child rows always yield the same table.
fn convolve(a: &[(usize, u128)], b: &[(usize, u128)]) -> Vec<SumEntry> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &(la, ca) in a {
        if ca == INFINITE_COST {
            continue;
        }
        for &(lb, cb) in b {
            if cb == INFINITE_COST {
                continue;
            }
            out.push(SumEntry { j: la + lb, cost: ca + cb, split: [la as u32, lb as u32] });
        }
    }
    out.sort_unstable_by_key(|e| (e.j, e.cost));
    out.dedup_by_key(|e| e.j);
    out
}

/// Computes one quad-node row via associated convolution — the row
/// engine of both [`bulk_dp_fast_quad`] and the incremental refresh.
///
/// # Errors
/// [`CoreError::StaleMatrix`] when a child row is missing or a convolved
/// sum cannot be resolved back to its pair tables (postorder discipline
/// violated or the matrix was mutated mid-sweep).
// lbs-lint: allow-item(panic-reachability, reason = "suffix is allocated with total.len()+1 entries before the sweeps that index it, cands always holds 4 child lists for a quad node, and lookup indexes with a position returned by binary_search")
pub(crate) fn quad_row(
    tree: &SpatialTree,
    matrix: &DpMatrix,
    id: NodeId,
    k: usize,
) -> Result<Row, CoreError> {
    let node = tree.node(id);
    let d = node.count;
    let area = node.rect.area();

    if node.is_leaf() {
        return Ok(Row::leaf(d, area, dense_cap(d, node.depth, k)));
    }

    let children = node.children.as_slice();
    debug_assert_eq!(children.len(), 4, "quad tree");
    // Each child row as a sparse candidate list `(l, cost)`.
    let cands: Vec<Vec<(usize, u128)>> = children
        .iter()
        .map(|&c| {
            matrix.row(c).map(|row| row.iter().collect()).ok_or_else(|| missing_child_row(id, c))
        })
        .collect::<Result<_, _>>()?;

    // Associate: (c1 ⊗ c2) ⊗ (c3 ⊗ c4).
    let s12 = convolve(&cands[0], &cands[1]);
    let s34 = convolve(&cands[2], &cands[3]);
    let pair12: Vec<(usize, u128)> = s12.iter().map(|e| (e.j, e.cost)).collect();
    let pair34: Vec<(usize, u128)> = s34.iter().map(|e| (e.j, e.cost)).collect();
    let total = convolve(&pair12, &pair34);

    // Suffix minima of total[i].cost + j·area for the "cloak ≥ k" branch.
    let mut suffix: Vec<(u128, usize)> = vec![(INFINITE_COST, usize::MAX); total.len() + 1];
    for i in (0..total.len()).rev() {
        let weighted = total[i].cost.saturating_add(area * total[i].j as u128);
        suffix[i] = if weighted <= suffix[i + 1].0 { (weighted, i) } else { suffix[i + 1] };
    }

    // Resolve the 4-way split for a chosen `total` entry: its split holds
    // (j12, j34); look each up in s12/s34 to recover (u1..u4).
    let lookup = |table: &[SumEntry], j: usize, side: &str| -> Result<[u32; 2], CoreError> {
        let idx = table.binary_search_by_key(&j, |e| e.j).map_err(|_| {
            CoreError::StaleMatrix(format!(
                "pass-up sum {j} missing from the {side} pair table of {id:?}; \
                 convolution tables are inconsistent with the final table"
            ))
        })?;
        Ok(table[idx].split)
    };
    let resolve = |entry: &SumEntry| -> Result<[u32; 4], CoreError> {
        let s12 = lookup(&s12, entry.split[0] as usize, "c1⊗c2")?;
        let s34 = lookup(&s34, entry.split[1] as usize, "c3⊗c4")?;
        Ok([s12[0], s12[1], s34[0], s34[1]])
    };

    let len = dense_cap(d, node.depth, k).map_or(0, |cap| cap + 1);
    let mut dense = Vec::with_capacity(len);
    let mut splits = Vec::with_capacity(len);
    let mut exact = 0usize;
    let mut lower = 0usize;
    for u in 0..len {
        let mut best: (u128, [u32; 4]) = (INFINITE_COST, [0; 4]);
        while exact < total.len() && total[exact].j < u {
            exact += 1;
        }
        if exact < total.len() && total[exact].j == u {
            best = (total[exact].cost, resolve(&total[exact])?);
        }
        while lower < total.len() && total[lower].j < u + k {
            lower += 1;
        }
        let (weighted, argmin) = suffix[lower];
        if weighted != INFINITE_COST {
            let cost = weighted - area * u as u128;
            if cost < best.0 {
                best = (cost, resolve(&total[argmin])?);
            }
        }
        dense.push(best.0);
        splits.push(best.1);
    }
    Ok(Row { d, dense, splits: Splits::Explicit(splits) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bulk_dp_dense, bulk_dp_fast, verify_policy_aware};
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
    fn rejects_binary_trees_and_k_zero() {
        let d = db(&[(0, 0), (1, 1)]);
        let binary =
            SpatialTree::build(&d, TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 4), 2))
                .unwrap();
        assert!(matches!(bulk_dp_fast_quad(&binary, 2), Err(CoreError::Tree(_))));
        let quad =
            SpatialTree::build(&d, TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 4), 2))
                .unwrap();
        assert!(matches!(bulk_dp_fast_quad(&quad, 0), Err(CoreError::InvalidK)));
    }

    #[test]
    fn matches_dense_reference_on_random_quad_instances() {
        let mut rng = StdRng::seed_from_u64(0x0AD);
        for trial in 0..120 {
            let n = rng.gen_range(2..=18);
            let k = rng.gen_range(1..=4);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..32), rng.gen_range(0..32))).collect();
            let d = db(&points);
            let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 32), k);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let fast = bulk_dp_fast_quad(&tree, k).unwrap().optimal_cost(&tree).ok();
            let dense = bulk_dp_dense(&tree, k).unwrap().optimal_cost(&tree).ok();
            assert_eq!(fast, dense, "trial {trial}, n={n}, k={k}");
        }
    }

    #[test]
    fn matches_dense_on_eager_quad_trees() {
        let mut rng = StdRng::seed_from_u64(0xEA6);
        for trial in 0..15 {
            let n = rng.gen_range(2..=8);
            let k = rng.gen_range(1..=3);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..8), rng.gen_range(0..8))).collect();
            let d = db(&points);
            let cfg = TreeConfig::eager(TreeKind::Quad, Rect::square(0, 0, 8), 2);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let fast = bulk_dp_fast_quad(&tree, k).unwrap().optimal_cost(&tree).ok();
            let dense = bulk_dp_dense(&tree, k).unwrap().optimal_cost(&tree).ok();
            assert_eq!(fast, dense, "trial {trial}");
        }
    }

    #[test]
    fn extraction_works_through_the_four_way_splits() {
        let mut rng = StdRng::seed_from_u64(0xE17);
        for trial in 0..20 {
            let n = rng.gen_range(4..=40);
            let k = rng.gen_range(2..=5.min(n));
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..64), rng.gen_range(0..64))).collect();
            let d = db(&points);
            let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 64), k);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let m = bulk_dp_fast_quad(&tree, k).unwrap();
            match m.extract_policy(&tree) {
                Err(CoreError::InsufficientPopulation { .. }) => assert!(n < k),
                Err(e) => panic!("trial {trial}: {e}"),
                Ok(policy) => {
                    assert!(policy.is_masking_and_total(&d), "trial {trial}");
                    assert!(verify_policy_aware(&policy, &d, k).is_ok(), "trial {trial}");
                    assert_eq!(
                        policy.cost_exact(),
                        Some(m.optimal_cost(&tree).unwrap()),
                        "trial {trial}"
                    );
                }
            }
        }
    }

    #[test]
    fn binary_optimum_never_exceeds_quad_optimum() {
        // Section V: every quad-tree policy is a binary-tree policy, so
        // the binary optimum can only be cheaper (at equal granularity).
        let mut rng = StdRng::seed_from_u64(0xB19);
        for trial in 0..15 {
            let n = rng.gen_range(5..=60);
            let k = rng.gen_range(2..=6);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..128), rng.gen_range(0..128))).collect();
            let d = db(&points);
            let map = Rect::square(0, 0, 128);
            let quad = SpatialTree::build(&d, TreeConfig::lazy(TreeKind::Quad, map, k)).unwrap();
            let binary =
                SpatialTree::build(&d, TreeConfig::lazy(TreeKind::Binary, map, k)).unwrap();
            let cq = bulk_dp_fast_quad(&quad, k).unwrap().optimal_cost(&quad).ok();
            let cb = bulk_dp_fast(&binary, k).unwrap().optimal_cost(&binary).ok();
            if let (Some(cq), Some(cb)) = (cq, cb) {
                assert!(cb <= cq, "trial {trial}: binary {cb} > quad {cq}");
            } else {
                assert_eq!(cq.is_none(), cb.is_none(), "trial {trial}: feasibility differs");
            }
        }
    }
}
