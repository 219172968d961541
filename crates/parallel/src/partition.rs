//! The paper's greedy jurisdiction partitioner, run without a tree.
//!
//! Section V's scheme works on the lazy binary semi-quadrant tree over
//! the whole population: starting from the root, repeatedly replace the
//! most populous *splittable* jurisdiction — one whose children each hold
//! 0 or ≥ k users — by its two children. Only the nodes the greedy loop
//! actually visits matter, so [`partition_users`] never builds the tree.
//! It keeps the candidate jurisdictions as (rect, depth, range) cells over
//! one slice of users and, the first time a cell's splittability is asked
//! for, partitions that cell's range in place around its split line. Every
//! jurisdiction therefore ends up as a contiguous range of the reordered
//! slice, ready to hand to its server without copying a user.

use lbs_geom::{Point, Rect};
use lbs_model::UserId;
use lbs_tree::{partition_in_place, TreeConfig, TreeKind};
use std::ops::Range;

/// One jurisdiction chosen by [`partition_users`]: a node of the map's
/// lazy binary semi-quadrant tree and the users inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jurisdiction {
    /// The jurisdiction's rect. Sibling rects partition their parent's
    /// half-open rect, so a partition's rects tile the map.
    pub rect: Rect,
    /// The range of the reordered user slice whose users lie in `rect`.
    pub users: Range<usize>,
}

/// Where splitting a cell would put its users, worked out once per cell.
#[derive(Debug, Clone, Copy)]
enum Split {
    /// Not evaluated yet.
    Pending,
    /// The lazy tree would keep this node a leaf.
    Leaf,
    /// The range is partitioned: users before this index lie in the low
    /// child, the rest in the high child.
    At(usize),
}

#[derive(Debug, Clone)]
struct Cell {
    rect: Rect,
    /// Depth below the map root (the root is 0), as in the lazy tree.
    depth: u16,
    users: Range<usize>,
    split: Split,
}

impl Cell {
    /// The low and high child rects, in the lazy binary tree's order.
    fn child_rects(&self) -> (Rect, Rect) {
        self.rect.split(self.rect.binary_split_axis())
    }

    /// Works out (once) whether the lazy tree splits this node and, if
    /// so, moves its low child's users to the front of its range.
    fn evaluate(&mut self, users: &mut [(UserId, Point)], config: &TreeConfig) {
        if !matches!(self.split, Split::Pending) {
            return;
        }
        if !config.may_split(&self.rect, self.depth, self.users.len()) {
            self.split = Split::Leaf;
            return;
        }
        let (low, _) = self.child_rects();
        let range = users.get_mut(self.users.clone()).unwrap_or_default();
        self.split = Split::At(self.users.start + partition_in_place(range, &low));
    }

    /// The greedy rule: `Some(split point)` for an internal node whose
    /// children each hold 0 or ≥ k users.
    fn splittable(&self, k: usize) -> Option<usize> {
        let Split::At(mid) = self.split else { return None };
        let ok = |n: usize| n == 0 || n >= k;
        (ok(mid - self.users.start) && ok(self.users.end - mid)).then_some(mid)
    }

    /// The low and high children of an evaluated internal cell.
    fn children(&self, mid: usize) -> [Cell; 2] {
        let (low, high) = self.child_rects();
        let child =
            |rect, users| Cell { rect, depth: self.depth + 1, users, split: Split::Pending };
        [child(low, self.users.start..mid), child(high, mid..self.users.end)]
    }
}

/// The paper's greedy partitioner over `users` on `map` (Section V):
/// starting from the map root, repeatedly replace the most populous
/// splittable jurisdiction by its two children, until `servers`
/// jurisdictions exist or nothing is splittable.
///
/// The result is exactly the jurisdiction list the greedy loop yields
/// over the lazy binary tree `TreeConfig::lazy(TreeKind::Binary, map, k)`
/// (node splittable when [`TreeConfig::may_split`] holds, depth counted
/// from the map root; ties between equally populous candidates go to the
/// last; the chosen node is `swap_remove`d and replaced by its low then
/// high child) — without building that tree. `users` is reordered in
/// place so that each returned jurisdiction's users are the contiguous
/// range [`Jurisdiction::users`]; the ranges tile `0..users.len()`.
///
/// # Errors
/// An invalid map, or a user outside it.
pub fn partition_users(
    users: &mut [(UserId, Point)],
    map: Rect,
    k: usize,
    servers: usize,
) -> Result<Vec<Jurisdiction>, String> {
    let config = TreeConfig::lazy(TreeKind::Binary, map, k);
    config.validate()?;
    if let Some(&(u, _)) = users.iter().find(|(_, p)| !map.contains(p)) {
        // The offending point is deliberately not echoed: raw sender
        // coordinates must not reach error strings.
        // lbs-lint: allow(location-taint, reason = "message names the user id and the map bounds; the raw point was removed")
        return Err(format!("user {u} is outside the map {map}"));
    }
    let mut cells =
        vec![Cell { rect: map, depth: 0, users: 0..users.len(), split: Split::Pending }];
    while cells.len() < servers {
        for cell in &mut cells {
            cell.evaluate(users, &config);
        }
        let candidate = cells
            .iter()
            .enumerate()
            .filter_map(|(pos, cell)| Some((pos, cell.users.len(), cell.splittable(k)?)))
            .max_by_key(|&(_, population, _)| population);
        let Some((pos, _, mid)) = candidate else { break };
        let cell = cells.swap_remove(pos);
        cells.extend(cell.children(mid));
    }
    Ok(cells.into_iter().map(|cell| Jurisdiction { rect: cell.rect, users: cell.users }).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_model::LocationDb;
    use lbs_tree::{NodeId, SpatialTree};
    use lbs_workload::{generate_master, BayAreaConfig};

    fn workload(n: usize) -> (LocationDb, Rect) {
        let mut cfg = BayAreaConfig::scaled_to(n);
        cfg.map_side = 1 << 14;
        let db = generate_master(&cfg);
        (db, cfg.map())
    }

    /// The greedy loop as the paper states it, over a materialized lazy
    /// tree: the reference the tree-free partitioner must reproduce.
    fn greedy_over_tree(tree: &SpatialTree, servers: usize, k: usize) -> Vec<NodeId> {
        let splittable = |id: NodeId| {
            let node = tree.node(id);
            !node.is_leaf()
                && node
                    .children
                    .as_slice()
                    .iter()
                    .all(|&c| tree.count(c) == 0 || tree.count(c) >= k)
        };
        let mut jurisdictions = vec![tree.root()];
        while jurisdictions.len() < servers {
            let candidate = jurisdictions
                .iter()
                .enumerate()
                .filter(|&(_, &id)| splittable(id))
                .max_by_key(|&(_, &id)| tree.count(id));
            let Some((pos, _)) = candidate else { break };
            let id = jurisdictions.swap_remove(pos);
            jurisdictions.extend_from_slice(tree.node(id).children.as_slice());
        }
        jurisdictions
    }

    #[test]
    fn matches_the_greedy_loop_over_the_lazy_tree() {
        for (n, k) in [(2_000, 10), (3_000, 50), (500, 3)] {
            let (db, map) = workload(n);
            let tree = SpatialTree::build(&db, TreeConfig::lazy(TreeKind::Binary, map, k)).unwrap();
            for servers in [1, 2, 3, 7, 16, 64, 1_000] {
                let expected: Vec<(Rect, usize)> = greedy_over_tree(&tree, servers, k)
                    .into_iter()
                    .map(|id| (tree.node(id).rect, tree.count(id)))
                    .collect();
                let mut users: Vec<(UserId, Point)> = db.iter().collect();
                let got: Vec<(Rect, usize)> = partition_users(&mut users, map, k, servers)
                    .unwrap()
                    .into_iter()
                    .map(|j| (j.rect, j.users.len()))
                    .collect();
                assert_eq!(got, expected, "n={n} k={k} servers={servers}");
            }
        }
    }

    #[test]
    fn respects_server_count_and_k_rule() {
        let (db, map) = workload(2_000);
        let k = 10;
        for servers in [1, 2, 4, 8, 16] {
            let mut users: Vec<(UserId, Point)> = db.iter().collect();
            let parts = partition_users(&mut users, map, k, servers).unwrap();
            assert!(parts.len() <= servers.max(1));
            let total: usize = parts.iter().map(|j| j.users.len()).sum();
            assert_eq!(total, db.len(), "jurisdictions partition the users");
            for j in &parts {
                let c = j.users.len();
                assert!(c == 0 || c >= k, "jurisdiction with 0 < {c} < k");
            }
        }
    }

    #[test]
    fn off_map_users_and_bad_maps_are_rejected() {
        let map = Rect::square(0, 0, 16);
        let mut users = vec![(UserId(7), Point::new(1, 1)), (UserId(8), Point::new(16, 3))];
        let err = partition_users(&mut users, map, 1, 4).unwrap_err();
        assert!(err.contains("u8") && err.contains("outside the map"), "{err}");
        let err = partition_users(&mut [], Rect::square(0, 0, 12), 1, 4).unwrap_err();
        assert!(err.contains("power of two"), "{err}");
    }
}
