//! Tree construction and queries.

use crate::{Children, Node, NodeId, TreeConfig, TreeKind};
use lbs_geom::{Point, Rect};
use lbs_model::{LocationDb, UserId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A lazily (or eagerly) materialized quad/binary tree over one location
/// database snapshot.
///
/// The tree owns the per-leaf user lists and the per-node population counts
/// `d(m)`; it is the substrate both for the optimal policy-aware DP
/// (`lbs-core`) and for the k-inside baselines (`lbs-baselines`).
#[derive(Debug, Clone)]
pub struct SpatialTree {
    pub(crate) config: TreeConfig,
    pub(crate) nodes: Vec<Node>,
    /// Users stored at each *leaf*; empty for internal nodes.
    pub(crate) users: Vec<Vec<(UserId, Point)>>,
    pub(crate) root: NodeId,
    /// Which leaf currently stores each user. Built on first use (bulk
    /// anonymization never reads it); once built, incremental updates
    /// keep it in step with the leaves.
    pub(crate) user_leaf: OnceLock<HashMap<UserId, NodeId>>,
    /// Per-node modification counters, bumped whenever a node lands in an
    /// update's dirty set (its subtree's membership changed). Subtree
    /// caches (the extraction records, the refresh's cost-column read
    /// counter) key their entries on these, so a stale entry can never be
    /// mistaken for a current one.
    pub(crate) versions: Vec<u64>,
    /// Live (attached) node count, maintained by alloc/collapse so
    /// [`SpatialTree::live_len`] is O(1).
    pub(crate) live: usize,
}

/// Moves the rows inside `low` to the front of `rows` and returns how
/// many there are: one in-place pass, no allocation. Unstable: the order
/// within each side is arbitrary, which nothing downstream depends on
/// (tree shape and the extracted policy are functions of the user *set*,
/// and [`SpatialTree::from_items`] sorts each leaf by id).
pub fn partition_in_place(rows: &mut [(UserId, Point)], low: &Rect) -> usize {
    let mut front = 0;
    let mut back = rows.len();
    while front < back {
        let in_low = rows.get(front).is_some_and(|(_, p)| low.contains(p));
        if in_low {
            front += 1;
        } else {
            back -= 1;
            rows.swap(front, back);
        }
    }
    front
}

impl SpatialTree {
    /// Builds a tree over `db` under `config`.
    ///
    /// # Errors
    /// Fails when the config is invalid or a location falls off the map.
    pub fn build(db: &LocationDb, config: TreeConfig) -> Result<Self, String> {
        Self::from_items(db.iter().collect(), config)
    }

    /// Builds a tree over raw `(user, point)` rows under `config` — the
    /// one build path: [`SpatialTree::build`] collects its database into
    /// rows and calls this. User ids must be unique (a [`LocationDb`]'s
    /// rows, or any sub-slice of them); the row order affects neither the
    /// tree's shape nor its leaves, which hold their users sorted by id.
    ///
    /// The build works in the one buffer `items`: each split partitions
    /// its node's range in place, and each leaf copies its range once.
    ///
    /// # Errors
    /// Fails when the config is invalid or a location falls off the map.
    pub fn from_items(mut items: Vec<(UserId, Point)>, config: TreeConfig) -> Result<Self, String> {
        config.validate()?;
        if let Some(&(u, _)) = items.iter().find(|(_, p)| !config.map.contains(p)) {
            // The offending point is deliberately not echoed: raw sender
            // coordinates must not reach error strings. The id alone is
            // tainted only through the tuple binder, hence the pragma.
            // lbs-lint: allow(location-taint, reason = "message names the user id and the map bounds; the raw point was removed")
            return Err(format!("user {u} is outside the map {}", config.map));
        }
        let mut tree = SpatialTree {
            config,
            nodes: Vec::new(),
            users: Vec::new(),
            root: NodeId(0),
            user_leaf: OnceLock::new(),
            versions: Vec::new(),
            live: 0,
        };
        let root = tree.build_rec(config.map, 0, &mut items, None);
        tree.root = root;
        Ok(tree)
    }

    // lbs-lint: allow-item(panic-reachability, reason = "the only panic path is the arena-overflow expect, which fires past 4 billion nodes — far beyond addressable memory for Node")
    fn alloc(&mut self, rect: Rect, depth: u16, parent: Option<NodeId>, count: usize) -> NodeId {
        #[expect(
            clippy::expect_used,
            reason = "arena index overflows u32 only past 4 billion nodes, far beyond addressable memory for Node"
        )]
        let id = NodeId(u32::try_from(self.nodes.len()).expect("arena overflow"));
        self.nodes.push(Node {
            rect,
            depth,
            parent,
            children: Children::None,
            count,
            detached: false,
        });
        self.users.push(Vec::new());
        self.versions.push(0);
        self.live += 1;
        id
    }

    /// Allocates the subtree over `items` in preorder (low child before
    /// high, quadrants in [`Rect::quadrants`] order). Internal nodes
    /// partition `items` in place; a leaf sorts its range by id and
    /// copies it once into its own list.
    // lbs-lint: allow-item(panic-reachability, reason = "id was just handed out by alloc, so nodes[id.index()] and users[id.index()] are in bounds by construction")
    pub(crate) fn build_rec(
        &mut self,
        rect: Rect,
        depth: u16,
        items: &mut [(UserId, Point)],
        parent: Option<NodeId>,
    ) -> NodeId {
        let id = self.alloc(rect, depth, parent, items.len());
        if self.config.may_split(&rect, depth, items.len()) {
            let children = self.split_node(id, items);
            self.nodes[id.index()].children = children;
        } else {
            items.sort_unstable_by_key(|&(u, _)| u);
            self.users[id.index()] = items.to_vec();
        }
        id
    }

    /// Splits `id` into children, partitioning `items` among them in
    /// place. Does not link the children into `id`; the caller does (so
    /// `build_rec` and incremental splitting share this).
    // lbs-lint: allow-item(panic-reachability, reason = "id is a live arena slot owned by this tree; each split point comes from partition_in_place over the slice it splits, so split_at_mut stays within that slice")
    pub(crate) fn split_node(&mut self, id: NodeId, items: &mut [(UserId, Point)]) -> Children {
        let rect = self.nodes[id.index()].rect;
        let depth = self.nodes[id.index()].depth;
        match self.config.kind {
            TreeKind::Quad => {
                // Three passes peel off the first three quadrants; the
                // half-open quadrants partition the parent, so the rest
                // lie in the fourth.
                let quadrants = rect.quadrants();
                let [q0, q1, q2, _] = quadrants;
                let mid = partition_in_place(items, &q0);
                let (s0, rest) = items.split_at_mut(mid);
                let mid = partition_in_place(rest, &q1);
                let (s1, rest) = rest.split_at_mut(mid);
                let mid = partition_in_place(rest, &q2);
                let (s2, s3) = rest.split_at_mut(mid);
                let mut ids = [NodeId(0); 4];
                for ((slot, q), slice) in ids.iter_mut().zip(quadrants).zip([s0, s1, s2, s3]) {
                    *slot = self.build_rec(q, depth + 1, slice, Some(id));
                }
                Children::Four(ids)
            }
            TreeKind::Binary => {
                let axis = self.choose_binary_axis(&rect, items);
                let (low, high) = rect.split(axis);
                let mid = partition_in_place(items, &low);
                let (low_items, high_items) = items.split_at_mut(mid);
                debug_assert!(high_items.iter().all(|(_, p)| high.contains(p)));
                let low_id = self.build_rec(low, depth + 1, low_items, Some(id));
                let high_id = self.build_rec(high, depth + 1, high_items, Some(id));
                Children::Two([low_id, high_id])
            }
        }
    }

    /// The split axis for a binary node: non-squares must split across
    /// their long axis (restoring squares); squares follow the configured
    /// [`crate::Orientation`] — fixed vertical, or whichever axis divides
    /// this node's population most evenly.
    fn choose_binary_axis(&self, rect: &Rect, items: &[(UserId, Point)]) -> lbs_geom::SplitAxis {
        use crate::Orientation;
        use lbs_geom::SplitAxis;
        if rect.width() != rect.height() || self.config.orientation == Orientation::FixedVertical {
            return rect.binary_split_axis();
        }
        let (west, _) = rect.split(SplitAxis::Vertical);
        let (south, _) = rect.split(SplitAxis::Horizontal);
        let in_west = items.iter().filter(|(_, p)| west.contains(p)).count();
        let in_south = items.iter().filter(|(_, p)| south.contains(p)).count();
        let n = items.len();
        // Imbalance = |low − high| = |2·low − n|.
        let v_imbalance = (2 * in_west).abs_diff(n);
        let h_imbalance = (2 * in_south).abs_diff(n);
        if h_imbalance < v_imbalance {
            SplitAxis::Horizontal
        } else {
            SplitAxis::Vertical
        }
    }

    /// Construction parameters.
    #[inline]
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node. Panics on an id from a different tree.
    #[inline]
    // lbs-lint: allow-item(panic-reachability, reason = "NodeId is only ever minted by this tree's allocator; the documented contract is that a foreign id panics")
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// `d(m)`: locations inside node `id` (Definition 7).
    #[inline]
    // lbs-lint: allow-item(panic-reachability, reason = "NodeId is an arena slot from this tree's allocator, so the indexing cannot go out of bounds")
    pub fn count(&self, id: NodeId) -> usize {
        self.nodes[id.index()].count
    }

    /// Total arena slots, including tombstones (bounds DP matrix sizing).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live (attached) nodes — the paper's `|T|` / `|B|`.
    /// O(1): maintained by the allocator and the collapse pass.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// The modification counter of node `id`: bumped every time `id`
    /// appears in an [`crate::UpdateReport::dirty`] set, that is, whenever
    /// a user enters or leaves its subtree or it is restructured. Anything
    /// derived from the subtree's membership (its DP row, its extraction)
    /// is valid while the version it was recorded under still matches; a
    /// bump does not by itself mean the DP row changed.
    #[inline]
    // lbs-lint: allow-item(panic-reachability, reason = "versions is grown in lockstep with nodes by alloc, so any NodeId this tree minted indexes in bounds")
    pub fn version(&self, id: NodeId) -> u64 {
        self.versions[id.index()]
    }

    /// All live node ids, children before parents — the bottom-up order
    /// `Bulk_dp` fills its matrix in.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        // Explicit stack with a visited phase to avoid recursion on deep trees.
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
            } else {
                stack.push((id, true));
                for &c in self.node(id).children.as_slice() {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// All live leaf ids.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.postorder().into_iter().filter(|&id| self.node(id).is_leaf()).collect()
    }

    /// The leaf whose rect contains `p`, or `None` if `p` is off the map.
    pub fn leaf_containing(&self, p: &Point) -> Option<NodeId> {
        if !self.config.map.contains(p) {
            return None;
        }
        let mut id = self.root;
        loop {
            let node = self.node(id);
            match node.children {
                Children::None => return Some(id),
                #[expect(
                    clippy::expect_used,
                    reason = "half-open child rects partition the parent, and p is inside the parent by the loop invariant"
                )]
                _ => {
                    id = *node
                        .children
                        .as_slice()
                        .iter()
                        .find(|&&c| self.node(c).rect.contains(p))
                        .expect("children partition the parent");
                }
            }
        }
    }

    /// The leaf currently storing `user`. The first call on a tree builds
    /// its user index, in O(|D|); later calls are one hash lookup.
    pub fn leaf_of_user(&self, user: UserId) -> Option<NodeId> {
        self.user_leaf.get_or_init(|| self.index_users()).get(&user).copied()
    }

    /// A fresh user → leaf index read off the leaves' user lists
    /// (internal and tombstoned nodes store no users).
    pub(crate) fn index_users(&self) -> HashMap<UserId, NodeId> {
        let mut index = HashMap::with_capacity(self.count(self.root));
        for (users, slot) in self.users.iter().zip(0u32..) {
            index.extend(users.iter().map(|&(u, _)| (u, NodeId(slot))));
        }
        index
    }

    /// Users stored at leaf `id` (empty slice for internal nodes).
    // lbs-lint: allow-item(panic-reachability, reason = "users is grown in lockstep with nodes by alloc, so any NodeId this tree minted indexes both in bounds")
    pub fn leaf_users(&self, id: NodeId) -> &[(UserId, Point)] {
        &self.users[id.index()]
    }

    /// Node ids from `id` (inclusive) up to the root (inclusive).
    pub fn path_to_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(parent) = self.node(cur).parent {
            path.push(parent);
            cur = parent;
        }
        path
    }

    /// Verifies internal invariants (counts sum, partition containment,
    /// user-leaf index coherence). Test/debug aid; O(|tree| + |D|). A tree
    /// whose index was never built is checked against a fresh one, which
    /// is not kept, so the check leaves the tree as it found it.
    pub fn check_invariants(&self) -> Result<(), String> {
        let user_leaf = match self.user_leaf.get() {
            Some(index) => Cow::Borrowed(index),
            None => Cow::Owned(self.index_users()),
        };
        for &id in &self.postorder() {
            let node = self.node(id);
            if node.detached {
                return Err(format!("{id} reachable but detached"));
            }
            match node.children {
                Children::None => {
                    if self.users[id.index()].len() != node.count {
                        return Err(format!("{id}: leaf count mismatch"));
                    }
                    for (u, p) in &self.users[id.index()] {
                        if !node.rect.contains(p) {
                            return Err(format!("{id}: user {u} at {p} outside leaf rect"));
                        }
                        if user_leaf.get(u) != Some(&id) {
                            return Err(format!("{id}: user {u} index points elsewhere"));
                        }
                    }
                }
                _ => {
                    let sum: usize = node.children.as_slice().iter().map(|&c| self.count(c)).sum();
                    if sum != node.count {
                        return Err(format!(
                            "{id}: children counts sum {sum} != d(m) {}",
                            node.count
                        ));
                    }
                    if !self.users[id.index()].is_empty() {
                        return Err(format!("{id}: internal node stores users"));
                    }
                    for &c in node.children.as_slice() {
                        let child = self.node(c);
                        if child.parent != Some(id) {
                            return Err(format!("{c}: bad parent link"));
                        }
                        if !node.rect.contains_rect(&child.rect) {
                            return Err(format!("{c}: rect escapes parent"));
                        }
                    }
                }
            }
        }
        if user_leaf.len() != self.count(self.root) {
            return Err("user index size != root count".into());
        }
        let attached = self.nodes.iter().filter(|n| !n.detached).count();
        if attached != self.live {
            return Err(format!("live count {} != attached nodes {attached}", self.live));
        }
        if self.versions.len() != self.nodes.len() {
            return Err("versions not in lockstep with arena".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_geom::Rect;
    use lbs_model::LocationDb;

    fn db(points: &[(i64, i64)]) -> LocationDb {
        LocationDb::from_rows(
            points.iter().enumerate().map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    }

    /// The paper's Table I / Figure 1 instance on a 4x4 map.
    fn table1_db() -> LocationDb {
        db(&[(1, 1), (1, 2), (1, 3), (3, 1), (3, 3)])
    }

    #[test]
    fn lazy_build_splits_only_populated_nodes() {
        let db = table1_db();
        let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 4), 2);
        let tree = SpatialTree::build(&db, cfg).unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(tree.count(tree.root()), 5);
        // Root splits (5 >= 2); the NW quadrant holds 2 users (1,2),(1,3)
        // and splits again; SE-ish quadrants hold < 2 and stay leaves.
        assert!(tree.live_len() > 1);
        for &leaf in &tree.leaves() {
            assert!(
                tree.count(leaf) < 2
                    || tree.node(leaf).depth == cfg.max_depth
                    || !cfg.may_split(
                        &tree.node(leaf).rect,
                        tree.node(leaf).depth,
                        tree.count(leaf)
                    )
            );
        }
    }

    #[test]
    fn eager_quad_build_has_full_fanout() {
        let db = db(&[(0, 0)]);
        let cfg = TreeConfig::eager(TreeKind::Quad, Rect::square(0, 0, 4), 2);
        let tree = SpatialTree::build(&db, cfg).unwrap();
        // Full quad tree of depth 2: 1 + 4 + 16 nodes.
        assert_eq!(tree.live_len(), 21);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn binary_tree_alternates_shapes() {
        let db = db(&[(0, 0), (1, 1), (2, 2), (3, 3), (5, 5), (6, 6), (7, 7)]);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 2);
        let tree = SpatialTree::build(&db, cfg).unwrap();
        tree.check_invariants().unwrap();
        for &id in &tree.postorder() {
            let n = tree.node(id);
            let (w, h) = (n.rect.width(), n.rect.height());
            assert!(w == h || w == h / 2, "only squares and vertical semi-quadrants: {w}x{h}");
            if let Children::Four(_) = n.children {
                panic!("binary tree produced quad node")
            }
        }
    }

    #[test]
    fn leaf_containing_descends_correctly() {
        let db = table1_db();
        let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 4), 2);
        let tree = SpatialTree::build(&db, cfg).unwrap();
        for (user, point) in db.iter() {
            let leaf = tree.leaf_containing(&point).unwrap();
            assert!(tree.node(leaf).rect.contains(&point));
            assert_eq!(tree.leaf_of_user(user), Some(leaf));
        }
        assert_eq!(tree.leaf_containing(&Point::new(-1, 0)), None);
        assert_eq!(tree.leaf_containing(&Point::new(4, 4)), None, "half-open map");
    }

    #[test]
    fn postorder_lists_children_before_parents() {
        let db = table1_db();
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 4), 2);
        let tree = SpatialTree::build(&db, cfg).unwrap();
        let order = tree.postorder();
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for &id in &order {
            for &c in tree.node(id).children.as_slice() {
                assert!(pos[&c] < pos[&id], "{c} must precede parent {id}");
            }
        }
        assert_eq!(*order.last().unwrap(), tree.root());
        assert_eq!(order.len(), tree.live_len());
    }

    #[test]
    fn off_map_location_is_rejected() {
        let db = db(&[(10, 10)]);
        let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 4), 2);
        assert!(SpatialTree::build(&db, cfg).is_err());
    }

    #[test]
    fn coincident_points_terminate_via_depth_cap() {
        let db = db(&[(1, 1), (1, 1), (1, 1), (1, 1)]);
        // All four users share one location; a single user id would collide,
        // so use distinct ids at identical coordinates.
        let mut cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 2);
        cfg.max_depth = 6;
        let tree = SpatialTree::build(&db, cfg).unwrap();
        tree.check_invariants().unwrap();
        let deepest = tree.leaves().iter().map(|&l| tree.node(l).depth).max().unwrap();
        assert!(deepest <= 6);
        // The coincident users end up together in one leaf.
        let leaf = tree.leaf_containing(&Point::new(1, 1)).unwrap();
        assert_eq!(tree.count(leaf), 4);
    }

    #[test]
    fn balanced_orientation_picks_the_even_split() {
        use crate::Orientation;
        // Four users in the south half, none in the north: a vertical
        // split would be 2|2… here users sit at (1,1),(6,1),(1,2),(6,2):
        // vertical W/E = 2|2 (balanced), horizontal S/N = 4|0 (skewed).
        // Balanced must choose vertical. Mirror the layout to force
        // horizontal instead.
        let even_vertical = db(&[(1, 1), (6, 1), (1, 2), (6, 2)]);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 2)
            .with_orientation(Orientation::Balanced);
        let tree = SpatialTree::build(&even_vertical, cfg).unwrap();
        tree.check_invariants().unwrap();
        let root_children = tree.node(tree.root()).children;
        let first = root_children.as_slice()[0];
        assert_eq!(tree.node(first).rect, Rect::new(0, 0, 4, 8), "vertical chosen");

        let even_horizontal = db(&[(1, 1), (1, 6), (2, 1), (2, 6)]);
        let tree = SpatialTree::build(&even_horizontal, cfg).unwrap();
        tree.check_invariants().unwrap();
        let first = tree.node(tree.root()).children.as_slice()[0];
        assert_eq!(tree.node(first).rect, Rect::new(0, 0, 8, 4), "horizontal chosen");
    }

    #[test]
    fn balanced_trees_keep_all_invariants_under_moves() {
        use crate::Orientation;
        use lbs_model::Move;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBA1);
        let side = 64i64;
        let points: Vec<(i64, i64)> =
            (0..50).map(|_| (rng.gen_range(0..side), rng.gen_range(0..side))).collect();
        let d = db(&points);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), 3)
            .with_orientation(Orientation::Balanced);
        let mut tree = SpatialTree::build(&d, cfg).unwrap();
        tree.check_invariants().unwrap();
        for round in 0..10 {
            let moves: Vec<Move> = (0..5)
                .map(|i| Move {
                    user: UserId((round * 5 + i) % 50),
                    to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
                })
                .collect();
            tree.apply_moves(&moves).unwrap();
            tree.check_invariants().unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    #[test]
    fn path_to_root_ends_at_root() {
        let db = table1_db();
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 4), 2);
        let tree = SpatialTree::build(&db, cfg).unwrap();
        let leaf = tree.leaf_of_user(UserId(0)).unwrap();
        let path = tree.path_to_root(leaf);
        assert_eq!(path[0], leaf);
        assert_eq!(*path.last().unwrap(), tree.root());
        // Depths strictly decrease to 0.
        for w in path.windows(2) {
            assert_eq!(tree.node(w[0]).parent, Some(w[1]));
        }
        assert_eq!(tree.node(*path.last().unwrap()).depth, 0);
    }

    /// The builder as it stood before the one-buffer build: every split
    /// copies each node's rows into fresh per-child `Vec`s (a row goes to
    /// the first quadrant containing it), and each leaf keeps its rows in
    /// input order. Kept as the reference the in-place build must match.
    fn reference_from_items(items: Vec<(UserId, Point)>, config: TreeConfig) -> SpatialTree {
        let mut tree = SpatialTree {
            config,
            nodes: Vec::new(),
            users: Vec::new(),
            root: NodeId(0),
            user_leaf: OnceLock::new(),
            versions: Vec::new(),
            live: 0,
        };
        tree.root = reference_rec(&mut tree, config.map, 0, items, None);
        tree
    }

    fn reference_rec(
        tree: &mut SpatialTree,
        rect: Rect,
        depth: u16,
        items: Vec<(UserId, Point)>,
        parent: Option<NodeId>,
    ) -> NodeId {
        let id = tree.alloc(rect, depth, parent, items.len());
        if !tree.config.may_split(&rect, depth, items.len()) {
            tree.users[id.index()] = items;
            return id;
        }
        let children = match tree.config.kind {
            TreeKind::Quad => {
                let rects = rect.quadrants();
                let mut buckets: [Vec<(UserId, Point)>; 4] = Default::default();
                for (u, p) in items {
                    let b = rects.iter().position(|r| r.contains(&p)).unwrap();
                    buckets[b].push((u, p));
                }
                let mut ids = [NodeId(0); 4];
                for (i, bucket) in buckets.into_iter().enumerate() {
                    ids[i] = reference_rec(tree, rects[i], depth + 1, bucket, Some(id));
                }
                Children::Four(ids)
            }
            TreeKind::Binary => {
                let axis = tree.choose_binary_axis(&rect, &items);
                let (low, high) = rect.split(axis);
                let (low_items, high_items): (Vec<_>, Vec<_>) =
                    items.into_iter().partition(|(_, p)| low.contains(p));
                let low_id = reference_rec(tree, low, depth + 1, low_items, Some(id));
                let high_id = reference_rec(tree, high, depth + 1, high_items, Some(id));
                Children::Two([low_id, high_id])
            }
        };
        tree.nodes[id.index()].children = children;
        id
    }

    /// `got` has `want`'s arena slot for slot, and each leaf holds the
    /// same users as `want`'s, sorted by id.
    fn assert_same_tree(got: &SpatialTree, want: &SpatialTree, what: &str) {
        assert_same_arena(got, want, what);
        for (slot, (g, w)) in got.users.iter().zip(&want.users).enumerate() {
            let mut sorted = w.clone();
            sorted.sort_unstable_by_key(|&(u, _)| u);
            assert_eq!(g, &sorted, "{what}: users at slot {slot}");
        }
    }

    /// `got` has `want`'s arena slot for slot: rect, depth, parent,
    /// children, count, tombstone and version.
    fn assert_same_arena(got: &SpatialTree, want: &SpatialTree, what: &str) {
        assert_eq!(got.root, want.root, "{what}");
        assert_eq!(got.live, want.live, "{what}");
        assert_eq!(got.nodes.len(), want.nodes.len(), "{what}: arena length");
        for (slot, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            assert_eq!(
                (g.rect, g.depth, g.parent, g.children, g.count, g.detached),
                (w.rect, w.depth, w.parent, w.children, w.count, w.detached),
                "{what}: slot {slot}"
            );
        }
        assert_eq!(got.versions, want.versions, "{what}");
    }

    /// Seeded populations on a `side`-wide map: uniform, clustered around
    /// a few centres, skewed toward the origin corner, and coincident
    /// (most users on one point, so splitting stops only at the depth cap).
    fn populations(seed: u64, n: usize, side: i64) -> Vec<(&'static str, Vec<(UserId, Point)>)> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = |f: &mut dyn FnMut(&mut StdRng) -> (i64, i64), rng: &mut StdRng| {
            (0..n as u64)
                .map(|i| {
                    let (x, y) = f(rng);
                    (UserId(i), Point::new(x.clamp(0, side - 1), y.clamp(0, side - 1)))
                })
                .collect::<Vec<_>>()
        };
        let uniform = rows(&mut |r| (r.gen_range(0..side), r.gen_range(0..side)), &mut rng);
        let centres: Vec<(i64, i64)> =
            (0..4).map(|_| (rng.gen_range(0..side), rng.gen_range(0..side))).collect();
        let spread = side / 32;
        let clustered = rows(
            &mut |r| {
                let (cx, cy) = centres[r.gen_range(0..centres.len())];
                (cx + r.gen_range(-spread..=spread), cy + r.gen_range(-spread..=spread))
            },
            &mut rng,
        );
        let skewed = rows(
            &mut |r| {
                let (a, b): (f64, f64) = (r.gen(), r.gen());
                ((a.powi(4) * side as f64) as i64, (b.powi(4) * side as f64) as i64)
            },
            &mut rng,
        );
        let coincident = rows(
            &mut |r| {
                if r.gen_bool(0.8) {
                    (side / 3, side / 3)
                } else {
                    (r.gen_range(0..side), r.gen_range(0..side))
                }
            },
            &mut rng,
        );
        vec![
            ("uniform", uniform),
            ("clustered", clustered),
            ("skewed", skewed),
            ("coincident", coincident),
        ]
    }

    #[test]
    fn in_place_build_matches_the_copying_reference() {
        use crate::Orientation;
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let side = 256;
        let map = Rect::square(0, 0, side);
        let mut capped = TreeConfig::lazy(TreeKind::Binary, map, 3);
        capped.max_depth = 9;
        let mut capped_quad = TreeConfig::lazy(TreeKind::Quad, map, 3);
        capped_quad.max_depth = 4;
        let configs = [
            ("binary fixed-vertical", TreeConfig::lazy(TreeKind::Binary, map, 5)),
            (
                "binary balanced",
                TreeConfig::lazy(TreeKind::Binary, map, 5).with_orientation(Orientation::Balanced),
            ),
            ("quad", TreeConfig::lazy(TreeKind::Quad, map, 5)),
            ("eager binary", TreeConfig::eager(TreeKind::Binary, map, 7)),
            ("eager quad", TreeConfig::eager(TreeKind::Quad, map, 3)),
            ("binary depth-capped", capped),
            ("quad depth-capped", capped_quad),
        ];
        let mut shuffler = StdRng::seed_from_u64(0x5EED);
        for seed in 0..4u64 {
            for (population, rows) in populations(seed, 150 + 300 * seed as usize, side) {
                for (name, config) in configs {
                    let what = format!("seed {seed} {population} {name}");
                    let want = reference_from_items(rows.clone(), config);
                    want.check_invariants().unwrap();
                    let got = SpatialTree::from_items(rows.clone(), config).unwrap();
                    got.check_invariants().unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_same_tree(&got, &want, &what);
                    let mut shuffled = rows.clone();
                    shuffled.shuffle(&mut shuffler);
                    let got = SpatialTree::from_items(shuffled, config).unwrap();
                    assert_same_tree(&got, &want, &format!("{what} shuffled"));
                }
            }
        }
    }

    #[test]
    fn in_place_partition_splits_at_the_line() {
        let low = Rect::new(0, 0, 4, 8);
        let mut rows: Vec<(UserId, Point)> = [(5, 1), (1, 1), (7, 7), (3, 0), (4, 4), (0, 7)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y)))
            .collect();
        let mid = partition_in_place(&mut rows, &low);
        assert_eq!(mid, 3);
        assert!(rows[..mid].iter().all(|(_, p)| low.contains(p)));
        assert!(rows[mid..].iter().all(|(_, p)| !low.contains(p)));
        assert_eq!(partition_in_place(&mut [], &low), 0);
    }

    #[test]
    fn user_index_is_built_on_first_use_and_carried_by_clones() {
        let db = table1_db();
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 4), 2);
        let tree = SpatialTree::build(&db, cfg).unwrap();
        assert!(tree.user_leaf.get().is_none(), "a build does not index users");
        tree.check_invariants().unwrap();
        assert!(tree.user_leaf.get().is_none(), "check_invariants leaves the tree as it was");

        // A clone taken before the index exists answers on its own.
        let early = tree.clone();
        for (user, point) in db.iter() {
            assert_eq!(early.leaf_of_user(user), early.leaf_containing(&point));
        }
        assert!(early.user_leaf.get().is_some());
        assert!(tree.user_leaf.get().is_none(), "the clone's index is its own");

        // The first lookup on the original builds its index; clones carry it.
        for (user, point) in db.iter() {
            assert_eq!(tree.leaf_of_user(user), tree.leaf_containing(&point));
        }
        assert_eq!(tree.leaf_of_user(UserId(99)), None);
        let late = tree.clone();
        assert_eq!(late.user_leaf.get(), tree.user_leaf.get());
        late.check_invariants().unwrap();
    }

    #[test]
    fn updates_on_a_never_indexed_tree_match_an_indexed_one() {
        use lbs_model::{Move, UserUpdate};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let side = 64i64;
        let mut rng = StdRng::seed_from_u64(0x1DE7);
        let points: Vec<(i64, i64)> =
            (0..60).map(|_| (rng.gen_range(0..side), rng.gen_range(0..side))).collect();
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), 3);
        let mut lazy = SpatialTree::build(&db(&points), cfg).unwrap();
        let mut indexed = lazy.clone();
        assert!(indexed.leaf_of_user(UserId(0)).is_some());
        assert!(lazy.user_leaf.get().is_none());
        // Pile users into one corner (splits), then delete and insert.
        let mut updates: Vec<UserUpdate> = (0..20)
            .map(|u| {
                UserUpdate::Move(Move {
                    user: UserId(u),
                    to: Point::new(rng.gen_range(0..4), rng.gen_range(0..4)),
                })
            })
            .collect();
        updates.extend((40..50).map(|u| UserUpdate::Delete { user: UserId(u) }));
        updates.extend((60..65).map(|u| UserUpdate::Insert {
            user: UserId(u),
            at: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
        }));
        let a = lazy.apply_updates(&updates).unwrap();
        let b = indexed.apply_updates(&updates).unwrap();
        assert!(a.splits >= 1, "the batch must split a leaf");
        assert_eq!((a.splits, a.collapses, &a.dirty), (b.splits, b.collapses, &b.dirty));
        assert_same_arena(&lazy, &indexed, "never indexed vs indexed");
        assert_eq!(lazy.users, indexed.users, "leaf lists in the same order");
        assert_eq!(lazy.user_leaf.get(), indexed.user_leaf.get());
        lazy.check_invariants().unwrap();
        // A rejected batch on a never-indexed tree leaves it intact.
        let mut fresh = SpatialTree::build(&db(&points), cfg).unwrap();
        let bad = [UserUpdate::Delete { user: UserId(999) }];
        assert!(fresh.apply_updates(&bad).is_err());
        fresh.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_checks_index_coherence() {
        let db = table1_db();
        let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 4), 2);
        let tree = SpatialTree::build(&db, cfg).unwrap();
        let leaf = tree.leaf_of_user(UserId(0)).unwrap();
        let other = tree.leaf_of_user(UserId(4)).unwrap();
        assert_ne!(leaf, other);
        let mut stale = tree.clone();
        stale.user_leaf.get_mut().unwrap().insert(UserId(0), other);
        let err = stale.check_invariants().unwrap_err();
        assert!(err.contains("index points elsewhere"), "{err}");
        let mut short = tree.clone();
        short.user_leaf.get_mut().unwrap().insert(UserId(77), leaf);
        let err = short.check_invariants().unwrap_err();
        assert!(err.contains("user index size"), "{err}");
        // Without an index, a user stored in two leaves is caught too.
        let mut twice = SpatialTree::build(&db, cfg).unwrap();
        let row = twice.users[leaf.index()][0];
        twice.users[other.index()].push(row);
        twice.nodes[other.index()].count += 1;
        assert!(twice.check_invariants().is_err());
        tree.check_invariants().unwrap();
    }
}
