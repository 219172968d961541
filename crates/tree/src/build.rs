//! Tree construction and queries.

use crate::{Children, Node, NodeId, TreeConfig, TreeKind};
use lbs_geom::{Point, Rect};
use lbs_model::{LocationDb, UserId};
use std::collections::HashMap;

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
    /// Which leaf currently stores each user.
    pub(crate) user_leaf: HashMap<UserId, NodeId>,
    /// Per-node modification counters, bumped whenever a node lands in an
    /// update's dirty set. Subtree caches (the incremental DP's cost-vector
    /// memo) key their entries on these, so a stale entry can never be
    /// mistaken for a current one.
    pub(crate) versions: Vec<u64>,
    /// Live (attached) node count, maintained by alloc/collapse so
    /// [`SpatialTree::live_len`] is O(1).
    pub(crate) live: usize,
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
    /// rows, or any sub-slice of them); the row order does not affect
    /// the tree's shape.
    ///
    /// # Errors
    /// Fails when the config is invalid or a location falls off the map.
    pub fn from_items(items: Vec<(UserId, Point)>, config: TreeConfig) -> Result<Self, String> {
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
            user_leaf: HashMap::with_capacity(items.len()),
            versions: Vec::new(),
            live: 0,
        };
        let root = tree.build_rec(config.map, 0, items, None);
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

    // lbs-lint: allow-item(panic-reachability, reason = "id was just handed out by alloc, so nodes[id.index()] and users[id.index()] are in bounds by construction")
    pub(crate) fn build_rec(
        &mut self,
        rect: Rect,
        depth: u16,
        items: Vec<(UserId, Point)>,
        parent: Option<NodeId>,
    ) -> NodeId {
        let id = self.alloc(rect, depth, parent, items.len());
        if self.config.may_split(&rect, depth, items.len()) {
            let children = self.split_node(id, items);
            self.nodes[id.index()].children = children;
        } else {
            for &(u, _) in &items {
                self.user_leaf.insert(u, id);
            }
            self.users[id.index()] = items;
        }
        id
    }

    /// Splits `id` into children, distributing `items`. Does not link the
    /// children into `id`; the caller does (so `build_rec` and incremental
    /// splitting share this).
    // lbs-lint: allow-item(panic-reachability, reason = "id is a live arena slot owned by this tree; bucket index b comes from position() over the 4 quadrant rects, so buckets[b], ids[i], and rects[i] all stay within the fixed-size arrays")
    pub(crate) fn split_node(&mut self, id: NodeId, items: Vec<(UserId, Point)>) -> Children {
        let rect = self.nodes[id.index()].rect;
        let depth = self.nodes[id.index()].depth;
        match self.config.kind {
            TreeKind::Quad => {
                let rects = rect.quadrants();
                let mut buckets: [Vec<(UserId, Point)>; 4] = Default::default();
                for (u, p) in items {
                    #[expect(
                        clippy::expect_used,
                        reason = "half-open quadrants partition the parent rect, and every item was in the parent"
                    )]
                    let b = rects
                        .iter()
                        .position(|r| r.contains(&p))
                        .expect("point must fall in exactly one quadrant");
                    buckets[b].push((u, p));
                }
                let mut ids = [NodeId(0); 4];
                for (i, bucket) in buckets.into_iter().enumerate() {
                    ids[i] = self.build_rec(rects[i], depth + 1, bucket, Some(id));
                }
                Children::Four(ids)
            }
            TreeKind::Binary => {
                let axis = self.choose_binary_axis(&rect, &items);
                let (low, high) = rect.split(axis);
                let mut low_items = Vec::new();
                let mut high_items = Vec::new();
                for (u, p) in items {
                    if low.contains(&p) {
                        low_items.push((u, p));
                    } else {
                        debug_assert!(high.contains(&p));
                        high_items.push((u, p));
                    }
                }
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
    /// appears in an [`crate::UpdateReport::dirty`] set. Cache entries
    /// derived from `id`'s DP row are valid exactly while the version they
    /// were recorded under still matches.
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

    /// The leaf currently storing `user`.
    pub fn leaf_of_user(&self, user: UserId) -> Option<NodeId> {
        self.user_leaf.get(&user).copied()
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
    /// user-leaf index coherence). Test/debug aid; O(|tree| + |D|).
    pub fn check_invariants(&self) -> Result<(), String> {
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
                        if self.user_leaf.get(u) != Some(&id) {
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
        if self.user_leaf.len() != self.count(self.root) {
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
}
