//! Incremental restructuring between location-database snapshots.
//!
//! Section IV's incremental maintenance recomputes DP rows "starting only
//! from the quad tree leaves whose quadrants now contain a changed number
//! of locations". This module provides the tree half of that: applying a
//! move batch, keeping `d(m)` counts exact, re-splitting leaves that grew
//! past the materialization threshold, collapsing subtrees that shrank
//! below it, and reporting the dirty node set the DP must revisit.

use crate::{Children, NodeId, SpatialTree};
use lbs_model::{Move, UserUpdate};
use std::collections::{HashMap, HashSet};

/// Outcome of [`SpatialTree::apply_moves`] / [`SpatialTree::apply_updates`].
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Moves applied.
    pub moved: usize,
    /// Users inserted.
    pub inserted: usize,
    /// Users deleted.
    pub deleted: usize,
    /// Leaves split because their population reached the threshold.
    pub splits: usize,
    /// Subtrees collapsed because their population fell below the threshold.
    pub collapses: usize,
    /// Every live node whose count, structure, or stored users changed,
    /// **closed under ancestors** — exactly the rows an incremental DP must
    /// recompute (children of dirty internal nodes may be clean; their rows
    /// are reused).
    pub dirty: HashSet<NodeId>,
    /// Nodes tombstoned by collapses, in collapse order. Their arena
    /// slots are never reused, so anything cached per slot for them can
    /// be released.
    pub detached: Vec<NodeId>,
}

impl SpatialTree {
    /// Applies a batch of user moves, restructures lazily materialized
    /// nodes, and reports the dirty set.
    ///
    /// Validation is all-or-nothing: if any move references an unknown user
    /// or an off-map point, nothing is applied.
    pub fn apply_moves(&mut self, moves: &[Move]) -> Result<UpdateReport, String> {
        let updates: Vec<UserUpdate> = moves.iter().copied().map(UserUpdate::Move).collect();
        self.apply_updates(&updates)
    }

    /// Applies a churn batch (moves, inserts, deletes) in order,
    /// restructures lazily materialized nodes, and reports the dirty set.
    ///
    /// Validation is all-or-nothing and order-aware (a batch may insert a
    /// user and then move it): if any update references a user in the
    /// wrong membership state or an off-map point, nothing is applied.
    pub fn apply_updates(&mut self, updates: &[UserUpdate]) -> Result<UpdateReport, String> {
        let mut overlay: HashMap<lbs_model::UserId, bool> = HashMap::new();
        for up in updates {
            let user = up.user();
            let present =
                overlay.get(&user).copied().unwrap_or_else(|| self.user_leaf.contains_key(&user));
            match *up {
                // Validation messages name the user id only — raw target
                // coordinates must not reach error strings. The ids stay
                // tainted through the (flow-insensitive) update binders,
                // hence the pragmas.
                UserUpdate::Move(m) => {
                    if !present {
                        // lbs-lint: allow(location-taint, reason = "user id only; ids taint through the update binder, the coordinate is not in the message")
                        return Err(format!("unknown user {}", m.user));
                    }
                    if !self.config.map.contains(&m.to) {
                        // lbs-lint: allow(location-taint, reason = "user id only; ids taint through the update binder, the coordinate was removed")
                        return Err(format!("user {} target is off the map", m.user));
                    }
                }
                UserUpdate::Insert { at, .. } => {
                    if present {
                        // lbs-lint: allow(location-taint, reason = "user id only; ids taint through the update binder, the coordinate is not in the message")
                        return Err(format!("duplicate user {user}"));
                    }
                    if !self.config.map.contains(&at) {
                        // lbs-lint: allow(location-taint, reason = "user id only; ids taint through the update binder, the coordinate was removed")
                        return Err(format!("user {user} target is off the map"));
                    }
                    overlay.insert(user, true);
                }
                UserUpdate::Delete { .. } => {
                    if !present {
                        // lbs-lint: allow(location-taint, reason = "user id only; ids taint through the update binder, the coordinate is not in the message")
                        return Err(format!("unknown user {user}"));
                    }
                    overlay.insert(user, false);
                }
            }
        }

        let mut report = UpdateReport::default();
        for up in updates {
            match *up {
                UserUpdate::Move(m) => {
                    let old_leaf = self.detach_user(m.user);
                    let new_leaf = self.attach_user(m.user, m.to);
                    report.moved += 1;
                    self.mark_path_dirty(old_leaf, &mut report.dirty);
                    self.mark_path_dirty(new_leaf, &mut report.dirty);
                }
                UserUpdate::Insert { user, at } => {
                    let leaf = self.attach_user(user, at);
                    report.inserted += 1;
                    self.mark_path_dirty(leaf, &mut report.dirty);
                }
                UserUpdate::Delete { user } => {
                    let leaf = self.detach_user(user);
                    report.deleted += 1;
                    self.mark_path_dirty(leaf, &mut report.dirty);
                }
            }
        }

        self.collapse_pass(&mut report);
        self.split_pass(&mut report);
        // Every dirtied node advances its version, invalidating any cached
        // derivation (DP cost vectors) of its pre-update row. Tombstoned
        // ids that linger in the dirty set advance too — harmless, they are
        // never read again.
        for &id in &report.dirty {
            self.versions[id.index()] += 1;
        }
        Ok(report)
    }

    fn mark_path_dirty(&self, from: NodeId, dirty: &mut HashSet<NodeId>) {
        let mut cur = Some(from);
        while let Some(id) = cur {
            if !dirty.insert(id) {
                break; // ancestors already marked by an earlier move
            }
            cur = self.nodes[id.index()].parent;
        }
    }

    /// Removes `user` from its leaf and decrements counts up to the root.
    fn detach_user(&mut self, user: lbs_model::UserId) -> NodeId {
        // lbs-lint: allow(no-unwrap-in-lib, reason = "apply_updates validates every update's user against the index before any mutation")
        let leaf = self.user_leaf.remove(&user).expect("validated before application");
        let list = &mut self.users[leaf.index()];
        // lbs-lint: allow(no-unwrap-in-lib, reason = "user_leaf and the per-leaf user lists are updated in lockstep, so membership agrees")
        let pos =
            list.iter().position(|&(u, _)| u == user).expect("user index and leaf list agree");
        list.swap_remove(pos);
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            self.nodes[id.index()].count -= 1;
            cur = self.nodes[id.index()].parent;
        }
        leaf
    }

    /// Adds `user` at `p` to the current leaf containing `p` and increments
    /// counts up to the root.
    fn attach_user(&mut self, user: lbs_model::UserId, p: lbs_geom::Point) -> NodeId {
        // lbs-lint: allow(no-unwrap-in-lib, reason = "apply_updates rejects off-map destinations before any mutation, so a containing leaf exists")
        let leaf = self.leaf_containing(&p).expect("validated to be on the map");
        self.users[leaf.index()].push((user, p));
        self.user_leaf.insert(user, leaf);
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            self.nodes[id.index()].count += 1;
            cur = self.nodes[id.index()].parent;
        }
        leaf
    }

    /// Collapses every highest internal node whose population fell below
    /// the split threshold. Only dirty nodes can qualify, so the scan walks
    /// the dirty set top-down rather than the whole tree.
    fn collapse_pass(&mut self, report: &mut UpdateReport) {
        if self.config.split_threshold == 0 {
            return; // eager trees never restructure
        }
        let mut candidates: Vec<NodeId> = report
            .dirty
            .iter()
            .copied()
            .filter(|&id| {
                let n = &self.nodes[id.index()];
                !n.detached && !n.is_leaf() && n.count < self.config.split_threshold
            })
            .collect();
        // Shallowest first, so a collapsed ancestor disposes of its
        // descendants before they are considered; arena index breaks
        // depth ties so the pass order never inherits hash order from
        // the dirty set.
        candidates.sort_unstable_by_key(|&id| (self.nodes[id.index()].depth, id.index()));
        for id in candidates {
            let n = &self.nodes[id.index()];
            if n.detached || n.is_leaf() {
                continue; // already handled by an ancestor's collapse
            }
            self.collapse_subtree(id, &mut report.detached);
            report.collapses += 1;
            report.dirty.insert(id);
        }
    }

    /// Turns internal node `id` into a leaf holding its subtree's users,
    /// tombstoning all descendants (appended to `detached`).
    fn collapse_subtree(&mut self, id: NodeId, detached: &mut Vec<NodeId>) {
        let mut gathered = Vec::with_capacity(self.nodes[id.index()].count);
        let mut stack: Vec<NodeId> = self.nodes[id.index()].children.as_slice().to_vec();
        while let Some(cur) = stack.pop() {
            stack.extend_from_slice(self.nodes[cur.index()].children.as_slice());
            self.nodes[cur.index()].detached = true;
            self.nodes[cur.index()].children = Children::None;
            self.live -= 1;
            detached.push(cur);
            gathered.append(&mut self.users[cur.index()]);
        }
        for &(u, _) in &gathered {
            self.user_leaf.insert(u, id);
        }
        debug_assert_eq!(gathered.len(), self.nodes[id.index()].count);
        self.users[id.index()] = gathered;
        self.nodes[id.index()].children = Children::None;
    }

    /// Splits every dirty leaf that grew past the materialization limit,
    /// recursively (a split child may itself qualify; `build_rec` handles
    /// that).
    fn split_pass(&mut self, report: &mut UpdateReport) {
        let mut candidates: Vec<NodeId> = report
            .dirty
            .iter()
            .copied()
            .filter(|&id| {
                let n = &self.nodes[id.index()];
                !n.detached && n.is_leaf() && self.config.may_split(&n.rect, n.depth, n.count)
            })
            .collect();
        // Arena order, not hash order: each split allocates fresh arena
        // slots, so a deterministic candidate order keeps the
        // materialized layout a pure function of (pre-state, batch) —
        // the byte-identity contract of the batched refresh depends on
        // it (tests/incremental_batch.rs).
        candidates.sort_unstable_by_key(|id| id.index());
        for id in candidates {
            let items = std::mem::take(&mut self.users[id.index()]);
            let children = self.split_node(id, items);
            self.nodes[id.index()].children = children;
            report.splits += 1;
            // New descendants are dirty: the DP has no rows for them yet.
            let mut stack: Vec<NodeId> = children.as_slice().to_vec();
            while let Some(cur) = stack.pop() {
                report.dirty.insert(cur);
                stack.extend_from_slice(self.nodes[cur.index()].children.as_slice());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TreeConfig, TreeKind};
    use lbs_geom::{Point, Rect};
    use lbs_model::{LocationDb, Move, UserId};
    use std::collections::HashSet as Set;

    fn db(points: &[(i64, i64)]) -> LocationDb {
        LocationDb::from_rows(
            points.iter().enumerate().map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    }

    fn rect_set(tree: &SpatialTree) -> Set<(Rect, bool)> {
        tree.postorder()
            .into_iter()
            .map(|id| (tree.node(id).rect, tree.node(id).is_leaf()))
            .collect()
    }

    #[test]
    fn moves_update_counts_and_index() {
        let db = db(&[(1, 1), (1, 2), (5, 5), (6, 6)]);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 2);
        let mut tree = SpatialTree::build(&db, cfg).unwrap();
        let report = tree.apply_moves(&[Move { user: UserId(0), to: Point::new(7, 7) }]).unwrap();
        assert_eq!(report.moved, 1);
        tree.check_invariants().unwrap();
        assert_eq!(tree.count(tree.root()), 4);
        let leaf = tree.leaf_of_user(UserId(0)).unwrap();
        assert!(tree.node(leaf).rect.contains(&Point::new(7, 7)));
    }

    #[test]
    fn invalid_moves_are_atomic() {
        let db = db(&[(1, 1), (2, 2)]);
        let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 8), 2);
        let mut tree = SpatialTree::build(&db, cfg).unwrap();
        let before = rect_set(&tree);
        let bad = [
            Move { user: UserId(0), to: Point::new(3, 3) },
            Move { user: UserId(9), to: Point::new(1, 1) },
        ];
        assert!(tree.apply_moves(&bad).is_err());
        assert_eq!(rect_set(&tree), before);
        assert!(tree.leaf_of_user(UserId(0)).is_some());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn growth_triggers_split() {
        // Start: 2 users in the west, 1 in the east; threshold 2.
        let db = db(&[(1, 1), (1, 6), (6, 6)]);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 2);
        let mut tree = SpatialTree::build(&db, cfg).unwrap();
        // Move the two west users into the east; east leaf now holds 3 >= 2.
        let report = tree
            .apply_moves(&[
                Move { user: UserId(0), to: Point::new(5, 1) },
                Move { user: UserId(1), to: Point::new(7, 2) },
            ])
            .unwrap();
        assert!(report.splits >= 1, "east side must re-split");
        tree.check_invariants().unwrap();
        // Result must equal a fresh build on the moved database.
        let moved = db_after(&db, &[(0, (5, 1)), (1, (7, 2))]);
        let fresh = SpatialTree::build(&moved, cfg).unwrap();
        assert_eq!(rect_set(&tree), rect_set(&fresh));
    }

    #[test]
    fn shrink_triggers_collapse() {
        // Cluster of 4 in the west forces deep structure; then scatter them east.
        let db = db(&[(1, 1), (1, 2), (2, 1), (2, 2), (6, 6)]);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 2);
        let mut tree = SpatialTree::build(&db, cfg).unwrap();
        let report = tree
            .apply_moves(&[
                Move { user: UserId(0), to: Point::new(5, 5) },
                Move { user: UserId(1), to: Point::new(6, 5) },
                Move { user: UserId(2), to: Point::new(5, 6) },
            ])
            .unwrap();
        assert!(report.collapses >= 1, "west side must collapse");
        tree.check_invariants().unwrap();
        let moved = db_after(&db, &[(0, (5, 5)), (1, (6, 5)), (2, (5, 6))]);
        let fresh = SpatialTree::build(&moved, cfg).unwrap();
        assert_eq!(rect_set(&tree), rect_set(&fresh));
    }

    #[test]
    fn dirty_set_is_ancestor_closed() {
        let db = db(&[(1, 1), (1, 2), (5, 5), (6, 6), (7, 1), (1, 7)]);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 2);
        let mut tree = SpatialTree::build(&db, cfg).unwrap();
        let report = tree.apply_moves(&[Move { user: UserId(4), to: Point::new(2, 2) }]).unwrap();
        for &id in &report.dirty {
            if tree.node(id).detached {
                continue;
            }
            if let Some(parent) = tree.node(id).parent {
                assert!(report.dirty.contains(&parent), "parent of dirty {id} must be dirty");
            }
        }
        assert!(report.dirty.contains(&tree.root()));
    }

    #[test]
    fn randomized_incremental_equals_fresh_build() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let side = 64;
        let points: Vec<(i64, i64)> =
            (0..40).map(|_| (rng.gen_range(0..side), rng.gen_range(0..side))).collect();
        let mut reference = db(&points);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), 3);
        let mut tree = SpatialTree::build(&reference, cfg).unwrap();
        for round in 0..25 {
            let moves: Vec<Move> = (0..8)
                .map(|_| Move {
                    user: UserId(rng.gen_range(0..40u64)),
                    to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
                })
                .collect();
            // Deduplicate users within the batch (last write wins) to keep
            // the reference application unambiguous.
            let mut seen = Set::new();
            let moves: Vec<Move> =
                moves.into_iter().rev().filter(|m| seen.insert(m.user)).collect();
            reference.apply_moves(&moves).unwrap();
            tree.apply_moves(&moves).unwrap();
            tree.check_invariants().unwrap_or_else(|e| panic!("round {round}: {e}"));
            let fresh = SpatialTree::build(&reference, cfg).unwrap();
            assert_eq!(rect_set(&tree), rect_set(&fresh), "round {round}");
        }
    }

    #[test]
    fn churn_batches_match_fresh_builds() {
        use lbs_model::UserUpdate;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let side = 64;
        let points: Vec<(i64, i64)> =
            (0..30).map(|_| (rng.gen_range(0..side), rng.gen_range(0..side))).collect();
        let mut reference = db(&points);
        let mut next_id = 30u64;
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, side), 3);
        let mut tree = SpatialTree::build(&reference, cfg).unwrap();
        for round in 0..20 {
            let mut updates = Vec::new();
            // A few moves of existing users.
            let ids: Vec<_> = reference.users().collect();
            for _ in 0..3 {
                let user = ids[rng.gen_range(0..ids.len())];
                if updates.iter().any(|u: &UserUpdate| u.user() == user) {
                    continue;
                }
                updates.push(UserUpdate::Move(Move {
                    user,
                    to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
                }));
            }
            // One insert, and one delete of a user not otherwise touched.
            updates.push(UserUpdate::Insert {
                user: UserId(next_id),
                at: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            });
            next_id += 1;
            if let Some(&victim) = ids.iter().find(|u| !updates.iter().any(|up| up.user() == **u)) {
                updates.push(UserUpdate::Delete { user: victim });
            }

            reference.apply_updates(&updates).unwrap();
            let report = tree.apply_updates(&updates).unwrap();
            assert!(report.inserted >= 1, "round {round}");
            tree.check_invariants().unwrap_or_else(|e| panic!("round {round}: {e}"));
            let fresh = SpatialTree::build(&reference, cfg).unwrap();
            assert_eq!(rect_set(&tree), rect_set(&fresh), "round {round}");
            assert_eq!(tree.count(tree.root()), reference.len(), "round {round}");
        }
    }

    #[test]
    fn invalid_churn_batches_are_atomic() {
        use lbs_model::UserUpdate;
        let db = db(&[(1, 1), (2, 2), (6, 6)]);
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 2);
        let mut tree = SpatialTree::build(&db, cfg).unwrap();
        let before = rect_set(&tree);
        // Insert of an existing user.
        let dup = [UserUpdate::Insert { user: UserId(0), at: Point::new(3, 3) }];
        assert!(tree.apply_updates(&dup).is_err());
        // Delete then move of the same (now absent) user.
        let gone = [
            UserUpdate::Delete { user: UserId(1) },
            UserUpdate::Move(Move { user: UserId(1), to: Point::new(4, 4) }),
        ];
        assert!(tree.apply_updates(&gone).is_err());
        // Off-map insert.
        let off = [UserUpdate::Insert { user: UserId(9), at: Point::new(99, 99) }];
        assert!(tree.apply_updates(&off).is_err());
        assert_eq!(rect_set(&tree), before, "no partial application");
        assert!(tree.leaf_of_user(UserId(1)).is_some());
        tree.check_invariants().unwrap();
    }

    fn db_after(base: &LocationDb, moves: &[(u64, (i64, i64))]) -> LocationDb {
        let mut out = base.clone();
        let moves: Vec<Move> = moves
            .iter()
            .map(|&(u, (x, y))| Move { user: UserId(u), to: Point::new(x, y) })
            .collect();
        out.apply_moves(&moves).unwrap();
        out
    }
}
