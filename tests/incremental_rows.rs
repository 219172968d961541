//! Row-identity oracle for the incremental refresh.
//!
//! A refresh visits every node whose membership changed, but recomputes
//! a row only when one of its inputs changed: the node has no row, was
//! split or collapsed, holds a count other than the row's `d`, or has a
//! child whose `d` or cost column changed (DESIGN.md §13). Every other
//! visited row is kept as it is. The oracle: after every completed
//! refresh, every live row (`d`, cost column and split column) equals
//! the row a from-scratch `Bulk_dp` computes over the same tree.
//!
//! Seeded churn on binary and quad trees mixes moves inside one leaf,
//! moves out and back (within one batch and across two), inserts,
//! deletes, piles that split leaves and scatters that collapse them, and
//! rounds that only move one user between two sibling leaves below k:
//! both cost columns are empty before and after, so only the children's
//! `d` tells the parent its row changed. Each sequence is refreshed in
//! one go, and in slices of two and of three polls cut short by
//! cancellation and resumed.

use lbs_core::{bulk_dp_fast, bulk_dp_fast_quad, IncrementalReport};
use lbs_model::UserUpdate;
use lbs_tree::NodeId;
use policy_aware_lbs::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;
use std::collections::HashSet;

const SIDE: i64 = 128;
const USERS: u64 = 240;
const ROUNDS: usize = 18;

fn random_point(rng: &mut StdRng, rect: &Rect) -> Point {
    Point::new(rng.gen_range(rect.x0..rect.x1), rng.gen_range(rect.y0..rect.y1))
}

/// Every live row of `inc` equals the row a fresh `Bulk_dp` over the
/// maintained tree computes.
fn assert_rows_match_bulk(inc: &IncrementalAnonymizer, kind: TreeKind, context: &str) {
    let tree = inc.tree();
    let fresh = match kind {
        TreeKind::Binary => bulk_dp_fast(tree, inc.k()),
        TreeKind::Quad => bulk_dp_fast_quad(tree, inc.k()),
    }
    .unwrap();
    for id in tree.postorder() {
        assert_eq!(inc.matrix().row(id), fresh.row(id), "{context}: node {id}");
    }
}

/// Refreshes every pending row. With `slice`, each attempt is cancelled
/// after a budget of polls that grows by `slice` per attempt, so the
/// refresh resumes from partial progress several times before it
/// completes.
fn refresh(inc: &mut IncrementalAnonymizer, slice: Option<usize>) -> IncrementalReport {
    let Some(slice) = slice else {
        return inc.refresh().unwrap();
    };
    for attempt in 1.. {
        let budget = Cell::new(slice * attempt);
        let cancel = || match budget.get().checked_sub(1) {
            Some(left) => {
                budget.set(left);
                false
            }
            None => true,
        };
        let pending = inc.pending_rows();
        match inc.refresh_cancellable(&cancel) {
            Ok(report) => return report,
            Err(CoreError::Cancelled) => {
                // The rows retired before the cut are not counted by a
                // cancelled refresh; what is left pending shows progress.
                assert!(inc.pending_rows() <= pending);
            }
            Err(e) => panic!("refresh failed: {e}"),
        }
    }
    unreachable!("the budget grows until a refresh completes")
}

/// A binary or quad internal node's two leaf children `(from, to)` below
/// k, where moving one user from `from` to `to` keeps `to` below k.
fn sibling_leaves_below_k(tree: &SpatialTree, k: usize) -> Option<(NodeId, NodeId)> {
    tree.postorder().into_iter().find_map(|id| {
        let leaves: Vec<NodeId> = tree
            .node(id)
            .children
            .as_slice()
            .iter()
            .copied()
            .filter(|&c| tree.node(c).is_leaf())
            .collect();
        let from = leaves.iter().copied().find(|&c| tree.count(c) >= 1)?;
        let to = leaves.iter().copied().find(|&c| c != from && tree.count(c) + 1 < k)?;
        Some((from, to))
    })
}

/// Seeded churn over a live population, mirrored in a [`LocationDb`].
struct Churn {
    rng: StdRng,
    db: LocationDb,
    next_id: u64,
    /// Users sent away last round, with the point they come back to.
    away: Vec<(UserId, Point)>,
    /// Users piled into one corner to force splits, scattered later.
    piled: Vec<UserId>,
}

impl Churn {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let map = Rect::square(0, 0, SIDE);
        let db = LocationDb::from_rows(
            (0..USERS).map(|i| (UserId(i), random_point(&mut rng, &map))).collect::<Vec<_>>(),
        )
        .unwrap();
        Churn { rng, db, next_id: USERS, away: Vec::new(), piled: Vec::new() }
    }

    /// A user not yet touched by this batch.
    fn pick(&mut self, used: &mut HashSet<UserId>) -> UserId {
        let users: Vec<UserId> = self.db.users().filter(|u| !used.contains(u)).collect();
        let user = users[self.rng.gen_range(0..users.len())];
        used.insert(user);
        user
    }

    /// One mixed batch: moves inside a leaf, out-and-back moves, returns
    /// of last round's travellers, inserts and deletes, and every few
    /// rounds a pile into one corner (splits) or its scatter (collapses).
    fn batch(&mut self, tree: &SpatialTree, round: usize, k: usize) -> Vec<UserUpdate> {
        let map = Rect::square(0, 0, SIDE);
        let mut used: HashSet<UserId> =
            self.piled.iter().chain(self.away.iter().map(|(user, _)| user)).copied().collect();
        let mut batch = Vec::new();
        for _ in 0..4 {
            let user = self.pick(&mut used);
            let leaf = tree.node(tree.leaf_of_user(user).unwrap()).rect;
            batch.push(UserUpdate::Move(Move { user, to: random_point(&mut self.rng, &leaf) }));
        }
        for _ in 0..2 {
            let user = self.pick(&mut used);
            let home = self.db.location(user).unwrap();
            let to = random_point(&mut self.rng, &map);
            batch.push(UserUpdate::Move(Move { user, to }));
            batch.push(UserUpdate::Move(Move { user, to: home }));
        }
        for (user, home) in std::mem::take(&mut self.away) {
            batch.push(UserUpdate::Move(Move { user, to: home }));
        }
        for _ in 0..2 {
            let user = self.pick(&mut used);
            self.away.push((user, self.db.location(user).unwrap()));
            batch.push(UserUpdate::Move(Move { user, to: random_point(&mut self.rng, &map) }));
        }
        for _ in 0..2 {
            let user = UserId(self.next_id);
            self.next_id += 1;
            used.insert(user);
            batch.push(UserUpdate::Insert { user, at: random_point(&mut self.rng, &map) });
        }
        for _ in 0..2 {
            let user = self.pick(&mut used);
            batch.push(UserUpdate::Delete { user });
        }
        match round % 4 {
            1 => {
                let corner =
                    Point::new(self.rng.gen_range(0..SIDE - 4), self.rng.gen_range(0..SIDE - 4));
                let pile = Rect::new(corner.x, corner.y, corner.x + 4, corner.y + 4);
                for _ in 0..2 * k {
                    let user = self.pick(&mut used);
                    self.piled.push(user);
                    batch.push(UserUpdate::Move(Move {
                        user,
                        to: random_point(&mut self.rng, &pile),
                    }));
                }
            }
            3 => {
                for user in std::mem::take(&mut self.piled) {
                    batch.push(UserUpdate::Move(Move {
                        user,
                        to: random_point(&mut self.rng, &map),
                    }));
                }
            }
            _ => {}
        }
        self.db.apply_updates(&batch).unwrap();
        batch
    }

    /// One move between two sibling leaves below k, if the tree has such
    /// a pair.
    fn exchange(&mut self, tree: &SpatialTree, k: usize) -> Option<Vec<UserUpdate>> {
        let (from, to) = sibling_leaves_below_k(tree, k)?;
        let user = tree.leaf_users(from).first()?.0;
        let batch = vec![UserUpdate::Move(Move {
            user,
            to: random_point(&mut self.rng, &tree.node(to).rect),
        })];
        self.db.apply_updates(&batch).unwrap();
        Some(batch)
    }
}

/// Runs one seeded churn sequence under one refresh mode and checks every
/// row after every refresh. Returns the summed refresh work and the
/// number of sibling exchanges.
fn run(kind: TreeKind, k: usize, seed: u64, slice: Option<usize>) -> (IncrementalReport, usize) {
    let mut churn = Churn::new(seed);
    let cfg = TreeConfig::lazy(kind, Rect::square(0, 0, SIDE), k);
    let mut inc = IncrementalAnonymizer::new(&churn.db, cfg, k).unwrap();
    let mut total = IncrementalReport::default();
    let mut exchanges = 0;
    for round in 0..ROUNDS {
        let context = format!("{kind:?} k={k} seed={seed} slice={slice:?} round {round}");
        if round % 3 == 2 {
            let Some(batch) = churn.exchange(inc.tree(), k) else { continue };
            inc.stage_updates(&batch).unwrap();
            exchanges += 1;
        } else {
            let batch = churn.batch(inc.tree(), round, k);
            inc.stage_updates(&batch).unwrap();
            if round % 3 == 1 {
                // A second staged batch before the refresh: moves inside
                // their leaves only, which dirty nothing.
                let mut used = HashSet::new();
                let inside: Vec<UserUpdate> = (0..3)
                    .map(|_| {
                        let user = churn.pick(&mut used);
                        let leaf = inc.tree().node(inc.tree().leaf_of_user(user).unwrap()).rect;
                        UserUpdate::Move(Move { user, to: random_point(&mut churn.rng, &leaf) })
                    })
                    .collect();
                churn.db.apply_updates(&inside).unwrap();
                let pending = inc.pending_rows();
                inc.stage_updates(&inside).unwrap();
                assert_eq!(
                    inc.pending_rows(),
                    pending,
                    "{context}: moves inside a leaf dirty nothing"
                );
            }
        }
        let report = refresh(&mut inc, slice);
        total.rows_recomputed += report.rows_recomputed;
        total.rows_kept += report.rows_kept;
        inc.tree().check_invariants().unwrap();
        assert_eq!(inc.tree().count(inc.tree().root()), churn.db.len(), "{context}");
        assert_rows_match_bulk(&inc, kind, &context);
    }
    (total, exchanges)
}

#[test]
fn every_kept_and_recomputed_row_equals_a_fresh_bulk_row() {
    for kind in [TreeKind::Binary, TreeKind::Quad] {
        for (k, seed) in [(3usize, 0x0D1u64), (6, 0x0D2)] {
            let (whole, exchanges) = run(kind, k, seed, None);
            assert!(exchanges >= ROUNDS / 3 - 1, "{kind:?} k={k}: {exchanges} exchanges");
            assert!(whole.rows_kept > 0, "{kind:?} k={k}: {whole:?}");
            run(kind, k, seed, Some(2));
            run(kind, k, seed, Some(3));
        }
    }
}
