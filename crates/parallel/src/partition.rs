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
//!
//! The greedy loop asks in its own order — most populous first, the last
//! cell on ties — and stops at the first splittable cell, so a cell the
//! loop never reaches (a final jurisdiction, say) is never scanned. When
//! it does reach an unscanned cell it also scans the next unscanned one in
//! that order. The two most populous pending cells hold disjoint ranges,
//! so with two or more workers they are partitioned at once, each thread
//! reading half their rows: the caller the front of the larger cell, a
//! scoped thread the rest of it and then the smaller cell, and one block
//! swap joins the larger cell's two pieces. Which cells are scanned
//! depends on the users alone, never on the worker count;
//! [`Counter::PartitionRows`] counts the rows those scans read. The order
//! of users inside a range may differ between worker counts, the set
//! never does, and a jurisdiction's server sorts each leaf by id.

use lbs_geom::{Point, Rect};
use lbs_metrics::{Counter, Metrics};
use lbs_model::UserId;
use lbs_tree::{partition_in_place, TreeConfig, TreeKind};
use std::cmp::Reverse;
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

/// Where splitting a cell would put its users.
#[derive(Debug, Clone, Copy)]
enum Split {
    /// The lazy tree splits this node, but its range is not scanned yet.
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
    /// A cell whose split needs no scan to rule out: a node the lazy tree
    /// keeps a leaf starts [`Split::Leaf`], any other [`Split::Pending`].
    fn new(rect: Rect, depth: u16, users: Range<usize>, config: &TreeConfig) -> Self {
        let split =
            if config.may_split(&rect, depth, users.len()) { Split::Pending } else { Split::Leaf };
        Cell { rect, depth, users, split }
    }

    fn is_pending(&self) -> bool {
        matches!(self.split, Split::Pending)
    }

    /// The low and high child rects, in the lazy binary tree's order.
    fn child_rects(&self) -> (Rect, Rect) {
        self.rect.split(self.rect.binary_split_axis())
    }

    /// The greedy rule: `Some(split point)` for an internal node whose
    /// children each hold 0 or ≥ k users.
    fn splittable(&self, k: usize) -> Option<usize> {
        let Split::At(mid) = self.split else { return None };
        let ok = |n: usize| n == 0 || n >= k;
        (ok(mid - self.users.start) && ok(self.users.end - mid)).then_some(mid)
    }

    /// The low and high children of a scanned internal cell.
    fn children(&self, mid: usize, config: &TreeConfig) -> [Cell; 2] {
        let (low, high) = self.child_rects();
        let depth = self.depth + 1;
        [
            Cell::new(low, depth, self.users.start..mid, config),
            Cell::new(high, depth, mid..self.users.end, config),
        ]
    }
}

/// Runs `a` and `b`, at once when `workers` ≥ 2: `b` on a scoped thread,
/// `a` on the caller. A panic in `b` is re-raised on the caller.
pub(crate) fn join<A, B: Send>(
    workers: usize,
    a: impl FnOnce() -> A,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    if workers < 2 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(b);
        let a = a();
        match handle.join() {
            Ok(b) => (a, b),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// The disjoint ranges `a` and `b` of `rows`, mutably at once.
fn two_ranges<T>(rows: &mut [T], a: Range<usize>, b: Range<usize>) -> (&mut [T], &mut [T]) {
    if a.start > b.start {
        let (b, a) = two_ranges(rows, b, a);
        return (a, b);
    }
    let (head, tail) = rows.split_at_mut_checked(b.start).unwrap_or_default();
    (head.get_mut(a).unwrap_or_default(), tail.get_mut(..b.len()).unwrap_or_default())
}

/// [`partition_in_place`] of `big` around `big_low` and of `small` around
/// `small_low`, returning both split points. With `workers` ≥ 2 each
/// thread reads half the rows: the caller partitions the front of `big`,
/// a scoped thread the rest of `big` and then `small`, and one block swap
/// joins `big`'s two pieces.
fn partition_balanced(
    big: &mut [(UserId, Point)],
    big_low: &Rect,
    small: &mut [(UserId, Point)],
    small_low: &Rect,
    workers: usize,
) -> (usize, usize) {
    if workers < 2 {
        return (partition_in_place(big, big_low), partition_in_place(small, small_low));
    }
    let cut = ((big.len() + small.len()) / 2).min(big.len());
    let (front, back) = big.split_at_mut(cut);
    let (front_mid, (back_mid, small_mid)) = join(
        workers,
        || partition_in_place(front, big_low),
        || (partition_in_place(back, big_low), partition_in_place(small, small_low)),
    );
    // `big` is now [front low | front high | back low | back high]: swap
    // the shorter of the middle two blocks with the far end of the other.
    let moved = (front.len() - front_mid).min(back_mid);
    if let (Some(high), Some(low)) =
        (front.get_mut(front_mid..front_mid + moved), back.get_mut(back_mid - moved..back_mid))
    {
        high.swap_with_slice(low);
    }
    (front_mid + back_mid, small_mid)
}

/// Partitions the ranges of the pending cells at `big` and `small` (the
/// two most populous, so disjoint; `small` may be absent) in place around
/// their split lines, at once when `workers` allows, and records where
/// each split. Returns the rows scanned.
fn scan(
    cells: &mut [Cell],
    big: usize,
    small: Option<usize>,
    users: &mut [(UserId, Point)],
    workers: usize,
) -> u64 {
    // (position, range, low child rect) of each cell.
    let jobs: Vec<(usize, Range<usize>, Rect)> = std::iter::once(big)
        .chain(small)
        .filter_map(|pos| {
            cells.get(pos).map(|cell| (pos, cell.users.clone(), cell.child_rects().0))
        })
        .collect();
    let mids = match jobs.as_slice() {
        [(_, range, low)] => {
            let rows = users.get_mut(range.clone()).unwrap_or_default();
            let (mid, _) = partition_balanced(rows, low, &mut [], low, workers);
            vec![mid]
        }
        [(_, big, big_low), (_, small, small_low)] => {
            let (big, small) = two_ranges(users, big.clone(), small.clone());
            let (big_mid, small_mid) = partition_balanced(big, big_low, small, small_low, workers);
            vec![big_mid, small_mid]
        }
        _ => Vec::new(),
    };
    let mut rows = 0;
    for ((pos, range, _), mid) in jobs.into_iter().zip(mids) {
        rows += range.len() as u64;
        if let Some(cell) = cells.get_mut(pos) {
            cell.split = Split::At(range.start + mid);
        }
    }
    rows
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
/// Cells are scanned lazily, two at a time, on two threads when
/// `workers` ≥ 2 (see the module doc); the user list is validated by
/// halves the same way. The jurisdictions, and the user set of each
/// range, do not depend on `workers`. `metrics`, when given, counts the
/// rows scanned under [`Counter::PartitionRows`].
///
/// # Errors
/// An invalid map, or a user outside it.
pub fn partition_users(
    users: &mut [(UserId, Point)],
    map: Rect,
    k: usize,
    servers: usize,
    workers: usize,
    metrics: Option<&Metrics>,
) -> Result<Vec<Jurisdiction>, String> {
    let config = TreeConfig::lazy(TreeKind::Binary, map, k);
    config.validate()?;
    let outside = |rows: &[(UserId, Point)]| rows.iter().find(|(_, p)| !map.contains(p)).copied();
    let (head, tail) = users.split_at(users.len() / 2);
    let (head, tail) = join(workers, || outside(head), || outside(tail));
    if let Some((u, _)) = head.or(tail) {
        // The offending point is deliberately not echoed: raw sender
        // coordinates must not reach error strings.
        // lbs-lint: allow(location-taint, reason = "message names the user id and the map bounds; the raw point was removed")
        return Err(format!("user {u} is outside the map {map}"));
    }
    let mut cells = vec![Cell::new(map, 0, 0..users.len(), &config)];
    let mut rows = 0;
    while cells.len() < servers {
        // The greedy's order: most populous first, the last cell on ties.
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_unstable_by_key(|&pos| {
            Reverse((cells.get(pos).map_or(0, |cell| cell.users.len()), pos))
        });
        let pending = |cells: &[Cell], pos: usize| cells.get(pos).is_some_and(Cell::is_pending);
        let mut chosen = None;
        for (at, &pos) in order.iter().enumerate() {
            if pending(&cells, pos) {
                let next = order.iter().skip(at + 1).copied().find(|&p| pending(&cells, p));
                rows += scan(&mut cells, pos, next, users, workers);
            }
            if let Some(mid) = cells.get(pos).and_then(|cell| cell.splittable(k)) {
                chosen = Some((pos, mid));
                break;
            }
        }
        let Some((pos, mid)) = chosen else { break };
        let cell = cells.swap_remove(pos);
        cells.extend(cell.children(mid, &config));
    }
    if let Some(m) = metrics {
        m.add(Counter::PartitionRows, rows);
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
                for workers in [1, 2, 3] {
                    let at = format!("n={n} k={k} servers={servers} workers={workers}");
                    let mut users: Vec<(UserId, Point)> = db.iter().collect();
                    let got = partition_users(&mut users, map, k, servers, workers, None).unwrap();
                    let shape: Vec<(Rect, usize)> =
                        got.iter().map(|j| (j.rect, j.users.len())).collect();
                    assert_eq!(shape, expected, "{at}");
                    // Each range holds exactly the users inside its rect.
                    for j in &got {
                        let mut held: Vec<UserId> =
                            users[j.users.clone()].iter().map(|&(u, _)| u).collect();
                        held.sort_unstable();
                        let mut inside: Vec<UserId> =
                            db.iter().filter(|(_, p)| j.rect.contains(p)).map(|(u, _)| u).collect();
                        inside.sort_unstable();
                        assert_eq!(held, inside, "{at}: the range of {}", j.rect);
                    }
                }
            }
        }
    }

    #[test]
    fn respects_server_count_and_k_rule() {
        let (db, map) = workload(2_000);
        let k = 10;
        for servers in [1, 2, 4, 8, 16] {
            let mut users: Vec<(UserId, Point)> = db.iter().collect();
            let parts = partition_users(&mut users, map, k, servers, 1, None).unwrap();
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
        let err = partition_users(&mut users, map, 1, 4, 1, None).unwrap_err();
        assert!(err.contains("u8") && err.contains("outside the map"), "{err}");
        let err = partition_users(&mut [], Rect::square(0, 0, 12), 1, 4, 1, None).unwrap_err();
        assert!(err.contains("power of two"), "{err}");
    }
}
