//! Circular cloaks: the k-inside variant (Figure 6(b)) and the Theorem-1
//! optimal policy-aware problem.
//!
//! Theorem 1 of the paper: *Optimal Policy-aware Bulk-anonymization with
//! Circular cloaks* — circles centered at points of a fixed set `SC`
//! (public landmarks, cell towers), radius free — is NP-complete in the
//! size of the location database. [`optimal_circular_policy`] is the exact
//! exponential solver (set-partition search with pruning) usable for tiny
//! instances, and [`greedy_circular_policy`] a polynomial heuristic; the
//! `circular_hardness` bench contrasts their running times and costs.

use lbs_geom::{Circle, Point, Region};
use lbs_model::{BulkPolicy, CloakingPolicy, LocationDb, UserId};

/// Circular k-inside cloaking: each requester is cloaked by a circle
/// centered at the *nearest* center from `centers`, with the minimum
/// radius covering k users (herself included).
///
/// This is the cloaking family of the Figure 6(b) k-reciprocity breach:
/// policy-awareness reveals that a cloak centered at `S₁` can only have
/// been produced for users whose nearest center is `S₁`.
#[derive(Debug, Clone)]
pub struct CircularKInside {
    centers: Vec<Point>,
    k: usize,
}

impl CircularKInside {
    /// Creates the policy for the given center set.
    ///
    /// # Errors
    /// Fails on an empty center set or `k = 0`.
    pub fn new(centers: Vec<Point>, k: usize) -> Result<Self, String> {
        if centers.is_empty() {
            return Err("need at least one center".into());
        }
        if k == 0 {
            return Err("k must be at least 1".into());
        }
        Ok(CircularKInside { centers, k })
    }

    /// The center nearest to `p` (ties broken by center order).
    #[expect(
        clippy::expect_used,
        reason = "CircularKInside::new rejects empty center sets, so min_by_key always finds one"
    )]
    pub fn nearest_center(&self, p: &Point) -> Point {
        *self.centers.iter().min_by_key(|c| c.dist2(p)).expect("centers nonempty")
    }
}

impl CloakingPolicy for CircularKInside {
    fn name(&self) -> &str {
        "k-inside-circular"
    }

    fn cloak(&self, db: &LocationDb, user: UserId) -> Option<Region> {
        let loc = db.location(user)?;
        let center = self.nearest_center(&loc);
        // Radius covering the k nearest users to the center, and always
        // covering the requester (masking).
        let mut dists: Vec<u128> = db.iter().map(|(_, p)| center.dist2(&p)).collect();
        if dists.len() < self.k {
            return None;
        }
        dists.sort_unstable();
        let radius2 = dists[self.k - 1].max(center.dist2(&loc));
        Some(Circle::from_radius2(center, radius2).into())
    }
}

/// A policy-aware-anonymous *circular* bulk policy: a partition of the
/// users into groups of ≥ k, each cloaked by one circle centered in `SC`
/// covering the whole group.
#[derive(Debug, Clone, PartialEq)]
pub struct CircularPolicy {
    /// `(members, circle)` per group.
    pub groups: Vec<(Vec<UserId>, Circle)>,
    /// `Cost(P, D)` under the f64 area metric (circle areas are
    /// irrational): Σ over users of their circle's area.
    pub cost: f64,
}

impl CircularPolicy {
    /// Converts into a [`BulkPolicy`] for verification and comparison.
    pub fn to_bulk(&self, name: &str) -> BulkPolicy {
        let assignments = self
            .groups
            .iter()
            .flat_map(|(members, circle)| {
                members.iter().map(|&user| (user, Region::Circle(*circle)))
            })
            .collect();
        BulkPolicy::from_assignments(name, assignments)
    }
}

/// The cheapest circle centered in `centers` covering all of `points`:
/// minimizes radius² (equivalently area).
#[expect(
    clippy::expect_used,
    reason = "both callers pass the policy's center set, verified nonempty at construction/entry"
)]
fn best_circle(centers: &[Point], points: &[Point]) -> Circle {
    centers
        .iter()
        .map(|&c| Circle::covering(c, points))
        .min_by_key(|circ| circ.radius2)
        .expect("centers nonempty")
}

/// Exact solver for the Theorem-1 problem: enumerates all partitions of
/// the users into groups of size ≥ k (with pruning on partial cost) and
/// returns a cost-minimal policy, or `None` when `|D| < k`.
///
/// Exponential in `|D|` — the theorem says nothing better is expected —
/// so the instance is capped at 16 users.
pub fn optimal_circular_policy(
    db: &LocationDb,
    centers: &[Point],
    k: usize,
) -> Option<CircularPolicy> {
    assert!(db.len() <= 16, "exact circular solver capped at 16 users (NP-complete problem)");
    assert!(!centers.is_empty() && k >= 1);
    let users: Vec<(UserId, Point)> = db.iter().collect();
    if users.len() < k {
        return None;
    }

    // Branch on the first unassigned user: it joins a new group with every
    // subset of the remaining unassigned users of size ≥ k−1. Groups are
    // built in canonical (first-element) order, so each partition is
    // visited once.
    struct Search<'a> {
        users: &'a [(UserId, Point)],
        centers: &'a [Point],
        k: usize,
        best: Option<CircularPolicy>,
    }

    impl Search<'_> {
        fn go(&mut self, unassigned: Vec<usize>, acc: Vec<(Vec<usize>, Circle)>, cost: f64) {
            if let Some(best) = &self.best {
                if cost >= best.cost {
                    return; // prune
                }
            }
            let Some((&seed, rest)) = unassigned.split_first() else {
                let groups = acc
                    .iter()
                    .map(|(idxs, c)| (idxs.iter().map(|&i| self.users[i].0).collect(), *c))
                    .collect();
                self.best = Some(CircularPolicy { groups, cost });
                return;
            };
            // Choose k−1 or more partners for `seed` from `rest`.
            let n = rest.len();
            if n + 1 < self.k {
                return; // cannot complete a group
            }
            for mask in 0u32..(1 << n) {
                let chosen = mask.count_ones() as usize;
                if chosen + 1 < self.k {
                    continue;
                }
                let mut group = vec![seed];
                let mut remaining = Vec::with_capacity(n - chosen);
                for (bit, &idx) in rest.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        group.push(idx);
                    } else {
                        remaining.push(idx);
                    }
                }
                if !remaining.is_empty() && remaining.len() < self.k {
                    continue; // leftover too small to ever form a group
                }
                let pts: Vec<Point> = group.iter().map(|&i| self.users[i].1).collect();
                let circle = best_circle(self.centers, &pts);
                let group_cost = circle.area_f64() * group.len() as f64;
                let mut acc2 = acc.clone();
                acc2.push((group, circle));
                self.go(remaining, acc2, cost + group_cost);
            }
        }
    }

    let mut search = Search { users: &users, centers, k, best: None };
    search.go((0..users.len()).collect(), Vec::new(), 0.0);
    search.best
}

/// Polynomial greedy heuristic for the Theorem-1 problem: repeatedly seed
/// a group with an unassigned user, add its k−1 nearest unassigned users,
/// and cloak with the best center; leftovers (< k) join the last group.
pub fn greedy_circular_policy(
    db: &LocationDb,
    centers: &[Point],
    k: usize,
) -> Option<CircularPolicy> {
    assert!(!centers.is_empty() && k >= 1);
    let mut unassigned: Vec<(UserId, Point)> = db.iter().collect();
    if unassigned.len() < k {
        return None;
    }
    let mut groups: Vec<(Vec<UserId>, Circle)> = Vec::new();
    let mut cost = 0.0;
    while !unassigned.is_empty() {
        let seed = unassigned[0].1;
        unassigned.sort_by_key(|(_, p)| p.dist2(&seed));
        let take = if unassigned.len() < 2 * k { unassigned.len() } else { k };
        let group: Vec<(UserId, Point)> = unassigned.drain(..take).collect();
        let pts: Vec<Point> = group.iter().map(|&(_, p)| p).collect();
        let circle = best_circle(centers, &pts);
        cost += circle.area_f64() * group.len() as f64;
        groups.push((group.into_iter().map(|(u, _)| u).collect(), circle));
    }
    Some(CircularPolicy { groups, cost })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(points: &[(i64, i64)]) -> LocationDb {
        LocationDb::from_rows(
            points.iter().enumerate().map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    }

    #[test]
    fn k_inside_circle_covers_k_users_and_requester() {
        let d = db(&[(0, 0), (1, 0), (10, 0), (11, 0)]);
        let centers = vec![Point::new(0, 0), Point::new(10, 0)];
        let policy = CircularKInside::new(centers, 2).unwrap();
        for (user, point) in d.iter() {
            let region = policy.cloak(&d, user).unwrap();
            assert!(region.contains(&point));
            assert!(d.users_in(&region).len() >= 2);
        }
        // User 2 at (10,0) gets a circle at its nearest center (10,0)
        // whose radius reaches the 2nd-closest user (11,0): radius² = 1.
        let r = policy.cloak(&d, UserId(2)).unwrap();
        assert_eq!(r.circle().unwrap().center, Point::new(10, 0));
        assert_eq!(r.circle().unwrap().radius2, 1);
    }

    #[test]
    fn figure_6b_reciprocity_breach_setup() {
        // Alice nearest S1, Bob nearest S2; both cloaks contain both users
        // (2-reciprocity holds) yet each cloak's *group* is a singleton —
        // the policy-aware breach.
        let d = db(&[(2, 0), (4, 0)]); // Alice, Bob
        let centers = vec![Point::new(0, 0), Point::new(6, 0)]; // S1, S2
        let policy = CircularKInside::new(centers, 2).unwrap();
        let alice = policy.cloak(&d, UserId(0)).unwrap();
        let bob = policy.cloak(&d, UserId(1)).unwrap();
        assert_eq!(alice.circle().unwrap().center, Point::new(0, 0));
        assert_eq!(bob.circle().unwrap().center, Point::new(6, 0));
        // Both users inside both cloaks: 2-reciprocity satisfied.
        for (_, p) in d.iter() {
            assert!(alice.contains(&p) && bob.contains(&p));
        }
        // But the cloaks differ, so each group has exactly one member.
        assert_ne!(alice, bob);
    }

    #[test]
    fn exact_solver_groups_clusters_separately() {
        // Two tight clusters far apart; k=2. Optimal: one circle each.
        let d = db(&[(0, 0), (1, 0), (100, 0), (101, 0)]);
        let centers = vec![Point::new(0, 0), Point::new(100, 0)];
        let policy = optimal_circular_policy(&d, &centers, 2).unwrap();
        assert_eq!(policy.groups.len(), 2);
        for (members, circle) in &policy.groups {
            assert_eq!(members.len(), 2);
            assert!(circle.radius2 <= 1);
        }
        let bulk = policy.to_bulk("opt-circ");
        assert!(bulk.is_masking_and_total(&d));
        assert_eq!(bulk.min_group_size(), Some(2));
    }

    #[test]
    fn exact_never_costlier_than_greedy() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..10 {
            let n = rng.gen_range(4..=9);
            let pts: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..50), rng.gen_range(0..50))).collect();
            let d = db(&pts);
            let centers: Vec<Point> =
                (0..3).map(|_| Point::new(rng.gen_range(0..50), rng.gen_range(0..50))).collect();
            let k = rng.gen_range(2..=3);
            let exact = optimal_circular_policy(&d, &centers, k).unwrap();
            let greedy = greedy_circular_policy(&d, &centers, k).unwrap();
            assert!(
                exact.cost <= greedy.cost + 1e-6,
                "trial {trial}: exact {} > greedy {}",
                exact.cost,
                greedy.cost
            );
            // Both must be valid policy-aware anonymizations.
            for p in [&exact, &greedy] {
                for (members, _) in &p.groups {
                    assert!(members.len() >= k, "trial {trial}");
                }
            }
        }
    }

    #[test]
    fn infeasible_population_returns_none() {
        let d = db(&[(0, 0)]);
        let centers = vec![Point::new(0, 0)];
        assert!(optimal_circular_policy(&d, &centers, 2).is_none());
        assert!(greedy_circular_policy(&d, &centers, 2).is_none());
        let ki = CircularKInside::new(centers, 2).unwrap();
        assert!(ki.cloak(&d, UserId(0)).is_none());
    }
}
