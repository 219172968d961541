//! Group-stable ("sticky") anonymization: a countermeasure to the
//! trajectory intersection attack, prototyping the paper's stated future
//! work on trajectory-aware attackers.
//!
//! Per-snapshot optimal policies re-group users every snapshot; an
//! attacker who links requests of the same pseudonymous sender across
//! snapshots intersects the linked cloaks' groups, which shrink as users
//! churn (see `lbs-attack::TrajectoryAttacker`). The sticky anonymizer
//! fixes the cloak *cohorts* at the first snapshot — an optimal
//! policy-aware grouping — and on every later snapshot cloaks each cohort
//! by the smallest (virtual) binary-tree node covering its members'
//! current positions. The candidate set of a cohort's cloak is then the
//! same ≥ k users in every epoch, so the intersection never shrinks below
//! k; the price is utility decay as cohorts disperse, which the
//! `trajectory` integration test and the `experiments` ablation measure.
//!
//! Cohorts whose membership drops below k in a snapshot (users leaving
//! the network) are merged with their nearest surviving cohort for that
//! snapshot.

use crate::{Anonymizer, CoreError};
use lbs_geom::{Point, Rect};
use lbs_model::{BulkPolicy, LocationDb, UserId};

/// Anonymizer with snapshot-stable cloak cohorts.
#[derive(Debug, Clone)]
pub struct StickyAnonymizer {
    k: usize,
    map: Rect,
    cohorts: Vec<Vec<UserId>>,
}

impl StickyAnonymizer {
    /// Fixes the cohorts from an optimal policy-aware anonymization of
    /// the initial snapshot.
    ///
    /// # Errors
    /// Propagates the initial bulk anonymization's errors.
    pub fn new(db: &LocationDb, map: Rect, k: usize) -> Result<Self, CoreError> {
        let engine = Anonymizer::build(db, map, k)?;
        let mut cohorts: Vec<Vec<UserId>> = engine.policy().groups().into_values().collect();
        cohorts.sort(); // deterministic cohort order
        Ok(StickyAnonymizer { k, map, cohorts })
    }

    /// The fixed cohorts.
    pub fn cohorts(&self) -> &[Vec<UserId>] {
        &self.cohorts
    }

    /// Anonymity level.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The policy for the current snapshot: each cohort cloaked by the
    /// smallest binary-tree-aligned rectangle covering its present
    /// members, with under-populated cohorts merged into their nearest
    /// neighbour cohort.
    ///
    /// # Errors
    /// [`CoreError::InsufficientPopulation`] when fewer than k cohort
    /// members remain in the snapshot altogether.
    pub fn policy_for(&self, db: &LocationDb) -> Result<BulkPolicy, CoreError> {
        // Present members per cohort.
        let mut live: Vec<Vec<(UserId, Point)>> = self
            .cohorts
            .iter()
            .map(|cohort| cohort.iter().filter_map(|&u| db.location(u).map(|p| (u, p))).collect())
            .filter(|members: &Vec<_>| !members.is_empty())
            .collect();

        let total: usize = live.iter().map(Vec::len).sum();
        if total < self.k {
            return Err(CoreError::InsufficientPopulation { population: total, k: self.k });
        }

        // Merge under-populated cohorts into their nearest neighbour
        // until every cohort holds >= k present members.
        while let Some(small) = live.iter().position(|m| m.len() < self.k) {
            let donor = live.swap_remove(small);
            let centroid = centroid(&donor);
            // `total >= k` (checked above) guarantees a surviving cohort,
            // but the typed path keeps this panic-free regardless.
            let nearest = live
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| centroid.dist2(&centroid_of(m)))
                .map(|(i, _)| i)
                .ok_or(CoreError::InsufficientPopulation { population: total, k: self.k })?;
            live[nearest].extend(donor);
        }

        let mut assignments = Vec::with_capacity(total);
        for members in &live {
            let points: Vec<Point> = members.iter().map(|&(_, p)| p).collect();
            let rect = smallest_binary_node(self.map, &points);
            assignments.extend(members.iter().map(|&(user, _)| (user, rect.into())));
        }
        Ok(BulkPolicy::from_assignments(format!("sticky(k={})", self.k), assignments))
    }
}

fn centroid(members: &[(UserId, Point)]) -> Point {
    centroid_of(members)
}

fn centroid_of(members: &[(UserId, Point)]) -> Point {
    let n = members.len() as i64;
    let sx: i64 = members.iter().map(|(_, p)| p.x).sum();
    let sy: i64 = members.iter().map(|(_, p)| p.y).sum();
    Point::new(sx / n.max(1), sy / n.max(1))
}

/// The smallest node of the *virtual* (fully materialized) binary
/// semi-quadrant tree over `map` whose rect contains every point:
/// descend while all points fall in the same child.
fn smallest_binary_node(map: Rect, points: &[Point]) -> Rect {
    let mut rect = map;
    loop {
        if rect.width() <= 1 && rect.height() <= 1 {
            return rect;
        }
        let (low, high) = rect.split(rect.binary_split_axis());
        if points.iter().all(|p| low.contains(p)) {
            rect = low;
        } else if points.iter().all(|p| high.contains(p)) {
            rect = high;
        } else {
            return rect;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_policy_aware;
    use lbs_model::Move;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_db(rng: &mut StdRng, n: usize, side: i64) -> LocationDb {
        LocationDb::from_rows((0..n).map(|i| {
            (UserId(i as u64), Point::new(rng.gen_range(0..side), rng.gen_range(0..side)))
        }))
        .unwrap()
    }

    #[test]
    fn sticky_policies_stay_anonymous_under_churn() {
        let mut rng = StdRng::seed_from_u64(0x57C);
        let side = 256i64;
        let k = 5;
        let mut db = random_db(&mut rng, 100, side);
        let sticky = StickyAnonymizer::new(&db, Rect::square(0, 0, side), k).unwrap();
        for round in 0..8 {
            let moves: Vec<Move> = db
                .users()
                .filter(|_| rng.gen_bool(0.3))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|user| Move {
                    user,
                    to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
                })
                .collect();
            db.apply_moves(&moves).unwrap();
            let policy = sticky.policy_for(&db).unwrap();
            assert!(policy.is_masking_and_total(&db), "round {round}");
            verify_policy_aware(&policy, &db, k).unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        }
    }

    #[test]
    fn cohorts_persist_across_snapshots() {
        let mut rng = StdRng::seed_from_u64(7);
        let side = 128i64;
        let db = random_db(&mut rng, 40, side);
        let sticky = StickyAnonymizer::new(&db, Rect::square(0, 0, side), 4).unwrap();
        let p0 = sticky.policy_for(&db).unwrap();
        // Same snapshot twice: identical grouping.
        let p1 = sticky.policy_for(&db).unwrap();
        for user in db.users() {
            assert_eq!(p0.cloak_of(user), p1.cloak_of(user));
        }
        // Every cohort's members share one cloak.
        for cohort in sticky.cohorts() {
            let cloaks: std::collections::HashSet<_> =
                cohort.iter().map(|&u| p0.cloak_of(u).unwrap()).collect();
            assert_eq!(cloaks.len(), 1);
        }
    }

    #[test]
    fn utility_decays_but_never_below_per_snapshot_optimum() {
        let mut rng = StdRng::seed_from_u64(12);
        let side = 512i64;
        let k = 5;
        let mut db = random_db(&mut rng, 120, side);
        let map = Rect::square(0, 0, side);
        let sticky = StickyAnonymizer::new(&db, map, k).unwrap();
        let initial_cost = sticky.policy_for(&db).unwrap().cost_exact().unwrap();
        // Heavy churn: everybody teleports.
        let moves: Vec<Move> = db
            .users()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|user| Move {
                user,
                to: Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            })
            .collect();
        db.apply_moves(&moves).unwrap();
        let dispersed_cost = sticky.policy_for(&db).unwrap().cost_exact().unwrap();
        let optimal = Anonymizer::build(&db, map, k).unwrap().cost();
        assert!(dispersed_cost >= optimal, "sticky can never beat per-snapshot optimum");
        assert!(
            dispersed_cost > initial_cost,
            "dispersal must cost: {dispersed_cost} <= {initial_cost}"
        );
    }

    #[test]
    fn departures_merge_cohorts() {
        let mut rng = StdRng::seed_from_u64(3);
        let side = 128i64;
        let k = 4;
        let db = random_db(&mut rng, 30, side);
        let sticky = StickyAnonymizer::new(&db, Rect::square(0, 0, side), k).unwrap();
        // Remove most users of one cohort from the next snapshot.
        let victim = sticky.cohorts()[0].clone();
        let survivors: Vec<(UserId, Point)> =
            db.iter().filter(|(u, _)| !victim.contains(u) || *u == victim[0]).collect();
        let next = LocationDb::from_rows(survivors).unwrap();
        let policy = sticky.policy_for(&next).unwrap();
        assert!(policy.is_masking_and_total(&next));
        verify_policy_aware(&policy, &next, k).unwrap();
    }

    #[test]
    fn too_few_survivors_error() {
        let mut rng = StdRng::seed_from_u64(3);
        let db = random_db(&mut rng, 30, 128);
        let sticky = StickyAnonymizer::new(&db, Rect::square(0, 0, 128), 4).unwrap();
        let tiny = LocationDb::from_rows(db.iter().take(2)).unwrap();
        assert!(matches!(
            sticky.policy_for(&tiny),
            Err(CoreError::InsufficientPopulation { population: 2, k: 4 })
        ));
    }

    #[test]
    fn smallest_binary_node_is_tight_and_aligned() {
        let map = Rect::square(0, 0, 16);
        let pts = [Point::new(1, 1), Point::new(2, 3)];
        let rect = smallest_binary_node(map, &pts);
        for p in &pts {
            assert!(rect.contains(p));
        }
        assert_eq!(rect, Rect::new(0, 0, 4, 4), "tightest aligned node");
        // A single point descends to the unit cell.
        let unit = smallest_binary_node(map, &[Point::new(5, 9)]);
        assert_eq!(unit, Rect::new(5, 9, 6, 10));
    }
}
