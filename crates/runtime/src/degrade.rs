//! The graceful degradation ladder: what a sender receives when a fresh
//! optimal `Bulk_dp` commit is unavailable (deadline pressure, transient
//! faults, mid-recovery).
//!
//! Rungs, best first:
//!
//! 1. **Fresh** — the committed policy covers every durable update; serve
//!    its optimal cloak.
//! 2. **Committed** — serve the last-committed cloak, provided the
//!    sender's *current* location is still inside it and its group is
//!    still large enough.
//! 3. **Coarsened** — Lemma-5 style: walk the committed cloak's
//!    semi-quadrant ancestor chain and serve the smallest ancestor that
//!    contains every live group member's current location.
//! 4. **Rejection** — shed the request rather than emit any cloak.
//!
//! Why every rung preserves Definition 6: the degraded assignment is a
//! deterministic function of (committed policy, current database), so a
//! policy-aware attacker can reproduce it exactly. Each committed cloak
//! group is mapped *as a unit* to a single ancestor region — groups can
//! only merge (two groups coarsening to the same ancestor), never split —
//! so every served region covers at least one whole group of `k`-or-more
//! live senders whose current locations it contains. Groups that fall
//! below `k` live members, senders that left the map, and senders that
//! joined after the last commit are shed, not served a weaker cloak: the
//! ladder degrades cost and latency, never anonymity.

use lbs_geom::{Point, Rect, Region};
use lbs_model::{BulkPolicy, LocationDb, UserId};
use std::collections::{BTreeMap, HashMap};

/// Which rung of the ladder answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Fresh optimal policy covering every durable update.
    Fresh,
    /// Last-committed optimal cloak, unchanged.
    Committed,
    /// Coarser semi-quadrant ancestor of the committed cloak.
    Coarsened,
}

impl Rung {
    /// Stable snake_case name for reports and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Fresh => "fresh",
            Rung::Committed => "committed",
            Rung::Coarsened => "coarsened",
        }
    }
}

/// Semi-quadrant ancestors of `cloak` within `map`, smallest first and
/// ending at `map` itself. When `cloak` is a semi-quadrant of `map` (the
/// only cloaks `Bulk_dp` emits), the first element is `cloak`; otherwise
/// the chain starts at the smallest enclosing semi-quadrant.
pub fn ancestor_chain(map: &Rect, cloak: &Rect) -> Vec<Rect> {
    let mut chain = Vec::new();
    let mut cur = *map;
    loop {
        chain.push(cur);
        if cur == *cloak || cur.width() <= 1 && cur.height() <= 1 {
            break;
        }
        let (a, b) = cur.split(cur.binary_split_axis());
        if a.contains_rect(cloak) {
            cur = a;
        } else if b.contains_rect(cloak) {
            cur = b;
        } else {
            break;
        }
    }
    chain.reverse();
    chain
}

/// A degraded (rung 2–3) policy for the current database, derived from
/// the last-committed policy.
#[derive(Debug, Clone)]
pub struct DegradedPolicy {
    /// Cloak assignments for every servable sender.
    pub policy: BulkPolicy,
    /// Which rung each servable sender landed on (`Committed` when the
    /// committed cloak survived unchanged, `Coarsened` otherwise).
    pub rungs: BTreeMap<UserId, Rung>,
    /// Senders that must be shed: not in the committed policy, off their
    /// group's reachable regions, or in a group below `k` live members.
    pub shed: Vec<UserId>,
}

/// Derives the degraded policy: each committed cloak group moves as a
/// unit to the smallest semi-quadrant ancestor of its cloak containing
/// all live members' current locations; groups with fewer than `k` live
/// members (and senders unknown to the committed policy) are shed.
///
/// The output is a pure function of `(committed, db)` — the attacker
/// simulability that Definition 6 conformance checks rely on.
///
/// One pass over the committed policy (ascending user id), joined with
/// the database sorted by user, puts every live sender in its cloak's
/// group. A group keeps only its live count and the bounding box of its
/// members' current locations: a rectangle holds every member exactly
/// when it holds the box's two corners, so the ancestor chain is walked
/// only for groups with a member outside its cloak. Senders come out in
/// user order, so the policy and the rung table are bulk-built and
/// `shed` needs no set.
pub fn degraded_policy(
    committed: &BulkPolicy,
    db: &LocationDb,
    map: &Rect,
    k: usize,
) -> DegradedPolicy {
    let mut senders: Vec<(UserId, Point)> = db.iter().collect();
    senders.sort_unstable_by_key(|&(user, _)| user);
    let mut index: HashMap<Region, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    let mut cloaks = committed.iter().peekable();
    let member_of: Vec<Option<usize>> = senders
        .iter()
        .map(|&(user, p)| {
            while cloaks.next_if(|&(u, _)| u < user).is_some() {} // departed since the commit
            let (_, region) = cloaks.next_if(|&(u, _)| u == user)?;
            let g = *index.entry(*region).or_insert_with(|| {
                groups.push(Group { cloak: *region, live: 0, lo: p, hi: p });
                groups.len() - 1
            });
            groups.get_mut(g)?.add(p);
            Some(g)
        })
        .collect();
    let serving: Vec<Option<(Region, Rung)>> = groups.iter().map(|g| g.serve(map, k)).collect();

    let mut assignments = Vec::with_capacity(senders.len());
    let mut rungs = Vec::with_capacity(senders.len());
    let mut shed = Vec::new();
    for (&(user, _), g) in senders.iter().zip(member_of) {
        match g.and_then(|g| serving.get(g).copied().flatten()) {
            Some((region, rung)) => {
                assignments.push((user, region));
                rungs.push((user, rung));
            }
            None => shed.push(user),
        }
    }
    DegradedPolicy {
        policy: BulkPolicy::from_assignments(
            format!("degraded({})", committed.name()),
            assignments,
        ),
        rungs: rungs.into_iter().collect(),
        shed,
    }
}

/// One committed cloak group's live members, as [`degraded_policy`]
/// needs them: how many, and the bounding box of where they are now.
struct Group {
    cloak: Region,
    live: usize,
    lo: Point,
    hi: Point,
}

impl Group {
    fn add(&mut self, p: Point) {
        self.live += 1;
        self.lo = Point::new(self.lo.x.min(p.x), self.lo.y.min(p.y));
        self.hi = Point::new(self.hi.x.max(p.x), self.hi.y.max(p.y));
    }

    /// The region and rung this group is served on, or `None` when it is
    /// shed.
    fn serve(&self, map: &Rect, k: usize) -> Option<(Region, Rung)> {
        let Region::Rect(cloak) = self.cloak else {
            return None; // circle cloaks have no semi-quadrant ancestors
        };
        if self.live < k {
            return None; // group too small now — shedding beats a weaker cloak
        }
        let holds_all = |r: &Rect| r.contains(&self.lo) && r.contains(&self.hi);
        if holds_all(&cloak) {
            return Some((self.cloak, Rung::Committed));
        }
        // None when somebody left the map entirely.
        let ancestor = ancestor_chain(map, &cloak).into_iter().find(holds_all)?;
        Some((Region::Rect(ancestor), Rung::Coarsened))
    }
}

impl DegradedPolicy {
    /// The population actually served — what Definition 6 is checked
    /// over: shed senders emit no request, so the attacker's candidate
    /// set for any served region is exactly the served senders assigned
    /// to it.
    pub fn served_db(&self, db: &LocationDb) -> Option<LocationDb> {
        LocationDb::from_rows(
            self.policy.iter().filter_map(|(u, _)| db.location(u).map(|p| (u, p))),
        )
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_core::verify_policy_aware;
    use lbs_core::IncrementalAnonymizer;
    use lbs_geom::Circle;
    use lbs_model::{Move, UserUpdate};
    use lbs_tree::{TreeConfig, TreeKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn chain_walks_from_cloak_to_map() {
        let map = Rect::square(0, 0, 64);
        let (left, _) = map.split(map.binary_split_axis());
        let (ll, _) = left.split(left.binary_split_axis());
        let chain = ancestor_chain(&map, &ll);
        assert_eq!(chain.first(), Some(&ll));
        assert_eq!(chain.last(), Some(&map));
        assert_eq!(chain.len(), 3);
        for pair in chain.windows(2) {
            assert!(pair[1].contains_rect(&pair[0]));
        }
    }

    fn scenario(seed: u64, n: usize, k: usize) -> (LocationDb, BulkPolicy, Rect) {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 64i64;
        let map = Rect::square(0, 0, side);
        let db = LocationDb::from_rows((0..n).map(|i| {
            (UserId(i as u64), Point::new(rng.gen_range(0..side), rng.gen_range(0..side)))
        }))
        .unwrap();
        let cfg = TreeConfig::lazy(TreeKind::Binary, map, k);
        let inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();
        (db, inc.policy().unwrap(), map)
    }

    /// The derivation as first written — a group map, a shed set holding
    /// every user, an ancestor chain per group and one insert per served
    /// sender — kept as the differential reference for [`degraded_policy`].
    fn reference_degraded_policy(
        committed: &BulkPolicy,
        db: &LocationDb,
        map: &Rect,
        k: usize,
    ) -> DegradedPolicy {
        let mut policy = BulkPolicy::new(format!("degraded({})", committed.name()));
        let mut rungs = BTreeMap::new();
        let mut shed: BTreeMap<UserId, ()> = db.users().map(|u| (u, ())).collect();
        let mut groups: Vec<(Region, Vec<UserId>)> = committed.groups().into_iter().collect();
        groups.sort_by_key(|(_, members)| members.first().copied());
        for (region, members) in groups {
            let Some(cloak) = region.rect().copied() else {
                continue;
            };
            let live: Vec<(UserId, Point)> =
                members.iter().filter_map(|&u| db.location(u).map(|p| (u, p))).collect();
            if live.len() < k {
                continue;
            }
            let mut candidates = ancestor_chain(map, &cloak);
            if candidates.first() != Some(&cloak) {
                candidates.insert(0, cloak);
            }
            let Some(chosen) =
                candidates.into_iter().find(|r| live.iter().all(|(_, p)| r.contains(p)))
            else {
                continue;
            };
            let rung = if chosen == cloak { Rung::Committed } else { Rung::Coarsened };
            for (user, _) in live {
                policy.assign(user, Region::Rect(chosen));
                rungs.insert(user, rung);
                shed.remove(&user);
            }
        }
        DegradedPolicy { policy, rungs, shed: shed.into_keys().collect() }
    }

    /// One differential scenario: a committed policy, then churn the
    /// commit has not seen — near and far moves (some off the map),
    /// inserts, deletes deep enough to drop groups below `k`, and now and
    /// then a circle cloak or a cloak that is no semi-quadrant at all.
    fn churned_scenario(seed: u64) -> (BulkPolicy, LocationDb, Rect, usize) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_0A4D);
        let k = rng.gen_range(2..=6);
        let n = rng.gen_range(3 * k..=120);
        let (db, mut committed, map) = scenario(seed, n, k);
        let side = map.width();
        let (p_move, p_far, p_off, p_delete) =
            (rng.gen_range(0.0..0.6), rng.gen_range(0.0..0.5), 0.05, rng.gen_range(0.0..0.4));
        let mut rows = Vec::new();
        for (user, p) in db.iter() {
            if rng.gen_bool(p_delete) {
                continue;
            }
            let to = if !rng.gen_bool(p_move) {
                p
            } else if rng.gen_bool(p_off) {
                Point::new(side + rng.gen_range(0..8), rng.gen_range(-8..side))
            } else if rng.gen_bool(p_far) {
                Point::new(rng.gen_range(0..side), rng.gen_range(0..side))
            } else {
                let jitter =
                    |c: i64, rng: &mut StdRng| (c + rng.gen_range(-3..=3)).clamp(0, side - 1);
                Point::new(jitter(p.x, &mut rng), jitter(p.y, &mut rng))
            };
            rows.push((user, to));
        }
        for i in 0..rng.gen_range(0..6u64) {
            rows.push((
                UserId(10_000 + i),
                Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            ));
        }
        let groups = committed.groups();
        let mut regions: Vec<&Region> = groups.keys().collect();
        regions.sort_by_key(|r| groups[*r].first().copied());
        if rng.gen_bool(0.3) {
            let members = &groups[regions[rng.gen_range(0..regions.len())]];
            let circle =
                Region::Circle(Circle::from_radius2(Point::new(side / 2, side / 2), 1 << 14));
            for &u in members {
                committed.assign(u, circle);
            }
        }
        if rng.gen_bool(0.3) {
            let members = &groups[regions[rng.gen_range(0..regions.len())]];
            let (x0, y0) = (rng.gen_range(0..side / 2), rng.gen_range(0..side / 2));
            let odd = Region::Rect(Rect::new(x0, y0, x0 + rng.gen_range(1..side / 2), y0 + 13));
            for &u in members {
                committed.assign(u, odd);
            }
        }
        (committed, LocationDb::from_rows(rows).unwrap(), map, k)
    }

    #[test]
    fn one_pass_derivation_matches_the_reference() {
        let mut seen = [0usize; 3]; // committed, coarsened, shed senders
        for seed in 0..240 {
            let (committed, db, map, k) = churned_scenario(seed);
            let got = degraded_policy(&committed, &db, &map, k);
            let want = reference_degraded_policy(&committed, &db, &map, k);
            assert_eq!(got.policy.name(), want.policy.name(), "seed {seed}");
            assert!(got.policy.iter().eq(want.policy.iter()), "seed {seed}: assignments");
            assert_eq!(got.rungs, want.rungs, "seed {seed}");
            assert_eq!(got.shed, want.shed, "seed {seed}");
            seen[0] += got.rungs.values().filter(|&&r| r == Rung::Committed).count();
            seen[1] += got.rungs.values().filter(|&&r| r == Rung::Coarsened).count();
            seen[2] += got.shed.len();
        }
        assert!(seen.iter().all(|&c| c > 100), "scenarios must exercise every outcome: {seen:?}");
    }

    #[test]
    fn unchanged_database_stays_on_the_committed_rung() {
        let k = 4;
        let (db, committed, map) = scenario(3, 40, k);
        let degraded = degraded_policy(&committed, &db, &map, k);
        assert!(degraded.shed.is_empty());
        for (user, region) in committed.iter() {
            assert_eq!(degraded.policy.cloak_of(user), Some(region));
            assert_eq!(degraded.rungs.get(&user), Some(&Rung::Committed));
        }
    }

    #[test]
    fn moved_groups_coarsen_and_stay_anonymous() {
        let k = 4;
        let (mut db, committed, map) = scenario(9, 60, k);
        // Scatter a third of the population without recommitting.
        let mut rng = StdRng::seed_from_u64(10);
        let moves: Vec<Move> = (0..20)
            .map(|i| Move {
                user: UserId(i),
                to: Point::new(rng.gen_range(0..64), rng.gen_range(0..64)),
            })
            .collect();
        db.apply_moves(&moves).unwrap();

        let degraded = degraded_policy(&committed, &db, &map, k);
        let served = degraded.served_db(&db).unwrap();
        assert!(served.len() >= k, "someone must still be servable");
        // Every rung's output satisfies policy-aware k-anonymity over the
        // served population.
        assert!(verify_policy_aware(&degraded.policy, &served, k).is_ok());
        // Masking: each served sender's current location is in their cloak.
        for (user, region) in degraded.policy.iter() {
            assert!(region.contains(&db.location(user).unwrap()));
        }
        // Coarsened cloaks are ancestors (supersets) of the committed ones.
        for (user, rung) in &degraded.rungs {
            let before = committed.cloak_of(*user).unwrap().rect().unwrap();
            let after = degraded.policy.cloak_of(*user).unwrap().rect().unwrap();
            assert!(after.contains_rect(before) || after == before);
            if *rung == Rung::Committed {
                assert_eq!(after, before);
            }
        }
        // No move deleted anyone, so every committed group is served whole:
        // anonymity sets never shrink below the committed minimum.
        let min_before = committed.min_group_size().unwrap();
        let min_after = degraded.policy.min_group_size().unwrap();
        assert!(min_after >= min_before, "{min_after} < {min_before}");
    }

    #[test]
    fn new_and_departed_users_are_shed_not_served() {
        let k = 3;
        let (mut db, committed, map) = scenario(21, 30, k);
        db.apply_updates(&[
            UserUpdate::Insert { user: UserId(900), at: Point::new(5, 5) },
            UserUpdate::Delete { user: UserId(0) },
        ])
        .unwrap();
        let degraded = degraded_policy(&committed, &db, &map, k);
        assert!(degraded.shed.contains(&UserId(900)), "post-commit insert must be shed");
        assert!(degraded.policy.cloak_of(UserId(900)).is_none());
        assert!(degraded.policy.cloak_of(UserId(0)).is_none(), "departed user not served");
        let served = degraded.served_db(&db).unwrap();
        assert!(verify_policy_aware(&degraded.policy, &served, k).is_ok());
    }

    #[test]
    fn groups_below_k_live_members_are_shed_entirely() {
        let k = 3;
        let (db, committed, map) = scenario(33, 24, k);
        // Delete all but k-1 members of one group.
        let groups = committed.groups();
        let (_, members) = groups.iter().next().unwrap();
        let mut db = db;
        let mut deleted = Vec::new();
        for &u in members.iter().skip(k - 1) {
            db.apply_updates(&[UserUpdate::Delete { user: u }]).unwrap();
            deleted.push(u);
        }
        let degraded = degraded_policy(&committed, &db, &map, k);
        for &u in members.iter().take(k - 1) {
            assert!(
                degraded.policy.cloak_of(u).is_none(),
                "survivor of an under-k group must be shed, not cloaked"
            );
            assert!(degraded.shed.contains(&u));
        }
        if let Some(min) = degraded.policy.min_group_size() {
            assert!(min >= k);
        }
        let served = degraded.served_db(&db).unwrap();
        assert!(verify_policy_aware(&degraded.policy, &served, k).is_ok());
    }
}
