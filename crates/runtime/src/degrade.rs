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
//!
//! Two derivations compute the same assignment. [`degraded_policy`]
//! derives the whole degraded policy in one `O(n)` pass; it is the audit
//! and the oracle. [`DegradedDelta`] is what the runtime serves from: it
//! re-derives only the groups that the users staged since the commit
//! belong to, at a cost proportional to those users, and leaves every
//! other group on the Committed rung. Both call one rung decision, so
//! they cannot drift apart.

use lbs_geom::{Point, Rect, Region};
use lbs_model::{BulkPolicy, LocationDb, UserId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
/// simulability that Definition 6 conformance checks rely on. This is
/// the whole-population derivation: the audit and the oracle for the
/// delta that the runtime serves from. It assumes nothing
/// about `committed`, so it also covers circle cloaks and cloaks that
/// are no semi-quadrant.
///
/// One pass over the committed policy's columns (ascending user id),
/// joined with the database sorted by user, puts every live sender in
/// its cloak's group; a group is its cloak id. A group keeps only its
/// live count and the bounding box of its members' current locations: a
/// rectangle holds every member exactly when it holds the box's two
/// corners, so the ancestors are walked only for groups with a member
/// outside its cloak. Senders come out in user order, so the policy and
/// the rung table are bulk-built and `shed` needs no set.
pub fn degraded_policy(
    committed: &BulkPolicy,
    db: &LocationDb,
    map: &Rect,
    k: usize,
) -> DegradedPolicy {
    let mut senders: Vec<(UserId, Point)> = db.iter().collect();
    senders.sort_unstable_by_key(|&(user, _)| user);
    let mut groups: Vec<Group> = committed.cloaks().iter().map(|&c| Group::counted(c)).collect();
    let mut cloaks = committed.users().iter().zip(committed.cloak_ids()).peekable();
    let member_of: Vec<Option<usize>> = senders
        .iter()
        .map(|&(user, p)| {
            while cloaks.next_if(|&(&u, _)| u < user).is_some() {} // departed since the commit
            let (_, &g) = cloaks.next_if(|&(&u, _)| u == user)?;
            groups.get_mut(g as usize)?.add(p);
            Some(g as usize)
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

/// The degraded policy as a delta against the committed one: a rung
/// decision for each cloak group a user staged since the commit belongs
/// to. Every other group is served its committed cloak with no work.
///
/// Built by [`DegradedDelta::derive`]; holds cloak regions and rungs
/// only, never a sender's location.
#[derive(Debug, Clone)]
pub(crate) struct DegradedDelta {
    /// Committed cloak id of each touched group → its region and rung, or
    /// `None` when the group is shed. Looked up, never iterated.
    touched: HashMap<u32, Option<(Region, Rung)>>,
}

impl DegradedDelta {
    /// Re-derives the rung of every committed cloak group that a user in
    /// `touched` (the users staged since the commit) belongs to. Serving
    /// from the result answers exactly as [`degraded_policy`] does, at
    /// `O(|touched|)` cost instead of `O(n)`. A user staged twice is one
    /// entry of the set, so a repeated departure counts once.
    ///
    /// # Precondition
    /// `committed` is masking, total and policy-aware `k`-anonymous over
    /// the database at the commit, and `db` differs from that database
    /// only in the users of `touched`. Every policy the runtime publishes
    /// is a `Bulk_dp` extraction over the committed database, so it
    /// holds there: each group has at least `k` members, and each
    /// member's committed location lies inside its cloak.
    ///
    /// Why that makes the delta exact: every candidate region of a group
    /// — the cloak, then its semi-quadrant ancestors from
    /// [`ancestor_chain`] — contains the cloak. An unmoved member lies
    /// inside its cloak, so it never changes which candidate wins. A
    /// group's rung then depends only on its live count (committed size
    /// minus departed members) and the bounding box of its touched live
    /// members' current locations. An untouched group keeps all of its
    /// `k` or more members inside its cloak, and stays on the Committed
    /// rung.
    ///
    /// Committed group sizes are counted, in one walk over the committed
    /// cloak-id column, only when some touched group lost a member.
    pub(crate) fn derive(
        committed: &BulkPolicy,
        db: &LocationDb,
        touched: &BTreeSet<UserId>,
        map: &Rect,
        k: usize,
    ) -> Self {
        let mut index: HashMap<u32, usize> = HashMap::new();
        let mut groups: Vec<(u32, Group, usize)> = Vec::new(); // with its departed members
        for &user in touched {
            // Joined after the commit: no committed cloak, shed by lookup.
            let Some((id, &cloak)) = committed.cloak_entry(user) else { continue };
            let g = *index.entry(id).or_insert_with(|| {
                groups.push((id, Group::whole(cloak), 0));
                groups.len() - 1
            });
            let Some((_, group, departed)) = groups.get_mut(g) else { continue };
            match db.location(user) {
                Some(p) => group.cover(p),
                None => *departed += 1,
            }
        }
        if groups.iter().any(|&(_, _, departed)| departed > 0) {
            let sizes = committed.group_sizes();
            for (id, group, departed) in &mut groups {
                if *departed > 0 {
                    let size = sizes.get(*id as usize).copied().unwrap_or(0);
                    group.live = Some(size.saturating_sub(*departed));
                }
            }
        }
        let touched = groups.iter().map(|(id, g, _)| (*id, g.serve(map, k))).collect();
        DegradedDelta { touched }
    }

    /// How many groups had their rung re-derived.
    pub(crate) fn groups(&self) -> usize {
        self.touched.len()
    }

    /// The region and rung a member of the committed group `id`, whose
    /// cloak is `cloak`, is served on, or `None` when it is shed. An
    /// untouched group keeps its committed cloak; a circle has no
    /// semi-quadrant ancestors and is shed, as in [`degraded_policy`].
    pub(crate) fn serve(&self, id: u32, cloak: &Region) -> Option<(Region, Rung)> {
        match self.touched.get(&id) {
            Some(&decision) => decision,
            None => cloak.rect().map(|_| (*cloak, Rung::Committed)),
        }
    }
}

/// One committed cloak group's live members, as both derivations need
/// them: how many, and the bounding box of where they are now.
struct Group {
    cloak: Region,
    /// Live members, or `None` for a group the delta saw lose nobody: it
    /// is whole, so it has at least `k` members by the precondition.
    live: Option<usize>,
    /// Smallest and largest corner of the covered locations; `None` when
    /// none are (a touched group whose touched members all departed).
    bounds: Option<(Point, Point)>,
}

impl Group {
    /// A group whose live members are counted as they are covered.
    fn counted(cloak: Region) -> Self {
        Group { cloak, live: Some(0), bounds: None }
    }

    /// A group taken whole from the commit until a departure is seen.
    fn whole(cloak: Region) -> Self {
        Group { cloak, live: None, bounds: None }
    }

    /// Counts one more live member, at `p`.
    fn add(&mut self, p: Point) {
        self.live = self.live.map(|live| live + 1);
        self.cover(p);
    }

    /// Widens the bounding box to hold `p`.
    fn cover(&mut self, p: Point) {
        self.bounds = Some(match self.bounds {
            None => (p, p),
            Some((lo, hi)) => {
                (Point::new(lo.x.min(p.x), lo.y.min(p.y)), Point::new(hi.x.max(p.x), hi.y.max(p.y)))
            }
        });
    }

    /// The region and rung this group is served on, or `None` when it is
    /// shed: the one rung decision [`degraded_policy`] and
    /// [`DegradedDelta`] share.
    fn serve(&self, map: &Rect, k: usize) -> Option<(Region, Rung)> {
        let Region::Rect(cloak) = self.cloak else {
            return None; // circle cloaks have no semi-quadrant ancestors
        };
        if self.live.is_some_and(|live| live < k) {
            return None; // group too small now — shedding beats a weaker cloak
        }
        let holds_all =
            |r: &Rect| self.bounds.is_none_or(|(lo, hi)| r.contains(&lo) && r.contains(&hi));
        if holds_all(&cloak) {
            return Some((self.cloak, Rung::Committed));
        }
        // None when somebody left the map entirely.
        let ancestor = smallest_holding_ancestor(map, &cloak, holds_all)?;
        Some((Region::Rect(ancestor), Rung::Coarsened))
    }
}

/// The smallest rectangle of [`ancestor_chain`]`(map, cloak)` that
/// `holds`, or `None` when not even `map` does — without building the
/// chain. `holds` must be monotone under containment (true of a rectangle
/// whenever it is true of one inside it), as holding a set of points is:
/// the holding rectangles of the chain are then the ones from `map` down
/// to some depth. So this walks down from `map` toward `cloak` while the
/// next semi-quadrant still holds, stopping where the chain ends: at
/// `cloak` itself, at a 1×1 cell, or at the smallest semi-quadrant that
/// contains a `cloak` that is no semi-quadrant.
fn smallest_holding_ancestor(
    map: &Rect,
    cloak: &Rect,
    holds: impl Fn(&Rect) -> bool,
) -> Option<Rect> {
    if !holds(map) {
        return None;
    }
    let mut cur = *map;
    while cur != *cloak && (cur.width() > 1 || cur.height() > 1) {
        let (a, b) = cur.split(cur.binary_split_axis());
        let next = if a.contains_rect(cloak) {
            a
        } else if b.contains_rect(cloak) {
            b
        } else {
            break;
        };
        if !holds(&next) {
            break;
        }
        cur = next;
    }
    Some(cur)
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

    /// The allocation-free walk finds the rectangle the chain's scan
    /// finds, on semi-quadrant cloaks down to 1×1 cells, on cloaks that
    /// are no semi-quadrant (some reaching off the map), and on bounds
    /// that leave the map.
    #[test]
    fn ancestor_walk_matches_the_chain_scan() {
        let mut rng = StdRng::seed_from_u64(0xA9C3);
        let mut kinds = [0usize; 4]; // semi-quadrant, 1×1, odd, no ancestor holds
        for _ in 0..4000 {
            let side = 1i64 << rng.gen_range(0..8);
            let map = Rect::square(rng.gen_range(-20..20), rng.gen_range(-20..20), side);
            let cloak = if rng.gen_bool(0.6) {
                let mut cur = map;
                for _ in 0..rng.gen_range(0..20) {
                    if cur.width() <= 1 && cur.height() <= 1 {
                        break;
                    }
                    let (a, b) = cur.split(cur.binary_split_axis());
                    cur = if rng.gen_bool(0.5) { a } else { b };
                }
                kinds[usize::from(cur.width() <= 1 && cur.height() <= 1)] += 1;
                cur
            } else {
                kinds[2] += 1;
                let x0 = map.x0 + rng.gen_range(-2..side + 2);
                let y0 = map.y0 + rng.gen_range(-2..side + 2);
                Rect::new(
                    x0,
                    y0,
                    x0 + rng.gen_range(1..=side + 1),
                    y0 + rng.gen_range(1..=side + 1),
                )
            };
            let corner = |rng: &mut StdRng| {
                Point::new(
                    map.x0 + rng.gen_range(-3..side + 3),
                    map.y0 + rng.gen_range(-3..side + 3),
                )
            };
            let (p, q) = (corner(&mut rng), corner(&mut rng));
            let (lo, hi) =
                (Point::new(p.x.min(q.x), p.y.min(q.y)), Point::new(p.x.max(q.x), p.y.max(q.y)));
            let holds = |r: &Rect| r.contains(&lo) && r.contains(&hi);
            let want = ancestor_chain(&map, &cloak).into_iter().find(holds);
            kinds[3] += usize::from(want.is_none());
            assert_eq!(
                smallest_holding_ancestor(&map, &cloak, holds),
                want,
                "map {map}, cloak {cloak}, bounds {lo}..{hi}"
            );
        }
        assert!(kinds.iter().all(|&n| n > 200), "every kind must occur: {kinds:?}");
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
        let mut inc = IncrementalAnonymizer::new(&db, cfg, k).unwrap();
        let policy = inc.policy().unwrap().clone();
        (db, policy, map)
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
    /// commit has not seen.
    struct Churned {
        committed: BulkPolicy,
        db: LocationDb,
        map: Rect,
        k: usize,
        /// Every user the churn moved, deleted or inserted.
        touched: BTreeSet<UserId>,
        /// Whether `committed` is still the commit's own `Bulk_dp` output
        /// (no group was given a circle or an odd cloak).
        bulk_dp: bool,
    }

    /// Near and far moves (some off the map), inserts, deletes deep
    /// enough to drop groups below `k`, and now and then a circle cloak or
    /// a cloak that is no semi-quadrant at all.
    fn churned_scenario(seed: u64) -> Churned {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_0A4D);
        let k = rng.gen_range(2..=6);
        let n = rng.gen_range(3 * k..=120);
        let (db, mut committed, map) = scenario(seed, n, k);
        let side = map.width();
        let (p_move, p_far, p_off, p_delete) =
            (rng.gen_range(0.0..0.6), rng.gen_range(0.0..0.5), 0.05, rng.gen_range(0.0..0.4));
        let mut rows = Vec::new();
        let mut touched = BTreeSet::new();
        for (user, p) in db.iter() {
            if rng.gen_bool(p_delete) {
                touched.insert(user);
                continue;
            }
            let moved = rng.gen_bool(p_move);
            let to = if !moved {
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
            if moved {
                touched.insert(user);
            }
            rows.push((user, to));
        }
        for i in 0..rng.gen_range(0..6u64) {
            touched.insert(UserId(10_000 + i));
            rows.push((
                UserId(10_000 + i),
                Point::new(rng.gen_range(0..side), rng.gen_range(0..side)),
            ));
        }
        let groups = committed.groups();
        let mut regions: Vec<&Region> = groups.keys().collect();
        regions.sort_by_key(|r| groups[*r].first().copied());
        let circled = rng.gen_bool(0.3);
        if circled {
            let members = &groups[regions[rng.gen_range(0..regions.len())]];
            let circle =
                Region::Circle(Circle::from_radius2(Point::new(side / 2, side / 2), 1 << 14));
            for &u in members {
                committed.assign(u, circle);
            }
        }
        let odd = rng.gen_bool(0.3);
        if odd {
            let members = &groups[regions[rng.gen_range(0..regions.len())]];
            let (x0, y0) = (rng.gen_range(0..side / 2), rng.gen_range(0..side / 2));
            let cloak = Region::Rect(Rect::new(x0, y0, x0 + rng.gen_range(1..side / 2), y0 + 13));
            for &u in members {
                committed.assign(u, cloak);
            }
        }
        let db = LocationDb::from_rows(rows).unwrap();
        Churned { committed, db, map, k, touched, bulk_dp: !circled && !odd }
    }

    /// The whole derivation against the reference over every scenario,
    /// the circle and odd cloaks included. The delta is not run on those
    /// two: the odd cloak is handed to a group without regard to where
    /// its members are, so it need not mask them, and neither cloak is a
    /// `Bulk_dp` output. That breaks [`DegradedDelta::derive`]'s
    /// precondition — an untouched member outside its cloak would change
    /// the rung without being looked at — and no policy the runtime
    /// publishes does it.
    #[test]
    fn one_pass_derivation_matches_the_reference() {
        let mut seen = [0usize; 3]; // committed, coarsened, shed senders
        for seed in 0..240 {
            let Churned { committed, db, map, k, .. } = churned_scenario(seed);
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

    /// The delta serves every sender what the whole derivation serves, on
    /// the scenarios whose committed policy is the commit's `Bulk_dp`
    /// output, with only the churned users as the touched set.
    #[test]
    fn delta_serves_what_the_whole_derivation_serves() {
        let (mut scenarios, mut served, mut with_departures) = (0, [0usize; 3], 0);
        for seed in 0..240 {
            let Churned { committed, db, map, k, touched, bulk_dp } = churned_scenario(seed);
            if !bulk_dp {
                continue;
            }
            let delta = DegradedDelta::derive(&committed, &db, &touched, &map, k);
            let want = degraded_policy(&committed, &db, &map, k);
            for user in db.users() {
                let got =
                    committed.cloak_entry(user).and_then(|(id, cloak)| delta.serve(id, cloak));
                let expected =
                    want.policy.cloak_of(user).map(|region| (*region, want.rungs[&user]));
                assert_eq!(got, expected, "seed {seed}: {user}");
                served[match got {
                    Some((_, Rung::Committed)) => 0,
                    Some((_, _)) => 1,
                    None => 2,
                }] += 1;
            }
            assert!(delta.groups() <= touched.len(), "seed {seed}");
            with_departures += touched.iter().any(|&u| !db.contains(u)) as usize;
            scenarios += 1;
        }
        assert!(scenarios > 80, "{scenarios} scenarios kept their Bulk_dp policy");
        assert!(served.iter().all(|&c| c > 100), "every outcome must occur: {served:?}");
        assert!(with_departures > 40, "departures must occur: {with_departures}");
    }

    #[test]
    fn unchanged_database_stays_on_the_committed_rung() {
        let k = 4;
        let (db, committed, map) = scenario(3, 40, k);
        let degraded = degraded_policy(&committed, &db, &map, k);
        assert!(degraded.shed.is_empty());
        let delta = DegradedDelta::derive(&committed, &db, &BTreeSet::new(), &map, k);
        assert_eq!(delta.groups(), 0, "nothing staged, nothing to derive");
        for (user, region) in committed.iter() {
            assert_eq!(degraded.policy.cloak_of(user), Some(region));
            assert_eq!(degraded.rungs.get(&user), Some(&Rung::Committed));
            let (id, _) = committed.cloak_entry(user).unwrap();
            assert_eq!(delta.serve(id, region), Some((*region, Rung::Committed)));
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
