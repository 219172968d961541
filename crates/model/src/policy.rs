//! Cloaking policies (Definition 4) and bulk per-snapshot policies.

use crate::{AnonymizedRequest, LocationDb, RequestId, ServiceRequest, UserId};
use lbs_geom::{Area, Region};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A deterministic cloaking procedure — the paper's Definition 4, restricted
/// to the *masking* policies the paper studies (the cloak must contain the
/// sender's location).
///
/// The request parameters `V` never influence cloak choice in any algorithm
/// of the paper, so implementations cloak a *user* within a snapshot; the
/// full `(D, SR) → AR` function of Definition 4 is recovered by
/// [`CloakingPolicy::anonymize`].
pub trait CloakingPolicy {
    /// Human-readable policy name, used in experiment output.
    fn name(&self) -> &str;

    /// The cloak assigned to `user` under snapshot `db`, or `None` when the
    /// policy cannot anonymize this user (e.g. fewer than k users exist).
    fn cloak(&self, db: &LocationDb, user: UserId) -> Option<Region>;

    /// Definition 4 proper: maps a service request to an anonymized request.
    fn anonymize(
        &self,
        db: &LocationDb,
        sr: &ServiceRequest,
        rid: RequestId,
    ) -> Option<AnonymizedRequest> {
        if !sr.is_valid(db) {
            return None;
        }
        let region = self.cloak(db, sr.user)?;
        debug_assert!(region.contains(&sr.location), "policy must be masking");
        Some(AnonymizedRequest::new(rid, region, sr.params.clone()))
    }

    /// Materializes the policy for every user of `db` — the request set used
    /// by Definition 8's `Cost(P, D)` ("every user sends precisely one
    /// request"). Users the policy cannot anonymize are omitted.
    fn materialize(&self, db: &LocationDb) -> BulkPolicy {
        let mut bulk = BulkPolicy::new(self.name());
        for (user, _) in db.iter() {
            if let Some(region) = self.cloak(db, user) {
                bulk.assign(user, region);
            }
        }
        bulk
    }
}

/// A fully materialized policy for one snapshot: a total map from users to
/// cloaks (the overloaded notion of Section IV, footnote 1).
///
/// This is what bulk anonymization computes, what `Cost(P, D)` is defined
/// over, and what a policy-aware attacker knows in its entirety.
/// The cloak table is a `BTreeMap` so that serialization (JSON debug
/// dumps, future replication snapshots) and [`BulkPolicy::iter`] are
/// deterministic — hash iteration order would leak process-local state
/// into every serialized artifact (`no-hashmap-in-serialized-output`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BulkPolicy {
    name: String,
    cloaks: BTreeMap<UserId, Region>,
}

impl BulkPolicy {
    /// Creates an empty bulk policy.
    pub fn new(name: impl Into<String>) -> Self {
        BulkPolicy { name: name.into(), cloaks: BTreeMap::new() }
    }

    /// Policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Assigns (or reassigns) `user`'s cloak.
    pub fn assign(&mut self, user: UserId, region: Region) {
        self.cloaks.insert(user, region);
    }

    /// Removes `user`'s cloak, returning it if one was assigned.
    pub fn remove(&mut self, user: UserId) -> Option<Region> {
        self.cloaks.remove(&user)
    }

    /// Builds a policy from one batch of assignments.
    ///
    /// Equivalent to [`BulkPolicy::assign`]-ing every pair in order
    /// (later duplicates win), but bulk-loads the cloak table instead of
    /// growing it by one random-order insert per user — at
    /// bulk-anonymization scale (millions of users) the per-insert
    /// rebalancing and cache misses dominate extraction time.
    pub fn from_assignments(name: impl Into<String>, assignments: Vec<(UserId, Region)>) -> Self {
        // `BTreeMap::from_iter` is std's bulk build: a stable sort by user
        // (equal ids keep batch order, so the last occurrence wins —
        // exactly the repeated-`assign` semantics) and one bottom-up load
        // of full nodes. Already-sorted input, such as a k-way merge of
        // per-jurisdiction policies, sorts in one linear pass.
        BulkPolicy { name: name.into(), cloaks: BTreeMap::from_iter(assignments) }
    }

    /// The cloak of `user`, if assigned.
    pub fn cloak_of(&self, user: UserId) -> Option<&Region> {
        self.cloaks.get(&user)
    }

    /// Number of users with an assigned cloak.
    pub fn len(&self) -> usize {
        self.cloaks.len()
    }

    /// Whether no user has a cloak.
    pub fn is_empty(&self) -> bool {
        self.cloaks.is_empty()
    }

    /// Iterates `(user, cloak)` assignments in ascending user-id order
    /// (deterministic across runs).
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &Region)> + '_ {
        self.cloaks.iter().map(|(&u, r)| (u, r))
    }

    /// Groups users by their cloak. A policy-aware attacker observing a
    /// request with cloak `ρ` knows the sender lies in `groups()[ρ]`, so
    /// policy-aware sender k-anonymity of a bulk policy is exactly
    /// "every group has at least k members" (Lemma 3 via configurations).
    pub fn groups(&self) -> HashMap<Region, Vec<UserId>> {
        let mut groups: HashMap<Region, Vec<UserId>> = HashMap::new();
        for (&user, &region) in &self.cloaks {
            groups.entry(region).or_default().push(user);
        }
        for members in groups.values_mut() {
            members.sort_unstable();
        }
        groups
    }

    /// The smallest cloak-group size, or `None` for an empty policy.
    pub fn min_group_size(&self) -> Option<usize> {
        self.groups().values().map(Vec::len).min()
    }

    /// Whether every assigned cloak contains its user's location and every
    /// user of `db` has a cloak — i.e. the policy is masking and total.
    pub fn is_masking_and_total(&self, db: &LocationDb) -> bool {
        db.iter().all(|(user, point)| {
            self.cloaks.get(&user).is_some_and(|region| region.contains(&point))
        })
    }

    /// `Cost(P, D)` (Definition 8): the exact sum of rectangular cloak
    /// areas. Returns `None` if any cloak is non-rectangular (circular
    /// cloak costs are compared via [`BulkPolicy::cost_f64`]).
    pub fn cost_exact(&self) -> Option<Area> {
        self.cloaks.values().map(|r| r.rect().map(|rect| rect.area())).sum()
    }

    /// `Cost(P, D)` as `f64`, defined for all cloak shapes.
    pub fn cost_f64(&self) -> f64 {
        self.cloaks.values().map(Region::area_f64).sum()
    }

    /// Average cloak area per anonymized user (the paper's Figure 5(a)
    /// metric), or 0 for an empty policy.
    pub fn avg_area_f64(&self) -> f64 {
        if self.cloaks.is_empty() {
            0.0
        } else {
            self.cost_f64() / self.cloaks.len() as f64
        }
    }

    /// Summary statistics for experiment reporting.
    pub fn stats(&self) -> PolicyStats {
        let groups = self.groups();
        PolicyStats {
            users: self.cloaks.len(),
            groups: groups.len(),
            min_group: groups.values().map(Vec::len).min().unwrap_or(0),
            max_group: groups.values().map(Vec::len).max().unwrap_or(0),
            cost_exact: self.cost_exact(),
            cost_f64: self.cost_f64(),
            avg_area: self.avg_area_f64(),
        }
    }
}

/// Consumes the policy into its `(user, cloak)` assignments, in
/// ascending user-id order.
impl IntoIterator for BulkPolicy {
    type Item = (UserId, Region);
    type IntoIter = std::collections::btree_map::IntoIter<UserId, Region>;

    fn into_iter(self) -> Self::IntoIter {
        self.cloaks.into_iter()
    }
}

impl CloakingPolicy for BulkPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn cloak(&self, _db: &LocationDb, user: UserId) -> Option<Region> {
        self.cloaks.get(&user).copied()
    }
}

/// Summary of a bulk policy, for experiment tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyStats {
    /// Users with an assigned cloak.
    pub users: usize,
    /// Distinct cloak regions in use.
    pub groups: usize,
    /// Smallest cloak group (≥ k ⟺ policy-aware k-anonymous).
    pub min_group: usize,
    /// Largest cloak group.
    pub max_group: usize,
    /// Exact total cost when all cloaks are rectangles.
    pub cost_exact: Option<Area>,
    /// Total cost as f64 (valid for all shapes).
    pub cost_f64: f64,
    /// Average cloak area per user.
    pub avg_area: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestParams;
    use lbs_geom::{Point, Rect};

    fn db() -> LocationDb {
        LocationDb::from_rows([
            (UserId(1), Point::new(1, 1)),
            (UserId(2), Point::new(1, 2)),
            (UserId(3), Point::new(3, 3)),
        ])
        .unwrap()
    }

    fn policy() -> BulkPolicy {
        let mut p = BulkPolicy::new("test");
        let r1: Region = Rect::new(0, 0, 2, 4).into();
        let r2: Region = Rect::new(2, 2, 4, 4).into();
        p.assign(UserId(1), r1);
        p.assign(UserId(2), r1);
        p.assign(UserId(3), r2);
        p
    }

    #[test]
    fn groups_partition_users() {
        let p = policy();
        let groups = p.groups();
        assert_eq!(groups.len(), 2);
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, 3);
        assert_eq!(p.min_group_size(), Some(1));
    }

    #[test]
    fn cost_is_sum_of_areas() {
        let p = policy();
        // Two users in an 8 m² cloak plus one in a 4 m² cloak.
        assert_eq!(p.cost_exact(), Some(8 + 8 + 4));
        assert_eq!(p.cost_f64(), 20.0);
        assert!((p.avg_area_f64() - 20.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn masking_and_totality() {
        let db = db();
        let p = policy();
        assert!(p.is_masking_and_total(&db));

        let mut partial = p.clone();
        partial.assign(UserId(3), Rect::new(0, 0, 1, 1).into());
        assert!(!partial.is_masking_and_total(&db), "cloak misses user 3");

        let mut missing = BulkPolicy::new("missing");
        missing.assign(UserId(1), Rect::new(0, 0, 4, 4).into());
        assert!(!missing.is_masking_and_total(&db), "users 2,3 uncovered");
    }

    #[test]
    fn anonymize_copies_params_and_masks() {
        let db = db();
        let p = policy();
        let sr = ServiceRequest::new(
            UserId(2),
            Point::new(1, 2),
            RequestParams::from_pairs([("poi", "rest")]),
        );
        let ar = p.anonymize(&db, &sr, RequestId(167)).unwrap();
        assert!(ar.masks(&sr));
        assert_eq!(ar.rid, RequestId(167));

        let invalid = ServiceRequest::new(UserId(2), Point::new(9, 9), sr.params.clone());
        assert!(p.anonymize(&db, &invalid, RequestId(1)).is_none());
    }

    /// The batch a sequence of `assign` calls would see: equal ids in
    /// `batch` order, so the last occurrence is the one that sticks.
    fn assigned_one_by_one(batch: &[(UserId, Region)]) -> BulkPolicy {
        let mut p = BulkPolicy::new("batch");
        for &(user, region) in batch {
            p.assign(user, region);
        }
        p
    }

    #[test]
    fn from_assignments_keeps_the_last_duplicate() {
        let r = |x: i64| -> Region { Rect::new(x, 0, x + 1, 1).into() };
        let batch =
            vec![(UserId(5), r(0)), (UserId(1), r(1)), (UserId(5), r(2)), (UserId(3), r(3))];
        let bulk = BulkPolicy::from_assignments("batch", batch.clone());
        assert_eq!(bulk.cloak_of(UserId(5)), Some(&r(2)), "the later duplicate wins");
        assert_eq!(bulk.len(), 3);
        assert!(bulk.iter().eq(assigned_one_by_one(&batch).iter()));
        let owned: Vec<(UserId, Region)> = bulk.into_iter().collect();
        assert_eq!(owned, vec![(UserId(1), r(1)), (UserId(3), r(3)), (UserId(5), r(2))]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Shuffled batches over a small id space (so ids repeat) build
        /// the same policy as repeated `assign` in batch order.
        #[test]
        fn from_assignments_matches_repeated_assign(
            raw in proptest::collection::vec((0u64..24, 0i64..8), 0..64)
        ) {
            let batch: Vec<(UserId, Region)> = raw
                .iter()
                .map(|&(user, x)| (UserId(user), Rect::new(x, 0, x + 1, 1).into()))
                .collect();
            let bulk = BulkPolicy::from_assignments("batch", batch.clone());
            let reference = assigned_one_by_one(&batch);
            proptest::prop_assert_eq!(bulk.len(), reference.len());
            proptest::prop_assert!(bulk.iter().eq(reference.iter()));
        }
    }

    #[test]
    fn materialize_covers_all_users() {
        let db = db();
        let p = policy();
        let bulk = p.materialize(&db);
        assert_eq!(bulk.len(), 3);
        assert_eq!(bulk.stats().groups, 2);
    }
}
