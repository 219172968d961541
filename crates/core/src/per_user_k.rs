//! User-specified anonymity levels — the second future-work extension
//! named in the paper's Section I ("allowing *user specified k*", after
//! \[14\] and \[11\]).
//!
//! Each user declares their own `k_u`. A policy is policy-aware anonymous
//! for such requirements when every cloak group `G` satisfies
//! `|G| ≥ max_{u ∈ G} k_u`: the policy-aware attacker's candidate set for
//! any member's request is `G`, which must be large enough for the most
//! demanding member.
//!
//! The construction here is *tiered*: partition users into classes by
//! requested k, run the optimal policy-aware DP per class (highest k
//! first), and merge. Groups never mix classes, so each group trivially
//! satisfies its members' common requirement. A class too small to
//! anonymize itself is folded into the next lower class, which is then
//! anonymized at the *folded class's higher k* — conservative but sound.
//! Tiering gives up some utility versus a hypothetical joint optimum
//! (mixed-k groups could be cheaper) but stays optimal within each class;
//! a joint DP would need per-class pass-up counts in the configuration
//! state, which the paper leaves open.

use crate::{Anonymizer, CoreError};
use lbs_geom::Rect;
use lbs_model::{BulkPolicy, LocationDb, UserId};
use std::collections::HashMap;

/// Per-user anonymity requirements. Users absent from the map fall back
/// to the default level.
#[derive(Debug, Clone)]
pub struct KRequirements {
    default_k: usize,
    overrides: HashMap<UserId, usize>,
}

impl KRequirements {
    /// Requirements with a default level for unlisted users.
    pub fn with_default(default_k: usize) -> Self {
        assert!(default_k >= 1, "k must be at least 1");
        KRequirements { default_k, overrides: HashMap::new() }
    }

    /// Sets one user's requested level.
    pub fn set(&mut self, user: UserId, k: usize) {
        assert!(k >= 1, "k must be at least 1");
        self.overrides.insert(user, k);
    }

    /// The level `user` requires.
    pub fn k_of(&self, user: UserId) -> usize {
        self.overrides.get(&user).copied().unwrap_or(self.default_k)
    }

    /// The highest level any user requires in `db`.
    pub fn max_k(&self, db: &LocationDb) -> usize {
        db.users().map(|u| self.k_of(u)).max().unwrap_or(self.default_k)
    }
}

/// Builds a policy-aware anonymous policy honoring per-user k via class
/// tiering.
///
/// # Errors
/// [`CoreError::InsufficientPopulation`] when even the union of all
/// classes cannot satisfy the strictest surviving requirement.
pub fn anonymize_per_user_k(
    db: &LocationDb,
    map: Rect,
    requirements: &KRequirements,
) -> Result<BulkPolicy, CoreError> {
    // Classes sorted by k descending; fold-down merges walk this order.
    let mut classes: HashMap<usize, Vec<(UserId, lbs_geom::Point)>> = HashMap::new();
    for (user, point) in db.iter() {
        classes.entry(requirements.k_of(user)).or_default().push((user, point));
    }
    let mut tiers: Vec<(usize, Vec<(UserId, lbs_geom::Point)>)> = classes.into_iter().collect();
    tiers.sort_by_key(|tier| std::cmp::Reverse(tier.0));

    let mut parts: Vec<BulkPolicy> = Vec::new();
    let mut carry: Option<(usize, Vec<(UserId, lbs_geom::Point)>)> = None;
    for (tier_k, mut members) in tiers {
        // A folded-down class raises this tier's effective k.
        let mut effective_k = tier_k;
        if let Some((carried_k, carried)) = carry.take() {
            effective_k = effective_k.max(carried_k);
            members.extend(carried);
        }
        if members.len() < effective_k {
            carry = Some((effective_k, members));
            continue;
        }
        let sub = LocationDb::from_rows(members)
            .map_err(|e| CoreError::Tree(format!("per-user-k tier snapshot: {e}")))?;
        parts.push(Anonymizer::build(&sub, map, effective_k)?.into_policy());
    }
    if let Some((k, members)) = carry {
        // Even the loosest class (plus folded remnants) was too small.
        return Err(CoreError::InsufficientPopulation { population: members.len(), k });
    }
    Ok(BulkPolicy::merge("policy-aware-per-user-k", &parts))
}

/// Checks policy-aware anonymity under per-user requirements: every
/// nonempty cloak group must be at least as large as its most demanding
/// member requires (and mask every member).
///
/// # Errors
/// Returns the offending `(group size, required k)` pairs.
pub fn verify_per_user_k(
    policy: &BulkPolicy,
    db: &LocationDb,
    requirements: &KRequirements,
) -> Result<(), Vec<(usize, usize)>> {
    let mut violations = Vec::new();
    for (user, point) in db.iter() {
        match policy.cloak_of(user) {
            None => violations.push((0, requirements.k_of(user))),
            Some(region) if !region.contains(&point) => {
                violations.push((0, requirements.k_of(user)))
            }
            Some(_) => {}
        }
    }
    for members in policy.group_members() {
        let required = members.iter().map(|&u| requirements.k_of(u)).max().unwrap_or(1);
        if members.len() < required {
            violations.push((members.len(), required));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_geom::Point;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_db(rng: &mut StdRng, n: usize, side: i64) -> LocationDb {
        LocationDb::from_rows((0..n).map(|i| {
            (UserId(i as u64), Point::new(rng.gen_range(0..side), rng.gen_range(0..side)))
        }))
        .unwrap()
    }

    #[test]
    fn mixed_requirements_are_honored() {
        let mut rng = StdRng::seed_from_u64(21);
        let side = 256i64;
        let db = random_db(&mut rng, 120, side);
        let mut reqs = KRequirements::with_default(3);
        for u in 0..30u64 {
            reqs.set(UserId(u), 10);
        }
        for u in 30..40u64 {
            reqs.set(UserId(u), 20);
        }
        let policy = anonymize_per_user_k(&db, Rect::square(0, 0, side), &reqs).unwrap();
        assert!(policy.is_masking_and_total(&db));
        verify_per_user_k(&policy, &db, &reqs).unwrap();
        // Demanding users sit in groups of >= 10 / >= 20.
        let groups = policy.groups();
        for members in groups.values() {
            let required = members.iter().map(|&u| reqs.k_of(u)).max().unwrap();
            assert!(members.len() >= required);
        }
    }

    #[test]
    fn cost_between_min_k_and_max_k_uniform_policies() {
        let mut rng = StdRng::seed_from_u64(5);
        let side = 512i64;
        let db = random_db(&mut rng, 200, side);
        let map = Rect::square(0, 0, side);
        let mut reqs = KRequirements::with_default(4);
        for u in 0..50u64 {
            reqs.set(UserId(u), 16);
        }
        let per_user = anonymize_per_user_k(&db, map, &reqs).unwrap();
        let min_uniform = Anonymizer::build(&db, map, 4).unwrap().cost();
        let cost = per_user.cost_exact().unwrap();
        assert!(
            cost >= min_uniform,
            "honoring k=16 users cannot be cheaper than all-k=4: {cost} < {min_uniform}"
        );
    }

    #[test]
    fn tiny_strict_class_folds_into_looser_class() {
        // Three users demand k=5 but only 3 exist in that class: they must
        // be anonymized together with the default-k users at k=5.
        let db = LocationDb::from_rows((0..10).map(|i| (UserId(i), Point::new(i as i64 * 3, 7))))
            .unwrap();
        let mut reqs = KRequirements::with_default(2);
        for u in 0..3u64 {
            reqs.set(UserId(u), 5);
        }
        let policy = anonymize_per_user_k(&db, Rect::square(0, 0, 32), &reqs).unwrap();
        verify_per_user_k(&policy, &db, &reqs).unwrap();
        // All ten users were anonymized at k=5 (conservative fold).
        for (_, members) in policy.groups() {
            assert!(members.len() >= 5);
        }
    }

    #[test]
    fn impossible_requirements_error() {
        let db =
            LocationDb::from_rows([(UserId(0), Point::new(1, 1)), (UserId(1), Point::new(2, 2))])
                .unwrap();
        let reqs = KRequirements::with_default(3);
        assert!(matches!(
            anonymize_per_user_k(&db, Rect::square(0, 0, 8), &reqs),
            Err(CoreError::InsufficientPopulation { population: 2, k: 3 })
        ));
    }

    #[test]
    fn verifier_catches_under_provisioned_groups() {
        let db =
            LocationDb::from_rows([(UserId(0), Point::new(1, 1)), (UserId(1), Point::new(2, 2))])
                .unwrap();
        let mut reqs = KRequirements::with_default(1);
        reqs.set(UserId(0), 2);
        let mut policy = BulkPolicy::new("bad");
        policy.assign(UserId(0), Rect::new(0, 0, 4, 4).into()); // alone, needs 2
        policy.assign(UserId(1), Rect::new(0, 0, 8, 8).into());
        let violations = verify_per_user_k(&policy, &db, &reqs).unwrap_err();
        assert!(violations.contains(&(1, 2)));
    }

    #[test]
    fn uniform_requirements_match_plain_anonymizer_cost() {
        let mut rng = StdRng::seed_from_u64(9);
        let db = random_db(&mut rng, 80, 128);
        let map = Rect::square(0, 0, 128);
        let reqs = KRequirements::with_default(6);
        let per_user = anonymize_per_user_k(&db, map, &reqs).unwrap();
        let uniform = Anonymizer::build(&db, map, 6).unwrap();
        assert_eq!(per_user.cost_exact(), Some(uniform.cost()));
    }
}
