//! Independent verification of policy-aware sender k-anonymity, plus a
//! brute-force optimal-cost oracle for testing the dynamic programs.

use crate::Configuration;
use lbs_geom::Region;
use lbs_model::{BulkPolicy, LocationDb, UserId};
use lbs_tree::SpatialTree;

/// A way in which a bulk policy fails policy-aware sender k-anonymity.
#[derive(Debug, Clone, PartialEq)]
pub enum AnonymityViolation {
    /// A user of the snapshot has no cloak assigned (the policy is not a
    /// total function on `D`, so "every user sends one request" breaks it).
    Unassigned(UserId),
    /// A user's cloak does not contain their location (not masking,
    /// Definition 4).
    NotMasking {
        /// The offending user.
        user: UserId,
        /// Their cloak.
        region: Region,
    },
    /// A cloak is shared by fewer than k users: a policy-aware attacker
    /// reverse-engineers any request with this cloak to fewer than k
    /// possible senders (the Example 1 breach).
    SmallGroup {
        /// The under-populated cloak.
        region: Region,
        /// The users mapped to it — the attacker's full candidate set.
        members: Vec<UserId>,
    },
}

/// Checks that `policy` provides sender k-anonymity against policy-aware
/// attackers on `db` (Definition 6 specialized to bulk policies).
///
/// A policy-aware attacker knows the entire user→cloak map, so the PREs of
/// a request with cloak `ρ` are exactly the users assigned `ρ`; k pairwise
/// sender-distinct PREs exist for every observable request set iff every
/// nonempty cloak group has at least k members (this is the policy-level
/// reading of Lemma 3). The check is deliberately independent of the DP:
/// it looks only at the policy and the snapshot.
///
/// # Errors
/// Returns every violation found.
pub fn verify_policy_aware(
    policy: &BulkPolicy,
    db: &LocationDb,
    k: usize,
) -> Result<(), Vec<AnonymityViolation>> {
    let mut violations = Vec::new();
    for (user, point) in db.iter() {
        match policy.cloak_of(user) {
            None => violations.push(AnonymityViolation::Unassigned(user)),
            Some(region) if !region.contains(&point) => {
                violations.push(AnonymityViolation::NotMasking { user, region: *region })
            }
            Some(_) => {}
        }
    }
    // In cloak-table order, so the violations come out in the same order
    // on every run; member lists are built only when some group is small.
    if policy.group_sizes().iter().any(|&size| size < k) {
        for (&region, members) in policy.cloaks().iter().zip(policy.group_members()) {
            if members.len() < k {
                violations.push(AnonymityViolation::SmallGroup { region, members });
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Exhaustively enumerates **all** configurations of `tree` (every node
/// value in `[0 ..= d(m)]`), keeping the complete, valid ones satisfying
/// k-summation, and returns the minimum cost — or `None` when no such
/// configuration exists.
///
/// Deliberately shares no logic with the DPs beyond the `Configuration`
/// predicates; exponential, so callers must keep instances tiny (the
/// function panics if the search space exceeds ~10⁷ assignments).
pub fn brute_force_optimal_cost(tree: &SpatialTree, k: usize) -> Option<u128> {
    let nodes = tree.postorder();
    let mut space: f64 = 1.0;
    for &id in &nodes {
        space *= (tree.count(id) + 1) as f64;
    }
    assert!(space <= 1e7, "brute force space {space} too large; shrink the instance");

    let mut values: Vec<usize> = vec![0; nodes.len()];
    let mut best: Option<u128> = None;
    loop {
        let mut config = Configuration::new();
        for (i, &id) in nodes.iter().enumerate() {
            config.set(id, values[i]);
        }
        if config.is_valid(tree)
            && config.is_complete(tree)
            && config.satisfies_k_summation(tree, k)
        {
            #[expect(
                clippy::expect_used,
                reason = "guarded by config.is_complete(tree) in the surrounding condition, so every node has a value"
            )]
            let cost = config.cost(tree).expect("all values set");
            best = Some(best.map_or(cost, |b: u128| b.min(cost)));
        }
        // Odometer increment over [0..=d(m)] per node.
        let mut i = 0;
        loop {
            if i == nodes.len() {
                return best;
            }
            if values[i] < tree.count(nodes[i]) {
                values[i] += 1;
                break;
            }
            values[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bulk_dp_dense, bulk_dp_fast};
    use lbs_geom::{Point, Rect};
    use lbs_tree::{TreeConfig, TreeKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn db(points: &[(i64, i64)]) -> LocationDb {
        LocationDb::from_rows(
            points.iter().enumerate().map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    }

    #[test]
    fn verifier_flags_the_example_1_breach() {
        // The k-inside policy of Example 1 cloaks C alone to R3: a
        // policy-aware attacker identifies C. The verifier must flag it.
        let d = db(&[(1, 1), (1, 2), (1, 3), (3, 1), (3, 3)]);
        let mut policy = BulkPolicy::new("2-inside");
        let r1: Region = Rect::new(0, 0, 2, 2).into();
        let r3: Region = Rect::new(0, 2, 2, 4).into();
        let r2: Region = Rect::new(2, 0, 4, 4).into();
        policy.assign(UserId(0), r1); // A — alone in r1!
        policy.assign(UserId(1), r3);
        policy.assign(UserId(2), r3);
        policy.assign(UserId(3), r2);
        policy.assign(UserId(4), r2);
        let violations = verify_policy_aware(&policy, &d, 2).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, AnonymityViolation::SmallGroup { members, .. } if members == &vec![UserId(0)])));
    }

    #[test]
    fn verifier_flags_unassigned_and_non_masking() {
        let d = db(&[(1, 1), (5, 5)]);
        let mut policy = BulkPolicy::new("broken");
        policy.assign(UserId(0), Rect::new(4, 4, 8, 8).into()); // misses (1,1)
        let violations = verify_policy_aware(&policy, &d, 1).unwrap_err();
        assert!(violations.iter().any(
            |v| matches!(v, AnonymityViolation::NotMasking { user, .. } if *user == UserId(0))
        ));
        assert!(violations.contains(&AnonymityViolation::Unassigned(UserId(1))));
    }

    #[test]
    fn brute_force_agrees_with_both_dps_on_random_tiny_instances() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..25 {
            let n = rng.gen_range(2..=6);
            // k = 1 would lazily split every occupied node down to unit
            // side, blowing up the brute-force search space.
            let k = rng.gen_range(2..=3);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..8), rng.gen_range(0..8))).collect();
            let d = db(&points);
            let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), k);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let brute = brute_force_optimal_cost(&tree, k);
            let dense = bulk_dp_dense(&tree, k).unwrap().optimal_cost(&tree).ok();
            let fast = bulk_dp_fast(&tree, k).unwrap().optimal_cost(&tree).ok();
            assert_eq!(brute, dense, "trial {trial} (n={n}, k={k}) dense");
            assert_eq!(brute, fast, "trial {trial} (n={n}, k={k}) fast");
        }
    }

    #[test]
    fn brute_force_agrees_on_quad_trees_too() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let n = rng.gen_range(2..=5);
            let k = rng.gen_range(1..=2);
            let points: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..8), rng.gen_range(0..8))).collect();
            let d = db(&points);
            let cfg = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 8), k);
            let tree = SpatialTree::build(&d, cfg).unwrap();
            let brute = brute_force_optimal_cost(&tree, k);
            let dense = bulk_dp_dense(&tree, k).unwrap().optimal_cost(&tree).ok();
            assert_eq!(brute, dense, "trial {trial} (n={n}, k={k})");
        }
    }

    #[test]
    fn infeasible_instance_has_no_configuration() {
        let d = db(&[(1, 1), (6, 6)]);
        let tree =
            SpatialTree::build(&d, TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 8), 3))
                .unwrap();
        assert_eq!(brute_force_optimal_cost(&tree, 3), None);
    }
}
