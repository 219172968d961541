//! End-to-end reproduction of the paper's worked examples and propositions
//! (Table I, Figure 1, Examples 1–8, Propositions 1–3), plus frozen
//! snapshot assertions over the Example-1 breach evidence and the
//! Theorem-2 DP tables. The snapshots pin exact strings so any DP or
//! extraction change that moves a table cell is a loud, reviewable diff
//! (like `tests/golden/`, but small enough to read inline).

use lbs_core::{bulk_dp_fast, bulk_dp_fast_quad, INFINITE_COST};
use policy_aware_lbs::prelude::*;

/// Table I adapted to the half-open integer grid: Alice and Bob tight in
/// the south-west, Carol alone in the north-west quadrant, Sam and Tom in
/// the east.
fn table1() -> LocationDb {
    LocationDb::from_rows([
        (UserId(0), Point::new(0, 0)), // Alice
        (UserId(1), Point::new(0, 1)), // Bob
        (UserId(2), Point::new(0, 3)), // Carol
        (UserId(3), Point::new(2, 0)), // Sam
        (UserId(4), Point::new(3, 3)), // Tom
    ])
    .unwrap()
}

const MAP: Rect = Rect { x0: 0, y0: 0, x1: 4, y1: 4 };

/// Example 1 + Proposition 3: the 2-inside policy produced by the
/// Casper-style algorithm is breached by a policy-aware attacker.
#[test]
fn example_1_policy_aware_attacker_identifies_carol() {
    let db = table1();
    let policy = Casper::build(&db, MAP, 2).unwrap().materialize(&db);

    // The policy is 2-inside: every cloak covers >= 2 users.
    for (user, _) in db.iter() {
        let cloak = policy.cloak_of(user).unwrap();
        assert!(db.users_in(cloak).len() >= 2, "{user}");
    }

    // Carol's cloak is the semi-quadrant R3 of Example 1; its *group* is
    // just Carol, so the aware attacker identifies her.
    let attacker = PolicyAwareAttacker::new(policy.clone());
    let carol_cloak = *policy.cloak_of(UserId(2)).unwrap();
    assert_eq!(
        attacker.possible_senders_of_region(&db, &carol_cloak),
        vec![UserId(2)],
        "sender identified: sender 2-anonymity breached"
    );
}

/// Example 6 / Proposition 2: the same request seen by a policy-unaware
/// attacker keeps >= 2 candidates (k-inside defends that class).
#[test]
fn example_6_policy_unaware_attacker_sees_k_candidates() {
    let db = table1();
    let policy = Casper::build(&db, MAP, 2).unwrap().materialize(&db);
    let attacker = PolicyUnawareAttacker::new();
    for (user, _) in db.iter() {
        let cloak = policy.cloak_of(user).unwrap();
        let candidates = attacker.possible_senders_of_region(&db, cloak);
        assert!(candidates.len() >= 2, "{user}: policy-unaware breach impossible");
    }
}

/// Proposition 1: policy-aware candidate sets are subsets of
/// policy-unaware ones, for any masking policy and any cloak — so
/// policy-aware k-anonymity implies policy-unaware k-anonymity.
#[test]
fn proposition_1_aware_candidates_subset_of_unaware() {
    let db = table1();
    for k in 1..=3 {
        for policy in [
            Casper::build(&db, MAP, k).unwrap().materialize(&db),
            PolicyUnawareQuad::build(&db, MAP, k).unwrap().materialize(&db),
            Anonymizer::build(&db, MAP, k).map(|e| e.policy().clone()).unwrap_or_default(),
        ] {
            let aware = PolicyAwareAttacker::new(policy.clone());
            let unaware = PolicyUnawareAttacker::new();
            for (_, region) in policy.iter() {
                let a = aware.possible_senders_of_region(&db, region);
                let u = unaware.possible_senders_of_region(&db, region);
                assert!(
                    a.iter().all(|x| u.contains(x)),
                    "k={k} {}: {a:?} not within {u:?}",
                    policy.name()
                );
            }
        }
    }
}

/// Example 8: an optimal policy-aware 2-anonymous policy cloaks
/// {Alice, Bob, Carol} by the west semi-quadrant R3 and {Sam, Tom} by the
/// east semi-quadrant R2.
#[test]
fn example_8_optimal_policy_matches_the_paper() {
    let db = table1();
    let engine = Anonymizer::build(&db, MAP, 2).unwrap();
    let policy = engine.policy();

    let r3: Region = Rect::new(0, 0, 2, 4).into(); // west half
    let r2: Region = Rect::new(2, 0, 4, 4).into(); // east half
    for user in [UserId(0), UserId(1), UserId(2)] {
        assert_eq!(policy.cloak_of(user), Some(&r3), "{user} cloaked by R3");
    }
    for user in [UserId(3), UserId(4)] {
        assert_eq!(policy.cloak_of(user), Some(&r2), "{user} cloaked by R2");
    }
    // Cost: 3 users x 8 m² + 2 users x 8 m².
    assert_eq!(engine.cost(), 40);
    // And it withstands the policy-aware attacker.
    verify_policy_aware(policy, &db, 2).unwrap();
    let attacker = PolicyAwareAttacker::new(policy.clone());
    for (_, region) in policy.iter() {
        assert!(attacker.possible_senders_of_region(&db, region).len() >= 2);
    }
}

/// Definition 6 end to end: every user sends a request; each anonymized
/// request keeps >= k distinct possible senders under the aware attacker.
#[test]
fn definition_6_every_request_keeps_k_senders() {
    let db = table1();
    for k in 1..=5 {
        let mut engine = Anonymizer::build(&db, MAP, k).unwrap();
        let policy = engine.policy().clone();
        let attacker = PolicyAwareAttacker::new(policy);
        for (user, location) in db.iter() {
            let sr =
                ServiceRequest::new(user, location, RequestParams::from_pairs([("poi", "rest")]));
            let ar = engine.serve(&db, &sr).unwrap();
            assert!(ar.masks(&sr), "masking (Definition 3)");
            let senders = attacker.possible_senders(&db, &ar);
            assert!(senders.len() >= k, "k={k}: request from {user} leaks");
            assert!(senders.contains(&user), "the true sender is always a PRE");
        }
    }
}

/// k = |D| forces everyone into a single cloak; k > |D| is infeasible.
#[test]
fn extreme_k_values() {
    let db = table1();
    let engine = Anonymizer::build(&db, MAP, 5).unwrap();
    let groups = engine.policy().groups();
    assert_eq!(groups.len(), 1, "all five users share one cloak");
    assert!(matches!(
        Anonymizer::build(&db, MAP, 6),
        Err(CoreError::InsufficientPopulation { population: 5, k: 6 })
    ));
}

/// Definition 5/6 taken literally: the optimal policy's observed request
/// sets admit k pairwise sender-disjoint PREs, per the specification-grade
/// oracle in `lbs-attack` (not the group-size shortcut).
#[test]
fn optimal_policies_satisfy_the_literal_definition() {
    use lbs_attack::literal_k_anonymity;
    let db = table1();
    for k in 1..=3 {
        let mut engine = Anonymizer::build(&db, MAP, k).unwrap();
        let policy = engine.policy().clone();
        // Everybody requests the same sensitive service.
        let observed: Vec<AnonymizedRequest> = db
            .iter()
            .map(|(user, location)| {
                let sr = ServiceRequest::new(
                    user,
                    location,
                    RequestParams::from_pairs([("poi", "clinic")]),
                );
                engine.serve(&db, &sr).unwrap()
            })
            .collect();
        assert!(
            literal_k_anonymity(&observed, &db, &policy, k),
            "k={k}: literal Definition 6 must hold for the optimal policy"
        );
        assert!(
            !literal_k_anonymity(&observed, &db, &policy, 6),
            "only 5 users exist; 6-anonymity is impossible"
        );
    }
}

/// Renders the full DP matrix of `kind` at `k` over Table I, one line
/// per post-order node: rect, live count, and every reachable `u` cell.
fn render_dp_table(db: &LocationDb, kind: TreeKind, k: usize) -> String {
    let tree = SpatialTree::build(db, TreeConfig::lazy(kind, MAP, k)).unwrap();
    let matrix = match kind {
        TreeKind::Quad => bulk_dp_fast_quad(&tree, k).unwrap(),
        TreeKind::Binary => bulk_dp_fast(&tree, k).unwrap(),
    };
    let mut lines = Vec::new();
    for id in tree.postorder() {
        let node = tree.node(id);
        if let Some(row) = matrix.row(id) {
            let cells: Vec<String> = row
                .iter()
                .map(|(u, cost)| {
                    if cost == INFINITE_COST {
                        format!("u{u}=inf")
                    } else {
                        format!("u{u}={cost}")
                    }
                })
                .collect();
            lines.push(format!("{} n={}: {}", node.rect, tree.count(id), cells.join(" ")));
        }
    }
    lines.push(format!("optimal={}", matrix.optimal_cost(&tree).unwrap()));
    lines.join("\n")
}

/// Example 1, snapshot form: the exact breach evidence the PRE attacker
/// produces against the Casper-style 2-inside policy — one breached
/// cloak, and its only possible sender is Carol (`u2`).
#[test]
fn example_1_breach_evidence_snapshot() {
    let db = table1();
    let policy = Casper::build(&db, MAP, 2).unwrap().materialize(&db);
    let mut lines: Vec<String> = lbs_attack::audit_policy(&policy, &db, 2)
        .iter()
        .map(|b| {
            let mut candidates: Vec<String> = b.candidates.iter().map(|u| u.to_string()).collect();
            candidates.sort();
            format!("{} -> [{}]", b.region, candidates.join(", "))
        })
        .collect();
    lines.sort();
    assert_eq!(
        lines.join("\n"),
        "[0,4)x[2,4) -> [u2]",
        "Example-1 breach evidence drifted; update only if lbs-attack \
         or the Casper baseline changed intentionally"
    );
}

/// Theorem 2, snapshot form: the full bottom-up DP tables over Table I
/// at k=2 — every (node, u) cost cell on both tree families, and the
/// optimal totals (paper's R3+R2 split costs 40 on the semi-quadrant
/// tree; the pure quadrant tree can only do 56).
#[test]
fn theorem_2_dp_cost_table_snapshots() {
    let db = table1();
    assert_eq!(
        render_dp_table(&db, TreeKind::Binary, 2),
        "[2,4)x[2,4) n=1: u1=0\n\
         [2,4)x[0,2) n=1: u1=0\n\
         [2,4)x[0,4) n=2: u0=16 u2=0\n\
         [0,2)x[2,4) n=1: u1=0\n\
         [1,2)x[0,2) n=0: u0=0\n\
         [0,1)x[1,2) n=1: u1=0\n\
         [0,1)x[0,1) n=1: u1=0\n\
         [0,1)x[0,2) n=2: u0=4 u2=0\n\
         [0,2)x[0,2) n=2: u0=4 u2=0\n\
         [0,2)x[0,4) n=3: u0=24 u1=4 u3=0\n\
         [0,4)x[0,4) n=5: u0=40 u5=0\n\
         optimal=40",
        "binary (semi-quadrant) DP table drifted"
    );
    assert_eq!(
        render_dp_table(&db, TreeKind::Quad, 2),
        "[2,4)x[2,4) n=1: u1=0\n\
         [2,4)x[0,2) n=1: u1=0\n\
         [1,2)x[1,2) n=0: u0=0\n\
         [1,2)x[0,1) n=0: u0=0\n\
         [0,1)x[0,1) n=1: u1=0\n\
         [0,1)x[1,2) n=1: u1=0\n\
         [0,2)x[0,2) n=2: u0=8 u2=0\n\
         [0,2)x[2,4) n=1: u1=0\n\
         [0,4)x[0,4) n=5: u0=56 u5=0\n\
         optimal=56",
        "quad DP table drifted"
    );
    // The k-sweep of optimal costs (Theorem-2 DP end to end): k=1 is the
    // 5 unit leaves, k=2 the paper's 40, and k>=3 saturates at 80.
    let costs: Vec<u128> =
        (1..=5).map(|k| Anonymizer::build(&db, MAP, k).unwrap().cost()).collect();
    assert_eq!(costs, vec![5, 40, 80, 80, 80], "optimal cost sweep drifted");
}

/// The anonymized request stream never repeats request ids and preserves
/// the service parameters verbatim (Definition 2).
#[test]
fn request_stream_hygiene() {
    let db = table1();
    let mut engine = Anonymizer::build(&db, MAP, 2).unwrap();
    let mut seen = std::collections::HashSet::new();
    for (user, location) in db.iter() {
        let params = RequestParams::from_pairs([("poi", "spiritual-center")]);
        let sr = ServiceRequest::new(user, location, params.clone());
        let ar = engine.serve(&db, &sr).unwrap();
        assert!(seen.insert(ar.rid), "rid reuse");
        assert_eq!(ar.params, params);
    }
}
