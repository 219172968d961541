//! `BulkPolicy` against a reference model: a `BTreeMap<UserId, Region>`,
//! the representation the columns replaced. Random sequences of `assign`,
//! `remove`, `from_assignments`, `from_columns`, `patch` and `merge` run on
//! both, over a small id space (so ids repeat), with circle cloaks and
//! with groups emptied outright; after every operation every observable
//! of the policy must equal the model's, and the cloak table must keep
//! its invariants.

use lbs_geom::{Circle, Point, Rect, Region};
use lbs_model::{decode_policy, encode_policy, BulkPolicy, PolicyStats, UserId};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

type Model = BTreeMap<UserId, Region>;

const USERS: u64 = 24;

/// Eight unit squares and two circles.
fn region(i: u8) -> Region {
    let x = i64::from(i % 10);
    if x < 8 {
        Rect::new(x, 0, x + 1, 1).into()
    } else {
        Circle::from_radius2(Point::new(x, 0), 4).into()
    }
}

fn batch(raw: &[(u64, u8)]) -> Vec<(UserId, Region)> {
    raw.iter().map(|&(user, r)| (UserId(user), region(r))).collect()
}

/// The model's image of a batch applied by repeated assignment.
fn model_of(batch: &[(UserId, Region)]) -> Model {
    batch.iter().copied().collect()
}

/// The policy codec's byte format, written from the model.
fn model_bytes(name: &str, model: &Model) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&0x4C42_5350u32.to_le_bytes());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(model.len() as u64).to_le_bytes());
    for (user, region) in model {
        out.extend_from_slice(&user.0.to_le_bytes());
        match region {
            Region::Rect(r) => {
                out.push(0);
                for v in [r.x0, r.y0, r.x1, r.y1] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Region::Circle(c) => {
                out.push(1);
                out.extend_from_slice(&c.center.x.to_le_bytes());
                out.extend_from_slice(&c.center.y.to_le_bytes());
                out.extend_from_slice(&c.radius2.to_le_bytes());
            }
        }
    }
    out
}

fn model_groups(model: &Model) -> HashMap<Region, Vec<UserId>> {
    let mut groups: HashMap<Region, Vec<UserId>> = HashMap::new();
    for (&user, &region) in model {
        groups.entry(region).or_default().push(user);
    }
    groups
}

fn model_stats(model: &Model) -> PolicyStats {
    let groups = model_groups(model);
    let cost_f64: f64 = model.values().map(Region::area_f64).sum();
    PolicyStats {
        users: model.len(),
        groups: groups.len(),
        min_group: groups.values().map(Vec::len).min().unwrap_or(0),
        max_group: groups.values().map(Vec::len).max().unwrap_or(0),
        cost_exact: model.values().map(|r| r.rect().map(Rect::area)).sum(),
        cost_f64,
        avg_area: if model.is_empty() { 0.0 } else { cost_f64 / model.len() as f64 },
    }
}

/// Every observable of `policy` equals the model's, and the columns keep
/// their invariants: users strictly ascending, cloaks distinct and each
/// used, ids numbered in order of first use.
fn check(policy: &BulkPolicy, name: &str, model: &Model, step: usize) -> Result<(), String> {
    let fail = |what: &str| Err(format!("step {step}: {what}"));
    if policy.name() != name {
        return fail("name");
    }
    if !policy.iter().eq(model.iter().map(|(&u, r)| (u, r))) {
        return fail("iter");
    }
    if policy.len() != model.len() || policy.is_empty() != model.is_empty() {
        return fail("len");
    }
    if (0..USERS + 2).any(|u| policy.cloak_of(UserId(u)) != model.get(&UserId(u))) {
        return fail("cloak_of");
    }
    if policy.groups() != model_groups(model) {
        return fail("groups");
    }
    if policy.stats() != model_stats(model) {
        return fail("stats");
    }
    let bytes = encode_policy(policy);
    if bytes.to_vec() != model_bytes(name, model) {
        return fail("encoded bytes");
    }
    if decode_policy(bytes).ok().as_ref() != Some(policy) {
        return fail("decode(encode) differs");
    }
    let (users, ids, cloaks) = (policy.users(), policy.cloak_ids(), policy.cloaks());
    if !users.windows(2).all(|w| w[0] < w[1]) || users.len() != ids.len() {
        return fail("user column");
    }
    let mut next = 0u32;
    for &id in ids {
        if id > next {
            return fail("ids out of first-use order");
        }
        next = next.max(id + 1);
    }
    if next as usize != cloaks.len() {
        return fail("a cloak no user holds");
    }
    let distinct: std::collections::HashSet<&Region> = cloaks.iter().collect();
    if distinct.len() != cloaks.len() {
        return fail("repeated cloak");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn columns_match_the_btreemap_model(
        ops in prop::collection::vec(
            (0u8..8, 0u64..USERS, 0u8..10, prop::collection::vec((0u64..USERS, 0u8..10), 0..16)),
            1..24,
        )
    ) {
        let mut policy = BulkPolicy::new("p");
        let mut name = String::from("p");
        let mut model = Model::new();
        for (step, (op, user, r, raw)) in ops.into_iter().enumerate() {
            let (user, other) = (UserId(user), batch(&raw));
            match op {
                0 => {
                    policy.assign(user, region(r));
                    model.insert(user, region(r));
                }
                1 => {
                    prop_assert_eq!(policy.remove(user), model.remove(&user));
                }
                2 => {
                    policy = BulkPolicy::from_assignments("batch", other.clone());
                    name = "batch".into();
                    model = model_of(&other);
                }
                3 => {
                    // Removals, unsorted and repeated, that the batch
                    // sometimes assigns again.
                    let removed: Vec<UserId> = raw
                        .iter()
                        .map(|&(u, r)| UserId((u + u64::from(r % 3) * 5) % USERS))
                        .collect();
                    let upserts = BulkPolicy::from_assignments("up", other.clone());
                    policy.patch(removed.clone(), &upserts);
                    for u in &removed {
                        model.remove(u);
                    }
                    model.extend(model_of(&other));
                }
                4 | 5 => {
                    let part = BulkPolicy::from_assignments("part", other.clone());
                    if op == 4 {
                        policy = BulkPolicy::merge("merged", [&policy, &part]);
                        model.extend(model_of(&other));
                    } else {
                        policy = BulkPolicy::merge("merged", [&part, &policy]);
                        let mut under = model_of(&other);
                        under.extend(std::mem::take(&mut model));
                        model = under;
                    }
                    name = "merged".into();
                }
                6 => {
                    // Empty `user`'s group: its members move to one cloak
                    // or leave.
                    let Some(&cloak) = model.get(&user) else { continue };
                    let members: Vec<UserId> =
                        model.iter().filter(|&(_, c)| *c == cloak).map(|(&u, _)| u).collect();
                    for &u in &members {
                        if r % 2 == 0 {
                            policy.remove(u);
                            model.remove(&u);
                        } else {
                            policy.assign(u, region(r));
                            model.insert(u, region(r));
                        }
                    }
                }
                _ => {
                    // Columns over a table that repeats every region and
                    // holds unused ones.
                    let table: Vec<Region> = (0..20).map(region).collect();
                    let rows: BTreeMap<UserId, u8> =
                        raw.iter().map(|&(u, r)| (UserId(u), r)).collect();
                    let users: Vec<UserId> = rows.keys().copied().collect();
                    let ids: Vec<u32> =
                        rows.iter().map(|(u, &r)| u32::from(r) + 10 * (u.0 % 2) as u32).collect();
                    model =
                        users.iter().zip(&ids).map(|(&u, &id)| (u, table[id as usize])).collect();
                    policy = BulkPolicy::from_columns("columns", users, ids, table)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    name = "columns".into();
                }
            }
            check(&policy, &name, &model, step).map_err(TestCaseError::fail)?;
        }
    }
}

/// User ids for [`merge_in_ranges_matches_the_model_at_every_range_count`]:
/// 64 slots per case, so parts overlap, spread over a span that takes
/// one radix pass (11 bits), two (21), three (33, also just below
/// `u64::MAX`), or six (the whole of `u64`).
fn spread_id(span: u8, slot: u64) -> UserId {
    let slot = slot % 64;
    UserId(match span {
        0 => 5 + slot,
        1 => 3 + slot * (1 << 15),
        2 => slot << 27,
        3 => u64::MAX - (slot << 27),
        _ => slot * (u64::MAX / 63),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A merge cut into any number of user-id ranges writes the bytes of
    /// the one-range merge and of the model, where the later part wins a
    /// repeated user. Every case also merges an empty part and a one-user
    /// part.
    #[test]
    fn merge_in_ranges_matches_the_model_at_every_range_count(
        span in 0u8..5,
        raw in proptest::collection::vec(
            proptest::collection::vec((any::<u64>(), 0u8..20), 0..40),
            0..6,
        ),
        lone in (any::<u64>(), 0u8..20),
    ) {
        let mut parts: Vec<BulkPolicy> = raw
            .iter()
            .map(|rows| {
                let rows = rows.iter().map(|&(slot, r)| (spread_id(span, slot), region(r)));
                BulkPolicy::from_assignments("part", rows.collect())
            })
            .collect();
        parts.insert(parts.len() / 2, BulkPolicy::new("empty"));
        parts.push(BulkPolicy::from_assignments("one", vec![(spread_id(span, lone.0), region(lone.1))]));
        let mut model = Model::new();
        for part in &parts {
            model.extend(part.iter().map(|(u, r)| (u, *r)));
        }
        let want = model_bytes("merged", &model);
        let one = BulkPolicy::merge("merged", &parts);
        prop_assert_eq!(encode_policy(&one).to_vec(), want.clone());
        for ranges in 1..=8 {
            let merged = BulkPolicy::merge_in_ranges("merged", &parts, ranges);
            prop_assert_eq!(encode_policy(&merged).to_vec(), want.clone(), "{} ranges", ranges);
            prop_assert!(merged == one, "{} ranges: columns or table differ", ranges);
        }
    }
}

#[test]
fn from_columns_rejects_broken_columns() {
    let table = vec![region(0), region(1)];
    let ok = BulkPolicy::from_columns("c", vec![UserId(1), UserId(2)], vec![1, 0], table.clone());
    assert_eq!(ok.unwrap().cloak_ids(), [0, 1], "renumbered in first-use order");
    for (users, ids) in [
        (vec![UserId(1), UserId(2)], vec![0]),    // lengths differ
        (vec![UserId(2), UserId(1)], vec![0, 0]), // descending
        (vec![UserId(1), UserId(1)], vec![0, 0]), // repeated user
        (vec![UserId(1), UserId(2)], vec![0, 2]), // id outside the table
    ] {
        assert!(BulkPolicy::from_columns("c", users, ids, table.clone()).is_err());
    }
}

#[test]
fn merge_takes_the_later_part_on_a_repeated_user() {
    let part = |rows: &[(u64, u8)]| BulkPolicy::from_assignments("part", batch(rows));
    let parts = [part(&[(1, 0), (4, 0), (9, 0)]), part(&[]), part(&[(2, 1), (4, 1), (5, 1)])];
    let merged = BulkPolicy::merge("merged", &parts);
    let users: Vec<u64> = merged.users().iter().map(|u| u.0).collect();
    assert_eq!(users, [1, 2, 4, 5, 9]);
    assert_eq!(merged.cloak_of(UserId(4)), Some(&region(1)), "part order decides");
    assert!(BulkPolicy::merge("none", &[] as &[BulkPolicy]).is_empty());
}
