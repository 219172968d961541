//! Frequency-counting attacks — the sender-anonymity analogue of the
//! l-diversity / t-closeness attacks on data k-anonymity (Section VII,
//! "Beyond k-anonymity").
//!
//! A policy-aware attacker who sees the LBS log for one snapshot can
//! group the anonymized requests by (cloak, parameters) and compare each
//! count against the size of the cloak's sender group. In "the (unlikely)
//! event of observing in a snapshot as many identical requests from the
//! same cloak as the number of locations residing in it", *every* group
//! member provably sent those parameters: k-anonymity of identity held,
//! yet everyone's interests leaked. Partial counts leak probabilistically
//! (`duplicates / group_size` of the members sent it).
//!
//! The paper's countermeasure is the CSP-side answer cache
//! (`lbs-query::AnswerCache`): the LBS sees each distinct (cloak, V) at
//! most once per snapshot, so every observable count is ≤ 1 < k and the
//! frequency signal vanishes. The tests here drive both directions.

use crate::PolicyAwareAttacker;
use lbs_geom::Region;
use lbs_model::{AnonymizedRequest, BulkPolicy, LocationDb, RequestParams, UserId};
use std::collections::HashMap;

/// One (cloak, parameters) class in the observed request log.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyFinding {
    /// The cloak the requests carried.
    pub region: Region,
    /// The shared request parameters.
    pub params: RequestParams,
    /// How many identical anonymized requests were observed.
    pub duplicates: usize,
    /// The policy-aware sender group of this cloak.
    pub group: Vec<UserId>,
    /// Fraction of the group that provably sent these parameters
    /// (`duplicates / |group|`; 1.0 = everyone's interests exposed).
    pub exposure: f64,
}

impl FrequencyFinding {
    /// Whether every group member's interest is fully exposed.
    pub fn fully_exposed(&self) -> bool {
        !self.group.is_empty() && self.duplicates >= self.group.len()
    }
}

/// A policy-aware attacker that additionally counts duplicate requests in
/// a snapshot's LBS log.
#[derive(Debug, Clone)]
pub struct FrequencyAttacker {
    inner: PolicyAwareAttacker,
}

impl FrequencyAttacker {
    /// Arms the attacker with the known policy.
    pub fn new(policy: BulkPolicy) -> Self {
        FrequencyAttacker { inner: PolicyAwareAttacker::new(policy) }
    }

    /// Analyzes one snapshot's observed request log. Findings are sorted
    /// by decreasing exposure; senders are assumed to issue at most one
    /// request per snapshot (the paper's assumption, reasonable for ~30 s
    /// snapshots).
    pub fn analyze(
        &self,
        db: &LocationDb,
        observed: &[AnonymizedRequest],
    ) -> Vec<FrequencyFinding> {
        let mut counts: HashMap<(Region, RequestParams), usize> = HashMap::new();
        for ar in observed {
            *counts.entry((ar.region, ar.params.clone())).or_insert(0) += 1;
        }
        let mut findings: Vec<FrequencyFinding> = counts
            .into_iter()
            .map(|((region, params), duplicates)| {
                let group = self.inner.possible_senders_of_region(db, &region);
                let exposure =
                    if group.is_empty() { 0.0 } else { duplicates as f64 / group.len() as f64 };
                FrequencyFinding { region, params, duplicates, group, exposure }
            })
            .collect();
        findings.sort_by(|a, b| b.exposure.total_cmp(&a.exposure));
        findings
    }

    /// Convenience: the findings with full interest exposure.
    pub fn full_exposures(
        &self,
        db: &LocationDb,
        observed: &[AnonymizedRequest],
    ) -> Vec<FrequencyFinding> {
        self.analyze(db, observed).into_iter().filter(FrequencyFinding::fully_exposed).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_geom::{Point, Rect};
    use lbs_model::RequestId;

    fn setup() -> (LocationDb, BulkPolicy, Region) {
        let db = LocationDb::from_rows([
            (UserId(0), Point::new(1, 1)),
            (UserId(1), Point::new(2, 2)),
            (UserId(2), Point::new(3, 3)),
        ])
        .unwrap();
        let cloak: Region = Rect::new(0, 0, 4, 4).into();
        let mut policy = BulkPolicy::new("p");
        for u in 0..3 {
            policy.assign(UserId(u), cloak);
        }
        (db, policy, cloak)
    }

    fn request(rid: u64, cloak: Region, v: &str) -> AnonymizedRequest {
        AnonymizedRequest::new(RequestId(rid), cloak, RequestParams::from_pairs([("poi", v)]))
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "3 duplicates over a group of 3 divide to exactly 1.0")]
    fn full_duplicate_count_exposes_the_whole_group() {
        let (db, policy, cloak) = setup();
        // All 3 group members ask for the same sensitive POI.
        let log = vec![
            request(1, cloak, "campaign-hq"),
            request(2, cloak, "campaign-hq"),
            request(3, cloak, "campaign-hq"),
        ];
        let attacker = FrequencyAttacker::new(policy);
        let exposures = attacker.full_exposures(&db, &log);
        assert_eq!(exposures.len(), 1);
        assert_eq!(exposures[0].group, vec![UserId(0), UserId(1), UserId(2)]);
        assert_eq!(exposures[0].exposure, 1.0);
        // Identity 3-anonymity held throughout — the leak is the interest.
        assert_eq!(exposures[0].group.len(), 3);
    }

    #[test]
    fn partial_counts_leak_probabilistically() {
        let (db, policy, cloak) = setup();
        let log = vec![
            request(1, cloak, "campaign-hq"),
            request(2, cloak, "campaign-hq"),
            request(3, cloak, "groceries"),
        ];
        let attacker = FrequencyAttacker::new(policy);
        let findings = attacker.analyze(&db, &log);
        assert_eq!(findings.len(), 2);
        assert!((findings[0].exposure - 2.0 / 3.0).abs() < 1e-12);
        assert!(!findings[0].fully_exposed());
        assert!(attacker.full_exposures(&db, &log).is_empty());
    }

    #[test]
    fn the_answer_cache_defeats_the_attack() {
        // What the LBS logs when the CSP deduplicates per (cloak, V): each
        // class at most once. No count can reach the group size (k >= 2).
        let (db, policy, cloak) = setup();
        let deduplicated_log = vec![request(1, cloak, "campaign-hq")];
        let attacker = FrequencyAttacker::new(policy);
        let findings = attacker.analyze(&db, &deduplicated_log);
        assert_eq!(findings[0].duplicates, 1);
        assert!((findings[0].exposure - 1.0 / 3.0).abs() < 1e-12);
        assert!(attacker.full_exposures(&db, &deduplicated_log).is_empty());
    }

    #[test]
    fn empty_log_no_findings() {
        let (db, policy, _) = setup();
        let attacker = FrequencyAttacker::new(policy);
        assert!(attacker.analyze(&db, &[]).is_empty());
    }
}
