//! High-level facade: build once per snapshot, serve per-request lookups.
//!
//! This is the CSP-side component of the privacy-conscious LBS model:
//! bulk-anonymize a snapshot (sub-second for a million users in the
//! paper's evaluation), then answer each incoming service request with a
//! constant-time-ish policy lookup (0.3–0.5 ms reported in Section VII).

use crate::{
    bulk_dp_fast, bulk_dp_fast_quad, bulk_dp_fast_with_scratch, CoreError, DpMatrix, DpScratch,
};
use lbs_geom::{Area, Point, Rect};
use lbs_metrics::{Counter, Metrics, Stage};
use lbs_model::{
    AnonymizedRequest, BulkPolicy, CloakingPolicy, LocationDb, RequestId, ServiceRequest, UserId,
};
use lbs_tree::{SpatialTree, TreeConfig, TreeKind, TreeStats};

/// An optimal policy-aware sender-k-anonymity engine for one snapshot.
#[derive(Debug, Clone)]
pub struct Anonymizer {
    tree: SpatialTree,
    matrix: DpMatrix,
    policy: BulkPolicy,
    cost: Area,
    next_rid: u64,
}

impl Anonymizer {
    /// Bulk-anonymizes `db` over a lazily materialized binary tree on
    /// `map`, producing the optimal policy-aware k-anonymous policy.
    ///
    /// # Errors
    /// Fails when the map is invalid, a user is off-map, `k = 0`, or fewer
    /// than k users exist.
    pub fn build(db: &LocationDb, map: Rect, k: usize) -> Result<Self, CoreError> {
        let config = TreeConfig::lazy(TreeKind::Binary, map, k);
        Self::build_with_config(db, config, k)
    }

    /// As [`Anonymizer::build`] with full control over tree kind and
    /// materialization: binary trees run the Section-V optimized DP, quad
    /// trees the 4-way variant of Theorem 2's setting.
    ///
    /// # Errors
    /// See [`Anonymizer::build`].
    pub fn build_with_config(
        db: &LocationDb,
        config: TreeConfig,
        k: usize,
    ) -> Result<Self, CoreError> {
        Self::build_instrumented(db, config, k, None, None)
    }

    /// As [`Anonymizer::build_with_config`], with two production hooks:
    ///
    /// * `scratch` — a caller-owned [`DpScratch`] arena reused across
    ///   binary-tree builds (it carries the convolution and suffix-minimum
    ///   buffers of the binary sweep; a quad tree ignores it).
    ///   The work-stealing engine hands each worker thread one arena so
    ///   steady-state jurisdiction builds allocate nothing in the DP loop.
    /// * `metrics` — a [`Metrics`] sink receiving [`Stage::TreeBuild`],
    ///   [`Stage::Dp`], and [`Stage::Extract`] spans plus the
    ///   [`Counter::UsersAnonymized`], [`Counter::ExtractNodes`] and
    ///   [`Counter::CloaksWritten`] counts.
    ///
    /// The produced policy is bit-identical to the uninstrumented build.
    ///
    /// # Errors
    /// See [`Anonymizer::build`].
    pub fn build_instrumented(
        db: &LocationDb,
        config: TreeConfig,
        k: usize,
        scratch: Option<&mut DpScratch>,
        metrics: Option<&Metrics>,
    ) -> Result<Self, CoreError> {
        Self::from_items(db.iter(), config, k, scratch, metrics)
    }

    /// As [`Anonymizer::build_instrumented`] over raw `(user, point)`
    /// rows with unique user ids — a jurisdiction's slice of a shared
    /// population, say. The rows are collected inside the
    /// [`Stage::TreeBuild`] span, so both entry points time the same work.
    ///
    /// # Errors
    /// See [`Anonymizer::build`].
    pub fn from_items(
        items: impl IntoIterator<Item = (UserId, Point)>,
        config: TreeConfig,
        k: usize,
        scratch: Option<&mut DpScratch>,
        metrics: Option<&Metrics>,
    ) -> Result<Self, CoreError> {
        fn staged<T>(metrics: Option<&Metrics>, stage: Stage, f: impl FnOnce() -> T) -> T {
            match metrics {
                Some(m) => m.time(stage, f),
                None => f(),
            }
        }
        let tree = staged(metrics, Stage::TreeBuild, || {
            SpatialTree::from_items(items.into_iter().collect(), config)
        })
        .map_err(CoreError::Tree)?;
        let matrix = staged(metrics, Stage::Dp, || match config.kind {
            TreeKind::Binary => match scratch {
                Some(arena) => bulk_dp_fast_with_scratch(&tree, k, arena),
                None => bulk_dp_fast(&tree, k),
            },
            TreeKind::Quad => bulk_dp_fast_quad(&tree, k),
        })?;
        let (cost, policy) = staged(metrics, Stage::Extract, || {
            let cost = matrix.optimal_cost(&tree)?;
            let policy = matrix.extract_policy(&tree)?;
            Ok::<_, CoreError>((cost, policy))
        })?;
        if let Some(m) = metrics {
            m.add(Counter::UsersAnonymized, policy.len() as u64);
            // A bulk extraction walks every live node and cloaks every user.
            m.add(Counter::ExtractNodes, tree.live_len() as u64);
            m.add(Counter::CloaksWritten, policy.len() as u64);
        }
        Ok(Anonymizer { tree, matrix, policy, cost, next_rid: 0 })
    }

    /// Serves one service request: looks up the sender's cloak and emits an
    /// anonymized request with a fresh request id. Returns `None` for
    /// requests that are invalid w.r.t. the snapshot.
    pub fn serve(&mut self, db: &LocationDb, sr: &ServiceRequest) -> Option<AnonymizedRequest> {
        let rid = RequestId(self.next_rid);
        let ar = self.policy.anonymize(db, sr, rid)?;
        self.next_rid += 1;
        Some(ar)
    }

    /// The optimal bulk policy.
    pub fn policy(&self) -> &BulkPolicy {
        &self.policy
    }

    /// Consumes the engine, keeping only its policy (no copy).
    pub fn into_policy(self) -> BulkPolicy {
        self.policy
    }

    /// `Cost(P, D)` of the optimal policy.
    pub fn cost(&self) -> Area {
        self.cost
    }

    /// Average cloak area per user.
    pub fn avg_cloak_area(&self) -> f64 {
        self.policy.avg_area_f64()
    }

    /// The underlying tree (for stats and experiment plumbing).
    pub fn tree(&self) -> &SpatialTree {
        &self.tree
    }

    /// The filled configuration matrix.
    pub fn matrix(&self) -> &DpMatrix {
        &self.matrix
    }

    /// Shape statistics of the materialized tree (Figure 3).
    pub fn tree_stats(&self) -> TreeStats {
        TreeStats::compute(&self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_policy_aware;
    use lbs_geom::Point;
    use lbs_model::{RequestParams, UserId};

    fn db() -> LocationDb {
        LocationDb::from_rows(
            [(1, 1), (1, 2), (1, 3), (3, 1), (3, 3), (13, 13), (14, 14), (13, 14)]
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    }

    #[test]
    fn build_and_serve_round_trip() {
        let db = db();
        let mut engine = Anonymizer::build(&db, Rect::square(0, 0, 16), 2).unwrap();
        assert!(verify_policy_aware(engine.policy(), &db, 2).is_ok());
        assert_eq!(engine.policy().cost_exact(), Some(engine.cost()));

        let sr = ServiceRequest::new(
            UserId(0),
            Point::new(1, 1),
            RequestParams::from_pairs([("poi", "rest")]),
        );
        let ar1 = engine.serve(&db, &sr).unwrap();
        let ar2 = engine.serve(&db, &sr).unwrap();
        assert!(ar1.masks(&sr) && ar2.masks(&sr));
        assert_ne!(ar1.rid, ar2.rid, "request ids are unique");
        assert_eq!(ar1.region, ar2.region, "policy is deterministic");

        let invalid = ServiceRequest::new(UserId(0), Point::new(9, 9), RequestParams::default());
        assert!(engine.serve(&db, &invalid).is_none());
    }

    #[test]
    fn avg_area_is_cost_over_users() {
        let db = db();
        let engine = Anonymizer::build(&db, Rect::square(0, 0, 16), 3).unwrap();
        let expected = engine.cost() as f64 / db.len() as f64;
        assert!((engine.avg_cloak_area() - expected).abs() < 1e-9);
    }

    #[test]
    fn quad_tree_configs_dispatch_to_the_quad_dp() {
        let db = db();
        let config = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 16), 2);
        let quad = Anonymizer::build_with_config(&db, config, 2).unwrap();
        assert!(verify_policy_aware(quad.policy(), &db, 2).is_ok());
        // Binary never costs more than quad at equal granularity (§V).
        let binary = Anonymizer::build(&db, Rect::square(0, 0, 16), 2).unwrap();
        assert!(binary.cost() <= quad.cost());
    }

    #[test]
    fn instrumented_build_matches_plain_and_records_stages() {
        let db = db();
        let map = Rect::square(0, 0, 16);
        let plain = Anonymizer::build(&db, map, 2).unwrap();
        let metrics = Metrics::new();
        let mut arena = DpScratch::new();
        let config = TreeConfig::lazy(TreeKind::Binary, map, 2);
        let inst = Anonymizer::build_instrumented(&db, config, 2, Some(&mut arena), Some(&metrics))
            .unwrap();
        assert_eq!(inst.cost(), plain.cost());
        assert_eq!(inst.policy().cost_exact(), plain.policy().cost_exact());
        for (user, region) in plain.policy().iter() {
            assert_eq!(inst.policy().cloak_of(user), Some(region));
        }
        assert_eq!(metrics.stage_calls(Stage::TreeBuild), 1);
        assert_eq!(metrics.stage_calls(Stage::Dp), 1);
        assert_eq!(metrics.stage_calls(Stage::Extract), 1);
        assert_eq!(metrics.get(Counter::UsersAnonymized), db.len() as u64);
    }

    #[test]
    fn infeasible_snapshot_reports_population() {
        let small = LocationDb::from_rows([(UserId(0), Point::new(1, 1))]).unwrap();
        let err = Anonymizer::build(&small, Rect::square(0, 0, 16), 2).unwrap_err();
        assert_eq!(err, CoreError::InsufficientPopulation { population: 1, k: 2 });
    }
}
