//! # policy-aware-lbs
//!
//! A reproduction of **"Policy-Aware Sender Anonymity in Location Based
//! Services"** (Deutsch, Hull, Vyas, Zhao — ICDE 2010) as a production
//! Rust workspace.
//!
//! Classical sender k-anonymity for LBS cloaks a requester's location with
//! the tightest region holding k users ("k-inside"). The paper shows that
//! an attacker who *knows the cloaking algorithm* can often identify the
//! sender anyway, defines the strictly stronger guarantee of sender
//! k-anonymity against **policy-aware** attackers, and gives a PTIME
//! dynamic program (`Bulk_dp`) computing the *optimal* (minimum total
//! cloak area) policy-aware anonymization over quad-tree cloaks.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`geom`] — exact integer planar geometry (points, rects, circles).
//! * [`model`] — the LBS model: location database, service and anonymized
//!   requests, cloaking policies, costs.
//! * [`tree`] — lazily materialized quad and binary (semi-quadrant) trees.
//! * [`core`] — configurations, k-summation, the `Bulk_dp` dynamic
//!   programs, policy extraction, incremental maintenance, verification.
//! * [`baselines`] — the policy-unaware comparators: PUQ, PUB, Casper,
//!   circular k-inside, k-sharing, and the Theorem-1 circular solvers.
//! * [`attack`] — policy-aware and policy-unaware attackers and auditing.
//! * [`workload`] — the synthetic Bay-Area population generator.
//! * [`parallel`] — jurisdiction partitioning, the work-stealing
//!   execution engine, and multi-server runs.
//! * [`metrics`] — lock-free counters, stage timers, and the
//!   serde-serializable [`metrics::MetricsSnapshot`] observability layer.
//! * [`runtime`] — the crash-safe service runtime: write-ahead log,
//!   checkpoints, deadline-budgeted commits, and the privacy-safe
//!   degradation ladder.
//!
//! ## Quickstart
//!
//! ```
//! use policy_aware_lbs::prelude::*;
//!
//! // Five users on a 4x4 m toy map (the paper's Table I).
//! let db = LocationDb::from_rows([
//!     (UserId(0), Point::new(1, 1)),
//!     (UserId(1), Point::new(1, 2)),
//!     (UserId(2), Point::new(1, 3)),
//!     (UserId(3), Point::new(3, 1)),
//!     (UserId(4), Point::new(3, 3)),
//! ]).unwrap();
//!
//! // Optimal policy-aware 2-anonymous cloaking.
//! let engine = Anonymizer::build(&db, Rect::square(0, 0, 4), 2).unwrap();
//! assert!(verify_policy_aware(engine.policy(), &db, 2).is_ok());
//!
//! // Every cloak group has at least k = 2 members, so even an attacker
//! // who knows the whole policy cannot narrow any request below 2 senders.
//! assert!(engine.policy().min_group_size().unwrap() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lbs_attack as attack;
pub use lbs_baselines as baselines;
pub use lbs_core as core;
pub use lbs_geom as geom;
pub use lbs_metrics as metrics;
pub use lbs_model as model;
pub use lbs_parallel as parallel;
pub use lbs_query as query;
pub use lbs_runtime as runtime;
pub use lbs_sim as sim;
pub use lbs_tree as tree;
pub use lbs_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use lbs_attack::{
        audit_policy, LinkedObservation, PolicyAwareAttacker, PolicyUnawareAttacker,
        TrajectoryAttacker,
    };
    pub use lbs_baselines::{Casper, PolicyUnawareBinary, PolicyUnawareQuad};
    pub use lbs_core::{
        anonymize_per_user_k, verify_per_user_k, verify_policy_aware, Anonymizer, CoreError,
        IncrementalAnonymizer, KRequirements, StickyAnonymizer,
    };
    pub use lbs_geom::{Circle, Point, Rect, Region};
    pub use lbs_metrics::{Counter, Metrics, MetricsSnapshot, Stage};
    pub use lbs_model::{
        AnonymizedRequest, BulkPolicy, CloakingPolicy, LocationDb, Move, RequestId, RequestParams,
        ServiceRequest, UserId,
    };
    pub use lbs_parallel::{
        anonymize_partitioned, anonymize_threaded, anonymize_work_stealing, partition_users,
        EngineConfig, Jurisdiction,
    };
    pub use lbs_query::{
        nn_candidates, range_candidates, AnswerCache, ClientAnswer, CloakedLbs, Poi, PoiId,
        PoiStore,
    };
    pub use lbs_runtime::{
        Clock, ManualClock, Rung, RuntimeBuilder, RuntimeConfig, RuntimeError, ServiceRuntime,
        SystemClock,
    };
    pub use lbs_tree::{SpatialTree, TreeConfig, TreeKind, TreeStats};
    pub use lbs_workload::{generate_master, random_moves, sample, BayAreaConfig};
}
