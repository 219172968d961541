//! The abstract LBS model of Section II of the paper.
//!
//! Four parties deliver a location-based service: the *sender* (a mobile
//! user), the trusted *Communication Service Provider* (CSP), the *Mobile
//! Positioning Center* (MPC) operated by the CSP, and the untrusted *LBS*
//! provider. The MPC's knowledge of device positions is modeled as a
//! [`LocationDb`] snapshot (relation `D = {userid, locx, locy}`); senders
//! issue [`ServiceRequest`]s, and the CSP forwards [`AnonymizedRequest`]s in
//! which the exact location is replaced by a cloak region.
//!
//! This crate defines those data types plus the two notions of policy used
//! throughout the reproduction:
//!
//! * [`CloakingPolicy`] — the paper's Definition 4: a deterministic procedure
//!   mapping (location database, service request) to an anonymized request.
//! * [`BulkPolicy`] — the overloaded policy of Section IV footnote 1: a total
//!   map from user locations to cloaks for one snapshot, which is what the
//!   bulk anonymization algorithms compute and what cost (Definition 8's
//!   `Cost(P, D)`) is defined over.

#![warn(missing_docs)]

mod db;
mod error;
mod policy;
mod policy_codec;
mod request;
mod snapshot;
mod update_codec;

pub use db::{LocationDb, LocationDbBuilder, Move, UserId, UserUpdate};
pub use error::ModelError;
pub use policy::{BulkPolicy, CloakingPolicy, PolicyStats};
pub use policy_codec::{decode_policy, encode_policy};
pub use request::{AnonymizedRequest, RequestId, RequestParams, ServiceRequest};
pub use snapshot::{decode_snapshot, encode_snapshot, put_snapshot, snapshot_len};
pub use update_codec::{decode_updates, encode_updates};
