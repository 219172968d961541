//! The LBS-provider side of the system: points of interest, evaluation of
//! *cloaked* queries, and the CSP-side result cache.
//!
//! The paper's cost model (Section IV) is justified by query processing:
//! "a smaller cloak allows for more efficient processing of range queries
//! at the LBS as well as more efficient filtering of results at clients."
//! Section VII quantifies it — Casper answers a nearest-neighbor query
//! over a cloak in ~2 ms against 10k points of interest, and a cloak
//! lookup plus NN search beats cryptographic private information
//! retrieval by three orders of magnitude. This crate makes that story
//! executable:
//!
//! * [`PoiStore`] — a grid-indexed point-of-interest table.
//! * [`nn_candidates`] — the classical minmax-pruned candidate set for a
//!   cloaked nearest-neighbor query: a provably sufficient superset of
//!   the true NN of *every* possible sender location in the cloak, which
//!   the client filters locally with its exact position.
//! * [`range_candidates`] — cloaked range ("gas stations within r") query.
//! * [`AnswerCache`] — the anonymizer-side cache of Section VII's
//!   l-diversity/t-closeness discussion: the LBS never sees duplicate
//!   anonymized requests within a snapshot, so it cannot mount
//!   frequency-counting attacks; the cache is flushed at long intervals.
//! * [`CloakedLbs`] — an end-to-end service façade combining the three.

#![warn(missing_docs)]

mod cache;
mod candidates;
mod poi;
mod service;

pub use cache::{AnswerCache, CacheStats};
pub use candidates::{nn_candidates, range_candidates};
pub use poi::{Poi, PoiId, PoiStore};
pub use service::{ClientAnswer, CloakedLbs};
