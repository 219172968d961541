//! Optimal policy-aware sender k-anonymity (Sections IV–V of the paper).
//!
//! The central objects are:
//!
//! * [`Configuration`] — an equivalence class of quad/binary-tree policies,
//!   represented by how many locations each node *passes up* to its
//!   ancestors (Definition 7). Equivalent policies share cost and
//!   anonymity (Lemma 1), so the search runs over configurations.
//! * The **k-summation property** (Definition 9) — the exact
//!   characterization of configurations whose policies are policy-aware
//!   sender k-anonymous (Lemma 3).
//! * [`bulk_dp_dense`] — the first-cut `Bulk_dp` (Algorithm 1): a literal,
//!   dense dynamic program over `u ∈ [0..|D|]`; `O(|T||D|⁵)` on quad trees
//!   and `O(|B||D|³)` on binary trees. Kept as the reference implementation
//!   for small inputs and cross-validation.
//! * [`bulk_dp_fast`] — the production algorithm with all Section V
//!   optimizations: binary (semi-quadrant) trees, the Lemma-5 pass-up bound
//!   `(k+1)·h(m)`, and the two-stage child convolution, for a total of
//!   `O(|B|(kh)²)`.
//! * [`DpMatrix::extract_policy`] — top-down retrieval of one optimal
//!   policy from the filled matrix (any representative of the optimal
//!   equivalence class, per Lemma 1).
//! * [`IncrementalAnonymizer`] — maintains the matrix across location
//!   snapshots by recomputing only rows of nodes whose population changed
//!   (Section IV, "Incremental Maintenance of M"; Figure 5(b)).
//! * [`verify_policy_aware`] — an independent checker that a bulk policy
//!   provides sender k-anonymity against policy-aware attackers.

#![warn(missing_docs)]

mod anonymizer;
mod configuration;
mod dp_dense;
mod dp_fast;
mod dp_fast_quad;
mod error;
mod extract;
mod flat;
mod incremental;
mod matrix;
mod per_user_k;
mod sticky;
mod verify;

pub use anonymizer::Anonymizer;
pub use configuration::Configuration;
pub use dp_dense::bulk_dp_dense;
pub use dp_fast::{
    bulk_dp_fast, bulk_dp_fast_rowwise, bulk_dp_fast_with_options, bulk_dp_fast_with_scratch,
    DpScratch,
};
pub use dp_fast_quad::bulk_dp_fast_quad;
pub use error::CoreError;
pub use flat::{minplus_argmin, minplus_convolve, ConvKernel};
pub use incremental::{first_poll_taken, ExtractReport, IncrementalAnonymizer, IncrementalReport};
pub use matrix::{DpMatrix, Row, INFINITE_COST};
pub use per_user_k::{anonymize_per_user_k, verify_per_user_k, KRequirements};
pub use sticky::StickyAnonymizer;
pub use verify::{brute_force_optimal_cost, verify_policy_aware, AnonymityViolation};
