//! Policy-unaware baselines and related-work algorithms the paper compares
//! against or attacks.
//!
//! All of these implement **k-inside** cloaking — "the tightest cloak that
//! includes k users" — which Proposition 2 shows is sender k-anonymous
//! against *policy-unaware* attackers only; Example 1 and Figure 6 of the
//! paper (reproduced in `lbs-attack` and the integration tests) show
//! policy-aware attackers breaching every one of them.
//!
//! * [`PolicyUnawareQuad`] (PUQ) — Gruteser–Grunwald interval cloaking
//!   \[16\]: the smallest quad-tree quadrant holding the requester and at
//!   least k−1 others.
//! * [`PolicyUnawareBinary`] (PUB) — the same rule over the binary
//!   (semi-quadrant) tree, the paper's like-for-like baseline in
//!   Figure 5(a).
//! * [`Casper`] — a prototype of Casper's basic cloaking \[23\]: bottom-up
//!   from the requester's cell, trying the cell, then its two semi-quadrant
//!   combinations with adjacent siblings, then the parent.
//! * [`CircularKInside`] — circles centered at the nearest of a fixed
//!   center set (base stations / landmarks), minimal radius covering k
//!   users; the k-reciprocity breach instance of Figure 6(b) uses it.
//! * [`KSharingCloaker`] — request-order-dependent group formation in the
//!   style of \[11\]'s k-sharing; Figure 6(a)'s breach.
//! * [`optimal_circular_policy`] / [`greedy_circular_policy`] — the
//!   Theorem-1 problem (optimal policy-aware anonymization with circular
//!   cloaks): an exact exponential solver for small n and a greedy
//!   heuristic, as executable evidence of the NP-completeness result.

#![warn(missing_docs)]

mod casper;
mod circular;
mod kinside;
mod ksharing;

pub use casper::Casper;
pub use circular::{
    greedy_circular_policy, optimal_circular_policy, CircularKInside, CircularPolicy,
};
pub use kinside::{PolicyUnawareBinary, PolicyUnawareQuad};
pub use ksharing::KSharingCloaker;
