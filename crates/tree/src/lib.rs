//! Quad-tree and binary (semi-quadrant) tree substrate.
//!
//! The paper's PTIME result (Theorem 2) holds for cloaks drawn from the
//! quadrants of a quad-tree partition of the map (Section IV), and its
//! optimized algorithm runs over the *binary tree* of Section V, in which a
//! square quadrant first splits vertically into two W/E semi-quadrants and
//! each semi-quadrant splits horizontally back into squares. Allowing
//! semi-quadrants as cloaks both improves utility (the Casper insight) and
//! halves the DP's child fan-in, cutting the complexity from `O(|B||D|^5)`
//! to `O(|B||D|^3)` before the Lemma-5 and convolution optimizations.
//!
//! Trees here are **lazily materialized** (Section V): a node is split only
//! while it still holds at least `split_threshold` users (typically `k`),
//! which matches the paper's observation that for `k = 50` and 1M users a
//! binary tree of height ≤ 20 suffices with no leaf holding more than 50
//! locations. An eager full materialization is also provided for the
//! first-cut `Bulk_dp` reference implementation and for tests.
//!
//! Incremental restructuring ([`SpatialTree::apply_moves`]) supports the
//! paper's incremental maintenance experiment (Figure 5(b)): moving users
//! update leaf counts along root paths, and leaves split / subtrees collapse
//! when their populations cross the threshold.

#![warn(missing_docs)]

mod build;
mod config;
mod node;
mod stats;
mod update;

pub use build::{partition_in_place, SpatialTree};
pub use config::{Orientation, TreeConfig, TreeKind};
pub use node::{Children, Node, NodeId};
pub use stats::{leaf_csv, TreeStats};
pub use update::UpdateReport;
