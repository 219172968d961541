//! Exact integer planar geometry for LBS anonymization.
//!
//! The paper models a geographic area as a 2-dimensional space with integer
//! coordinates (Section II-A). All geometry here is exact: coordinates are
//! `i64` meters, areas are `u128` square meters, and circle containment is
//! decided on squared distances. Exactness matters because the optimality
//! proofs of the `Bulk_dp` algorithm compare costs (sums of cloak areas) for
//! strict minimality; floating point would make "optimal" seed-dependent.

#![warn(missing_docs)]

mod circle;
mod point;
mod rect;
mod region;

pub use circle::Circle;
pub use point::Point;
pub use rect::{Rect, SplitAxis};
pub use region::Region;

/// Exact area in square meters.
///
/// A `u128`, so a policy's cost (one area per user) stays exact well past
/// what the optimal DP accepts. The DP keeps its cost column in `u64` and
/// checks its own bound at entry, users × map area ≤ `2^62`
/// (`lbs_core::COST_BOUND`), failing with `CoreError::CostOverflow` past it.
pub type Area = u128;
