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
/// A `u128` is wide enough for any cost this library computes: the largest
/// supported map is `2^20 m` on a side (area `2^40`), and costs sum one area
/// per user, so even `2^32` users stay below `2^72`.
pub type Area = u128;
