//! Integer points in the plane.

use serde::{Deserialize, Serialize};

/// A point with integer (meter) coordinates, as produced by the Mobile
/// Positioning Center in the paper's abstract model (Section II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Point {
    /// x coordinate (`locx` in the location database schema).
    pub x: i64,
    /// y coordinate (`locy` in the location database schema).
    pub y: i64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other`, exact in `u128`.
    ///
    /// Used for circle containment and nearest-center queries without ever
    /// taking a square root.
    #[inline]
    pub fn dist2(&self, other: &Point) -> u128 {
        let dx = (self.x - other.x).unsigned_abs() as u128;
        let dy = (self.y - other.y).unsigned_abs() as u128;
        dx * dx + dy * dy
    }

    /// Euclidean distance as `f64`, for reporting only (never for decisions).
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        (self.dist2(other) as f64).sqrt()
    }

    /// Translates the point by `(dx, dy)`.
    #[inline]
    pub fn translated(&self, dx: i64, dy: i64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }
}

impl From<(i64, i64)> for Point {
    fn from((x, y): (i64, i64)) -> Self {
        Point::new(x, y)
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // lbs-lint: allow(location-taint, reason = "Display is the coordinate wire format for dataset files and golden corpora; every service-side egress of a Point is vetted separately by this lint at the call site")
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::float_cmp, reason = "5.0 is the exact square root of 25")]
    fn dist2_is_exact_and_symmetric() {
        let a = Point::new(0, 0);
        let b = Point::new(3, 4);
        assert_eq!(a.dist2(&b), 25);
        assert_eq!(b.dist2(&a), 25);
        assert_eq!(a.dist(&b), 5.0);
    }

    #[test]
    fn dist2_handles_extreme_coordinates() {
        let a = Point::new(i64::MIN / 2, i64::MIN / 2);
        let b = Point::new(i64::MAX / 2, i64::MAX / 2);
        // Must not overflow: deltas are ~2^63, squares ~2^126, sum < 2^127.
        let d2 = a.dist2(&b);
        assert!(d2 > 0);
    }

    #[test]
    fn translation_composes() {
        let p = Point::new(5, -7);
        assert_eq!(p.translated(2, 3).translated(-2, -3), p);
    }

    #[test]
    fn display_formats_as_tuple() {
        assert_eq!(Point::new(1, 2).to_string(), "(1, 2)");
    }
}
