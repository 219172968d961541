//! Cloak regions: the connected, closed regions of Definition 2.

use crate::{Circle, Point, Rect};
use serde::{Deserialize, Serialize};

/// A cloak region as used in anonymized requests (Definition 2).
///
/// The paper's anonymization algorithms draw cloaks from a family `C` of
/// candidate regions; the two families studied are axis-aligned rectangles
/// (quad-tree quadrants and semi-quadrants) and circles centered at a fixed
/// point set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// A rectangular cloak (quadrant or semi-quadrant).
    Rect(Rect),
    /// A circular cloak.
    Circle(Circle),
}

impl Region {
    /// Whether the region contains `p` — the masking condition of
    /// Definition 3 is `loc(SR) ∈ reg(AR)`.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        match self {
            Region::Rect(r) => r.contains(p),
            Region::Circle(c) => c.contains(p),
        }
    }

    /// Area as `f64` for utility reporting across mixed cloak families.
    ///
    /// Exact `u128` rectangle costs are available through
    /// [`Region::rect`] + [`Rect::area`]; this method exists for plots
    /// and summaries that mix rectangles and circles.
    #[inline]
    pub fn area_f64(&self) -> f64 {
        match self {
            Region::Rect(r) => r.area() as f64,
            Region::Circle(c) => c.area_f64(),
        }
    }

    /// Returns the rectangle if this region is rectangular.
    #[inline]
    pub fn rect(&self) -> Option<&Rect> {
        match self {
            Region::Rect(r) => Some(r),
            Region::Circle(_) => None,
        }
    }

    /// Returns the circle if this region is circular.
    #[inline]
    pub fn circle(&self) -> Option<&Circle> {
        match self {
            Region::Circle(c) => Some(c),
            Region::Rect(_) => None,
        }
    }
}

impl From<Rect> for Region {
    fn from(r: Rect) -> Self {
        Region::Rect(r)
    }
}

impl From<Circle> for Region {
    fn from(c: Circle) -> Self {
        Region::Circle(c)
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Rect(r) => write!(f, "{r}"),
            Region::Circle(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::float_cmp, reason = "6.0 is the exact f64 image of the integer area 6")]
    fn dispatch_matches_inner_type() {
        let r: Region = Rect::new(0, 0, 2, 3).into();
        let c: Region = Circle::from_radius2(Point::new(0, 0), 4).into();
        assert!(r.contains(&Point::new(1, 2)));
        assert!(!r.contains(&Point::new(2, 2)));
        assert!(c.contains(&Point::new(0, 2)));
        assert!(!c.contains(&Point::new(2, 2)));
        assert_eq!(r.area_f64(), 6.0);
        assert!(r.rect().is_some() && r.circle().is_none());
        assert!(c.circle().is_some() && c.rect().is_none());
    }
}
