//! Property-based tests for the geometry substrate. Exactness here is
//! load-bearing: the DP's optimality proofs compare `u128` costs for
//! strict minimality, and every upper layer assumes quadrants partition
//! their parents exactly.

use lbs_geom::{Circle, Point, Rect, Region, SplitAxis};
use proptest::prelude::*;

/// Power-of-two squares up to 2^12, anywhere in a comfortable i64 range.
fn arb_square() -> impl Strategy<Value = Rect> {
    (0u32..=12, -1_000_000i64..1_000_000, -1_000_000i64..1_000_000)
        .prop_map(|(pow, x0, y0)| Rect::square(x0, y0, 1 << pow))
}

fn arb_point_in(rect: Rect) -> impl Strategy<Value = Point> {
    (rect.x0..rect.x1, rect.y0..rect.y1).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both split orientations partition: every point of the parent lies
    /// in exactly one half, and areas add up exactly.
    #[test]
    fn splits_partition_exactly(rect in arb_square(), seed in any::<u64>()) {
        prop_assume!(rect.width() >= 2);
        for axis in [SplitAxis::Vertical, SplitAxis::Horizontal] {
            let (low, high) = rect.split(axis);
            prop_assert_eq!(low.area() + high.area(), rect.area());
            prop_assert!(!low.intersects(&high));
            prop_assert!(rect.contains_rect(&low) && rect.contains_rect(&high));
            // Sample points deterministically from the seed.
            let mut state = seed;
            for _ in 0..32 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let px = rect.x0 + (state >> 33) as i64 % rect.width();
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let py = rect.y0 + (state >> 33) as i64 % rect.height();
                let p = Point::new(px, py);
                let n = [low, high].iter().filter(|r| r.contains(&p)).count();
                prop_assert_eq!(n, 1, "{} covered {} times", p, n);
            }
        }
    }

    /// Quadrants partition the parent and are congruent squares.
    #[test]
    fn quadrants_partition(rect in arb_square()) {
        prop_assume!(rect.width() >= 2);
        let quads = rect.quadrants();
        let total: u128 = quads.iter().map(Rect::area).sum();
        prop_assert_eq!(total, rect.area());
        for (i, a) in quads.iter().enumerate() {
            prop_assert_eq!(a.width(), rect.width() / 2);
            prop_assert_eq!(a.width(), a.height());
            for (j, b) in quads.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.intersects(b));
                }
            }
        }
    }

    /// dist2 is a symmetric, zero-iff-equal, triangle-inequality-obeying
    /// (squared) metric on sampled points.
    #[test]
    fn dist2_metric_properties(
        ax in -100_000i64..100_000, ay in -100_000i64..100_000,
        bx in -100_000i64..100_000, by in -100_000i64..100_000,
        cx in -100_000i64..100_000, cy in -100_000i64..100_000,
    ) {
        let (a, b, c) = (Point::new(ax, ay), Point::new(bx, by), Point::new(cx, cy));
        prop_assert_eq!(a.dist2(&b), b.dist2(&a));
        prop_assert_eq!(a.dist2(&a), 0);
        if a != b {
            prop_assert!(a.dist2(&b) > 0);
        }
        // Triangle inequality on the (unsquared) distances.
        prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-6);
    }

    /// Circle::covering is the tightest cover: every point is inside, and
    /// shrinking the radius by one excludes some point.
    #[test]
    fn covering_is_tight(
        center in (-1000i64..1000, -1000i64..1000),
        pts in prop::collection::vec((-1000i64..1000, -1000i64..1000), 1..20),
    ) {
        let center = Point::new(center.0, center.1);
        let points: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let circle = Circle::covering(center, &points);
        for p in &points {
            prop_assert!(circle.contains(p));
        }
        if circle.radius2 > 0 {
            let smaller = Circle::from_radius2(center, circle.radius2 - 1);
            prop_assert!(points.iter().any(|p| !smaller.contains(p)), "cover not tight");
        }
    }

    /// Region containment agrees with the wrapped shape for points in and
    /// around the region.
    #[test]
    #[expect(clippy::float_cmp, reason = "the dispatched area and the direct cast are the same integer-to-f64 conversion")]
    fn region_dispatch_consistent(rect in arb_square(), seed in any::<u64>()) {
        let region: Region = rect.into();
        let mut state = seed | 1;
        for _ in 0..16 {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let dx = (state >> 40) as i64 % (2 * rect.width()) - rect.width() / 2;
            let dy = (state >> 20) as i64 % (2 * rect.height()) - rect.height() / 2;
            let p = Point::new(rect.x0 + dx, rect.y0 + dy);
            prop_assert_eq!(region.contains(&p), rect.contains(&p));
        }
        prop_assert_eq!(region.area_f64(), rect.area() as f64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A point is always inside the rect returned by clamping semantics
    /// used throughout (center lies within).
    #[test]
    fn center_is_contained(rect in arb_square()) {
        prop_assert!(rect.contains(&rect.center()));
    }

    /// binary_split_axis always returns an axis whose halves are valid
    /// rects of halved extent.
    #[test]
    fn binary_axis_preserves_validity(rect in arb_square(), tall in any::<bool>()) {
        prop_assume!(rect.width() >= 4);
        let rect = if tall {
            Rect::new(rect.x0, rect.y0, rect.x0 + rect.width() / 2, rect.y1)
        } else {
            rect
        };
        let axis = rect.binary_split_axis();
        let (low, high) = rect.split(axis);
        prop_assert_eq!(low.area(), high.area());
        // Tall rects must split horizontally (back toward squares).
        if rect.height() > rect.width() {
            prop_assert_eq!(axis, SplitAxis::Horizontal);
        }
    }
}

#[test]
fn point_in_rect_strategy_sanity() {
    // Exercise the helper so it stays honest if strategies change.
    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    let rect = Rect::square(10, 10, 16);
    let mut runner = TestRunner::deterministic();
    for _ in 0..50 {
        let p = arb_point_in(rect).new_tree(&mut runner).unwrap().current();
        assert!(rect.contains(&p));
    }
}
