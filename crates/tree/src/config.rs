//! Tree construction parameters.

use lbs_geom::Rect;
use serde::{Deserialize, Serialize};

/// Which decomposition the tree uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeKind {
    /// Classical 4-way quad tree (Gruteser–Grunwald \[16\]; Theorem 2).
    Quad,
    /// The binary semi-quadrant tree of Section V: squares split vertically,
    /// semi-quadrants split horizontally.
    Binary,
}

/// How a *square* node of a binary tree chooses its semi-quadrant
/// orientation. (Non-square nodes must split across their long axis to
/// return to squares; quad trees have no choice to make.)
///
/// The paper statically splits vertically "for simplicity", noting that
/// "ideally one would choose dynamically between vertical and horizontal
/// semi-quadrants at run-time" — Casper's adaptive choice is why it wins
/// Figure 5(a). [`Orientation::Balanced`] implements that dynamic choice:
/// split along whichever axis divides the node's population most evenly,
/// which lets both halves reach k (and keep splitting) sooner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Orientation {
    /// The paper's static choice: squares always split vertically.
    FixedVertical,
    /// Population-balancing dynamic choice (ties split vertically).
    Balanced,
}

/// Parameters governing lazy materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Quad or binary decomposition.
    pub kind: TreeKind,
    /// The map: a square with power-of-two side covering all locations.
    pub map: Rect,
    /// A node is split while it holds at least this many users.
    ///
    /// The paper splits "only if it contains sufficient users to maintain
    /// anonymity", i.e. threshold = k. A threshold of 0 forces eager full
    /// materialization down to the depth/size limits (used by the first-cut
    /// reference algorithm and by tests).
    pub split_threshold: usize,
    /// Hard depth cap (root has depth 0). Must terminate even when many
    /// users share exact coordinates.
    pub max_depth: u16,
    /// Nodes whose shorter side would drop below this are never split.
    pub min_side: i64,
    /// Semi-quadrant orientation choice for binary trees.
    pub orientation: Orientation,
}

impl TreeConfig {
    /// A lazily materialized tree of the given kind for anonymity level `k`.
    pub fn lazy(kind: TreeKind, map: Rect, k: usize) -> Self {
        TreeConfig {
            kind,
            map,
            split_threshold: k.max(1),
            max_depth: 40,
            min_side: 1,
            orientation: Orientation::FixedVertical,
        }
    }

    /// An eagerly materialized full tree of the given depth (every node
    /// split regardless of population).
    pub fn eager(kind: TreeKind, map: Rect, max_depth: u16) -> Self {
        TreeConfig {
            kind,
            map,
            split_threshold: 0,
            max_depth,
            min_side: 1,
            orientation: Orientation::FixedVertical,
        }
    }

    /// Switches a binary tree to population-balancing orientation.
    pub fn with_orientation(mut self, orientation: Orientation) -> Self {
        self.orientation = orientation;
        self
    }

    /// Validates the map shape.
    ///
    /// Power-of-two sides guarantee that every materialized (semi-)quadrant
    /// has even extent along its split axis, so quadrants partition exactly.
    /// Quad trees need a square map; binary trees also accept a 1:2 tall
    /// rectangle (a vertical semi-quadrant), which is what jurisdiction
    /// partitioning (Section V) hands to per-server anonymizers.
    pub fn validate(&self) -> Result<(), String> {
        let w = self.map.width();
        let h = self.map.height();
        let square = w == h;
        // Semi-quadrants are 1:2; balanced-orientation trees also produce
        // wide 2:1 halves.
        let semi = h == 2 * w || w == 2 * h;
        match self.kind {
            TreeKind::Quad if !square => {
                return Err(format!("quad-tree map must be square, got {w}x{h}"));
            }
            TreeKind::Binary if !(square || semi) => {
                return Err(format!("binary-tree map must be square or 1:2, got {w}x{h}"));
            }
            _ => {}
        }
        if w <= 0 || (w as u64) & (w as u64 - 1) != 0 {
            return Err(format!("map side must be a positive power of two, got {w}"));
        }
        if self.min_side < 1 {
            return Err("min_side must be at least 1".into());
        }
        Ok(())
    }

    /// Whether a node with the given rect, depth and population may split
    /// — in a lazy tree, whether the node is internal.
    pub fn may_split(&self, rect: &Rect, depth: u16, count: usize) -> bool {
        if depth >= self.max_depth {
            return false;
        }
        let axis = match self.kind {
            TreeKind::Quad => {
                return rect.width() / 2 >= self.min_side
                    && rect.height() / 2 >= self.min_side
                    && count >= self.split_threshold
            }
            TreeKind::Binary => rect.binary_split_axis(),
        };
        let half = match axis {
            lbs_geom::SplitAxis::Vertical => rect.width() / 2,
            lbs_geom::SplitAxis::Horizontal => rect.height() / 2,
        };
        half >= self.min_side && count >= self.split_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_power_of_two_square() {
        let cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 1 << 17), 50);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_square_and_non_power() {
        let bad1 = TreeConfig::lazy(TreeKind::Quad, Rect::new(0, 0, 8, 4), 2);
        assert!(bad1.validate().is_err());
        let bad2 = TreeConfig::lazy(TreeKind::Quad, Rect::square(0, 0, 12), 2);
        assert!(bad2.validate().is_err());
        let bad3 = TreeConfig::lazy(TreeKind::Quad, Rect::new(0, 0, 4, 8), 2);
        assert!(bad3.validate().is_err(), "quad trees require squares");
    }

    #[test]
    fn binary_accepts_tall_semi_quadrant_maps() {
        let tall = TreeConfig::lazy(TreeKind::Binary, Rect::new(0, 0, 4, 8), 2);
        assert!(tall.validate().is_ok());
        let wide = TreeConfig::lazy(TreeKind::Binary, Rect::new(0, 0, 8, 4), 2);
        assert!(wide.validate().is_ok(), "balanced orientation produces wide 2:1 halves");
        let sliver = TreeConfig::lazy(TreeKind::Binary, Rect::new(0, 0, 16, 4), 2);
        assert!(sliver.validate().is_err(), "worse than 1:2 never arises");
    }

    #[test]
    fn eager_config_splits_empty_nodes() {
        let cfg = TreeConfig::eager(TreeKind::Quad, Rect::square(0, 0, 8), 2);
        assert!(cfg.may_split(&Rect::square(0, 0, 8), 0, 0));
        assert!(!cfg.may_split(&Rect::square(0, 0, 2), 2, 100), "depth cap");
    }

    #[test]
    fn min_side_blocks_splits() {
        let mut cfg = TreeConfig::lazy(TreeKind::Binary, Rect::square(0, 0, 16), 1);
        cfg.min_side = 4;
        // A 8x16 semi-quadrant splits horizontally into 8x8: allowed.
        assert!(cfg.may_split(&Rect::new(0, 0, 8, 16), 1, 10));
        // A 4x8 node would produce 4x4: allowed; a 4x4 node would produce 2x4: blocked.
        assert!(cfg.may_split(&Rect::new(0, 0, 4, 8), 3, 10));
        assert!(!cfg.may_split(&Rect::new(0, 0, 4, 4), 4, 10));
    }
}
