//! Prototype of the Casper basic cloaking algorithm [23].
//!
//! The paper's authors could not use the original Casper implementation
//! (its interface reads one location at a time) and rebuilt the *basic*
//! algorithm; this module does the same. Starting from the requester's
//! cell, Casper returns the cell if it holds k users; otherwise it tries
//! combining the cell with each of its two adjacent siblings (forming a
//! vertical or horizontal semi-quadrant of the parent) and returns a
//! combination holding k users; otherwise it ascends to the parent
//! quadrant and repeats. Choosing between semi-quadrant orientations
//! per-request is why Casper's average cloak area lower-bounds the fixed
//! vertical-semi-quadrant binary tree (Figure 5(a)).

use lbs_geom::{Rect, Region};
use lbs_model::{CloakingPolicy, LocationDb, UserId};
use lbs_tree::{Children, NodeId, SpatialTree, TreeConfig, TreeKind};

/// Casper prototype over a lazily materialized quad tree.
#[derive(Debug, Clone)]
pub struct Casper {
    tree: SpatialTree,
    k: usize,
}

/// Position of a child within its parent quadrant, in the tree's
/// `[NW, SW, SE, NE]` child order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Corner {
    Nw = 0,
    Sw = 1,
    Se = 2,
    Ne = 3,
}

impl Corner {
    fn from_index(i: usize) -> Corner {
        match i {
            0 => Corner::Nw,
            1 => Corner::Sw,
            2 => Corner::Se,
            _ => Corner::Ne,
        }
    }

    /// The sibling forming a *vertical* semi-quadrant (west or east half).
    fn vertical_partner(self) -> Corner {
        match self {
            Corner::Nw => Corner::Sw,
            Corner::Sw => Corner::Nw,
            Corner::Se => Corner::Ne,
            Corner::Ne => Corner::Se,
        }
    }

    /// The sibling forming a *horizontal* semi-quadrant (north or south half).
    fn horizontal_partner(self) -> Corner {
        match self {
            Corner::Nw => Corner::Ne,
            Corner::Ne => Corner::Nw,
            Corner::Sw => Corner::Se,
            Corner::Se => Corner::Sw,
        }
    }
}

impl Casper {
    /// Builds the Casper pyramid (a lazy quad tree) over `db`.
    ///
    /// # Errors
    /// Propagates tree-construction failures.
    pub fn build(db: &LocationDb, map: Rect, k: usize) -> Result<Self, String> {
        if k == 0 {
            return Err("k must be at least 1".into());
        }
        let tree = SpatialTree::build(db, TreeConfig::lazy(TreeKind::Quad, map, k))?;
        Ok(Casper { tree, k })
    }

    /// The underlying quad tree.
    pub fn tree(&self) -> &SpatialTree {
        &self.tree
    }

    /// One bottom-up Casper step from node `id`: the node itself, then the
    /// two semi-quadrant combinations with adjacent siblings.
    fn try_level(&self, id: NodeId) -> Option<Rect> {
        let node = self.tree.node(id);
        if node.count >= self.k {
            return Some(node.rect);
        }
        let parent = node.parent?;
        let Children::Four(siblings) = self.tree.node(parent).children else {
            return None;
        };
        #[expect(
            clippy::expect_used,
            reason = "siblings is the child list of id's own parent, so id is always found"
        )]
        let me = Corner::from_index(
            siblings.iter().position(|&s| s == id).expect("child of its parent"),
        );
        let mut candidates: Vec<(usize, Rect)> = Vec::with_capacity(2);
        for partner in [me.vertical_partner(), me.horizontal_partner()] {
            let partner_id = siblings[partner as usize];
            let combined = node.count + self.tree.count(partner_id);
            if combined >= self.k {
                candidates.push((combined, union_rect(node.rect, self.tree.node(partner_id).rect)));
            }
        }
        // Both orientations have equal area; prefer the less populated one
        // (tighter k-inside fit), vertical on ties, for determinism.
        candidates.into_iter().min_by_key(|&(count, _)| count).map(|(_, rect)| rect)
    }
}

fn union_rect(a: Rect, b: Rect) -> Rect {
    Rect::new(a.x0.min(b.x0), a.y0.min(b.y0), a.x1.max(b.x1), a.y1.max(b.y1))
}

impl CloakingPolicy for Casper {
    fn name(&self) -> &str {
        "casper"
    }

    fn cloak(&self, _db: &LocationDb, user: UserId) -> Option<Region> {
        let leaf = self.tree.leaf_of_user(user)?;
        for id in self.tree.path_to_root(leaf) {
            if let Some(rect) = self.try_level(id) {
                return Some(rect.into());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_geom::Point;

    fn db(points: &[(i64, i64)]) -> LocationDb {
        LocationDb::from_rows(
            points.iter().enumerate().map(|(i, &(x, y))| (UserId(i as u64), Point::new(x, y))),
        )
        .unwrap()
    }

    #[test]
    fn semi_quadrant_combination_beats_parent() {
        // Users at (1,1) and (1,3): together in the west vertical
        // semi-quadrant [0,2)x[0,4) but in different quadrants. Casper must
        // return the 8 m² semi-quadrant, not the 16 m² root.
        let d = db(&[(1, 1), (1, 3)]);
        let casper = Casper::build(&d, Rect::square(0, 0, 4), 2).unwrap();
        let cloak = casper.cloak(&d, UserId(0)).unwrap();
        assert_eq!(*cloak.rect().unwrap(), Rect::new(0, 0, 2, 4));
    }

    #[test]
    fn horizontal_combination_available() {
        // Users at (1,3) and (3,3): north horizontal semi-quadrant.
        let d = db(&[(1, 3), (3, 3)]);
        let casper = Casper::build(&d, Rect::square(0, 0, 4), 2).unwrap();
        let cloak = casper.cloak(&d, UserId(0)).unwrap();
        assert_eq!(*cloak.rect().unwrap(), Rect::new(0, 2, 4, 4));
    }

    #[test]
    fn casper_never_worse_than_puq() {
        // Casper's candidate set strictly contains PUQ's (quadrants plus
        // both semi-quadrant orientations), so its cloaks are never larger.
        use crate::PolicyUnawareQuad;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..10 {
            let n = rng.gen_range(4..=30);
            let pts: Vec<(i64, i64)> =
                (0..n).map(|_| (rng.gen_range(0..32), rng.gen_range(0..32))).collect();
            let d = db(&pts);
            let k = rng.gen_range(2..=4);
            let map = Rect::square(0, 0, 32);
            let casper = Casper::build(&d, map, k).unwrap().materialize(&d);
            let puq = PolicyUnawareQuad::build(&d, map, k).unwrap().materialize(&d);
            for user in d.users() {
                match (casper.cloak_of(user), puq.cloak_of(user)) {
                    (Some(c), Some(q)) => {
                        assert!(
                            c.rect().unwrap().area() <= q.rect().unwrap().area(),
                            "{user}: casper larger than PUQ"
                        );
                    }
                    (None, None) => {}
                    (c, q) => panic!("{user}: availability mismatch {c:?} vs {q:?}"),
                }
            }
        }
    }

    #[test]
    fn cloaks_are_k_inside_and_masking() {
        let d = db(&[(1, 1), (2, 6), (9, 3), (14, 14), (8, 8), (3, 12)]);
        let casper = Casper::build(&d, Rect::square(0, 0, 16), 3).unwrap();
        let bulk = casper.materialize(&d);
        for (user, point) in d.iter() {
            let region = bulk.cloak_of(user).unwrap();
            assert!(region.contains(&point));
            assert!(d.users_in(region).len() >= 3, "{user}");
        }
    }

    #[test]
    fn example_1_breach_c_cloaked_alone_in_a_semi_quadrant() {
        // The paper's Example 1 layout (half-open adaptation): A(0,0) and
        // B(0,1) share a tight sub-cell pair R1; C(0,3) is alone in NW and
        // must combine with a sibling quadrant, receiving a semi-quadrant
        // cloak that *contains* A and B (policy-unaware 2-anonymity holds)
        // but whose cloak group is just {C} — the policy-aware breach.
        let d = db(&[(0, 0), (0, 1), (0, 3), (2, 0), (3, 3)]);
        let casper = Casper::build(&d, Rect::square(0, 0, 4), 2).unwrap();
        let bulk = casper.materialize(&d);
        // A and B share R1 = [0,1)x[0,2).
        assert_eq!(bulk.cloak_of(UserId(0)), bulk.cloak_of(UserId(1)));
        assert_eq!(*bulk.cloak_of(UserId(0)).unwrap().rect().unwrap(), Rect::new(0, 0, 1, 2));
        // C's semi-quadrant cloak contains ≥ 2 users (2-inside)…
        let c_cloak = bulk.cloak_of(UserId(2)).unwrap();
        assert!(d.users_in(c_cloak).len() >= 2);
        // …but nobody shares C's cloak: observed, it identifies C.
        let groups = bulk.groups();
        assert_eq!(groups[c_cloak], vec![UserId(2)], "policy-aware attacker identifies C");
    }

    #[test]
    fn population_below_k_gives_no_cloak() {
        let d = db(&[(1, 1), (3, 3)]);
        let casper = Casper::build(&d, Rect::square(0, 0, 4), 5).unwrap();
        assert!(casper.cloak(&d, UserId(0)).is_none());
    }
}
