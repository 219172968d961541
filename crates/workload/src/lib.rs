//! Synthetic San Francisco Bay Area workload (Section VI of the paper).
//!
//! The paper seeds its evaluation with ~175k real street intersections and
//! inserts 10 users per intersection with a 500 m Gaussian spread,
//! yielding a **Master** dataset of 1.75M locations whose density matches
//! the 1990 census picture of the Bay Area (Figure 2). Neither the
//! intersection data set nor the census raster ships with this
//! reproduction, so this crate substitutes a seeded *mixture-of-Gaussians
//! city model*: a handful of heavy urban cores, many lighter suburban
//! clusters, and a thin uniform rural background. The anonymization
//! algorithms are sensitive only to spatial skew (tree depth follows local
//! density), which the mixture reproduces; seeding keeps every experiment
//! bit-reproducible. See DESIGN.md §5 for the substitution rationale.
//!
//! All randomness flows through [`rand::rngs::StdRng`] with caller-chosen
//! seeds; Gaussians are generated with Box–Muller (the offline `rand` has
//! no normal distribution).

#![warn(missing_docs)]

use lbs_geom::{Point, Rect};
use lbs_model::{LocationDb, LocationDbBuilder, Move, UserId};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the synthetic Bay Area population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BayAreaConfig {
    /// Side of the square map in meters; must be a power of two for the
    /// tree layer. Default 2¹⁷ m ≈ 131 km, covering the Bay Area.
    pub map_side: i64,
    /// Synthetic street intersections (the paper used ~175k real ones).
    pub intersections: usize,
    /// Users inserted around each intersection (paper: 10).
    pub users_per_intersection: usize,
    /// Gaussian spread of users around their intersection in meters
    /// (paper: 500).
    pub user_sigma_m: f64,
    /// Number of city clusters in the mixture.
    pub clusters: usize,
    /// Fraction of intersections drawn uniformly (rural background).
    pub background_fraction: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for BayAreaConfig {
    fn default() -> Self {
        BayAreaConfig {
            map_side: 1 << 17,
            intersections: 175_000,
            users_per_intersection: 10,
            user_sigma_m: 500.0,
            clusters: 24,
            background_fraction: 0.05,
            seed: 0xBA7_A2EA,
        }
    }
}

impl BayAreaConfig {
    /// The map rectangle.
    pub fn map(&self) -> Rect {
        Rect::square(0, 0, self.map_side)
    }

    /// Total users the master set will contain.
    pub fn master_size(&self) -> usize {
        self.intersections * self.users_per_intersection
    }

    /// A proportionally shrunken configuration producing about `n` users —
    /// handy for tests and small experiments.
    pub fn scaled_to(n: usize) -> Self {
        let mut cfg = BayAreaConfig::default();
        cfg.intersections = (n / cfg.users_per_intersection).max(1);
        cfg
    }
}

/// Derives a stream-specific seed from one master seed.
///
/// Every randomized layer (workload generation, sampling, per-snapshot
/// movement, simulation request traffic, conformance scenarios) must key
/// its RNG off `derive_seed(master, stream)` with a documented stream
/// number, never off ad-hoc arithmetic like `master ^ CONST` or
/// `master + t`: ad-hoc mixes collide (`master + 1` of one stream equals
/// `master` of the next) and make a printed failure seed unreplayable.
/// The mix is splitmix64 over the pair, so distinct `(master, stream)`
/// pairs land in statistically independent streams while staying a pure
/// function of the master seed.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One standard-normal sample via Box–Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn clamp_to_map(map: &Rect, x: f64, y: f64) -> Point {
    let cx = (x.round() as i64).clamp(map.x0, map.x1 - 1);
    let cy = (y.round() as i64).clamp(map.y0, map.y1 - 1);
    Point::new(cx, cy)
}

/// Generates the master location database per `cfg`.
///
/// Cluster weights follow a Zipf-like `1/(rank+1)` profile (a few dominant
/// cores, a long suburban tail); cluster spreads vary from tight urban
/// (map/64) to sprawling (map/12).
pub fn generate_master(cfg: &BayAreaConfig) -> LocationDb {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let map = cfg.map();
    let side = cfg.map_side as f64;

    // City cluster centers, kept away from the map edge.
    let clusters: Vec<(f64, f64, f64)> = (0..cfg.clusters.max(1))
        .map(|i| {
            let cx = rng.gen_range(0.1 * side..0.9 * side);
            let cy = rng.gen_range(0.1 * side..0.9 * side);
            let spread = if i < 3 { side / 64.0 } else { rng.gen_range(side / 48.0..side / 12.0) };
            (cx, cy, spread)
        })
        .collect();
    // Zipf-ish weights: cluster i chosen with probability ∝ 1/(i+1).
    let weights: Vec<f64> = (0..clusters.len()).map(|i| 1.0 / (i + 1) as f64).collect();
    let total_weight: f64 = weights.iter().sum();

    let mut builder = LocationDbBuilder::new();
    for _ in 0..cfg.intersections {
        let (ix, iy) = if rng.gen_bool(cfg.background_fraction.clamp(0.0, 1.0)) {
            (rng.gen_range(0.0..side), rng.gen_range(0.0..side))
        } else {
            let mut pick = rng.gen_range(0.0..total_weight);
            let mut chosen = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    chosen = i;
                    break;
                }
                pick -= w;
            }
            let (cx, cy, spread) = clusters[chosen];
            (cx + normal(&mut rng) * spread, cy + normal(&mut rng) * spread)
        };
        for _ in 0..cfg.users_per_intersection {
            let x = ix + normal(&mut rng) * cfg.user_sigma_m;
            let y = iy + normal(&mut rng) * cfg.user_sigma_m;
            builder.add(clamp_to_map(&map, x, y));
        }
    }
    builder.build()
}

/// Draws a uniform random sample of `n` users (without replacement,
/// original user ids kept) — how the paper scales |D| from the master set.
///
/// # Panics
/// If `n` exceeds the master size.
#[expect(
    clippy::expect_used,
    reason = "rows is a permutation prefix of master's rows, whose ids are unique by LocationDb's own invariant"
)]
pub fn sample(master: &LocationDb, n: usize, seed: u64) -> LocationDb {
    assert!(n <= master.len(), "sample of {n} from {} users", master.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<(UserId, Point)> = master.iter().collect();
    // Partial Fisher–Yates: the first n slots become the sample.
    for i in 0..n {
        let j = rng.gen_range(i..rows.len());
        rows.swap(i, j);
    }
    rows.truncate(n);
    LocationDb::from_rows(rows).expect("ids unique in master")
}

/// Uniformly distributed users over `map` (a contrast workload for
/// ablations; the complexity analysis of Section V is stated for this
/// distribution).
pub fn uniform(n: usize, map: Rect, seed: u64) -> LocationDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = LocationDbBuilder::new();
    for _ in 0..n {
        let x = rng.gen_range(map.x0..map.x1);
        let y = rng.gen_range(map.y0..map.y1);
        builder.add(Point::new(x, y));
    }
    builder.build()
}

/// Picks `round(fraction · |D|)` distinct users and moves each up to
/// `max_dist_m` in a uniformly random direction (clamped to the map) —
/// the paper's Figure 5(b) movement model (≤ 200 m per 10 s snapshot).
pub fn random_moves(
    db: &LocationDb,
    map: &Rect,
    fraction: f64,
    max_dist_m: f64,
    seed: u64,
) -> Vec<Move> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_movers = ((db.len() as f64) * fraction).round() as usize;
    let mut rows: Vec<(UserId, Point)> = db.iter().collect();
    for i in 0..n_movers.min(rows.len()) {
        let j = rng.gen_range(i..rows.len());
        rows.swap(i, j);
    }
    rows.truncate(n_movers.min(rows.len()));
    rows.into_iter()
        .map(|(user, p)| {
            let dist = rng.gen_range(0.0..=max_dist_m);
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            let to =
                clamp_to_map(map, p.x as f64 + dist * angle.cos(), p.y as f64 + dist * angle.sin());
            Move { user, to }
        })
        .collect()
}

/// `cells × cells` population counts over the map — the Figure 2 density
/// picture as a grid (render as CSV/heatmap).
pub fn density_grid(db: &LocationDb, map: &Rect, cells: usize) -> Vec<Vec<usize>> {
    assert!(cells >= 1);
    let mut grid = vec![vec![0usize; cells]; cells];
    let w = map.width() as f64;
    let h = map.height() as f64;
    for (_, p) in db.iter() {
        let cx = (((p.x - map.x0) as f64 / w) * cells as f64) as usize;
        let cy = (((p.y - map.y0) as f64 / h) * cells as f64) as usize;
        grid[cy.min(cells - 1)][cx.min(cells - 1)] += 1;
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> BayAreaConfig {
        BayAreaConfig { intersections: 500, users_per_intersection: 10, ..BayAreaConfig::default() }
    }

    #[test]
    fn master_has_requested_size_and_fits_map() {
        let cfg = tiny_cfg();
        let db = generate_master(&cfg);
        assert_eq!(db.len(), 5_000);
        let map = cfg.map();
        for (_, p) in db.iter() {
            assert!(map.contains(&p));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = tiny_cfg();
        let a = generate_master(&cfg);
        let b = generate_master(&cfg);
        assert_eq!(a.len(), b.len());
        for (user, p) in a.iter() {
            assert_eq!(b.location(user), Some(p));
        }
        let mut cfg2 = tiny_cfg();
        cfg2.seed ^= 1;
        let c = generate_master(&cfg2);
        let moved = a.iter().filter(|&(u, p)| c.location(u) != Some(p)).count();
        assert!(moved > 0, "different seed must change the layout");
    }

    #[test]
    fn population_is_skewed_not_uniform() {
        let cfg = tiny_cfg();
        let db = generate_master(&cfg);
        let grid = density_grid(&db, &cfg.map(), 16);
        let counts: Vec<usize> = grid.into_iter().flatten().collect();
        let max = *counts.iter().max().unwrap();
        let mean = db.len() / counts.len();
        assert!(max > 8 * mean, "urban peak {max} should dwarf the {mean} uniform mean");
        let empty = counts.iter().filter(|&&c| c == 0).count();
        assert!(empty > 0, "rural cells should exist");
    }

    #[test]
    fn samples_are_subsets_with_exact_size() {
        let cfg = tiny_cfg();
        let master = generate_master(&cfg);
        let s = sample(&master, 1_000, 7);
        assert_eq!(s.len(), 1_000);
        for (user, p) in s.iter() {
            assert_eq!(master.location(user), Some(p));
        }
        let s2 = sample(&master, 1_000, 7);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            s2.iter().collect::<Vec<_>>(),
            "seeded sampling is deterministic"
        );
    }

    #[test]
    fn moves_respect_distance_bound_and_distinct_users() {
        let cfg = tiny_cfg();
        let db = generate_master(&cfg);
        let map = cfg.map();
        let moves = random_moves(&db, &map, 0.02, 200.0, 3);
        assert_eq!(moves.len(), (db.len() as f64 * 0.02).round() as usize);
        let mut seen = std::collections::HashSet::new();
        for m in &moves {
            assert!(seen.insert(m.user), "each mover appears once");
            let from = db.location(m.user).unwrap();
            // Clamping can only shorten the hop.
            assert!(from.dist(&m.to) <= 200.0 * 2.0f64.sqrt() + 1.0);
            assert!(map.contains(&m.to));
        }
    }

    #[test]
    fn uniform_workload_covers_map_evenly() {
        let map = Rect::square(0, 0, 1 << 10);
        let db = uniform(4_096, map, 5);
        let grid = density_grid(&db, &map, 4);
        for row in grid {
            for cell in row {
                assert!(cell > 100, "uniform cell unexpectedly sparse: {cell}");
            }
        }
    }

    #[test]
    fn scaled_config_hits_target() {
        let cfg = BayAreaConfig::scaled_to(100_000);
        assert_eq!(cfg.master_size(), 100_000);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_collision_resistant() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        // Neighbouring masters/streams must not alias each other the way
        // `master + t` derivations do.
        assert_ne!(derive_seed(7, 3), derive_seed(8, 2));
        assert_ne!(derive_seed(7, 3), derive_seed(6, 4));
        let mut seen = std::collections::HashSet::new();
        for master in 0..32u64 {
            for stream in 0..32u64 {
                assert!(seen.insert(derive_seed(master, stream)), "collision at {master}/{stream}");
            }
        }
    }
}
