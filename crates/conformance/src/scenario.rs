//! The seeded scenario matrix: which databases, policies, and algorithms
//! the conformance harness exercises.
//!
//! Every scenario is a pure function of the **master seed** — the only
//! number a failure report needs to print for a bit-exact replay
//! (`derive_seed` gives each scenario an independent stream). The smoke
//! tier keeps instances small enough that the whole matrix (200+
//! instances) finishes well under a minute; the soak tier widens every
//! axis and is run behind `#[ignore]` / `--tier soak`.

use lbs_geom::Rect;
use lbs_model::LocationDb;
use lbs_tree::TreeKind;
use lbs_workload::{derive_seed, generate_master, uniform, BayAreaConfig};
use serde::{Deserialize, Serialize};

/// Default master seed of the checked-in corpus and the smoke CI stage.
pub const DEFAULT_MASTER_SEED: u64 = 0xC0F0_2026;

/// Spatial density profile of a scenario's location database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Density {
    /// i.i.d. uniform over the map (the Section-V complexity setting).
    Uniform,
    /// Bay-Area-style mixture: many Zipf-weighted clusters plus a rural
    /// background (the paper's evaluation workload, §VI).
    Skewed,
    /// A handful of tight clusters and nothing else — the adversarial
    /// case for tree balance and cloak growth.
    Clustered,
}

impl Density {
    /// All densities, matrix order.
    pub const ALL: [Density; 3] = [Density::Uniform, Density::Skewed, Density::Clustered];

    /// Stable lowercase name (scenario ids, golden file names).
    pub fn name(self) -> &'static str {
        match self {
            Density::Uniform => "uniform",
            Density::Skewed => "skewed",
            Density::Clustered => "clustered",
        }
    }

    /// Generates `users` locations on `map` under this profile, keyed by
    /// `seed` alone.
    pub fn generate(self, users: usize, map: Rect, seed: u64) -> LocationDb {
        match self {
            Density::Uniform => uniform(users, map, seed),
            Density::Skewed => generate_master(&BayAreaConfig {
                map_side: map.x1 - map.x0,
                intersections: (users / 4).max(1),
                users_per_intersection: 4,
                user_sigma_m: 12.0,
                clusters: 24,
                background_fraction: 0.05,
                seed,
            }),
            Density::Clustered => generate_master(&BayAreaConfig {
                map_side: map.x1 - map.x0,
                intersections: (users / 4).max(1),
                users_per_intersection: 4,
                user_sigma_m: 4.0,
                clusters: 3,
                background_fraction: 0.0,
                seed,
            }),
        }
    }
}

/// What a scenario runs and which oracle judges it.
///
/// Not serialized directly (the vendored serde stand-in has no struct
/// variant support); reports store [`Algorithm::name`] strings instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `Bulk_dp` (fast, Lemma-5) over a binary (semi-quadrant) tree.
    BulkFastBinary,
    /// `Bulk_dp` restricted to the quad tree (the paper's Theorem-2
    /// setting), via the quad-specialized DP.
    BulkFastQuad,
    /// The dense reference DP — differentially checked against the fast
    /// one on the same tree.
    BulkDense,
    /// Per-user k requirements (a seeded quarter of users demand 2k).
    PerUserK,
    /// Sticky-cohort trajectory-defence anonymizer.
    Sticky,
    /// Incremental maintenance across seeded move rounds, compared
    /// against fresh rebuilds.
    Incremental,
    /// Work-stealing engine at a fixed worker count vs the sequential
    /// partitioned run (bit-identical or bust).
    Engine {
        /// Worker threads for the pool.
        workers: usize,
    },
    /// Work-stealing engine under a seeded [`lbs_parallel::FaultPlan`]
    /// with retries: must recover bit-identically.
    EngineFaulted {
        /// Worker threads for the pool.
        workers: usize,
        /// Seed of the fault plan (panics + stalls + worker delays).
        plan_seed: u64,
    },
    /// Casper-prototype k-inside baseline (expected breachable).
    Casper,
    /// Policy-unaware quad-tree k-inside baseline (expected breachable).
    KInsideQuad,
    /// Policy-unaware binary-tree k-inside baseline (expected
    /// breachable).
    KInsideBinary,
    /// Circular k-inside baseline (expected breachable).
    Circular,
    /// Tiny instance: brute-force optimality oracle + literal PRE
    /// enumeration (Definition 6 taken literally).
    TinyOracle,
    /// The paper's Example-1 construction: Casper on a Table-I-shaped
    /// database **must** exhibit a PRE breach.
    CraftedBreach,
}

impl Algorithm {
    /// Stable name for ids and reports.
    pub fn name(self) -> String {
        match self {
            Algorithm::BulkFastBinary => "bulk-fast-binary".into(),
            Algorithm::BulkFastQuad => "bulk-fast-quad".into(),
            Algorithm::BulkDense => "bulk-dense".into(),
            Algorithm::PerUserK => "per-user-k".into(),
            Algorithm::Sticky => "sticky".into(),
            Algorithm::Incremental => "incremental".into(),
            Algorithm::Engine { workers } => format!("engine-w{workers}"),
            Algorithm::EngineFaulted { workers, plan_seed } => {
                format!("engine-faulted-w{workers}-p{plan_seed}")
            }
            Algorithm::Casper => "baseline-casper".into(),
            Algorithm::KInsideQuad => "baseline-kinside-quad".into(),
            Algorithm::KInsideBinary => "baseline-kinside-binary".into(),
            Algorithm::Circular => "baseline-circular".into(),
            Algorithm::TinyOracle => "tiny-oracle".into(),
            Algorithm::CraftedBreach => "crafted-breach".into(),
        }
    }

    /// Whether the output is *expected* to withstand the policy-aware
    /// attacker. Baselines answer `false`: their breaches are recorded,
    /// not failed.
    pub fn policy_aware(self) -> bool {
        !matches!(
            self,
            Algorithm::Casper
                | Algorithm::KInsideQuad
                | Algorithm::KInsideBinary
                | Algorithm::Circular
                | Algorithm::CraftedBreach
        )
    }
}

/// One scheduled conformance run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Replayable id: `<density>/<algorithm>/k<k>/n<users>`.
    pub id: String,
    /// This scenario's derived seed (all of its randomness flows from
    /// it). Printed on failure.
    pub seed: u64,
    /// Database density profile.
    pub density: Density,
    /// Database size.
    pub users: usize,
    /// Anonymity level (the default level for per-user-k scenarios).
    pub k: usize,
    /// What to run.
    pub algorithm: Algorithm,
}

impl Scenario {
    /// The square power-of-two map the scenario lives on. Tiny-oracle
    /// instances use a 16 m map so the brute-force configuration space
    /// (and literal PRE product) stays enumerable.
    pub fn map(&self) -> Rect {
        match self.algorithm {
            Algorithm::TinyOracle => Rect::square(0, 0, 16),
            _ => Rect::square(0, 0, 1024),
        }
    }

    /// The scenario's database (pure function of its seed).
    pub fn database(&self) -> LocationDb {
        self.density.generate(self.users, self.map(), derive_seed(self.seed, 10))
    }

    /// The spatial-tree kind the scenario's algorithm works over.
    pub fn tree_kind(&self) -> TreeKind {
        match self.algorithm {
            Algorithm::BulkFastQuad | Algorithm::KInsideQuad => TreeKind::Quad,
            _ => TreeKind::Binary,
        }
    }
}

/// Matrix width: smoke (CI, < 60 s) or soak (`#[ignore]`-gated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    /// Small instances, ≥ 200 of them, time-budgeted for CI.
    Smoke,
    /// The same axes widened: more seeds, larger `|D|`, deeper fault
    /// soak.
    Soak,
}

fn push(
    out: &mut Vec<Scenario>,
    master: u64,
    density: Density,
    users: usize,
    k: usize,
    algorithm: Algorithm,
) {
    let id = format!("{}/{}/k{}/n{}", density.name(), algorithm.name(), k, users);
    // Stream the id itself so every cell of the matrix gets an
    // independent, collision-free seed under one master.
    let seed = derive_seed(master, crate::fnv1a(id.bytes()));
    out.push(Scenario { id, seed, density, users, k, algorithm });
}

/// Users for a given k: enough population for every group shape to be
/// feasible without making the DP expensive.
fn users_for(k: usize) -> usize {
    (6 * k).clamp(48, 384)
}

/// Builds the full scenario matrix for `tier` under `master` seed.
///
/// The smoke tier covers: 3 densities × {Bulk fast binary/quad at
/// k ∈ {2..64}, dense DP, per-user-k, sticky, incremental, engine at
/// 1–8 workers} plus the baseline family, tiny PRE/optimality-oracle
/// instances, crafted Example-1 breaches, and seeded fault-soak runs —
/// 200+ instances total (asserted by the smoke test).
pub fn scenario_matrix(master: u64, tier: Tier) -> Vec<Scenario> {
    let mut out = Vec::new();
    let bulk_ks: &[usize] = match tier {
        Tier::Smoke => &[2, 4, 8, 16, 32, 64],
        Tier::Soak => &[2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
    };
    let mid_ks: &[usize] = match tier {
        Tier::Smoke => &[2, 4, 8, 16],
        Tier::Soak => &[2, 4, 8, 16, 32],
    };
    let engine_ks: &[usize] = match tier {
        Tier::Smoke => &[2, 4, 8],
        Tier::Soak => &[2, 4, 8, 16],
    };
    let engine_workers: &[usize] = &[1, 2, 4, 8];

    for density in Density::ALL {
        for &k in bulk_ks {
            push(&mut out, master, density, users_for(k), k, Algorithm::BulkFastBinary);
            push(&mut out, master, density, users_for(k), k, Algorithm::BulkFastQuad);
        }
        for &k in &[2usize, 4, 8] {
            push(&mut out, master, density, 48, k, Algorithm::BulkDense);
        }
        for &k in mid_ks {
            push(&mut out, master, density, users_for(k), k, Algorithm::PerUserK);
            push(&mut out, master, density, users_for(k), k, Algorithm::Sticky);
            push(&mut out, master, density, users_for(k), k, Algorithm::Incremental);
            push(&mut out, master, density, users_for(k), k, Algorithm::Casper);
            push(&mut out, master, density, users_for(k), k, Algorithm::KInsideQuad);
            push(&mut out, master, density, users_for(k), k, Algorithm::KInsideBinary);
            push(&mut out, master, density, users_for(k), k, Algorithm::Circular);
        }
        for &k in engine_ks {
            for &workers in engine_workers {
                push(&mut out, master, density, 192, k, Algorithm::Engine { workers });
            }
        }
        // Tiny instances where the exponential oracles are feasible.
        for users in [4usize, 5, 6] {
            for k in [2usize, 3] {
                push(&mut out, master, density, users, k, Algorithm::TinyOracle);
            }
        }
    }

    // Crafted Example-1 breach reproductions (density tag is nominal;
    // the database is the Table-I construction, scaled per variant).
    for variant in 0..4usize {
        push(&mut out, master, Density::Clustered, 5, 2, Algorithm::CraftedBreach);
        // Distinguish the ids (push derives the seed from the id).
        #[expect(
            clippy::expect_used,
            reason = "push() appended an element on the previous line, so last_mut() is Some"
        )]
        let last = out.last_mut().expect("just pushed");
        last.id = format!("{}#v{variant}", last.id);
        last.seed = derive_seed(last.seed, variant as u64 + 1);
    }

    // Fault-injected engine soak: seeded plans over the jurisdiction
    // task set, recovery must be bit-identical.
    let soak_plans: u64 = match tier {
        Tier::Smoke => 16,
        Tier::Soak => 64,
    };
    for plan in 0..soak_plans {
        let workers = [2usize, 3, 4, 8][(plan % 4) as usize];
        push(
            &mut out,
            master,
            Density::ALL[(plan % 3) as usize],
            192,
            4 + 4 * (plan % 3) as usize,
            Algorithm::EngineFaulted { workers, plan_seed: plan },
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_has_at_least_200_instances() {
        let matrix = scenario_matrix(DEFAULT_MASTER_SEED, Tier::Smoke);
        assert!(matrix.len() >= 200, "only {} scenarios", matrix.len());
        let soak = scenario_matrix(DEFAULT_MASTER_SEED, Tier::Soak);
        assert!(soak.len() > matrix.len(), "soak must widen the matrix");
    }

    #[test]
    fn scenario_ids_and_seeds_are_unique_and_deterministic() {
        let a = scenario_matrix(7, Tier::Smoke);
        let b = scenario_matrix(7, Tier::Smoke);
        let mut ids = std::collections::HashSet::new();
        let mut seeds = std::collections::HashSet::new();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.seed, y.seed);
            assert!(ids.insert(x.id.clone()), "duplicate id {}", x.id);
            assert!(seeds.insert(x.seed), "duplicate seed for {}", x.id);
        }
        let c = scenario_matrix(8, Tier::Smoke);
        assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed), "master seed must matter");
    }

    #[test]
    fn databases_are_replayable_from_the_scenario_seed() {
        let matrix = scenario_matrix(3, Tier::Smoke);
        let s = &matrix[0];
        let a = s.database();
        let b = s.database();
        assert_eq!(a.len(), s.users);
        for (u, p) in a.iter() {
            assert_eq!(b.location(u), Some(p));
        }
    }

    #[test]
    fn densities_have_distinct_shapes() {
        let map = Rect::square(0, 0, 1024);
        let u = Density::Uniform.generate(256, map, 1);
        let c = Density::Clustered.generate(256, map, 1);
        assert_eq!(u.len(), 256);
        assert_eq!(c.len(), 256);
        // Clustered mass concentrates *locally* (clusters may still be
        // spread across the map, so centroid spread is useless). Proxy:
        // mean nearest-neighbour distance, which is tiny under sigma-4
        // clustering and ~32 m for 256 uniform users on a 1024 m map.
        let mean_nn = |db: &LocationDb| {
            let pts: Vec<(f64, f64)> = db.iter().map(|(_, p)| (p.x as f64, p.y as f64)).collect();
            let mut total = 0.0f64;
            for (i, a) in pts.iter().enumerate() {
                let mut best = f64::INFINITY;
                for (j, b) in pts.iter().enumerate() {
                    if i != j {
                        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
                        best = best.min(d);
                    }
                }
                total += best;
            }
            total / pts.len() as f64
        };
        assert!(
            mean_nn(&c) < mean_nn(&u) / 2.0,
            "clustered should be locally much tighter than uniform (nn {} vs {})",
            mean_nn(&c),
            mean_nn(&u)
        );
    }
}
