//! Errors of the core anonymization algorithms.

/// Failure modes of optimal policy-aware anonymization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The snapshot holds fewer than k users, so no complete k-summation
    /// configuration exists: nobody can be k-anonymized.
    InsufficientPopulation {
        /// Users present.
        population: usize,
        /// Requested anonymity level.
        k: usize,
    },
    /// k must be at least 1.
    InvalidK,
    /// Tree construction failed (bad map, off-map locations, …).
    Tree(String),
    /// The DP matrix does not cover the requested node (stale matrix used
    /// after restructuring without recomputation).
    StaleMatrix(String),
    /// A worker thread panicked while executing a server task (the panic
    /// payload is captured and surfaced instead of aborting the run).
    WorkerPanic(String),
    /// `count(root) × area(root)` exceeds [`crate::COST_BOUND`]: a DP cost
    /// on this map and population could overflow the `u64` cost column.
    CostOverflow {
        /// Users present.
        population: usize,
        /// Area of the map (the root node), in square meters.
        area: lbs_geom::Area,
    },
    /// A cooperative cancellation point fired before the work finished
    /// (deadline expired); already-committed rows remain valid and the
    /// computation can be resumed later.
    Cancelled,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InsufficientPopulation { population, k } => {
                write!(f, "cannot provide {k}-anonymity: only {population} users in the snapshot")
            }
            CoreError::InvalidK => write!(f, "k must be at least 1"),
            CoreError::Tree(msg) => write!(f, "tree error: {msg}"),
            CoreError::StaleMatrix(msg) => write!(f, "stale DP matrix: {msg}"),
            CoreError::WorkerPanic(msg) => write!(f, "worker thread panicked: {msg}"),
            CoreError::CostOverflow { population, area } => write!(
                f,
                "DP costs could overflow: {population} users × map area {area} m² exceeds 2^62"
            ),
            CoreError::Cancelled => write!(f, "computation cancelled before completion"),
        }
    }
}

impl std::error::Error for CoreError {}
