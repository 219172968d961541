//! Order statistics over timing samples.

use serde::{Deserialize, Serialize};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between the two closest ranks (the usual "type 7" definition). Returns
/// `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Tail percentiles a timing may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// The percentiles of [`TAIL_PERCENTILES`] with at least ten of `n`
/// samples beyond them, highest first: the first is the highest tail `n`
/// samples can report.
pub fn supported_percentiles(n: usize) -> impl Iterator<Item = f64> {
    TAIL_PERCENTILES.into_iter().filter(move |p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A timing or count summarised over the samples of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The reported value (the median for timings, the value itself for
    /// single measurements).
    pub value: f64,
    /// First quartile of the samples.
    pub p25: f64,
    /// Third quartile of the samples.
    pub p75: f64,
    /// Number of samples.
    pub n: u64,
    /// Unit the value is in.
    pub unit: String,
}

impl Summary {
    /// Median and quartiles of `samples`, scaled by `scale` into `unit`.
    pub fn of(samples: &[f64], scale: f64, unit: &str) -> Summary {
        let mut sorted: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        sorted.sort_by(f64::total_cmp);
        let at = |q| quantile_sorted(&sorted, q).unwrap_or(0.0);
        Summary {
            value: at(0.5),
            p25: at(0.25),
            p75: at(0.75),
            n: sorted.len() as u64,
            unit: unit.to_string(),
        }
    }

    /// The `q`-quantile of `samples` (scaled) as the reported value, with
    /// the quartiles alongside.
    pub fn at_quantile(samples: &[f64], q: f64, scale: f64, unit: &str) -> Summary {
        let mut summary = Summary::of(samples, scale, unit);
        summary.value = quantile(samples, q).unwrap_or(0.0) * scale;
        summary
    }

    /// A single measurement.
    pub fn single(value: f64, unit: &str) -> Summary {
        Summary { value, p25: value, p75: value, n: 1, unit: unit.to_string() }
    }
}
