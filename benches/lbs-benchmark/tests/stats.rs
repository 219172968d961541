//! The order statistics every timing metric is reported with.

use lbs_benchmark::stats::{quantile, supported_percentiles, Summary};

fn highest_supported_percentile(n: usize) -> Option<f64> {
    supported_percentiles(n).next()
}

#[test]
fn highest_percentile_keeps_ten_samples_beyond_it() {
    // p99.9 needs 10,000 samples (10 beyond it); one fewer falls to p99.
    assert_eq!(highest_supported_percentile(100_000), Some(99.9));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    assert_eq!(highest_supported_percentile(9_999), Some(99.0));
    assert_eq!(highest_supported_percentile(1_000), Some(99.0));
    assert_eq!(highest_supported_percentile(999), Some(90.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(99), Some(75.0));
    assert_eq!(highest_supported_percentile(40), Some(75.0));
    assert_eq!(highest_supported_percentile(39), None);
    assert_eq!(highest_supported_percentile(0), None);
    let below: Vec<f64> = supported_percentiles(1_000).collect();
    assert_eq!(below, [99.0, 90.0, 75.0], "every lower tail is reported too");
}

#[test]
fn quantiles_interpolate_between_ranks() {
    let samples = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(quantile(&samples, 0.0), Some(1.0));
    assert_eq!(quantile(&samples, 1.0), Some(4.0));
    assert_eq!(quantile(&samples, 0.5), Some(2.5));
    assert_eq!(quantile(&samples, 0.25), Some(1.75));
    assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
    assert_eq!(quantile(&[], 0.5), None);
}

#[test]
fn summary_reports_median_quartiles_and_count_in_its_unit() {
    let seconds = [0.003, 0.001, 0.002, 0.005, 0.004];
    let s = Summary::of(&seconds, 1e3, "ms");
    assert!((s.value - 3.0).abs() < 1e-9);
    assert!((s.p25 - 2.0).abs() < 1e-9);
    assert!((s.p75 - 4.0).abs() < 1e-9);
    assert_eq!((s.n, s.unit.as_str()), (5, "ms"));

    let tail = Summary::at_quantile(&seconds, 1.0, 1e3, "ms");
    assert!((tail.value - 5.0).abs() < 1e-9);
    assert_eq!(tail.p25, s.p25);
}
