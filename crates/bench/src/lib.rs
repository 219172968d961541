//! Shared plumbing for the paper-figure `experiments` binary: workload
//! caching, wall-clock timing, and table rendering, plus run provenance
//! ([`suite::git_rev`]) for the end-to-end benchmark's reports.
//!
//! Performance is measured in two places, neither of them here: the
//! end-to-end benchmark `benches/lbs-benchmark` (wall time per layer),
//! and the exact work-counter golden in `lbs_conformance::golden`
//! (tree nodes, DP rows and cells, cache hits, WAL and checkpoint bytes),
//! which the workspace tests check in CI and
//! `lbs conformance --golden tests/golden` checks on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod suite;

use lbs_model::LocationDb;
use lbs_workload::{derive_seed, generate_master, sample, BayAreaConfig};
use std::time::{Duration, Instant};

/// Lazily generated master workload shared by all experiments in one
/// process (generation itself takes ~0.5 s for 1.75M users).
pub struct MasterWorkload {
    cfg: BayAreaConfig,
    master: LocationDb,
}

impl MasterWorkload {
    /// Generates the paper-scale master set (1.75M users), or a scaled-down
    /// one when `quick` is set (for smoke runs and CI), under the default
    /// master seed.
    pub fn generate(quick: bool) -> Self {
        Self::generate_seeded(quick, BayAreaConfig::default().seed)
    }

    /// As [`generate`](Self::generate) with an explicit master seed — the
    /// `--seed` flag of the experiment harness. Every downstream sample is
    /// derived from this one seed via [`derive_seed`], so a whole run
    /// replays from the single number it prints.
    pub fn generate_seeded(quick: bool, seed: u64) -> Self {
        let base = if quick { BayAreaConfig::scaled_to(100_000) } else { BayAreaConfig::default() };
        let cfg = BayAreaConfig { seed, ..base };
        let master = generate_master(&cfg);
        MasterWorkload { cfg, master }
    }

    /// The generation parameters.
    pub fn config(&self) -> &BayAreaConfig {
        &self.cfg
    }

    /// The full master database.
    pub fn master(&self) -> &LocationDb {
        &self.master
    }

    /// A deterministic `n`-user sample (capped at the master size), keyed
    /// off the master seed so `--seed` changes it too.
    pub fn sample(&self, n: usize) -> LocationDb {
        sample(&self.master, n.min(self.master.len()), derive_seed(self.cfg.seed, n as u64))
    }

    /// Scales a paper-sized |D| down proportionally in quick mode, keeping
    /// the whole sweep's shape consistent.
    pub fn scale(&self, paper_n: usize) -> usize {
        if self.master.len() >= 1_750_000 {
            paper_n
        } else {
            (paper_n as f64 / 1_750_000.0 * self.master.len() as f64).round() as usize
        }
    }
}

/// Times a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// Seconds with millisecond resolution, for table cells.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A minimal fixed-width table printer for experiment output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the table with padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["|D|", "time(s)"]);
        t.row(vec!["100000".into(), "0.123".into()]);
        t.row(vec!["1".into(), "12.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("|D|"));
        assert!(lines[2].ends_with("0.123"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_bad_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn quick_master_scales_paper_sizes() {
        let w = MasterWorkload::generate(true);
        assert_eq!(w.master().len(), 100_000);
        assert_eq!(w.scale(1_750_000), 100_000);
        assert_eq!(w.scale(875_000), 50_000);
        let s = w.sample(1_000);
        assert_eq!(s.len(), 1_000);
    }
}
