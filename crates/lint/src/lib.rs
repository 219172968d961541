//! `lbs-lint`: a workspace-aware static-analysis pass for the invariants
//! neither the compiler nor clippy can see.
//!
//! The reproduction's core guarantees — bit-identical `Bulk_dp` outputs
//! under any worker count, replayable master seeds, panic containment in
//! the work-stealing engine — are *behavioral* properties. The rules
//! clippy already implements (no unwrap, panic, print, float `==` or
//! `unsafe` in library code) are the root `Cargo.toml`'s
//! `[workspace.lints]` table. This crate checks the rest on every
//! commit: wall-clock placement, serialization order and runtime io
//! discipline, plus the interprocedural passes. It lexes every Rust file
//! in the workspace with a hand-rolled scanner ([`lexer`]), applies a
//! registry of token-pattern lints ([`registry`], [`rules`]), honors
//! reasoned suppression pragmas ([`pragma`]), and renders human or JSON
//! diagnostics ([`report`]).
//!
//! Entry points: [`lint_workspace`] (used by `lbs lint`, CI, and
//! `tests/lint_clean.rs`), [`lint_source`] (single in-memory file; used
//! by the rule-fixture tests), and the interprocedural drivers
//! [`lint_workspace_deep`] / [`lint_sources_deep`] behind `lbs lint
//! --deep`, which add a call graph ([`callgraph`]) over parsed items
//! ([`parser`]) and run the panic-reachability and taint passes
//! ([`deep`], [`taint`]).

#![warn(missing_docs)]

pub mod callgraph;
pub mod deep;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod registry;
pub mod report;
pub mod rules;
pub mod taint;

pub use deep::PassSet;
pub use registry::{LintDef, Severity, LINTS};
pub use report::{LintReport, Violation};
pub use rules::FileRole;

use rules::FileInfo;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Failures of the lint *driver* (I/O and traversal) — distinct from
/// lint findings, which are data in the [`LintReport`].
#[derive(Debug)]
pub enum LintError {
    /// Filesystem error while walking or reading the workspace.
    Io(String),
    /// `root` does not look like the workspace root.
    NotAWorkspace(PathBuf),
    /// `lint-taint.toml` is missing or malformed (deep runs only).
    Config(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(msg) => write!(f, "lint io error: {msg}"),
            LintError::NotAWorkspace(p) => {
                write!(f, "{} is not the workspace root (no Cargo.toml + crates/)", p.display())
            }
            LintError::Config(msg) => write!(f, "lint config error: {msg}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Directories never scanned (vendored stand-ins, build output, VCS).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", ".claude"];

/// Lints every Rust file under `root` (the workspace root) and returns
/// the aggregate report, sorted canonically.
///
/// # Errors
/// [`LintError::NotAWorkspace`] if `root` lacks `Cargo.toml`/`crates`;
/// [`LintError::Io`] on unreadable files or directories.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort();

    let mut report = LintReport::default();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| LintError::Io(format!("{rel}: {e}")))?;
        let file_report = lint_source(rel, &src);
        report.files_scanned += 1;
        report.suppressed += file_report.suppressed;
        report.violations.extend(file_report.violations);
    }
    report.sort();
    Ok(report)
}

/// Lints a single file given its workspace-relative path (which decides
/// the crate and role) and source text. Shallow rules only: pragmas
/// naming deep lints are exempt from the unused-suppression check here
/// (those lints cannot fire without `--deep`), but their names must
/// still be known to the registry or the pragma is malformed.
pub fn lint_source(rel_path: &str, src: &str) -> LintReport {
    let tokens = lexer::tokenize(src);
    let raw = shallow_raw(rel_path, &tokens);
    // Without --deep, every deep lint is inactive.
    let (violations, suppressed) = apply_pragmas(rel_path, &tokens, raw, &registry::is_deep);
    let mut report = LintReport { files_scanned: 1, violations, suppressed };
    report.sort();
    report
}

/// Runs the shallow (file-local) rules and returns raw violations.
fn shallow_raw(rel_path: &str, tokens: &[lexer::Token<'_>]) -> Vec<Violation> {
    let (crate_name, role) = classify(rel_path);
    let code: Vec<lexer::Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
    let test_regions = rules::test_regions(&code);
    let info = FileInfo { path: rel_path, crate_name: &crate_name, role, code, test_regions };
    let mut raw = Vec::new();
    rules::run_all(&info, &mut raw);
    raw
}

/// Applies suppression pragmas to raw violations and appends the two
/// meta-lints. `inactive(lint)` marks lints that *could not have fired*
/// in this run (e.g. deep lints in a shallow run, or toggled-off deep
/// passes): a pragma naming one is exempt from unused-suppression, but
/// unknown names still fail as malformed in every mode.
fn apply_pragmas(
    rel_path: &str,
    tokens: &[lexer::Token<'_>],
    raw: Vec<Violation>,
    inactive: &dyn Fn(&str) -> bool,
) -> (Vec<Violation>, usize) {
    let (suppressions, issues) = pragma::collect(tokens);

    let mut used = vec![false; suppressions.len()];
    let mut violations = Vec::new();
    let mut suppressed = 0usize;
    for v in raw {
        let hit = suppressions.iter().enumerate().find(|(_, s)| {
            s.lints.iter().any(|l| l == &v.lint) && (s.start_line..=s.end_line).contains(&v.line)
        });
        match hit {
            Some((idx, _)) => {
                used[idx] = true;
                suppressed += 1;
            }
            None => violations.push(v),
        }
    }

    // Malformed pragmas are errors; unused pragmas are warnings.
    for issue in issues {
        violations.push(Violation {
            lint: registry::MALFORMED_PRAGMA.to_string(),
            severity: Severity::Error.name().to_string(),
            path: rel_path.to_string(),
            line: issue.line,
            col: issue.col,
            message: issue.message,
            trace: Vec::new(),
        });
    }
    for (s, was_used) in suppressions.iter().zip(&used) {
        if !was_used && !s.lints.iter().any(|l| inactive(l)) {
            violations.push(Violation {
                lint: registry::UNUSED_SUPPRESSION.to_string(),
                severity: Severity::Warn.name().to_string(),
                path: rel_path.to_string(),
                line: s.line,
                col: 1,
                message: format!(
                    "pragma for {} suppresses nothing on lines {}..={}; delete it",
                    s.lints.join(", "),
                    s.start_line,
                    s.end_line
                ),
                trace: Vec::new(),
            });
        }
    }
    (violations, suppressed)
}

/// Deep (interprocedural) lint over the workspace at `root`: shallow
/// rules plus the call-graph passes enabled in `passes`, configured by
/// `lint-taint.toml` at the workspace root.
///
/// # Errors
/// [`LintError::NotAWorkspace`], [`LintError::Io`], or
/// [`LintError::Config`] when `lint-taint.toml` is missing/invalid.
pub fn lint_workspace_deep(root: &Path, passes: &PassSet) -> Result<LintReport, LintError> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }
    let config = std::fs::read_to_string(root.join("lint-taint.toml"))
        .map_err(|e| LintError::Config(format!("lint-taint.toml: {e}")))?;
    let mut rels = Vec::new();
    collect_rust_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::new();
    for rel in rels {
        let src = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| LintError::Io(format!("{rel}: {e}")))?;
        files.push((rel, src));
    }
    lint_sources_deep(&files, &config, passes)
}

/// Deep lint over in-memory sources (fixture tests use this): shallow
/// rules plus the enabled deep passes, with deep-aware suppression.
///
/// # Errors
/// [`LintError::Config`] when the config text is invalid.
pub fn lint_sources_deep(
    files: &[(String, String)],
    config: &str,
    passes: &PassSet,
) -> Result<LintReport, LintError> {
    let cfg = deep::DeepConfig::parse(config).map_err(LintError::Config)?;
    let deep_files: Vec<deep::DeepFile> = files
        .iter()
        .map(|(rel, src)| {
            let (crate_name, role) = classify(rel);
            deep::DeepFile { rel: rel.clone(), src: src.clone(), crate_name, role }
        })
        .collect();
    let mut by_file: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for v in deep::run(&deep_files, &cfg, passes) {
        by_file.entry(v.path.clone()).or_default().push(v);
    }

    // A deep lint whose pass is toggled off cannot fire: exempt its
    // pragmas from unused-suppression, like deep lints in shallow mode.
    let inactive = |lint: &str| match lint {
        "panic-reachability" => !passes.panic,
        "location-taint" => !passes.location,
        "determinism-taint" => !passes.determinism,
        _ => false,
    };

    let mut report = LintReport::default();
    for (rel, src) in files {
        let tokens = lexer::tokenize(src);
        let mut raw = shallow_raw(rel, &tokens);
        raw.extend(by_file.remove(rel.as_str()).unwrap_or_default());
        let (violations, suppressed) = apply_pragmas(rel, &tokens, raw, &inactive);
        report.files_scanned += 1;
        report.suppressed += suppressed;
        report.violations.extend(violations);
    }
    report.sort();
    Ok(report)
}

/// Derives (crate, role) from a workspace-relative path.
fn classify(rel: &str) -> (String, FileRole) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (&str, &[&str]) = if parts.first() == Some(&"crates") {
        (parts.get(1).copied().unwrap_or(""), parts.get(2..).unwrap_or(&[]))
    } else {
        ("root", &parts[..])
    };
    // The bench crate is harness code end to end.
    if crate_name == "bench" {
        return (crate_name.to_string(), FileRole::Bench);
    }
    let role = match rest.first().copied() {
        Some("tests") => FileRole::Test,
        Some("examples") => FileRole::Example,
        Some("benches") => FileRole::Bench,
        Some("src") => match rest.get(1).copied() {
            Some("bin") => FileRole::Bin,
            Some("main.rs") => FileRole::Bin,
            _ => FileRole::Lib,
        },
        _ => FileRole::Lib,
    };
    (crate_name.to_string(), role)
}

/// Recursively collects workspace-relative paths of `.rs` files.
fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| LintError::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(e.to_string()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_assigns_roles() {
        assert_eq!(classify("crates/core/src/dp_fast.rs"), ("core".into(), FileRole::Lib));
        assert_eq!(classify("crates/cli/src/bin/lbs.rs"), ("cli".into(), FileRole::Bin));
        assert_eq!(classify("crates/geom/tests/properties.rs"), ("geom".into(), FileRole::Test));
        assert_eq!(classify("crates/bench/src/lib.rs"), ("bench".into(), FileRole::Bench));
        assert_eq!(classify("tests/differential.rs"), ("root".into(), FileRole::Test));
        assert_eq!(classify("examples/quickstart.rs"), ("root".into(), FileRole::Example));
        assert_eq!(classify("src/lib.rs"), ("root".into(), FileRole::Lib));
    }

    #[test]
    fn registry_names_are_unique_and_kebab_case() {
        let mut names: Vec<&str> = LINTS.iter().map(|l| l.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate lint names");
        for name in names {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "lint name {name:?} is not kebab-case"
            );
        }
    }
}
