//! Self-check: the workspace must lint clean under its own invariant
//! checker. This is the in-process twin of the `lbs lint` CI stage — it
//! keeps `cargo test` sufficient to catch regressions even when the CLI
//! stage is skipped.

use lbs_lint::lint_workspace;
use std::path::Path;

#[test]
fn workspace_has_zero_unsuppressed_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace lint runs");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}); did the walker break?",
        report.files_scanned
    );
    assert_eq!(
        report.errors(),
        0,
        "unsuppressed lint errors — fix them or add a reasoned pragma:\n{}",
        report.render_human()
    );
    assert_eq!(report.warnings(), 0, "lint warnings (stale pragmas?):\n{}", report.render_human());
}

#[test]
fn every_suppression_carries_a_reason_by_construction() {
    // The pragma grammar rejects reason-less `allow(...)`; feed the parser
    // a reason-less pragma against real workspace scanning to double-check
    // the gate is wired through `lint_workspace`'s code path too.
    let report = lbs_lint::lint_source(
        "crates/core/src/fixture.rs",
        "// lbs-lint: allow(no-wall-clock-in-dp)\nfn f() { Instant::now(); }\n",
    );
    assert!(
        report.violations.iter().any(|v| v.lint == "malformed-pragma"),
        "reason-less pragma must be rejected: {report:?}"
    );
}

#[test]
fn every_crate_opts_into_the_workspace_lint_table() {
    // The clippy half of the invariants (no unwrap/panic/print/float `==`
    // in library code, no `unsafe`) reaches a crate only through its
    // `[lints] workspace = true` opt-in. The two packages outside the
    // table, lbs-bench and the root facade, forbid unsafe in their roots.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).expect("utf-8 crate dir");
        if name == "bench" {
            continue;
        }
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "crates/{name}/Cargo.toml lacks `[lints] workspace = true`"
        );
        checked += 1;
    }
    assert!(checked >= 15, "only {checked} crate manifests found");
    for lib in ["src/lib.rs", "crates/bench/src/lib.rs"] {
        let src = std::fs::read_to_string(root.join(lib)).expect("crate root");
        assert!(src.contains("\n#![forbid(unsafe_code)]\n"), "{lib} lacks #![forbid(unsafe_code)]");
    }
}
