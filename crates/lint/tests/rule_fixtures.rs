//! Deliberately seeded violations: every lint must fire with the correct
//! name, file, line and column — and every suppression/exemption channel
//! must silence exactly what it claims to.
//!
//! Fixture sources live in raw string literals, which the scanner treats
//! as opaque — so this file itself stays clean under the workspace scan.

use lbs_lint::{lint_source, LintReport, Violation};

/// Lints a fixture as library code of `lbs-core`.
fn lint_lib(src: &str) -> LintReport {
    lint_source("crates/core/src/fixture.rs", src)
}

/// `(lint, line, col)` triples, sorted by the report itself.
fn hits(report: &LintReport) -> Vec<(&str, u32, u32)> {
    report.violations.iter().map(|v| (v.lint.as_str(), v.line, v.col)).collect()
}

fn the_only(report: &LintReport) -> &Violation {
    assert_eq!(report.violations.len(), 1, "expected exactly one finding: {report:?}");
    &report.violations[0]
}

#[test]
fn wall_clock_fires_outside_metrics_and_bench_only() {
    let src = "fn f() { let t = Instant::now(); }\nfn g() { let s = SystemTime::now(); }\n";
    let report = lint_lib(src);
    assert_eq!(hits(&report), [("no-wall-clock-in-dp", 1, 18), ("no-wall-clock-in-dp", 2, 18)]);
    assert!(lint_source("crates/metrics/src/lib.rs", src).violations.is_empty());
    assert!(lint_source("crates/bench/src/run.rs", src).violations.is_empty());
}

#[test]
fn unchecked_io_in_runtime_fires_on_io_results_in_the_runtime_crate_only() {
    let src = "fn f(p: &std::path::Path) {\n    let mut file = create(p).unwrap();\n    file.write_all(b\"frame\").expect(\"boom\");\n    Some(1).unwrap();\n}\n";
    let report = lint_source("crates/runtime/src/wal.rs", src);
    // The io-fed unwrap/expect fire; the plain Option unwrap on line 4
    // does not (the `;` bounds the backward scan).
    assert_eq!(
        hits(&report),
        [("no-unchecked-io-in-runtime", 2, 30), ("no-unchecked-io-in-runtime", 3, 30)],
        "{report:?}"
    );
    // Outside lbs-runtime the same source never trips the io lint.
    assert!(lint_source("crates/core/src/fixture.rs", src).violations.is_empty());
    // Runtime test code is exempt (fixtures unwrap io freely).
    assert!(lint_source("crates/runtime/tests/fixture.rs", src).violations.is_empty());
}

#[test]
fn raw_fs_in_runtime_fires_outside_the_storage_seam_only() {
    let src = "fn f(p: &std::path::Path) -> std::io::Result<()> {\n    let raw = std::fs::read(p)?;\n    let file = File::create(p)?;\n    let opts = OpenOptions::new();\n    Ok(())\n}\n";
    let report = lint_source("crates/runtime/src/wal.rs", src);
    let raw: Vec<u32> = report
        .violations
        .iter()
        .filter(|v| v.lint == "no-raw-fs-in-runtime")
        .map(|v| v.line)
        .collect();
    assert_eq!(raw, [2, 3, 4], "{report:?}");
    // storage.rs is the seam's sanctioned real-fs implementation.
    let seam = lint_source("crates/runtime/src/storage.rs", src);
    assert!(seam.violations.iter().all(|v| v.lint != "no-raw-fs-in-runtime"), "{seam:?}");
    // Other crates may touch the filesystem directly (the CLI, tests).
    let other = lint_source("crates/cli/src/commands.rs", src);
    assert!(other.violations.iter().all(|v| v.lint != "no-raw-fs-in-runtime"), "{other:?}");
    // Runtime test code tears real files on purpose.
    let tests = lint_source("crates/runtime/tests/fixture.rs", src);
    assert!(tests.violations.iter().all(|v| v.lint != "no-raw-fs-in-runtime"), "{tests:?}");
    // Inline #[cfg(test)] modules inside runtime lib files are exempt too.
    let inline = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
    let inline_report = lint_source("crates/runtime/src/wal.rs", &inline);
    assert!(
        inline_report.violations.iter().all(|v| v.lint != "no-raw-fs-in-runtime"),
        "{inline_report:?}"
    );
    // An identifier merely *containing* File (the seam's own StorageFile)
    // never fires.
    let seam_use = "fn g(s: &dyn StorageBackend) { let h: Box<dyn StorageFile> = s.create(std::path::Path::new(\"x\")).unwrap(); }\n";
    let report = lint_source("crates/runtime/src/checkpoint.rs", seam_use);
    assert!(report.violations.iter().all(|v| v.lint != "no-raw-fs-in-runtime"), "{report:?}");
}

#[test]
fn hashmap_in_serialized_type_fires_and_serde_skip_shields() {
    let src = r#"
#[derive(Debug, Serialize)]
struct Out {
    good: BTreeMap<u32, u32>,
    bad: HashMap<u32, u32>,
    #[serde(skip)]
    shielded: HashMap<u32, u32>,
    also_bad: HashSet<u32>,
}
struct NotSerialized {
    fine: HashMap<u32, u32>,
}
"#;
    let report = lint_lib(src);
    assert_eq!(
        hits(&report),
        [("no-hashmap-in-serialized-output", 5, 10), ("no-hashmap-in-serialized-output", 8, 15)],
        "{report:?}"
    );
}

#[test]
fn cfg_test_regions_inside_lib_files_are_exempt() {
    let src = "pub fn lib_code() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let t = Instant::now();\n        let s = SystemTime::now();\n    }\n}\n";
    assert!(lint_lib(src).violations.is_empty(), "{:?}", lint_lib(src));
    // …but the same calls above the test module still fire.
    let src2 = format!("pub fn bad() {{ Instant::now(); }}\n{src}");
    let report = lint_lib(&src2);
    assert_eq!(the_only(&report).lint, "no-wall-clock-in-dp");
    assert_eq!(report.violations[0].line, 1);
}

#[test]
fn same_line_pragma_suppresses_that_line_only() {
    let src = r#"
fn f() {
    let t = Instant::now(); // lbs-lint: allow(no-wall-clock-in-dp, reason = "log-only timing")
    let u = Instant::now();
}
"#;
    let report = lint_lib(src);
    assert_eq!(report.suppressed, 1);
    let v = the_only(&report);
    assert_eq!((v.lint.as_str(), v.line), ("no-wall-clock-in-dp", 4));
}

#[test]
fn standalone_pragma_covers_a_multi_line_statement() {
    let src = r#"
fn f(started: Instant) -> u64 {
    // lbs-lint: allow(no-wall-clock-in-dp, reason = "elapsed time is reported, never fed back")
    Instant::now()
        .duration_since(started)
        .as_millis()
        .try_into()
        .unwrap_or(u64::MAX)
}
fn g() -> Instant {
    Instant::now()
}
"#;
    let report = lint_lib(src);
    assert_eq!(report.suppressed, 1);
    let v = the_only(&report);
    assert_eq!((v.lint.as_str(), v.line), ("no-wall-clock-in-dp", 11));
}

#[test]
fn one_pragma_may_name_several_lints() {
    let src = r#"
fn f(p: &std::path::Path) {
    // lbs-lint: allow(no-raw-fs-in-runtime, no-unchecked-io-in-runtime, reason = "debug shim behind a feature gate")
    let file = File::open(p).unwrap();
}
"#;
    let report = lint_source("crates/runtime/src/wal.rs", src);
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.suppressed, 2);
}

#[test]
fn pragma_without_reason_is_a_malformed_pragma_error() {
    let src =
        "fn f() {\n    // lbs-lint: allow(no-wall-clock-in-dp)\n    let t = Instant::now();\n}\n";
    let report = lint_lib(src);
    // The pragma is rejected, so the clock read also still fires.
    assert_eq!(hits(&report), [("malformed-pragma", 2, 5), ("no-wall-clock-in-dp", 3, 13)]);
    assert_eq!(report.suppressed, 0);
    assert_eq!(report.errors(), 2);
}

#[test]
fn pragma_with_empty_reason_is_rejected() {
    let src = "// lbs-lint: allow(no-wall-clock-in-dp, reason = \"  \")\nfn f() {}\n";
    let report = lint_lib(src);
    assert_eq!(the_only(&report).lint, "malformed-pragma");
}

#[test]
fn pragma_naming_an_unknown_lint_is_rejected() {
    let src = "// lbs-lint: allow(no-such-lint, reason = \"typo\")\nfn f() {}\n";
    let report = lint_lib(src);
    let v = the_only(&report);
    assert_eq!(v.lint, "malformed-pragma");
    assert!(v.message.contains("no-such-lint"), "{}", v.message);
}

#[test]
fn unused_suppression_is_a_warning_not_an_error() {
    let src =
        "// lbs-lint: allow(no-wall-clock-in-dp, reason = \"nothing here reads a clock\")\nfn f() {}\n";
    let report = lint_lib(src);
    let v = the_only(&report);
    assert_eq!((v.lint.as_str(), v.severity.as_str()), ("unused-suppression", "warn"));
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 1);
}

#[test]
fn pragma_inside_a_macro_body_still_applies() {
    let src = r#"
macro_rules! stamp {
    () => {{
        // lbs-lint: allow(no-wall-clock-in-dp, reason = "macro expands in log-only contexts")
        Instant::now()
    }};
}
"#;
    let report = lint_lib(src);
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.suppressed, 1);
}

#[test]
fn doc_comments_cannot_carry_pragmas() {
    // A pragma-shaped doc comment is ignored entirely (neither applied
    // nor reported), so the clock read underneath still fires.
    let src = "/// lbs-lint: allow(no-wall-clock-in-dp, reason = \"docs are not pragmas\")\nfn f() { Instant::now(); }\n";
    let report = lint_lib(src);
    assert_eq!(the_only(&report).lint, "no-wall-clock-in-dp");
    assert_eq!(report.suppressed, 0);
}

#[test]
fn pragma_for_the_wrong_lint_does_not_suppress_and_is_flagged_unused() {
    let src = r#"
fn f() {
    // lbs-lint: allow(no-raw-fs-in-runtime, reason = "wrong lint named here")
    let t = Instant::now();
}
"#;
    let report = lint_lib(src);
    assert_eq!(hits(&report), [("unused-suppression", 3, 1), ("no-wall-clock-in-dp", 4, 13)]);
}

#[test]
fn fixture_patterns_inside_string_literals_never_fire() {
    let src = r##"
pub const EXAMPLE: &str = "Instant::now(); File::open(p).unwrap()";
pub const RAW: &str = r#"SystemTime::now() std::fs::read(p)"#;
"##;
    assert!(lint_lib(src).violations.is_empty());
    assert!(lint_source("crates/runtime/src/wal.rs", src).violations.is_empty());
}

#[test]
fn json_output_carries_names_paths_and_spans() {
    let report = lint_lib("fn f() { Instant::now(); }\n");
    let json = report.to_json().expect("serializable");
    for needle in [
        "\"lint\": \"no-wall-clock-in-dp\"",
        "\"path\": \"crates/core/src/fixture.rs\"",
        "\"line\": 1",
        "\"severity\": \"error\"",
        "\"files_scanned\": 1",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}
