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
fn unwrap_and_expect_fire_with_exact_spans() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\nfn g(x: Option<u8>) -> u8 {\n    x.expect(\"msg\")\n}\n";
    let report = lint_lib(src);
    assert_eq!(
        hits(&report),
        [("no-unwrap-in-lib", 2, 7), ("no-unwrap-in-lib", 5, 7)],
        "{report:?}"
    );
    assert_eq!(report.errors(), 2);
}

#[test]
fn unwrap_as_an_ordinary_identifier_does_not_fire() {
    // Not preceded by `.`/`::` or not called: a fn named unwrap, a path
    // mention in a doc string, etc.
    let src =
        "fn unwrap() {}\nfn caller() { unwrap(); }\nconst HELP: &str = \"call .unwrap() never\";\n";
    assert!(lint_lib(src).violations.is_empty());
}

#[test]
fn panic_family_macros_fire() {
    let src = "fn f() { panic!(\"boom\") }\nfn g() { unreachable!() }\nfn h() { todo!() }\n";
    let report = lint_lib(src);
    let lints: Vec<&str> = report.violations.iter().map(|v| v.lint.as_str()).collect();
    assert_eq!(lints, ["no-panic-in-lib"; 3]);
    assert_eq!(report.violations[0].line, 1);
}

#[test]
fn unseeded_rng_fires_even_in_tests_and_bins() {
    let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
    for path in
        ["crates/core/src/fixture.rs", "crates/core/tests/fixture.rs", "crates/cli/src/bin/fx.rs"]
    {
        let report = lint_source(path, src);
        assert_eq!(the_only(&report).lint, "no-unseeded-rng", "path {path}");
    }
    let report = lint_lib("fn g() { let r = StdRng::from_entropy(); }\n");
    assert_eq!(the_only(&report).lint, "no-unseeded-rng");
}

#[test]
fn raw_thread_spawn_fires_outside_lbs_parallel_only() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    let report = lint_lib(src);
    assert_eq!(the_only(&report).lint, "no-raw-thread-spawn");
    // lbs-parallel owns thread creation; test code may spawn helpers.
    assert!(lint_source("crates/parallel/src/engine.rs", src).violations.is_empty());
    assert!(lint_source("crates/core/tests/helper.rs", src).violations.is_empty());
}

#[test]
fn wall_clock_fires_outside_metrics_and_bench_only() {
    let src = "fn f() { let t = Instant::now(); }\nfn g() { let s = SystemTime::now(); }\n";
    let report = lint_lib(src);
    assert_eq!(hits(&report), [("no-wall-clock-in-dp", 1, 18), ("no-wall-clock-in-dp", 2, 18)]);
    assert!(lint_source(
        "crates/metrics/src/lib.rs",
        "fn f() { Instant::now(); }\n#![forbid(unsafe_code)]"
    )
    .violations
    .iter()
    .all(|v| v.lint != "no-wall-clock-in-dp"));
    assert!(lint_source("crates/bench/src/run.rs", src).violations.is_empty());
}

#[test]
fn unchecked_io_in_runtime_fires_on_io_results_in_the_runtime_crate_only() {
    let src = "fn f(p: &std::path::Path) {\n    let mut file = File::create(p).unwrap();\n    file.write_all(b\"frame\").expect(\"boom\");\n    Some(1).unwrap();\n}\n";
    let report = lint_source("crates/runtime/src/wal.rs", src);
    let io: Vec<u32> = report
        .violations
        .iter()
        .filter(|v| v.lint == "no-unchecked-io-in-runtime")
        .map(|v| v.line)
        .collect();
    // The io-fed unwrap/expect fire; the plain Option unwrap on line 4
    // trips only no-unwrap-in-lib (the `;` bounds the backward scan).
    assert_eq!(io, [2, 3], "{report:?}");
    let plain = report.violations.iter().filter(|v| v.lint == "no-unwrap-in-lib").count();
    assert_eq!(plain, 3, "{report:?}");
    // Outside lbs-runtime the same source never trips the io lint.
    let other = lint_source("crates/core/src/fixture.rs", src);
    assert!(other.violations.iter().all(|v| v.lint != "no-unchecked-io-in-runtime"));
    // Runtime test code is exempt (fixtures unwrap io freely).
    let tests = lint_source("crates/runtime/tests/fixture.rs", src);
    assert!(tests.violations.iter().all(|v| v.lint != "no-unchecked-io-in-runtime"));
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
fn float_eq_fires_on_either_side_and_on_negated_literals() {
    let src = "fn f(x: f64) -> bool { x == 1.0 }\nfn g(x: f64) -> bool { 2.5 != x }\nfn h(x: f64) -> bool { x == -0.5 }\nfn i(x: u32) -> bool { x == 1 }\n";
    let report = lint_lib(src);
    assert_eq!(
        hits(&report),
        [("no-float-eq", 1, 26), ("no-float-eq", 2, 28), ("no-float-eq", 3, 26)]
    );
}

#[test]
fn println_family_fires_in_lib_but_not_bin() {
    let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(1); }\n";
    let report = lint_lib(src);
    assert_eq!(report.violations.len(), 3);
    assert!(report.violations.iter().all(|v| v.lint == "no-println-in-lib"));
    assert!(lint_source("crates/cli/src/bin/lbs.rs", src).violations.is_empty());
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
fn missing_forbid_unsafe_header_fires_on_crate_roots_only() {
    let bare = "pub fn f() {}\n";
    let report = lint_source("crates/core/src/lib.rs", bare);
    assert_eq!(the_only(&report).lint, "forbid-unsafe-header");
    assert_eq!((report.violations[0].line, report.violations[0].col), (1, 1));
    // Present header: clean. Non-root lib files: exempt.
    let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(lint_source("crates/core/src/lib.rs", ok).violations.is_empty());
    assert!(lint_lib(bare).violations.is_empty());
}

#[test]
fn cfg_test_regions_inside_lib_files_are_exempt() {
    let src = "pub fn lib_code() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n        panic!(\"fine in tests\");\n    }\n}\n";
    assert!(lint_lib(src).violations.is_empty(), "{:?}", lint_lib(src));
    // …but the same calls above the test module still fire.
    let src2 = format!("pub fn bad() {{ Some(1).unwrap(); }}\n{src}");
    let report = lint_lib(&src2);
    assert_eq!(the_only(&report).lint, "no-unwrap-in-lib");
    assert_eq!(report.violations[0].line, 1);
}

#[test]
fn same_line_pragma_suppresses_that_line_only() {
    let src = r#"
fn f(x: Option<u8>) -> u8 {
    // lbs-lint: allow(no-unwrap-in-lib, reason = "checked by caller")
    x.unwrap()
}
fn g(x: Option<u8>) -> u8 {
    x.unwrap()
}
"#;
    let report = lint_lib(src);
    assert_eq!(report.suppressed, 1);
    let v = the_only(&report);
    assert_eq!((v.lint.as_str(), v.line), ("no-unwrap-in-lib", 7));
}

#[test]
fn standalone_pragma_covers_a_multi_line_statement() {
    let src = r#"
fn f(v: &[u32]) -> u32 {
    // lbs-lint: allow(no-unwrap-in-lib, reason = "v is nonempty by construction")
    v.iter()
        .copied()
        .max()
        .unwrap()
}
"#;
    let report = lint_lib(src);
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.suppressed, 1);
}

#[test]
fn one_pragma_may_name_several_lints() {
    let src = r#"
fn f() {
    // lbs-lint: allow(no-println-in-lib, no-unwrap-in-lib, reason = "debug shim behind a feature gate")
    println!("{}", std::env::var("X").unwrap());
}
"#;
    let report = lint_lib(src);
    assert!(report.violations.is_empty(), "{report:?}");
    assert_eq!(report.suppressed, 2);
}

#[test]
fn pragma_without_reason_is_a_malformed_pragma_error() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    // lbs-lint: allow(no-unwrap-in-lib)\n    x.unwrap()\n}\n";
    let report = lint_lib(src);
    let lints: Vec<&str> = report.violations.iter().map(|v| v.lint.as_str()).collect();
    // The pragma is rejected, so the unwrap also still fires.
    assert!(lints.contains(&"malformed-pragma"), "{report:?}");
    assert!(lints.contains(&"no-unwrap-in-lib"), "{report:?}");
    assert_eq!(report.suppressed, 0);
    assert!(report.errors() >= 2);
}

#[test]
fn pragma_with_empty_reason_is_rejected() {
    let src = "// lbs-lint: allow(no-unwrap-in-lib, reason = \"  \")\nfn f() {}\n";
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
        "// lbs-lint: allow(no-unwrap-in-lib, reason = \"nothing here unwraps\")\nfn f() {}\n";
    let report = lint_lib(src);
    let v = the_only(&report);
    assert_eq!((v.lint.as_str(), v.severity.as_str()), ("unused-suppression", "warn"));
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 1);
}

#[test]
fn pragma_inside_a_macro_body_still_applies() {
    let src = r#"
macro_rules! table {
    () => {{
        // lbs-lint: allow(no-unwrap-in-lib, reason = "macro expands in checked contexts only")
        VALUES.first().unwrap()
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
    // nor reported), so the unwrap underneath still fires.
    let src = "/// lbs-lint: allow(no-unwrap-in-lib, reason = \"docs are not pragmas\")\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let report = lint_lib(src);
    assert_eq!(the_only(&report).lint, "no-unwrap-in-lib");
    assert_eq!(report.suppressed, 0);
}

#[test]
fn pragma_for_the_wrong_lint_does_not_suppress_and_is_flagged_unused() {
    let src = r#"
fn f() {
    // lbs-lint: allow(no-println-in-lib, reason = "wrong lint named here")
    Some(1).unwrap();
}
"#;
    let report = lint_lib(src);
    let lints: Vec<&str> = report.violations.iter().map(|v| v.lint.as_str()).collect();
    assert!(lints.contains(&"no-unwrap-in-lib"));
    assert!(lints.contains(&"unused-suppression"));
}

#[test]
fn fixture_patterns_inside_string_literals_never_fire() {
    let src = r##"
pub const EXAMPLE: &str = "x.unwrap(); panic!(); thread_rng(); Instant::now()";
pub const RAW: &str = r#"SystemTime::now() println!("nope")"#;
"##;
    assert!(lint_lib(src).violations.is_empty());
}

#[test]
fn json_output_carries_names_paths_and_spans() {
    let report = lint_lib("fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
    let json = report.to_json().expect("serializable");
    for needle in [
        "\"lint\": \"no-unwrap-in-lib\"",
        "\"path\": \"crates/core/src/fixture.rs\"",
        "\"line\": 1",
        "\"severity\": \"error\"",
        "\"files_scanned\": 1",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}
