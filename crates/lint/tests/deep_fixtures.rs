//! Deep-pass fixture corpus: at least one true positive and one true
//! negative per interprocedural lint, plus the suppression channels the
//! deep passes add (sanctioned sinks, `allow-item`, pass toggles).
//!
//! Fixture sources live in raw string literals, which the scanner treats
//! as opaque — so this file itself stays clean under the workspace scan.

use lbs_lint::{lint_sources_deep, LintReport, PassSet};

/// Minimal `lint-taint.toml` for fixtures: one entry point, `Point` as
/// the tainted value type, `HashMap` as the nondeterministic carrier.
const CONFIG: &str = r#"
[panic-reachability]
entry-points = ["serve_fixture"]

[location-taint]
value-sources = ["Point"]
taint-methods = ["clone"]
sink-macros = ["format", "println"]
sanitizer-calls = ["cloak"]

[determinism-taint]
carrier-sources = ["HashMap"]
order-methods = ["iter", "keys"]
sink-macros = ["format"]
"#;

/// Deep-lints one fixture as library code of `lbs-core`.
#[expect(
    clippy::expect_used,
    reason = "a fixture config that does not parse fails the calling test"
)]
fn deep(src: &str) -> LintReport {
    let files = vec![("crates/core/src/fixture.rs".to_string(), src.to_string())];
    lint_sources_deep(&files, CONFIG, &PassSet::all()).expect("fixture config parses")
}

fn hits(report: &LintReport) -> Vec<(&str, u32, u32)> {
    report.violations.iter().map(|v| (v.lint.as_str(), v.line, v.col)).collect()
}

fn only_lint<'r>(report: &'r LintReport, lint: &str) -> &'r lbs_lint::Violation {
    let matching: Vec<_> = report.violations.iter().filter(|v| v.lint == lint).collect();
    assert_eq!(matching.len(), 1, "expected exactly one {lint} finding: {report:?}");
    matching[0]
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_reachability_true_positive_with_trace() {
    let src = "pub fn serve_fixture(v: &[u64]) -> u64 {\n\
               \x20   helper(v)\n\
               }\n\
               fn helper(v: &[u64]) -> u64 {\n\
               \x20   v.first().copied().unwrap()\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "panic-reachability");
    assert_eq!((v.line, v.col), (5, 24), "{report:?}");
    assert!(v.message.contains("`.unwrap()`"), "{}", v.message);
    assert!(v.message.contains("serve_fixture"), "{}", v.message);
    // The trace walks entry → callee with call-site lines.
    assert!(v.trace[0].contains("entry point `serve_fixture`"), "{:?}", v.trace);
    assert!(v.trace[1].contains("calls `helper`") && v.trace[1].contains(":2"), "{:?}", v.trace);
}

#[test]
fn panic_reachability_true_negative_guarded_and_unreachable() {
    // Guarded indexing (receiver length-checked in the same fn) plus an
    // unwrap in a function nothing reachable calls: both stay silent.
    let src = "pub fn serve_fixture(v: &[u64], i: usize) -> u64 {\n\
               \x20   if i < v.len() { v[i] } else { 0 }\n\
               }\n\
               fn dead_code(x: Option<u8>) -> u8 {\n\
               \x20   x.unwrap()\n\
               }\n";
    let report = deep(src);
    assert!(!report.violations.iter().any(|v| v.lint == "panic-reachability"), "{report:?}");
}

#[test]
fn panic_reachability_reads_a_mut_slice_type_as_a_type_not_indexing() {
    // `&mut [u8]` in a reachable signature is slice type syntax: `mut` is
    // a keyword, so the `[` after it opens a type, not an index.
    let src = "pub fn serve_fixture(rows: &mut [u8]) {\n\
               \x20   f(rows)\n\
               }\n\
               fn f(rows: &mut [u8]) {\n\
               \x20   rows.fill(0);\n\
               }\n";
    let report = deep(src);
    assert!(!report.violations.iter().any(|v| v.lint == "panic-reachability"), "{report:?}");

    // Unguarded indexing of that slice in the body is still a finding.
    let src = "pub fn serve_fixture(rows: &mut [u8], i: usize) {\n\
               \x20   f(rows, i)\n\
               }\n\
               fn f(rows: &mut [u8], i: usize) {\n\
               \x20   rows[i] = 1;\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "panic-reachability");
    assert_eq!(v.line, 5, "{report:?}");
    assert!(v.message.contains("serve_fixture"), "{}", v.message);
}

#[test]
fn panic_reachability_follows_the_drop_of_a_returned_guard() {
    // `m.start()` returns a `Guard` whose `Drop` impl panics: the implicit
    // `drop` of that value is a call of the entry point. `Quiet`'s panicking
    // `drop` is only reached through `Quiet::start()`, an associated fn a
    // method call cannot name, so it stays silent.
    let src = "pub struct Sink;\n\
               pub struct Guard<'a>(&'a Sink, Option<u8>);\n\
               impl Sink {\n\
               \x20   pub fn start(&self) -> Guard<'_> { Guard(self, None) }\n\
               }\n\
               impl Drop for Guard<'_> {\n\
               \x20   fn drop(&mut self) { self.1.unwrap(); }\n\
               }\n\
               pub struct Quiet(Option<u8>);\n\
               impl Drop for Quiet {\n\
               \x20   fn drop(&mut self) { self.0.unwrap(); }\n\
               }\n\
               impl Quiet {\n\
               \x20   pub fn start() -> Self { Quiet(None) }\n\
               }\n\
               pub struct Service { sink: Option<Box<Sink>> }\n\
               pub fn serve_fixture(service: &Service) {\n\
               \x20   let _span = service.sink.as_deref().map(|m| m.start());\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "panic-reachability");
    assert_eq!(v.line, 7, "the reached drop, not Quiet's at line 11: {report:?}");
    assert!(v.message.contains("`Guard::drop`"), "{}", v.message);
    // The implicit call sits at the `start` call whose value is dropped.
    assert!(
        v.trace[1].contains("calls `Guard::drop`") && v.trace[1].contains(":18"),
        "{:?}",
        v.trace
    );
}

#[test]
fn panic_reachability_follows_the_drop_of_a_local_or_a_constructed_value() {
    let src = "pub struct Guard(Option<u8>);\n\
               impl Drop for Guard {\n\
               \x20   fn drop(&mut self) { self.0.unwrap(); }\n\
               }\n\
               pub fn serve_fixture() {\n\
               \x20   let _g: Guard = Guard(None);\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "panic-reachability");
    assert_eq!(v.line, 3, "{report:?}");
    assert!(
        v.trace[1].contains("calls `Guard::drop`") && v.trace[1].contains(":6"),
        "{:?}",
        v.trace
    );

    // A constructor's `-> Self` names the type it returns.
    let src = "pub struct Guard(Option<u8>);\n\
               impl Guard {\n\
               \x20   pub fn new() -> Self { Guard(None) }\n\
               }\n\
               impl Drop for Guard {\n\
               \x20   fn drop(&mut self) { self.0.unwrap(); }\n\
               }\n\
               pub fn serve_fixture() {\n\
               \x20   take(Guard::new());\n\
               }\n\
               fn take(_g: Guard) {}\n";
    let report = deep(src);
    let v = only_lint(&report, "panic-reachability");
    assert_eq!(v.line, 6, "{report:?}");
    assert!(
        v.trace[1].contains("calls `Guard::drop`") && v.trace[1].contains(":9"),
        "{:?}",
        v.trace
    );
}

// ------------------------------------------------------------- location

#[test]
fn location_taint_true_positive_direct_format_capture() {
    // `{p:?}` is an implicit format capture — no ident argument exists,
    // so this also locks in capture parsing inside string literals.
    let src = "pub fn report(p: Point) -> String {\n\
               \x20   format!(\"at {p:?}\")\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "location-taint");
    assert_eq!((v.line, v.col), (2, 5), "{report:?}");
    assert!(v.message.contains("format"), "{}", v.message);
}

#[test]
fn location_taint_true_positive_interprocedural_with_trace() {
    // The sink is one hop away: the finding lands at the call site and
    // carries the callee's parameter-to-sink chain as the trace.
    let src = "pub fn outer(p: Point) -> String {\n\
               \x20   stringify_loc(p)\n\
               }\n\
               fn stringify_loc<T: std::fmt::Debug>(x: T) -> String {\n\
               \x20   format!(\"{x:?}\")\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "location-taint");
    assert_eq!(v.line, 2, "{report:?}");
    assert!(v.message.contains("stringify_loc"), "{}", v.message);
    assert!(
        v.trace.iter().any(|t| t.contains("parameter `x`") && t.contains("format")),
        "{:?}",
        v.trace
    );
}

#[test]
fn location_taint_true_negative_through_sanitizer() {
    let src = "pub fn report(p: Point) -> String {\n\
               \x20   let r = cloak(p);\n\
               \x20   format!(\"cloaked to {r:?}\")\n\
               }\n";
    let report = deep(src);
    assert!(!report.violations.iter().any(|v| v.lint == "location-taint"), "{report:?}");
}

// ---------------------------------------------------------- determinism

#[test]
fn determinism_taint_true_positive_hashmap_iteration_order() {
    let src = "pub fn digest(m: &HashMap<u64, u64>) -> String {\n\
               \x20   let mut out = String::new();\n\
               \x20   for (k, v) in m.iter() {\n\
               \x20       out.push_str(&format!(\"{k}={v};\"));\n\
               \x20   }\n\
               \x20   out\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "determinism-taint");
    assert_eq!(v.line, 4, "{report:?}");
}

#[test]
fn determinism_taint_true_negative_btreemap() {
    // Identical shape over an ordered map: silent.
    let src = "pub fn digest(m: &BTreeMap<u64, u64>) -> String {\n\
               \x20   let mut out = String::new();\n\
               \x20   for (k, v) in m.iter() {\n\
               \x20       out.push_str(&format!(\"{k}={v};\"));\n\
               \x20   }\n\
               \x20   out\n\
               }\n";
    let report = deep(src);
    assert!(!report.violations.iter().any(|v| v.lint == "determinism-taint"), "{report:?}");
}

// ---------------------------------------------------- suppression paths

#[test]
fn sanctioned_sink_pragma_clears_callers_and_counts_as_used() {
    // The sink itself sees only parameter taint (no direct source), so
    // the only visible finding without the pragma is at the caller. The
    // pragma sanctions the boundary: callers go clean AND the pragma
    // registers as used (no unused-suppression).
    let src = "pub fn outer(p: Point) -> String {\n\
               \x20   stringify_loc(p)\n\
               }\n\
               fn stringify_loc<T: std::fmt::Debug>(x: T) -> String {\n\
               \x20   // lbs-lint: allow(location-taint, reason = \"operator log inside the trust boundary\")\n\
               \x20   format!(\"{x:?}\")\n\
               }\n";
    let report = deep(src);
    assert_eq!(hits(&report), [] as [(&str, u32, u32); 0], "{report:?}");
    assert!(report.suppressed >= 1, "{report:?}");
}

#[test]
fn allow_item_covers_a_whole_function_body() {
    let src = "pub fn serve_fixture(v: &[u64]) -> u64 {\n\
               \x20   helper(v)\n\
               }\n\
               // lbs-lint: allow-item(panic-reachability, no-wall-clock-in-dp, reason = \"fixture invariant\")\n\
               fn helper(v: &[u64]) -> u64 {\n\
               \x20   let _t = Instant::now();\n\
               \x20   v.first().copied().unwrap()\n\
               }\n";
    let report = deep(src);
    assert_eq!(hits(&report), [] as [(&str, u32, u32); 0], "{report:?}");
    assert_eq!(report.suppressed, 2, "{report:?}");
}

#[test]
fn pragma_for_non_firing_deep_rule_is_flagged_unused() {
    let src = "// lbs-lint: allow(determinism-taint, reason = \"nothing here\")\n\
               pub fn quiet() -> u64 {\n\
               \x20   7\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "unused-suppression");
    assert_eq!(v.line, 1, "{report:?}");
}

#[test]
fn pragma_for_toggled_off_pass_is_exempt_from_unused() {
    // Same fixture, determinism pass disabled: the pragma cannot fire by
    // construction, so unused-suppression must not nag about it.
    let src = "// lbs-lint: allow(determinism-taint, reason = \"nothing here\")\n\
               pub fn quiet() -> u64 {\n\
               \x20   7\n\
               }\n";
    let files = vec![("crates/core/src/fixture.rs".to_string(), src.to_string())];
    let passes = PassSet { panic: true, location: true, determinism: false };
    let report = lint_sources_deep(&files, CONFIG, &passes).expect("config parses");
    assert_eq!(hits(&report), [] as [(&str, u32, u32); 0], "{report:?}");
}

#[test]
fn unknown_lint_name_in_pragma_is_malformed_not_tolerated() {
    let src = "// lbs-lint: allow(no-such-rule, reason = \"typo\")\n\
               pub fn quiet() -> u64 {\n\
               \x20   7\n\
               }\n";
    let report = deep(src);
    let v = only_lint(&report, "malformed-pragma");
    assert!(v.message.contains("no-such-rule"), "{}", v.message);
}

#[test]
fn invalid_config_is_a_hard_error() {
    let files = vec![("crates/core/src/lib.rs".to_string(), "pub fn f() {}\n".to_string())];
    let bad = "[panic-reachability]\nentry-points = [\"a\"]\n[mystery-section]\nx = [\"y\"]\n";
    assert!(lint_sources_deep(&files, bad, &PassSet::all()).is_err());
    let bad_key = "[location-taint]\nvalue-surces = [\"Point\"]\n";
    assert!(lint_sources_deep(&files, bad_key, &PassSet::all()).is_err());
}
