//! The item parser (and the whole deep pipeline above it) must never
//! panic and must terminate on arbitrary byte soup: the linter runs over
//! every file in the workspace, including ones mid-edit, so a crash in
//! the analyzer is a CI outage.
//!
//! Three generators: arbitrary bytes (lossily decoded), arbitrary
//! unicode, and Rust-shaped fragment soup — concatenated syntax shards
//! that reach deep parser paths (unbalanced braces, truncated generics,
//! stray pragmas) uniform randomness essentially never forms. The
//! vendored proptest shim does not shrink, so a failing fragment soup is
//! reduced by a greedy 1-minimal pass (the `shrink_db` pattern from
//! `tests/property_based.rs`) before it is reported: re-test with each
//! fragment removed, keep every removal that still fails, repeat until
//! no single removal fails.

use lbs_lint::{lint_source, lint_sources_deep, PassSet};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The workspace config shape, so fuzzing exercises the same pass
/// wiring `--deep` uses.
const CONFIG: &str = r#"
[panic-reachability]
entry-points = ["serve_fixture"]

[location-taint]
value-sources = ["Point"]
taint-methods = ["clone"]
sink-macros = ["format"]
sanitizer-calls = ["cloak"]

[determinism-taint]
carrier-sources = ["HashMap"]
order-methods = ["iter"]
sink-macros = ["format"]
"#;

/// Runs the full pipeline; returns whether it completed without panicking.
#[expect(
    clippy::expect_used,
    reason = "CONFIG is a fixed valid config; a parse failure fails every case"
)]
fn survives(src: &str) -> bool {
    let src = src.to_string();
    catch_unwind(AssertUnwindSafe(|| {
        let files = vec![("crates/core/src/fuzz.rs".to_string(), src.clone())];
        let _ = lint_sources_deep(&files, CONFIG, &PassSet::all()).expect("config is valid");
        let _ = lint_source("crates/core/src/fuzz.rs", &src);
    }))
    .is_ok()
}

/// Rust-shaped fragments: enough syntax shards to form items, generics,
/// raw strings, pragma comments, and every panic-site shape the deep
/// passes inspect.
const FRAGMENTS: &[&str] = &[
    "fn ",
    "pub ",
    "impl ",
    "trait ",
    "struct ",
    "enum ",
    "mod ",
    "use ",
    "f",
    "X",
    "self",
    "Self::",
    "x.unwrap()",
    "x.expect(\"m\")",
    "v[i]",
    "v[0]",
    "<",
    ">",
    "<T: Ord>",
    "'a",
    "::",
    "->",
    "=>",
    "#[derive(Debug)]",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "=",
    ".",
    "&mut ",
    "let x = ",
    "match y ",
    "for (k, v) in m.iter() ",
    "if let Some(p) = q ",
    "format!(\"{x:?}\")",
    "\"str {cap} \"",
    "r#\"raw \"# ",
    "// comment\n",
    "// lbs-lint: allow(location-taint, reason = \"r\")\n",
    "// lbs-lint: allow-item(panic-reachability, reason = \"r\")\n",
    "// lbs-lint: allow(nonsense)\n",
    "/* block",
    "*/",
    "\n",
    " ",
    "b'\\x7f'",
    "0xFF",
    "1_000",
    "..",
    "..=",
    "%",
    "!",
    "panic!(\"x\")",
];

fn soup(indices: &[usize]) -> String {
    indices.iter().map(|&i| FRAGMENTS[i % FRAGMENTS.len()]).collect()
}

/// Greedy 1-minimal reduction: drop any fragment whose removal keeps the
/// panic alive, rescanning from the start after each successful drop.
fn shrink_indices(indices: &[usize]) -> Vec<usize> {
    let mut cur = indices.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let mut candidate = cur.clone();
            candidate.remove(i);
            if !survives(&soup(&candidate)) {
                cur = candidate;
                shrunk = true;
                // Do not advance: the element now at `i` is untested.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deep_lint_survives_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 0..400)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert!(survives(&src), "deep lint panicked on bytes: {src:?}");
    }

    #[test]
    fn deep_lint_survives_arbitrary_unicode(
        points in prop::collection::vec(0u32..0x11_0000, 0..400)
    ) {
        let src: String = points.iter().filter_map(|&c| char::from_u32(c)).collect();
        prop_assert!(survives(&src), "deep lint panicked on unicode: {src:?}");
    }

    #[test]
    fn deep_lint_survives_rust_shaped_fragment_soup(
        indices in prop::collection::vec(0usize..64, 0..60)
    ) {
        if !survives(&soup(&indices)) {
            let minimal = shrink_indices(&indices);
            prop_assert!(
                false,
                "deep lint panicked; 1-minimal reproducer ({} fragments): {:?}",
                minimal.len(),
                soup(&minimal)
            );
        }
    }
}
