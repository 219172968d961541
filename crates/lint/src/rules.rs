//! Rule implementations: token-pattern matchers for every registered lint.

use crate::lexer::{Token, TokenKind};
use crate::registry::{self, Severity};
use crate::report::Violation;

/// What kind of source a file is — decides which lints apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library source (`crates/*/src/**`, root `src/**`).
    Lib,
    /// Binary targets (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/**`).
    Test,
    /// Examples (`examples/**`).
    Example,
    /// Benchmark harness code (`benches/**`, all of `crates/bench`).
    Bench,
}

/// Per-file context handed to every rule.
pub struct FileInfo<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    /// Crate directory name (`core`, `tree`, …; `root` for the top-level
    /// package).
    pub crate_name: &'a str,
    /// Role of the file.
    pub role: FileRole,
    /// Non-comment tokens.
    pub code: Vec<Token<'a>>,
    /// Line ranges of `#[cfg(test)]` items (inline test modules).
    pub test_regions: Vec<(u32, u32)>,
}

impl FileInfo<'_> {
    /// Effective role at a given line: `#[cfg(test)]` regions inside a
    /// library file count as test code.
    pub fn role_at(&self, line: u32) -> FileRole {
        if self.role == FileRole::Lib
            && self.test_regions.iter().any(|&(s, e)| (s..=e).contains(&line))
        {
            FileRole::Test
        } else {
            self.role
        }
    }

    fn push(&self, out: &mut Vec<Violation>, lint: &'static str, at: &Token<'_>, message: String) {
        let severity = registry::find(lint).map_or(Severity::Error, |l| l.severity);
        out.push(Violation {
            lint: lint.to_string(),
            severity: severity.name().to_string(),
            path: self.path.to_string(),
            line: at.line,
            col: at.col,
            message,
            trace: Vec::new(),
        });
    }
}

/// Whether `lint` applies to code at `role` in `crate_name`.
pub fn applies(lint: &str, crate_name: &str, role: FileRole) -> bool {
    use FileRole::{Bin, Example, Lib};
    match lint {
        "no-unwrap-in-lib"
        | "no-panic-in-lib"
        | "no-println-in-lib"
        | "no-float-eq"
        | "no-hashmap-in-serialized-output"
        | "forbid-unsafe-header" => role == Lib,
        // Replayability is global: even tests must derive their seeds.
        "no-unseeded-rng" => true,
        "no-raw-thread-spawn" => matches!(role, Lib | Bin | Example) && crate_name != "parallel",
        "no-unchecked-io-in-runtime" => role == Lib && crate_name == "runtime",
        // Path-scoped further by the matcher: storage.rs (the seam's real
        // filesystem implementation) is exempt.
        "no-raw-fs-in-runtime" => role == Lib && crate_name == "runtime",
        "no-wall-clock-in-dp" => role == Lib && !matches!(crate_name, "metrics" | "bench"),
        _ => true,
    }
}

/// Computes the line ranges of `#[cfg(test)]`-gated items.
pub fn test_regions(code: &[Token<'_>]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if is_seq(code, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            let start_line = code[i].line;
            let mut j = i + 7;
            // Skip any further attributes on the same item.
            while j < code.len() && code[j].is_punct("#") {
                j = skip_attribute(code, j);
            }
            // The item runs to its first `;` before a brace, or to the
            // matching `}` of its first `{`.
            let mut depth = 0usize;
            while j < code.len() {
                let t = &code[j];
                if t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_punct(";") && depth == 0 {
                    break;
                }
                j += 1;
            }
            let end_line = code.get(j).map_or(start_line, |t| t.line);
            regions.push((start_line, end_line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// Skips one `#[…]` attribute starting at the `#`; returns the index one
/// past its closing `]`.
fn skip_attribute(code: &[Token<'_>], at: usize) -> usize {
    let mut j = at + 1;
    if j < code.len() && code[j].is_punct("!") {
        j += 1;
    }
    if j >= code.len() || !code[j].is_punct("[") {
        return at + 1;
    }
    let mut depth = 0usize;
    while j < code.len() {
        if code[j].is_punct("[") {
            depth += 1;
        } else if code[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    code.len()
}

/// Identifiers whose calls produce `io::Result` values in std's fs/io
/// surface (the vocabulary WAL/checkpoint code actually uses).
const IO_IDENTS: &[&str] = &[
    "write",
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "read",
    "read_to_end",
    "read_exact",
    "create",
    "open",
    "rename",
    "remove_file",
    "read_dir",
    "set_len",
    "seek",
    "metadata",
    "create_dir_all",
    "copy",
    "File",
    "OpenOptions",
];

/// Scans backward from an `unwrap`/`expect` token for an io-returning call
/// within the same statement (bounded at `;`/`{`/`}` and a small token
/// budget, so unrelated earlier statements never trigger it).
fn io_call_upstream<'a>(code: &[Token<'a>], at: usize) -> Option<&'a str> {
    let mut j = at;
    let mut budget = 12usize;
    while j > 0 && budget > 0 {
        j -= 1;
        let t = &code[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return None;
        }
        if t.kind == TokenKind::Ident && IO_IDENTS.contains(&t.text) {
            return Some(t.text);
        }
        budget -= 1;
    }
    None
}

fn is_seq(code: &[Token<'_>], at: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(o, want)| code.get(at + o).is_some_and(|t| t.text == *want))
}

/// Runs every applicable rule over one file, appending findings.
pub fn run_all(info: &FileInfo<'_>, out: &mut Vec<Violation>) {
    let code = info.code.as_slice();
    let on = |lint: &str, line: u32| applies(lint, info.crate_name, info.role_at(line));

    for (i, t) in code.iter().enumerate() {
        // no-unwrap-in-lib: `.unwrap()` / `.expect(` and path forms.
        if t.kind == TokenKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && (code[i - 1].is_punct(".") || code[i - 1].is_punct("::"))
            && code.get(i + 1).is_some_and(|n| n.is_punct("("))
            && on("no-unwrap-in-lib", t.line)
        {
            info.push(
                out,
                "no-unwrap-in-lib",
                t,
                format!(
                    "`.{}()` in library code; return a typed error (`CoreError`, …) or \
                     suppress with a reasoned pragma if provably infallible",
                    t.text
                ),
            );
        }

        // no-unchecked-io-in-runtime: unwrap/expect on the result of an
        // io-returning call inside lbs-runtime durability code.
        if t.kind == TokenKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && code[i - 1].is_punct(".")
            && code.get(i + 1).is_some_and(|n| n.is_punct("("))
            && on("no-unchecked-io-in-runtime", t.line)
        {
            if let Some(source) = io_call_upstream(code, i) {
                info.push(
                    out,
                    "no-unchecked-io-in-runtime",
                    t,
                    format!(
                        "`.{}()` on the result of `{source}`; io failures in WAL/checkpoint \
                         code must propagate as `RuntimeError::Io` (use `?`)",
                        t.text
                    ),
                );
            }
        }

        // no-raw-fs-in-runtime: durability code must reach the disk only
        // through the StorageBackend seam so the deterministic fault
        // layer sees every io. Fires on `fs::…` paths (covering
        // `std::fs::…`), `File::…`, and `OpenOptions` — everywhere in
        // lbs-runtime library code except storage.rs, the seam's one
        // sanctioned real-filesystem implementation.
        if t.kind == TokenKind::Ident
            && !info.path.ends_with("/storage.rs")
            && (((t.text == "fs" || t.text == "File")
                && code.get(i + 1).is_some_and(|n| n.is_punct("::")))
                || t.text == "OpenOptions")
            && on("no-raw-fs-in-runtime", t.line)
        {
            info.push(
                out,
                "no-raw-fs-in-runtime",
                t,
                format!(
                    "raw `{}` io in runtime durability code bypasses the StorageBackend \
                     seam (and every storage-fault sweep with it); route the operation \
                     through the backend handle instead",
                    t.text
                ),
            );
        }

        // no-panic-in-lib: panic-family macros.
        if t.kind == TokenKind::Ident
            && matches!(t.text, "panic" | "unreachable" | "todo" | "unimplemented")
            && code.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && on("no-panic-in-lib", t.line)
        {
            info.push(
                out,
                "no-panic-in-lib",
                t,
                format!("`{}!` in library code; return a typed error instead", t.text),
            );
        }

        // no-unseeded-rng: ambient entropy sources.
        if t.kind == TokenKind::Ident
            && matches!(t.text, "thread_rng" | "from_entropy" | "OsRng")
            && on("no-unseeded-rng", t.line)
        {
            info.push(
                out,
                "no-unseeded-rng",
                t,
                format!("`{}` breaks master-seed replay; derive seeds via `derive_seed`", t.text),
            );
        }

        // no-raw-thread-spawn: `thread::spawn` outside lbs-parallel.
        if t.is_ident("thread")
            && code.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && code.get(i + 2).is_some_and(|n| n.is_ident("spawn"))
            && on("no-raw-thread-spawn", t.line)
        {
            info.push(
                out,
                "no-raw-thread-spawn",
                t,
                "raw `thread::spawn`; threads are created only by `lbs-parallel::engine`"
                    .to_string(),
            );
        }

        // no-wall-clock-in-dp: `Instant::now` / any `SystemTime` use.
        if on("no-wall-clock-in-dp", t.line) {
            if t.is_ident("Instant")
                && code.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && code.get(i + 2).is_some_and(|n| n.is_ident("now"))
            {
                info.push(
                    out,
                    "no-wall-clock-in-dp",
                    t,
                    "`Instant::now` outside lbs-metrics/bench; DP outputs must not \
                     depend on wall clocks"
                        .to_string(),
                );
            }
            if t.is_ident("SystemTime") {
                info.push(
                    out,
                    "no-wall-clock-in-dp",
                    t,
                    "`SystemTime` outside lbs-metrics/bench; DP outputs must not \
                     depend on wall clocks"
                        .to_string(),
                );
            }
        }

        // no-float-eq: ==/!= adjacent to a float literal.
        if t.kind == TokenKind::Punct
            && (t.text == "==" || t.text == "!=")
            && on("no-float-eq", t.line)
        {
            let left_float = i > 0 && code[i - 1].kind == TokenKind::Float;
            let right_float = match code.get(i + 1) {
                Some(n) if n.kind == TokenKind::Float => true,
                Some(n) if n.is_punct("-") => {
                    code.get(i + 2).is_some_and(|m| m.kind == TokenKind::Float)
                }
                _ => false,
            };
            if left_float || right_float {
                info.push(
                    out,
                    "no-float-eq",
                    t,
                    format!("`{}` against a float literal; compare with an epsilon", t.text),
                );
            }
        }

        // no-println-in-lib: stdout/stderr macros.
        if t.kind == TokenKind::Ident
            && matches!(t.text, "println" | "print" | "eprintln" | "eprint" | "dbg")
            && code.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && on("no-println-in-lib", t.line)
        {
            info.push(
                out,
                "no-println-in-lib",
                t,
                format!("`{}!` in library code; write to an injected `io::Write` sink", t.text),
            );
        }
    }

    hashmap_in_serialized(info, out);
    forbid_unsafe_header(info, out);
}

/// `no-hashmap-in-serialized-output`: HashMap/HashSet fields inside
/// `#[derive(… Serialize …)]` items, unless `#[serde(skip…)]`-marked.
fn hashmap_in_serialized(info: &FileInfo<'_>, out: &mut Vec<Violation>) {
    let code = info.code.as_slice();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].is_punct("#") && is_seq(code, i + 1, &["[", "derive", "("])) {
            i += 1;
            continue;
        }
        let after_attr = skip_attribute(code, i);
        let derives_serialize =
            code[i..after_attr].iter().any(|t| t.is_ident("Serialize") || t.is_ident("Serializer"));
        i = after_attr;
        if !derives_serialize {
            continue;
        }
        // Skip any further attributes, then find the item body.
        let mut j = after_attr;
        while j < code.len() && code[j].is_punct("#") {
            j = skip_attribute(code, j);
        }
        // Find the opening `{` of the struct/enum body (bail at `;` for
        // unit/tuple structs — tuple bodies use parens and are rare).
        while j < code.len() && !code[j].is_punct("{") && !code[j].is_punct(";") {
            j += 1;
        }
        if j >= code.len() || code[j].is_punct(";") {
            continue;
        }
        // Walk the body; `#[serde(skip…)]` shields the following field.
        let mut depth = 0usize;
        let mut skip_shield = false;
        while j < code.len() {
            let t = &code[j];
            if t.is_punct("#") && code.get(j + 1).is_some_and(|n| n.is_punct("[")) {
                let end = skip_attribute(code, j);
                let is_serde_skip = code[j..end].iter().any(|a| a.is_ident("serde"))
                    && code[j..end]
                        .iter()
                        .any(|a| a.is_ident("skip") || a.is_ident("skip_serializing"));
                if is_serde_skip {
                    skip_shield = true;
                }
                j = end;
                continue;
            }
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(",") && depth == 1 {
                skip_shield = false;
            } else if (t.is_ident("HashMap") || t.is_ident("HashSet"))
                && !skip_shield
                && applies("no-hashmap-in-serialized-output", info.crate_name, info.role_at(t.line))
            {
                info.push(
                    out,
                    "no-hashmap-in-serialized-output",
                    t,
                    format!(
                        "`{}` field in a `Serialize` type: hash iteration order makes \
                         serialized output nondeterministic; use BTreeMap/BTreeSet or \
                         `#[serde(skip)]`",
                        t.text
                    ),
                );
            }
            j += 1;
        }
        i = j;
    }
}

/// `forbid-unsafe-header`: every crate root must open with
/// `#![forbid(unsafe_code)]`.
fn forbid_unsafe_header(info: &FileInfo<'_>, out: &mut Vec<Violation>) {
    let is_crate_root = info.path == "src/lib.rs" || info.path.ends_with("/src/lib.rs");
    if !is_crate_root || !applies("forbid-unsafe-header", info.crate_name, info.role) {
        return;
    }
    let code = info.code.as_slice();
    let found = (0..code.len())
        .any(|i| is_seq(code, i, &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"]));
    if !found {
        let at = Token { kind: TokenKind::Punct, text: "", line: 1, col: 1 };
        info.push(
            out,
            "forbid-unsafe-header",
            &at,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}
