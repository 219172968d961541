//! `--deep` driver: workspace-wide interprocedural passes.
//!
//! Three passes run over the shared call graph ([`crate::callgraph`]):
//!
//! * **panic-reachability** — BFS from the configured service entry
//!   points; any panicking construct (`.unwrap()` / `.expect()` /
//!   `panic!`-family macro / unguarded indexing) in a reachable function
//!   is an error, reported with the call chain from the nearest entry.
//! * **location-taint** — value-mode taint: raw coordinate types must
//!   not reach formatting/WAL/serde sinks except through sanctioned
//!   cloak/policy sanitizers.
//! * **determinism-taint** — carrier-mode taint: iteration order of
//!   hash containers (and wall-clock/thread-id reads) must not reach
//!   fingerprinted or serialized outputs.
//!
//! Sources, sinks, sanitizers, and entry points live in the checked-in
//! `lint-taint.toml` at the workspace root, parsed by the strict
//! TOML-subset reader below (unknown sections or keys are errors — the
//! same "no silent tolerance" stance the pragma parser takes).

use crate::callgraph::{self, CallGraph, FileCtx};
use crate::lexer::{self, Token, TokenKind};
use crate::parser::{self, ParsedFile};
use crate::registry;
use crate::report::Violation;
use crate::rules::FileRole;
use crate::taint::{self, TaintSpec};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Which deep passes to run (`--passes` CLI toggle).
#[derive(Debug, Clone, Copy)]
pub struct PassSet {
    /// Run `panic-reachability`.
    pub panic: bool,
    /// Run `location-taint`.
    pub location: bool,
    /// Run `determinism-taint`.
    pub determinism: bool,
}

impl PassSet {
    /// Every deep pass enabled (the `--deep` default).
    pub fn all() -> Self {
        PassSet { panic: true, location: true, determinism: true }
    }

    /// Parses a comma-separated list of deep lint names.
    ///
    /// # Errors
    /// A name that is not a registered deep lint.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut set = PassSet { panic: false, location: false, determinism: false };
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match name {
                "panic-reachability" => set.panic = true,
                "location-taint" => set.location = true,
                "determinism-taint" => set.determinism = true,
                other => {
                    return Err(format!(
                        "unknown deep pass `{other}` (expected one of: {})",
                        registry::deep_lint_names().join(", ")
                    ));
                }
            }
        }
        Ok(set)
    }
}

/// Parsed `lint-taint.toml`: `[section]` → `key` → string list.
#[derive(Debug, Default)]
pub struct DeepConfig {
    sections: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

/// Allowed `(section, key)` pairs in `lint-taint.toml`.
const CONFIG_SCHEMA: &[(&str, &[&str])] = &[
    ("panic-reachability", &["entry-points"]),
    (
        "location-taint",
        &[
            "value-sources",
            "taint-methods",
            "source-calls",
            "sink-calls",
            "sink-macros",
            "sanitizer-calls",
            "sanitizer-types",
        ],
    ),
    (
        "determinism-taint",
        &[
            "carrier-sources",
            "order-methods",
            "source-calls",
            "sink-calls",
            "sink-macros",
            "sanitizer-calls",
            "sanitizer-types",
        ],
    ),
];

impl DeepConfig {
    /// Parses the TOML subset used by `lint-taint.toml`: `[section]`
    /// headers, `key = ["a", "b"]` string arrays (multi-line allowed),
    /// `#` comments. Unknown sections or keys are hard errors.
    ///
    /// # Errors
    /// Syntax errors, unknown sections, unknown keys.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = DeepConfig::default();
        let mut section = String::new();
        let mut pending: Option<(String, String, usize)> = None; // key, buffer, line
        for (ln, raw) in text.lines().enumerate() {
            let line = strip_comment(raw);
            let line = line.trim();
            if let Some((key, mut buf, start)) = pending.take() {
                buf.push(' ');
                buf.push_str(line);
                if brackets_balanced(&buf) {
                    cfg.insert(&section, &key, &buf, start)?;
                } else {
                    pending = Some((key, buf, start));
                }
                continue;
            }
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if !CONFIG_SCHEMA.iter().any(|(s, _)| *s == name) {
                    return Err(format!("lint-taint.toml:{}: unknown section `[{name}]`", ln + 1));
                }
                section = name.to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint-taint.toml:{}: expected `key = [...]`", ln + 1));
            };
            let key = key.trim().to_string();
            let value = value.trim().to_string();
            if brackets_balanced(&value) {
                cfg.insert(&section, &key, &value, ln + 1)?;
            } else {
                pending = Some((key, value, ln + 1));
            }
        }
        if let Some((key, _, start)) = pending {
            return Err(format!("lint-taint.toml:{start}: unterminated array for `{key}`"));
        }
        Ok(cfg)
    }

    fn insert(&mut self, section: &str, key: &str, value: &str, line: usize) -> Result<(), String> {
        if section.is_empty() {
            return Err(format!("lint-taint.toml:{line}: `{key}` outside any section"));
        }
        let allowed =
            CONFIG_SCHEMA.iter().find(|(s, _)| *s == section).map(|(_, keys)| *keys).unwrap_or(&[]);
        if !allowed.contains(&key) {
            return Err(format!(
                "lint-taint.toml:{line}: unknown key `{key}` in `[{section}]` \
                 (expected one of: {})",
                allowed.join(", ")
            ));
        }
        let inner = value
            .strip_prefix('[')
            .and_then(|v| v.strip_suffix(']'))
            .ok_or_else(|| format!("lint-taint.toml:{line}: `{key}` must be a string array"))?;
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let unquoted =
                part.strip_prefix('"').and_then(|p| p.strip_suffix('"')).ok_or_else(|| {
                    format!("lint-taint.toml:{line}: `{key}` entries must be double-quoted")
                })?;
            items.push(unquoted.to_string());
        }
        self.sections.entry(section.to_string()).or_default().insert(key.to_string(), items);
        Ok(())
    }

    fn list(&self, section: &str, key: &str) -> Vec<String> {
        self.sections.get(section).and_then(|s| s.get(key)).cloned().unwrap_or_default()
    }

    fn taint_spec(&self, lint: &str) -> TaintSpec {
        TaintSpec {
            lint: lint.to_string(),
            value_sources: self.list(lint, "value-sources"),
            carrier_sources: self.list(lint, "carrier-sources"),
            order_methods: self.list(lint, "order-methods"),
            taint_methods: self.list(lint, "taint-methods"),
            source_calls: self.list(lint, "source-calls"),
            sink_calls: self.list(lint, "sink-calls"),
            sink_macros: self.list(lint, "sink-macros"),
            sanitizer_calls: self.list(lint, "sanitizer-calls"),
            sanitizer_types: self.list(lint, "sanitizer-types"),
        }
    }
}

/// Drops a `#` comment unless the `#` sits inside a double-quoted string.
fn strip_comment(line: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    for c in line.chars() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => break,
            _ => {}
        }
        out.push(c);
    }
    out
}

fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

/// One input file for the deep driver.
pub struct DeepFile {
    /// Workspace-relative path.
    pub rel: String,
    /// File contents.
    pub src: String,
    /// Crate directory name.
    pub crate_name: String,
    /// Path-derived role.
    pub role: FileRole,
}

/// Runs the enabled deep passes and returns raw (pre-suppression)
/// violations.
pub fn run(files: &[DeepFile], cfg: &DeepConfig, passes: &PassSet) -> Vec<Violation> {
    // Lex once per file. The full stream feeds the pragma collector (a
    // suppressed sink is *sanctioned*: it still reports locally — which
    // marks the pragma used — but does not feed interprocedural
    // summaries, so callers of a sanctioned boundary stay clean); the
    // comment-free stream feeds the parser and the passes.
    let full_tokens: Vec<Vec<Token<'_>>> = files.iter().map(|f| lexer::tokenize(&f.src)).collect();
    let suppressions: Vec<Vec<crate::pragma::Suppression>> =
        full_tokens.iter().map(|ts| crate::pragma::collect(ts).0).collect();
    let sanctioned = |file_idx: usize, lint: &str, line: u32| {
        suppressions[file_idx].iter().any(|s| {
            s.lints.iter().any(|l| l == lint) && (s.start_line..=s.end_line).contains(&line)
        })
    };
    let token_sets: Vec<Vec<Token<'_>>> = full_tokens
        .iter()
        .map(|ts| ts.iter().filter(|t| !t.is_comment()).copied().collect())
        .collect();
    let parsed: Vec<ParsedFile> = token_sets.iter().map(|c| parser::parse_items(c)).collect();
    let ctxs: Vec<FileCtx<'_>> = files
        .iter()
        .zip(token_sets.iter().zip(parsed.iter()))
        .map(|(f, (code, pf))| FileCtx {
            rel: &f.rel,
            crate_name: f.crate_name.clone(),
            module: callgraph::file_module_path(&f.rel),
            code,
            parsed: pf,
        })
        .collect();
    let graph = callgraph::build(&ctxs);

    // Functions eligible for analysis: real (non-test) library/binary
    // code with a body. Tests, benches, and examples are out of scope —
    // panicking and debug-printing there is idiomatic.
    let mut analyzed: BTreeSet<usize> = BTreeSet::new();
    for (gid, node) in graph.nodes.iter().enumerate() {
        let role = files[node.file].role;
        let item = &ctxs[node.file].parsed.fns[node.item];
        if matches!(role, FileRole::Lib | FileRole::Bin) && !item.in_test && item.body.is_some() {
            analyzed.insert(gid);
        }
    }

    let mut out = Vec::new();
    if passes.panic {
        panic_reachability(files, &ctxs, &graph, &analyzed, cfg, &mut out);
    }
    if passes.location {
        let spec = cfg.taint_spec("location-taint");
        let sp = |file_idx: usize, line: u32| sanctioned(file_idx, "location-taint", line);
        out.extend(taint::run(&spec, &ctxs, &graph, &analyzed, &sp));
    }
    if passes.determinism {
        let spec = cfg.taint_spec("determinism-taint");
        let sp = |file_idx: usize, line: u32| sanctioned(file_idx, "determinism-taint", line);
        out.extend(taint::run(&spec, &ctxs, &graph, &analyzed, &sp));
    }
    out
}

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// A panicking construct found in a function body.
struct PanicSite {
    line: u32,
    col: u32,
    what: String,
}

/// BFS from configured entry points; report panic sites in every
/// reachable function with the call chain as the trace.
fn panic_reachability(
    files: &[DeepFile],
    ctxs: &[FileCtx<'_>],
    graph: &CallGraph,
    analyzed: &BTreeSet<usize>,
    cfg: &DeepConfig,
    out: &mut Vec<Violation>,
) {
    let entries = cfg.list("panic-reachability", "entry-points");
    let mut queue: VecDeque<usize> = VecDeque::new();
    // parent[gid] = (caller gid, call line) for trace reconstruction.
    let mut parent: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    for (gid, node) in graph.nodes.iter().enumerate() {
        if !analyzed.contains(&gid) {
            continue;
        }
        let item = &ctxs[node.file].parsed.fns[node.item];
        let matches_entry = entries.iter().any(|e| match e.split_once("::") {
            Some((ty, m)) => item.self_ty.as_deref() == Some(ty) && item.name == m,
            None => item.self_ty.is_none() && item.name == *e,
        });
        if matches_entry {
            visited.insert(gid);
            queue.push_back(gid);
        }
    }
    while let Some(gid) = queue.pop_front() {
        for edge in &graph.edges[gid] {
            if analyzed.contains(&edge.to) && visited.insert(edge.to) {
                parent.insert(edge.to, (gid, edge.line));
                queue.push_back(edge.to);
            }
        }
    }

    for &gid in &visited {
        let node = &graph.nodes[gid];
        let ctx = &ctxs[node.file];
        let item = &ctx.parsed.fns[node.item];
        let sites = panic_sites(ctx, node.item);
        if sites.is_empty() {
            continue;
        }
        // Reconstruct entry → … → this function.
        let mut chain = vec![gid];
        let mut cur = gid;
        while let Some(&(p, _)) = parent.get(&cur) {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        let mut trace = Vec::new();
        for (hop, &g) in chain.iter().enumerate() {
            let n = &graph.nodes[g];
            let it = &ctxs[n.file].parsed.fns[n.item];
            if hop == 0 {
                trace.push(format!(
                    "entry point `{}` ({}:{})",
                    it.display_name(),
                    files[n.file].rel,
                    it.line
                ));
            } else {
                // The call site lives in the caller's file.
                let caller = &graph.nodes[chain[hop - 1]];
                let call_line = parent.get(&g).map_or(it.line, |&(_, l)| l);
                trace.push(format!(
                    "calls `{}` ({}:{})",
                    it.display_name(),
                    files[caller.file].rel,
                    call_line
                ));
            }
        }
        let entry_name = {
            let n = &graph.nodes[chain[0]];
            ctxs[n.file].parsed.fns[n.item].display_name()
        };
        for site in sites {
            out.push(Violation {
                lint: "panic-reachability".to_string(),
                severity: "error".to_string(),
                path: files[node.file].rel.clone(),
                line: site.line,
                col: site.col,
                message: format!(
                    "{} in `{}` is reachable from service entry point `{entry_name}`; \
                     return an error instead or suppress with a reason",
                    site.what,
                    item.display_name()
                ),
                trace: trace.clone(),
            });
        }
    }
}

/// Collects panicking constructs in one function's own tokens.
fn panic_sites(ctx: &FileCtx<'_>, fn_idx: usize) -> Vec<PanicSite> {
    let code = ctx.code;
    let mut out = Vec::new();
    let owned: Vec<usize> = ctx.parsed.owned_tokens(fn_idx).collect();
    for &i in &owned {
        let t = &code[i];
        // `.unwrap(` / `.expect(`
        if t.kind == TokenKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && code[i - 1].is_punct(".")
            && code.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            out.push(PanicSite { line: t.line, col: t.col, what: format!("`.{}()`", t.text) });
            continue;
        }
        // `panic!(` family
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text)
            && code.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            out.push(PanicSite { line: t.line, col: t.col, what: format!("`{}!`", t.text) });
            continue;
        }
        // Indexing: `recv[expr]` — `[` preceded by an identifier or a
        // closing bracket, i.e. an expression position (never `#[`,
        // array literals, or type syntax).
        if t.is_punct("[") && i > 0 {
            let prev = &code[i - 1];
            let expr_pos = (prev.kind == TokenKind::Ident
                && !parser::CALL_KEYWORDS.contains(&prev.text))
                || prev.is_punct(")")
                || prev.is_punct("]");
            if expr_pos {
                if let Some(site) = indexing_site(ctx, &owned, i) {
                    out.push(site);
                }
            }
        }
    }
    out
}

/// Classifies an indexing expression at `open` (`[`); returns a site
/// only when no guard heuristic applies.
fn indexing_site(ctx: &FileCtx<'_>, owned: &[usize], open: usize) -> Option<PanicSite> {
    let code = ctx.code;
    let prev = &code[open - 1];
    if prev.kind == TokenKind::Ident && parser::CALL_KEYWORDS.contains(&prev.text) {
        return None;
    }
    // Find the matching `]`.
    let mut depth = 0usize;
    let mut close = open;
    while close < code.len() {
        if code[close].is_punct("[") {
            depth += 1;
        } else if code[close].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        close += 1;
    }
    if close >= code.len() || close == open + 1 {
        return None; // unterminated or `[]` (array literal in expr position)
    }
    let idx_tokens = &code[open + 1..close];
    // Guard: constant indices (fixed-size array access patterns).
    if idx_tokens.iter().all(|t| t.kind == TokenKind::Number) {
        return None;
    }
    // Guard: ranges and length-derived arithmetic in the index.
    if idx_tokens.iter().any(|t| {
        t.is_punct("..")
            || t.is_punct("..=")
            || t.is_punct("%")
            || (t.kind == TokenKind::Ident
                && (t.text == "len" || t.text == "min" || t.text == "clamp"))
    }) {
        return None;
    }
    // Guard: single-ident index that is a for-loop binding in this fn.
    if idx_tokens.len() == 1 && idx_tokens[0].kind == TokenKind::Ident {
        let var = idx_tokens[0].text;
        for w in owned.windows(2) {
            if code[w[0]].is_ident("for") && code[w[1]].is_ident(var) {
                return None;
            }
        }
    }
    // Guard: receiver has a length/emptiness check somewhere in this fn.
    if prev.kind == TokenKind::Ident {
        let recv = prev.text;
        for w in owned.windows(3) {
            if code[w[0]].is_ident(recv)
                && code[w[1]].is_punct(".")
                && (code[w[2]].is_ident("len")
                    || code[w[2]].is_ident("is_empty")
                    || code[w[2]].is_ident("get"))
            {
                return None;
            }
        }
    }
    Some(PanicSite {
        line: code[open].line,
        col: code[open].col,
        what: "unguarded indexing".to_string(),
    })
}
