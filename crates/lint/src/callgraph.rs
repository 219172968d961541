//! Workspace call graph over the parsed items, with a heuristic path
//! resolver.
//!
//! Nodes are every `fn` item the [`crate::parser`] found across the
//! workspace; edges are call sites resolved by name. With no type
//! information available, resolution is deliberately *precision-first*:
//! an ambiguous call that cannot be pinned to a workspace function adds
//! **no** edge (a documented blind spot) rather than edges to every
//! same-named candidate — the deep passes would otherwise drown in
//! false positives. The heuristics, in order:
//!
//! * `Type::method(…)` / `module::f(…)` paths resolve by their last two
//!   segments against impl blocks and file-derived module paths;
//! * `self.m(…)` prefers the caller's own impl block;
//! * `recv.m(…)` uses the receiver's declared type when a `let`/param
//!   annotation reveals it, else falls back to "which candidate
//!   self-types does this function even mention", else requires the
//!   method name to be workspace-unique;
//! * bare `f(…)` prefers same-file, then same-crate, then
//!   workspace-unique free functions.
//!
//! A value whose type has a `Drop` impl runs that impl's `drop` when it
//! goes out of scope, with no call site in the source. A function gets
//! an edge to `T::drop` when a resolved callee's return type names `T`
//! (`m.start(…)` → `StageTimer`) or a `let` binds a local of type `T`.

use crate::lexer::{Token, TokenKind};
use crate::parser::{FnItem, ParsedFile, CALL_KEYWORDS};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// What a call site syntactically refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalleeRef {
    /// `f(…)` with no path or receiver.
    Bare(String),
    /// `a::b::f(…)` — all path segments, callee last.
    Path(Vec<String>),
    /// `recv.m(…)` — method name plus the receiver token when it is a
    /// plain identifier (`self` included).
    Method {
        /// The method name.
        name: String,
        /// Receiver identifier, when syntactically evident.
        recv: Option<String>,
    },
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: CalleeRef,
    /// Code-token index of the callee name.
    pub tok: usize,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
}

/// One macro invocation (`name!(…)` / `name![…]` / `name!{…}`).
#[derive(Debug, Clone)]
pub struct MacroSite {
    /// Macro name (without the `!`).
    pub name: String,
    /// Code-token range of the argument tokens (delimiters excluded).
    pub args: Range<usize>,
    /// 1-based line of the macro name.
    pub line: u32,
    /// 1-based column of the macro name.
    pub col: u32,
}

/// Extracts call sites from the tokens owned by `fn_idx` (nested fns'
/// tokens are attributed to the nested fn, not the enclosing one).
pub fn extract_calls(code: &[Token<'_>], pf: &ParsedFile, fn_idx: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in pf.owned_tokens(fn_idx) {
        let t = &code[i];
        if t.kind != TokenKind::Ident || !code.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        if CALL_KEYWORDS.contains(&t.text) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &code[p]);
        let callee = match prev {
            Some(p) if p.is_punct(".") => {
                let recv = i
                    .checked_sub(2)
                    .map(|r| &code[r])
                    .and_then(|r| (r.kind == TokenKind::Ident).then(|| r.text.to_string()));
                CalleeRef::Method { name: t.text.to_string(), recv }
            }
            Some(p) if p.is_punct("::") => {
                let mut segs = vec![t.text.to_string()];
                let mut k = i - 1;
                while k >= 1 && code[k].is_punct("::") && code[k - 1].kind == TokenKind::Ident {
                    segs.insert(0, code[k - 1].text.to_string());
                    if k < 2 {
                        break;
                    }
                    k -= 2;
                }
                CalleeRef::Path(segs)
            }
            Some(p) if p.is_ident("fn") => continue,
            _ => CalleeRef::Bare(t.text.to_string()),
        };
        out.push(CallSite { callee, tok: i, line: t.line, col: t.col });
    }
    out
}

/// Extracts macro invocations from the tokens owned by `fn_idx`.
pub fn extract_macros(code: &[Token<'_>], pf: &ParsedFile, fn_idx: usize) -> Vec<MacroSite> {
    let mut out = Vec::new();
    for i in pf.owned_tokens(fn_idx) {
        let t = &code[i];
        if t.kind != TokenKind::Ident || !code.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            continue;
        }
        let Some(open) = code.get(i + 2) else { continue };
        let (o, c) = match open.text {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => continue,
        };
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < code.len() {
            if code[j].is_punct(o) {
                depth += 1;
            } else if code[j].is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        out.push(MacroSite {
            name: t.text.to_string(),
            args: (i + 3).min(j)..j,
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// Container-ish wrappers skipped when extracting a variable's nominal
/// type from its annotation tokens.
const TYPE_WRAPPERS: &[&str] =
    &["Option", "Vec", "Box", "Arc", "Rc", "Result", "RefCell", "Cell", "Cow", "Mutex", "RwLock"];

/// The nominal (workspace-resolvable) type in an annotation token list:
/// the first capitalized identifier that is not a known wrapper.
pub fn nominal_type(ty_tokens: &[String]) -> Option<String> {
    ty_tokens
        .iter()
        .find(|t| {
            t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && !TYPE_WRAPPERS.contains(&t.as_str())
        })
        .cloned()
}

/// Declared variable types visible in one function: parameters plus
/// `let name: Type` annotations plus `let name = Type::…` initializers.
pub fn var_types(code: &[Token<'_>], pf: &ParsedFile, fn_idx: usize) -> BTreeMap<String, String> {
    let item = &pf.fns[fn_idx];
    let mut map = BTreeMap::new();
    for p in &item.params {
        if let (Some(name), Some(ty)) = (&p.name, nominal_type(&p.ty)) {
            map.insert(name.clone(), ty);
        }
    }
    if let Some(self_ty) = &item.self_ty {
        map.insert("self".to_string(), self_ty.clone());
    }
    for (name, ty, _) in let_bindings(code, pf, fn_idx) {
        map.insert(name, ty);
    }
    map
}

/// The typed `let` bindings of one function, in source order: `(name,
/// nominal type, code-token index of the name)` for every `let name:
/// Type` annotation and `let name = Type::…` initializer.
fn let_bindings(
    code: &[Token<'_>],
    pf: &ParsedFile,
    fn_idx: usize,
) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for i in pf.owned_tokens(fn_idx) {
        if !code[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if code.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = code.get(j) else { continue };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        let name = name_tok.text.to_string();
        match code.get(j + 1) {
            // `let x: Type = …`
            Some(t) if t.is_punct(":") => {
                let mut ty = Vec::new();
                let mut k = j + 2;
                let mut depth = 0i32;
                while k < code.len() {
                    let t = &code[k];
                    if depth <= 0 && (t.is_punct("=") || t.is_punct(";")) {
                        break;
                    }
                    match t.text {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        "<<" => depth += 2,
                        ">>" => depth -= 2,
                        _ => {}
                    }
                    ty.push(t.text.to_string());
                    k += 1;
                }
                if let Some(n) = nominal_type(&ty) {
                    out.push((name, n, j));
                }
            }
            // `let x = Type::ctor(…)`
            Some(t) if t.is_punct("=") => {
                if let Some(first) = code.get(j + 2) {
                    if first.kind == TokenKind::Ident
                        && first.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                        && code.get(j + 3).is_some_and(|n| n.is_punct("::"))
                        && !TYPE_WRAPPERS.contains(&first.text)
                    {
                        out.push((name, first.text.to_string(), j));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// One node of the workspace call graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into the deep pass's file table.
    pub file: usize,
    /// Index into that file's [`ParsedFile::fns`].
    pub item: usize,
    /// Crate directory name (`core`, `runtime`, … / `root`).
    pub crate_name: String,
    /// File-derived module path plus inline `mod` nesting.
    pub module: Vec<String>,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All functions, flattened across files.
    pub nodes: Vec<Node>,
    /// `edges[caller]` → resolved callees with the call-site position.
    pub edges: Vec<Vec<Edge>>,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// Token index of the callee name in the caller's file (the argument
    /// list opens at `tok + 1`).
    pub tok: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
}

/// Everything the resolver needs about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Crate directory name.
    pub crate_name: String,
    /// File-derived module path (`crates/runtime/src/wal.rs` → `[wal]`).
    pub module: Vec<String>,
    /// Non-comment tokens.
    pub code: &'a [Token<'a>],
    /// Parsed items.
    pub parsed: &'a ParsedFile,
}

/// Derives the module path a file contributes (`src/lib.rs` → ``;
/// `src/wal.rs` → `wal`; `src/cases/mod.rs` → `cases`).
pub fn file_module_path(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let Some(src_at) = parts.iter().position(|p| *p == "src" || *p == "tests") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, part) in parts.iter().enumerate().skip(src_at + 1) {
        let last = i + 1 == parts.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "main" && stem != "mod" {
                out.push(stem.to_string());
            }
        } else if *part != "bin" {
            out.push(part.to_string());
        }
    }
    out
}

/// Builds the resolved call graph over all files.
pub fn build(files: &[FileCtx<'_>]) -> CallGraph {
    // Global function table + name indices.
    let mut nodes = Vec::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    // `drop` of every `impl Drop for T`, keyed by `T`.
    let mut drops: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (ii, item) in f.parsed.fns.iter().enumerate() {
            let gid = nodes.len();
            let mut module = f.module.clone();
            module.extend(item.module.iter().cloned());
            nodes.push(Node { file: fi, item: ii, crate_name: f.crate_name.clone(), module });
            match &item.self_ty {
                Some(ty) => {
                    // Method-call syntax needs a `self` receiver, so an
                    // associated fn (`Branch::start()`) is no candidate
                    // for `m.start(…)`.
                    if item.params.first().is_some_and(|p| p.name.as_deref() == Some("self")) {
                        methods_by_name.entry(item.name.as_str()).or_default().push(gid);
                    }
                    type_method.entry((ty.as_str(), item.name.as_str())).or_default().push(gid);
                    if item.trait_impl.as_deref() == Some("Drop") && item.name == "drop" {
                        drops.entry(ty.as_str()).or_default().push(gid);
                    }
                }
                None => free_by_name.entry(item.name.as_str()).or_default().push(gid),
            }
        }
    }

    let item_of = |gid: usize| -> &FnItem {
        let n = &nodes[gid];
        &files[n.file].parsed.fns[n.item]
    };

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
    for gid in 0..nodes.len() {
        let node = &nodes[gid];
        let f = &files[node.file];
        let item = item_of(gid);
        if item.body.is_none() {
            continue;
        }
        let calls = extract_calls(f.code, f.parsed, node.item);
        let vars = var_types(f.code, f.parsed, node.item);
        // Identifier mention set for the last-resort method filter.
        let mentions: BTreeSet<&str> = item
            .span
            .clone()
            .filter_map(|i| f.code.get(i))
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();

        for call in calls {
            let targets: Vec<usize> = match &call.callee {
                CalleeRef::Method { name, recv } => {
                    let cands = methods_by_name.get(name.as_str()).cloned().unwrap_or_default();
                    resolve_method(&cands, recv.as_deref(), item, &vars, &mentions, &nodes, files)
                }
                CalleeRef::Path(segs) => {
                    resolve_path(segs, item, &type_method, &free_by_name, &nodes, node)
                }
                CalleeRef::Bare(name) => {
                    resolve_bare(free_by_name.get(name.as_str()), node, &nodes)
                }
            };
            for to in targets {
                if to != gid {
                    edges[gid].push(Edge { to, tok: call.tok, line: call.line, col: call.col });
                }
            }
        }

        // Implicit `drop` calls, one edge per `Drop` impl. A callee edge
        // keeps its call-site token; `drop` takes only `self`, so the
        // taint passes bind none of that call's arguments to it.
        let mut dropped: BTreeSet<usize> = BTreeSet::new();
        let mut implicit = Vec::new();
        for edge in &edges[gid] {
            let callee = item_of(edge.to);
            for t in &callee.ret {
                let ty = if t == "Self" { callee.self_ty.as_deref() } else { Some(t.as_str()) };
                for &to in ty.and_then(|ty| drops.get(ty)).into_iter().flatten() {
                    if to != gid && dropped.insert(to) {
                        implicit.push(Edge { to, ..*edge });
                    }
                }
            }
        }
        for (_, ty, tok) in let_bindings(f.code, f.parsed, node.item) {
            for &to in drops.get(ty.as_str()).into_iter().flatten() {
                if to != gid && dropped.insert(to) {
                    let t = &f.code[tok];
                    implicit.push(Edge { to, tok, line: t.line, col: t.col });
                }
            }
        }
        edges[gid].extend(implicit);
    }
    CallGraph { nodes, edges }
}

fn resolve_method(
    cands: &[usize],
    recv: Option<&str>,
    caller: &FnItem,
    vars: &BTreeMap<String, String>,
    mentions: &BTreeSet<&str>,
    nodes: &[Node],
    files: &[FileCtx<'_>],
) -> Vec<usize> {
    if cands.is_empty() {
        return Vec::new();
    }
    let self_ty_of = |gid: usize| -> Option<&str> {
        let n = &nodes[gid];
        files[n.file].parsed.fns[n.item].self_ty.as_deref()
    };
    // `self.m(…)`: the caller's own impl block wins.
    if recv == Some("self") {
        if let Some(own) = &caller.self_ty {
            let own_hits: Vec<usize> =
                cands.iter().copied().filter(|&g| self_ty_of(g) == Some(own.as_str())).collect();
            if !own_hits.is_empty() {
                return own_hits;
            }
        }
    }
    // Receiver with a declared type: resolve exactly or not at all — a
    // known type with no workspace method of that name is a std call.
    if let Some(rv) = recv {
        if let Some(ty) = vars.get(rv) {
            return cands.iter().copied().filter(|&g| self_ty_of(g) == Some(ty.as_str())).collect();
        }
    }
    // Unknown receiver: keep candidates whose self type this function
    // mentions at all; a method name that is workspace-unique resolves
    // unconditionally.
    let mentioned: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&g| self_ty_of(g).is_some_and(|ty| mentions.contains(ty)))
        .collect();
    if !mentioned.is_empty() {
        return mentioned;
    }
    if cands.len() == 1 {
        return cands.to_vec();
    }
    Vec::new()
}

fn resolve_path(
    segs: &[String],
    caller: &FnItem,
    type_method: &BTreeMap<(&str, &str), Vec<usize>>,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    nodes: &[Node],
    caller_node: &Node,
) -> Vec<usize> {
    let Some(last) = segs.last() else { return Vec::new() };
    if segs.len() == 1 {
        return resolve_bare(free_by_name.get(last.as_str()), caller_node, nodes);
    }
    let qual = &segs[segs.len() - 2];
    let qual = if qual == "Self" {
        match &caller.self_ty {
            Some(ty) => ty.clone(),
            None => qual.clone(),
        }
    } else {
        qual.clone()
    };
    if let Some(hits) = type_method.get(&(qual.as_str(), last.as_str())) {
        return hits.clone();
    }
    // Module- or crate-qualified free function.
    if let Some(cands) = free_by_name.get(last.as_str()) {
        let hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&g| {
                let n = &nodes[g];
                n.module.contains(&qual)
                    || n.crate_name == qual
                    || format!("lbs_{}", n.crate_name) == qual.replace('-', "_")
            })
            .collect();
        if !hits.is_empty() {
            return hits;
        }
    }
    Vec::new()
}

fn resolve_bare(cands: Option<&Vec<usize>>, caller_node: &Node, nodes: &[Node]) -> Vec<usize> {
    let Some(cands) = cands else { return Vec::new() };
    let same_file: Vec<usize> =
        cands.iter().copied().filter(|&g| nodes[g].file == caller_node.file).collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> =
        cands.iter().copied().filter(|&g| nodes[g].crate_name == caller_node.crate_name).collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    if cands.len() == 1 {
        return cands.clone();
    }
    Vec::new()
}
