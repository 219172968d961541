//! Interprocedural taint engine shared by the `location-taint` and
//! `determinism-taint` passes.
//!
//! The engine is a label-propagation dataflow over the token stream,
//! guided by the [`crate::parser`] items and the [`crate::callgraph`]:
//!
//! * **Labels.** Each variable in a function carries a bitmask: bit 0 is
//!   SOURCE ("definitely carries tainted data"), bit *i*+1 is "carries
//!   whatever parameter *i* carried". Running the same propagation once
//!   per function yields both real taint and a per-parameter summary.
//! * **Intra-procedural propagation** walks `let`/assignment units,
//!   container-mutation statements (`v.push(x)`), and `for` loops to a
//!   fixpoint. Two source models exist: *value* sources (a `Point` is
//!   sensitive wherever it goes) and *carrier* sources (a `HashMap` is
//!   only sensitive when its iteration order escapes via an
//!   order-sensitive method).
//! * **Sinks** are direct calls/macros from the spec; a sanitizer call
//!   or sanitizer type anywhere in the sunk expression clears it (a
//!   documented approximation).
//! * **Interprocedural propagation** runs the per-function summaries to
//!   a fixpoint over the call graph: passing a tainted argument into a
//!   parameter that (transitively) reaches a sink is a finding at the
//!   call site, with the exemplar chain recorded as the finding's trace.
//!
//! Everything here is heuristic: no types, no trait resolution, no
//! macro expansion. DESIGN.md §12 lists the blind spots.

use crate::callgraph::{self, CallGraph, CalleeRef, FileCtx};
use crate::lexer::{Token, TokenKind};
use crate::registry::{self, Severity};
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Label bit for "carries actual source data".
const SOURCE: u64 = 1;

/// Configuration of one taint pass.
#[derive(Debug, Clone, Default)]
pub struct TaintSpec {
    /// Registered lint name this pass reports under.
    pub lint: String,
    /// Types whose *values* are sensitive (`Point`, `UserUpdate`).
    pub value_sources: Vec<String>,
    /// Container types whose *iteration order* is sensitive
    /// (`HashMap`, `HashSet`).
    pub carrier_sources: Vec<String>,
    /// Methods on a carrier that expose its order (`iter`, `keys`, …).
    pub order_methods: Vec<String>,
    /// When non-empty, a value-tainted receiver keeps its taint only
    /// through these methods; any other method call launders
    /// (`db.len()` is harmless, `db.iter()` is not).
    pub taint_methods: Vec<String>,
    /// Calls whose result is tainted (`Instant::now`, `thread::current`).
    pub source_calls: Vec<String>,
    /// Call names that are sinks; `Type::method` entries match only when
    /// the receiver is resolvable to `Type` (or is a field spelled like
    /// it), plain names match anywhere.
    pub sink_calls: Vec<String>,
    /// Macros that are sinks (`format`, `write`, …).
    pub sink_macros: Vec<String>,
    /// Calls that cleanse (`anonymize`, `sort`, `encode_policy`, …).
    pub sanitizer_calls: Vec<String>,
    /// Types whose values are always clean (`BulkPolicy`, `BTreeMap`).
    pub sanitizer_types: Vec<String>,
}

/// Per-function analysis state.
struct FnState {
    /// Variable → label mask.
    vars: BTreeMap<String, u64>,
    /// Variables of carrier type (order-sensitive containers).
    carriers: BTreeSet<String>,
    /// Declared variable types (for `Type::method` sink matching).
    var_types: BTreeMap<String, String>,
    /// Parameter names in order (for the summary bits).
    param_names: Vec<Option<String>>,
    /// Bitmask of parameters that reach a sink (directly or via calls).
    sink_params: u64,
    /// Exemplar trace per parameter index.
    exemplars: BTreeMap<u32, Vec<String>>,
}

/// Runs one taint pass over the analyzed functions.
///
/// `analyzed` holds the global node ids the pass may report on (library
/// code; tests and harness code are excluded by the caller).
/// `sanctioned(file_idx, line)` marks sink sites covered by a pragma for
/// this pass's lint: they still report locally (so the pragma registers
/// as used) but do not feed interprocedural summaries. Returns raw
/// violations (pre-suppression).
pub fn run(
    spec: &TaintSpec,
    files: &[FileCtx<'_>],
    graph: &CallGraph,
    analyzed: &BTreeSet<usize>,
    sanctioned: &dyn Fn(usize, u32) -> bool,
) -> Vec<Violation> {
    let carrier_fields = collect_carrier_fields(spec, files);

    // Phase 1: intra-procedural label propagation per function.
    let mut states: BTreeMap<usize, FnState> = BTreeMap::new();
    for &gid in analyzed {
        states.insert(gid, intra(spec, files, graph, gid, &carrier_fields, sanctioned));
    }

    // Phase 2: summary fixpoint over the call graph — a parameter that
    // flows into a callee's sink-reaching parameter reaches a sink too.
    for _ in 0..20 {
        let mut changed = false;
        for &gid in analyzed {
            let updates = propagate_calls(spec, files, graph, gid, &states, &carrier_fields);
            if let Some(st) = states.get_mut(&gid) {
                for (bit, chain) in updates {
                    if st.sink_params & (1 << bit) == 0 {
                        st.sink_params |= 1 << bit;
                        st.exemplars.insert(bit, chain);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 3: findings — direct sink hits with SOURCE labels, plus
    // SOURCE arguments passed into sink-reaching parameters.
    let mut out = Vec::new();
    for &gid in analyzed {
        findings(spec, files, graph, gid, &states, &carrier_fields, sanctioned, &mut out);
    }
    out.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.col == b.col && a.lint == b.lint);
    out
}

/// Struct fields declared with a carrier type anywhere in the scanned
/// files (`cache: HashMap<…>` → `cache`), so `self.cache.iter()` is
/// recognized without type information.
fn collect_carrier_fields(spec: &TaintSpec, files: &[FileCtx<'_>]) -> BTreeSet<String> {
    let mut fields = BTreeSet::new();
    if spec.carrier_sources.is_empty() {
        return fields;
    }
    for f in files {
        for i in 0..f.code.len() {
            // Item-level `name : Carrier <` — fn-owned tokens excluded so
            // local `let` annotations don't pollute the field set.
            if f.parsed.owner.get(i).copied().flatten().is_some() {
                continue;
            }
            let t = &f.code[i];
            if t.kind == TokenKind::Ident
                && f.code.get(i + 1).is_some_and(|n| n.is_punct(":"))
                && f.code
                    .get(i + 2)
                    .is_some_and(|n| spec.carrier_sources.iter().any(|c| n.is_ident(c)))
            {
                fields.insert(t.text.to_string());
            }
        }
    }
    fields
}

/// Computes the fixed variable-label map for one function.
fn intra(
    spec: &TaintSpec,
    files: &[FileCtx<'_>],
    graph: &CallGraph,
    gid: usize,
    carrier_fields: &BTreeSet<String>,
    sanctioned: &dyn Fn(usize, u32) -> bool,
) -> FnState {
    let node = &graph.nodes[gid];
    let f = &files[node.file];
    let item = &f.parsed.fns[node.item];
    let mut vars: BTreeMap<String, u64> = BTreeMap::new();
    let mut carriers: BTreeSet<String> = BTreeSet::new();
    let mut param_names = Vec::new();

    for (pi, p) in item.params.iter().enumerate() {
        param_names.push(p.name.clone());
        let Some(name) = &p.name else { continue };
        let mut mask = 0u64;
        if pi < 62 {
            mask |= 1 << (pi + 1);
        }
        let nominal = callgraph::nominal_type(&p.ty);
        if name == "self" {
            if let Some(ty) = &item.self_ty {
                if spec.value_sources.iter().any(|s| s == ty) {
                    mask |= SOURCE;
                }
                if spec.carrier_sources.iter().any(|s| s == ty) {
                    carriers.insert(name.clone());
                }
            }
        }
        if let Some(n) = &nominal {
            if spec.value_sources.contains(n) {
                mask |= SOURCE;
            }
            if spec.sanitizer_types.contains(n) {
                mask = 0;
            }
            if spec.carrier_sources.contains(n) {
                carriers.insert(name.clone());
            }
        }
        vars.insert(name.clone(), mask);
    }

    let owned: Vec<usize> = f.parsed.owned_tokens(node.item).collect();
    // Record carrier-typed lets up front (they never change).
    for &i in &owned {
        if f.code[i].is_ident("let") {
            let mut j = i + 1;
            if f.code.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name_tok) = f.code.get(j) {
                if name_tok.kind == TokenKind::Ident
                    && f.code.get(j + 1).is_some_and(|t| t.is_punct(":"))
                    && f.code
                        .get(j + 2)
                        .is_some_and(|t| spec.carrier_sources.iter().any(|c| t.is_ident(c)))
                {
                    carriers.insert(name_tok.text.to_string());
                }
            }
        }
    }

    let mut st = FnState {
        vars,
        carriers,
        var_types: callgraph::var_types(f.code, f.parsed, node.item),
        param_names,
        sink_params: 0,
        exemplars: BTreeMap::new(),
    };
    // Propagate to a fixpoint (label masks only grow, so this converges).
    for _ in 0..8 {
        if !propagate_once(spec, f, &owned, &mut st, carrier_fields) {
            break;
        }
    }

    // Direct (intra-procedural) sink hits establish the summary base.
    let qname = item.display_name();
    let calls = callgraph::extract_calls(f.code, f.parsed, node.item);
    let macros = callgraph::extract_macros(f.code, f.parsed, node.item);
    for call in &calls {
        let Some(args) = call_args(f.code, call.tok) else { continue };
        if !is_sink_call(spec, &st, &call.callee) || sanctioned(node.file, call.line) {
            continue;
        }
        let lbl = range_labels(spec, f, &st, carrier_fields, args.clone(), true);
        if lbl != 0 && !range_sanitized(spec, f, args) {
            for bit in param_bits(lbl) {
                st.sink_params |= 1 << bit;
                st.exemplars.entry(bit).or_insert_with(|| {
                    vec![format!(
                        "parameter `{}` of `{qname}` reaches sink `{}` ({}:{})",
                        st.param_names
                            .get((bit - 1) as usize)
                            .cloned()
                            .flatten()
                            .unwrap_or_else(|| format!("#{}", bit - 1)),
                        callee_name(&call.callee),
                        f.rel,
                        call.line
                    )]
                });
            }
        }
    }
    for m in &macros {
        if !spec.sink_macros.contains(&m.name) || sanctioned(node.file, m.line) {
            continue;
        }
        let lbl = range_labels(spec, f, &st, carrier_fields, m.args.clone(), true);
        if lbl != 0 && !range_sanitized(spec, f, m.args.clone()) {
            for bit in param_bits(lbl) {
                st.sink_params |= 1 << bit;
                st.exemplars.entry(bit).or_insert_with(|| {
                    vec![format!(
                        "parameter `{}` of `{qname}` reaches sink macro `{}!` ({}:{})",
                        st.param_names
                            .get((bit - 1) as usize)
                            .cloned()
                            .flatten()
                            .unwrap_or_else(|| format!("#{}", bit - 1)),
                        m.name,
                        f.rel,
                        m.line
                    )]
                });
            }
        }
    }
    st
}

/// One propagation sweep; returns whether any label changed.
fn propagate_once(
    spec: &TaintSpec,
    f: &FileCtx<'_>,
    owned: &[usize],
    st: &mut FnState,
    carrier_fields: &BTreeSet<String>,
) -> bool {
    let code = f.code;
    let mut changed = false;
    for &i in owned {
        let t = &code[i];
        // `let [mut] name [: Ty] = RHS ;` — plus the pattern forms:
        // `let (a, b) = …`, `let Some(x) = … else`, `if let` / `while
        // let`, which bind the scrutinee's labels to every binder.
        if t.is_ident("let") {
            let is_cond = i > 0 && (code[i - 1].is_ident("if") || code[i - 1].is_ident("while"));
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = code.get(j) else { continue };
            let simple = !is_cond
                && name_tok.kind == TokenKind::Ident
                && name_tok.text.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && code.get(j + 1).is_some_and(|n| n.is_punct(":") || n.is_punct("="));
            if !simple {
                changed |= bind_pattern(spec, f, st, carrier_fields, j, is_cond);
                continue;
            }
            let name = name_tok.text;
            // Skip a type annotation; find `=` at depth 0.
            let mut k = j + 1;
            let mut depth = 0i32;
            let mut sanitized_ty = false;
            let mut sourced_ty = false;
            while k < code.len() {
                let tk = &code[k];
                if depth <= 0 && (tk.is_punct("=") || tk.is_punct(";")) {
                    break;
                }
                if tk.kind == TokenKind::Ident && spec.sanitizer_types.iter().any(|s| s == tk.text)
                {
                    sanitized_ty = true;
                }
                if tk.kind == TokenKind::Ident && spec.value_sources.iter().any(|s| s == tk.text) {
                    sourced_ty = true;
                }
                match tk.text {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    _ => {}
                }
                k += 1;
            }
            if !code.get(k).is_some_and(|tk| tk.is_punct("=")) {
                continue;
            }
            let rhs = rhs_range(code, k + 1);
            if sanitized_ty || range_sanitized(spec, f, rhs.clone()) {
                // Sanitized binding: (re)set to clean.
                if st.vars.get(name).copied().unwrap_or(0) != 0 {
                    st.vars.insert(name.to_string(), 0);
                    changed = true;
                }
                continue;
            }
            let mut lbl = range_labels(spec, f, st, carrier_fields, rhs, false);
            if sourced_ty {
                lbl |= SOURCE;
            }
            if lbl != 0 {
                changed |= grow_var(&mut st.vars, name, lbl);
            }
            continue;
        }
        // Statement-initial `name …`: assignment or container mutation.
        if t.kind == TokenKind::Ident && st.vars.contains_key(t.text) {
            let at_stmt_start = i == 0
                || code
                    .get(i - 1)
                    .is_some_and(|p| p.is_punct(";") || p.is_punct("{") || p.is_punct("}"));
            if !at_stmt_start {
                continue;
            }
            // Walk the access path (`x.f.g`) to find `=` or a method.
            let mut k = i + 1;
            while code.get(k).is_some_and(|p| p.is_punct("."))
                && code.get(k + 1).is_some_and(|n| n.kind == TokenKind::Ident)
                && !code.get(k + 2).is_some_and(|n| n.is_punct("("))
            {
                k += 2;
            }
            if code.get(k).is_some_and(|p| {
                matches!(p.text, "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=")
                    && p.kind == TokenKind::Punct
            }) {
                let rhs = rhs_range(code, k + 1);
                if !range_sanitized(spec, f, rhs.clone()) {
                    let lbl = range_labels(spec, f, st, carrier_fields, rhs, false);
                    if lbl != 0 {
                        changed |= grow_var(&mut st.vars, t.text, lbl);
                    }
                }
                continue;
            }
            // `x.push(args)` / `x.sort()` style statement.
            if code.get(k).is_some_and(|p| p.is_punct("."))
                && code.get(k + 1).is_some_and(|n| n.kind == TokenKind::Ident)
                && code.get(k + 2).is_some_and(|n| n.is_punct("("))
            {
                let m = code[k + 1].text;
                if spec.sanitizer_calls.iter().any(|s| s == m) {
                    if st.vars.get(t.text).copied().unwrap_or(0) != 0 {
                        st.vars.insert(t.text.to_string(), 0);
                        changed = true;
                    }
                } else if matches!(
                    m,
                    "push"
                        | "insert"
                        | "extend"
                        | "append"
                        | "push_str"
                        | "push_back"
                        | "push_front"
                ) {
                    if let Some(args) = call_args(code, k + 1) {
                        let lbl = range_labels(spec, f, st, carrier_fields, args, false);
                        if lbl != 0 {
                            changed |= grow_var(&mut st.vars, t.text, lbl);
                        }
                    }
                }
            }
            continue;
        }
        // `match EXPR { PAT => …, … }` binds arm binders to the
        // scrutinee's labels.
        if t.is_ident("match") {
            changed |= bind_match_arms(spec, f, st, carrier_fields, i);
            continue;
        }
        // `for PAT in EXPR {`
        if t.is_ident("for") {
            let mut pat_idents = Vec::new();
            let mut k = i + 1;
            while k < code.len() && !code[k].is_ident("in") {
                if code[k].is_punct("{") || code[k].is_punct(";") {
                    break;
                }
                if code[k].kind == TokenKind::Ident && !code[k].is_ident("mut") {
                    pat_idents.push(code[k].text.to_string());
                }
                k += 1;
            }
            if !code.get(k).is_some_and(|t| t.is_ident("in")) {
                continue;
            }
            let expr_start = k + 1;
            let mut depth = 0i32;
            let mut end = expr_start;
            while end < code.len() {
                let e = &code[end];
                if depth <= 0 && e.is_punct("{") {
                    break;
                }
                match e.text {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
                end += 1;
            }
            let lbl = range_labels(spec, f, st, carrier_fields, expr_start..end, true);
            if lbl != 0 && !range_sanitized(spec, f, expr_start..end) {
                for p in &pat_idents {
                    changed |= grow_var(&mut st.vars, p, lbl);
                }
            }
        }
    }
    changed
}

/// Grows a variable's label mask; returns whether anything changed.
fn grow_var(vars: &mut BTreeMap<String, u64>, name: &str, lbl: u64) -> bool {
    let entry = vars.entry(name.to_string()).or_insert(0);
    let next = *entry | lbl;
    if next != *entry {
        *entry = next;
        true
    } else {
        false
    }
}

/// Keywords that appear inside patterns without being binders.
const PATTERN_KEYWORDS: &[&str] = &["mut", "ref", "box", "_", "if", "in"];

/// Collects binder identifiers from a pattern token range: lowercase
/// idents that are not path segments (`next != ::`), struct-field keys
/// (`next != :`), or pattern keywords.
fn pattern_binders(code: &[Token<'_>], range: Range<usize>) -> Vec<String> {
    let mut out = Vec::new();
    for i in range.start..range.end.min(code.len()) {
        let t = &code[i];
        if t.kind != TokenKind::Ident
            || PATTERN_KEYWORDS.contains(&t.text)
            || !t.text.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        {
            continue;
        }
        if code.get(i + 1).is_some_and(|n| n.is_punct("::") || n.is_punct(":")) {
            continue;
        }
        if i > 0 && code[i - 1].is_punct("::") {
            continue;
        }
        out.push(t.text.to_string());
    }
    out
}

/// Handles the pattern `let` forms (`let (a, b) = …`, `let Some(x) = …
/// else`, `if let`, `while let`): every binder in the pattern receives
/// the scrutinee's labels. `start` is the first pattern token; returns
/// whether any label changed.
fn bind_pattern(
    spec: &TaintSpec,
    f: &FileCtx<'_>,
    st: &mut FnState,
    carrier_fields: &BTreeSet<String>,
    start: usize,
    is_cond: bool,
) -> bool {
    let code = f.code;
    // Pattern region: up to `=` at depth 0. Struct-pattern braces follow
    // an identifier; a `{` that doesn't is a body — bail (no initializer).
    let mut depth = 0i32;
    let mut k = start;
    while k < code.len() {
        let t = &code[k];
        if depth <= 0 && t.is_punct("=") {
            break;
        }
        if depth <= 0 && t.is_punct(";") {
            return false;
        }
        match t.text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => {
                if k > start && code[k - 1].kind == TokenKind::Ident {
                    depth += 1;
                } else if depth <= 0 {
                    return false;
                } else {
                    depth += 1;
                }
            }
            "}" => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    if !code.get(k).is_some_and(|t| t.is_punct("=")) {
        return false;
    }
    let binders = pattern_binders(code, start..k);
    if binders.is_empty() {
        return false;
    }
    // Scrutinee: conditional forms end at the body `{`; plain pattern
    // lets run to the `;` (let-else blocks are included — harmless).
    let rhs = if is_cond {
        let mut d = 0i32;
        let mut e = k + 1;
        while e < code.len() {
            let t = &code[e];
            if d <= 0 && t.is_punct("{") {
                break;
            }
            match t.text {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                _ => {}
            }
            e += 1;
        }
        k + 1..e
    } else {
        rhs_range(code, k + 1)
    };
    if range_sanitized(spec, f, rhs.clone()) {
        let mut changed = false;
        for b in &binders {
            if st.vars.get(b).copied().unwrap_or(0) != 0 {
                st.vars.insert(b.clone(), 0);
                changed = true;
            }
        }
        return changed;
    }
    let lbl = range_labels(spec, f, st, carrier_fields, rhs, false);
    if lbl == 0 {
        return false;
    }
    let mut changed = false;
    for b in &binders {
        changed |= grow_var(&mut st.vars, b, lbl);
    }
    changed
}

/// Handles `match SCRUTINEE { PAT => …, … }`: every arm binder receives
/// the scrutinee's labels. `at` is the `match` token; returns whether
/// any label changed.
fn bind_match_arms(
    spec: &TaintSpec,
    f: &FileCtx<'_>,
    st: &mut FnState,
    carrier_fields: &BTreeSet<String>,
    at: usize,
) -> bool {
    let code = f.code;
    let mut depth = 0i32;
    let mut k = at + 1;
    while k < code.len() {
        let t = &code[k];
        if depth <= 0 && t.is_punct("{") {
            break;
        }
        match t.text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            _ => {}
        }
        k += 1;
    }
    if k >= code.len() {
        return false;
    }
    let lbl = range_labels(spec, f, st, carrier_fields, at + 1..k, false);
    if lbl == 0 {
        return false;
    }
    // Walk the arm list at brace depth 1: pattern tokens run from an arm
    // start (block open or a depth-1 `,`) to the arm's `=>`.
    let mut brace = 0i32;
    let mut other = 0i32;
    let mut arm_start = k + 1;
    let mut in_pattern = true;
    let mut changed = false;
    let mut i = k;
    while i < code.len() {
        let t = &code[i];
        match t.text {
            "{" if t.kind == TokenKind::Punct => {
                brace += 1;
                if brace == 1 {
                    arm_start = i + 1;
                    in_pattern = true;
                }
            }
            "}" if t.kind == TokenKind::Punct => {
                brace -= 1;
                if brace == 0 {
                    break;
                }
                // A block-bodied arm may omit the trailing comma; the
                // body's close brace then starts the next arm directly.
                if brace == 1 && !in_pattern {
                    arm_start = i + 1;
                    in_pattern = true;
                }
            }
            "(" | "[" => other += 1,
            ")" | "]" => other -= 1,
            "=>" if brace == 1 && other == 0 && in_pattern => {
                for b in pattern_binders(code, arm_start..i) {
                    changed |= grow_var(&mut st.vars, &b, lbl);
                }
                in_pattern = false;
            }
            "," if brace == 1 && other == 0 && !in_pattern => {
                arm_start = i + 1;
                in_pattern = true;
            }
            _ => {}
        }
        i += 1;
    }
    changed
}

/// The token range of an expression starting at `from` up to the `;`
/// that ends the statement (bracket-depth aware).
fn rhs_range(code: &[Token<'_>], from: usize) -> Range<usize> {
    let mut depth = 0i32;
    let mut j = from;
    while j < code.len() {
        let t = &code[j];
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ";" if depth <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    from..j
}

/// Labels carried by a token range. `carrier_direct`: a bare mention of
/// a carrier (no method call) counts as SOURCE — used for `for x in
/// &map` headers and sink arguments, where the container itself escapes.
fn range_labels(
    spec: &TaintSpec,
    f: &FileCtx<'_>,
    st: &FnState,
    carrier_fields: &BTreeSet<String>,
    range: Range<usize>,
    carrier_direct: bool,
) -> u64 {
    let code = f.code;
    let mut lbl = 0u64;
    let mut i = range.start;
    while i < range.end.min(code.len()) {
        let t = &code[i];
        // Implicit format captures (`"… {p:?} …"`) reference variables
        // from inside the string literal.
        if matches!(t.kind, TokenKind::Str | TokenKind::RawStr) {
            for name in format_captures(t.text) {
                if st.carriers.contains(&name) || carrier_fields.contains(&name) {
                    if carrier_direct {
                        lbl |= SOURCE;
                    }
                } else if let Some(&mask) = st.vars.get(&name) {
                    lbl |= mask;
                }
            }
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let next_is_call = code.get(i + 1).is_some_and(|n| n.is_punct("(") || n.is_punct("!"));
        let prev = i.checked_sub(1).map(|p| &code[p]);
        let after_dot = prev.is_some_and(|p| p.is_punct("."));
        let after_path = prev.is_some_and(|p| p.is_punct("::"));

        // Source calls: `Instant::now(` / bare `f(` forms.
        if next_is_call {
            let full = if after_path && i >= 2 && code[i - 2].kind == TokenKind::Ident {
                format!("{}::{}", code[i - 2].text, t.text)
            } else {
                String::new()
            };
            if spec.source_calls.iter().any(|s| *s == t.text || *s == full) {
                lbl |= SOURCE;
            }
            i += 1;
            continue;
        }
        // Value-source constructors: `Point::new(…)` / `Point { … }`.
        if !after_dot
            && !after_path
            && spec.value_sources.iter().any(|s| s == t.text)
            && code.get(i + 1).is_some_and(|n| n.is_punct("::") || n.is_punct("{"))
        {
            lbl |= SOURCE;
            i += 1;
            continue;
        }
        if after_path {
            i += 1;
            continue;
        }
        // Carrier occurrences: `map.iter()` / `self.cache.keys()` / bare.
        let is_carrier_var = !after_dot && st.carriers.contains(t.text);
        let is_carrier_field = after_dot && carrier_fields.contains(t.text);
        if is_carrier_var || is_carrier_field {
            let ordered = code.get(i + 1).is_some_and(|n| n.is_punct("."))
                && code.get(i + 2).is_some_and(|m| {
                    m.kind == TokenKind::Ident && spec.order_methods.iter().any(|o| o == m.text)
                })
                && code.get(i + 3).is_some_and(|n| n.is_punct("("));
            if ordered || carrier_direct {
                lbl |= SOURCE;
            }
            i += 1;
            continue;
        }
        if after_dot {
            i += 1;
            continue;
        }
        // Plain variable occurrence.
        if let Some(&mask) = st.vars.get(t.text) {
            if mask != 0 {
                // Method laundering for value taint: `db.len()` is clean
                // unless the method is on the keep-list.
                let launder = !spec.taint_methods.is_empty()
                    && code.get(i + 1).is_some_and(|n| n.is_punct("."))
                    && code.get(i + 2).is_some_and(|m| m.kind == TokenKind::Ident)
                    && code.get(i + 3).is_some_and(|n| n.is_punct("("))
                    && !spec.taint_methods.iter().any(|m| code[i + 2].is_ident(m));
                if !launder {
                    lbl |= mask;
                }
            }
        }
        i += 1;
    }
    lbl
}

/// Identifier names captured implicitly by a format string literal
/// (`"user {id} at {p:?}"` → `["id", "p"]`). Positional (`{}`/`{0}`)
/// and escaped (`{{`) braces are skipped.
fn format_captures(literal: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = literal.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2; // escaped `{{`
            continue;
        }
        let mut j = i + 1;
        while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
            j += 1;
        }
        let name = &literal[i + 1..j];
        if !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            out.push(name.to_string());
        }
        i = j + 1;
    }
    out
}

/// Whether a token range contains a sanitizer call or sanitizer type.
fn range_sanitized(spec: &TaintSpec, f: &FileCtx<'_>, range: Range<usize>) -> bool {
    let code = f.code;
    for i in range.start..range.end.min(code.len()) {
        let t = &code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if spec.sanitizer_types.iter().any(|s| s == t.text) {
            return true;
        }
        if code.get(i + 1).is_some_and(|n| n.is_punct("(") || n.is_punct("::"))
            && spec.sanitizer_calls.iter().any(|s| s == t.text)
        {
            return true;
        }
    }
    false
}

/// The argument token range of a call whose callee name sits at `tok`.
fn call_args(code: &[Token<'_>], tok: usize) -> Option<Range<usize>> {
    if !code.get(tok + 1).is_some_and(|t| t.is_punct("(")) {
        return None;
    }
    let mut depth = 0usize;
    let mut j = tok + 1;
    while j < code.len() {
        if code[j].is_punct("(") {
            depth += 1;
        } else if code[j].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(tok + 2..j);
            }
        }
        j += 1;
    }
    Some(tok + 2..code.len())
}

/// Splits an argument range at top-level commas.
fn split_args(code: &[Token<'_>], range: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = range.start;
    for i in range.clone() {
        match code[i].text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth <= 0 => {
                out.push(start..i);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < range.end {
        out.push(start..range.end);
    }
    out
}

fn callee_name(c: &CalleeRef) -> String {
    match c {
        CalleeRef::Bare(n) => n.clone(),
        CalleeRef::Path(p) => p.join("::"),
        CalleeRef::Method { name, .. } => name.clone(),
    }
}

/// Whether a call site is a configured sink. `Type::method` entries
/// require the receiver to resolve (by declared type or field spelling)
/// to that type.
fn is_sink_call(spec: &TaintSpec, st: &FnState, callee: &CalleeRef) -> bool {
    for entry in &spec.sink_calls {
        match entry.split_once("::") {
            None => {
                if callee_matches_name(callee, entry) {
                    return true;
                }
            }
            Some((ty, m)) => match callee {
                CalleeRef::Method { name, recv } if name == m => {
                    let recv_ok = match recv {
                        Some(r) => {
                            r.eq_ignore_ascii_case(ty)
                                || st.var_types.get(r.as_str()).is_some_and(|t| t == ty)
                        }
                        None => false,
                    };
                    if recv_ok {
                        return true;
                    }
                }
                CalleeRef::Path(p)
                    if p.len() >= 2 && p[p.len() - 2] == ty && p[p.len() - 1] == m =>
                {
                    return true;
                }
                _ => {}
            },
        }
    }
    false
}

fn callee_matches_name(callee: &CalleeRef, name: &str) -> bool {
    match callee {
        CalleeRef::Bare(n) => n == name,
        CalleeRef::Path(p) => p.last().is_some_and(|l| l == name),
        CalleeRef::Method { name: m, .. } => m == name,
    }
}

/// Which parameter bits a label mask names.
fn param_bits(mask: u64) -> Vec<u32> {
    (1..63).filter(|b| mask & (1u64 << b) != 0).collect()
}

/// Interprocedural step: labels flowing into callee sink-params.
/// Returns new (param-bit, exemplar) pairs for this caller.
fn propagate_calls(
    spec: &TaintSpec,
    files: &[FileCtx<'_>],
    graph: &CallGraph,
    gid: usize,
    states: &BTreeMap<usize, FnState>,
    carrier_fields: &BTreeSet<String>,
) -> Vec<(u32, Vec<String>)> {
    let mut out = Vec::new();
    let node = &graph.nodes[gid];
    let f = &files[node.file];
    let Some(st) = states.get(&gid) else { return out };
    let caller_q = f.parsed.fns[node.item].display_name();
    for edge in &graph.edges[gid] {
        let Some(callee_st) = states.get(&edge.to) else { continue };
        if callee_st.sink_params == 0 {
            continue;
        }
        let Some(args) = call_args(f.code, edge.tok) else { continue };
        let callee_node = &graph.nodes[edge.to];
        let callee_item = &files[callee_node.file].parsed.fns[callee_node.item];
        let has_self =
            callee_item.params.first().is_some_and(|p| p.name.as_deref() == Some("self"));
        let arg_ranges = split_args(f.code, args);
        for (ai, ar) in arg_ranges.iter().enumerate() {
            // Method calls bind the receiver to param 0 (`self`).
            let param_idx = if has_self { ai + 1 } else { ai };
            if param_idx >= 62 || callee_st.sink_params & (1 << (param_idx as u32 + 1)) == 0 {
                continue;
            }
            if range_sanitized(spec, f, ar.clone()) {
                continue;
            }
            let lbl = range_labels(spec, f, st, carrier_fields, ar.clone(), true);
            let chain_tail =
                callee_st.exemplars.get(&(param_idx as u32 + 1)).cloned().unwrap_or_default();
            let hop = format!(
                "`{caller_q}` passes a tainted argument to `{}` ({}:{})",
                callee_item.display_name(),
                f.rel,
                edge.line
            );
            for bit in param_bits(lbl) {
                let mut chain = vec![hop.clone()];
                chain.extend(chain_tail.iter().cloned());
                if chain.len() <= 12 {
                    out.push((bit, chain));
                }
            }
        }
    }
    out
}

/// Final reporting sweep for one function.
#[expect(
    clippy::too_many_arguments,
    reason = "the reporting sweep reads the whole pass state; a struct used only by this call would add indirection, not clarity"
)]
fn findings(
    spec: &TaintSpec,
    files: &[FileCtx<'_>],
    graph: &CallGraph,
    gid: usize,
    states: &BTreeMap<usize, FnState>,
    carrier_fields: &BTreeSet<String>,
    sanctioned: &dyn Fn(usize, u32) -> bool,
    out: &mut Vec<Violation>,
) {
    let node = &graph.nodes[gid];
    let f = &files[node.file];
    let Some(st) = states.get(&gid) else { return };
    let severity = registry::find(&spec.lint).map_or(Severity::Error, |l| l.severity);
    let mut push = |line: u32, col: u32, message: String, trace: Vec<String>| {
        out.push(Violation {
            lint: spec.lint.clone(),
            severity: severity.name().to_string(),
            path: f.rel.to_string(),
            line,
            col,
            message,
            trace,
        });
    };

    // Direct sinks fed by SOURCE data.
    let calls = callgraph::extract_calls(f.code, f.parsed, node.item);
    for call in &calls {
        let Some(args) = call_args(f.code, call.tok) else { continue };
        if !is_sink_call(spec, st, &call.callee) {
            continue;
        }
        if range_sanitized(spec, f, args.clone()) {
            continue;
        }
        let lbl = range_labels(spec, f, st, carrier_fields, args, true);
        if lbl & SOURCE != 0 {
            push(
                call.line,
                call.col,
                format!(
                    "tainted value reaches sink `{}`; route it through a sanitizer \
                     or suppress with a reason",
                    callee_name(&call.callee)
                ),
                Vec::new(),
            );
        } else if lbl != 0 && sanctioned(node.file, call.line) {
            // Parameter taint reaches a pragma-sanctioned sink. The
            // pragma is what keeps every caller of this function clean,
            // so it must register as used: emit the finding it
            // suppresses.
            push(
                call.line,
                call.col,
                format!(
                    "parameter-tainted value reaches sanctioned sink `{}`",
                    callee_name(&call.callee)
                ),
                Vec::new(),
            );
        }
    }
    let macros = callgraph::extract_macros(f.code, f.parsed, node.item);
    for m in &macros {
        if !spec.sink_macros.contains(&m.name) {
            continue;
        }
        if range_sanitized(spec, f, m.args.clone()) {
            continue;
        }
        let lbl = range_labels(spec, f, st, carrier_fields, m.args.clone(), true);
        if lbl & SOURCE != 0 {
            push(
                m.line,
                m.col,
                format!(
                    "tainted value reaches sink macro `{}!`; sanitize it first \
                     or suppress with a reason",
                    m.name
                ),
                Vec::new(),
            );
        } else if lbl != 0 && sanctioned(node.file, m.line) {
            // See the sink-call case: the pragma sanctioning this sink
            // is load-bearing for every caller and must count as used.
            push(
                m.line,
                m.col,
                format!("parameter-tainted value reaches sanctioned sink macro `{}!`", m.name),
                Vec::new(),
            );
        }
    }

    // Calls whose argument feeds a callee parameter that reaches a sink.
    for edge in &graph.edges[gid] {
        let Some(callee_st) = states.get(&edge.to) else { continue };
        if callee_st.sink_params == 0 {
            continue;
        }
        let Some(args) = call_args(f.code, edge.tok) else { continue };
        let callee_node = &graph.nodes[edge.to];
        let callee_item = &files[callee_node.file].parsed.fns[callee_node.item];
        let has_self =
            callee_item.params.first().is_some_and(|p| p.name.as_deref() == Some("self"));
        for (ai, ar) in split_args(f.code, args).iter().enumerate() {
            let param_idx = if has_self { ai + 1 } else { ai };
            if param_idx >= 62 || callee_st.sink_params & (1 << (param_idx as u32 + 1)) == 0 {
                continue;
            }
            if range_sanitized(spec, f, ar.clone()) {
                continue;
            }
            let lbl = range_labels(spec, f, st, carrier_fields, ar.clone(), true);
            if lbl & SOURCE != 0 {
                let trace =
                    callee_st.exemplars.get(&(param_idx as u32 + 1)).cloned().unwrap_or_default();
                push(
                    edge.line,
                    edge.col,
                    format!(
                        "tainted argument flows into `{}`, whose parameter reaches a \
                         sink (see trace); sanitize before the call or suppress with \
                         a reason",
                        callee_item.display_name()
                    ),
                    trace,
                );
            }
        }
    }
}
