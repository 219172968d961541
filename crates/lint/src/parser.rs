//! A lightweight item parser over the lexer's token stream.
//!
//! The deep (interprocedural) passes need to know *which function* a
//! token belongs to and *what that function is called* — properties a
//! flat token scan cannot see. With no `syn` in the tree (vendor/ is
//! shims only), this module recovers just enough structure from the
//! [`crate::lexer`] stream:
//!
//! * `mod name { … }` nesting (for module paths);
//! * `impl Type { … }` / `impl Trait for Type { … }` / `trait Name { … }`
//!   blocks (for method self-types and trait-impl detection);
//! * `fn` items: name, parameter names/types, return-type tokens, and the
//!   exact token range of the body — including nested functions, which
//!   own their tokens in preference to the enclosing item;
//! * `macro_rules!` bodies are skipped wholesale (token soup).
//!
//! The parser is *total*: any token stream — including arbitrary bytes
//! run through the lexer — produces a `ParsedFile` without panicking.
//! Guarantees it does **not** make: no type checking, no trait
//! resolution, no expansion of macros. Known blind spots are documented
//! in DESIGN.md §12.

use crate::lexer::{Token, TokenKind};
use crate::rules;
use std::ops::Range;

/// One parsed parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`None` for tuple/struct patterns).
    pub name: Option<String>,
    /// Token texts of the declared type (empty for bare `self`).
    pub ty: Vec<String>,
}

/// One `fn` item with its location in the code-token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Self type when declared inside `impl Type` / `trait Type`.
    pub self_ty: Option<String>,
    /// Trait name when declared inside `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// Enclosing `mod` path within the file (innermost last).
    pub module: Vec<String>,
    /// Parsed parameters, in order.
    pub params: Vec<Param>,
    /// Token texts of the return type (empty when omitted).
    pub ret: Vec<String>,
    /// Code-token range of the whole item (from `fn` through its body).
    pub span: Range<usize>,
    /// Code-token range of the body including braces; `None` for
    /// body-less trait/extern declarations.
    pub body: Option<Range<usize>>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Whether the item sits in `#[cfg(test)]`-gated or `#[test]` code.
    pub in_test: bool,
}

impl FnItem {
    /// Display name: `SelfTy::name` for methods, `mod::name` otherwise.
    pub fn display_name(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => match self.module.last() {
                Some(m) => format!("{m}::{}", self.name),
                None => self.name.clone(),
            },
        }
    }
}

/// Result of parsing one file's code-token stream.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in header order (outer before nested).
    pub fns: Vec<FnItem>,
    /// For each code-token index, the innermost owning fn (index into
    /// `fns`), or `None` for item-level tokens outside any fn.
    pub owner: Vec<Option<usize>>,
}

impl ParsedFile {
    /// Iterator over the token indices owned by `fn_idx` itself (its
    /// span minus any nested fn's span).
    pub fn owned_tokens(&self, fn_idx: usize) -> impl Iterator<Item = usize> + '_ {
        let span = self.fns[fn_idx].span.clone();
        span.filter(move |&i| self.owner.get(i).copied().flatten() == Some(fn_idx))
    }
}

/// Rust keywords that can precede `(` without being calls.
pub const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "ref", "else", "let",
    "fn", "unsafe", "await", "box", "dyn", "where", "impl", "yield", "mut",
];

/// What a `{` opened, for the scope stack.
enum ScopeKind {
    Mod,
    Impl,
    Fn(usize),
    Other,
}

/// Impl/trait context active while parsing.
#[derive(Clone, Default)]
struct ImplCtx {
    self_ty: Option<String>,
    trait_impl: Option<String>,
}

/// Parses the non-comment token stream of one file.
///
/// Never panics and always terminates: each loop iteration either
/// consumes at least one token or runs a helper that does.
pub fn parse_items(code: &[Token<'_>]) -> ParsedFile {
    let test_regions = rules::test_regions(code);
    let mut fns: Vec<FnItem> = Vec::new();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut mod_stack: Vec<String> = Vec::new();
    let mut impl_stack: Vec<ImplCtx> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        // `macro_rules! name { … }`: opaque token soup, skip wholesale.
        if t.is_ident("macro_rules") && code.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            i = skip_balanced_braces(code, i + 2);
            continue;
        }
        // `mod name { … }` / `mod name;`
        if t.is_ident("mod")
            && code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            && code.get(i + 2).is_some_and(|n| n.is_punct("{") || n.is_punct(";"))
        {
            if code[i + 2].is_punct("{") {
                mod_stack.push(code[i + 1].text.to_string());
                scopes.push(ScopeKind::Mod);
            }
            i += 3;
            continue;
        }
        // `impl … {` / `trait Name {`
        if t.is_ident("impl") || (t.is_ident("trait") && is_ident_at(code, i + 1)) {
            let (ctx, after) = parse_impl_header(code, i);
            match code.get(after) {
                Some(open) if open.is_punct("{") => {
                    impl_stack.push(ctx);
                    scopes.push(ScopeKind::Impl);
                    i = after + 1;
                }
                _ => i = after.max(i + 1),
            }
            continue;
        }
        // `fn name…`
        if t.is_ident("fn") && is_ident_at(code, i + 1) {
            let in_test = test_regions.iter().any(|&(s, e)| (s..=e).contains(&t.line))
                || has_test_attribute(code, i);
            let (mut item, body_open) = parse_fn_header(code, i);
            item.module = mod_stack.clone();
            if let Some(ctx) = impl_stack.last() {
                item.self_ty = ctx.self_ty.clone();
                item.trait_impl = ctx.trait_impl.clone();
            }
            item.in_test = in_test;
            match body_open {
                // Body-less declaration (`fn f();` in a trait/extern).
                None => {
                    let end = item.span.end;
                    fns.push(item);
                    i = end;
                }
                Some(open) => {
                    item.body = Some(open..open + 1); // end patched at pop
                    let idx = fns.len();
                    fns.push(item);
                    scopes.push(ScopeKind::Fn(idx));
                    i = open + 1;
                }
            }
            continue;
        }
        if t.is_punct("{") {
            scopes.push(ScopeKind::Other);
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            match scopes.pop() {
                Some(ScopeKind::Mod) => {
                    mod_stack.pop();
                }
                Some(ScopeKind::Impl) => {
                    impl_stack.pop();
                }
                Some(ScopeKind::Fn(idx)) => {
                    if let Some(f) = fns.get_mut(idx) {
                        if let Some(b) = &mut f.body {
                            b.end = i + 1;
                        }
                        f.span.end = i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    // Unterminated constructs: close any dangling fn bodies at EOF.
    for kind in scopes {
        if let ScopeKind::Fn(idx) = kind {
            if let Some(f) = fns.get_mut(idx) {
                if let Some(b) = &mut f.body {
                    b.end = code.len();
                }
                f.span.end = code.len();
            }
        }
    }
    // Ownership: fill in header order so nested fns overwrite their
    // enclosing item's claim on the shared range.
    let mut owner = vec![None; code.len()];
    for (idx, f) in fns.iter().enumerate() {
        for slot in owner.iter_mut().take(f.span.end).skip(f.span.start) {
            *slot = Some(idx);
        }
    }
    ParsedFile { fns, owner }
}

fn is_ident_at(code: &[Token<'_>], i: usize) -> bool {
    code.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
}

/// Whether the attributes directly above the item at `i` include
/// `#[test]` (walking back over contiguous `#[…]` groups).
fn has_test_attribute(code: &[Token<'_>], at: usize) -> bool {
    // Walk backward over `]`-terminated attribute groups and modifier
    // keywords (`pub`, `const`, `async`, …).
    let mut j = at;
    while j > 0 {
        let prev = &code[j - 1];
        if prev.kind == TokenKind::Ident
            && matches!(prev.text, "pub" | "const" | "async" | "unsafe" | "extern" | "crate")
        {
            j -= 1;
            continue;
        }
        if prev.is_punct(")") {
            // `pub(crate)` — walk back over the paren group.
            let mut depth = 0usize;
            while j > 0 {
                j -= 1;
                if code[j].is_punct(")") {
                    depth += 1;
                } else if code[j].is_punct("(") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            continue;
        }
        if prev.is_punct("]") {
            // Walk back to the matching `#[`.
            let mut depth = 0usize;
            let mut k = j;
            while k > 0 {
                k -= 1;
                if code[k].is_punct("]") {
                    depth += 1;
                } else if code[k].is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            let hash = k.checked_sub(1);
            let is_attr = hash.is_some_and(|h| code[h].is_punct("#"));
            if !is_attr {
                return false;
            }
            if code[k..j].iter().any(|t| t.is_ident("test")) {
                return true;
            }
            j = hash.unwrap_or(0);
            continue;
        }
        return false;
    }
    false
}

/// Skips a balanced `{ … }` group starting at or after `from`; returns
/// the index one past the closing brace (or `code.len()`).
fn skip_balanced_braces(code: &[Token<'_>], from: usize) -> usize {
    let mut j = from;
    // Find the opening brace (macro_rules can also use `(` or `[`).
    while j < code.len() {
        let t = &code[j];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            break;
        }
        if t.is_punct(";") {
            return j + 1;
        }
        j += 1;
    }
    let (open, close) = match code.get(j).map(|t| t.text) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut depth = 0usize;
    while j < code.len() {
        if code[j].is_punct(open) {
            depth += 1;
        } else if code[j].is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    code.len()
}

/// Net angle-bracket depth change contributed by one token.
fn angle_delta(t: &Token<'_>) -> i32 {
    match t.text {
        "<" => 1,
        ">" => -1,
        "<<" => 2,
        ">>" => -2,
        _ => 0,
    }
}

/// Skips a balanced generic argument list starting at a `<`; returns the
/// index one past the closing `>`.
fn skip_generics(code: &[Token<'_>], from: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < code.len() {
        let t = &code[j];
        // `->` inside `Fn() -> T` bounds contributes no depth.
        if t.kind == TokenKind::Punct && t.text != "->" {
            depth += angle_delta(t);
            if depth <= 0 && angle_delta(t) < 0 {
                return j + 1;
            }
            // Safety valve: a `;`/`{` at depth 0 means we mis-detected.
            if (t.is_punct(";") || t.is_punct("{")) && depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len()
}

/// Parses an `impl`/`trait` header starting at its keyword; returns the
/// context and the index of the opening `{` (or wherever scanning gave
/// up — the caller checks).
fn parse_impl_header(code: &[Token<'_>], at: usize) -> (ImplCtx, usize) {
    let is_trait = code[at].is_ident("trait");
    let mut j = at + 1;
    if code.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_generics(code, j);
    }
    let (first_ty, mut j) = read_type_path(code, j);
    let mut ctx = ImplCtx { self_ty: first_ty.clone(), trait_impl: None };
    if !is_trait && code.get(j).is_some_and(|t| t.is_ident("for")) {
        let (second_ty, after) = read_type_path(code, j + 1);
        ctx = ImplCtx { self_ty: second_ty, trait_impl: first_ty };
        j = after;
    }
    // Skip bounds / where clauses up to the opening brace.
    let mut depth = 0i32;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct("{") && depth <= 0 {
            return (ctx, j);
        }
        if t.is_punct(";") && depth <= 0 {
            return (ctx, j);
        }
        depth += angle_delta(t);
        j += 1;
    }
    (ctx, j)
}

/// Reads one type path (`&mut a::b::Foo<T>`), returning the last path
/// segment's identifier and the index one past the type.
fn read_type_path(code: &[Token<'_>], from: usize) -> (Option<String>, usize) {
    let mut j = from;
    // Leading sigils: `&`, `&&`, `mut`, `dyn`, `!`, `?`, lifetimes, parens
    // for `&(dyn Trait)`-style are rare enough to give up on.
    while j < code.len() {
        let t = &code[j];
        if t.is_punct("&")
            || t.is_punct("&&")
            || t.is_punct("!")
            || t.is_punct("?")
            || t.is_punct("*")
            || t.kind == TokenKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn")
            || t.is_ident("const")
        {
            j += 1;
        } else {
            break;
        }
    }
    let mut last: Option<String> = None;
    while j < code.len() {
        let t = &code[j];
        if t.kind == TokenKind::Ident {
            last = Some(t.text.to_string());
            j += 1;
            if code.get(j).is_some_and(|n| n.is_punct("<")) {
                j = skip_generics(code, j);
            }
            if code.get(j).is_some_and(|n| n.is_punct("::")) {
                j += 1;
                continue;
            }
        }
        break;
    }
    (last, j)
}

/// Parses a `fn` header starting at the `fn` keyword. Returns the item
/// (span covering the header; body/end patched by the caller) and the
/// index of the opening `{`, or `None` for body-less declarations.
fn parse_fn_header(code: &[Token<'_>], at: usize) -> (FnItem, Option<usize>) {
    let kw = &code[at];
    let name = code[at + 1].text.to_string();
    let mut j = at + 2;
    if code.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_generics(code, j);
    }
    // Parameter list.
    let mut params = Vec::new();
    if code.get(j).is_some_and(|t| t.is_punct("(")) {
        let open = j;
        let mut depth = 0usize;
        while j < code.len() {
            if code[j].is_punct("(") {
                depth += 1;
            } else if code[j].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let close = j.min(code.len());
        params = parse_params(&code[(open + 1).min(close)..close]);
        j = close + 1;
    }
    // Return type.
    let mut ret = Vec::new();
    if code.get(j).is_some_and(|t| t.is_punct("->")) {
        j += 1;
        let mut depth = 0i32;
        while j < code.len() {
            let t = &code[j];
            if depth <= 0 && (t.is_punct("{") || t.is_punct(";") || t.is_ident("where")) {
                break;
            }
            match t.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => depth += angle_delta(t),
            }
            ret.push(t.text.to_string());
            j += 1;
        }
    }
    // Where clause.
    if code.get(j).is_some_and(|t| t.is_ident("where")) {
        let mut depth = 0i32;
        while j < code.len() {
            let t = &code[j];
            if depth <= 0 && (t.is_punct("{") || t.is_punct(";")) {
                break;
            }
            match t.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => depth += angle_delta(t),
            }
            j += 1;
        }
    }
    let item = FnItem {
        name,
        self_ty: None,
        trait_impl: None,
        module: Vec::new(),
        params,
        ret,
        span: at..j + 1,
        body: None,
        line: kw.line,
        col: kw.col,
        in_test: false,
    };
    match code.get(j) {
        Some(t) if t.is_punct("{") => (item, Some(j)),
        _ => {
            let mut item = item;
            item.span.end = (j + 1).min(code.len().max(at + 1));
            (item, None)
        }
    }
}

/// Splits a parameter token slice at top-level commas and parses each
/// `pattern: Type` group.
fn parse_params(toks: &[Token<'_>]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut split_points = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth <= 0 => split_points.push(i),
            _ => depth += angle_delta(t),
        }
    }
    split_points.push(toks.len());
    for end in split_points {
        if start < end {
            if let Some(p) = parse_one_param(&toks[start..end]) {
                params.push(p);
            }
        }
        start = end + 1;
    }
    params
}

fn parse_one_param(group: &[Token<'_>]) -> Option<Param> {
    // Strip leading `&`, lifetimes, `mut`.
    let mut k = 0usize;
    while k < group.len() {
        let t = &group[k];
        if t.is_punct("&") || t.is_punct("&&") || t.kind == TokenKind::Lifetime || t.is_ident("mut")
        {
            k += 1;
        } else {
            break;
        }
    }
    let rest = &group[k..];
    if rest.is_empty() {
        return None;
    }
    if rest[0].is_ident("self") {
        return Some(Param { name: Some("self".to_string()), ty: Vec::new() });
    }
    // Find the `:` separating pattern from type (depth 0; `::` is one
    // token so it never confuses this).
    let mut depth = 0i32;
    let mut colon = None;
    for (i, t) in rest.iter().enumerate() {
        match t.text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ":" if depth <= 0 => {
                colon = Some(i);
                break;
            }
            _ => depth += angle_delta(t),
        }
    }
    let Some(colon) = colon else {
        // `_` or a bare pattern in a closure-like position.
        return Some(Param { name: None, ty: Vec::new() });
    };
    let name = match rest[..colon] {
        [ref single] if single.kind == TokenKind::Ident => Some(single.text.to_string()),
        _ => None,
    };
    let ty = rest[colon + 1..].iter().map(|t| t.text.to_string()).collect();
    Some(Param { name, ty })
}
