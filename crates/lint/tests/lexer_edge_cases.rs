//! Scanner edge cases: the lexer must classify every construct that could
//! otherwise make a rule misfire (strings that *mention* forbidden calls,
//! comments, lifetimes that look like chars, …).

use lbs_lint::lexer::{tokenize, TokenKind};

/// Kinds only, comments included.
fn kinds(src: &str) -> Vec<TokenKind> {
    tokenize(src).iter().map(|t| t.kind).collect()
}

/// `(kind, text)` pairs for compact assertions.
fn spell(src: &str) -> Vec<(TokenKind, String)> {
    tokenize(src).iter().map(|t| (t.kind, t.text.to_string())).collect()
}

#[test]
fn raw_strings_are_opaque() {
    // A raw string containing `.unwrap()` and a fake pragma must stay one
    // token: rules and pragma parsing never look inside string literals.
    let src =
        r###"let s = r#"x.unwrap() // lbs-lint: allow(no-wall-clock-in-dp, reason = "fake")"#;"###;
    let toks = tokenize(src);
    let raws: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::RawStr).collect();
    assert_eq!(raws.len(), 1);
    assert!(raws[0].text.contains("unwrap"));
    assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
    assert!(!toks.iter().any(|t| t.kind == TokenKind::LineComment));
}

#[test]
fn raw_strings_with_many_hashes_terminate_at_matching_fence() {
    let src = "r##\"inner \"# still inside\"## + r\"plain\"";
    let toks = tokenize(src);
    let raws: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::RawStr).collect();
    assert_eq!(raws.len(), 2);
    assert!(raws[0].text.contains("still inside"));
    assert_eq!(raws[1].text, "r\"plain\"");
}

#[test]
fn nested_block_comments_close_correctly() {
    let src = "/* outer /* inner */ still comment */ code";
    let toks = tokenize(src);
    assert_eq!(toks[0].kind, TokenKind::BlockComment);
    assert!(toks[0].text.ends_with("still comment */"));
    assert!(toks.iter().any(|t| t.is_ident("code")));
}

#[test]
fn block_comments_hide_forbidden_calls() {
    let src = "/* x.unwrap() */ let y = 1;";
    let toks = tokenize(src);
    assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
}

#[test]
fn lifetimes_are_not_char_literals() {
    let pairs = spell("fn f<'a>(x: &'a str) -> &'static str { x }");
    let lifetimes: Vec<_> =
        pairs.iter().filter(|(k, _)| *k == TokenKind::Lifetime).map(|(_, t)| t.clone()).collect();
    assert_eq!(lifetimes, ["'a", "'a", "'static"]);
    assert!(!pairs.iter().any(|(k, _)| *k == TokenKind::Char));
}

#[test]
fn char_literals_including_escapes_and_quotes() {
    let toks = tokenize(r"let c = 'x'; let q = '\''; let n = '\n'; let u = '\u{1F600}';");
    let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Char).collect();
    assert_eq!(chars.len(), 4);
    assert_eq!(chars[1].text, r"'\''");
}

#[test]
fn string_escapes_do_not_end_the_literal_early() {
    let toks = tokenize(r#"let s = "with \" escaped quote"; done"#);
    let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert!(strs[0].text.contains("escaped quote"));
    assert!(toks.iter().any(|t| t.is_ident("done")));
}

#[test]
fn byte_strings_and_byte_chars() {
    let toks = tokenize(r##"let b = b"bytes"; let rb = br#"raw bytes"#; let c = b'q';"##);
    assert!(toks.iter().any(|t| t.kind == TokenKind::ByteStr && t.text == "b\"bytes\""));
    assert!(toks.iter().any(|t| t.kind == TokenKind::RawStr && t.text.contains("raw bytes")));
    assert!(toks.iter().any(|t| t.kind == TokenKind::Char && t.text == "b'q'"));
}

#[test]
fn numbers_versus_method_calls_and_ranges() {
    // `1.0` and `2e3` are single tokens, but `1.max(2)` is a Number followed
    // by a method call, and `0..10` is two Numbers and a range.
    let pairs =
        spell("let a = 1.0; let b = 1.max(2); let r = 0..10; let e = 2e3; let h = 0xFF_u32;");
    let numbers: Vec<_> =
        pairs.iter().filter(|(k, _)| *k == TokenKind::Number).map(|(_, t)| t.clone()).collect();
    assert_eq!(numbers, ["1.0", "1", "2", "0", "10", "2e3", "0xFF_u32"]);
    assert!(pairs.contains(&(TokenKind::Ident, "max".to_string())));
    assert!(pairs.contains(&(TokenKind::Punct, "..".to_string())));
}

#[test]
fn multi_char_operators_stay_single_tokens() {
    let pairs = spell("a == b != c; x :: y; p -> q; r => s; t .. u; v ..= w; n <<= 1;");
    for op in ["==", "!=", "::", "->", "=>", "..", "..=", "<<="] {
        assert!(
            pairs.contains(&(TokenKind::Punct, op.to_string())),
            "missing operator token {op:?}"
        );
    }
}

#[test]
fn line_and_col_are_one_based_and_accurate() {
    let src = "let a = 1;\n  foo.unwrap();\n";
    let toks = tokenize(src);
    let unwrap = toks.iter().find(|t| t.is_ident("unwrap")).unwrap();
    assert_eq!((unwrap.line, unwrap.col), (2, 7));
}

#[test]
fn multiline_tokens_advance_line_tracking() {
    let src = "let s = \"a\nb\nc\";\nnext";
    let toks = tokenize(src);
    let next = toks.iter().find(|t| t.is_ident("next")).unwrap();
    assert_eq!(next.line, 4);
}

#[test]
fn doc_and_plain_comments_are_distinguished_by_text() {
    let toks = tokenize("/// doc\n//! inner\n// plain\nfn f() {}");
    let comments: Vec<_> =
        toks.iter().filter(|t| t.kind == TokenKind::LineComment).map(|t| t.text).collect();
    assert_eq!(comments, ["/// doc", "//! inner", "// plain"]);
}

#[test]
fn raw_identifiers_lex_as_idents() {
    let toks = tokenize("let r#match = 1; r#match");
    assert!(toks.iter().filter(|t| t.kind == TokenKind::Ident).count() >= 2);
}

#[test]
fn lexing_never_panics_on_garbage() {
    for src in ["\"unterminated", "r#\"open", "/* open", "'", "b'", "\u{0}\u{1}", "🦀🦀"] {
        let _ = tokenize(src); // must not panic
    }
    assert!(kinds("").is_empty());
}
