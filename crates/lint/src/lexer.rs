//! A hand-rolled, comment/string/raw-string-aware Rust token scanner.
//!
//! `vendor/` deliberately carries no `syn`, so the lint pass cannot parse
//! Rust properly; instead it lexes source into a flat token stream that is
//! precise about the things lints care about:
//!
//! * string/char/byte literals are opaque — an ident spelled inside a
//!   string never matches a lint pattern;
//! * raw strings (`r"…"`, `r#"…"#`, any number of hashes) and raw byte
//!   strings are handled, including embedded quotes;
//! * block comments nest (`/* /* */ */`) as in real Rust;
//! * lifetimes (`'a`) are distinguished from char literals (`'a'`);
//! * a number lexes as one token, so `1.0` is not a `.` access and
//!   `1.max(2)` and `0..10` still split where Rust splits them;
//! * line comments are kept as tokens so suppression pragmas can be read
//!   back out of the stream.
//!
//! The lexer never fails: unterminated constructs are consumed to end of
//! file and surface as ordinary tokens, which keeps the lint runnable on
//! half-written code.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including `r#raw` identifiers).
    Ident,
    /// A lifetime such as `'a` or `'_` (not a char literal).
    Lifetime,
    /// Numeric literal: integer or float, any base, any suffix (`0xFF`,
    /// `1_000u64`, `1.0`, `1e3`, `2f64`, …).
    Number,
    /// String literal `"…"` (escapes included verbatim).
    Str,
    /// Raw string literal `r"…"` / `r#"…"#` (any hash depth), including
    /// raw byte strings.
    RawStr,
    /// Byte string literal `b"…"`.
    ByteStr,
    /// Char or byte-char literal (`'a'`, `'\n'`, `b'x'`).
    Char,
    /// Line comment (`//`, `///`, `//!`), text includes the slashes.
    LineComment,
    /// Block comment (`/* … */`), possibly nested.
    BlockComment,
    /// Punctuation / operator (multi-char operators kept whole: `::`,
    /// `==`, `!=`, `->`, …).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What the token is.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the token's first byte.
    pub col: u32,
}

impl Token<'_> {
    /// Whether this token is a comment (line or block).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }
}

/// Multi-character operators recognized as single tokens, longest first.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, maintaining line/col. Multi-byte UTF-8
    /// continuation bytes do not advance the column (close enough for
    /// diagnostics; this repo is ASCII).
    fn bump(&mut self) {
        if let Some(b) = self.peek(0) {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if b & 0xC0 != 0x80 {
                self.col += 1;
            }
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into a token stream (whitespace dropped, comments kept).
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    let mut c = Cursor { src, bytes: src.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut out = Vec::new();
    while let Some(b) = c.peek(0) {
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }
        let (start, line, col) = (c.pos, c.line, c.col);
        let kind = scan_one(&mut c, b);
        out.push(Token { kind, text: &src[start..c.pos], line, col });
    }
    out
}

/// Scans exactly one token starting at `b`; the cursor ends one past it.
fn scan_one(c: &mut Cursor<'_>, b: u8) -> TokenKind {
    match b {
        b'/' if c.peek(1) == Some(b'/') => {
            while let Some(n) = c.peek(0) {
                if n == b'\n' {
                    break;
                }
                c.bump();
            }
            TokenKind::LineComment
        }
        b'/' if c.peek(1) == Some(b'*') => {
            c.bump_n(2);
            let mut depth = 1usize;
            while depth > 0 {
                match (c.peek(0), c.peek(1)) {
                    (Some(b'/'), Some(b'*')) => {
                        depth += 1;
                        c.bump_n(2);
                    }
                    (Some(b'*'), Some(b'/')) => {
                        depth -= 1;
                        c.bump_n(2);
                    }
                    (Some(_), _) => c.bump(),
                    (None, _) => break,
                }
            }
            TokenKind::BlockComment
        }
        b'r' | b'b' if starts_raw_string(c) => scan_raw_string(c),
        b'b' if c.peek(1) == Some(b'"') => {
            c.bump();
            scan_string(c);
            TokenKind::ByteStr
        }
        b'b' if c.peek(1) == Some(b'\'') => {
            c.bump();
            scan_char(c);
            TokenKind::Char
        }
        b'r' if c.peek(1) == Some(b'#') && c.peek(2).is_some_and(is_ident_start) => {
            c.bump_n(2);
            while c.peek(0).is_some_and(is_ident_continue) {
                c.bump();
            }
            TokenKind::Ident
        }
        b'"' => {
            scan_string(c);
            TokenKind::Str
        }
        b'\'' => scan_char_or_lifetime(c),
        _ if is_ident_start(b) => {
            while c.peek(0).is_some_and(is_ident_continue) {
                c.bump();
            }
            TokenKind::Ident
        }
        _ if b.is_ascii_digit() => scan_number(c),
        _ => {
            let rest = &c.src[c.pos..];
            for op in MULTI_PUNCT {
                if rest.starts_with(op) {
                    c.bump_n(op.len());
                    return TokenKind::Punct;
                }
            }
            // Consume the whole UTF-8 sequence so token slices always cut
            // at char boundaries (stray non-ASCII lexes as one Punct).
            c.bump();
            while c.peek(0).is_some_and(|n| n & 0xC0 == 0x80) {
                c.bump();
            }
            TokenKind::Punct
        }
    }
}

/// Whether the cursor sits on `r"`, `r#…#"`, `br"`, or `br#…#"`.
fn starts_raw_string(c: &Cursor<'_>) -> bool {
    let mut i = 1; // past the leading r or b
    if c.peek(0) == Some(b'b') {
        if c.peek(1) != Some(b'r') {
            return false;
        }
        i = 2;
    }
    while c.peek(i) == Some(b'#') {
        i += 1;
    }
    c.peek(i) == Some(b'"')
}

fn scan_raw_string(c: &mut Cursor<'_>) -> TokenKind {
    if c.peek(0) == Some(b'b') {
        c.bump();
    }
    c.bump(); // r
    let mut hashes = 0usize;
    while c.peek(0) == Some(b'#') {
        hashes += 1;
        c.bump();
    }
    c.bump(); // opening quote
    loop {
        match c.peek(0) {
            None => break,
            Some(b'"') => {
                c.bump();
                let mut seen = 0usize;
                while seen < hashes && c.peek(0) == Some(b'#') {
                    seen += 1;
                    c.bump();
                }
                if seen == hashes {
                    break;
                }
            }
            Some(_) => c.bump(),
        }
    }
    TokenKind::RawStr
}

/// Consumes a `"…"` body starting at the opening quote.
fn scan_string(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    loop {
        match c.peek(0) {
            None => break,
            Some(b'\\') => c.bump_n(2),
            Some(b'"') => {
                c.bump();
                break;
            }
            Some(_) => c.bump(),
        }
    }
}

/// Consumes a `'…'` body starting at the opening quote.
fn scan_char(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    loop {
        match c.peek(0) {
            None => break,
            Some(b'\\') => c.bump_n(2),
            Some(b'\'') => {
                c.bump();
                break;
            }
            Some(_) => c.bump(),
        }
    }
}

/// Disambiguates `'a'` (char) from `'a` (lifetime) from `'\n'` (char).
fn scan_char_or_lifetime(c: &mut Cursor<'_>) -> TokenKind {
    match (c.peek(1), c.peek(2)) {
        // Escape sequence: definitely a char literal.
        (Some(b'\\'), _) => {
            scan_char(c);
            TokenKind::Char
        }
        // `'x'` — a one-character char literal (covers `'_'`).
        (Some(x), Some(b'\'')) if is_ident_continue(x) => {
            scan_char(c);
            TokenKind::Char
        }
        // `'ident` not closed by a quote — a lifetime.
        (Some(x), _) if is_ident_start(x) => {
            c.bump(); // quote
            while c.peek(0).is_some_and(is_ident_continue) {
                c.bump();
            }
            TokenKind::Lifetime
        }
        // Anything else (`'('`, `' '`, …) is a char literal.
        _ => {
            scan_char(c);
            TokenKind::Char
        }
    }
}

fn scan_number(c: &mut Cursor<'_>) -> TokenKind {
    while c.peek(0).is_some_and(|n| n.is_ascii_digit() || n == b'_') {
        c.bump();
    }
    // Fractional part: `1.0` is one token, `1.max(2)` is Number `.` Ident,
    // and range `1..2` is Number `..` Number.
    if c.peek(0) == Some(b'.') && c.peek(1) != Some(b'.') && !c.peek(1).is_some_and(is_ident_start)
    {
        c.bump();
        while c.peek(0).is_some_and(|n| n.is_ascii_digit() || n == b'_') {
            c.bump();
        }
    }
    // Exponent.
    if matches!(c.peek(0), Some(b'e') | Some(b'E')) {
        let sign = usize::from(matches!(c.peek(1), Some(b'+') | Some(b'-')));
        if c.peek(1 + sign).is_some_and(|n| n.is_ascii_digit()) {
            c.bump_n(1 + sign);
            while c.peek(0).is_some_and(|n| n.is_ascii_digit() || n == b'_') {
                c.bump();
            }
        }
    }
    // Suffix (`u64`, `f32`, …); also the body of a `0x`/`0o`/`0b` literal.
    while c.peek(0).is_some_and(is_ident_continue) {
        c.bump();
    }
    TokenKind::Number
}
