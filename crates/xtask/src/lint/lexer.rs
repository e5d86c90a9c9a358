//! A hand-rolled Rust lexer for the lint framework.
//!
//! Produces a flat token stream with **byte spans** into the original
//! source, which is what makes diagnostics span-accurate and lets rules
//! reason about real token adjacency instead of substring matches. It is
//! not a full Rust lexer — no token trees, no macro expansion — but it is
//! exact on everything the old line scanner got wrong:
//!
//! * line comments (`//`, `///`, `//!`),
//! * block comments (`/* */`), **including nesting** and comments that
//!   span lines or share a line with code,
//! * string literals with escapes, byte strings, and raw strings
//!   (`r"…"`, `r#"…"#`, any hash depth, `br#"…"#`),
//! * char literals (`'x'`, `'\n'`, `'\u{1F980}'`) vs. lifetimes (`'a`),
//! * numeric literals with type suffixes (`1_000u64`, `2.5f64`, `1e9`,
//!   `0xFF`), distinguishing float from integer tokens,
//! * shebang lines.
//!
//! Comments are kept in the stream (the `lint:allow` machinery needs
//! them); rules iterate over [`Lexed::code_tokens`] which filters them
//! out.

/// What a token is. Identifiers are not split into keywords — rules match
/// on text where it matters, and keeping one kind keeps the lexer honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#match`).
    Ident,
    /// `'a` in `&'a str` — lexed separately so it never opens a char literal.
    Lifetime,
    /// Integer literal, including base prefixes and integer suffixes.
    Int,
    /// Float literal: has a `.`, an exponent, or an `f32`/`f64` suffix.
    Float,
    /// String literal of any flavour: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// Char or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `// …` to end of line (plain and doc).
    LineComment,
    /// `/* … */`, nesting handled; spans multiple lines if it does.
    BlockComment,
    /// One punctuation byte (`.`, `:`, `{`, …). Multi-byte operators are
    /// consecutive `Punct` tokens; rules match the sequence.
    Punct,
}

/// One lexed token. `start..end` is a byte range into the source; `line`
/// is the 1-based line of `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

impl Token {
    /// The token's text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

/// The full token stream for one file.
#[derive(Debug)]
pub struct Lexed {
    pub tokens: Vec<Token>,
}

impl Lexed {
    /// Tokens that participate in code: everything except comments.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    }
}

/// Lex `src` into a token stream. Never fails: unterminated literals and
/// comments extend to end of input (the lint must degrade gracefully on
/// code that does not compile yet).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run(src)
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

impl<'s> Lexer<'s> {
    fn peek(&self, off: usize) -> u8 {
        *self.src.get(self.pos + off).unwrap_or(&0)
    }

    /// Advance one byte, keeping the line counter current.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        self.tokens.push(Token {
            kind,
            start,
            end: self.pos,
            line,
        });
    }

    fn run(mut self, src_str: &str) -> Lexed {
        // Shebang: `#!` on the very first line is not an inner attribute.
        if self.src.starts_with(b"#!") && self.peek(2) != b'[' {
            while self.pos < self.src.len() && self.peek(0) != b'\n' {
                self.bump();
            }
        }
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let b = self.peek(0);
            match b {
                b if b.is_ascii_whitespace() => self.bump(),
                b'/' if self.peek(1) == b'/' => {
                    while self.pos < self.src.len() && self.peek(0) != b'\n' {
                        self.bump();
                    }
                    self.push(TokenKind::LineComment, start, line);
                }
                b'/' if self.peek(1) == b'*' => {
                    self.bump_n(2);
                    let mut depth = 1u32;
                    while self.pos < self.src.len() && depth > 0 {
                        if self.peek(0) == b'/' && self.peek(1) == b'*' {
                            depth += 1;
                            self.bump_n(2);
                        } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                            depth -= 1;
                            self.bump_n(2);
                        } else {
                            self.bump();
                        }
                    }
                    self.push(TokenKind::BlockComment, start, line);
                }
                b'"' => {
                    self.bump();
                    self.plain_string_body();
                    self.push(TokenKind::Str, start, line);
                }
                b'r' | b'b' if self.raw_string_lookahead() => {
                    // r"…", r#"…"#, br"…", b"…", b'…' — all literal forms
                    // that begin with a letter prefix.
                    self.prefixed_literal(start, line);
                }
                b'\'' => self.quote(start, line),
                b if is_ident_start(b) => {
                    // r#ident raw identifiers: consume the r# then the name.
                    if (b == b'r' || b == b'b')
                        && self.peek(1) == b'#'
                        && is_ident_start(self.peek(2))
                    {
                        self.bump_n(2);
                    }
                    while is_ident_continue(self.peek(0)) {
                        self.bump();
                    }
                    self.push(TokenKind::Ident, start, line);
                }
                b if b.is_ascii_digit() => self.number(start, line),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, start, line);
                }
            }
        }
        debug_assert!(self
            .tokens
            .iter()
            .all(|t| src_str.is_char_boundary(t.start) && src_str.is_char_boundary(t.end)));
        Lexed {
            tokens: self.tokens,
        }
    }

    /// After an opening `"`, consume through the closing quote, honouring
    /// backslash escapes. Unterminated → end of input.
    fn plain_string_body(&mut self) {
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Is the `r`/`b` at the cursor the start of a string/char literal
    /// (as opposed to an identifier like `radius`)?
    fn raw_string_lookahead(&self) -> bool {
        let b0 = self.peek(0);
        let (mut i, allow_char) = match (b0, self.peek(1)) {
            (b'b', b'r') => (2, false), // br"…" / br#"…"#
            (b'b', _) => (1, true),     // b"…" / b'…'
            (b'r', _) => (1, false),    // r"…" / r#"…"# (r#ident handled later)
            _ => return false,
        };
        while self.peek(i) == b'#' {
            i += 1;
        }
        // `r#ident` is a raw identifier, not a raw string: only the quote
        // (or for `b`, a char quote) makes this a literal.
        self.peek(i) == b'"' || (allow_char && i == 1 && self.peek(1) == b'\'')
    }

    /// Literal beginning with `r`/`b`/`br` prefix, cursor on the prefix.
    fn prefixed_literal(&mut self, start: usize, line: u32) {
        let raw = match (self.peek(0), self.peek(1)) {
            (b'b', b'r') => {
                self.bump_n(2);
                true
            }
            (b'r', _) => {
                self.bump();
                true
            }
            (b'b', b'\'') => {
                // Byte char literal b'x'.
                self.bump();
                let s = self.pos;
                let l = self.line;
                self.quote(s, l);
                // quote() already pushed a Char token for `'x'`; widen it
                // to include the `b` prefix.
                if let Some(t) = self.tokens.last_mut() {
                    t.start = start;
                    t.line = line;
                }
                return;
            }
            _ => {
                self.bump(); // b"…"
                false
            }
        };
        if raw {
            let mut hashes = 0usize;
            while self.peek(0) == b'#' {
                hashes += 1;
                self.bump();
            }
            debug_assert_eq!(self.peek(0), b'"');
            self.bump(); // opening quote
                         // Scan for `"` followed by `hashes` hashes. No escapes in raw
                         // strings — that is their point.
            'scan: while self.pos < self.src.len() {
                if self.peek(0) == b'"' {
                    for h in 0..hashes {
                        if self.peek(1 + h) != b'#' {
                            self.bump();
                            continue 'scan;
                        }
                    }
                    self.bump_n(1 + hashes);
                    break;
                }
                self.bump();
            }
        } else {
            debug_assert_eq!(self.peek(0), b'"');
            self.bump();
            self.plain_string_body();
        }
        self.push(TokenKind::Str, start, line);
    }

    /// A `'`: char literal or lifetime. Cursor on the quote.
    fn quote(&mut self, start: usize, line: u32) {
        self.bump(); // the '
        if self.peek(0) == b'\\' {
            // Escaped char literal: '\n', '\'', '\u{…}'.
            self.bump_n(2);
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump();
            }
            self.bump(); // closing '
            self.push(TokenKind::Char, start, line);
            return;
        }
        if is_ident_start(self.peek(0)) && self.peek(1) != b'\'' {
            // Lifetime: 'a, 'static — an ident run with no closing quote.
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
            self.push(TokenKind::Lifetime, start, line);
            return;
        }
        // Plain char literal 'x' (including quote-adjacent idents like 'a'
        // caught by the peek(1) check above), or a stray quote.
        if self.peek(1) == b'\'' {
            self.bump_n(2);
            self.push(TokenKind::Char, start, line);
        } else {
            // Lone `'` (malformed) — emit as punct and move on.
            self.push(TokenKind::Punct, start, line);
        }
    }

    /// Numeric literal, cursor on the first digit.
    fn number(&mut self, start: usize, line: u32) {
        let mut float = false;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.bump_n(2);
            while self.peek(0).is_ascii_alphanumeric() || self.peek(0) == b'_' {
                self.bump();
            }
            self.push(TokenKind::Int, start, line);
            return;
        }
        while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
            self.bump();
        }
        // Fractional part — but `0..10` is a range and `1.max(2)` a method
        // call, so require a digit right after the dot.
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            float = true;
            self.bump();
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump();
            }
        } else if self.peek(0) == b'.' && self.peek(1) != b'.' && !is_ident_start(self.peek(1)) {
            // Trailing-dot float `1.` (rare, but legal).
            float = true;
            self.bump();
        }
        // Exponent.
        if matches!(self.peek(0), b'e' | b'E')
            && (self.peek(1).is_ascii_digit()
                || (matches!(self.peek(1), b'+' | b'-') && self.peek(2).is_ascii_digit()))
        {
            float = true;
            self.bump();
            if matches!(self.peek(0), b'+' | b'-') {
                self.bump();
            }
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump();
            }
        }
        // Type suffix (`u64`, `f64`, `usize`); `f32`/`f64` forces Float.
        if is_ident_start(self.peek(0)) {
            let suffix_start = self.pos;
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
            let suffix = &self.src[suffix_start..self.pos];
            if suffix == b"f32" || suffix == b"f64" {
                float = true;
            }
        }
        self.push(
            if float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            start,
            line,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn code_texts(src: &str) -> Vec<String> {
        let lexed = lex(src);
        lexed
            .code_tokens()
            .map(|(_, t)| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let got = kinds("fn f(x: u64) -> f64 { x as f64 * 2.5 }");
        let texts: Vec<&str> = got.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(
            texts,
            [
                "fn", "f", "(", "x", ":", "u64", ")", "-", ">", "f64", "{", "x", "as", "f64", "*",
                "2.5", "}"
            ]
        );
        assert_eq!(got[15].0, TokenKind::Float);
    }

    #[test]
    fn numeric_flavours() {
        for (src, kind) in [
            ("1_000", TokenKind::Int),
            ("1_000u64", TokenKind::Int),
            ("0xFF_u8", TokenKind::Int),
            ("0b1010", TokenKind::Int),
            ("2.5", TokenKind::Float),
            ("2.5f64", TokenKind::Float),
            ("1e9", TokenKind::Float),
            ("1.5e-3", TokenKind::Float),
            ("1f64", TokenKind::Float),
        ] {
            let toks = lex(src).tokens;
            assert_eq!(toks.len(), 1, "{src} should be one token");
            assert_eq!(toks[0].kind, kind, "{src}");
            assert_eq!(toks[0].text(src), src);
        }
    }

    #[test]
    fn ranges_and_field_access_are_not_floats() {
        let got = kinds("0..10");
        assert_eq!(got[0], (TokenKind::Int, "0".into()));
        assert_eq!(got[3], (TokenKind::Int, "10".into()));
        let got = kinds("t.0");
        assert_eq!(got[0].0, TokenKind::Ident);
        assert_eq!(got[2], (TokenKind::Int, "0".into()));
        // Method call on an integer literal.
        let got = kinds("1.max(2)");
        assert_eq!(got[0], (TokenKind::Int, "1".into()));
    }

    #[test]
    fn line_and_block_comments() {
        let src = "a // c1\nb /* c2 */ c";
        let got = kinds(src);
        assert_eq!(
            got,
            vec![
                (TokenKind::Ident, "a".into()),
                (TokenKind::LineComment, "// c1".into()),
                (TokenKind::Ident, "b".into()),
                (TokenKind::BlockComment, "/* c2 */".into()),
                (TokenKind::Ident, "c".into()),
            ]
        );
        // Code after the comment keeps participating.
        assert_eq!(code_texts(src), ["a", "b", "c"]);
    }

    #[test]
    fn nested_and_multiline_block_comments() {
        let src = "before /* outer /* inner */ still-comment */ after";
        assert_eq!(code_texts(src), ["before", "after"]);
        let src = "x /* spans\nmultiple\nlines */ y";
        let lexed = lex(src);
        assert_eq!(code_texts(src), ["x", "y"]);
        // The `y` token knows its real line.
        let y = lexed.tokens.last().unwrap();
        assert_eq!(y.line, 3);
        // Unterminated block comment swallows to EOF without panicking.
        assert_eq!(code_texts("a /* never closed\nb c"), ["a"]);
    }

    #[test]
    fn strings_with_escapes() {
        let src = r#"f("has \" quote and HashMap")"#;
        let got = kinds(src);
        assert_eq!(got[2].0, TokenKind::Str);
        assert_eq!(got[2].1, r#""has \" quote and HashMap""#);
        assert_eq!(got.len(), 4); // f ( str )
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let src = r##"let s = r#"raw "quoted" Instant::now"#; after()"##;
        let got = kinds(src);
        let s = got.iter().find(|(k, _)| *k == TokenKind::Str).unwrap();
        assert_eq!(s.1, r##"r#"raw "quoted" Instant::now"#"##);
        // Code resumes after the raw string.
        assert!(got.iter().any(|(_, t)| t == "after"));
        // Zero-hash raw string.
        let src = r#"r"plain raw" x"#;
        let got = kinds(src);
        assert_eq!(got[0], (TokenKind::Str, r#"r"plain raw""#.into()));
        // Multi-line raw string: the following token's line is correct.
        let src = "r#\"line1\nline2\"# z";
        let lexed = lex(src);
        assert_eq!(lexed.tokens[1].line, 2);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = r##"b"bytes" br#"raw bytes"# b'x'"##;
        let got = kinds(src);
        assert_eq!(got[0], (TokenKind::Str, r#"b"bytes""#.into()));
        assert_eq!(got[1], (TokenKind::Str, r##"br#"raw bytes"#"##.into()));
        assert_eq!(got[2], (TokenKind::Char, "b'x'".into()));
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let got = kinds("r#match radius b#"); // b# is ident `b` + punct
        assert_eq!(got[0], (TokenKind::Ident, "r#match".into()));
        assert_eq!(got[1], (TokenKind::Ident, "radius".into()));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let got = kinds("'a'");
        assert_eq!(got, vec![(TokenKind::Char, "'a'".into())]);
        let got = kinds("&'a str");
        assert_eq!(got[1], (TokenKind::Lifetime, "'a".into()));
        let got = kinds("'static");
        assert_eq!(got[0], (TokenKind::Lifetime, "'static".into()));
        for (src, want) in [
            ("'\\n'", "'\\n'"),
            ("'\\''", "'\\''"),
            ("'\\u{1F980}'", "'\\u{1F980}'"),
        ] {
            let got = kinds(src);
            assert_eq!(got[0], (TokenKind::Char, want.into()), "{src}");
        }
        // The '"' literal must not open a string region.
        let src = "if c == '\"' { HashMap::new() }";
        let texts = code_texts(src);
        assert!(texts.contains(&"HashMap".to_string()));
    }

    #[test]
    fn spans_are_byte_accurate() {
        let src = "alpha  beta";
        let lexed = lex(src);
        let t = &lexed.tokens[1];
        assert_eq!((t.start, t.end), (7, 11));
        assert_eq!(t.text(src), "beta");
    }

    #[test]
    fn lines_are_one_based_and_tracked() {
        let src = "a\nb\n\nc";
        let lexed = lex(src);
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn shebang_is_skipped() {
        let src = "#!/usr/bin/env run\nfn main() {}";
        assert_eq!(code_texts(src)[0], "fn");
    }

    #[test]
    fn non_ascii_in_strings_and_idents() {
        let src = "let s = \"π ≈ 3.14159\"; done";
        let got = kinds(src);
        assert!(got
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains('π')));
        assert!(got.iter().any(|(_, t)| t == "done"));
    }
}
