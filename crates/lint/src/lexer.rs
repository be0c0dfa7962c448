//! A comment- and string-aware Rust lexer.
//!
//! `cidre-lint` deliberately does not parse Rust (no `syn`, no external
//! crates — the workspace is hermetic, see DESIGN.md §3). The brace
//! tree of [`crate::parser`] only needs a token stream that cannot be
//! fooled by a `{` or a `.lock()` inside a string literal or a
//! comment. This lexer provides exactly that: identifiers,
//! punctuation, literals, and lifetimes, each tagged with a 1-based
//! line number; comments are skipped.
//!
//! The grammar corners that matter and are handled:
//! * nested block comments `/* /* */ */`;
//! * string escapes (`"\""`), raw strings `r#"…"#` with any number of
//!   hashes, byte/raw-byte strings;
//! * char literals vs lifetimes (`'a'` vs `'a`);
//! * numeric literals with underscores, type suffixes, and exponents
//!   (`1_000u64`, `2.5e-3`) — lexed as single tokens so a lookbehind
//!   never lands mid-number.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`Instant`, `for`, `as`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `(`, `&`, …).
    Punct,
    /// String/char/byte/numeric literal, content opaque to rules.
    Literal,
    /// A lifetime or loop label (`'a`, `'outer`).
    Lifetime,
}

/// One lexed token with its source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexeme kind.
    pub kind: TokenKind,
    /// The token text. For [`TokenKind::Punct`] this is one character;
    /// for literals it is the raw source slice.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// Lexes Rust source into its non-comment tokens, in source order.
/// Never fails: unrecognised bytes are skipped so a half-written
/// fixture cannot wedge the analyzer.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_string_ahead() => self.raw_string(),
                b'b' if self.peek(1) == Some(b'\'') => {
                    self.pos += 1; // consume 'b', then the char literal
                    self.char_literal();
                }
                b'b' if self.peek(1) == Some(b'"') => {
                    self.pos += 1;
                    self.string_literal();
                }
                b'"' => self.string_literal(),
                b'\'' => self.quote(),
                b if b.is_ascii_digit() => self.number(),
                b if b == b'_' || b.is_ascii_alphabetic() => self.ident(),
                _ => {
                    self.push(TokenKind::Punct, (b as char).to_string(), self.line);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            match (self.bytes[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Detects `r"`, `r#`, `br"`, `br#` at the cursor.
    fn raw_string_ahead(&self) -> bool {
        let mut i = self.pos;
        if self.bytes[i] == b'b' {
            i += 1;
        }
        if self.bytes.get(i) != Some(&b'r') {
            return false;
        }
        matches!(self.bytes.get(i + 1), Some(b'"') | Some(b'#'))
    }

    fn raw_string(&mut self) {
        let start_line = self.line;
        let from = self.pos;
        if self.bytes[self.pos] == b'b' {
            self.pos += 1;
        }
        self.pos += 1; // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        if self.peek(0) != Some(b'"') {
            // `r#ident` (raw identifier): rewind the hashes and lex as ident.
            self.pos = from;
            self.ident_raw();
            return;
        }
        self.pos += 1; // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'"') => {
                    let mut ok = true;
                    for k in 0..hashes {
                        if self.peek(1 + k) != Some(b'#') {
                            ok = false;
                            break;
                        }
                    }
                    self.pos += 1;
                    if ok {
                        self.pos += hashes;
                        break;
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[from..self.pos]).into_owned();
        self.push(TokenKind::Literal, text, start_line);
    }

    fn string_literal(&mut self) {
        let start_line = self.line;
        let from = self.pos;
        self.pos += 1; // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => self.pos += 2,
                Some(b'\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => self.pos += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[from..self.pos]).into_owned();
        self.push(TokenKind::Literal, text, start_line);
    }

    /// `'` starts either a char literal or a lifetime.
    fn quote(&mut self) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime =
            matches!(next, Some(c) if c == b'_' || c.is_ascii_alphabetic()) && after != Some(b'\'');
        if is_lifetime {
            let from = self.pos;
            self.pos += 1;
            while matches!(self.peek(0), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.bytes[from..self.pos]).into_owned();
            self.push(TokenKind::Lifetime, text, self.line);
        } else {
            self.char_literal();
        }
    }

    fn char_literal(&mut self) {
        let from = self.pos;
        self.pos += 1; // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => self.pos += 2,
                Some(b'\'') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\n') => break, // malformed; bail at line end
                Some(_) => self.pos += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[from..self.pos]).into_owned();
        self.push(TokenKind::Literal, text, self.line);
    }

    fn number(&mut self) {
        let from = self.pos;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else if c == b'.'
                && matches!(self.peek(1), Some(d) if d.is_ascii_digit())
                && self.peek(1) != Some(b'.')
            {
                // `1.5` but not the range `1..n`.
                self.pos += 1;
            } else if (c == b'+' || c == b'-')
                && matches!(self.bytes.get(self.pos - 1), Some(b'e') | Some(b'E'))
            {
                // `2.5e-3`.
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[from..self.pos]).into_owned();
        self.push(TokenKind::Literal, text, self.line);
    }

    fn ident(&mut self) {
        let from = self.pos;
        while matches!(self.peek(0), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.bytes[from..self.pos]).into_owned();
        self.push(TokenKind::Ident, text, self.line);
    }

    /// `r#ident` raw identifiers: lex as a plain ident (the `r#` is not
    /// part of the name for rule-matching purposes).
    fn ident_raw(&mut self) {
        self.pos += 2; // r#
        self.ident();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let src = r##"
            // Instant::now here is commentary
            /* and SystemTime here too */
            let s = "Instant::now inside a string";
            let r = r#"partial_cmp raw"#;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"partial_cmp".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn nested_block_comment_terminates() {
        let src = "/* outer /* inner */ still outer */ fn after() {}";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "after"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }";
        let lx = lex(src);
        let lifetimes: Vec<_> = lx
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        let lits: Vec<_> = lx
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lits, vec!["'x'", "'\\n'"]);
    }

    #[test]
    fn numbers_lex_as_single_tokens() {
        let src = "let x = 1_000u64 + 2.5e-3; let r = 1..n;";
        let lx = lex(src);
        let lits: Vec<_> = lx
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lits, vec!["1_000u64", "2.5e-3", "1"]);
    }

    #[test]
    fn line_numbers_advance_through_everything() {
        let src = "a\n\"multi\nline\"\nb";
        let lx = lex(src);
        let b = lx.iter().find(|t| t.text == "b").expect("b lexed");
        assert_eq!(b.line, 4);
    }

    #[test]
    fn raw_identifier_is_ident() {
        let ids = idents("let r#type = 3;");
        assert!(ids.contains(&"type".to_string()));
    }
}
