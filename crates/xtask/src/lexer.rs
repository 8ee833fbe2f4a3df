//! A small hand-rolled Rust lexer.
//!
//! The linter needs just enough token structure to match identifier/path
//! patterns without being fooled by comments and string literals, and it
//! must run in an offline build (no `syn`, no `proc-macro2`).  The lexer
//! therefore produces a flat token stream — identifiers, punctuation,
//! literals, lifetimes — each tagged with its source line.  Comments
//! produce no tokens.
//!
//! It understands the lexical shapes that would otherwise cause false
//! positives: nested block comments, string/byte-string literals with
//! escapes, raw strings with arbitrary `#` fences, char literals versus
//! lifetimes, and raw identifiers.

/// Classification of one token.  The rules only ever match on `Ident` and
/// `Punct`, but literals must be lexed precisely so their *contents* never
/// leak into the ident stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `fn`, `HashMap`, …).
    Ident,
    /// Punctuation; `::` is fused into one token, everything else is one
    /// character.
    Punct,
    /// String, byte-string, char or byte-char literal.  For string-shaped
    /// literals the token text is the literal's *contents* (escapes left
    /// as written), so `cargo xtask loc` sees the lines a multi-line
    /// literal spans; char literals keep an opaque `'…'` text.
    Literal,
    /// Numeric literal.
    Number,
    /// Lifetime or loop label (`'a`, `'stream`).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// The token stream under construction.
#[derive(Default)]
struct LexOutput {
    tokens: Vec<Token>,
}

impl LexOutput {
    fn push(&mut self, kind: TokKind, text: impl Into<String>, line: u32) {
        self.tokens.push(Token {
            kind,
            text: text.into(),
            line,
        });
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `true` when token `i` is the identifier `text`.
pub fn ident_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

/// `true` when token `i` is the punctuation `text`.
pub fn punct_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// Lexes `src` into tokens.  Unterminated literals and
/// comments are tolerated (the remainder of the file is consumed as the
/// literal): the linter must degrade gracefully on any input, it is not a
/// compiler front-end.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = LexOutput::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if next == Some('/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                // Nested block comments, newline-aware.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < chars.len() && depth > 0 {
                    match (chars[j], chars.get(j + 1).copied()) {
                        ('/', Some('*')) => {
                            depth += 1;
                            j += 2;
                        }
                        ('*', Some('/')) => {
                            depth -= 1;
                            j += 2;
                        }
                        ('\n', _) => {
                            line += 1;
                            j += 1;
                        }
                        _ => j += 1,
                    }
                }
                i = j;
            }
            '"' => {
                let start_line = line;
                let end = consume_string(&chars, i, &mut line);
                out.push(
                    TokKind::Literal,
                    string_contents(&chars, i + 1, end),
                    start_line,
                );
                i = end;
            }
            'r' | 'b' => {
                let start_line = line;
                if let Some((end, contents)) = try_consume_prefixed_literal(&chars, i, &mut line) {
                    out.push(TokKind::Literal, contents, start_line);
                    i = end;
                } else if c == 'r'
                    && next == Some('#')
                    && chars.get(i + 2).copied().is_some_and(is_ident_start)
                {
                    // Raw identifier r#ident: token text is the bare name.
                    let (j, name) = consume_ident(&chars, i + 2);
                    out.push(TokKind::Ident, name, start_line);
                    i = j;
                } else {
                    let (j, name) = consume_ident(&chars, i);
                    out.push(TokKind::Ident, name, start_line);
                    i = j;
                }
            }
            '\'' => {
                let start_line = line;
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime/label; everything else is a
                // char literal.
                if next.is_some_and(is_ident_start) && next != Some('\\') {
                    let (j, name) = consume_ident(&chars, i + 1);
                    if chars.get(j).copied() == Some('\'') {
                        out.push(TokKind::Literal, "'…'", start_line);
                        i = j + 1;
                    } else {
                        out.push(TokKind::Lifetime, name, start_line);
                        i = j;
                    }
                } else {
                    i = consume_char_literal(&chars, i, &mut line);
                    out.push(TokKind::Literal, "'…'", start_line);
                }
            }
            c if is_ident_start(c) => {
                let (j, name) = consume_ident(&chars, i);
                out.push(TokKind::Ident, name, line);
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                let text: String = chars[i..j].iter().collect();
                out.push(TokKind::Number, text, line);
                i = j;
            }
            ':' if next == Some(':') => {
                out.push(TokKind::Punct, "::", line);
                i += 2;
            }
            other => {
                out.push(TokKind::Punct, other.to_string(), line);
                i += 1;
            }
        }
    }
    out.tokens
}

fn consume_ident(chars: &[char], start: usize) -> (usize, String) {
    let mut j = start;
    while j < chars.len() && is_ident_continue(chars[j]) {
        j += 1;
    }
    (j, chars[start..j].iter().collect())
}

/// The contents of a `"…"` literal whose opening quote sits at
/// `open_quote - 1` and whose consume ended at `end` (just past the closing
/// quote, or at EOF for an unterminated literal).
fn string_contents(chars: &[char], contents_start: usize, end: usize) -> String {
    let contents_end = if end > contents_start && chars.get(end - 1) == Some(&'"') {
        end - 1
    } else {
        end
    };
    chars[contents_start..contents_end].iter().collect()
}

/// Consumes a `"…"` literal starting at the opening quote; returns the
/// index just past the closing quote.
fn consume_string(chars: &[char], start: usize, line: &mut u32) -> usize {
    let mut j = start + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Consumes a `'…'` char literal starting at the opening quote; returns
/// the index just past the closing quote.
fn consume_char_literal(chars: &[char], start: usize, line: &mut u32) -> usize {
    let mut j = start + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\'' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Tries to consume a `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or `b'…'`
/// literal starting at the `r`/`b` prefix.  Returns the end index and the
/// literal's contents, or `None` when the prefix turns out to start a
/// plain identifier.
fn try_consume_prefixed_literal(
    chars: &[char],
    start: usize,
    line: &mut u32,
) -> Option<(usize, String)> {
    let mut j = start;
    let mut raw = false;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j).copied() == Some('\'') {
            return Some((consume_char_literal(chars, j, line), "'…'".to_string()));
        }
        if chars.get(j).copied() == Some('r') {
            raw = true;
            j += 1;
        }
    } else if chars[j] == 'r' {
        raw = true;
        j += 1;
    }
    if raw {
        let mut hashes = 0usize;
        while chars.get(j).copied() == Some('#') {
            hashes += 1;
            j += 1;
        }
        if chars.get(j).copied() != Some('"') {
            return None; // r#ident or plain ident starting with r/br
        }
        j += 1;
        let contents_start = j;
        // Scan for `"` followed by `hashes` hash marks; no escapes in raw
        // strings.
        while j < chars.len() {
            if chars[j] == '\n' {
                *line += 1;
                j += 1;
                continue;
            }
            if chars[j] == '"' {
                let mut k = 0usize;
                while k < hashes && chars.get(j + 1 + k).copied() == Some('#') {
                    k += 1;
                }
                if k == hashes {
                    let contents: String = chars[contents_start..j].iter().collect();
                    return Some((j + 1 + hashes, contents));
                }
            }
            j += 1;
        }
        Some((j, chars[contents_start..j].iter().collect()))
    } else {
        // b"…"
        if chars.get(j).copied() != Some('"') {
            return None;
        }
        let end = consume_string(chars, j, line);
        Some((end, string_contents(chars, j + 1, end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_idents() {
        let src = r##"
            // unwrap() in a comment
            /* HashMap in /* a nested */ block */
            let a = "unwrap() in a string";
            let b = r#"HashMap "quoted" raw"#;
            let c = b"fsync bytes";
            let d = 'x';
            let e: &'static str = "s";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"fsync".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let out = lex("fn f<'a>(x: &'a str) { 'outer: loop { break 'outer; } }");
        let lifetimes: Vec<&str> = out
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a", "outer", "outer"]);
    }

    #[test]
    fn double_colon_is_one_token_and_lines_track() {
        let out = lex("std::time::Instant\n::now()");
        let texts: Vec<(&str, u32)> = out.iter().map(|t| (t.text.as_str(), t.line)).collect();
        assert_eq!(
            texts,
            vec![
                ("std", 1),
                ("::", 1),
                ("time", 1),
                ("::", 1),
                ("Instant", 1),
                ("::", 2),
                ("now", 2),
                ("(", 2),
                (")", 2),
            ]
        );
    }

    #[test]
    fn string_literals_keep_their_contents() {
        let out =
            lex("let k = \"abcast/agreed\"; let r = r#\"raw \"x\" body\"#; let b = b\"bytes\";");
        let lits: Vec<&str> = out
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec!["abcast/agreed", "raw \"x\" body", "bytes"]);
    }

    #[test]
    fn raw_identifiers_lex_as_their_bare_name() {
        let ids = idents("let r#fn = r#type;");
        assert_eq!(ids, vec!["let", "fn", "type"]);
    }
}
