//! A real (if lightweight) Rust lexer.
//!
//! This is the piece that retires the old lint line scanner's known
//! false positives: string literals — including raw strings
//! (`r#"…"#`), byte strings, and multi-line strings — become single
//! opaque tokens, so a `{` or `// …` inside one can never be
//! mistaken for structure.  Comments are dropped, except that lint
//! directives embedded in them (`// lint:allow(cast)`,
//! `// srmlint::allow(blocking)`) are preserved as [`Directive`]s so the
//! passes can honor in-place suppressions.
//!
//! The lexer is deliberately permissive about things the passes never
//! look at (numeric suffixes, exotic escapes): it only has to token
//! ize the workspace's own sources, and an unterminated literal is
//! reported as a [`LexError`] rather than guessed around.

/// One lexed token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// What the token is.
    pub kind: TokKind,
}

/// Token kinds.  Multi-character operators are emitted as their
/// constituent [`TokKind::Punct`] characters; the parser re-assembles
/// the few it cares about (`::`, `->`, `=>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, de-prefixed).
    Ident(String),
    /// A lifetime (`'a`), name without the quote.
    Lifetime(String),
    /// Any string-like literal (string, raw string, byte string, char,
    /// byte); the *unescaped-as-written* body, quotes stripped.  No
    /// pass looks inside a literal, so escapes are left as-is.
    Literal(String),
    /// A numeric literal, as written.
    Num(String),
    /// One punctuation character.
    Punct(char),
}

/// A lint directive found in a comment, attached to the line it is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The directive text, e.g. `lint:allow(cast)` or
    /// `srmlint::allow(blocking)`.
    pub text: String,
}

/// A lexing failure (unterminated literal or comment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line where the offending construct starts.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// The output of [`lex`]: tokens plus the comment directives.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace removed.
    pub toks: Vec<Tok>,
    /// Directives harvested from comments, in source order.
    pub directives: Vec<Directive>,
}

/// Extract any lint directives from one comment body.
fn harvest_directives(body: &str, line: u32, out: &mut Vec<Directive>) {
    for marker in ["lint:allow(", "srmlint::"] {
        let mut rest = body;
        let mut _off = 0;
        while let Some(at) = rest.find(marker) {
            let tail = &rest[at..];
            // The directive runs to the end of its parenthesized
            // argument (if any) or to the next whitespace.
            let text = match tail.find('(') {
                Some(p) if !tail[..p].contains(char::is_whitespace) => {
                    match tail[p..].find(')') {
                        Some(close) => &tail[..p + close + 1],
                        None => tail.split_whitespace().next().unwrap_or(tail),
                    }
                }
                _ => tail.split_whitespace().next().unwrap_or(tail),
            };
            out.push(Directive {
                line,
                text: text.to_string(),
            });
            rest = &tail[text.len().max(1)..];
            _off += at + text.len().max(1);
        }
    }
}

/// Tokenize `src`.  Comments vanish (directives survive), string-like
/// literals become single opaque tokens, and everything else keeps its
/// starting line for findings.
pub fn lex(src: &str) -> Result<Lexed, LexError> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut out = Lexed::default();

    // Count newlines in b[from..to], advancing `line`.
    fn bump_lines(b: &[u8], from: usize, to: usize, line: &mut u32) {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count() as u32;
    }

    while i < b.len() {
        let c = b[i] as char;
        // Whitespace.
        if c.is_ascii_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment (also doc `///` and `//!`).
        if c == '/' && b.get(i + 1) == Some(&b'/') {
            let end = b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map(|p| i + p)
                .unwrap_or(b.len());
            let body = &src[i + 2..end];
            harvest_directives(body, line, &mut out.directives);
            i = end;
            continue;
        }
        // Block comment, nestable.
        if c == '/' && b.get(i + 1) == Some(&b'*') {
            let start_line = line;
            let mut depth = 1;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    if b[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
            }
            if depth > 0 {
                return Err(LexError {
                    line: start_line,
                    msg: "unterminated block comment".into(),
                });
            }
            harvest_directives(&src[i + 2..j.saturating_sub(2)], start_line, &mut out.directives);
            i = j;
            continue;
        }
        // Raw strings: r"…", r#"…"#, br#"…"#, with any number of #s.
        if c == 'r' || c == 'b' {
            let mut j = i;
            if b[j] == b'b' {
                j += 1;
            }
            if b.get(j) == Some(&b'r') {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while b.get(k) == Some(&b'#') {
                    hashes += 1;
                    k += 1;
                }
                if b.get(k) == Some(&b'"') {
                    let start_line = line;
                    let body_start = k + 1;
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    let mut m = body_start;
                    loop {
                        if m + closer.len() > b.len() {
                            return Err(LexError {
                                line: start_line,
                                msg: "unterminated raw string".into(),
                            });
                        }
                        if &b[m..m + closer.len()] == closer.as_slice() {
                            break;
                        }
                        m += 1;
                    }
                    out.toks.push(Tok {
                        line: start_line,
                        kind: TokKind::Literal(src[body_start..m].to_string()),
                    });
                    bump_lines(b, body_start, m, &mut line);
                    i = m + closer.len();
                    continue;
                }
            }
            // else: plain ident starting with r/b — falls through below.
        }
        // String / byte-string literal.
        if c == '"' || (c == 'b' && b.get(i + 1) == Some(&b'"')) {
            let start_line = line;
            let open = if c == 'b' { i + 1 } else { i };
            let mut j = open + 1;
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'"' => break,
                    b'\n' => {
                        line += 1;
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            if j >= b.len() {
                return Err(LexError {
                    line: start_line,
                    msg: "unterminated string literal".into(),
                });
            }
            out.toks.push(Tok {
                line: start_line,
                kind: TokKind::Literal(src[open + 1..j].to_string()),
            });
            i = j + 1;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // A lifetime is 'ident NOT followed by a closing quote;
            // everything else after ' is a char literal.
            let next = b.get(i + 1).copied();
            let is_lifetime = match next {
                Some(n) if (n as char).is_alphabetic() || n == b'_' => {
                    // 'a' is a char; 'ab / 'a> / 'a, are lifetimes.
                    let mut k = i + 1;
                    while k < b.len() && ((b[k] as char).is_alphanumeric() || b[k] == b'_') {
                        k += 1;
                    }
                    b.get(k) != Some(&b'\'')
                }
                _ => false,
            };
            if is_lifetime {
                let mut k = i + 1;
                while k < b.len() && ((b[k] as char).is_alphanumeric() || b[k] == b'_') {
                    k += 1;
                }
                out.toks.push(Tok {
                    line,
                    kind: TokKind::Lifetime(src[i + 1..k].to_string()),
                });
                i = k;
                continue;
            }
            // Char literal (possibly escaped, e.g. '\u{7d}').
            let start_line = line;
            let mut j = i + 1;
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'\'' => break,
                    _ => j += 1,
                }
            }
            if j >= b.len() {
                return Err(LexError {
                    line: start_line,
                    msg: "unterminated char literal".into(),
                });
            }
            out.toks.push(Tok {
                line: start_line,
                kind: TokKind::Literal(src[i + 1..j].to_string()),
            });
            i = j + 1;
            continue;
        }
        // Raw identifier `r#name` (raw *strings* were handled above).
        if c == 'r'
            && b.get(i + 1) == Some(&b'#')
            && b.get(i + 2).is_some_and(|&n| (n as char).is_alphabetic() || n == b'_')
        {
            let start = i + 2;
            let mut j = start;
            while j < b.len() && ((b[j] as char).is_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            out.toks.push(Tok {
                line,
                kind: TokKind::Ident(src[start..j].to_string()),
            });
            i = j;
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            let mut j = i;
            while j < b.len() && ((b[j] as char).is_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            let mut name = &src[start..j];
            if let Some(stripped) = name.strip_prefix("r#") {
                name = stripped;
            }
            out.toks.push(Tok {
                line,
                kind: TokKind::Ident(name.to_string()),
            });
            i = j;
            continue;
        }
        // Raw identifier `r#name` (r consumed above would have matched
        // ident path; handle the prefix here).
        if c == '#' && i > 0 && b[i - 1] == b'r' {
            // unreachable in practice: `r#ident` is consumed by the
            // ident arm (r, then #). Treat `#` as punct below.
        }
        // Numeric literal: digits plus permissive tail (0x.., 1_000u64,
        // 1.5e-3).  A trailing range `1..` must not eat the dots.
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            while j < b.len() {
                let ch = b[j] as char;
                let float_dot = ch == '.'
                    && b.get(j + 1).is_some_and(|&n| (n as char).is_ascii_digit())
                    && b.get(j.wrapping_sub(1)).is_some_and(|&p| (p as char).is_ascii_digit());
                let exp_sign = (ch == '+' || ch == '-')
                    && j > start
                    && (b[j - 1] == b'e' || b[j - 1] == b'E');
                if ch.is_ascii_alphanumeric() || ch == '_' || float_dot || exp_sign {
                    j += 1;
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                line,
                kind: TokKind::Num(src[start..j].to_string()),
            });
            i = j;
            continue;
        }
        // Everything else: single punctuation char.
        out.toks.push(Tok {
            line,
            kind: TokKind::Punct(c),
        });
        i += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .unwrap()
            .toks
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn braces_in_strings_are_opaque() {
        let l = lex("const S: &str = \"}\";\nfn f() {}").unwrap();
        let braces: Vec<_> = l
            .toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Punct('{') | TokKind::Punct('}')))
            .collect();
        assert_eq!(braces.len(), 2, "only the fn body braces count: {l:?}");
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let l = lex("let s = r#\"a \"quoted\" } brace\"#; let t = 1;").unwrap();
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Literal("a \"quoted\" } brace".into())));
        assert!(!l
            .toks
            .iter()
            .any(|t| matches!(t.kind, TokKind::Punct('}'))));
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let l = lex("let s = \"line\none\n}\";\nfn g() {}").unwrap();
        let g = l
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Ident("g".into()))
            .unwrap();
        assert_eq!(g.line, 4);
    }

    #[test]
    fn comments_vanish_but_directives_survive() {
        let l = lex("x(); // lint:allow(cast) justified\n/* srmlint::allow(blocking) */ y();")
            .unwrap();
        assert_eq!(l.directives.len(), 2);
        assert_eq!(l.directives[0].text, "lint:allow(cast)");
        assert_eq!(l.directives[0].line, 1);
        assert_eq!(l.directives[1].text, "srmlint::allow(blocking)");
        assert!(!l.toks.iter().any(|t| t.kind == TokKind::Ident("justified".into())));
    }

    #[test]
    fn lifetimes_and_char_literals_disambiguate() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = '}'; let u = '\\u{7d}'; }").unwrap();
        assert!(toks
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime("a".into())));
        assert!(toks.toks.iter().any(|t| t.kind == TokKind::Literal("}".into())));
        // The char-literal braces must not appear as puncts.
        let opens = toks
            .toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Punct('{')))
            .count();
        assert_eq!(opens, 1);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ fn f() {}").unwrap();
        assert_eq!(idents("/* a /* b */ c */ fn f() {}"), vec!["fn", "f"]);
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Ident("fn".into())));
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let l = lex("for i in 0..10 {}").unwrap();
        let dots = l
            .toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Punct('.')))
            .count();
        assert_eq!(dots, 2);
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Num("0".into())));
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Num("10".into())));
        // But real float literals stay whole.
        let f = lex("let x = 1.5e-3;").unwrap();
        assert!(f.toks.iter().any(|t| t.kind == TokKind::Num("1.5e-3".into())));
    }

    #[test]
    fn unterminated_literals_error() {
        assert!(lex("let s = \"oops").is_err());
        assert!(lex("let s = r#\"oops\"").is_err());
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn raw_identifiers_are_deprefixed() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "match"]);
    }
}
