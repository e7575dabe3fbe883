//! Item/scope model: a lightweight parse of one Rust source file.
//!
//! The parser is intentionally shallow — it recognizes the item
//! skeleton (modules, impls, fns with body extents, structs with typed
//! fields, enums with variants) and records everything else as opaque
//! token spans.  That is exactly enough for the passes: they reason
//! about *names* (lock fields, protocol variants, call targets) and
//! *extents* (fn bodies, test regions), never about full expressions
//! or types.
//!
//! `#[cfg(test)]` masking happens at item granularity: an item (or
//! `mod`) carrying `#[cfg(test)]`/`#[test]` marks its whole token
//! extent as test-only, and passes that exempt test code consult those
//! spans.  Because the underlying lexer makes string literals atomic,
//! a `}` inside a literal can never desynchronize the extent tracking
//! — the failure mode the old line-based linter had to dance around.

use crate::lexer::{lex, Directive, Tok, TokKind};
use std::path::{Path, PathBuf};

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute (or workspace-relative) path, used verbatim in findings.
    pub path: PathBuf,
    /// Cargo package name as written (dashes preserved), e.g. `srm-dist`.
    pub crate_name: String,
    /// Module path of the file root, e.g. `srm_dist::net`.
    pub module: String,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Comment directives (`lint:allow(...)`, `srmlint::...`).
    pub directives: Vec<Directive>,
    /// All items, flattened (nested items carry their full module path).
    pub items: Vec<Item>,
    /// Token-index ranges `[start, end)` that are test-only code.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Is token index `i` inside test-only code?
    pub fn is_test_tok(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Is there a directive with exactly `text` on `line`?
    pub fn has_directive(&self, line: u32, text: &str) -> bool {
        self.directives.iter().any(|d| d.line == line && d.text == text)
    }
}

/// A named item.
#[derive(Debug)]
pub struct Item {
    pub name: String,
    /// Full module path, e.g. `pdisk::pool` (inline `mod`s appended).
    pub module: String,
    /// Enclosing `impl`/`trait` type name (last path segment), if any.
    pub impl_of: Option<String>,
    /// 1-based line of the item keyword.
    pub line: u32,
    pub is_pub: bool,
    /// Item is inside `#[cfg(test)]` scope or carries `#[test]`.
    pub is_test: bool,
    /// Normalized attribute texts, e.g. `srmlint::worker_entry`,
    /// `non_exhaustive`, `cfg(test)`, `derive(Debug,Clone)`.
    pub attrs: Vec<String>,
    pub kind: ItemKind,
    /// Token range `[start, end)` of the whole item including attrs.
    pub extent: (usize, usize),
}

impl Item {
    pub fn has_attr(&self, name: &str) -> bool {
        self.attrs.iter().any(|a| a == name || a.starts_with(&format!("{name}(")))
    }
}

#[derive(Debug)]
pub enum ItemKind {
    Fn {
        /// Rendered return-type text (empty if none).
        ret: String,
        /// Token range `[open+1, close)` of the body, if the fn has one.
        body: Option<(usize, usize)>,
    },
    Struct {
        fields: Vec<Field>,
    },
    Enum {
        variants: Vec<String>,
    },
    /// `mod`, `use`, `const`, `static`, `type`, macros — name may be empty.
    Other,
}

#[derive(Debug)]
pub struct Field {
    /// Field name; tuple fields are `"0"`, `"1"`, ….
    pub name: String,
    /// Rendered type text, e.g. `Arc<Mutex<PoolInner<R>>>`.
    pub ty: String,
    /// 1-based line of the field.
    pub line: u32,
}

/// Render a token slice back to compact text (`Arc<Mutex<Foo>>`,
/// `&'static Mutex<BTreeSet<PathBuf>>`): a space is inserted only where
/// two word-like tokens would otherwise fuse.
pub fn render(toks: &[Tok]) -> String {
    let mut out = String::new();
    for t in toks {
        let piece = match &t.kind {
            TokKind::Ident(s) => s.clone(),
            TokKind::Num(s) => s.clone(),
            TokKind::Lifetime(s) => format!("'{s}"),
            TokKind::Literal(s) => format!("\"{s}\""),
            TokKind::Punct(c) => c.to_string(),
        };
        let fuse = out
            .chars()
            .next_back()
            .is_some_and(|p| p.is_alphanumeric() || p == '_')
            && piece
                .chars()
                .next()
                .is_some_and(|n| n.is_alphanumeric() || n == '_');
        if fuse {
            out.push(' ');
        }
        out.push_str(&piece);
    }
    out
}

/// Last path-segment type name of a rendered or token-level type, e.g.
/// `pdisk::pool::BufferPool<R>` → `BufferPool`; `&'a mut Foo` → `Foo`.
/// Only identifiers at angle-bracket depth 0 count.
pub fn short_type_name(toks: &[Tok]) -> Option<String> {
    let mut depth = 0i32;
    let mut last = None;
    let mut prev_punct = ' ';
    for t in toks {
        match &t.kind {
            TokKind::Punct('<') => depth += 1,
            // `->` does not close a generic.
            TokKind::Punct('>') if prev_punct != '-' => depth -= 1,
            TokKind::Ident(s)
                if depth == 0 && !matches!(s.as_str(), "dyn" | "mut" | "impl" | "const") =>
            {
                last = Some(s.clone());
            }
            _ => {}
        }
        prev_punct = match t.kind {
            TokKind::Punct(c) => c,
            _ => ' ',
        };
    }
    last
}

// ─── parser ──────────────────────────────────────────────────────────────

struct Parser<'a> {
    t: &'a [Tok],
    i: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&TokKind> {
        self.t.get(self.i).map(|t| &t.kind)
    }

    fn peek_at(&self, off: usize) -> Option<&TokKind> {
        self.t.get(self.i + off).map(|t| &t.kind)
    }

    fn line(&self) -> u32 {
        self.t
            .get(self.i)
            .or_else(|| self.t.last())
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokKind::Punct(p)) if *p == c)
    }

    fn is_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(TokKind::Ident(i)) if i == s)
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn eat_ident(&mut self) -> Option<String> {
        if let Some(TokKind::Ident(s)) = self.peek() {
            let s = s.clone();
            self.bump();
            Some(s)
        } else {
            None
        }
    }

    /// Skip a balanced `open`…`close` group whose opener is at the
    /// cursor; returns the index one past the closer.  Literal tokens
    /// are atomic, so this cannot be fooled by delimiter characters in
    /// strings.
    fn skip_balanced(&mut self, open: char, close: char) {
        if !self.is_punct(open) {
            return;
        }
        let mut depth = 0i32;
        while self.i < self.t.len() {
            match self.peek() {
                Some(TokKind::Punct(c)) if *c == open => depth += 1,
                Some(TokKind::Punct(c)) if *c == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip a generic parameter list `<...>` if present.  `>` preceded
    /// by `-` (an `->` inside an `Fn()` bound) does not close the list.
    fn skip_generics(&mut self) {
        if !self.is_punct('<') {
            return;
        }
        let mut depth = 0i32;
        let mut prev = ' ';
        while self.i < self.t.len() {
            match self.peek() {
                Some(TokKind::Punct('<')) => depth += 1,
                Some(TokKind::Punct('>')) if prev != '-' => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            prev = match self.peek() {
                Some(TokKind::Punct(c)) => *c,
                _ => ' ',
            };
            self.bump();
        }
    }

    /// Collect one `#[...]` or `#![...]` attribute at the cursor into
    /// normalized text (tokens re-rendered, outer brackets stripped).
    /// Returns None if the cursor is not on an attribute.
    fn eat_attr(&mut self) -> Option<String> {
        if !self.is_punct('#') {
            return None;
        }
        let mut j = self.i + 1;
        if matches!(self.t.get(j).map(|t| &t.kind), Some(TokKind::Punct('!'))) {
            j += 1;
        }
        if !matches!(self.t.get(j).map(|t| &t.kind), Some(TokKind::Punct('['))) {
            return None;
        }
        self.i = j;
        let start = self.i + 1;
        self.skip_balanced('[', ']');
        let end = self.i.saturating_sub(1);
        Some(render_compact(&self.t[start..end]))
    }
}

/// Like [`render`] but with no spaces at all — attribute texts compare
/// against exact strings like `cfg(test)` and `srmlint::worker_entry`.
fn render_compact(toks: &[Tok]) -> String {
    let mut out = String::new();
    for t in toks {
        match &t.kind {
            TokKind::Ident(s) => {
                if out
                    .chars()
                    .next_back()
                    .is_some_and(|p| p.is_alphanumeric() || p == '_')
                {
                    out.push(' ');
                }
                out.push_str(s);
            }
            TokKind::Num(s) => out.push_str(s),
            TokKind::Lifetime(s) => {
                out.push('\'');
                out.push_str(s);
            }
            TokKind::Literal(s) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            TokKind::Punct(c) => out.push(*c),
        }
    }
    out
}

struct Ctx {
    module: String,
    impl_of: Option<String>,
    in_test: bool,
}

/// Parse the token stream of one file into items.
pub fn parse_items(
    toks: &[Tok],
    module: &str,
    items: &mut Vec<Item>,
    test_spans: &mut Vec<(usize, usize)>,
) {
    let mut p = Parser { t: toks, i: 0 };
    let ctx = Ctx {
        module: module.to_string(),
        impl_of: None,
        in_test: false,
    };
    parse_block(&mut p, toks.len(), &ctx, items, test_spans);
}

fn parse_block(
    p: &mut Parser<'_>,
    end: usize,
    ctx: &Ctx,
    items: &mut Vec<Item>,
    test_spans: &mut Vec<(usize, usize)>,
) {
    while p.i < end {
        let start = p.i;
        // Attributes (inner `#![...]` ones are consumed but not attached).
        let mut attrs = Vec::new();
        while p.i < end {
            if let Some(a) = p.eat_attr() {
                attrs.push(a);
            } else {
                break;
            }
        }
        let is_test_attr = attrs
            .iter()
            .any(|a| a == "test" || a.starts_with("cfg(test") || a.starts_with("cfg(all(test"));
        let is_test = ctx.in_test || is_test_attr;

        // Visibility.
        let mut is_pub = false;
        if p.is_ident("pub") {
            is_pub = true;
            p.bump();
            if p.is_punct('(') {
                p.skip_balanced('(', ')');
            }
        }
        // Leading fn modifiers.
        while p.is_ident("const") && matches!(p.peek_at(1), Some(TokKind::Ident(n)) if n == "fn" || n == "unsafe" || n == "async" || n == "extern")
            || p.is_ident("unsafe") && matches!(p.peek_at(1), Some(TokKind::Ident(n)) if n == "fn" || n == "extern")
            || p.is_ident("async")
        {
            p.bump();
        }
        if p.is_ident("extern") {
            // `extern "C" fn` prefix or an `extern` block/`extern crate`.
            if matches!(p.peek_at(1), Some(TokKind::Literal(_)))
                && matches!(p.peek_at(2), Some(TokKind::Ident(n)) if n == "fn")
            {
                p.bump();
                p.bump();
            }
        }

        let line = p.line();
        match p.peek().cloned() {
            Some(TokKind::Ident(kw)) => match kw.as_str() {
                "mod" => {
                    p.bump();
                    let name = p.eat_ident().unwrap_or_default();
                    if p.is_punct('{') {
                        let body_start = p.i;
                        p.skip_balanced('{', '}');
                        let body_end = p.i;
                        let sub = Ctx {
                            module: format!("{}::{}", ctx.module, name),
                            impl_of: None,
                            in_test: is_test,
                        };
                        let mut inner = Parser {
                            t: p.t,
                            i: body_start + 1,
                        };
                        parse_block(&mut inner, body_end.saturating_sub(1), &sub, items, test_spans);
                    } else if p.is_punct(';') {
                        p.bump();
                    }
                    push_item(
                        items, test_spans, name, ctx, line, is_pub, is_test, attrs,
                        ItemKind::Other, (start, p.i),
                    );
                }
                "fn" => {
                    p.bump();
                    parse_fn(p, ctx, start, line, is_pub, is_test, attrs, items, test_spans);
                }
                "struct" | "union" => {
                    p.bump();
                    parse_struct(p, ctx, start, line, is_pub, is_test, attrs, items, test_spans);
                }
                "enum" => {
                    p.bump();
                    parse_enum(p, ctx, start, line, is_pub, is_test, attrs, items, test_spans);
                }
                "impl" => {
                    p.bump();
                    p.skip_generics();
                    // First type; an `impl Trait for Type` uses Type.
                    let ty_start = p.i;
                    let mut for_at = None;
                    while p.i < end && !p.is_punct('{') {
                        if p.is_ident("for") {
                            for_at = Some(p.i);
                        }
                        if p.is_ident("where") {
                            break;
                        }
                        p.bump();
                    }
                    let ty_end = p.i;
                    while p.i < end && !p.is_punct('{') {
                        p.bump();
                    }
                    let ty_range = match for_at {
                        Some(f) => &p.t[f + 1..ty_end],
                        None => &p.t[ty_start..ty_end],
                    };
                    let ty = short_type_name(ty_range).unwrap_or_default();
                    let body_start = p.i;
                    p.skip_balanced('{', '}');
                    let sub = Ctx {
                        module: ctx.module.clone(),
                        impl_of: Some(ty),
                        in_test: is_test,
                    };
                    let mut inner = Parser {
                        t: p.t,
                        i: body_start + 1,
                    };
                    parse_block(&mut inner, p.i.saturating_sub(1), &sub, items, test_spans);
                    if is_test {
                        test_spans.push((start, p.i));
                    }
                }
                "trait" => {
                    p.bump();
                    let name = p.eat_ident().unwrap_or_default();
                    while p.i < end && !p.is_punct('{') {
                        p.bump();
                    }
                    let body_start = p.i;
                    p.skip_balanced('{', '}');
                    let sub = Ctx {
                        module: ctx.module.clone(),
                        impl_of: Some(name.clone()),
                        in_test: is_test,
                    };
                    let mut inner = Parser {
                        t: p.t,
                        i: body_start + 1,
                    };
                    parse_block(&mut inner, p.i.saturating_sub(1), &sub, items, test_spans);
                    push_item(
                        items, test_spans, name, ctx, line, is_pub, is_test, attrs,
                        ItemKind::Other, (start, p.i),
                    );
                }
                "use" | "type" => {
                    p.bump();
                    skip_to_semi(p, end);
                    push_item(
                        items, test_spans, String::new(), ctx, line, is_pub, is_test, attrs,
                        ItemKind::Other, (start, p.i),
                    );
                }
                "static" | "const" => {
                    p.bump();
                    let name = p.eat_ident().unwrap_or_default();
                    skip_to_semi(p, end);
                    push_item(
                        items, test_spans, name, ctx, line, is_pub, is_test, attrs,
                        ItemKind::Other, (start, p.i),
                    );
                }
                "macro_rules" => {
                    p.bump(); // macro_rules
                    if p.is_punct('!') {
                        p.bump();
                    }
                    let name = p.eat_ident().unwrap_or_default();
                    p.skip_balanced('{', '}');
                    push_item(
                        items, test_spans, name, ctx, line, is_pub, is_test, attrs,
                        ItemKind::Other, (start, p.i),
                    );
                }
                "extern" => {
                    // `extern crate x;` or `extern { ... }`.
                    p.bump();
                    if p.is_punct('{') {
                        p.skip_balanced('{', '}');
                    } else {
                        skip_to_semi(p, end);
                    }
                }
                _ => {
                    // Unknown at item position (macro invocation etc.):
                    // advance past it conservatively.
                    p.bump();
                    if p.is_punct('!') {
                        p.bump();
                        let _ = p.eat_ident();
                        if p.is_punct('(') {
                            p.skip_balanced('(', ')');
                            if p.is_punct(';') {
                                p.bump();
                            }
                        } else if p.is_punct('{') {
                            p.skip_balanced('{', '}');
                        } else if p.is_punct('[') {
                            p.skip_balanced('[', ']');
                            if p.is_punct(';') {
                                p.bump();
                            }
                        }
                    }
                    if is_test {
                        test_spans.push((start, p.i));
                    }
                }
            },
            Some(_) => p.bump(),
            None => break,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn push_item(
    items: &mut Vec<Item>,
    test_spans: &mut Vec<(usize, usize)>,
    name: String,
    ctx: &Ctx,
    line: u32,
    is_pub: bool,
    is_test: bool,
    attrs: Vec<String>,
    kind: ItemKind,
    extent: (usize, usize),
) {
    if is_test {
        test_spans.push(extent);
    }
    items.push(Item {
        name,
        module: ctx.module.clone(),
        impl_of: ctx.impl_of.clone(),
        line,
        is_pub,
        is_test,
        attrs,
        kind,
        extent,
    });
}

/// Skip to just past the next `;` at brace/paren depth 0 (initializers
/// may contain blocks and calls).
fn skip_to_semi(p: &mut Parser<'_>, end: usize) {
    let mut depth = 0i32;
    while p.i < end {
        match p.peek() {
            Some(TokKind::Punct('{')) | Some(TokKind::Punct('(')) | Some(TokKind::Punct('[')) => {
                depth += 1
            }
            Some(TokKind::Punct('}')) | Some(TokKind::Punct(')')) | Some(TokKind::Punct(']')) => {
                depth -= 1
            }
            Some(TokKind::Punct(';')) if depth <= 0 => {
                p.bump();
                return;
            }
            _ => {}
        }
        p.bump();
    }
}

#[allow(clippy::too_many_arguments)]
fn parse_fn(
    p: &mut Parser<'_>,
    ctx: &Ctx,
    start: usize,
    line: u32,
    is_pub: bool,
    is_test: bool,
    attrs: Vec<String>,
    items: &mut Vec<Item>,
    test_spans: &mut Vec<(usize, usize)>,
) {
    let name = p.eat_ident().unwrap_or_default();
    p.skip_generics();
    p.skip_balanced('(', ')');
    // Return type: tokens between `->` and the body/`;`/`where`.
    let mut ret = String::new();
    if p.is_punct('-') && matches!(p.peek_at(1), Some(TokKind::Punct('>'))) {
        p.bump();
        p.bump();
        let ret_start = p.i;
        let mut depth = 0i32;
        let mut prev = ' ';
        while p.i < p.t.len() {
            match p.peek() {
                Some(TokKind::Punct('<')) => depth += 1,
                Some(TokKind::Punct('>')) if prev != '-' => depth -= 1,
                Some(TokKind::Punct('{')) | Some(TokKind::Punct(';')) if depth <= 0 => break,
                Some(TokKind::Ident(w)) if w == "where" && depth <= 0 => break,
                _ => {}
            }
            prev = match p.peek() {
                Some(TokKind::Punct(c)) => *c,
                _ => ' ',
            };
            p.bump();
        }
        ret = render(&p.t[ret_start..p.i]);
    }
    // `where` clause (no braces can appear before the body's `{`).
    while p.i < p.t.len() && !p.is_punct('{') && !p.is_punct(';') {
        p.bump();
    }
    let body = if p.is_punct('{') {
        let open = p.i;
        p.skip_balanced('{', '}');
        Some((open + 1, p.i.saturating_sub(1)))
    } else {
        if p.is_punct(';') {
            p.bump();
        }
        None
    };
    push_item(
        items, test_spans, name, ctx, line, is_pub, is_test, attrs,
        ItemKind::Fn { ret, body }, (start, p.i),
    );
}

#[allow(clippy::too_many_arguments)]
fn parse_struct(
    p: &mut Parser<'_>,
    ctx: &Ctx,
    start: usize,
    line: u32,
    is_pub: bool,
    is_test: bool,
    attrs: Vec<String>,
    items: &mut Vec<Item>,
    test_spans: &mut Vec<(usize, usize)>,
) {
    let name = p.eat_ident().unwrap_or_default();
    p.skip_generics();
    while p.i < p.t.len() && !p.is_punct('{') && !p.is_punct('(') && !p.is_punct(';') {
        p.bump(); // `where` clause
    }
    let mut fields = Vec::new();
    if p.is_punct('{') {
        let open = p.i;
        p.skip_balanced('{', '}');
        let close = p.i.saturating_sub(1);
        parse_named_fields(p.t, open + 1, close, &mut fields);
    } else if p.is_punct('(') {
        let open = p.i;
        p.skip_balanced('(', ')');
        let close = p.i.saturating_sub(1);
        parse_tuple_fields(p.t, open + 1, close, &mut fields);
        if p.is_punct(';') {
            p.bump();
        }
    } else if p.is_punct(';') {
        p.bump();
    }
    push_item(
        items, test_spans, name, ctx, line, is_pub, is_test, attrs,
        ItemKind::Struct { fields }, (start, p.i),
    );
}

fn parse_named_fields(toks: &[Tok], start: usize, end: usize, out: &mut Vec<Field>) {
    let mut p = Parser { t: toks, i: start };
    while p.i < end {
        while p.eat_attr().is_some() {}
        if p.is_ident("pub") {
            p.bump();
            if p.is_punct('(') {
                p.skip_balanced('(', ')');
            }
        }
        let line = p.line();
        let Some(name) = p.eat_ident() else {
            p.bump();
            continue;
        };
        if !p.is_punct(':') {
            continue;
        }
        p.bump();
        let ty_start = p.i;
        skip_type_to(&mut p, end, ',');
        let ty = render(&toks[ty_start..p.i.min(end)]);
        out.push(Field { name, ty, line });
        if p.i < end && p.is_punct(',') {
            p.bump();
        }
    }
}

fn parse_tuple_fields(toks: &[Tok], start: usize, end: usize, out: &mut Vec<Field>) {
    let mut p = Parser { t: toks, i: start };
    let mut idx = 0usize;
    while p.i < end {
        while p.eat_attr().is_some() {}
        if p.is_ident("pub") {
            p.bump();
            if p.is_punct('(') {
                p.skip_balanced('(', ')');
            }
        }
        if p.i >= end {
            break;
        }
        let line = p.line();
        let ty_start = p.i;
        skip_type_to(&mut p, end, ',');
        let ty = render(&toks[ty_start..p.i.min(end)]);
        if !ty.is_empty() {
            out.push(Field {
                name: idx.to_string(),
                ty,
                line,
            });
            idx += 1;
        }
        if p.i < end && p.is_punct(',') {
            p.bump();
        }
    }
}

/// Advance past one type, stopping at `stop` (or `end`) at depth 0.
fn skip_type_to(p: &mut Parser<'_>, end: usize, stop: char) {
    let mut depth = 0i32;
    let mut prev = ' ';
    while p.i < end {
        match p.peek() {
            Some(TokKind::Punct('<')) | Some(TokKind::Punct('(')) | Some(TokKind::Punct('['))
            | Some(TokKind::Punct('{')) => depth += 1,
            Some(TokKind::Punct('>')) if prev != '-' => depth -= 1,
            Some(TokKind::Punct(')')) | Some(TokKind::Punct(']')) | Some(TokKind::Punct('}')) => {
                depth -= 1
            }
            Some(TokKind::Punct(c)) if *c == stop && depth <= 0 => return,
            _ => {}
        }
        prev = match p.peek() {
            Some(TokKind::Punct(c)) => *c,
            _ => ' ',
        };
        p.bump();
    }
}

#[allow(clippy::too_many_arguments)]
fn parse_enum(
    p: &mut Parser<'_>,
    ctx: &Ctx,
    start: usize,
    line: u32,
    is_pub: bool,
    is_test: bool,
    attrs: Vec<String>,
    items: &mut Vec<Item>,
    test_spans: &mut Vec<(usize, usize)>,
) {
    let name = p.eat_ident().unwrap_or_default();
    p.skip_generics();
    while p.i < p.t.len() && !p.is_punct('{') {
        p.bump();
    }
    let open = p.i;
    p.skip_balanced('{', '}');
    let close = p.i.saturating_sub(1);
    let mut variants = Vec::new();
    let mut v = Parser {
        t: p.t,
        i: open + 1,
    };
    while v.i < close {
        while v.eat_attr().is_some() {}
        if v.i >= close {
            break;
        }
        if let Some(vn) = v.eat_ident() {
            variants.push(vn);
            // Payload / discriminant, then the separating comma.
            if v.is_punct('(') {
                v.skip_balanced('(', ')');
            } else if v.is_punct('{') {
                v.skip_balanced('{', '}');
            }
            if v.is_punct('=') {
                // Discriminant expression up to `,` at depth 0.
                skip_type_to(&mut v, close, ',');
            }
            if v.is_punct(',') {
                v.bump();
            }
        } else {
            v.bump();
        }
    }
    push_item(
        items, test_spans, name, ctx, line, is_pub, is_test, attrs,
        ItemKind::Enum { variants }, (start, p.i),
    );
}

// ─── file loading ────────────────────────────────────────────────────────

/// Module path for a file at `rel` (relative to the crate's `src/`),
/// e.g. `pool.rs` → `pdisk::pool`; `lib.rs` → `pdisk`.
pub fn module_of(crate_name: &str, rel: &Path) -> String {
    let krate = crate_name.replace('-', "_");
    let mut parts = vec![krate];
    let comps: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    for (i, comp) in comps.iter().enumerate() {
        let last = i + 1 == comps.len();
        if last {
            let stem = comp.strip_suffix(".rs").unwrap_or(comp);
            if !matches!(stem, "lib" | "main" | "mod") {
                parts.push(stem.to_string());
            }
        } else if comp != "bin" {
            parts.push(comp.clone());
        }
    }
    parts.join("::")
}

/// Parse one source file.  Lex errors become a pseudo-item-free file
/// with the error recorded by the caller (via the returned Result).
pub fn parse_file(
    path: &Path,
    crate_name: &str,
    module: &str,
    text: &str,
) -> Result<SourceFile, crate::lexer::LexError> {
    let lexed = lex(text)?;
    let mut items = Vec::new();
    let mut test_spans = Vec::new();
    parse_items(&lexed.toks, module, &mut items, &mut test_spans);
    Ok(SourceFile {
        path: path.to_path_buf(),
        crate_name: crate_name.to_string(),
        module: module.to_string(),
        toks: lexed.toks,
        directives: lexed.directives,
        items,
        test_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        parse_file(Path::new("x.rs"), "demo", "demo", src).unwrap()
    }

    #[test]
    fn struct_fields_with_types() {
        let f = parse("pub struct Pool { inner: Arc<Mutex<PoolInner<R>>>, n: usize }");
        let ItemKind::Struct { fields } = &f.items[0].kind else {
            panic!("not a struct: {:?}", f.items)
        };
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].name, "inner");
        assert!(fields[0].ty.contains("Mutex<"), "{}", fields[0].ty);
        assert_eq!(fields[1].ty, "usize");
    }

    #[test]
    fn tuple_struct_fields_are_numbered() {
        let f = parse("pub struct Clock(Arc<Mutex<ClockState>>);");
        let ItemKind::Struct { fields } = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(fields[0].name, "0");
        assert!(fields[0].ty.contains("Mutex<"));
    }

    #[test]
    fn enum_variants_with_payloads() {
        let f = parse(
            "pub enum Msg { Stage { seq: u64, last: bool }, Ack(u64), Done, Code = 3 }",
        );
        let ItemKind::Enum { variants } = &f.items[0].kind else {
            panic!()
        };
        assert_eq!(variants, &["Stage", "Ack", "Done", "Code"]);
    }

    #[test]
    fn impl_methods_get_type_context() {
        let f = parse("impl<R: Record> BufferPool<R> { fn lock(&self) -> MutexGuard<'_, PoolInner<R>> { self.inner.lock() } }");
        let m = f.items.iter().find(|i| i.name == "lock").unwrap();
        assert_eq!(m.impl_of.as_deref(), Some("BufferPool"));
        let ItemKind::Fn { ret, body } = &m.kind else {
            panic!()
        };
        assert!(ret.contains("MutexGuard"), "{ret}");
        assert!(body.is_some());
    }

    #[test]
    fn trait_impl_uses_the_self_type() {
        let f = parse("impl fmt::Display for Finding { fn fmt(&self) {} }");
        let m = f.items.iter().find(|i| i.name == "fmt").unwrap();
        assert_eq!(m.impl_of.as_deref(), Some("Finding"));
    }

    #[test]
    fn cfg_test_mod_masks_its_extent() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  const S: &str = \"}\";\n  fn t() { x.unwrap(); }\n}\nfn live2() {}";
        let f = parse(src);
        let live2 = f.items.iter().find(|i| i.name == "live2").unwrap();
        assert!(!live2.is_test, "brace in test-mod string broke masking");
        let t = f.items.iter().find(|i| i.name == "t").unwrap();
        assert!(t.is_test);
        assert!(f.is_test_tok(t.extent.0));
        assert!(!f.is_test_tok(live2.extent.0));
    }

    #[test]
    fn attrs_are_normalized() {
        let f = parse("#[srmlint::worker_entry]\n#[non_exhaustive]\npub enum FooError { A }");
        assert!(f.items[0].has_attr("srmlint::worker_entry"));
        assert!(f.items[0].has_attr("non_exhaustive"));
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_of("pdisk", Path::new("lib.rs")), "pdisk");
        assert_eq!(module_of("srm-dist", Path::new("net.rs")), "srm_dist::net");
        assert_eq!(module_of("pdisk", Path::new("sub/mod.rs")), "pdisk::sub");
        assert_eq!(module_of("pdisk", Path::new("sub/x.rs")), "pdisk::sub::x");
    }

    #[test]
    fn nested_mod_extends_module_path() {
        let f = parse("mod inner { pub fn g() {} }");
        let g = f.items.iter().find(|i| i.name == "g").unwrap();
        assert_eq!(g.module, "demo::inner");
    }

    #[test]
    fn free_fn_return_type_with_static_mutex() {
        let f = parse("fn open_dirs() -> &'static Mutex<BTreeSet<PathBuf>> { todo!() }");
        let ItemKind::Fn { ret, .. } = &f.items[0].kind else {
            panic!()
        };
        assert!(ret.contains("Mutex<"), "{ret}");
    }
}

