//! Call-site extraction and name resolution over the item model.
//!
//! Resolution is deliberately *syntactic*: a call is bound to a
//! workspace function when the receiver shape makes the target
//! unambiguous (`self.m()`, `Type::f()`, `self.field.m()` via the
//! field's declared type, `helper().m()` via the helper's return
//! type).  A method call on an arbitrary expression resolves only if
//! its name is unique among all workspace functions — anything looser
//! would invent call edges through `std` methods that happen to share
//! a name.

use crate::model::{Item, ItemKind, SourceFile};
use std::collections::BTreeMap;

/// Identifies a fn item: index of (file, item) in the workspace.
pub type FnId = (usize, usize);

/// The receiver shape of a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `self.name(...)`.
    SelfMethod(String),
    /// `self.field.name(...)` (or `self.0.name(...)`).
    FieldMethod { field: String, name: String },
    /// `helper(...).name(...)` — method on the result of a free call.
    CallResultMethod { helper: String, name: String },
    /// `Qual::name(...)` — `Qual` is the last path segment before the fn.
    Path { qual: String, name: String },
    /// `name(...)` with no qualifier.
    Free(String),
    /// `expr.name(...)` with an unrecognized receiver.
    Method(String),
}

impl Callee {
    pub fn name(&self) -> &str {
        match self {
            Callee::SelfMethod(n)
            | Callee::Free(n)
            | Callee::Method(n)
            | Callee::FieldMethod { name: n, .. }
            | Callee::CallResultMethod { name: n, .. }
            | Callee::Path { name: n, .. } => n,
        }
    }
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the called name.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    pub callee: Callee,
}

const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "as", "fn", "move", "let", "else",
    "break", "continue", "where", "unsafe", "async", "dyn", "impl", "ref", "mut", "box", "await",
];

/// Extract every call site in `body` (a token range of `file`).
/// Macro invocations (`name!(...)`) are not calls and are skipped by
/// construction (the `!` sits between the name and the parenthesis).
pub fn call_sites(file: &SourceFile, body: (usize, usize)) -> Vec<CallSite> {
    use crate::lexer::TokKind::*;
    let toks = &file.toks;
    let (start, end) = body;
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        let Ident(name) = &toks[i].kind else {
            continue;
        };
        if NOT_CALLS.contains(&name.as_str()) {
            continue;
        }
        if !matches!(toks.get(i + 1).map(|t| &t.kind), Some(Punct('('))) {
            continue;
        }
        let callee = if i >= 1 && matches!(toks[i - 1].kind, Punct('.')) {
            // Method call: classify the receiver.
            match (i >= 2).then(|| &toks[i - 2].kind) {
                Some(Ident(r)) if r == "self" => Callee::SelfMethod(name.clone()),
                Some(Ident(f)) | Some(Num(f))
                    if i >= 4
                        && matches!(toks[i - 3].kind, Punct('.'))
                        && matches!(&toks[i - 4].kind, Ident(s) if s == "self") =>
                {
                    Callee::FieldMethod {
                        field: f.clone(),
                        name: name.clone(),
                    }
                }
                Some(Punct(')')) => {
                    // `helper().name(` — walk back over the balanced
                    // parens to the helper's name.
                    let mut depth = 0i32;
                    let mut j = i - 2;
                    let helper = loop {
                        match &toks[j].kind {
                            Punct(')') => depth += 1,
                            Punct('(') => {
                                depth -= 1;
                                if depth == 0 {
                                    break match (j >= 1).then(|| &toks[j - 1].kind) {
                                        Some(Ident(h)) => Some(h.clone()),
                                        _ => None,
                                    };
                                }
                            }
                            _ => {}
                        }
                        if j == 0 {
                            break None;
                        }
                        j -= 1;
                    };
                    match helper {
                        Some(h) => Callee::CallResultMethod {
                            helper: h,
                            name: name.clone(),
                        },
                        None => Callee::Method(name.clone()),
                    }
                }
                _ => Callee::Method(name.clone()),
            }
        } else if i >= 2
            && matches!(toks[i - 1].kind, Punct(':'))
            && matches!(toks[i - 2].kind, Punct(':'))
        {
            match (i >= 3).then(|| &toks[i - 3].kind) {
                Some(Ident(q)) => Callee::Path {
                    qual: q.clone(),
                    name: name.clone(),
                },
                _ => Callee::Free(name.clone()),
            }
        } else {
            Callee::Free(name.clone())
        };
        out.push(CallSite {
            tok: i,
            line: toks[i].line,
            callee,
        });
    }
    out
}

/// Cross-file index of fn items, struct fields, and enums.
pub struct Index<'a> {
    pub files: &'a [SourceFile],
    /// (impl-type or "", fn name) → fn ids.  Free fns use "".
    fns: BTreeMap<(String, String), Vec<FnId>>,
    /// fn name → all fn ids with that name (methods and free).
    by_name: BTreeMap<String, Vec<FnId>>,
    /// struct name → (file idx, item idx).
    structs: BTreeMap<String, Vec<(usize, usize)>>,
}

impl<'a> Index<'a> {
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut fns: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut structs: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (ii, it) in f.items.iter().enumerate() {
                match &it.kind {
                    ItemKind::Fn { .. } => {
                        let key = (
                            it.impl_of.clone().unwrap_or_default(),
                            it.name.clone(),
                        );
                        fns.entry(key).or_default().push((fi, ii));
                        by_name.entry(it.name.clone()).or_default().push((fi, ii));
                    }
                    ItemKind::Struct { .. } => {
                        structs.entry(it.name.clone()).or_default().push((fi, ii));
                    }
                    _ => {}
                }
            }
        }
        Index {
            files,
            fns,
            by_name,
            structs,
        }
    }

    pub fn item(&self, id: FnId) -> &Item {
        &self.files[id.0].items[id.1]
    }

    pub fn file(&self, id: FnId) -> &SourceFile {
        &self.files[id.0]
    }

    /// All fn items, with their ids.
    pub fn all_fns(&self) -> impl Iterator<Item = FnId> + '_ {
        self.by_name.values().flatten().copied()
    }

    /// Fns named `name` (any impl context).
    pub fn fns_named(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Fns named `name` in impl context `ty` ("" = free).
    pub fn fns_in(&self, ty: &str, name: &str) -> &[FnId] {
        self.fns
            .get(&(ty.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The declared type text of `Struct.field`, if the struct is known.
    pub fn field_ty(&self, strukt: &str, field: &str) -> Option<&str> {
        for &(fi, ii) in self.structs.get(strukt)? {
            if let ItemKind::Struct { fields } = &self.files[fi].items[ii].kind {
                if let Some(f) = fields.iter().find(|f| f.name == field) {
                    return Some(&f.ty);
                }
            }
        }
        None
    }

    /// Strict resolution of one call to workspace fns.  `ctx_impl` is
    /// the impl-type context of the *calling* fn.  Returns an empty
    /// slice-vec when the target is outside the workspace or ambiguous.
    pub fn resolve(&self, callee: &Callee, ctx_impl: Option<&str>) -> Vec<FnId> {
        match callee {
            Callee::SelfMethod(n) => match ctx_impl {
                Some(ty) => self.fns_in(ty, n).to_vec(),
                None => Vec::new(),
            },
            Callee::Path { qual, name } => {
                let ty = if qual == "Self" {
                    ctx_impl.unwrap_or("")
                } else {
                    qual
                };
                let hits = self.fns_in(ty, name);
                if !hits.is_empty() {
                    return hits.to_vec();
                }
                // `module::free_fn(...)` — the qualifier is a module.
                self.unique_free(name)
            }
            Callee::Free(n) => self.unique_free(n),
            Callee::FieldMethod { field, name } => {
                let Some(ty) = ctx_impl.and_then(|t| self.field_ty(t, field)) else {
                    return Vec::new();
                };
                let lexed = match crate::lexer::lex(ty) {
                    Ok(l) => l,
                    Err(_) => return Vec::new(),
                };
                match crate::model::short_type_name(&lexed.toks) {
                    Some(short) => self.fns_in(&short, name).to_vec(),
                    None => Vec::new(),
                }
            }
            Callee::CallResultMethod { helper, name } => {
                // Resolve the helper, then the method on its return type.
                for id in self.unique_free(helper) {
                    if let ItemKind::Fn { ret, .. } = &self.item(id).kind {
                        if let Ok(l) = crate::lexer::lex(ret) {
                            if let Some(short) = crate::model::short_type_name(&l.toks) {
                                let hits = self.fns_in(&short, name);
                                if !hits.is_empty() {
                                    return hits.to_vec();
                                }
                            }
                        }
                    }
                }
                Vec::new()
            }
            Callee::Method(n) => {
                // Unambiguous-name fallback only.
                let hits = self.fns_named(n);
                if hits.len() == 1 {
                    hits.to_vec()
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn unique_free(&self, name: &str) -> Vec<FnId> {
        let hits = self.fns_in("", name);
        if hits.len() == 1 {
            hits.to_vec()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_file;
    use std::path::Path;

    fn ws(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter()
            .map(|(m, s)| parse_file(Path::new(&format!("{m}.rs")), "demo", m, s).unwrap())
            .collect()
    }

    #[test]
    fn extracts_receiver_shapes() {
        let files = ws(&[(
            "a",
            "impl T { fn f(&self) { self.g(); self.inner.lock(); open_dirs().lock(); Qual::h(); free(); x.other(); } }",
        )]);
        let it = files[0]
            .items
            .iter()
            .find(|i| i.name == "f")
            .unwrap();
        let ItemKind::Fn { body: Some(b), .. } = it.kind else {
            panic!()
        };
        let calls = call_sites(&files[0], b);
        let shapes: Vec<_> = calls.iter().map(|c| c.callee.clone()).collect();
        assert!(shapes.contains(&Callee::SelfMethod("g".into())));
        assert!(shapes.contains(&Callee::FieldMethod {
            field: "inner".into(),
            name: "lock".into()
        }));
        assert!(shapes.contains(&Callee::CallResultMethod {
            helper: "open_dirs".into(),
            name: "lock".into()
        }));
        assert!(shapes.contains(&Callee::Path {
            qual: "Qual".into(),
            name: "h".into()
        }));
        assert!(shapes.contains(&Callee::Free("free".into())));
        assert!(shapes.contains(&Callee::Method("other".into())));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let files = ws(&[("a", "fn f() { if (x) {} println!(\"{x}\"); matches!(x, Y); }")]);
        let it = &files[0].items[0];
        let ItemKind::Fn { body: Some(b), .. } = it.kind else {
            panic!()
        };
        assert!(call_sites(&files[0], b).is_empty());
    }

    #[test]
    fn resolves_through_field_types() {
        let files = ws(&[(
            "a",
            "struct Owner { helper: Helper }\n\
             struct Helper;\n\
             impl Helper { fn work(&self) {} }\n\
             impl Owner { fn go(&self) { self.helper.work(); } }",
        )]);
        let idx = Index::build(&files);
        let hits = idx.resolve(
            &Callee::FieldMethod {
                field: "helper".into(),
                name: "work".into(),
            },
            Some("Owner"),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(idx.item(hits[0]).name, "work");
    }

    #[test]
    fn ambiguous_bare_methods_do_not_resolve() {
        let files = ws(&[(
            "a",
            "impl A { fn run(&self) {} }\nimpl B { fn run(&self) {} }\nfn f() { x.run(); }",
        )]);
        let idx = Index::build(&files);
        assert!(idx.resolve(&Callee::Method("run".into()), None).is_empty());
    }
}
