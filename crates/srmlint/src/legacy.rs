//! The original line-scanner lint rules, re-based onto the lexer and
//! item model.  Semantics are preserved — same rule names, messages,
//! and `// lint:allow(...)` suppression markers — but the scan now
//! runs on real tokens, so string literals (raw, multi-line, braces
//! inside) and comments can no longer produce false positives or
//! desynchronize the `#[cfg(test)]` masking.
//!
//! 1. `cast` — no `as` narrowing inside a `DiskId(...)` construction.
//! 2. `non-exhaustive` — public `*Error` enums carry
//!    `#[non_exhaustive]` (test code included: a public enum in a test
//!    cfg is still API of that cfg).
//! 3. `backend` — trait-only crates must not name a concrete
//!    `DiskArray` backend in non-test code.
//!
//! (Rule 4, `unsafe` — crate roots carry `#![forbid(unsafe_code)]` —
//! stays a per-crate file check in `lib.rs`.  Panics in library code
//! are clippy's: see the library crates' `#![deny(..)]` roots.)

use crate::lexer::TokKind;
use crate::model::{ItemKind, SourceFile};
use crate::Finding;

/// Crates that must not name a concrete storage backend (rule `backend`).
pub const TRAIT_ONLY_CRATES: &[&str] = &["srm-core"];

pub fn run(f: &SourceFile, findings: &mut Vec<Finding>) {
    let trait_only = TRAIT_ONLY_CRATES.contains(&f.crate_name.as_str());

    // Rule `non-exhaustive` — on the item model, test code included.
    for it in &f.items {
        if let ItemKind::Enum { .. } = it.kind {
            if it.is_pub && it.name.ends_with("Error") && !it.has_attr("non_exhaustive") {
                findings.push(Finding {
                    path: f.path.clone(),
                    line: it.line,
                    rule: "non-exhaustive",
                    message: format!(
                        "public error enum `{}` is not #[non_exhaustive]",
                        it.name
                    ),
                });
            }
        }
    }

    // Token rules, skipping test extents.
    let toks = &f.toks;
    for i in 0..toks.len() {
        if f.is_test_tok(i) {
            continue;
        }
        let line = toks[i].line;
        let TokKind::Ident(name) = &toks[i].kind else {
            continue;
        };
        let next_is = |off: usize, c: char| {
            matches!(toks.get(i + off).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
        };

        if name == "DiskId" && next_is(1, '(') && !f.has_directive(line, "lint:allow(cast)") {
            // Look for an `as` inside the balanced argument list.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident(w) if w == "as" && depth >= 1 => {
                        findings.push(Finding {
                            path: f.path.clone(),
                            line,
                            rule: "cast",
                            message: "`as` narrowing inside DiskId construction; use \
                                      DiskId::from_index / DiskId::from_mod"
                                .into(),
                        });
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }

        if trait_only
            && matches!(name.as_str(), "MemDiskArray" | "FileDiskArray")
            && !f.has_directive(line, "lint:allow(backend)")
        {
            findings.push(Finding {
                path: f.path.clone(),
                line,
                rule: "backend",
                message: format!(
                    "algorithm crate names concrete backend `{name}`; stay \
                     generic over DiskArray so no I/O bypasses IoStats"
                ),
            });
        }
    }
}
