//! The original line-scanner lint rules, re-based onto the lexer and
//! item model.  Semantics are preserved — same rule names, messages,
//! and `// lint:allow(...)` suppression markers — but the scan now
//! runs on real tokens, so string literals (raw, multi-line, braces
//! inside) and comments can no longer produce false positives or
//! desynchronize the `#[cfg(test)]` masking.
//!
//! 1. `no-panic` — panic-free crates' non-test code must not call
//!    `.unwrap()` / `.expect(...)` / `panic!` / `unreachable!` /
//!    `todo!` / `unimplemented!`.
//! 2. `cast` — no `as` narrowing inside a `DiskId(...)` construction.
//! 3. `non-exhaustive` — public `*Error` enums carry
//!    `#[non_exhaustive]` (test code included: a public enum in a test
//!    cfg is still API of that cfg).
//! 4. `backend` — trait-only crates must not name a concrete
//!    `DiskArray` backend in non-test code.
//!
//! (Rule 5, `unsafe` — crate roots carry `#![forbid(unsafe_code)]` —
//! stays a per-crate file check in `lib.rs`.)

use crate::lexer::TokKind;
use crate::model::{ItemKind, SourceFile};
use crate::Finding;

/// Crates whose non-test code must be panic-free (rule `no-panic`).
/// Binaries (`srm-cli`) and the benchmark harness may abort on
/// their own errors; libraries must propagate typed ones.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "pdisk",
    "srm-core",
    "dsm",
    "occupancy",
    "analysis",
    "modelcheck",
    "srm-server",
    "srm-dist",
    "srmlint",
    "srmlint-macros",
];

/// Crates that must not name a concrete storage backend (rule `backend`).
pub const TRAIT_ONLY_CRATES: &[&str] = &["srm-core", "dsm"];

pub fn run(f: &SourceFile, findings: &mut Vec<Finding>) {
    let panic_free = PANIC_FREE_CRATES.contains(&f.crate_name.as_str());
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
        let prev_is_dot = i > 0 && matches!(toks[i - 1].kind, TokKind::Punct('.'));

        if panic_free && !f.has_directive(line, "lint:allow(panic)") {
            let needle = match name.as_str() {
                "unwrap" if prev_is_dot && next_is(1, '(') && next_is(2, ')') => Some(".unwrap()"),
                "expect" if prev_is_dot && next_is(1, '(') => Some(".expect("),
                "panic" if next_is(1, '!') => Some("panic!"),
                "unreachable" if next_is(1, '!') => Some("unreachable!"),
                "todo" if next_is(1, '!') && next_is(2, '(') => Some("todo!("),
                "unimplemented" if next_is(1, '!') && next_is(2, '(') => Some("unimplemented!("),
                _ => None,
            };
            if let Some(needle) = needle {
                findings.push(Finding {
                    path: f.path.clone(),
                    line,
                    rule: "no-panic",
                    message: format!(
                        "`{needle}` in library non-test code; return the crate's \
                         typed error (or justify with `// lint:allow(panic)`)"
                    ),
                });
            }
        }

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
