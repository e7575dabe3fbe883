//! `srmlint` — the workspace's concurrency & protocol static analyzer.
//!
//! Parses every crate's sources into a lightweight syntax/scope model
//! ([`model`], on the lexer in [`lexer`]) and runs cross-crate passes:
//!
//! - [`protocol`] — every dispatch `match` over a
//!   `#[srmlint::protocol]` enum (`Msg`, `Request`) names every
//!   variant; no `_ =>` swallowing a message kind.
//! - [`blocking`] — no `std::io`/channel-blocking calls reachable from
//!   `#[srmlint::worker_entry]` threads outside blessed seams.
//! - [`interrupt`] — every path observing `InterruptFlag` checkpoints
//!   before returning `Interrupted`.
//! - [`legacy`] — the original line-scanner rules (`cast`,
//!   `non-exhaustive`, `backend`), re-based onto the lexer so string
//!   literals can no longer desynchronize them; plus the `unsafe`
//!   crate-root rule here.
//!
//! Locks have no pass: the workspace's one lock rule — a thread never
//! acquires a lock while it holds one — is enforced at run time by the
//! lock type, `pdisk::sync::Mutex`, and clippy's `disallowed-types`
//! keeps every lock that type.  Panics in library code are clippy's
//! too (`unwrap_used`, `expect_used`, `panic` and kin, denied at each
//! library crate's root).
//!
//! This package's binary is the one entry point: `cargo xtask lint` is
//! an alias for `cargo run -q -p srmlint --` (see `main.rs` for the rule
//! catalogue).

#![forbid(unsafe_code)]
// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod blocking;
pub mod calls;
pub mod interrupt;
pub mod legacy;
pub mod lexer;
pub mod model;
pub mod protocol;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding, printed as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: PathBuf,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A finished analysis.
pub struct Analysis {
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed.
    pub files: usize,
    /// Every `#[srmlint::worker_entry]` function found, as
    /// `module::name` — the roots the blocking and interrupt passes
    /// patrol.  Tests pin this list so a new thread spawn site cannot
    /// silently escape coverage.
    pub worker_entries: Vec<String>,
}

/// Analyze the workspace rooted at `root` (its `crates/*/src` trees).
pub fn analyze_workspace(root: &Path) -> Analysis {
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    analyze_crate_dirs(&crate_dirs)
}

/// Analyze an explicit list of crate directories (each containing a
/// `Cargo.toml` and `src/`) — the workspace's, or a violation fixture.
pub fn analyze_crate_dirs(crate_dirs: &[PathBuf]) -> Analysis {
    let mut findings = Vec::new();
    let mut files_parsed: Vec<model::SourceFile> = Vec::new();
    let mut files = 0usize;

    for crate_dir in crate_dirs {
        let crate_name = package_name(crate_dir);
        lint_crate_root(crate_dir, &mut findings);
        let src = crate_dir.join("src");
        let mut sources = Vec::new();
        collect_rs_files(&src, &mut sources);
        sources.sort();
        for path in sources {
            let Ok(text) = std::fs::read_to_string(&path) else {
                findings.push(Finding {
                    path: path.clone(),
                    line: 0,
                    rule: "io",
                    message: "source file is unreadable".into(),
                });
                continue;
            };
            files += 1;
            let rel = path.strip_prefix(&src).unwrap_or(&path);
            let module = model::module_of(&crate_name, rel);
            match model::parse_file(&path, &crate_name, &module, &text) {
                Ok(sf) => files_parsed.push(sf),
                Err(e) => findings.push(Finding {
                    path: path.clone(),
                    line: e.line,
                    rule: "parse",
                    message: format!("cannot lex source file: {e}"),
                }),
            }
        }
    }

    for f in &files_parsed {
        legacy::run(f, &mut findings);
    }
    let idx = calls::Index::build(&files_parsed);
    protocol::run(&files_parsed, &idx, &mut findings);
    blocking::run(&idx, &mut findings);
    interrupt::run(&idx, &mut findings);
    let mut worker_entries: Vec<String> = idx
        .all_fns()
        .filter(|&id| idx.item(id).has_attr("srmlint::worker_entry"))
        .map(|id| {
            let it = idx.item(id);
            format!("{}::{}", it.module, it.name)
        })
        .collect();
    worker_entries.sort();
    worker_entries.dedup();

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule))
    });
    Analysis {
        findings,
        files,
        worker_entries,
    }
}

/// The `package.name` from a crate's `Cargo.toml` (fallback: dir name).
fn package_name(crate_dir: &Path) -> String {
    let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml")).unwrap_or_default();
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return rest.trim().trim_matches('"').to_string();
                }
            }
        }
    }
    crate_dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Rule `unsafe`: the crate root (lib.rs, else main.rs) must carry
/// `#![forbid(unsafe_code)]`.
fn lint_crate_root(crate_dir: &Path, findings: &mut Vec<Finding>) {
    let root = ["lib.rs", "main.rs"]
        .iter()
        .map(|f| crate_dir.join("src").join(f))
        .find(|p| p.is_file());
    let Some(root) = root else {
        findings.push(Finding {
            path: crate_dir.to_path_buf(),
            line: 0,
            rule: "unsafe",
            message: "crate has no src/lib.rs or src/main.rs".into(),
        });
        return;
    };
    let text = std::fs::read_to_string(&root).unwrap_or_default();
    if !text.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            path: root,
            line: 1,
            rule: "unsafe",
            message: "crate root is missing #![forbid(unsafe_code)]".into(),
        });
    }
}

/// Render findings with paths relative to `root` (stable across
/// checkouts), in-place.
pub fn relativize(findings: &mut [Finding], root: &Path) {
    for f in findings {
        if let Ok(rel) = f.path.strip_prefix(root) {
            f.path = rel.to_path_buf();
        }
    }
}
