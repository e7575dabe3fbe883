//! `srmlint` — the workspace's one lint binary, invoked as `cargo xtask
//! lint` (the alias in `.cargo/config.toml` runs this package) or
//! directly against an arbitrary checkout:
//!
//! ```text
//! srmlint [lint] [--root DIR] [--verify-witness LOG]
//! ```
//!
//! The leading `lint` word is accepted and ignored, so `cargo xtask lint`
//! reads as it always has.
//!
//! Rules:
//!
//! 1. `no-panic` — panic-free crates' non-test code must not call
//!    `.unwrap()`/`.expect()`/`panic!`/`unreachable!`/`todo!`/
//!    `unimplemented!`; fallible paths return typed errors the
//!    checkpoint/retry layers can act on.
//! 2. `cast` — no `as` narrowing inside a `DiskId(...)` construction;
//!    use the range-proved `DiskId::from_index`/`DiskId::from_mod`.
//! 3. `non-exhaustive` — public `*Error` enums carry `#[non_exhaustive]`.
//! 4. `backend` — algorithm crates stay generic over `DiskArray` so no
//!    I/O bypasses `IoStats`.
//! 5. `unsafe` — every crate root carries `#![forbid(unsafe_code)]`.
//! 6. `lock-order`/`witness` — the inter-procedural may-hold graph is
//!    acyclic, leaf locks stay leaves, and every acquisition site is
//!    wrapped for the runtime lock witness.
//! 7. `protocol` — dispatch matches over `#[srmlint::protocol]` enums
//!    name every variant; no `_ =>` can swallow a message kind.
//! 8. `blocking` — no blocking calls reachable from
//!    `#[srmlint::worker_entry]` threads outside blessed seams.
//! 9. `interrupt` — every observer of `InterruptFlag` checkpoints
//!    before returning `Interrupted`.
//!
//! `--verify-witness LOG` additionally cross-checks a runtime lock-order
//! witness log (recorded by test runs with `--features lock-witness` and
//! `SRM_LOCK_WITNESS=LOG`) against the static graph, and names the static
//! nodes and edges no test exercised.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: srmlint [lint] [--root DIR] [--verify-witness LOG]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut witness: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1).peekable();
    args.next_if_eq("lint");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--verify-witness" => witness = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(default_root);

    let mut analysis = srmlint::analyze_workspace(&root);

    if let Some(log_path) = &witness {
        match std::fs::read_to_string(log_path) {
            Ok(log) => {
                let report = srmlint::locks::verify_witness(
                    &analysis.graph,
                    log_path,
                    &log,
                    &mut analysis.findings,
                );
                println!(
                    "srmlint: witness: {} label(s), {} order(s) observed; static \
                     graph has {} node(s), {} edge(s); {} node(s) and {} edge(s) \
                     unobserved by tests",
                    report.labels_observed,
                    report.orders_observed,
                    report.nodes_static,
                    report.edges_static,
                    report.unobserved_nodes.len(),
                    report.unobserved_edges.len(),
                );
                for n in &report.unobserved_nodes {
                    println!("srmlint: witness: note: static lock `{n}` never observed at runtime");
                }
                for (a, b) in &report.unobserved_edges {
                    println!(
                        "srmlint: witness: note: static may-hold edge `{a}` → `{b}` \
                         never observed at runtime"
                    );
                }
            }
            Err(e) => {
                eprintln!("cannot read witness log {}: {e}", log_path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    srmlint::relativize(&mut analysis.findings, &root);
    for f in &analysis.findings {
        println!("{f}");
    }
    if analysis.findings.is_empty() {
        println!("srmlint: {} files clean", analysis.files);
        ExitCode::SUCCESS
    } else {
        println!(
            "srmlint: {} finding(s) in {} files",
            analysis.findings.len(),
            analysis.files
        );
        ExitCode::FAILURE
    }
}

/// `CARGO_MANIFEST_DIR` is `crates/srmlint`, two levels below the
/// workspace root; fall back to the current directory.
fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.ancestors().nth(2).map(|a| a.to_path_buf()).unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}
