//! `srmlint` — the workspace's one lint binary, invoked as `cargo xtask
//! lint` (the alias in `.cargo/config.toml` runs this package) or
//! directly against an arbitrary checkout:
//!
//! ```text
//! srmlint [lint] [--root DIR]
//! ```
//!
//! The leading `lint` word is accepted and ignored, so `cargo xtask lint`
//! reads as it always has.
//!
//! Rules:
//!
//! 1. `cast` — no `as` narrowing inside a `DiskId(...)` construction;
//!    use the range-proved `DiskId::from_index`/`DiskId::from_mod`.
//! 2. `non-exhaustive` — public `*Error` enums carry `#[non_exhaustive]`.
//! 3. `backend` — algorithm crates stay generic over `DiskArray` so no
//!    I/O bypasses `IoStats`.
//! 4. `unsafe` — every crate root carries `#![forbid(unsafe_code)]`.
//! 5. `protocol` — dispatch matches over `#[srmlint::protocol]` enums
//!    name every variant; no `_ =>` can swallow a message kind.
//! 6. `blocking` — no blocking calls reachable from
//!    `#[srmlint::worker_entry]` threads outside blessed seams.
//! 7. `interrupt` — every observer of `InterruptFlag` checkpoints
//!    before returning `Interrupted`.
//!
//! What clippy can express is clippy's: library code's panics
//! (`unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`,
//! `unimplemented`, denied at each library crate's root) and locks
//! other than `pdisk::sync::Mutex` (`disallowed-types` in
//! `clippy.toml`).

#![forbid(unsafe_code)]
// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: srmlint [lint] [--root DIR]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1).peekable();
    args.next_if_eq("lint");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
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
