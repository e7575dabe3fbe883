//! The analyzer must reject the intentional-violation fixtures with
//! file:line precision — and must hold the real workspace clean.
//!
//! The fixture crates under `tests/fixtures/` are never compiled
//! (their empty `[workspace]` tables detach them, and cargo ignores
//! directories under `tests/`); srmlint parses their sources directly.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// 1-based line of the first source line containing `marker`.
fn line_of(path: &Path, marker: &str) -> u32 {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .position(|l| l.contains(marker))
        .map(|i| (i + 1) as u32)
        .unwrap_or_else(|| panic!("marker {marker:?} not found in {}", path.display()))
}

#[test]
fn unhandled_variant_fixture_is_rejected_at_the_match() {
    let dir = fixture("unhandled_variant");
    let analysis = srmlint::analyze_crate_dirs(std::slice::from_ref(&dir));

    let protocol: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "protocol")
        .collect();
    assert_eq!(
        protocol.len(),
        1,
        "expected exactly one protocol finding, got: {:#?}",
        analysis.findings
    );
    let f = protocol[0];
    let lib = dir.join("src/lib.rs");
    assert_eq!(f.path, lib);
    assert_eq!(
        f.line,
        line_of(&lib, "_ => 0"),
        "finding must point at the catch-all arm"
    );
    assert!(
        f.message.contains("Bye"),
        "the swallowed variant must be named: {}",
        f.message
    );
}

#[test]
fn condvar_wait_outside_the_blessed_seam_is_rejected() {
    let dir = fixture("condvar_wait");
    let analysis = srmlint::analyze_crate_dirs(std::slice::from_ref(&dir));
    let lib = dir.join("src/lib.rs");
    let blocking: Vec<(u32, &str)> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "blocking")
        .map(|f| (f.line, f.message.as_str()))
        .collect();
    // The queue wait in `next_job` and the wrapper's own `Condvar::wait`
    // sit in blessed seams; the two helpers the worker also reaches do not.
    let linger = line_of(&lib, "// unblessed wait");
    let dawdle = line_of(&lib, "// unblessed guard wait");
    assert_eq!(
        blocking.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
        [linger, dawdle],
        "findings: {blocking:#?}"
    );
    assert!(blocking[0].1.contains("`wait` in `linger`") && blocking[0].1.contains("`run`"));
    assert!(blocking[1].1.contains("`wait` in `dawdle`"));
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap();
    let analysis = srmlint::analyze_workspace(&root);
    assert!(
        analysis.findings.is_empty(),
        "workspace must lint clean: {:#?}",
        analysis.findings
    );
    // Every thread-spawning site is a known worker entry, so the
    // blocking and interrupt passes patrol it: the per-disk I/O
    // workers and the Merge Path segment workers.
    for entry in [
        "pdisk::file::spawn_worker",
        "srm_core::merge_path::merge_segment",
    ] {
        assert!(
            analysis.worker_entries.iter().any(|e| e == entry),
            "expected worker entry `{entry}`: {:?}",
            analysis.worker_entries
        );
    }
}
