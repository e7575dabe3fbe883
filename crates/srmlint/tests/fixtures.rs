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
fn lock_cycle_fixture_is_rejected_with_located_cycle() {
    let dir = fixture("lock_cycle");
    let analysis = srmlint::analyze_crate_dirs(std::slice::from_ref(&dir), None);

    let cycles: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order" && f.message.contains("cycle"))
        .collect();
    assert_eq!(
        cycles.len(),
        1,
        "expected exactly one cycle finding, got: {:#?}",
        analysis.findings
    );
    let f = cycles[0];
    let lib = dir.join("src/lib.rs");
    assert_eq!(f.path, lib, "cycle must be located in the fixture source");
    // Both edges, each with its own file:line, must be named.
    assert!(
        f.message.contains("Pair.a") && f.message.contains("Pair.b"),
        "cycle must name both locks: {}",
        f.message
    );
    let ab = line_of(&lib, "// edge a -> b");
    let ba = line_of(&lib, "// edge b -> a");
    assert!(
        f.message.contains(&format!(":{ab}")) && f.message.contains(&format!(":{ba}")),
        "cycle must cite both acquisition lines {ab} and {ba}: {}",
        f.message
    );
    // The finding itself anchors on one of the two edges.
    assert!(
        f.line == ab || f.line == ba,
        "finding line {} is neither edge site ({ab}/{ba})",
        f.line
    );

    // Both locks made it into the graph verify_witness checks against.
    assert!(analysis.graph.nodes.keys().any(|n| n.ends_with("Pair.a")));
    assert!(analysis.graph.nodes.keys().any(|n| n.ends_with("Pair.b")));
    assert_eq!(analysis.graph.edges.len(), 2);
}

#[test]
fn unhandled_variant_fixture_is_rejected_at_the_match() {
    let dir = fixture("unhandled_variant");
    let analysis = srmlint::analyze_crate_dirs(std::slice::from_ref(&dir), None);

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
    let analysis = srmlint::analyze_crate_dirs(std::slice::from_ref(&dir), None);
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
    let dawdle = line_of(&lib, "// unblessed wait_on");
    assert_eq!(
        blocking.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
        [linger, dawdle],
        "findings: {blocking:#?}"
    );
    assert!(blocking[0].1.contains("`wait` in `linger`") && blocking[0].1.contains("`run`"));
    assert!(blocking[1].1.contains("`wait_on` in `dawdle`"));
}

#[test]
fn witness_log_inconsistent_with_graph_is_rejected() {
    let dir = fixture("lock_cycle");
    let mut analysis = srmlint::analyze_crate_dirs(std::slice::from_ref(&dir), None);
    let node_a = analysis
        .graph
        .nodes
        .keys()
        .find(|n| n.ends_with("Pair.a"))
        .cloned()
        .unwrap();
    let node_b = analysis
        .graph
        .nodes
        .keys()
        .find(|n| n.ends_with("Pair.b"))
        .cloned()
        .unwrap();

    // Consistent log: labels known, order is a static edge.
    let before = analysis.findings.len();
    let good = format!("lock\t{node_a}\nlock\t{node_b}\norder\t{node_a}\t{node_b}\n");
    let report = srmlint::locks::verify_witness(
        &analysis.graph,
        Path::new("good.log"),
        &good,
        &mut analysis.findings,
    );
    assert_eq!(analysis.findings.len(), before, "consistent log must add no findings");
    assert_eq!(report.labels_observed, 2);
    assert_eq!(report.orders_observed, 1);
    assert_eq!(report.unobserved_edges.len(), 1); // b -> a never ran

    // Unknown label and an order with no static edge: two findings.
    let bad = format!("lock\tno::such::Lock\norder\t{node_a}\tno::such::Lock\n");
    srmlint::locks::verify_witness(
        &analysis.graph,
        Path::new("bad.log"),
        &bad,
        &mut analysis.findings,
    );
    let witness: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "witness")
        .collect();
    assert_eq!(witness.len(), 2, "findings: {witness:#?}");
    assert!(witness.iter().any(|f| f.message.contains("does not know")));
    assert!(witness.iter().any(|f| f.message.contains("no static may-hold edge")));
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
    // The concurrency surface the lock pass guards: all of pdisk's,
    // srm-server's, and srm-dist's locks are known nodes.
    for node in [
        "pdisk::pool::BufferPool.inner",
        "pdisk::trace::TraceSink.buf",
        "pdisk::crash::CrashClock.0",
        "pdisk::file::open_dirs",
        "pdisk::queue::DiskQueues.state",
        "pdisk::queue::Completion.slots",
        "srm_dist::net::NetState",
        "srm_server::server::Inner.state",
        "srm_server::server::JobServer.workers",
    ] {
        assert!(
            analysis.graph.nodes.contains_key(node),
            "expected lock node `{node}` in graph: {:?}",
            analysis.graph.nodes
        );
    }
    // The declared leaves really are leaves.
    assert!(analysis.graph.nodes["pdisk::trace::TraceSink.buf"]);
    assert!(analysis.graph.nodes["pdisk::crash::CrashClock.0"]);
    assert!(analysis.graph.nodes["pdisk::queue::DiskQueues.state"]);
    assert!(analysis.graph.nodes["pdisk::queue::Completion.slots"]);
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
