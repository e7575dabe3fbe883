//! Every error variant the engines can surface must render a
//! non-empty, stable `Display` line: the server's wire protocol, the
//! CLI, and the test assertions all grep these strings, so a variant
//! silently rendering empty (or drifting) breaks failure reporting in
//! ways nothing else tests.

use pdisk::{Geometry, MemDiskArray, PdiskError, U64Record};
use srm_core::sort::write_unsorted_input;
use srm_core::{EngineKind, SortManifest, SrmError, SrmSorter};
use srm_server::{decode_run, JobError};

fn pdisk_io() -> PdiskError {
    PdiskError::BadGeometry("D = 0".into())
}

/// Render, assert non-empty, and assert the stable marker substring.
fn check(err: &dyn std::fmt::Display, marker: &str) {
    let s = err.to_string();
    assert!(!s.is_empty(), "Display must be non-empty (marker {marker:?})");
    assert!(
        s.contains(marker),
        "Display {s:?} lost its stable marker {marker:?}"
    );
}

#[test]
fn every_srm_error_variant_renders() {
    let cases: Vec<(SrmError, &str)> = vec![
        (SrmError::Disk(pdisk_io()), "disk error"),
        (SrmError::Config("r too big".into()), "configuration error"),
        (SrmError::Checkpoint("torn manifest".into()), "checkpoint error"),
        (SrmError::Internal("lemma 1".into()), "internal invariant violated"),
        (SrmError::Interrupted, "interrupted at a pass boundary"),
    ];
    for (err, marker) in &cases {
        check(err, marker);
    }
}

/// DSM shares SRM's error vocabulary; what it adds are three refusals:
/// an array of more than one disk, the retired engine's manifest, and
/// its staged-input descriptor.
#[test]
fn every_dsm_error_variant_renders() {
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(Geometry::new(2, 4, 96).unwrap());
    let input = write_unsorted_input(&mut a, &[U64Record(2), U64Record(1)]).unwrap();
    let wide_only = SrmSorter::default().with_engine(EngineKind::Dsm).sort(&mut a, &input).unwrap_err();
    check(&wide_only, "configuration error");
    check(&wide_only, "one wide disk");
    let old_manifest = SortManifest::parse("dsm-sort-manifest v1\nalgo dsm\nchecksum 0\n").unwrap_err();
    check(&old_manifest, "checkpoint error");
    check(&decode_run("logical 0 4 32").unwrap_err(), "checkpoint error");
}

#[test]
fn every_job_error_variant_renders() {
    let cases: Vec<(JobError, &str)> = vec![
        (JobError::Disk(pdisk_io()), "disk error"),
        (JobError::Config("records = 0".into()), "job configuration error"),
        (JobError::Checkpoint("stale epoch".into()), "checkpoint error"),
        (JobError::Interrupted, "interrupted at a pass boundary"),
        (JobError::Engine("queue underflow".into()), "engine invariant violated"),
        (JobError::Io("spec unreadable".into()), "i/o error"),
        (JobError::Model("two blocks on disk 3".into()), "model-rule violation"),
    ];
    for (err, marker) in &cases {
        check(err, marker);
    }
}

/// The `Interrupted` renderings must keep promising that the
/// checkpoint landed first — resumability is the contract PR 5/6
/// tests and operators rely on.
#[test]
fn interrupted_renderings_promise_a_checkpoint() {
    for s in [
        SrmError::Interrupted.to_string(),
        JobError::Interrupted.to_string(),
    ] {
        assert!(s.contains("checkpoint journaled"), "{s:?}");
    }
}

/// ISSUE-10 additions to the fault taxonomy: ENOSPC and failed
/// durability barriers render with their stable slugs (`no-space`,
/// `sync`) — the chaos oracle, the server protocol's `code=` field, and
/// the retry-classification audit all grep them.
#[test]
fn no_space_and_sync_faults_render_with_stable_slugs() {
    use pdisk::{DiskId, FaultKind, FaultOp};
    let cases: Vec<(PdiskError, &[&str])> = vec![
        (
            PdiskError::Fault {
                kind: FaultKind::NoSpace,
                op: FaultOp::Write,
                disk: Some(DiskId(2)),
            },
            &["no-space", "disk 2", "write"],
        ),
        (
            PdiskError::Fault {
                kind: FaultKind::NoSpace,
                op: FaultOp::Alloc,
                disk: None,
            },
            &["no-space", "alloc"],
        ),
        (
            PdiskError::Fault {
                kind: FaultKind::Transient,
                op: FaultOp::Sync,
                disk: Some(DiskId(0)),
            },
            &["sync", "disk 0"],
        ),
        (
            PdiskError::RetriesExhausted {
                attempts: 6,
                last: Box::new(PdiskError::Fault {
                    kind: FaultKind::Transient,
                    op: FaultOp::Read,
                    disk: Some(DiskId(1)),
                }),
            },
            &["gave up after 6 attempts", "transient fault on disk 1"],
        ),
    ];
    for (err, markers) in &cases {
        for marker in *markers {
            check(err, marker);
        }
    }
}

#[test]
fn submit_no_space_renders_actionably() {
    use srm_server::SubmitError;
    let err = SubmitError::NoSpace("injected ENOSPC on job store /tmp/jobs".into());
    check(&err, "out of space");
    check(&err, "free space and resubmit");
    // And the wire protocol maps it to the stable machine-readable code
    // the chaos server target and `srm client` both match on.
    assert!(srm_server::protocol::submit_error_line(&err).starts_with("ERR code=no-space "));
}

#[test]
fn every_chaos_error_and_violation_renders() {
    use srm_chaos::{ChaosError, Violation};
    let errors: Vec<(ChaosError, &str)> = vec![
        (ChaosError::Io("spawn failed".into()), "chaos harness I/O error"),
        (ChaosError::Parse("bad json".into()), "cannot parse reproducer artifact"),
        (ChaosError::BadArtifact("version 9".into()), "unusable reproducer artifact"),
        (ChaosError::Config("no server bin".into()), "chaos config error"),
    ];
    for (err, marker) in &errors {
        check(err, marker);
    }
    // Violations render human text, and their codes (which the minimizer
    // and --expect-violation compare) are stable slugs.
    let violations: Vec<(Violation, &str, &str)> = vec![
        (Violation::DigestMismatch { got: 1, want: 2 }, "digest mismatch", "digest-mismatch"),
        (Violation::ModelViolation("two blocks".into()), "model violation", "model-violation"),
        (Violation::UnexpectedError("EIO".into()), "unexpected error", "unexpected-error"),
        (Violation::Wedged { attempts: 9 }, "no progress after 9", "wedged"),
        (Violation::LeakedFiles("sort.manifest".into()), "leaked files", "leaked-files"),
        (Violation::Panicked("overflow".into()), "panicked", "panic"),
    ];
    for (v, marker, code) in &violations {
        check(v, marker);
        assert_eq!(v.code(), *code, "stable violation code");
    }
}
