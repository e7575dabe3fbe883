//! Mutation tests for the model checker: take the trace of a *real*
//! parity-protected SRM sort, corrupt exactly one event the way a buggy
//! scheduler or storage layer would, and require `modelcheck` to reject
//! it with the right typed violation at (or provably downstream of) the
//! corrupted event.
//!
//! These are the "does the alarm actually ring" tests.  The clean-trace
//! tests in `crates/modelcheck/tests/` prove the checker accepts correct
//! sorts; these prove it is not accepting them vacuously.

use modelcheck::{check_trace, Violation, ViolationKind};
use pdisk::trace::{Tagged, TraceEvent, TraceFlush, TracingDiskArray};
use pdisk::{DiskId, Geometry, MemDiskArray, ParityDiskArray, U64Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::SrmSorter;
use std::sync::OnceLock;

const D: usize = 4;

/// One checker-clean trace of a flush-heavy parity sort, shared by all
/// mutations (the sort is deterministic, so computing it once is safe).
fn clean_trace() -> &'static (Geometry, Vec<Tagged>) {
    static TRACE: OnceLock<(Geometry, Vec<Tagged>)> = OnceLock::new();
    TRACE.get_or_init(|| {
        let geom = Geometry::new(D, 8, 256).unwrap();
        let parity = ParityDiskArray::new(MemDiskArray::<U64Record>::new(geom)).unwrap();
        let mut a = TracingDiskArray::new(parity);
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        let data: Vec<U64Record> = (0..12_000).map(|_| U64Record(rng.random())).collect();
        let input = write_unsorted_input(&mut a, &data).unwrap();
        SrmSorter::default().sort(&mut a, &input).unwrap();
        let trace = a.take_trace();
        let summary = check_trace(geom, &trace).unwrap_or_else(|v| panic!("not clean: {v}"));
        assert!(
            summary.flushed_blocks > 0,
            "mutations need a trace that exercises rule 2c: {summary:?}"
        );
        (geom, trace)
    })
}

/// Apply `mutate` to the first event it accepts and return the mutated
/// trace plus the seq of the event that was changed.
fn mutate_first(
    trace: &[Tagged],
    mut mutate: impl FnMut(&mut TraceEvent) -> bool,
) -> (Vec<Tagged>, u64) {
    let mut out = trace.to_vec();
    let mut hit = None;
    for e in &mut out {
        if mutate(&mut e.event) {
            hit = Some(e.seq);
            break;
        }
    }
    (out, hit.expect("no event accepted the mutation"))
}

fn expect_violation(geom: Geometry, trace: &[Tagged]) -> Violation {
    match check_trace(geom, trace) {
        Ok(s) => panic!("mutated trace passed the checker: {s:?}"),
        Err(v) => *v,
    }
}

/// Fetching two blocks from one disk in a single parallel I/O breaks
/// the model's defining constraint (one block per disk per op).
#[test]
fn two_blocks_from_one_disk_is_rejected() {
    let (geom, trace) = clean_trace();
    let (mutated, seq) = mutate_first(trace, |e| match e {
        TraceEvent::Read { addrs } if addrs.len() >= 2 => {
            addrs[1].disk = addrs[0].disk;
            true
        }
        _ => false,
    });
    let v = expect_violation(*geom, &mutated);
    assert_eq!(v.seq, seq, "{v}");
    assert!(
        matches!(v.kind, ViolationKind::DuplicateDiskInOp { op: "read", .. }),
        "{v}"
    );
}

/// A scheduler whose internal buffer ledger drifts from the replayed
/// pool contents is over- (or under-) committing its `M/B` budget.
#[test]
fn buffer_ledger_drift_is_rejected() {
    let (geom, trace) = clean_trace();
    let (mutated, seq) = mutate_first(trace, |e| match e {
        TraceEvent::SchedRead { fset_len, .. } => {
            *fset_len += 1;
            true
        }
        _ => false,
    });
    let v = expect_violation(*geom, &mutated);
    assert_eq!(v.seq, seq, "{v}");
    assert!(
        matches!(v.kind, ViolationKind::OccupancyTagMismatch { pool: "M_R", .. }),
        "{v}"
    );
}

/// Rule 2c may only evict blocks that are actually resident in `M_R` —
/// claiming to flush a block that is still being fetched is how a buggy
/// flush picks a non-farthest-future victim.
#[test]
fn flushing_an_unbuffered_block_is_rejected() {
    let (geom, trace) = clean_trace();
    let (mutated, seq) = mutate_first(trace, |e| match e {
        // Flush legality is judged where the read is submitted.
        TraceEvent::ReadSubmit { targets, flushed } if !flushed.is_empty() => {
            // Redirect the flush at one of this very read's fetch
            // targets: a real block, but in flight rather than in M_R.
            let t = &targets[0];
            flushed[0] = TraceFlush {
                run: t.run,
                idx: t.idx,
                key: t.key,
                disk: t.disk,
            };
            true
        }
        _ => false,
    });
    let v = expect_violation(*geom, &mutated);
    assert_eq!(v.seq, seq, "{v}");
    assert!(
        matches!(
            v.kind,
            ViolationKind::FlushedBlockNotBuffered { .. }
                | ViolationKind::FlushNotFarthestFuture { .. }
        ),
        "{v}"
    );
}

/// Rotating parity must place stripe `s`'s parity on disk `s mod D`;
/// anything else colocates data and parity and loses single-failure
/// tolerance.
#[test]
fn misplaced_parity_is_rejected() {
    let (geom, trace) = clean_trace();
    let (mutated, seq) = mutate_first(trace, |e| match e {
        TraceEvent::ParityCommit { parity_disk, .. } => {
            *parity_disk = DiskId::from_mod(u64::from(parity_disk.0) + 1, D);
            true
        }
        _ => false,
    });
    let v = expect_violation(*geom, &mutated);
    assert_eq!(v.seq, seq, "{v}");
    assert!(
        matches!(v.kind, ViolationKind::ParityPlacementMismatch { .. }),
        "{v}"
    );
}

/// Output runs must be written as perfect cyclic stripes from their
/// (randomly drawn) start disk; a run that starts one disk off breaks
/// the write-parallelism guarantee of §3.
#[test]
fn non_striped_output_run_is_rejected() {
    let (geom, trace) = clean_trace();
    let (mutated, start_seq) = mutate_first(trace, |e| match e {
        TraceEvent::RunStart { start_disk } => {
            *start_disk = DiskId::from_mod(u64::from(start_disk.0) + 1, D);
            true
        }
        _ => false,
    });
    let v = expect_violation(*geom, &mutated);
    assert!(v.seq > start_seq, "violation must surface at the run's writes: {v}");
    assert!(
        matches!(v.kind, ViolationKind::RunWriteNotStriped { idx: 0, .. }),
        "{v}"
    );
}

/// A scheduled read is a `ReadSubmit` and then its `SchedRead`: an engine
/// that recorded only the completion (the serial form no engine writes
/// any more) has dropped the event the read's legality is judged at.
#[test]
fn a_sched_read_nothing_submitted_is_rejected() {
    let (geom, trace) = clean_trace();
    let at = trace
        .iter()
        .position(|e| matches!(e.event, TraceEvent::ReadSubmit { .. }))
        .expect("the sort schedules reads");
    let mut mutated = trace.clone();
    mutated.remove(at);
    let v = expect_violation(*geom, &mutated);
    assert_eq!(v.seq, trace[at].seq + 1, "window 0 completes a read where it submits it: {v}");
    assert!(
        matches!(v.kind, ViolationKind::UnexpectedEvent { event: "SchedRead", .. }),
        "{v}"
    );
}
