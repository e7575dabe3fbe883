//! End-to-end guarantee: full SRM sorts — healthy, transiently faulty,
//! parity-protected, degraded by a permanent disk death, and resumed
//! from a checkpoint — and DSM sorts produce traces with **zero** model-rule
//! violations, and their [`pdisk::IoStats`] agree with the trace.
//!
//! These are the repo's "race detector is quiet" tests: every scheduler
//! decision, buffer move, output stripe, and parity placement of a real
//! sort is replayed against the paper's rules.

use modelcheck::{check_stats, check_trace, CheckSummary};
use pdisk::trace::TracingDiskArray;
use pdisk::{
    DiskArray, FaultModel, FaultOp, FaultyDiskArray, Geometry, MemDiskArray,
    ParityDiskArray, RetryPolicy, RetryingDiskArray, U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::{SrmError, SrmSorter};
use std::path::PathBuf;
use std::time::Duration;

fn random_records(n: u64, seed: u64) -> Vec<U64Record> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| U64Record(rng.random())).collect()
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-modelcheck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run an SRM sort on `array` (already wrapped for tracing), check the
/// trace and the stats, and return the summary.
fn sort_and_check<A: DiskArray<U64Record>>(
    array: &mut TracingDiskArray<U64Record, A>,
    data: &[U64Record],
) -> CheckSummary {
    let geom = array.geometry();
    let input = write_unsorted_input(array, data).unwrap();
    let (_, report) = SrmSorter::default().sort(array, &input).unwrap();
    assert!(report.merge_passes >= 1, "need a real multi-pass sort");
    let trace = array.take_trace();
    let summary = check_trace(geom, &trace).unwrap_or_else(|v| panic!("violation: {v}"));
    check_stats(&trace, &array.stats()).unwrap_or_else(|v| panic!("stats drift: {v}"));
    summary
}

#[test]
fn srm_healthy_sort_is_checker_clean() {
    let geom = Geometry::new(2, 4, 96).unwrap();
    let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
    let summary = sort_and_check(&mut a, &random_records(3000, 0xA1));
    // The checker must have judged real work, not vacuously passed.
    assert!(summary.merges >= 10, "{summary:?}");
    assert!(summary.sched_reads > 100, "{summary:?}");
    assert!(summary.depletes > 500, "{summary:?}");
    assert!(summary.runs_written > 10, "{summary:?}");
    assert_eq!(summary.parity_commits, 0);
}

/// The pipelined engine emits the two-event `ReadSubmit`/`SchedRead`
/// protocol; its trace must replay clean, every submit must pair with a
/// completion, and its stats must match the trace — on both the plain
/// and the flush-heavy geometry.
#[test]
fn srm_pipelined_sort_is_checker_clean() {
    for (geom, n, seed) in [
        (Geometry::new(2, 4, 96).unwrap(), 3000u64, 0xB1u64),
        (Geometry::new(4, 8, 256).unwrap(), 12_000, 0xB2),
    ] {
        let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
        let input = write_unsorted_input(&mut a, &random_records(n, seed)).unwrap();
        let (_, report) = SrmSorter::default()
            .with_pipeline(true)
            .sort(&mut a, &input)
            .unwrap();
        assert!(report.merge_passes >= 1, "need a real multi-pass sort");
        let trace = a.take_trace();
        let summary = check_trace(geom, &trace).unwrap_or_else(|v| panic!("violation: {v}"));
        check_stats(&trace, &a.stats()).unwrap_or_else(|v| panic!("stats drift: {v}"));
        assert!(summary.read_submits > 100, "{summary:?}");
        assert_eq!(
            summary.read_submits, summary.sched_reads,
            "every split-phase submit must complete: {summary:?}"
        );
    }
}

/// A wider array at low `k = R/D` pushes occupancy over `R` and forces
/// rule 2c virtual flushes; those must verify too.
#[test]
fn srm_flush_heavy_sort_is_checker_clean() {
    let geom = Geometry::new(4, 8, 256).unwrap();
    let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
    let summary = sort_and_check(&mut a, &random_records(12_000, 0xA2));
    assert!(summary.sched_reads > 100, "{summary:?}");
}

#[test]
fn srm_transient_faults_with_retry_are_checker_clean() {
    let geom = Geometry::new(2, 4, 96).unwrap();
    let faulty = FaultyDiskArray::new(
        MemDiskArray::<U64Record>::new(geom),
        FaultModel::random(7).with_rate(0.01),
    );
    let retrying = RetryingDiskArray::new(faulty, RetryPolicy::new(8, Duration::ZERO));
    let mut a = TracingDiskArray::new(retrying);
    let summary = sort_and_check(&mut a, &random_records(3000, 0xA3));
    assert!(summary.retries > 0, "fault rate 1% must actually retry: {summary:?}");
    assert!(summary.faults > 0, "{summary:?}");
}

#[test]
fn srm_parity_sort_is_checker_clean() {
    let geom = Geometry::new(3, 4, 120).unwrap();
    let parity = ParityDiskArray::new(MemDiskArray::<U64Record>::new(geom)).unwrap();
    let mut a = TracingDiskArray::new(parity);
    let summary = sort_and_check(&mut a, &random_records(3000, 0xA4));
    assert!(summary.parity_commits > 100, "{summary:?}");
    assert_eq!(summary.reconstructs, 0, "healthy parity never reconstructs");
}

#[test]
fn srm_degraded_sort_is_checker_clean() {
    let geom = Geometry::new(3, 4, 120).unwrap();
    // First run a healthy sort to learn a read ordinal to kill at.
    let reads = {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_input(&mut a, &random_records(3000, 0xA5)).unwrap();
        a.reset_stats();
        SrmSorter::default().sort(&mut a, &input).unwrap();
        a.stats().read_ops
    };
    let faulty = FaultyDiskArray::new(
        MemDiskArray::<U64Record>::new(geom),
        FaultModel::none().kill_at(FaultOp::Read, reads / 2),
    );
    let parity = ParityDiskArray::new(faulty).unwrap();
    let mut a = TracingDiskArray::new(parity);
    let summary = sort_and_check(&mut a, &random_records(3000, 0xA5));
    assert!(
        summary.reconstructs > 0,
        "the dead disk's blocks must be served by reconstruction: {summary:?}"
    );
}

/// A sort crashed at a pass boundary and resumed from its checkpoint
/// yields two traces (one per session), each checker-clean, whose
/// concatenation accounts for the array's total I/O.
#[test]
fn srm_checkpoint_resume_is_checker_clean() {
    let geom = Geometry::new(2, 4, 96).unwrap();
    let dir = unique_dir("resume");
    let manifest = dir.join("sort.manifest");
    let data = random_records(3000, 0xA6);
    let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
    let input = write_unsorted_input(&mut a, &data).unwrap();

    // Session 1: crash after merge pass 1 completes.
    let result = SrmSorter::default().sort_observed(&mut a, &input, Some(&manifest), |pass, _| {
        if pass == 1 {
            return Err(SrmError::Internal("simulated crash".into()));
        }
        Ok(())
    });
    assert!(result.is_err(), "session 1 must crash");
    let first = a.take_trace();
    check_trace(geom, &first).unwrap_or_else(|v| panic!("session 1 violation: {v}"));

    // Session 2: resume from the manifest and finish.
    let (_, report) = SrmSorter::default()
        .sort_observed(&mut a, &input, Some(&manifest), |_, _| Ok(()))
        .unwrap();
    assert_eq!(report.merge_passes, 3, "whole-sort pass count");
    let second = a.take_trace();
    let summary = check_trace(geom, &second).unwrap_or_else(|v| panic!("session 2 violation: {v}"));
    assert!(summary.merges > 0, "{summary:?}");

    // Stats cover both sessions; so does the concatenated trace.
    let mut all = first;
    all.extend(second);
    check_stats(&all, &a.stats()).unwrap_or_else(|v| panic!("stats drift: {v}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// DSM is SRM's engine on one wide disk, so the checker sees all of it:
/// scheduled reads, runs written, and a fetch pool cut to what DSM's
/// memory leaves.  At `(D, B, M) = (3, 4, 120)` the disk holds 12-record
/// blocks, `M/B' = 10`, `R_DSM = 4` and `|M_R| = 10 − 4 − 3 − 1 = 2`, not
/// `R + 1 = 5`: every tagged `R + |F| + |M_D| + 2 + ⌈R/B'⌉` must fit
/// `M/B'`, serial and pipelined.
#[test]
fn dsm_sorts_are_checker_clean_within_dsm_memory() {
    use pdisk::trace::TraceEvent;
    use srm_core::EngineKind;
    let wide = Geometry::new(1, 12, 120).unwrap();
    let data = random_records(3000, 0xA7);
    for pipeline in [false, true] {
        let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(wide));
        let input = write_unsorted_input(&mut a, &data).unwrap();
        let dsm = SrmSorter::default()
            .with_engine(EngineKind::Dsm)
            .with_pipeline(pipeline)
            .with_read_ahead(3);
        let (_, report) = dsm.sort(&mut a, &input).unwrap();
        assert_eq!(report.merge_order, 4);
        assert_eq!(report.schedule.flush_ops, 0);
        let trace = a.take_trace();
        let summary = check_trace(wide, &trace).unwrap_or_else(|v| panic!("dsm violation: {v}"));
        assert!(summary.sched_reads > 0 && summary.runs_written > 0, "{summary:?}");
        check_stats(&trace, &a.stats()).unwrap_or_else(|v| panic!("dsm stats drift: {v}"));
        let (mut r, mut peak) = (0, 0);
        for e in &trace {
            match &e.event {
                TraceEvent::MergeBegin { r: order, .. } => r = *order,
                TraceEvent::SchedRead { fset_len, staged_len, .. } => {
                    let held = r + fset_len + staged_len + 2 + r.div_ceil(wide.b);
                    assert!(held <= wide.memory_blocks(), "seq {}: {held} blocks held", e.seq);
                    if r == 4 {
                        peak = peak.max(*fset_len);
                    }
                }
                _ => {}
            }
        }
        assert_eq!(peak, wide.fetch_pool(4), "R_DSM's capped pool is used to the full");
    }
}
