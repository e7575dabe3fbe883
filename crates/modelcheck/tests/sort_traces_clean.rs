//! End-to-end guarantee: full SRM and DSM sorts — healthy, transiently
//! faulty, parity-protected, degraded by a permanent disk death, and
//! resumed from a checkpoint — produce traces with **zero** model-rule
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
        .sort_checkpointed(&mut a, &input, &manifest)
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

#[test]
fn dsm_healthy_and_parity_sorts_are_checker_clean() {
    use dsm::{write_unsorted_stripes, DsmSorter};
    let geom = Geometry::new(3, 4, 120).unwrap();
    let data = random_records(3000, 0xA7);

    let mut plain = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
    let input = write_unsorted_stripes(&mut plain, &data).unwrap();
    DsmSorter::default().sort(&mut plain, &input).unwrap();
    let trace = plain.take_trace();
    let summary = check_trace(geom, &trace).unwrap_or_else(|v| panic!("dsm violation: {v}"));
    assert!(summary.reads > 100, "{summary:?}");
    check_stats(&trace, &plain.stats()).unwrap_or_else(|v| panic!("dsm stats drift: {v}"));

    let parity = ParityDiskArray::new(MemDiskArray::<U64Record>::new(geom)).unwrap();
    let mut under_parity = TracingDiskArray::new(parity);
    let input = write_unsorted_stripes(&mut under_parity, &data).unwrap();
    DsmSorter::default().sort(&mut under_parity, &input).unwrap();
    let trace = under_parity.take_trace();
    let summary =
        check_trace(geom, &trace).unwrap_or_else(|v| panic!("dsm parity violation: {v}"));
    assert!(summary.parity_commits > 0, "{summary:?}");
    check_stats(&trace, &under_parity.stats())
        .unwrap_or_else(|v| panic!("dsm parity stats drift: {v}"));
}
