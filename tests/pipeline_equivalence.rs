//! Pipelined-vs-serial equivalence suite: the pipelined engines
//! (split-phase read-ahead / write-behind) must be **observationally
//! identical** to the serial engines everywhere the repo's fault and
//! recovery machinery can see — byte-identical sorted output, identical
//! [`pdisk::IoStats`], and model-checker-clean traces — across healthy,
//! transiently-faulty, parity-protected, degraded (permanent disk
//! death), and checkpoint-resume configurations, on both the in-memory
//! and the file backend.
//!
//! This is the contract that makes pipelining safe to turn on by
//! default: every scripted fault ordinal, parity commit, reconstruction,
//! and checkpoint boundary lands at exactly the same operation in both
//! engines, because the pipelined engine *submits* operations in the
//! serial order and only overlaps their completion.

mod common;

use dsm::{read_logical_run, write_unsorted_stripes, DsmSorter};
use modelcheck::{check_stats, check_trace};
use pdisk::trace::TracingDiskArray;
use pdisk::{
    DiskArray, FaultModel, FaultOp, FaultyDiskArray, FileDiskArray, Geometry, IoStats,
    MemDiskArray, ParityDiskArray, Record, RetryPolicy, RetryingDiskArray, U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, SrmError, SrmSorter};
use std::path::PathBuf;
use std::time::Duration;

fn random_records(n: u64, seed: u64) -> Vec<U64Record> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| U64Record(rng.random())).collect()
}

fn encode_all(records: &[U64Record]) -> Vec<u8> {
    let mut out = vec![0u8; records.len() * U64Record::ENCODED_LEN];
    for (rec, chunk) in records.iter().zip(out.chunks_mut(U64Record::ENCODED_LEN)) {
        rec.encode(chunk);
    }
    out
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-pipeq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a full SRM sort on a freshly built array, replay the trace
/// through the model checker, and return the sorted bytes plus the
/// sort's own [`IoStats`] (snapshotted before the verification read).
fn srm_outcome<A, F>(make: F, data: &[U64Record], pipeline: bool) -> (Vec<u8>, IoStats)
where
    A: DiskArray<U64Record>,
    F: FnOnce() -> A,
{
    let mut a = TracingDiskArray::new(make());
    let geom = a.geometry();
    let input = write_unsorted_input(&mut a, data).unwrap();
    let (run, _) = SrmSorter::default()
        .with_pipeline(pipeline)
        .sort(&mut a, &input)
        .unwrap_or_else(|e| panic!("sort (pipeline={pipeline}) failed: {e}"));
    let stats = a.stats();
    let out = read_run(&mut a, &run).unwrap();
    let trace = a.take_trace();
    check_trace(geom, &trace).unwrap_or_else(|v| panic!("violation (pipeline={pipeline}): {v}"));
    check_stats(&trace, &a.stats())
        .unwrap_or_else(|v| panic!("stats drift (pipeline={pipeline}): {v}"));
    (encode_all(&out), stats)
}

/// The core assertion: serial and pipelined SRM sorts of the same data
/// on identically-constructed arrays agree byte-for-byte and op-for-op.
fn assert_srm_equivalent<A, F>(make: F, data: &[U64Record], tag: &str)
where
    A: DiskArray<U64Record>,
    F: Fn() -> A,
{
    let (serial_out, serial_io) = srm_outcome(&make, data, false);
    let (pipe_out, pipe_io) = srm_outcome(&make, data, true);
    assert_eq!(serial_out, pipe_out, "{tag}: output must be byte-identical");
    assert_eq!(serial_io, pipe_io, "{tag}: IoStats must be identical");
    // Guard against both engines agreeing on a wrong answer.
    let mut sorted = data.to_vec();
    sorted.sort();
    assert_eq!(serial_out, encode_all(&sorted), "{tag}: output must be sorted");
}

#[test]
fn healthy_srm_equivalent() {
    // A deep-merge geometry and a flush-heavy (low k = R/D) geometry, so
    // both the plain-read and the rule-2c paths are exercised.
    assert_srm_equivalent(
        || MemDiskArray::<U64Record>::new(Geometry::new(2, 4, 96).unwrap()),
        &random_records(3000, 0xE1),
        "healthy d=2",
    );
    assert_srm_equivalent(
        || MemDiskArray::<U64Record>::new(Geometry::new(4, 8, 256).unwrap()),
        &random_records(12_000, 0xE2),
        "healthy d=4 flush-heavy",
    );
}

#[test]
fn transient_faults_with_retry_equivalent() {
    // Scripted transient faults hit the same op ordinals in both engines
    // (the pipelined engine submits in serial order), so even the retry
    // counts must agree exactly.
    let geom = Geometry::new(2, 4, 96).unwrap();
    assert_srm_equivalent(
        || {
            let faulty = FaultyDiskArray::new(
                MemDiskArray::<U64Record>::new(geom),
                FaultModel::random(7).with_rate(0.01),
            );
            RetryingDiskArray::new(faulty, RetryPolicy::new(8, Duration::ZERO))
        },
        &random_records(3000, 0xE3),
        "transient faults",
    );
}

#[test]
fn parity_equivalent() {
    let geom = Geometry::new(3, 4, 120).unwrap();
    assert_srm_equivalent(
        || ParityDiskArray::new(MemDiskArray::<U64Record>::new(geom)).unwrap(),
        &random_records(3000, 0xE4),
        "parity",
    );
}

#[test]
fn degraded_equivalent() {
    let geom = Geometry::new(3, 4, 120).unwrap();
    let data = random_records(3000, 0xE5);
    // Learn a mid-sort read ordinal from a clean run to aim the kill.
    let reads = {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_input(&mut a, &data).unwrap();
        a.reset_stats();
        SrmSorter::default().sort(&mut a, &input).unwrap();
        a.stats().read_ops
    };
    assert_srm_equivalent(
        || {
            let faulty = FaultyDiskArray::new(
                MemDiskArray::<U64Record>::new(geom),
                FaultModel::none().kill_at(FaultOp::Read, reads / 2),
            );
            ParityDiskArray::new(faulty).unwrap()
        },
        &data,
        "degraded (disk death mid-sort)",
    );
}

#[test]
fn file_backend_equivalent() {
    // The file backend is the one with *native* async split-phase I/O
    // (per-disk worker threads), so this is where completion genuinely
    // overlaps with merging — and where equivalence is least trivial.
    let geom = Geometry::new(4, 8, 256).unwrap();
    let data = random_records(8000, 0xE6);
    let dir = unique_dir("file");
    let mut outcomes = Vec::new();
    for pipeline in [false, true] {
        let sub = dir.join(if pipeline { "pipe" } else { "serial" });
        outcomes.push(srm_outcome(
            || FileDiskArray::<U64Record>::create(geom, &sub).unwrap(),
            &data,
            pipeline,
        ));
    }
    let (serial, pipe) = (&outcomes[0], &outcomes[1]);
    assert_eq!(serial.0, pipe.0, "file backend: output must be byte-identical");
    assert_eq!(serial.1, pipe.1, "file backend: IoStats must be identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Depth-K read-ahead and multi-threaded run formation are pure
/// wall-clock knobs: on the file backend — the one whose speculative
/// prefetch cache actually acts on the hints — a pipelined sort at
/// depth 8 with 4 formation threads must be byte- and op-identical to
/// the serial engine, and its trace must replay checker-clean.
#[test]
fn deep_read_ahead_and_threads_equivalent() {
    use srm_core::run_formation::RunFormation;
    use srm_core::sort::SrmConfig;

    let geom = Geometry::new(4, 8, 256).unwrap();
    let data = random_records(8000, 0xE9);
    let dir = unique_dir("deep");
    let config = SrmConfig {
        run_formation: RunFormation::ParallelMemoryLoad { fraction: 1.0, threads: 4 },
        ..SrmConfig::default()
    };

    let drive = |pipeline: bool, depth: usize, sub: &str| -> (Vec<u8>, IoStats) {
        let sub = dir.join(sub);
        let mut a = TracingDiskArray::new(FileDiskArray::<U64Record>::create(geom, &sub).unwrap());
        let input = write_unsorted_input(&mut a, &data).unwrap();
        let (run, _) = SrmSorter::new(config)
            .with_pipeline(pipeline)
            .with_read_ahead(depth)
            .sort(&mut a, &input)
            .unwrap_or_else(|e| panic!("sort (pipeline={pipeline} depth={depth}) failed: {e}"));
        let stats = a.stats();
        let out = read_run(&mut a, &run).unwrap();
        let trace = a.take_trace();
        check_trace(geom, &trace)
            .unwrap_or_else(|v| panic!("violation (pipeline={pipeline} depth={depth}): {v}"));
        check_stats(&trace, &a.stats())
            .unwrap_or_else(|v| panic!("stats drift (pipeline={pipeline} depth={depth}): {v}"));
        (encode_all(&out), stats)
    };

    let (serial_out, serial_io) = drive(false, 0, "serial");
    for depth in [1usize, 3, 8] {
        let (deep_out, deep_io) = drive(true, depth, &format!("deep-{depth}"));
        assert_eq!(deep_out, serial_out, "depth {depth}: output must be byte-identical");
        assert_eq!(deep_io, serial_io, "depth {depth}: IoStats must be identical");
    }
    let mut sorted = data.clone();
    sorted.sort();
    assert_eq!(serial_out, encode_all(&sorted), "output must be sorted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stack `srm-cli`, `srm-server` and `srm-dist` build,
/// `Retrying(Parity(Faulty(File)))` with the parity sidecar, under a
/// random transient fault rate: serial and pipelined sorts agree byte for
/// byte and count for count at read-ahead 0 and 3, and every operation
/// the pipelined engine submits is still in flight when the outermost
/// layer hands its ticket up — no wrapper waits inside a submit.
#[test]
fn full_production_stack_equivalent_and_pipelined() {
    let geom = Geometry::new(4, 8, 256).unwrap();
    let data = random_records(8000, 0xEA);
    let dir = unique_dir("stack");

    let drive = |pipeline: bool, depth: usize, sub: &str| -> (Vec<u8>, IoStats, u64, u64) {
        let sub = dir.join(sub);
        let file = FileDiskArray::<U64Record>::create(geom, sub.join("disks")).unwrap();
        let faulty = FaultyDiskArray::new(file, FaultModel::random(0x5EED).with_rate(0.01));
        let parity = ParityDiskArray::new(faulty).unwrap().with_store(sub.join("parity.store")).unwrap();
        let stack = RetryingDiskArray::new(parity, RetryPolicy::new(8, Duration::ZERO));
        let mut a = TracingDiskArray::new(common::Probe::new(stack));
        let input = write_unsorted_input(&mut a, &data).unwrap();
        let (run, _) = SrmSorter::default()
            .with_pipeline(pipeline)
            .with_read_ahead(depth)
            .sort(&mut a, &input)
            .unwrap_or_else(|e| panic!("sort (pipeline={pipeline} depth={depth}) failed: {e}"));
        let stats = a.stats();
        let out = read_run(&mut a, &run).unwrap();
        let trace = a.take_trace();
        check_trace(geom, &trace)
            .unwrap_or_else(|v| panic!("violation (pipeline={pipeline} depth={depth}): {v}"));
        check_stats(&trace, &a.stats())
            .unwrap_or_else(|v| panic!("stats drift (pipeline={pipeline} depth={depth}): {v}"));
        let watch = a.inner();
        (encode_all(&out), stats, watch.tickets, watch.pending)
    };

    let (serial_out, serial_io, serial_tickets, _) = drive(false, 0, "serial");
    assert_eq!(serial_tickets, 0, "the serial engine never splits an operation");
    assert!(serial_io.total_retries() > 0, "the fault rate must bite");
    assert!(serial_io.parity_writes > 0);
    for depth in [0usize, 3] {
        let (out, io, tickets, pending) = drive(true, depth, &format!("pipe-{depth}"));
        assert_eq!(out, serial_out, "depth {depth}: output must be byte-identical");
        assert_eq!(io, serial_io, "depth {depth}: IoStats must be identical");
        assert!(tickets > 0, "depth {depth}: the pipelined engine must split its operations");
        assert_eq!(pending, tickets, "depth {depth}: a wrapper completed an operation inside its submit");
    }
    let mut sorted = data.clone();
    sorted.sort();
    assert_eq!(serial_out, encode_all(&sorted), "output must be sorted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sort that crashes at a pass boundary and resumes from its manifest
/// must agree across engines *per session*: same crash point, same
/// resumed schedule, same final bytes, same combined stats — and every
/// session's trace replays clean.
#[test]
fn checkpoint_resume_equivalent() {
    let geom = Geometry::new(2, 4, 96).unwrap();
    let data = random_records(3000, 0xE7);
    let dir = unique_dir("resume");

    let run = |pipeline: bool| -> (Vec<u8>, IoStats) {
        let manifest = dir.join(format!("pipe-{pipeline}.manifest"));
        let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
        let input = write_unsorted_input(&mut a, &data).unwrap();

        // Session 1: crash after merge pass 1 completes.
        let sorter = SrmSorter::default().with_pipeline(pipeline);
        let crashed = sorter.sort_observed(&mut a, &input, Some(&manifest), |pass, _| {
            if pass == 1 {
                return Err(SrmError::Internal("simulated crash".into()));
            }
            Ok(())
        });
        assert!(crashed.is_err(), "session 1 (pipeline={pipeline}) must crash");
        let first = a.take_trace();
        check_trace(geom, &first)
            .unwrap_or_else(|v| panic!("session 1 violation (pipeline={pipeline}): {v}"));

        // Session 2: resume from the manifest and finish.
        let (run, _) = sorter.sort_checkpointed(&mut a, &input, &manifest).unwrap();
        let stats = a.stats();
        let out = read_run(&mut a, &run).unwrap();
        let second = a.take_trace();
        check_trace(geom, &second)
            .unwrap_or_else(|v| panic!("session 2 violation (pipeline={pipeline}): {v}"));
        let mut all = first;
        all.extend(second);
        check_stats(&all, &a.stats())
            .unwrap_or_else(|v| panic!("stats drift (pipeline={pipeline}): {v}"));
        (encode_all(&out), stats)
    };

    let (serial_out, serial_io) = run(false);
    let (pipe_out, pipe_io) = run(true);
    assert_eq!(serial_out, pipe_out, "resume: output must be byte-identical");
    assert_eq!(serial_io, pipe_io, "resume: combined IoStats must be identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// DSM counterpart of [`srm_outcome`]: sort, model-check the trace,
/// return bytes + pre-verification stats.
fn dsm_outcome<A: DiskArray<U64Record>>(
    inner: A,
    data: &[U64Record],
    pipeline: bool,
) -> (Vec<u8>, IoStats) {
    let mut a = TracingDiskArray::new(inner);
    let geom = a.geometry();
    let input = write_unsorted_stripes(&mut a, data).unwrap();
    let (run, _) = DsmSorter::default().with_pipeline(pipeline).sort(&mut a, &input).unwrap();
    let stats = a.stats();
    let out = read_logical_run(&mut a, &run).unwrap();
    let trace = a.take_trace();
    check_trace(geom, &trace).unwrap_or_else(|v| panic!("dsm violation (pipeline={pipeline}): {v}"));
    check_stats(&trace, &a.stats())
        .unwrap_or_else(|v| panic!("dsm stats drift (pipeline={pipeline}): {v}"));
    (encode_all(&out), stats)
}

#[test]
fn dsm_equivalent() {
    // DSM pipelining (striped-read double-buffering) gets the same
    // contract, healthy and under parity.
    let geom = Geometry::new(3, 4, 120).unwrap();
    let data = random_records(3000, 0xE8);

    let (serial_out, serial_io) = dsm_outcome(MemDiskArray::<U64Record>::new(geom), &data, false);
    let (pipe_out, pipe_io) = dsm_outcome(MemDiskArray::<U64Record>::new(geom), &data, true);
    assert_eq!(serial_out, pipe_out, "dsm healthy: output must be byte-identical");
    assert_eq!(serial_io, pipe_io, "dsm healthy: IoStats must be identical");

    let mk = || ParityDiskArray::new(MemDiskArray::<U64Record>::new(geom)).unwrap();
    let (serial_out, serial_io) = dsm_outcome(mk(), &data, false);
    let (pipe_out, pipe_io) = dsm_outcome(mk(), &data, true);
    assert_eq!(serial_out, pipe_out, "dsm parity: output must be byte-identical");
    assert_eq!(serial_io, pipe_io, "dsm parity: IoStats must be identical");
}
