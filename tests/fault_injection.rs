//! Failure-path coverage: when any parallel I/O operation fails, every
//! consumer (both sorters, the merge, run formation) must return an error
//! — no panic, no hang, no silent truncation.

use dsm::{write_unsorted_stripes, DsmError, DsmSorter};
use pdisk::{
    DiskArray, FaultModel, FaultOp, FaultPlan, FaultyDiskArray, FileDiskArray, Geometry,
    MemDiskArray, ParityDiskArray, PdiskError, RetryPolicy, RetryingDiskArray, U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, SrmError, SrmSorter};

fn records(n: u64, seed: u64) -> Vec<U64Record> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| U64Record(rng.random())).collect()
}

fn geom() -> Geometry {
    Geometry::new(2, 4, 96).unwrap()
}

/// How many ops a clean SRM sort of this input performs (to place faults
/// throughout the whole schedule, not just at the start).
fn clean_srm_ops(data: &[U64Record]) -> (u64, u64) {
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let input = write_unsorted_input(&mut a, data).unwrap();
    a.reset_stats();
    let _ = SrmSorter::default().sort(&mut a, &input).unwrap();
    (a.stats().read_ops, a.stats().write_ops)
}

#[test]
fn srm_surfaces_read_failures_everywhere() {
    let data = records(800, 1);
    let (reads, _) = clean_srm_ops(&data);
    // Probe the start, several interior points, and the very last read.
    let probes = [0, reads / 4, reads / 2, 3 * reads / 4, reads - 1];
    for &n in &probes {
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let mut a = FaultyDiskArray::new(inner, FaultPlan::read(n));
        let input = write_unsorted_input(&mut a, &data).unwrap();
        let result = SrmSorter::default().sort(&mut a, &input);
        assert!(
            matches!(result, Err(SrmError::Disk(_))),
            "read fault at op {n} must surface as a disk error"
        );
    }
}

#[test]
fn srm_surfaces_write_failures_everywhere() {
    let data = records(800, 2);
    let (_, writes) = clean_srm_ops(&data);
    let input_writes = 800u64.div_ceil(4).div_ceil(2); // staging ops before sort
    for &n in &[0, writes / 2, writes - 1] {
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let mut a = FaultyDiskArray::new(inner, FaultPlan::write(input_writes + n));
        let input = write_unsorted_input(&mut a, &data).unwrap();
        let result = SrmSorter::default().sort(&mut a, &input);
        assert!(
            matches!(result, Err(SrmError::Disk(_))),
            "write fault at sort-op {n} must surface as a disk error"
        );
    }
}

#[test]
fn dsm_surfaces_failures() {
    let data = records(600, 3);
    for plan in [FaultPlan::read(5), FaultPlan::write(40)] {
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let mut a = FaultyDiskArray::new(inner, plan);
        match write_unsorted_stripes(&mut a, &data) {
            // Staging itself may hit the write fault — that's fine too.
            Err(_) => continue,
            Ok(input) => {
                let result = DsmSorter::default().sort(&mut a, &input);
                assert!(result.is_err(), "fault {plan:?} must surface");
            }
        }
    }
}

#[test]
fn combined_read_and_write_plan_surfaces_first_hit() {
    // One plan arming both a read and a write fault: whichever the
    // schedule reaches first aborts the sort; nothing panics.
    let data = records(800, 7);
    let (reads, writes) = clean_srm_ops(&data);
    let staging = 800u64.div_ceil(4).div_ceil(2);
    let plan = FaultPlan::read(reads / 3).and_write(staging + writes / 3);
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let mut a = FaultyDiskArray::new(inner, plan);
    let input = write_unsorted_input(&mut a, &data).unwrap();
    let result = SrmSorter::default().sort(&mut a, &input);
    assert!(matches!(result, Err(SrmError::Disk(_))));
}

#[test]
fn dsm_run_formation_write_fault_surfaces() {
    // Aim a write fault inside DSM's run-formation write path: staging
    // takes ceil(600/8) = 75 write ops, so op 80 lands in formation.
    let data = records(600, 8);
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let mut a = FaultyDiskArray::new(inner, FaultPlan::write(80));
    let input = write_unsorted_stripes(&mut a, &data).unwrap();
    let result = DsmSorter::default().sort(&mut a, &input);
    assert!(
        matches!(result, Err(DsmError::Disk(_))),
        "formation write fault must surface, got {result:?}"
    );
}

#[test]
fn alloc_fault_is_surfaced_not_panicked() {
    // Regression: a fault during alloc_contiguous (which backs every run
    // allocation) must propagate as an error through both sorters.
    let data = records(500, 9);
    for ordinal in [0, 5, 50] {
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let mut a = FaultyDiskArray::new(inner, FaultPlan::alloc(ordinal));
        match write_unsorted_input(&mut a, &data) {
            Err(SrmError::Disk(_)) => continue, // staging's own alloc hit it
            Err(other) => panic!("unexpected error class: {other:?}"),
            Ok(input) => {
                let result = SrmSorter::default().sort(&mut a, &input);
                assert!(
                    matches!(result, Err(SrmError::Disk(_))),
                    "alloc fault at ordinal {ordinal} must surface as an error"
                );
            }
        }
    }
}

#[test]
fn permanent_fault_kills_disk_for_all_later_ops() {
    // After a permanent fault, every subsequent op touching that disk
    // fails — a retry wrapper cannot resurrect it.
    let data = records(400, 10);
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let faulty = FaultyDiskArray::new(inner, FaultModel::none().kill_at(FaultOp::Read, 4));
    let mut a = RetryingDiskArray::new(faulty, RetryPolicy::default());
    let input = write_unsorted_input(&mut a, &data).unwrap();
    let result = SrmSorter::default().sort(&mut a, &input);
    assert!(matches!(result, Err(SrmError::Disk(PdiskError::Fault { .. }))));
    assert_eq!(a.retries(), (0, 0), "permanent faults must not be retried");
}

#[test]
fn transient_faults_fully_absorbed_by_retry_wrapper() {
    // A 5% transient fault rate on both reads and writes: with the retry
    // wrapper the sort succeeds, output is correct, and the retries show
    // up in IoStats without polluting the logical op counts.
    let data = records(800, 11);
    let mut clean: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let input = write_unsorted_input(&mut clean, &data).unwrap();
    clean.reset_stats();
    let (clean_run, _) = SrmSorter::default().sort(&mut clean, &input).unwrap();
    let clean_reads = clean.stats().read_ops; // before the verification read
    let want = read_run(&mut clean, &clean_run).unwrap();

    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let faulty = FaultyDiskArray::new(inner, FaultModel::random(0xFA01).with_rate(0.05));
    let mut a = RetryingDiskArray::new(faulty, RetryPolicy::default());
    let input = write_unsorted_input(&mut a, &data).unwrap();
    a.reset_stats();
    let (run, _) = SrmSorter::default().sort(&mut a, &input).unwrap();
    let stats = a.stats();
    assert!(stats.total_retries() > 0, "5% fault rate must trigger retries");
    // Logical op counts (successful schedule ops, retries excluded) are
    // unchanged by the fault model: `read_ops` counts only what the
    // schedule asked for, `read_retries` accounts for the recovery work.
    assert_eq!(stats.read_ops, clean_reads, "transient faults must not change the schedule");
    let got = read_run(&mut a, &run).unwrap();
    assert_eq!(got, want, "faulty-but-retried sort must match the clean sort");
}

#[test]
fn failure_then_fresh_array_still_sorts() {
    // A failed sort must not poison anything global: a new array on the
    // same process sorts fine.
    let data = records(500, 4);
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let mut a = FaultyDiskArray::new(inner, FaultPlan::read(3));
    let input = write_unsorted_input(&mut a, &data).unwrap();
    assert!(SrmSorter::default().sort(&mut a, &input).is_err());

    let mut fresh: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let input = write_unsorted_input(&mut fresh, &data).unwrap();
    let (run, _) = SrmSorter::default().sort(&mut fresh, &input).unwrap();
    let out = srm_core::read_run(&mut fresh, &run).unwrap();
    assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
}

// ---------------------------------------------------------------------------
// Retry-classification audit: the retry wrapper must spin only on faults
// that retrying can actually fix.  Permanent faults, ENOSPC, and failed
// durability barriers are *not* in that set — retrying a full disk burns
// the fault budget without progress, and retrying past a failed fsync is
// the classic fsyncgate data-loss bug.  (The chaos campaign's planted
// bug is exactly this audit's first assertion, inverted.)
// ---------------------------------------------------------------------------

#[test]
fn no_space_is_never_retried() {
    let data = records(400, 20);
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    // Staging writes land before the sort; place the fill inside the sort.
    let input_writes = 400u64.div_ceil(4).div_ceil(2);
    let faulty = FaultyDiskArray::new(
        inner,
        FaultModel::none().fill_at(FaultOp::Write, input_writes + 10),
    );
    let mut a = RetryingDiskArray::new(faulty, RetryPolicy::default());
    let input = write_unsorted_input(&mut a, &data).unwrap();
    let result = SrmSorter::default().sort(&mut a, &input);
    match result {
        Err(SrmError::Disk(e @ PdiskError::Fault { kind, .. })) => {
            assert_eq!(kind, pdisk::FaultKind::NoSpace, "typed ENOSPC: {e}");
            assert!(!e.is_retryable(), "ENOSPC must classify as non-retryable");
        }
        other => panic!("full disk must surface as the typed no-space fault, got {other:?}"),
    }
    assert_eq!(a.retries(), (0, 0), "a full disk must never be retried");
    let (_, _, allocs) = a.counters();
    assert_eq!(allocs.attempted, 0, "no allocation retries on ENOSPC either");
}

#[test]
fn failed_sync_is_never_retried_and_surfaces_typed() {
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let faulty = FaultyDiskArray::new(inner, FaultModel::none().fail_sync_at(0));
    let mut a = RetryingDiskArray::new(faulty, RetryPolicy::default());
    let err = a.sync().expect_err("scripted sync failure must surface");
    match &err {
        PdiskError::Fault { op, .. } => {
            // The *op* alone makes it non-retryable, whatever the kind:
            // even a "transient" barrier failure cannot be re-issued.
            assert_eq!(*op, FaultOp::Sync);
        }
        other => panic!("expected a typed sync fault, got {other}"),
    }
    assert!(
        !err.is_retryable(),
        "a failed durability barrier must never be retried: the kernel's \
         dirty state is unknown (fsyncgate)"
    );
    assert_eq!(a.retries(), (0, 0));
    // The barrier is one-shot even at the injection layer: a second sync
    // on the (simulated) reopened fd succeeds.
    a.sync().expect("the failure does not stick to the device");
}

#[test]
fn retry_classification_matrix() {
    use pdisk::FaultKind::{NoSpace, Permanent, Transient};
    use FaultOp::{Alloc, Read, Sync, Write};
    let fault = |kind, op| PdiskError::Fault { kind, op, disk: None };
    // Retryable: transient faults on data-path ops, plus OS-level I/O
    // errors and checksum corruption (a reread may see good bytes).
    for e in [
        fault(Transient, Read),
        fault(Transient, Write),
        fault(Transient, Alloc),
        PdiskError::Io(std::io::Error::other("simulated EIO")),
    ] {
        assert!(e.is_retryable(), "{e} should be retryable");
    }
    // Never retryable: permanent faults (dead disk), ENOSPC on any op,
    // and *any* fault on the durability barrier — including a "transient"
    // one, because a failed fsync's side effects are unobservable.
    for e in [
        fault(Permanent, Read),
        fault(Permanent, Write),
        fault(NoSpace, Write),
        fault(NoSpace, Alloc),
        fault(NoSpace, Sync),
        fault(Transient, Sync),
        fault(Permanent, Sync),
    ] {
        assert!(!e.is_retryable(), "{e} must not be retryable");
    }
}

#[test]
fn freed_space_clears_the_no_space_fault() {
    // ENOSPC is non-retryable but *repairable*: after the operator frees
    // space (`free_space`), the same array accepts writes again — the
    // chaos engine's FreeSpace repair path in miniature.
    let data = records(300, 21);
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let mut a = FaultyDiskArray::new(inner, FaultModel::none().fill_at(FaultOp::Write, 0));
    let err = write_unsorted_input(&mut a, &data).expect_err("disk is full from write 0");
    assert!(
        matches!(
            err,
            SrmError::Disk(PdiskError::Fault { kind: pdisk::FaultKind::NoSpace, .. })
        ),
        "typed: {err}"
    );
    let full: Vec<_> = a.model().full_disks().collect();
    assert_eq!(full.len(), 1, "the filled disk is tracked");
    for d in full {
        a.model_mut().free_space(d);
    }
    assert_eq!(a.model().full_disks().count(), 0);
    let input = write_unsorted_input(&mut a, &data).expect("freed space accepts writes");
    let (run, _) = SrmSorter::default().sort(&mut a, &input).expect("sort completes");
    let out = read_run(&mut a, &run).unwrap();
    assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
}

// ---------------------------------------------------------------------------
// Mid-window failures.  Staging writes behind and the read-back reads
// ahead, so a permanent failure finds tickets in flight: the helper must
// abandon them (no completion, so no parity commit, for a write the
// caller was told failed), return the typed error, and leave the
// production stack `Retrying(Parity(Faulty(File)))` usable — a barrier
// and a reopen both succeed.
// ---------------------------------------------------------------------------

type FileStack = RetryingDiskArray<
    U64Record,
    ParityDiskArray<U64Record, FaultyDiskArray<U64Record, FileDiskArray<U64Record>>>,
>;

fn file_geom() -> Geometry {
    Geometry::new(4, 8, 256).unwrap()
}

fn file_stack(dir: &std::path::Path, model: FaultModel) -> FileStack {
    let _ = std::fs::remove_dir_all(dir);
    let file = FileDiskArray::<U64Record>::create(file_geom(), dir.join("disks")).unwrap();
    let parity = ParityDiskArray::new(FaultyDiskArray::new(file, model))
        .unwrap()
        .with_store(dir.join("parity.store"))
        .unwrap();
    RetryingDiskArray::new(parity, RetryPolicy::default())
}

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("srm-midwindow-{tag}-{}", std::process::id()))
}

#[test]
fn a_write_failing_mid_window_quiesces_staging() {
    const FAILING_STRIPE: u64 = 20;
    let data = records(4000, 30); // 125 stripes of 4 blocks of 8
    let dir = scratch("write");
    let mut a = file_stack(&dir, FaultModel::none().fill_at(FaultOp::Write, FAILING_STRIPE));
    match write_unsorted_input(&mut a, &data) {
        Err(SrmError::Disk(PdiskError::Fault { kind: pdisk::FaultKind::NoSpace, .. })) => {}
        other => panic!("want the typed no-space fault, got {other:?}"),
    }
    assert_eq!(a.retries(), (0, 0), "a full disk must never be retried");
    // The failing submit had retired the oldest ticket to make room and
    // found the rest of the window in flight: those stripes were dropped
    // uncommitted, so parity holds exactly what staging the completed
    // stripes alone commits.
    let completed = FAILING_STRIPE - (pdisk::WRITE_BEHIND_LIMIT as u64 - 1);
    let committed = a.stats().parity_writes;
    a.sync().expect("a barrier after the quiesced failure");
    drop(a);
    FileDiskArray::<U64Record>::open(file_geom(), dir.join("disks")).expect("reopen after the failure");

    let reference = scratch("write-ref");
    let mut clean = file_stack(&reference, FaultModel::none());
    write_unsorted_input(&mut clean, &data[..(completed as usize) * 4 * 8]).unwrap();
    assert_eq!(committed, clean.stats().parity_writes, "a dropped ticket committed parity");
    for d in [dir, reference] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn a_read_failing_mid_window_quiesces_the_read_back() {
    let data = records(4000, 31);
    let dir = scratch("read");
    // Parity absorbs one disk death; the second, on the next read the
    // fault layer sees, is data loss — with the read-ahead window full.
    let model = FaultModel::none().kill_at(FaultOp::Read, 20).kill_at(FaultOp::Read, 21);
    let mut a = file_stack(&dir, model);
    let staged = write_unsorted_input(&mut a, &data).unwrap();
    match read_run(&mut a, &staged) {
        Err(PdiskError::Unrecoverable(_) | PdiskError::Fault { .. }) => {}
        other => panic!("want a typed data-loss error, got {:?}", other.map(|r| r.len())),
    }
    assert!(a.stats().read_ops >= 20, "the failure struck mid-run");
    a.sync().expect("a barrier after the quiesced failure");
    drop(a);
    FileDiskArray::<U64Record>::open(file_geom(), dir.join("disks")).expect("reopen after the failure");
    let _ = std::fs::remove_dir_all(dir);
}

/// Replacement selection's input window under the same contract,
/// pipelined so a stripe is in flight behind the one the fault strikes: a
/// read lost inside formation (two disks dead, past what parity absorbs)
/// and a disk filling under a run stripe both surface typed, with every
/// ticket quiesced — a barrier and a reopen succeed — and before any merge
/// has read a block.
#[test]
fn a_fault_inside_replacement_selection_quiesces_its_window() {
    use srm_core::run_formation::RunFormation;
    let data = records(4000, 32);
    let stripes = 4000u64.div_ceil(8).div_ceil(4); // staging writes; formation reads
    let config = srm_core::SrmConfig {
        run_formation: RunFormation::ReplacementSelection,
        ..srm_core::SrmConfig::default()
    };
    let strike = |tag: &str, model: FaultModel, typed: fn(&PdiskError) -> bool| {
        let dir = scratch(tag);
        let mut a = file_stack(&dir, model);
        let input = write_unsorted_input(&mut a, &data).unwrap();
        let before = a.stats();
        match SrmSorter::new(config).with_pipeline(true).sort(&mut a, &input) {
            Err(SrmError::Disk(e)) if typed(&e) => {}
            other => panic!("{tag}: want the typed disk error, got {:?}", other.map(|(run, _)| run)),
        }
        let during = a.stats().since(&before);
        assert!(during.read_ops > 0 && during.read_ops <= stripes, "{tag}: struck outside formation: {during:?}");
        a.sync().expect("a barrier after the quiesced failure");
        drop(a);
        FileDiskArray::<U64Record>::open(file_geom(), dir.join("disks")).expect("reopen after the failure");
        let _ = std::fs::remove_dir_all(dir);
    };
    strike("rs-read", FaultModel::none().kill_at(FaultOp::Read, 20).kill_at(FaultOp::Read, 21), |e| {
        matches!(e, PdiskError::Unrecoverable(_) | PdiskError::Fault { .. })
    });
    strike("rs-write", FaultModel::none().fill_at(FaultOp::Write, stripes + 10), |e| {
        matches!(e, PdiskError::Fault { kind: pdisk::FaultKind::NoSpace, .. })
    });
}
