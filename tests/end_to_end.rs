//! Cross-crate end-to-end checks: SRM vs DSM on identical inputs and
//! memory budgets; measured I/O versus the closed forms of eq. (40)/(41);
//! the real-file backend versus the in-memory backend.

use pdisk::{
    DiskArray, FaultModel, FileDiskArray, Geometry, MemDiskArray, ParitySpec, RetryPolicy, StackSpec, U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_repro as _;
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, EngineKind, RunFormation, SrmConfig, SrmSorter};
use std::time::Duration;

fn random_records(n: u64, seed: u64) -> Vec<U64Record> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| U64Record(rng.random())).collect()
}

fn srm_sort(geom: Geometry, data: &[U64Record]) -> (Vec<u64>, srm_core::SortReport) {
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
    let input = write_unsorted_input(&mut a, data).unwrap();
    a.reset_stats();
    let (run, report) = SrmSorter::default().sort(&mut a, &input).unwrap();
    let out = read_run(&mut a, &run).unwrap().iter().map(|r| r.0).collect();
    (out, report)
}

/// DSM on `geom`'s machine: the engine on one disk of `D·B`-record
/// blocks, at eq. 41's merge order.
fn dsm_sort(geom: Geometry, data: &[U64Record]) -> (Vec<u64>, srm_core::SortReport) {
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(Geometry::new(1, geom.d * geom.b, geom.m).unwrap());
    let input = write_unsorted_input(&mut a, data).unwrap();
    a.reset_stats();
    let (run, report) = SrmSorter::default().with_engine(EngineKind::Dsm).sort(&mut a, &input).unwrap();
    let out = read_run(&mut a, &run).unwrap().iter().map(|r| r.0).collect();
    (out, report)
}

/// The paper's claim in one assertion: same machine, same memory, same
/// input — SRM needs fewer parallel I/O operations than DSM whenever the
/// merge orders actually differ.
#[test]
fn srm_beats_dsm_on_table_geometry() {
    let geom = Geometry::for_table(2, 8, 16).unwrap();
    let data = random_records(400_000, 1);
    let (srm_out, srm) = srm_sort(geom, &data);
    let (dsm_out, dsm) = dsm_sort(geom, &data);
    assert_eq!(srm_out, dsm_out, "the two sorters disagree");
    assert!(srm_out.windows(2).all(|w| w[0] <= w[1]));
    assert!(
        srm.merge_passes < dsm.merge_passes,
        "SRM passes {} !< DSM passes {}",
        srm.merge_passes,
        dsm.merge_passes
    );
    let (s_ops, d_ops) = (srm.io.total_ops(), dsm.io.total_ops());
    assert!(
        (s_ops as f64) < 0.85 * d_ops as f64,
        "SRM {s_ops} ops vs DSM {d_ops} ops"
    );
}

/// Measured totals track eq. (40)/(41) — loosely, since the formulas drop
/// every ceiling.
#[test]
fn formulas_predict_measured_ios() {
    let (k, d, b) = (4usize, 4usize, 32usize);
    let geom = Geometry::for_table(k, d, b).unwrap();
    let n = 2_000_000u64;
    let data = random_records(n, 2);
    let (_, srm) = srm_sort(geom, &data);
    let (_, dsm) = dsm_sort(geom, &data);
    let srm_pred = analysis::srm_total_ios(n, geom.m as u64, d, b, k, 1.05);
    let dsm_pred = analysis::dsm_total_ios(n, geom.m as u64, d, b, k);
    let srm_err = (srm.io.total_ops() as f64 - srm_pred).abs() / srm_pred;
    let dsm_err = (dsm.io.total_ops() as f64 - dsm_pred).abs() / dsm_pred;
    assert!(srm_err < 0.35, "SRM measured {} vs predicted {srm_pred:.0}", srm.io.total_ops());
    assert!(dsm_err < 0.35, "DSM measured {} vs predicted {dsm_pred:.0}", dsm.io.total_ops());
}

/// SRM's writes are perfectly parallel (Theorem 1's write claim): on a
/// sort whose runs are long, write parallelism approaches D.
#[test]
fn srm_write_parallelism_near_perfect() {
    let geom = Geometry::for_table(4, 4, 64).unwrap();
    let data = random_records(1_000_000, 3);
    let (_, report) = srm_sort(geom, &data);
    // Every stripe is full-width except each run's ragged tail; with
    // ~250 formation runs the average dips slightly below D = 4.
    assert!(
        report.io.write_parallelism() > 3.8,
        "write parallelism {}",
        report.io.write_parallelism()
    );
}

/// File backend produces byte-identical results to the memory backend and
/// the same I/O counts (the schedule is deterministic given the seed).
#[test]
fn file_backend_matches_mem_backend() {
    let geom = Geometry::new(3, 32, 4096).unwrap();
    let data = random_records(60_000, 4);

    let (mem_out, mem_report) = srm_sort(geom, &data);

    let dir = std::env::temp_dir().join(format!("srm-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut files: FileDiskArray<U64Record> = FileDiskArray::create(geom, &dir).unwrap();
    let input = write_unsorted_input(&mut files, &data).unwrap();
    files.reset_stats();
    let (run, file_report) = SrmSorter::default().sort(&mut files, &input).unwrap();
    let file_out: Vec<u64> = read_run(&mut files, &run).unwrap().iter().map(|r| r.0).collect();
    drop(files);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(mem_out, file_out);
    assert_eq!(mem_report.io, file_report.io, "backends must count identically");
    assert_eq!(mem_report.schedule, file_report.schedule);
}

/// The conjecture chain across crates: simulated SRM overhead (Table 3)
/// is bounded by the classical-occupancy overhead (Table 1), which is
/// bounded by the analytic rho* bound.
#[test]
fn overhead_ordering_across_crates() {
    let (k, d) = (5usize, 10usize);
    let mut rng = SmallRng::seed_from_u64(5);
    let simulated = srm_core::simulator::estimate_overhead_v(
        k,
        d,
        200,
        256,
        srm_core::simulator::SimPlacement::Random,
        3,
        &mut rng,
    )
    .unwrap();
    let classical = occupancy::overhead_v(k as u64, d, 2000, &mut rng);
    let analytic = occupancy::upper_bound_expected_max((k * d) as u64, d) / k as f64;
    assert!(
        simulated.mean <= classical.mean + 0.05,
        "simulated v {} should not exceed classical v {}",
        simulated.mean,
        classical.mean
    );
    assert!(
        classical.mean <= analytic + 0.05,
        "classical v {} should not exceed analytic bound {}",
        classical.mean,
        analytic
    );
}

/// Randomized striping balances load: after a full SRM sort, no disk
/// carries disproportionate traffic (the practical content of the
/// random-start-disk choice).
#[test]
fn srm_balances_disk_load() {
    let geom = Geometry::for_table(3, 4, 32).unwrap();
    let data = random_records(600_000, 9);
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
    let input = write_unsorted_input(&mut a, &data).unwrap();
    a.reset_stats();
    let _ = SrmSorter::default().sort(&mut a, &input).unwrap();
    let loads = a.disk_loads();
    let reads: Vec<u64> = loads.iter().map(|&(r, _)| r).collect();
    let writes: Vec<u64> = loads.iter().map(|&(_, w)| w).collect();
    for (label, v) in [("reads", reads), ("writes", writes)] {
        let max = *v.iter().max().unwrap() as f64;
        let min = *v.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.10,
            "{label} imbalanced across disks: {v:?}"
        );
    }
}

/// Sorting stability of accounting: identical seeds give identical
/// reports on repeated runs (no hidden nondeterminism anywhere).
#[test]
fn whole_pipeline_deterministic() {
    let geom = Geometry::for_table(3, 4, 32).unwrap();
    let data = random_records(200_000, 6);
    let (out1, rep1) = srm_sort(geom, &data);
    let (out2, rep2) = srm_sort(geom, &data);
    assert_eq!(out1, out2);
    assert_eq!(rep1, rep2);
}

/// `sort_stacked`'s production stack, `Retrying(Parity(Faulty(File)))`
/// at its geometry and 200 µs a block: the sorter reads the device
/// through every layer and forms by replacement selection, which the
/// rule predicts moves fewer blocks (one merge pass, not two), and the
/// output is the one half-memory loads leave.  A named formation is
/// kept on the same device.
#[test]
fn the_stacked_device_forms_by_rs_and_sorts_as_loads_do() {
    let geom = Geometry::for_table(4, 4, 512).unwrap();
    let data = random_records(200_000, 0x57AC);
    let delay = Duration::from_micros(200);
    let sort = |tag: &str, formation: Option<RunFormation>| {
        let dir = std::env::temp_dir().join(format!("srm-e2e-stacked-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file = FileDiskArray::<U64Record>::create(geom, dir.join("disks")).unwrap();
        let spec = StackSpec {
            faults: Some(FaultModel::random(0xFA17).with_rate(0.001)),
            parity: Some(ParitySpec { store: Some(dir.join("parity.store")), dead: Vec::new() }),
            retry: Some(RetryPolicy::default()),
            ..StackSpec::default()
        };
        let mut a = spec.build(file, ()).unwrap();
        let input = write_unsorted_input(&mut a, &data).unwrap();
        a.backend().set_io_delay(delay);
        assert_eq!(a.device_time(), delay, "{tag}: the device reaches the top of the stack");
        let sorter = SrmSorter::new(SrmConfig { run_formation: formation, ..SrmConfig::default() });
        let (run, report) = sorter.with_pipeline(true).with_read_ahead(3).sort(&mut a, &input).unwrap();
        a.backend().set_io_delay(Duration::ZERO);
        let out: Vec<u64> = read_run(&mut a, &run).unwrap().iter().map(|r| r.0).collect();
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
        (out, report)
    };
    let loads = RunFormation::MemoryLoad { fraction: 0.5 };
    let (chosen, rs) = sort("chosen", None);
    let (pinned, load) = sort("loads", Some(loads));
    assert_eq!((rs.formation, rs.merge_passes), (Some(RunFormation::ReplacementSelection), 1));
    assert_eq!((load.formation, load.merge_passes), (Some(loads), 2));
    assert_eq!(chosen.len(), data.len());
    assert!(chosen.windows(2).all(|w| w[0] <= w[1]), "sorted");
    assert!(chosen == pinned, "RS leaves the bytes (and so the digest) loads leave");
}
