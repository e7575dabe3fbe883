//! Golden regression tests: exact I/O counts for fixed seeds.
//!
//! The whole repository's claims rest on counted parallel operations, so
//! the counts themselves are pinned here.  If an intentional scheduler
//! change shifts them, these constants must be re-derived (and the change
//! explained); an *unintentional* shift is a regression in the schedule.
//!
//! Every golden sort is also replayed through `modelcheck`: the pinned
//! counts are only meaningful if the schedule that produced them obeys
//! the model rules, so a golden trace must be checker-clean.  The
//! simulator's schedule is checked through the engine's: see
//! `tests/simulator_vs_engine.rs`.

use modelcheck::check_trace;
use pdisk::trace::TracingDiskArray;
use pdisk::{DiskArray as _, Geometry, MemDiskArray, U64Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::simulator::{MergeSim, SimInput, SimPlacement};
use srm_core::sort::write_unsorted_input;
use srm_core::SrmSorter;

#[test]
fn golden_sort_counts() {
    let geom = Geometry::new(2, 4, 96).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xD00D);
    let data: Vec<U64Record> = (0..3000).map(|_| U64Record(rng.random())).collect();
    let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
    let input = write_unsorted_input(&mut a, &data).unwrap();
    a.reset_stats();
    let (_, report) = SrmSorter::default().sort(&mut a, &input).unwrap();
    let summary = check_trace(geom, &a.take_trace())
        .unwrap_or_else(|v| panic!("golden sort trace violates the model: {v}"));
    assert!(summary.sched_reads > 0, "{summary:?}");

    assert_eq!(report.merge_order, 6);
    assert_eq!(report.runs_formed, 63);
    assert_eq!(report.merge_passes, 3);
    assert_eq!(report.merges, 14);
    // Pinned counts (derived from this implementation at a fixed seed,
    // under the vendored SplitMix64 `SmallRng` — see vendor/README.md).
    // Note the physics in the numbers: 3000 records = 750 blocks; four
    // writes of the file (formation + 3 merge passes) at perfect
    // parallelism = 1500 write ops / 3000 blocks; merge reads at D = 2
    // with zero flushes = 1155 ops for 2250 blocks.
    let io = report.io;
    assert_eq!(
        (io.read_ops, io.write_ops, io.blocks_read, io.blocks_written),
        (1530, 1500, 3000, 3000),
        "I/O trace changed: {io:?}"
    );
    assert_eq!(report.schedule.total_reads(), 1155, "{:?}", report.schedule);
    assert_eq!(report.schedule.blocks_flushed, 0);
}

/// Replacement selection on the same geometry, seed and input: its 64
/// slots (`M − 4DB`) form runs of ≈ 2·64 records, so the 63 runs become
/// 24 and a merge pass disappears (3 → 2); and formation's share of the
/// reads, in closed form, is one full stripe per parallel read — the
/// input read once at parallelism `D`.
#[test]
fn golden_replacement_selection_counts() {
    use srm_core::run_formation::RunFormation;
    use srm_core::SrmConfig;

    let geom = Geometry::new(2, 4, 96).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xD00D);
    let data: Vec<U64Record> = (0..3000).map(|_| U64Record(rng.random())).collect();
    let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
    let input = write_unsorted_input(&mut a, &data).unwrap();
    a.reset_stats();
    let config = SrmConfig { run_formation: RunFormation::ReplacementSelection, ..SrmConfig::default() };
    let (_, report) = SrmSorter::new(config).sort(&mut a, &input).unwrap();
    check_trace(geom, &a.take_trace())
        .unwrap_or_else(|v| panic!("golden replacement-selection trace violates the model: {v}"));

    assert_eq!((report.merge_order, report.runs_formed, report.merge_passes), (6, 24, 2));
    let io = report.io;
    assert_eq!(
        (io.read_ops, io.write_ops, io.blocks_read, io.blocks_written),
        (1136, 1135, 2260, 2260),
        "I/O trace changed: {io:?}"
    );
    let input_blocks = 3000u64.div_ceil(geom.b as u64);
    assert_eq!(io.read_ops - report.schedule.total_reads(), input_blocks.div_ceil(geom.d as u64));
    assert_eq!(io.blocks_read - report.schedule.blocks_read, input_blocks);
}

#[test]
fn golden_simulator_counts() {
    let mut rng = SmallRng::seed_from_u64(0xFEED);
    let input = SimInput::average_case(20, 100, 64, 5, SimPlacement::Random, &mut rng);
    let stats = MergeSim::run(&input).unwrap();
    assert_eq!(input.total_blocks(), 2000);
    assert_eq!(
        (
            stats.schedule.init_reads,
            stats.schedule.par_reads,
            stats.schedule.flush_ops,
            stats.schedule.blocks_read,
        ),
        // Derived under the vendored SplitMix64 SmallRng (vendor/README.md).
        (8, 400, 3, 2007),
        "simulated schedule changed: {:?}",
        stats.schedule
    );
}

/// DSM, pinned to what the retired second engine printed for `srm sort
/// --algo dsm --records 54321` (seed `0xC11_5EED`; its `I/O (sort only)`
/// line counts the verifying read-back too): SRM's engine on
/// `Geometry::new(1, D·B, M)` at eq. 41's `R_DSM` must give the same
/// merge order, runs, passes and operation counts, with no flush, on a
/// checker-clean trace — the fetch pool cut to what DSM's memory leaves.
#[test]
fn golden_dsm_counts() {
    use srm_server::{EngineKind, JobSpec};
    type Machine = (usize, usize, usize); // (D, B, M)
    type Counts = (usize, usize, u64, u64, u64); // (R, runs, merge passes, read ops, write ops)
    let pinned: [(Machine, Counts); 5] = [
        ((3, 7, 500), (10, 216, 3, 12_935, 10_348)),
        ((2, 4, 96), (5, 1_132, 5, 47_496, 40_705)),
        ((5, 3, 391), (12, 279, 3, 18_110, 14_488)),
        ((4, 64, 3136), (5, 31, 3, 1_062, 849)),
        ((8, 32, 6000), (10, 18, 2, 852, 639)),
    ];
    for ((d, b, m), want) in pinned {
        let spec = JobSpec { engine: EngineKind::Dsm, records: 54_321, d, b, m, ..JobSpec::default() };
        let geom = spec.geometry().unwrap();
        assert_eq!(geom, Geometry::new(1, d * b, m).unwrap());
        assert_eq!(want.0, Geometry::new(d, b, m).unwrap().dsm_merge_order().unwrap());
        let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
        let input = write_unsorted_input(&mut a, &spec.input_records()).unwrap();
        a.reset_stats();
        let (sorted, report) = spec.dsm_sorter().sort(&mut a, &input).unwrap();
        check_trace(geom, &a.take_trace())
            .unwrap_or_else(|v| panic!("({d},{b},{m}): DSM trace violates the model: {v}"));
        srm_core::read_run(&mut a, &sorted).unwrap();
        let io = a.stats();
        let got = (report.merge_order, report.runs_formed, report.merge_passes, io.read_ops, io.write_ops);
        assert_eq!(got, want, "({d},{b},{m})");
        assert_eq!(report.schedule.flush_ops, 0, "({d},{b},{m})");
    }
}
