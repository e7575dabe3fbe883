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
use pdisk::{DiskArray as _, DiskId, Geometry, MemDiskArray, U64Record};
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
    // The pass plan: 63 runs at R = 6 need ⌈log_6 63⌉ = 3 passes, so pass
    // 1 only has to leave 6² = 36 runs.  It merges the last 33 (a group
    // of 3, then five of 6) in 6 merges while the first 30 wait; passes 2
    // and 3 are full (6 merges, then 1).
    assert_eq!(report.merges, 6 + 6 + 1);
    assert_eq!(srm_core::pass_plan(63, 6).map(|p| (p.untouched, p.merged(6))), Some((30, 33)));
    // The blocks each pass moves follow from the plan: 3000 records = 750
    // blocks in 62 runs of 12 and one of 6; pass 1 reads and rewrites 32
    // of the 12-block runs and the short one, 390 blocks.
    let passes = analysis::memory_load_passes(3000, geom, 0.5, 6);
    let merge_read: u64 = passes[1..].iter().map(|p| p.read).sum();
    let written: u64 = passes.iter().map(|p| p.written).sum();
    assert_eq!((passes[1].read, merge_read, written), (390, 390 + 2 * 750, 4 * 750 - 360));
    let io = report.io;
    assert_eq!(report.schedule.blocks_flushed, 0);
    assert_eq!(report.schedule.blocks_read, merge_read, "{:?}", report.schedule);
    assert_eq!((io.blocks_read, io.blocks_written), (750 + merge_read, written), "I/O trace changed: {io:?}");
    // The operation counts, pinned (this implementation at a fixed seed,
    // under the vendored SplitMix64 `SmallRng` — see vendor/README.md).
    // Writes are at perfect parallelism, ⌈k/2⌉ stripes for a k-block run,
    // and every run here has an even block count: 375 stripes for each
    // whole-file write (formation, passes 2 and 3) and 195 for pass 1's
    // 390 blocks.  Reads: formation's 375 stripes plus the scheduler's
    // 966 for 1890 blocks at D = 2 with zero flushes, 21 over the ideal
    // 945.
    assert_eq!(
        (io.read_ops, io.write_ops),
        (375 + 966, 3 * 375 + 195),
        "I/O trace changed: {io:?}"
    );
    assert_eq!(report.schedule.total_reads(), 966, "{:?}", report.schedule);
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
    let config = SrmConfig { run_formation: Some(RunFormation::ReplacementSelection), ..SrmConfig::default() };
    let (_, report) = SrmSorter::new(config).sort(&mut a, &input).unwrap();
    check_trace(geom, &a.take_trace())
        .unwrap_or_else(|v| panic!("golden replacement-selection trace violates the model: {v}"));

    assert_eq!((report.merge_order, report.runs_formed, report.merge_passes), (6, 24, 2));
    // The pass plan: 24 runs at R = 6 leave 6 after pass 1, a group of 4
    // and three of 6, so the first two runs wait.  Their lengths are the
    // input's, so they come from forming the same runs again.
    assert_eq!(srm_core::pass_plan(24, 6).map(|p| (p.untouched, p.first, p.full)), Some((2, 4, 3)));
    let mut again = MemDiskArray::<U64Record>::new(geom);
    let staged = write_unsorted_input(&mut again, &data).unwrap();
    let runs: Vec<u64> = srm_core::form_runs(&mut again, &staged, RunFormation::ReplacementSelection, || DiskId(0))
        .unwrap()
        .iter()
        .map(|r| r.records)
        .collect();
    let formed: u64 = runs.iter().map(|r| r.div_ceil(geom.b as u64)).sum();
    let passes = analysis::pass_volumes(&runs, geom.b, 6);
    let merge_read: u64 = passes.iter().map(|p| p.read).sum();
    let written: u64 = formed + passes.iter().map(|p| p.written).sum::<u64>();
    let input_blocks = 3000u64.div_ceil(geom.b as u64);
    let io = report.io;
    assert_eq!(report.schedule.blocks_read, merge_read + report.schedule.blocks_flushed);
    assert_eq!(
        (io.blocks_read, io.blocks_written),
        (input_blocks + report.schedule.blocks_read, written),
        "I/O trace changed: {io:?}"
    );
    // Pinned: formation writes the 24 runs in 760 blocks (each run ends
    // in a part block); pass 1 reads 698 of them, the two waiting runs
    // holding 62, and writes 690; pass 2 reads 752 and writes 750.  The
    // writes are those blocks in stripes of D = 2 (a run's odd last block
    // alone); the reads add formation's 375 stripes to the scheduler's 731.
    assert_eq!(
        (io.read_ops, io.write_ops, io.blocks_read, io.blocks_written),
        (1106, 1105, 2200, 2200),
        "I/O trace changed: {io:?}"
    );
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

/// DSM: merge order, runs and passes pinned to what the retired second
/// engine printed for `srm sort --algo dsm --records 54321` (seed
/// `0xC11_5EED`): SRM's engine on `Geometry::new(1, D·B, M)` at eq. 41's
/// `R_DSM` must give the same, with no flush, on a checker-clean trace —
/// the fetch pool cut to what DSM's memory leaves.  The operation counts
/// follow from the pass plan: on one wide disk every operation moves one
/// block and, with no flush, a pass reads each block of the runs it
/// merges once, so the reads are the input, the merged runs and the
/// verifying read-back of the output, and the writes are the runs formed
/// and merged.  The retired engine merged every pass whole: its counts
/// at `(3, 7, 500)` were 12 935 reads and 10 348 writes, where pass 1 now
/// leaves 1 044 blocks untouched (11 891 / 9 304).
#[test]
fn golden_dsm_counts() {
    use srm_server::{EngineKind, JobSpec};
    type Machine = (usize, usize, usize); // (D, B, M)
    type Counts = (usize, usize, u64); // (R, runs, merge passes)
    let pinned: [(Machine, Counts); 5] = [
        ((3, 7, 500), (10, 216, 3)),
        ((2, 4, 96), (5, 1_132, 5)),
        ((5, 3, 391), (12, 279, 3)),
        ((4, 64, 3136), (5, 31, 3)),
        ((8, 32, 6000), (10, 18, 2)),
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
        assert_eq!((report.merge_order, report.runs_formed, report.merge_passes), want, "({d},{b},{m})");
        assert_eq!(report.schedule.flush_ops, 0, "({d},{b},{m})");
        let passes = analysis::memory_load_passes(54_321, geom, 0.5, want.0);
        let output = 54_321u64.div_ceil(geom.b as u64);
        let reads = passes.iter().map(|p| p.read).sum::<u64>() + output;
        let writes = passes.iter().map(|p| p.written).sum::<u64>();
        assert_eq!((io.read_ops, io.write_ops), (reads, writes), "({d},{b},{m})");
        assert_eq!((io.blocks_read, io.blocks_written), (reads, writes), "({d},{b},{m})");
    }
    // The first machine's counts, for the record.
    let passes = analysis::memory_load_passes(54_321, Geometry::new(1, 21, 500).unwrap(), 0.5, 10);
    let written: u64 = passes.iter().map(|p| p.written).sum();
    assert_eq!(written, 9_304);
}

/// The paper's total, `(N/DB)·(2 + C·ln(N/M))` with eq. 40's `C_SRM =
/// (1+v)/ln R` (`v` the sort's own measured read overhead) and eq. 41's
/// `C_DSM = 2/ln R_DSM`, counts `log_R(N/M)` *fractional* merge passes.
/// With runs of a whole memory load there are `N/M` runs, and the pass
/// plan moves `p − 1 + (runs pass 1 merges)/(runs)` passes' worth of data
/// — the chord of `log_R` between consecutive powers of `R`, never below
/// it.  The chord's worst gap is `max_c (1 − 1/c)·R/(R−1) − log_R c`, at
/// `c = R·ln R/(R−1)`: 0.22 passes at R = 6, 0.35 at R = 24.  With at
/// least `R` runs there is at least one full pass besides, so a gap of
/// `g` passes costs at most `(1+v)·g / (2 + (1+v))` of the total: under
/// 0.19 for `g ≤ 0.35` and `v ≤ 1.3`.  Hence the tolerance: measured
/// total I/Os within `[1, 1.2]` of the formula on every sort of the grid
/// (SRM and DSM, every one with at least `R` runs).  The ceiling engine
/// that merged every pass whole fails it: at `(4, 8, 256)` and 12 000
/// records (47 runs, R = 6) it paid 3 whole passes for `log_6 47 = 2.15`,
/// 1.27 of the formula.
#[test]
fn total_ios_follow_the_papers_formula() {
    use srm_core::run_formation::RunFormation;
    use srm_core::{EngineKind, SrmConfig};
    let config = SrmConfig { run_formation: Some(RunFormation::MemoryLoad { fraction: 1.0 }), ..SrmConfig::default() };
    for (d, b, m) in [(2usize, 4usize, 96usize), (4, 8, 256), (3, 7, 500), (4, 8, 400)] {
        for n in [12_000u64, 30_000, 70_000] {
            let mut rng = SmallRng::seed_from_u64(n ^ m as u64);
            let data: Vec<U64Record> = (0..n).map(|_| U64Record(rng.random())).collect();
            for engine in [EngineKind::Srm, EngineKind::Dsm] {
                let geom = match engine {
                    EngineKind::Srm => Geometry::new(d, b, m).unwrap(),
                    EngineKind::Dsm => Geometry::new(1, d * b, m).unwrap(),
                };
                let mut a = MemDiskArray::<U64Record>::new(geom);
                let input = write_unsorted_input(&mut a, &data).unwrap();
                a.reset_stats();
                let (_, report) = SrmSorter::new(config).with_engine(engine).sort(&mut a, &input).unwrap();
                let at = format!("{engine:?} ({d},{b},{m}) N={n}: {report}");
                assert!(report.runs_formed >= report.merge_order, "{at}");
                let r = report.merge_order as f64;
                let c = match engine {
                    EngineKind::Srm => (1.0 + report.overhead_v(d, 0)) / r.ln(),
                    EngineKind::Dsm => 2.0 / r.ln(),
                };
                let formula = n as f64 / (d * b) as f64 * (2.0 + c * (n as f64 / m as f64).ln());
                let ratio = (report.io.read_ops + report.io.write_ops) as f64 / formula;
                assert!((1.0..=1.2).contains(&ratio), "{at}: {ratio:.4} of the formula");
            }
        }
    }
}
