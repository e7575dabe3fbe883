//! Property-based tests: for *arbitrary* inputs and geometries, both
//! sorters emit a sorted permutation of their input, SRM's merge respects
//! its I/O lower bound, and the order-statistics sampler keeps its
//! structural invariants.

use pdisk::{
    DiskArray, FaultModel, FaultyDiskArray, Geometry, MemDiskArray, RetryPolicy,
    RetryingDiskArray, U64Record,
};
use proptest::collection::vec;
use proptest::prelude::*;
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, EngineKind, RunFormation, SrmConfig, SrmSorter};

/// DSM on `geom`'s machine: the engine on one disk of `D·B`-record
/// blocks, at eq. 41's merge order.
fn dsm_sort(geom: Geometry, recs: &[U64Record]) -> Vec<u64> {
    let wide = Geometry::new(1, geom.d * geom.b, geom.m).unwrap();
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(wide);
    let input = write_unsorted_input(&mut a, recs).unwrap();
    let (run, _) = SrmSorter::default().with_engine(EngineKind::Dsm).sort(&mut a, &input).unwrap();
    read_run(&mut a, &run).unwrap().iter().map(|r| r.0).collect()
}

/// Small but varied machine shapes.
fn geometries() -> impl Strategy<Value = Geometry> {
    (1usize..=5, 1usize..=6, 6usize..=40).prop_map(|(d, b, mem_blocks)| {
        // Enough memory for both sorters: SRM needs
        // (M/B − 4D)·B ≥ 2(2B + D) for a merge order of at least 2, and
        // DSM needs M/B ≥ 2D·(R+1) for order ≥ 2.
        let srm_min = 4 * d + 5 + (2 * d).div_ceil(b);
        let dsm_min = 2 * d * 3;
        let blocks = mem_blocks.max(srm_min).max(dsm_min);
        Geometry::new(d, b, blocks * b).expect("valid geometry")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn srm_sorts_arbitrary_inputs(
        geom in geometries(),
        keys in vec(any::<u64>(), 1..800),
        seed in any::<u64>(),
    ) {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
        let input = write_unsorted_input(&mut a, &recs).unwrap();
        let config = SrmConfig { seed, ..SrmConfig::default() };
        let (run, report) = SrmSorter::new(config).sort(&mut a, &input).unwrap();
        let got: Vec<u64> = read_run(&mut a, &run).unwrap().iter().map(|r| r.0).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(report.records as usize, keys.len());
        // Reads can never beat the one-block-per-disk-per-op bound.
        let blocks = (keys.len() as u64).div_ceil(geom.b as u64);
        prop_assert!(report.io.blocks_read <= report.io.read_ops * geom.d as u64);
        prop_assert!(report.io.blocks_written >= blocks * (1 + report.merge_passes.min(1)) || report.merge_passes == 0);
    }

    #[test]
    fn srm_with_replacement_selection_sorts(
        geom in geometries(),
        keys in vec(any::<u64>(), 1..500),
        seed in any::<u64>(),
    ) {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
        let input = write_unsorted_input(&mut a, &recs).unwrap();
        let config = SrmConfig {
            seed,
            run_formation: Some(RunFormation::ReplacementSelection),
            ..SrmConfig::default()
        };
        let (run, _) = SrmSorter::new(config).sort(&mut a, &input).unwrap();
        let got: Vec<u64> = read_run(&mut a, &run).unwrap().iter().map(|r| r.0).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn dsm_sorts_arbitrary_inputs(
        geom in geometries(),
        keys in vec(any::<u64>(), 1..800),
    ) {
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
        let got = dsm_sort(geom, &recs);
        let mut expected = keys.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// SRM and DSM always agree on the final sequence.
    #[test]
    fn sorters_agree(
        geom in geometries(),
        keys in vec(any::<u64>(), 1..400),
    ) {
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_input(&mut a, &recs).unwrap();
        let (srm_run, _) = SrmSorter::default().sort(&mut a, &input).unwrap();
        let srm_out: Vec<u64> = read_run(&mut a, &srm_run).unwrap().iter().map(|r| r.0).collect();
        prop_assert_eq!(srm_out, dsm_sort(geom, &recs));
    }

    /// Fault tolerance as a property: under arbitrary transient-fault
    /// rates up to 10% (with enough retry budget), SRM's output equals
    /// the no-fault output and the *logical* read count — successful
    /// schedule operations, retries excluded — is unchanged.  Retries
    /// are visible but strictly additive.
    #[test]
    fn transient_faults_never_change_output_or_schedule(
        keys in vec(any::<u64>(), 50..600),
        rate in 0u32..=100,          // per-mille-of-10%: 0.0 ..= 0.10
        fault_seed in any::<u64>(),
    ) {
        let rate = f64::from(rate) / 1000.0;
        let geom = Geometry::new(2, 4, 96).unwrap();
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();

        // No-fault reference.
        let mut clean: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_input(&mut clean, &recs).unwrap();
        clean.reset_stats();
        let (run, _) = SrmSorter::default().sort(&mut clean, &input).unwrap();
        let clean_reads = clean.stats().read_ops;
        let want = read_run(&mut clean, &run).unwrap();

        // Same sort under random transient faults + bounded retry.  At
        // 10% per-disk fault probability, 10 attempts make an
        // all-attempts-fail run vanishingly unlikely (1e-10 per op).
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let faulty = FaultyDiskArray::new(inner, FaultModel::random(fault_seed).with_rate(rate));
        let mut a = RetryingDiskArray::new(faulty, RetryPolicy::new(10, std::time::Duration::from_millis(1)));
        let input = write_unsorted_input(&mut a, &recs).unwrap();
        a.reset_stats();
        let (run, _) = SrmSorter::default().sort(&mut a, &input).unwrap();
        let stats = a.stats();
        prop_assert_eq!(stats.read_ops, clean_reads, "logical reads changed under faults");
        let got = read_run(&mut a, &run).unwrap();
        prop_assert_eq!(got, want);
        if rate == 0.0 {
            prop_assert_eq!(stats.total_retries(), 0);
        }
    }

    /// Order-statistics sampler invariants over arbitrary (records, B).
    #[test]
    fn block_bounds_structural_invariants(
        records in 1u64..5000,
        block in 1u64..200,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let bb = occupancy::BlockBounds::sample(records, block, &mut rng);
        prop_assert_eq!(bb.blocks() as u64, records.div_ceil(block));
        for j in 0..bb.blocks() {
            prop_assert!(bb.minima[j] <= bb.maxima[j]);
            prop_assert!(bb.minima[j] > 0.0 && bb.maxima[j] < 1.0);
            if j + 1 < bb.blocks() {
                prop_assert!(bb.maxima[j] < bb.minima[j + 1]);
            }
        }
    }

    /// Lemma 9 invariant under arbitrary chain multisets: normalization
    /// preserves ball count and caps every chain at D.
    #[test]
    fn lemma9_normalization_invariants(
        d in 1usize..20,
        chains in vec(1u64..100, 1..30),
    ) {
        let p = occupancy::DependentProblem::new(d, chains);
        let n = p.normalized();
        prop_assert_eq!(n.total_balls(), p.total_balls());
        prop_assert!(n.chains().iter().all(|&c| c <= d as u64));
    }
}
