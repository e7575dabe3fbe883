//! **Experiment X4** (extension) — end-to-end accounting: full
//! record-level sorts with SRM and DSM on identical inputs and identical
//! memory budgets, compared against the closed-form predictions of
//! eq. (40)/(41).
//!
//! ```text
//! cargo run -p bench --release --bin end_to_end [-- --smoke --seed N]
//! ```

use pdisk::{DiskArray as _, Geometry, MemDiskArray, U64Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::{EngineKind, SrmSorter};

fn main() {
    let args = bench::Args::parse();
    let seed = args.seed.unwrap_or(0x7AB1_E0E4);
    // (k, D, B, N): table-style geometries scaled to record level.
    let configs: &[(usize, usize, usize, u64)] = if args.smoke {
        &[(2, 4, 16, 200_000)]
    } else {
        &[
            (2, 4, 16, 1_000_000),
            (2, 8, 16, 1_000_000),
            (4, 4, 32, 2_000_000),
            (8, 4, 32, 4_000_000),
        ]
    };

    println!("# End-to-end sorts: SRM vs DSM, measured vs predicted\n");
    println!("(seed={seed:#x})\n");
    println!("| k | D | B | N | SRM ops (meas) | SRM ops (eq.40, v=1.1) | DSM ops (meas) | DSM ops (eq.41) | meas ratio |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for &(k, d, b, n) in configs {
        let mut rng = SmallRng::seed_from_u64(seed);
        let geom = Geometry::for_table(k, d, b).expect("geometry");
        let keys: Vec<U64Record> = (0..n).map(|_| U64Record(rng.random())).collect();

        let mut srm_array: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_input(&mut srm_array, &keys).expect("stage input");
        srm_array.reset_stats();
        let (_, srm_report) = SrmSorter::default()
            .sort(&mut srm_array, &input)
            .expect("SRM sort");
        let srm_ops = srm_report.io.total_ops();

        // DSM: the same engine on one disk of D·B-record blocks.
        let wide = Geometry::new(1, d * b, geom.m).expect("geometry");
        let mut dsm_array: MemDiskArray<U64Record> = MemDiskArray::new(wide);
        let input = write_unsorted_input(&mut dsm_array, &keys).expect("stage input");
        dsm_array.reset_stats();
        let (_, dsm_report) = SrmSorter::default()
            .with_engine(EngineKind::Dsm)
            .sort(&mut dsm_array, &input)
            .expect("DSM sort");
        let dsm_ops = dsm_report.io.total_ops();

        let srm_pred = analysis::srm_total_ios(n, geom.m as u64, d, b, k, 1.1);
        let dsm_pred = analysis::dsm_total_ios(n, geom.m as u64, d, b, k);
        println!(
            "| {k} | {d} | {b} | {n} | {srm_ops} | {srm_pred:.0} | {dsm_ops} | {dsm_pred:.0} | {:.2} |",
            srm_ops as f64 / dsm_ops as f64,
        );
    }
    println!("\nExpected shape: the measured ratio column sits below 1 whenever");
    println!("both sorters need multiple merge passes (SRM's higher merge order");
    println!("saves passes), and the measured columns track the eq. 40/41");
    println!("predictions to within the formulas' no-ceiling simplification.");
}
