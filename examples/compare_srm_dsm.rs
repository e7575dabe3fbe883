//! The paper's headline comparison, live: sort the same file with SRM and
//! with disk-striped mergesort (DSM) under identical memory budgets, and
//! watch the I/O-operation ratio track Table 2/4 as the disk count grows.
//!
//! ```text
//! cargo run --release --example compare_srm_dsm
//! ```

use srm_repro::pdisk::{Geometry, MemDiskArray, U64Record};
use srm_repro::srm::sort::write_unsorted_input;
use srm_repro::srm::{EngineKind, SrmSorter};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u64 = 1_000_000;
    let k = 2; // memory per disk: small k is where SRM shines
    let b = 32;
    println!("sorting N = {n} records, k = {k}, B = {b}\n");
    println!("| D | SRM passes | DSM passes | SRM ops | DSM ops | ratio |");
    println!("|---|-----------|-----------|---------|---------|-------|");
    for d in [2usize, 4, 8, 16] {
        let geom = Geometry::for_table(k, d, b)?;
        let mut rng = SmallRng::seed_from_u64(7);
        let records: Vec<U64Record> = (0..n).map(|_| U64Record(rng.random())).collect();

        let mut srm_disks: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_input(&mut srm_disks, &records)?;
        let (srm_out, srm) = SrmSorter::default().sort(&mut srm_disks, &input)?;

        // DSM is the same engine with the D disks as one disk of
        // D·B-record blocks, merging eq. 41's R_DSM runs at a time.
        let wide = Geometry::new(1, d * b, geom.m)?;
        let mut dsm_disks: MemDiskArray<U64Record> = MemDiskArray::new(wide);
        let input = write_unsorted_input(&mut dsm_disks, &records)?;
        let (dsm_out, dsm) = SrmSorter::default().with_engine(EngineKind::Dsm).sort(&mut dsm_disks, &input)?;

        // Both must produce the same sorted sequence.
        let a = srm_repro::srm::read_run(&mut srm_disks, &srm_out)?;
        let c = srm_repro::srm::read_run(&mut dsm_disks, &dsm_out)?;
        assert_eq!(a, c, "SRM and DSM disagree on the sorted output");

        let srm_ops = srm.io.total_ops();
        let dsm_ops = dsm.io.total_ops();
        println!(
            "| {d} | {} | {} | {srm_ops} | {dsm_ops} | {:.2} |",
            srm.merge_passes,
            dsm.merge_passes,
            srm_ops as f64 / dsm_ops as f64
        );
    }
    println!("\nSRM merges R = kD runs at a time against DSM's ~k+1, so as D");
    println!("grows SRM saves whole passes — the ratio falls exactly as the");
    println!("paper's Tables 2 and 4 predict (0.5–0.8 territory).");
    println!("At D = 2 the floored merge orders coincide (R = 3 for both), so");
    println!("pass counts tie and SRM's small read overhead makes it a wash —");
    println!("the regime where the paper itself says striping is fine.");
    Ok(())
}
