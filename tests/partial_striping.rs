//! Partial striping end-to-end: when `D` outgrows `B`, clustering the
//! disks (§2.2's nod to Vitter–Shriver) restores a healthy merge order.
//! A cluster of `c` disks moving one block each is one disk moving a
//! block of `c·B`, so `D` physical disks clustered by `c` are the
//! geometry `Geometry::new(D/c, c·B, M)` and the whole SRM sorter runs
//! on it unchanged.

use pdisk::{DiskArray, Geometry, MemDiskArray, U64Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, SrmSorter};

fn records(n: u64, seed: u64) -> Vec<U64Record> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| U64Record(rng.random())).collect()
}

/// SRM's merge order is `R = (M − 4DB)/(2B + D)` in records; clustering
/// by `c` turns the denominator into `2cB + D/c`, a win exactly when
/// `D > 2Bc`.  With D = 64 physical disks of B = 1 (deep in the `D ≫ B`
/// regime §2.2 worries about), clustering by 4 nearly triples `R`.
#[test]
fn clustering_restores_merge_order() {
    let m = 1000;
    let flat = Geometry::new(64, 1, m).unwrap();
    let clustered = Geometry::new(16, 4, m).unwrap(); // = flat clustered by 4
    let r_flat = flat.srm_merge_order().unwrap();
    let r_clustered = clustered.srm_merge_order().unwrap();
    assert!(
        r_clustered > 2 * r_flat,
        "clustering should help: flat R = {r_flat}, clustered R = {r_clustered}"
    );
}

/// The merge order that clustering restores saves a whole pass: the same
/// 12 000 records at M = 1000 need two merge passes on 64 disks of
/// B = 1 (R = 11 against 24 runs) and one on those disks clustered by 4
/// (R = 31), and the clustered sort issues fewer parallel I/Os for it.
#[test]
fn clustering_saves_a_merge_pass() {
    let m = 1000;
    let data = records(12_000, 1);
    let mut expected = data.clone();
    expected.sort_unstable_by_key(|r| r.0);
    let sort = |geom: Geometry| {
        let mut array: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_input(&mut array, &data).unwrap();
        array.reset_stats();
        let (run, report) = SrmSorter::default().sort(&mut array, &input).unwrap();
        assert_eq!(read_run(&mut array, &run).unwrap(), expected, "{geom:?}");
        report
    };
    let flat = sort(Geometry::new(64, 1, m).unwrap());
    let clustered = sort(Geometry::new(16, 4, m).unwrap());
    assert_eq!(flat.merge_passes, 2, "{flat}");
    assert_eq!(clustered.merge_passes, 1, "{clustered}");
    assert!(
        clustered.io.total_ops() < flat.io.total_ops(),
        "clustered {} vs flat {} parallel I/Os",
        clustered.io.total_ops(),
        flat.io.total_ops()
    );
}
