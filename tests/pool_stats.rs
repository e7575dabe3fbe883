//! Buffer-pool recycling regression: the merge loop must actually hit
//! the pool.  A steady-state pipelined sort on the file backend (the
//! headline bench configuration, shrunk to test scale) has to serve the
//! overwhelming majority of buffer draws from the pool, and after the
//! first merge pass has warmed it, allocate **nothing** — zero fresh
//! draws of either kind.  This pins the allocation-elision half of the
//! zero-delay fast path: a regression that silently reintroduces
//! per-block allocations fails here, not in a wall-clock bench.

use pdisk::{DiskArray, FileDiskArray, Geometry, PoolStats, U64Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::run_formation::RunFormation;
use srm_core::sort::write_unsorted_input;
use srm_core::{SortReport, SrmConfig, SrmSorter};
use std::cell::Cell;

/// The headline geometry (D=8, B=16, M=1792 records).
fn geom() -> Geometry {
    Geometry::new(8, 16, 1792).unwrap()
}

/// A pipelined sort of `records` on a fresh file array under
/// `run_formation`: the report, the pool's stats after merge pass 1 and
/// at the end, and the backend's queue counters.
fn pooled_sort(
    run_formation: RunFormation,
    records: &[U64Record],
) -> (SortReport, PoolStats, PoolStats, pdisk::QueueStats) {
    let rs = run_formation == RunFormation::ReplacementSelection;
    let dir = std::env::temp_dir().join(format!("srm-poolstats-rs{rs}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut a = FileDiskArray::<U64Record>::create(geom(), &dir).unwrap();
    let input = write_unsorted_input(&mut a, records).unwrap();

    // Snapshot the pool after merge pass 1: by then one full merge has
    // cycled every buffer class through the pool at the pass's R.
    let warm: Cell<Option<PoolStats>> = Cell::new(None);
    let (sorted, report) = SrmSorter::new(SrmConfig { run_formation, ..SrmConfig::default() })
        .with_pipeline(true)
        .with_read_ahead(3)
        .sort_observed(&mut a, &input, None, |pass, a: &mut FileDiskArray<U64Record>| {
            if pass == 1 {
                warm.set(Some(a.buffer_pool().unwrap().stats()));
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(sorted.records, records.len() as u64);
    let out = (report, warm.get().expect("observer saw pass 1"), a.buffer_pool().unwrap().stats(), a.queue_stats());
    drop(a);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn steady_state_merge_runs_out_of_the_pool() {
    // Reduced record count: enough for multiple merge passes, fast
    // enough for CI.
    let mut rng = SmallRng::seed_from_u64(0xB0F0);
    let records: Vec<U64Record> = (0..40_000).map(|_| U64Record(rng.random())).collect();
    let (report, warm, end, q) = pooled_sort(RunFormation::default(), &records);
    assert!(report.merge_passes >= 2, "need a multi-pass workload to test steady state");

    // Steady state after warm-up: zero fresh allocations of either kind.
    assert_eq!(
        end.misses(),
        warm.misses(),
        "merge passes after warm-up must allocate nothing: warm {warm:?}, end {end:?}"
    );

    // Whole-sort hit rates (warm-up included) stay above a fixed floor.
    let rec_rate = end.record_hit_rate().expect("record draws happened");
    let byte_rate = end.byte_hit_rate().expect("byte draws happened");
    assert!(rec_rate >= 0.85, "record hit rate {rec_rate:.4} below floor (stats {end:?})");
    assert!(byte_rate >= 0.99, "byte hit rate {byte_rate:.4} below floor (stats {end:?})");

    // Formation too: each input block's records are copied into the
    // memory load and the emptied buffer goes back to the pool, so the
    // whole sort allocates far fewer record buffers than the input has
    // blocks (one per block before formation recycled them).
    // Replacement selection's input stripes go through the same window
    // and back to the same pool.
    let input_blocks = records.len().div_ceil(geom().b) as u64;
    let (_, _, rs_end, _) = pooled_sort(RunFormation::ReplacementSelection, &records);
    for end in [end, rs_end] {
        assert!(
            end.fresh_records * 10 < input_blocks,
            "{} fresh record buffers for {input_blocks} input blocks (stats {end:?})",
            end.fresh_records
        );
    }

    // A parallel I/O reaches the workers as one event: whatever its
    // width, a submission notifies at most once.
    assert!(q.submissions > 0 && q.notifications <= q.submissions, "{q:?}");
}
