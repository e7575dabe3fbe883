//! A fork-join internal sort, kept only as a benchmark kernel.
//!
//! No sort forms runs with it: run formation sorts each memory load with
//! `sort_unstable_by_key` on the caller's thread, as the paper's §2.1 does
//! on its one processor.  `srmbench`'s `par_sort` kernel still times this
//! function, which is the only reason it stays; it goes together with that
//! kernel.
//!
//! `par_sort_by_key` splits the load into per-thread chunks, sorts each
//! with `sort_unstable` inside `std::thread::scope`, then merges the
//! sorted chunks pairwise with [`crate::merge_path`].  For a fixed
//! `threads` the result is deterministic; the relative order of equal keys
//! may differ across `threads` values.

use crate::merge_path::par_merge_sorted_chunks;
use pdisk::Record;

/// Sort `records` by key using up to `threads` worker threads.
///
/// `threads <= 1` (or small inputs) falls back to a plain
/// `sort_unstable_by_key`.
pub fn par_sort_by_key<R: Record>(records: &mut Vec<R>, threads: usize) {
    const MIN_PARALLEL: usize = 8 * 1024;
    if threads <= 1 || records.len() < MIN_PARALLEL {
        records.sort_unstable_by_key(|r| r.key());
        return;
    }
    let n = records.len();
    let threads = threads.min(n);
    let chunk = n.div_ceil(threads);

    // Phase 1: sort disjoint chunks in parallel.
    std::thread::scope(|scope| {
        for piece in records.chunks_mut(chunk) {
            scope.spawn(move || piece.sort_unstable_by_key(|r| r.key()));
        }
    });

    // Phase 2: pairwise Merge Path reduction of the sorted chunks, each
    // pair split across the same worker threads.  Output-identical to
    // the serial tournament-tree merge this replaces (lower chunk index
    // wins equal keys in both).
    par_merge_sorted_chunks(records, chunk, threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::U64Record;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random(n: usize, seed: u64) -> Vec<U64Record> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| U64Record(rng.random_range(0..1_000_000))).collect()
    }

    #[test]
    fn matches_std_sort_across_thread_counts() {
        for &n in &[0usize, 1, 100, 8 * 1024, 50_000, 50_001] {
            let base = random(n, 42);
            let mut expected = base.clone();
            expected.sort_unstable_by_key(|r| r.0);
            for threads in [1usize, 2, 3, 7, 16] {
                let mut got = base.clone();
                par_sort_by_key(&mut got, threads);
                assert_eq!(
                    got.iter().map(|r| r.0).collect::<Vec<_>>(),
                    expected.iter().map(|r| r.0).collect::<Vec<_>>(),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sorted_and_reverse_inputs() {
        let mut asc: Vec<U64Record> = (0..30_000).map(U64Record).collect();
        let expected = asc.clone();
        par_sort_by_key(&mut asc, 4);
        assert_eq!(asc, expected);
        let mut desc: Vec<U64Record> = (0..30_000).rev().map(U64Record).collect();
        par_sort_by_key(&mut desc, 4);
        assert_eq!(desc, expected);
    }

    #[test]
    fn heavy_duplicates() {
        let mut v: Vec<U64Record> = (0..40_000).map(|i| U64Record(i % 7)).collect();
        par_sort_by_key(&mut v, 5);
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(v.len(), 40_000);
    }

    #[test]
    fn more_threads_than_records() {
        let mut v = random(10, 1);
        par_sort_by_key(&mut v, 64);
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
