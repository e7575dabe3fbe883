//! Merge Path parallel two-way merging (Green, Odeh & Birk), kept only as
//! a benchmark kernel.
//!
//! No sort merges with it: the engine's merge is the loser tree.
//! `srmbench`'s `merge_path` kernel and [`crate::par_sort`] (itself kept
//! only for `srmbench`) are its callers, and it goes together with them.
//!
//! A two-way merge of sorted sequences `a` and `b` traces a monotone
//! staircase through the `|a| × |b|` grid: step right when the next
//! output record comes from `a`, down when it comes from `b`.  The
//! *Merge Path* observation is that the staircase's intersection with
//! the anti-diagonal `i + j = d` can be found by binary search without
//! merging anything — it is the unique split `(i, j)` where `a[..i]`
//! and `b[..j]` are exactly the first `d` records of the merged output.
//! Cutting the path at `t` evenly spaced diagonals therefore partitions
//! the merge into `t` *independent* segments of equal output size,
//! which worker threads fill into disjoint output slices with no
//! synchronization beyond the final join.
//!
//! **Determinism.**  Ties are broken *a-side first*, everywhere: the
//! split search puts an `a` record equal to a `b` record on the prefix
//! side, and the per-segment serial merge takes from `a` on equal keys.
//! Both choices describe the same total order (key, then side, then
//! position), so the output is a pure function of the inputs —
//! independent of the thread count — and equals the serial a-first
//! merge exactly.  Chained over adjacent chunk pairs (lower chunk index
//! always on the `a` side), this reproduces the tournament tree's
//! (key, leaf-index) tie-break, which is what lets
//! [`crate::par_sort::par_sort_by_key`] swap its serial k-way phase for
//! this module without changing a single output byte.
//!
//! Workers touch only in-memory slices — all I/O stays with the
//! engines.

use pdisk::Record;

/// Inputs below this many records are merged serially: thread spawn and
/// split-search overhead would exceed the merge itself.
const MIN_PARALLEL: usize = 8 * 1024;

/// The Merge Path split of diagonal `d`: the unique `(i, j)` with
/// `i + j == d` such that `a[..i]` and `b[..j]` are exactly the first
/// `d` records of the a-first merge of `a` and `b`.
///
/// Formally: `i` is the smallest index with `i + j == d` satisfying
/// `a[i..]` strictly after `b[..j]` (`b[j-1] < a[i]`, ties a-first) and
/// `a[..i]` never after `b[j..]` (`a[i-1] <= b[j]`).  Found by binary
/// search over the feasible `i` range in `O(log min(|a|, |b|, d))`.
pub fn diagonal_split<R: Record>(a: &[R], b: &[R], d: usize) -> (usize, usize) {
    debug_assert!(d <= a.len() + b.len(), "diagonal beyond the grid");
    let mut lo = d.saturating_sub(b.len());
    let mut hi = d.min(a.len());
    while lo < hi {
        // `i < hi <= min(d, |a|)` and `j = d - i >= 1` with
        // `j <= |b|` (from `i >= lo >= d - |b|`), so both probes index
        // in bounds.
        let i = lo + (hi - lo) / 2;
        let j = d - i;
        if b[j - 1].key() >= a[i].key() {
            // On equal keys the `a` record precedes, so `a[i]` belongs
            // to the prefix: the split lies strictly right of `i`.
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    (lo, d - lo)
}

// One worker's share of a partitioned merge: a plain serial two-way
// merge of its `(a, b)` sub-slices into its disjoint output slice,
// taking from `a` on equal keys.  Pure in-memory compute: no I/O, no
// lock, no wait.
fn merge_segment<R: Record>(a: &[R], b: &[R], out: &mut [R]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = j == b.len() || (i < a.len() && a[i].key() <= b[j].key());
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Merge sorted `a` and `b` into `out` (which must hold exactly
/// `|a| + |b|` records) across up to `threads` workers, ties a-first.
///
/// The output is identical for every `threads` value; small inputs and
/// `threads <= 1` run the serial merge directly.
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
pub fn merge_pair_into<R: Record>(a: &[R], b: &[R], out: &mut [R], threads: usize) {
    let n = a.len() + b.len();
    assert_eq!(out.len(), n, "output slice must hold every input record");
    if threads <= 1 || n < MIN_PARALLEL {
        merge_segment(a, b, out);
        return;
    }
    let threads = threads.min(n);
    let seg = n.div_ceil(threads);
    // Cut the path at every segment boundary up front (cheap: one
    // binary search per worker), then hand each worker its independent
    // (a-range, b-range, out-range) triple.
    let mut splits = Vec::with_capacity(threads + 1);
    splits.push((0usize, 0usize));
    let mut d = seg;
    while d < n {
        splits.push(diagonal_split(a, b, d));
        d += seg;
    }
    splits.push((a.len(), b.len()));
    std::thread::scope(|scope| {
        let mut rest = out;
        for w in splits.windows(2) {
            let ((i0, j0), (i1, j1)) = (w[0], w[1]);
            let len = (i1 - i0) + (j1 - j0);
            let (seg_out, tail) = rest.split_at_mut(len);
            rest = tail;
            let (a_seg, b_seg) = (&a[i0..i1], &b[j0..j1]);
            scope.spawn(move || merge_segment(a_seg, b_seg, seg_out));
        }
    });
}

/// Merge the sorted runs `records[0..chunk], records[chunk..2*chunk], …`
/// (the last possibly short) into one sorted sequence, in place.
///
/// Runs are reduced pairwise — adjacent pairs per round, lower run
/// always on the `a` side — so equal keys keep ascending original-run
/// order: exactly the (key, leaf) order of the tournament tree this
/// replaces.  Each pairwise merge is split across `threads` workers via
/// [`merge_pair_into`].  `chunk == 0` or a single run is a no-op.
pub fn par_merge_sorted_chunks<R: Record>(records: &mut Vec<R>, chunk: usize, threads: usize) {
    let n = records.len();
    if chunk == 0 || chunk >= n {
        return;
    }
    let mut bounds: Vec<usize> = (0..n).step_by(chunk).collect();
    bounds.push(n);
    // Ping-pong between the record buffer and one scratch buffer of the
    // same length; each round halves the run count.
    let mut src = std::mem::take(records);
    let mut dst = src.clone();
    while bounds.len() > 2 {
        let mut next = Vec::with_capacity(bounds.len() / 2 + 2);
        next.push(0);
        let mut t = 0;
        while t + 2 < bounds.len() {
            let (s0, s1, s2) = (bounds[t], bounds[t + 1], bounds[t + 2]);
            merge_pair_into(&src[s0..s1], &src[s1..s2], &mut dst[s0..s2], threads);
            next.push(s2);
            t += 2;
        }
        if t + 1 < bounds.len() {
            // Odd run out this round: carry it over unchanged.
            let (s0, s1) = (bounds[t], bounds[t + 1]);
            dst[s0..s1].copy_from_slice(&src[s0..s1]);
            next.push(s1);
        }
        std::mem::swap(&mut src, &mut dst);
        bounds = next;
    }
    *records = src;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loser_tree::LoserTree;
    use pdisk::{KeyPayloadRecord, U64Record};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The reference order: a serial loser-tree merge of the runs, the
    /// exact code path `par_sort_by_key` used before Merge Path.
    fn loser_tree_merge<R: Record>(records: &[R], chunk: usize) -> Vec<R> {
        let n = records.len();
        let mut cursors: Vec<usize> = (0..n).step_by(chunk.max(1).min(n.max(1))).collect();
        if cursors.is_empty() {
            return Vec::new();
        }
        let ends: Vec<usize> = cursors.iter().map(|&s| (s + chunk).min(n)).collect();
        let initial: Vec<u64> = cursors.iter().map(|&c| records[c].key()).collect();
        let mut tree = LoserTree::new(initial);
        let mut out = Vec::with_capacity(n);
        while !tree.all_exhausted() {
            let (leaf, _) = tree.peek();
            out.push(records[cursors[leaf]]);
            cursors[leaf] += 1;
            let next = if cursors[leaf] < ends[leaf] {
                records[cursors[leaf]].key()
            } else {
                u64::MAX
            };
            tree.update(leaf, next);
        }
        out
    }

    fn sorted_random(n: usize, span: u64, seed: u64) -> Vec<U64Record> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut v: Vec<U64Record> = (0..n).map(|_| U64Record(rng.random_range(0..span))).collect();
        v.sort_unstable_by_key(|r| r.0);
        v
    }

    #[test]
    fn split_prefixes_reassemble_the_merge() {
        let a = sorted_random(500, 50, 1);
        let b = sorted_random(300, 50, 2);
        let n = a.len() + b.len();
        let mut whole = vec![U64Record(0); n];
        merge_segment(&a, &b, &mut whole);
        for d in [0, 1, 7, 250, 500, 700, n] {
            let (i, j) = diagonal_split(&a, &b, d);
            assert_eq!(i + j, d);
            // The split's two prefixes are exactly the first d records.
            let mut prefix = vec![U64Record(0); d];
            merge_segment(&a[..i], &b[..j], &mut prefix);
            assert_eq!(prefix, whole[..d], "diagonal {d}");
        }
    }

    #[test]
    fn ties_across_the_split_go_a_side_first() {
        // Payload records make the tie-break observable: equal keys,
        // different payloads, and every diagonal must put all a-side
        // copies before any b-side copy.
        type Rec = KeyPayloadRecord<16>;
        let a: Vec<Rec> = (0..40).map(|_| Rec { key: 5, payload: [1; 16] }).collect();
        let b: Vec<Rec> = (0..40).map(|_| Rec { key: 5, payload: [2; 16] }).collect();
        for d in 0..=80usize {
            let (i, j) = diagonal_split(&a, &b, d);
            // All-equal keys with a-first ties: the prefix must be
            // drawn entirely from `a` until `a` is exhausted.
            assert_eq!(i, d.min(40), "diagonal {d}");
            assert_eq!(j, d.saturating_sub(40), "diagonal {d}");
        }
    }

    #[test]
    fn pair_merge_matches_serial_for_every_thread_count() {
        let a = sorted_random(20_000, 1_000, 3);
        let b = sorted_random(15_000, 1_000, 4);
        let mut serial = vec![U64Record(0); a.len() + b.len()];
        merge_segment(&a, &b, &mut serial);
        for threads in [1usize, 2, 3, 5, 8, 16] {
            let mut out = vec![U64Record(0); a.len() + b.len()];
            merge_pair_into(&a, &b, &mut out, threads);
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_sides() {
        let a = sorted_random(9_000, 100, 5);
        let empty: Vec<U64Record> = Vec::new();
        let one = vec![U64Record(50)];
        for threads in [1usize, 4] {
            let mut out = vec![U64Record(0); a.len()];
            merge_pair_into(&a, &empty, &mut out, threads);
            assert_eq!(out, a);
            let mut out = vec![U64Record(0); a.len()];
            merge_pair_into(&empty, &a, &mut out, threads);
            assert_eq!(out, a);
            let mut out = vec![U64Record(0); a.len() + 1];
            merge_pair_into(&a, &one, &mut out, threads);
            assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
            assert_eq!(out.iter().filter(|r| r.0 == 50).count(),
                a.iter().filter(|r| r.0 == 50).count() + 1);
        }
    }

    #[test]
    fn chunked_reduction_equals_loser_tree_exactly() {
        // Duplicate-heavy input (span 13 over 50k records) so split
        // boundaries routinely land inside equal-key runs; the
        // pairwise reduction must still reproduce the tournament
        // tree's output record for record.
        let mut rng = SmallRng::seed_from_u64(6);
        for &(n, chunk) in &[(50_000usize, 7_919usize), (50_000, 12_500), (40_000, 40_000 / 3)] {
            let mut v: Vec<U64Record> =
                (0..n).map(|_| U64Record(rng.random_range(0..13))).collect();
            for start in (0..n).step_by(chunk) {
                let end = (start + chunk).min(n);
                v[start..end].sort_unstable_by_key(|r| r.0);
            }
            let expected = loser_tree_merge(&v, chunk);
            for threads in [1usize, 2, 4, 7] {
                let mut got = v.clone();
                par_merge_sorted_chunks(&mut got, chunk, threads);
                assert_eq!(got, expected, "n={n} chunk={chunk} threads={threads}");
            }
        }
    }

    #[test]
    fn odd_run_counts_and_degenerate_chunks() {
        let mut v = sorted_random(100, 10, 7);
        let orig = v.clone();
        // chunk 0 and chunk >= n are no-ops.
        par_merge_sorted_chunks(&mut v, 0, 4);
        assert_eq!(v, orig);
        par_merge_sorted_chunks(&mut v, 100, 4);
        assert_eq!(v, orig);
        // Five runs (odd count twice during the reduction).
        let mut rng = SmallRng::seed_from_u64(8);
        let n = 10_000usize;
        let chunk = n.div_ceil(5);
        let mut v: Vec<U64Record> = (0..n).map(|_| U64Record(rng.random_range(0..500))).collect();
        for start in (0..n).step_by(chunk) {
            let end = (start + chunk).min(n);
            v[start..end].sort_unstable_by_key(|r| r.0);
        }
        let expected = loser_tree_merge(&v, chunk);
        par_merge_sorted_chunks(&mut v, chunk, 3);
        assert_eq!(v, expected);
    }
}
