//! Tournament selection tree for `R`-way internal merging.
//!
//! The paper delegates internal merge processing to the classic selection
//! tree of Knuth §5.4.1: `R` leaves, each holding the current key of one
//! run; the root identifies the smallest in `O(1)`, and replacing any
//! leaf's key costs one leaf-to-root replay, `O(log R)` comparisons.
//!
//! This implementation stores the *winner* of every internal match (rather
//! than the loser), which keeps arbitrary-leaf updates correct — the merge
//! engines update non-winning leaves while blocks stream in during the
//! initial load, and replace sentinel keys in place when awaited blocks
//! arrive.
//!
//! Leaves compare by `(key, leaf index)`, so equal keys resolve
//! deterministically and the merge is stable across runs.
//!
//! `K` is whatever the caller orders its leaves by: the merges the record
//! key (`u64`, the default), replacement selection `(epoch, key)`, so a
//! record frozen for the next run loses to every record of the current one.
//!
//! Every node holds the winning `(key, leaf)` pair itself, not an index
//! into a key table.  A replay then needs one load per level — the
//! *sibling* of the node just written, `nodes[pos ^ 1]`, whose address
//! follows from the leaf alone, so the loads of all levels issue at once
//! instead of each waiting on the comparison below it — and the match is
//! a select the compiler is told not to turn into a branch: on uniform
//! keys every level is a coin flip the predictor loses half the time
//! (DESIGN.md §14.7 has the measured variants).

use std::{cmp::Ordering, hint::select_unpredictable};

/// One bracket entry: a leaf and the key it currently holds, ordered by
/// `(key, leaf)`, the tournament's total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry<K> {
    key: K,
    leaf: usize,
}

// Both by hand: on a *generic* struct `#[derive(PartialOrd)]` chains the
// fields' `partial_cmp`s instead of going through `Ord`, and the replay in
// `update` pays — the whole memory-backend sort 310 → 440 ms, measured.
impl<K: Ord> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then(self.leaf.cmp(&other.leaf))
    }
}
impl<K: Ord> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A tournament tree over `k` leaves with keys of type `K`.
///
/// The merges park an exhausted run at [`u64::MAX`]; since ties break on
/// leaf index the tree stays well-defined when several are exhausted.
#[derive(Debug, Clone)]
pub struct LoserTree<K = u64> {
    k: usize,
    /// Heap-shaped bracket: leaf `i` sits at `k + i`; internal nodes
    /// `1 .. k-1` hold the smaller of their two children, so `nodes[1]`
    /// is the overall winner (for `k == 1` it is the only leaf).
    /// `nodes[0]` is unused.
    nodes: Vec<Entry<K>>,
}

impl<K: Ord + Copy> LoserTree<K> {
    /// Build a tree over the given initial keys (one per leaf).
    ///
    /// # Panics
    /// Panics if `keys` is empty.
    pub fn new(keys: Vec<K>) -> Self {
        let k = keys.len();
        assert!(k > 0, "tournament tree needs at least one leaf");
        let mut nodes = vec![Entry { key: keys[0], leaf: usize::MAX }; 2 * k];
        for (leaf, (slot, key)) in nodes[k..].iter_mut().zip(keys).enumerate() {
            *slot = Entry { key, leaf };
        }
        for n in (1..k).rev() {
            nodes[n] = nodes[2 * n].min(nodes[2 * n + 1]);
        }
        LoserTree { k, nodes }
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.k
    }

    /// Current overall winner: `(leaf, key)`.
    #[inline]
    pub fn peek(&self) -> (usize, K) {
        let w = self.nodes[1];
        (w.leaf, w.key)
    }

    /// The key currently registered at `leaf`.
    #[inline]
    pub fn key_of(&self, leaf: usize) -> K {
        self.nodes[self.k + leaf].key
    }

    /// Replace `leaf`'s key and replay its path to the root.  Correct for
    /// any leaf, whether or not it is the current winner, and for both
    /// increasing and decreasing key changes.
    #[inline]
    pub fn update(&mut self, leaf: usize, new_key: K) {
        debug_assert!(leaf < self.k);
        let mut pos = self.k + leaf;
        let mut cur = Entry { key: new_key, leaf };
        self.nodes[pos] = cur;
        while pos > 1 {
            let sibling = self.nodes[pos ^ 1];
            cur = select_unpredictable(cur < sibling, cur, sibling);
            pos /= 2;
            self.nodes[pos] = cur;
        }
    }
}

impl LoserTree<u64> {
    /// True when every leaf is parked at `u64::MAX` (all runs exhausted).
    pub fn all_exhausted(&self) -> bool {
        self.nodes[1].key == u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_leaf() {
        let mut t = LoserTree::new(vec![42]);
        assert_eq!(t.peek(), (0, 42));
        t.update(0, 7);
        assert_eq!(t.peek(), (0, 7));
        t.update(0, u64::MAX);
        assert!(t.all_exhausted());
    }

    #[test]
    fn winner_is_global_min_after_build() {
        let t = LoserTree::new(vec![5, 3, 9, 1, 7]);
        assert_eq!(t.peek(), (3, 1));
    }

    #[test]
    fn ties_resolve_to_lowest_leaf() {
        let t = LoserTree::new(vec![4, 2, 2, 8]);
        assert_eq!(t.peek(), (1, 2));
    }

    /// Full k-way merge through the tree equals a plain sort, across many
    /// random shapes (including k = 2, odd k, and k not a power of two).
    #[test]
    fn merging_matches_sort() {
        let mut rng = SmallRng::seed_from_u64(123);
        for &k in &[1usize, 2, 3, 5, 8, 13, 31] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let len = rng.random_range(0..40);
                    let mut v: Vec<u64> = (0..len).map(|_| rng.random_range(0..500)).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let mut expected: Vec<u64> = runs.iter().flatten().copied().collect();
            expected.sort_unstable();

            let mut cursors = vec![0usize; k];
            let initial: Vec<u64> = runs
                .iter()
                .map(|r| r.first().copied().unwrap_or(u64::MAX))
                .collect();
            let mut tree = LoserTree::new(initial);
            let mut out = Vec::with_capacity(expected.len());
            while !tree.all_exhausted() {
                let (leaf, key) = tree.peek();
                out.push(key);
                cursors[leaf] += 1;
                let next = runs[leaf].get(cursors[leaf]).copied().unwrap_or(u64::MAX);
                tree.update(leaf, next);
            }
            assert_eq!(out, expected, "k = {k}");
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(cursors[i], r.len());
            }
        }
    }

    /// Non-winner leaves must be updatable in both directions — the merge
    /// engine lowers sentinel keys during the initial load and raises them
    /// when blocks are consumed.
    #[test]
    fn arbitrary_leaf_updates() {
        let mut t = LoserTree::new(vec![u64::MAX; 5]);
        // Fill in arbitrary order, peeking as we go.
        t.update(3, 30);
        assert_eq!(t.peek(), (3, 30));
        t.update(1, 50);
        assert_eq!(t.peek(), (3, 30));
        t.update(1, 10); // lower a loser below the winner
        assert_eq!(t.peek(), (1, 10));
        t.update(3, 5); // lower a loser below again
        assert_eq!(t.peek(), (3, 5));
        t.update(3, 60); // raise the winner
        assert_eq!(t.peek(), (1, 10));
        t.update(0, 10); // tie: lower leaf wins
        assert_eq!(t.peek(), (0, 10));
    }

    #[test]
    fn repeated_equal_keys() {
        let mut t = LoserTree::new(vec![1, 1, 1]);
        assert_eq!(t.peek().0, 0);
        t.update(0, 1);
        assert_eq!(t.peek().0, 0);
        t.update(0, 2);
        assert_eq!(t.peek().0, 1);
        t.update(1, 2);
        assert_eq!(t.peek().0, 2);
        t.update(2, 2);
        assert_eq!(t.peek(), (0, 2));
    }

    /// A pair-keyed tree (replacement selection's `(epoch, key)`) orders by
    /// the pair, then the leaf: draining it — each winner parked at the
    /// largest pair — is a sort of the same pairs.
    #[test]
    fn pair_keys_drain_in_sorted_order() {
        let mut rng = SmallRng::seed_from_u64(77);
        for k in [1usize, 2, 7, 64, 100] {
            let pairs: Vec<(u64, u64)> = (0..k)
                .map(|_| (rng.random_range(0..3), rng.random_range(0..5) * (u64::MAX / 4)))
                .collect();
            let mut expected: Vec<((u64, u64), usize)> =
                pairs.iter().copied().zip(0..).collect();
            expected.sort_unstable();
            let mut tree = LoserTree::new(pairs);
            for (pair, leaf) in expected {
                assert_eq!(tree.peek(), (leaf, pair), "k = {k}");
                tree.update(leaf, (u64::MAX, u64::MAX));
            }
            assert_eq!(tree.peek().1, (u64::MAX, u64::MAX));
        }
    }

    #[test]
    fn stress_against_binary_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = SmallRng::seed_from_u64(9);
        // Wide keys, then duplicate-heavy ones where nearly every match
        // is decided by the leaf index.
        for range in [1000u64, 4] {
            for k in [1usize, 2, 3, 15, 16, 17, 33] {
                let mut keys: Vec<u64> = (0..k).map(|_| rng.random_range(0..range)).collect();
                let mut tree = LoserTree::new(keys.clone());
                assert_eq!(tree.leaves(), k);
                for step in 0..2000 {
                    let heap: BinaryHeap<Reverse<(u64, usize)>> =
                        keys.iter().enumerate().map(|(i, &v)| Reverse((v, i))).collect();
                    let Reverse((k_min, leaf_min)) = heap.peek().copied().unwrap();
                    assert_eq!(tree.peek(), (leaf_min, k_min), "k = {k}, range {range}");
                    assert_eq!(tree.all_exhausted(), keys.iter().all(|&v| v == u64::MAX));
                    // Alternate the winner (the merge loop's update) with
                    // an arbitrary leaf (the block-arrival update).
                    let leaf = if step % 2 == 0 { leaf_min } else { rng.random_range(0..k) };
                    // Park a leaf at u64::MAX now and then; a parked leaf
                    // is un-parked by any later draw of a real key.
                    let new = if rng.random_range(0..4) == 0 {
                        u64::MAX
                    } else {
                        rng.random_range(0..range)
                    };
                    keys[leaf] = new;
                    tree.update(leaf, new);
                    assert_eq!(tree.key_of(leaf), new);
                }
                // Park everything: the tree must report exhaustion with
                // the lowest leaf as the (tied) winner.
                for leaf in 0..k {
                    tree.update(leaf, u64::MAX);
                }
                assert!(tree.all_exhausted());
                assert_eq!(tree.peek(), (0, u64::MAX));
            }
        }
    }
}
