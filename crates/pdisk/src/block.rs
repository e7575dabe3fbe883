//! Blocks and the forecasting format of §4.
//!
//! Each block of a run carries *implanted* future key information so that a
//! merger holding the block can forecast which block to read next from each
//! disk:
//!
//! * the initial block `b_{r,0}` of run `r` carries the smallest keys
//!   `k_{r,0} .. k_{r,D-1}` of the first `D` blocks;
//! * block `b_{r,i}` for `i > 0` carries the single key `k_{r,i+D}` — the
//!   smallest key of the next block of the same run on the *same disk*
//!   (cyclic striping places blocks `i` and `i+D` on one disk).
//!
//! The extra space is one key per block (`D` keys in the initial block),
//! negligible versus `B` records, exactly as the paper argues.

use crate::record::Record;

/// Sentinel forecast key meaning "the run has no block at that position".
pub const NO_BLOCK: u64 = u64::MAX;

/// Implanted forecasting information carried by a block (§4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Forecast {
    /// Initial block of a run: smallest keys of blocks `0..D` of the run
    /// (entry `j` is `k_{r,j}`; `NO_BLOCK` where the run is shorter).
    Initial(Vec<u64>),
    /// Non-initial block `i`: smallest key `k_{r,i+D}` of the block that
    /// follows on the same disk (`NO_BLOCK` if the run ends first).
    Next(u64),
}

impl Forecast {
    /// The forecast key for "the next block of this run on this block's
    /// disk", given this block's index within the run.
    ///
    /// For an initial block (index 0) that is entry `D-1`… no: block 0 lives
    /// on disk `d_r`, and the next block of the run on disk `d_r` is block
    /// `D`; its key is **not** in the initial table (which covers `0..D`).
    /// The merge engine therefore always consumes `Initial` tables wholesale
    /// to seed the forecasting structure and uses [`Forecast::next_key`]
    /// only for `Next` blocks.  This accessor returns `None` for `Initial`.
    pub fn next_key(&self) -> Option<u64> {
        match self {
            Forecast::Initial(_) => None,
            Forecast::Next(k) => Some(*k),
        }
    }
}

/// A block: up to `B` records of a single run plus its forecasting metadata.
///
/// Blocks are value types moved between "disk" and "memory" by the backends;
/// the merge engines never construct partially filled blocks except for the
/// final block of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block<R: Record> {
    /// Records in ascending key order (a block of a *sorted run*).
    pub records: Vec<R>,
    /// Implanted forecast data (§4).
    pub forecast: Forecast,
}

impl<R: Record> Block<R> {
    /// Build a block; debug-asserts the records are sorted by key.
    pub fn new(records: Vec<R>, forecast: Forecast) -> Self {
        debug_assert!(
            records.windows(2).all(|w| w[0].key() <= w[1].key()),
            "block records must be sorted"
        );
        Block { records, forecast }
    }

    /// Smallest key in the block (`k_{r,i}` in the paper's notation).
    ///
    /// # Panics
    /// Panics on an empty block — empty blocks are never written.
    #[inline]
    #[expect(clippy::expect_used, reason = "documented # Panics contract")]
    pub fn min_key(&self) -> u64 {
        self.records.first().expect("non-empty block").key()
    }

    /// Number of records currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::U64Record;

    fn blk(keys: &[u64]) -> Block<U64Record> {
        Block::new(keys.iter().map(|&k| U64Record(k)).collect(), Forecast::Next(NO_BLOCK))
    }

    #[test]
    fn min_len() {
        let b = blk(&[3, 5, 9]);
        assert_eq!(b.min_key(), 3);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic]
    fn min_key_panics_on_empty() {
        let b = blk(&[]);
        let _ = b.min_key();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted")]
    fn unsorted_block_rejected_in_debug() {
        let _ = blk(&[5, 3]);
    }

    #[test]
    fn forecast_next_key() {
        assert_eq!(Forecast::Next(7).next_key(), Some(7));
        assert_eq!(Forecast::Initial(vec![1, 2]).next_key(), None);
    }
}
