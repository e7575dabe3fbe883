//! Cyclically striped run layout (§3).
//!
//! A run whose block 0 lives on disk `d_r` stores block `i` on disk
//! `(d_r + i) mod D`.  On each disk the run's blocks occupy consecutive
//! slots, so the whole layout is described by the start disk, the length,
//! and one base offset per disk.

use crate::addr::{BlockAddr, DiskId};
use serde::{Deserialize, Serialize};

/// Layout of one sorted run striped across the disks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripedRun {
    /// Disk holding block 0 (`d_r` in the paper; random in SRM, staggered in
    /// the deterministic variant).
    pub start_disk: DiskId,
    /// Number of blocks in the run.
    pub len_blocks: u64,
    /// Total records in the run (the final block may be partial).
    pub records: u64,
    /// `base_offsets[d]` is the slot of the run's first block on disk `d`.
    /// Entries for disks that hold none of the run's blocks are unused.
    pub base_offsets: Vec<u64>,
}

impl StripedRun {
    /// Disk holding block `i`: `(d_r + i) mod D`.
    #[inline]
    pub fn disk_of(&self, i: u64) -> DiskId {
        DiskId::from_mod(u64::from(self.start_disk.0) + i, self.base_offsets.len())
    }

    /// Full address of block `i`.
    ///
    /// Blocks `i` and `i + D` share a disk; block `i` is the `⌊i/D⌋`-th of
    /// the run's blocks on its disk.
    #[inline]
    pub fn addr_of(&self, i: u64) -> BlockAddr {
        debug_assert!(i < self.len_blocks, "block {i} out of run of {}", self.len_blocks);
        let d = self.base_offsets.len() as u64;
        let disk = self.disk_of(i);
        BlockAddr::new(disk, self.base_offsets[disk.index()] + i / d)
    }

    /// How many of the run's blocks live on disk `disk`.
    pub fn blocks_on_disk(&self, disk: DiskId) -> u64 {
        let d = self.base_offsets.len() as u64;
        let first = (disk.0 as u64 + d - self.start_disk.0 as u64) % d;
        if first >= self.len_blocks {
            0
        } else {
            1 + (self.len_blocks - 1 - first) / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(start: u32, len: u64, d: usize) -> StripedRun {
        StripedRun {
            start_disk: DiskId(start),
            len_blocks: len,
            records: len * 10,
            base_offsets: vec![0; d],
        }
    }

    #[test]
    fn disks_cycle_from_start() {
        let r = run(2, 7, 4);
        let disks: Vec<u32> = (0..7).map(|i| r.disk_of(i).0).collect();
        assert_eq!(disks, vec![2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn addresses_pack_consecutively_per_disk() {
        let mut r = run(1, 9, 3);
        r.base_offsets = vec![10, 20, 30];
        // Blocks on disk 1: i = 0, 3, 6 -> offsets 20, 21, 22.
        assert_eq!(r.addr_of(0), BlockAddr::new(DiskId(1), 20));
        assert_eq!(r.addr_of(3), BlockAddr::new(DiskId(1), 21));
        assert_eq!(r.addr_of(6), BlockAddr::new(DiskId(1), 22));
        // Blocks on disk 0: i = 2, 5, 8 -> offsets 10, 11, 12.
        assert_eq!(r.addr_of(2), BlockAddr::new(DiskId(0), 10));
        assert_eq!(r.addr_of(8), BlockAddr::new(DiskId(0), 12));
    }

    #[test]
    fn blocks_on_disk_counts_match_enumeration() {
        for start in 0..5u32 {
            for len in 0..23u64 {
                let r = run(start, len, 5);
                for disk in 0..5u32 {
                    let expected = (0..len).filter(|&i| r.disk_of(i) == DiskId(disk)).count() as u64;
                    assert_eq!(
                        r.blocks_on_disk(DiskId(disk)),
                        expected,
                        "start={start} len={len} disk={disk}"
                    );
                }
            }
        }
    }
}
