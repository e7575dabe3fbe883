//! Disk and block addressing.

use serde::{Deserialize, Serialize};

/// Identifier of one of the `D` independent disks, `0 ..= D-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DiskId(pub u32);

impl DiskId {
    /// Index into per-disk vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A `DiskId` from a per-disk vector index.
    ///
    /// This (with [`DiskId::from_mod`]) is the one blessed narrowing into
    /// a disk id; everywhere else CI's lint census rejects an `as` cast in
    /// a `DiskId(…)` construction.  [`crate::Geometry::new`] guarantees
    /// `D ≤ u32::MAX`, so indices of in-range disks always fit.
    #[inline]
    pub fn from_index(i: usize) -> DiskId {
        debug_assert!(i <= u32::MAX as usize, "disk index {i} exceeds u32");
        DiskId(i as u32)
    }

    /// The disk `value mod d` — the cyclic-striping conversion (§3).
    ///
    /// The result is `< d ≤ u32::MAX`, so the narrowing cannot truncate.
    #[inline]
    pub fn from_mod(value: u64, d: usize) -> DiskId {
        debug_assert!(d > 0 && d <= u32::MAX as usize);
        DiskId((value % d as u64) as u32)
    }
}

impl std::fmt::Display for DiskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Address of one block slot: a disk plus a block-granular offset on it.
///
/// Offsets are abstract slot numbers handed out by the backend's allocator;
/// the file backend maps them to byte offsets, the memory backend to vector
/// indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockAddr {
    /// Which disk the block lives on.
    pub disk: DiskId,
    /// Block-granular offset on that disk.
    pub offset: u64,
}

impl BlockAddr {
    /// Construct an address.
    #[inline]
    pub fn new(disk: DiskId, offset: u64) -> Self {
        BlockAddr { disk, offset }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_groups_by_disk_then_offset() {
        let a = BlockAddr::new(DiskId(0), 9);
        let b = BlockAddr::new(DiskId(1), 0);
        let c = BlockAddr::new(DiskId(1), 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn display_and_index() {
        assert_eq!(DiskId(7).to_string(), "d7");
        assert_eq!(DiskId(7).index(), 7);
    }
}
