//! Partial striping (Vitter–Shriver's technique, invoked by the paper's
//! §2.2 to enforce `D = O(B)`).
//!
//! Groups the `D` physical disks into clusters of `c`, presenting a
//! logical array with `D' = D/c` disks and block size `B' = c·B`: one
//! logical block is a mini-stripe across its cluster.  A logical parallel
//! operation touches each cluster at most once, hence each *physical*
//! disk at most once — it maps to exactly **one** physical parallel
//! operation, so logical and physical operation counts coincide.
//!
//! Use when `D` outgrows `B` and SRM's merge-order formula
//! `(M/B − 4D)/(2 + D/B)` starts to suffer: pick `c` so that
//! `D' = O(B')`, trading a factor-`c` coarser stripe for a healthy merge
//! order.

use crate::addr::{BlockAddr, DiskId};
use crate::backend::DiskArray;
use crate::block::{Block, Forecast};
use crate::error::{PdiskError, Result};
use crate::geometry::Geometry;
use crate::record::Record;
use crate::stats::IoStats;

/// A clustered view over a physical [`DiskArray`].
#[derive(Debug)]
pub struct ClusteredDiskArray<R: Record, A: DiskArray<R>> {
    inner: A,
    c: usize,
    logical: Geometry,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record, A: DiskArray<R>> ClusteredDiskArray<R, A> {
    /// Cluster `inner`'s disks in groups of `c`.
    ///
    /// Requires `c` to divide the physical disk count.  The wrapper must
    /// be the array's only allocator (it keeps each cluster's per-disk
    /// allocators in lockstep).
    pub fn new(inner: A, c: usize) -> Result<Self> {
        let phys = inner.geometry();
        if c == 0 || phys.d % c != 0 {
            return Err(PdiskError::BadGeometry(format!(
                "cluster size {c} must divide D = {}",
                phys.d
            )));
        }
        let logical = Geometry::new(phys.d / c, phys.b * c, phys.m)?;
        Ok(ClusteredDiskArray {
            inner,
            c,
            logical,
            _marker: std::marker::PhantomData,
        })
    }

    /// The physical backend (e.g. to read its raw stats).
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// Cluster size `c`.
    pub fn cluster_size(&self) -> usize {
        self.c
    }

    fn physical_addrs(&self, addr: BlockAddr) -> impl Iterator<Item = BlockAddr> + '_ {
        let base = addr.disk.index() * self.c;
        (0..self.c).map(move |i| BlockAddr::new(DiskId::from_index(base + i), addr.offset))
    }
}

impl<R: Record, A: DiskArray<R>> DiskArray<R> for ClusteredDiskArray<R, A> {
    fn geometry(&self) -> Geometry {
        self.logical
    }

    fn read(&mut self, addrs: &[BlockAddr]) -> Result<Vec<Block<R>>> {
        if addrs.is_empty() {
            return Ok(Vec::new());
        }
        self.logical.check_parallel_op(addrs.iter().map(|a| a.disk))?;
        let phys: Vec<BlockAddr> = addrs
            .iter()
            .flat_map(|&a| self.physical_addrs(a))
            .collect();
        let blocks = self.inner.read(&phys)?;
        // Reassemble: each run of `c` physical blocks is one logical
        // block; the logical forecast rides in the first physical block.
        let mut out = Vec::with_capacity(addrs.len());
        for group in blocks.chunks(self.c) {
            let forecast = group[0].forecast.clone();
            let mut records = Vec::with_capacity(self.logical.b);
            for b in group {
                records.extend(b.records.iter().copied());
            }
            out.push(Block { records, forecast });
        }
        Ok(out)
    }

    fn write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        self.logical
            .check_parallel_op(writes.iter().map(|(a, _)| a.disk))?;
        let phys_b = self.inner.geometry().b;
        let mut phys = Vec::with_capacity(writes.len() * self.c);
        for (addr, block) in writes {
            if block.len() > self.logical.b {
                return Err(PdiskError::BadBlockSize {
                    expected: self.logical.b,
                    got: block.len(),
                });
            }
            let mut chunks = block.records.chunks(phys_b);
            for (i, paddr) in self.physical_addrs(addr).enumerate() {
                let records = chunks.next().map(<[R]>::to_vec).unwrap_or_default();
                let forecast = if i == 0 {
                    block.forecast.clone()
                } else {
                    Forecast::Next(crate::block::NO_BLOCK)
                };
                phys.push((paddr, Block { records, forecast }));
            }
        }
        self.inner.write(phys)
    }

    fn install_pool(&mut self, pool: crate::pool::BufferPool<R>) {
        self.inner.install_pool(pool);
    }

    fn buffer_pool(&self) -> Option<&crate::pool::BufferPool<R>> {
        self.inner.buffer_pool()
    }

    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
        if disk.index() >= self.logical.d {
            return Err(PdiskError::NoSuchDisk(disk));
        }
        let base = disk.index() * self.c;
        let first = self
            .inner
            .alloc_contiguous(DiskId::from_index(base), count)?;
        for i in 1..self.c {
            let off = self
                .inner
                .alloc_contiguous(DiskId::from_index(base + i), count)?;
            assert_eq!(
                off, first,
                "cluster {disk} allocators out of lockstep (physical disk {i})"
            );
        }
        Ok(first)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn redundancy(&self) -> Option<crate::backend::RedundancyInfo> {
        self.inner.redundancy()
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    /// Scrub every physical block of the logical mini-stripe and fold
    /// the outcomes: any unrepairable member poisons the logical block,
    /// otherwise one repair suffices to report it repaired.
    fn scrub_block(&mut self, addr: BlockAddr) -> Result<crate::backend::ScrubOutcome> {
        use crate::backend::ScrubOutcome;
        if addr.disk.index() >= self.logical.d {
            return Err(PdiskError::NoSuchDisk(addr.disk));
        }
        let phys: Vec<BlockAddr> = self.physical_addrs(addr).collect();
        let mut repaired = false;
        for pa in phys {
            match self.inner.scrub_block(pa)? {
                ScrubOutcome::Clean => {}
                ScrubOutcome::Repaired => repaired = true,
                ScrubOutcome::Unrepairable(why) => {
                    return Ok(ScrubOutcome::Unrepairable(format!(
                        "physical member {pa:?} of logical block {addr:?}: {why}"
                    )));
                }
            }
        }
        Ok(if repaired {
            ScrubOutcome::Repaired
        } else {
            ScrubOutcome::Clean
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDiskArray;
    use crate::record::U64Record;

    fn clustered(
        d: usize,
        b: usize,
        m: usize,
        c: usize,
    ) -> ClusteredDiskArray<U64Record, MemDiskArray<U64Record>> {
        let inner = MemDiskArray::new(Geometry::new(d, b, m).unwrap());
        ClusteredDiskArray::new(inner, c).unwrap()
    }

    #[test]
    fn geometry_is_reclustered() {
        let a = clustered(8, 2, 1000, 4);
        let g = a.geometry();
        assert_eq!(g.d, 2);
        assert_eq!(g.b, 8);
        assert_eq!(g.m, 1000);
        assert_eq!(a.cluster_size(), 4);
    }

    #[test]
    fn bad_cluster_sizes_rejected() {
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(Geometry::new(6, 2, 1000).unwrap());
        assert!(ClusteredDiskArray::new(inner, 4).is_err());
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(Geometry::new(6, 2, 1000).unwrap());
        assert!(ClusteredDiskArray::new(inner, 0).is_err());
    }

    #[test]
    fn logical_roundtrip_preserves_records_and_forecast() {
        let mut a = clustered(4, 2, 1000, 2);
        let off = a.alloc_contiguous(DiskId(1), 1).unwrap();
        let block = Block::new(
            (10..14).map(U64Record).collect(), // logical B' = c·B = 4
            Forecast::Initial(vec![1, 2]),
        );
        a.write(vec![(BlockAddr::new(DiskId(1), off), block.clone())])
            .unwrap();
        let got = a.read(&[BlockAddr::new(DiskId(1), off)]).unwrap();
        assert_eq!(got[0], block);
    }

    #[test]
    fn partial_logical_block_roundtrips() {
        let mut a = clustered(4, 2, 1000, 2);
        let off = a.alloc_contiguous(DiskId(0), 1).unwrap();
        // 3 records in a logical block of 4: second physical block partial.
        let block = Block::new(vec![U64Record(1), U64Record(2), U64Record(3)], Forecast::Next(9));
        a.write(vec![(BlockAddr::new(DiskId(0), off), block.clone())])
            .unwrap();
        let got = a.read(&[BlockAddr::new(DiskId(0), off)]).unwrap();
        assert_eq!(got[0], block);
    }

    #[test]
    fn one_logical_op_is_one_physical_op() {
        let mut a = clustered(8, 2, 10_000, 4);
        let o0 = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let o1 = a.alloc_contiguous(DiskId(1), 1).unwrap();
        let mk = |base: u64| Block::new((base..base + 8).map(U64Record).collect(), Forecast::Next(0));
        a.write(vec![
            (BlockAddr::new(DiskId(0), o0), mk(0)),
            (BlockAddr::new(DiskId(1), o1), mk(100)),
        ])
        .unwrap();
        // 2 logical blocks = 8 physical blocks, one parallel write.
        assert_eq!(a.stats().write_ops, 1);
        assert_eq!(a.stats().blocks_written, 8);
        a.read(&[BlockAddr::new(DiskId(0), o0), BlockAddr::new(DiskId(1), o1)])
            .unwrap();
        assert_eq!(a.stats().read_ops, 1);
        assert_eq!(a.stats().blocks_read, 8);
    }

    #[test]
    fn duplicate_logical_disk_rejected() {
        let mut a = clustered(4, 2, 1000, 2);
        let off = a.alloc_contiguous(DiskId(0), 2).unwrap();
        let err = a
            .read(&[BlockAddr::new(DiskId(0), off), BlockAddr::new(DiskId(0), off + 1)])
            .unwrap_err();
        assert!(matches!(err, PdiskError::DuplicateDisk(_)));
    }

    #[test]
    fn out_of_range_logical_disk_rejected() {
        let mut a = clustered(4, 2, 1000, 2);
        assert!(matches!(
            a.alloc_contiguous(DiskId(2), 1),
            Err(PdiskError::NoSuchDisk(_))
        ));
    }

    #[test]
    fn oversized_logical_block_rejected() {
        let mut a = clustered(4, 2, 1000, 2);
        let off = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let too_big = Block::new((0..5).map(U64Record).collect(), Forecast::Next(0));
        assert!(matches!(
            a.write(vec![(BlockAddr::new(DiskId(0), off), too_big)]),
            Err(PdiskError::BadBlockSize { expected: 4, got: 5 })
        ));
    }
}
