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
use crate::backend::{DiskArray, ReadTicket, ScrubOutcome, WriteTicket};
use crate::block::{Block, Forecast};
use crate::error::{PdiskError, Result};
use crate::geometry::Geometry;
use crate::layer::{Layer, Stack};
use crate::record::Record;
use crate::trace::TraceSink;

/// The layer that presents clusters of `c` physical disks as one logical
/// disk each.  It is the one layer whose addresses and block size differ
/// from those below it, so where the others pass an operation through it
/// answers for itself: a logical block is `c` physical blocks reassembled
/// on return and no production stack builds it, so its split-phase pair
/// is served at submit; a prefetch hint would have to fan out to `c`
/// slots and is dropped; and no trace sink is installed below, where
/// physical events would carry disk ids outside the logical geometry a
/// trace is checked against.
#[derive(Debug)]
pub struct Clustered {
    c: usize,
    logical: Geometry,
}

/// A clustered view over a physical [`DiskArray`].
pub type ClusteredDiskArray<R, A> = Stack<R, Clustered, A>;

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
        Ok(Stack::from_parts(inner, Clustered { c, logical }))
    }

    /// Cluster size `c`.
    pub fn cluster_size(&self) -> usize {
        self.layer.c
    }
}

impl Clustered {
    fn physical_addrs(&self, addr: BlockAddr) -> impl Iterator<Item = BlockAddr> + '_ {
        let base = addr.disk.index() * self.c;
        (0..self.c).map(move |i| BlockAddr::new(DiskId::from_index(base + i), addr.offset))
    }
}

impl<R: Record> Layer<R> for Clustered {
    fn geometry(&self, _inner: &impl DiskArray<R>) -> Geometry {
        self.logical
    }

    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        if addrs.is_empty() {
            return Ok(ReadTicket::ready(Vec::new(), Vec::new()));
        }
        self.logical.check_parallel_op(addrs.iter().map(|a| a.disk))?;
        let phys: Vec<BlockAddr> = addrs
            .iter()
            .flat_map(|&a| self.physical_addrs(a))
            .collect();
        let blocks = inner.read(&phys)?;
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
        Ok(ReadTicket::ready(addrs.to_vec(), out))
    }

    fn complete_read(&mut self, _inner: &mut impl DiskArray<R>, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        ticket.into_ready()
    }

    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket> {
        if writes.is_empty() {
            return Ok(WriteTicket::ready(Vec::new()));
        }
        self.logical
            .check_parallel_op(writes.iter().map(|(a, _)| a.disk))?;
        let addrs: Vec<BlockAddr> = writes.iter().map(|(a, _)| *a).collect();
        let phys_b = inner.geometry().b;
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
        inner.write(phys)?;
        Ok(WriteTicket::ready(addrs))
    }

    fn complete_write(&mut self, _inner: &mut impl DiskArray<R>, ticket: WriteTicket) -> Result<()> {
        ticket.into_ready()
    }

    fn prefetch(&mut self, _inner: &mut impl DiskArray<R>, _addrs: &[BlockAddr]) {}

    fn install_trace(&mut self, _inner: &mut impl DiskArray<R>, _sink: TraceSink) {}

    fn trace_sink<'a>(&'a self, _inner: &'a impl DiskArray<R>) -> Option<&'a TraceSink> {
        None
    }

    /// Reserve the same `count` slots on every member of the cluster.
    /// The members' allocators move in lockstep, except after a call
    /// that failed part-way (a fault on a later member leaves the
    /// earlier ones advanced): the reservation is therefore placed at
    /// the furthest member and the laggards skip forward to it, the
    /// skipped slots never referenced.
    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> Result<u64> {
        if disk.index() >= self.logical.d {
            return Err(PdiskError::NoSuchDisk(disk));
        }
        let base = disk.index() * self.c;
        let mut offsets = Vec::with_capacity(self.c);
        for i in 0..self.c {
            offsets.push(inner.alloc_contiguous(DiskId::from_index(base + i), count)?);
        }
        let first = offsets.iter().copied().max().unwrap_or(0);
        for (i, off) in offsets.into_iter().enumerate() {
            if off < first {
                inner.alloc_contiguous(DiskId::from_index(base + i), first - off)?;
            }
        }
        Ok(first)
    }

    /// Scrub every physical block of the logical mini-stripe and fold
    /// the outcomes: any unrepairable member poisons the logical block,
    /// otherwise one repair suffices to report it repaired.
    fn scrub_block(&mut self, inner: &mut impl DiskArray<R>, addr: BlockAddr) -> Result<ScrubOutcome> {
        if addr.disk.index() >= self.logical.d {
            return Err(PdiskError::NoSuchDisk(addr.disk));
        }
        let mut repaired = false;
        for pa in self.physical_addrs(addr) {
            match inner.scrub_block(pa)? {
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

    /// A member allocation that fails leaves the members before it
    /// advanced.  The fault is retryable, so the retry must find the
    /// cluster usable: the reservation lands past the furthest member
    /// and the allocators are in lockstep again behind it.
    #[test]
    fn failed_member_allocation_realigns_on_retry() {
        use crate::faulty::{FaultPlan, FaultyDiskArray};
        use crate::retry::{RetryPolicy, RetryingDiskArray};
        let mem = MemDiskArray::<U64Record>::new(Geometry::new(4, 2, 100).unwrap());
        let faulty = FaultyDiskArray::new(mem, FaultPlan::alloc(1));
        let clustered = ClusteredDiskArray::new(faulty, 2).unwrap();
        let mut a = RetryingDiskArray::new(clustered, RetryPolicy::default());
        let off = a.alloc_contiguous(DiskId(0), 3).unwrap();
        assert_eq!(a.stats().alloc_retries, 1);
        let block = Block::new((0..4).map(U64Record).collect(), Forecast::Next(9));
        for slot in [off, off + 2] {
            a.write(vec![(BlockAddr::new(DiskId(0), slot), block.clone())]).unwrap();
            assert_eq!(a.read(&[BlockAddr::new(DiskId(0), slot)]).unwrap()[0], block);
        }
        assert_eq!(a.alloc_contiguous(DiskId(0), 1).unwrap(), off + 3);
        assert_eq!(a.alloc_contiguous(DiskId(1), 1).unwrap(), 0, "the other cluster is untouched");
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
