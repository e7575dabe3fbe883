//! In-memory disk array: the exact-accounting simulation backend.
//!
//! This is the substrate equivalent to the paper's own evaluation: blocks
//! live in RAM, every submitted read or write is counted as one parallel
//! operation and served at submit (its ticket is ready), and the model
//! constraint (≤ 1 block per disk per operation) is enforced strictly.

use crate::addr::{BlockAddr, DiskId};
use crate::backend::{DiskArray, ReadTicket, WriteTicket};
use crate::block::Block;
use crate::error::{PdiskError, Result};
use crate::geometry::Geometry;
use crate::record::Record;
use crate::stats::IoStats;
use crate::trace::{TraceEvent, TraceSink};

/// A simulated array of `D` disks holding blocks in RAM.
///
/// # Examples
///
/// ```
/// use pdisk::{Block, BlockAddr, DiskArray, DiskId, Forecast, Geometry,
///             MemDiskArray, U64Record};
///
/// let geom = Geometry::new(2, 4, 1000)?;
/// let mut array: MemDiskArray<U64Record> = MemDiskArray::new(geom);
///
/// // Reserve a slot on each disk and write one stripe: ONE parallel op.
/// let a = BlockAddr::new(DiskId(0), array.alloc_contiguous(DiskId(0), 1)?);
/// let b = BlockAddr::new(DiskId(1), array.alloc_contiguous(DiskId(1), 1)?);
/// let block = |k: u64| Block::new(vec![U64Record(k)], Forecast::Next(u64::MAX));
/// array.write(vec![(a, block(1)), (b, block(2))])?;
/// assert_eq!(array.stats().write_ops, 1);
/// assert_eq!(array.stats().blocks_written, 2);
///
/// let blocks = array.read(&[a, b])?;
/// assert_eq!(blocks[0].min_key(), 1);
/// # Ok::<(), pdisk::PdiskError>(())
/// ```
#[derive(Debug)]
pub struct MemDiskArray<R: Record> {
    geom: Geometry,
    /// `disks[d][slot]` is the block stored there, if any.
    disks: Vec<Vec<Option<Block<R>>>>,
    stats: IoStats,
    /// Per-disk `(blocks read, blocks written)` — randomized striping's
    /// load-balance claim is checked against these.
    loads: Vec<(u64, u64)>,
    /// Addresses marked corrupt by [`MemDiskArray::corrupt_block`];
    /// reading one fails like a checksum mismatch would on disk.
    corrupted: std::collections::BTreeSet<BlockAddr>,
    /// Trace sink, when tracing is active ([`DiskArray::install_trace`]).
    trace: Option<TraceSink>,
}

impl<R: Record> MemDiskArray<R> {
    /// Create an empty array for `geom`.
    pub fn new(geom: Geometry) -> Self {
        MemDiskArray {
            geom,
            disks: (0..geom.d).map(|_| Vec::new()).collect(),
            stats: IoStats::default(),
            loads: vec![(0, 0); geom.d],
            corrupted: std::collections::BTreeSet::new(),
            trace: None,
        }
    }

    /// Mark a stored block corrupt: subsequent reads of `addr` fail with
    /// [`PdiskError::Corrupt`], exactly as the file backend reports a
    /// checksum mismatch.  The simulation counterpart of flipping bytes
    /// in a disk file — tests use it to drive consumers through the
    /// corruption path without a real filesystem.  Overwriting the block
    /// clears the mark (fresh data, fresh checksum).
    pub fn corrupt_block(&mut self, addr: BlockAddr) -> Result<()> {
        if self.slot(addr)?.is_none() {
            return Err(PdiskError::UnmappedBlock(addr));
        }
        self.corrupted.insert(addr);
        Ok(())
    }

    /// Per-disk `(blocks read, blocks written)` since construction or the
    /// last [`DiskArray::reset_stats`].
    pub fn disk_loads(&self) -> &[(u64, u64)] {
        &self.loads
    }

    fn slot(&self, addr: BlockAddr) -> Result<&Option<Block<R>>> {
        let disk = self
            .disks
            .get(addr.disk.index())
            .ok_or(PdiskError::NoSuchDisk(addr.disk))?;
        disk.get(addr.offset as usize)
            .ok_or(PdiskError::UnmappedBlock(addr))
    }

    /// Total block slots currently reserved across all disks (diagnostic).
    pub fn allocated_blocks(&self) -> usize {
        self.disks.iter().map(Vec::len).sum()
    }

    /// Peek at a block without performing (or charging) any I/O.
    ///
    /// Intended for tests and verification code only; algorithms must go
    /// through [`DiskArray::read`].
    pub fn peek(&self, addr: BlockAddr) -> Result<Option<&Block<R>>> {
        Ok(self.slot(addr)?.as_ref())
    }
}

impl<R: Record> DiskArray<R> for MemDiskArray<R> {
    fn geometry(&self) -> Geometry {
        self.geom
    }

    fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        if addrs.is_empty() {
            return Ok(ReadTicket::ready(Vec::new(), Vec::new()));
        }
        self.geom.check_parallel_op(addrs.iter().map(|a| a.disk))?;
        let mut out = Vec::with_capacity(addrs.len());
        for &addr in addrs {
            if self.corrupted.contains(&addr) {
                return Err(PdiskError::Corrupt(format!(
                    "block checksum mismatch at {addr:?} (injected)"
                )));
            }
            let block = self
                .slot(addr)?
                .as_ref()
                .ok_or(PdiskError::UnmappedBlock(addr))?
                .clone();
            out.push(block);
        }
        for addr in addrs {
            self.loads[addr.disk.index()].0 += 1;
        }
        self.stats.record_read(addrs.len());
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::PhysRead {
                addrs: addrs.to_vec(),
            });
        }
        Ok(ReadTicket::ready(addrs.to_vec(), out))
    }

    fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<WriteTicket> {
        if writes.is_empty() {
            return Ok(WriteTicket::ready(Vec::new()));
        }
        self.geom
            .check_parallel_op(writes.iter().map(|(a, _)| a.disk))?;
        let n = writes.len();
        let addrs: Vec<BlockAddr> = writes.iter().map(|(a, _)| *a).collect();
        for (addr, block) in writes {
            if block.len() > self.geom.b {
                return Err(PdiskError::BadBlockSize {
                    expected: self.geom.b,
                    got: block.len(),
                });
            }
            // Validate the slot exists before mutating anything else.
            self.slot(addr)?;
            self.disks[addr.disk.index()][addr.offset as usize] = Some(block);
            self.corrupted.remove(&addr);
            self.loads[addr.disk.index()].1 += 1;
        }
        self.stats.record_write(n);
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::PhysWrite {
                addrs: addrs.clone(),
            });
        }
        Ok(WriteTicket::ready(addrs))
    }

    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
        let vec = self
            .disks
            .get_mut(disk.index())
            .ok_or(PdiskError::NoSuchDisk(disk))?;
        let start = vec.len() as u64;
        vec.resize_with(vec.len() + count as usize, || None);
        Ok(start)
    }

    fn install_trace(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    fn stats(&self) -> IoStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = IoStats::default();
        self.loads = vec![(0, 0); self.geom.d];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Forecast;
    use crate::record::U64Record;

    fn geom() -> Geometry {
        Geometry::new(3, 2, 100).unwrap()
    }

    fn blk(keys: &[u64]) -> Block<U64Record> {
        Block::new(
            keys.iter().map(|&k| U64Record(k)).collect(),
            Forecast::Next(u64::MAX),
        )
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o0 = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let o1 = a.alloc_contiguous(DiskId(1), 1).unwrap();
        let w = vec![
            (BlockAddr::new(DiskId(0), o0), blk(&[1, 2])),
            (BlockAddr::new(DiskId(1), o1), blk(&[3, 4])),
        ];
        a.write(w).unwrap();
        let got = a
            .read(&[BlockAddr::new(DiskId(1), o1), BlockAddr::new(DiskId(0), o0)])
            .unwrap();
        assert_eq!(got[0].min_key(), 3);
        assert_eq!(got[1].min_key(), 1);
    }

    #[test]
    fn each_transfer_is_one_parallel_op() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o = a.alloc_contiguous(DiskId(0), 3).unwrap();
        for i in 0..3 {
            a.write(vec![(BlockAddr::new(DiskId(0), o + i), blk(&[i]))])
                .unwrap();
        }
        assert_eq!(a.stats().write_ops, 3);
        assert_eq!(a.stats().blocks_written, 3);
        a.read(&[BlockAddr::new(DiskId(0), o)]).unwrap();
        assert_eq!(a.stats().read_ops, 1);
    }

    #[test]
    fn duplicate_disk_in_one_op_rejected() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o = a.alloc_contiguous(DiskId(2), 2).unwrap();
        let err = a
            .read(&[BlockAddr::new(DiskId(2), o), BlockAddr::new(DiskId(2), o + 1)])
            .unwrap_err();
        assert!(matches!(err, PdiskError::DuplicateDisk(DiskId(2))));
        // And nothing was charged.
        assert_eq!(a.stats().read_ops, 0);
    }

    #[test]
    fn unmapped_and_unwritten_blocks_fail_reads() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        // Allocated but never written.
        assert!(matches!(
            a.read(&[BlockAddr::new(DiskId(0), o)]),
            Err(PdiskError::UnmappedBlock(_))
        ));
        // Never allocated.
        assert!(matches!(
            a.read(&[BlockAddr::new(DiskId(1), 99)]),
            Err(PdiskError::UnmappedBlock(_))
        ));
    }

    #[test]
    fn corrupt_block_poisons_reads_until_overwritten() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let addr = BlockAddr::new(DiskId(0), o);
        a.write(vec![(addr, blk(&[5, 6]))]).unwrap();
        a.corrupt_block(addr).unwrap();
        let err = a.read(&[addr]).unwrap_err();
        assert!(matches!(err, PdiskError::Corrupt(_)), "got {err:?}");
        // Rewriting the slot replaces the data — and its "checksum".
        a.write(vec![(addr, blk(&[7, 8]))]).unwrap();
        assert_eq!(a.read(&[addr]).unwrap()[0].min_key(), 7);
        // Corrupting an unwritten slot is a caller bug, not silent.
        let o2 = a.alloc_contiguous(DiskId(1), 1).unwrap();
        assert!(matches!(
            a.corrupt_block(BlockAddr::new(DiskId(1), o2)),
            Err(PdiskError::UnmappedBlock(_))
        ));
    }

    #[test]
    fn oversized_block_rejected() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let err = a
            .write(vec![(BlockAddr::new(DiskId(0), o), blk(&[1, 2, 3]))])
            .unwrap_err();
        assert!(matches!(err, PdiskError::BadBlockSize { expected: 2, got: 3 }));
    }

    #[test]
    fn empty_ops_are_free() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        a.read(&[]).unwrap();
        a.write(vec![]).unwrap();
        assert_eq!(a.stats().total_ops(), 0);
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        a.write(vec![(BlockAddr::new(DiskId(0), o), blk(&[1]))]).unwrap();
        a.reset_stats();
        assert_eq!(a.stats(), IoStats::default());
    }

    #[test]
    fn disk_loads_track_per_disk_blocks() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o0 = a.alloc_contiguous(DiskId(0), 2).unwrap();
        let o2 = a.alloc_contiguous(DiskId(2), 1).unwrap();
        a.write(vec![
            (BlockAddr::new(DiskId(0), o0), blk(&[1])),
            (BlockAddr::new(DiskId(2), o2), blk(&[2])),
        ])
        .unwrap();
        a.write(vec![(BlockAddr::new(DiskId(0), o0 + 1), blk(&[3]))]).unwrap();
        a.read(&[BlockAddr::new(DiskId(0), o0)]).unwrap();
        assert_eq!(a.disk_loads(), &[(1, 2), (0, 0), (0, 1)]);
        a.reset_stats();
        assert_eq!(a.disk_loads(), &[(0, 0); 3]);
    }

    #[test]
    fn partial_final_block_allowed() {
        // A block smaller than B (the last block of a run) is storable.
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        a.write(vec![(BlockAddr::new(DiskId(0), o), blk(&[7]))]).unwrap();
        let got = a.read(&[BlockAddr::new(DiskId(0), o)]).unwrap();
        assert_eq!(got[0].len(), 1);
    }
}
