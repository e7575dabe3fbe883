//! The logical single-disk view: stripes of `D` same-offset blocks.

use pdisk::{
    Block, BlockAddr, DiskArray, DiskId, Forecast, PdiskError, ReadTicket, Record, StripedRun,
    WriteTicket,
};

/// A run stored as consecutive *stripes* — block `s` of every disk, for
/// `s` in `start_stripe .. start_stripe + len_stripes`.
///
/// Equivalent to a file on one logical disk with block size `D·B`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalRun {
    /// First stripe of the run.
    pub start_stripe: u64,
    /// Number of stripes.
    pub len_stripes: u64,
    /// Total records (the final stripe may be partial).
    pub records: u64,
}

impl pdisk::passes::Run for LogicalRun {
    fn records(&self) -> u64 {
        self.records
    }
}

impl LogicalRun {
    /// Records per full stripe for geometry `(d, b)`.
    pub fn stripe_records(d: usize, b: usize) -> u64 {
        (d * b) as u64
    }

    /// Records held by stripe `i` of this run (`0 ≤ i < len_stripes`).
    pub fn records_in_stripe(&self, i: u64, d: usize, b: usize) -> u64 {
        let per = Self::stripe_records(d, b);
        let before = i * per;
        debug_assert!(before < self.records);
        (self.records - before).min(per)
    }
}

/// Allocate one stripe: the same fresh offset on every disk.
///
/// DSM must be the only allocator on its array — that keeps the per-disk
/// bump allocators in lockstep.  They can still come back ragged from a
/// reopen: a file array recovers each allocator from its file's length,
/// and a partial final stripe (or a kill between the per-disk writes of
/// one) leaves some disks short.  The stripe is therefore placed at the
/// furthest allocator and the laggards skip forward to it; the skipped
/// slots are never referenced.
pub fn alloc_stripe<R: Record, A: DiskArray<R>>(array: &mut A) -> Result<u64, PdiskError> {
    let d = array.geometry().d;
    let mut offsets = Vec::with_capacity(d);
    for disk in 0..d {
        offsets.push(array.alloc_contiguous(DiskId::from_index(disk), 1)?);
    }
    let stripe = offsets.iter().copied().max().unwrap_or(0);
    for (disk, off) in offsets.into_iter().enumerate() {
        if off < stripe {
            array.alloc_contiguous(DiskId::from_index(disk), stripe - off)?;
        }
    }
    Ok(stripe)
}

/// The addresses holding the first `n_records` records of stripe `s`.
fn stripe_addrs(d: usize, b: usize, s: u64, n_records: u64) -> Vec<BlockAddr> {
    assert!(n_records > 0 && n_records <= (d * b) as u64);
    let n_blocks = (n_records as usize).div_ceil(b);
    (0..n_blocks)
        .map(|disk| BlockAddr::new(DiskId::from_index(disk), s))
        .collect()
}

/// Read the first `n_records` records of stripe `s` in one parallel
/// operation (only the `⌈n/B⌉` blocks that exist are touched).
pub fn read_stripe<R: Record, A: DiskArray<R>>(
    array: &mut A,
    s: u64,
    n_records: u64,
) -> Result<Vec<R>, PdiskError> {
    let geom = array.geometry();
    let addrs = stripe_addrs(geom.d, geom.b, s, n_records);
    let blocks = array.read(&addrs)?;
    let mut out = Vec::with_capacity(n_records as usize);
    for block in blocks {
        out.extend(block.records);
    }
    debug_assert_eq!(out.len() as u64, n_records);
    Ok(out)
}

/// Split-phase variant of [`read_stripe`]: queue the parallel read and
/// return a ticket.  The I/O is charged and traced now, so the logical
/// operation sequence is the same as the blocking call's.
pub fn submit_stripe_read<R: Record, A: DiskArray<R>>(
    array: &mut A,
    s: u64,
    n_records: u64,
) -> Result<ReadTicket<R>, PdiskError> {
    let geom = array.geometry();
    let addrs = stripe_addrs(geom.d, geom.b, s, n_records);
    array.submit_read(&addrs)
}

/// Wait for a stripe read submitted with [`submit_stripe_read`] and
/// concatenate its blocks into records.
pub fn complete_stripe_read<R: Record, A: DiskArray<R>>(
    array: &mut A,
    ticket: ReadTicket<R>,
) -> Result<Vec<R>, PdiskError> {
    let blocks = array.complete_read(ticket)?;
    let mut out = Vec::new();
    for block in blocks {
        out.extend(block.records);
    }
    Ok(out)
}

/// Write `records` (at most `D·B` of them) as stripe `s` in one parallel
/// operation.  Leading blocks of the stripe are filled first; trailing
/// disks receive nothing when the stripe is partial.
pub fn write_stripe<R: Record, A: DiskArray<R>>(
    array: &mut A,
    s: u64,
    records: &[R],
) -> Result<(), PdiskError> {
    let writes = stripe_writes(array.geometry(), s, records);
    array.write(writes)
}

/// Split-phase variant of [`write_stripe`]: queue the parallel write and
/// return a ticket to wait on later.
pub fn submit_stripe_write<R: Record, A: DiskArray<R>>(
    array: &mut A,
    s: u64,
    records: &[R],
) -> Result<WriteTicket, PdiskError> {
    let writes = stripe_writes(array.geometry(), s, records);
    array.submit_write(writes)
}

/// Build the per-disk block writes of a stripe.
fn stripe_writes<R: Record>(
    geom: pdisk::Geometry,
    s: u64,
    records: &[R],
) -> Vec<(BlockAddr, Block<R>)> {
    assert!(records.len() <= geom.d * geom.b, "stripe overflow");
    assert!(!records.is_empty(), "empty stripe write");
    let mut writes = Vec::with_capacity(geom.d);
    for (disk, chunk) in records.chunks(geom.b).enumerate() {
        // DSM has no use for forecasting; blocks carry a null forecast.
        let block = Block {
            records: chunk.to_vec(),
            forecast: Forecast::Next(pdisk::block::NO_BLOCK),
        };
        writes.push((BlockAddr::new(DiskId::from_index(disk), s), block));
    }
    writes
}

/// Read a whole logical run back (verification path).
pub fn read_logical_run<R: Record, A: DiskArray<R>>(
    array: &mut A,
    run: &LogicalRun,
) -> Result<Vec<R>, PdiskError> {
    let geom = array.geometry();
    let mut out = Vec::with_capacity(run.records as usize);
    for i in 0..run.len_stripes {
        let n = run.records_in_stripe(i, geom.d, geom.b);
        out.extend(read_stripe(array, run.start_stripe + i, n)?);
    }
    Ok(out)
}

/// Convert a [`LogicalRun`] into the cyclic-striped representation used by
/// SRM's utilities — only valid for describing *where data lives*, not for
/// SRM merging (the forecast format is absent).
pub fn as_striped(run: &LogicalRun, d: usize) -> StripedRun {
    StripedRun {
        start_disk: DiskId(0),
        len_blocks: run.len_stripes * d as u64,
        records: run.records,
        base_offsets: vec![run.start_stripe; d],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::{Geometry, MemDiskArray, U64Record};

    fn geom() -> Geometry {
        Geometry::new(3, 4, 10_000).unwrap()
    }

    #[test]
    fn stripe_roundtrip_full_and_partial() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let s0 = alloc_stripe(&mut a).unwrap();
        let s1 = alloc_stripe(&mut a).unwrap();
        assert_eq!(s1, s0 + 1);
        let full: Vec<U64Record> = (0..12).map(U64Record).collect();
        write_stripe(&mut a, s0, &full).unwrap();
        let partial: Vec<U64Record> = (100..105).map(U64Record).collect();
        write_stripe(&mut a, s1, &partial).unwrap();
        assert_eq!(read_stripe(&mut a, s0, 12).unwrap(), full);
        assert_eq!(read_stripe(&mut a, s1, 5).unwrap(), partial);
    }

    /// A reopened array can bring the allocators back ragged; the next
    /// stripe lands past the furthest one and lockstep holds again.
    #[test]
    fn alloc_stripe_realigns_ragged_allocators() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        assert_eq!(alloc_stripe(&mut a).unwrap(), 0);
        a.alloc_contiguous(DiskId(1), 2).unwrap();
        assert_eq!(alloc_stripe(&mut a).unwrap(), 3);
        assert_eq!(alloc_stripe(&mut a).unwrap(), 4);
    }

    #[test]
    fn each_stripe_op_is_one_parallel_io() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let s = alloc_stripe(&mut a).unwrap();
        write_stripe(&mut a, s, &(0..12).map(U64Record).collect::<Vec<_>>()).unwrap();
        let _ = read_stripe(&mut a, s, 12).unwrap();
        let stats = a.stats();
        assert_eq!(stats.write_ops, 1);
        assert_eq!(stats.read_ops, 1);
        assert_eq!(stats.blocks_written, 3);
        assert_eq!(stats.blocks_read, 3);
    }

    #[test]
    fn partial_stripe_reads_touch_only_existing_blocks() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let s = alloc_stripe(&mut a).unwrap();
        write_stripe(&mut a, s, &[U64Record(1), U64Record(2)]).unwrap();
        let got = read_stripe(&mut a, s, 2).unwrap();
        assert_eq!(got, vec![U64Record(1), U64Record(2)]);
        assert_eq!(a.stats().blocks_read, 1);
    }

    #[test]
    fn logical_run_roundtrip() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let start = alloc_stripe(&mut a).unwrap();
        let _ = alloc_stripe(&mut a).unwrap();
        let run = LogicalRun {
            start_stripe: start,
            len_stripes: 2,
            records: 17,
        };
        let recs: Vec<U64Record> = (0..17).map(U64Record).collect();
        write_stripe(&mut a, start, &recs[..12]).unwrap();
        write_stripe(&mut a, start + 1, &recs[12..]).unwrap();
        assert_eq!(read_logical_run(&mut a, &run).unwrap(), recs);
    }

    #[test]
    fn records_in_stripe_accounts_for_tail() {
        let run = LogicalRun {
            start_stripe: 0,
            len_stripes: 3,
            records: 29,
        };
        assert_eq!(run.records_in_stripe(0, 3, 4), 12);
        assert_eq!(run.records_in_stripe(1, 3, 4), 12);
        assert_eq!(run.records_in_stripe(2, 3, 4), 5);
    }

    #[test]
    fn as_striped_covers_all_records() {
        let run = LogicalRun {
            start_stripe: 2,
            len_stripes: 4,
            records: 40,
        };
        let s = as_striped(&run, 3);
        assert_eq!(s.len_blocks, 12);
        assert_eq!(s.records, 40);
    }
}
