//! The logical single-disk view: stripes of `D` same-offset blocks.

use pdisk::{
    read_run, Block, BlockAddr, DiskArray, DiskId, Forecast, Geometry, PdiskError, Record,
    StripedRun,
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

/// The per-disk block writes of stripe `s` holding `records` (at most
/// `D·B` of them): one parallel operation.  Leading blocks of the stripe
/// are filled first; trailing disks receive nothing when the stripe is
/// partial.
pub(crate) fn stripe_writes<R: Record>(
    geom: Geometry,
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

/// Read a whole logical run back (verification path): [`read_run`] over
/// the run's striped view, a few stripes in flight at a time.
pub fn read_logical_run<R: Record, A: DiskArray<R>>(
    array: &mut A,
    run: &LogicalRun,
) -> Result<Vec<R>, PdiskError> {
    read_run(array, &as_striped(run, array.geometry()))
}

/// A [`LogicalRun`] as the cyclic-striped run it also is — start disk 0,
/// every disk's first block at `start_stripe`, `⌈records / B⌉` blocks (the
/// last stripe may be partial) — which is how DSM reads: a
/// [`pdisk::StripeWindow`] over this view fetches the run stripe by
/// stripe, each one parallel operation touching only the blocks that
/// exist.  Only valid for describing *where data lives*, not for SRM
/// merging (the forecast format is absent).
pub fn as_striped(run: &LogicalRun, geom: Geometry) -> StripedRun {
    StripedRun {
        start_disk: DiskId(0),
        len_blocks: run.records.div_ceil(geom.b as u64),
        records: run.records,
        base_offsets: vec![run.start_stripe; geom.d],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::write_unsorted_stripes;
    use pdisk::{MemDiskArray, U64Record};

    fn geom() -> Geometry {
        Geometry::new(3, 4, 10_000).unwrap()
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
        let run = write_unsorted_stripes(&mut a, &(0..12).map(U64Record).collect::<Vec<_>>()).unwrap();
        let _ = read_logical_run(&mut a, &run).unwrap();
        let stats = a.stats();
        assert_eq!(stats.write_ops, 1);
        assert_eq!(stats.read_ops, 1);
        assert_eq!(stats.blocks_written, 3);
        assert_eq!(stats.blocks_read, 3);
    }

    #[test]
    fn partial_stripe_reads_touch_only_existing_blocks() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let run = write_unsorted_stripes(&mut a, &[U64Record(1), U64Record(2)]).unwrap();
        let got = read_logical_run(&mut a, &run).unwrap();
        assert_eq!(got, vec![U64Record(1), U64Record(2)]);
        assert_eq!(a.stats().blocks_read, 1);
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

    /// The striped view names exactly the blocks that were written — full
    /// stripes, a partial last stripe, a partial last block, a single
    /// block — so reading through it returns the run and touches nothing
    /// else.  (It used to claim `len_stripes · D` blocks, and a read over
    /// it ran off the partial tail into unmapped slots.)
    #[test]
    fn striped_view_round_trips_full_partial_and_single_block_runs() {
        for n in [24u64, 40, 17, 3] {
            let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
            // Not at stripe 0: the view must carry the run's offset.
            alloc_stripe(&mut a).unwrap();
            let recs: Vec<U64Record> = (0..n).map(U64Record).collect();
            let run = write_unsorted_stripes(&mut a, &recs).unwrap();
            let view = as_striped(&run, geom());
            assert_eq!(view.len_blocks, a.stats().blocks_written, "n={n}");
            assert_eq!(view.records, n);
            assert_eq!(read_run(&mut a, &view).unwrap(), recs, "n={n}");
            assert_eq!(a.stats().blocks_read, view.len_blocks, "n={n}");
            assert_eq!(a.stats().read_ops, run.len_stripes, "n={n}: one read per stripe");
        }
    }
}
