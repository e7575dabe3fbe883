//! Writing runs in the forecasting format with perfect write parallelism.
//!
//! §5.1's output buffer `M_W` holds `2D` blocks: a stripe of `D` blocks is
//! written as one parallel operation as soon as it can be *formatted*, i.e.
//! as soon as the forecast key of each of its blocks is known.  Block `i`
//! implants `k_{r,i+D}` — the smallest key of the run's next block on the
//! same disk — so a stripe is ready exactly when `2D` blocks are buffered
//! (or the run has ended, in which case missing successors implant
//! [`NO_BLOCK`]).
//!
//! The initial block implants the keys of blocks `1 ..= D`, one per disk,
//! seeding the merger's forecasting table for every disk the run touches.
//! (The paper's text says blocks `0 ..= D−1`; block 0's own key is useless
//! to a reader that already holds block 0, while block `D`'s key is needed
//! for the run's start disk — we implant the off-by-one-corrected set, the
//! same `D` keys of storage.  DESIGN.md §3 records this deviation.)

use crate::key::RunId;
use pdisk::trace::TraceEvent;
use pdisk::block::NO_BLOCK;
use pdisk::window::WriteBehind;
pub use pdisk::window::{read_run, StripeWindow};
use pdisk::{Block, DiskArray, DiskId, Forecast, Geometry, PdiskError, Record, StripedRun};
use std::collections::VecDeque;

/// Incremental writer for one cyclically striped run.
///
/// Feed records in ascending key order via [`RunWriter::push`]; call
/// [`RunWriter::finish`] to flush and obtain the [`StripedRun`] layout.
///
/// The writer allocates one slot per disk per stripe as it goes, so run
/// length need not be known in advance (replacement selection produces
/// unpredictable run lengths).  Allocations for one run must not interleave
/// with another writer's on the same array — the sorters write one run at a
/// time, which guarantees the contiguous per-disk layout [`StripedRun`]
/// assumes.
#[derive(Debug)]
pub struct RunWriter<R: Record> {
    geom: Geometry,
    start_disk: DiskId,
    /// Records accumulating toward the next block.
    cur: Vec<R>,
    /// Blocks awaiting forecast finalization (`M_W`, at most `2D`).
    pending: VecDeque<Vec<R>>,
    /// Index of the first pending block within the run.
    emitted_blocks: u64,
    /// Min keys of blocks `emitted_blocks ..` (parallels + outlives
    /// `pending` by nothing; same length as `pending`).
    pending_min_keys: VecDeque<u64>,
    /// Per-disk first-slot offsets, captured at first allocation.
    base_offsets: Vec<Option<u64>>,
    records: u64,
    last_key: Option<u64>,
    stripes_written: u64,
    finished: bool,
    /// Stripe writes in flight.
    behind: WriteBehind,
}

impl<R: Record> RunWriter<R> {
    /// Start a run whose block 0 will live on `start_disk`.  Every stripe
    /// write is waited for where it is issued.
    pub fn new(geom: Geometry, start_disk: DiskId) -> Self {
        assert!(start_disk.index() < geom.d);
        RunWriter {
            geom,
            start_disk,
            cur: Vec::with_capacity(geom.b),
            pending: VecDeque::with_capacity(2 * geom.d),
            emitted_blocks: 0,
            pending_min_keys: VecDeque::with_capacity(2 * geom.d),
            base_offsets: vec![None; geom.d],
            records: 0,
            last_key: None,
            stripes_written: 0,
            finished: false,
            behind: WriteBehind::new(0),
        }
    }

    /// Write-behind: with `on`, a stripe — still submitted at exactly the
    /// record position it is otherwise written, so the operation sequence
    /// and [`pdisk::IoStats`] are identical — is completed up to
    /// [`pdisk::WRITE_BEHIND_LIMIT`] stripe submissions later (or in
    /// [`RunWriter::finish`]), keeping a bounded window of stripes in
    /// flight ([`WriteBehind`]).
    pub(crate) fn write_behind(mut self, on: bool) -> Self {
        self.behind = WriteBehind::new(if on { pdisk::WRITE_BEHIND_LIMIT } else { 0 });
        self
    }

    /// Disk of block `i` under the cyclic layout.
    fn disk_of(&self, i: u64) -> DiskId {
        DiskId::from_mod(u64::from(self.start_disk.0) + i, self.geom.d)
    }

    /// Append one record (keys must be non-decreasing).
    pub fn push<A: DiskArray<R>>(&mut self, array: &mut A, rec: R) -> Result<(), PdiskError> {
        assert!(!self.finished, "push after finish");
        if let Some(last) = self.last_key {
            debug_assert!(rec.key() >= last, "run records must be sorted");
        }
        self.last_key = Some(rec.key());
        self.records += 1;
        self.cur.push(rec);
        if self.cur.len() == self.geom.b {
            // Draw the replacement buffer from the stack's pool when it
            // has one: the backend returns encoded blocks' record vectors
            // there, closing the recycling loop.
            let fresh = match array.buffer_pool() {
                Some(pool) => pool.take_records(self.geom.b),
                None => Vec::with_capacity(self.geom.b),
            };
            let block = std::mem::replace(&mut self.cur, fresh);
            self.enqueue_block(block);
            // Write a stripe once its forecasts are all known: the first D
            // pending blocks need min keys of the next D, so 2D buffered
            // blocks release one stripe.
            while self.pending.len() >= 2 * self.geom.d {
                self.write_stripe(array, self.geom.d)?;
            }
        }
        Ok(())
    }

    fn enqueue_block(&mut self, block: Vec<R>) {
        debug_assert!(!block.is_empty());
        self.pending_min_keys.push_back(block[0].key());
        self.pending.push_back(block);
    }

    /// Min key of run block `i`, if it is still buffered.
    fn buffered_min_key(&self, i: u64) -> Option<u64> {
        if i < self.emitted_blocks {
            return None;
        }
        self.pending_min_keys.get((i - self.emitted_blocks) as usize).copied()
    }

    /// Emit the first `count` pending blocks as one parallel write.
    fn write_stripe<A: DiskArray<R>>(&mut self, array: &mut A, count: usize) -> Result<(), PdiskError> {
        let count = count.min(self.pending.len());
        debug_assert!(count >= 1 && count <= self.geom.d);
        if self.emitted_blocks == 0 {
            if let Some(sink) = array.trace_sink() {
                sink.emit(TraceEvent::RunStart {
                    start_disk: self.start_disk,
                });
            }
        }
        let d = self.geom.d as u64;
        let mut writes = Vec::with_capacity(count);
        for _ in 0..count {
            let Some(records) = self.pending.pop_front() else {
                break;
            };
            let i = self.emitted_blocks;
            self.pending_min_keys.pop_front();
            self.emitted_blocks += 1;
            let forecast = if i == 0 {
                // Initial block: keys of blocks 1..=D.
                let keys: Vec<u64> = (1..=d)
                    .map(|m| self.buffered_min_key(m).unwrap_or(NO_BLOCK))
                    .collect();
                Forecast::Initial(keys)
            } else {
                Forecast::Next(self.buffered_min_key(i + d).unwrap_or(NO_BLOCK))
            };
            let disk = self.disk_of(i);
            let offset = array.alloc_contiguous(disk, 1)?;
            let base = *self.base_offsets[disk.index()].get_or_insert(offset);
            debug_assert_eq!(
                base + i / d,
                offset,
                "allocations for one run must be contiguous per disk"
            );
            writes.push((
                pdisk::BlockAddr::new(disk, offset),
                Block::new(records, forecast),
            ));
        }
        self.behind.submit(array, writes)?;
        self.stripes_written += 1;
        Ok(())
    }

    /// Abandon all write-behind tickets without completing them
    /// ([`WriteBehind::abandon`]).
    pub(crate) fn abandon_ticket(&mut self) {
        self.behind.abandon();
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Parallel write operations issued so far.
    pub fn stripes_written(&self) -> u64 {
        self.stripes_written
    }

    /// Flush everything and return the run's layout.
    ///
    /// # Panics
    /// Panics if no records were pushed (empty runs are never written).
    pub fn finish<A: DiskArray<R>>(mut self, array: &mut A) -> Result<StripedRun, PdiskError> {
        assert!(self.records > 0, "refusing to write an empty run");
        self.finished = true;
        if !self.cur.is_empty() {
            let block = std::mem::take(&mut self.cur);
            self.enqueue_block(block);
        }
        while !self.pending.is_empty() {
            self.write_stripe(array, self.geom.d)?;
        }
        self.behind.complete_all(array)?;
        let len_blocks = self.emitted_blocks;
        if let Some(sink) = array.trace_sink() {
            sink.emit(TraceEvent::RunEnd {
                start_disk: self.start_disk,
                len_blocks,
            });
        }
        Ok(StripedRun {
            start_disk: self.start_disk,
            len_blocks,
            records: self.records,
            base_offsets: self
                .base_offsets
                .iter()
                .map(|o| o.unwrap_or(0))
                .collect(),
        })
    }
}

/// Identifier newtype re-export for writer users.
pub type OutputRunId = RunId;

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::{MemDiskArray, U64Record};

    fn geom(d: usize, b: usize) -> Geometry {
        Geometry::new(d, b, 1_000_000).unwrap()
    }

    fn write_run(
        array: &mut MemDiskArray<U64Record>,
        g: Geometry,
        start: u32,
        n: u64,
    ) -> StripedRun {
        let mut w = RunWriter::new(g, DiskId(start));
        for k in 0..n {
            w.push(array, U64Record(k * 3)).unwrap();
        }
        w.finish(array).unwrap()
    }

    #[test]
    fn roundtrip_various_shapes() {
        for &(d, b, n, start) in &[
            (1usize, 4usize, 17u64, 0u32),
            (3, 4, 1, 2),
            (3, 4, 12, 1),   // exactly 3 blocks
            (3, 4, 100, 0),  // many stripes
            (4, 2, 7, 3),    // partial final block
            (2, 5, 20, 1),
        ] {
            let g = geom(d, b);
            let mut a: MemDiskArray<U64Record> = MemDiskArray::new(g);
            let run = write_run(&mut a, g, start, n);
            assert_eq!(run.records, n);
            assert_eq!(run.len_blocks, n.div_ceil(b as u64));
            let back = read_run(&mut a, &run).unwrap();
            let expected: Vec<U64Record> = (0..n).map(|k| U64Record(k * 3)).collect();
            assert_eq!(back, expected, "d={d} b={b} n={n} start={start}");
        }
    }

    #[test]
    fn every_write_is_a_full_stripe_except_the_tail() {
        let g = geom(4, 8);
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(g);
        let run = write_run(&mut a, g, 0, 8 * 4 * 5); // exactly 20 blocks = 5 stripes
        assert_eq!(run.len_blocks, 20);
        let stats = a.stats();
        assert_eq!(stats.write_ops, 5);
        assert_eq!(stats.blocks_written, 20);
        assert!((stats.write_parallelism() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn forecast_next_points_d_blocks_ahead() {
        let g = geom(3, 2);
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(g);
        let run = write_run(&mut a, g, 1, 2 * 10); // 10 blocks
        // Block i's forecast must equal block (i+3)'s min key.
        for i in 0..10u64 {
            let block = a.peek(run.addr_of(i)).unwrap().unwrap();
            match (&block.forecast, i) {
                (Forecast::Initial(keys), 0) => {
                    assert_eq!(keys.len(), 3);
                    for (m, &k) in keys.iter().enumerate() {
                        let j = m as u64 + 1;
                        let expect = a.peek(run.addr_of(j)).unwrap().unwrap().min_key();
                        assert_eq!(k, expect, "initial key for block {j}");
                    }
                }
                (Forecast::Next(k), i) if i + 3 < 10 => {
                    let expect = a.peek(run.addr_of(i + 3)).unwrap().unwrap().min_key();
                    assert_eq!(*k, expect, "block {i}");
                }
                (Forecast::Next(k), _) => assert_eq!(*k, NO_BLOCK, "tail block {i}"),
                (f, i) => panic!("unexpected forecast {f:?} at block {i}"),
            }
        }
    }

    #[test]
    fn short_run_initial_table_padded() {
        let g = geom(4, 2);
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(g);
        let run = write_run(&mut a, g, 2, 3); // 2 blocks only
        let b0 = a.peek(run.addr_of(0)).unwrap().unwrap();
        match &b0.forecast {
            Forecast::Initial(keys) => {
                assert_eq!(keys.len(), 4);
                let b1_min = a.peek(run.addr_of(1)).unwrap().unwrap().min_key();
                assert_eq!(keys[0], b1_min);
                assert!(keys[1..].iter().all(|&k| k == NO_BLOCK));
            }
            f => panic!("block 0 must carry Initial, got {f:?}"),
        }
    }

    #[test]
    fn blocks_land_on_cyclic_disks() {
        let g = geom(3, 2);
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(g);
        let run = write_run(&mut a, g, 2, 12); // 6 blocks, start disk 2
        for i in 0..6u64 {
            assert_eq!(run.addr_of(i).disk.0, ((2 + i) % 3) as u32);
            assert!(a.peek(run.addr_of(i)).unwrap().is_some(), "block {i} written");
        }
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn empty_run_rejected() {
        let g = geom(2, 2);
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(g);
        let w: RunWriter<U64Record> = RunWriter::new(g, DiskId(0));
        let _ = w.finish(&mut a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted")]
    fn unsorted_push_rejected_in_debug() {
        let g = geom(2, 2);
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(g);
        let mut w = RunWriter::new(g, DiskId(0));
        w.push(&mut a, U64Record(5)).unwrap();
        w.push(&mut a, U64Record(4)).unwrap();
    }

    #[test]
    fn two_sequential_runs_do_not_overlap() {
        let g = geom(3, 2);
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(g);
        let r1 = write_run(&mut a, g, 0, 14);
        let r2 = write_run(&mut a, g, 1, 10);
        let mut slots = std::collections::HashSet::new();
        for run in [&r1, &r2] {
            for i in 0..run.len_blocks {
                assert!(slots.insert(run.addr_of(i)));
            }
        }
        // Both still read back intact.
        assert_eq!(read_run(&mut a, &r1).unwrap().len(), 14);
        assert_eq!(read_run(&mut a, &r2).unwrap().len(), 10);
    }
}
