//! Initial run formation (§2.1).
//!
//! Two strategies from the paper:
//!
//! * **Memory-load sorting** — read a memory-load of records, sort it
//!   internally, write it out as one run.  The paper sorts *half*
//!   memory-loads to overlap computation with I/O (giving `2N/M` runs of
//!   `M/2`); the fraction is configurable.
//! * **Replacement selection** (Knuth §5.4.1) — a selection tree streams
//!   records out while new ones stream in; records too small for the
//!   current run are tagged for the next, producing runs of expected
//!   length `2M` on random input (and exactly one run on sorted input).
//!
//! Each produced run is written in forecasting format via
//! [`crate::output::RunWriter`], cyclically striped from a start disk
//! chosen by the caller-provided placement callback — this is where SRM's
//! randomization (or the deterministic stagger of §8) enters.

use crate::error::{Result, SrmError};
use crate::output::RunWriter;
use pdisk::{BlockAddr, DiskArray, DiskId, Geometry, ReadTicket, Record, StripedRun};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Strategy for the run-formation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunFormation {
    /// Sort `fraction` of memory at a time (`0 < fraction <= 1`); the paper
    /// uses 1/2 to double-buffer.
    MemoryLoad {
        /// Fraction of `M` records sorted per run.
        fraction: f64,
    },
    /// Memory-load sorting with the internal sort fork-joined across
    /// `threads` host threads ([`crate::par_sort`]); identical run layout
    /// and I/O to [`RunFormation::MemoryLoad`], faster wall clock on
    /// multi-core hosts.
    ParallelMemoryLoad {
        /// Fraction of `M` records sorted per run.
        fraction: f64,
        /// Worker threads for the internal sort.
        threads: usize,
    },
    /// Replacement selection with a heap of `M` records.
    ReplacementSelection,
}

impl Default for RunFormation {
    fn default() -> Self {
        RunFormation::MemoryLoad { fraction: 0.5 }
    }
}

/// Form sorted runs from an unsorted input run (records in arbitrary
/// order, laid out striped).  `place` chooses each new run's start disk.
///
/// The input is consumed with full read parallelism: blocks are fetched in
/// stripes of `D`, exactly one block per disk per operation.  Every
/// operation is waited for where it is issued;
/// [`crate::SrmSorter::with_pipeline`] runs the same pass with the §2.1
/// overlap.
pub fn form_runs<R: Record, A: DiskArray<R>>(
    array: &mut A,
    input: &StripedRun,
    strategy: RunFormation,
    place: impl FnMut() -> DiskId,
) -> Result<Vec<StripedRun>> {
    form_runs_overlapped(array, input, strategy, false, place)
}

/// [`form_runs`], with `pipeline` choosing the window.  On, it is the
/// split-phase overlap §2.1 motivates: while one memory load is sorted
/// and written, the *next* load's stripe reads are already in flight (up
/// to one load of records ahead — the other half of memory when
/// `fraction = 1/2`), and run stripes are written behind
/// ([`RunWriter::write_behind`]).  Off, each planned read and each stripe
/// write is completed where it is submitted.  The planned operations are
/// the same either way, so op sizes, counts, and [`pdisk::IoStats`] are
/// identical; only waiting moves.  Replacement selection always reads on
/// demand (each fetch decision depends on the records just consumed) but
/// still writes behind.
pub(crate) fn form_runs_overlapped<R: Record, A: DiskArray<R>>(
    array: &mut A,
    input: &StripedRun,
    strategy: RunFormation,
    pipeline: bool,
    mut place: impl FnMut() -> DiskId,
) -> Result<Vec<StripedRun>> {
    let geom = array.geometry();
    match strategy {
        RunFormation::MemoryLoad { .. } | RunFormation::ParallelMemoryLoad { .. } => {
            let (fraction, threads) = match strategy {
                RunFormation::MemoryLoad { fraction } => (fraction, 1),
                RunFormation::ParallelMemoryLoad { fraction, threads } => {
                    (fraction, threads.max(1))
                }
                RunFormation::ReplacementSelection => unreachable!(), // lint:allow(panic) outer match arm pins the variant
            };
            if !(fraction > 0.0 && fraction <= 1.0) {
                return Err(SrmError::Config(format!(
                    "memory-load fraction {fraction} outside (0, 1]"
                )));
            }
            let capacity = ((geom.m as f64 * fraction) as usize).max(geom.b);
            let mut reader = PrefetchStripeReader::new(geom, input, capacity, pipeline);
            let mut out = Vec::new();
            loop {
                let mut load: Vec<R> = Vec::with_capacity(capacity);
                while load.len() < capacity {
                    match reader.next_stripe(array)? {
                        Some(records) => load.extend(records),
                        None => break,
                    }
                }
                if load.is_empty() {
                    break;
                }
                crate::par_sort::par_sort_by_key(&mut load, threads);
                let mut w = RunWriter::new(geom, place()).write_behind(pipeline);
                for rec in load {
                    w.push(array, rec)?;
                }
                out.push(w.finish(array)?);
            }
            Ok(out)
        }
        RunFormation::ReplacementSelection => {
            replacement_selection(array, input, pipeline, place)
        }
    }
}

/// Reads an unsorted striped run one stripe at a time, on demand — for
/// replacement selection, whose op width depends on heap state and so
/// cannot be planned ahead.
struct StripeReader<'a> {
    input: &'a StripedRun,
    next_block: u64,
}

impl<'a> StripeReader<'a> {
    fn new(input: &'a StripedRun) -> Self {
        StripeReader { input, next_block: 0 }
    }

    /// Fetch up to one stripe (`D` blocks), but never more blocks than
    /// needed to cover `want` records.  Returns `None` when exhausted.
    fn next_stripe<R: Record, A: DiskArray<R>>(
        &mut self,
        array: &mut A,
        want: usize,
    ) -> Result<Option<Vec<R>>> {
        if self.next_block >= self.input.len_blocks {
            return Ok(None);
        }
        let geom = array.geometry();
        let blocks_wanted = want.div_ceil(geom.b).max(1).min(geom.d);
        let hi = (self.next_block + blocks_wanted as u64).min(self.input.len_blocks);
        let addrs: Vec<_> = (self.next_block..hi).map(|i| self.input.addr_of(i)).collect();
        self.next_block = hi;
        let mut records = Vec::with_capacity(addrs.len() * geom.b);
        let blocks = array.read(&addrs)?;
        pdisk::append_records(array, blocks, &mut records);
        Ok(Some(records))
    }
}

/// One planned parallel input read: its addresses and record yield.
struct StripePlan {
    addrs: Vec<BlockAddr>,
    records: usize,
}

/// Plan the memory-load pass's input reads over the whole input: within
/// each memory load, `want = capacity − filled` decides the op width
/// exactly as [`StripeReader::next_stripe`] does, so a load is fetched in
/// full stripes except for the ops that top it off.
fn plan_stripe_ops(geom: Geometry, input: &StripedRun, capacity: usize) -> VecDeque<StripePlan> {
    let b = geom.b;
    let block_records = |i: u64| -> usize {
        if i + 1 == input.len_blocks {
            (input.records - (input.len_blocks - 1) * b as u64) as usize
        } else {
            b
        }
    };
    let mut ops = VecDeque::new();
    let mut next_block = 0u64;
    while next_block < input.len_blocks {
        let mut filled = 0usize;
        while filled < capacity && next_block < input.len_blocks {
            let want = capacity - filled;
            let blocks_wanted = want.div_ceil(b).max(1).min(geom.d);
            let hi = (next_block + blocks_wanted as u64).min(input.len_blocks);
            let addrs: Vec<BlockAddr> = (next_block..hi).map(|i| input.addr_of(i)).collect();
            let records = (next_block..hi).map(block_records).sum();
            filled += records;
            next_block = hi;
            ops.push_back(StripePlan { addrs, records });
        }
    }
    ops
}

/// Split-phase input reader: issues the planned op sequence via
/// [`DiskArray::submit_read`].  With `pipeline` it keeps up to one memory
/// load of records in flight — the paper's §2.1 double buffer: while load
/// `k` is sorted and written, load `k + 1` streams in.  Without, the
/// budget is zero: one op is submitted, completed, and nothing is issued
/// behind it.
struct PrefetchStripeReader<R: Record> {
    ops: VecDeque<StripePlan>,
    in_flight: VecDeque<(ReadTicket<R>, usize)>,
    in_flight_records: usize,
    /// Records allowed in flight beyond the op being waited for
    /// (`capacity` = one memory load, or 0).
    budget: usize,
}

impl<R: Record> PrefetchStripeReader<R> {
    fn new(geom: Geometry, input: &StripedRun, capacity: usize, pipeline: bool) -> Self {
        PrefetchStripeReader {
            ops: plan_stripe_ops(geom, input, capacity),
            in_flight: VecDeque::new(),
            in_flight_records: 0,
            budget: if pipeline { capacity.max(1) } else { 0 },
        }
    }

    /// Submit planned ops until the in-flight budget is spent (always at
    /// least one, so the reader cannot stall on an oversized op).
    fn top_up<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        while self
            .ops
            .front()
            .is_some_and(|op| {
                self.in_flight.is_empty() || self.in_flight_records + op.records <= self.budget
            })
        {
            let Some(op) = self.ops.pop_front() else { break };
            let ticket = array.submit_read(&op.addrs)?;
            self.in_flight_records += op.records;
            self.in_flight.push_back((ticket, op.records));
        }
        Ok(())
    }

    /// Retire the oldest in-flight op and, when there is a budget,
    /// immediately reuse it.  Returns `None` when the input is exhausted.
    fn next_stripe<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<Option<Vec<R>>> {
        self.top_up(array)?;
        let Some((ticket, n)) = self.in_flight.pop_front() else {
            return Ok(None);
        };
        let blocks = array.complete_read(ticket)?;
        self.in_flight_records -= n;
        if self.budget > 0 {
            self.top_up(array)?;
        }
        let mut records = Vec::with_capacity(n);
        pdisk::append_records(array, blocks, &mut records);
        debug_assert_eq!(records.len(), n, "planned record yield mismatch");
        Ok(Some(records))
    }
}

/// Replacement selection: heap entries are `(epoch, key, seq)` so that
/// records frozen for the next run sink below every current-run record.
fn replacement_selection<R: Record, A: DiskArray<R>>(
    array: &mut A,
    input: &StripedRun,
    pipeline: bool,
    mut place: impl FnMut() -> DiskId,
) -> Result<Vec<StripedRun>> {
    let geom = array.geometry();
    // Reserve ~4D blocks of the memory budget for I/O buffers; the rest
    // feeds the selection heap.
    let heap_capacity = geom
        .m
        .saturating_sub(4 * geom.d * geom.b)
        .max(geom.b)
        .max(1);
    let mut reader = StripeReader::new(input);
    let mut pending: std::collections::VecDeque<R> = std::collections::VecDeque::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut payloads: std::collections::HashMap<u64, R> = std::collections::HashMap::new();
    let mut seq = 0u64;

    let refill = |heap: &mut BinaryHeap<Reverse<(u64, u64, u64)>>,
                      payloads: &mut std::collections::HashMap<u64, R>,
                      pending: &mut std::collections::VecDeque<R>,
                      reader: &mut StripeReader,
                      array: &mut A,
                      epoch: u64,
                      seq: &mut u64|
     -> Result<()> {
        while heap.len() < heap_capacity {
            if pending.is_empty() {
                match reader.next_stripe(array, heap_capacity - heap.len())? {
                    Some(records) => pending.extend(records),
                    None => break,
                }
            }
            match pending.pop_front() {
                Some(rec) => {
                    heap.push(Reverse((epoch, rec.key(), *seq)));
                    payloads.insert(*seq, rec);
                    *seq += 1;
                }
                None => break,
            }
        }
        Ok(())
    };

    let mut out = Vec::new();
    let mut epoch = 0u64;
    refill(&mut heap, &mut payloads, &mut pending, &mut reader, array, epoch, &mut seq)?;
    while !heap.is_empty() {
        let mut writer = RunWriter::new(geom, place()).write_behind(pipeline);
        loop {
            match heap.peek() {
                Some(&Reverse((e, _, _))) if e == epoch => {}
                _ => break, // heap empty or only next-epoch records left
            }
            let Reverse((_, key, id)) = heap
                .pop()
                .ok_or_else(|| SrmError::Internal("selection heap drained mid-run".into()))?;
            let rec = payloads
                .remove(&id)
                .ok_or_else(|| SrmError::Internal(format!("no payload for heap entry {id}")))?;
            debug_assert_eq!(rec.key(), key);
            writer.push(array, rec)?;
            // Admit one replacement record; freeze it for the next run if
            // it cannot extend the current one.
            if pending.is_empty() {
                if let Some(records) = reader.next_stripe(array, 1)? {
                    pending.extend(records);
                }
            }
            if let Some(new) = pending.pop_front() {
                let e = if new.key() >= key { epoch } else { epoch + 1 };
                heap.push(Reverse((e, new.key(), seq)));
                payloads.insert(seq, new);
                seq += 1;
            }
        }
        out.push(writer.finish(array)?);
        epoch += 1;
    }
    debug_assert!(payloads.is_empty());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::read_run;
    use pdisk::{Block, Forecast, Geometry, MemDiskArray, U64Record};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Lay out unsorted records as a striped input file.
    pub(crate) fn write_input(
        array: &mut MemDiskArray<U64Record>,
        geom: Geometry,
        records: &[u64],
    ) -> StripedRun {
        let b = geom.b;
        let len_blocks = (records.len() as u64).div_ceil(b as u64);
        let a2 = array;
        let run = {
            use pdisk::DiskArray as _;
            a2.alloc_run(DiskId(0), len_blocks, records.len() as u64).unwrap()
        };
        for (i, chunk) in records.chunks(b).enumerate() {
            let mut recs: Vec<U64Record> = chunk.iter().map(|&k| U64Record(k)).collect();
            // Input blocks need no forecast format and need not be sorted;
            // Block::new debug-asserts sortedness, so construct directly.
            let block = Block {
                records: std::mem::take(&mut recs),
                forecast: Forecast::Next(pdisk::block::NO_BLOCK),
            };
            a2.write(vec![(run.addr_of(i as u64), block)]).unwrap();
        }
        run
    }

    fn verify_runs(
        array: &mut MemDiskArray<U64Record>,
        runs: &[StripedRun],
        original: &[u64],
    ) {
        let mut all: Vec<u64> = Vec::new();
        for run in runs {
            let records = read_run(array, run).unwrap();
            let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
            assert_eq!(keys.len() as u64, run.records);
            all.extend(keys);
        }
        let mut expected = original.to_vec();
        expected.sort_unstable();
        all.sort_unstable();
        assert_eq!(all, expected, "runs are not a partition of the input");
    }

    fn random_input(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.random_range(0..1_000_000)).collect()
    }

    #[test]
    fn memory_load_forms_expected_number_of_runs() {
        let mut rng = SmallRng::seed_from_u64(1);
        let geom = Geometry::new(2, 4, 64).unwrap(); // M = 64 records
        let mut a = MemDiskArray::new(geom);
        let input_keys = random_input(&mut rng, 300);
        let input = write_input(&mut a, geom, &input_keys);
        let runs = form_runs(
            &mut a,
            &input,
            RunFormation::MemoryLoad { fraction: 0.5 },
            || DiskId(0),
        )
        .unwrap();
        // 300 records / 32-record loads -> 10 runs.
        assert_eq!(runs.len(), 300usize.div_ceil(32));
        verify_runs(&mut a, &runs, &input_keys);
    }

    #[test]
    fn memory_load_full_fraction() {
        let mut rng = SmallRng::seed_from_u64(2);
        let geom = Geometry::new(2, 4, 64).unwrap();
        let mut a = MemDiskArray::new(geom);
        let input_keys = random_input(&mut rng, 130);
        let input = write_input(&mut a, geom, &input_keys);
        let runs = form_runs(
            &mut a,
            &input,
            RunFormation::MemoryLoad { fraction: 1.0 },
            || DiskId(1),
        )
        .unwrap();
        assert_eq!(runs.len(), 130usize.div_ceil(64));
        verify_runs(&mut a, &runs, &input_keys);
    }

    #[test]
    fn bad_fraction_rejected() {
        let geom = Geometry::new(2, 4, 64).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_input(&mut a, geom, &[1, 2, 3]);
        for frac in [0.0, -1.0, 1.5] {
            assert!(matches!(
                form_runs(
                    &mut a,
                    &input,
                    RunFormation::MemoryLoad { fraction: frac },
                    || DiskId(0)
                ),
                Err(SrmError::Config(_))
            ));
        }
    }

    #[test]
    fn parallel_memory_load_matches_serial() {
        let mut rng = SmallRng::seed_from_u64(9);
        let geom = Geometry::new(2, 4, 64).unwrap();
        let input_keys = random_input(&mut rng, 400);
        // Serial.
        let mut a = MemDiskArray::new(geom);
        let input = write_input(&mut a, geom, &input_keys);
        let serial = form_runs(
            &mut a,
            &input,
            RunFormation::MemoryLoad { fraction: 0.5 },
            || DiskId(0),
        )
        .unwrap();
        // Parallel with 4 threads.
        let mut b = MemDiskArray::new(geom);
        let input = write_input(&mut b, geom, &input_keys);
        let parallel = form_runs(
            &mut b,
            &input,
            RunFormation::ParallelMemoryLoad { fraction: 0.5, threads: 4 },
            || DiskId(0),
        )
        .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let sk: Vec<u64> = read_run(&mut a, s).unwrap().iter().map(|r| r.0).collect();
            let pk: Vec<u64> = read_run(&mut b, p).unwrap().iter().map(|r| r.0).collect();
            assert_eq!(sk, pk, "run contents must match serial formation");
        }
        verify_runs(&mut b, &parallel, &input_keys);
    }

    #[test]
    fn formation_is_window_invariant() {
        // Same runs, layouts, and IoStats with and without the §2.1
        // overlap, across shapes that exercise partial final blocks,
        // partial final stripes, and every strategy.
        for &(d, b, m, n, strategy) in &[
            (2usize, 4usize, 64usize, 300usize, RunFormation::MemoryLoad { fraction: 0.5 }),
            (4, 8, 256, 1_000, RunFormation::MemoryLoad { fraction: 0.5 }),
            (3, 4, 96, 233, RunFormation::MemoryLoad { fraction: 1.0 }),
            (4, 8, 256, 777, RunFormation::ParallelMemoryLoad { fraction: 0.5, threads: 3 }),
            (2, 4, 64, 150, RunFormation::ReplacementSelection),
        ] {
            let mut rng = SmallRng::seed_from_u64(0xF0);
            let geom = Geometry::new(d, b, m).unwrap();
            let input_keys = random_input(&mut rng, n);

            let mut a = MemDiskArray::new(geom);
            let input_a = write_input(&mut a, geom, &input_keys);
            a.reset_stats();
            let serial =
                form_runs_overlapped(&mut a, &input_a, strategy, false, || DiskId(0)).unwrap();
            let serial_io = a.stats();

            let mut p = MemDiskArray::new(geom);
            let input_p = write_input(&mut p, geom, &input_keys);
            p.reset_stats();
            let piped =
                form_runs_overlapped(&mut p, &input_p, strategy, true, || DiskId(0)).unwrap();
            let piped_io = p.stats();

            let ctx = format!("d={d} b={b} m={m} n={n} strategy={strategy:?}");
            assert_eq!(serial_io, piped_io, "IoStats diverged: {ctx}");
            assert_eq!(serial.len(), piped.len(), "run count diverged: {ctx}");
            for (s, q) in serial.iter().zip(&piped) {
                assert_eq!(
                    (s.start_disk, s.len_blocks, s.records, &s.base_offsets),
                    (q.start_disk, q.len_blocks, q.records, &q.base_offsets),
                    "run layout diverged: {ctx}"
                );
                let sk = read_run(&mut a, s).unwrap();
                let qk = read_run(&mut p, q).unwrap();
                assert_eq!(sk, qk, "run contents diverged: {ctx}");
            }
            verify_runs(&mut p, &piped, &input_keys);
        }
    }

    #[test]
    fn replacement_selection_partitions_and_sorts() {
        let mut rng = SmallRng::seed_from_u64(3);
        let geom = Geometry::new(2, 4, 64).unwrap();
        let mut a = MemDiskArray::new(geom);
        let input_keys = random_input(&mut rng, 500);
        let input = write_input(&mut a, geom, &input_keys);
        let runs = form_runs(&mut a, &input, RunFormation::ReplacementSelection, || {
            DiskId(0)
        })
        .unwrap();
        verify_runs(&mut a, &runs, &input_keys);
    }

    #[test]
    fn replacement_selection_runs_longer_than_memory_loads() {
        // On random input RS runs average ~2x the heap size.
        let mut rng = SmallRng::seed_from_u64(4);
        let geom = Geometry::new(2, 4, 96).unwrap();
        let mut a = MemDiskArray::new(geom);
        let input_keys = random_input(&mut rng, 2000);
        let input = write_input(&mut a, geom, &input_keys);
        let rs = form_runs(&mut a, &input, RunFormation::ReplacementSelection, || {
            DiskId(0)
        })
        .unwrap();
        let heap_cap = 96 - 4 * 2 * 4; // M - 4DB
        let avg = 2000.0 / rs.len() as f64;
        assert!(
            avg > heap_cap as f64 * 1.3,
            "average RS run {avg} records should beat heap capacity {heap_cap}"
        );
    }

    #[test]
    fn replacement_selection_sorted_input_gives_one_run() {
        let geom = Geometry::new(2, 4, 64).unwrap();
        let mut a = MemDiskArray::new(geom);
        let input_keys: Vec<u64> = (0..400).collect();
        let input = write_input(&mut a, geom, &input_keys);
        let runs = form_runs(&mut a, &input, RunFormation::ReplacementSelection, || {
            DiskId(0)
        })
        .unwrap();
        assert_eq!(runs.len(), 1);
        verify_runs(&mut a, &runs, &input_keys);
    }

    #[test]
    fn replacement_selection_reverse_sorted_input_worst_case() {
        let geom = Geometry::new(2, 4, 64).unwrap();
        let heap_cap = 64 - 4 * 2 * 4;
        let mut a = MemDiskArray::new(geom);
        let input_keys: Vec<u64> = (0..300).rev().collect();
        let input = write_input(&mut a, geom, &input_keys);
        let runs = form_runs(&mut a, &input, RunFormation::ReplacementSelection, || {
            DiskId(0)
        })
        .unwrap();
        // Reverse input: every record freezes immediately; runs ≈ heap size.
        assert_eq!(runs.len(), 300usize.div_ceil(heap_cap));
        verify_runs(&mut a, &runs, &input_keys);
    }

    #[test]
    fn placement_callback_controls_start_disks() {
        let mut rng = SmallRng::seed_from_u64(5);
        let geom = Geometry::new(4, 4, 64).unwrap();
        let mut a = MemDiskArray::new(geom);
        let input_keys = random_input(&mut rng, 200);
        let input = write_input(&mut a, geom, &input_keys);
        let mut next = 0u32;
        let runs = form_runs(
            &mut a,
            &input,
            RunFormation::MemoryLoad { fraction: 0.5 },
            || {
                let d = DiskId(next % 4);
                next += 1;
                d
            },
        )
        .unwrap();
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.start_disk, DiskId(i as u32 % 4));
        }
    }

    #[test]
    fn input_reads_use_parallel_stripes() {
        let mut rng = SmallRng::seed_from_u64(6);
        let geom = Geometry::new(4, 4, 640).unwrap();
        let mut a = MemDiskArray::new(geom);
        let input_keys = random_input(&mut rng, 320); // 80 blocks
        let input = write_input(&mut a, geom, &input_keys);
        a.reset_stats();
        let _ = form_runs(
            &mut a,
            &input,
            RunFormation::MemoryLoad { fraction: 1.0 },
            || DiskId(0),
        )
        .unwrap();
        let stats = a.stats();
        // 80 blocks over 4 disks: at best 20 read ops; allow partial-load
        // boundary effects but demand near-full parallelism.
        assert!(
            stats.read_ops <= 25,
            "input pass used {} read ops for 80 blocks on 4 disks",
            stats.read_ops
        );
    }
}
