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
//! Both consume the input strictly in order, so both read it through
//! [`StripeWindow`] like every other sequential reader: whatever a
//! strategy does with the records, the next stripe is the right read.
//! Each produced run is written in forecasting format via
//! [`crate::output::RunWriter`], cyclically striped from a start disk
//! chosen by the caller-provided placement callback — this is where SRM's
//! randomization (or the deterministic stagger of §8) enters.

use crate::error::{Result, SrmError};
use crate::loser_tree::LoserTree;
use crate::output::{RunWriter, StripeWindow};
use pdisk::{DiskArray, DiskId, Record, StripedRun};

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
    /// Replacement selection on a tournament of `M − 4DB` slots (the rest
    /// of memory holds the stripes being read and written).
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
/// split-phase overlap §2.1 motivates: input stripes are in flight ahead
/// of the records being consumed and run stripes are written behind
/// ([`RunWriter::write_behind`]).  Off, each stripe read and each stripe
/// write is completed where it is submitted.  The operations are the same
/// either way, so op sizes, counts, and [`pdisk::IoStats`] are identical;
/// only waiting moves.
///
/// Memory loads read one [`StripeWindow`] per load, over that load's
/// `⌈capacity/B⌉` blocks of the input — whole stripes, then the op that
/// tops the load off.  Pipelined, the *next* load's window rides behind
/// the current one, the two together holding one memory load of whole
/// reads in flight (the paper's §2.1 double buffer — the other half of
/// memory when `fraction = 1/2`): while load `k` is sorted and written,
/// load `k + 1` streams in.
pub(crate) fn form_runs_overlapped<R: Record, A: DiskArray<R>>(
    array: &mut A,
    input: &StripedRun,
    strategy: RunFormation,
    pipeline: bool,
    mut place: impl FnMut() -> DiskId,
) -> Result<Vec<StripedRun>> {
    let (fraction, threads) = match strategy {
        RunFormation::MemoryLoad { fraction } => (fraction, 1),
        RunFormation::ParallelMemoryLoad { fraction, threads } => (fraction, threads.max(1)),
        RunFormation::ReplacementSelection => {
            return replacement_selection(array, input, pipeline, place)
        }
    };
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(SrmError::Config(format!(
            "memory-load fraction {fraction} outside (0, 1]"
        )));
    }
    let geom = array.geometry();
    let capacity = ((geom.m as f64 * fraction) as usize).max(geom.b);
    let load_blocks = capacity.div_ceil(geom.b) as u64;
    let depth = if pipeline { (capacity / (geom.d * geom.b)).max(1) } else { 1 };
    let window = |load: u64| StripeWindow::new(input, load * load_blocks..(load + 1) * load_blocks);
    let (mut current, mut next) = (window(0), window(1));
    let mut out = Vec::new();
    for following in 2.. {
        let mut load: Vec<R> = Vec::with_capacity(capacity);
        loop {
            current.submit(array, depth)?;
            if pipeline {
                next.submit(array, depth - current.in_flight())?;
            }
            if !current.next_into(array, depth, &mut load)? {
                break;
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
        (current, next) = (next, window(following));
    }
    Ok(out)
}

/// Replacement selection: the tournament's leaf *is* the slot holding the
/// record in place, keyed `(epoch, key)` so that a record frozen for the
/// next run loses to every current-run record; a slot the input could not
/// refill is parked at `epoch = u64::MAX` (so a record key of `u64::MAX`
/// is just a key).  The `4·D·B` records withheld from the tournament are
/// an account, not a guess: the stripe being consumed, the one in flight
/// behind it when pipelined, and [`RunWriter`]'s `2D` pending blocks.
fn replacement_selection<R: Record, A: DiskArray<R>>(
    array: &mut A,
    input: &StripedRun,
    pipeline: bool,
    mut place: impl FnMut() -> DiskId,
) -> Result<Vec<StripedRun>> {
    let geom = array.geometry();
    let capacity = geom.m.saturating_sub(4 * geom.d * geom.b).max(geom.b).max(1);
    let depth = 1 + usize::from(pipeline);
    let mut window = StripeWindow::new(input, 0..input.len_blocks);
    // The stripe being consumed, and how far into it.
    let (mut stripe, mut taken): (Vec<R>, usize) = (Vec::new(), 0);
    let mut next_record = |array: &mut A| -> Result<Option<R>> {
        while taken == stripe.len() {
            stripe.clear();
            taken = 0;
            if !window.next_into(array, depth, &mut stripe)? {
                return Ok(None);
            }
        }
        taken += 1;
        Ok(Some(stripe[taken - 1]))
    };

    let mut slots: Vec<R> = Vec::with_capacity(capacity.min(input.records as usize));
    while slots.len() < capacity {
        match next_record(array)? {
            Some(rec) => slots.push(rec),
            None => break,
        }
    }
    let mut out = Vec::new();
    if slots.is_empty() {
        return Ok(out);
    }
    const PARKED: (u64, u64) = (u64::MAX, 0);
    let mut tree = LoserTree::new(slots.iter().map(|rec| (0u64, rec.key())).collect());
    let mut epoch = 0;
    while tree.peek().1 != PARKED {
        let mut writer = RunWriter::new(geom, place()).write_behind(pipeline);
        loop {
            let (leaf, (e, key)) = tree.peek();
            if e != epoch {
                break; // only next-epoch (or parked) slots left
            }
            writer.push(array, slots[leaf])?;
            // Admit one replacement record into the vacated slot; freeze
            // it for the next run if it cannot extend the current one.
            match next_record(array)? {
                Some(new) => {
                    slots[leaf] = new;
                    tree.update(leaf, (epoch + u64::from(new.key() < key), new.key()));
                }
                None => tree.update(leaf, PARKED),
            }
        }
        out.push(writer.finish(array)?);
        epoch += 1;
    }
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
        rs_runs(2, 4, 64, &random_input(&mut rng, 500));
    }

    #[test]
    fn replacement_selection_runs_longer_than_memory_loads() {
        // On random input RS runs average ~2x the tournament's size.
        let mut rng = SmallRng::seed_from_u64(4);
        let rs = rs_runs(2, 4, 96, &random_input(&mut rng, 2000));
        let slots = 96 - 4 * 2 * 4; // M - 4DB
        let avg = 2000.0 / rs.len() as f64;
        assert!(
            avg > slots as f64 * 1.3,
            "average RS run {avg} records should beat the {slots} slots"
        );
    }

    #[test]
    fn replacement_selection_sorted_input_gives_one_run() {
        assert_eq!(rs_runs(2, 4, 64, &(0..400).collect::<Vec<_>>()).len(), 1);
    }

    #[test]
    fn replacement_selection_reverse_sorted_input_worst_case() {
        // Reverse input: every record freezes immediately; runs = slots.
        let slots = 64 - 4 * 2 * 4;
        let runs = rs_runs(2, 4, 64, &(0..300).rev().collect::<Vec<_>>());
        assert_eq!(runs.len(), 300usize.div_ceil(slots));
    }

    /// Replacement selection over `keys` on `(d, b, m)`, verified: the
    /// runs formed.
    fn rs_runs(d: usize, b: usize, m: usize, keys: &[u64]) -> Vec<StripedRun> {
        let geom = Geometry::new(d, b, m).unwrap();
        let mut a = MemDiskArray::new(geom);
        let input = write_input(&mut a, geom, keys);
        let runs =
            form_runs(&mut a, &input, RunFormation::ReplacementSelection, || DiskId(0)).unwrap();
        verify_runs(&mut a, &runs, keys);
        runs
    }

    /// The tournament's edges: every record comes out exactly once
    /// (`verify_runs`) whatever the input does to the slots.
    #[test]
    fn replacement_selection_tournament_edges() {
        // M − 4DB = 32 slots on (2, 4, 64).  Fewer records than slots —
        // one, and a partial block's worth — leave no leaf unparked: one run.
        assert_eq!(rs_runs(2, 4, 64, &[7]).len(), 1);
        assert_eq!(rs_runs(2, 4, 64, &(0..19).rev().collect::<Vec<_>>()).len(), 1);
        // Exactly the slots, and one more (which freezes: reverse input).
        assert_eq!(rs_runs(2, 4, 64, &(0..32).rev().collect::<Vec<_>>()).len(), 1);
        assert_eq!(rs_runs(2, 4, 64, &(0..33).rev().collect::<Vec<_>>()).len(), 2);
        // The parked sentinel is the epoch, so a record key of `u64::MAX`
        // mid-input is just the largest key: it ends its run, it is not
        // mistaken for an empty slot.  Sorted but for the MAXes: they wait
        // in their slots while the run grows past them, so still one run.
        let mut keys: Vec<u64> = (0..200).collect();
        for at in [5, 70, 71, 150] {
            keys[at] = u64::MAX;
        }
        assert_eq!(rs_runs(2, 4, 64, &keys).len(), 1);
        keys.reverse();
        assert!(rs_runs(2, 4, 64, &keys).len() >= 200 / 33);
        // All keys equal: ties resolve by leaf and nothing ever freezes.
        assert_eq!(rs_runs(2, 4, 64, &[42; 333]).len(), 1);
        // Zipf-heavy duplicates; 333 and 1001 records end in a partial
        // last block and a partial last stripe.
        let mut rng = SmallRng::seed_from_u64(0x21F);
        let zipf: Vec<u64> =
            (0..1001).map(|_| (1.0 / rng.random_range(0.001..1.0f64)) as u64).collect();
        assert!(rs_runs(3, 4, 96, &zipf).len() < 1001 / 48, "runs longer than the 48 slots");
        // M < 4DB + B: the `.max(b)` floor leaves one block of slots.
        let runs = rs_runs(2, 4, 33, &(0..100).rev().collect::<Vec<_>>());
        assert_eq!(runs.len(), 100usize.div_ceil(4));
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
