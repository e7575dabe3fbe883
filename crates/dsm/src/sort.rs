//! The DSM sorter: memory-load run formation plus striped merge passes.
//!
//! Every stripe moves through a ticket window of [`pdisk::window`] — reads
//! through a [`StripeWindow`] over the run's striped view, writes through
//! a [`WriteBehind`] — so the engine issues one sequence of submits and the
//! window decides only where their completions wait: at once with the
//! pipeline off, one stripe later with it on (eq. 41 budgets each input
//! run and the output two stripes, which is a double buffer and no more).

use crate::checkpoint::DsmManifest;
use crate::logical::{alloc_stripe, as_striped, read_logical_run, stripe_writes, LogicalRun};
use pdisk::passes::{Boundary, Checkpointing};
use pdisk::{
    DiskArray, Geometry, InterruptFlag, PassEngine, PdiskError, Record, Sorter, StripeWindow,
    WriteBehind,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;

/// DSM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsmConfig {
    /// Fraction of `M` sorted per formation run (the paper's convention is
    /// 1/2, matching SRM's default so comparisons share a formation pass).
    pub load_fraction: f64,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig { load_fraction: 0.5 }
    }
}

/// Accounting for a DSM sort: exactly what the pass driver counts, with
/// `merge_order` = `R_DSM = (M/B − 2D)/2D`.
pub type DsmReport = pdisk::PassReport;

/// Disk-striped mergesort.
///
/// # Examples
///
/// ```
/// use dsm::{read_logical_run, write_unsorted_stripes, DsmSorter};
/// use pdisk::{Geometry, MemDiskArray, U64Record};
///
/// let geom = Geometry::new(2, 8, 512)?;
/// let mut disks: MemDiskArray<U64Record> = MemDiskArray::new(geom);
/// let records: Vec<U64Record> = (0..1000).rev().map(U64Record).collect();
/// let input = write_unsorted_stripes(&mut disks, &records)?;
///
/// let (sorted, report) = DsmSorter::default().sort(&mut disks, &input)?;
/// assert_eq!(report.records, 1000);
/// let output = read_logical_run(&mut disks, &sorted)?;
/// assert!(output.windows(2).all(|w| w[0].0 <= w[1].0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DsmSorter {
    config: DsmConfig,
    /// Overlap disk I/O with merging by keeping the *next* stripe's read
    /// and the last stripe's write in flight (double buffering).  Off,
    /// every stripe is waited for where it is issued; either way it is
    /// the same code issuing the same operations, and stats and output
    /// are identical, so this lives outside [`DsmConfig`] and checkpoint
    /// manifests — a sort may even be resumed under the other setting.
    pipeline: bool,
    /// Cooperative stop request; polled at pass boundaries.  See
    /// [`DsmSorter::with_interrupt`].
    interrupt: Option<InterruptFlag>,
}

/// Errors surfaced by a DSM sort: the vocabulary the pass driver and
/// every engine share.
pub type DsmError = pdisk::SortError;

impl DsmSorter {
    /// Sorter with the given configuration.
    pub fn new(config: DsmConfig) -> Self {
        DsmSorter {
            config,
            pipeline: false,
            interrupt: None,
        }
    }

    /// Install a cooperative stop request (the *drain hook*), mirroring
    /// srm-core's `SrmSorter::with_interrupt`: when
    /// `flag` is triggered the sort stops at the next pass boundary,
    /// after that boundary's checkpoint (if a manifest path is in use)
    /// is durable, returning [`DsmError::Interrupted`].  With one run
    /// left there is no boundary, so the sort completes.
    pub fn with_interrupt(mut self, flag: InterruptFlag) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Toggle read-ahead / write-behind overlap.
    pub fn with_pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }

    /// Whether I/O is overlapped with merging.
    pub fn pipeline(&self) -> bool {
        self.pipeline
    }

    /// Sort a logical-striped input file; returns the sorted run and the
    /// accounting.
    pub fn sort<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &LogicalRun,
    ) -> Result<(LogicalRun, DsmReport), DsmError> {
        self.run(array, input, None, |_, _| Ok(()))
    }

    /// Like [`DsmSorter::sort`], but checkpointing to `manifest` after
    /// formation and after each merge pass, and resuming from it when the
    /// file exists (geometry and record count are validated first).  The
    /// manifest is deleted on completion.  DSM is deterministic, so a
    /// resumed sort redoes only the interrupted pass and produces exactly
    /// the output an uninterrupted sort would.
    pub fn sort_checkpointed<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &LogicalRun,
        manifest: &Path,
    ) -> Result<(LogicalRun, DsmReport), DsmError> {
        self.run(array, input, Some(manifest), |_, _| Ok(()))
    }

    /// Like [`DsmSorter::sort_checkpointed`] (pass `manifest: None` for an
    /// unsnapshotted sort), but calling `observer` after run formation
    /// (`pass` = 0) and after each merge pass completed by this call,
    /// before the snapshot is taken.  The observer may mutate the array —
    /// the CLI's `--kill-disk` drill injects a permanent disk failure
    /// here.  Pass boundaries completed before a resume are not replayed.
    pub fn sort_observed<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &LogicalRun,
        manifest: Option<&Path>,
        observer: impl FnMut(u64, &mut A) -> Result<(), DsmError>,
    ) -> Result<(LogicalRun, DsmReport), DsmError> {
        self.run(array, input, manifest, observer)
    }
}

/// DSM as the pass driver sees it: `R_DSM` from eq. 41, memory-load
/// formation, heap merges over full-width stripes.  Deterministic, so no
/// per-sort state.
impl PassEngine for DsmSorter {
    type Run = LogicalRun;
    type Manifest = DsmManifest;
    type State = ();

    fn merge_order(&self, geometry: Geometry) -> Result<usize, DsmError> {
        if !(self.config.load_fraction > 0.0 && self.config.load_fraction <= 1.0) {
            return Err(DsmError::Config(format!(
                "load fraction {} outside (0, 1]",
                self.config.load_fraction
            )));
        }
        geometry
            .dsm_merge_order()
            .map_err(|e| DsmError::Config(e.to_string()))
    }

    /// Sort `load_fraction · M` records at a time.
    fn form<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &LogicalRun,
    ) -> Result<(Vec<LogicalRun>, ()), DsmError> {
        let geom = array.geometry();
        let capacity = ((geom.m as f64 * self.config.load_fraction) as usize).max(geom.b * geom.d);
        let mut queue: Vec<LogicalRun> = Vec::new();
        let mut consumed = 0u64; // records consumed
        // Pipelined formation keeps one input stripe in flight beside the
        // one it waits for — it even spans load boundaries, so the next
        // load's first stripe is read while this load sorts and writes.
        let mut input_stripes = stripes_of(input, geom);
        let depth = 1 + usize::from(self.pipeline);
        while consumed < input.records {
            let mut load: Vec<R> = Vec::with_capacity(capacity);
            // Consume whole stripes to keep every input read full-width;
            // when load_fraction·M is not stripe-aligned the load runs
            // slightly over, never under.
            while load.len() < capacity && input_stripes.next_into(array, depth, &mut load)? {}
            consumed += load.len() as u64;
            load.sort_unstable_by_key(|r| r.key());
            queue.push(write_run(array, &load, usize::from(self.pipeline))?);
        }
        Ok((queue, ()))
    }

    fn merge_group<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        group: &[LogicalRun],
        _state: &mut (),
    ) -> Result<LogicalRun, DsmError> {
        merge_group(array, group, self.pipeline)
    }

    fn checkpoint(&self, _state: &(), at: Boundary<LogicalRun>) -> DsmManifest {
        DsmManifest {
            geometry: at.geometry,
            records: at.records,
            runs_formed: at.runs_formed,
            pass: at.pass,
            redundancy: at.redundancy,
            generation: 0,
            runs: at.runs,
        }
    }

    fn restore(
        &self,
        manifest: &DsmManifest,
        geometry: Geometry,
        records: u64,
    ) -> Result<(Boundary<LogicalRun>, ()), DsmError> {
        manifest.validate(geometry, records)?;
        let at = Boundary {
            geometry,
            records,
            runs_formed: manifest.runs_formed,
            pass: manifest.pass,
            redundancy: manifest.redundancy.clone(),
            runs: manifest.runs.clone(),
        };
        Ok((at, ()))
    }
}

impl Sorter for DsmSorter {
    type Report = DsmReport;

    fn stage<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        data: &[R],
    ) -> Result<LogicalRun, DsmError> {
        write_unsorted_stripes(array, data)
    }

    fn output<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        run: &LogicalRun,
    ) -> Result<Vec<R>, DsmError> {
        Ok(read_logical_run(array, run)?)
    }

    fn checkpointing<'a>(&'a self, manifest: Option<&'a Path>) -> Checkpointing<'a> {
        Checkpointing {
            manifest,
            interrupt: self.interrupt.as_ref(),
            crash: None,
        }
    }

    fn report(&self, passes: DsmReport, _state: ()) -> DsmReport {
        passes
    }
}

/// The stripes of `run` not yet read, none submitted.
fn stripes_of<R: Record>(run: &LogicalRun, geom: Geometry) -> StripeWindow<R> {
    let view = as_striped(run, geom);
    StripeWindow::new(&view, 0..view.len_blocks)
}

/// Write records as a fresh logical run, one stripe per parallel write,
/// up to `depth` of them left in flight behind the one being produced.
fn write_run<R: Record, A: DiskArray<R>>(
    array: &mut A,
    records: &[R],
    depth: usize,
) -> Result<LogicalRun, DsmError> {
    let geom = array.geometry();
    let per = LogicalRun::stripe_records(geom.d, geom.b) as usize;
    let mut start = None;
    let mut len = 0u64;
    let mut behind = WriteBehind::new(depth);
    for chunk in records.chunks(per) {
        let s = alloc_stripe(array)?;
        if start.is_none() {
            start = Some(s);
        }
        behind.submit(array, stripe_writes(geom, s, chunk))?;
        len += 1;
    }
    behind.complete_all(array)?;
    let start_stripe =
        start.ok_or_else(|| DsmError::Internal("cannot write an empty run".into()))?;
    Ok(LogicalRun {
        start_stripe,
        len_stripes: len,
        records: records.len() as u64,
    })
}

/// Merge one group of runs with a heap over the runs' current records,
/// reading each run one stripe at a time and writing the output one
/// stripe at a time — every operation full-width.
///
/// With `pipeline` on, each cursor keeps its *next* stripe in flight
/// while the heap drains the current one, and the output keeps one
/// stripe write outstanding — classic double buffering.  Off, the next
/// stripe is submitted only when the cursor runs dry and completed at
/// once.  The stripes read and written and the merged output are
/// identical either way; only the waiting moves.
fn merge_group<R: Record, A: DiskArray<R>>(
    array: &mut A,
    group: &[LogicalRun],
    pipeline: bool,
) -> Result<LogicalRun, DsmError> {
    let geom = array.geometry();
    let per = LogicalRun::stripe_records(geom.d, geom.b) as usize;
    struct Cursor<R: Record> {
        buf: Vec<R>,
        pos: usize,
        /// The run's stripes after `buf`; with `pipeline`, the next one
        /// is in flight.
        rest: StripeWindow<R>,
    }
    // Load `cur`'s next stripe (empty past the run's end), then with
    // `pipeline` put the one after it in flight.
    let refill = |array: &mut A, cur: &mut Cursor<R>| {
        cur.buf.clear();
        cur.pos = 0;
        cur.rest.next_into(array, 1, &mut cur.buf)?;
        if pipeline {
            cur.rest.submit(array, 1)?;
        }
        Ok::<(), PdiskError>(())
    };
    let mut cursors: Vec<Cursor<R>> = Vec::with_capacity(group.len());
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, run) in group.iter().enumerate() {
        let mut cur = Cursor {
            buf: Vec::new(),
            pos: 0,
            rest: stripes_of(run, geom),
        };
        refill(array, &mut cur)?;
        heap.push(Reverse((cur.buf[0].key(), i)));
        cursors.push(cur);
    }
    let total: u64 = group.iter().map(|r| r.records).sum();
    let mut out: Vec<R> = Vec::with_capacity(per);
    let mut out_run: Option<LogicalRun> = None;
    let mut behind = WriteBehind::new(usize::from(pipeline));
    let flush = |array: &mut A,
                 out: &mut Vec<R>,
                 run: &mut Option<LogicalRun>,
                 behind: &mut WriteBehind|
     -> Result<(), DsmError> {
        let s = alloc_stripe(array)?;
        behind.submit(array, stripe_writes(geom, s, out))?;
        match run {
            None => {
                *run = Some(LogicalRun {
                    start_stripe: s,
                    len_stripes: 1,
                    records: out.len() as u64,
                })
            }
            Some(r) => {
                debug_assert_eq!(s, r.start_stripe + r.len_stripes);
                r.len_stripes += 1;
                r.records += out.len() as u64;
            }
        }
        out.clear();
        Ok(())
    };

    while let Some(Reverse((key, i))) = heap.pop() {
        let cur = &mut cursors[i];
        let rec = cur.buf[cur.pos];
        debug_assert_eq!(rec.key(), key);
        cur.pos += 1;
        out.push(rec);
        if out.len() == per {
            flush(array, &mut out, &mut out_run, &mut behind)?;
        }
        if cur.pos == cur.buf.len() {
            refill(array, cur)?;
        }
        if !cur.buf.is_empty() {
            heap.push(Reverse((cur.buf[cur.pos].key(), i)));
        }
    }
    if !out.is_empty() {
        flush(array, &mut out, &mut out_run, &mut behind)?;
    }
    behind.complete_all(array)?;
    let out_run =
        out_run.ok_or_else(|| DsmError::Internal("merge produced no output stripes".into()))?;
    debug_assert_eq!(out_run.records, total);
    Ok(out_run)
}

/// Stage unsorted records as a logical-striped input file for
/// [`DsmSorter::sort`], each stripe written behind the next one's
/// production.
pub fn write_unsorted_stripes<R: Record, A: DiskArray<R>>(
    array: &mut A,
    records: &[R],
) -> Result<LogicalRun, DsmError> {
    if records.is_empty() {
        return Err(DsmError::Config("empty input".into()));
    }
    write_run(array, records, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::{MemDiskArray, U64Record};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sort_and_verify(geom: Geometry, keys: &[u64], config: DsmConfig) -> DsmReport {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
        let input = write_unsorted_stripes(&mut a, &recs).unwrap();
        let (sorted, report) = DsmSorter::new(config).sort(&mut a, &input).unwrap();
        let got: Vec<u64> = read_logical_run(&mut a, &sorted)
            .unwrap()
            .iter()
            .map(|r| r.0)
            .collect();
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        assert_eq!(got, expected);
        report
    }

    fn random_keys(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.random_range(0..1_000_000)).collect()
    }

    #[test]
    fn sorts_multi_pass() {
        let mut rng = SmallRng::seed_from_u64(31);
        // M/B = 24, D = 2 -> R_DSM = (24 - 4)/4 = 5.
        let geom = Geometry::new(2, 4, 96).unwrap();
        let keys = random_keys(&mut rng, 3000);
        let report = sort_and_verify(geom, &keys, DsmConfig::default());
        assert_eq!(report.merge_order, 5);
        assert!(report.merge_passes >= 2);
        assert_eq!(report.records, 3000);
    }

    #[test]
    fn single_load_no_merge() {
        let geom = Geometry::new(2, 4, 128).unwrap();
        let keys: Vec<u64> = (0..50).rev().collect();
        let report = sort_and_verify(geom, &keys, DsmConfig { load_fraction: 1.0 });
        assert_eq!(report.runs_formed, 1);
        assert_eq!(report.merge_passes, 0);
    }

    #[test]
    fn perfect_parallelism_on_full_stripes() {
        let mut rng = SmallRng::seed_from_u64(32);
        let geom = Geometry::new(4, 4, 256).unwrap();
        // 64 records per load; input of 1024 = 64 stripes exactly.
        let keys = random_keys(&mut rng, 1024);
        let report = sort_and_verify(geom, &keys, DsmConfig::default());
        // All ops (except possibly run-tail writes) move D blocks.
        assert!(
            report.io.read_parallelism() > 3.9,
            "read parallelism {}",
            report.io.read_parallelism()
        );
        assert!(
            report.io.write_parallelism() > 3.9,
            "write parallelism {}",
            report.io.write_parallelism()
        );
    }

    #[test]
    fn io_count_matches_formula_shape() {
        // Per pass, DSM moves every record once in and once out:
        // reads/pass ≈ writes/pass ≈ stripes of the file.
        let mut rng = SmallRng::seed_from_u64(33);
        let geom = Geometry::new(2, 4, 96).unwrap();
        let n = 4096u64;
        let keys = random_keys(&mut rng, n as usize);
        let report = sort_and_verify(geom, &keys, DsmConfig::default());
        let stripes = n / 8;
        let passes = 1 + report.merge_passes; // formation + merges
        let ideal = passes * stripes;
        assert!(
            (report.io.read_ops as i64 - ideal as i64).unsigned_abs() < ideal / 5,
            "reads {} vs ideal {ideal}",
            report.io.read_ops
        );
        assert!(
            (report.io.write_ops as i64 - ideal as i64).unsigned_abs() < ideal / 5,
            "writes {} vs ideal {ideal}",
            report.io.write_ops
        );
    }

    #[test]
    fn duplicate_and_degenerate_inputs() {
        let geom = Geometry::new(2, 4, 96).unwrap();
        sort_and_verify(geom, &vec![9u64; 500], DsmConfig::default());
        sort_and_verify(geom, &(0..700).collect::<Vec<u64>>(), DsmConfig::default());
        sort_and_verify(geom, &(0..700).rev().collect::<Vec<u64>>(), DsmConfig::default());
    }

    /// Both windows must produce byte-identical output and the same I/O
    /// totals — double buffering moves the waiting, not the work.
    #[test]
    fn sort_is_window_invariant() {
        let mut rng = SmallRng::seed_from_u64(34);
        for (geom, n) in [
            (Geometry::new(2, 4, 96).unwrap(), 3000usize),
            (Geometry::new(4, 4, 256).unwrap(), 5000),
        ] {
            let keys = random_keys(&mut rng, n);
            let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
            let run = |pipeline: bool| {
                let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
                let input = write_unsorted_stripes(&mut a, &recs).unwrap();
                a.reset_stats();
                let (sorted, report) = DsmSorter::default()
                    .with_pipeline(pipeline)
                    .sort(&mut a, &input)
                    .unwrap();
                (read_logical_run(&mut a, &sorted).unwrap(), report)
            };
            assert_eq!(run(true), run(false), "output and report (incl. IoStats) must match");
        }
    }

    #[test]
    fn empty_input_rejected() {
        let geom = Geometry::new(2, 4, 96).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        assert!(write_unsorted_stripes::<U64Record, _>(&mut a, &[]).is_err());
    }

    #[test]
    fn bad_fraction_rejected() {
        let geom = Geometry::new(2, 4, 96).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_stripes(&mut a, &[U64Record(1)]).unwrap();
        let sorter = DsmSorter::new(DsmConfig { load_fraction: 0.0 });
        assert!(matches!(
            sorter.sort(&mut a, &input),
            Err(DsmError::Config(_))
        ));
    }
}
