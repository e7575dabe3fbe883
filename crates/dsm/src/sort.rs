//! The DSM sorter: memory-load run formation plus striped merge passes.

use crate::checkpoint::DsmManifest;
use crate::logical::{
    alloc_stripe, complete_stripe_read, read_stripe, submit_stripe_read, submit_stripe_write,
    LogicalRun,
};
use pdisk::{
    DiskArray, InterruptFlag, IoStats, Manifest, PdiskError, ReadTicket, Record, WriteTicket,
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

/// Accounting for a DSM sort.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DsmReport {
    /// Records sorted.
    pub records: u64,
    /// Merge order `R_DSM = (M/B − 2D)/2D`.
    pub merge_order: usize,
    /// Runs after formation.
    pub runs_formed: usize,
    /// Merge passes (excluding formation).
    pub merge_passes: u64,
    /// Backend I/O delta for the whole sort.
    pub io: IoStats,
}

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

/// Pass-boundary callback threaded through `sort_inner`; see
/// [`DsmSorter::sort_observed`].
type PassObserver<'a, A> = &'a mut dyn FnMut(u64, &mut A) -> Result<(), DsmError>;

/// Errors are plain [`PdiskError`]s plus configuration strings.
#[derive(Debug)]
#[non_exhaustive]
pub enum DsmError {
    /// Disk layer failure.
    Disk(PdiskError),
    /// Unusable configuration.
    Config(String),
    /// A checkpoint manifest could not be read, written, or trusted.
    Checkpoint(String),
    /// The sort stopped at a pass boundary because its
    /// [`InterruptFlag`] was triggered.  If a manifest path was given,
    /// the boundary's checkpoint was journaled first, so a rerun
    /// resumes byte-identically.
    Interrupted,
}

impl std::fmt::Display for DsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsmError::Disk(e) => write!(f, "disk error: {e}"),
            DsmError::Config(m) => write!(f, "configuration error: {m}"),
            DsmError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            DsmError::Interrupted => {
                write!(f, "sort interrupted at a pass boundary (checkpoint journaled)")
            }
        }
    }
}

impl std::error::Error for DsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DsmError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PdiskError> for DsmError {
    fn from(e: PdiskError) -> Self {
        DsmError::Disk(e)
    }
}

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

    /// `Err(Interrupted)` if a stop has been requested and merging work
    /// remains; called only after the boundary's snapshot is durable —
    /// which srmlint's interrupt pass enforces.
    #[srmlint::interrupt_observer]
    fn check_interrupt(&self, runs_left: usize) -> Result<(), DsmError> {
        match &self.interrupt {
            Some(flag) if flag.is_set() && runs_left > 1 => Err(DsmError::Interrupted),
            _ => Ok(()),
        }
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
        self.sort_inner(array, input, None, None)
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
        self.sort_inner(array, input, Some(manifest), None)
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
        mut observer: impl FnMut(u64, &mut A) -> Result<(), DsmError>,
    ) -> Result<(LogicalRun, DsmReport), DsmError> {
        self.sort_inner(array, input, manifest, Some(&mut observer))
    }

    fn sort_inner<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &LogicalRun,
        manifest: Option<&Path>,
        mut observer: Option<PassObserver<'_, A>>,
    ) -> Result<(LogicalRun, DsmReport), DsmError> {
        let geom = array.geometry();
        if input.records == 0 {
            return Err(DsmError::Config("cannot sort an empty input".into()));
        }
        if !(self.config.load_fraction > 0.0 && self.config.load_fraction <= 1.0) {
            return Err(DsmError::Config(format!(
                "load fraction {} outside (0, 1]",
                self.config.load_fraction
            )));
        }
        let r_dsm = geom
            .dsm_merge_order()
            .map_err(|e| DsmError::Config(e.to_string()))?;
        let io_before = array.stats();

        // Recovery rule: newest valid manifest generation wins; a torn
        // current manifest falls back to its journaled predecessor.
        let resume = match manifest {
            Some(path) => DsmManifest::load_latest(path)?,
            None => None,
        };
        let (mut queue, mut pass, runs_formed) = match resume {
            Some(m) => {
                m.validate(geom, input.records)?;
                m.validate_redundancy(array.redundancy().as_ref())?;
                (m.runs, m.pass, m.runs_formed as usize)
            }
            None => {
                if let Some(sink) = array.trace_sink() {
                    // Run formation is pass 0; merge passes count from 1.
                    sink.begin_pass(0);
                }
                // Run formation: sort `load_fraction · M` records at a time.
                let capacity =
                    ((geom.m as f64 * self.config.load_fraction) as usize).max(geom.b * geom.d);
                let mut queue: Vec<LogicalRun> = Vec::new();
                let mut next_in = 0u64; // stripes of the input consumed
                let mut consumed = 0u64; // records consumed
                // Pipelined formation keeps one input stripe in flight —
                // it even spans load boundaries, so the next load's
                // first stripe is read while this load sorts and writes.
                let mut prefetch: Option<ReadTicket<R>> = None;
                while consumed < input.records {
                    let mut load: Vec<R> = Vec::with_capacity(capacity);
                    // Consume whole stripes to keep every input read
                    // full-width; when load_fraction·M is not
                    // stripe-aligned the load runs slightly over, never
                    // under.
                    while load.len() < capacity && consumed < input.records {
                        let n = input.records_in_stripe(next_in, geom.d, geom.b);
                        let ticket = match prefetch.take() {
                            Some(t) => t,
                            None => submit_stripe_read(array, input.start_stripe + next_in, n)?,
                        };
                        if self.pipeline && consumed + n < input.records {
                            let after = next_in + 1;
                            let n2 = input.records_in_stripe(after, geom.d, geom.b);
                            prefetch =
                                Some(submit_stripe_read(array, input.start_stripe + after, n2)?);
                        }
                        load.extend(complete_stripe_read(array, ticket)?);
                        next_in += 1;
                        consumed += n;
                    }
                    load.sort_unstable_by_key(|r| r.key());
                    queue.push(write_run(array, &load, self.pipeline)?);
                }
                let runs_formed = queue.len();
                if let Some(obs) = observer.as_deref_mut() {
                    obs(0, array)?;
                }
                if let Some(path) = manifest {
                    snapshot(path, input, runs_formed, 0, array, &queue)?;
                }
                (queue, 0, runs_formed)
            }
        };
        // Drain hook, boundary 0: the formation snapshot above (or the
        // resumed manifest already on disk) is durable.
        self.check_interrupt(queue.len())?;

        // Merge passes.
        while queue.len() > 1 {
            pass += 1;
            if let Some(sink) = array.trace_sink() {
                sink.begin_pass(pass);
            }
            let mut next: Vec<LogicalRun> = Vec::with_capacity(queue.len().div_ceil(r_dsm));
            for group in queue.chunks(r_dsm) {
                if group.len() == 1 {
                    next.push(group[0].clone());
                    continue;
                }
                next.push(merge_group(array, group, self.pipeline)?);
            }
            queue = next;
            if let Some(obs) = observer.as_deref_mut() {
                obs(pass, array)?;
            }
            if let Some(path) = manifest {
                if queue.len() > 1 {
                    snapshot(path, input, runs_formed, pass, array, &queue)?;
                }
            }
            // Drain hook: the boundary's snapshot is durable, so a rerun
            // resumes from exactly this pass.
            self.check_interrupt(queue.len())?;
        }
        let sorted = queue
            .pop()
            .ok_or_else(|| DsmError::Config("merge queue drained to empty".into()))?;
        debug_assert_eq!(sorted.records, input.records);
        if let Some(path) = manifest {
            DsmManifest::remove(path)?;
        }
        Ok((
            sorted,
            DsmReport {
                records: input.records,
                merge_order: r_dsm,
                runs_formed,
                merge_passes: pass,
                io: array.stats().since(&io_before),
            },
        ))
    }
}

#[srmlint::checkpoint]
fn snapshot<R: Record, A: DiskArray<R>>(
    path: &Path,
    input: &LogicalRun,
    runs_formed: usize,
    pass: u64,
    array: &mut A,
    queue: &[LogicalRun],
) -> Result<(), DsmError> {
    // Durability barrier: every block the manifest is about to reference
    // must be on stable storage before the manifest claims the pass
    // completed.
    array.sync()?;
    DsmManifest {
        geometry: array.geometry(),
        records: input.records,
        runs_formed: runs_formed as u64,
        pass,
        redundancy: array.redundancy(),
        generation: 0,
        runs: queue.to_vec(),
    }
    .save(path)
}

/// Submit stripe `s` after retiring the previous stripe's write.  With
/// `pipeline` the new ticket is kept for the next call (or the caller's
/// final completion), so its disk time overlaps the next stripe's
/// production; without, it is completed here.
fn write_behind<R: Record, A: DiskArray<R>>(
    array: &mut A,
    in_flight: &mut Option<WriteTicket>,
    s: u64,
    records: &[R],
    pipeline: bool,
) -> Result<(), PdiskError> {
    if let Some(t) = in_flight.take() {
        array.complete_write(t)?;
    }
    let ticket = submit_stripe_write(array, s, records)?;
    if pipeline {
        *in_flight = Some(ticket);
        Ok(())
    } else {
        array.complete_write(ticket)
    }
}

/// Write sorted records as a fresh logical run, one stripe per parallel
/// write, written behind when `pipeline` is on.
fn write_run<R: Record, A: DiskArray<R>>(
    array: &mut A,
    records: &[R],
    pipeline: bool,
) -> Result<LogicalRun, DsmError> {
    let geom = array.geometry();
    let per = LogicalRun::stripe_records(geom.d, geom.b) as usize;
    let mut start = None;
    let mut len = 0u64;
    let mut ticket: Option<WriteTicket> = None;
    for chunk in records.chunks(per) {
        let s = alloc_stripe(array)?;
        if start.is_none() {
            start = Some(s);
        }
        write_behind(array, &mut ticket, s, chunk, pipeline)?;
        len += 1;
    }
    if let Some(t) = ticket.take() {
        array.complete_write(t)?;
    }
    let start_stripe = start.ok_or_else(|| DsmError::Config("cannot write an empty run".into()))?;
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
        next_stripe: u64,
        /// In-flight read of stripe `next_stripe` (kept only with
        /// `pipeline`).
        pending: Option<ReadTicket<R>>,
    }
    // Submit the read of `cur`'s next stripe, if the run has one.
    let submit_next = |array: &mut A, run: &LogicalRun, cur: &mut Cursor<R>| {
        if cur.next_stripe < run.len_stripes {
            let n = run.records_in_stripe(cur.next_stripe, geom.d, geom.b);
            cur.pending = Some(submit_stripe_read(array, run.start_stripe + cur.next_stripe, n)?);
        }
        Ok::<(), PdiskError>(())
    };
    let mut cursors: Vec<Cursor<R>> = Vec::with_capacity(group.len());
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (i, run) in group.iter().enumerate() {
        let n = run.records_in_stripe(0, geom.d, geom.b);
        let buf = read_stripe(array, run.start_stripe, n)?;
        heap.push(Reverse((buf[0].key(), i)));
        let mut cur = Cursor {
            buf,
            pos: 0,
            next_stripe: 1,
            pending: None,
        };
        if pipeline {
            submit_next(array, run, &mut cur)?;
        }
        cursors.push(cur);
    }
    let total: u64 = group.iter().map(|r| r.records).sum();
    let mut out: Vec<R> = Vec::with_capacity(per);
    let mut out_run: Option<LogicalRun> = None;
    let mut out_ticket: Option<WriteTicket> = None;
    let flush = |array: &mut A,
                 out: &mut Vec<R>,
                 run: &mut Option<LogicalRun>,
                 ticket: &mut Option<WriteTicket>|
     -> Result<(), DsmError> {
        let s = alloc_stripe(array)?;
        write_behind(array, ticket, s, out, pipeline)?;
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
            flush(array, &mut out, &mut out_run, &mut out_ticket)?;
        }
        if cur.pos == cur.buf.len() {
            // Refill from the run's next stripe, if any.
            let run = &group[i];
            if cur.pending.is_none() {
                submit_next(array, run, cur)?;
            }
            if let Some(ticket) = cur.pending.take() {
                cur.buf = complete_stripe_read(array, ticket)?;
                cur.pos = 0;
                cur.next_stripe += 1;
                if pipeline {
                    submit_next(array, run, cur)?;
                }
            } else {
                cur.buf = Vec::new();
            }
        }
        if !cur.buf.is_empty() {
            heap.push(Reverse((cur.buf[cur.pos].key(), i)));
        }
    }
    if !out.is_empty() {
        flush(array, &mut out, &mut out_run, &mut out_ticket)?;
    }
    if let Some(t) = out_ticket.take() {
        array.complete_write(t)?;
    }
    let out_run =
        out_run.ok_or_else(|| DsmError::Config("merge produced no output stripes".into()))?;
    debug_assert_eq!(out_run.records, total);
    Ok(out_run)
}

/// Stage unsorted records as a logical-striped input file for
/// [`DsmSorter::sort`].
pub fn write_unsorted_stripes<R: Record, A: DiskArray<R>>(
    array: &mut A,
    records: &[R],
) -> Result<LogicalRun, DsmError> {
    if records.is_empty() {
        return Err(DsmError::Config("empty input".into()));
    }
    write_run(array, records, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::read_logical_run;
    use pdisk::{Geometry, MemDiskArray, U64Record};
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
    fn interrupt_checkpoints_then_resume_completes_identically() {
        let dir = std::env::temp_dir().join(format!("dsm-interrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("manifest");
        let _ = std::fs::remove_file(&manifest);

        let mut rng = SmallRng::seed_from_u64(77);
        let geom = Geometry::new(2, 4, 96).unwrap();
        let keys = random_keys(&mut rng, 3000);
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_stripes(&mut a, &recs).unwrap();

        let flag = pdisk::InterruptFlag::new();
        flag.trigger();
        let interrupted = DsmSorter::default()
            .with_interrupt(flag)
            .sort_checkpointed(&mut a, &input, &manifest);
        assert!(matches!(interrupted, Err(DsmError::Interrupted)));
        assert!(manifest.exists(), "checkpoint must be durable before Interrupted");

        let (sorted, _) = DsmSorter::default()
            .sort_checkpointed(&mut a, &input, &manifest)
            .unwrap();
        let got: Vec<u64> = read_logical_run(&mut a, &sorted)
            .unwrap()
            .iter()
            .map(|r| r.0)
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert!(!manifest.exists());
        let _ = std::fs::remove_dir_all(&dir);
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
