//! The SRM merging procedure (§5): record-level engine.
//!
//! Merges `R` cyclically striped, forecast-formatted runs into one output
//! run, driving the I/O schedule of [`crate::scheduler`] and the internal
//! loser-tree merge concurrently (in the counting model, "concurrently"
//! means reads are initiated at every legal opportunity — the earliest
//! possible time, which is what the dedicated `M_D` buffers exist for —
//! and the merge consumes records whenever no read can be initiated).
//!
//! # One engine, two windows
//!
//! Every scheduled read is *submitted* (planned, flushed for, charged and
//! traced) at the record position §5.5 initiates it, and *completed* —
//! its blocks admitted to `M_D`/`M_R` or a leading buffer — at a point
//! the [`Overlap`] window chooses.  At [`Overlap::None`] that point is
//! the submit itself: the blocking schedule, which is the reference the
//! equivalence suites compare against.  At [`Overlap::Pipelined`] the
//! loser tree keeps consuming resident buffers while the read is in
//! flight and completes it at the first point its blocks are needed or
//! can be admitted.  The operation sequence is the same in both — only
//! where the waiting happens differs.
//!
//! # Degraded mode
//!
//! The merge is deliberately oblivious to disk death.  When the array is a
//! [`pdisk::ParityDiskArray`] with a dead disk, the forecast-driven
//! schedule below is **unchanged**: the merge still asks for the dead
//! disk's next-needed block in the same parallel operation it always
//! would, and the parity layer serves it by reconstruction (one extra
//! parallel read of the surviving disks, counted as
//! `IoStats::reconstructed_reads`, never as a schedule read).  Because the
//! schedule — and therefore the sequence of records consumed and emitted —
//! is byte-identical to the failure-free execution, losing a disk mid-sort
//! changes *cost*, never *output*.

use crate::error::{Result, SrmError};
use crate::key::{BlockKey, RunId};
use crate::loser_tree::LoserTree;
use crate::output::RunWriter;
use crate::scheduler::{PlannedRead, ScheduleStats, Scheduler};
use pdisk::block::NO_BLOCK;
use pdisk::trace::{TraceBlock, TraceEvent, TraceFlush, TraceRunMeta, TraceSink, TraceTarget};
use pdisk::{
    Block, BlockAddr, BufferPool, DiskArray, DiskId, Forecast, Geometry, ReadTicket, Record,
    StripedRun,
};
use std::collections::{HashMap, VecDeque};

/// Statistics for one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Scheduling counters (reads, flushes).
    pub schedule: ScheduleStats,
    /// Parallel write operations issued for the output run.
    pub write_ops: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Number of input runs merged.
    pub runs_merged: usize,
}

/// Result of a merge: the output run plus its I/O accounting.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// Layout of the merged output run (forecast-formatted, striped).
    pub run: StripedRun,
    /// I/O accounting for this merge.
    pub stats: MergeStats,
}

struct RunState<'a, R: Record> {
    handle: &'a StripedRun,
    /// Records of the current leading block.
    leading: Vec<R>,
    cursor: usize,
    /// Index of the block that is (or, if `awaiting`, will be) leading.
    cur_idx: u64,
    awaiting: bool,
    exhausted: bool,
}

/// How far I/O may run ahead of the record stream — the engine's window.
///
/// Both settings run the same code and issue the same operations in the
/// same order; the window only decides how long a submitted ticket may
/// stay outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Overlap {
    /// The degenerate window: every ticket is completed where it was
    /// submitted, nothing is carried across a loop iteration, and no
    /// read-ahead hint is sent.
    #[default]
    None,
    /// A submitted read completes when its blocks are needed or fit
    /// (`P_need` / `P_s`), writes retire [`pdisk::WRITE_BEHIND_LIMIT`]
    /// stripes behind, and each read submission hints the backend about
    /// the next `read_ahead` forecast-predicted blocks per disk
    /// ([`DiskArray::prefetch`]; 0 = no hints).
    Pipelined {
        /// Forecast-driven prefetch depth per disk.
        read_ahead: usize,
    },
}

impl Overlap {
    /// The window the public `pipeline` / `read_ahead` settings describe;
    /// a read-ahead depth without `pipeline` has nothing to run ahead of.
    pub(crate) fn new(pipeline: bool, read_ahead: usize) -> Self {
        if pipeline {
            Overlap::Pipelined { read_ahead }
        } else {
            Overlap::None
        }
    }

    pub(crate) fn pipelined(self) -> bool {
        self != Overlap::None
    }
}

/// The one parallel read between `submit_read` and `complete_read`.
struct InFlightRead<R: Record> {
    ticket: ReadTicket<R>,
    /// The planned fetch set, in ticket (= address) order.
    targets: Vec<(DiskId, BlockKey)>,
    /// Rule-2c flushes performed at submit time, replayed into the
    /// completion-time [`TraceEvent::SchedRead`] annotation.
    flushed: Vec<TraceFlush>,
    /// Targets whose run is not (yet) awaiting them — the blocks that
    /// will land in `M_D`/`M_R` rather than go straight to leading.
    /// Completion gate `P_s` compares `fset_len + pending` to `|M_R|`.
    pending: usize,
}

/// Merge `runs` into a single run starting on `out_start_disk`, with the
/// blocking schedule (every parallel I/O waited for where it is issued).
/// [`crate::SrmSorter::with_pipeline`] runs the same engine with I/O
/// overlapped; the output run, [`pdisk::IoStats`] and operation sequence
/// are identical either way.
///
/// The scheduler's memory partition is sized for `R = runs.len()`:
/// `R` leading buffers (`M_L`), [`Geometry::fetch_pool`] buffers in `M_R`
/// (`R + D` at every order up to SRM's), `D` in `M_D`, and `2D` of write
/// buffer inside the [`RunWriter`] — `2R + 4D` blocks total at SRM's
/// orders, matching §5.1.
///
/// # Examples
///
/// ```
/// use pdisk::{DiskId, Geometry, MemDiskArray, U64Record};
/// use srm_core::{merge_runs, read_run, RunWriter};
///
/// let geom = Geometry::new(2, 4, 1000)?;
/// let mut disks: MemDiskArray<U64Record> = MemDiskArray::new(geom);
///
/// // Two forecast-formatted striped runs…
/// let mut handles = Vec::new();
/// for (start, keys) in [(0u32, [1u64, 3, 5, 7]), (1, [2, 4, 6, 8])] {
///     let mut w = RunWriter::new(geom, DiskId(start));
///     for k in keys { w.push(&mut disks, U64Record(k))?; }
///     handles.push(w.finish(&mut disks)?);
/// }
///
/// // …merged with forecast-and-flush into one sorted run.
/// let out = merge_runs(&mut disks, &handles, DiskId(0))?;
/// let merged = read_run(&mut disks, &out.run)?;
/// assert_eq!(merged.iter().map(|r| r.0).collect::<Vec<_>>(),
///            vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// # Ok::<(), srm_core::SrmError>(())
/// ```
pub fn merge_runs<R: Record, A: DiskArray<R>>(
    array: &mut A,
    runs: &[StripedRun],
    out_start_disk: DiskId,
) -> Result<MergeOutcome> {
    merge_runs_overlapped(array, runs, out_start_disk, Overlap::None, false).map(|(out, _)| out)
}

/// [`merge_runs`] under the given window; with `keep`, the output run's
/// records too ([`RunWriter::keeping`]).
pub(crate) fn merge_runs_overlapped<R: Record, A: DiskArray<R>>(
    array: &mut A,
    runs: &[StripedRun],
    out_start_disk: DiskId,
    overlap: Overlap,
    keep: bool,
) -> Result<(MergeOutcome, Option<Vec<R>>)> {
    let geom = array.geometry();
    if runs.is_empty() {
        return Err(SrmError::Config("merge of zero runs".into()));
    }
    for (i, r) in runs.iter().enumerate() {
        if r.records == 0 || r.len_blocks == 0 {
            return Err(SrmError::Config(format!("run {i} is empty")));
        }
        if r.base_offsets.len() != geom.d {
            return Err(SrmError::Config(format!(
                "run {i} laid out for {} disks, array has {}",
                r.base_offsets.len(),
                geom.d
            )));
        }
    }
    let trace = array.trace_sink().cloned();
    if let Some(sink) = &trace {
        sink.emit(TraceEvent::MergeBegin {
            r: runs.len(),
            geom,
            runs: runs
                .iter()
                .map(|h| TraceRunMeta {
                    start_disk: h.start_disk,
                    len_blocks: h.len_blocks,
                    base_offsets: h.base_offsets.clone(),
                })
                .collect(),
        });
    }
    let mut merger = Merger {
        geom,
        runs: runs
            .iter()
            .map(|h| RunState {
                handle: h,
                leading: Vec::new(),
                cursor: 0,
                cur_idx: 0,
                awaiting: false,
                exhausted: false,
            })
            .collect(),
        sched: Scheduler::new(runs.len(), geom.d, geom.fetch_pool(runs.len())),
        tree: LoserTree::new(vec![u64::MAX; runs.len()]),
        buffers: HashMap::new(),
        writer: RunWriter::new(geom, out_start_disk)
            .write_behind(overlap.pipelined())
            .keeping(keep.then(|| runs.iter().map(|r| r.records).sum())),
        in_flight: None,
        overlap,
        pool: array.buffer_pool().cloned(),
        trace,
    };
    merger.initial_load(array)?;
    merger.run_to_completion(array)
}

struct Merger<'a, R: Record> {
    geom: Geometry,
    runs: Vec<RunState<'a, R>>,
    sched: Scheduler,
    tree: LoserTree,
    /// Contents of blocks in `M_R ∪ M_D`, keyed by `(run, block idx)`.
    buffers: HashMap<(RunId, u64), (u64, Vec<R>)>,
    writer: RunWriter<R>,
    /// The one read in flight.  At [`Overlap::None`] it never survives
    /// the loop iteration after its submit.
    in_flight: Option<InFlightRead<R>>,
    /// The window: when an in-flight read is completed, and how many
    /// forecast-predicted blocks per disk each submit hints.
    overlap: Overlap,
    /// Recycling pool shared with the backend, if the stack has one.
    pool: Option<BufferPool<R>>,
    /// Annotation sink, cloned from the array's installed trace (if any).
    trace: Option<TraceSink>,
}

impl<R: Record> Merger<'_, R> {
    fn addr_of(&self, key: &BlockKey) -> BlockAddr {
        self.runs[key.run as usize].handle.addr_of(key.idx)
    }

    /// §5.5 step 1: load block 0 of every run into `M_L` with parallel
    /// reads, seeding the forecasting table from the implanted key tables.
    fn initial_load<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        let d = self.geom.d;
        let mut per_disk: Vec<VecDeque<RunId>> = vec![VecDeque::new(); d];
        for (j, st) in self.runs.iter().enumerate() {
            per_disk[st.handle.disk_of(0).index()].push_back(j as RunId);
        }
        loop {
            let mut batch: Vec<(RunId, BlockAddr)> = Vec::with_capacity(d);
            for q in per_disk.iter_mut() {
                if let Some(j) = q.pop_front() {
                    batch.push((j, self.runs[j as usize].handle.addr_of(0)));
                }
            }
            if batch.is_empty() {
                break;
            }
            let addrs: Vec<BlockAddr> = batch.iter().map(|&(_, a)| a).collect();
            let blocks = array.read(&addrs)?;
            self.sched.charge_initial_read(blocks.len());
            if let Some(sink) = &self.trace {
                sink.emit(TraceEvent::InitLoad {
                    blocks: batch.iter().map(|&(j, a)| (j, a.disk)).collect(),
                });
            }
            for ((j, _), block) in batch.into_iter().zip(blocks) {
                let st = &mut self.runs[j as usize];
                // The block is owned: take the implanted table instead of
                // cloning it.
                let keys = match block.forecast {
                    Forecast::Initial(keys) => keys,
                    f => {
                        return Err(SrmError::Internal(format!(
                            "run {j} block 0 carries {f:?}, expected Initial table"
                        )))
                    }
                };
                for (m, &k) in keys.iter().enumerate() {
                    let idx = m as u64 + 1;
                    if k != NO_BLOCK && idx < st.handle.len_blocks {
                        let disk = st.handle.disk_of(idx);
                        self.sched
                            .fds_mut()
                            .set(disk, j, Some(BlockKey::new(k, j, idx)));
                        if let Some(sink) = &self.trace {
                            sink.emit(TraceEvent::InitImplant { run: j, idx, key: k, disk });
                        }
                    }
                }
                st.leading = block.records;
                st.cursor = 0;
                st.cur_idx = 0;
                let first = st.leading.first().map(|r| r.key()).unwrap_or(u64::MAX);
                self.tree.update(j as usize, first);
            }
        }
        Ok(())
    }

    /// Trace annotations for the rule-2c flush victims of a planned read.
    fn trace_flushes(&self, flushed: &[BlockKey]) -> Vec<TraceFlush> {
        flushed
            .iter()
            .map(|k| TraceFlush {
                run: k.run,
                idx: k.idx,
                key: k.key,
                disk: self.runs[k.run as usize].handle.disk_of(k.idx),
            })
            .collect()
    }

    /// Drop the flush victims' buffers (their contents are still on disk),
    /// recycling the record vectors when the stack has a pool.
    fn drop_flushed(&mut self, flushed: &[BlockKey]) {
        for key in flushed {
            let dropped = self.buffers.remove(&(key.run, key.idx));
            debug_assert!(dropped.is_some(), "flushed block {key:?} had no buffer");
            if let (Some(pool), Some((_, recs))) = (&self.pool, dropped) {
                pool.put_records(recs);
            }
        }
    }

    /// One block's arrival: implant its forecast key, hand it to the
    /// awaiting run's leading buffer or park it in `M_D`, and record the
    /// trace row.
    fn arrive_block(
        &mut self,
        disk: DiskId,
        key: BlockKey,
        block: Block<R>,
        traced: &mut Vec<TraceBlock>,
    ) -> Result<()> {
        debug_assert_eq!(
            block.records.first().map(|r| r.key()),
            Some(key.key),
            "forecast key disagrees with block contents"
        );
        let next_idx = key.idx + self.geom.d as u64;
        let implant = match &block.forecast {
            Forecast::Next(k)
                if *k != NO_BLOCK && next_idx < self.runs[key.run as usize].handle.len_blocks =>
            {
                Some(BlockKey::new(*k, key.run, next_idx))
            }
            Forecast::Next(_) => None,
            f => {
                return Err(SrmError::Internal(format!(
                    "non-initial block {key:?} carries {f:?}"
                )))
            }
        };
        let st = &mut self.runs[key.run as usize];
        let to_leading = st.awaiting && st.cur_idx == key.idx;
        traced.push(TraceBlock {
            run: key.run,
            idx: key.idx,
            key: key.key,
            disk,
            implant: implant.as_ref().map(|b| b.key),
            to_leading,
        });
        self.sched.arrive(key, disk, implant, to_leading);
        if to_leading {
            st.leading = block.records;
            st.cursor = 0;
            st.awaiting = false;
            let first = st.leading[0].key();
            self.tree.update(key.run as usize, first);
        } else {
            self.buffers.insert((key.run, key.idx), (key.key, block.records));
        }
        Ok(())
    }

    /// Step 1 of a scheduled read: plan it (rules 2a–2c), drop the flush
    /// victims, *submit* it and return without waiting.  The operation is
    /// charged and traced here, so the logical I/O sequence does not
    /// depend on when [`Self::complete_read`] runs.
    fn submit_read<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        debug_assert!(self.in_flight.is_none(), "one read in flight at a time");
        let runs = &self.runs;
        let plan: PlannedRead = self.sched.plan_read(|k: &BlockKey| {
            runs[k.run as usize].handle.disk_of(k.idx)
        });
        let flushed = self.trace_flushes(&plan.flushed);
        self.drop_flushed(&plan.flushed);
        let addrs: Vec<BlockAddr> = plan.targets.iter().map(|(_, k)| self.addr_of(k)).collect();
        let ticket = array.submit_read(&addrs)?;
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::ReadSubmit {
                targets: plan
                    .targets
                    .iter()
                    .map(|&(disk, k)| TraceTarget {
                        run: k.run,
                        idx: k.idx,
                        key: k.key,
                        disk,
                    })
                    .collect(),
                flushed: flushed.clone(),
            });
        }
        // Targets already awaited go straight to a leading buffer on
        // arrival; the rest will occupy `M_D`/`M_R` and therefore gate
        // completion via `P_s`.  `advance_run` decrements this count when
        // a run starts awaiting one of the in-flight targets.
        let pending = plan
            .targets
            .iter()
            .filter(|(_, k)| {
                let st = &self.runs[k.run as usize];
                !(st.awaiting && st.cur_idx == k.idx)
            })
            .count();
        self.in_flight = Some(InFlightRead {
            ticket,
            targets: plan.targets,
            flushed,
            pending,
        });
        if let Overlap::Pipelined { read_ahead } = self.overlap {
            self.hint_read_ahead(array, read_ahead);
        }
        Ok(())
    }

    /// Hint the backend about the next `read_ahead` forecast-predicted
    /// blocks per disk (ranks 2.. of each FDS column — rank 1 is in the
    /// flight just submitted), round-robin by rank across disks so one
    /// deep column cannot starve the others.
    ///
    /// Depth is capped by Definition-3 occupancy accounting: the
    /// backend's speculative cache holds at most `K` raw block images
    /// per disk, and `K` is clamped to `|M_R| / D` (at least 1) so the
    /// cache never exceeds the `M_R` budget — a second, physical-layer
    /// copy of the fetch-set allowance, never more.  (The cache is *not*
    /// scheduler memory: admission's `|F_t| ≤ |M_R|` bound still
    /// governs what the merge holds decoded, and every
    /// hinted block is one the schedule will demand-read — the forecast
    /// is exact — so no admission decision is ever preempted.)  Pure
    /// hint — uncharged, untraced, semantics-free — so the op sequence
    /// is untouched at any depth.
    fn hint_read_ahead<A: DiskArray<R>>(&mut self, array: &mut A, read_ahead: usize) {
        let d = self.geom.d;
        let k_cap = self.geom.fetch_pool(self.runs.len()) / d;
        let depth = read_ahead.min(k_cap.max(1));
        let budget = depth * d;
        if budget == 0 {
            return;
        }
        let per_disk: Vec<Vec<BlockAddr>> = (0..d)
            .map(|i| {
                self.sched
                    .fds()
                    .upcoming(DiskId::from_index(i), depth)
                    .map(|k| self.addr_of(&k))
                    .collect()
            })
            .collect();
        let mut addrs: Vec<BlockAddr> = Vec::with_capacity(budget);
        'fill: for rank in 0..depth {
            for column in &per_disk {
                if let Some(&a) = column.get(rank) {
                    addrs.push(a);
                    if addrs.len() == budget {
                        break 'fill;
                    }
                }
            }
        }
        if !addrs.is_empty() {
            array.prefetch(&addrs);
        }
    }

    /// Step 2 of a scheduled read: wait for the in-flight ticket and
    /// apply its arrivals in ticket (= address) order.
    fn complete_read<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        let fl = self
            .in_flight
            .take()
            .ok_or_else(|| SrmError::Internal("completing a read with none in flight".into()))?;
        let blocks = array.complete_read(fl.ticket)?;
        let mut traced: Vec<TraceBlock> = Vec::with_capacity(fl.targets.len());
        for ((disk, key), block) in fl.targets.into_iter().zip(blocks) {
            self.arrive_block(disk, key, block, &mut traced)?;
        }
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::SchedRead {
                targets: traced,
                flushed: fl.flushed,
                fset_len: self.sched.fset_len(),
                staged_len: self.sched.staged_len(),
            });
        }
        Ok(())
    }

    /// The leading block of `run` has been fully consumed: hand the `M_L`
    /// buffer over to the run's next block (exchange rules 1–2 of §5.2),
    /// or mark the run exhausted / awaiting I/O.
    fn advance_run(&mut self, run: usize) -> Result<()> {
        let st = &mut self.runs[run];
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::Deplete {
                run: run as RunId,
                idx: st.cur_idx,
            });
        }
        st.cur_idx += 1;
        let depleted = std::mem::take(&mut st.leading);
        if let Some(pool) = &self.pool {
            pool.put_records(depleted);
        }
        st.cursor = 0;
        if st.cur_idx >= st.handle.len_blocks {
            st.exhausted = true;
            self.tree.update(run, u64::MAX);
            return Ok(());
        }
        if let Some((min_key, recs)) = self.buffers.remove(&(run as RunId, st.cur_idx)) {
            let promoted = self
                .sched
                .promote_to_leading(BlockKey::new(min_key, run as RunId, st.cur_idx));
            if !promoted {
                return Err(SrmError::Internal(format!(
                    "buffered block (run {run}, idx {}) unknown to scheduler",
                    st.cur_idx
                )));
            }
            if let Some(sink) = &self.trace {
                sink.emit(TraceEvent::Promote {
                    run: run as RunId,
                    idx: st.cur_idx,
                });
            }
            st.leading = recs;
            let first = st.leading[0].key();
            self.tree.update(run, first);
        } else {
            // On disk: merge past this point is gated by the block's min
            // key, which is exactly the forecasting entry for its disk.
            let disk = st.handle.disk_of(st.cur_idx);
            let entry = self
                .sched
                .fds()
                .entry(disk, run as RunId)
                .ok_or_else(|| {
                    SrmError::Internal(format!(
                        "run {run} awaits block {} but FDS has no entry on {disk}",
                        st.cur_idx
                    ))
                })?;
            if entry.idx != st.cur_idx {
                return Err(SrmError::Internal(format!(
                    "FDS entry for run {run} on {disk} is block {}, expected {}",
                    entry.idx, st.cur_idx
                )));
            }
            st.awaiting = true;
            self.tree.update(run, entry.key);
            // If the awaited block is already in flight, it
            // will now arrive straight to leading instead of occupying
            // `M_D`/`M_R`, so it stops counting against the `P_s` gate.
            if let Some(fl) = &mut self.in_flight {
                let cur_idx = self.runs[run].cur_idx;
                if fl
                    .targets
                    .iter()
                    .any(|&(_, k)| k.run as usize == run && k.idx == cur_idx)
                {
                    debug_assert!(fl.pending > 0, "pending underflow");
                    fl.pending -= 1;
                }
            }
        }
        Ok(())
    }

    /// Run the merge to completion, quiescing in-flight tickets if the
    /// main loop errors.
    fn run_to_completion<A: DiskArray<R>>(mut self, array: &mut A) -> Result<(MergeOutcome, Option<Vec<R>>)> {
        if let Err(e) = self.main_loop(array) {
            // Quiesce before unwinding: abandon split-phase tickets
            // without touching the (possibly crashed) array.  The ops
            // were already charged and traced at submit; an abandoned
            // write's durability gap (`Write` with no `WriteDurable`)
            // is exactly what the recovery invariant checks, and resume
            // rewrites those frames from the last durable checkpoint.
            self.quiesce();
            return Err(e);
        }
        // Every submitted read's targets are blocks the merge still
        // needs, so their runs cannot all be exhausted while one is in
        // flight.
        debug_assert!(self.in_flight.is_none(), "read in flight at merge end");
        if self.in_flight.is_some() {
            return Err(SrmError::Internal(
                "read still in flight at merge end".into(),
            ));
        }
        self.finish_merge(array)
    }

    /// Drop any in-flight split-phase tickets without completing them.
    ///
    /// Called only on error paths: completion would have to go through
    /// the failed (or crash-poisoned) array, so the tickets are
    /// abandoned instead.  File-backed workers still drain their queues
    /// in order, so a later [`pdisk::DiskArray::sync`] — or reopen-time
    /// torn-frame detection — settles what actually landed.
    fn quiesce(&mut self) {
        self.in_flight = None;
        self.writer.abandon_ticket();
    }

    /// The main loop of §5.5: a read is *submitted* whenever the schedule
    /// allows one (`M_D` free after draining), records are merged when it
    /// does not, and the in-flight read is *completed* at the first point
    /// where any of these holds:
    ///
    /// * the window is [`Overlap::None`] — complete where submitted (the
    ///   blocking schedule);
    /// * `P_need` — the loser tree's winner awaits a block, so merging
    ///   cannot proceed without the in-flight arrival (by Lemma 1 the
    ///   awaited block is always among the flight's targets, so this
    ///   never wedges — the stuck branch below is the runtime witness);
    /// * `P_s` — enough buffers have drained that every in-flight
    ///   block headed for `M_D`/`M_R` now fits: `fset_len + pending ≤
    ///   |M_R|`.  This is exactly the blocking schedule's "staging empty
    ///   after drain" read condition, so the *next* read is planned at
    ///   the identical record position with the identical `F_t`,
    ///   keeping the op sequence — flush decisions included —
    ///   byte-identical at every window.  (Completing any later
    ///   would let extra promotions shift `OutRank` and change rule
    ///   2a–2c outcomes.)
    ///
    /// Between submit and completion the loop keeps merging records from
    /// resident leading buffers — that interval is the read-ahead
    /// overlap: loser-tree work, record copies, and output-block encodes
    /// proceed while the disks serve the flight.
    ///
    /// Returns once every run is exhausted; split from
    /// [`Self::run_to_completion`] so the caller can quiesce in-flight
    /// tickets when this errors.
    fn main_loop<A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        let cap = self.geom.fetch_pool(self.runs.len());
        loop {
            self.sched.drain();
            if let Some(fl) = &self.in_flight {
                let p_s = self.sched.fset_len() + fl.pending <= cap;
                let p_need = !self.tree.all_exhausted() && {
                    let (run, _) = self.tree.peek();
                    self.runs[run].awaiting
                };
                if self.overlap == Overlap::None || p_need || p_s {
                    self.complete_read(array)?;
                    continue;
                }
            } else if self.sched.can_attempt_read() {
                self.submit_read(array)?;
                continue;
            }
            if self.tree.all_exhausted() {
                return Ok(());
            }
            let (run, key) = self.tree.peek();
            if self.runs[run].awaiting {
                // Lemma 1 guarantees the schedule never wedges like this.
                return Err(SrmError::Internal(format!(
                    "merge stuck: run {run} awaits block {} (key {key}) \
                     with no read in flight",
                    self.runs[run].cur_idx
                )));
            }
            // Emit winners until the next scheduling event.  Everything
            // tested above moves only in `advance_run` or on an arrival,
            // so between two of them a record needs just the per-record
            // questions: is the winner's run awaiting, is the merge done,
            // did its leading block run dry.
            loop {
                let (run, key) = self.tree.peek();
                let st = &mut self.runs[run];
                if st.awaiting || self.tree.all_exhausted() {
                    break;
                }
                let rec = st.leading[st.cursor];
                st.cursor += 1;
                debug_assert_eq!(rec.key(), key, "tree winner key mismatch");
                self.writer.push(array, rec)?;
                if st.cursor == st.leading.len() {
                    self.advance_run(run)?;
                    break;
                }
                let next_key = st.leading[st.cursor].key();
                self.tree.update(run, next_key);
            }
        }
    }

    fn finish_merge<A: DiskArray<R>>(self, array: &mut A) -> Result<(MergeOutcome, Option<Vec<R>>)> {
        debug_assert!(self.buffers.is_empty(), "leftover buffered blocks");
        debug_assert!(self.sched.fds().is_empty(), "unread blocks at completion");
        self.sched.assert_capacities();
        let records_out = self.writer.records();
        let runs_merged = self.runs.len();
        let schedule = self.sched.stats();
        let (run, kept) = self.writer.finish_kept(array)?;
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::MergeEnd);
        }
        let stats = MergeStats {
            schedule,
            write_ops: run.len_blocks.div_ceil(self.geom.d as u64),
            records_out,
            runs_merged,
        };
        Ok((MergeOutcome { stats, run }, kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{read_run, RunWriter};
    use pdisk::{Geometry, MemDiskArray, U64Record};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Write `keys` (must be sorted) as a forecast-formatted run.
    fn put_run(
        array: &mut MemDiskArray<U64Record>,
        geom: Geometry,
        start: u32,
        keys: &[u64],
    ) -> StripedRun {
        let mut w = RunWriter::new(geom, DiskId(start));
        for &k in keys {
            w.push(array, U64Record(k)).unwrap();
        }
        w.finish(array).unwrap()
    }

    fn random_sorted_runs(
        rng: &mut SmallRng,
        n_runs: usize,
        len_range: std::ops::Range<usize>,
    ) -> Vec<Vec<u64>> {
        (0..n_runs)
            .map(|_| {
                let len = rng.random_range(len_range.clone()).max(1);
                let mut v: Vec<u64> = (0..len).map(|_| rng.random_range(0..1_000_000)).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    fn check_merge(geom: Geometry, run_keys: &[Vec<u64>], seed_starts: &[u32]) -> MergeOutcome {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let handles: Vec<StripedRun> = run_keys
            .iter()
            .zip(seed_starts)
            .map(|(keys, &s)| put_run(&mut a, geom, s, keys))
            .collect();
        a.reset_stats();
        let out = merge_runs(&mut a, &handles, DiskId(0)).unwrap();
        let got = read_run(&mut a, &out.run).unwrap();
        let mut expected: Vec<u64> = run_keys.iter().flatten().copied().collect();
        expected.sort_unstable();
        let got_keys: Vec<u64> = got.iter().map(|r| r.0).collect();
        assert_eq!(got_keys, expected);
        assert_eq!(out.stats.records_out as usize, expected.len());
        out
    }

    #[test]
    fn merge_two_tiny_runs() {
        let geom = Geometry::new(2, 2, 1000).unwrap();
        check_merge(geom, &[vec![1, 3, 5], vec![2, 4, 6, 8]], &[0, 1]);
    }

    #[test]
    fn merge_single_run_copies() {
        let geom = Geometry::new(3, 4, 1000).unwrap();
        check_merge(geom, &[vec![5, 6, 7, 9, 11, 20, 21]], &[2]);
    }

    #[test]
    fn merge_runs_with_duplicate_keys() {
        let geom = Geometry::new(2, 3, 1000).unwrap();
        check_merge(
            geom,
            &[vec![1, 1, 1, 2, 2], vec![1, 2, 2, 2], vec![1, 1, 2]],
            &[0, 1, 0],
        );
    }

    #[test]
    fn merge_many_random_shapes() {
        let mut rng = SmallRng::seed_from_u64(77);
        for &(d, b, n_runs) in &[(2usize, 4usize, 3usize), (3, 4, 5), (4, 8, 7), (5, 2, 9)] {
            let geom = Geometry::new(d, b, 1_000_000).unwrap();
            let runs = random_sorted_runs(&mut rng, n_runs, 1..200);
            let starts: Vec<u32> = (0..n_runs).map(|_| rng.random_range(0..d as u32)).collect();
            check_merge(geom, &runs, &starts);
        }
    }

    #[test]
    fn adversarial_same_start_disk_still_correct() {
        // All runs start on disk 0: worst-case read contention.
        let mut rng = SmallRng::seed_from_u64(5);
        let geom = Geometry::new(4, 4, 1_000_000).unwrap();
        let runs = random_sorted_runs(&mut rng, 8, 40..80);
        let starts = vec![0u32; 8];
        let out = check_merge(geom, &runs, &starts);
        // Identical layout forces read serialization: with every run's
        // frontier on one disk, reads fetch ~1 block each.
        assert!(out.stats.schedule.total_reads() > 0);
    }

    #[test]
    fn interleaved_runs_exercise_flushing() {
        // Runs whose records interleave globally (run j holds keys
        // ≡ j mod n) maximize simultaneous demand; with a small R+D buffer
        // budget the schedule must flush.
        let geom = Geometry::new(2, 2, 1_000_000).unwrap();
        let n_runs = 6;
        let len = 120u64;
        let run_keys: Vec<Vec<u64>> = (0..n_runs)
            .map(|j| (0..len).map(|i| i * n_runs as u64 + j as u64).collect())
            .collect();
        let starts: Vec<u32> = (0..n_runs).map(|j| (j % 2) as u32).collect();
        let out = check_merge(geom, &run_keys, &starts);
        assert!(
            out.stats.schedule.total_reads() >= (len * n_runs as u64 / 2) / 2,
            "reads {}",
            out.stats.schedule.total_reads()
        );
    }

    #[test]
    fn write_parallelism_is_perfect() {
        let mut rng = SmallRng::seed_from_u64(11);
        let geom = Geometry::new(4, 4, 1_000_000).unwrap();
        let runs = random_sorted_runs(&mut rng, 6, 50..100);
        let starts: Vec<u32> = (0..6).map(|_| rng.random_range(0..4)).collect();
        let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
        let out = check_merge(geom, &runs, &starts);
        let blocks = total.div_ceil(4);
        assert_eq!(out.stats.write_ops, blocks.div_ceil(4));
    }

    #[test]
    fn reads_at_least_blocks_over_d_and_at_most_blocks() {
        let mut rng = SmallRng::seed_from_u64(13);
        let geom = Geometry::new(3, 4, 1_000_000).unwrap();
        let runs = random_sorted_runs(&mut rng, 9, 30..120);
        let starts: Vec<u32> = (0..9).map(|_| rng.random_range(0..3)).collect();
        let total_blocks: u64 = runs.iter().map(|r| (r.len() as u64).div_ceil(4)).sum();
        let out = check_merge(geom, &runs, &starts);
        let reads = out.stats.schedule.total_reads();
        assert!(reads >= total_blocks.div_ceil(3), "reads {reads} too few");
        assert!(
            reads <= total_blocks + out.stats.schedule.blocks_flushed,
            "reads {reads} exceed blocks {total_blocks} + reread allowance"
        );
    }

    /// Every window of the one engine: the blocking schedule, then
    /// pipelined at read-ahead 0, 1, 3 and 8.
    const WINDOWS: [Overlap; 5] = [
        Overlap::None,
        Overlap::Pipelined { read_ahead: 0 },
        Overlap::Pipelined { read_ahead: 1 },
        Overlap::Pipelined { read_ahead: 3 },
        Overlap::Pipelined { read_ahead: 8 },
    ];

    /// Merge `run_keys` under every window on identically built arrays:
    /// output, scheduling counters and backend I/O must all equal the
    /// blocking schedule's (read-ahead hints are uncharged, so depth must
    /// be invisible too).
    fn assert_window_invariant(geom: Geometry, run_keys: &[Vec<u64>], starts: &[u32], ctx: &str) {
        let drive = |overlap: Overlap| {
            let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
            let handles: Vec<StripedRun> = run_keys
                .iter()
                .zip(starts)
                .map(|(keys, &s)| put_run(&mut a, geom, s, keys))
                .collect();
            a.reset_stats();
            let (out, kept) = merge_runs_overlapped(&mut a, &handles, DiskId(0), overlap, true).unwrap();
            let io = a.stats();
            let back = read_run(&mut a, &out.run).unwrap();
            assert_eq!(kept.as_deref(), Some(&back[..]), "{ctx} {overlap:?}: the kept copy is the run");
            let keys: Vec<u64> = back.iter().map(|r| r.0).collect();
            (keys, out.stats, io)
        };
        let blocking = drive(WINDOWS[0]);
        for window in &WINDOWS[1..] {
            assert_eq!(drive(*window), blocking, "{ctx} {window:?}");
        }
    }

    #[test]
    fn every_window_matches_the_blocking_schedule() {
        type Shape = (usize, usize, usize); // (d, b, runs)
        let seeded: [(u64, &[Shape]); 2] = [
            (99, &[(2, 4, 3), (3, 4, 5), (4, 8, 7), (5, 2, 9), (1, 4, 4), (4, 4, 12)]),
            (321, &[(2, 4, 3), (4, 8, 7), (3, 2, 6)]),
        ];
        for (seed, shapes) in seeded {
            let mut rng = SmallRng::seed_from_u64(seed);
            for &(d, b, n_runs) in shapes {
                let geom = Geometry::new(d, b, 1_000_000).unwrap();
                let runs = random_sorted_runs(&mut rng, n_runs, 1..200);
                let starts: Vec<u32> =
                    (0..n_runs).map(|_| rng.random_range(0..d as u32)).collect();
                assert_window_invariant(geom, &runs, &starts, &format!("d={d} b={b} runs={n_runs}"));
            }
        }
    }

    /// All-runs-on-one-disk contention plus globally interleaved keys:
    /// the flush-heavy worst cases must also be schedule-identical.
    #[test]
    fn every_window_matches_under_contention() {
        let geom = Geometry::new(2, 2, 1_000_000).unwrap();
        let n_runs = 6;
        let len = 120u64;
        let run_keys: Vec<Vec<u64>> = (0..n_runs)
            .map(|j| (0..len).map(|i| i * n_runs as u64 + j as u64).collect())
            .collect();
        assert_window_invariant(geom, &run_keys, &vec![0u32; n_runs], "contention");
    }

    #[test]
    fn empty_run_list_rejected() {
        let geom = Geometry::new(2, 2, 1000).unwrap();
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        assert!(matches!(
            merge_runs(&mut a, &[], DiskId(0)),
            Err(SrmError::Config(_))
        ));
    }
}
