//! Replay-based checking of [`pdisk::trace`] event streams.
//!
//! [`check_trace`] walks a recorded trace and rebuilds, independently of
//! the engine, every piece of state the model rules quantify over: the
//! forecasting table `FDS`, the fetch set `F` (`M_R`), the staging pool
//! `M_D`, each run's leading-block cursor, and the output run writer's
//! stripe cursor.  Every event is then judged against the paper's rules:
//!
//! * **one block per disk per parallel I/O** (the defining constraint of
//!   the Vitter–Shriver model, §2);
//! * **forecast-minimal fetching** (§4): a scheduled read takes exactly
//!   the smallest pending block of *every* disk that has one;
//! * **flush discipline** (§5.5 rules 2a–2c): flushes happen only under
//!   the exact occupancy arithmetic of rule 2c, evict the
//!   farthest-future blocks, and cost no I/O (they merely restore
//!   forecasting entries);
//! * **buffer budgets** (Definition 3): a merge's partition
//!   `R + |M_R| + 3D + ⌈RD/B⌉` fits `M/B`, with `|M_R|` =
//!   [`Geometry::fetch_pool`] (`R + D` unless memory caps it), and
//!   `|F| ≤ |M_R|`, `|M_D| ≤ D`, checked both against the replay and
//!   against the occupancy the engine recorded for itself;
//! * **write parallelism** (§3): output runs are perfectly `D`-striped
//!   from their random start disk, full-width on every stripe but the
//!   last;
//! * **parity placement** (the redundancy layer): stripe `s`'s parity
//!   lives on disk `s mod D`, never colocated with its data.
//!
//! The replay is *exact*, not approximate: the scheduler replica below
//! mirrors `srm-core`'s data structures operation for operation (same
//! orderings, same drain points), so any divergence between trace and
//! replica is a genuine rule violation or an engine bug — either way a
//! finding.

use std::collections::{BTreeMap, BTreeSet};

use pdisk::trace::{Tagged, TraceBlock, TraceConsumer, TraceEvent, TraceFlush, TraceRunMeta, TraceTarget};
use pdisk::{BlockAddr, DiskId, FaultKind, FaultOp, Geometry, IoStats};

use crate::violation::{BlockRef, Violation, ViolationKind};

/// Counters describing what a clean trace contained — so a "zero
/// violations" verdict can also assert the checker actually saw the
/// activity it was supposed to judge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CheckSummary {
    /// Events replayed.
    pub events: u64,
    /// `PassBegin` boundaries.
    pub passes: u64,
    /// Merges opened and closed.
    pub merges: u64,
    /// Scheduled parallel reads verified.
    pub sched_reads: u64,
    /// Split-phase read submissions verified (each is later matched by
    /// its completing `SchedRead`).
    pub read_submits: u64,
    /// Blocks virtually flushed by rule 2c.
    pub flushed_blocks: u64,
    /// Leading-block depletions.
    pub depletes: u64,
    /// Buffer-to-leading promotions.
    pub promotes: u64,
    /// Output runs written.
    pub runs_written: u64,
    /// Logical parallel reads.
    pub reads: u64,
    /// Logical parallel writes.
    pub writes: u64,
    /// Durable write completions (`WriteDurable` events).
    pub durable_writes: u64,
    /// Parity commits checked for placement.
    pub parity_commits: u64,
    /// Degraded-mode reconstructions checked.
    pub reconstructs: u64,
    /// Injected faults observed.
    pub faults: u64,
    /// Retry re-issues observed.
    pub retries: u64,
}

/// One block per disk per parallel operation, disks in range.
fn check_op_disks<I>(op: &'static str, disks: I, d: usize) -> Result<(), ViolationKind>
where
    I: IntoIterator<Item = DiskId>,
{
    let mut seen = vec![false; d];
    for disk in disks {
        if disk.index() >= d {
            return Err(ViolationKind::DiskOutOfRange { op, disk, d });
        }
        if seen[disk.index()] {
            return Err(ViolationKind::DuplicateDiskInOp { op, disk });
        }
        seen[disk.index()] = true;
    }
    Ok(())
}

/// Operation-for-operation replica of `srm-core`'s scheduler state:
/// same fetch-set ordering (`BlockRef` tuples order exactly like
/// `BlockKey`), same end-popping staging drain, same swap-remove
/// promotion — so occupancy comparisons against the engine's own tags
/// are exact at every observable point.
#[derive(Debug)]
pub(crate) struct SchedReplica {
    pub(crate) r: usize,
    pub(crate) d: usize,
    /// Capacity of `M_R`.
    pub(crate) pool: usize,
    /// `F` = `M_R`: the fetch set, ordered by `(key, run, idx)`.
    pub(crate) fset: BTreeSet<BlockRef>,
    /// `M_D`: staged arrivals, drained LIFO into `F`.
    pub(crate) staged: Vec<BlockRef>,
    /// `FDS`: per disk, each run's next unread block on that disk.
    pub(crate) fds: Vec<BTreeMap<u32, BlockRef>>,
}

impl SchedReplica {
    pub(crate) fn new(r: usize, d: usize, pool: usize) -> Self {
        SchedReplica {
            r,
            d,
            pool,
            fset: BTreeSet::new(),
            staged: Vec::new(),
            fds: vec![BTreeMap::new(); d],
        }
    }

    /// Mirror of the engine's loop-top drain: move staged blocks into
    /// `F` while capacity allows, taking from the staging pool's end.
    pub(crate) fn drain(&mut self) {
        while !self.staged.is_empty() && self.fset.len() < self.pool {
            if let Some(b) = self.staged.pop() {
                self.fset.insert(b);
            }
        }
    }

    /// Global forecasting minimum (`s_min` of rule 2b).
    pub(crate) fn frontier_min(&self) -> Option<BlockRef> {
        self.fds.iter().flat_map(|m| m.values()).min().copied()
    }

    /// One disk's forecasting minimum (`min H_i[j]` of §4).
    pub(crate) fn disk_min(&self, disk: usize) -> Option<BlockRef> {
        self.fds[disk].values().min().copied()
    }

    /// Rule 2c's restore: re-arm the flushed block's forecasting entry,
    /// keeping the smaller key if one is already present.
    pub(crate) fn lower_to(&mut self, disk: usize, run: u32, b: BlockRef) {
        let e = self.fds[disk].entry(run).or_insert(b);
        if b < *e {
            *e = b;
        }
    }

    /// Unread blocks still tracked by the forecasting table.
    pub(crate) fn unread(&self) -> usize {
        self.fds.iter().map(BTreeMap::len).sum()
    }

    /// Mirror of `promote_to_leading`: fetch set first, staging second.
    pub(crate) fn remove_buffered(&mut self, run: u32, idx: u64) -> bool {
        if let Some(&b) = self.fset.iter().find(|b| b.1 == run && b.2 == idx) {
            self.fset.remove(&b);
            return true;
        }
        if let Some(pos) = self.staged.iter().position(|b| b.1 == run && b.2 == idx) {
            self.staged.swap_remove(pos);
            return true;
        }
        false
    }
}

/// Per-input-run merge state: the leading-block cursor.
#[derive(Debug)]
struct RunReplica {
    meta: TraceRunMeta,
    cur_idx: u64,
    awaiting: bool,
    exhausted: bool,
}

/// A split-phase read between its `ReadSubmit` and completing
/// `SchedRead` events.  Scheduling legality — flush
/// arithmetic, forecast minimality, fetch-set completeness — was judged
/// at submit, against the state the decision was actually made in; the
/// completion must repeat the same fetch set verbatim and is then only
/// checked for arrival routing and occupancy.
#[derive(Debug)]
struct PendingRead {
    targets: Vec<TraceTarget>,
    flushed: Vec<TraceFlush>,
}

/// State of one in-progress merge.
#[derive(Debug)]
struct MergeReplica {
    sched: SchedReplica,
    runs: Vec<RunReplica>,
    /// A promotion the replay performed that the trace has not yet
    /// acknowledged with a `Promote` event.
    last_promote: Option<(u32, u64)>,
    /// The one split-phase read in flight, if any.
    pending_read: Option<PendingRead>,
}

/// State of one in-progress output run.
#[derive(Debug)]
struct WriterReplica {
    start_disk: DiskId,
    next_idx: u64,
    widths: Vec<usize>,
}

/// Incremental trace checker.  Feed events in order via
/// [`Replay::apply`]; ask for the [`CheckSummary`] when done.
#[derive(Debug)]
pub struct Replay {
    geom: Geometry,
    merge: Option<MergeReplica>,
    writer: Option<WriterReplica>,
    /// Addresses of the most recent logical `Read`, for cross-checking
    /// scheduler targets against what was actually fetched.
    last_read: Option<Vec<BlockAddr>>,
    /// Addresses whose logical `Write` has no matching `WriteDurable`
    /// yet — the window a crash can tear.  Reading one of these is the
    /// recovery-invariant violation: nothing may depend on a frame
    /// whose write never durably completed.
    undurable: BTreeSet<BlockAddr>,
    summary: CheckSummary,
}

impl Replay {
    /// A checker for traces recorded under `geom`.
    pub fn new(geom: Geometry) -> Self {
        Replay {
            geom,
            merge: None,
            writer: None,
            last_read: None,
            undurable: BTreeSet::new(),
            summary: CheckSummary::default(),
        }
    }

    /// The counters accumulated so far.
    pub fn summary(&self) -> &CheckSummary {
        &self.summary
    }

    /// Replay one event, returning the violation it exposes, if any.
    pub fn apply(&mut self, event: &Tagged) -> Result<(), Box<Violation>> {
        self.summary.events += 1;
        self.step(&event.event)
            .map_err(|kind| Box::new(Violation::new(event.seq, event.pass, kind)))
    }

    fn step(&mut self, event: &TraceEvent) -> Result<(), ViolationKind> {
        let d = self.geom.d;
        match event {
            TraceEvent::Read { addrs } => {
                check_op_disks("read", addrs.iter().map(|a| a.disk), d)?;
                self.summary.reads += 1;
                if let Some(addr) = addrs.iter().copied().find(|a| self.undurable.contains(a)) {
                    return Err(ViolationKind::ReadBeforeDurableWrite { addr });
                }
                self.last_read = Some(addrs.clone());
                Ok(())
            }
            TraceEvent::Write { addrs } => {
                check_op_disks("write", addrs.iter().map(|a| a.disk), d)?;
                self.summary.writes += 1;
                self.undurable.extend(addrs.iter().copied());
                self.on_run_write(addrs)
            }
            TraceEvent::WriteDurable { addrs } => {
                check_op_disks("durable write", addrs.iter().map(|a| a.disk), d)?;
                self.summary.durable_writes += 1;
                for a in addrs {
                    self.undurable.remove(a);
                }
                Ok(())
            }
            TraceEvent::PhysRead { addrs } => {
                check_op_disks("phys-read", addrs.iter().map(|a| a.disk), d)
            }
            TraceEvent::PhysWrite { addrs } => {
                check_op_disks("phys-write", addrs.iter().map(|a| a.disk), d)
            }
            TraceEvent::Alloc { disk, .. } => {
                if disk.index() >= d {
                    return Err(ViolationKind::DiskOutOfRange { op: "alloc", disk: *disk, d });
                }
                Ok(())
            }
            TraceEvent::Fault { .. } => {
                self.summary.faults += 1;
                Ok(())
            }
            TraceEvent::Retry { .. } => {
                self.summary.retries += 1;
                Ok(())
            }
            TraceEvent::Reconstruct { disk, stripe, siblings } => {
                self.summary.reconstructs += 1;
                check_op_disks("reconstruction", siblings.iter().map(|a| a.disk), d)?;
                if disk.index() >= d {
                    return Err(ViolationKind::DiskOutOfRange {
                        op: "reconstruction",
                        disk: *disk,
                        d,
                    });
                }
                if siblings.iter().any(|a| a.disk == *disk) {
                    return Err(ViolationKind::ReconstructReadsTarget {
                        stripe: *stripe,
                        disk: *disk,
                    });
                }
                Ok(())
            }
            TraceEvent::ParityCommit { stripe, parity_disk, data_disks } => {
                self.summary.parity_commits += 1;
                check_op_disks("parity commit", data_disks.iter().copied(), d)?;
                if parity_disk.index() >= d {
                    return Err(ViolationKind::DiskOutOfRange {
                        op: "parity commit",
                        disk: *parity_disk,
                        d,
                    });
                }
                let expected = DiskId::from_mod(*stripe, d);
                if *parity_disk != expected {
                    return Err(ViolationKind::ParityPlacementMismatch {
                        stripe: *stripe,
                        got: *parity_disk,
                        expected,
                    });
                }
                if data_disks.contains(parity_disk) {
                    return Err(ViolationKind::ParityOnDataDisk {
                        stripe: *stripe,
                        disk: *parity_disk,
                    });
                }
                Ok(())
            }
            TraceEvent::PassBegin { .. } => {
                self.summary.passes += 1;
                Ok(())
            }
            TraceEvent::MergeBegin { r, geom, runs } => self.on_merge_begin(*r, geom, runs),
            TraceEvent::InitImplant { run, idx, key, disk } => {
                let m = require_merge(&mut self.merge, "InitImplant")?;
                m.init_implant(*run, *idx, *key, *disk)
            }
            TraceEvent::InitLoad { blocks } => {
                let last_read = self.last_read.take();
                let m = require_merge(&mut self.merge, "InitLoad")?;
                check_op_disks("initial load", blocks.iter().map(|&(_, disk)| disk), d)?;
                m.init_load(blocks, last_read.as_deref())
            }
            TraceEvent::ReadSubmit { targets, flushed } => {
                self.summary.read_submits += 1;
                let last_read = self.last_read.take();
                let m = require_merge(&mut self.merge, "ReadSubmit")?;
                m.read_submit(targets, flushed, last_read.as_deref())
            }
            TraceEvent::SchedRead { targets, flushed, fset_len, staged_len } => {
                self.summary.sched_reads += 1;
                self.summary.flushed_blocks += flushed.len() as u64;
                let m = require_merge(&mut self.merge, "SchedRead")?;
                // Legality was judged at the read's `ReadSubmit`; its
                // completion is only checked for the arrivals.
                let Some(submitted) = m.pending_read.take() else {
                    return Err(ViolationKind::UnexpectedEvent {
                        event: "SchedRead",
                        reason: "no ReadSubmit is in flight",
                    });
                };
                m.sched_read_complete(&submitted, targets, flushed, *fset_len, *staged_len)
            }
            TraceEvent::Promote { run, idx } => {
                self.summary.promotes += 1;
                let m = require_merge(&mut self.merge, "Promote")?;
                match m.last_promote.take() {
                    Some((r0, i0)) if r0 == *run && i0 == *idx => Ok(()),
                    _ => Err(ViolationKind::PromoteMismatch { run: *run, idx: *idx }),
                }
            }
            TraceEvent::Deplete { run, idx } => {
                self.summary.depletes += 1;
                let m = require_merge(&mut self.merge, "Deplete")?;
                m.deplete(*run, *idx)
            }
            TraceEvent::MergeEnd => {
                let m = require_merge(&mut self.merge, "MergeEnd")?;
                if let Some((run, idx)) = m.last_promote {
                    return Err(ViolationKind::PromoteMismatch { run, idx });
                }
                if m.pending_read.is_some() {
                    return Err(ViolationKind::UnexpectedEvent {
                        event: "MergeEnd",
                        reason: "a split-phase read is still in flight",
                    });
                }
                if m.runs.iter().any(|st| st.cur_idx < st.meta.len_blocks) {
                    return Err(ViolationKind::UnexpectedEvent {
                        event: "MergeEnd",
                        reason: "a run was never fully depleted",
                    });
                }
                let fset = m.sched.fset.len();
                let staged = m.sched.staged.len();
                let unread = m.sched.unread();
                if fset > 0 || staged > 0 || unread > 0 {
                    return Err(ViolationKind::MergeIncomplete { fset, staged, unread });
                }
                self.merge = None;
                Ok(())
            }
            TraceEvent::RunStart { start_disk } => {
                self.summary.runs_written += 1;
                if self.writer.is_some() {
                    return Err(ViolationKind::UnexpectedEvent {
                        event: "RunStart",
                        reason: "previous output run still open",
                    });
                }
                if start_disk.index() >= d {
                    return Err(ViolationKind::DiskOutOfRange {
                        op: "run start",
                        disk: *start_disk,
                        d,
                    });
                }
                self.writer = Some(WriterReplica {
                    start_disk: *start_disk,
                    next_idx: 0,
                    widths: Vec::new(),
                });
                Ok(())
            }
            TraceEvent::RunEnd { start_disk, len_blocks } => {
                let Some(w) = self.writer.take() else {
                    return Err(ViolationKind::UnexpectedEvent {
                        event: "RunEnd",
                        reason: "no output run in progress",
                    });
                };
                if w.start_disk != *start_disk {
                    return Err(ViolationKind::UnexpectedEvent {
                        event: "RunEnd",
                        reason: "start disk disagrees with RunStart",
                    });
                }
                if w.next_idx != *len_blocks {
                    return Err(ViolationKind::RunLengthMismatch {
                        announced: *len_blocks,
                        written: w.next_idx,
                    });
                }
                if w.widths.len() > 1 {
                    for (stripe, &width) in w.widths[..w.widths.len() - 1].iter().enumerate() {
                        if width != d {
                            return Err(ViolationKind::RunStripeNotFullWidth { stripe, width, d });
                        }
                    }
                }
                Ok(())
            }
            // Future event kinds (the enum is non-exhaustive) are
            // outside this checker's rule set.
            _ => Ok(()),
        }
    }

    /// An output-run write must extend the run's cyclic stripe exactly.
    fn on_run_write(&mut self, addrs: &[BlockAddr]) -> Result<(), ViolationKind> {
        let d = self.geom.d;
        if let Some(w) = &mut self.writer {
            for (j, a) in addrs.iter().enumerate() {
                let idx = w.next_idx + j as u64;
                let expected = DiskId::from_mod(u64::from(w.start_disk.0) + idx, d);
                if a.disk != expected {
                    return Err(ViolationKind::RunWriteNotStriped {
                        idx,
                        got: a.disk,
                        expected,
                    });
                }
            }
            w.widths.push(addrs.len());
            w.next_idx += addrs.len() as u64;
        }
        Ok(())
    }

    fn on_merge_begin(
        &mut self,
        r: usize,
        geom: &Geometry,
        runs: &[TraceRunMeta],
    ) -> Result<(), ViolationKind> {
        self.summary.merges += 1;
        if self.merge.is_some() {
            return Err(ViolationKind::UnexpectedEvent {
                event: "MergeBegin",
                reason: "previous merge still open",
            });
        }
        if runs.len() != r {
            return Err(ViolationKind::UnexpectedEvent {
                event: "MergeBegin",
                reason: "run count disagrees with the merge order R",
            });
        }
        if geom.d != self.geom.d {
            return Err(ViolationKind::UnexpectedEvent {
                event: "MergeBegin",
                reason: "merge geometry disagrees with the checked geometry",
            });
        }
        for meta in runs {
            if meta.base_offsets.len() != self.geom.d || meta.start_disk.index() >= self.geom.d {
                return Err(ViolationKind::UnexpectedEvent {
                    event: "MergeBegin",
                    reason: "run layout disagrees with the geometry",
                });
            }
        }
        // Definition 3: M_L + M_R + M_D + M_W + FDS must fit memory.
        let (d, pool) = (self.geom.d, self.geom.fetch_pool(r));
        let need = r + pool + 3 * d + (r * d).div_ceil(self.geom.b);
        if need > self.geom.memory_blocks() {
            return Err(ViolationKind::BufferOverCommit {
                pool: "M",
                len: need,
                cap: self.geom.memory_blocks(),
            });
        }
        self.merge = Some(MergeReplica {
            sched: SchedReplica::new(r, d, pool),
            runs: runs
                .iter()
                .map(|meta| RunReplica {
                    meta: meta.clone(),
                    cur_idx: 0,
                    awaiting: false,
                    exhausted: false,
                })
                .collect(),
            last_promote: None,
            pending_read: None,
        });
        Ok(())
    }
}

fn require_merge<'a>(
    merge: &'a mut Option<MergeReplica>,
    event: &'static str,
) -> Result<&'a mut MergeReplica, ViolationKind> {
    merge.as_mut().ok_or(ViolationKind::UnexpectedEvent {
        event,
        reason: "no merge in progress",
    })
}

impl MergeReplica {
    fn run_count(&self) -> usize {
        self.runs.len()
    }

    fn check_run(&self, run: u32) -> Result<(), ViolationKind> {
        if (run as usize) < self.run_count() {
            Ok(())
        } else {
            Err(ViolationKind::RunOutOfRange {
                run,
                r: self.run_count(),
            })
        }
    }

    fn init_implant(&mut self, run: u32, idx: u64, key: u64, disk: DiskId) -> Result<(), ViolationKind> {
        self.check_run(run)?;
        let home = self.runs[run as usize].meta.disk_of(idx);
        if disk != home {
            return Err(ViolationKind::OffHomeDisk {
                role: "implant",
                run,
                idx,
                got: disk,
                home,
            });
        }
        self.sched.fds[disk.index()].insert(run, (key, run, idx));
        Ok(())
    }

    fn init_load(
        &mut self,
        blocks: &[(u32, DiskId)],
        last_read: Option<&[BlockAddr]>,
    ) -> Result<(), ViolationKind> {
        for &(run, disk) in blocks {
            self.check_run(run)?;
            let meta = &self.runs[run as usize].meta;
            let home = meta.disk_of(0);
            if disk != home {
                return Err(ViolationKind::OffHomeDisk {
                    role: "initial block",
                    run,
                    idx: 0,
                    got: disk,
                    home,
                });
            }
            if let Some(addrs) = last_read {
                let a = meta.addr_of(0);
                if !addrs.contains(&a) {
                    return Err(ViolationKind::ReadMismatch {
                        block: (0, run, 0),
                        disk: a.disk,
                        offset: a.offset,
                    });
                }
            }
        }
        Ok(())
    }

    /// A read's submission — the legality half of a scheduled read,
    /// judged in the state the engine made the decision in: staging
    /// drained and empty, rule 2a–2c flush arithmetic, §4
    /// forecast-minimality, fetch-set completeness, and the cross-check
    /// against the logical read's addresses.  Mutates the replica only by
    /// applying the flushes: the arrivals wait for the completing
    /// `SchedRead`, and the forecasting table is left untouched until
    /// then — exactly as the engine's is.
    fn read_submit(
        &mut self,
        targets: &[TraceTarget],
        flushed: &[TraceFlush],
        last_read: Option<&[BlockAddr]>,
    ) -> Result<(), ViolationKind> {
        if self.pending_read.is_some() {
            return Err(ViolationKind::UnexpectedEvent {
                event: "ReadSubmit",
                reason: "a split-phase read is already in flight",
            });
        }
        let d = self.sched.d;
        // The engine drains M_D at the top of every loop iteration; a
        // read is only attempted once staging is empty.
        self.sched.drain();
        if !self.sched.staged.is_empty() {
            return Err(ViolationKind::ReadWhileStagingOccupied {
                staged: self.sched.staged.len(),
            });
        }

        // Rules 2a–2c: how many blocks must be flushed, computed from
        // the pre-flush occupancy and the global forecasting minimum.
        let occ = self.sched.fset.len();
        let expected_flush = if occ > self.sched.r {
            let extra = occ - self.sched.r;
            let Some(s_min) = self.sched.frontier_min() else {
                return Err(ViolationKind::UnexpectedEvent {
                    event: "ReadSubmit",
                    reason: "flush arithmetic needs a forecasting minimum, but FDS is empty",
                });
            };
            let out_rank = 1 + self.sched.fset.range(..s_min).count();
            if out_rank <= extra {
                extra - out_rank + 1
            } else {
                0
            }
        } else {
            0
        };
        if flushed.len() != expected_flush {
            return Err(ViolationKind::FlushCountMismatch {
                expected: expected_flush,
                got: flushed.len(),
            });
        }
        for f in flushed {
            self.check_run(f.run)?;
            let fb: BlockRef = (f.key, f.run, f.idx);
            let home = self.runs[f.run as usize].meta.disk_of(f.idx);
            if f.disk != home {
                return Err(ViolationKind::OffHomeDisk {
                    role: "flush",
                    run: f.run,
                    idx: f.idx,
                    got: f.disk,
                    home,
                });
            }
            // Each victim must be the farthest-future block remaining.
            match self.sched.fset.last().copied() {
                Some(max) if max == fb => {
                    self.sched.fset.remove(&fb);
                }
                Some(max) => {
                    if self.sched.fset.contains(&fb) {
                        return Err(ViolationKind::FlushNotFarthestFuture {
                            flushed: fb,
                            expected: max,
                        });
                    }
                    return Err(ViolationKind::FlushedBlockNotBuffered { flushed: fb });
                }
                None => return Err(ViolationKind::FlushedBlockNotBuffered { flushed: fb }),
            }
            // A virtual flush costs no I/O; it only re-arms the block's
            // forecasting entry on its home disk.
            self.sched.lower_to(home.index(), f.run, fb);
        }

        // §4: the fetch set takes exactly each disk's forecast minimum.
        check_op_disks("scheduled read", targets.iter().map(|t| t.disk), d)?;
        let mut covered = vec![false; d];
        for t in targets {
            self.check_run(t.run)?;
            let tb: BlockRef = (t.key, t.run, t.idx);
            let home = self.runs[t.run as usize].meta.disk_of(t.idx);
            if t.disk != home {
                return Err(ViolationKind::OffHomeDisk {
                    role: "target",
                    run: t.run,
                    idx: t.idx,
                    got: t.disk,
                    home,
                });
            }
            let min = self.sched.disk_min(t.disk.index());
            if min != Some(tb) {
                return Err(ViolationKind::NotForecastMinimal {
                    disk: t.disk,
                    got: tb,
                    expected: min,
                });
            }
            covered[t.disk.index()] = true;
        }
        for (disk, was_covered) in covered.iter().enumerate().take(d) {
            if !was_covered {
                if let Some(expected) = self.sched.disk_min(disk) {
                    return Err(ViolationKind::FetchSetIncomplete {
                        disk: DiskId::from_index(disk),
                        expected,
                    });
                }
            }
        }
        // The targets must be the blocks the preceding logical read
        // actually fetched.
        if let Some(addrs) = last_read {
            for t in targets {
                let a = self.runs[t.run as usize].meta.addr_of(t.idx);
                if !addrs.contains(&a) {
                    return Err(ViolationKind::ReadMismatch {
                        block: (t.key, t.run, t.idx),
                        disk: a.disk,
                        offset: a.offset,
                    });
                }
            }
        }
        self.pending_read = Some(PendingRead {
            targets: targets.to_vec(),
            flushed: flushed.to_vec(),
        });
        Ok(())
    }

    /// Apply a read's arrivals: each target consumes its forecasting
    /// entry, implants its successor's, and routes per exchange rule 2 —
    /// judged against the replica's *current* run cursors, which for a
    /// split-phase read have advanced since submit exactly as the
    /// engine's did.
    fn apply_arrivals(&mut self, targets: &[TraceBlock]) -> Result<(), ViolationKind> {
        let d = self.sched.d;
        for t in targets {
            let tb: BlockRef = (t.key, t.run, t.idx);
            let st = &mut self.runs[t.run as usize];
            let expected_leading = st.awaiting && st.cur_idx == t.idx;
            if t.to_leading != expected_leading {
                return Err(ViolationKind::ToLeadingMismatch {
                    block: tb,
                    expected: expected_leading,
                });
            }
            let slot = t.disk.index();
            match t.implant {
                Some(k) => {
                    let next = t.idx + d as u64;
                    self.sched.fds[slot].insert(t.run, (k, t.run, next));
                }
                None => {
                    self.sched.fds[slot].remove(&t.run);
                }
            }
            if expected_leading {
                st.awaiting = false;
            } else {
                self.sched.staged.push(tb);
            }
        }
        Ok(())
    }

    /// The engine's own occupancy tags, recorded post-arrival and
    /// pre-drain, must match the replay exactly; then Definition 3's
    /// budgets.
    fn check_occupancy(&self, fset_len: usize, staged_len: usize) -> Result<(), ViolationKind> {
        let d = self.sched.d;
        if fset_len != self.sched.fset.len() {
            return Err(ViolationKind::OccupancyTagMismatch {
                pool: "M_R",
                tagged: fset_len,
                replayed: self.sched.fset.len(),
            });
        }
        if staged_len != self.sched.staged.len() {
            return Err(ViolationKind::OccupancyTagMismatch {
                pool: "M_D",
                tagged: staged_len,
                replayed: self.sched.staged.len(),
            });
        }
        if self.sched.staged.len() > d {
            return Err(ViolationKind::BufferOverCommit {
                pool: "M_D",
                len: self.sched.staged.len(),
                cap: d,
            });
        }
        if self.sched.fset.len() > self.sched.pool {
            return Err(ViolationKind::BufferOverCommit {
                pool: "M_R",
                len: self.sched.fset.len(),
                cap: self.sched.pool,
            });
        }
        Ok(())
    }

    /// Completion of a split-phase read: must repeat the submitted fetch
    /// set and flush list verbatim, then routes the arrivals against the
    /// current state.
    fn sched_read_complete(
        &mut self,
        submitted: &PendingRead,
        targets: &[TraceBlock],
        flushed: &[TraceFlush],
        fset_len: usize,
        staged_len: usize,
    ) -> Result<(), ViolationKind> {
        if targets.len() != submitted.targets.len()
            || targets
                .iter()
                .zip(&submitted.targets)
                .any(|(t, s)| t.run != s.run || t.idx != s.idx || t.key != s.key || t.disk != s.disk)
        {
            return Err(ViolationKind::UnexpectedEvent {
                event: "SchedRead",
                reason: "completion's fetch set differs from its ReadSubmit",
            });
        }
        if submitted.flushed.as_slice() != flushed {
            return Err(ViolationKind::UnexpectedEvent {
                event: "SchedRead",
                reason: "completion's flush list differs from its ReadSubmit",
            });
        }
        self.apply_arrivals(targets)?;
        self.check_occupancy(fset_len, staged_len)
    }

    fn deplete(&mut self, run: u32, idx: u64) -> Result<(), ViolationKind> {
        self.sched.drain();
        if let Some((r0, i0)) = self.last_promote.take() {
            // The replay promoted a block the trace never acknowledged.
            return Err(ViolationKind::PromoteMismatch { run: r0, idx: i0 });
        }
        self.check_run(run)?;
        let len_blocks = self.runs[run as usize].meta.len_blocks;
        let st = &mut self.runs[run as usize];
        if st.exhausted {
            return Err(ViolationKind::UnexpectedEvent {
                event: "Deplete",
                reason: "run is already exhausted",
            });
        }
        if st.awaiting {
            return Err(ViolationKind::UnexpectedEvent {
                event: "Deplete",
                reason: "run's leading buffer is empty (awaiting I/O)",
            });
        }
        if idx != st.cur_idx {
            return Err(ViolationKind::DepleteOutOfOrder {
                run,
                got: idx,
                expected: st.cur_idx,
            });
        }
        st.cur_idx += 1;
        if st.cur_idx >= len_blocks {
            st.exhausted = true;
            return Ok(());
        }
        let next = st.cur_idx;
        if self.sched.remove_buffered(run, next) {
            self.last_promote = Some((run, next));
            self.sched.drain();
        } else {
            let home = self.runs[run as usize].meta.disk_of(next);
            match self.sched.fds[home.index()].get(&run) {
                Some(e) if e.2 == next => self.runs[run as usize].awaiting = true,
                _ => return Err(ViolationKind::AwaitWithoutForecast { run, idx: next }),
            }
        }
        Ok(())
    }
}

/// Replay a whole trace, failing fast at the first violation.
///
/// On success the returned [`CheckSummary`] says what the trace
/// contained, so callers can assert the checker exercised real work
/// (e.g. `summary.sched_reads > 0`) rather than vacuously passing.
pub fn check_trace(geom: Geometry, events: &[Tagged]) -> Result<CheckSummary, Box<Violation>> {
    let mut replay = Replay::new(geom);
    for event in events {
        replay.apply(event)?;
    }
    Ok(replay.summary)
}

/// Replay a whole trace, collecting every violation (best effort: state
/// after a violation may be off, so later findings can be follow-on
/// noise — the first one is always genuine).
pub fn check_trace_collect(geom: Geometry, events: &[Tagged]) -> (CheckSummary, Vec<Violation>) {
    let mut replay = Replay::new(geom);
    let mut violations = Vec::new();
    for event in events {
        if let Err(v) = replay.apply(event) {
            violations.push(*v);
        }
    }
    (replay.summary, violations)
}

/// Cross-check a trace against the [`IoStats`] the same workload
/// reported: logical-op counts, block totals, retry counts, and the
/// parity layer's reconstruction/commit counters must all agree —
/// catching both stats drift and parity work leaking into the
/// parity-oblivious healthy-path counters.
///
/// On a healthy array every logical op is charged 1:1, so the expected
/// counters are just the trace's `Read`/`Write` totals.  In degraded
/// mode the correspondence bends in two trace-visible ways, and this
/// check replays both:
///
/// * a reconstruction with surviving siblings costs one real parallel
///   read on the inner array (a [`TraceEvent::Reconstruct`] with a
///   non-empty sibling set; a siblingless `D = 2` mirror rebuild costs
///   nothing — its parity frame lives in memory);
/// * an op whose every block sits on a dead disk never reaches the
///   backend at all, so it is charged zero despite its logical event.
///   The dead set is tracked from [`TraceEvent::DiskDeath`] and
///   permanent [`TraceEvent::Fault`]s.
///
/// The check covers sort workloads (fresh writes only).  Overwrites of
/// parity-protected blocks perform additional inner I/O with no logical
/// event, and are out of scope.
pub fn check_stats(events: &[Tagged], stats: &IoStats) -> Result<(), Box<Violation>> {
    let mut tally = StatsTally::default();
    for e in events {
        tally.push(e);
    }
    tally.check(stats)
}

/// [`check_stats`]' counters, one event at a time.
#[derive(Debug, Default)]
struct StatsTally {
    reads: u64,
    writes: u64,
    blocks_read: u64,
    blocks_written: u64,
    reconstructs: u64,
    parity_commits: u64,
    retries: [u64; 3],
    dead: BTreeSet<DiskId>,
    /// Events tallied, and the last one's pass: where a mismatch is
    /// reported.
    seq: u64,
    pass: u64,
}

impl StatsTally {
    fn push(&mut self, e: &Tagged) {
        self.seq += 1;
        self.pass = e.pass;
        match &e.event {
            TraceEvent::Read { addrs } => {
                let live = addrs.iter().filter(|a| !self.dead.contains(&a.disk)).count();
                if live > 0 {
                    self.reads += 1;
                    self.blocks_read += live as u64;
                }
            }
            TraceEvent::Write { addrs } => {
                let live = addrs.iter().filter(|a| !self.dead.contains(&a.disk)).count();
                if live > 0 {
                    self.writes += 1;
                    self.blocks_written += live as u64;
                }
            }
            TraceEvent::Reconstruct { siblings, .. } => {
                self.reconstructs += 1;
                if !siblings.is_empty() {
                    self.reads += 1;
                    self.blocks_read += siblings.len() as u64;
                }
            }
            TraceEvent::ParityCommit { .. } => self.parity_commits += 1,
            TraceEvent::Retry { op } => match op {
                FaultOp::Read => self.retries[0] += 1,
                FaultOp::Write => self.retries[1] += 1,
                FaultOp::Alloc => self.retries[2] += 1,
                // Sync faults are never retryable (fsyncgate), so a
                // retried sync in a trace is itself a protocol bug;
                // it would surface as a retry-count mismatch below.
                FaultOp::Sync => {}
            },
            TraceEvent::Fault {
                kind: FaultKind::Permanent,
                disk: Some(d),
                ..
            } => {
                self.dead.insert(*d);
            }
            TraceEvent::DiskDeath { disk } => {
                self.dead.insert(*disk);
            }
            _ => {}
        }
    }

    fn check(&self, stats: &IoStats) -> Result<(), Box<Violation>> {
        let pairs: [(&'static str, u64, u64); 9] = [
            ("read_ops", self.reads, stats.read_ops),
            ("write_ops", self.writes, stats.write_ops),
            ("blocks_read", self.blocks_read, stats.blocks_read),
            ("blocks_written", self.blocks_written, stats.blocks_written),
            ("reconstructed_reads", self.reconstructs, stats.reconstructed_reads),
            ("parity_writes", self.parity_commits, stats.parity_writes),
            ("read_retries", self.retries[0], stats.read_retries),
            ("write_retries", self.retries[1], stats.write_retries),
            ("alloc_retries", self.retries[2], stats.alloc_retries),
        ];
        for (counter, from_trace, from_stats) in pairs {
            if from_trace != from_stats {
                return Err(Box::new(Violation::new(
                    self.seq,
                    self.pass,
                    ViolationKind::StatsMismatch {
                        counter,
                        from_trace,
                        from_stats,
                    },
                )));
            }
        }
        Ok(())
    }
}

/// [`check_trace`] and [`check_stats`] as the events are emitted: the
/// [`TraceConsumer`] a durable sort streams its trace into
/// ([`pdisk::TraceSink::stream`]), so it never holds the trace.  The
/// replay stops at its first violation, which it keeps with its seq and
/// pass, as `check_trace` returns it; the stats tally sees every event.
#[derive(Debug)]
pub struct StreamCheck {
    replay: Replay,
    first: Option<Box<Violation>>,
    tally: StatsTally,
}

impl StreamCheck {
    /// A streaming checker for traces recorded under `geom`.
    pub fn new(geom: Geometry) -> Self {
        StreamCheck { replay: Replay::new(geom), first: None, tally: StatsTally::default() }
    }

    /// [`check_trace`]'s verdict on the events streamed so far.
    pub fn verdict(&self) -> Result<CheckSummary, Box<Violation>> {
        match &self.first {
            Some(v) => Err(v.clone()),
            None => Ok(self.replay.summary.clone()),
        }
    }

    /// [`check_stats`]' verdict on the events streamed so far.
    pub fn check_stats(&self, stats: &IoStats) -> Result<(), Box<Violation>> {
        self.tally.check(stats)
    }
}

impl TraceConsumer for StreamCheck {
    fn consume(&mut self, event: &Tagged) {
        if self.first.is_none() {
            self.first = self.replay.apply(event).err();
        }
        self.tally.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The events streamed, one at a time, into a [`StreamCheck`].
    fn streamed(geom: Geometry, events: &[Tagged]) -> StreamCheck {
        let mut check = StreamCheck::new(geom);
        for e in events {
            check.consume(e);
        }
        check
    }

    /// [`super::check_trace`], whose verdict every test here also
    /// requires of the streamed check: the same violation at the same
    /// event, or the same summary.
    fn check_trace(geom: Geometry, events: &[Tagged]) -> Result<CheckSummary, Box<Violation>> {
        let whole = super::check_trace(geom, events);
        assert_eq!(streamed(geom, events).verdict(), whole, "the streamed verdict");
        whole
    }

    /// [`super::check_stats`], likewise held to the streamed tally's.
    fn check_stats(events: &[Tagged], stats: &IoStats) -> Result<(), Box<Violation>> {
        let whole = super::check_stats(events, stats);
        assert_eq!(streamed(geom(), events).check_stats(stats), whole, "the streamed tally");
        whole
    }

    fn geom() -> Geometry {
        match Geometry::new(3, 4, 96) {
            Ok(g) => g,
            Err(e) => panic!("geometry: {e}"),
        }
    }

    fn tag(events: Vec<TraceEvent>) -> Vec<Tagged> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| Tagged {
                seq: i as u64,
                pass: 1,
                event,
            })
            .collect()
    }

    fn meta(start: u32, len: u64) -> TraceRunMeta {
        TraceRunMeta {
            start_disk: DiskId(start),
            len_blocks: len,
            base_offsets: vec![0; 3],
        }
    }

    #[test]
    fn read_inside_the_durability_gap_is_flagged() {
        let a = BlockAddr::new(DiskId(0), 0);
        let t = tag(vec![
            TraceEvent::Write { addrs: vec![a] },
            TraceEvent::Read { addrs: vec![a] },
        ]);
        let v = match check_trace(geom(), &t) {
            Err(v) => v,
            Ok(s) => panic!("accepted a read of an undurable write: {s:?}"),
        };
        assert!(
            matches!(v.kind, ViolationKind::ReadBeforeDurableWrite { addr } if addr == a),
            "got {v}"
        );
    }

    #[test]
    fn durably_completed_writes_may_be_read() {
        let a = BlockAddr::new(DiskId(0), 0);
        let t = tag(vec![
            TraceEvent::Write { addrs: vec![a] },
            TraceEvent::WriteDurable { addrs: vec![a] },
            TraceEvent::Read { addrs: vec![a] },
        ]);
        let s = match check_trace(geom(), &t) {
            Ok(s) => s,
            Err(v) => panic!("rejected a durably-completed write: {v}"),
        };
        assert_eq!(s.durable_writes, 1);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn duplicate_disk_in_read_is_flagged() {
        let t = tag(vec![TraceEvent::Read {
            addrs: vec![BlockAddr::new(DiskId(1), 0), BlockAddr::new(DiskId(1), 5)],
        }]);
        let v = match check_trace(geom(), &t) {
            Err(v) => v,
            Ok(s) => panic!("accepted duplicate-disk read: {s:?}"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::DuplicateDiskInOp { op: "read", disk: DiskId(1) }
        ));
        assert_eq!(v.seq, 0);
        assert_eq!(v.pass, 1);

        // Step 1's initial blocks obey the same constraint: two runs'
        // block 0 from disk 0 cannot arrive in one batch.
        let mut events = clean_merge_events();
        events[1] = TraceEvent::InitLoad { blocks: vec![(0, DiskId(0)), (1, DiskId(0))] };
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(s) => panic!("accepted duplicate-disk initial load: {s:?}"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::DuplicateDiskInOp { op: "initial load", disk: DiskId(0) }
        ));
        assert_eq!(v.seq, 1);
    }

    #[test]
    fn out_of_range_disk_is_flagged() {
        let t = tag(vec![TraceEvent::Write {
            addrs: vec![BlockAddr::new(DiskId(7), 0)],
        }]);
        let v = match check_trace(geom(), &t) {
            Err(v) => v,
            Ok(s) => panic!("accepted out-of-range write: {s:?}"),
        };
        assert!(matches!(v.kind, ViolationKind::DiskOutOfRange { d: 3, .. }));
    }

    #[test]
    fn annotation_outside_merge_is_flagged() {
        let t = tag(vec![TraceEvent::Deplete { run: 0, idx: 0 }]);
        let v = match check_trace(geom(), &t) {
            Err(v) => v,
            Ok(_) => panic!("accepted orphan Deplete"),
        };
        assert!(matches!(v.kind, ViolationKind::UnexpectedEvent { event: "Deplete", .. }));
    }

    #[test]
    fn parity_on_data_disk_is_flagged() {
        let t = tag(vec![TraceEvent::ParityCommit {
            stripe: 4,
            parity_disk: DiskId(1),
            data_disks: vec![DiskId(0), DiskId(1)],
        }]);
        let v = match check_trace(geom(), &t) {
            Err(v) => v,
            Ok(_) => panic!("accepted parity on data disk"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::ParityOnDataDisk { stripe: 4, disk: DiskId(1) }
        ));
    }

    #[test]
    fn parity_rotation_is_enforced() {
        // Stripe 5 on 3 disks rotates to disk 2; claiming disk 0 fails.
        let t = tag(vec![TraceEvent::ParityCommit {
            stripe: 5,
            parity_disk: DiskId(0),
            data_disks: vec![DiskId(1)],
        }]);
        let v = match check_trace(geom(), &t) {
            Err(v) => v,
            Ok(_) => panic!("accepted misrotated parity"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::ParityPlacementMismatch { stripe: 5, got: DiskId(0), expected: DiskId(2) }
        ));
    }

    #[test]
    fn nonstriped_run_write_is_flagged() {
        let t = tag(vec![
            TraceEvent::RunStart { start_disk: DiskId(1) },
            // Block 0 of a run starting on disk 1 must land on disk 1.
            TraceEvent::Write { addrs: vec![BlockAddr::new(DiskId(0), 0)] },
        ]);
        let v = match check_trace(geom(), &t) {
            Err(v) => v,
            Ok(_) => panic!("accepted mis-striped run write"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::RunWriteNotStriped { idx: 0, got: DiskId(0), expected: DiskId(1) }
        ));
    }

    #[test]
    fn narrow_interior_stripe_is_flagged() {
        // 3 disks; write stripes of width 2, 2 — the first is interior
        // and must have been full width.
        let t = tag(vec![
            TraceEvent::RunStart { start_disk: DiskId(0) },
            TraceEvent::Write {
                addrs: vec![BlockAddr::new(DiskId(0), 0), BlockAddr::new(DiskId(1), 0)],
            },
            TraceEvent::Write {
                addrs: vec![BlockAddr::new(DiskId(2), 0), BlockAddr::new(DiskId(0), 1)],
            },
            TraceEvent::RunEnd { start_disk: DiskId(0), len_blocks: 4 },
        ]);
        let v = match check_trace(geom(), &t) {
            Err(v) => v,
            Ok(_) => panic!("accepted narrow interior stripe"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::RunStripeNotFullWidth { stripe: 0, width: 2, d: 3 }
        ));
    }

    /// A tiny hand-built merge trace that follows every rule: 2 runs of
    /// 2 blocks on 3 disks; each run's block 1 arrives straight to the
    /// leading buffer.
    fn clean_merge_events() -> Vec<TraceEvent> {
        let g = geom();
        let m0 = meta(0, 2);
        let m1 = meta(1, 2);
        vec![
            TraceEvent::MergeBegin { r: 2, geom: g, runs: vec![m0, m1] },
            TraceEvent::InitLoad { blocks: vec![(0, DiskId(0)), (1, DiskId(1))] },
            // Run 0: keys 10, 30.  Run 1: keys 20, 40.
            TraceEvent::InitImplant { run: 0, idx: 1, key: 30, disk: DiskId(1) },
            TraceEvent::InitImplant { run: 1, idx: 1, key: 40, disk: DiskId(2) },
            TraceEvent::Deplete { run: 0, idx: 0 },
            // Run 0 now awaits block 1 from disk 1; both pending blocks
            // are fetched in one parallel read, completed where it is
            // submitted (window 0).
            TraceEvent::ReadSubmit {
                targets: vec![
                    TraceTarget { run: 0, idx: 1, key: 30, disk: DiskId(1) },
                    TraceTarget { run: 1, idx: 1, key: 40, disk: DiskId(2) },
                ],
                flushed: vec![],
            },
            TraceEvent::SchedRead {
                targets: vec![
                    TraceBlock {
                        run: 0,
                        idx: 1,
                        key: 30,
                        disk: DiskId(1),
                        implant: None,
                        to_leading: true,
                    },
                    TraceBlock {
                        run: 1,
                        idx: 1,
                        key: 40,
                        disk: DiskId(2),
                        implant: None,
                        to_leading: false,
                    },
                ],
                flushed: vec![],
                fset_len: 0,
                staged_len: 1,
            },
            TraceEvent::Deplete { run: 1, idx: 0 },
            TraceEvent::Promote { run: 1, idx: 1 },
            TraceEvent::Deplete { run: 0, idx: 1 },
            TraceEvent::Deplete { run: 1, idx: 1 },
            TraceEvent::MergeEnd,
        ]
    }

    /// A merge whose Definition-3 partition cannot fit memory is
    /// rejected at its `MergeBegin`: at `M/B = 24` on 3 disks of 4-record
    /// blocks, `R = 9` needs `9 + 0 + 9 + 7 = 25` blocks even with an
    /// empty fetch pool (`R = 8` fits, with one block of `M_R`).
    #[test]
    fn a_merge_over_memory_is_rejected() {
        let merge = |r: u32| {
            tag(vec![TraceEvent::MergeBegin {
                r: r as usize,
                geom: geom(),
                runs: (0..r).map(|j| meta(j % 3, 2)).collect(),
            }])
        };
        let v = match check_trace(geom(), &merge(9)) {
            Err(v) => v,
            Ok(s) => panic!("accepted a merge over memory: {s:?}"),
        };
        assert!(
            matches!(v.kind, ViolationKind::BufferOverCommit { pool: "M", len: 25, cap: 24 }),
            "got {v}"
        );
        let (_, violations) = check_trace_collect(geom(), &merge(8));
        assert!(
            !violations.iter().any(|v| matches!(v.kind, ViolationKind::BufferOverCommit { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn clean_hand_built_merge_passes() {
        let summary = match check_trace(geom(), &tag(clean_merge_events())) {
            Ok(s) => s,
            Err(v) => panic!("clean trace rejected: {v}"),
        };
        assert_eq!(summary.merges, 1);
        assert_eq!(summary.read_submits, 1);
        assert_eq!(summary.sched_reads, 1);
        assert_eq!(summary.depletes, 4);
        assert_eq!(summary.promotes, 1);
    }

    /// The read grammar is two events: a completion with no submission
    /// in flight is not a trace any engine writes.
    #[test]
    fn sched_read_without_a_submit_is_flagged() {
        let mut events = clean_merge_events();
        events.remove(5);
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted a SchedRead nothing submitted"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::UnexpectedEvent { event: "SchedRead", reason }
                if reason.contains("no ReadSubmit")
        ));
    }

    /// The same merge as [`clean_merge_events`], but with the window
    /// open: the `SchedRead` completing the read comes later than its
    /// `ReadSubmit`, and run 1 depletes *during the flight* — so its
    /// block arrives straight to leading (`to_leading: true`) instead of
    /// staging, with no `Promote`.
    fn clean_pipelined_merge_events() -> Vec<TraceEvent> {
        let g = geom();
        let m0 = meta(0, 2);
        let m1 = meta(1, 2);
        vec![
            TraceEvent::MergeBegin { r: 2, geom: g, runs: vec![m0, m1] },
            TraceEvent::InitLoad { blocks: vec![(0, DiskId(0)), (1, DiskId(1))] },
            TraceEvent::InitImplant { run: 0, idx: 1, key: 30, disk: DiskId(1) },
            TraceEvent::InitImplant { run: 1, idx: 1, key: 40, disk: DiskId(2) },
            TraceEvent::Deplete { run: 0, idx: 0 },
            TraceEvent::ReadSubmit {
                targets: vec![
                    TraceTarget { run: 0, idx: 1, key: 30, disk: DiskId(1) },
                    TraceTarget { run: 1, idx: 1, key: 40, disk: DiskId(2) },
                ],
                flushed: vec![],
            },
            TraceEvent::Deplete { run: 1, idx: 0 },
            TraceEvent::SchedRead {
                targets: vec![
                    TraceBlock {
                        run: 0,
                        idx: 1,
                        key: 30,
                        disk: DiskId(1),
                        implant: None,
                        to_leading: true,
                    },
                    TraceBlock {
                        run: 1,
                        idx: 1,
                        key: 40,
                        disk: DiskId(2),
                        implant: None,
                        to_leading: true,
                    },
                ],
                flushed: vec![],
                fset_len: 0,
                staged_len: 0,
            },
            TraceEvent::Deplete { run: 0, idx: 1 },
            TraceEvent::Deplete { run: 1, idx: 1 },
            TraceEvent::MergeEnd,
        ]
    }

    #[test]
    fn clean_pipelined_merge_passes() {
        let summary = match check_trace(geom(), &tag(clean_pipelined_merge_events())) {
            Ok(s) => s,
            Err(v) => panic!("clean pipelined trace rejected: {v}"),
        };
        assert_eq!(summary.merges, 1);
        assert_eq!(summary.read_submits, 1);
        assert_eq!(summary.sched_reads, 1);
        assert_eq!(summary.depletes, 4);
        // The flight absorbed run 1's arrival straight into leading, so
        // no staged block was ever promoted.
        assert_eq!(summary.promotes, 0);
    }

    #[test]
    fn double_read_submit_is_flagged() {
        let mut events = clean_pipelined_merge_events();
        let submit = events[5].clone();
        events.insert(6, submit);
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted overlapping split-phase reads"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::UnexpectedEvent { event: "ReadSubmit", .. }
        ));
    }

    #[test]
    fn completion_target_mismatch_is_flagged() {
        let mut events = clean_pipelined_merge_events();
        // The completion claims a different block than was submitted.
        if let TraceEvent::SchedRead { targets, .. } = &mut events[7] {
            targets[1].key = 99;
        }
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted drifted completion targets"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::UnexpectedEvent { event: "SchedRead", reason }
                if reason.contains("fetch set")
        ));
    }

    #[test]
    fn completion_flush_mismatch_is_flagged() {
        let mut events = clean_pipelined_merge_events();
        if let TraceEvent::SchedRead { flushed, .. } = &mut events[7] {
            flushed.push(TraceFlush { run: 0, idx: 1, key: 30, disk: DiskId(1) });
        }
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted drifted completion flushes"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::UnexpectedEvent { event: "SchedRead", reason }
                if reason.contains("flush list")
        ));
    }

    #[test]
    fn premature_merge_end_is_flagged() {
        let mut events = clean_pipelined_merge_events();
        // Cut the merge off right after the submit: the read never
        // completed.
        events.truncate(6);
        events.push(TraceEvent::MergeEnd);
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted MergeEnd with a read in flight"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::UnexpectedEvent { event: "MergeEnd", reason }
                if reason.contains("in flight")
        ));

        // Drop the last depletion: every block was read and consumed from
        // the buffers, but run 1's leading block never depleted.
        let mut events = clean_merge_events();
        events.remove(events.len() - 2);
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted MergeEnd before the last depletion"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::UnexpectedEvent { event: "MergeEnd", reason }
                if reason.contains("never fully depleted")
        ));
    }

    #[test]
    fn fetching_a_non_minimal_block_is_flagged() {
        let mut events = clean_merge_events();
        // Corrupt the read: claim run 1's block 1 has key 5 (smaller
        // than its forecast entry says), i.e. fetch a different block
        // than the forecast minimum.
        if let TraceEvent::ReadSubmit { targets, .. } = &mut events[5] {
            targets[1].key = 5;
        }
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted non-minimal fetch"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::NotForecastMinimal { disk: DiskId(2), .. }
        ));
    }

    #[test]
    fn skipping_a_pending_disk_is_flagged() {
        let mut events = clean_merge_events();
        if let TraceEvent::ReadSubmit { targets, .. } = &mut events[5] {
            targets.pop();
        }
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted incomplete fetch set"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::FetchSetIncomplete { disk: DiskId(2), .. }
        ));
    }

    #[test]
    fn occupancy_tag_drift_is_flagged() {
        let mut events = clean_merge_events();
        if let TraceEvent::SchedRead { staged_len, .. } = &mut events[6] {
            *staged_len = 0;
        }
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted wrong occupancy tag"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::OccupancyTagMismatch { pool: "M_D", tagged: 0, replayed: 1 }
        ));
    }

    #[test]
    fn unsanctioned_flush_is_flagged() {
        let mut events = clean_merge_events();
        // Claim a flush when rule 2c's arithmetic allows none.
        if let TraceEvent::ReadSubmit { flushed, .. } = &mut events[5] {
            flushed.push(TraceFlush { run: 0, idx: 1, key: 30, disk: DiskId(1) });
        }
        let v = match check_trace(geom(), &tag(events)) {
            Err(v) => v,
            Ok(_) => panic!("accepted unsanctioned flush"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::FlushCountMismatch { expected: 0, got: 1 }
        ));
    }

    #[test]
    fn stats_mismatch_is_flagged() {
        let t = tag(vec![TraceEvent::Read {
            addrs: vec![BlockAddr::new(DiskId(0), 0)],
        }]);
        let stats = IoStats { read_ops: 2, blocks_read: 1, ..IoStats::default() };
        let v = match check_stats(&t, &stats) {
            Err(v) => v,
            Ok(()) => panic!("accepted drifted stats"),
        };
        assert!(matches!(
            v.kind,
            ViolationKind::StatsMismatch { counter: "read_ops", from_trace: 1, from_stats: 2 }
        ));
    }

    #[test]
    fn collect_variant_reports_and_continues() {
        let t = tag(vec![
            TraceEvent::Read {
                addrs: vec![BlockAddr::new(DiskId(0), 0), BlockAddr::new(DiskId(0), 1)],
            },
            TraceEvent::Read {
                addrs: vec![BlockAddr::new(DiskId(1), 0)],
            },
        ]);
        let (summary, violations) = check_trace_collect(geom(), &t);
        assert_eq!(summary.events, 2);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].seq, 0);
    }
}
