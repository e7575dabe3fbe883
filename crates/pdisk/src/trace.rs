//! Structured I/O tracing: the event stream `modelcheck` replays.
//!
//! A [`TraceSink`] is a shared, append-only log of [`TraceEvent`]s.  Each
//! event is stamped with a sequence number and the current *pass* tag
//! (set by the sorters at pass boundaries), giving every recorded fact a
//! location — pass, stripe, disk — that a checker can report verbatim.
//!
//! Two kinds of events coexist in one log:
//!
//! * **backend events**, emitted by the storage layers themselves:
//!   physical reads/writes/allocations from [`crate::MemDiskArray`] /
//!   [`crate::FileDiskArray`], injected faults from
//!   [`crate::FaultyDiskArray`], retry re-issues from
//!   [`crate::RetryingDiskArray`], and reconstruction / parity-placement
//!   events from [`crate::ParityDiskArray`];
//! * **algorithm annotations**, emitted by the merge engine and run
//!   writer (scheduler decisions, buffer occupancy, run boundaries) so a
//!   replay can rebuild the scheduler's model state independently.
//!
//! Recording is *off by default and zero-cost when off*: every backend
//! holds an `Option<TraceSink>` that is `None` unless a sink was
//! installed via [`DiskArray::install_trace`], and emission sites are a
//! single `Option` test.  The intended way to trace a workload is to
//! wrap the top of a backend stack in [`TracingDiskArray`], which
//! creates a sink, pushes it down the stack, and additionally records
//! the *logical* operation stream exactly as the algorithm issued it
//! (above any parity remapping or retry absorption).
//!
//! [`DiskArray::install_trace`]: crate::DiskArray::install_trace

use std::sync::Arc;

use crate::addr::{BlockAddr, DiskId};
use crate::backend::{DiskArray, ReadTicket, WriteTicket};
use crate::block::Block;
use crate::error::{FaultKind, FaultOp, Result};
use crate::geometry::Geometry;
use crate::layer::{Layer, Stack};
use crate::record::Record;
use crate::sync::Mutex;

/// Layout of one input run, announced at the start of a traced merge so
/// a replay can map `(run, block idx)` to the [`BlockAddr`] the engine
/// must have read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRunMeta {
    /// Disk holding the run's block 0.
    pub start_disk: DiskId,
    /// Number of blocks in the run.
    pub len_blocks: u64,
    /// Per-disk slot of the run's first block on that disk.
    pub base_offsets: Vec<u64>,
}

impl TraceRunMeta {
    /// Disk of block `i` under the cyclic layout.
    pub fn disk_of(&self, i: u64) -> DiskId {
        DiskId::from_mod(u64::from(self.start_disk.0) + i, self.base_offsets.len())
    }

    /// Address of block `i` (mirrors [`crate::StripedRun::addr_of`]).
    pub fn addr_of(&self, i: u64) -> BlockAddr {
        let d = self.base_offsets.len() as u64;
        let disk = self.disk_of(i);
        BlockAddr::new(disk, self.base_offsets[disk.index()] + i / d)
    }
}

/// One block fetched by a scheduled parallel read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceBlock {
    /// Input run the block belongs to.
    pub run: u32,
    /// Block index within the run.
    pub idx: u64,
    /// The block's minimum key (its forecasting key).
    pub key: u64,
    /// Disk the scheduler expects to fetch it from.
    pub disk: DiskId,
    /// Forecast key implanted in the block for the run's next block on
    /// the same disk (`None` at the run's tail).
    pub implant: Option<u64>,
    /// Whether the block goes straight to the leading buffer `M_L`
    /// (exchange rule 2 of §5.2) instead of staging in `M_D`.
    pub to_leading: bool,
}

/// One block targeted by a split-phase scheduled read, recorded at
/// submit time — before the block's contents (implant key, destination
/// buffer) are known, which is what distinguishes this from the
/// completion-time [`TraceBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTarget {
    /// Input run the block belongs to.
    pub run: u32,
    /// Block index within the run.
    pub idx: u64,
    /// The block's minimum key (its forecasting key).
    pub key: u64,
    /// Disk the scheduler expects to fetch it from.
    pub disk: DiskId,
}

/// One block virtually flushed by scheduling rule 2c.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFlush {
    /// Input run the flushed block belongs to.
    pub run: u32,
    /// Block index within the run.
    pub idx: u64,
    /// The block's minimum key.
    pub key: u64,
    /// The block's home disk, where its forecasting entry is restored.
    pub disk: DiskId,
}

/// One recorded fact.  Backend events describe what the storage stack
/// did; annotation events describe what the algorithm decided.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A parallel read as issued by the algorithm (top of the stack,
    /// logical addresses, recorded only on success).
    Read {
        /// Logical addresses fetched, one per participating disk.
        addrs: Vec<BlockAddr>,
    },
    /// A parallel write as issued by the algorithm.
    Write {
        /// Logical addresses written, one per participating disk.
        addrs: Vec<BlockAddr>,
    },
    /// A parallel write's durable completion, emitted only when the
    /// write's ticket completes successfully — right after the [`Write`]
    /// for a ticket completed where it was submitted (a blocking write),
    /// up to the write-behind window later otherwise — so the
    /// gap between the two events is exactly the window a crash can tear.
    /// The `modelcheck` recovery invariant forbids reading a block
    /// whose `Write` was never followed by this event.
    ///
    /// [`Write`]: TraceEvent::Write
    WriteDurable {
        /// Logical addresses whose write completed, in request order.
        addrs: Vec<BlockAddr>,
    },
    /// A parallel read executed by a bottom backend (physical
    /// addresses, below any parity remap; includes reconstruction
    /// sibling reads).
    PhysRead {
        /// Physical addresses fetched.
        addrs: Vec<BlockAddr>,
    },
    /// A parallel write executed by a bottom backend.
    PhysWrite {
        /// Physical addresses written.
        addrs: Vec<BlockAddr>,
    },
    /// A successful allocation of `count` slots from `start` on `disk`.
    Alloc {
        /// Disk the slots were reserved on.
        disk: DiskId,
        /// First reserved slot.
        start: u64,
        /// Number of slots reserved.
        count: u64,
    },
    /// The fault layer injected a fault.
    Fault {
        /// Operation the fault hit.
        op: FaultOp,
        /// Transient or permanent.
        kind: FaultKind,
        /// Disk blamed, when the model names one.
        disk: Option<DiskId>,
    },
    /// The retry layer re-issued an operation after a retryable error.
    Retry {
        /// Operation kind that was retried.
        op: FaultOp,
    },
    /// The parity layer served a block by XOR reconstruction.
    Reconstruct {
        /// Disk whose block was reconstructed.
        disk: DiskId,
        /// Physical stripe index.
        stripe: u64,
        /// Surviving sibling blocks that were read to rebuild it.
        siblings: Vec<BlockAddr>,
    },
    /// The parity layer entered degraded mode for `disk`, whether from
    /// a permanent fault observed mid-operation or an administrative
    /// kill (the fault layer only traces the former, so checkers track
    /// the dead set from this event).
    DiskDeath {
        /// Disk now served by reconstruction.
        disk: DiskId,
    },
    /// The scrubber repaired a latent-corrupt block in place from its
    /// stripe's parity.
    ScrubRepair {
        /// Physical address of the rewritten block.
        addr: BlockAddr,
        /// Physical stripe index the reconstruction used.
        stripe: u64,
    },
    /// The parity layer committed a parity update for one stripe.
    ParityCommit {
        /// Physical stripe index.
        stripe: u64,
        /// Disk holding the stripe's parity (reserved slot identity).
        parity_disk: DiskId,
        /// Physical disks of the data blocks written into the stripe by
        /// this operation.
        data_disks: Vec<DiskId>,
    },
    /// A sorter entered merge pass `pass` (0 = run formation).
    PassBegin {
        /// Pass number.
        pass: u64,
    },
    /// A forecast-and-flush merge started.
    MergeBegin {
        /// Merge order (number of input runs).
        r: usize,
        /// Geometry the merge runs under.
        geom: Geometry,
        /// Layouts of the input runs, indexed by run id.
        runs: Vec<TraceRunMeta>,
    },
    /// Step 1 seeded one forecasting-table entry from an initial block's
    /// implanted key table.
    InitImplant {
        /// Run the entry belongs to.
        run: u32,
        /// Block index the entry points at.
        idx: u64,
        /// The implanted minimum key.
        key: u64,
        /// Disk the entry lives on.
        disk: DiskId,
    },
    /// Step 1 fetched a batch of initial blocks (block 0 of each run).
    InitLoad {
        /// `(run, disk)` of each fetched initial block.
        blocks: Vec<(u32, DiskId)>,
    },
    /// The merge *submitted* one scheduled parallel read without
    /// waiting for it.  The flush decision and the fetch set are fixed
    /// here — at the merge position §5.5 initiates the read — while the
    /// arrivals (implants, buffer routing) are recorded by the matching
    /// [`SchedRead`] event when the engine completes the ticket: at
    /// once at window 0, once the blocks are needed or fit when
    /// pipelined.  Every scheduled read of a merge is this pair, in this
    /// order, at most one in flight: a `SchedRead` nothing submitted is
    /// not a legal trace.
    ///
    /// [`SchedRead`]: TraceEvent::SchedRead
    ReadSubmit {
        /// The fetch set `S_t`: per-disk forecast-minimal blocks.
        targets: Vec<TraceTarget>,
        /// Blocks evicted by rule 2c before the read (empty otherwise).
        flushed: Vec<TraceFlush>,
    },
    /// The scheduler committed to one `ParRead`, possibly preceded by a
    /// `Flush` (§5.5 rules 2a–2c).
    SchedRead {
        /// The fetch set `S_t`: per-disk forecast-minimal blocks.
        targets: Vec<TraceBlock>,
        /// Blocks evicted by rule 2c before the read (empty otherwise).
        flushed: Vec<TraceFlush>,
        /// `|F|` after the read's arrivals, as the scheduler believes it.
        fset_len: usize,
        /// `|M_D|` after the read's arrivals, as the scheduler believes it.
        staged_len: usize,
    },
    /// A buffered block moved from `M_R`/`M_D` to the leading buffer.
    Promote {
        /// Run whose block was promoted.
        run: u32,
        /// Block index promoted.
        idx: u64,
    },
    /// A leading block was fully consumed and its buffer released.
    Deplete {
        /// Run whose leading block was consumed.
        run: u32,
        /// Block index consumed.
        idx: u64,
    },
    /// The merge completed.
    MergeEnd,
    /// A run writer started emitting an output run.
    RunStart {
        /// Disk holding the run's block 0 (random in SRM).
        start_disk: DiskId,
    },
    /// A run writer finished its run.
    RunEnd {
        /// Disk holding the run's block 0.
        start_disk: DiskId,
        /// Blocks the run occupies.
        len_blocks: u64,
    },
}

/// A [`TraceEvent`] with its location stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Tagged {
    /// Position in the log (0-based, dense).
    pub seq: u64,
    /// Pass tag current when the event was recorded.
    pub pass: u64,
    /// The recorded event.
    pub event: TraceEvent,
}

#[derive(Debug, Default)]
struct TraceBuf {
    events: Vec<Tagged>,
    pass: u64,
}

/// Shared, append-only event log.  Cloning shares the log.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    buf: Arc<Mutex<TraceBuf>>,
}

impl TraceSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event, stamping sequence number and pass.
    pub fn emit(&self, event: TraceEvent) {
        let mut buf = self.buf.lock();
        let seq = buf.events.len() as u64;
        let pass = buf.pass;
        buf.events.push(Tagged { seq, pass, event });
    }

    /// Set the pass tag for subsequent events and record the boundary.
    pub fn begin_pass(&self, pass: u64) {
        {
            let mut buf = self.buf.lock();
            buf.pass = pass;
        }
        self.emit(TraceEvent::PassBegin { pass });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.buf.lock().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the log, leaving it empty (pass tag preserved).
    pub fn take(&self) -> Vec<Tagged> {
        std::mem::take(&mut self.buf.lock().events)
    }

    /// Copy of the log without draining it.
    pub fn snapshot(&self) -> Vec<Tagged> {
        self.buf.lock().events.clone()
    }
}

/// Top-of-stack layer that records the *logical* operation stream —
/// reads, writes, and allocations exactly as the algorithm issued them,
/// on success only — into the sink it installed down the stack, so every
/// layer's own events land in the same log.  A prefetch hint is
/// deliberately untraced: it is not an operation of the model (nothing
/// is charged, the op sequence is unchanged), so traced runs stay
/// representative of the untraced ones the benchmarks time.
#[derive(Debug)]
pub struct Tracing {
    pub(crate) sink: TraceSink,
}

/// `inner` under the trace layer.
///
/// # Examples
///
/// ```
/// use pdisk::{DiskArray, DiskId, Geometry, MemDiskArray, U64Record};
/// use pdisk::trace::{TraceEvent, TracingDiskArray};
///
/// let geom = Geometry::new(2, 4, 1000)?;
/// let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
/// a.alloc_contiguous(DiskId(0), 1)?;
/// let trace = a.take_trace();
/// assert!(matches!(trace[0].event, TraceEvent::Alloc { count: 1, .. }));
/// # Ok::<(), pdisk::PdiskError>(())
/// ```
pub type TracingDiskArray<R, A> = Stack<R, Tracing, A>;

impl<R: Record, A: DiskArray<R>> TracingDiskArray<R, A> {
    /// Wrap `inner`, creating a fresh sink and installing it down the
    /// stack.
    pub fn new(inner: A) -> Self {
        Self::with_sink(inner, TraceSink::new())
    }

    /// Wrap `inner`, recording into an existing `sink`.
    pub fn with_sink(mut inner: A, sink: TraceSink) -> Self {
        inner.install_trace(sink.clone());
        Stack::from_parts(inner, Tracing { sink })
    }

    /// The shared sink.
    pub fn sink(&self) -> &TraceSink {
        &self.layer.sink
    }

    /// Drain the recorded trace.
    pub fn take_trace(&self) -> Vec<Tagged> {
        self.layer.sink.take()
    }
}

impl<R: Record> Layer<R> for Tracing {
    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> Result<u64> {
        let start = inner.alloc_contiguous(disk, count)?;
        self.sink.emit(TraceEvent::Alloc { disk, start, count });
        Ok(start)
    }

    fn install_trace(&mut self, inner: &mut impl DiskArray<R>, sink: TraceSink) {
        self.sink = sink.clone();
        inner.install_trace(sink);
    }

    fn trace_sink<'a>(&'a self, _inner: &'a impl DiskArray<R>) -> Option<&'a TraceSink> {
        Some(&self.sink)
    }

    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        let ticket = inner.submit_read(addrs)?;
        // The logical operation is recorded where it is issued — at
        // submit — so the logical Read stream is position-identical
        // however long the engine leaves the ticket outstanding.
        if !addrs.is_empty() {
            self.sink.emit(TraceEvent::Read {
                addrs: addrs.to_vec(),
            });
        }
        Ok(ticket)
    }

    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket> {
        let addrs: Vec<BlockAddr> = writes.iter().map(|(a, _)| *a).collect();
        let ticket = inner.submit_write(writes)?;
        if !addrs.is_empty() {
            self.sink.emit(TraceEvent::Write { addrs });
        }
        Ok(ticket)
    }

    fn complete_write(&mut self, inner: &mut impl DiskArray<R>, ticket: WriteTicket) -> Result<()> {
        let addrs = ticket.addrs().to_vec();
        inner.complete_write(ticket)?;
        if !addrs.is_empty() {
            self.sink.emit(TraceEvent::WriteDurable { addrs });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Forecast;
    use crate::mem::MemDiskArray;
    use crate::record::U64Record;

    fn blk(keys: &[u64]) -> Block<U64Record> {
        Block::new(
            keys.iter().map(|&k| U64Record(k)).collect(),
            Forecast::Next(u64::MAX),
        )
    }

    #[test]
    fn logical_and_physical_events_interleave_in_order() {
        let geom = Geometry::new(2, 2, 100).unwrap();
        let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
        let o = a.alloc_contiguous(DiskId(0), 2).unwrap();
        a.write(vec![(BlockAddr::new(DiskId(0), o), blk(&[1]))]).unwrap();
        a.read(&[BlockAddr::new(DiskId(0), o)]).unwrap();
        let t = a.take_trace();
        let kinds: Vec<&'static str> = t
            .iter()
            .map(|e| match &e.event {
                TraceEvent::Alloc { .. } => "alloc",
                TraceEvent::PhysWrite { .. } => "pw",
                TraceEvent::Write { .. } => "w",
                TraceEvent::WriteDurable { .. } => "wd",
                TraceEvent::PhysRead { .. } => "pr",
                TraceEvent::Read { .. } => "r",
                _ => "?",
            })
            .collect();
        assert_eq!(kinds, vec!["alloc", "pw", "w", "wd", "pr", "r"]);
        // Sequence numbers are dense and events carry the default pass 0.
        for (i, e) in t.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.pass, 0);
        }
    }

    #[test]
    fn pass_tags_stamp_subsequent_events() {
        let geom = Geometry::new(2, 2, 100).unwrap();
        let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
        a.sink().begin_pass(3);
        a.alloc_contiguous(DiskId(1), 1).unwrap();
        let t = a.take_trace();
        assert!(matches!(t[0].event, TraceEvent::PassBegin { pass: 3 }));
        assert_eq!(t[1].pass, 3);
    }

    #[test]
    fn untraced_backend_is_sink_free() {
        let geom = Geometry::new(2, 2, 100).unwrap();
        let a = MemDiskArray::<U64Record>::new(geom);
        assert!(DiskArray::<U64Record>::trace_sink(&a).is_none());
    }

    #[test]
    fn failed_ops_are_not_recorded_as_logical_events() {
        let geom = Geometry::new(2, 2, 100).unwrap();
        let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
        assert!(a.read(&[BlockAddr::new(DiskId(0), 7)]).is_err());
        assert!(a.take_trace().is_empty());
    }

    #[test]
    fn trace_run_meta_addressing_matches_striped_run() {
        use crate::striping::StripedRun;
        let run = StripedRun {
            start_disk: DiskId(1),
            len_blocks: 9,
            records: 90,
            base_offsets: vec![10, 20, 30],
        };
        let meta = TraceRunMeta {
            start_disk: run.start_disk,
            len_blocks: run.len_blocks,
            base_offsets: run.base_offsets.clone(),
        };
        for i in 0..9 {
            assert_eq!(meta.addr_of(i), run.addr_of(i));
        }
    }
}
