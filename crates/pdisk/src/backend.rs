//! The parallel I/O interface shared by all backends.

use crate::addr::{BlockAddr, DiskId};
use crate::block::Block;
use crate::error::{PdiskError, Result};
use crate::geometry::Geometry;
use crate::pool::BufferPool;
use crate::record::Record;
use crate::stats::IoStats;
use crate::striping::StripedRun;
use crate::trace::TraceSink;

/// The caller half of a written slot's completion: its image buffer
/// travelling back from a per-disk I/O worker, for the completing thread
/// to recycle.
pub(crate) type SlotReply = crate::queue::SlotWait<std::io::Result<Vec<u8>>>;

/// The caller half of a read slot's completion: the block the worker
/// verified and decoded, beside its image buffer (for recycling).
/// The error is typed where it arose — [`PdiskError::Io`] for the
/// transfer, [`PdiskError::Corrupt`] for the slot's content.
pub(crate) type BlockReply<R> = crate::queue::SlotWait<Result<(Block<R>, Vec<u8>)>>;

/// In-progress state of a split-phase read.
pub(crate) enum ReadState<R: Record> {
    /// The backend executed the read eagerly; the blocks are here.
    Ready(Vec<Block<R>>),
    /// The read is in flight on the backend's worker threads; one completion
    /// slot per requested block, in request order.
    Pending(Vec<BlockReply<R>>),
}

/// Handle to a submitted parallel read ([`DiskArray::submit_read`]).
///
/// The ticket must be handed back to [`DiskArray::complete_read`] **on
/// the same array** (or a wrapper stack containing it) to collect the
/// blocks.  The I/O operation was already charged to [`IoStats`] at
/// submit time; dropping a ticket abandons the data but never un-counts
/// the operation — exactly like dropping the result of a blocking read.
pub struct ReadTicket<R: Record> {
    pub(crate) addrs: Vec<BlockAddr>,
    pub(crate) state: ReadState<R>,
    /// How many I/O issues the submit phase consumed (≥ 1).  Backends
    /// always issue once; [`crate::RetryingDiskArray`] records its retry
    /// spend here so the completion phase can share one per-logical-op
    /// attempt budget with the submit instead of starting a fresh one.
    pub(crate) issues: u32,
    /// Set by [`crate::ParityDiskArray`] on a read it forwarded: the
    /// physical addresses the ticket carried below the parity layer.
    /// `addrs` shows the caller's logical addresses while the ticket is
    /// above that layer; completion swaps these back in on the way down.
    pub(crate) phys: Option<Vec<BlockAddr>>,
}

impl<R: Record> ReadTicket<R> {
    pub(crate) fn ready(addrs: Vec<BlockAddr>, blocks: Vec<Block<R>>) -> Self {
        ReadTicket {
            addrs,
            state: ReadState::Ready(blocks),
            issues: 1,
            phys: None,
        }
    }

    pub(crate) fn pending(addrs: Vec<BlockAddr>, replies: Vec<BlockReply<R>>) -> Self {
        ReadTicket {
            addrs,
            state: ReadState::Pending(replies),
            issues: 1,
            phys: None,
        }
    }

    /// Addresses the submitted read targets, in request order.
    pub fn addrs(&self) -> &[BlockAddr] {
        &self.addrs
    }

    /// Whether the I/O is still in flight (as opposed to already
    /// executed eagerly by a synchronous backend).
    pub fn is_pending(&self) -> bool {
        matches!(self.state, ReadState::Pending(_))
    }

    /// The blocks of a read that was served at submit.  A pending ticket
    /// here was issued by some other array: nothing below the caller
    /// left anything in flight.
    pub(crate) fn into_ready(self) -> Result<Vec<Block<R>>> {
        match self.state {
            ReadState::Ready(blocks) => Ok(blocks),
            ReadState::Pending(_) => Err(PdiskError::TicketMismatch),
        }
    }
}

impl<R: Record> std::fmt::Debug for ReadTicket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadTicket")
            .field("addrs", &self.addrs)
            .field("pending", &self.is_pending())
            .finish()
    }
}

/// In-progress state of a split-phase write.
pub(crate) enum WriteState {
    /// The backend executed the write eagerly.
    Ready,
    /// The write is in flight; workers reply with the consumed slot
    /// bytes so they can be recycled into a [`BufferPool`].
    Pending(Vec<SlotReply>),
}

/// Handle to a submitted parallel write ([`DiskArray::submit_write`]).
///
/// Must be handed back to [`DiskArray::complete_write`] on the same
/// array to observe the write's success.  A dropped ticket abandons
/// error reporting, not the write itself — and with it whatever the
/// wrapper layers attached for their completion phase: a parity update
/// that was never committed, a payload that will never be re-issued.
pub struct WriteTicket {
    pub(crate) addrs: Vec<BlockAddr>,
    pub(crate) state: WriteState,
    /// I/O issues the submit phase consumed; see [`ReadTicket`]'s field.
    pub(crate) issues: u32,
    /// The blocks of this write (`Vec<(BlockAddr, Block<R>)>`, erased
    /// because the ticket is not generic), kept by
    /// [`crate::RetryingDiskArray`] so a retryable completion failure
    /// can re-issue the write.
    pub(crate) payload: Option<Box<dyn std::any::Any + Send>>,
    /// The parity update [`crate::ParityDiskArray`] owes this write,
    /// applied once the data completion below it has succeeded.
    pub(crate) parity: Option<crate::parity::ParityCommit>,
}

impl WriteTicket {
    pub(crate) fn ready(addrs: Vec<BlockAddr>) -> Self {
        WriteTicket {
            addrs,
            state: WriteState::Ready,
            issues: 1,
            payload: None,
            parity: None,
        }
    }

    pub(crate) fn pending(addrs: Vec<BlockAddr>, replies: Vec<SlotReply>) -> Self {
        WriteTicket {
            addrs,
            state: WriteState::Pending(replies),
            issues: 1,
            payload: None,
            parity: None,
        }
    }

    /// Addresses the submitted write targets, in request order.
    pub fn addrs(&self) -> &[BlockAddr] {
        &self.addrs
    }

    /// Whether the I/O is still in flight.
    pub fn is_pending(&self) -> bool {
        matches!(self.state, WriteState::Pending(_))
    }

    /// The write-side twin of [`ReadTicket::into_ready`].
    pub(crate) fn into_ready(self) -> Result<()> {
        match self.state {
            WriteState::Ready => Ok(()),
            WriteState::Pending(_) => Err(PdiskError::TicketMismatch),
        }
    }
}

impl std::fmt::Debug for WriteTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteTicket")
            .field("addrs", &self.addrs)
            .field("pending", &self.is_pending())
            .finish()
    }
}

/// What a redundancy layer (e.g. [`crate::parity::ParityDiskArray`])
/// reports about itself: checkpoint manifests record this so a resumed
/// sort can refuse to run against an array with less protection than the
/// one that wrote the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundancyInfo {
    /// Disks participating in each parity stripe (the array's `D`).
    pub stripe_disks: usize,
    /// Disks currently dead, whose blocks are served by reconstruction.
    pub dead: Vec<DiskId>,
}

/// What a [`DiskArray::scrub_block`] pass found (and did) at one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrubOutcome {
    /// The block read back and verified clean.
    Clean,
    /// The block was corrupt and a redundancy layer rewrote it in place
    /// from reconstructed content; it now verifies clean.
    Repaired,
    /// The block is corrupt (or lost) and no layer of the stack can
    /// reconstruct it; the message says why.
    Unrepairable(String),
}

/// An array of `D` independent disks addressed in blocks.
///
/// A transfer is **one** parallel I/O operation of the Vitter–Shriver
/// model: up to one block per disk moves, and exactly one operation is
/// charged to [`IoStats`] regardless of how many disks participate.
/// Backends must reject operations that address a disk twice.
///
/// The protocol is split-phase — [`DiskArray::submit_read`] /
/// [`DiskArray::complete_read`] and the write pair — because the sorters
/// overlap every transfer with merging (§2.1's double buffer, §5.1's
/// `M_W`).  The blocking [`DiskArray::read`] / [`DiskArray::write`] are
/// that pair called back to back, provided here and defined nowhere
/// else: whatever an array or a layer does to a transfer, it does in the
/// pair, and the blocking form inherits it.
pub trait DiskArray<R: Record> {
    /// The machine geometry this array was built for.
    fn geometry(&self) -> Geometry;

    /// One parallel read, waited for: [`DiskArray::submit_read`] then
    /// [`DiskArray::complete_read`].  Returns the blocks in request order.
    fn read(&mut self, addrs: &[BlockAddr]) -> Result<Vec<Block<R>>> {
        let ticket = self.submit_read(addrs)?;
        self.complete_read(ticket)
    }

    /// One parallel write, waited for: [`DiskArray::submit_write`] then
    /// [`DiskArray::complete_write`].
    fn write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<()> {
        let ticket = self.submit_write(writes)?;
        self.complete_write(ticket)
    }

    /// Reserve `count` consecutive block slots on one disk; returns the
    /// offset of the first.
    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64>;

    /// Snapshot of the I/O counters.
    fn stats(&self) -> IoStats;

    /// Zero the I/O counters (e.g. to exclude setup cost from a
    /// measurement).
    fn reset_stats(&mut self);

    /// Redundancy provided by this array, when any layer of the stack
    /// provides one.  Plain backends return `None`; wrappers forward to
    /// their inner array so the answer survives stacking.
    fn redundancy(&self) -> Option<RedundancyInfo> {
        None
    }

    /// Install a shared trace sink.  Backends that support tracing store
    /// the sink and emit [`crate::trace::TraceEvent`]s into it; wrappers
    /// keep a copy for their own layer events and forward the sink down
    /// the stack.  The default ignores the sink (tracing unsupported),
    /// which keeps untraced runs zero-cost.
    fn install_trace(&mut self, sink: TraceSink) {
        let _ = sink;
    }

    /// The installed trace sink, if tracing is active anywhere in the
    /// stack.  `None` (the default) means no events are being recorded.
    fn trace_sink(&self) -> Option<&TraceSink> {
        None
    }

    /// Begin one parallel read without waiting for it: the operation is
    /// charged (and physical trace events emitted) now, the data is
    /// collected later via [`DiskArray::complete_read`].  The latency
    /// between issuing a read and needing its data is what a pipelined
    /// sort overlaps with merging.
    ///
    /// `addrs` must address each disk at most once; an empty request is a
    /// no-op that charges nothing.  A synchronous backend serves the read
    /// here and returns a ready ticket; [`crate::FileDiskArray`] leaves the
    /// per-disk transfers in flight on its worker threads, and the fault,
    /// retry and parity layers forward the pending ticket, so a stack over
    /// the file backend pipelines as the bare array does.
    fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<R>>;

    /// Wait for a submitted read and return its blocks in request
    /// order.  Fails with [`PdiskError::TicketMismatch`] if handed a
    /// still-pending ticket issued by a different backend.
    fn complete_read(&mut self, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        ticket.into_ready()
    }

    /// Begin one parallel write without waiting for it; the operation
    /// is charged now, completion is observed via
    /// [`DiskArray::complete_write`].  `writes` must address each disk at
    /// most once; an empty request is a no-op that charges nothing.
    fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<WriteTicket>;

    /// Wait for a submitted write and surface any I/O error.
    fn complete_write(&mut self, ticket: WriteTicket) -> Result<()> {
        ticket.into_ready()
    }

    /// Speculative read-ahead hint: the caller predicts it will read
    /// these blocks soon (in SRM, straight from the §4 forecasting
    /// tables).  A backend may start fetching them in the background so
    /// a later [`DiskArray::read`] / [`DiskArray::submit_read`] of the
    /// same address completes without waiting on the device.
    ///
    /// This is a *hint with no semantics*: it is not a parallel I/O
    /// operation of the model, charges nothing to [`IoStats`], emits no
    /// trace events, and may be ignored entirely — the default does
    /// exactly that, so simulation backends degrade to depth-1
    /// pipelining unchanged.  [`crate::FileDiskArray`] overrides it
    /// with a per-worker speculative cache; wrappers forward the hint
    /// (translating addresses where they remap them) unless they serve
    /// reads some other way than by reading the hinted slot.
    fn prefetch(&mut self, addrs: &[BlockAddr]) {
        let _ = addrs;
    }

    /// Durability barrier: flush everything written so far to stable
    /// storage before returning.  Simulation backends are trivially
    /// durable, so the default is a no-op; [`crate::FileDiskArray`]
    /// overrides it with a per-disk `fsync`, and redundancy layers also
    /// flush their own sidecar state (e.g. the parity store).  Checkpoint
    /// writers call this *before* publishing a manifest so the manifest
    /// never references data that could be lost to a crash.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    /// Verify one block's integrity, repairing it in place when a
    /// redundancy layer can.  The default merely reads the block (one
    /// width-1 parallel operation, charged as usual): a clean read is
    /// [`ScrubOutcome::Clean`], a checksum failure is
    /// [`ScrubOutcome::Unrepairable`] because a plain backend has no
    /// second copy to heal from.  [`crate::ParityDiskArray`] overrides
    /// this to reconstruct the frame from parity and rewrite it.
    /// Non-integrity errors (bad address, dead process) propagate.
    fn scrub_block(&mut self, addr: BlockAddr) -> Result<ScrubOutcome> {
        match self.read(&[addr]) {
            Ok(_) => Ok(ScrubOutcome::Clean),
            Err(e @ PdiskError::Corrupt(_)) => Ok(ScrubOutcome::Unrepairable(e.to_string())),
            Err(e) => Err(e),
        }
    }

    /// Share a recycling buffer pool with this array.  Backends that
    /// allocate block-sized buffers draw from (and return to) the pool;
    /// wrappers forward it down the stack.  The default ignores the
    /// pool — simulation backends that never touch block-sized heap
    /// memory have nothing to recycle.
    fn install_pool(&mut self, pool: BufferPool<R>) {
        let _ = pool;
    }

    /// The installed buffer pool, if this stack recycles buffers.
    fn buffer_pool(&self) -> Option<&BufferPool<R>> {
        None
    }

    /// What one block costs the backend's device, by which a sorter
    /// chooses its run formation (DESIGN.md §14.8): read off the pool
    /// handle the backend lends out, so every wrapper that forwards the
    /// pool forwards it.
    fn device_time(&self) -> std::time::Duration {
        self.buffer_pool().map_or(std::time::Duration::ZERO, BufferPool::device_time)
    }

    /// Reserve space for a run of `len_blocks` blocks (holding `records`
    /// records) striped cyclically from `start_disk` (§3's layout).
    ///
    /// Provided for all backends in terms of [`DiskArray::alloc_contiguous`].
    fn alloc_run(&mut self, start_disk: DiskId, len_blocks: u64, records: u64) -> Result<StripedRun> {
        let d = self.geometry().d;
        let mut base_offsets = vec![0u64; d];
        for disk in 0..d {
            let disk = DiskId::from_index(disk);
            let run = StripedRun {
                start_disk,
                len_blocks,
                records,
                base_offsets: vec![0; d],
            };
            let count = run.blocks_on_disk(disk);
            if count > 0 {
                base_offsets[disk.index()] = self.alloc_contiguous(disk, count)?;
            }
        }
        Ok(StripedRun {
            start_disk,
            len_blocks,
            records,
            base_offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDiskArray;
    use crate::record::U64Record;

    #[test]
    fn alloc_run_places_every_block_in_its_reservation() {
        let g = Geometry::new(3, 4, 1000).unwrap();
        let mut array: MemDiskArray<U64Record> = MemDiskArray::new(g);
        let a = array.alloc_run(DiskId(1), 8, 32).unwrap();
        let b = array.alloc_run(DiskId(2), 5, 20).unwrap();
        // Reservations for distinct runs must not overlap: collect all slots.
        let mut slots = std::collections::HashSet::new();
        for run in [&a, &b] {
            for i in 0..run.len_blocks {
                assert!(slots.insert(run.addr_of(i)), "overlapping allocation at block {i}");
            }
        }
        assert_eq!(slots.len(), 13);
    }
}
