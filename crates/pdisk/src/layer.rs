//! The wrapper stack's one forwarding point.
//!
//! Everything stacked on a backend — fault injection, retry, parity,
//! crash points, tracing, clustering, and the fence and misclassifier
//! other crates add — must pass the [`DiskArray`] interface through
//! unchanged except where it acts.  A [`Layer`] is such a wrapper's state
//! plus the operations it intercepts: one hook per `DiskArray` operation,
//! each handed the array below and each defaulting to "call the array
//! below", so a layer's `impl` lists exactly what it changes.  [`Stack`]
//! owns one layer and the array under it, and is the only
//! `impl DiskArray` that forwards: a layer cannot forget a method, and a
//! new one is its state and its hooks.
//!
//! Hooks are *around* the array below, not before/after pairs: a hook
//! receives `inner` and calls it zero or more times.  Retry loops around
//! the call below, parity's write issues several and absorbs a permanent
//! fault between them, a fired fence never calls down at all.
//!
//! There is no hook for the blocking [`DiskArray::read`] /
//! [`DiskArray::write`]: they are the trait's provided composition of the
//! split-phase pair, so a blocking call on a [`Stack`] runs the top
//! layer's submit hook and then its complete hook, and every layer below
//! sees the pair.  What a layer does to a transfer it does once.

use std::marker::PhantomData;

use crate::addr::{BlockAddr, DiskId};
use crate::backend::{DiskArray, ReadTicket, RedundancyInfo, ScrubOutcome, WriteTicket};
use crate::block::Block;
use crate::error::Result;
use crate::geometry::Geometry;
use crate::pool::BufferPool;
use crate::record::Record;
use crate::stats::IoStats;
use crate::trace::TraceSink;

/// One wrapper's share of the [`DiskArray`] interface: a hook per
/// operation, named and typed as the trait's method plus the array below
/// (see the module docs).  Ticket-carried state (`issues`, `phys`,
/// `payload`, the parity commit) is how a layer's submit hook talks to
/// its complete hook.
pub trait Layer<R: Record> {
    /// [`DiskArray::geometry`] as seen above this layer.
    fn geometry(&self, inner: &impl DiskArray<R>) -> Geometry {
        inner.geometry()
    }

    /// [`DiskArray::alloc_contiguous`].
    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> Result<u64> {
        inner.alloc_contiguous(disk, count)
    }

    /// [`DiskArray::stats`]; a layer with counters of its own adds them
    /// to the snapshot from below.
    fn stats(&self, inner: &impl DiskArray<R>) -> IoStats {
        inner.stats()
    }

    /// [`DiskArray::reset_stats`].
    fn reset_stats(&mut self, inner: &mut impl DiskArray<R>) {
        inner.reset_stats()
    }

    /// [`DiskArray::redundancy`].
    fn redundancy(&self, inner: &impl DiskArray<R>) -> Option<RedundancyInfo> {
        inner.redundancy()
    }

    /// [`DiskArray::install_trace`].  Layers emit their own events into
    /// the sink [`DiskArray::trace_sink`] reports from below, so only a
    /// layer that owns a sink keeps a copy.
    fn install_trace(&mut self, inner: &mut impl DiskArray<R>, sink: TraceSink) {
        inner.install_trace(sink)
    }

    /// [`DiskArray::trace_sink`].
    fn trace_sink<'a>(&'a self, inner: &'a impl DiskArray<R>) -> Option<&'a TraceSink> {
        inner.trace_sink()
    }

    /// [`DiskArray::submit_read`].
    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        inner.submit_read(addrs)
    }

    /// [`DiskArray::complete_read`].
    fn complete_read(&mut self, inner: &mut impl DiskArray<R>, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        inner.complete_read(ticket)
    }

    /// [`DiskArray::submit_write`].
    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket> {
        inner.submit_write(writes)
    }

    /// [`DiskArray::complete_write`].
    fn complete_write(&mut self, inner: &mut impl DiskArray<R>, ticket: WriteTicket) -> Result<()> {
        inner.complete_write(ticket)
    }

    /// [`DiskArray::prefetch`]: a hint is not an operation, so a layer
    /// that counts or numbers operations lets it pass.
    fn prefetch(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) {
        inner.prefetch(addrs)
    }

    /// [`DiskArray::sync`].
    fn sync(&mut self, inner: &mut impl DiskArray<R>) -> Result<()> {
        inner.sync()
    }

    /// [`DiskArray::scrub_block`]: verification belongs to the media and
    /// the redundancy layer, so every other layer lets it pass.
    fn scrub_block(&mut self, inner: &mut impl DiskArray<R>, addr: BlockAddr) -> Result<ScrubOutcome> {
        inner.scrub_block(addr)
    }
}

/// The empty slot of [`crate::StackSpec::build`]: every default hook.
impl<R: Record> Layer<R> for () {}

/// A layer that may be absent: `None` is every default hook, `Some(l)` is
/// `l`.  This is what lets [`crate::StackSpec::build`] return one type
/// whichever wrappers are switched on — an absent wrapper is a value (and
/// a predictable branch per operation), not another stack type with the
/// sorters compiled again for it.
impl<R: Record, L: Layer<R>> Layer<R> for Option<L> {
    fn geometry(&self, inner: &impl DiskArray<R>) -> Geometry {
        match self {
            Some(l) => l.geometry(inner),
            None => inner.geometry(),
        }
    }

    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> Result<u64> {
        match self {
            Some(l) => l.alloc_contiguous(inner, disk, count),
            None => inner.alloc_contiguous(disk, count),
        }
    }

    fn stats(&self, inner: &impl DiskArray<R>) -> IoStats {
        match self {
            Some(l) => l.stats(inner),
            None => inner.stats(),
        }
    }

    fn reset_stats(&mut self, inner: &mut impl DiskArray<R>) {
        match self {
            Some(l) => l.reset_stats(inner),
            None => inner.reset_stats(),
        }
    }

    fn redundancy(&self, inner: &impl DiskArray<R>) -> Option<RedundancyInfo> {
        match self {
            Some(l) => l.redundancy(inner),
            None => inner.redundancy(),
        }
    }

    fn install_trace(&mut self, inner: &mut impl DiskArray<R>, sink: TraceSink) {
        match self {
            Some(l) => l.install_trace(inner, sink),
            None => inner.install_trace(sink),
        }
    }

    fn trace_sink<'a>(&'a self, inner: &'a impl DiskArray<R>) -> Option<&'a TraceSink> {
        match self {
            Some(l) => l.trace_sink(inner),
            None => inner.trace_sink(),
        }
    }

    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        match self {
            Some(l) => l.submit_read(inner, addrs),
            None => inner.submit_read(addrs),
        }
    }

    fn complete_read(&mut self, inner: &mut impl DiskArray<R>, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        match self {
            Some(l) => l.complete_read(inner, ticket),
            None => inner.complete_read(ticket),
        }
    }

    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket> {
        match self {
            Some(l) => l.submit_write(inner, writes),
            None => inner.submit_write(writes),
        }
    }

    fn complete_write(&mut self, inner: &mut impl DiskArray<R>, ticket: WriteTicket) -> Result<()> {
        match self {
            Some(l) => l.complete_write(inner, ticket),
            None => inner.complete_write(ticket),
        }
    }

    fn prefetch(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) {
        match self {
            Some(l) => l.prefetch(inner, addrs),
            None => inner.prefetch(addrs),
        }
    }

    fn sync(&mut self, inner: &mut impl DiskArray<R>) -> Result<()> {
        match self {
            Some(l) => l.sync(inner),
            None => inner.sync(),
        }
    }

    fn scrub_block(&mut self, inner: &mut impl DiskArray<R>, addr: BlockAddr) -> Result<ScrubOutcome> {
        match self {
            Some(l) => l.scrub_block(inner, addr),
            None => inner.scrub_block(addr),
        }
    }
}

/// `layer` stacked on `inner`: the one [`DiskArray`] every wrapper is.
/// Each wrapper is an alias of this (`RetryingDiskArray<R, A>` is
/// `Stack<R, Retrying, A>`) with its constructor and its own public
/// methods as inherent methods on the alias.
#[derive(Debug)]
pub struct Stack<R, L, A> {
    pub(crate) layer: L,
    pub(crate) inner: A,
    _records: PhantomData<fn() -> R>,
}

impl<R: Record, L: Layer<R>, A: DiskArray<R>> Stack<R, L, A> {
    /// Stack `layer` on `inner`.  The layers of this crate have
    /// constructors of their own on their alias; this is the constructor
    /// of a layer another crate defines.
    pub fn from_parts(inner: A, layer: L) -> Self {
        Stack {
            layer,
            inner,
            _records: PhantomData,
        }
    }

    /// The array below this layer.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Mutable access to the array below, e.g. to reach a fault model or
    /// fail a disk in a layer further down.
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    /// Unwrap: drop the layer's state, keep the array below.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<R: Record, L: Layer<R>, A: DiskArray<R>> DiskArray<R> for Stack<R, L, A> {
    fn geometry(&self) -> Geometry {
        self.layer.geometry(&self.inner)
    }

    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
        self.layer.alloc_contiguous(&mut self.inner, disk, count)
    }

    fn stats(&self) -> IoStats {
        self.layer.stats(&self.inner)
    }

    fn reset_stats(&mut self) {
        self.layer.reset_stats(&mut self.inner)
    }

    fn redundancy(&self) -> Option<RedundancyInfo> {
        self.layer.redundancy(&self.inner)
    }

    fn install_trace(&mut self, sink: TraceSink) {
        self.layer.install_trace(&mut self.inner, sink)
    }

    fn trace_sink(&self) -> Option<&TraceSink> {
        self.layer.trace_sink(&self.inner)
    }

    fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        self.layer.submit_read(&mut self.inner, addrs)
    }

    fn complete_read(&mut self, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        self.layer.complete_read(&mut self.inner, ticket)
    }

    fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<WriteTicket> {
        self.layer.submit_write(&mut self.inner, writes)
    }

    fn complete_write(&mut self, ticket: WriteTicket) -> Result<()> {
        self.layer.complete_write(&mut self.inner, ticket)
    }

    fn prefetch(&mut self, addrs: &[BlockAddr]) {
        self.layer.prefetch(&mut self.inner, addrs)
    }

    fn sync(&mut self) -> Result<()> {
        self.layer.sync(&mut self.inner)
    }

    fn scrub_block(&mut self, addr: BlockAddr) -> Result<ScrubOutcome> {
        self.layer.scrub_block(&mut self.inner, addr)
    }

    // No layer acts on the buffer pool: it belongs to the backend that
    // allocates block-sized buffers, so the pair skips the layer.
    fn install_pool(&mut self, pool: BufferPool<R>) {
        self.inner.install_pool(pool)
    }

    fn buffer_pool(&self) -> Option<&BufferPool<R>> {
        self.inner.buffer_pool()
    }
}
