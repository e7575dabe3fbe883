//! A recording `DiskArray` layer shared by the integration suites: it
//! forwards every trait method, the defaulted ones included, logs the
//! name of each call it sees, counts how many of the tickets passing up
//! through it are still in flight (and the most write tickets that ever
//! were), and counts the operations issued while an earlier ticket had
//! not been completed yet.  It is a direct `impl DiskArray`, not a
//! `pdisk::Layer`, so that it observes the forwarding point from outside.
//! Beside it, the layer with no overrides.
#![allow(dead_code)] // each suite uses its own half

use pdisk::backend::{ReadTicket, RedundancyInfo, ScrubOutcome, WriteTicket};
use pdisk::{
    Block, BlockAddr, BufferPool, DiskArray, DiskId, Geometry, IoStats, Result, TraceSink,
    U64Record,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

type Rec = U64Record;
pub type Log = Rc<RefCell<BTreeSet<&'static str>>>;

/// The layer that intercepts nothing: every hook is `pdisk::Layer`'s
/// default, so a `Stack` of it is the forwarding point and nothing else.
pub struct Transparent;

impl<R: pdisk::Record> pdisk::Layer<R> for Transparent {}

pub struct Probe<A> {
    pub inner: A,
    /// Names of the trait methods called since the log was last cleared.
    pub log: Log,
    /// Tickets handed up by `inner`, and how many of them were pending.
    pub tickets: u64,
    pub pending: u64,
    /// Tickets handed up and not completed yet.
    pub outstanding: u64,
    /// Operations (blocking or split-phase) issued while `outstanding`
    /// was non-zero: 0 means every ticket was completed where it was
    /// submitted.
    pub overlapped: u64,
    /// Write tickets handed up and not completed yet, and the most there
    /// ever were.
    pub writes_out: u64,
    pub max_writes_out: u64,
}

impl<A> Probe<A> {
    pub fn new(inner: A) -> Self {
        Probe {
            inner,
            log: Log::default(),
            tickets: 0,
            pending: 0,
            outstanding: 0,
            overlapped: 0,
            writes_out: 0,
            max_writes_out: 0,
        }
    }

    fn hit(&self, method: &'static str) {
        self.log.borrow_mut().insert(method);
    }

    fn issue(&mut self) {
        self.overlapped += u64::from(self.outstanding > 0);
    }

    fn saw_ticket(&mut self, pending: bool) {
        self.tickets += 1;
        self.pending += u64::from(pending);
        self.outstanding += 1;
    }
}

impl<A: DiskArray<Rec>> DiskArray<Rec> for Probe<A> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }
    fn read(&mut self, addrs: &[BlockAddr]) -> Result<Vec<Block<Rec>>> {
        self.hit("read");
        self.issue();
        self.inner.read(addrs)
    }
    fn write(&mut self, writes: Vec<(BlockAddr, Block<Rec>)>) -> Result<()> {
        self.hit("write");
        self.issue();
        self.inner.write(writes)
    }
    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
        self.inner.alloc_contiguous(disk, count)
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn redundancy(&self) -> Option<RedundancyInfo> {
        self.hit("redundancy");
        self.inner.redundancy()
    }
    fn install_trace(&mut self, sink: TraceSink) {
        self.hit("install_trace");
        self.inner.install_trace(sink)
    }
    fn trace_sink(&self) -> Option<&TraceSink> {
        self.hit("trace_sink");
        self.inner.trace_sink()
    }
    fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<Rec>> {
        self.hit("submit_read");
        self.issue();
        let ticket = self.inner.submit_read(addrs)?;
        self.saw_ticket(ticket.is_pending());
        Ok(ticket)
    }
    fn complete_read(&mut self, ticket: ReadTicket<Rec>) -> Result<Vec<Block<Rec>>> {
        self.hit("complete_read");
        self.outstanding = self.outstanding.saturating_sub(1);
        self.inner.complete_read(ticket)
    }
    fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<Rec>)>) -> Result<WriteTicket> {
        self.hit("submit_write");
        self.issue();
        let ticket = self.inner.submit_write(writes)?;
        self.saw_ticket(ticket.is_pending());
        self.writes_out += 1;
        self.max_writes_out = self.max_writes_out.max(self.writes_out);
        Ok(ticket)
    }
    fn complete_write(&mut self, ticket: WriteTicket) -> Result<()> {
        self.hit("complete_write");
        self.outstanding = self.outstanding.saturating_sub(1);
        self.writes_out = self.writes_out.saturating_sub(1);
        self.inner.complete_write(ticket)
    }
    fn prefetch(&mut self, addrs: &[BlockAddr]) {
        self.hit("prefetch");
        self.inner.prefetch(addrs)
    }
    fn sync(&mut self) -> Result<()> {
        self.hit("sync");
        self.inner.sync()
    }
    fn scrub_block(&mut self, addr: BlockAddr) -> Result<ScrubOutcome> {
        self.hit("scrub_block");
        self.inner.scrub_block(addr)
    }
    fn install_pool(&mut self, pool: BufferPool<Rec>) {
        self.hit("install_pool");
        self.inner.install_pool(pool)
    }
    fn buffer_pool(&self) -> Option<&BufferPool<Rec>> {
        self.hit("buffer_pool");
        self.inner.buffer_pool()
    }
}
