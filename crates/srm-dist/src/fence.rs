//! Storage-level fencing: the STONITH analogue for a suspected node.
//!
//! Failure detectors lie: a partition can make a perfectly healthy shard
//! look dead.  Before spawning a replacement on the shard's directory,
//! the coordinator **fires the old instance's fence** — after which every
//! disk operation of the superseded instance fails with a non-retryable
//! error, so it can never write to (or hold locks on) storage its
//! successor now owns.  Combined with epoch-stamped envelopes (stale
//! epochs discarded) this makes a false suspicion harmless: the old
//! instance aborts at its next I/O, the replacement resumes from the
//! journaled checkpoint, and the output is byte-identical.

use pdisk::backend::{ReadTicket, RedundancyInfo, ScrubOutcome, WriteTicket};
use pdisk::trace::TraceSink;
use pdisk::{
    Block, BlockAddr, BufferPool, DiskArray, DiskId, Geometry, IoStats, PdiskError, Record,
};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cloneable fence token: the coordinator keeps one clone, the fenced
/// array holds another.
#[derive(Debug, Clone, Default)]
pub struct FenceFlag(Arc<AtomicBool>);

impl FenceFlag {
    /// A fence that has not fired.
    pub fn new() -> Self {
        FenceFlag::default()
    }

    /// Fire the fence: every subsequent disk operation of the wrapped
    /// array fails. Irreversible.
    pub fn fire(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Has the fence fired?
    pub fn is_fired(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A [`DiskArray`] wrapper that refuses all I/O once its fence fires.
#[derive(Debug)]
pub struct FencedDiskArray<R: Record, A: DiskArray<R>> {
    inner: A,
    fence: FenceFlag,
    _records: PhantomData<fn() -> R>,
}

impl<R: Record, A: DiskArray<R>> FencedDiskArray<R, A> {
    /// Wrap `inner`; I/O flows until `fence.fire()`.
    pub fn new(inner: A, fence: FenceFlag) -> Self {
        FencedDiskArray {
            inner,
            fence,
            _records: PhantomData,
        }
    }

    /// The wrapped array.
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    fn check(&self) -> Result<(), PdiskError> {
        if self.fence.is_fired() {
            Err(PdiskError::Unrecoverable(
                "node fenced: a replacement owns this storage".into(),
            ))
        } else {
            Ok(())
        }
    }
}

impl<R: Record, A: DiskArray<R>> DiskArray<R> for FencedDiskArray<R, A> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn read(&mut self, addrs: &[BlockAddr]) -> Result<Vec<Block<R>>, PdiskError> {
        self.check()?;
        self.inner.read(addrs)
    }

    fn write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<(), PdiskError> {
        self.check()?;
        self.inner.write(writes)
    }

    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64, PdiskError> {
        self.check()?;
        self.inner.alloc_contiguous(disk, count)
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn redundancy(&self) -> Option<RedundancyInfo> {
        self.inner.redundancy()
    }

    fn install_trace(&mut self, sink: TraceSink) {
        self.inner.install_trace(sink)
    }

    fn trace_sink(&self) -> Option<&TraceSink> {
        self.inner.trace_sink()
    }

    fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<R>, PdiskError> {
        self.check()?;
        self.inner.submit_read(addrs)
    }

    fn complete_read(&mut self, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>, PdiskError> {
        self.check()?;
        self.inner.complete_read(ticket)
    }

    fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<WriteTicket, PdiskError> {
        self.check()?;
        self.inner.submit_write(writes)
    }

    fn complete_write(&mut self, ticket: WriteTicket) -> Result<(), PdiskError> {
        self.check()?;
        self.inner.complete_write(ticket)
    }

    fn prefetch(&mut self, addrs: &[BlockAddr]) {
        if self.check().is_ok() {
            self.inner.prefetch(addrs)
        }
    }

    fn sync(&mut self) -> Result<(), PdiskError> {
        self.check()?;
        self.inner.sync()
    }

    fn scrub_block(&mut self, addr: BlockAddr) -> Result<ScrubOutcome, PdiskError> {
        self.check()?;
        self.inner.scrub_block(addr)
    }

    fn install_pool(&mut self, pool: BufferPool<R>) {
        self.inner.install_pool(pool)
    }

    fn buffer_pool(&self) -> Option<&BufferPool<R>> {
        self.inner.buffer_pool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::{MemDiskArray, U64Record};

    #[test]
    fn fence_cuts_off_all_io_irreversibly() {
        let geom = Geometry::new(2, 4, 64).unwrap();
        let fence = FenceFlag::new();
        let mut arr: FencedDiskArray<U64Record, _> =
            FencedDiskArray::new(MemDiskArray::new(geom), fence.clone());
        let off = arr.alloc_contiguous(DiskId(0), 1).unwrap();
        let addr = BlockAddr {
            disk: DiskId(0),
            offset: off,
        };
        let block = Block::new(vec![U64Record(7)], pdisk::Forecast::Next(0));
        arr.write(vec![(addr, block)]).unwrap();
        assert!(arr.read(&[addr]).is_ok());
        assert!(!fence.is_fired());

        fence.fire();
        assert!(fence.is_fired());
        let err = arr.read(&[addr]).unwrap_err();
        assert!(
            matches!(err, PdiskError::Unrecoverable(_)),
            "fenced I/O must be non-retryable, got {err}"
        );
        assert!(!err.is_retryable());
        assert!(arr.write(vec![]).is_err(), "even empty writes are fenced");
        assert!(arr.sync().is_err());
        // Geometry and stats remain observable (diagnostics only).
        assert_eq!(arr.geometry(), geom);
    }
}
