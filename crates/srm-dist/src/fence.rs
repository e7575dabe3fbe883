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

use pdisk::backend::{ReadTicket, ScrubOutcome, WriteTicket};
use pdisk::{Block, BlockAddr, DiskArray, DiskId, Layer, PdiskError, Record, Stack};
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

/// The layer that refuses all I/O once its fence fires.  Geometry, stats
/// and the trace stay observable (diagnostics only).
#[derive(Debug)]
pub struct Fenced(pub FenceFlag);

/// `inner` behind a fence; I/O flows until `flag.fire()`.  A shard puts
/// `Fenced(flag)` in the slot of `pdisk::StackSpec::build`, under the
/// retry layer, so a re-issued operation passes the fence again.
pub type FencedDiskArray<R, A> = Stack<R, Fenced, A>;

impl Fenced {
    fn check(&self) -> Result<(), PdiskError> {
        if self.0.is_fired() {
            Err(PdiskError::Unrecoverable(
                "node fenced: a replacement owns this storage".into(),
            ))
        } else {
            Ok(())
        }
    }
}

// A blocking operation is its submit then its complete, so it is checked
// on both sides of the wait.
impl<R: Record> Layer<R> for Fenced {
    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> Result<u64, PdiskError> {
        self.check()?;
        inner.alloc_contiguous(disk, count)
    }

    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>, PdiskError> {
        self.check()?;
        inner.submit_read(addrs)
    }

    fn complete_read(&mut self, inner: &mut impl DiskArray<R>, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>, PdiskError> {
        self.check()?;
        inner.complete_read(ticket)
    }

    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket, PdiskError> {
        self.check()?;
        inner.submit_write(writes)
    }

    fn complete_write(&mut self, inner: &mut impl DiskArray<R>, ticket: WriteTicket) -> Result<(), PdiskError> {
        self.check()?;
        inner.complete_write(ticket)
    }

    fn prefetch(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) {
        if self.check().is_ok() {
            inner.prefetch(addrs)
        }
    }

    fn sync(&mut self, inner: &mut impl DiskArray<R>) -> Result<(), PdiskError> {
        self.check()?;
        inner.sync()
    }

    fn scrub_block(&mut self, inner: &mut impl DiskArray<R>, addr: BlockAddr) -> Result<ScrubOutcome, PdiskError> {
        self.check()?;
        inner.scrub_block(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::{Geometry, MemDiskArray, U64Record};

    #[test]
    fn fence_cuts_off_all_io_irreversibly() {
        let geom = Geometry::new(2, 4, 64).unwrap();
        let fence = FenceFlag::new();
        let mut arr: FencedDiskArray<U64Record, _> =
            Stack::from_parts(MemDiskArray::new(geom), Fenced(fence.clone()));
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
