//! The fence sits *under* the retry layer.
//!
//! A shard's stack is `pdisk::StackSpec::build(cluster, Fenced(flag))`:
//! the fence goes in the builder's slot, below `Retrying`.  Were it above
//! (where a shard once nested it by hand), a write whose completion fails
//! with a retryable error *after* the fence fired would be re-issued by
//! the retry layer without passing the fence again — a superseded
//! instance writing to storage its replacement owns, which DESIGN §12.3
//! says cannot happen.

use pdisk::{
    Block, BlockAddr, DiskArray, DiskId, Forecast, Geometry, Layer, MemDiskArray, PdiskError,
    RetryPolicy, Stack, StackSpec, U64Record, WriteTicket,
};
use srm_dist::{FenceFlag, Fenced};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

/// The device under the stack: counts the writes that reach the disks,
/// and while the first one is in flight the coordinator fences the node
/// and the completion comes back as a (retryable) I/O error.
struct FencedMidWrite {
    fence: FenceFlag,
    landed: Rc<Cell<u32>>,
}

impl Layer<U64Record> for FencedMidWrite {
    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<U64Record>,
        writes: Vec<(BlockAddr, Block<U64Record>)>,
    ) -> pdisk::Result<WriteTicket> {
        self.landed.set(self.landed.get() + 1);
        inner.submit_write(writes)
    }

    fn complete_write(&mut self, inner: &mut impl DiskArray<U64Record>, ticket: WriteTicket) -> pdisk::Result<()> {
        inner.complete_write(ticket)?;
        if self.fence.is_fired() {
            return Ok(());
        }
        self.fence.fire();
        Err(PdiskError::Io(std::io::Error::other("completion lost")))
    }
}

#[test]
fn a_retry_re_issue_does_not_pass_a_fired_fence() {
    let fence = FenceFlag::new();
    let landed = Rc::new(Cell::new(0));
    let device = Stack::from_parts(
        MemDiskArray::<U64Record>::new(Geometry::new(2, 2, 64).unwrap()),
        FencedMidWrite { fence: fence.clone(), landed: landed.clone() },
    );
    let spec = StackSpec {
        retry: Some(RetryPolicy::new(4, Duration::ZERO)),
        ..StackSpec::default()
    };
    let mut node = spec.build(device, Fenced(fence.clone())).unwrap();

    let slot = node.alloc_contiguous(DiskId(0), 1).unwrap();
    let block = Block::new(vec![U64Record(7)], Forecast::Next(u64::MAX));
    let err = node.write(vec![(BlockAddr::new(DiskId(0), slot), block)]).unwrap_err();

    assert!(fence.is_fired());
    assert!(
        matches!(&err, PdiskError::Unrecoverable(why) if why.contains("node fenced")),
        "the re-issue must be refused by the fence, got {err}"
    );
    assert_eq!(landed.get(), 1, "a fenced node wrote to storage its replacement owns");
}
