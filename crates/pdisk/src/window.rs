//! Ticket windows: bounded queues of split-phase operations in flight.
//!
//! Everything that streams stripes through a [`DiskArray`] — run output,
//! input staging, reading a run back — issues the same operations in the
//! same order however many of them it leaves outstanding; only where
//! completion waits differs.  [`WriteBehind`] is that queue for writes,
//! [`StripeWindow`] for the reads of one striped run, and [`read_run`] the
//! whole-run read-back built on it.  Both sorters and the distributed
//! shards use these instead of holding tickets by hand.

use std::collections::VecDeque;

use crate::addr::BlockAddr;
use crate::backend::{DiskArray, ReadTicket, WriteTicket};
use crate::block::Block;
use crate::error::Result;
use crate::file::WRITE_BEHIND_LIMIT;
use crate::record::Record;
use crate::striping::StripedRun;

/// A bounded queue of parallel writes in flight, oldest first: the one
/// place that holds the write-behind depth to [`WRITE_BEHIND_LIMIT`] —
/// the torn-write window [`crate::FileDiskArray`] recovery tolerates is
/// sized to match — for run output and input staging, SRM's and DSM's
/// alike.
///
/// A write that fails, at submit or at completion, quiesces the queue
/// before the error is returned: the tickets still in flight are
/// abandoned, not completed ([`WriteBehind::abandon`]).
#[derive(Debug)]
pub struct WriteBehind {
    /// Writes that may stay in flight after a submit.
    window: usize,
    tickets: VecDeque<WriteTicket>,
}

impl WriteBehind {
    /// A queue that leaves up to `depth` writes in flight after a submit
    /// (capped at [`WRITE_BEHIND_LIMIT`]): 0 completes each write where it
    /// was submitted, 1 is the double buffer — complete the previous
    /// stripe, submit this one — that DSM's two-stripe output budget
    /// (eq. 41) allows, [`WRITE_BEHIND_LIMIT`] is what SRM runs pipelined.
    pub fn new(depth: usize) -> Self {
        WriteBehind {
            window: depth.min(WRITE_BEHIND_LIMIT),
            tickets: VecDeque::new(),
        }
    }

    /// Retire the oldest writes until this one fits the window, put it in
    /// flight, and leave at most `window` outstanding — none at window 0,
    /// where the write is retired at once.  The submit (where the
    /// operation is charged and traced) happens at the caller's position
    /// either way, so the I/O sequence does not depend on the window —
    /// only where completion waits does.  Completions happen
    /// oldest-first, so durability order matches submission order.
    pub fn submit<R: Record, A: DiskArray<R>>(
        &mut self,
        array: &mut A,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<()> {
        while self.tickets.len() >= self.window.max(1) {
            self.retire_oldest(array)?;
        }
        let ticket = array.submit_write(writes);
        let ticket = self.quiesce_on_error(ticket)?;
        self.tickets.push_back(ticket);
        while self.tickets.len() > self.window {
            self.retire_oldest(array)?;
        }
        Ok(())
    }

    /// Complete the oldest in-flight write, if any.
    fn retire_oldest<R: Record, A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        match self.tickets.pop_front() {
            Some(oldest) => {
                let done = array.complete_write(oldest);
                self.quiesce_on_error(done)
            }
            None => Ok(()),
        }
    }

    fn quiesce_on_error<T>(&mut self, result: Result<T>) -> Result<T> {
        if result.is_err() {
            self.abandon();
        }
        result
    }

    /// Complete every write still in flight, oldest first.  (Not named
    /// `drain`: srmlint's lock pass binds an unresolved `.drain(..)` — a
    /// `Vec::drain` under a lock — to every workspace method of that
    /// name, and would draw this one's I/O under the caller's lock.)
    pub fn complete_all<R: Record, A: DiskArray<R>>(&mut self, array: &mut A) -> Result<()> {
        while !self.tickets.is_empty() {
            self.retire_oldest(array)?;
        }
        Ok(())
    }

    /// Abandon all tickets without completing them.
    ///
    /// Error paths only — a failed write here, or any other failure of
    /// the caller (see `srm_core`'s `Merger::quiesce`): the submitted
    /// writes may or may not have landed — in a real crash that is exactly
    /// a torn-write window — and whatever a wrapper attached to a ticket
    /// for its completion phase (a parity commit, a retry payload) goes
    /// with it.  Their traces show `Write` with no `WriteDurable`, so the
    /// modelcheck durability invariant rejects any replay that reads
    /// them, and resume rewrites the frames from the last durable
    /// checkpoint.
    pub fn abandon(&mut self) {
        self.tickets.clear();
    }
}

/// Parallel reads [`read_run`] keeps in flight: one stripe being decoded
/// while [`WRITE_BEHIND_LIMIT`] more keep every disk's queue fed.
const READ_BACK_DEPTH: usize = WRITE_BEHIND_LIMIT + 1;

/// The stripe loop over a range of one run's blocks: consecutive groups
/// of at most `D` blocks — which the cyclic striping puts on `D` distinct
/// disks, so each group is one legal parallel I/O — submitted in order,
/// kept in flight up to a caller-chosen depth, and completed oldest
/// first.  The submits are the operations a blocking stripe loop issues,
/// in the same order; only where completion waits differs.
///
/// A read that fails, at submit or at completion, quiesces the window as
/// `srm_core`'s `Merger::quiesce` does: the tickets still in flight are
/// abandoned before the error is returned (the operations were charged
/// and traced at submit; a file backend's workers drain their queues
/// regardless).
#[derive(Debug)]
pub struct StripeWindow<R: Record> {
    run: StripedRun,
    /// First block not yet submitted.
    next: u64,
    /// One past the last block of the range.
    end: u64,
    tickets: VecDeque<ReadTicket<R>>,
}

impl<R: Record> StripeWindow<R> {
    /// A window over `blocks` of `run`, clamped to the run's end; nothing
    /// is submitted yet.
    pub fn new(run: &StripedRun, blocks: std::ops::Range<u64>) -> Self {
        let end = blocks.end.min(run.len_blocks);
        StripeWindow {
            run: run.clone(),
            next: blocks.start.min(end),
            end,
            tickets: VecDeque::new(),
        }
    }

    /// Submit the range's next stripes until `depth` reads are in flight
    /// or none is left to submit.
    pub fn submit<A: DiskArray<R> + ?Sized>(
        &mut self,
        array: &mut A,
        depth: usize,
    ) -> Result<()> {
        let d = array.geometry().d.max(1) as u64;
        while self.tickets.len() < depth && self.next < self.end {
            let hi = (self.next + d).min(self.end);
            let addrs: Vec<BlockAddr> = (self.next..hi).map(|j| self.run.addr_of(j)).collect();
            match array.submit_read(&addrs) {
                Ok(ticket) => self.tickets.push_back(ticket),
                Err(e) => {
                    self.tickets.clear();
                    return Err(e);
                }
            }
            self.next = hi;
        }
        Ok(())
    }

    /// Reads in flight.
    pub fn in_flight(&self) -> usize {
        self.tickets.len()
    }

    /// Complete the oldest read in flight: its stripe's blocks, in run
    /// order, or `None` when nothing is in flight.
    pub fn complete_oldest<A: DiskArray<R> + ?Sized>(
        &mut self,
        array: &mut A,
    ) -> Result<Option<Vec<Block<R>>>> {
        let Some(oldest) = self.tickets.pop_front() else {
            return Ok(None);
        };
        match array.complete_read(oldest) {
            Ok(blocks) => Ok(Some(blocks)),
            Err(e) => {
                self.tickets.clear();
                Err(e)
            }
        }
    }

    /// The in-order reader's one step: bring the window to `depth` reads
    /// in flight ([`Self::submit`]), complete the oldest, and append its
    /// stripe's records to `out`, handing each emptied record buffer to
    /// the array's pool when it has one — so the next read decodes into
    /// it instead of allocating.  `false` when no stripe was left.
    pub fn next_into<A: DiskArray<R> + ?Sized>(
        &mut self,
        array: &mut A,
        depth: usize,
        out: &mut Vec<R>,
    ) -> Result<bool> {
        self.submit(array, depth)?;
        let Some(blocks) = self.complete_oldest(array)? else {
            return Ok(false);
        };
        let pool = array.buffer_pool();
        for block in blocks {
            out.extend_from_slice(&block.records);
            if let Some(pool) = pool {
                pool.put_records(block.records);
            }
        }
        Ok(true)
    }
}

/// Read a whole run back in stripe-sized parallel reads, a few of them
/// in flight at a time (a verification / utility path, also used by
/// examples).  Returns the records in order.
pub fn read_run<R: Record, A: DiskArray<R>>(
    array: &mut A,
    run: &StripedRun,
) -> Result<Vec<R>> {
    let mut out = Vec::with_capacity(run.records as usize);
    let mut window = StripeWindow::new(run, 0..run.len_blocks);
    while window.next_into(array, READ_BACK_DEPTH, &mut out)? {}
    Ok(out)
}
