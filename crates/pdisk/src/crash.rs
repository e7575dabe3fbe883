//! Deterministic crash-point injection.
//!
//! A process crash can interrupt an external sort at *any* I/O boundary:
//! between submitting a parallel write and completing it, halfway through
//! a multi-disk write (a *torn* write where only a prefix of the frames
//! reached their disks), between committing data and updating parity, or
//! while publishing a checkpoint manifest.  This module makes that space
//! explorable **deterministically**:
//!
//! * [`CrashClock`] numbers every I/O boundary the instrumented stack
//!   passes through.  A *counting* clock never fires and merely tallies
//!   the boundaries (`N = clock.points()` after a dry run); an *armed*
//!   clock (`CrashClock::crash_at(k)`) fires at boundary `k`, after which
//!   the clock is *poisoned* — every subsequent boundary fails with the
//!   same [`PdiskError::Crashed`], mimicking a process that is simply
//!   gone.  Because boundary numbering depends only on the logical
//!   operation sequence (never on wall-clock or thread timing), a crash
//!   point observed on a dry run names the same boundary on every rerun,
//!   and a harness can exhaustively explore `k = 0..N`.
//! * [`CrashingDiskArray`] wraps the outermost array of a stack and ticks
//!   the clock before and after every submit, complete, and sync — a
//!   blocking read or write is its submit and its complete, so there is
//!   one numbering: `read-submit`, `read-submitted`, `read-complete`,
//!   `read-completed`, the same four for `write-`, `sync`, `sync-done`.
//!   Parallel writes additionally get one *torn* boundary per
//!   possible prefix: if boundary `write-torn` number `j` fires during an
//!   `n`-frame write, exactly the first `j` frames land on their disks
//!   (as one narrower parallel operation) and the rest are lost —
//!   the on-disk state a real machine shows after power loss mid-stripe.
//!
//! Other components share the same clock for boundaries the wrapper
//! cannot see: [`crate::ParityDiskArray`] ticks around its parity-commit
//! step, and the sorters tick around each checkpoint-manifest write.  The
//! clock is cheap (one mutex lock per boundary) and a disarmed clock can
//! be left installed permanently.
//!
//! "Crash" here is simulated: the wrapper poisons itself and unwinds with
//! an error instead of aborting the process, so a test harness can keep
//! the underlying array (which plays the role of the disks that survive a
//! reboot), re-wrap it with a disarmed clock, and drive recovery — all in
//! one process, thousands of times per second.

use std::sync::{Arc, Mutex};

use crate::addr::BlockAddr;
use crate::backend::{DiskArray, ReadTicket, WriteTicket};
use crate::block::Block;
use crate::error::{PdiskError, Result};
use crate::layer::{Layer, Stack};
use crate::record::Record;

struct ClockState {
    /// Number of the next boundary to be ticked.
    next: u64,
    /// Boundary at which to fire, if armed.
    crash_at: Option<u64>,
    /// Set once the crash fires: the boundary number and label that died.
    fired: Option<(u64, &'static str)>,
}

/// Shared, deterministic I/O-boundary counter (see module docs).
///
/// Clones share state, so one clock can be installed in several layers
/// (the [`CrashingDiskArray`] wrapper, the parity layer, the sorter's
/// checkpoint writer) and still produce a single global numbering.
#[derive(Clone)]
pub struct CrashClock(Arc<Mutex<ClockState>>); // srmlint::leaf — never acquire under it

impl CrashClock {
    /// A clock that never fires: boundaries are numbered and counted but
    /// every tick succeeds.  Used for the dry run that discovers `N`.
    pub fn counting() -> Self {
        CrashClock(Arc::new(Mutex::new(ClockState {
            next: 0,
            crash_at: None,
            fired: None,
        })))
    }

    /// A clock armed to fire at boundary `point` (0-based).
    pub fn crash_at(point: u64) -> Self {
        CrashClock(Arc::new(Mutex::new(ClockState {
            next: 0,
            crash_at: Some(point),
            fired: None,
        })))
    }

    fn lock(&self) -> crate::lockwitness::Witnessed<std::sync::MutexGuard<'_, ClockState>> {
        // A panic while holding the lock poisons it; the counter itself
        // is still consistent, so recover the guard.
        crate::lockwitness::guard(
            "pdisk::crash::CrashClock.0",
            self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// Pass one I/O boundary.  Fails with [`PdiskError::Crashed`] when the
    /// armed point is reached — and forever after, because a crashed
    /// process does not come back without a reboot.
    pub fn tick(&self, label: &'static str) -> Result<()> {
        let mut s = self.lock();
        if let Some((point, label)) = s.fired {
            return Err(PdiskError::Crashed { point, label });
        }
        let point = s.next;
        s.next += 1;
        if s.crash_at == Some(point) {
            s.fired = Some((point, label));
            return Err(PdiskError::Crashed { point, label });
        }
        Ok(())
    }

    /// How many boundaries have been numbered so far.  After a complete
    /// dry run with a counting clock this is `N`, the exclusive upper
    /// bound for `crash-at`.
    pub fn points(&self) -> u64 {
        self.lock().next
    }

    /// Whether the armed crash has fired, and at which boundary.
    pub fn fired(&self) -> Option<u64> {
        self.lock().fired.map(|(p, _)| p)
    }
}

impl std::fmt::Debug for CrashClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        f.debug_struct("CrashClock")
            .field("next", &s.next)
            .field("crash_at", &s.crash_at)
            .field("fired", &s.fired)
            .finish()
    }
}

/// The layer that injects a deterministic simulated process crash at a
/// numbered I/O boundary (see module docs): the shared clock is its whole
/// state.  Stacked on the *outermost* array so its boundaries bracket the
/// whole logical operation.  A hint is not a boundary a crash can split,
/// so `prefetch` passes unticked.
#[derive(Debug)]
pub struct Crashing {
    pub(crate) clock: CrashClock,
}

/// `inner` under the crash layer.  [`Stack::into_inner`] is the "reboot":
/// the array below (the disks) survives the crash; the poisoned layer
/// does not.
pub type CrashingDiskArray<R, A> = Stack<R, Crashing, A>;

impl<R: Record, A: DiskArray<R>> CrashingDiskArray<R, A> {
    /// Wrap `inner`, ticking `clock` at every boundary.
    pub fn new(inner: A, clock: CrashClock) -> Self {
        Stack::from_parts(inner, Crashing { clock })
    }

    /// The shared clock.
    pub fn clock(&self) -> &CrashClock {
        &self.layer.clock
    }
}

impl Crashing {
    /// Run the torn-write boundaries for an `n`-frame parallel write.
    /// When boundary `j` (1-based frame count) fires, land exactly the
    /// first `j` frames as one narrower parallel operation on the inner
    /// array — the state a real array shows when the process died after
    /// only a prefix of the stripe reached the disks — then report the
    /// crash.  When no boundary fires, hand the frames back untouched.
    fn torn_boundaries<R: Record>(
        &self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<Vec<(BlockAddr, Block<R>)>> {
        let n = writes.len();
        for landed in 1..n {
            if let Err(crash) = self.clock.tick("write-torn") {
                let prefix: Vec<(BlockAddr, Block<R>)> =
                    writes.into_iter().take(landed).collect();
                inner.write(prefix)?;
                return Err(crash);
            }
        }
        Ok(writes)
    }
}

impl<R: Record> Layer<R> for Crashing {
    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        self.clock.tick("read-submit")?;
        let ticket = inner.submit_read(addrs)?;
        // A crash here abandons the in-flight ticket: the I/O may still
        // land on the inner array, but the dead process never sees it.
        self.clock.tick("read-submitted")?;
        Ok(ticket)
    }

    fn complete_read(&mut self, inner: &mut impl DiskArray<R>, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        self.clock.tick("read-complete")?;
        let blocks = inner.complete_read(ticket)?;
        self.clock.tick("read-completed")?;
        Ok(blocks)
    }

    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket> {
        self.clock.tick("write-submit")?;
        let writes = self.torn_boundaries(inner, writes)?;
        let ticket = inner.submit_write(writes)?;
        self.clock.tick("write-submitted")?;
        Ok(ticket)
    }

    fn complete_write(&mut self, inner: &mut impl DiskArray<R>, ticket: WriteTicket) -> Result<()> {
        self.clock.tick("write-complete")?;
        inner.complete_write(ticket)?;
        self.clock.tick("write-completed")
    }

    fn sync(&mut self, inner: &mut impl DiskArray<R>) -> Result<()> {
        self.clock.tick("sync")?;
        inner.sync()?;
        self.clock.tick("sync-done")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DiskId;
    use crate::block::{Forecast, NO_BLOCK};
    use crate::geometry::Geometry;
    use crate::mem::MemDiskArray;
    use crate::record::U64Record;

    fn blk(keys: &[u64]) -> Block<U64Record> {
        Block::new(
            keys.iter().map(|&k| U64Record(k)).collect(),
            Forecast::Next(NO_BLOCK),
        )
    }

    fn array() -> MemDiskArray<U64Record> {
        let g = Geometry::new(3, 4, 1000).unwrap();
        MemDiskArray::new(g)
    }

    /// Three-frame parallel write at three addresses, one per disk.
    fn three_frames(a: &mut impl DiskArray<U64Record>) -> Vec<(BlockAddr, Block<U64Record>)> {
        (0..3u64)
            .map(|d| {
                let disk = DiskId::from_index(d as usize);
                let off = a.alloc_contiguous(disk, 1).unwrap();
                (BlockAddr::new(disk, off), blk(&[d, d + 10]))
            })
            .collect()
    }

    #[test]
    fn counting_clock_counts_and_never_fires() {
        let clock = CrashClock::counting();
        let mut a = CrashingDiskArray::new(array(), clock.clone());
        let writes = three_frames(&mut a);
        let addrs: Vec<BlockAddr> = writes.iter().map(|(ad, _)| *ad).collect();
        a.write(writes).unwrap();
        let blocks = a.read(&addrs).unwrap();
        assert_eq!(blocks.len(), 3);
        // A blocking call is the split-phase pair back to back, so it
        // passes the pair's boundaries: write-submit + 2 torn +
        // write-submitted + write-complete + write-completed, then
        // read-submit + read-submitted + read-complete + read-completed.
        assert_eq!(clock.points(), 10);
        assert_eq!(clock.fired(), None);
    }

    #[test]
    fn wrapper_is_transparent_when_disarmed() {
        let mut plain = array();
        let writes = three_frames(&mut plain);
        let addrs: Vec<BlockAddr> = writes.iter().map(|(ad, _)| *ad).collect();
        plain.write(writes).unwrap();
        let want = plain.read(&addrs).unwrap();
        let plain_stats = plain.stats();

        let mut wrapped = CrashingDiskArray::new(array(), CrashClock::counting());
        let writes = three_frames(&mut wrapped);
        wrapped.write(writes).unwrap();
        let got = wrapped.read(&addrs).unwrap();
        assert_eq!(got, want);
        assert_eq!(wrapped.stats(), plain_stats);
    }

    #[test]
    fn torn_write_lands_exactly_the_prefix() {
        // Boundary numbering for a 3-frame write:
        //   0 = write-submit, 1 = write-torn (1 frame lands), 2 =
        //   write-torn (2 frames land), 3 = write-submitted.
        for (point, landed) in [(1u64, 1usize), (2, 2)] {
            let mut a = CrashingDiskArray::new(array(), CrashClock::crash_at(point));
            let writes = three_frames(&mut a);
            let addrs: Vec<BlockAddr> = writes.iter().map(|(ad, _)| *ad).collect();
            let err = a.write(writes).unwrap_err();
            assert!(
                matches!(err, PdiskError::Crashed { point: p, label: "write-torn" } if p == point),
                "unexpected error {err}"
            );
            // Reboot: the inner array survives with only the prefix.
            let mut mem = a.into_inner();
            for (i, addr) in addrs.iter().enumerate() {
                let present = mem.read(&[*addr]).is_ok();
                assert_eq!(present, i < landed, "frame {i} after crash at {point}");
            }
        }
    }

    #[test]
    fn crash_poisons_every_later_operation() {
        let mut a = CrashingDiskArray::new(array(), CrashClock::crash_at(0));
        let writes = three_frames(&mut a);
        let addrs: Vec<BlockAddr> = writes.iter().map(|(ad, _)| *ad).collect();
        assert!(matches!(
            a.write(writes).unwrap_err(),
            PdiskError::Crashed { point: 0, .. }
        ));
        // Every subsequent operation reports the same crash point.
        assert!(matches!(
            a.read(&addrs).unwrap_err(),
            PdiskError::Crashed { point: 0, .. }
        ));
        assert!(matches!(
            a.sync().unwrap_err(),
            PdiskError::Crashed { point: 0, .. }
        ));
        assert_eq!(a.clock().fired(), Some(0));
    }

    #[test]
    fn crash_after_write_leaves_data_durable() {
        // Boundary 3 is write-submitted: all frames landed (the memory
        // backend serves at submit), then the process died before the
        // caller observed success.
        let mut a = CrashingDiskArray::new(array(), CrashClock::crash_at(3));
        let writes = three_frames(&mut a);
        let addrs: Vec<BlockAddr> = writes.iter().map(|(ad, _)| *ad).collect();
        assert!(a.write(writes).is_err());
        let mut mem = a.into_inner();
        assert_eq!(mem.read(&addrs).unwrap().len(), 3);
    }

    #[test]
    fn split_phase_boundaries_are_numbered() {
        let clock = CrashClock::counting();
        let mut a = CrashingDiskArray::new(array(), clock.clone());
        let writes = three_frames(&mut a);
        let addrs: Vec<BlockAddr> = writes.iter().map(|(ad, _)| *ad).collect();
        let wt = a.submit_write(writes).unwrap();
        a.complete_write(wt).unwrap();
        let rt = a.submit_read(&addrs).unwrap();
        let blocks = a.complete_read(rt).unwrap();
        assert_eq!(blocks.len(), 3);
        // write-submit + 2 torn + write-submitted, write-complete +
        // write-completed, read-submit + read-submitted, read-complete +
        // read-completed = 10 boundaries.
        assert_eq!(clock.points(), 10);
    }

    /// The crash vocabulary, as a set: crash at every boundary of a read,
    /// a 3-frame write and a sync, driven through the blocking calls and
    /// through the pair, and collect the labels that fired.  There is one
    /// numbering; a label outside this list is a second one growing back.
    #[test]
    fn the_crash_vocabulary_is_eleven_labels() {
        let drive = |a: &mut CrashingDiskArray<U64Record, MemDiskArray<U64Record>>, blocking: bool| {
            let writes = three_frames(a);
            let addrs: Vec<BlockAddr> = writes.iter().map(|(ad, _)| *ad).collect();
            if blocking {
                a.write(writes)?;
                a.read(&addrs)?;
            } else {
                let wt = a.submit_write(writes)?;
                a.complete_write(wt)?;
                let rt = a.submit_read(&addrs)?;
                a.complete_read(rt)?;
            }
            a.sync()
        };
        let mut labels = std::collections::BTreeSet::new();
        for blocking in [true, false] {
            let dry = CrashClock::counting();
            drive(&mut CrashingDiskArray::new(array(), dry.clone()), blocking).unwrap();
            assert_eq!(dry.points(), 12);
            for k in 0..dry.points() {
                let mut a = CrashingDiskArray::new(array(), CrashClock::crash_at(k));
                match drive(&mut a, blocking) {
                    Err(PdiskError::Crashed { point, label }) if point == k => labels.insert(label),
                    other => panic!("crash at {k} (blocking: {blocking}) gave {other:?}"),
                };
            }
        }
        let want = [
            "read-complete", "read-completed", "read-submit", "read-submitted", "sync", "sync-done",
            "write-complete", "write-completed", "write-submit", "write-submitted", "write-torn",
        ];
        assert_eq!(labels.into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn identical_runs_number_boundaries_identically() {
        let run = || {
            let clock = CrashClock::counting();
            let mut a = CrashingDiskArray::new(array(), clock.clone());
            let writes = three_frames(&mut a);
            let addrs: Vec<BlockAddr> = writes.iter().map(|(ad, _)| *ad).collect();
            a.write(writes).unwrap();
            a.read(&addrs).unwrap();
            a.sync().unwrap();
            clock.points()
        };
        assert_eq!(run(), run());
    }
}
