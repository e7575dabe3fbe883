//! Bounded retry.
//!
//! [`RetryingDiskArray`] wraps any backend and transparently re-issues
//! operations that fail with a *retryable* error (see
//! [`PdiskError::is_retryable`]): transient faults, OS-level I/O
//! errors, and checksum mismatches.  Permanent faults and logic errors
//! pass straight through.  When every attempt fails, the wrapper
//! returns [`PdiskError::RetriesExhausted`] carrying the final
//! attempt's error as its `source()`.
//!
//! A re-issue follows its failure at once: the wrapper never sleeps.  The
//! policy's backoff schedule ([`RetryPolicy::jittered_backoff`]) times
//! the distributed sort's real resend waits.
//! Retry counts are folded into the [`IoStats`] this wrapper reports,
//! per operation kind (`read_retries` / `write_retries` /
//! `alloc_retries`, and the matching `*_exhausted` give-up counters),
//! leaving the inner backend's logical operation counts untouched.
//! The schedule itself lives in one place — [`RetryPolicy::run`] — so
//! it cannot drift between operation kinds.

use crate::addr::{BlockAddr, DiskId};
use crate::backend::{DiskArray, ReadTicket, ScrubOutcome, WriteTicket};
use crate::block::Block;
use crate::error::{FaultOp, PdiskError, Result};
use crate::layer::{Layer, Stack};
use crate::record::Record;
use crate::stats::IoStats;
use crate::trace::TraceEvent;
use std::time::Duration;

/// Jitter applied to the backoff schedule.
///
/// `Full` implements "full jitter": each wait is drawn uniformly from
/// `[0, capped_backoff]`.  The draw is a pure hash of `(seed, issue
/// counter)`, so a fixed sequence of retries always waits the same — the
/// policy stays `Copy` and runs stay replayable, while concurrent tenants
/// with different seeds desynchronise their retry storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Jitter {
    /// Deterministic schedule: wait exactly the capped exponential value.
    #[default]
    None,
    /// Full jitter: wait `uniform(0, capped_backoff)`, derived from `seed`.
    Full {
        /// Seed for the deterministic jitter hash.
        seed: u64,
    },
}

/// Ceiling on a single backoff wait: the doubling schedule saturates
/// here, so a caller's `timeout + jittered_backoff` cannot overflow.
pub const DEFAULT_BACKOFF_CAP: Duration = Duration::from_secs(10);

/// How many times to try, and how long to wait in between.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first; at least 1.
    pub max_attempts: u32,
    /// Wait before the first retry; each later one doubles it, up to
    /// [`DEFAULT_BACKOFF_CAP`].
    pub base_backoff: Duration,
    /// Randomisation of the per-wait duration (deterministic given the
    /// seed; see [`Jitter`]).
    pub jitter: Jitter,
}

impl RetryPolicy {
    /// Up to `max_attempts` tries with doubling backoff from `base`, no
    /// jitter.
    pub const fn new(max_attempts: u32, base: Duration) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        RetryPolicy { max_attempts, base_backoff: base, jitter: Jitter::None }
    }

    /// Same schedule with full jitter drawn deterministically from `seed`.
    pub const fn with_full_jitter(mut self, seed: u64) -> Self {
        self.jitter = Jitter::Full { seed };
        self
    }

    /// Never retry; failures surface unchanged.
    pub fn none() -> Self {
        Self::new(1, Duration::ZERO)
    }

    /// Wait before retry number `retry` (1-based), before jitter: the
    /// doubling value saturated at [`DEFAULT_BACKOFF_CAP`].
    pub fn backoff_for(&self, retry: u32) -> Duration {
        debug_assert!(retry >= 1);
        let exp = 2u32
            .checked_pow(retry - 1)
            .map(|f| self.base_backoff.saturating_mul(f))
            .unwrap_or(Duration::MAX);
        exp.min(DEFAULT_BACKOFF_CAP)
    }

    /// The wait for retry number `retry` when it is issue number `nonce`
    /// of its counter — [`Self::backoff_for`] with this policy's
    /// [`Jitter`] applied.  Pure in `(self, retry, nonce)`.
    pub fn jittered_backoff(&self, retry: u32, nonce: u64) -> Duration {
        let capped = self.backoff_for(retry);
        match self.jitter {
            Jitter::None => capped,
            Jitter::Full { seed } => {
                let span = capped.as_nanos().min(u64::MAX as u128) as u64;
                if span == 0 {
                    return Duration::ZERO;
                }
                // FNV-1a over (seed, nonce): cheap, stable, and good
                // enough to decorrelate per-tenant retry schedules.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in seed.to_le_bytes().iter().chain(nonce.to_le_bytes().iter()) {
                    h ^= u64::from(*b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                Duration::from_nanos(h % (span + 1))
            }
        }
    }

    /// Run `op` to completion under this policy, charging `counters`.
    ///
    /// This is the *single* implementation of the retry schedule: every
    /// call site (reads, writes, allocations) goes through here, so it is
    /// deterministic by construction and cannot drift between operation
    /// kinds.  Non-retryable errors pass through on the first attempt;
    /// exhaustion returns [`PdiskError::RetriesExhausted`] and bumps
    /// `counters.exhausted`.
    pub fn run<T>(
        &self,
        counters: &mut RetryCounters,
        op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        self.run_from(counters, 1, op)
    }

    /// Like [`RetryPolicy::run`], but *continuing* a logical operation
    /// that has already consumed `spent` I/O issues — e.g. a split-phase
    /// completion sharing one per-logical-op budget with its submit.
    ///
    /// The first `op()` call is treated as issue number `spent` (it
    /// collects work already issued, so it is free); each subsequent call
    /// is a fresh issue charged to `counters` until the budget of
    /// `max_attempts` total issues is spent.  `spent = 1` is a fresh
    /// operation, i.e. [`RetryPolicy::run`].
    pub fn run_from<T>(
        &self,
        counters: &mut RetryCounters,
        spent: u32,
        mut op: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut attempt = spent.max(1);
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_retryable() => return Err(e),
                Err(e) if attempt >= self.max_attempts => {
                    counters.exhausted += 1;
                    return Err(PdiskError::RetriesExhausted {
                        attempts: attempt,
                        last: Box::new(e),
                    });
                }
                Err(_) => {
                    counters.attempted += 1;
                    attempt += 1;
                }
            }
        }
    }
}

/// Retry accounting for one [`FaultOp`](crate::FaultOp) kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Attempts re-issued after a retryable failure.
    pub attempted: u64,
    /// Operations that failed every attempt.
    pub exhausted: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 1 ms base: absorbs any plausible transient-fault
    /// rate while keeping give-up bounded.
    fn default() -> Self {
        Self::new(4, Duration::from_millis(1))
    }
}

/// The layer that absorbs transient faults by retrying: the policy and
/// the per-kind retry accounting.  Two operations pass unretried.  A
/// failed `sync` leaves the kernel's dirty state unknown, so the
/// checkpoint writer above must see the failure and withhold its
/// manifest; and a scrub's repair accounting stays with the redundancy
/// layer that performs it.
#[derive(Debug)]
pub struct Retrying {
    policy: RetryPolicy,
    reads: RetryCounters,
    writes: RetryCounters,
    allocs: RetryCounters,
}

/// `inner` under the retry layer.
pub type RetryingDiskArray<R, A> = Stack<R, Retrying, A>;

impl<R: Record, A: DiskArray<R>> RetryingDiskArray<R, A> {
    /// Wrap `inner` with the given policy.
    pub fn new(inner: A, policy: RetryPolicy) -> Self {
        Stack::from_parts(inner, Retrying::new(policy))
    }

    /// Retries performed so far (reads, writes).  Allocation retries are
    /// reported separately by [`Self::counters`].
    pub fn retries(&self) -> (u64, u64) {
        (self.layer.reads.attempted, self.layer.writes.attempted)
    }

    /// Per-operation retry accounting, in [`FaultOp`](crate::FaultOp)
    /// order: reads, writes, allocations.
    pub fn counters(&self) -> (RetryCounters, RetryCounters, RetryCounters) {
        (self.layer.reads, self.layer.writes, self.layer.allocs)
    }
}

impl Retrying {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        Retrying {
            policy,
            reads: RetryCounters::default(),
            writes: RetryCounters::default(),
            allocs: RetryCounters::default(),
        }
    }
}

/// Run `op` under `policy` as a logical operation that has already spent
/// `spent` issues, charging `counters` and recording each re-issue of
/// `kind` in `inner`'s trace; returns the re-issue count beside the
/// outcome.
fn retried<R: Record, A: DiskArray<R>, T>(
    policy: &RetryPolicy,
    counters: &mut RetryCounters,
    inner: &mut A,
    kind: FaultOp,
    spent: u32,
    mut op: impl FnMut(&mut A) -> Result<T>,
) -> (Result<T>, u64) {
    let before = counters.attempted;
    let out = policy.run_from(counters, spent, || op(inner));
    let issued = counters.attempted - before;
    if let Some(sink) = inner.trace_sink() {
        for _ in 0..issued {
            sink.emit(TraceEvent::Retry { op: kind });
        }
    }
    (out, issued)
}

impl<R: Record> Layer<R> for Retrying {
    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> Result<u64> {
        retried(&self.policy, &mut self.allocs, inner, FaultOp::Alloc, 1, |a| {
            a.alloc_contiguous(disk, count)
        })
        .0
    }

    /// Inner (logical) stats plus this layer's retry counters.
    fn stats(&self, inner: &impl DiskArray<R>) -> IoStats {
        let mut stats = inner.stats();
        stats.read_retries += self.reads.attempted;
        stats.write_retries += self.writes.attempted;
        stats.alloc_retries += self.allocs.attempted;
        stats.read_exhausted += self.reads.exhausted;
        stats.write_exhausted += self.writes.exhausted;
        stats.alloc_exhausted += self.allocs.exhausted;
        stats
    }

    fn reset_stats(&mut self, inner: &mut impl DiskArray<R>) {
        self.reads = RetryCounters::default();
        self.writes = RetryCounters::default();
        self.allocs = RetryCounters::default();
        inner.reset_stats();
    }

    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        let (out, issued) = retried(&self.policy, &mut self.reads, inner, FaultOp::Read, 1, |a| {
            a.submit_read(addrs)
        });
        // Record the issues this submit consumed in the ticket, so the
        // completion phase continues the same per-logical-op budget
        // instead of starting a fresh one.
        out.map(|mut t| {
            t.issues = 1 + issued as u32;
            t
        })
    }

    fn complete_read(&mut self, inner: &mut impl DiskArray<R>, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        // The first completion attempt drains the in-flight ticket; if
        // it fails with a retryable error the data is gone with it, so
        // further attempts fall back to a fresh synchronous read of the
        // same addresses.  Note the fallback charges a second read op
        // in the inner backend's stats — acceptable for a recovery
        // path: injected faults surface at submit, so only a real device
        // error or a checksum mismatch reaches it.
        //
        // Submit and complete share ONE attempt budget: the ticket says
        // how many issues its submit consumed, and `run_from` resumes
        // the schedule there, so a logical read can never consume more
        // than `max_attempts` issues across both phases.
        let spent = ticket.issues;
        let addrs: Vec<BlockAddr> = ticket.addrs().to_vec();
        let mut first = Some(ticket);
        retried(&self.policy, &mut self.reads, inner, FaultOp::Read, spent, |a| match first.take() {
            Some(t) => a.complete_read(t),
            None => a.read(&addrs),
        })
        .0
    }

    /// A scrub reads below this layer (the parity layer's slot read), so a
    /// transient fault there is retried, as a read, by re-issuing the scrub.
    fn scrub_block(&mut self, inner: &mut impl DiskArray<R>, addr: BlockAddr) -> Result<ScrubOutcome> {
        retried(&self.policy, &mut self.reads, inner, FaultOp::Read, 1, |a| a.scrub_block(addr)).0
    }

    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket> {
        let (out, issued) = retried(&self.policy, &mut self.writes, inner, FaultOp::Write, 1, |a| {
            a.submit_write(writes.clone())
        });
        // The blocks travel with the ticket, so the completion phase can
        // re-issue them under the budget this submit started.
        out.map(|mut t| {
            t.issues = 1 + issued as u32;
            t.payload = Some(Box::new(writes));
            t
        })
    }

    fn complete_write(&mut self, inner: &mut impl DiskArray<R>, mut ticket: WriteTicket) -> Result<()> {
        // The write-side twin of `complete_read`: drain the ticket once,
        // then fall back to synchronous writes of the blocks the submit
        // left in it, all within the one per-logical-op budget.
        let spent = ticket.issues;
        let writes = ticket
            .payload
            .take()
            .and_then(|p| p.downcast::<Vec<(BlockAddr, Block<R>)>>().ok())
            .ok_or(PdiskError::TicketMismatch)?;
        let mut first = Some(ticket);
        retried(&self.policy, &mut self.writes, inner, FaultOp::Write, spent, |a| match first.take() {
            Some(t) => a.complete_write(t),
            None => a.write((*writes).clone()),
        })
        .0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::block::Forecast;
    use crate::error::{FaultKind, FaultOp};
    use crate::faulty::{FaultModel, FaultPlan, FaultyDiskArray, ScriptedFault};
    use crate::geometry::Geometry;
    use crate::mem::MemDiskArray;
    use crate::record::U64Record;

    type Faulty = FaultyDiskArray<U64Record, MemDiskArray<U64Record>>;

    fn faulty(model: impl Into<FaultModel>) -> Faulty {
        let geom = Geometry::new(2, 2, 100).unwrap();
        let mut inner: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let o = inner.alloc_contiguous(DiskId(0), 4).unwrap();
        for i in 0..4 {
            inner
                .write(vec![(
                    BlockAddr::new(DiskId(0), o + i),
                    Block::new(vec![U64Record(i)], Forecast::Next(u64::MAX)),
                )])
                .unwrap();
        }
        inner.reset_stats();
        FaultyDiskArray::new(inner, model)
    }

    #[test]
    fn absorbs_a_scripted_transient_read_fault() {
        let mut a = RetryingDiskArray::new(faulty(FaultPlan::read(0)), RetryPolicy::default());
        let got = a.read(&[BlockAddr::new(DiskId(0), 0)]).unwrap();
        assert_eq!(got[0].records[0], U64Record(0));
        assert_eq!(a.retries(), (1, 0));
        let stats = a.stats();
        assert_eq!(stats.read_retries, 1);
        assert_eq!(stats.read_ops, 1, "only the successful attempt counts");
    }

    #[test]
    fn absorbs_write_and_alloc_faults() {
        let mut a = RetryingDiskArray::new(
            faulty(FaultPlan::write(0).and_alloc(0)),
            RetryPolicy::default(),
        );
        let o = a.alloc_contiguous(DiskId(1), 1).unwrap();
        let block = Block::new(vec![U64Record(7)], Forecast::Next(u64::MAX));
        a.write(vec![(BlockAddr::new(DiskId(1), o), block)]).unwrap();
        let stats = a.stats();
        assert_eq!(stats.write_retries, 1, "write retry charged to writes");
        assert_eq!(stats.alloc_retries, 1, "alloc retry charged to allocs");
        let (r, w, al) = a.counters();
        assert_eq!((r.attempted, w.attempted, al.attempted), (0, 1, 1));
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        let mut a = RetryingDiskArray::new(
            faulty(FaultModel::none().kill_at(FaultOp::Read, 0)),
            RetryPolicy::default(),
        );
        let err = a.read(&[BlockAddr::new(DiskId(0), 0)]).unwrap_err();
        assert!(matches!(
            err,
            PdiskError::Fault {
                kind: FaultKind::Permanent,
                ..
            }
        ));
        assert_eq!(a.retries(), (0, 0), "permanent faults must fail fast");
    }

    #[test]
    fn exhaustion_reports_attempts_and_chains_source() {
        use std::error::Error as _;
        // 100% transient read faults can never succeed.
        let mut a = RetryingDiskArray::new(
            faulty(FaultModel::random(1).with_read_rate(1.0)),
            RetryPolicy::new(3, Duration::from_millis(1)),
        );
        let err = a.read(&[BlockAddr::new(DiskId(0), 0)]).unwrap_err();
        match &err {
            PdiskError::RetriesExhausted { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert!(err.source().unwrap().to_string().contains("transient"));
        assert_eq!(a.retries(), (2, 0), "two retries after the first attempt");
        let stats = a.stats();
        assert_eq!(stats.read_exhausted, 1, "give-up must be counted");
        assert_eq!(stats.write_exhausted, 0);
    }

    #[test]
    fn policy_run_is_the_single_retry_implementation() {
        // Deterministic: two identical runs count identically.
        let p = RetryPolicy::new(3, Duration::from_millis(5));
        let run_once = || {
            let mut c = RetryCounters::default();
            let mut failures = 2;
            let r = p.run(&mut c, || {
                if failures > 0 {
                    failures -= 1;
                    Err(PdiskError::Fault {
                        kind: FaultKind::Transient,
                        op: FaultOp::Read,
                        disk: None,
                    })
                } else {
                    Ok(())
                }
            });
            (r.is_ok(), c)
        };
        let (ok1, c1) = run_once();
        let (ok2, c2) = run_once();
        assert!(ok1 && ok2);
        assert_eq!(c1, c2, "schedule must be deterministic");
        assert_eq!(c1.attempted, 2);
        assert_eq!(c1.exhausted, 0);
    }

    #[test]
    fn reset_stats_clears_retry_accounting() {
        let mut a = RetryingDiskArray::new(faulty(FaultPlan::read(0)), RetryPolicy::default());
        a.read(&[BlockAddr::new(DiskId(0), 0)]).unwrap();
        assert_eq!(a.stats().read_retries, 1);
        a.reset_stats();
        assert_eq!(a.stats().read_retries, 0);
    }

    #[test]
    fn backoff_is_exponential() {
        let p = RetryPolicy::new(4, Duration::from_millis(2));
        assert_eq!(p.backoff_for(1), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(4));
        assert_eq!(p.backoff_for(3), Duration::from_millis(8));
    }

    #[test]
    fn backoff_saturates_at_the_cap() {
        let p = RetryPolicy::new(10, Duration::from_secs(3));
        assert_eq!(p.backoff_for(1), Duration::from_secs(3));
        assert_eq!(p.backoff_for(2), Duration::from_secs(6));
        assert_eq!(p.backoff_for(3), DEFAULT_BACKOFF_CAP, "12 s capped to 10");
        assert_eq!(p.backoff_for(9), DEFAULT_BACKOFF_CAP);
        // Absurd retry numbers must not overflow the exponent.
        assert_eq!(p.backoff_for(64), DEFAULT_BACKOFF_CAP);
    }

    #[test]
    fn full_jitter_is_bounded_deterministic_and_seed_sensitive() {
        let p = RetryPolicy::new(8, Duration::from_millis(4)).with_full_jitter(42);
        for retry in 1..8 {
            for nonce in 0..32 {
                let w = p.jittered_backoff(retry, nonce);
                assert!(w <= p.backoff_for(retry), "jitter must stay within the cap");
                assert_eq!(w, p.jittered_backoff(retry, nonce), "pure in (retry, nonce)");
            }
        }
        let other = p.with_full_jitter(43);
        let differs = (0..16).any(|n| p.jittered_backoff(3, n) != other.jittered_backoff(3, n));
        assert!(differs, "different seeds should desynchronise schedules");
        // Zero-width span degenerates cleanly.
        let zero = RetryPolicy::new(2, Duration::ZERO).with_full_jitter(7);
        assert_eq!(zero.jittered_backoff(1, 1), Duration::ZERO);
    }

    #[test]
    fn jittered_runs_keep_counters_exact_and_replayable() {
        // Same wrapper config + same fault script => identical counters;
        // retry counts are unaffected by jitter.
        let policy = RetryPolicy::new(4, Duration::from_millis(2)).with_full_jitter(99);
        let run_once = || {
            // Fault read ops 0 and 2: each logical read's first attempt
            // fails once, its retry (the next read op) succeeds.
            let model = FaultModel::none()
                .with_scripted(ScriptedFault {
                    op: FaultOp::Read,
                    ordinal: 0,
                    kind: FaultKind::Transient,
                })
                .with_scripted(ScriptedFault {
                    op: FaultOp::Read,
                    ordinal: 2,
                    kind: FaultKind::Transient,
                });
            let mut a = RetryingDiskArray::new(faulty(model), policy);
            a.read(&[BlockAddr::new(DiskId(0), 0)]).unwrap();
            a.read(&[BlockAddr::new(DiskId(0), 1)]).unwrap();
            let (r, _, _) = a.counters();
            r
        };
        let c1 = run_once();
        let c2 = run_once();
        assert_eq!(c1, c2, "jittered schedule must be replayable");
        assert_eq!(c1.attempted, 2);
        assert_eq!(c1.exhausted, 0);
    }

    /// Split-phase test double: submits and completions fail retryably a
    /// scripted number of times, reads and writes alike, and every raw
    /// I/O *issue* (a submit or a synchronous fallback — not a ticket
    /// drain) is counted, so tests can assert the per-logical-op budget
    /// precisely.
    pub(crate) struct FlakySplit {
        pub(crate) inner: MemDiskArray<U64Record>,
        pub(crate) fail_submits: u32,
        pub(crate) fail_completes: u32,
        pub(crate) fail_fallbacks: u32,
        pub(crate) issues: u64,
    }

    impl FlakySplit {
        fn transient() -> PdiskError {
            PdiskError::Fault {
                kind: FaultKind::Transient,
                op: FaultOp::Read,
                disk: None,
            }
        }
    }

    impl DiskArray<U64Record> for FlakySplit {
        fn geometry(&self) -> Geometry {
            self.inner.geometry()
        }

        fn read(&mut self, addrs: &[BlockAddr]) -> Result<Vec<Block<U64Record>>> {
            self.issues += 1;
            if self.fail_fallbacks > 0 {
                self.fail_fallbacks -= 1;
                return Err(Self::transient());
            }
            self.inner.read(addrs)
        }

        fn write(&mut self, writes: Vec<(BlockAddr, Block<U64Record>)>) -> Result<()> {
            self.issues += 1;
            if self.fail_fallbacks > 0 {
                self.fail_fallbacks -= 1;
                return Err(Self::transient());
            }
            self.inner.write(writes)
        }

        fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<U64Record>)>) -> Result<WriteTicket> {
            self.issues += 1;
            if self.fail_submits > 0 {
                self.fail_submits -= 1;
                return Err(Self::transient());
            }
            let addrs = writes.iter().map(|(a, _)| *a).collect();
            self.inner.write(writes)?;
            Ok(WriteTicket::ready(addrs))
        }

        fn complete_write(&mut self, _ticket: WriteTicket) -> Result<()> {
            if self.fail_completes > 0 {
                self.fail_completes -= 1;
                return Err(Self::transient());
            }
            Ok(())
        }

        fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<U64Record>> {
            self.issues += 1;
            if self.fail_submits > 0 {
                self.fail_submits -= 1;
                return Err(Self::transient());
            }
            let blocks = self.inner.read(addrs)?;
            Ok(ReadTicket::ready(addrs.to_vec(), blocks))
        }

        fn complete_read(&mut self, ticket: ReadTicket<U64Record>) -> Result<Vec<Block<U64Record>>> {
            if self.fail_completes > 0 {
                self.fail_completes -= 1;
                return Err(Self::transient());
            }
            ticket.into_ready()
        }

        fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
            self.inner.alloc_contiguous(disk, count)
        }

        fn stats(&self) -> IoStats {
            self.inner.stats()
        }

        fn reset_stats(&mut self) {
            self.inner.reset_stats();
        }
    }

    fn flaky_split(fail_submits: u32, fail_completes: u32, fail_fallbacks: u32) -> FlakySplit {
        let geom = Geometry::new(2, 2, 100).unwrap();
        let mut inner: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let o = inner.alloc_contiguous(DiskId(0), 1).unwrap();
        inner
            .write(vec![(
                BlockAddr::new(DiskId(0), o),
                Block::new(vec![U64Record(1)], Forecast::Next(u64::MAX)),
            )])
            .unwrap();
        FlakySplit {
            inner,
            fail_submits,
            fail_completes,
            fail_fallbacks,
            issues: 0,
        }
    }

    /// One split-phase op through `a`, read or write, and the retries
    /// and give-ups `a` has charged to that side so far.
    fn split_op(
        a: &mut RetryingDiskArray<U64Record, FlakySplit>,
        write: bool,
    ) -> (Result<()>, u64, u64) {
        let addr = BlockAddr::new(DiskId(0), 0);
        let out = if write {
            let block = Block::new(vec![U64Record(1)], Forecast::Next(u64::MAX));
            a.submit_write(vec![(addr, block)]).and_then(|t| a.complete_write(t))
        } else {
            a.submit_read(&[addr])
                .and_then(|t| a.complete_read(t))
                .map(|got| assert_eq!(got[0].records[0], U64Record(1)))
        };
        let stats = a.stats();
        if write {
            (out, stats.write_retries, stats.write_exhausted)
        } else {
            (out, stats.read_retries, stats.read_exhausted)
        }
    }

    #[test]
    fn submit_and_complete_share_one_attempt_budget() {
        // Submit fails once (2 issues), the drain fails, the synchronous
        // fallback succeeds: 3 issues total, within the budget of 4.
        for write in [false, true] {
            let mut a = RetryingDiskArray::new(flaky_split(1, 1, 0), RetryPolicy::default());
            let (out, retries, _) = split_op(&mut a, write);
            out.unwrap();
            assert_eq!(a.inner().issues, 3, "submit + retried submit + fallback (write={write})");
            assert_eq!(retries, 2, "one submit retry + one completion re-issue (write={write})");
        }
    }

    #[test]
    fn completion_does_not_double_the_budget() {
        // Regression: submit consumes the budget's first two issues
        // (one transient failure + the success); when the completion
        // then fails, NO fallback issue remains — the old code gave the
        // completion a fresh budget of its own, letting one logical op
        // consume up to 2x max_attempts issues.
        for write in [false, true] {
            let mut a = RetryingDiskArray::new(
                flaky_split(1, 1, 0),
                RetryPolicy::new(2, Duration::from_millis(1)),
            );
            let (out, _, exhausted) = split_op(&mut a, write);
            match out.unwrap_err() {
                PdiskError::RetriesExhausted { attempts, .. } => {
                    assert_eq!(attempts, 2, "whole logical op capped at max_attempts")
                }
                other => panic!("expected RetriesExhausted, got {other:?}"),
            }
            assert_eq!(
                a.inner().issues,
                2,
                "no issue beyond the per-logical-op budget of 2 (write={write})"
            );
            assert_eq!(exhausted, 1);
        }
    }

    #[test]
    fn clean_split_phase_costs_one_issue() {
        let mut a = RetryingDiskArray::new(flaky_split(0, 0, 0), RetryPolicy::default());
        let addr = BlockAddr::new(DiskId(0), 0);
        let t = a.submit_read(&[addr]).unwrap();
        a.complete_read(t).unwrap();
        assert_eq!(a.inner().issues, 1);
        assert_eq!(a.stats().read_retries, 0);
    }

    #[test]
    fn logic_errors_pass_straight_through() {
        let mut a = RetryingDiskArray::new(faulty(FaultPlan::default()), RetryPolicy::default());
        let err = a.read(&[BlockAddr::new(DiskId(9), 0)]).unwrap_err();
        assert!(matches!(err, PdiskError::NoSuchDisk(_)));
        assert_eq!(a.retries(), (0, 0));
    }
}
