//! The two primitives between the file backend and its disk workers:
//! the per-disk job queues with the worker pool that serves them, and
//! the per-operation completion.  Both are generic over what they carry
//! and touch no file, so their tests run under miri too.
//!
//! [`DiskQueues`] holds the `D` per-disk FIFO queues behind **one** lock,
//! served by a work-conserving pool: any awake worker takes the next job
//! of any disk no other worker holds and *claims* the disk until it comes
//! for its next job, so each disk runs one job at a time, in order.  An
//! operation is pushed whole, all or nothing, and a wake (tens of
//! microseconds, and a preempted submitter) is rationed: a parked worker
//! is woken only when unclaimed work exists and fewer workers are
//! runnable than the cores beside the submitter.  Each disk keeps its
//! modelled device's clock: a job starts when the disk is free or when
//! it arrived, whichever is later, and is due one service time after; a
//! worker about to sleep toward that deadline stops counting as runnable
//! and hands off under the same rule.  A worker that exits holding a
//! claim retires that disk, and the last worker out closes the queues.
//!
//! A [`completion`] is one record per operation with a slot per job.
//! The worker half of a slot ([`SlotFill`]) fills it, or reports the
//! worker gone by dropping unfilled; the caller half ([`SlotWait`])
//! sleeps only while the slot it is blocked on is empty, and abandons
//! the result by dropping.  A fill never blocks.
//!
//! Jobs are built, and dropped, outside both locks, and no other lock is
//! taken under either (the lock rule, [`crate::sync`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::{Duration, Instant};

use crate::error::{PdiskError, Result};
use crate::sync::Mutex;

/// The worker a job or a result depended on has exited.
fn worker_gone() -> PdiskError {
    PdiskError::Io(std::io::Error::other("disk worker thread terminated"))
}

struct Disk<J> {
    /// Queued jobs, each with the instant it was submitted.
    jobs: VecDeque<(J, Instant)>,
    /// A worker is running this disk's job.
    claimed: bool,
    /// Retired: nothing may be queued.
    gone: bool,
    /// The modelled device is busy until this instant.
    free_at: Instant,
}

struct State<J> {
    disks: Vec<Disk<J>>,
    closed: bool,
    /// Workers in the pool; those using a core (neither parked nor asleep
    /// on a deadline); those parked and not yet handed a wake; and wakes
    /// handed and not yet taken up.
    live: usize,
    runnable: usize,
    parked: usize,
    wakes: usize,
    /// Where the scan for work starts, so no disk waits behind a lower one.
    scan: usize,
    /// Operations queued, and how many of them woke a worker.
    submissions: u64,
    notifications: u64,
}

impl<J> State<J> {
    /// The first disk from `scan` on with a queued job and no claim.
    fn unclaimed(&self) -> Option<usize> {
        let n = self.disks.len();
        (0..n).map(|i| (self.scan + i) % n).find(|&d| !self.disks[d].claimed && !self.disks[d].jobs.is_empty())
    }

    /// The wake rule.  The woken worker counts as runnable from here on,
    /// so a second burst before it runs wakes nobody else.
    fn hand_off(&mut self, cores: usize) -> bool {
        let wake = self.parked > 0 && self.runnable < cores && self.unclaimed().is_some();
        if wake {
            self.parked -= 1;
            self.wakes += 1;
            self.runnable += 1;
        }
        wake
    }
}

/// `D` per-disk job queues, and the pool bookkeeping, behind one lock.
pub(crate) struct DiskQueues<J> {
    state: Mutex<State<J>>,
    wake: Condvar,
    /// The wake rule's bound on runnable workers.
    cores: usize,
    /// Service time per block in µs (0 = none), read at each claim.
    device: Arc<AtomicU64>,
}

impl<J> DiskQueues<J> {
    /// `d` empty queues on `device`.  The wake rule allows the cores left
    /// beside the submitting thread, at least one, read once per process.
    pub(crate) fn new(d: usize, device: Arc<AtomicU64>) -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1)));
        Self::with_cores(d, cores, device)
    }

    fn with_cores(d: usize, cores: usize, device: Arc<AtomicU64>) -> Self {
        let now = Instant::now();
        let disk = || Disk { jobs: VecDeque::new(), claimed: false, gone: false, free_at: now };
        let disks = (0..d).map(|_| disk()).collect();
        let state =
            State { disks, closed: false, live: 0, runnable: 0, parked: 0, wakes: 0, scan: 0, submissions: 0, notifications: 0 };
        DiskQueues { state: Mutex::new(state), wake: Condvar::new(), cores, device }
    }

    /// Queue one operation's jobs, each on its disk, then wake a worker if
    /// the wake rule asks for one.  Refused whole — nothing queued — when
    /// the queues are closed or any touched disk is retired.
    pub(crate) fn submit(&self, jobs: Vec<(usize, J)>) -> Result<()> {
        let arrived = Instant::now();
        let mut st = self.state.lock();
        if st.closed || jobs.iter().any(|(d, _)| st.disks[*d].gone) {
            drop(st);
            return Err(worker_gone());
        }
        for (d, job) in jobs {
            st.disks[d].jobs.push_back((job, arrived));
        }
        st.submissions += 1;
        let wake = st.hand_off(self.cores);
        st.notifications += u64::from(wake);
        drop(st);
        if wake {
            self.wake.notify_one();
        }
        Ok(())
    }

    /// Join the pool; dropping the handle leaves it.
    pub(crate) fn worker(&self) -> QueueWorker<'_, J> {
        let mut st = self.state.lock();
        st.live += 1;
        st.runnable += 1;
        QueueWorker { queues: self, claim: None, runnable: true }
    }

    /// Stop accepting work and let the workers exit once no job is left.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.wake.notify_all();
    }

    /// Operations submitted so far, and how many of them woke a worker.
    pub(crate) fn counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.submissions, st.notifications)
    }

    /// Retire `disk`: a worker joins and exits holding its claim.
    #[cfg(test)]
    pub(crate) fn retire(&self, disk: usize) {
        let mut dying = self.worker();
        dying.claim = Some(disk);
    }
}

/// One pool worker's handle: the disk it holds while a job runs.
pub(crate) struct QueueWorker<'a, J> {
    queues: &'a DiskQueues<J>,
    claim: Option<usize>,
    /// Counted in `runnable`: false while asleep on a device deadline.
    runnable: bool,
}

impl<J> QueueWorker<'_, J> {
    /// Release the last job's disk, then claim the next job of any
    /// unclaimed disk, parking while there is none: its disk, the job, and
    /// on a modelled device the instant the device is done with it, which
    /// the caller sleeps toward.  `None` once the queues are closed and no
    /// unclaimed job is left (a job behind a claim is the claimant's).
    #[expect(clippy::disallowed_methods, reason = "a disk worker's wait for work")]
    pub(crate) fn next_job(&mut self) -> Option<(usize, J, Option<Instant>)> {
        let queues = self.queues;
        let mut st = queues.state.lock();
        if let Some(d) = self.claim.take() {
            st.disks[d].claimed = false;
        }
        st.runnable += usize::from(!std::mem::replace(&mut self.runnable, true));
        loop {
            if let Some(d) = st.unclaimed() {
                st.scan = (d + 1) % st.disks.len();
                let disk = &mut st.disks[d];
                let (job, arrived) = disk.jobs.pop_front()?; // `unclaimed` found it non-empty
                disk.claimed = true;
                self.claim = Some(d);
                let service = Duration::from_micros(queues.device.load(Ordering::Relaxed));
                let due = (!service.is_zero()).then(|| {
                    disk.free_at = disk.free_at.max(arrived) + service;
                    disk.free_at
                });
                if due.is_some_and(|t| t > Instant::now()) {
                    st.runnable -= 1;
                    self.runnable = false;
                }
                let wake = st.hand_off(queues.cores);
                drop(st);
                if wake {
                    queues.wake.notify_one();
                }
                return Some((d, job, due));
            }
            if st.closed {
                return None;
            }
            st.runnable -= 1;
            st.parked += 1;
            loop {
                st = st.wait(&queues.wake);
                if st.wakes > 0 {
                    // The waker already counted this worker runnable.
                    st.wakes -= 1;
                    break;
                }
                if st.closed {
                    st.parked -= 1;
                    st.runnable += 1;
                    break;
                }
            }
        }
    }
}

impl<J> Drop for QueueWorker<'_, J> {
    /// The worker is exiting (or unwinding).  A claim it still holds
    /// retires that disk, and the last worker out closes the queues; what
    /// either leaves queued is dropped outside the lock, so each job's
    /// completion half reports the worker gone.
    fn drop(&mut self) {
        let mut st = self.queues.state.lock();
        st.live -= 1;
        st.runnable -= usize::from(self.runnable);
        let mut orphans = Vec::new();
        if let Some(d) = self.claim {
            st.disks[d].gone = true;
            orphans.push(std::mem::take(&mut st.disks[d].jobs));
        }
        if st.live == 0 {
            st.closed = true;
            orphans.extend(st.disks.iter_mut().map(|disk| std::mem::take(&mut disk.jobs)));
        }
        drop(st);
        drop(orphans);
    }
}

enum Slot<T> {
    Empty,
    /// Empty, and a caller is asleep on it.
    Awaited,
    Full(T),
    /// The worker dropped its half unfilled, or the value was taken.
    Gone,
}

/// The shared record of one operation: a slot per job.
pub(crate) struct Completion<T> {
    slots: Mutex<Vec<Slot<T>>>,
    filled: Condvar,
}

impl<T> Completion<T> {
    #[expect(clippy::disallowed_methods, reason = "a submitter's wait for its operation")]
    fn await_slot(&self, slot: usize, waits: &mut u64) -> Result<T> {
        let mut slots = self.slots.lock();
        loop {
            match std::mem::replace(&mut slots[slot], Slot::Gone) {
                Slot::Full(value) => return Ok(value),
                Slot::Gone => return Err(worker_gone()),
                Slot::Empty | Slot::Awaited => {
                    slots[slot] = Slot::Awaited;
                    *waits += 1;
                    slots = slots.wait(&self.filled);
                }
            }
        }
    }

    /// Move `slot` from empty to `to`, waking the caller asleep on it.
    fn settle(&self, slot: usize, to: Slot<T>) {
        let mut slots = self.slots.lock();
        let awaited = matches!(slots[slot], Slot::Awaited);
        slots[slot] = to;
        drop(slots);
        if awaited {
            self.filled.notify_all();
        }
    }
}

/// One completion record for an operation of `n` jobs: the two halves of
/// each slot, in job order.
pub(crate) fn completion<T>(n: usize) -> impl Iterator<Item = (SlotFill<T>, SlotWait<T>)> {
    let shared = Arc::new(Completion {
        slots: Mutex::new((0..n).map(|_| Slot::Empty).collect()),
        filled: Condvar::new(),
    });
    (0..n).map(move |slot| {
        (
            SlotFill { shared: Some(Arc::clone(&shared)), slot },
            SlotWait { shared: Arc::clone(&shared), slot },
        )
    })
}

/// The worker half of a slot.
pub(crate) struct SlotFill<T> {
    /// `None` once filled.
    shared: Option<Arc<Completion<T>>>,
    slot: usize,
}

impl<T> SlotFill<T> {
    /// Deliver the job's result.  Never blocks; if the caller half is
    /// gone the value is dropped with the record.
    pub(crate) fn fill_slot(mut self, value: T) {
        if let Some(shared) = self.shared.take() {
            shared.settle(self.slot, Slot::Full(value));
        }
    }
}

impl<T> Drop for SlotFill<T> {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            shared.settle(self.slot, Slot::Gone);
        }
    }
}

/// The caller half of a slot.
pub(crate) struct SlotWait<T> {
    shared: Arc<Completion<T>>,
    slot: usize,
}

impl<T> SlotWait<T> {
    /// Wait for the slot's value, counting each sleep in `waits`; an
    /// error if the worker half was dropped unfilled.
    pub(crate) fn wait_slot(self, waits: &mut u64) -> Result<T> {
        self.shared.await_slot(self.slot, waits)
    }
}

// Pure — no file, no record type — so these run under the CI miri job.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// `d` queues, `cores` beside the submitter, on no device time.
    fn queues<J>(d: usize, cores: usize) -> DiskQueues<J> {
        DiskQueues::with_cores(d, cores, Arc::default())
    }

    fn queued<J>(q: &DiskQueues<J>) -> Vec<usize> {
        q.state.lock().disks.iter().map(|d| d.jobs.len()).collect()
    }

    fn until_parked<J>(q: &DiskQueues<J>, n: usize) {
        while q.state.lock().parked < n {
            thread::yield_now();
        }
    }

    /// Closed, the queues refuse work and the workers drain them.  Two
    /// workers take turns, each releasing its claim only by coming for
    /// its next job: disks 0 and 1 pass between them mid-queue, and `v`
    /// takes nothing while `b1'` and `c1` wait behind `w`'s claim.
    #[test]
    fn one_disks_jobs_come_out_in_submission_order_whichever_worker_serves_them() {
        let q = queues(3, 1);
        q.submit(vec![(0, "a0"), (1, "a1")]).unwrap();
        q.submit(vec![(1, "b1"), (2, "b2"), (1, "b1'")]).unwrap();
        q.submit(vec![(0, "c0"), (1, "c1")]).unwrap();
        q.close();
        assert!(q.submit(vec![(0, "late")]).is_err());
        let (mut w, mut v) = (q.worker(), q.worker());
        // Turn by turn, what `w` and `v` take, as (disk, job, due).
        let turns = [
            (Some((0, "a0", None)), Some((1, "a1", None))),
            (Some((2, "b2", None)), Some((0, "c0", None))),
            (Some((1, "b1", None)), None),
            (Some((1, "b1'", None)), None),
            (Some((1, "c1", None)), None),
            (None, None),
        ];
        for turn in turns {
            assert_eq!((w.next_job(), v.next_job()), turn);
        }
        assert_eq!(queued(&q), [0, 0, 0], "close drains every queue");
    }

    /// Four workers over four disks, fed by four producers: a per-disk
    /// in-flight counter never passes 1, each producer's jobs for a disk
    /// run in its submission order, and no job is lost or run twice.
    #[test]
    fn at_most_one_job_per_disk_is_in_flight() {
        const PER_PRODUCER: usize = if cfg!(miri) { 100 } else { 10_000 };
        let q = queues(4, 4);
        let in_flight: [AtomicUsize; 4] = Default::default();
        let served: [Mutex<Vec<usize>>; 4] = Default::default();
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut w = q.worker();
                    while let Some((d, job, _)) = w.next_job() {
                        assert_eq!(in_flight[d].fetch_add(1, Ordering::SeqCst), 0, "disk {d} ran two jobs at once");
                        served[d].lock().push(job);
                        thread::yield_now();
                        in_flight[d].fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
            thread::scope(|producers| {
                for p in 0..4 {
                    let q = &q;
                    producers.spawn(move || {
                        // Operations of width 1–4 over rotating disks.
                        let mut job = p * PER_PRODUCER;
                        while job < (p + 1) * PER_PRODUCER {
                            let width = (1 + job % 4).min((p + 1) * PER_PRODUCER - job);
                            q.submit((job..job + width).map(|j| (j % 4, j)).collect()).unwrap();
                            job += width;
                        }
                    });
                }
            });
            q.close();
        });
        let served = served.map(|jobs| std::mem::take(&mut *jobs.lock()));
        for (d, jobs) in served.iter().enumerate() {
            assert!(jobs.iter().all(|j| j % 4 == d), "disk {d} ran another disk's job");
            for p in 0..4 {
                let of_p: Vec<_> = jobs.iter().filter(|&&j| j / PER_PRODUCER == p).collect();
                assert!(of_p.windows(2).all(|w| w[0] < w[1]), "disk {d} reordered producer {p}");
            }
        }
        let mut all: Vec<usize> = served.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..4 * PER_PRODUCER).collect::<Vec<_>>());
    }

    #[test]
    fn a_submission_while_a_worker_is_runnable_notifies_nobody() {
        let q = queues(4, 1);
        let burst = |k: u32| (0..4).map(|d| (d, k)).collect::<Vec<_>>();
        // Nobody to wake; then a worker that has not parked yet.
        q.submit(burst(0)).unwrap();
        let mut w = q.worker();
        q.submit(burst(1)).unwrap();
        assert_eq!(q.counts(), (2, 0));
        thread::scope(|s| {
            let worker = s.spawn(move || std::iter::from_fn(|| w.next_job()).count());
            // Drained, it parks, and the next burst wakes it: once.
            until_parked(&q, 1);
            q.submit(burst(2)).unwrap();
            let counts = q.counts();
            q.close();
            assert_eq!((counts, worker.join().unwrap()), ((3, 1), 12));
        });
    }

    /// `w` runs disk 0's `a` with no device time, so it stays runnable
    /// and its peer stays parked; its next job, disk 1's `b`, is due an
    /// hour on, so before sleeping `w` hands disk 0's `c` to the peer.
    /// Every deadline runs from the burst's arrival.
    #[test]
    fn a_worker_about_to_sleep_on_a_device_deadline_hands_off_to_a_peer() {
        let service = Duration::from_secs(3600);
        let q = &queues(2, 1);
        thread::scope(|s| {
            let (took, first) = std::sync::mpsc::channel();
            let peer = s.spawn(move || {
                let mut p = q.worker();
                took.send(p.next_job()).unwrap();
                while p.next_job().is_some() {}
            });
            until_parked(q, 1);
            let mut w = q.worker();
            q.submit(vec![(0, 'a'), (1, 'b'), (0, 'c'), (1, 'd')]).unwrap();
            let arrived = q.state.lock().disks[0].jobs[0].1;
            let a = w.next_job();
            let parked = q.state.lock().parked;
            q.device.store(service.as_micros() as u64, Ordering::Relaxed);
            let b = w.next_job();
            // Before any close, only the hand-off wakes the peer.
            let c = first.recv_timeout(Duration::from_secs(10));
            q.close();
            peer.join().unwrap();
            assert_eq!((q.counts(), a, parked), ((1, 0), Some((0, 'a', None)), 1));
            assert_eq!(b, Some((1, 'b', Some(arrived + service))));
            assert_eq!(c, Ok(Some((0, 'c', Some(arrived + service)))));
            assert_eq!(w.next_job(), Some((1, 'd', Some(arrived + 2 * service))));
        });
    }

    /// A worker that exits holding disk 1 retires it: the job queued
    /// behind fails, and an operation touching disk 1 is refused whole,
    /// queued nowhere, while disk 0 still takes work — until the last
    /// worker leaves, failing what is left and refusing every submit.
    #[test]
    fn a_retired_claim_fails_its_disks_queue_and_the_last_worker_out_closes() {
        let q = queues(2, 1);
        let (fills, waits): (Vec<_>, Vec<_>) = completion::<u8>(2).unzip();
        q.submit(fills.into_iter().map(|fill| (1, fill)).collect()).unwrap();
        let stays = q.worker();
        let mut dies = q.worker();
        assert_eq!(dies.next_job().map(|(d, _, _)| d), Some(1));
        drop(dies);
        assert!(waits.into_iter().all(|wait| wait.wait_slot(&mut 0).is_err()));
        let (fills, waits): (Vec<_>, Vec<_>) = completion::<u8>(2).unzip();
        let err = q.submit(fills.into_iter().enumerate().collect()).unwrap_err();
        assert!(matches!(err, PdiskError::Io(_)), "got {err:?}");
        assert_eq!((queued(&q), q.counts()), (vec![0, 0], (1, 0)));
        assert!(waits.into_iter().all(|wait| wait.wait_slot(&mut 0).is_err()));
        let (fill, wait) = completion::<u8>(1).next().unwrap();
        q.submit(vec![(0, fill)]).unwrap();
        drop(stays);
        assert!(wait.wait_slot(&mut 0).is_err());
        assert!(q.submit(vec![]).is_err());
    }

    #[test]
    fn completion_halves_fill_wait_and_abandon() {
        let mut waits = 0;
        let (fills, mut halves): (Vec<_>, Vec<_>) = completion::<u32>(4).unzip();
        let mut fills = fills.into_iter();
        // Filled before anyone waits: no sleep.
        fills.next().unwrap().fill_slot(7);
        assert_eq!(halves.remove(0).wait_slot(&mut waits).unwrap(), 7);
        assert_eq!(waits, 0);
        // A dropped worker half is a gone worker, for its slot alone.
        drop(fills.next());
        assert!(halves.remove(0).wait_slot(&mut waits).is_err());
        // A dropped caller half never blocks the worker.
        drop(halves.remove(0));
        fills.next().unwrap().fill_slot(9);
        // Filled while the caller sleeps on the slot: it wakes with the
        // value, having counted the sleep.
        let (last, fill) = (halves.remove(0), fills.next().unwrap());
        thread::scope(|s| {
            let shared = Arc::clone(&last.shared);
            s.spawn(move || {
                while !matches!(shared.slots.lock()[3], Slot::Awaited) {
                    thread::yield_now();
                }
                fill.fill_slot(11);
            });
            assert_eq!(last.wait_slot(&mut waits).unwrap(), 11);
        });
        assert_eq!(waits, 1);
    }
}
