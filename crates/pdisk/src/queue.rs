//! The two primitives between the file backend and its disk workers:
//! the per-disk job queues and the per-operation completion.
//!
//! Both are generic over what they carry and touch no file, so their
//! tests run everywhere the crate's do, miri included.
//!
//! [`DiskQueues`] holds the `D` per-disk FIFO queues behind **one** lock.
//! A parallel I/O is submitted whole: every job is built first, all of
//! them are pushed under a single acquisition, and only then — and only
//! if a worker the operation touches is asleep — is the one condvar
//! notified.  Waking a parked thread costs tens of microseconds and can
//! preempt the submitting thread, so *queue everything, then wake* is
//! what makes a `D`-wide operation one scheduling event instead of `D`.
//! A submit is all or nothing: if any touched disk's worker has died,
//! nothing is queued.
//!
//! A [`completion`] is one record per operation with a slot per job.
//! The worker half of a slot ([`SlotFill`]) fills it, or reports the
//! worker gone by dropping unfilled; the caller half ([`SlotWait`])
//! sleeps only while the slot it is blocked on is empty, and abandons
//! the result by dropping.  A fill never blocks.
//!
//! Both locks are leaves: jobs are built, and dropped, outside them.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::error::{PdiskError, Result};
use crate::lockwitness::{self, Witnessed};

/// The worker a job or a result depended on has exited.
fn worker_gone() -> PdiskError {
    PdiskError::Io(std::io::Error::other("disk worker thread terminated"))
}

struct Disk<J> {
    jobs: VecDeque<J>,
    /// The worker is parked on the condvar (or about to be).
    asleep: bool,
    /// The worker has exited; nothing may be queued for it.
    gone: bool,
}

struct State<J> {
    disks: Vec<Disk<J>>,
    closed: bool,
    /// Operations queued, and how many of them notified.
    submissions: u64,
    notifications: u64,
}

/// `D` per-disk job queues behind one lock and one condvar.
pub(crate) struct DiskQueues<J> {
    state: Mutex<State<J>>,
    wake: Condvar,
}

impl<J> DiskQueues<J> {
    pub(crate) fn new(d: usize) -> Self {
        let disk = || Disk { jobs: VecDeque::new(), asleep: false, gone: false };
        DiskQueues {
            state: Mutex::new(State {
                disks: (0..d).map(|_| disk()).collect(),
                closed: false,
                submissions: 0,
                notifications: 0,
            }),
            wake: Condvar::new(),
        }
    }

    #[srmlint::leaf]
    fn lock(&self) -> Witnessed<MutexGuard<'_, State<J>>> {
        // The state is plain queues and flags, consistent at every
        // statement boundary, so a poisoned lock is recovered.
        lockwitness::guard(
            "pdisk::queue::DiskQueues.state",
            self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// Queue one operation's jobs, each on its disk, then wake.  Refused
    /// whole — nothing queued — when the queues are closed or the worker
    /// of any touched disk is gone.
    pub(crate) fn submit(&self, jobs: Vec<(usize, J)>) -> Result<()> {
        let mut st = self.lock();
        if st.closed || jobs.iter().any(|(d, _)| st.disks[*d].gone) {
            drop(st);
            return Err(worker_gone());
        }
        let mut wake = false;
        for (d, job) in jobs {
            wake |= st.disks[d].asleep;
            st.disks[d].jobs.push_back(job);
        }
        st.submissions += 1;
        st.notifications += u64::from(wake);
        drop(st);
        if wake {
            self.wake.notify_all();
        }
        Ok(())
    }

    /// The worker's end of `disk`'s queue; dropping it retires the disk.
    pub(crate) fn worker(&self, disk: usize) -> QueueWorker<'_, J> {
        QueueWorker { queues: self, disk }
    }

    /// Stop accepting work and let the workers exit once their queues
    /// are empty.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// Operations submitted so far, and how many of them had to notify.
    pub(crate) fn counts(&self) -> (u64, u64) {
        let st = self.lock();
        (st.submissions, st.notifications)
    }
}

#[cfg(test)]
impl<J> DiskQueues<J> {
    /// Block until the workers of `disks` are parked on the condvar.
    pub(crate) fn until_asleep(&self, disks: std::ops::Range<usize>) {
        while !disks.clone().all(|d| self.lock().disks[d].asleep) {
            std::thread::yield_now();
        }
    }
}

/// One worker's handle on its disk's queue.
pub(crate) struct QueueWorker<'a, J> {
    queues: &'a DiskQueues<J>,
    disk: usize,
}

impl<J> QueueWorker<'_, J> {
    /// The next job of this disk, in submission order, with whether it
    /// was *backlogged*: already waiting when the worker came for one, as
    /// opposed to arriving while it slept.  `None` once the queues are
    /// closed and this one is empty.
    #[srmlint::blessed_seam]
    pub(crate) fn next_job(&self) -> Option<(J, bool)> {
        let mut st = self.queues.lock();
        let mut backlogged = true;
        loop {
            if let Some(job) = st.disks[self.disk].jobs.pop_front() {
                return Some((job, backlogged));
            }
            if st.closed {
                return None;
            }
            backlogged = false;
            st.disks[self.disk].asleep = true;
            st = st.wait_on(&self.queues.wake);
            st.disks[self.disk].asleep = false;
        }
    }
}

impl<J> Drop for QueueWorker<'_, J> {
    /// The worker is exiting (or unwinding): refuse further work for its
    /// disk and drop what was queued — outside the lock — so that every
    /// job's completion half reports the worker gone.
    fn drop(&mut self) {
        let mut st = self.queues.lock();
        st.disks[self.disk].gone = true;
        let orphans = std::mem::take(&mut st.disks[self.disk].jobs);
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
    #[srmlint::leaf]
    fn lock(&self) -> Witnessed<MutexGuard<'_, Vec<Slot<T>>>> {
        lockwitness::guard(
            "pdisk::queue::Completion.slots",
            self.slots.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    fn await_slot(&self, slot: usize, waits: &mut u64) -> Result<T> {
        let mut slots = self.lock();
        loop {
            match std::mem::replace(&mut slots[slot], Slot::Gone) {
                Slot::Full(value) => return Ok(value),
                Slot::Gone => return Err(worker_gone()),
                Slot::Empty | Slot::Awaited => {
                    slots[slot] = Slot::Awaited;
                    *waits += 1;
                    slots = slots.wait_on(&self.filled);
                }
            }
        }
    }

    /// Move `slot` from empty to `to`, waking the caller asleep on it.
    fn settle(&self, slot: usize, to: Slot<T>) {
        let mut slots = self.lock();
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
    use std::thread;

    fn queued<J>(q: &DiskQueues<J>) -> Vec<usize> {
        q.lock().disks.iter().map(|d| d.jobs.len()).collect()
    }

    #[test]
    fn one_disks_jobs_come_out_in_submission_order_across_operations() {
        let q = DiskQueues::new(3);
        q.submit(vec![(0, "a0"), (1, "a1")]).unwrap();
        q.submit(vec![(1, "b1"), (2, "b2"), (1, "b1'")]).unwrap();
        q.submit(vec![(0, "c0"), (1, "c1")]).unwrap();
        q.close();
        let drain = |d| {
            let w = q.worker(d);
            std::iter::from_fn(|| w.next_job()).map(|(job, _)| job).collect::<Vec<_>>()
        };
        assert_eq!(drain(1), ["a1", "b1", "b1'", "c1"]);
        assert_eq!(drain(0), ["a0", "c0"]);
        assert_eq!(drain(2), ["b2"]);
    }

    #[test]
    fn backlogged_means_found_waiting_not_received_after_a_sleep() {
        let q = DiskQueues::new(1);
        q.submit(vec![(0, 1), (0, 2)]).unwrap();
        thread::scope(|s| {
            let worker = s.spawn(|| {
                let w = q.worker(0);
                [w.next_job(), w.next_job(), w.next_job(), w.next_job()]
            });
            q.until_asleep(0..1);
            q.submit(vec![(0, 3)]).unwrap();
            q.until_asleep(0..1);
            q.close();
            let got = worker.join().unwrap();
            assert_eq!(got, [Some((1, true)), Some((2, true)), Some((3, false)), None]);
        });
    }

    #[test]
    fn an_operation_notifies_once_if_a_touched_worker_sleeps_and_never_otherwise() {
        let q = DiskQueues::new(3);
        // Nobody is asleep (nobody has even started): no notification.
        q.submit(vec![(0, 0), (1, 0), (2, 0)]).unwrap();
        assert_eq!(q.counts(), (1, 0));
        thread::scope(|s| {
            for d in 0..3 {
                let q = &q;
                s.spawn(move || {
                    let w = q.worker(d);
                    while w.next_job().is_some() {}
                });
            }
            // One full-width operation over three sleeping workers: one.
            q.until_asleep(0..3);
            q.submit(vec![(0, 1), (1, 1), (2, 1)]).unwrap();
            assert_eq!(q.counts(), (2, 1));
            q.until_asleep(0..3);
            q.close();
        });
    }

    /// The bugfix: with disk 2's worker dead, an operation over disks 0–3
    /// is refused before anything is queued anywhere.
    #[test]
    fn a_refused_operation_queues_nothing() {
        let q = DiskQueues::new(4);
        drop(q.worker(2));
        let (fills, waits): (Vec<_>, Vec<_>) = completion::<u8>(4).unzip();
        let err = q.submit(fills.into_iter().enumerate().collect()).unwrap_err();
        assert!(matches!(err, PdiskError::Io(_)), "got {err:?}");
        assert_eq!(queued(&q), [0, 0, 0, 0]);
        assert_eq!(q.counts(), (0, 0));
        // The refused jobs were dropped: their completions say so.
        for wait in waits {
            assert!(wait.wait_slot(&mut 0).is_err());
        }
        // The other disks still take work; a closed queue takes none.
        q.submit(vec![]).unwrap();
        q.close();
        assert!(q.submit(vec![]).is_err());
    }

    #[test]
    fn a_retiring_worker_fails_the_jobs_left_in_its_queue() {
        let q = DiskQueues::new(2);
        let (fill, wait) = completion::<u8>(1).next().unwrap();
        q.submit(vec![(1, fill)]).unwrap();
        drop(q.worker(1));
        assert_eq!(queued(&q), [0, 0]);
        assert!(wait.wait_slot(&mut 0).is_err());
    }

    #[test]
    fn close_drains_the_queues_before_the_workers_exit() {
        let q = DiskQueues::new(2);
        q.submit(vec![(0, 10), (1, 11)]).unwrap();
        q.submit(vec![(0, 20)]).unwrap();
        q.close();
        let w = q.worker(0);
        assert_eq!([w.next_job(), w.next_job(), w.next_job()], [Some((10, true)), Some((20, true)), None]);
        let w = q.worker(1);
        assert_eq!([w.next_job(), w.next_job()], [Some((11, true)), None]);
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
                while !matches!(shared.lock()[3], Slot::Awaited) {
                    thread::yield_now();
                }
                fill.fill_slot(11);
            });
            assert_eq!(last.wait_slot(&mut waits).unwrap(), 11);
        });
        assert_eq!(waits, 1);
    }

    #[test]
    fn producers_and_workers_lose_and_duplicate_nothing() {
        const PER_PRODUCER: usize = if cfg!(miri) { 100 } else { 10_000 };
        let q = DiskQueues::new(4);
        let seen: Vec<Vec<usize>> = thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|d| {
                    let q = &q;
                    s.spawn(move || {
                        let w = q.worker(d);
                        std::iter::from_fn(|| w.next_job()).map(|(job, _)| job).collect::<Vec<usize>>()
                    })
                })
                .collect();
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let q = &q;
                    s.spawn(move || {
                        // Operations of width 1–4 over rotating disks.
                        let mut job = p * PER_PRODUCER;
                        while job < (p + 1) * PER_PRODUCER {
                            let width = (1 + job % 4).min((p + 1) * PER_PRODUCER - job);
                            q.submit((job..job + width).map(|j| (j % 4, j)).collect()).unwrap();
                            job += width;
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (d, jobs) in seen.iter().enumerate() {
            assert!(jobs.iter().all(|j| j % 4 == d), "disk {d} saw another disk's job");
            // One producer's jobs for a disk arrive in its submission order.
            for p in 0..4 {
                let of_p: Vec<_> = jobs.iter().filter(|&&j| j / PER_PRODUCER == p).collect();
                assert!(of_p.windows(2).all(|w| w[0] < w[1]), "disk {d} reordered producer {p}");
            }
        }
        let mut all: Vec<usize> = seen.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..4 * PER_PRODUCER).collect::<Vec<_>>());
    }
}
