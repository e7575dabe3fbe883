//! A worker that parks on a `Condvar` in three places: in its blessed
//! seam, where waiting for work is the point, and in two helpers outside
//! it — once spelled `Condvar::wait`, once through a witness-style
//! `wait_on` wrapper.  srmlint's blocking pass must accept the first
//! and reject the other two.

#![forbid(unsafe_code)]

use std::sync::{Condvar, Mutex, MutexGuard};

pub struct Inbox {
    jobs: Mutex<Vec<u64>>,
    ready: Condvar,
}

pub struct Held<'a>(MutexGuard<'a, Vec<u64>>);

impl Held<'_> {
    /// The wrapper's own wait is its seam; its callers are still policed.
    #[srmlint::blessed_seam]
    fn wait_on(self, cv: &Condvar) -> Self {
        Held(Condvar::wait(cv, self.0).unwrap_or_else(|p| p.into_inner()))
    }
}

impl Inbox {
    /// The sanctioned wait: the worker's job queue.
    #[srmlint::blessed_seam]
    fn next_job(&self) -> u64 {
        let mut held = Held(self.jobs.lock().unwrap_or_else(|p| p.into_inner()));
        loop {
            if let Some(job) = held.0.pop() {
                return job;
            }
            held = held.wait_on(&self.ready);
        }
    }

    /// Not a seam: a second place the worker could park.
    fn linger(&self) {
        let jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        let _jobs = Condvar::wait(&self.ready, jobs); // unblessed wait
    }

    /// Nor is this, though it goes through the wrapper.
    fn dawdle(&self) {
        let held = Held(self.jobs.lock().unwrap_or_else(|p| p.into_inner()));
        let _held = held.wait_on(&self.ready); // unblessed wait_on
    }
}

#[srmlint::worker_entry]
pub fn run(inbox: &Inbox) {
    loop {
        if inbox.next_job() == 0 {
            inbox.linger();
            inbox.dawdle();
        }
    }
}
