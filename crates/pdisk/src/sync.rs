//! The workspace's one lock type, and its one lock rule: **a thread never
//! acquires a lock while it holds one.**
//!
//! While the rule holds there is no lock order, so no lock-order deadlock
//! is possible.  [`Mutex::lock`] enforces it in every debug build — so in
//! every `cargo test` run: a thread-local keeps the `file:line` where this
//! thread took the lock it holds, and a second acquisition panics naming
//! both sites.  [`MutexGuard::wait`] keeps that record across a `Condvar`
//! wait, because a parked thread acquires nothing.  Release builds compile
//! the check out; `lock` is then `std::sync::Mutex::lock` plus the poison
//! recovery.
//!
//! Every lock's state is a few fields that are consistent at each
//! statement boundary, so a lock poisoned by a panicking holder is
//! recovered, never propagated.
//!
//! The root `clippy.toml` disallows `std::sync::Mutex` and
//! `std::sync::RwLock`, so no new lock can bypass the rule; this module is
//! the one place allowed to name them.

#![expect(clippy::disallowed_types, reason = "the one place std's lock is named")]

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, PoisonError};

/// A mutual-exclusion lock that holds the lock rule (module docs).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// The lock is held until this guard drops.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    guard: std::sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    held: held::Held,
}

impl<T> Mutex<T> {
    /// A new, unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering it from poison.
    ///
    /// # Panics
    ///
    /// In a debug build, if this thread already holds a lock: the message
    /// names where each of the two was taken.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = held::Held::enter(std::panic::Location::caller());
        MutexGuard {
            guard: self.0.lock().unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            held,
        }
    }
}

impl<T> MutexGuard<'_, T> {
    /// `Condvar::wait`: release the lock, sleep until notified, and take
    /// it back.  This thread's record of the lock it holds stays in place
    /// across the wait.  Clippy's `disallowed-methods` lists it, so each
    /// caller `#[expect]`s the lint and names the seam it waits in.
    #[expect(clippy::disallowed_methods, reason = "the one wrapper of Condvar::wait")]
    pub fn wait(self, cv: &Condvar) -> Self {
        MutexGuard {
            guard: cv.wait(self.guard).unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            held: self.held,
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;
    use std::panic::Location;

    thread_local! {
        /// Where this thread took the lock it holds, if it holds one.
        static HELD: Cell<Option<&'static Location<'static>>> = const { Cell::new(None) };
    }

    /// This thread's record of the lock it holds.  It is a guard field
    /// rather than a `Drop` on the guard, so that [`super::MutexGuard::wait`]
    /// can take the guard apart and keep the record.
    #[derive(Debug)]
    pub(super) struct Held;

    impl Held {
        #[expect(clippy::panic, reason = "a broken lock rule is the caller's bug")]
        pub(super) fn enter(at: &'static Location<'static>) -> Held {
            // A destructor that locks while its thread unwinds out of a
            // critical section is left alone: a second panic would abort
            // the process and lose the first one's message.
            if let (Some(held), false) = (HELD.replace(Some(at)), std::thread::panicking()) {
                panic!(
                    "lock taken at {at} while this thread holds the lock taken at {held}: \
                     a thread never acquires a lock while it holds one"
                );
            }
            Held
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_nested_acquisition_panics_naming_both_sites() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        let (mut outer, mut inner) = (0, 0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _a = a.lock();
            outer = line!() - 1;
            inner = line!() + 1;
            let _b = b.lock();
        }));
        let msg = message(caught.expect_err("the second lock must panic"));
        for line in [outer, inner] {
            assert!(msg.contains(&format!("{}:{line}:", file!())), "{msg}");
        }
        // Both guards are gone, and with them the record.
        assert_eq!(*a.lock(), 1);
        assert_eq!(*b.lock(), 2);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the wait under test")]
    fn a_guard_waiting_on_a_condvar_comes_back_holding_its_lock() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        // Locked before the notifier starts, so it can only set the flag
        // while this thread waits.
        let mut ready = shared.0.lock();
        let notifier = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                *shared.0.lock() = true;
                shared.1.notify_all();
            })
        };
        while !*ready {
            ready = ready.wait(&shared.1);
        }
        // The record survived the wait: this thread still holds a lock.
        #[cfg(debug_assertions)]
        assert!(catch_unwind(|| drop(Mutex::new(()).lock())).is_err());
        drop(ready);
        notifier
            .join()
            .expect("the notifier takes its one lock and returns");
        assert!(*shared.0.lock());
    }

    #[test]
    fn a_lock_poisoned_by_a_panicking_holder_is_recovered() {
        let m = Mutex::new(vec![1]);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            m.lock().push(2);
            let _holder = m.lock();
            panic!("the holder dies");
        }));
        assert!(caught.is_err() && m.0.is_poisoned());
        m.lock().push(3);
        assert_eq!(*m.lock(), [1, 2, 3]);
    }
}
