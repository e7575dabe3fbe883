//! Runtime lock-order witness: the dynamic half of `srmlint`'s lock
//! pass.
//!
//! Every direct `Mutex`/`RwLock` acquisition in the concurrent crates
//! wraps its guard in [`guard`] with the **node id** the static
//! analyzer computes for that lock (e.g. `"pdisk::pool::BufferPool.inner"`);
//! `srmlint`'s `witness` rule rejects any acquisition site that does
//! not.  The wrapper is always compiled and is a zero-cost
//! `Deref`/`DerefMut` shell unless the `lock-witness` cargo feature is
//! enabled.
//!
//! With the feature on, each thread keeps a held-label stack and
//! appends two kinds of records to the file named by the
//! `SRM_LOCK_WITNESS` environment variable (one line per record,
//! deduplicated per thread):
//!
//! ```text
//! lock\t<label>                 a lock that was acquired at least once
//! order\t<held>\t<acquired>     <acquired> taken while <held> was held
//! ```
//!
//! `srmlint --verify-witness <log>` then cross-checks: every observed
//! label must be a known static node and every observed order must be
//! a static may-hold edge, so the analyzer's graph provably explains
//! the orders the test suites actually executed.
//!
//! The module deliberately takes **no lock of its own**: the held
//! stack and dedup set are thread-local, and records are written with
//! a per-record `O_APPEND` open (appends of short lines are atomic on
//! every platform we run on; the reader deduplicates anyway).

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, MutexGuard, PoisonError};

/// A lock guard tagged with its static node id.  Transparent via
/// `Deref`/`DerefMut`; the held-stack entry is released when it drops.
#[derive(Debug)]
pub struct Witnessed<G> {
    guard: G,
    #[cfg(feature = "lock-witness")]
    held: Held,
}

/// One entry of this thread's held-label stack, released on drop.  It is
/// a field rather than a `Drop` on [`Witnessed`] so that a guard can be
/// taken apart and put back around a `Condvar` wait.
#[cfg(feature = "lock-witness")]
#[derive(Debug)]
struct Held(&'static str);

#[cfg(feature = "lock-witness")]
impl Drop for Held {
    fn drop(&mut self) {
        rec::release(self.0);
    }
}

/// Wrap a freshly-acquired guard, recording the acquisition (and its
/// order against every lock this thread already holds) when the
/// `lock-witness` feature is enabled.
///
/// `label` must be the node id `srmlint` assigns the lock — the
/// `witness` lint rule checks the literal at the acquisition site.
pub fn guard<G>(label: &'static str, guard: G) -> Witnessed<G> {
    #[cfg(feature = "lock-witness")]
    rec::acquire(label);
    #[cfg(not(feature = "lock-witness"))]
    let _ = label;
    Witnessed {
        guard,
        #[cfg(feature = "lock-witness")]
        held: Held(label),
    }
}

impl<T> Witnessed<MutexGuard<'_, T>> {
    /// `Condvar::wait`, coming back witnessed.  The label stays on the
    /// held stack across the wait: a parked thread acquires nothing, so
    /// no order is recorded or missed.  A poisoned lock is recovered, as
    /// at every acquisition site.  This is the crate's one `Condvar`
    /// wait; the blocking pass lists `wait_on` beside `wait`, so a worker
    /// may call it only from its blessed seam.
    #[srmlint::blessed_seam]
    pub fn wait_on(self, cv: &Condvar) -> Self {
        Witnessed {
            guard: Condvar::wait(cv, self.guard).unwrap_or_else(PoisonError::into_inner),
            #[cfg(feature = "lock-witness")]
            held: self.held,
        }
    }
}

impl<G> Deref for Witnessed<G> {
    type Target = G;
    fn deref(&self) -> &G {
        &self.guard
    }
}

impl<G> DerefMut for Witnessed<G> {
    fn deref_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

#[cfg(feature = "lock-witness")]
mod rec {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    /// Log path, read from `SRM_LOCK_WITNESS` once per process.
    static PATH: OnceLock<Option<PathBuf>> = OnceLock::new();

    fn path() -> Option<&'static PathBuf> {
        PATH.get_or_init(|| std::env::var_os("SRM_LOCK_WITNESS").map(PathBuf::from))
            .as_ref()
    }

    thread_local! {
        /// Labels of locks this thread currently holds, in order.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        /// Records already written by this thread: `("", l)` for a
        /// `lock` record, `(held, l)` for an `order` record.
        static SEEN: RefCell<BTreeSet<(&'static str, &'static str)>> =
            const { RefCell::new(BTreeSet::new()) };
    }

    /// One record = one `write_all` of one line to an `O_APPEND` fd, so
    /// concurrent writers cannot interleave mid-line.
    fn append(line: &str) {
        let Some(p) = path() else { return };
        let opened = std::fs::OpenOptions::new().append(true).create(true).open(p);
        if let Ok(mut f) = opened {
            let mut rec = String::with_capacity(line.len() + 1);
            rec.push_str(line);
            rec.push('\n');
            let _ = f.write_all(rec.as_bytes());
        }
    }

    pub(super) fn acquire(label: &'static str) {
        let held: Vec<&'static str> = HELD.with(|h| h.borrow().clone());
        SEEN.with(|s| {
            let mut s = s.borrow_mut();
            if s.insert(("", label)) {
                append(&format!("lock\t{label}"));
            }
            for prev in held {
                if s.insert((prev, label)) {
                    append(&format!("order\t{prev}\t{label}"));
                }
            }
        });
        HELD.with(|h| h.borrow_mut().push(label));
    }

    /// Remove the **last** occurrence of `label` (reentrant wrappers of
    /// distinct locks unwind in LIFO order; same-label nesting cannot
    /// happen with std's non-reentrant `Mutex`).
    pub(super) fn release(label: &'static str) {
        HELD.with(|h| {
            let mut v = h.borrow_mut();
            if let Some(pos) = v.iter().rposition(|l| *l == label) {
                v.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witnessed_is_transparent() {
        let m = std::sync::Mutex::new(vec![1, 2, 3]);
        let mut g = guard("test::node", m.lock().unwrap_or_else(|p| p.into_inner()));
        g.push(4);
        assert_eq!(g.len(), 4);
        drop(g);
        assert_eq!(m.lock().unwrap_or_else(|p| p.into_inner()).len(), 4);
    }

    #[cfg(feature = "lock-witness")]
    #[test]
    fn release_pops_last_occurrence() {
        let a = std::sync::Mutex::new(0u8);
        let b = std::sync::Mutex::new(0u8);
        // Nested acquisition: drop in reverse order must leave a clean
        // stack (no panic, no stale entries affecting later orders).
        let ga = guard("test::a", a.lock().unwrap_or_else(|p| p.into_inner()));
        let gb = guard("test::b", b.lock().unwrap_or_else(|p| p.into_inner()));
        drop(gb);
        drop(ga);
    }
}
