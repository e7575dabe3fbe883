//! Minimal POSIX signal bridge for graceful interruption.
//!
//! The workspace takes no external dependencies, so instead of `libc`
//! or `signal-hook` this module declares the one C function it needs —
//! `signal(2)` — and keeps the handler to the only thing that is
//! async-signal-safe anyway: flipping a process-global atomic.  The
//! watcher thread ([`watch`]) bridges that atomic to an action: trigger
//! a sort's [`pdisk::InterruptFlag`], which the sorters check at pass
//! boundaries (journaling a checkpoint before stopping), or call
//! `JobServer::request_shutdown`, which drains the job server.
//!
//! This is deliberately the *only* `unsafe` in the repository.  Every
//! `crates/*` package inherits the workspace's `unsafe_code = "forbid"`;
//! this package denies it, and [`install`] alone allows it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `SIGINT` (Ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite kill, e.g. from an init system).
pub const SIGTERM: i32 = 15;

static TRIGGERED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    TRIGGERED.store(true, Ordering::Release);
}

// `signal(2)`: SysV semantics are fine — we never uninstall, and a
// second delivery during handling at worst re-stores the flag.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Install the graceful-interrupt handler for `SIGINT` and `SIGTERM`.
/// Idempotent; later installs are no-ops at the process level.
#[allow(unsafe_code)]
pub fn install() {
    // SAFETY: `signal` is the C standard library's signal(2); the
    // handler is an `extern "C" fn` that only performs an atomic store,
    // which is async-signal-safe per POSIX.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Whether a `SIGINT`/`SIGTERM` has been delivered since [`install`].
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::Acquire)
}

/// Reset the delivery latch (tests only; real processes are on their
/// way out once it fires).
pub fn reset() {
    TRIGGERED.store(false, Ordering::Release);
}

/// Spawn a watcher that forwards the process signal latch to
/// `on_signal` (e.g. triggering a sorter's [`pdisk::InterruptFlag`], or
/// asking the job server to drain).  The thread exits once it has
/// forwarded a delivery or when `stop` returns true.
pub fn watch(on_signal: impl FnOnce() + Send + 'static, stop: impl Fn() -> bool + Send + 'static) {
    std::thread::spawn(move || loop {
        if triggered() {
            on_signal();
            return;
        }
        if stop() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::InterruptFlag;

    // One sequential test: the latch is process-global state, so the
    // scenarios must not interleave.
    #[test]
    fn latch_forwards_to_interrupt_flags_and_watchers_stop() {
        install();
        reset();
        assert!(!triggered());

        // An unsignalled watcher honours its stop request and leaves
        // the flag alone.
        let idle = InterruptFlag::new();
        let forward = idle.clone();
        watch(move || forward.trigger(), || true);
        std::thread::sleep(Duration::from_millis(80));
        assert!(!idle.is_set());

        // Run the handler exactly as a delivery would (it is a plain
        // `extern "C" fn` doing one atomic store) and watch it forward.
        on_signal(SIGINT);
        assert!(triggered());
        let flag = InterruptFlag::new();
        let forward = flag.clone();
        watch(move || forward.trigger(), || false);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !flag.is_set() {
            assert!(std::time::Instant::now() < deadline, "watcher never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        reset();
    }
}
