//! Marker attributes for the `srmlint` static analyzer.
//!
//! Every attribute here is a **no-op at compile time**: it returns the
//! annotated item unchanged.  The attributes exist so that source code
//! can carry machine-checkable concurrency/protocol contracts in plain
//! Rust syntax — `srmlint` re-discovers them by parsing the source, and
//! enforces them; `rustc` merely tolerates them.
//!
//! Crates import the macros under the `srmlint` name (via
//! `srmlint = { package = "srmlint-macros", ... }` in `Cargo.toml`), so
//! annotations read exactly as the analyzer documents them:
//!
//! | attribute                       | on            | meaning |
//! |---------------------------------|---------------|---------|
//! | `#[srmlint::worker_entry]`      | fn            | body (incl. closures) runs on a disk-worker/heartbeat thread |
//! | `#[srmlint::blessed_seam]`      | fn            | its *direct* blocking calls are the sanctioned I/O seam |
//! | `#[srmlint::interrupt_observer]`| fn            | observes `InterruptFlag` and returns `Interrupted`; callers must checkpoint first |
//! | `#[srmlint::checkpoint]`        | fn            | journals a durable checkpoint (satisfies the interrupt pass) |
//! | `#[srmlint::protocol]`          | enum          | a message vocabulary: dispatch `match`es must name every variant |

#![forbid(unsafe_code)]
// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use proc_macro::TokenStream;

macro_rules! marker {
    ($(#[doc = $doc:expr])* $name:ident) => {
        $(#[doc = $doc])*
        #[proc_macro_attribute]
        pub fn $name(_attr: TokenStream, item: TokenStream) -> TokenStream {
            item
        }
    };
}

marker!(
    /// Marks a function whose body (including closures it spawns) runs
    /// on a disk-worker or heartbeat thread; the blocking-in-worker
    /// pass checks everything reachable from it.
    worker_entry
);
marker!(
    /// Marks a function whose *direct* blocking calls are the blessed
    /// submit/complete seam (the positioned reads/writes and the job
    /// queue `recv` of a disk worker).  Reachability still descends
    /// into its callees.
    blessed_seam
);
marker!(
    /// Marks a function that observes an `InterruptFlag` and returns
    /// an `Interrupted` error; the interrupt-safety pass requires every
    /// call site to be preceded by a checkpoint seam.
    interrupt_observer
);
marker!(
    /// Marks a function that journals a durable checkpoint; calling it
    /// satisfies the interrupt-safety pass for subsequent
    /// `interrupt_observer` calls in the same body.
    checkpoint
);
marker!(
    /// Marks an enum as a message-protocol vocabulary: the
    /// protocol-exhaustiveness pass requires every dispatch `match` on
    /// it to name every variant, with no `_ =>` arm.
    protocol
);
