//! Trace-level invariant checker for the Vitter–Shriver parallel disk
//! model.
//!
//! The sorters in this workspace claim to follow the model rules of the
//! paper exactly — at most one block per disk per parallel I/O, buffer
//! residency within `M/B`, forecast-minimal fetching, farthest-future
//! virtual flushes, perfectly striped output runs, and rotating parity
//! that never colocates data with its parity.  Those claims back every
//! number the repo reports against the paper's tables; this crate makes
//! them *checkable*.
//!
//! `pdisk` records a structured [`pdisk::trace`] event stream (off by
//! default, zero-cost when absent).  This crate replays such a stream
//! through an independent replica of the scheduler's data structures and
//! judges every event against the formal rules; any divergence is a
//! typed, located [`Violation`] naming the pass, disk, run, and block
//! involved.
//!
//! [`check_trace`] / [`check_trace_collect`] / [`check_stats`] judge an
//! engine trace recorded by `pdisk::trace::TraceSink` (both sorters and
//! the CLI's `--check-model`).  The block-granularity simulator is not
//! checked separately: `tests/simulator_vs_engine.rs` requires its
//! schedule to equal, event for event, a checker-clean engine trace.
//!
//! ```
//! use pdisk::trace::{Tagged, TraceEvent};
//! use pdisk::{BlockAddr, DiskId, Geometry};
//!
//! let geom = Geometry::new(2, 4, 64).unwrap();
//! // A parallel read touching one disk twice breaks the model's
//! // defining constraint and is flagged at its event.
//! let trace = vec![Tagged {
//!     seq: 0,
//!     pass: 1,
//!     event: TraceEvent::Read {
//!         addrs: vec![BlockAddr::new(DiskId(0), 0), BlockAddr::new(DiskId(0), 1)],
//!     },
//! }];
//! let violation = modelcheck::check_trace(geom, &trace).unwrap_err();
//! assert!(violation.to_string().contains("d0 twice"));
//! ```

// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(missing_docs)]

pub mod replay;
pub mod violation;

pub use replay::{check_stats, check_trace, check_trace_collect, CheckSummary, Replay};
pub use violation::{BlockRef, Violation, ViolationKind};
