//! # pdisk — the Vitter–Shriver parallel disk model
//!
//! This crate implements the machine model that the SRM paper (Barve, Grove,
//! Vitter, SPAA '96) assumes: an internal memory of `M` records, `D`
//! independent disks, and parallel I/O operations that move **at most one
//! block of `B` contiguous records per disk** in a single operation.
//!
//! The crate provides:
//!
//! * [`Geometry`] — the `(D, B, M)` machine description plus the derived
//!   merge orders for SRM and DSM straight from the paper's formulas;
//! * [`Record`] — the record abstraction (a `u64` sort key plus a fixed-size
//!   binary encoding so records can live on real disk files);
//! * [`Block`] — a block of `B` records plus the *forecasting format*
//!   metadata of §4 of the paper (implanted future keys);
//! * [`DiskArray`] — the parallel I/O interface.  The protocol is
//!   split-phase: [`DiskArray::submit_read`] / [`DiskArray::submit_write`]
//!   issue **one** parallel I/O operation, counted as such in [`IoStats`]
//!   there and then, and the matching `complete_*` waits for it; blocking
//!   [`DiskArray::read`] / [`DiskArray::write`] are that pair back to
//!   back, provided by the trait and defined nowhere else;
//! * [`MemDiskArray`] — the in-memory simulation backend used for exact I/O
//!   accounting experiments (the paper's own evaluation substrate);
//! * [`FileDiskArray`] — a real backend storing each simulated disk in its
//!   own file, executing the per-disk transfers of one parallel operation on
//!   dedicated worker threads — fed by its own per-disk queues (`queue`),
//!   onto which an operation is pushed whole before the workers are woken;
//! * [`StripedRun`] — cyclically striped run layout (block `i` of a run with
//!   start disk `d_r` lives on disk `(d_r + i) mod D`, §3 of the paper);
//!   partial striping (§2.2's `D = O(B)`) is no layer but a geometry:
//!   `D` disks clustered by `c` are `Geometry::new(D/c, c·B, M)`;
//! * [`layer`] — the wrapper stack's one forwarding point: a [`Layer`] is
//!   a wrapper's state plus the [`DiskArray`] operations it intercepts
//!   (every other one defaults to the array below), and [`Stack`] — a
//!   layer on an array — is the only `impl DiskArray` besides the two
//!   backends.  Each wrapper below is an alias of it
//!   (`RetryingDiskArray<R, A>` = `Stack<R, Retrying, A>`);
//! * [`faulty`] / [`retry`] — the fault-tolerance layer: a scriptable
//!   transient/permanent fault model ([`FaultModel`]) and a bounded-retry
//!   wrapper ([`RetryingDiskArray`]) that absorbs transient faults with
//!   simulated backoff while counting retries in [`IoStats`];
//! * [`parity`] — single-disk-failure tolerance: [`ParityDiskArray`] adds
//!   RAID-5-style rotating parity over any backend and serves a dead
//!   disk's blocks by reconstruction (degraded mode);
//! * [`crash`] — deterministic crash-point injection: [`CrashingDiskArray`]
//!   numbers every I/O boundary with a shared [`CrashClock`] and can kill
//!   the (simulated) process at any one of them, including torn multi-disk
//!   writes where only a prefix of the frames landed;
//! * [`window`] — the ticket queues every stripe loop runs on:
//!   [`WriteBehind`] (a bounded window of writes in flight, capped at
//!   [`WRITE_BEHIND_LIMIT`]), [`StripeWindow`] (the reads of one striped
//!   run) and [`read_run`], shared by the sorter and the shards;
//! * [`manifest`] — the byte primitives of a small durable file: the
//!   FNV-1a hash ([`fnv1a64`]), sibling naming and the atomic publish.
//!
//! Stack order for a fully protected array, bottom to top:
//! `RetryingDiskArray(ParityDiskArray(FaultyDiskArray(backend)))` — the
//! parity layer absorbs *permanent* faults from below; *transient* faults
//! pass through it to the retry layer above.  [`StackSpec::build`]
//! ([`stack`]) is the one place that assembles it, crash points, the
//! trace and a downstream layer's slot included; product code states
//! which layers are on and calls it.

// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod addr;
pub mod backend;
pub mod block;
pub mod crash;
pub mod error;
pub mod faulty;
pub mod file;
pub mod geometry;
pub mod interrupt;
pub mod layer;
pub mod manifest;
pub mod mem;
pub mod netfault;
pub mod parity;
pub mod pool;
mod queue;
pub mod record;
pub mod retry;
pub mod stack;
pub mod stats;
pub mod striping;
pub mod sync;
pub mod trace;
pub mod window;

pub use addr::{BlockAddr, DiskId};
pub use backend::{DiskArray, ReadTicket, RedundancyInfo, ScrubOutcome, WriteTicket};
pub use block::{Block, Forecast};
pub use crash::{CrashClock, CrashingDiskArray};
pub use error::{FaultKind, FaultOp, PdiskError, Result};
pub use faulty::{FaultModel, FaultPlan, FaultyDiskArray, ScriptedFault};
pub use file::{ArrayLease, FileDiskArray, PrefetchStats, QueueStats, WRITE_BEHIND_LIMIT};
pub use geometry::Geometry;
pub use interrupt::InterruptFlag;
pub use layer::{Layer, Stack};
pub use manifest::fnv1a64;
pub use mem::MemDiskArray;
pub use netfault::{Delivery, NetFault, NetFaultModel, PartitionWindow, ScriptedNetFault};
pub use parity::ParityDiskArray;
pub use pool::{BufferPool, PoolStats};
pub use record::{KeyPayloadRecord, Record, U64Record};
pub use retry::{Jitter, RetryCounters, RetryPolicy, RetryingDiskArray};
pub use stack::{BuiltStack, ParitySpec, StackSpec};
pub use stats::IoStats;
pub use striping::StripedRun;
pub use trace::{TraceEvent, TraceSink, TracingDiskArray};
pub use window::{read_run, write_unsorted_input, StripeWindow, WriteBehind};
