//! # srm-server — sort-as-a-service over the SRM engine (and DSM, its one-wide-disk configuration)
//!
//! PRs 1–5 made the paper's sorter fault-injected, parity-protected,
//! model-checked, and crash-consistent — but still one-process-one-sort.
//! This crate turns it into a long-running serving system: a job server
//! that accepts concurrent sort jobs over a local line protocol, runs
//! them on a bounded worker pool, and streams status and results back.
//!
//! The pieces, bottom to top:
//!
//! * [`job`] — [`JobSpec`](job::JobSpec), the single construction point
//!   for the engine shared by the CLI, the crash-matrix harness, and this
//!   server: an `srm_core::SrmSorter`, SRM- or DSM-configured; and
//!   [`sort_durable`](job::sort_durable), the one durable sort in a
//!   directory: a job's, a distsort shard's, `srm sort`'s and the chaos
//!   target's;
//! * [`queue`] — admission control: the Definition-3 memory partition
//!   (`M/B ≥ 2R + 4D + RD/B`) prices each job, and the server admits
//!   only combinations whose summed budgets fit the configured `M`;
//! * [`drain`] — graceful-shutdown coordination: stop admitting, let
//!   every running job reach its next checkpoint boundary (journaled
//!   via the PR-5 atomic manifest path), then stop;
//! * [`server`] — the [`JobServer`](server::JobServer): durable per-job
//!   directories, a worker pool that waits on the server's state,
//!   deadlines, cancellation, and a restart scan that resumes every
//!   in-flight job from `load_latest` manifests byte-identically;
//! * [`protocol`] / [`net`] — the line protocol (`SUBMIT`, `STATUS`,
//!   `WATCH`, `CANCEL`, `LIST`, `STATS`, `DRAIN`, `PING`) and the
//!   loopback TCP front end.

// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod drain;
pub mod job;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod server;

pub use drain::DrainReport;
pub use job::{
    check_sorted, decode_run, digest_keys, encode_run, expected_digest, fingerprint, generate_records, Carry,
    Descriptor, Disorder, EngineKind, JobError, JobSpec, KeyDigest, ShardMs,
};
pub use net::serve;
pub use queue::Admission;
pub use server::{JobServer, JobState, JobStatus, ServerConfig, ServerStats, SubmitError};
