//! # srm-server — sort-as-a-service over the SRM/DSM engines
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
//!   for engines shared by the CLI, the crash-matrix harness, and this
//!   server, and [`AnyJob`](job::AnyJob), either engine
//!   (`srm_core::SrmSorter`, `dsm::DsmSorter`) behind the one
//!   [`pdisk::Sorter`] lifecycle both implement;
//! * [`queue`] — admission control: the Definition-3 memory partition
//!   (`M/B ≥ 2R + 4D + RD/B`) prices each job, and the server admits
//!   only combinations whose summed budgets fit the configured `M`;
//! * [`drain`] — graceful-shutdown coordination: stop admitting, let
//!   every running job reach its next checkpoint boundary (journaled
//!   via the PR-5 atomic manifest path), then stop;
//! * [`server`] — the [`JobServer`](server::JobServer): durable per-job
//!   directories, a polling worker pool, deadlines, cancellation, and a
//!   restart scan that resumes every in-flight job from `load_latest`
//!   manifests byte-identically;
//! * [`protocol`] / [`net`] — the line protocol (`SUBMIT`, `STATUS`,
//!   `WATCH`, `CANCEL`, `LIST`, `STATS`, `DRAIN`, `PING`) and the
//!   loopback TCP front end.

#![forbid(unsafe_code)]

pub mod drain;
pub mod job;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod server;

pub use drain::{DrainReport, ShutdownFlag};
pub use job::{
    digest_keys, expected_digest, generate_records, AnyJob, EngineKind, JobError, JobRun, JobSpec,
    KeyDigest,
};
pub use net::serve;
pub use queue::Admission;
pub use server::{JobServer, JobState, JobStatus, ServerConfig, ServerStats, SubmitError};
