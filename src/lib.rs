//! # srm-repro — facade over the SRM reproduction workspace
//!
//! Re-exports the workspace crates so examples and integration tests can
//! address the whole system through one dependency:
//!
//! * [`pdisk`] — the Vitter–Shriver parallel disk model (substrate);
//! * [`occupancy`] — occupancy theory: Monte Carlo + Theorem 2 bounds;
//! * [`srm`] — the paper's contribution: forecast-and-flush mergesort,
//!   and the disk-striped baseline (DSM) as its one-wide-disk
//!   configuration;
//! * [`analysis`] — closed-form I/O counts and the paper's tables.
//!
//! The facade also hosts [`crashmat`], the deterministic crash-matrix
//! harness, because it exercises the whole stack (pdisk crash clocks,
//! srm-core checkpoints, modelcheck replay) and is shared between the
//! CLI's `crash-matrix` subcommand and the integration suite; and
//! [`signals`], the one `unsafe` block in the repository (a `signal(2)`
//! declaration), bridging SIGINT/SIGTERM to the engines'
//! [`pdisk::InterruptFlag`] so sorts and the job server stop at
//! checkpoint boundaries instead of mid-write.

pub mod crashmat;
pub mod signals;

pub use analysis;
pub use occupancy;
pub use pdisk;
pub use srm_core as srm;
pub use srm_server as server;
