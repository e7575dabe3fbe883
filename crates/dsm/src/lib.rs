//! # dsm — disk-striped mergesort, the practice baseline
//!
//! DSM (§9 of the SRM paper) coordinates the `D` disks so that every
//! parallel operation accesses the *same* block offset on each disk.  That
//! turns the array into one logical disk with block size `D·B`: perfectly
//! parallel I/O with zero scheduling cleverness, at the price of a merge
//! order of only `Θ(M/DB)` instead of `Θ(M/B)` — hence more passes.
//!
//! With the paper's buffering convention (eq. 41) — `2D` blocks of write
//! buffer plus `2D` blocks (two logical blocks) per input run — DSM merges
//! `R_DSM = (M/B − 2D)/2D` runs at a time, and its total I/O count is
//!
//! ```text
//! (N/DB)·(2 + 2·ln(N/M)/ln R_DSM)
//! ```
//!
//! This crate implements DSM over the same [`pdisk`] substrate as SRM so
//! the two are compared on identical terms: identical geometry, identical
//! memory budget, identical counting.

#![forbid(unsafe_code)]
// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod checkpoint;
pub mod logical;
pub mod sort;

pub use checkpoint::DsmManifest;
pub use logical::{read_logical_run, LogicalRun};
pub use sort::{write_unsorted_stripes, DsmConfig, DsmError, DsmReport, DsmSorter};
