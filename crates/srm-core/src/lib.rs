//! # srm-core — Simple Randomized Mergesort on parallel disks
//!
//! Implementation of the SRM algorithm of Barve, Grove & Vitter (SPAA '96):
//! an external mergesort for the `D`-disk parallel I/O model that stripes
//! every run cyclically over the disks from a **uniformly random start
//! disk**, merges `R = Θ(M/B)` runs at a time, and keeps its reads almost
//! perfectly parallel with a *forecast-and-flush* memory policy:
//!
//! * a forecasting table ([`forecast`]) always knows, for every disk, which
//!   block will participate in the merge next, so each parallel read
//!   fetches the "right" block from every disk;
//! * when fewer than `D` buffers are free, the schedule *virtually
//!   flushes* ([`scheduler`]) exactly the in-memory blocks that will be
//!   needed farthest in the future — at zero I/O cost, since their contents
//!   are still on disk.
//!
//! Module map (paper section in parentheses):
//!
//! * [`key`] — block identity & ranking order;
//! * [`forecast`] — the FDS (§4);
//! * [`loser_tree`] — internal `R`-way merge (§5, via Knuth);
//! * [`scheduler`] — the I/O schedule, rules 2a–2c and `Flush_t` (§5.5);
//! * [`output`] — forecast-formatted run writing with full write
//!   parallelism (§3, §5.1's `M_W`);
//! * [`merge`] — the record-level merge engine (§5);
//! * [`merge_path`] — Merge Path diagonal partitioning (Green/Odeh/Birk)
//!   for deterministic multi-threaded in-memory merging;
//! * [`naive`] — the demand-paged strawman merger of §3, kept for the
//!   adversarial comparison (experiment X6);
//! * [`run_formation`] — initial runs: memory-load sort and replacement
//!   selection (§2.1);
//! * [`sort`] — the multi-pass mergesort driver, randomized or
//!   deterministic-staggered placement (§3, §8);
//! * [`checkpoint`] — the pass-granular checkpoint payload (kept in
//!   [`pdisk::manifest`]'s journaled store) so an interrupted multi-pass
//!   sort resumes from its last completed pass with byte-identical output;
//! * [`simulator`] — block-granularity re-implementation of the exact same
//!   schedule, used to reproduce Table 3 at paper scale (§9.3);
//! * [`error`] — error types.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod error;
pub mod forecast;
pub mod key;
pub mod loser_tree;
pub mod merge;
pub mod merge_path;
pub mod naive;
pub mod output;
pub mod par_sort;
pub mod run_formation;
pub mod scheduler;
pub mod scrub;
pub mod simulator;
pub mod sort;

pub use checkpoint::SortManifest;
pub use error::{Result, SrmError};
pub use key::{BlockKey, RunId};
pub use merge::{merge_runs, MergeOutcome, MergeStats};
pub use merge_path::{diagonal_split, merge_pair_into, par_merge_sorted_chunks};
pub use naive::{naive_merge_count, NaiveMergeStats};
pub use output::{read_run, RunWriter, StripeWindow};
pub use run_formation::{form_runs, RunFormation};
pub use scheduler::{ScheduleStats, Scheduler};
pub use scrub::{scrub_runs, ScrubReport};
pub use simulator::{MergeSim, SimInput, SimStats, TraceEvent};
pub use sort::{Placement, SortReport, SrmConfig, SrmSorter};
