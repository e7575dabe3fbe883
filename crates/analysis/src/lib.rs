//! # analysis — closed-form I/O counts and the paper's tables
//!
//! Everything §9–§10 of the SRM paper computes on paper or tabulates:
//!
//! * [`formulas`] — eq. (40)/(41): `C_SRM`, `C_DSM`, total-I/O counts,
//!   pass counts, the table memory size `M = (2k+4)DB + kD²`;
//! * [`theorem1`] — the three asymptotic read bounds of Theorem 1;
//! * [`tables`] — generators that recompute Tables 1–4 from the living
//!   code (Monte-Carlo occupancy for Tables 1–2, the block-level merge
//!   simulator for Tables 3–4);
//! * [`plan`] — the pass loop's merge plan and the blocks each pass
//!   moves under memory-load formation;
//! * [`paper`] — the numbers printed in the paper, embedded as reference
//!   constants so every regeneration can be diffed against the original;
//! * [`render`] — plain-text/markdown rendering used by the `bench`
//!   binaries and EXPERIMENTS.md.

// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod formulas;
pub mod memory;
pub mod paper;
pub mod plan;
pub mod render;
pub mod tables;
pub mod theorem1;

pub use formulas::{
    c_dsm, c_srm, dsm_total_ios, srm_total_ios, srm_write_ops, table_memory,
};
pub use memory::MemoryBudget;
pub use plan::{
    load_runs, memory_load_passes, pass_plan, pass_volumes, rs_worst_runs, sort_volumes, PassPlan, PassVolume,
};
pub use render::Grid;
pub use tables::{table1, table2, table3, table4, Table3Params};
