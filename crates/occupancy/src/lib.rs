//! # occupancy — maximum-occupancy problems behind SRM's analysis
//!
//! The SRM paper (§7) reduces the I/O cost of its merge to the **dependent
//! maximum occupancy** problem: `C` chains of balls, totalling `N_b` balls,
//! are thrown into `D` bins; a chain of length `ℓ` landing in bin `s`
//! deposits its balls cyclically into bins `s, s+1, …, s+ℓ−1 (mod D)`.  The
//! classical occupancy problem (`N_b` independent balls) is the special case
//! of all chains having length 1.
//!
//! This crate implements:
//!
//! * [`classical`] — Monte-Carlo estimation of the expected maximum
//!   occupancy `C(N_b, D)` (the quantity tabulated in the paper's Table 1
//!   as `v(k, D) = C(kD, D)/k`) plus exact small-case enumeration;
//! * [`dependent`] — the chain-throwing process, Lemma 9's normalization
//!   (chains longer than `D` split without changing the occupancy
//!   distribution), and Monte-Carlo maxima, used for Figure 1 and for the
//!   §7.2 conjecture experiment;
//! * [`bounds`] — Theorem 2's closed-form upper bounds and the numeric
//!   `ρ*` optimization of eq. (24) that the closed forms asymptotically
//!   approximate;
//! * [`gamma`] — a Marsaglia–Tsang gamma sampler (implemented here so the
//!   repository needs no dependency beyond `rand`);
//! * [`order_stats`] — exact sampling of every `B`-th order statistic of a
//!   run's record positions, the trick that lets the Table 3 simulator run
//!   at the paper's scale without materializing records;
//! * [`stats`] — running means, standard errors and confidence intervals
//!   for all the estimators above.

// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod bounds;
pub mod classical;
pub mod dependent;
pub mod gamma;
pub mod order_stats;
pub mod pgf;
pub mod stats;

pub use bounds::{rho_star, theorem2_case1, theorem2_case2, upper_bound_expected_max};
pub use classical::{
    estimate_classical_max, exact_classical_max_egf, max_occupancy_once, overhead_v,
};
pub use dependent::{figure1_instance, DependentProblem};
pub use gamma::GammaSampler;
pub use order_stats::{BlockBounds, BlockMinima};
pub use pgf::BinOccupancyPgf;
pub use stats::{Estimate, RunningStats};
