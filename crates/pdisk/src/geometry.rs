//! Machine geometry `(D, B, M)` and the merge orders derived from it.
//!
//! All formulas are taken verbatim from the paper:
//!
//! * SRM merge order (§2.2): the largest `R` with `M/B ≥ 2R + 4D + RD/B`,
//!   i.e. `R = (M/B − 4D) / (2 + D/B)`;
//! * DSM merge order (§9.1): `(M/B − 2D) / 2D`, which equals
//!   `k + 1 + kD/2B` when `M = (2k+4)DB + kD²`;
//! * the paper's table memory size (§9.1): `M = (2k+4)·D·B + k·D²` records
//!   for merge order `R = kD`;
//! * the fetch pool `M_R` of Definition 3 for a merge of order `R`: what
//!   memory has left after `M_L`, `M_D`, `M_W` and the forecasting table,
//!   capped at `R + D`.

use crate::error::{PdiskError, Result};
use serde::{Deserialize, Serialize};

/// Description of a parallel disk machine: `D` disks, blocks of `B` records,
/// and `M` records of internal memory.
///
/// # Examples
///
/// ```
/// use pdisk::Geometry;
///
/// // 4 disks, 64-record blocks, 8192 records of memory.
/// let g = Geometry::new(4, 64, 8192)?;
/// assert_eq!(g.memory_blocks(), 128);
/// assert_eq!(g.stripe_records(), 256);
///
/// // SRM merges far more runs per pass than DSM on the same machine.
/// assert!(g.srm_merge_order()? > 3 * g.dsm_merge_order()?);
/// # Ok::<(), pdisk::PdiskError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Number of independent disks `D` (also the channel width in blocks).
    pub d: usize,
    /// Block size `B`, in records.
    pub b: usize,
    /// Internal memory capacity `M`, in records.
    pub m: usize,
}

impl Geometry {
    /// Build and validate a geometry.
    ///
    /// Requirements checked here mirror the model's assumptions: at least
    /// one disk, non-empty blocks, and `M ≥ 2DB` (Vitter–Shriver's minimum
    /// for any two-level algorithm to function).
    pub fn new(d: usize, b: usize, m: usize) -> Result<Self> {
        if d == 0 {
            return Err(PdiskError::BadGeometry("D must be >= 1".into()));
        }
        if d > u32::MAX as usize {
            // DiskId is a u32; this bound makes every in-range disk index
            // representable, which DiskId::from_index/from_mod rely on.
            return Err(PdiskError::BadGeometry(format!(
                "D = {d} exceeds the addressable maximum {}",
                u32::MAX
            )));
        }
        if b == 0 {
            return Err(PdiskError::BadGeometry("B must be >= 1".into()));
        }
        if m < 2 * d * b {
            return Err(PdiskError::BadGeometry(format!(
                "M = {m} records is below the model minimum 2DB = {}",
                2 * d * b
            )));
        }
        Ok(Geometry { d, b, m })
    }

    /// The paper's standard table configuration: merge order `R = kD` with
    /// memory `M = (2k+4)·D·B + k·D²` (§9.1).
    pub fn for_table(k: usize, d: usize, b: usize) -> Result<Self> {
        let m = (2 * k + 4) * d * b + k * d * d;
        Geometry::new(d, b, m)
    }

    /// Number of block-sized frames that fit in internal memory, `M/B`.
    #[inline]
    pub fn memory_blocks(&self) -> usize {
        self.m / self.b
    }

    /// Records moved by one full-width parallel I/O operation, `D·B`.
    #[inline]
    pub fn stripe_records(&self) -> usize {
        self.d * self.b
    }

    /// SRM's merge order: the largest `R` satisfying
    /// `M/B ≥ 2R + 4D + R·D/B` (§2.2).
    ///
    /// Solving for `R` gives `R = (M/B − 4D)·B / (2B + D)`, floored.
    pub fn srm_merge_order(&self) -> Result<usize> {
        let mb = self.memory_blocks();
        if mb <= 4 * self.d {
            return Err(PdiskError::BadGeometry(format!(
                "M/B = {mb} leaves no room for SRM: need more than 4D = {} blocks",
                4 * self.d
            )));
        }
        let r = (mb - 4 * self.d) * self.b / (2 * self.b + self.d);
        if r < 2 {
            return Err(PdiskError::BadGeometry(format!(
                "memory supports SRM merge order {r}; at least 2 is required"
            )));
        }
        Ok(r)
    }

    /// DSM's merge order with the paper's buffering convention (§9.1):
    /// `2D` blocks of write buffer and `2D` blocks of read buffer per run,
    /// so `R_DSM = (M/B − 2D) / 2D`.
    pub fn dsm_merge_order(&self) -> Result<usize> {
        let mb = self.memory_blocks();
        if mb <= 2 * self.d {
            return Err(PdiskError::BadGeometry(format!(
                "M/B = {mb} leaves no room for DSM: need more than 2D = {} blocks",
                2 * self.d
            )));
        }
        let r = (mb - 2 * self.d) / (2 * self.d);
        if r < 2 {
            return Err(PdiskError::BadGeometry(format!(
                "memory supports DSM merge order {r}; at least 2 is required"
            )));
        }
        Ok(r)
    }

    /// Definition 3's fetch pool `M_R` for a merge of order `r`, in
    /// blocks: `min(R + D, M/B − R − 3D − ⌈RD/B⌉)` — what is left after
    /// `R` leading blocks (`M_L`), `D` landing blocks (`M_D`), the `2D`
    /// blocks of write buffer (`M_W`) and the forecasting table, capped
    /// at the `R + D` the schedule can use.  Zero when nothing is left.
    ///
    /// For every `r ≤` [`Geometry::srm_merge_order`] this is exactly
    /// `R + D`: `M/B − 4D − 2R` is an integer `≥ RD/B`, hence
    /// `≥ ⌈RD/B⌉`.  DSM's larger order on one wide disk is what the
    /// minimum exists for.
    pub fn fetch_pool(&self, r: usize) -> usize {
        let rest = self
            .memory_blocks()
            .saturating_sub(r + 3 * self.d + (r * self.d).div_ceil(self.b));
        rest.min(r + self.d)
    }

    /// `ceil(n / B)`: blocks needed to hold `n` records.
    #[inline]
    pub fn blocks_for_records(&self, n: usize) -> usize {
        n.div_ceil(self.b)
    }

    /// Validate that a set of addresses touches each disk at most once and
    /// that every disk index is in range — the defining constraint of one
    /// parallel I/O operation in the model.
    pub fn check_parallel_op(&self, disks: impl Iterator<Item = crate::DiskId>) -> Result<()> {
        let mut seen = vec![false; self.d];
        for disk in disks {
            let idx = disk.index();
            if idx >= self.d {
                return Err(PdiskError::NoSuchDisk(disk));
            }
            if seen[idx] {
                return Err(PdiskError::DuplicateDisk(disk));
            }
            seen[idx] = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskId;

    #[test]
    fn rejects_degenerate_geometries() {
        assert!(Geometry::new(0, 8, 64).is_err());
        assert!(Geometry::new(2, 0, 64).is_err());
        // M below 2DB.
        assert!(Geometry::new(2, 8, 31).is_err());
        assert!(Geometry::new(2, 8, 32).is_ok());
    }

    #[test]
    fn table_geometry_matches_paper_formula() {
        // k = 5, D = 10, B = 1000: M = (2*5+4)*10*1000 + 5*100 = 140_500.
        let g = Geometry::for_table(5, 10, 1000).unwrap();
        assert_eq!(g.m, 140_500);
    }

    /// `R = kD` must be recoverable from the paper's memory formula:
    /// `M/B = 2R + 4D + RD/B` exactly when `M = (2k+4)DB + kD²` and `B | kD²`.
    #[test]
    fn srm_merge_order_inverts_table_memory() {
        for &(k, d, b) in &[(5usize, 5usize, 1000usize), (10, 10, 1000), (50, 50, 1000), (100, 10, 1000)] {
            let g = Geometry::for_table(k, d, b).unwrap();
            let r = g.srm_merge_order().unwrap();
            // Flooring in memory_blocks() can shave at most one run off kD.
            assert!(
                r == k * d || r == k * d - 1,
                "k={k} d={d}: expected R≈{} got {r}",
                k * d
            );
        }
    }

    #[test]
    fn srm_merge_order_exact_when_divisible() {
        // Choose B so that kD²/B has no remainder: k=4, D=10, B=100 -> kD²=400.
        let g = Geometry::for_table(4, 10, 100).unwrap();
        assert_eq!(g.srm_merge_order().unwrap(), 40);
    }

    #[test]
    fn dsm_merge_order_matches_k_plus_one_form() {
        // Paper: DSM merges k + 1 + kD/2B runs with table memory.
        let g = Geometry::for_table(10, 10, 1000).unwrap();
        let r = g.dsm_merge_order().unwrap();
        let expected = 10 + 1; // = 11 (kD/2B rounds to 0)
        assert_eq!(r, expected);
    }

    #[test]
    fn fetch_pool_is_r_plus_d_up_to_the_srm_order() {
        for &(d, b, m) in &[(4usize, 64usize, 3136usize), (2, 4, 96), (3, 7, 500), (8, 32, 6000), (1, 4, 64)] {
            let g = Geometry::new(d, b, m).unwrap();
            for r in 1..=g.srm_merge_order().unwrap() {
                assert_eq!(g.fetch_pool(r), r + d, "({d},{b},{m}) r={r}");
            }
        }
        // DSM on one wide disk (D = 4, B = 128, M = 12 352): M/B' = 24,
        // R_DSM = 11, and memory leaves 24 − 11 − 3 − 1 = 9 of R + D = 12.
        let wide = Geometry::new(1, 512, 12_352).unwrap();
        let r = wide.dsm_merge_order().unwrap();
        assert_eq!((r, wide.fetch_pool(r)), (11, 9));
        assert_eq!(Geometry::new(1, 1, 6).unwrap().fetch_pool(2), 0);
    }

    #[test]
    fn merge_orders_error_when_memory_tiny() {
        let g = Geometry::new(8, 4, 64).unwrap(); // M/B = 16 = 2D, too small
        assert!(g.srm_merge_order().is_err());
        assert!(g.dsm_merge_order().is_err());
    }

    #[test]
    fn parallel_op_check_rejects_duplicates_and_range() {
        let g = Geometry::new(3, 4, 1000).unwrap();
        assert!(g
            .check_parallel_op([DiskId(0), DiskId(2)].into_iter())
            .is_ok());
        assert!(matches!(
            g.check_parallel_op([DiskId(1), DiskId(1)].into_iter()),
            Err(PdiskError::DuplicateDisk(DiskId(1)))
        ));
        assert!(matches!(
            g.check_parallel_op([DiskId(3)].into_iter()),
            Err(PdiskError::NoSuchDisk(DiskId(3)))
        ));
    }

    #[test]
    fn blocks_for_records_rounds_up() {
        let g = Geometry::new(2, 10, 1000).unwrap();
        assert_eq!(g.blocks_for_records(0), 0);
        assert_eq!(g.blocks_for_records(1), 1);
        assert_eq!(g.blocks_for_records(10), 1);
        assert_eq!(g.blocks_for_records(11), 2);
    }
}
