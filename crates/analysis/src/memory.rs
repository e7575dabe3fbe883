//! Definition 3's internal-memory partition, itemized.
//!
//! SRM's merge uses `M/B = 2R + 4D + RD/B` blocks of internal memory:
//!
//! | set   | blocks  | role |
//! |-------|---------|------|
//! | `M_L` | `R`     | leading block of each run |
//! | `M_R` | `R + D`, capped at what memory leaves ([`Geometry::fetch_pool`]) | full non-leading blocks (the flush pool `F_t`) |
//! | `M_D` | `D`     | landing buffers so reads start at the earliest possible time |
//! | `M_W` | `2D`    | output stripes awaiting forecast finalization |
//! | FDS   | `≈ RD/B`| the forecasting tables (`D` arrays of `R` keys) |
//!
//! The cap binds only above SRM's order: DSM on its one wide disk merges
//! eq. 41's larger `R` and gets the rest of memory as its pool.

use pdisk::Geometry;

/// Itemized block budget for one SRM merge at order `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Merge order `R`.
    pub r: usize,
    /// Disk count `D`.
    pub d: usize,
    /// `M_L`: leading-block buffers (`R`).
    pub m_l: usize,
    /// `M_R`: the flush pool (`R + D`, or what memory leaves).
    pub m_r: usize,
    /// `M_D`: read landing buffers (`D`).
    pub m_d: usize,
    /// `M_W`: output double-stripe (`2D`).
    pub m_w: usize,
    /// Forecasting tables, in blocks (`⌈RD/B⌉`).
    pub fds_blocks: usize,
    /// Blocks available in memory (`M/B`).
    pub available_blocks: usize,
}

impl MemoryBudget {
    /// Compute the budget for a geometry, using its maximum merge order.
    pub fn for_geometry(geom: Geometry) -> Result<Self, pdisk::PdiskError> {
        let r = geom.srm_merge_order()?;
        Ok(Self::for_order(geom, r))
    }

    /// Compute the budget for an explicit merge order `r`.
    pub fn for_order(geom: Geometry, r: usize) -> Self {
        MemoryBudget {
            r,
            d: geom.d,
            m_l: r,
            m_r: geom.fetch_pool(r),
            m_d: geom.d,
            m_w: 2 * geom.d,
            fds_blocks: (r * geom.d).div_ceil(geom.b),
            available_blocks: geom.memory_blocks(),
        }
    }

    /// Total blocks consumed.
    pub fn total(&self) -> usize {
        self.m_l + self.m_r + self.m_d + self.m_w + self.fds_blocks
    }

    /// Whether the budget fits the machine.
    pub fn fits(&self) -> bool {
        self.total() <= self.available_blocks
    }

    /// A human-readable breakdown.
    pub fn render(&self) -> String {
        format!(
            "R = {} on D = {}:\n  M_L (leading)      {:>6} blocks\n  M_R (flush pool)   {:>6} blocks\n  M_D (read landing) {:>6} blocks\n  M_W (write buffer) {:>6} blocks\n  FDS (forecasting)  {:>6} blocks\n  total {} of {} available",
            self.r,
            self.d,
            self.m_l,
            self.m_r,
            self.m_d,
            self.m_w,
            self.fds_blocks,
            self.total(),
            self.available_blocks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_fits_for_table_geometries() {
        for &(k, d, b) in &[(5usize, 5usize, 1000usize), (10, 50, 1000), (100, 10, 1000)] {
            let geom = Geometry::for_table(k, d, b).unwrap();
            let budget = MemoryBudget::for_geometry(geom).unwrap();
            assert!(budget.fits(), "k={k} D={d}: {}", budget.render());
            // The derived order is within one of kD (flooring).
            assert!(budget.r >= k * d - 1 && budget.r <= k * d);
        }
    }

    #[test]
    fn budget_matches_formula() {
        let geom = Geometry::for_table(4, 10, 100).unwrap(); // exact division
        let budget = MemoryBudget::for_geometry(geom).unwrap();
        assert_eq!(budget.r, 40);
        // 2R + 4D + RD/B = 80 + 40 + 4 = 124 = M/B exactly.
        assert_eq!(budget.total(), 124);
        assert_eq!(budget.available_blocks, 124);
    }

    #[test]
    fn smaller_order_always_fits() {
        let geom = Geometry::for_table(4, 10, 100).unwrap();
        let budget = MemoryBudget::for_order(geom, 10);
        assert!(budget.fits());
        assert!(budget.total() < budget.available_blocks);
    }

    /// DSM at `(D, B, M) = (4, 128, 12 352)` is one disk of 512-record
    /// blocks merging `R = 11`: the pool shrinks to the 9 blocks memory
    /// leaves, and the partition fills the 24 exactly.
    #[test]
    fn the_fetch_pool_takes_what_dsm_memory_leaves() {
        let wide = Geometry::new(1, 512, 12_352).unwrap();
        let budget = MemoryBudget::for_order(wide, wide.dsm_merge_order().unwrap());
        assert_eq!((budget.r, budget.m_r, budget.total()), (11, 9, 24));
        assert!(budget.fits());
    }

    #[test]
    fn render_mentions_every_set() {
        let geom = Geometry::for_table(4, 10, 100).unwrap();
        let text = MemoryBudget::for_geometry(geom).unwrap().render();
        for set in ["M_L", "M_R", "M_D", "M_W", "FDS"] {
            assert!(text.contains(set), "missing {set}");
        }
    }
}
