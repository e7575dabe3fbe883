//! What a sort's merge passes will do, before it runs.
//!
//! [`pass_plan`] is the pass loop's own rule (Knuth's dummy-run pattern:
//! the first pass merges only enough runs to leave a power of `R`, every
//! later pass is full), and [`pass_volumes`] the blocks it moves over
//! runs of given lengths — both re-exported from `srm_core::sort`, whose
//! formation rule ([`srm_core::sort::choose_formation`]) predicts with
//! them, so a prediction can never drift from the engine.  Under
//! memory-load formation every run's length is known up front
//! ([`load_runs`]), so [`memory_load_passes`] gives the exact blocks each
//! pass reads and writes; replacement selection's runs depend on the
//! input, and [`rs_worst_runs`] is its worst case.

use pdisk::Geometry;
pub use srm_core::sort::{load_runs, pass_plan, pass_volumes, rs_worst_runs, sort_volumes, PassPlan, PassVolume};

/// A whole memory-load sort of `records` records on `geom` at merge
/// order `merge_order`: formation first (it reads the input and writes
/// the runs), then every merge pass.
pub fn memory_load_passes(records: u64, geom: Geometry, fraction: f64, merge_order: usize) -> Vec<PassVolume> {
    sort_volumes(records, &load_runs(records, geom, fraction), geom.b, merge_order)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule's arithmetic on the cases the repo's tests and docs quote.
    #[test]
    fn plan_leaves_a_power_of_r() {
        // 63 runs at R = 6: one group of 3, five of 6; 30 wait; 6² left.
        let p = pass_plan(63, 6).unwrap();
        assert_eq!(p, PassPlan { untouched: 30, first: 3, full: 5 });
        assert_eq!((p.merged(6), p.runs_after()), (33, 36));
        // 40 runs at R = 15: 13 skip pass 1.
        assert_eq!(pass_plan(40, 15).unwrap().untouched, 13);
        // At or below R: one merge of everything.
        assert_eq!(pass_plan(5, 6), Some(PassPlan { untouched: 0, first: 5, full: 0 }));
        assert_eq!(pass_plan(1, 6), None);
        for r in 2..9usize {
            for n in 2..600usize {
                let p = pass_plan(n, r).unwrap();
                assert!((2..=r).contains(&p.first), "n={n} R={r}: {p:?}");
                // R^(p−1) runs are left, p = ⌈log_R n⌉: R^(p−1) < n ≤ R^p.
                let after = p.runs_after();
                assert!(after < n && after * r >= n, "n={n} R={r}: {p:?}");
                assert_eq!(r.pow(after.ilog(r)), after, "n={n} R={r}: {p:?}");
                assert_eq!(p.groups(r).map(|g| g.len()).sum::<usize>(), p.merged(r));
                assert_eq!(p.groups(r).last().unwrap().end, n, "the groups end at the tail");
                // Every later pass is full.
                if let Some(q) = pass_plan(after, r) {
                    assert_eq!((q.untouched, q.first), (0, r), "n={n} R={r}");
                }
            }
        }
    }

    /// Memory loads of 48 records (`M/2`, 12 blocks) over 3000 records:
    /// 62 full runs and one of 24; pass 1 merges the last 33 runs (the
    /// short one among them), passes 2 and 3 everything.
    #[test]
    fn memory_load_volumes() {
        let geom = Geometry::new(2, 4, 96).unwrap();
        let runs = load_runs(3000, geom, 0.5);
        assert_eq!((runs.len(), runs[0], runs[62]), (63, 48, 24));
        let passes = memory_load_passes(3000, geom, 0.5, 6);
        let vol = |read, written| PassVolume { read, written };
        assert_eq!(passes, vec![vol(750, 750), vol(390, 390), vol(750, 750), vol(750, 750)]);
    }
}
