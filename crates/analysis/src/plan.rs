//! What a sort's merge passes will do, before it runs.
//!
//! [`pass_plan`] is the pass loop's own rule (Knuth's dummy-run pattern:
//! the first pass merges only enough runs to leave a power of `R`, every
//! later pass is full), re-exported so a prediction can never drift from
//! the engine.  Under memory-load formation every run's length is known
//! up front, so [`memory_load_passes`] gives the exact blocks each pass
//! reads and writes.  Replacement selection's runs depend on the input;
//! [`pass_volumes`] takes them once formed.

use pdisk::Geometry;
pub use srm_core::sort::{pass_plan, PassPlan};

/// Blocks one pass moves: what it reads once (a block the scheduler
/// flushes and fetches again counts once) and what it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassVolume {
    /// Blocks read once: the input (formation) or the merged runs.
    pub read: u64,
    /// Blocks written: the runs formed, or the merges' output runs.
    pub written: u64,
}

/// Records in each run memory-load formation makes of `records` input
/// records: whole loads of `load_blocks · B` records, the last one short.
fn memory_load_runs(records: u64, geom: Geometry, fraction: f64) -> Vec<u64> {
    let load = srm_core::run_formation::load_blocks(geom, fraction) * geom.b as u64;
    (0..records.div_ceil(load)).map(|i| load.min(records - i * load)).collect()
}

/// Every merge pass's [`PassVolume`] over runs of the given lengths (in
/// records, queue order) at merge order `merge_order`, blocks of `b`
/// records: one entry per pass, pass 1 first.
pub fn pass_volumes(runs: &[u64], b: usize, merge_order: usize) -> Vec<PassVolume> {
    let blocks = |rs: &[u64]| rs.iter().map(|r| r.div_ceil(b as u64)).sum::<u64>();
    let mut queue = runs.to_vec();
    let mut passes = Vec::new();
    while let Some(plan) = pass_plan(queue.len(), merge_order) {
        let mut next = queue[..plan.untouched].to_vec();
        next.extend(plan.groups(merge_order).map(|g| queue[g].iter().sum::<u64>()));
        passes.push(PassVolume {
            read: blocks(&queue[plan.untouched..]),
            written: blocks(&next[plan.untouched..]),
        });
        queue = next;
    }
    passes
}

/// A whole memory-load sort of `records` records on `geom` at merge
/// order `merge_order`: formation first (it reads the input and writes
/// the runs), then every merge pass.
pub fn memory_load_passes(records: u64, geom: Geometry, fraction: f64, merge_order: usize) -> Vec<PassVolume> {
    let runs = memory_load_runs(records, geom, fraction);
    let input = records.div_ceil(geom.b as u64);
    let formation = PassVolume { read: input, written: runs.iter().map(|r| r.div_ceil(geom.b as u64)).sum() };
    std::iter::once(formation).chain(pass_volumes(&runs, geom.b, merge_order)).collect()
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
        let runs = memory_load_runs(3000, geom, 0.5);
        assert_eq!((runs.len(), runs[0], runs[62]), (63, 48, 24));
        let passes = memory_load_passes(3000, geom, 0.5, 6);
        let vol = |read, written| PassVolume { read, written };
        assert_eq!(passes, vec![vol(750, 750), vol(390, 390), vol(750, 750), vol(750, 750)]);
    }
}
