//! SRM's I/O scheduling state machine (§5.5) — shared by the record-level
//! merge engine and the block-level simulator.
//!
//! The scheduler owns the bookkeeping halves of the memory partition of
//! Definition 3:
//!
//! * `F` (occupied blocks of `M_R`, capacity
//!   [`pdisk::Geometry::fetch_pool`], which is `R + D` unless memory caps
//!   it) — the full non-leading blocks in memory, ordered by block key;
//! * the staging set (occupied blocks of `M_D`, capacity `D`) — blocks just
//!   read, awaiting exchange into `M_R` or `M_L`;
//! * the forecasting table (§4).
//!
//! Block *contents* (records) live with the caller; the scheduler only
//! tracks identities, which is what makes it reusable by the simulator.
//!
//! A read may be initiated whenever `M_D` is free (staging empty).  The
//! three rules of §5.5 then decide between a plain `ParRead` (2a, 2b) and a
//! `Flush` followed by a `ParRead` (2c); [`Scheduler::plan_read`] implements
//! them verbatim.

use crate::forecast::ForecastTable;
use crate::key::BlockKey;
use pdisk::DiskId;
use std::collections::BTreeSet;

/// Counters for the scheduling decisions taken during one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Parallel reads issued by step 1 (loading each run's first block).
    pub init_reads: u64,
    /// Parallel reads issued by the main loop (`ParRead_t` operations).
    pub par_reads: u64,
    /// Number of `Flush_t` invocations (rule 2c).
    pub flush_ops: u64,
    /// Total blocks virtually flushed (each will be re-read later).
    pub blocks_flushed: u64,
    /// Total blocks fetched by reads, re-reads included.
    pub blocks_read: u64,
}

impl ScheduleStats {
    /// All read operations: initial plus main-loop.
    pub fn total_reads(&self) -> u64 {
        self.init_reads + self.par_reads
    }
}

/// One planned parallel read, possibly preceded by a flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedRead {
    /// Blocks evicted by rule 2c; the caller must drop their buffers.
    /// Empty for rules 2a/2b.
    pub flushed: Vec<BlockKey>,
    /// The set `S_t`: the smallest block on each disk that has one, to be
    /// fetched by this operation.
    pub targets: Vec<(DiskId, BlockKey)>,
}

/// The I/O scheduling state machine.
#[derive(Debug, Clone)]
pub struct Scheduler {
    r: usize,
    d: usize,
    /// Capacity of `M_R`.
    pool: usize,
    fds: ForecastTable,
    fset: BTreeSet<BlockKey>,
    staged: Vec<BlockKey>,
    stats: ScheduleStats,
}

impl Scheduler {
    /// Scheduler for a merge of order `r` on `d` disks whose `M_R` holds
    /// `pool` blocks ([`pdisk::Geometry::fetch_pool`]).
    pub fn new(r: usize, d: usize, pool: usize) -> Self {
        assert!(r >= 1 && d >= 1 && pool <= r + d);
        Scheduler {
            r,
            d,
            pool,
            fds: ForecastTable::new(d),
            fset: BTreeSet::new(),
            staged: Vec::with_capacity(d),
            stats: ScheduleStats::default(),
        }
    }

    /// The forecasting table (read access).
    pub fn fds(&self) -> &ForecastTable {
        &self.fds
    }

    /// Mutable forecasting table — used only to seed entries from initial
    /// blocks' implanted key tables.
    pub fn fds_mut(&mut self) -> &mut ForecastTable {
        &mut self.fds
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ScheduleStats {
        self.stats
    }

    /// Number of occupied `M_R` blocks (`|F_t|`).
    pub fn fset_len(&self) -> usize {
        self.fset.len()
    }

    /// Number of blocks currently staged in `M_D`.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Charge one step-1 read that fetched `blocks` initial blocks.
    pub fn charge_initial_read(&mut self, blocks: usize) {
        self.stats.init_reads += 1;
        self.stats.blocks_read += blocks as u64;
    }

    /// Can a `ParRead` be initiated now?  Requires `M_D` to be free (the
    /// staging set empty) and at least one unread block on some disk.
    pub fn can_attempt_read(&self) -> bool {
        self.staged.is_empty() && !self.fds.is_empty()
    }

    /// Apply §5.5 rules 2a–2c and commit to one parallel read.
    ///
    /// `disk_of` maps a block to its home disk (derivable from the block's
    /// run layout, which the caller owns).  Flushed blocks are removed from
    /// `F` and their forecasting entries restored before `S_t` is taken, so
    /// a just-flushed block on an otherwise-quiet disk may legitimately be
    /// fetched right back — exactly the paper's `Flush_t` + `ParRead_t`
    /// sequencing.
    ///
    /// # Panics
    /// Panics if called when [`Scheduler::can_attempt_read`] is false.
    pub fn plan_read(&mut self, disk_of: impl Fn(&BlockKey) -> DiskId) -> PlannedRead {
        assert!(self.can_attempt_read(), "ParRead requires free M_D and unread blocks");
        let occ = self.fset.len();
        debug_assert!(occ <= self.pool, "M_R overfull: {occ}");

        let mut flushed = Vec::new();
        if occ > self.r {
            // Rules 2b/2c: occ = R + extra with 1 <= extra <= D.
            let extra = occ - self.r;
            #[expect(clippy::expect_used, reason = "documented # Panics contract")]
            let s_min = self
                .fds
                .frontier_min()
                .expect("can_attempt_read guarantees a frontier");
            // OutRank_t: rank of the smallest S_t block within F_t ∪ S_t.
            // The smallest S_t block is s_min itself, so its rank is one
            // plus the number of F blocks strictly below it.
            let out_rank = 1 + self.fset.range(..s_min).count();
            if out_rank <= extra {
                // Rule 2c: flush the (extra − OutRank + 1) highest-ranked
                // blocks of F_t.
                let n_flush = extra - out_rank + 1;
                for _ in 0..n_flush {
                    #[expect(clippy::expect_used, reason = "occ > R ⇒ F has ≥ extra blocks")]
                    let victim = *self.fset.last().expect("F non-empty while flushing");
                    self.fset.remove(&victim);
                    self.fds.lower_to(disk_of(&victim), victim.run, victim);
                    flushed.push(victim);
                }
                self.stats.flush_ops += 1;
                self.stats.blocks_flushed += n_flush as u64;
            }
            // Rule 2b (out_rank > extra): plain read, no flush.
        }
        // Rule 2a (occ <= R) falls through to a plain read as well.

        let targets: Vec<(DiskId, BlockKey)> = self.fds.frontier().collect();
        debug_assert!(!targets.is_empty());
        self.stats.par_reads += 1;
        self.stats.blocks_read += targets.len() as u64;
        PlannedRead { flushed, targets }
    }

    /// Register a block fetched by the current read.
    ///
    /// Replaces the block's forecasting entry with `implant` (the key of
    /// the run's next block on the same disk, from the block's implanted
    /// data).  If `to_leading` the block goes straight to `M_L` (it is the
    /// block its run is waiting on — exchange rule 2 of §5.2); otherwise it
    /// sits in `M_D` until [`Scheduler::drain`] moves it to `M_R`.
    pub fn arrive(&mut self, key: BlockKey, disk: DiskId, implant: Option<BlockKey>, to_leading: bool) {
        debug_assert_eq!(
            self.fds.entry(disk, key.run),
            Some(key),
            "arriving block must be its disk's forecast entry"
        );
        self.fds.set(disk, key.run, implant);
        if !to_leading {
            debug_assert!(self.staged.len() < self.d, "M_D overfull");
            self.staged.push(key);
        }
    }

    /// Exchange rule 3 of §5.2: move staged blocks into `M_R` while `M_R`
    /// has unoccupied blocks.
    pub fn drain(&mut self) {
        while self.fset.len() < self.pool {
            let Some(k) = self.staged.pop() else { break };
            let fresh = self.fset.insert(k);
            debug_assert!(fresh, "block {k:?} already in F");
        }
    }

    /// Exchange rules 1–2 of §5.2: a run's awaited block found in `M_R` or
    /// `M_D` moves to `M_L`.  Returns whether the block was present.
    pub fn promote_to_leading(&mut self, key: BlockKey) -> bool {
        if self.fset.remove(&key) {
            return true;
        }
        if let Some(pos) = self.staged.iter().position(|&k| k == key) {
            self.staged.swap_remove(pos);
            return true;
        }
        false
    }

    /// Debug check of Definition 3's capacities.
    pub fn assert_capacities(&self) {
        assert!(self.fset.len() <= self.pool, "|F| = {} > M_R = {}", self.fset.len(), self.pool);
        assert!(self.staged.len() <= self.d, "|M_D| = {} > D", self.staged.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bk(key: u64, run: u32, idx: u64) -> BlockKey {
        BlockKey::new(key, run, idx)
    }

    /// Helper: seed a scheduler whose FDS has `entries` and whose F holds
    /// `fset`.
    fn seeded(r: usize, d: usize, entries: &[(u32, BlockKey)], fset: &[BlockKey]) -> Scheduler {
        let mut s = Scheduler::new(r, d, r + d);
        for &(disk, k) in entries {
            s.fds_mut().set(DiskId(disk), k.run, Some(k));
        }
        for &k in fset {
            s.fset.insert(k);
        }
        s
    }

    #[test]
    fn rule_2a_reads_frontier_without_flush() {
        // R = 4, D = 2; F holds 3 <= R blocks -> rule 2a.
        let mut s = seeded(
            4,
            2,
            &[(0, bk(10, 0, 1)), (1, bk(20, 1, 1))],
            &[bk(30, 2, 1), bk(40, 3, 1), bk(50, 0, 2)],
        );
        let plan = s.plan_read(|_| DiskId(0));
        assert!(plan.flushed.is_empty());
        assert_eq!(
            plan.targets,
            vec![(DiskId(0), bk(10, 0, 1)), (DiskId(1), bk(20, 1, 1))]
        );
        assert_eq!(s.stats().par_reads, 1);
        assert_eq!(s.stats().flush_ops, 0);
    }

    #[test]
    fn rule_2b_reads_when_incoming_blocks_participate_soon() {
        // R = 2, D = 2; F holds R + 1 blocks, all *smaller* than the
        // frontier -> OutRank = |F| + 1 = 4 > extra = 1 -> rule 2b.
        let mut s = seeded(
            2,
            2,
            &[(0, bk(100, 0, 5))],
            &[bk(10, 1, 1), bk(20, 2, 1), bk(30, 0, 4)],
        );
        let plan = s.plan_read(|_| DiskId(0));
        assert!(plan.flushed.is_empty());
        assert_eq!(plan.targets.len(), 1);
        assert_eq!(s.stats().flush_ops, 0);
    }

    #[test]
    fn rule_2c_flushes_farthest_future_blocks() {
        // R = 2, D = 2; F holds R + 2 blocks; the frontier key 15 ranks
        // below two F blocks -> OutRank = 2 <= extra = 2 -> flush
        // extra - OutRank + 1 = 1 block: the largest (90).
        let mut s = seeded(
            2,
            2,
            &[(0, bk(15, 0, 5))],
            &[bk(10, 1, 1), bk(50, 2, 1), bk(70, 3, 1), bk(90, 1, 2)],
        );
        let plan = s.plan_read(|_| DiskId(1));
        assert_eq!(plan.flushed, vec![bk(90, 1, 2)]);
        assert_eq!(s.fset_len(), 3);
        assert_eq!(s.stats().flush_ops, 1);
        assert_eq!(s.stats().blocks_flushed, 1);
        // The flushed block reappears in the FDS on its home disk.
        assert_eq!(s.fds().entry(DiskId(1), 1), Some(bk(90, 1, 2)));
    }

    #[test]
    fn rule_2c_flushed_block_can_be_immediately_retargeted() {
        // Flushed block lands on a disk with no smaller pending block, so
        // S_t includes it — the paper's Flush_t-then-ParRead_t sequencing.
        let mut s = seeded(
            1,
            2,
            &[(0, bk(5, 0, 3))],
            &[bk(1, 1, 1), bk(40, 2, 1), bk(60, 2, 2)],
        );
        // occ = 3 = R + 2, OutRank: F blocks below 5: one (key 1) -> 2 <= 2
        // -> flush 1 block (key 60) to disk 1.
        let plan = s.plan_read(|_| DiskId(1));
        assert_eq!(plan.flushed, vec![bk(60, 2, 2)]);
        assert!(plan.targets.contains(&(DiskId(1), bk(60, 2, 2))));
    }

    #[test]
    fn lemma2_invariant_smallest_blocks_never_flushed() {
        // Whatever the configuration, the R + OutRank - 1 smallest F
        // blocks survive a flush.
        let fset: Vec<BlockKey> = (0..6).map(|i| bk(10 * (i + 1), i as u32 % 4, i)).collect();
        let mut s = seeded(2, 4, &[(0, bk(25, 0, 9))], &fset);
        // occ = 6 = R + 4; F below 25: two -> OutRank = 3 <= 4 -> flush 2.
        let plan = s.plan_read(|_| DiskId(2));
        assert_eq!(plan.flushed.len(), 2);
        // Survivors are the 4 smallest: ranks 1..=R+OutRank-1 = 1..=4.
        let survivors: Vec<BlockKey> = s.fset.iter().copied().collect();
        assert_eq!(survivors, fset[..4].to_vec());
    }

    #[test]
    fn arrive_updates_forecast_and_stages() {
        let mut s = Scheduler::new(2, 2, 4);
        s.fds_mut().set(DiskId(0), 0, Some(bk(10, 0, 1)));
        s.arrive(bk(10, 0, 1), DiskId(0), Some(bk(77, 0, 3)), false);
        assert_eq!(s.fds().entry(DiskId(0), 0), Some(bk(77, 0, 3)));
        assert_eq!(s.staged_len(), 1);
        // Leading arrivals bypass staging.
        s.fds_mut().set(DiskId(1), 1, Some(bk(20, 1, 2)));
        s.arrive(bk(20, 1, 2), DiskId(1), None, true);
        assert_eq!(s.staged_len(), 1);
        assert_eq!(s.fds().entry(DiskId(1), 1), None);
    }

    #[test]
    fn drain_respects_mr_capacity() {
        let mut s = Scheduler::new(1, 2, 3); // M_R capacity = R + D = 3
        for i in 0..2 {
            s.fds_mut().set(DiskId(i), i, Some(bk(10 + i as u64, i, 1)));
        }
        s.arrive(bk(10, 0, 1), DiskId(0), None, false);
        s.arrive(bk(11, 1, 1), DiskId(1), None, false);
        // Pre-fill F to capacity 3.
        s.fset.insert(bk(1, 2, 0));
        s.fset.insert(bk(2, 3, 0));
        s.fset.insert(bk(3, 4, 0));
        s.drain();
        assert_eq!(s.fset_len(), 3);
        assert_eq!(s.staged_len(), 2, "staged blocks wait for room");
        // Free a slot; drain moves exactly one.
        s.fset.remove(&bk(1, 2, 0));
        s.drain();
        assert_eq!(s.fset_len(), 3);
        assert_eq!(s.staged_len(), 1);
    }

    #[test]
    fn promote_finds_blocks_in_both_pools() {
        let mut s = Scheduler::new(2, 2, 4);
        s.fset.insert(bk(5, 0, 1));
        s.staged.push(bk(6, 1, 1));
        assert!(s.promote_to_leading(bk(5, 0, 1)));
        assert!(s.promote_to_leading(bk(6, 1, 1)));
        assert!(!s.promote_to_leading(bk(7, 2, 1)));
        assert_eq!(s.fset_len(), 0);
        assert_eq!(s.staged_len(), 0);
    }

    #[test]
    fn can_attempt_read_requires_free_md_and_pending_blocks() {
        let mut s = Scheduler::new(2, 2, 4);
        assert!(!s.can_attempt_read(), "no blocks on disk");
        s.fds_mut().set(DiskId(0), 0, Some(bk(1, 0, 1)));
        assert!(s.can_attempt_read());
        s.staged.push(bk(9, 1, 1));
        assert!(!s.can_attempt_read(), "M_D occupied");
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Lemma 2 as a property: whatever F and the frontier look
            /// like, a planned read flushes only blocks ranked above
            /// `R + OutRank − 1`, and the survivors are exactly the
            /// lowest-ranked prefix.
            #[test]
            fn flush_preserves_lowest_ranked_prefix(
                r in 1usize..6,
                d in 1usize..6,
                extra in 1usize..6,
                fkeys in vec(1u64..1000, 1..24),
                frontier_key in 1u64..1000,
            ) {
                let extra = extra.min(d);
                let occ = r + extra;
                prop_assume!(fkeys.len() >= occ);
                let mut s = Scheduler::new(r, d, r + d);
                // Distinct F blocks (dedup on the total order).
                let mut keys: Vec<BlockKey> = fkeys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| bk(k, (i % 64) as u32 + 100, i as u64))
                    .collect();
                keys.sort_unstable();
                keys.truncate(occ);
                for &k in &keys {
                    s.fset.insert(k);
                }
                // One frontier entry on disk 0.
                let front = bk(frontier_key, 99, 1);
                s.fds_mut().set(DiskId(0), 99, Some(front));

                let before: Vec<BlockKey> = s.fset.iter().copied().collect();
                let out_rank = 1 + before.iter().filter(|&&k| k < front).count();
                let plan = s.plan_read(|_| DiskId(0));

                if out_rank > extra {
                    prop_assert!(plan.flushed.is_empty());
                } else {
                    let n_flush = extra - out_rank + 1;
                    prop_assert_eq!(plan.flushed.len(), n_flush);
                    // Survivors are exactly the lowest R + OutRank − 1.
                    let survivors: Vec<BlockKey> = s.fset.iter().copied().collect();
                    prop_assert_eq!(survivors.as_slice(), &before[..occ - n_flush]);
                    // Every flushed block ranks above every survivor.
                    for f in &plan.flushed {
                        prop_assert!(survivors.iter().all(|sv| sv < f));
                    }
                }
            }
        }
    }

    #[test]
    fn stats_accumulate_across_operations() {
        let mut s = Scheduler::new(4, 2, 6);
        s.charge_initial_read(2);
        s.fds_mut().set(DiskId(0), 0, Some(bk(1, 0, 1)));
        let _ = s.plan_read(|_| DiskId(0));
        let st = s.stats();
        assert_eq!(st.init_reads, 1);
        assert_eq!(st.par_reads, 1);
        assert_eq!(st.total_reads(), 2);
        assert_eq!(st.blocks_read, 3);
    }
}
