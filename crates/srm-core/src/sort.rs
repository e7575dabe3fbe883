//! The SRM mergesort driver: run formation followed by merge passes.
//!
//! Per §2.2, SRM merges `R` runs at a time where `R` is the largest integer
//! with `M/B ≥ 2R + 4D + RD/B`; every output run is written with full write
//! parallelism and striped from a start disk chosen per [`Placement`]:
//!
//! * [`Placement::Random`] — uniformly random, i.i.d. per run (§3): the SRM
//!   algorithm proper, whose expected I/O is bounded by Theorem 1 for *any*
//!   input;
//! * [`Placement::Staggered`] — the deterministic variant of §8: start
//!   disks cycle deterministically, trading the worst-case guarantee for
//!   zero randomness (comparable performance on random inputs).
//!
//! DSM, the paper's baseline (§9), is this same engine under
//! [`EngineKind::Dsm`]: the `D` disks become one disk whose blocks hold
//! `D·B` records (`Geometry::new(1, D·B, M)`), and `R` is eq. 41's
//! `R_DSM = (M/B − 2D)/2D` — [`Geometry::dsm_merge_order`] of that wide
//! geometry, which floor arithmetic makes equal.  With one disk every
//! read is a full stripe, reads arrive in forecast order, and the fetch
//! pool shrinks to what DSM's memory leaves ([`Geometry::fetch_pool`]).

use crate::checkpoint::SortManifest;
use crate::error::{Result, SrmError};
use crate::merge::{merge_runs_overlapped, MergeStats, Overlap};
use crate::run_formation::{form_runs_overlapped, RunFormation};
use crate::scheduler::ScheduleStats;
use pdisk::{CrashClock, DiskArray, DiskId, Geometry, InterruptFlag, IoStats, Record, StripedRun};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// How each run's start disk `d_r` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Uniformly random, independent per run — SRM proper (§3).
    #[default]
    Random,
    /// Deterministic round-robin stagger — the §8 variant.
    Staggered,
}

pub use pdisk::write_unsorted_input;

/// Which merge-order rule a [`SrmSorter`] sorts under — SRM proper, or
/// DSM as SRM's engine on one wide disk (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Simple randomized mergesort (the paper's contribution): `R` from
    /// §2.2's memory formula.
    #[default]
    Srm,
    /// Disk-striped mergesort, the baseline: `R_DSM` of eq. 41, on an
    /// array of one disk.
    Dsm,
}

impl EngineKind {
    /// The engine's name on the wire, in durable spec files and in
    /// checkpoint manifests.
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Srm => "srm",
            EngineKind::Dsm => "dsm",
        }
    }
}

/// Configuration for [`SrmSorter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrmConfig {
    /// Start-disk policy.
    pub placement: Placement,
    /// Run-formation strategy.
    pub run_formation: RunFormation,
    /// Seed for the (limited) internal randomization.
    pub seed: u64,
}

impl Default for SrmConfig {
    fn default() -> Self {
        SrmConfig {
            placement: Placement::Random,
            run_formation: RunFormation::default(),
            seed: 0x5EED_0001,
        }
    }
}

/// Accounting for a whole sort.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SortReport {
    /// Records sorted.
    pub records: u64,
    /// Merge order `R` used.
    pub merge_order: usize,
    /// Runs produced by the formation pass.
    pub runs_formed: usize,
    /// Number of merge passes over the file (excludes run formation).
    pub merge_passes: u64,
    /// Individual merges performed.
    pub merges: u64,
    /// Aggregated scheduling counters over all merges.
    pub schedule: ScheduleStats,
    /// Backend I/O delta for the whole sort (formation + merges).
    pub io: IoStats,
}

impl SortReport {
    /// Measured read-overhead factor per merge-pass data volume:
    /// `v = merge-pass reads / (merge-pass blocks / D)`.
    pub fn overhead_v(&self, d: usize, total_blocks: u64) -> f64 {
        if self.merge_passes == 0 {
            return 0.0;
        }
        let ideal = self.merge_passes as f64 * total_blocks as f64 / d as f64;
        self.schedule.total_reads() as f64 / ideal
    }
}

/// The one-line summary drivers print: `R`, the runs formed, the merge
/// passes, the virtual flushes (§5.5 rule 2c) and, when this call formed
/// the runs, formation's own reads — every read the scheduler did not
/// plan — with their parallelism, so "did formation read in stripes"
/// needs no subtraction (a resume past pass 0 has none, and no such
/// clause).
impl std::fmt::Display for SortReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "merge order R={}, runs formed={}, merge passes={}, flushes={} ({} blocks)",
            self.merge_order,
            self.runs_formed,
            self.merge_passes,
            self.schedule.flush_ops,
            self.schedule.blocks_flushed
        )?;
        let reads = self.io.read_ops.saturating_sub(self.schedule.total_reads());
        if reads == 0 {
            return Ok(());
        }
        let blocks = self.io.blocks_read.saturating_sub(self.schedule.blocks_read);
        write!(f, ", formation reads={reads} ({:.2}x par)", blocks as f64 / reads as f64)
    }
}

/// Start-disk source: the sort's only randomness, factored out so a
/// resumed sort can fast-forward to exactly where an interrupted one
/// left off (every run written draws exactly once).
#[derive(Debug)]
struct Placer {
    placement: Placement,
    rng: SmallRng,
    stagger: u32,
    d: u32,
    draws: u64,
}

impl Placer {
    fn new(placement: Placement, seed: u64, d: u32) -> Self {
        Placer {
            placement,
            rng: SmallRng::seed_from_u64(seed),
            stagger: 0,
            d,
            draws: 0,
        }
    }

    fn next(&mut self) -> DiskId {
        self.draws += 1;
        match self.placement {
            Placement::Random => DiskId(self.rng.random_range(0..self.d)),
            Placement::Staggered => {
                let disk = DiskId(self.stagger % self.d);
                self.stagger += 1;
                disk
            }
        }
    }

    /// Consume `n` draws so the next one matches what an uninterrupted
    /// sort would draw after `n` runs.
    fn fast_forward(&mut self, n: u64) {
        for _ in 0..n {
            self.next();
        }
    }
}

/// The SRM external sorter.
///
/// # Examples
///
/// ```
/// use pdisk::{Geometry, MemDiskArray, U64Record};
/// use srm_core::sort::write_unsorted_input;
/// use srm_core::{read_run, SrmSorter};
///
/// let geom = Geometry::new(2, 8, 512)?;
/// let mut disks: MemDiskArray<U64Record> = MemDiskArray::new(geom);
/// let records: Vec<U64Record> = (0..2000).rev().map(U64Record).collect();
/// let input = write_unsorted_input(&mut disks, &records)?;
///
/// let (sorted, report) = SrmSorter::default().sort(&mut disks, &input)?;
/// assert_eq!(report.records, 2000);
/// assert!(report.merge_passes >= 1);
///
/// let output = read_run(&mut disks, &sorted)?;
/// assert!(output.windows(2).all(|w| w[0].0 <= w[1].0));
/// # Ok::<(), srm_core::SrmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SrmSorter {
    config: SrmConfig,
    /// The merge-order rule; recorded in checkpoint manifests.
    engine: EngineKind,
    /// Overlap disk time with formation and merge time (the engine's
    /// window; see [`crate::merge`]).  Not part of [`SrmConfig`] because
    /// it does not affect the I/O schedule or the output — checkpoint
    /// manifests stay compatible, and a sort may even be resumed under
    /// the other setting.
    pipeline: bool,
    /// Forecast-driven prefetch depth per disk for pipelined merges; 0
    /// disables hints.  Like `pipeline`, a pure wall-clock knob: the
    /// schedule, output, and stats are identical at every depth.
    read_ahead: usize,
    /// Crash clock shared with a [`pdisk::CrashingDiskArray`] wrapping
    /// the array, so manifest writes get their own numbered crash
    /// boundaries alongside the I/O ones.
    crash: Option<CrashClock>,
    /// Cooperative stop request; polled at pass boundaries.  See
    /// [`SrmSorter::with_interrupt`].
    interrupt: Option<InterruptFlag>,
}

impl SrmSorter {
    /// Sorter with the given configuration.
    pub fn new(config: SrmConfig) -> Self {
        SrmSorter {
            config,
            engine: EngineKind::Srm,
            pipeline: false,
            read_ahead: 0,
            crash: None,
            interrupt: None,
        }
    }

    /// Sort under `engine`'s merge-order rule.  [`EngineKind::Dsm`] needs
    /// an array of one disk — DSM's `D` disks as one logical disk of
    /// `D·B`-record blocks — and refuses any other with a `Config` error.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Overlap disk time with merge and formation time: each scheduled
    /// read stays in flight until its blocks are needed or fit, the next
    /// memory load streams in while this one sorts, and output stripes
    /// are written behind.  Off (the default), every parallel I/O is
    /// waited for where it is issued.  It is the same engine either way:
    /// the I/O schedule, the output, the [`IoStats`] deltas, and the
    /// model-check trace's operation sequence are identical; only
    /// wall-clock behavior on a real backend changes.
    pub fn with_pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }

    /// Whether I/O is overlapped with merging.
    pub fn pipeline(&self) -> bool {
        self.pipeline
    }

    /// Set the forecast-driven prefetch depth for pipelined merges: at
    /// every submitted read, hint the backend
    /// ([`DiskArray::prefetch`]) about the next `depth` predicted blocks
    /// per disk — ranks 2.. of each disk's forecast column, which the
    /// merge *will* read, so no hint is wasted.  Ignored unless
    /// [`SrmSorter::with_pipeline`] is on.  Hints are uncharged and
    /// untraced: schedule, output, and stats are unchanged at any depth.
    pub fn with_read_ahead(mut self, depth: usize) -> Self {
        self.read_ahead = depth;
        self
    }

    /// The prefetch depth in use (0 = hints disabled).
    pub fn read_ahead(&self) -> usize {
        self.read_ahead
    }

    /// Share `clock` with the [`pdisk::CrashingDiskArray`] wrapping the
    /// array this sorter runs on: every checkpoint-manifest write then
    /// gets its own numbered crash boundaries (`manifest-write` /
    /// `manifest-written`), so a crash-matrix sweep covers the windows
    /// just before and just after the manifest becomes durable.
    pub fn with_crash_clock(mut self, clock: CrashClock) -> Self {
        self.crash = Some(clock);
        self
    }

    /// Install a cooperative stop request (the *drain hook*): when
    /// `flag` is triggered, the sort stops at the next pass boundary —
    /// *after* that boundary's checkpoint manifest has been journaled,
    /// when a manifest path is in use — and returns
    /// [`SrmError::Interrupted`] instead of starting another pass.  A
    /// rerun with the same manifest resumes byte-identically.  This is
    /// the one mechanism behind Ctrl-C in the CLI and drain, deadline,
    /// and cancel in the job server.  With only one run left there is no
    /// further pass boundary, so the sort simply completes.
    pub fn with_interrupt(mut self, flag: InterruptFlag) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SrmConfig {
        &self.config
    }

    /// Validate the configuration for `geometry` and return the merge
    /// order `R ≥ 2`: §2.2's memory formula, or eq. 41 under
    /// [`EngineKind::Dsm`], which needs an array of one disk.
    pub fn merge_order(&self, geometry: Geometry) -> Result<usize> {
        match self.engine {
            EngineKind::Srm => Ok(geometry.srm_merge_order()?),
            EngineKind::Dsm if geometry.d != 1 => Err(SrmError::Config(format!(
                "DSM sorts on one wide disk, Geometry::new(1, D·B, M); this array has D = {}",
                geometry.d
            ))),
            EngineKind::Dsm => Ok(geometry.dsm_merge_order()?),
        }
    }

    /// Sort `input` (an unsorted striped file) and return the sorted run
    /// plus a full accounting.
    pub fn sort<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &StripedRun,
    ) -> Result<(StripedRun, SortReport)> {
        self.sort_observed(array, input, None, |_, _| Ok(()))
    }

    /// Like [`SrmSorter::sort`], but checkpointing progress to `manifest`
    /// after run formation and after every completed merge pass, and
    /// **resuming** from `manifest` when the file already exists.
    ///
    /// A sort killed mid-pass loses only the interrupted pass: rerunning
    /// the same sorter against the same array (or a
    /// [`pdisk::FileDiskArray`] reopened with
    /// [`pdisk::FileDiskArray::open`]) skips formation and every
    /// completed pass, fast-forwards the placement RNG by the manifest's
    /// draw count, and redoes the interrupted pass — producing the same
    /// record sequence an uninterrupted sort would.  Blocks written by
    /// the interrupted pass are abandoned (the space is not reclaimed;
    /// the substrate is append-only within a sort).
    ///
    /// The manifest is deleted on successful completion.  In the returned
    /// report, `merge_passes` and `runs_formed` cover the *whole logical
    /// sort* (including passes done before a resume), while `io`,
    /// `merges`, and `schedule` cover only the work this call performed.
    ///
    /// Resuming validates that geometry, seed, placement, and record
    /// count match the manifest; any mismatch is an
    /// [`SrmError::Checkpoint`], since silently continuing would corrupt
    /// the output.
    pub fn sort_checkpointed<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &StripedRun,
        manifest: &Path,
    ) -> Result<(StripedRun, SortReport)> {
        self.sort_observed(array, input, Some(manifest), |_, _| Ok(()))
    }

    /// The checkpoint a sort of `records` on `geometry` would resume from,
    /// or `None` when `manifest` holds none (never started, or completed
    /// and retired) — asked *before* building the world a resume needs:
    /// reopen rather than truncate the disk files, re-mark the disks the
    /// checkpoint records dead.  An error means every generation is
    /// corrupt or the checkpoint belongs to a *different* sort: resuming
    /// it would misread every block address, and it would fail
    /// identically on every rerun.
    pub fn resume_point(
        &self,
        geometry: Geometry,
        records: u64,
        manifest: &Path,
    ) -> Result<Option<SortManifest>> {
        let Some(m) = SortManifest::load_latest(manifest)? else {
            return Ok(None);
        };
        m.validate(self.engine, &self.config, geometry, records)?;
        Ok(Some(m))
    }

    /// Like [`SrmSorter::sort_checkpointed`] (pass `manifest: None` for an
    /// unsnapshotted sort), but calling `observer` at every pass boundary
    /// **completed by this call**: once after run formation (`pass` = 0)
    /// and once after each merge pass, each time *before* the snapshot is
    /// taken.  The observer may mutate the array — this is the injection
    /// point for fault drills (`--kill-disk D@PASS` in the CLI kills a
    /// disk here, so the subsequent snapshot records the death and the
    /// next pass runs degraded).  An observer error aborts the sort.
    ///
    /// Pass boundaries completed *before* a resume are not replayed.
    ///
    /// This is the one pass loop, and its order is what makes a resume
    /// byte-identical:
    ///
    /// ```text
    /// resume rule ─► formation ─► ┌ observer ─► sync ─► journaled snapshot ┐
    ///                             │      └──────── boundary p ─────────────┤
    ///                             │ interrupt check ─► merge pass p+1 ─────┘
    ///                             └► one run left: retire the manifest
    /// ```
    ///
    /// Between boundaries the observer may have mutated the array (a disk
    /// may have died), so nothing array-derived but run handles is kept
    /// across a pass.
    pub fn sort_observed<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &StripedRun,
        manifest: Option<&Path>,
        mut observer: impl FnMut(u64, &mut A) -> Result<()>,
    ) -> Result<(StripedRun, SortReport)> {
        let geometry = array.geometry();
        let records = input.records;
        if records == 0 {
            return Err(SrmError::Config("cannot sort an empty input".into()));
        }
        let merge_order = self.merge_order(geometry)?;
        let io_before = array.stats();
        let mut placer = Placer::new(self.config.placement, self.config.seed, geometry.d as u32);

        // Recovery rule: newest valid manifest generation wins; a torn
        // current manifest falls back to its journaled predecessor.
        let resume = match manifest {
            Some(path) => self.resume_point(geometry, records, path)?,
            None => None,
        };
        // `completed_here`: the current boundary was reached by this call, so
        // it is still to be observed and journaled.  A resumed boundary was,
        // by the call that completed it; only its interrupt check remains.
        let mut completed_here = resume.is_none();
        let (mut queue, mut pass, runs_formed) = match resume {
            Some(m) => {
                m.validate_redundancy(array.redundancy().as_ref())?;
                // Draw the start disks an uninterrupted sort would have.
                placer.fast_forward(m.draws);
                (m.runs, m.pass, m.runs_formed)
            }
            None => {
                if let Some(sink) = array.trace_sink() {
                    // Run formation is pass 0; merge passes count from 1.
                    sink.begin_pass(0);
                }
                let queue = form_runs_overlapped(
                    array,
                    input,
                    self.config.run_formation,
                    self.pipeline,
                    || placer.next(),
                )?;
                let runs_formed = queue.len() as u64;
                (queue, 0, runs_formed)
            }
        };

        let overlap = Overlap::new(self.pipeline, self.read_ahead);
        let (mut merges, mut schedule) = (0, ScheduleStats::default());
        loop {
            if completed_here {
                observer(pass, array)?;
                // The last boundary leaves nothing to resume, so only
                // formation journals a single run.
                if let Some(path) = manifest.filter(|_| pass == 0 || queue.len() > 1) {
                    let snapshot = SortManifest::new(
                        self.engine,
                        &self.config,
                        geometry,
                        records,
                        runs_formed,
                        pass,
                        placer.draws,
                        array.redundancy(),
                        queue.clone(),
                    );
                    self.journal(path, array, snapshot)?;
                }
            }
            // Drain hook: the boundary's snapshot (or the resumed manifest
            // already on disk) is durable, so stopping here loses nothing and
            // a rerun resumes from exactly this pass.  With one run left
            // there is no further boundary, so the sort simply completes.
            // `tests/checkpoint_resume.rs`'s `every_engine` tests fail if
            // this check moves ahead of the snapshot.
            if queue.len() <= 1 {
                break;
            }
            if self.interrupt.as_ref().is_some_and(InterruptFlag::is_set) {
                return Err(SrmError::Interrupted);
            }
            pass += 1;
            if let Some(sink) = array.trace_sink() {
                sink.begin_pass(pass);
            }
            let mut next = Vec::with_capacity(queue.len().div_ceil(merge_order));
            for group in queue.chunks(merge_order) {
                next.push(match group {
                    // A lone leftover run advances to the next pass at no
                    // I/O cost.
                    [lone] => lone.clone(),
                    _ => {
                        let out = merge_runs_overlapped(array, group, placer.next(), overlap)?;
                        merges += 1;
                        accumulate(&mut schedule, &out.stats);
                        out.run
                    }
                });
            }
            queue = next;
            completed_here = true;
        }
        let sorted = queue
            .pop()
            .ok_or_else(|| SrmError::Internal("merge queue drained to empty".into()))?;
        debug_assert_eq!(sorted.records, records);
        if let Some(path) = manifest {
            SortManifest::remove(path)?;
        }
        let report = SortReport {
            records,
            merge_order,
            runs_formed: runs_formed as usize,
            merge_passes: pass,
            merges,
            schedule,
            io: array.stats().since(&io_before),
        };
        Ok((sorted, report))
    }

    /// Journal `snapshot` to `path`.  Durability barrier first: every
    /// block the manifest is about to reference must be on stable storage
    /// before the manifest claims the pass completed — otherwise a crash
    /// could leave a manifest pointing at frames that never landed.  Under
    /// a crash clock the snapshot gets its own numbered boundaries:
    /// `manifest-write`, the save's `manifest-sync`, `manifest-written`.
    fn journal<R: Record, A: DiskArray<R>>(
        &self,
        path: &Path,
        array: &mut A,
        mut snapshot: SortManifest,
    ) -> Result<()> {
        let tick = |label: &'static str| self.crash.as_ref().map_or(Ok(()), |c| c.tick(label));
        array.sync()?;
        tick("manifest-write")?;
        snapshot.save(path, self.crash.as_ref())?;
        Ok(tick("manifest-written")?)
    }
}

fn accumulate(into: &mut ScheduleStats, merge: &MergeStats) {
    into.init_reads += merge.schedule.init_reads;
    into.par_reads += merge.schedule.par_reads;
    into.flush_ops += merge.schedule.flush_ops;
    into.blocks_flushed += merge.schedule.blocks_flushed;
    into.blocks_read += merge.schedule.blocks_read;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::read_run;
    use pdisk::{FileDiskArray, KeyPayloadRecord, MemDiskArray, U64Record};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sort_and_verify(
        geom: Geometry,
        keys: &[u64],
        config: SrmConfig,
    ) -> (SortReport, MemDiskArray<U64Record>) {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
        let input = write_unsorted_input(&mut a, &recs).unwrap();
        let (sorted, report) = SrmSorter::new(config).sort(&mut a, &input).unwrap();
        let got: Vec<u64> = read_run(&mut a, &sorted).unwrap().iter().map(|r| r.0).collect();
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(report.records as usize, keys.len());
        (report, a)
    }

    fn random_keys(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.random_range(0..10_000_000)).collect()
    }

    #[test]
    fn sorts_multi_pass_random_input() {
        let mut rng = SmallRng::seed_from_u64(21);
        // M/B = 24, D = 2 -> R = (24-8)*4/(2*4+2) = 6; memory loads of 48.
        let geom = Geometry::new(2, 4, 96).unwrap();
        let keys = random_keys(&mut rng, 3000);
        let (report, _) = sort_and_verify(geom, &keys, SrmConfig::default());
        assert_eq!(report.merge_order, 6);
        // 3000/48 = 63 runs -> pass 1: 11 runs, pass 2: 2, pass 3: 1.
        assert_eq!(report.runs_formed, 63);
        assert_eq!(report.merge_passes, 3);
        assert!(report.schedule.total_reads() > 0);
        assert!(report.io.write_ops > 0);
    }

    #[test]
    fn sorts_single_memoryload_without_merging() {
        let geom = Geometry::new(2, 4, 128).unwrap();
        let keys: Vec<u64> = (0..60).rev().collect();
        let (report, _) = sort_and_verify(
            geom,
            &keys,
            SrmConfig {
                run_formation: RunFormation::MemoryLoad { fraction: 1.0 },
                ..SrmConfig::default()
            },
        );
        assert_eq!(report.runs_formed, 1);
        assert_eq!(report.merge_passes, 0);
    }

    #[test]
    fn staggered_placement_sorts_too() {
        let mut rng = SmallRng::seed_from_u64(22);
        let geom = Geometry::new(3, 4, 120).unwrap();
        let keys = random_keys(&mut rng, 2000);
        let (report, _) = sort_and_verify(
            geom,
            &keys,
            SrmConfig {
                placement: Placement::Staggered,
                ..SrmConfig::default()
            },
        );
        assert!(report.merge_passes >= 1);
    }

    #[test]
    fn replacement_selection_pipeline() {
        let mut rng = SmallRng::seed_from_u64(23);
        let geom = Geometry::new(2, 4, 96).unwrap();
        let keys = random_keys(&mut rng, 1500);
        let (report, _) = sort_and_verify(
            geom,
            &keys,
            SrmConfig {
                run_formation: RunFormation::ReplacementSelection,
                ..SrmConfig::default()
            },
        );
        // RS runs are ~2x memory loads, so fewer runs than N/(M/2).
        assert!(report.runs_formed < 1500 / 48 + 2);
    }

    #[test]
    fn sorted_input_is_a_fixpoint() {
        let geom = Geometry::new(2, 4, 96).unwrap();
        let keys: Vec<u64> = (0..2000).collect();
        sort_and_verify(geom, &keys, SrmConfig::default());
    }

    #[test]
    fn reverse_sorted_and_constant_inputs() {
        let geom = Geometry::new(2, 4, 96).unwrap();
        let keys: Vec<u64> = (0..1500).rev().collect();
        sort_and_verify(geom, &keys, SrmConfig::default());
        let constant = vec![7u64; 1000];
        sort_and_verify(geom, &constant, SrmConfig::default());
    }

    #[test]
    fn payload_records_travel_with_keys() {
        let mut rng = SmallRng::seed_from_u64(24);
        let geom = Geometry::new(2, 4, 96).unwrap();
        let mut a: MemDiskArray<KeyPayloadRecord<16>> = MemDiskArray::new(geom);
        let recs: Vec<KeyPayloadRecord<16>> = (0..1200)
            .map(|_| KeyPayloadRecord::with_derived_payload(rng.random_range(0..100_000)))
            .collect();
        let input = write_unsorted_input(&mut a, &recs).unwrap();
        let (sorted, _) = SrmSorter::default().sort(&mut a, &input).unwrap();
        let got = read_run(&mut a, &sorted).unwrap();
        for r in &got {
            assert_eq!(
                *r,
                KeyPayloadRecord::<16>::with_derived_payload(r.key),
                "payload corrupted in transit"
            );
        }
        let mut keys: Vec<u64> = recs.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        assert_eq!(got.iter().map(|r| r.key).collect::<Vec<_>>(), keys);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(25);
        let geom = Geometry::new(3, 4, 120).unwrap();
        let keys = random_keys(&mut rng, 1000);
        let (r1, _) = sort_and_verify(geom, &keys, SrmConfig::default());
        let (r2, _) = sort_and_verify(geom, &keys, SrmConfig::default());
        assert_eq!(r1, r2, "same seed must give identical I/O traces");
        let (r3, _) = sort_and_verify(
            geom,
            &keys,
            SrmConfig {
                seed: 999,
                ..SrmConfig::default()
            },
        );
        assert_eq!(r3.records, r1.records); // different trace is fine; same result
    }

    /// Staging an empty input is no error; the sort is the one refusal,
    /// on either backend.
    #[test]
    fn empty_input_rejected() {
        fn refused<A: DiskArray<U64Record>>(mut a: A) {
            let input = write_unsorted_input(&mut a, &[]).unwrap();
            assert_eq!(input.records, 0);
            match SrmSorter::default().sort(&mut a, &input) {
                Err(SrmError::Config(msg)) => assert!(msg.contains("empty input"), "{msg}"),
                other => panic!("an empty input must be a Config error, got {other:?}"),
            }
        }
        let geom = Geometry::new(2, 4, 96).unwrap();
        refused(MemDiskArray::<U64Record>::new(geom));
        let dir = std::env::temp_dir().join(format!("srm-core-empty-{}", std::process::id()));
        refused(FileDiskArray::<U64Record>::create(geom, &dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_counts_match_passes() {
        // Every pass writes the whole file once with full parallelism:
        // write ops ≈ (1 + merge_passes) * blocks/D.
        let mut rng = SmallRng::seed_from_u64(26);
        let geom = Geometry::new(2, 4, 96).unwrap();
        let keys = random_keys(&mut rng, 2048);
        let (report, _) = sort_and_verify(geom, &keys, SrmConfig::default());
        let blocks = 2048u64 / 4;
        let per_pass = blocks.div_ceil(2);
        let ideal = (1 + report.merge_passes) * per_pass;
        // Ragged final stripes cost a little extra; lone leftover runs
        // that skip a pass cost a little less.
        assert!(
            report.io.write_ops >= ideal - per_pass / 4 && report.io.write_ops <= ideal + ideal / 5,
            "write ops {} vs ideal {ideal}",
            report.io.write_ops
        );
    }

    /// DSM on `(D, B, M) = (2, 4, 96)` is this engine on `(1, 8, 96)` at
    /// eq. 41's `R_DSM = (24 − 4)/4 = 5`, every operation a full stripe.
    #[test]
    fn dsm_sorts_on_one_wide_disk() {
        let mut rng = SmallRng::seed_from_u64(31);
        let keys = random_keys(&mut rng, 3000);
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(Geometry::new(1, 8, 96).unwrap());
        let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
        let input = write_unsorted_input(&mut a, &recs).unwrap();
        let dsm = SrmSorter::default().with_engine(EngineKind::Dsm);
        let (sorted, report) = dsm.sort(&mut a, &input).unwrap();
        assert_eq!(report.merge_order, 5);
        assert!(report.merge_passes >= 2);
        assert_eq!(report.schedule.flush_ops, 0);
        let mut expected = keys;
        expected.sort_unstable();
        let got: Vec<u64> = read_run(&mut a, &sorted).unwrap().iter().map(|r| r.0).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn dsm_refuses_an_array_of_more_than_one_disk() {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(Geometry::new(2, 4, 96).unwrap());
        let input = write_unsorted_input(&mut a, &[U64Record(1), U64Record(0)]).unwrap();
        let dsm = SrmSorter::default().with_engine(EngineKind::Dsm);
        assert!(matches!(dsm.sort(&mut a, &input), Err(SrmError::Config(_))));
    }

    #[test]
    fn single_disk_degenerates_gracefully() {
        let mut rng = SmallRng::seed_from_u64(27);
        let geom = Geometry::new(1, 4, 64).unwrap();
        let keys = random_keys(&mut rng, 800);
        sort_and_verify(geom, &keys, SrmConfig::default());
    }
}
