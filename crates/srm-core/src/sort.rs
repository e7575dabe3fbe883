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
use crate::run_formation::{form_runs_overlapped, load_blocks, tournament_slots, Input, RunFormation};
use crate::scheduler::ScheduleStats;
use pdisk::{CrashClock, DiskArray, DiskId, Geometry, InterruptFlag, IoStats, Record, StripedRun};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::path::Path;
use std::time::Duration;

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
    /// Run-formation strategy; `None`, the default, is the sorter's
    /// choice by device ([`SrmSorter::formation`]).
    pub run_formation: Option<RunFormation>,
    /// Seed for the (limited) internal randomization.
    pub seed: u64,
}

impl Default for SrmConfig {
    fn default() -> Self {
        SrmConfig {
            placement: Placement::Random,
            run_formation: None,
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
    /// How this call formed them ([`SrmSorter::formation`]); `None` when
    /// it resumed past formation.
    pub formation: Option<RunFormation>,
    /// Merge passes, `⌈log_R runs_formed⌉` (excludes run formation).  A
    /// pass need not rewrite the whole file: the first merges only what
    /// [`pass_plan`] asks for, and the rest of its runs wait untouched.
    pub merge_passes: u64,
    /// Individual merges performed.
    pub merges: u64,
    /// Aggregated scheduling counters over all merges.
    pub schedule: ScheduleStats,
    /// Backend I/O delta for the whole sort (formation + merges).
    pub io: IoStats,
}

impl SortReport {
    /// Measured read-overhead factor of the merges:
    /// `v = merge reads / (blocks the merges read once / D)`, where a block
    /// the scheduler flushed (§5.5 rule 2c) and read again counts once —
    /// so `v ≥ 1`.  The ideal is what the merges read, not
    /// `merge_passes × total_blocks`: a partial first pass ([`pass_plan`])
    /// leaves runs unread.  `_total_blocks` is no longer needed; the
    /// signature stays for srmbench, which passes it.
    pub fn overhead_v(&self, d: usize, _total_blocks: u64) -> f64 {
        let once = self.schedule.blocks_read.saturating_sub(self.schedule.blocks_flushed);
        if once == 0 {
            return 0.0;
        }
        self.schedule.total_reads() as f64 / (once as f64 / d as f64)
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

    /// The formation a sort of `records` records on `geometry` forms its
    /// runs by on a device of `device` per block (the sort asks its
    /// array, [`DiskArray::device_time`]): the configured one or, left
    /// open, [`choose_formation`]'s pick on a modelled device and loads
    /// on a free one, which would not repay RS's host time (DESIGN.md
    /// §14.8).  DSM keeps its loads.  A resume forms no runs, so a
    /// checkpoint resumes on any device.
    pub fn formation(&self, geometry: Geometry, records: u64, device: Duration) -> Result<RunFormation> {
        match self.config.run_formation {
            Some(configured) => Ok(configured),
            None if device.is_zero() || self.engine == EngineKind::Dsm => Ok(RunFormation::default()),
            None => Ok(choose_formation(records, geometry, self.merge_order(geometry)?)),
        }
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

    /// Like [`SrmSorter::sort`], but with `manifest`, checkpointing
    /// progress to it after run formation and after every merge pass that
    /// leaves more than one run, and **resuming** from it when it holds a
    /// checkpoint of this sort.  A sort killed mid-pass loses only the
    /// interrupted pass: rerunning the same sorter against the same array
    /// (or a [`pdisk::FileDiskArray`] reopened with
    /// [`pdisk::FileDiskArray::open`]) skips formation and every completed
    /// pass, fast-forwards the placement RNG by the manifest's draw count
    /// and redoes the interrupted pass, producing the same record sequence
    /// an uninterrupted sort would; the blocks the interrupted pass wrote
    /// are abandoned (the substrate is append-only within a sort).
    /// Resuming validates that geometry, seed, placement and record count
    /// match the manifest; a mismatch is an [`SrmError::Checkpoint`].
    ///
    /// The sort only journals: on success the last boundary's manifest is
    /// left for the caller, who retires it once the output is accounted
    /// for (`srm_server::job::sort_durable` does, after publishing its
    /// `done`).  A rerun before that resumes the last pass.
    ///
    /// `observer` is called at every pass boundary **completed by this
    /// call**: once after run formation (`pass` = 0) and once after each
    /// merge pass, each time *before* the snapshot is taken.  The observer
    /// may mutate the array — this is the injection point for fault drills
    /// (`--kill-disk D@PASS` in the CLI kills a disk here, so the
    /// subsequent snapshot records the death and the next pass runs
    /// degraded).  An observer error aborts the sort.  Pass boundaries
    /// completed *before* a resume are not replayed.  In the returned
    /// report, `merge_passes` and `runs_formed` cover the whole logical
    /// sort, while `io`, `merges` and `schedule` cover this call's work.
    ///
    /// `input` is a staged `&StripedRun` or [`Input::InMemory`] records,
    /// which form the same runs without being written out and read back.
    ///
    /// This is the one pass loop, and its order is what makes a resume
    /// byte-identical:
    ///
    /// ```text
    /// resume rule ─► formation ─► ┌ observer ─► sync ─► journaled snapshot ┐
    ///                             │      └──────── boundary p ─────────────┤
    ///                             │ interrupt check ─► merge pass p+1 ─────┘
    ///                             └► one run left: sync
    /// ```
    ///
    /// Between boundaries the observer may have mutated the array (a disk
    /// may have died), so nothing array-derived but run handles is kept
    /// across a pass.
    pub fn sort_observed<'i, R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: impl Into<Input<'i, R>>,
        manifest: Option<&Path>,
        observer: impl FnMut(u64, &mut A) -> Result<()>,
    ) -> Result<(StripedRun, SortReport)> {
        let input = input.into();
        // Recovery rule: newest valid manifest generation wins; a torn
        // current manifest falls back to its journaled predecessor.
        let resume = match manifest {
            Some(path) => self.resume_point(array.geometry(), input.records(), path)?,
            None => None,
        };
        self.sort_from(array, input, manifest, resume, false, observer).map(|(sorted, report, _)| (sorted, report))
    }

    /// [`SrmSorter::sort_observed`] from a `resume` point the caller has
    /// already read: what [`SrmSorter::resume_point`] returned for
    /// `manifest`, read once, under whatever keeps the manifest and the
    /// array in step (a durable job's array lease).
    /// With `keep_output`, the merge that leaves one run also hands back
    /// the records it wrote; `None` when no such merge ran in this call.
    pub fn sort_from<'i, R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: impl Into<Input<'i, R>>,
        manifest: Option<&Path>,
        resume: Option<SortManifest>,
        keep_output: bool,
        mut observer: impl FnMut(u64, &mut A) -> Result<()>,
    ) -> Result<(StripedRun, SortReport, Option<Vec<R>>)> {
        let input = input.into();
        let geometry = array.geometry();
        let records = input.records();
        if records == 0 {
            return Err(SrmError::Config("cannot sort an empty input".into()));
        }
        let merge_order = self.merge_order(geometry)?;
        let io_before = array.stats();
        let mut placer = Placer::new(self.config.placement, self.config.seed, geometry.d as u32);

        // `completed_here`: the current boundary was reached by this call, so
        // it is still to be observed and journaled.  A resumed boundary was,
        // by the call that completed it; only its interrupt check remains.
        let mut completed_here = resume.is_none();
        let (mut queue, mut pass, runs_formed, formation) = match resume {
            Some(m) => {
                m.validate_redundancy(array.redundancy().as_ref())?;
                // Draw the start disks an uninterrupted sort would have.
                placer.fast_forward(m.draws);
                (m.runs, m.pass, m.runs_formed, None)
            }
            None => {
                let formation = self.formation(geometry, records, array.device_time())?;
                if let Some(sink) = array.trace_sink() {
                    // Run formation is pass 0; merge passes count from 1.
                    sink.begin_pass(0);
                }
                let queue = form_runs_overlapped(array, input, formation, self.pipeline, || placer.next())?;
                let runs_formed = queue.len() as u64;
                (queue, 0, runs_formed, Some(formation))
            }
        };

        let overlap = Overlap::new(self.pipeline, self.read_ahead);
        let (mut merges, mut schedule, mut kept) = (0, ScheduleStats::default(), None);
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
            // this check moves ahead of the snapshot.  No plan = one run.
            let Some(plan) = pass_plan(queue.len(), merge_order) else {
                break;
            };
            if self.interrupt.as_ref().is_some_and(InterruptFlag::is_set) {
                return Err(SrmError::Interrupted);
            }
            pass += 1;
            if let Some(sink) = array.trace_sink() {
                sink.begin_pass(pass);
            }
            // The head waits this pass out; a resumed queue is planned
            // like any other.
            let mut next = queue[..plan.untouched].to_vec();
            // A pass that leaves one run is one merge: the output's.
            let keep = keep_output && plan.runs_after() == 1;
            for group in plan.groups(merge_order) {
                let (out, records) = merge_runs_overlapped(array, &queue[group], placer.next(), overlap, keep)?;
                kept = records;
                merges += 1;
                accumulate(&mut schedule, &out.stats);
                next.push(out.run);
            }
            queue = next;
            completed_here = true;
        }
        let sorted = queue
            .pop()
            .ok_or_else(|| SrmError::Internal("merge queue drained to empty".into()))?;
        debug_assert_eq!(sorted.records, records);
        if manifest.is_some() {
            // The output is durable before the caller's `done` names it.
            array.sync()?;
        }
        let report = SortReport {
            records,
            merge_order,
            runs_formed: runs_formed as usize,
            formation,
            merge_passes: pass,
            merges,
            schedule,
            io: array.stats().since(&io_before),
        };
        Ok((sorted, report, kept))
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

/// What one merge pass does with a queue of runs: Knuth's dummy-run
/// pattern (TAOCP Vol. 3 §5.4).  `n` runs at merge order `R` need
/// `p = ⌈log_R n⌉` passes whatever the grouping, and the last `p − 1` of
/// them can only finish `R^(p−1)` runs.  So the first pass merges just
/// enough to leave that many: one group of
/// `((n − R^(p−1) − 1) mod (R−1)) + 2` runs, then groups of `R`, taken
/// contiguously from the tail of the queue, where the short last run
/// sits; the head runs wait untouched, and every later pass is full.
/// Only the merged runs are read and rewritten, so a sort moves
/// `log_R n` passes' worth of data — the fractional count of the paper's
/// `(N/DB)·(2 + C·ln(N/M))` — not its ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassPlan {
    /// Runs at the head of the queue this pass leaves untouched.
    pub untouched: usize,
    /// Runs in the first group, `2..=R`.
    pub first: usize,
    /// Groups of `R` runs after the first.
    pub full: usize,
}

impl PassPlan {
    /// Runs this pass merges.
    pub fn merged(&self, merge_order: usize) -> usize {
        self.first + self.full * merge_order
    }

    /// Runs the queue holds after the pass: a power of `R`.
    pub fn runs_after(&self) -> usize {
        self.untouched + 1 + self.full
    }

    /// The pass's merge groups, in queue order, as index ranges into the
    /// queue it was planned for.
    pub fn groups(&self, merge_order: usize) -> impl Iterator<Item = Range<usize>> {
        let (head, first) = (self.untouched, self.first);
        std::iter::once(head..head + first).chain((0..self.full).map(move |g| {
            let start = head + first + g * merge_order;
            start..start + merge_order
        }))
    }
}

/// The plan for the next merge pass over `runs` runs at merge order
/// `merge_order` (`R ≥ 2`), or `None` when one run (or none) is left.
/// See [`PassPlan`].
pub fn pass_plan(runs: usize, merge_order: usize) -> Option<PassPlan> {
    if runs <= 1 || merge_order < 2 {
        return None;
    }
    // R^(p−1): the largest power of R below `runs`.
    let mut after = 1usize;
    while after.saturating_mul(merge_order) < runs {
        after *= merge_order;
    }
    // Each merge of k runs removes k − 1; the first group takes the
    // remainder so the full groups divide what is left.
    let excess = runs - after;
    let first = (excess - 1) % (merge_order - 1) + 2;
    let full = (excess - (first - 1)) / (merge_order - 1);
    Some(PassPlan {
        untouched: runs - first - full * merge_order,
        first,
        full,
    })
}

/// Blocks one pass moves: what it reads once (a block the scheduler
/// flushes and fetches again counts once) and what it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassVolume {
    /// Blocks read once: the input (formation) or the merged runs.
    pub read: u64,
    /// Blocks written: the runs formed, or the merges' output runs.
    pub written: u64,
}

/// `records` cut into runs of `len`, the last one short.
fn runs_of(records: u64, len: u64) -> Vec<u64> {
    (0..records.div_ceil(len)).map(|i| len.min(records - i * len)).collect()
}

/// Records in each run memory-load formation makes of `records` input
/// records: whole loads of `load_blocks · B` records, the last one short.
pub fn load_runs(records: u64, geom: Geometry, fraction: f64) -> Vec<u64> {
    runs_of(records, load_blocks(geom, fraction) * geom.b as u64)
}

/// Replacement selection's worst case over `records` records: every run
/// but the last holds at least the tournament's `M − 4DB` records
/// ([`tournament_slots`]), so the runs are assumed exactly that long.
/// On random input they are about twice that.
pub fn rs_worst_runs(records: u64, geom: Geometry) -> Vec<u64> {
    runs_of(records, tournament_slots(geom) as u64)
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

/// A whole sort whose formation makes `runs` (record counts, queue
/// order) of `records` input records: formation first (it reads the
/// input and writes the runs), then every merge pass.
pub fn sort_volumes(records: u64, runs: &[u64], b: usize, merge_order: usize) -> Vec<PassVolume> {
    let formation = PassVolume {
        read: records.div_ceil(b as u64),
        written: runs.iter().map(|r| r.div_ceil(b as u64)).sum(),
    };
    std::iter::once(formation).chain(pass_volumes(runs, b, merge_order)).collect()
}

/// The formation rule on a modelled device: replacement selection when
/// its worst case ([`rs_worst_runs`]) moves strictly fewer blocks,
/// read and written over the whole sort, than half-memory loads; loads
/// otherwise, ties included.
pub fn choose_formation(records: u64, geom: Geometry, merge_order: usize) -> RunFormation {
    let moved = |runs: &[u64]| -> u64 {
        sort_volumes(records, runs, geom.b, merge_order).iter().map(|p| p.read + p.written).sum()
    };
    if moved(&rs_worst_runs(records, geom)) < moved(&load_runs(records, geom, 0.5)) {
        RunFormation::ReplacementSelection
    } else {
        RunFormation::MemoryLoad { fraction: 0.5 }
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
        // 3000/48 = 63 runs, ⌈log_6 63⌉ = 3 passes.  Pass 1 leaves 6² = 36:
        // it merges the last 33 runs (a group of 3, five of 6) and the
        // first 30 wait; pass 2 leaves 6 runs, pass 3 one.
        assert_eq!(report.runs_formed, 63);
        assert_eq!(report.merge_passes, 3);
        assert_eq!(report.merges, 6 + 6 + 1);
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
                run_formation: Some(RunFormation::MemoryLoad { fraction: 1.0 }),
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
                run_formation: Some(RunFormation::ReplacementSelection),
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
        // Formation writes the whole file and so does every pass after the
        // first; pass 1 writes only the runs its plan merges.  Each run of
        // k blocks goes out in ⌈k/D⌉ full-parallelism stripes, so the
        // write ops follow from the plan exactly.
        let mut rng = SmallRng::seed_from_u64(26);
        let geom = Geometry::new(2, 4, 96).unwrap();
        let keys = random_keys(&mut rng, 2048);
        let (report, _) = sort_and_verify(geom, &keys, SrmConfig::default());
        // Loads of 12 blocks: 42 runs and a last one of 8 blocks.
        let mut queue: Vec<u64> = (0..42).map(|_| 12).chain([8]).collect();
        let ops = |runs: &[u64]| runs.iter().map(|k| k.div_ceil(2)).sum::<u64>();
        let mut want = ops(&queue);
        while let Some(plan) = pass_plan(queue.len(), report.merge_order) {
            let mut next = queue[..plan.untouched].to_vec();
            next.extend(plan.groups(report.merge_order).map(|g| queue[g].iter().sum::<u64>()));
            want += ops(&next[plan.untouched..]);
            queue = next;
        }
        assert_eq!(queue, [512]);
        // 43 runs at R = 6 leave 36: pass 1 rewrites 9 runs (104 blocks).
        assert_eq!(pass_plan(43, 6).map(|p| p.merged(6)), Some(9));
        assert_eq!(want, 256 + 52 + 256 + 256);
        assert_eq!(report.io.write_ops, want);
    }

    /// `v` counts what the merges read: a partial first pass leaves runs
    /// unread, so an ideal of `merge_passes × total_blocks / D` would put
    /// `v` below 1, which no schedule can reach.
    #[test]
    fn overhead_v_is_at_least_one_under_a_partial_first_pass() {
        let mut rng = SmallRng::seed_from_u64(28);
        for (geom, n) in [(Geometry::new(2, 4, 96).unwrap(), 3000), (Geometry::new(4, 8, 256).unwrap(), 12_000)] {
            let keys = random_keys(&mut rng, n);
            let (report, _) = sort_and_verify(geom, &keys, SrmConfig::default());
            let plan = pass_plan(report.runs_formed, report.merge_order).unwrap();
            assert!(plan.untouched > 0, "pass 1 must be partial: {plan:?}");
            let blocks = (n as u64).div_ceil(geom.b as u64);
            let v = report.overhead_v(geom.d, blocks);
            assert!(v >= 1.0, "v = {v}: {report}");
        }
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

    /// Blocks a sort moved, counting a block the scheduler flushed and
    /// fetched again once, as [`PassVolume`] does.
    fn moved_once(report: &SortReport) -> u64 {
        report.io.blocks_read - report.schedule.blocks_flushed + report.io.blocks_written
    }

    fn predicted(records: u64, runs: &[u64], geom: Geometry, r: usize) -> u64 {
        sort_volumes(records, runs, geom.b, r).iter().map(|p| p.read + p.written).sum()
    }

    /// `dist_p4`'s shard geometry: D = 3, B = 16, M = 1024, so R = 23, a
    /// half-memory load is 512 records and the tournament 832.
    fn shard_geometry() -> Geometry {
        Geometry::new(3, 16, 1024).unwrap()
    }

    /// The rule on the geometries the repo's figures quote: a 30 000-record
    /// shard forms 59 loads (two passes) or at worst 37 RS runs, so RS
    /// predicts fewer blocks; a 5 000-record shard merges 10 loads or 7
    /// RS runs in one pass over the same blocks, a tie, so loads stay.
    #[test]
    fn the_rule_picks_rs_only_on_strictly_fewer_blocks() {
        let geom = shard_geometry();
        let r = geom.srm_merge_order().unwrap();
        assert_eq!((r, tournament_slots(geom)), (23, 832));
        let (loads, rs) = (load_runs(30_000, geom, 0.5), rs_worst_runs(30_000, geom));
        assert_eq!((loads.len(), rs.len()), (59, 37));
        assert!(predicted(30_000, &rs, geom, r) < predicted(30_000, &loads, geom, r));
        assert_eq!(choose_formation(30_000, geom, r), RunFormation::ReplacementSelection);

        let (loads, rs) = (load_runs(5_000, geom, 0.5), rs_worst_runs(5_000, geom));
        assert_eq!((loads.len(), rs.len()), (10, 7));
        assert_eq!(predicted(5_000, &rs, geom, r), predicted(5_000, &loads, geom, r));
        assert_eq!(choose_formation(5_000, geom, r), RunFormation::default(), "a tie keeps loads");

        // Everywhere: RS exactly when its worst case moves strictly fewer.
        for (d, b, m) in [(2, 4, 96), (2, 8, 512), (3, 16, 1024), (4, 64, 3136)] {
            let geom = Geometry::new(d, b, m).unwrap();
            let r = geom.srm_merge_order().unwrap();
            for records in (1..40).map(|i| i * i * 97) {
                let rs = predicted(records, &rs_worst_runs(records, geom), geom, r);
                let loads = predicted(records, &load_runs(records, geom, 0.5), geom, r);
                let want = if rs < loads { RunFormation::ReplacementSelection } else { RunFormation::default() };
                assert_eq!(choose_formation(records, geom, r), want, "{geom:?} N={records}");
            }
        }
    }

    /// A file array in a fresh directory whose device costs 1 µs a
    /// block: the rule asks only whether the device is modelled.
    fn modelled_device(geom: Geometry, tag: &str) -> (FileDiskArray<U64Record>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("srm-core-device-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let array = FileDiskArray::create(geom, &dir).unwrap();
        array.set_io_delay(Duration::from_micros(1));
        (array, dir)
    }

    /// Only a modelled device, under a formation the configuration
    /// leaves open, hands the choice to the rule; every configured
    /// formation is kept, the default half-memory loads included.
    #[test]
    fn a_declared_device_chooses_and_an_explicit_formation_wins() {
        let geom = shard_geometry();
        let (mut a, dir) = modelled_device(geom, "chooses");
        let device = a.device_time();
        let rs = RunFormation::ReplacementSelection;
        let formation = |s: &SrmSorter, records, device| s.formation(geom, records, device).unwrap();
        let free = MemDiskArray::<U64Record>::new(geom).device_time();
        assert_eq!(formation(&SrmSorter::default(), 30_000, free), RunFormation::default(), "no device");
        a.set_io_delay(Duration::ZERO);
        assert_eq!(formation(&SrmSorter::default(), 30_000, a.device_time()), RunFormation::default());
        a.set_io_delay(device);
        assert_eq!(formation(&SrmSorter::default(), 30_000, device), rs);
        assert_eq!(formation(&SrmSorter::default(), 5_000, device), RunFormation::default());
        for explicit in [
            rs,
            RunFormation::MemoryLoad { fraction: 0.5 },
            RunFormation::MemoryLoad { fraction: 1.0 },
        ] {
            let sorter = SrmSorter::new(SrmConfig { run_formation: Some(explicit), ..SrmConfig::default() });
            assert_eq!(formation(&sorter, 30_000, device), explicit);
            assert_eq!(formation(&sorter, 5_000, device), explicit);
        }
        let wide = Geometry::new(1, 48, 1024).unwrap();
        let dsm = SrmSorter::default().with_engine(EngineKind::Dsm);
        assert_eq!(dsm.formation(wide, 30_000, device).unwrap(), RunFormation::default(), "DSM keeps its loads");

        // The sort reads the device off its array, forms by the choice
        // and reports it; a resume does not.
        let mut rng = SmallRng::seed_from_u64(36);
        let recs: Vec<U64Record> = (0..30_000).map(|_| U64Record(rng.random())).collect();
        let input = write_unsorted_input(&mut a, &recs).unwrap();
        let (_, report) = SrmSorter::default().sort(&mut a, &input).unwrap();
        assert_eq!((report.formation, report.merge_passes), (Some(rs), 1));
        assert!(report.runs_formed < 37, "random input beats the worst case: {}", report.runs_formed);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Keys of `n` records in four shapes: sorted, reverse (RS's worst
    /// case: every run exactly the tournament), Zipf(1.1) over 4096
    /// values, and uniform.
    fn shaped_inputs(n: usize, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let weights: Vec<f64> = (1..=4096).map(|k| (k as f64).powf(-1.1)).collect();
        let total: f64 = weights.iter().sum();
        let cdf: Vec<f64> = weights.iter().scan(0.0, |acc, w| { *acc += w / total; Some(*acc) }).collect();
        let zipf = (0..n).map(|_| cdf.partition_point(|&c| c < rng.random::<f64>()) as u64).collect();
        vec![
            ("sorted", (0..n as u64).collect()),
            ("reverse", (0..n as u64).rev().collect()),
            ("zipf", zipf),
            ("uniform", (0..n).map(|_| rng.random()).collect()),
        ]
    }

    /// A sort the rule sends to RS moves no more blocks than the loads
    /// it replaced were predicted to, whatever the input: at the
    /// `dist_p4` shard geometry, and at the server drills' (D = 2,
    /// B = 4, M = 96, 1 500 records) and `JobSpec`'s default (D = 2,
    /// B = 8, M = 512).
    #[test]
    fn rs_chosen_by_the_rule_is_never_worse_than_loads() {
        let mut chosen = 0;
        for (geom, n) in [
            (shard_geometry(), 30_000),
            (Geometry::new(2, 4, 96).unwrap(), 1_500),
            (Geometry::new(2, 8, 512).unwrap(), 20_000),
        ] {
            let r = geom.srm_merge_order().unwrap();
            let loads = predicted(n as u64, &load_runs(n as u64, geom, 0.5), geom, r);
            for (shape, keys) in shaped_inputs(n, 0x5EED ^ n as u64) {
                let (mut a, dir) = modelled_device(geom, shape);
                let recs: Vec<U64Record> = keys.iter().map(|&k| U64Record(k)).collect();
                let input = write_unsorted_input(&mut a, &recs).unwrap();
                let (sorted, report) = SrmSorter::default().sort(&mut a, &input).unwrap();
                let mut expected = keys.clone();
                expected.sort_unstable();
                let got: Vec<u64> = read_run(&mut a, &sorted).unwrap().iter().map(|r| r.0).collect();
                assert_eq!(got, expected, "{shape}");
                if report.formation == Some(RunFormation::ReplacementSelection) {
                    chosen += 1;
                    assert!(moved_once(&report) <= loads, "{geom:?} {shape}: RS moved {} > loads' {loads}", moved_once(&report));
                }
                drop(a);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        assert_eq!(chosen, 12, "the rule sends every one of these sorts to RS");
    }
}
