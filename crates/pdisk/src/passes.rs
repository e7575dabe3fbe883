//! The pass driver shared by every multi-pass external mergesort.
//!
//! The paper compares SRM with DSM (§9) as the *same* outer algorithm —
//! one formation pass, then `⌈log_R(runs)⌉` merge passes over the whole
//! file — differing only in the merge order `R` and in how one group of
//! runs is merged.  That outer loop, with its safety-critical ordering,
//! lives here once, next to the store it journals to
//! ([`crate::manifest`]), the flag that stops it ([`InterruptFlag`]) and
//! the clock that crashes it ([`CrashClock`]):
//!
//! ```text
//! resume rule ─► formation ─► ┌ observer ─► sync ─► journaled snapshot ┐
//!                             │      └──────── boundary p ─────────────┤
//!                             │ interrupt check ─► merge pass p+1 ─────┘
//!                             └► one run left: retire the manifest
//! ```
//!
//! An algorithm is a [`PassEngine`]: what `R` is, how runs are formed,
//! how one group is merged, and what its checkpoint payload says.
//! [`Checkpointing::drive`] owns everything else, and [`Sorter`] puts the
//! stage / run / output / resume-point lifecycle on top.

use crate::manifest::Manifest;
use crate::{
    CrashClock, DiskArray, Geometry, InterruptFlag, IoStats, PdiskError, Record, RedundancyInfo,
    StripedRun,
};
use std::path::Path;

/// Errors surfaced by a pass-driven sort — the one vocabulary the driver
/// and every engine share (`srm_core::SrmError` is an alias of it).
#[derive(Debug)]
#[non_exhaustive]
pub enum SortError {
    /// Underlying disk-model failure.
    Disk(PdiskError),
    /// A configuration cannot support the requested operation (e.g. more
    /// runs than the merge order, or memory too small for any merge).
    Config(String),
    /// A checkpoint manifest could not be read, written, or trusted
    /// (torn file, checksum mismatch, or written by an incompatible
    /// sorter/geometry).  See [`crate::manifest`].
    Checkpoint(String),
    /// An internal invariant failed — a bug, never an input problem (by
    /// Lemma 1 the SRM schedule can never deadlock).
    Internal(String),
    /// The sort stopped at a pass boundary because its [`InterruptFlag`]
    /// was triggered.  If a manifest path was given, the boundary's
    /// checkpoint was journaled *before* this was returned, so a rerun
    /// resumes byte-identically.
    Interrupted,
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::Disk(e) => write!(f, "disk error: {e}"),
            SortError::Config(msg) => write!(f, "configuration error: {msg}"),
            SortError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            SortError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            SortError::Interrupted => {
                write!(
                    f,
                    "sort interrupted at a pass boundary (checkpoint journaled)"
                )
            }
        }
    }
}

impl std::error::Error for SortError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SortError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PdiskError> for SortError {
    fn from(e: PdiskError) -> Self {
        SortError::Disk(e)
    }
}

/// Result alias for pass-driven sorts.
pub type Result<T> = std::result::Result<T, SortError>;

/// A handle to a run on the array, in whatever layout its engine uses.
pub trait Run: Clone {
    /// Records in the run.
    fn records(&self) -> u64;
}

impl Run for StripedRun {
    fn records(&self) -> u64 {
        self.records
    }
}

/// A sort between passes: the whole dataset as a set of sorted runs, plus
/// what a resume must check before trusting them.  It is what a
/// checkpoint payload is made from ([`PassEngine::checkpoint`]) and what
/// it gives back ([`PassEngine::restore`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Boundary<R> {
    /// Geometry the sort runs under.
    pub geometry: Geometry,
    /// Total records being sorted.
    pub records: u64,
    /// Runs produced by the formation pass (for the final report).
    pub runs_formed: u64,
    /// Completed merge passes (0 = formation finished, no merges yet).
    pub pass: u64,
    /// Redundancy state of the array at the boundary.
    pub redundancy: Option<RedundancyInfo>,
    /// The surviving runs, in merge-queue order.
    pub runs: Vec<R>,
}

/// The accounting every engine shares.  `merge_passes` and `runs_formed`
/// cover the *whole logical sort* (including passes done before a
/// resume); `io` covers only the work this call performed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassReport {
    /// Records sorted.
    pub records: u64,
    /// Merge order `R` used.
    pub merge_order: usize,
    /// Runs produced by the formation pass.
    pub runs_formed: usize,
    /// Merge passes over the file (excludes run formation).
    pub merge_passes: u64,
    /// Backend I/O delta for this call (formation + merges).
    pub io: IoStats,
}

impl std::fmt::Display for PassReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "merge order R={}, runs formed={}, merge passes={}",
            self.merge_order, self.runs_formed, self.merge_passes
        )
    }
}

/// One external mergesort algorithm, as the pieces
/// [`Checkpointing::drive`] cannot know.
///
/// The contract, stated as what is durable and what has been observed
/// before each call (the engine may rely on it; the driver enforces it):
///
/// * `merge_order` is called first, before any I/O, and validates the
///   engine's own configuration against the geometry.  It returns
///   `R ≥ 2`.
/// * Exactly one of `form` / `restore` is called next, once.  `form`
///   runs when no loadable checkpoint exists: nothing of this sort is
///   durable, the input is staged, and the array's allocators may sit
///   anywhere past it.  `restore` runs when the newest valid generation
///   of the manifest was loaded: every run it names was made durable
///   (`sync`) *before* that generation was published, its boundary was
///   already observed by the call that completed it, and anything an
///   interrupted later pass wrote is abandoned garbage the engine must
///   neither read nor reuse.  `restore` must refuse (`Checkpoint`) a
///   payload written under a configuration, geometry or record count
///   that would make the remaining passes produce different output, and
///   must leave the per-sort state exactly where an uninterrupted sort
///   would have it at that boundary — byte-identical resume is the
///   contract, not merely sorted output.
/// * `merge_group` is called with 2..=R runs of the current pass, groups
///   in queue order, passes in order.  Its inputs were produced by `form`
///   or by earlier `merge_group` calls of this process, or restored; the
///   runs of the *previous* boundary are durable, this pass's outputs are
///   not until the next boundary.  No ticket of its own may be left in
///   flight when it returns or fails (what cannot complete is
///   abandoned).  A lone leftover run is advanced by the driver at no I/O
///   cost and never passed in.
/// * `checkpoint` is called at a boundary *after* the observer ran and
///   the array was `sync`ed, and must only *describe* the state — no
///   I/O, no mutation: the driver stamps the generation and journals it.
///
/// Between calls the observer may have mutated the array (a disk may
/// have died; reads may now be reconstructions), so an engine holds no
/// array-derived state across calls other than run handles.
pub trait PassEngine {
    /// Handle to one sorted (or, for the input, unsorted) run.
    type Run: Run;
    /// The checkpoint payload kept in the journaled store.
    type Manifest: Manifest;
    /// Per-sort state threaded through the merge passes (placement RNG,
    /// scheduling counters); born from `form` or `restore`.
    type State;

    /// Validate the configuration for `geometry` and return the merge
    /// order `R ≥ 2`.
    fn merge_order(&self, geometry: Geometry) -> Result<usize>;

    /// The formation pass: turn the staged input into sorted runs.
    fn form<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &Self::Run,
    ) -> Result<(Vec<Self::Run>, Self::State)>;

    /// Merge one group of 2..=R runs into one.
    fn merge_group<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        group: &[Self::Run],
        state: &mut Self::State,
    ) -> Result<Self::Run>;

    /// Describe the sort at a boundary as this engine's payload.
    fn checkpoint(&self, state: &Self::State, at: Boundary<Self::Run>) -> Self::Manifest;

    /// Validate a loaded payload against this engine, `geometry` and the
    /// input's `records`, and rebuild the boundary and per-sort state.
    fn restore(
        &self,
        manifest: &Self::Manifest,
        geometry: Geometry,
        records: u64,
    ) -> Result<(Boundary<Self::Run>, Self::State)>;
}

/// The pass driver, as what it does at a boundary besides calling the
/// observer: where it journals, what stops it, and what numbers its crash
/// points.  [`Checkpointing::drive`] is the one pass loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checkpointing<'a> {
    /// Journal a snapshot here at every boundary, resume from it when it
    /// exists, and retire it on completion.  `None`: an unsnapshotted
    /// sort.
    pub manifest: Option<&'a Path>,
    /// Cooperative stop request, polled at every boundary *after* its
    /// snapshot is durable.
    pub interrupt: Option<&'a InterruptFlag>,
    /// Crash clock shared with a [`crate::CrashingDiskArray`] under the
    /// sort: every snapshot then gets its own numbered crash boundaries
    /// (`manifest-write`, `manifest-sync`, `manifest-written`).
    pub crash: Option<&'a CrashClock>,
}

impl Checkpointing<'_> {
    fn tick(&self, label: &'static str) -> Result<()> {
        match self.crash {
            Some(clock) => Ok(clock.tick(label)?),
            None => Ok(()),
        }
    }

    /// Journal the boundary `at` describes to `path`.
    fn snapshot<R: Record, A: DiskArray<R>, E: PassEngine>(
        &self,
        path: &Path,
        engine: &E,
        state: &E::State,
        array: &mut A,
        at: Boundary<E::Run>,
    ) -> Result<()> {
        // Durability barrier: every block the manifest is about to
        // reference must be on stable storage before the manifest
        // claims the pass completed — otherwise a crash could leave a
        // manifest pointing at frames that never landed.
        array.sync()?;
        self.tick("manifest-write")?;
        engine
            .checkpoint(state, at)
            .save_clocked(path, self.crash)?;
        self.tick("manifest-written")
    }

    /// `Err(Interrupted)` if a stop has been requested and merging work
    /// remains; called only after the boundary's snapshot (if any) is
    /// durable — `tests/checkpoint_resume.rs`'s `every_engine` contract
    /// tests fail if it moves.  With one run left there is no further
    /// boundary, so the sort simply completes.
    fn check_interrupt(&self, runs_left: usize) -> Result<()> {
        match self.interrupt {
            Some(flag) if flag.is_set() && runs_left > 1 => Err(SortError::Interrupted),
            _ => Ok(()),
        }
    }

    /// Sort `input` with `engine`: the one pass loop.
    ///
    /// `observer` is called at every pass boundary **completed by this
    /// call** — once after run formation (`pass` = 0) and once after each
    /// merge pass — each time *before* the boundary's snapshot is taken, and
    /// may mutate the array (the injection point for fault drills).  An
    /// observer error aborts the sort.  Boundaries completed before a resume
    /// are not replayed.  Returns the sorted run, the shared accounting, and
    /// the engine's per-sort state for whatever else it counts.
    pub fn drive<R: Record, A: DiskArray<R>, E: PassEngine>(
        &self,
        engine: &E,
        array: &mut A,
        input: &E::Run,
        mut observer: impl FnMut(u64, &mut A) -> Result<()>,
    ) -> Result<(E::Run, PassReport, E::State)> {
        let geometry = array.geometry();
        let records = input.records();
        if records == 0 {
            return Err(SortError::Config("cannot sort an empty input".into()));
        }
        let merge_order = engine.merge_order(geometry)?;
        if merge_order < 2 {
            return Err(SortError::Config(format!(
                "merge order {merge_order} cannot reduce the run count; at least 2 is required"
            )));
        }
        let io_before = array.stats();

        // Recovery rule: newest valid manifest generation wins; a torn
        // current manifest falls back to its journaled predecessor.
        let resume = match self.manifest {
            Some(path) => E::Manifest::load_latest(path)?,
            None => None,
        };
        // `completed_here`: the current boundary was reached by this call, so
        // it is still to be observed and journaled.  A resumed boundary was,
        // by the call that completed it; only its interrupt check remains.
        let mut completed_here = resume.is_none();
        let (mut queue, mut pass, runs_formed, mut state) = match &resume {
            Some(manifest) => {
                let (at, state) = engine.restore(manifest, geometry, records)?;
                manifest.validate_redundancy(array.redundancy().as_ref())?;
                (at.runs, at.pass, at.runs_formed, state)
            }
            None => {
                if let Some(sink) = array.trace_sink() {
                    // Run formation is pass 0; merge passes count from 1.
                    sink.begin_pass(0);
                }
                let (queue, state) = engine.form(array, input)?;
                let runs_formed = queue.len() as u64;
                (queue, 0, runs_formed, state)
            }
        };

        loop {
            if completed_here {
                observer(pass, array)?;
                // The last boundary leaves nothing to resume, so only
                // formation journals a single run.
                if let Some(path) = self.manifest.filter(|_| pass == 0 || queue.len() > 1) {
                    let at = Boundary {
                        geometry,
                        records,
                        runs_formed,
                        pass,
                        redundancy: array.redundancy(),
                        runs: queue.clone(),
                    };
                    self.snapshot(path, engine, &state, array, at)?;
                }
            }
            // Drain hook: the boundary's snapshot (or the resumed manifest
            // already on disk) is durable, so stopping here loses nothing and
            // a rerun resumes from exactly this pass.
            self.check_interrupt(queue.len())?;
            if queue.len() <= 1 {
                break;
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
                    _ => engine.merge_group(array, group, &mut state)?,
                });
            }
            queue = next;
            completed_here = true;
        }
        let sorted = queue
            .pop()
            .ok_or_else(|| SortError::Internal("merge queue drained to empty".into()))?;
        debug_assert_eq!(sorted.records(), records);
        if let Some(path) = self.manifest {
            E::Manifest::remove(path)?;
        }
        let report = PassReport {
            records,
            merge_order,
            runs_formed: runs_formed as usize,
            merge_passes: pass,
            io: array.stats().since(&io_before),
        };
        Ok((sorted, report, state))
    }
}

/// The uniform lifecycle of one sort over any [`DiskArray`], for the
/// drivers of *sorts* — the CLI, the job server, the crash matrix: `stage`
/// lays unsorted records out in the engine's input format, `run` sorts (or
/// resumes), `output` reads the sorted records back, and `resume_point`
/// says beforehand where `run` would pick up.  An engine supplies its
/// layouts and what it adds to the driver's regime and accounting; `run`
/// *is* [`Checkpointing::drive`], so no sorter has a pass loop of its own.
pub trait Sorter: PassEngine + Sized {
    /// The engine's full accounting; its `Display` is the one-line
    /// summary drivers print.
    type Report: std::fmt::Display;

    /// Stage `data` as this engine's unsorted input layout.
    fn stage<R: Record, A: DiskArray<R>>(&self, array: &mut A, data: &[R]) -> Result<Self::Run>;

    /// Read a run's records back in order.
    fn output<R: Record, A: DiskArray<R>>(&self, array: &mut A, run: &Self::Run) -> Result<Vec<R>>;

    /// The sorter's interrupt flag and crash clock around `manifest`.
    fn checkpointing<'a>(&'a self, manifest: Option<&'a Path>) -> Checkpointing<'a>;

    /// The engine's report from the driver's accounting and whatever its
    /// per-sort state counted.
    fn report(&self, passes: PassReport, state: Self::State) -> Self::Report;

    /// Sort the staged input, or resume from `manifest` when it holds a
    /// checkpoint; `observer` as for [`Checkpointing::drive`].  Returns
    /// [`SortError::Interrupted`] when the sorter's flag stopped it at a
    /// boundary — the manifest is journaled first, so calling `run` again
    /// continues byte-identically.
    fn run<R: Record, A: DiskArray<R>>(
        &self,
        array: &mut A,
        input: &Self::Run,
        manifest: Option<&Path>,
        observer: impl FnMut(u64, &mut A) -> Result<()>,
    ) -> Result<(Self::Run, Self::Report)> {
        let (sorted, passes, state) = self
            .checkpointing(manifest)
            .drive(self, array, input, observer)?;
        Ok((sorted, self.report(passes, state)))
    }

    /// The boundary `run` would resume from for an input of `records` on
    /// `geometry`, or `None` when `manifest` holds no checkpoint (never
    /// started, or completed and retired) — asked *before* building the
    /// world a resume needs: reopen rather than truncate the disk files,
    /// re-mark the disks the boundary records dead.  An error means every
    /// generation is corrupt or the checkpoint belongs to a *different*
    /// sort: resuming it would misread every block address, and it would
    /// fail identically on every rerun.
    fn resume_point(
        &self,
        geometry: Geometry,
        records: u64,
        manifest: &Path,
    ) -> Result<Option<Boundary<Self::Run>>> {
        match Self::Manifest::load_latest(manifest)? {
            Some(m) => Ok(Some(self.restore(&m, geometry, records)?.0)),
            None => Ok(None),
        }
    }
}
