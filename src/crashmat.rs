//! Deterministic crash-matrix harness: prove that a checkpointed SRM
//! sort recovers from a simulated process crash at **every** I/O
//! boundary.
//!
//! The harness is built on three pieces from the workspace:
//!
//! * [`pdisk::CrashClock`] / [`pdisk::CrashingDiskArray`] number every
//!   I/O boundary deterministically and can kill the stack at any one of
//!   them (including torn multi-disk writes where only a prefix of the
//!   stripe lands);
//! * `srm_core`'s journaled checkpoint manifests plus the `sync`
//!   durability barrier, which recovery resumes from;
//! * `modelcheck`, which replays the recovery's trace and rejects any
//!   read that falls inside a durability gap.
//!
//! One sweep ([`run_matrix`]) is: a dry run with a counting clock to
//! learn `N` (the boundary count) and the uninterrupted baseline output,
//! then for every `K` in `0..N` a fresh world is built, crashed at
//! boundary `K`, "rebooted" (the backend survives; every wrapper and all
//! volatile state is discarded), and recovered.  The sweep fails unless
//! every recovery reproduces the baseline record sequence exactly.
//!
//! Used by the `srm crash-matrix` CLI subcommand and the
//! `tests/crash_matrix.rs` integration suite.

use pdisk::{
    CrashClock, DiskArray, FileDiskArray, Geometry, MemDiskArray, ParitySpec, PdiskError, StackSpec,
    StripedRun, U64Record,
};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, SrmError, SrmSorter};
use srm_server::{EngineKind, JobSpec};
use std::path::{Path, PathBuf};

/// Which substrate plays the disks that survive the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-memory arrays: the same instance survives the reboot, exactly
    /// as platters survive a power cut.
    Mem,
    /// Real files: the crashed array is dropped (its workers drain) and
    /// the directory is reopened, exercising torn-frame detection.
    File,
}

/// One sweep's parameters.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Disk-array geometry of every run in the sweep.
    pub geom: Geometry,
    /// Sorter seed (placement RNG); fixed so the baseline and every
    /// recovery make identical placement draws.
    pub seed: u64,
    /// Overlap I/O with merging (the engine's pipelined window).
    pub pipeline: bool,
    /// Forecast read-ahead depth for the pipelined engine (0 = demand
    /// reads only) — the sweep must stay crash-clean at depth > 1,
    /// where speculative backend reads and the deeper write-behind
    /// window are live across every crash point.
    pub read_ahead: usize,
    /// Put rotating parity under the sort; the parity sidecar store
    /// persists across the crash like the disks do.
    pub parity: bool,
    /// Disk substrate.
    pub backend: Backend,
    /// Replay every recovery's trace through the model checker
    /// (including the read-inside-durability-gap invariant).
    pub check_recovery: bool,
    /// Scratch directory for manifests, parity stores, and disk files.
    pub scratch: PathBuf,
}

/// Outcome of a full sweep.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Boundaries numbered by the dry run (`N`); the sweep explored all
    /// of `0..N`.
    pub points: u64,
    /// Crash points whose recovery found a checkpoint manifest to resume
    /// from.
    pub resumed_from_checkpoint: u64,
    /// Crash points that struck before the first durable checkpoint;
    /// recovery re-sorted from the (still staged) input.
    pub fresh_restarts: u64,
}

/// The matrix's engine parameters as a server job spec — engine
/// construction goes through the same single entry point
/// ([`JobSpec::srm_sorter`]) as the CLI and the job server.
fn job_spec(cfg: &MatrixConfig) -> JobSpec {
    JobSpec {
        engine: EngineKind::Srm,
        seed: cfg.seed,
        d: cfg.geom.d,
        b: cfg.geom.b,
        m: cfg.geom.m,
        pipeline: cfg.pipeline,
        read_ahead: cfg.read_ahead,
        ..JobSpec::default()
    }
}

fn sorter(cfg: &MatrixConfig) -> SrmSorter {
    job_spec(cfg).srm_sorter()
}

/// `Ok(None)` when the sort died at the armed boundary; `Err` for any
/// real failure.
fn crash_or<T>(r: srm_core::Result<T>, k: u64) -> Result<Option<T>, String> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(SrmError::Disk(PdiskError::Crashed { .. })) => Ok(None),
        Err(e) => Err(format!("crash point {k}: unexpected failure: {e}")),
    }
}

fn read_keys<A: DiskArray<U64Record>>(array: &mut A, run: &StripedRun) -> Result<Vec<u64>, String> {
    Ok(read_run(array, run)
        .map_err(|e| format!("cannot read sorted output: {e}"))?
        .iter()
        .map(|r| r.0)
        .collect())
}

/// One crash-and-recover cycle (or, with a counting clock, the dry run)
/// on `backend`, whose `reboot` is what a power cut does to it.
///
/// Returns `(output_keys, resumed_from_checkpoint)`.  Volatile state —
/// every wrapper, the parity layer's in-memory masks, the crashed
/// process's tickets — is rebuilt from scratch at the reboot; only the
/// backend (and the parity sidecar / manifest files) survives.
fn run_world<A: DiskArray<U64Record>>(
    cfg: &MatrixConfig,
    data: &[U64Record],
    clock: CrashClock,
    k: u64,
    (manifest, pstore): (&Path, &Path),
    backend: A,
    reboot: impl FnOnce(A) -> Result<A, String>,
) -> Result<(Vec<u64>, bool), String> {
    // The world's stack, parity (masks and watermarks from its sidecar)
    // on or off by the config; its phases differ in the clock and the
    // trace.
    let stack = |backend: A, crash: Option<CrashClock>, trace: bool| {
        let parity = cfg.parity.then(|| ParitySpec {
            store: Some(pstore.to_path_buf()),
            ..ParitySpec::default()
        });
        StackSpec { parity, crash, trace, ..StackSpec::default() }
            .build(backend, ())
            .map_err(|e| e.to_string())
    };
    // Staging and the output read are off the clock, so the boundary
    // count `N` covers exactly the sort.
    let mut staging = stack(backend, None, false)?;
    let input = write_unsorted_input(&mut staging, data).map_err(|e| format!("staging failed: {e}"))?;
    let mut world = stack(staging.into_backend(), Some(clock.clone()), false)?;
    let s = sorter(cfg).with_crash_clock(clock);
    if let Some((run, _)) = crash_or(s.sort_checkpointed(&mut world, &input, manifest), k)? {
        let mut world = stack(world.into_backend(), None, false)?;
        return Ok((read_keys(&mut world, &run)?, false));
    }
    // The armed boundary fired.  Reboot, see whether a valid checkpoint
    // generation survived, and complete the sort on the rebooted world,
    // optionally model-checking the recovery's own trace.
    let backend = reboot(world.into_backend())?;
    let resumed = sorter(cfg)
        .resume_point(cfg.geom, data.len() as u64, manifest)
        .map(|at| at.is_some())
        .map_err(|e| format!("manifest unreadable after crash: {e}"))?;
    let mut world = stack(backend, None, cfg.check_recovery)?;
    let (run, _) = sorter(cfg)
        .sort_checkpointed(&mut world, &input, manifest)
        .map_err(|e| format!("crash point {k}: recovery failed: {e}"))?;
    let keys = read_keys(&mut world, &run)?;
    if cfg.check_recovery {
        modelcheck::check_trace(world.geometry(), &world.take_trace())
            .map_err(|v| format!("crash point {k}: recovery trace violates the model: {v}"))?;
    }
    Ok((keys, resumed))
}

/// [`run_world`] on the configured substrate, with a clean scratch
/// before and after.
fn run_point(
    cfg: &MatrixConfig,
    data: &[U64Record],
    clock: CrashClock,
    k: u64,
) -> Result<(Vec<u64>, bool), String> {
    let manifest = cfg.scratch.join(format!("point-{k}.manifest"));
    srm_core::SortManifest::remove(&manifest).map_err(|e| e.to_string())?;
    let pstore = cfg.scratch.join(format!("point-{k}.parity"));
    let _ = std::fs::remove_file(&pstore);
    let ddir = cfg.scratch.join(format!("point-{k}-disks"));
    let _ = std::fs::remove_dir_all(&ddir);

    let files = (manifest.as_path(), pstore.as_path());
    let result = match cfg.backend {
        // The same instance survives, exactly as platters do.
        Backend::Mem => run_world(cfg, data, clock, k, files, MemDiskArray::new(cfg.geom), Ok),
        Backend::File => {
            let fa = FileDiskArray::create(cfg.geom, &ddir).map_err(|e| e.to_string())?;
            run_world(cfg, data, clock, k, files, fa, |crashed| {
                // Drop the crashed array (its workers drain), then reopen
                // the directory — torn-frame detection runs here.
                drop(crashed);
                FileDiskArray::open(cfg.geom, &ddir).map_err(|e| e.to_string())
            })
        }
    }?;
    let _ = std::fs::remove_dir_all(&ddir);
    let _ = std::fs::remove_file(&pstore);
    srm_core::SortManifest::remove(&manifest).map_err(|e| e.to_string())?;
    Ok(result)
}

/// Dry run: number every boundary with a counting clock and capture the
/// uninterrupted baseline output.  Returns `(N, baseline_keys)`.
pub fn dry_run(cfg: &MatrixConfig, data: &[U64Record]) -> Result<(u64, Vec<u64>), String> {
    let clock = CrashClock::counting();
    let (keys, _) = run_point(cfg, data, clock.clone(), u64::MAX)?;
    Ok((clock.points(), keys))
}

/// Explore one crash point: crash at boundary `k`, reboot, recover.
/// Returns the recovered output keys and whether a checkpoint was found.
pub fn explore_point(
    cfg: &MatrixConfig,
    data: &[U64Record],
    k: u64,
) -> Result<(Vec<u64>, bool), String> {
    run_point(cfg, data, CrashClock::crash_at(k), k)
}

/// The exhaustive sweep: dry-run, then crash at every boundary `0..N`
/// and require byte-identical recovery.  `progress(k, n)` is called
/// before each point.
pub fn run_matrix(
    cfg: &MatrixConfig,
    data: &[U64Record],
    mut progress: impl FnMut(u64, u64),
) -> Result<MatrixReport, String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("cannot create scratch dir {}: {e}", cfg.scratch.display()))?;
    let (points, baseline) = dry_run(cfg, data)?;
    let mut report = MatrixReport {
        points,
        ..MatrixReport::default()
    };
    for k in 0..points {
        progress(k, points);
        let (keys, resumed) = explore_point(cfg, data, k)?;
        if keys != baseline {
            return Err(format!(
                "crash point {k}: recovered output diverges from the baseline \
                 ({} records recovered, {} expected)",
                keys.len(),
                baseline.len()
            ));
        }
        if resumed {
            report.resumed_from_checkpoint += 1;
        } else {
            report.fresh_restarts += 1;
        }
    }
    Ok(report)
}
