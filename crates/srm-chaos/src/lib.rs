//! Chaos campaign engine for the SRM stack.
//!
//! Property-based crash testing found each fault class in isolation;
//! this crate hunts the bugs that only *composed* faults expose.  One
//! campaign is a seeded sequence of trials.  Each trial:
//!
//! 1. draws a small randomized fault schedule ([`schedule`]) composing
//!    the workspace's injectors — transient/permanent/corruption disk
//!    faults, crash points, network drop/dup/delay/partition, node and
//!    server kills, interrupts, and the disk-full (`ENOSPC`) and
//!    fsync-failure kinds this crate added to the taxonomy;
//! 2. executes it against one of three targets: a local checkpointed
//!    sort ([`local`]), the distributed sort ([`dist`]), or an
//!    out-of-process `srm serve` with `kill -9` restarts ([`server`]);
//! 3. checks a standing oracle: output identical to the failure-free
//!    run, model-checker-clean trace, no panic, no unexpected error,
//!    no wedged recovery loop, no leaked temp or journal files.
//!
//! On a violation, a delta-debugging minimizer ([`minimize`]) shrinks
//! the schedule to a minimal failing subset and a deterministic replay
//! artifact ([`repro`], `chaos-repro-*.json`) is written; `srm chaos
//! --replay FILE` re-executes it exactly.
//!
//! The campaign itself is deterministic: `(target, seed, trial)` fixes
//! the schedule, every injector draws from seeded streams, and the
//! oracle compares against values derived from the job spec — so a
//! violation found on one machine replays on another.

pub mod dist;
pub mod local;
pub mod minimize;
pub mod repro;
pub mod schedule;
pub mod server;

pub use repro::ReproArtifact;
pub use schedule::{ChaosEvent, Envelope};

use srm_server::{EngineKind, JobSpec};
use std::path::PathBuf;

/// Which system a trial drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// In-process checkpointed `srm` sort behind the full protection
    /// stack (tracing / crash / retry / parity / fault injection).
    Local,
    /// In-process `srm-dist` distributed sort: sharded clusters, the
    /// faultable transport, failure detection and respawn.
    Dist,
    /// Out-of-process `srm serve` driven over its line protocol, with
    /// real `kill -9` and restart-on-the-same-store.
    Server,
}

impl Target {
    /// Stable slug for artifacts and CLI flags.
    pub fn slug(&self) -> &'static str {
        match self {
            Target::Local => "local",
            Target::Dist => "distsort",
            Target::Server => "server",
        }
    }

    /// Parse a CLI/artifact slug.
    pub fn from_slug(s: &str) -> Option<Target> {
        match s {
            "local" => Some(Target::Local),
            "distsort" | "dist" => Some(Target::Dist),
            "server" => Some(Target::Server),
            _ => None,
        }
    }
}

/// A broken standing invariant — what a trial is hunting.
///
/// The discriminant (not the payload) identifies a failure mode: the
/// minimizer shrinks a schedule as long as the subset still produces a
/// violation with the same [`Violation::code`], whose match (like
/// `fmt`'s) denies clippy's wildcard-arm lints.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Output differs from the failure-free run.
    DigestMismatch { got: u64, want: u64 },
    /// The model checker rejected the recovery's I/O trace.
    ModelViolation(String),
    /// An error the schedule cannot explain (anything other than the
    /// typed crash / interrupt / no-space / sync-failure outcomes the
    /// injected events are specified to produce).
    UnexpectedError(String),
    /// Recovery made no progress: the trial was still failing after
    /// every scheduled fault had either fired or been repaired.
    Wedged { attempts: u32 },
    /// Temp or journal files survived a completed trial.
    LeakedFiles(String),
    /// The target panicked.
    Panicked(String),
}

impl Violation {
    /// Stable slug identifying the failure mode.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn code(&self) -> &'static str {
        match self {
            Violation::DigestMismatch { .. } => "digest-mismatch",
            Violation::ModelViolation(_) => "model-violation",
            Violation::UnexpectedError(_) => "unexpected-error",
            Violation::Wedged { .. } => "wedged",
            Violation::LeakedFiles(_) => "leaked-files",
            Violation::Panicked(_) => "panic",
        }
    }
}

impl std::fmt::Display for Violation {
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DigestMismatch { got, want } => {
                write!(f, "digest mismatch: got {got:#x}, want {want:#x}")
            }
            Violation::ModelViolation(m) => write!(f, "model violation: {m}"),
            Violation::UnexpectedError(m) => write!(f, "unexpected error: {m}"),
            Violation::Wedged { attempts } => {
                write!(f, "wedged: no progress after {attempts} recovery attempts")
            }
            Violation::LeakedFiles(names) => write!(f, "leaked files after cleanup: {names}"),
            Violation::Panicked(m) => write!(f, "panicked: {m}"),
        }
    }
}

/// Campaign-engine failure — infrastructure problems, not oracle
/// violations (those are data, carried in [`TrialOutcome`]).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChaosError {
    /// Filesystem or process-spawning failure in the harness itself.
    Io(String),
    /// A reproducer artifact could not be parsed.
    Parse(String),
    /// A parsed artifact is structurally valid but unusable (wrong
    /// version, unknown target, missing server binary, ...).
    BadArtifact(String),
    /// The campaign configuration is unusable.
    Config(String),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Io(m) => write!(f, "chaos harness I/O error: {m}"),
            ChaosError::Parse(m) => write!(f, "cannot parse reproducer artifact: {m}"),
            ChaosError::BadArtifact(m) => write!(f, "unusable reproducer artifact: {m}"),
            ChaosError::Config(m) => write!(f, "chaos config error: {m}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// One trial's verdict.
#[derive(Debug, Clone, Default)]
pub struct TrialOutcome {
    /// The broken invariant, if any.
    pub violation: Option<Violation>,
    /// Incarnations the target ran (1 = no recovery needed).
    pub attempts: u32,
    /// Incarnations that resumed from a checkpoint manifest.
    pub resumed: u32,
}

/// One campaign's parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Target system.
    pub target: Target,
    /// Campaign seed: fixes every trial's schedule.
    pub seed: u64,
    /// Trials to run.
    pub trials: u32,
    /// Records per sort.
    pub records: u64,
    /// Disks (local) per machine.
    pub d: usize,
    /// Block size, records.
    pub b: usize,
    /// Memory, records.
    pub m: usize,
    /// Overlap I/O with merging (the engine's pipelined window).
    pub pipeline: bool,
    /// Forecast read-ahead depth (pipelined window only).
    pub read_ahead: usize,
    /// Sorter placement seed (distinct from the campaign seed so the
    /// same schedule can be replayed against a different placement).
    pub sort_seed: u64,
    /// Shards for the dist target.
    pub shards: u32,
    /// Arm the deliberately-planted retry-classification bug (the
    /// minimizer's regression fixture): the local stack misclassifies
    /// ENOSPC as transient, so the retry layer spins on a full disk
    /// and recovery wedges.
    pub plant_bug: bool,
    /// Scratch directory for trial worlds and reproducer artifacts.
    pub scratch: PathBuf,
    /// `srm` binary for the server target (`None` elsewhere).
    pub server_bin: Option<PathBuf>,
    /// Jobs per server trial.
    pub server_jobs: u32,
    /// Shrink failing schedules with the delta-debugging minimizer.
    pub minimize: bool,
}

impl CampaignConfig {
    /// Small-world defaults: a sort big enough to take several merge
    /// passes and checkpoints, small enough that a 50-trial campaign
    /// finishes in CI time.
    pub fn new(target: Target, seed: u64, scratch: impl Into<PathBuf>) -> Self {
        CampaignConfig {
            target,
            seed,
            trials: 20,
            records: 6_000,
            d: 4,
            b: 16,
            m: 512,
            pipeline: false,
            read_ahead: 0,
            sort_seed: 0xC4A0_5EED,
            shards: 3,
            plant_bug: false,
            scratch: scratch.into(),
            server_bin: None,
            server_jobs: 3,
            minimize: true,
        }
    }

    /// The engine parameters as a server job spec — the same single
    /// construction point the CLI, server, and dist stack use.
    pub fn job_spec(&self) -> JobSpec {
        JobSpec {
            engine: EngineKind::Srm,
            records: self.records,
            seed: self.sort_seed,
            d: self.d,
            b: self.b,
            m: self.m,
            pipeline: self.pipeline,
            read_ahead: self.read_ahead,
            ..JobSpec::default()
        }
    }
}

/// One violating trial in a campaign report.
#[derive(Debug, Clone)]
pub struct ViolationRecord {
    /// Trial index within the campaign.
    pub trial: u32,
    /// The broken invariant.
    pub violation: Violation,
    /// Events in the generated schedule.
    pub events_total: usize,
    /// Events after minimization (== `events_total` when minimization
    /// is off or the schedule was already minimal).
    pub events_min: usize,
    /// The minimized failing schedule.
    pub schedule: Vec<ChaosEvent>,
    /// Replay artifact path, when one was written.
    pub artifact: Option<PathBuf>,
}

/// A whole campaign's outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Trials executed.
    pub trials: u32,
    /// Total incarnations across all trials.
    pub attempts: u64,
    /// Incarnations that resumed from a checkpoint.
    pub resumed: u64,
    /// Every oracle violation, in trial order.
    pub violations: Vec<ViolationRecord>,
}

/// Execute one schedule against the configured target.  This is the
/// single entry point the campaign loop, the minimizer, and `--replay`
/// all share — which is what makes a reproducer authoritative.
pub fn run_trial(
    cfg: &CampaignConfig,
    events: &[ChaosEvent],
    trial_dir: &std::path::Path,
) -> Result<TrialOutcome, ChaosError> {
    match cfg.target {
        Target::Local => local::run_trial(cfg, events, trial_dir),
        Target::Dist => dist::run_trial(cfg, events, trial_dir),
        Target::Server => server::run_trial(cfg, events, trial_dir),
    }
}

/// Run a full campaign: generate, execute, and (on violation) minimize
/// and persist a reproducer per failing trial.  `progress(trial,
/// trials)` is called before each trial.
pub fn run_campaign(
    cfg: &CampaignConfig,
    mut progress: impl FnMut(u32, u32),
) -> Result<CampaignReport, ChaosError> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| ChaosError::Io(format!("create scratch {}: {e}", cfg.scratch.display())))?;
    let env = envelope_for(cfg)?;
    let mut report = CampaignReport::default();
    for trial in 0..cfg.trials {
        progress(trial, cfg.trials);
        let events = schedule::generate(cfg.target, cfg.seed, trial, &env);
        let dir = cfg.scratch.join(format!("trial-{trial}"));
        let outcome = run_trial(cfg, &events, &dir)?;
        report.trials += 1;
        report.attempts += u64::from(outcome.attempts);
        report.resumed += u64::from(outcome.resumed);
        let Some(violation) = outcome.violation else {
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        };
        let minimized = if cfg.minimize {
            minimize::ddmin(&events, &violation, |subset| {
                let mdir = cfg.scratch.join(format!("trial-{trial}-min"));
                let out = run_trial(cfg, subset, &mdir);
                let _ = std::fs::remove_dir_all(&mdir);
                match out {
                    Ok(o) => o.violation.is_some_and(|v| v.code() == violation.code()),
                    Err(_) => false,
                }
            })
        } else {
            events.clone()
        };
        let artifact = ReproArtifact::from_campaign(cfg, trial, &violation, &minimized);
        let path = cfg.scratch.join(format!("chaos-repro-{trial}.json"));
        std::fs::write(&path, artifact.encode())
            .map_err(|e| ChaosError::Io(format!("write {}: {e}", path.display())))?;
        report.violations.push(ViolationRecord {
            trial,
            violation,
            events_total: events.len(),
            events_min: minimized.len(),
            schedule: minimized,
            artifact: Some(path),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(report)
}

/// Replay a reproducer artifact exactly: rebuild the trial config it
/// records and execute its event list once.
pub fn replay(
    artifact: &ReproArtifact,
    scratch: &std::path::Path,
    server_bin: Option<PathBuf>,
) -> Result<TrialOutcome, ChaosError> {
    let cfg = artifact.campaign_config(scratch, server_bin)?;
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| ChaosError::Io(format!("create scratch {}: {e}", cfg.scratch.display())))?;
    let dir = cfg.scratch.join(format!("replay-{}", artifact.trial));
    let outcome = run_trial(&cfg, &artifact.events, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Learn the ordinal envelope for schedule generation.  The local
/// target measures it with a fault-free dry run; the other targets
/// only need coarse bounds.
fn envelope_for(cfg: &CampaignConfig) -> Result<Envelope, ChaosError> {
    match cfg.target {
        Target::Local => local::dry_run(cfg),
        Target::Dist => Ok(Envelope {
            passes: 2,
            disks: cfg.shards,
            ..Envelope::default()
        }),
        Target::Server => Ok(Envelope::default()),
    }
}
