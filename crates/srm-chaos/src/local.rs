//! The local chaos target: a checkpointed `srm` sort behind the full
//! protection stack, driven through composed fault schedules with a
//! crash/repair/recover loop around it.
//!
//! The stack is `pdisk`'s production stack ([`pdisk::StackSpec`]) with
//! every layer on and the chaos layer in its slot:
//!
//! ```text
//! Tracing( Crashing( Retrying( Misclassify( Parity( Faulty( Mem ))))))
//! ```
//!
//! `Misclassify` is normally the identity; with
//! [`crate::CampaignConfig::plant_bug`] it deliberately relabels
//! ENOSPC as transient — the retry-classification bug this harness
//! exists to catch, kept as a fixture so the campaign, minimizer, and
//! replay path are themselves regression-tested end to end.
//!
//! A trial stages the input once, then loops incarnations: each builds
//! fresh wrappers over the surviving backend (exactly what a process
//! restart discards and keeps), re-marks sticky state (dead disks,
//! full disks), arms at most one crash point, re-runs
//! `sort_checkpointed` against the same manifest and reads the output
//! back through the same stack.  Typed outcomes the
//! schedule explains (crash, interrupt, ENOSPC, sync failure,
//! exhausted retries) trigger the scripted repair for that fault and
//! another incarnation; anything else is an oracle violation.  The
//! completing incarnation's trace goes through the model checker, the
//! output must equal the failure-free result, and the trial directory
//! must be empty after cleanup.

use crate::schedule::{ChaosEvent, Envelope};
use crate::{CampaignConfig, ChaosError, TrialOutcome, Violation};
use pdisk::{
    Block, BlockAddr, BuiltStack, CrashClock, DiskArray, DiskId, FaultKind, FaultModel, FaultOp,
    Geometry, InterruptFlag, Layer, Manifest as _, MemDiskArray, ParitySpec, PdiskError, Record,
    RetryPolicy, ScriptedFault, StackSpec, StripedRun, U64Record,
};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, SortManifest, SrmError};
use std::path::Path;
use std::time::Duration;

/// A layer that (when armed) misclassifies ENOSPC write/alloc failures
/// as transient before the retry layer sees them — the planted
/// retry-classification bug.  Disarmed it is a transparent pass-through,
/// so the one concrete stack type serves both modes.  Sync failures pass
/// unmapped either way: fsyncgate semantics must hold even with the bug
/// armed.
///
/// With the bug armed, a full disk turns into an infinite "transient"
/// that the retry layer dutifully spins on until its budget exhausts;
/// because the trial runner never learns the disk is full, it never
/// frees space, and recovery wedges — which the campaign's oracle
/// reports and the minimizer shrinks to the single `disk-full` event.
#[derive(Debug)]
pub struct Misclassifying {
    /// Whether the bug is planted.
    pub armed: bool,
}

impl Misclassifying {
    fn remap(&self, e: PdiskError) -> PdiskError {
        match e {
            PdiskError::Fault {
                kind: FaultKind::NoSpace,
                op,
                disk,
            } if self.armed && op != FaultOp::Sync => PdiskError::Fault {
                kind: FaultKind::Transient,
                op,
                disk,
            },
            other => other,
        }
    }
}

impl<R: Record> Layer<R> for Misclassifying {
    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> pdisk::Result<u64> {
        inner.alloc_contiguous(disk, count).map_err(|e| self.remap(e))
    }

    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> pdisk::Result<pdisk::WriteTicket> {
        inner.submit_write(writes).map_err(|e| self.remap(e))
    }

    fn complete_write(&mut self, inner: &mut impl DiskArray<R>, ticket: pdisk::WriteTicket) -> pdisk::Result<()> {
        inner.complete_write(ticket).map_err(|e| self.remap(e))
    }
}

type Stack = BuiltStack<U64Record, MemDiskArray<U64Record>, Misclassifying>;

fn perr(e: PdiskError) -> ChaosError {
    ChaosError::Io(format!("chaos world setup failed: {e}"))
}

fn build_stack(
    mem: MemDiskArray<U64Record>,
    model: FaultModel,
    clock: &CrashClock,
    plant: bool,
    pstore: &Path,
    dead: &[DiskId],
) -> Result<Stack, ChaosError> {
    StackSpec {
        faults: Some(model),
        parity: Some(ParitySpec {
            store: Some(pstore.to_path_buf()),
            dead: dead.to_vec(),
            hedge: None,
        }),
        // A generous budget so scripted transient storms are absorbed, but
        // finite so a misclassified permanent condition exhausts visibly.
        retry: Some(RetryPolicy::new(6, Duration::from_millis(1))),
        crash: Some(clock.clone()),
        trace: true,
    }
    .build(mem, Misclassifying { armed: plant })
    .map_err(perr)
}

struct Teardown {
    mem: MemDiskArray<U64Record>,
    dead: Vec<DiskId>,
    full: Vec<DiskId>,
    /// (reads, writes, allocs, syncs) the incarnation issued.
    ops: (u64, u64, u64, u64),
}

fn teardown(stack: Stack) -> Teardown {
    let (full, ops) = stack
        .faulty()
        .map(|f| (f.model().full_disks().collect(), f.observed_ops()))
        .unwrap_or_default();
    Teardown {
        dead: stack.redundancy().map(|r| r.dead).unwrap_or_default(),
        full,
        ops,
        mem: stack.into_backend(),
    }
}

/// Cumulative per-op issue counts across incarnations, used to decide
/// which scripted events have already fired.  `FaultModel::check`
/// consumes a scripted event exactly when the op counter passes its
/// ordinal, so "counter advanced past the ordinal" is precise.
#[derive(Default, Clone, Copy)]
struct Fired {
    reads: u64,
    writes: u64,
    allocs: u64,
    syncs: u64,
}

impl Fired {
    fn absorb(&mut self, ops: (u64, u64, u64, u64)) {
        // Ordinals are per-incarnation, so "fired" means *some*
        // incarnation's counter passed the ordinal; the high-water mark
        // over incarnations captures that.
        self.reads = self.reads.max(ops.0);
        self.writes = self.writes.max(ops.1);
        self.allocs = self.allocs.max(ops.2);
        self.syncs = self.syncs.max(ops.3);
    }

    fn covers(&self, ev: &ChaosEvent) -> bool {
        match ev {
            ChaosEvent::Transient { op, ordinal } => match op {
                FaultOp::Read => *ordinal < self.reads,
                FaultOp::Write => *ordinal < self.writes,
                FaultOp::Alloc => *ordinal < self.allocs,
                FaultOp::Sync => *ordinal < self.syncs,
            },
            ChaosEvent::CorruptRead { ordinal } => *ordinal < self.reads,
            ChaosEvent::DiskFull { ordinal } => *ordinal < self.writes,
            ChaosEvent::SyncFail { ordinal } => *ordinal < self.syncs,
            _ => false,
        }
    }
}

/// Build the fault model for one incarnation: every scripted event
/// from the schedule that has not yet fired, re-based on the fresh
/// incarnation's op counters.
fn incarnation_model(events: &[ChaosEvent], fired: &Fired) -> FaultModel {
    let mut model = FaultModel::none();
    for ev in events {
        if fired.covers(ev) {
            continue;
        }
        model = match ev {
            // A transient sync is exactly SyncFail, and the generator
            // never draws FaultOp::Sync here; skip it if an artifact does.
            ChaosEvent::Transient {
                op: FaultOp::Sync, ..
            } => continue,
            ChaosEvent::Transient { op, ordinal } => model.with_scripted(ScriptedFault {
                op: *op,
                ordinal: *ordinal,
                kind: FaultKind::Transient,
            }),
            ChaosEvent::CorruptRead { ordinal } => model.corrupt_at(*ordinal),
            ChaosEvent::DiskFull { ordinal } => model.fill_at(FaultOp::Write, *ordinal),
            ChaosEvent::SyncFail { ordinal } => model.fail_sync_at(*ordinal),
            _ => model,
        };
    }
    model
}

/// Fault-free dry run: learn the ordinal envelope for the generator.
pub fn dry_run(cfg: &CampaignConfig) -> Result<Envelope, ChaosError> {
    let dir = cfg.scratch.join("dry-run");
    std::fs::create_dir_all(&dir)
        .map_err(|e| ChaosError::Io(format!("create {}: {e}", dir.display())))?;
    let result = dry_run_in(cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn dry_run_in(cfg: &CampaignConfig, dir: &Path) -> Result<Envelope, ChaosError> {
    let spec = cfg.job_spec();
    let geom = spec
        .geometry()
        .map_err(|e| ChaosError::Config(e.to_string()))?;
    let data = spec.input_records();
    let pstore = dir.join("parity");
    let manifest = dir.join("manifest");

    let (mem, input) = stage(geom, &data, &pstore)?;
    let clock = CrashClock::counting();
    let mut stack = build_stack(mem, FaultModel::none(), &clock, false, &pstore, &[])?;
    let sorter = spec.srm_sorter().with_crash_clock(clock.clone());
    let (_, report) = sorter
        .sort_checkpointed(&mut stack, &input, &manifest)
        .map_err(|e| ChaosError::Io(format!("dry run failed: {e}")))?;
    let t = teardown(stack);
    Ok(Envelope {
        reads: t.ops.0,
        writes: t.ops.1,
        allocs: t.ops.2,
        syncs: t.ops.3,
        points: clock.points(),
        passes: report.merge_passes,
        disks: geom.d as u32,
    })
}

/// Stage the unsorted input through the parity layer (so the sidecar
/// covers it) and hand back the bare backend plus the input's run
/// descriptor.  The staging wrappers are throwaways: fault ordinals
/// count from the start of each *sort* incarnation, not from staging.
fn stage(
    geom: Geometry,
    data: &[U64Record],
    pstore: &Path,
) -> Result<(MemDiskArray<U64Record>, StripedRun), ChaosError> {
    let spec = StackSpec {
        parity: Some(ParitySpec {
            store: Some(pstore.to_path_buf()),
            ..ParitySpec::default()
        }),
        ..StackSpec::default()
    };
    let mut pa = spec.build(MemDiskArray::new(geom), ()).map_err(perr)?;
    let input = write_unsorted_input(&mut pa, data)
        .map_err(|e| ChaosError::Io(format!("staging input failed: {e}")))?;
    Ok((pa.into_backend(), input))
}

/// Run one composed-fault trial.  See the module docs for the loop's
/// shape; the returned outcome carries the oracle verdict.
pub fn run_trial(
    cfg: &CampaignConfig,
    events: &[ChaosEvent],
    dir: &Path,
) -> Result<TrialOutcome, ChaosError> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| ChaosError::Io(format!("create {}: {e}", dir.display())))?;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_trial_in(cfg, events, dir)));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Ok(TrialOutcome {
                violation: Some(Violation::Panicked(msg)),
                ..TrialOutcome::default()
            })
        }
    }
}

fn run_trial_in(
    cfg: &CampaignConfig,
    events: &[ChaosEvent],
    dir: &Path,
) -> Result<TrialOutcome, ChaosError> {
    let spec = cfg.job_spec();
    let geom = spec
        .geometry()
        .map_err(|e| ChaosError::Config(e.to_string()))?;
    let data = spec.input_records();
    let mut expected: Vec<u64> = data.iter().map(|r| r.0).collect();
    expected.sort_unstable();
    let pstore = dir.join("parity");
    let manifest = dir.join("manifest");

    // Observer-driven events get one fired-flag each; crash points are
    // armed one per incarnation in schedule order.
    let mut kill_fired = vec![false; events.len()];
    let mut interrupt_fired = vec![false; events.len()];
    let mut crash_armed = vec![false; events.len()];

    let mut fired = Fired::default();
    let (staged, input) = stage(geom, &data, &pstore)?;
    let mut mem = Some(staged);
    let mut dead: Vec<DiskId> = Vec::new();
    let mut carry_full: Vec<DiskId> = Vec::new();
    let mut outcome = TrialOutcome::default();
    // Every scheduled event fires (or is repaired) at most once, so a
    // healthy trial needs at most one incarnation per event plus the
    // completing one; the slack absorbs compounded repairs.
    let max_attempts = events.len() as u32 + 5;

    loop {
        outcome.attempts += 1;
        if outcome.attempts > max_attempts {
            outcome.violation = Some(Violation::Wedged {
                attempts: outcome.attempts - 1,
            });
            return Ok(outcome);
        }

        let mut model = incarnation_model(events, &fired);
        for d in &carry_full {
            model.fill_disk(*d);
        }
        let clock = match events.iter().enumerate().find_map(|(i, e)| match e {
            ChaosEvent::CrashAt { point } if !crash_armed[i] => Some((i, *point)),
            _ => None,
        }) {
            Some((i, point)) => {
                crash_armed[i] = true;
                CrashClock::crash_at(point)
            }
            None => CrashClock::counting(),
        };

        let backend = mem.take().expect("backend always restored between incarnations");
        let mut stack = build_stack(backend, model, &clock, cfg.plant_bug, &pstore, &dead)?;
        if SortManifest::load_latest(&manifest)
            .map_err(|e| ChaosError::Io(format!("manifest unreadable: {e}")))?
            .is_some()
        {
            outcome.resumed += 1;
        }

        let flag = InterruptFlag::new();
        let sorter = spec
            .srm_sorter()
            .with_crash_clock(clock.clone())
            .with_interrupt(flag.clone());
        let sorted = {
            let flag = &flag;
            let kill_fired = &mut kill_fired;
            let interrupt_fired = &mut interrupt_fired;
            sorter.sort_observed(&mut stack, &input, Some(&manifest), move |pass, a| {
                for (i, ev) in events.iter().enumerate() {
                    match ev {
                        ChaosEvent::KillDisk { disk, pass: at } if !kill_fired[i] && pass == *at => {
                            kill_fired[i] = true;
                            a.fail_disk(DiskId(*disk))?;
                        }
                        ChaosEvent::Interrupt { pass: at }
                            if !interrupt_fired[i] && pass == *at =>
                        {
                            interrupt_fired[i] = true;
                            flag.trigger();
                        }
                        _ => {}
                    }
                }
                Ok(())
            })
        };
        // The verification read runs under the incarnation's clock and
        // fault model too (a crash point past a short, resumed sort's
        // own boundaries lands here), so its failures take the same
        // repairs: the process died verifying, and the rerun sorts again.
        let result = sorted.and_then(|(run, _report)| Ok(read_run(&mut stack, &run)?));

        match result {
            Ok(records) => {
                let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
                let trace = stack.take_trace();
                if let Err(v) = modelcheck::check_trace(geom, &trace) {
                    outcome.violation = Some(Violation::ModelViolation(v.to_string()));
                    return Ok(outcome);
                }
                if keys != expected {
                    outcome.violation = Some(Violation::DigestMismatch {
                        got: srm_server::digest_keys(keys),
                        want: srm_server::digest_keys(expected),
                    });
                    return Ok(outcome);
                }
                drop(stack);
                outcome.violation = leaked_files(dir, &manifest, &pstore)?;
                return Ok(outcome);
            }
            Err(e) => {
                let t = teardown(stack);
                mem = Some(t.mem);
                dead = t.dead;
                fired.absorb(t.ops);
                match classify(&e) {
                    Repair::Reboot => {
                        carry_full = t.full;
                    }
                    Repair::FreeSpace => {
                        // The operator frees space: sticky full-disk
                        // state does not carry into the next run.
                        carry_full = Vec::new();
                    }
                    Repair::Resume => {
                        carry_full = t.full;
                    }
                    Repair::Unexpected => {
                        outcome.violation = Some(Violation::UnexpectedError(e.to_string()));
                        return Ok(outcome);
                    }
                }
            }
        }
    }
}

enum Repair {
    /// Process death at an armed boundary; rebuild and recover.
    Reboot,
    /// ENOSPC surfaced with its true type; free space, then rerun.
    FreeSpace,
    /// A typed, expected stop (interrupt, failed sync, exhausted
    /// retries); rerun without any state repair.
    Resume,
    /// Nothing in the schedule explains this error.
    Unexpected,
}

/// Map a sort failure to the scripted repair the schedule prescribes.
/// This classifier is deliberately strict: only outcomes the injected
/// events are *specified* to produce are expected, so any drift in the
/// error taxonomy (e.g. ENOSPC surfacing as a retry storm) turns into
/// an oracle violation instead of being absorbed.
fn classify(e: &SrmError) -> Repair {
    match e {
        SrmError::Disk(PdiskError::Crashed { .. }) => Repair::Reboot,
        SrmError::Interrupted => Repair::Resume,
        SrmError::Disk(PdiskError::Fault {
            kind: FaultKind::NoSpace,
            ..
        }) => Repair::FreeSpace,
        SrmError::Disk(PdiskError::Fault {
            op: FaultOp::Sync, ..
        }) => Repair::Resume,
        SrmError::Disk(PdiskError::RetriesExhausted { .. }) => Repair::Resume,
        _ => Repair::Unexpected,
    }
}

/// The leak oracle: after removing the journal and the parity sidecar,
/// the trial directory must be empty — anything left is a temp file or
/// stray generation some layer failed to clean up.
fn leaked_files(
    dir: &Path,
    manifest: &Path,
    pstore: &Path,
) -> Result<Option<Violation>, ChaosError> {
    SortManifest::remove(manifest)
        .map_err(|e| ChaosError::Io(format!("manifest cleanup failed: {e}")))?;
    let _ = std::fs::remove_file(pstore);
    let mut leaked = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| ChaosError::Io(format!("read {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| ChaosError::Io(e.to_string()))?;
        leaked.push(entry.file_name().to_string_lossy().into_owned());
    }
    if leaked.is_empty() {
        Ok(None)
    } else {
        leaked.sort();
        Ok(Some(Violation::LeakedFiles(leaked.join(", "))))
    }
}
