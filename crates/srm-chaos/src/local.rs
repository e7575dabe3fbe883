//! The local chaos target: a checkpointed `srm` sort behind the full
//! protection stack, driven through composed fault schedules with a
//! crash/repair/recover loop around it.
//!
//! The stack is `pdisk`'s production stack ([`pdisk::StackSpec`]) with
//! every layer on and the chaos layer in its slot:
//!
//! ```text
//! Tracing( Crashing( Retrying( Misclassify( Parity( Faulty( backend ))))))
//! ```
//!
//! The backend is [`crate::Backend::Mem`] or [`crate::Backend::File`]
//! and parity is [`crate::CampaignConfig::parity`]'s to switch off.
//!
//! `Misclassify` is normally the identity; with
//! [`crate::CampaignConfig::plant_bug`] it deliberately relabels
//! ENOSPC as transient — the retry-classification bug this harness
//! exists to catch, kept as a fixture so the campaign, minimizer, and
//! replay path are themselves regression-tested end to end.
//!
//! A trial is a loop of incarnations of the one durable sort,
//! [`srm_server::job::sort_durable`], in the trial's directory — the
//! sequence a server job and a distsort shard run: lease, manifest,
//! open-or-truncate (a fresh start stages the input), parity scrub,
//! sort, read-back, trace/stats check, publish.  Each incarnation builds
//! fresh layers over the surviving disks (exactly what a process restart
//! discards and keeps), re-marks sticky state (dead disks, full disks)
//! and arms at most one crash point.  Typed outcomes the schedule
//! explains (crash, interrupt, ENOSPC, sync failure, exhausted retries)
//! trigger the scripted repair for that fault and another incarnation;
//! a model-check failure or anything else is an oracle violation.  The
//! output must equal the failure-free result, and the trial directory
//! must be empty after cleanup.
//!
//! [`crash_matrix`] enumerates the one-event schedules
//! `[CrashAt { point: k }]` over the dry run's boundaries: the proof
//! that a crash at any I/O boundary recovers, behind `srm crash-matrix`.

use crate::schedule::{ChaosEvent, Envelope};
use crate::{Backend, CampaignConfig, ChaosError, TrialOutcome, Violation};
use pdisk::{
    Block, BlockAddr, BuiltStack, CrashClock, DiskArray, DiskId, FaultKind, FaultModel, FaultOp,
    InterruptFlag, Layer, ParitySpec, PdiskError, Record, RetryPolicy, ScriptedFault, StackSpec,
    U64Record,
};
use srm_server::job::{
    sort_durable, Cluster, DurableSort, FileCluster, JobError, MemCluster, DISKS, DONE, PARITY_STORE,
};
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

/// Fault-free dry run: the empty schedule's trial, whose one
/// incarnation measures the ordinal envelope for the generator.
pub fn dry_run(cfg: &CampaignConfig) -> Result<Envelope, ChaosError> {
    let dir = cfg.scratch.join("dry-run");
    let outcome = crate::run_trial(cfg, &[], &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome?;
    match outcome.violation {
        None => Ok(outcome.envelope),
        Some(v) => Err(ChaosError::Io(format!("dry run failed: {v}"))),
    }
}

/// Run one composed-fault trial in the fresh directory `dir`.  See the
/// module docs for the loop's shape; the returned outcome carries the
/// oracle verdict.
pub(crate) fn run_trial(
    cfg: &CampaignConfig,
    events: &[ChaosEvent],
    dir: &Path,
) -> Result<TrialOutcome, ChaosError> {
    match cfg.backend {
        // The same platters survive, as they do a power cut.
        Backend::Mem => run_trial_on(cfg, events, dir, MemCluster::default()),
        // The crashed array is dropped (its workers drain) and the
        // directory reopened: torn-frame detection runs there.
        Backend::File => run_trial_on(cfg, events, dir, FileCluster::default()),
    }
}

/// What survives one incarnation besides the disks: the repair state the
/// trial reads off the stack `cluster` hands back.
struct Survivor<C> {
    cluster: C,
    /// Disks the parity layer had marked dead.
    dead: Vec<DiskId>,
    /// Disks the fault model had filled.
    full: Vec<DiskId>,
    /// The fault layer's op counters.
    ops: (u64, u64, u64, u64),
    /// Incarnations that reopened their disks to resume a checkpoint.
    resumed: u32,
}

impl<C: Cluster> Cluster for Survivor<C> {
    type Disks = C::Disks;
    type Lease = C::Lease;

    fn lease(&mut self, dir: &Path) -> Result<C::Lease, JobError> {
        self.cluster.lease(dir)
    }

    fn disks(&mut self, lease: C::Lease, geom: pdisk::Geometry, fresh: bool) -> Result<C::Disks, JobError> {
        self.resumed += u32::from(!fresh);
        self.cluster.disks(lease, geom, fresh)
    }

    fn settle<X: Layer<U64Record>>(&mut self, stack: BuiltStack<U64Record, C::Disks, X>) {
        (self.full, self.ops) = stack
            .faulty()
            .map(|f| (f.model().full_disks().collect(), f.observed_ops()))
            .unwrap_or_default();
        self.dead = stack.redundancy().map(|r| r.dead).unwrap_or_default();
        self.cluster.settle(stack);
    }

    fn counters(disks: &C::Disks) -> Option<String> {
        C::counters(disks)
    }
}

/// [`run_trial`] on `cluster`: a loop of incarnations of the one durable
/// sort, with the repair the schedule prescribes between them.
fn run_trial_on<C: Cluster>(
    cfg: &CampaignConfig,
    events: &[ChaosEvent],
    dir: &Path,
    cluster: C,
) -> Result<TrialOutcome, ChaosError> {
    let spec = cfg.job_spec();
    let geom = spec.geometry().map_err(|e| ChaosError::Config(e.to_string()))?;
    let data = spec.input_records();
    let mut expected: Vec<u64> = data.iter().map(|r| r.0).collect();
    expected.sort_unstable();

    // Observer-driven events get one fired-flag each; crash points are
    // armed one per incarnation in schedule order.
    let mut kill_fired = vec![false; events.len()];
    let mut interrupt_fired = vec![false; events.len()];
    let mut crash_armed = vec![false; events.len()];

    let mut fired = Fired::default();
    let mut world = Survivor { cluster, dead: Vec::new(), full: Vec::new(), ops: (0, 0, 0, 0), resumed: 0 };
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
        let flag = InterruptFlag::new();
        let sorter = spec
            .srm_sorter()
            .with_crash_clock(clock.clone())
            .with_interrupt(flag.clone());
        let job = DurableSort {
            dir,
            geom,
            sorter: &sorter,
            records: &data,
            staged: true,
            stage_ms: 0,
            stack: StackSpec {
                faults: Some(model),
                parity: cfg.parity.then(|| ParitySpec { store: None, dead: world.dead.clone() }),
                // A generous budget so scripted transient storms are
                // absorbed, but finite so a misclassified permanent
                // condition exhausts visibly.
                retry: Some(RetryPolicy::new(6, Duration::from_millis(1))),
                crash: Some(clock.clone()),
                trace: true,
            },
            slot: Misclassifying { armed: cfg.plant_bug },
            cluster: &mut world,
            oracle: false,
        };
        // The last boundary's op counters are the sort's, its read-back
        // excluded: the envelope the generator draws ordinals inside.
        // Its crash points are the whole incarnation's, set on return.
        let mut envelope = Envelope::default();
        let sorted = sort_durable(job, |pass, a| {
            let ops = a.faulty().map(|f| f.observed_ops()).unwrap_or_default();
            envelope = Envelope {
                reads: ops.0,
                writes: ops.1,
                allocs: ops.2,
                syncs: ops.3,
                points: 0,
                passes: pass,
                disks: geom.d as u32,
            };
            for (i, ev) in events.iter().enumerate() {
                match ev {
                    ChaosEvent::KillDisk { disk, pass: at } if !kill_fired[i] && pass == *at => {
                        kill_fired[i] = true;
                        a.fail_disk(DiskId(*disk))?;
                    }
                    ChaosEvent::Interrupt { pass: at } if !interrupt_fired[i] && pass == *at => {
                        interrupt_fired[i] = true;
                        flag.trigger();
                    }
                    _ => {}
                }
            }
            Ok(())
        });
        outcome.resumed = world.resumed;

        // The verification read runs under the incarnation's clock and
        // fault model too (a crash point past a short, resumed sort's own
        // boundaries lands there), so its failures take the same repairs:
        // the process died verifying, and the rerun sorts again.
        let e = match sorted {
            Ok(sorted) => {
                outcome.envelope = Envelope { points: clock.points(), ..envelope };
                let keys: Vec<u64> = sorted.keys.iter().map(|r| r.0).collect();
                if keys != expected {
                    outcome.violation = Some(Violation::DigestMismatch {
                        got: srm_server::digest_keys(keys),
                        want: srm_server::digest_keys(expected),
                    });
                    return Ok(outcome);
                }
                outcome.violation = leaked_files(dir)?;
                return Ok(outcome);
            }
            Err(JobError::Model(v)) => {
                outcome.violation = Some(Violation::ModelViolation(v));
                return Ok(outcome);
            }
            Err(e) => e,
        };
        // Tear the incarnation down to what survives a restart.
        fired.absorb(world.ops);
        carry_full = match classify(&e) {
            Repair::Reboot | Repair::Resume => std::mem::take(&mut world.full),
            // The operator frees space: sticky full-disk state does not
            // carry into the next run.
            Repair::FreeSpace => Vec::new(),
            Repair::Unexpected => {
                outcome.violation = Some(Violation::UnexpectedError(e.to_string()));
                return Ok(outcome);
            }
        };
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
fn classify(e: &JobError) -> Repair {
    match e {
        JobError::Disk(PdiskError::Crashed { .. }) => Repair::Reboot,
        JobError::Interrupted => Repair::Resume,
        JobError::Disk(PdiskError::Fault {
            kind: FaultKind::NoSpace,
            ..
        }) => Repair::FreeSpace,
        JobError::Disk(PdiskError::Fault {
            op: FaultOp::Sync, ..
        }) => Repair::Resume,
        JobError::Disk(PdiskError::RetriesExhausted { .. }) => Repair::Resume,
        _ => Repair::Unexpected,
    }
}

/// The leak oracle: after removing the descriptor, the parity sidecar
/// and the disk directory, the trial directory must be empty — anything
/// left is a temp file, a journal the finished sort did not retire or a
/// stray generation some layer failed to clean up.
fn leaked_files(dir: &Path) -> Result<Option<Violation>, ChaosError> {
    for file in [DONE, PARITY_STORE] {
        let _ = std::fs::remove_file(dir.join(file));
    }
    let _ = std::fs::remove_dir_all(dir.join(DISKS));
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

/// One sweep of [`crash_matrix`].
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Boundaries the dry run numbered.
    pub points: u64,
    /// Crash points explored: every `every`-th of `0..points`.
    pub explored: u64,
    /// Explored points whose recovery resumed from a checkpoint.
    pub resumed: u64,
    /// Explored points that struck before the first durable checkpoint,
    /// so recovery sorted afresh from the staged input.
    pub fresh: u64,
}

/// Crash the configured sort at every `every`-th boundary the dry run
/// numbers, one `[CrashAt { point: k }]` trial each, and require every
/// trial to pass the oracle.  `progress(k, points)` is called before
/// each point; the first violation ends the sweep.  The trials run in
/// `cfg.scratch/crash-point`, which is removed on every exit.
pub fn crash_matrix(
    cfg: &CampaignConfig,
    every: usize,
    mut progress: impl FnMut(u64, u64),
) -> Result<MatrixReport, String> {
    let points = dry_run(cfg).map_err(|e| e.to_string())?.points;
    let mut report = MatrixReport { points, ..MatrixReport::default() };
    let dir = cfg.scratch.join("crash-point");
    let swept = (0..points).step_by(every).try_for_each(|k| {
        progress(k, points);
        let events = [ChaosEvent::CrashAt { point: k }];
        let outcome = crate::run_trial(cfg, &events, &dir).map_err(|e| e.to_string())?;
        if let Some(v) = outcome.violation {
            return Err(format!("crash point {k}: {v}"));
        }
        report.explored += 1;
        if outcome.resumed > 0 {
            report.resumed += 1;
        } else {
            report.fresh += 1;
        }
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&dir);
    swept.map(|()| report)
}
