//! One shard node: a durable job driven over the message network —
//! from a thread of the coordinator's process, or from a `--procs`
//! child, whose loopback network [`crate::procs`] pumps through its
//! stdin and stdout.
//!
//! A shard's entire world is its directory, a `srm serve` job's without
//! the `spec` (DESIGN §11.3):
//!
//! ```text
//! shard-003/
//!   disks/          FileDiskArray cluster (the shard's D disks)
//!   parity.store    rotating-parity sidecar (with `--parity`)
//!   manifest[.prev] checkpoint manifests (journaled by srm-core)
//!   done            the Descriptor, published once every check passed
//! ```
//!
//! The shard derives its partition itself: it streams the spec's input
//! generator and keeps the keys of its [`KeyRange`], in generation
//! order, in memory, and sorts them with
//! [`srm_server::job::sort_durable`] — so the pass-0 manifest is its
//! first durable state, and no key ever reaches it over the channel.  A
//! **replacement node booted on the same directory** re-derives where
//! its predecessor died: `done` present → read its keys back for the
//! fold; otherwise it derives its partition again and sorts it durably,
//! which resumes from the manifest it finds under the cluster's lease or
//! forms afresh.  Every path ends byte-identical to the failure-free
//! run, because the checkpoint fast-forwards the placement RNG and the
//! partition is a pure function of the spec and the splitters.

use crate::error::{DistError, Result};
use crate::fence::{FenceFlag, Fenced};
use crate::msg::Msg;
use crate::net::{Endpoint, NetSender};
use crate::split::KeyRange;
use pdisk::{FaultModel, Geometry, ParitySpec, PdiskError, RetryPolicy, StackSpec, U64Record};
use srm_core::{SrmError, SrmSorter};
use srm_server::job::{read_back, sort_durable, DurableSort, FileCluster, Sorted, DISKS};
use srm_server::{Descriptor, JobError, JobSpec};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// The sentinel a kill drill's observer returns: recognized by the shard
/// as "die now", never surfaced as a real failure.
const KILL_SENTINEL: &str = "shard killed by --kill-node drill";

/// Where a `--kill-node` drill strikes this shard instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Die at the given pass boundary (0 = after run formation), after
    /// announcing the pass but *before* the checkpoint snapshot — the
    /// most adversarial instant, since the pass's work is lost.
    Pass(u64),
    /// Die when the fold request arrives, before answering it: the
    /// chain must stall on this shard and ask its replacement.
    Merge,
}

/// The part of a `--kill-node` spec after the `@`: a pass number, or
/// `merge`.
impl std::str::FromStr for KillPoint {
    type Err = DistError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "merge" => Ok(KillPoint::Merge),
            pass => pass
                .parse()
                .map(KillPoint::Pass)
                .map_err(|_| DistError::Config(format!("bad kill point `{s}` (want PASS or merge)"))),
        }
    }
}

/// Everything one shard instance needs to boot.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// This shard's index (also its node ID).
    pub shard: u32,
    /// Total shard count; the coordinator is node `shards`.
    pub shards: u32,
    /// The shard's durable directory.
    pub dir: PathBuf,
    /// Per-shard disk-array geometry.
    pub geom: Geometry,
    /// The job: its input generator is the stream the shard takes its
    /// partition from.
    pub spec: JobSpec,
    /// The keys this shard owns, from the coordinator's splitters.
    pub keys: KeyRange,
    /// The shard's sorter: the spec's placement, formation, `pipeline`
    /// and `read_ahead` under a per-shard seed derived deterministically
    /// from the spec's, on the cluster's device time.  Identical across
    /// incarnations, which is what makes recovery byte-identical: every
    /// incarnation forms runs the same way.
    pub sorter: SrmSorter,
    /// Rotating parity over the shard's disks (enables the
    /// rebuild-from-parity recovery path).
    pub parity: bool,
    /// Transient disk-fault rate injected under the retry layer.
    pub fault_rate: f64,
    /// Seed for the disk fault model.
    pub fault_seed: u64,
    /// Per-disk I/O service delay (benchmark realism).
    pub io_delay: Duration,
    /// Heartbeat interval (also the receive poll granularity).
    pub heartbeat: Duration,
    /// Armed kill drill for *this instance* (replacements boot unarmed).
    pub kill: Option<KillPoint>,
    /// The instance is a whole process (a `--procs` child): the drill
    /// ends it with [`std::process::exit`] where a thread unwinds on the
    /// kill sentinel, so no destructor runs on any thread and nothing is
    /// flushed or synced — the cluster is left as a SIGKILL leaves it.
    pub process: bool,
    /// Disk-full drill: this instance's cluster hits ENOSPC on the
    /// given write ordinal.  The resulting fault is sticky and
    /// non-retryable, so the shard surfaces it as a fatal typed error.
    pub fill_write: Option<u64>,
}

impl ShardPlan {
    fn coord(&self) -> u32 {
        self.shards
    }

    /// The armed drill strikes: a process exits on the spot; a thread
    /// returns, to unwind on the sentinel.
    fn strike(&self) {
        if self.process {
            std::process::exit(137);
        }
    }

    /// Path of the shard's disk cluster.
    pub fn disks_dir(&self) -> PathBuf {
        self.dir.join(DISKS)
    }

    /// The shard's partition: the spec's keys in its range, in
    /// generation order.
    pub fn partition(&self) -> Vec<U64Record> {
        self.keys.partition(self.spec.input_keys())
    }
}

/// The stack a shard's cluster is read and written through: the `pdisk`
/// production stack, with the fence in its slot.  A parity plan's
/// cluster is always behind the protective layers — retry over rotating
/// parity over the injector (the plan's random transient regime, plus
/// the armed disk-full drill if any): every reader of a parity cluster
/// must go through them, since the rotating layout shifts physical slots
/// and a bare read of a run's *logical* address would land on the wrong
/// frame (or a reserved parity slot).  Without parity, the `sorting`
/// incarnation gets injector + retry when the plan has a fault rate or a
/// fill drill, and a replacement's read-back of a finished shard is
/// bare.  The sort incarnation is the traced one.
fn shard_stack(plan: &ShardPlan, sorting: bool) -> StackSpec {
    let protected = plan.parity || (sorting && (plan.fault_rate > 0.0 || plan.fill_write.is_some()));
    StackSpec {
        faults: protected.then(|| {
            let model = FaultModel::random(plan.fault_seed).with_rate(plan.fault_rate);
            match plan.fill_write {
                Some(n) => model.fill_at(pdisk::FaultOp::Write, n),
                None => model,
            }
        }),
        parity: plan.parity.then(ParitySpec::default),
        retry: protected.then(RetryPolicy::default),
        crash: None,
        trace: sorting,
    }
}

// ─── the node's wiring: heartbeats, folding ───────────────────────────────

/// Spawn the heartbeat thread: beacons every interval until `stop`
/// fires or is dropped.  Runs beside the sort so a compute-bound shard
/// still beacons.  Must never block on I/O or the network — a stuck
/// beacon looks like a dead shard.  It only waits on `stop` and sends,
/// and `NetSender::send` takes one short lock and never waits.  Waiting
/// on `stop` rather than sleeping lets the instance's exit join it at
/// once, not at the next tick.
fn spawn_heartbeat(
    tx: NetSender,
    coord: u32,
    epoch: u64,
    stop: mpsc::Receiver<()>,
    interval: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || loop {
        tx.send(coord, epoch, Msg::Heartbeat);
        if stop.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
            return;
        }
    })
}

/// Is this error the fence talking?  A fenced instance has already been
/// declared dead by the coordinator — reporting its I/O failure would be
/// a zombie speaking after its own funeral, so such exits are silent.
fn is_fence_error(e: &DistError) -> bool {
    fn fenced_pdisk(p: &PdiskError) -> bool {
        match p {
            PdiskError::Unrecoverable(m) => m.contains("fenced"),
            PdiskError::RetriesExhausted { last, .. } => fenced_pdisk(last),
            _ => false,
        }
    }
    match e {
        DistError::Disk(p) | DistError::Sort(SrmError::Disk(p)) | DistError::Job(JobError::Disk(p)) => fenced_pdisk(p),
        _ => false,
    }
}

/// Entry point of one shard instance, on its own thread.  Runs the
/// state machine, reporting fatal errors to the coordinator; simulated
/// deaths (drill or fence) end silently, exactly like a crashed process.
pub fn run_shard(plan: ShardPlan, ep: Endpoint, epoch: u64, fence: FenceFlag) {
    let (stop, stopped) = mpsc::channel();
    let hb = spawn_heartbeat(ep.sender(), plan.coord(), epoch, stopped, plan.heartbeat);
    let result = shard_main(&plan, &ep, epoch, &fence);
    drop(stop);
    if let Err(e) = result {
        if !is_fence_error(&e) {
            ep.send(plan.coord(), epoch, Msg::Fatal { msg: e.to_string() });
        }
    }
    let _ = hb.join();
}

/// One instance, to its end: `Ok` on shutdown and on a simulated death
/// (kill drill or fence), which stops it without a word, exactly like a
/// crashed process.
fn shard_main(plan: &ShardPlan, ep: &Endpoint, epoch: u64, fence: &FenceFlag) -> Result<()> {
    if let Some(done) = Descriptor::load(&plan.dir)? {
        // Read the finished run's keys back once, through the plan's stack.
        let keys = match &done.run {
            Some(run) => read_back(&plan.dir, plan.geom, run, shard_stack(plan, false), Fenced(fence.clone()), plan.io_delay)?,
            None => Vec::new(),
        };
        return answer_fold(plan, ep, epoch, fence, &done, &keys);
    }
    let clock = Instant::now();
    let keys = plan.partition();
    let job = DurableSort {
        dir: &plan.dir,
        geom: plan.geom,
        sorter: &plan.sorter,
        records: &keys,
        staged: false,
        stage_ms: clock.elapsed().as_millis() as u64,
        stack: shard_stack(plan, true),
        slot: Fenced(fence.clone()),
        cluster: &mut FileCluster { io_delay: plan.io_delay },
        oracle: false,
    };
    // A pass boundary is announced, then — before its snapshot — is where
    // a `KillPoint::Pass` drill strikes.
    let sorted = sort_durable(job, |pass, _| {
        ep.send(plan.coord(), epoch, Msg::Pass { pass });
        if plan.kill == Some(KillPoint::Pass(pass)) {
            plan.strike();
            return Err(SrmError::Internal(KILL_SENTINEL.into()));
        }
        Ok(())
    });
    match sorted {
        Ok(Sorted { done, keys, .. }) => answer_fold(plan, ep, epoch, fence, &done, &keys),
        Err(JobError::Engine(msg)) if msg == KILL_SENTINEL => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Announce the finished sort, then hold its keys until the chain's
/// fold request arrives and answer it.  A request is answered every time
/// it arrives (a resend means the reply was lost, and the fold is a pure
/// function of the carry and the keys); the loop ends on shutdown, or
/// silently when the fence fires.
#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
fn answer_fold(
    plan: &ShardPlan,
    ep: &Endpoint,
    epoch: u64,
    fence: &FenceFlag,
    done: &Descriptor,
    keys: &[U64Record],
) -> Result<()> {
    let coord = plan.coord();
    let announce_done = || ep.send(coord, epoch, Msg::SortDone { done: done.clone() });
    announce_done();
    let mut heard = false;
    let mut idle = 0u32;
    loop {
        if fence.is_fired() {
            return Ok(());
        }
        let Some(env) = ep.recv_timeout(plan.heartbeat) else {
            // The one-shot `SortDone` can be lost to the channel; until
            // the coordinator speaks to this epoch (a fold request or a
            // shutdown — either proves it knows we are done),
            // re-announce so it cannot wait forever on a done shard.
            if !heard {
                idle += 1;
                if idle >= 4 {
                    idle = 0;
                    announce_done();
                }
            }
            continue;
        };
        if env.epoch != epoch {
            continue;
        }
        heard = true;
        match env.msg {
            Msg::Fold { carry } => {
                if plan.kill == Some(KillPoint::Merge) {
                    plan.strike();
                    return Ok(());
                }
                let fold = carry.fold(keys.iter().map(|r| r.0), plan.geom.b);
                ep.send(coord, epoch, Msg::Folded { fold });
            }
            Msg::Shutdown => return Ok(()),
            // The shard-to-coordinator kinds never land on a shard
            // mailbox.  Named, since a wildcard is denied here, so no
            // message kind is swallowed.
            Msg::Heartbeat
            | Msg::Pass { .. }
            | Msg::SortDone { .. }
            | Msg::Folded { .. }
            | Msg::Fatal { .. } => {}
        }
    }
}
