//! One shard node: a durable directory plus an ordinary checkpointed
//! SRM sort, driven over the message network — from a thread of the
//! coordinator's process, or from a `--procs` child, whose loopback
//! network [`crate::procs`] pumps through its stdin and stdout.
//!
//! A shard's entire world lives in its directory:
//!
//! ```text
//! shard-003/
//!   disks/          FileDiskArray cluster (the shard's D disks)
//!   parity.store    rotating-parity sidecar (with `--parity`)
//!   manifest[.prev] checkpoint manifests (journaled by srm-core)
//!   output          journaled output descriptor + digest (sort finished)
//! ```
//!
//! The shard derives its partition itself: it streams the spec's input
//! generator and keeps the keys of its [`KeyRange`], in generation
//! order, in memory, and forms its runs from them — so the pass-0
//! manifest is its first durable state, and no key ever reaches it over
//! the channel.  Every transition is journaled (temp + fsync + rename),
//! so a **replacement node booted on the same directory** re-derives
//! where its predecessor died: `output` present → read its keys back for
//! the fold; otherwise it derives its partition again and resumes from
//! the newest valid manifest on the existing cluster (rebuilding from
//! parity first when configured), or, with none, forms its runs afresh
//! on a new cluster.  Every path ends byte-identical to the failure-free
//! run, because the checkpoint fast-forwards the placement RNG and the
//! partition is a pure function of the spec and the splitters.

use crate::error::{DistError, Result};
use crate::fence::{FenceFlag, Fenced};
use crate::msg::Msg;
use crate::net::{Endpoint, NetSender};
use crate::split::KeyRange;
use pdisk::{
    BuiltStack, DiskArray, FaultModel, FileDiskArray, Geometry, ParitySpec, PdiskError,
    RetryPolicy, StackSpec, StripedRun, U64Record,
};
use srm_core::{read_run, scrub_runs, Input, SrmError, SrmSorter};
use srm_server::{decode_run, digest_keys, encode_run, JobSpec};
use std::path::{Path, PathBuf};
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

    /// Path of the checkpoint manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest")
    }

    /// Path of the journaled output descriptor.
    pub fn output_path(&self) -> PathBuf {
        self.dir.join("output")
    }

    /// Path of the shard's disk cluster.
    pub fn disks_dir(&self) -> PathBuf {
        self.dir.join("disks")
    }

    /// Path of the parity sidecar.
    pub fn parity_store(&self) -> PathBuf {
        self.dir.join("parity.store")
    }

    /// The shard's partition: the spec's keys in its range, in
    /// generation order.
    pub fn partition(&self) -> Vec<U64Record> {
        self.keys.partition(self.spec.input_keys())
    }
}

/// How one sort incarnation ended.
enum Outcome {
    /// The kill drill struck: the incarnation is dead, its directory
    /// holds whatever had become durable.
    Killed,
    /// The sort finished; the output descriptor is journaled.  The
    /// sorted keys come back too: the verification read already holds
    /// them, and the shard keeps them for its fold.
    Done(OutputMeta, Vec<U64Record>),
}

/// Where one sort incarnation's wall-clock went, in milliseconds.  The
/// I/O phases are split-phase on a file cluster: the sort runs at the
/// plan's window, the verification read keeps a few stripes in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMs {
    /// Deriving the partition from the spec's generator.  Nothing is
    /// written.
    pub stage: u64,
    /// The checkpointed sort (of a resumed incarnation: what was left).
    pub sort: u64,
    /// Reading the output back and digesting it.
    pub verify: u64,
    /// Replaying the incarnation's trace through the model checker.
    pub check: u64,
}

/// The durable `output` descriptor: what a replacement (or the
/// coordinator) needs to know about a finished shard sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputMeta {
    /// The sorted output run (`None` for an empty shard).
    pub run: Option<StripedRun>,
    /// Records in the run.
    pub records: u64,
    /// FNV-1a digest of the sorted keys.
    pub digest: u64,
    /// Merge passes performed over the whole logical sort.
    pub passes: u64,
    /// Trace events replayed through the model checker.
    pub trace_events: u64,
    /// The finishing incarnation's trace was checker-clean.
    pub trace_clean: bool,
    /// Blocks healed by the parity scrub during recovery.
    pub repaired: u64,
    /// The finishing incarnation's wall-clock, by phase.
    pub ms: ShardMs,
}

impl OutputMeta {
    /// The descriptor of a shard whose partition was empty.
    pub fn empty() -> Self {
        OutputMeta {
            run: None,
            records: 0,
            digest: digest_keys(std::iter::empty()),
            passes: 0,
            trace_events: 0,
            trace_clean: true,
            repaired: 0,
            ms: ShardMs::default(),
        }
    }

    /// Serialize as the `output` file's `key value` line format.
    pub fn encode(&self) -> String {
        let run = match &self.run {
            Some(r) => encode_run(r),
            None => "empty".to_string(),
        };
        let ShardMs { stage, sort, verify, check } = self.ms;
        format!(
            "run {run}\nrecords {}\ndigest {:#x}\npasses {}\ntrace-events {}\ntrace-clean {}\nrepaired {}\n\
             ms {stage} {sort} {verify} {check}\n",
            self.records, self.digest, self.passes, self.trace_events, self.trace_clean, self.repaired
        )
    }

    /// Parse the `output` file, rejecting malformed lines with typed
    /// errors (a torn descriptor must read as an error, never as a
    /// plausible wrong answer).
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |l: &str| DistError::Io(format!("bad output descriptor line `{l}`"));
        let mut meta = OutputMeta::empty();
        let mut saw_digest = false;
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (key, val) = line.split_once(' ').ok_or_else(|| bad(line))?;
            match key {
                "run" => {
                    if val != "empty" {
                        meta.run = Some(decode_run(val).map_err(DistError::Job)?);
                    }
                }
                "records" => meta.records = val.parse().map_err(|_| bad(line))?,
                "digest" => {
                    let hex = val.strip_prefix("0x").unwrap_or(val);
                    meta.digest = u64::from_str_radix(hex, 16).map_err(|_| bad(line))?;
                    saw_digest = true;
                }
                "passes" => meta.passes = val.parse().map_err(|_| bad(line))?,
                "trace-events" => meta.trace_events = val.parse().map_err(|_| bad(line))?,
                "trace-clean" => meta.trace_clean = val.parse().map_err(|_| bad(line))?,
                "repaired" => meta.repaired = val.parse().map_err(|_| bad(line))?,
                "ms" => {
                    let ms: Vec<u64> =
                        val.split(' ').map(str::parse).collect::<std::result::Result<_, _>>().map_err(|_| bad(line))?;
                    let [stage, sort, verify, check] = ms[..] else { return Err(bad(line)) };
                    meta.ms = ShardMs { stage, sort, verify, check };
                }
                _ => return Err(bad(line)),
            }
        }
        if !saw_digest {
            return Err(DistError::Io("output descriptor missing digest".into()));
        }
        Ok(meta)
    }
}

/// Publish `text` at `path` through the checkpoint journal's own temp +
/// fsync + rename, so a crash leaves either the old file or the new one.
pub(crate) fn atomic_write(path: &Path, text: &str) -> Result<()> {
    pdisk::manifest::atomic_write(path, text.as_bytes())
        .map_err(|e| DistError::Io(format!("write {}: {e}", path.display())))
}

/// Open the shard's file-backed disk cluster, or with `create` clear it
/// and create it afresh.
///
/// A replacement may race its fenced predecessor for the cluster's
/// `pdisk.lock`: the fence guarantees the old instance does no further
/// I/O, but its handle is only released when its thread observes the
/// fence and drops the array — so either way the step retries briefly,
/// modelling "wait for the old lease to expire".  A fresh cluster is
/// cleared on every attempt, so whatever the predecessor held goes too.
pub(crate) fn open_base(plan: &ShardPlan, create: bool) -> Result<FileDiskArray<U64Record>> {
    let disks = plan.disks_dir();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if create {
            if disks.exists() {
                std::fs::remove_dir_all(&disks)
                    .map_err(|e| DistError::Io(format!("clear {}: {e}", disks.display())))?;
            }
            let store = plan.parity_store();
            if store.exists() {
                std::fs::remove_file(&store)
                    .map_err(|e| DistError::Io(format!("clear {}: {e}", store.display())))?;
            }
        }
        let opened = if create { FileDiskArray::create(plan.geom, &disks) } else { FileDiskArray::open(plan.geom, &disks) };
        match opened {
            Ok(arr) => {
                arr.set_io_delay(plan.io_delay);
                return Ok(arr);
            }
            Err(PdiskError::ArrayLocked { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Boot on the shard's directory, creating it on the first boot: the
/// journaled output descriptor of a finished sort, whose keys the shard
/// reads back for the fold, or `None` — derive the partition and sort it
/// (resuming from the manifest when one loads).
fn finished(plan: &ShardPlan) -> Result<Option<OutputMeta>> {
    std::fs::create_dir_all(&plan.dir)
        .map_err(|e| DistError::Io(format!("create {}: {e}", plan.dir.display())))?;
    let path = plan.output_path();
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| DistError::Io(format!("read {}: {e}", path.display())))?;
    OutputMeta::parse(&text).map(Some)
}

/// Run one sort incarnation end to end: derive the partition, build the
/// protective stack, rebuild from parity when resuming, trace the whole
/// thing, sort with checkpoints, model-check the trace, and journal the
/// output descriptor.  Drops every array handle before returning, so a
/// replacement can reopen the cluster.
///
/// With no loadable manifest the cluster is created afresh and formation
/// sorts the partition from memory; with one, the existing cluster is
/// opened and the sort resumes from it without re-forming.  An empty
/// partition journals [`OutputMeta::empty`] at once.  `on_pass(pass)`
/// fires at every pass boundary *before* the snapshot — which is also
/// where a [`KillPoint::Pass`] drill strikes.
fn sort_shard(plan: &ShardPlan, fence: &FenceFlag, on_pass: &mut dyn FnMut(u64)) -> Result<Outcome> {
    let clock = Instant::now();
    let keys = plan.partition();
    let stage = clock.elapsed().as_millis() as u64;
    if keys.is_empty() {
        let meta = OutputMeta::empty();
        atomic_write(&plan.output_path(), &meta.encode())?;
        return Ok(Outcome::Done(meta, Vec::new()));
    }
    // Refuse early if the manifest belongs to a different sort — it
    // would fail identically on every resume attempt.
    let manifest = plan.manifest_path();
    let resume = plan.sorter.resume_point(plan.geom, keys.len() as u64, &manifest)?;
    let base = open_base(plan, resume.is_none())?;
    let mut stack = shard_stack(plan, base, fence, true)?;

    // Recovery path 2 (`--parity`): before resuming, scrub every run the
    // newest manifest keeps live, healing any block the dead node's
    // storage lost; then zero the counters and drop the scrub's events
    // so the traced sort's stats match its trace exactly.
    let mut repaired = 0u64;
    if let Some(m) = resume.filter(|_| plan.parity) {
        let report = scrub_runs(&mut stack, &m.runs)?;
        repaired = report.repaired;
        if report.unrepairable > 0 {
            return Err(DistError::Shard {
                shard: plan.shard,
                msg: format!("{} block(s) unrepairable even with parity", report.unrepairable),
            });
        }
    }
    stack.reset_stats();
    drop(stack.take_trace());

    let mut ms = ShardMs { stage, ..ShardMs::default() };
    let kill_at = match plan.kill {
        Some(KillPoint::Pass(p)) => Some(p),
        _ => None,
    };
    let clock = Instant::now();
    let sorted = plan.sorter.sort_observed(&mut stack, Input::InMemory(&keys), Some(&manifest), |pass, _a| {
        on_pass(pass);
        if kill_at == Some(pass) {
            plan.strike();
            return Err(SrmError::Internal(KILL_SENTINEL.into()));
        }
        Ok(())
    });
    let (run, report) = match sorted {
        Ok(ok) => ok,
        Err(SrmError::Internal(msg)) if msg == KILL_SENTINEL => return Ok(Outcome::Killed),
        Err(e) => return Err(e.into()),
    };
    ms.sort = clock.elapsed().as_millis() as u64;

    // Digest the output (the verification read is part of the trace, as
    // in the CLI), then replay the whole incarnation's trace through the
    // model checker: sort + verification must obey the Vitter–Shriver
    // rules.
    let clock = Instant::now();
    let out = read_run(&mut stack, &run)?;
    let digest = digest_keys(out.iter().map(|r| r.0));
    ms.verify = clock.elapsed().as_millis() as u64;
    let clock = Instant::now();
    let stats = stack.stats();
    let trace = stack.take_trace();
    let summary = modelcheck::check_trace(plan.geom, &trace)
        .map_err(|v| DistError::Model(format!("shard {}: {v}", plan.shard)))?;
    modelcheck::check_stats(&trace, &stats)
        .map_err(|v| DistError::Model(format!("shard {}: trace/stats drift: {v}", plan.shard)))?;
    ms.check = clock.elapsed().as_millis() as u64;

    let meta = OutputMeta {
        run: Some(run),
        records: keys.len() as u64,
        digest,
        passes: report.merge_passes,
        trace_events: summary.events,
        trace_clean: true,
        repaired,
        ms,
    };
    atomic_write(&plan.output_path(), &meta.encode())?;
    Ok(Outcome::Done(meta, out))
}

/// The one stack a shard's cluster is ever read or written through: the
/// `pdisk` production stack with the fence in its slot.
pub(crate) type ShardStack = BuiltStack<U64Record, FileDiskArray<U64Record>, Fenced>;

/// Build it over `base`.  A parity plan's cluster is always behind the
/// protective layers — retry over rotating parity over the injector (the
/// plan's random transient regime, plus the armed disk-full drill if
/// any): every reader of a parity cluster must go through them, since
/// the rotating layout shifts physical slots and a bare
/// [`FileDiskArray`] read of a run's *logical* address would land on the
/// wrong frame (or a reserved parity slot).  Without parity, the
/// `sorting` incarnation gets injector + retry when the plan has a fault
/// rate or a fill drill, and a replacement's read-back of a finished
/// shard is bare.  The sort incarnation is the traced one.
pub(crate) fn shard_stack(
    plan: &ShardPlan,
    base: FileDiskArray<U64Record>,
    fence: &FenceFlag,
    sorting: bool,
) -> Result<ShardStack> {
    let protected = plan.parity || (sorting && (plan.fault_rate > 0.0 || plan.fill_write.is_some()));
    let spec = StackSpec {
        faults: protected.then(|| {
            let model = FaultModel::random(plan.fault_seed).with_rate(plan.fault_rate);
            match plan.fill_write {
                Some(n) => model.fill_at(pdisk::FaultOp::Write, n),
                None => model,
            }
        }),
        parity: plan.parity.then(|| ParitySpec {
            store: Some(plan.parity_store()),
            ..ParitySpec::default()
        }),
        retry: protected.then(RetryPolicy::default),
        crash: None,
        trace: sorting,
    };
    Ok(spec.build(base, Fenced(fence.clone()))?)
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
        DistError::Disk(p) => fenced_pdisk(p),
        DistError::Sort(SrmError::Disk(p)) => fenced_pdisk(p),
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
    if let Some(meta) = finished(plan)? {
        // Read the finished run's keys back once, through the plan's stack.
        let keys = match &meta.run {
            Some(run) => read_run(&mut shard_stack(plan, open_base(plan, false)?, fence, false)?, run)?,
            None => Vec::new(),
        };
        return answer_fold(plan, ep, epoch, fence, &meta, &keys);
    }
    let mut on_pass = |pass: u64| ep.send(plan.coord(), epoch, Msg::Pass { pass });
    match sort_shard(plan, fence, &mut on_pass)? {
        Outcome::Killed => Ok(()),
        Outcome::Done(meta, keys) => answer_fold(plan, ep, epoch, fence, &meta, &keys),
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
    meta: &OutputMeta,
    keys: &[U64Record],
) -> Result<()> {
    let coord = plan.coord();
    let announce_done = || ep.send(coord, epoch, Msg::SortDone { meta: meta.clone() });
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A replacement that must form afresh waits out its fenced
    /// predecessor's hold on the cluster, as a resuming one does.
    #[test]
    fn a_fresh_cluster_waits_for_the_predecessors_lock() {
        let spec = JobSpec { records: 100, ..JobSpec::default() };
        let root = std::env::temp_dir().join(format!("srm-dist-shard-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = crate::DistConfig::new(1);
        let plan = crate::coord::plan_for(&spec, &cfg, spec.geometry().unwrap(), &root, 0, KeyRange::of(&[], 0), None);
        let held = FileDiskArray::<U64Record>::create(plan.geom, plan.disks_dir()).unwrap();
        let opener = std::thread::spawn(move || open_base(&plan, true).map(drop));
        std::thread::sleep(Duration::from_millis(100));
        drop(held);
        let opened = opener.join().unwrap();
        let _ = std::fs::remove_dir_all(&root);
        opened.unwrap();
    }

    /// The phase timers ride in the durable descriptor: they round-trip,
    /// a descriptor written before they existed reads as zeros, and a
    /// torn `ms` line is an error, not a plausible report.
    #[test]
    fn the_output_descriptor_carries_the_phase_timers() {
        let meta = OutputMeta {
            records: 9,
            ms: ShardMs { stage: 37, sort: 201, verify: 31, check: 4 },
            ..OutputMeta::empty()
        };
        let text = meta.encode();
        assert_eq!(OutputMeta::parse(&text).unwrap(), meta);
        let older: String = text.lines().filter(|l| !l.starts_with("ms ")).map(|l| format!("{l}\n")).collect();
        assert_eq!(OutputMeta::parse(&older).unwrap().ms, ShardMs::default());
        assert!(OutputMeta::parse(&text.replace("ms 37 201 31 4", "ms 37 201")).is_err());
    }
}
