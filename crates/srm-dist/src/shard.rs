//! One shard node: a durable directory plus an ordinary checkpointed
//! SRM sort, driven over the message network (thread mode) or over
//! stdout lines (process mode, see [`crate::procs`]).
//!
//! A shard's entire world lives in its directory:
//!
//! ```text
//! shard-003/
//!   disks/          FileDiskArray cluster (the shard's D disks)
//!   parity.store    rotating-parity sidecar (with `--parity`)
//!   input           journaled input-run descriptor (staging is durable)
//!   manifest[.prev] PR-5 checkpoint manifests (journaled by srm-core)
//!   output          journaled output descriptor + digest (sort finished)
//! ```
//!
//! Because every state transition is journaled (temp + fsync + rename),
//! a **replacement node booted on the same directory** re-derives
//! exactly where its predecessor died: `output` present → serve it;
//! `input` present → resume the sort from the newest valid manifest
//! (rebuilding from parity first when configured); neither → ask the
//! coordinator to re-stage.  All three paths end byte-identical to the
//! failure-free run, because the checkpoint fast-forwards the placement
//! RNG and staging is deterministic.

use crate::error::{DistError, Result};
use crate::fence::{FenceFlag, Fenced};
use crate::msg::Msg;
use crate::net::{Endpoint, NetSender};
use pdisk::{
    BuiltStack, DiskArray, FaultModel, FileDiskArray, Geometry, ParitySpec, PdiskError,
    RetryPolicy, StackSpec, StripedRun, U64Record,
};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, scrub_runs, SortManifest, SrmError, SrmSorter, StripeWindow};
use srm_server::{decode_run, digest_keys, encode_run};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    /// Die while serving the cross-shard output stream, after
    /// answering this many window requests: the next request (0 = the
    /// first) goes unanswered, forcing the stream to stall and resume.
    Merge(u64),
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
    /// The shard's sorter: the spec's placement, formation, `pipeline`
    /// and `read_ahead` under a per-shard seed derived deterministically
    /// from the spec's.  Identical across incarnations, which is what
    /// makes recovery byte-identical.
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
    /// Disk-full drill: this instance's cluster hits ENOSPC on the
    /// given write ordinal.  The resulting fault is sticky and
    /// non-retryable, so the shard surfaces it as a fatal typed error.
    pub fill_write: Option<u64>,
}

impl ShardPlan {
    fn coord(&self) -> u32 {
        self.shards
    }

    /// Path of the journaled input descriptor.
    pub fn input_path(&self) -> PathBuf {
        self.dir.join("input")
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
}

/// How a shard instance ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Ran to completion (shutdown received).
    Completed,
    /// Simulated death: the instance stopped mid-flight without a word
    /// (kill drill or fence), exactly like a crashed process.
    Killed,
}

/// How one sort incarnation ended.
pub enum Outcome {
    /// The kill drill struck: the incarnation is dead, its directory
    /// holds whatever had become durable.
    Killed,
    /// The sort finished; the output descriptor is journaled.
    Done(OutputMeta),
}

/// Where one sort incarnation's wall-clock went, in milliseconds.  Every
/// phase is split-phase I/O on a file cluster: staging writes behind,
/// the sort runs at the plan's window, the verification read keeps a
/// few stripes in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMs {
    /// Staging the partition onto the cluster until its descriptor is
    /// durable (0 for an incarnation that resumed a durable input).
    pub stage: u64,
    /// The checkpointed sort (of a resumed incarnation: what was left).
    pub sort: u64,
    /// Reading the output back and digesting it.
    pub verify: u64,
    /// Replaying the incarnation's trace through the model checker.
    pub check: u64,
}

/// The durable `output` descriptor: what a replacement (or the
/// cross-shard merge) needs to know about a finished shard sort.
#[derive(Debug, Clone, PartialEq)]
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

/// Open (or create) the shard's file-backed disk cluster.
///
/// A replacement may race its fenced predecessor for the cluster's
/// `pdisk.lock`: the fence guarantees the old instance does no further
/// I/O, but its handle is only released when its thread observes the
/// fence and drops the array — so opening retries briefly, modelling
/// "wait for the old lease to expire".
pub(crate) fn open_base(plan: &ShardPlan, create: bool) -> Result<FileDiskArray<U64Record>> {
    let disks = plan.disks_dir();
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
        let arr = FileDiskArray::create(plan.geom, &disks)?;
        arr.set_io_delay(plan.io_delay);
        return Ok(arr);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match FileDiskArray::open(plan.geom, &disks) {
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

/// What the booting shard found durable, and therefore what it will do.
pub(crate) enum Boot {
    /// Output descriptor present: serve it.
    Serve(OutputMeta),
    /// Input present: sort (resuming from the manifest when one exists).
    Sort(StripedRun),
    /// Empty-bucket marker present: nothing to sort, nothing to serve.
    Empty,
    /// Nothing durable: ask the coordinator to stage.
    Stage,
}

pub(crate) fn inspect_dir(plan: &ShardPlan) -> Result<Boot> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| DistError::Io(format!("read {}: {e}", p.display())))
    };
    if plan.output_path().exists() {
        return Ok(Boot::Serve(OutputMeta::parse(&read(&plan.output_path())?)?));
    }
    if plan.input_path().exists() {
        let text = read(&plan.input_path())?;
        let line = text.trim();
        if line == "empty" {
            return Ok(Boot::Empty);
        }
        return Ok(Boot::Sort(decode_run(line).map_err(DistError::Job)?));
    }
    Ok(Boot::Stage)
}

/// What a sort incarnation starts from.
pub(crate) enum SortInput {
    /// Fresh keys to stage onto a brand-new cluster.
    Fresh(Vec<U64Record>),
    /// A durable input descriptor on an existing cluster (resume boot).
    Durable(StripedRun),
}

/// Run one sort incarnation end to end: build the protective stack,
/// rebuild from parity when recovering, trace the whole thing, sort with
/// checkpoints, model-check the trace, and journal the output
/// descriptor.  Drops every array handle before returning, so the
/// caller (serve loop or a replacement) can reopen the cluster.
///
/// `on_staged(records)` fires once the input descriptor is durable;
/// `on_pass(pass)` fires at every pass boundary *before* the snapshot —
/// which is also where a [`KillPoint::Pass`] drill strikes.
pub(crate) fn sort_shard(
    plan: &ShardPlan,
    fence: &FenceFlag,
    input: SortInput,
    on_staged: &mut dyn FnMut(u64),
    on_pass: &mut dyn FnMut(u64),
) -> Result<Outcome> {
    let base = open_base(plan, matches!(input, SortInput::Fresh(_)))?;
    let mut stack = shard_stack(plan, base, fence, true)?;

    // Recovery path 2 (`--parity`): before resuming, scrub every run the
    // resume can still touch — the staged input (a pass-0 resume re-sorts
    // it) and whatever the newest manifest keeps live — healing any block
    // the dead node's storage lost; then zero the counters and drop the
    // scrub's events so the traced sort's stats match its trace exactly.
    let mut repaired = 0u64;
    if plan.parity {
        if let SortInput::Durable(run) = &input {
            let mut live = vec![run.clone()];
            if let Some(m) = SortManifest::load_latest(&plan.manifest_path())? {
                live.extend(m.runs);
            }
            let report = scrub_runs(&mut stack, &live)?;
            repaired = report.repaired;
            if report.unrepairable > 0 {
                return Err(DistError::Shard {
                    shard: plan.shard,
                    msg: format!(
                        "{} block(s) unrepairable even with parity",
                        report.unrepairable
                    ),
                });
            }
        }
    }
    stack.reset_stats();
    drop(stack.take_trace());

    // Stage fresh input inside the trace (exactly like the CLI), making
    // the descriptor durable *before* sorting so a death between staging
    // and the first checkpoint resumes instead of re-staging.
    let mut ms = ShardMs::default();
    let clock = Instant::now();
    let input_run = match input {
        SortInput::Fresh(records) => {
            let run = write_unsorted_input(&mut stack, &records)?;
            stack.sync()?;
            atomic_write(&plan.input_path(), &encode_run(&run))?;
            ms.stage = clock.elapsed().as_millis() as u64;
            on_staged(run.records);
            run
        }
        SortInput::Durable(run) => run,
    };

    let kill_at = match plan.kill {
        Some(KillPoint::Pass(p)) => Some(p),
        _ => None,
    };
    let manifest = plan.manifest_path();
    let clock = Instant::now();
    let sorted = plan.sorter.sort_observed(&mut stack, &input_run, Some(&manifest), |pass, _a| {
        on_pass(pass);
        if kill_at == Some(pass) {
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
    // model checker: staging + sort + verification must all obey the
    // Vitter–Shriver rules.
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
        records: input_run.records,
        digest,
        passes: report.merge_passes,
        trace_events: summary.events,
        trace_clean: true,
        repaired,
        ms,
    };
    atomic_write(&plan.output_path(), &meta.encode())?;
    Ok(Outcome::Done(meta))
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
/// rate or a fill drill, and a finished shard's read-back is bare.  The
/// sort incarnation is the traced one.
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

/// Start reading blocks `first..first + count` of `run`, clamped to its
/// end: every stripe of the window is submitted (one parallel I/O each)
/// before any is awaited, so the per-disk workers run back to back.
pub(crate) fn submit_window<A: DiskArray<U64Record>>(
    array: &mut A,
    run: &StripedRun,
    first: u64,
    count: u64,
) -> Result<StripeWindow<U64Record>> {
    let mut window = StripeWindow::new(run, first..first.saturating_add(count));
    window.submit(array, usize::MAX)?;
    Ok(window)
}

/// Await a submitted window, stripe by stripe: its keys, in run order.
pub(crate) fn complete_window<A: DiskArray<U64Record>>(
    array: &mut A,
    mut window: StripeWindow<U64Record>,
) -> Result<Vec<u64>> {
    let mut keys = Vec::new();
    while let Some(blocks) = window.complete_oldest(array)? {
        for block in blocks {
            keys.extend(block.records.iter().map(|r| r.0));
        }
    }
    Ok(keys)
}

// ─── thread-mode wiring: heartbeats, staging, serving ────────────────────

/// Spawn the heartbeat thread: beacons every interval until `alive`
/// clears.  Runs beside the sort so a compute-bound shard still beacons.
/// Must never block on I/O or a channel — a stuck beacon looks like a
/// dead shard.  It only sleeps and sends, and `NetSender::send` takes
/// one short lock and never waits.
fn spawn_heartbeat(
    tx: NetSender,
    coord: u32,
    epoch: u64,
    alive: Arc<AtomicBool>,
    interval: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while alive.load(Ordering::SeqCst) {
            tx.send(coord, epoch, Msg::Heartbeat);
            std::thread::sleep(interval);
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

/// Thread entry point for one shard instance.  Runs the state machine,
/// reporting fatal errors to the coordinator; simulated deaths (drill or
/// fence) end silently, exactly like a crashed process.
pub fn run_shard(plan: ShardPlan, ep: Endpoint, epoch: u64, fence: FenceFlag) {
    let alive = Arc::new(AtomicBool::new(true));
    let hb = spawn_heartbeat(
        ep.sender(),
        plan.coord(),
        epoch,
        Arc::clone(&alive),
        plan.heartbeat,
    );
    let result = shard_main(&plan, &ep, epoch, &fence);
    alive.store(false, Ordering::SeqCst);
    if let Err(e) = result {
        if !is_fence_error(&e) {
            ep.send(plan.coord(), epoch, Msg::Fatal { msg: e.to_string() });
        }
    }
    let _ = hb.join();
}

fn shard_main(plan: &ShardPlan, ep: &Endpoint, epoch: u64, fence: &FenceFlag) -> Result<Exit> {
    std::fs::create_dir_all(&plan.dir)
        .map_err(|e| DistError::Io(format!("create {}: {e}", plan.dir.display())))?;
    let coord = plan.coord();
    let hello = |needs_input: bool, resume_pass: Option<u64>| {
        ep.send(
            coord,
            epoch,
            Msg::Hello {
                needs_input,
                resume_pass,
            },
        );
    };
    let input = match inspect_dir(plan)? {
        Boot::Serve(meta) => {
            hello(false, None);
            announce_done(plan, ep, epoch, &meta);
            return serve(plan, ep, epoch, fence, &meta);
        }
        Boot::Empty => {
            hello(false, None);
            let meta = OutputMeta::empty();
            atomic_write(&plan.output_path(), &meta.encode())?;
            announce_done(plan, ep, epoch, &meta);
            return serve(plan, ep, epoch, fence, &meta);
        }
        Boot::Sort(input_run) => {
            // Refuse early if the manifest belongs to a different sort —
            // it would fail identically on every resume attempt.
            let pass = plan
                .sorter
                .resume_point(plan.geom, input_run.records, &plan.manifest_path())?
                .map(|at| at.pass);
            hello(false, pass);
            SortInput::Durable(input_run)
        }
        Boot::Stage => {
            hello(true, None);
            let keys = match stage_loop(plan, ep, epoch, fence)? {
                Some(keys) => keys,
                None => return Ok(Exit::Killed),
            };
            if keys.is_empty() {
                atomic_write(&plan.input_path(), "empty")?;
                ep.send(coord, epoch, Msg::Staged { records: 0 });
                let meta = OutputMeta::empty();
                atomic_write(&plan.output_path(), &meta.encode())?;
                announce_done(plan, ep, epoch, &meta);
                return serve(plan, ep, epoch, fence, &meta);
            }
            SortInput::Fresh(keys.into_iter().map(U64Record).collect())
        }
    };

    let mut on_staged = |records: u64| ep.send(coord, epoch, Msg::Staged { records });
    let mut on_pass = |pass: u64| ep.send(coord, epoch, Msg::Pass { pass });
    match sort_shard(plan, fence, input, &mut on_staged, &mut on_pass)? {
        Outcome::Killed => Ok(Exit::Killed),
        Outcome::Done(meta) => {
            announce_done(plan, ep, epoch, &meta);
            serve(plan, ep, epoch, fence, &meta)
        }
    }
}

fn announce_done(plan: &ShardPlan, ep: &Endpoint, epoch: u64, meta: &OutputMeta) {
    ep.send(
        plan.coord(),
        epoch,
        Msg::SortDone {
            records: meta.records,
            blocks: meta.run.as_ref().map_or(0, |r| r.len_blocks),
            passes: meta.passes,
            digest: meta.digest,
            trace_events: meta.trace_events,
            trace_clean: meta.trace_clean,
            repaired: meta.repaired,
            ms: meta.ms,
        },
    );
}

/// Receive the shard's partition, stop-and-wait, deduplicating by batch
/// sequence number so dropped/duplicated/delayed batches are all safe.
/// Returns `None` on a silent death (fence or shutdown mid-staging).
#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
fn stage_loop(
    plan: &ShardPlan,
    ep: &Endpoint,
    epoch: u64,
    fence: &FenceFlag,
) -> Result<Option<Vec<u64>>> {
    let coord = plan.coord();
    let mut keys: Vec<u64> = Vec::new();
    let mut next_seq = 0u64;
    let mut idle = 0u32;
    loop {
        if fence.is_fired() {
            return Ok(None);
        }
        let Some(env) = ep.recv_timeout(plan.heartbeat) else {
            // The Hello itself can be lost (drop or partition), and the
            // coordinator has no way to probe for it — a silent shard in
            // `Waiting` looks identical to one mid-sort.  Until the first
            // batch proves the Hello landed, keep re-introducing
            // ourselves; the coordinator treats duplicates as no-ops.
            if next_seq == 0 {
                idle += 1;
                if idle >= 4 {
                    idle = 0;
                    ep.send(
                        coord,
                        epoch,
                        Msg::Hello {
                            needs_input: true,
                            resume_pass: None,
                        },
                    );
                }
            }
            continue;
        };
        if env.epoch != epoch {
            continue; // stale traffic for a predecessor or successor
        }
        match env.msg {
            Msg::Stage { seq, keys: batch, last } => {
                if seq == next_seq {
                    keys.extend_from_slice(&batch);
                    next_seq += 1;
                    ep.send(coord, epoch, Msg::StageAck { seq });
                    if last {
                        return Ok(Some(keys));
                    }
                } else if seq < next_seq {
                    // Duplicate of an already-applied batch: re-ack (the
                    // first ack may have been dropped)...
                    ep.send(coord, epoch, Msg::StageAck { seq });
                    // ...and if it was the final batch, its ack's loss
                    // means staging already finished.
                    if last && seq + 1 == next_seq {
                        return Ok(Some(keys));
                    }
                }
                // seq > next_seq: a delayed batch arrived early; the
                // coordinator will retry the one we actually need.
            }
            Msg::Shutdown => return Ok(None),
            // ReadBlocks cannot arrive before staging finishes (the
            // coordinator is still batching), and the shard-to-
            // coordinator kinds never land on a shard mailbox; named,
            // since a wildcard is denied here, so no message kind is
            // ever silently swallowed.
            Msg::ReadBlocks { .. }
            | Msg::Hello { .. }
            | Msg::StageAck { .. }
            | Msg::Staged { .. }
            | Msg::Heartbeat
            | Msg::Pass { .. }
            | Msg::SortDone { .. }
            | Msg::BlockData { .. }
            | Msg::Fatal { .. } => {}
        }
    }
}

/// Serve the finished sort to the cross-shard stream.  Serving reopens
/// the cluster (the sort incarnation dropped its stack when it
/// journaled the output) through the plan's full read stack — a parity
/// cluster's run addresses are logical, so a bare reopen would read the
/// wrong physical slots.  Reads are idempotent, post-trace, and still
/// fenced so a superseded server cannot answer for its replacement.
#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
fn serve(
    plan: &ShardPlan,
    ep: &Endpoint,
    epoch: u64,
    fence: &FenceFlag,
    meta: &OutputMeta,
) -> Result<Exit> {
    let coord = plan.coord();
    let mut array = match meta.run {
        Some(_) => Some(shard_stack(plan, open_base(plan, false)?, fence, false)?),
        None => None,
    };
    let mut served = 0u64;
    let mut heard = false;
    let mut idle = 0u32;
    loop {
        if fence.is_fired() {
            return Ok(Exit::Killed);
        }
        let Some(env) = ep.recv_timeout(plan.heartbeat) else {
            // The one-shot `SortDone` can be lost to the channel; until
            // the coordinator speaks to this epoch (a merge read or a
            // shutdown — either proves it knows we are serving),
            // re-announce so it cannot wait forever on a done shard.
            if !heard {
                idle += 1;
                if idle >= 4 {
                    idle = 0;
                    announce_done(plan, ep, epoch, meta);
                }
            }
            continue;
        };
        if env.epoch != epoch {
            continue;
        }
        heard = true;
        match env.msg {
            Msg::ReadBlocks { req, first, count } => {
                if matches!(plan.kill, Some(KillPoint::Merge(after)) if served >= after) {
                    return Ok(Exit::Killed);
                }
                // A window past the run's end (or any window of an empty
                // shard) is answered, empty: silence would read as a
                // dead shard and cost a spurious fence-and-respawn.
                let keys = match (&meta.run, array.as_mut()) {
                    (Some(run), Some(arr)) => {
                        let window = submit_window(arr, run, first, count)?;
                        complete_window(arr, window)?
                    }
                    _ => Vec::new(),
                };
                ep.send(coord, epoch, Msg::BlockData { req, first, keys });
                served += 1;
            }
            Msg::Shutdown => return Ok(Exit::Completed),
            // A serving shard's input is already durable, so Stage is a
            // stale retransmit; the shard-to-coordinator kinds never
            // land on a shard mailbox.  Named, since a wildcard is
            // denied here, so no message kind is swallowed.
            Msg::Stage { .. }
            | Msg::Hello { .. }
            | Msg::StageAck { .. }
            | Msg::Staged { .. }
            | Msg::Heartbeat
            | Msg::Pass { .. }
            | Msg::SortDone { .. }
            | Msg::BlockData { .. }
            | Msg::Fatal { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concat::window_blocks;
    use crate::coord::{plan_for, DistConfig};
    use pdisk::DiskId;
    use srm_core::RunWriter;
    use srm_server::JobSpec;

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

    /// Serving an n-block run window by window costs exactly ceil(n/D)
    /// parallel reads — only the run's last stripe may be narrow — on
    /// the bare cluster and through the parity stack alike; a window
    /// straddling the run's end is clamped and one past it is empty.
    #[test]
    fn a_served_run_costs_one_parallel_read_per_stripe() {
        fn check<A: DiskArray<U64Record>>(mut array: A, geom: Geometry) {
            let keys: Vec<u64> = (0..(49 * geom.b as u64 + 5)).map(|k| k * 7).collect();
            let mut writer = RunWriter::new(geom, DiskId(1));
            for &k in &keys {
                writer.push(&mut array, U64Record(k)).unwrap();
            }
            let run = writer.finish(&mut array).unwrap();
            assert_eq!(run.len_blocks, 50, "not a multiple of D = 3");
            array.reset_stats();

            let window = window_blocks(geom);
            let mut served = Vec::new();
            for first in (0..run.len_blocks).step_by(window as usize) {
                let stripes = submit_window(&mut array, &run, first, window).unwrap();
                assert_eq!(stripes.in_flight() as u64, (window.min(50 - first)).div_ceil(3));
                served.extend(complete_window(&mut array, stripes).unwrap());
            }
            assert_eq!(served, keys);
            assert_eq!(array.stats().read_ops, 50u64.div_ceil(3));
            assert_eq!(array.stats().blocks_read, 50);

            let past = submit_window(&mut array, &run, 50, window).unwrap();
            assert!(complete_window(&mut array, past).unwrap().is_empty());
            let huge = submit_window(&mut array, &run, 48, u64::MAX).unwrap();
            assert_eq!(complete_window(&mut array, huge).unwrap(), keys[48 * geom.b..]);
            assert_eq!(array.stats().read_ops, 50u64.div_ceil(3) + 1);
        }

        let spec = JobSpec { d: 3, b: 16, m: 512, ..JobSpec::default() };
        let geom = spec.geometry().unwrap();
        let root = std::env::temp_dir().join(format!("srm-dist-window-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut plan = plan_for(&spec, &DistConfig::new(2), geom, &root, 0, None);
        std::fs::create_dir_all(&plan.dir).unwrap();
        check(open_base(&plan, true).unwrap(), geom);
        plan.parity = true;
        let base = open_base(&plan, true).unwrap();
        check(shard_stack(&plan, base, &FenceFlag::new(), false).unwrap(), geom);
        let _ = std::fs::remove_dir_all(&root);
    }
}
