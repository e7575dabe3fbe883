//! The coordinator: splitter sampling, heartbeat failure detection,
//! fence-and-respawn recovery, and the degraded cross-shard fold.
//!
//! The protocol has three phases:
//!
//! 1. **Splitting** — sample `P − 1` splitters from the spec's input.
//!    Shard `s` is booted with its [`KeyRange`] and derives its own
//!    partition from the spec's generator, so no key crosses the
//!    channel.
//! 2. **Sorting** — each shard runs an ordinary checkpointed SRM sort on
//!    its own disk cluster, forming its runs from the partition it holds
//!    (its pass-0 manifest is its first durable state); the coordinator
//!    just watches heartbeats.
//! 3. **Folding** — the shards' sorted runs, in splitter order, are the
//!    output, and stay where the shards wrote them.  The coordinator
//!    checks and digests them through the [`crate::fold`] chain: shard
//!    `s` folds its own keys onto the carry as soon as shards `0..=s`
//!    are done, one request per shard (resent with bounded retries,
//!    exponential backoff and jitter, reusing the [`pdisk::RetryPolicy`]
//!    schedule), in the same loop that watches heartbeats, so the folds
//!    overlap the slower shards' sorts.
//!
//! The whole time, a heartbeat failure detector watches every shard.  A
//! silent shard is declared dead, **fenced** (a thread's storage refuses
//! all further I/O, a child process is killed and reaped, and its epoch
//! is retired), and replaced by a fresh
//! instance booted on the same durable directory — which derives its
//! partition again and resumes from the journaled checkpoint (rebuilding
//! lost blocks from parity first when `--parity` is on), or forms its
//! runs afresh when it died before the first one.  The fold does not
//! abort while this happens: it *stalls* on the dead shard and asks its
//! replacement once that is done, so a node death degrades throughput,
//! not correctness.
//!
//! This one loop drives both modes: a shard incarnation is a thread of
//! this process or, under `--procs`, a child process behind two pipes
//! ([`crate::procs`]).  The modes differ only in how an incarnation
//! starts and how it is fenced.

use crate::error::{DistError, Result};
use crate::fence::FenceFlag;
use crate::fold::{Carry, Chain, Step};
use crate::msg::{Envelope, Msg};
use crate::net::{Endpoint, NetStats, Network};
use crate::procs::{spawn_child, write_plan};
use crate::shard::{run_shard, KillPoint, ShardPlan};
use crate::split::{sample_splitters, KeyRange};
use pdisk::{FileDiskArray, Geometry, NetFaultModel, RetryPolicy, U64Record};
use srm_core::RunFormation;
use srm_server::{expected_digest, JobSpec, ShardMs};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A `--kill-node` drill: which shard to strike, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// The doomed shard.
    pub shard: u32,
    /// When its first incarnation dies.
    pub point: KillPoint,
}

/// Parse a `--kill-node` spec: `N@PASS` or `N@merge`.
pub fn parse_kill_node(s: &str) -> Result<KillPlan> {
    let bad = || DistError::Config(format!("bad --kill-node `{s}` (want N@PASS or N@merge)"));
    let (shard, point) = s.split_once('@').ok_or_else(bad)?;
    let shard: u32 = shard.parse().map_err(|_| bad())?;
    if point.starts_with("merge:") {
        return Err(DistError::Config(format!(
            "--kill-node `{s}`: a shard answers one fold request, so it can only die on that one \
             (write {shard}@merge)"
        )));
    }
    Ok(KillPlan { shard, point: point.parse().map_err(|_| bad())? })
}

/// Knobs of the distributed run (everything that is not the job itself).
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Shard count `P` (each shard gets its own D-disk cluster).
    pub shards: u32,
    /// Rotating parity on every shard cluster, enabling the
    /// rebuild-from-parity recovery path.
    pub parity: bool,
    /// Shard heartbeat interval.
    pub heartbeat: Duration,
    /// Failure-detector timeout: a shard silent this long is declared
    /// dead, fenced, and replaced.
    pub timeout: Duration,
    /// How long one RPC attempt waits before retrying.
    pub rpc_timeout: Duration,
    /// Retry schedule for fold requests (attempt count, exponential
    /// backoff, jitter).
    pub retry: RetryPolicy,
    /// Channel fault regime (drops, delays, duplicates, partitions).
    pub net: NetFaultModel,
    /// Armed node-death drill, if any.
    pub kill: Option<KillPlan>,
    /// With `parity`, the kill drill also trashes this disk of the
    /// victim's cluster between the death and the replacement's boot —
    /// the "node died and took sectors with it" scenario.  The
    /// replacement's pre-resume scrub must heal every lost block.
    pub corrupt_disk: Option<usize>,
    /// Per-disk I/O service delay on every shard cluster: the device a
    /// shard's sorter chooses its formation by, unless the spec names one.
    pub io_delay: Duration,
    /// Hard cap on recoveries per node — the circuit breaker that turns
    /// a crash loop into an error instead of an infinite fence/respawn
    /// cycle.
    pub max_recoveries: u32,
    /// Disk-full drill: `(shard, write ordinal)` — the named shard's
    /// cluster hits ENOSPC on that write.  ENOSPC is not retryable and
    /// not survivable by respawning (the replacement would land on the
    /// same full volume), so the shard reports it as a fatal typed
    /// error and the whole sort fails cleanly.
    pub fill_write: Option<(u32, u64)>,
}

impl DistConfig {
    /// Defaults tuned for tests: tight heartbeats, a detector timeout a
    /// few multiples above them, and a jittered exponential retry.
    pub fn new(shards: u32) -> Self {
        DistConfig {
            shards,
            parity: false,
            heartbeat: Duration::from_millis(15),
            timeout: Duration::from_millis(250),
            rpc_timeout: Duration::from_millis(80),
            retry: RetryPolicy::new(6, Duration::from_millis(5)).with_full_jitter(0xD1_57),
            net: NetFaultModel::none(),
            kill: None,
            corrupt_disk: None,
            io_delay: Duration::ZERO,
            max_recoveries: 8,
            fill_write: None,
        }
    }

    /// Refuse a configuration before any shard starts: every drill must
    /// name a shard, and a disk, that the run has, and the failure
    /// detector must be able to hear a live shard.
    pub(crate) fn validate(&self, geom: Geometry) -> Result<()> {
        if self.shards == 0 {
            return Err(DistError::Config("at least one shard is required".into()));
        }
        if self.timeout <= self.heartbeat {
            let (timeout, heartbeat) = (self.timeout.as_millis(), self.heartbeat.as_millis());
            return Err(DistError::Config(format!(
                "--timeout-ms {timeout} must exceed --heartbeat-ms {heartbeat}, or every live shard is declared dead"
            )));
        }
        if let Some(k) = &self.kill {
            if k.shard >= self.shards {
                return Err(DistError::Config(format!(
                    "--kill-node shard {} out of range (P = {})",
                    k.shard, self.shards
                )));
            }
        }
        if self.corrupt_disk.is_some() {
            if self.kill.is_none() {
                return Err(DistError::Config(
                    "--corrupt-disk is part of the kill drill: it needs --kill-node".into(),
                ));
            }
            if !self.parity {
                return Err(DistError::Config(
                    "--corrupt-disk destroys data; only --parity can rebuild it".into(),
                ));
            }
        }
        if let Some(disk) = self.corrupt_disk.filter(|&d| d >= geom.d) {
            return Err(DistError::Config(format!("--corrupt-disk {disk} out of range (D = {})", geom.d)));
        }
        if let Some((shard, _)) = self.fill_write {
            if shard >= self.shards {
                return Err(DistError::Config(format!(
                    "--fill-write shard {shard} out of range (P = {})",
                    self.shards
                )));
            }
        }
        Ok(())
    }
}

/// Per-shard accounting in the final report.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Records the shard sorted.
    pub records: u64,
    /// Blocks in its output run.
    pub blocks: u64,
    /// Merge passes of its logical sort.
    pub passes: u64,
    /// How its runs were formed: its sorter's choice for its record
    /// count, the same in every incarnation.
    pub formation: RunFormation,
    /// Digest of its sorted partition.
    pub digest: u64,
    /// Model-checker events replayed for its finishing incarnation.
    pub trace_events: u64,
    /// That trace was checker-clean.
    pub trace_clean: bool,
    /// Blocks healed from parity during its recoveries.
    pub repaired: u64,
    /// Times this node was declared dead and replaced.
    pub recoveries: u32,
    /// Its finishing incarnation's wall-clock, by phase.
    pub ms: ShardMs,
}

/// Where a distributed sort's wall-clock went, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMs {
    /// Generate the input and sample the splitters.
    pub split: u64,
    /// Spawning the shards until the last one reported its sort done
    /// (each shard deriving its partition included).
    pub shards: u64,
    /// The fold's tail: from the last shard's sort done until the carry
    /// has passed every shard.  Folds of shards that finish early run
    /// inside `shards`.
    pub merge: u64,
    /// The part of `merge` spent waiting on a shard's fold reply.
    pub merge_wait: u64,
}

/// What a distributed sort did.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Total records sorted.
    pub records: u64,
    /// Shard count.
    pub shards: u32,
    /// The sampled splitter keys.
    pub splitters: Vec<u64>,
    /// Digest of the global output (the shards' runs in splitter order).
    pub digest: u64,
    /// The digest matched the centrally computed expectation.
    pub oracle_ok: bool,
    /// Per-shard accounting.
    pub per_shard: Vec<ShardReport>,
    /// Total fence-and-respawn recoveries.
    pub recoveries: u64,
    /// Fold stalls: a shard asked for its fold went silent and was
    /// replaced.
    pub merge_stalls: u64,
    /// Wall-clock of each recovery, fence to replacement-ready, or to the
    /// fence of the next recovery of the shard, which supersedes it.
    pub recovery_ms: Vec<u64>,
    /// Channel-level delivery counters.
    pub net: NetStats,
    /// End-to-end wall-clock.
    pub elapsed_ms: u64,
    /// The same wall-clock, by phase.
    pub phase_ms: PhaseMs,
}

/// Stop-and-wait retransmission state of one outstanding request.
struct Resend {
    attempts: u32,
    sent_at: Instant,
    wait: Duration,
}

/// What an outstanding request needs now.
enum Due {
    NotYet,
    /// Send it again (the attempt is already counted).
    Resend,
    /// The retry budget is spent: escalate to the failure detector.
    Exhausted,
}

impl Resend {
    fn new(cfg: &DistConfig) -> Self {
        Resend {
            attempts: 1,
            sent_at: Instant::now(),
            wait: cfg.rpc_timeout,
        }
    }

    /// Advance the schedule to `now`: each retransmission waits the RPC
    /// timeout plus a jittered exponential backoff.
    fn poll(&mut self, now: Instant, cfg: &DistConfig, nonce: u64) -> Due {
        if now.duration_since(self.sent_at) <= self.wait {
            return Due::NotYet;
        }
        if self.attempts >= cfg.retry.max_attempts {
            return Due::Exhausted;
        }
        self.attempts += 1;
        self.sent_at = now;
        self.wait = cfg.rpc_timeout + cfg.retry.jittered_backoff(self.attempts, nonce);
        Due::Resend
    }
}

/// The chain's one outstanding fold request.
struct Ask {
    shard: usize,
    carry: Carry,
    resend: Resend,
}

/// Coordinator-side state of one node slot.
struct Node {
    epoch: u64,
    fence: FenceFlag,
    /// The current incarnation's process, under `--procs`.
    child: Option<Child>,
    last_seen: Instant,
    /// Its sort is done and it holds its keys for the fold.
    done: bool,
    report: ShardReport,
    recovery_started: Option<Instant>,
    /// Every thread any incarnation ran on: the shard's own, or a
    /// child's two pumps.
    handles: Vec<JoinHandle<()>>,
}

impl Node {
    /// Fence the current incarnation: fire its flag, which a thread's
    /// storage and a child's pumps obey, and kill and reap a child, so
    /// its successor never races it and the kernel frees its lock.
    fn fence(&mut self) {
        self.fence.fire();
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

struct Coordinator<'a> {
    spec: &'a JobSpec,
    cfg: &'a DistConfig,
    /// Under `--procs`, the `srm` binary each incarnation is a child
    /// process of; a thread of this process otherwise.
    procs: Option<&'a Path>,
    geom: Geometry,
    root: PathBuf,
    net: Network,
    ep: Endpoint,
    nodes: Vec<Node>,
    splitters: Vec<u64>,
    ranges: Vec<KeyRange>,
    recoveries: u64,
    merge_stalls: u64,
    recovery_ms: Vec<u64>,
    rpc_nonce: u64,
    chain: Chain,
    ask: Option<Ask>,
}

/// Run a full distributed sort of `spec` across `cfg.shards` simulated
/// nodes rooted at `root` (one subdirectory per shard, whose sorted run
/// is that shard's share of the output).  Returns the report; the
/// directory tree is left in place for the caller to inspect or delete.
pub fn distsort(spec: &JobSpec, cfg: &DistConfig, root: &Path) -> Result<DistReport> {
    run_distsort(spec, cfg, root, None)
}

/// [`distsort`], each shard incarnation a thread or, with `procs`, a
/// child process of that `srm` binary.
pub(crate) fn run_distsort(spec: &JobSpec, cfg: &DistConfig, root: &Path, procs: Option<&Path>) -> Result<DistReport> {
    spec.validate()?;
    cfg.validate(spec.geometry()?)?;
    let started = Instant::now();
    let splitters = sample_input(spec, cfg.shards);
    let split = started.elapsed();
    let ranges = (0..cfg.shards).map(|s| KeyRange::of(&splitters, s)).collect();
    let mut report = distsort_ranged(spec, cfg, root, splitters, ranges, procs)?;
    report.phase_ms.split = split.as_millis() as u64;
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

/// Phase 0, shared by both modes: generate the input and sample its
/// splitters, a pure function of (spec, P) — so any replacement derives
/// the partition the failure-free run sorted.
pub(crate) fn sample_input(spec: &JobSpec, shards: u32) -> Vec<u64> {
    sample_splitters(&spec.input_records(), shards, spec.seed)
}

/// Everything after the split: boot shard `s` on `ranges[s]`, sort,
/// fold.
fn distsort_ranged(
    spec: &JobSpec,
    cfg: &DistConfig,
    root: &Path,
    splitters: Vec<u64>,
    ranges: Vec<KeyRange>,
    procs: Option<&Path>,
) -> Result<DistReport> {
    std::fs::create_dir_all(root)
        .map_err(|e| DistError::Io(format!("create {}: {e}", root.display())))?;
    if procs.is_some() {
        write_plan(spec, cfg, &splitters, root)?;
    }
    let (net, mut endpoints) = Network::new(cfg.shards + 1, cfg.net.clone());
    let ep = endpoints.pop().ok_or_else(|| {
        DistError::Net("network built without a coordinator endpoint".into())
    })?;

    let mut coord = Coordinator {
        spec,
        cfg,
        procs,
        geom: spec.geometry()?,
        root: root.to_path_buf(),
        net,
        ep,
        nodes: Vec::new(),
        splitters,
        ranges,
        recoveries: 0,
        merge_stalls: 0,
        recovery_ms: Vec::new(),
        rpc_nonce: 0,
        chain: Chain::default(),
        ask: None,
    };

    // Start every shard (the drill target armed), then drive heartbeats
    // and the fold until the carry has passed every shard.
    let result = endpoints
        .into_iter()
        .enumerate()
        .try_for_each(|(s, endpoint)| {
            coord.nodes.push(Node {
                epoch: 0,
                fence: FenceFlag::new(),
                child: None,
                last_seen: Instant::now(),
                done: false,
                report: ShardReport::default(),
                recovery_started: None,
                handles: Vec::new(),
            });
            coord.boot(s, endpoint, cfg.kill.filter(|k| k.shard as usize == s).map(|k| k.point))
        })
        .and_then(|()| coord.run());
    coord.shutdown();
    result
}

/// Build shard `shard`'s plan — THE one derivation the coordinator and
/// the `--procs` children use, so every incarnation of a shard
/// (original, replacement, thread or child process) makes identical
/// randomized choices.
pub(crate) fn plan_for(
    spec: &JobSpec,
    cfg: &DistConfig,
    geom: Geometry,
    root: &Path,
    shard: u32,
    keys: KeyRange,
    kill: Option<KillPoint>,
) -> ShardPlan {
    let salt = (u64::from(shard) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ShardPlan {
        shard,
        shards: cfg.shards,
        dir: root.join(format!("shard-{shard:03}")),
        geom,
        spec: spec.clone(),
        keys,
        sorter: JobSpec {
            seed: spec.seed.wrapping_add(salt),
            ..spec.clone()
        }
        .build(None),
        parity: cfg.parity,
        fault_rate: spec.fault_rate,
        fault_seed: spec.fault_seed.wrapping_add(salt),
        io_delay: cfg.io_delay,
        heartbeat: cfg.heartbeat,
        kill,
        process: false,
        fill_write: cfg
            .fill_write
            .and_then(|(s, n)| (s == shard).then_some(n)),
    }
}

/// Trash the leading slots of one disk file in a shard's cluster —
/// simulated media loss riding along with a node death.  Leading (not
/// trailing) slots so the damage lands on checkpointed runs rather than
/// in the reopen recovery's torn-tail window, and `0xFF` fill so every
/// touched frame fails its checksum instead of decoding by accident.
/// [`DistConfig::validate`] has checked `disk` against the geometry.
pub(crate) fn corrupt_disk_file(plan: &ShardPlan, disk: usize) -> Result<()> {
    let path = pdisk::file::disk_path(&plan.disks_dir(), disk);
    let io = |e: std::io::Error| DistError::Io(format!("corrupt {}: {e}", path.display()));
    let slot_bytes = FileDiskArray::<U64Record>::slot_bytes_for(plan.geom) as u64;
    let len = std::fs::metadata(&path).map_err(io)?.len();
    let damage = (slot_bytes * 6).min(len) as usize;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .map_err(io)?;
    use std::os::unix::fs::FileExt as _;
    file.write_all_at(&vec![0xFF; damage], 0).map_err(io)?;
    file.sync_all().map_err(io)
}

impl Coordinator<'_> {
    fn plan(&self, shard: u32, kill: Option<KillPoint>) -> ShardPlan {
        plan_for(self.spec, self.cfg, self.geom, &self.root, shard, self.ranges[shard as usize], kill)
    }

    /// Start shard `s`'s current incarnation on `ep`, armed with `kill`:
    /// a thread, or a child process behind two pumps.
    fn boot(&mut self, s: usize, ep: Endpoint, kill: Option<KillPoint>) -> Result<()> {
        let plan = self.plan(s as u32, kill);
        let node = &mut self.nodes[s];
        let (epoch, fence) = (node.epoch, node.fence.clone());
        match self.procs {
            None => node.handles.push(std::thread::spawn(move || run_shard(plan, ep, epoch, fence))),
            Some(bin) => {
                let (child, pumps) = spawn_child(bin, &self.root, &plan, ep, epoch, fence)?;
                node.child = Some(child);
                node.handles.extend(pumps);
            }
        }
        node.last_seen = Instant::now();
        Ok(())
    }

    fn run(&mut self) -> Result<DistReport> {
        let spawned = Instant::now();
        let (mut sorted, mut wait) = (None, Duration::ZERO);
        let out = loop {
            let done: Vec<Option<u64>> = self
                .nodes
                .iter()
                .map(|n| n.done.then_some(n.report.records))
                .collect();
            if sorted.is_none() && done.iter().all(Option::is_some) {
                sorted = Some(spawned.elapsed());
            }
            match self.chain.step(&done) {
                Step::Complete(carry) => break carry,
                Step::Ask(shard, carry) if self.ask.is_none() => {
                    self.ask = Some(Ask { shard, carry, resend: Resend::new(self.cfg) });
                    self.send_fold();
                }
                Step::Ask(..) | Step::Wait => {}
            }
            let blocked = Instant::now();
            let env = self.ep.recv_timeout(self.cfg.heartbeat);
            if sorted.is_some() {
                wait += blocked.elapsed();
            }
            if let Some(env) = env {
                self.handle(env)?;
            }
            self.tick()?;
        };
        let shards = sorted.unwrap_or_default();
        let merge = spawned.elapsed() - shards;
        let per_shard: Vec<ShardReport> = self.nodes.iter().map(|n| n.report.clone()).collect();
        Ok(DistReport {
            records: out.records,
            shards: self.cfg.shards,
            splitters: std::mem::take(&mut self.splitters),
            digest: out.digest,
            oracle_ok: out.digest == expected_digest(self.spec) && out.records == self.spec.records,
            per_shard,
            recoveries: self.recoveries,
            merge_stalls: self.merge_stalls,
            recovery_ms: std::mem::take(&mut self.recovery_ms),
            net: self.net.stats(),
            elapsed_ms: 0,
            // `split` happened before this coordinator existed: the
            // caller fills it in, like `elapsed_ms`.
            phase_ms: PhaseMs {
                shards: shards.as_millis() as u64,
                merge: merge.as_millis() as u64,
                merge_wait: wait.as_millis() as u64,
                ..PhaseMs::default()
            },
        })
    }

    /// Process one shard message (epoch-checked).
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    fn handle(&mut self, env: Envelope) -> Result<()> {
        let s = env.src as usize;
        if s >= self.nodes.len() || env.epoch != self.nodes[s].epoch {
            return Ok(()); // a fenced predecessor (or stale duplicate)
        }
        self.nodes[s].last_seen = Instant::now();
        match env.msg {
            Msg::SortDone { done } => {
                let formation = self.plan(env.src, None).sorter.formation(self.geom, done.records, self.cfg.io_delay)?;
                let node = &mut self.nodes[s];
                node.report = ShardReport {
                    records: done.records,
                    blocks: done.run.map_or(0, |r| r.len_blocks),
                    passes: done.passes,
                    formation,
                    digest: done.digest,
                    trace_events: done.trace_events,
                    // A descriptor is published only once its checks pass.
                    trace_clean: true,
                    repaired: node.report.repaired + done.repaired,
                    recoveries: node.report.recoveries,
                    ms: done.ms,
                };
                node.done = true;
                if let Some(t) = node.recovery_started.take() {
                    self.recovery_ms.push(t.elapsed().as_millis() as u64);
                }
            }
            Msg::Fatal { msg } => {
                return Err(DistError::Shard {
                    shard: env.src,
                    msg,
                });
            }
            // The chain adopts the reply to its outstanding request,
            // whenever it arrives; a duplicate, or the late reply to a
            // resend, finds the carry past this shard and is dropped.
            Msg::Folded { fold } => {
                if self.chain.adopt(s, fold, self.nodes[s].report.records)? {
                    self.ask = None;
                }
            }
            // Heartbeat already bumped last_seen; Pass is progress-only.
            Msg::Heartbeat | Msg::Pass { .. } => {}
            // Shard-bound kinds cannot arrive on the coordinator's
            // mailbox; named, since a wildcard is denied here, so no
            // shard message is ever silently swallowed.
            Msg::Fold { .. } | Msg::Shutdown => {}
        }
        Ok(())
    }

    /// The periodic work: the failure detector and the fold request's
    /// retransmits.
    fn tick(&mut self) -> Result<()> {
        let now = Instant::now();
        for s in 0..self.nodes.len() {
            // A silent node is dead (or unreachable, which must be
            // treated the same — fencing makes the distinction harmless).
            if now.duration_since(self.nodes[s].last_seen) > self.cfg.timeout {
                self.recover(s)?;
            }
        }
        // The fold request is polled only while its shard is done: one
        // being replaced is asked again once its replacement is.
        self.rpc_nonce += 1;
        if let Some(ask) = &mut self.ask {
            let s = ask.shard;
            if self.nodes[s].done {
                match ask.resend.poll(now, self.cfg, self.rpc_nonce) {
                    Due::NotYet => {}
                    Due::Resend => self.send_fold(),
                    Due::Exhausted => self.recover(s)?,
                }
            }
        }
        Ok(())
    }

    /// Declare shard `s` dead: fence it, retire its epoch, rebind its
    /// mailbox, and boot a replacement on the same directory.
    fn recover(&mut self, s: usize) -> Result<()> {
        let node = &mut self.nodes[s];
        if node.report.recoveries >= self.cfg.max_recoveries {
            return Err(DistError::Shard {
                shard: s as u32,
                msg: format!(
                    "crash loop: {} recoveries exhausted",
                    self.cfg.max_recoveries
                ),
            });
        }
        node.fence();
        node.epoch += 1;
        node.fence = FenceFlag::new();
        node.report.recoveries += 1;
        let first_recovery = node.report.recoveries == 1;
        if let Some(superseded) = node.recovery_started.replace(Instant::now()) {
            self.recovery_ms.push(superseded.elapsed().as_millis() as u64);
        }
        self.recoveries += 1;
        // A fold asked of the dead instance stalls: the chain asks its
        // replacement afresh once that is done.
        if self.ask.as_ref().is_some_and(|a| a.shard == s) {
            self.ask = None;
            self.merge_stalls += 1;
        }
        // The drill's optional disk-trashing stage: the victim's death
        // also cost it part of a disk.  Done after the fence (the dead
        // instance can no longer read the rot) and before the
        // replacement boots (whose scrub must heal it).
        if first_recovery
            && self.cfg.kill.is_some_and(|k| k.shard as usize == s)
        {
            if let Some(disk) = self.cfg.corrupt_disk {
                corrupt_disk_file(&self.plan(s as u32, None), disk)?;
            }
        }
        // Replacements boot unarmed: the drill kills a node once.
        let endpoint = self.net.reconnect(s as u32);
        self.boot(s, endpoint, None)?;
        self.nodes[s].done = false;
        Ok(())
    }

    /// (Re)send the outstanding fold request to its shard's current
    /// epoch.
    fn send_fold(&self) {
        if let Some(ask) = &self.ask {
            let epoch = self.nodes[ask.shard].epoch;
            self.ep.send(ask.shard as u32, epoch, Msg::Fold { carry: ask.carry });
        }
    }

    /// Politely stop every shard, then force the issue via the fences
    /// (a Shutdown message can be dropped by the fault model; the fence
    /// cannot), and join every thread this run ever spawned.
    fn shutdown(&mut self) {
        for (s, node) in self.nodes.iter().enumerate() {
            self.ep.send(s as u32, node.epoch, Msg::Shutdown);
        }
        for node in &mut self.nodes {
            node.fence();
            for h in node.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard sorts at the spec's window under its own salted seed:
    /// pipelined with read-ahead 3 unless the spec says otherwise, at
    /// window 0 when it says `pipeline: false` — and on every shard's
    /// partition the two sorters issue the same parallel I/Os and leave
    /// the same bytes.
    #[test]
    fn shard_plans_follow_the_specs_window_and_the_windows_agree() {
        use pdisk::DiskArray as _;

        let (pipelined, cfg, root) = (small_spec(), DistConfig::new(3), scratch("windows"));
        let blocking = JobSpec { pipeline: false, ..small_spec() };
        let geom = pipelined.geometry().unwrap();
        let splitters = sample_input(&pipelined, cfg.shards);
        for shard in 0..cfg.shards {
            let sort = |spec: &JobSpec| {
                let plan = plan_for(spec, &cfg, geom, &root, shard, KeyRange::of(&splitters, shard), None);
                let keys = plan.partition();
                assert_ne!(plan.sorter.config().seed, spec.seed);
                let mut cluster = FileDiskArray::<U64Record>::create(plan.geom, plan.disks_dir()).unwrap();
                let (run, report) = plan.sorter.sort_observed(&mut cluster, srm_core::Input::InMemory(&keys), None, |_, _| Ok(())).unwrap();
                let out = srm_core::read_run(&mut cluster, &run).unwrap();
                let window = (plan.sorter.pipeline(), plan.sorter.read_ahead());
                (window, report.io, cluster.stats(), srm_server::digest_keys(out.iter().map(|r| r.0)))
            };
            let (window, sort_io, total_io, digest) = sort(&pipelined);
            assert_eq!(window, (true, 3), "the default spec opens the window");
            let (window0, sort_io0, total_io0, digest0) = sort(&blocking);
            assert!(!window0.0, "an explicit pipeline: false is honoured");
            assert_eq!((sort_io, total_io, digest), (sort_io0, total_io0, digest0), "shard {shard}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    fn small_spec() -> JobSpec {
        JobSpec { records: 3_000, seed: 0x0DD_BA11, d: 3, b: 16, m: 512, ..JobSpec::default() }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srm-dist-coord-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ranges(splitters: &[u64], shards: u32) -> Vec<KeyRange> {
        (0..shards).map(|s| KeyRange::of(splitters, s)).collect()
    }

    /// Swap two shards' key ranges: every shard still sorts cleanly, but
    /// the runs no longer ascend in splitter order — the fold must
    /// refuse with the typed order error rather than digest a
    /// mis-ordered output.
    #[test]
    fn swapped_partitions_fail_the_order_check() {
        let (spec, cfg, dir) = (small_spec(), DistConfig::new(3), scratch("swap"));
        let splitters = sample_input(&spec, cfg.shards);
        let mut swapped = ranges(&splitters, cfg.shards);
        swapped.swap(0, 1);
        let err = distsort_ranged(&spec, &cfg, &dir, splitters.clone(), swapped, None).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        match err {
            DistError::Order { shard: 1, first: 0, key, prev } => {
                assert!(key < splitters[0] && prev >= splitters[0], "{key:#x} after {prev:#x}");
            }
            other => panic!("want the typed order error, got {other}"),
        }
    }

    /// Splitters that coincide (as they do when P exceeds the number of
    /// distinct keys) leave the first and the middle shards empty: the
    /// chain must pass over them without a request or a stall.
    #[test]
    fn empty_leading_and_middle_shards_are_skipped() {
        let (spec, cfg, dir) = (small_spec(), DistConfig::new(5), scratch("holes"));
        let splitters = vec![0, 1 << 63, 1 << 63, 1 << 63];
        let report =
            distsort_ranged(&spec, &cfg, &dir, splitters.clone(), ranges(&splitters, cfg.shards), None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let records: Vec<u64> = report.per_shard.iter().map(|s| s.records).collect();
        assert_eq!(records.iter().map(|&n| n == 0).collect::<Vec<_>>(), [true, false, true, true, false]);
        assert!(report.oracle_ok);
        assert_eq!(report.records, spec.records);
        assert_eq!((report.merge_stalls, report.recoveries), (0, 0));
    }
}
