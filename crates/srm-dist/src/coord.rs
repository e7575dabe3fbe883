//! The coordinator: splitter sampling, record routing, heartbeat failure
//! detection, fence-and-respawn recovery, and the degraded cross-shard
//! merge.
//!
//! The protocol has three phases:
//!
//! 1. **Staging** — sample `P − 1` splitters, route every record to its
//!    shard, and ship each shard's partition in stop-and-wait batches
//!    (bounded retries with exponential backoff + jitter, reusing the
//!    [`pdisk::RetryPolicy`] schedule).  A shard journals its partition
//!    before acknowledging, so staging survives any channel fault.
//! 2. **Sorting** — each shard runs an ordinary checkpointed SRM sort on
//!    its own disk cluster; the coordinator just watches heartbeats.
//! 3. **Merging** — a striped k-way merge over block RPCs against the
//!    shards' sorted runs, written through [`srm_core::RunWriter`] to
//!    the coordinator's own output cluster.
//!
//! The whole time, a heartbeat failure detector watches every shard.  A
//! silent shard is declared dead, **fenced** (its storage refuses all
//! further I/O and its epoch is retired), and replaced by a fresh
//! instance booted on the same durable directory — which resumes from
//! the journaled checkpoint (rebuilding lost blocks from parity first
//! when `--parity` is on).  The merge does not abort while this happens:
//! it *stalls* on the dead shard's stream and resumes when the
//! replacement starts serving, so a node death degrades throughput, not
//! correctness.

use crate::error::{DistError, Result};
use crate::msg::{Envelope, Msg};
use crate::net::{Endpoint, NetStats, Network};
use crate::shard::{run_shard, KillPoint, ShardPlan};
use crate::split::{route, sample_splitters};
use pdisk::{DiskArray, DiskId, FileDiskArray, NetFaultModel, RetryPolicy, U64Record};
use srm_core::RunWriter;
use srm_server::{expected_digest, generate_records, JobSpec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fence::FenceFlag;

/// Keys per staging batch.
const STAGE_BATCH: usize = 4096;

/// A `--kill-node` drill: which shard to strike, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// The doomed shard.
    pub shard: u32,
    /// When its first incarnation dies.
    pub point: KillPoint,
}

/// Parse a `--kill-node` spec: `N@PASS`, `N@merge`, or `N@merge:K`
/// (die after serving `K` merge block requests; default 1).
pub fn parse_kill_node(s: &str) -> Result<KillPlan> {
    let bad = || DistError::Config(format!("bad --kill-node `{s}` (want N@PASS or N@merge[:K])"));
    let (shard, point) = s.split_once('@').ok_or_else(bad)?;
    let shard: u32 = shard.parse().map_err(|_| bad())?;
    let point = if let Some(rest) = point.strip_prefix("merge") {
        let after = match rest.strip_prefix(':') {
            Some(k) => k.parse().map_err(|_| bad())?,
            None if rest.is_empty() => 1,
            None => return Err(bad()),
        };
        KillPoint::Merge(after)
    } else {
        KillPoint::Pass(point.parse().map_err(|_| bad())?)
    };
    Ok(KillPlan { shard, point })
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
    /// Retry schedule for staging batches and merge block RPCs
    /// (attempt count, exponential backoff, jitter).
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
    /// Per-disk I/O service delay on every shard cluster.
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

    fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(DistError::Config("at least one shard is required".into()));
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
    /// Digest of the merged global output.
    pub digest: u64,
    /// The digest matched the centrally computed expectation.
    pub oracle_ok: bool,
    /// Per-shard accounting.
    pub per_shard: Vec<ShardReport>,
    /// Total fence-and-respawn recoveries.
    pub recoveries: u64,
    /// Merge stalls (a source went silent mid-merge and was replaced).
    pub merge_stalls: u64,
    /// Wall-clock of each recovery, fence to replacement-ready.
    pub recovery_ms: Vec<u64>,
    /// Channel-level delivery counters.
    pub net: NetStats,
    /// End-to-end wall-clock.
    pub elapsed_ms: u64,
}

/// A shard's staging progress (stop-and-wait, one batch in flight).
struct StageProgress {
    next: usize,
    attempts: u32,
    sent_at: Instant,
    wait: Duration,
}

/// Where a shard is in its lifecycle, as the coordinator sees it.
enum Phase {
    /// Spawned; waiting for its `Hello`.
    Waiting,
    /// Feeding it staging batches.
    Staging(StageProgress),
    /// It has its input and is sorting.
    Sorting,
    /// Its sort is done and it is serving merge reads.
    Done,
}

/// A shard's `SortDone` facts the merge needs.
#[derive(Clone, Copy)]
struct DoneInfo {
    blocks: u64,
}

/// Coordinator-side state of one node slot.
struct Node {
    epoch: u64,
    fence: FenceFlag,
    last_seen: Instant,
    phase: Phase,
    done: Option<DoneInfo>,
    report: ShardReport,
    recovery_started: Option<Instant>,
    handles: Vec<JoinHandle<()>>,
}

struct Coordinator<'a> {
    spec: &'a JobSpec,
    cfg: &'a DistConfig,
    geom: pdisk::Geometry,
    root: PathBuf,
    net: Network,
    ep: Endpoint,
    nodes: Vec<Node>,
    batches: Vec<Vec<Vec<u64>>>,
    splitters: Vec<u64>,
    recoveries: u64,
    merge_stalls: u64,
    recovery_ms: Vec<u64>,
    rpc_nonce: u64,
}

/// Run a full distributed sort of `spec` across `cfg.shards` simulated
/// nodes rooted at `root` (one subdirectory per shard plus the global
/// output cluster).  Returns the report; the directory tree is left in
/// place for the caller to inspect or delete.
pub fn distsort(spec: &JobSpec, cfg: &DistConfig, root: &Path) -> Result<DistReport> {
    cfg.validate()?;
    spec.validate()?;
    let started = Instant::now();
    std::fs::create_dir_all(root)
        .map_err(|e| DistError::Io(format!("create {}: {e}", root.display())))?;

    // Phase 0: generate, sample, route.  Splitters are a pure function
    // of (spec, P), so any replacement re-staged later gets the same
    // partition the failure-free run would have.
    let records = generate_records(spec.records, spec.seed);
    let splitters = sample_splitters(&records, cfg.shards, spec.seed);
    let buckets = route(&records, &splitters, cfg.shards);
    drop(records);
    let batches: Vec<Vec<Vec<u64>>> = buckets
        .into_iter()
        .map(|bucket| {
            if bucket.is_empty() {
                vec![Vec::new()] // one empty, final batch
            } else {
                bucket.chunks(STAGE_BATCH).map(<[u64]>::to_vec).collect()
            }
        })
        .collect();

    let (net, mut endpoints) = Network::new(cfg.shards + 1, cfg.net.clone());
    let ep = endpoints.pop().ok_or_else(|| {
        DistError::Net("network built without a coordinator endpoint".into())
    })?;

    let mut coord = Coordinator {
        spec,
        cfg,
        geom: spec.geometry()?,
        root: root.to_path_buf(),
        net,
        ep,
        nodes: Vec::new(),
        batches,
        splitters,
        recoveries: 0,
        merge_stalls: 0,
        recovery_ms: Vec::new(),
        rpc_nonce: 0,
    };

    // Phase 1+2: spawn every shard (the drill target armed), then drive
    // staging and watch heartbeats until every sort is done.
    let now = Instant::now();
    for (shard, endpoint) in endpoints.into_iter().enumerate() {
        let shard = shard as u32;
        let fence = FenceFlag::new();
        let kill = cfg.kill.filter(|k| k.shard == shard).map(|k| k.point);
        let plan = coord.plan(shard, kill);
        let ep_fence = fence.clone();
        let handle = std::thread::spawn(move || run_shard(plan, endpoint, 0, ep_fence));
        coord.nodes.push(Node {
            epoch: 0,
            fence,
            last_seen: now,
            phase: Phase::Waiting,
            done: None,
            report: ShardReport::default(),
            recovery_started: None,
            handles: vec![handle],
        });
    }

    let result = coord.run();
    coord.shutdown();
    let mut report = result?;
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

/// Build shard `shard`'s plan — THE one derivation both the thread-mode
/// coordinator and the process-mode children use, so every incarnation
/// of a shard (original, replacement, or child process) makes identical
/// randomized choices.
pub(crate) fn plan_for(
    spec: &JobSpec,
    cfg: &DistConfig,
    geom: pdisk::Geometry,
    root: &Path,
    shard: u32,
    kill: Option<KillPoint>,
) -> ShardPlan {
    let salt = (u64::from(shard) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ShardPlan {
        shard,
        shards: cfg.shards,
        dir: root.join(format!("shard-{shard:03}")),
        geom,
        sorter: JobSpec {
            seed: spec.seed.wrapping_add(salt),
            ..spec.clone()
        }
        .srm_sorter(),
        parity: cfg.parity,
        fault_rate: spec.fault_rate,
        fault_seed: spec.fault_seed.wrapping_add(salt),
        io_delay: cfg.io_delay,
        heartbeat: cfg.heartbeat,
        kill,
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
fn corrupt_disk_file(plan: &ShardPlan, disk: usize) -> Result<()> {
    use pdisk::Record as _;
    if disk >= plan.geom.d {
        return Err(DistError::Config(format!(
            "--corrupt-disk {disk} out of range (D = {})",
            plan.geom.d
        )));
    }
    let path = plan.disks_dir().join(format!("disk_{disk:04}.bin"));
    let io = |e: std::io::Error| DistError::Io(format!("corrupt {}: {e}", path.display()));
    let slot_bytes =
        8 + 8 + 8 * plan.geom.d.max(1) + plan.geom.b * U64Record::ENCODED_LEN;
    let len = std::fs::metadata(&path).map_err(io)?.len();
    let damage = ((slot_bytes * 6) as u64).min(len) as usize;
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
        plan_for(self.spec, self.cfg, self.geom, &self.root, shard, kill)
    }

    fn run(&mut self) -> Result<DistReport> {
        self.await_all_done()?;
        let (digest, out_records) = self.merge()?;
        let oracle = expected_digest(self.spec);
        let per_shard: Vec<ShardReport> = self.nodes.iter().map(|n| n.report.clone()).collect();
        Ok(DistReport {
            records: out_records,
            shards: self.cfg.shards,
            splitters: std::mem::take(&mut self.splitters),
            digest,
            oracle_ok: digest == oracle && out_records == self.spec.records,
            per_shard,
            recoveries: self.recoveries,
            merge_stalls: self.merge_stalls,
            recovery_ms: std::mem::take(&mut self.recovery_ms),
            net: self.net.stats(),
            elapsed_ms: 0,
        })
    }

    /// Drive staging/sorting until every shard has announced `SortDone`.
    fn await_all_done(&mut self) -> Result<()> {
        loop {
            if self.nodes.iter().all(|n| matches!(n.phase, Phase::Done)) {
                return Ok(());
            }
            let env = self.ep.recv_timeout(self.cfg.heartbeat);
            if let Some(env) = env {
                self.handle(env)?;
            }
            self.tick()?;
        }
    }

    /// Process one shard message (epoch-checked).
    fn handle(&mut self, env: Envelope) -> Result<()> {
        let s = env.src as usize;
        if s >= self.nodes.len() || env.epoch != self.nodes[s].epoch {
            return Ok(()); // a fenced predecessor (or stale duplicate)
        }
        self.nodes[s].last_seen = Instant::now();
        match env.msg {
            Msg::Hello { needs_input, .. } => {
                // Only a `Waiting` node's Hello moves the state machine:
                // shards re-announce while unacknowledged, and the
                // channel can duplicate or delay, so a Hello arriving
                // after progress (staging underway, or even SortDone)
                // must be a no-op — never a phase regression.
                if matches!(self.nodes[s].phase, Phase::Waiting) {
                    if needs_input {
                        self.nodes[s].phase = Phase::Staging(StageProgress {
                            next: 0,
                            attempts: 1,
                            sent_at: Instant::now(),
                            wait: self.cfg.rpc_timeout,
                        });
                        self.send_batch(s, 0);
                    } else {
                        // It has durable input (or even durable output, in
                        // which case SortDone follows immediately).
                        self.nodes[s].phase = Phase::Sorting;
                    }
                }
            }
            Msg::StageAck { seq } => {
                let total = self.batches[s].len();
                let rpc_timeout = self.cfg.rpc_timeout;
                let mut advance = None;
                if let Phase::Staging(p) = &mut self.nodes[s].phase {
                    if seq as usize == p.next {
                        p.next += 1;
                        p.attempts = 1;
                        p.wait = rpc_timeout;
                        p.sent_at = Instant::now();
                        advance = Some(p.next);
                    }
                }
                match advance {
                    Some(next) if next >= total => self.nodes[s].phase = Phase::Sorting,
                    Some(next) => self.send_batch(s, next),
                    None => {}
                }
            }
            Msg::Staged { .. } => {
                if matches!(self.nodes[s].phase, Phase::Staging(_)) {
                    self.nodes[s].phase = Phase::Sorting;
                }
            }
            Msg::SortDone {
                records,
                blocks,
                passes,
                digest,
                trace_events,
                trace_clean,
                repaired,
            } => {
                let node = &mut self.nodes[s];
                node.done = Some(DoneInfo { blocks });
                node.report.records = records;
                node.report.blocks = blocks;
                node.report.passes = passes;
                node.report.digest = digest;
                node.report.trace_events = trace_events;
                node.report.trace_clean = trace_clean;
                node.report.repaired += repaired;
                node.phase = Phase::Done;
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
            // Heartbeat already bumped last_seen; Pass is progress-only;
            // BlockData outside an RPC wait is a late duplicate.
            Msg::Heartbeat | Msg::Pass { .. } | Msg::BlockData { .. } => {}
            // Shard-bound kinds cannot arrive on the coordinator's
            // mailbox; named rather than wildcarded so the protocol
            // pass proves no shard message is ever silently swallowed.
            Msg::Stage { .. } | Msg::ReadBlock { .. } | Msg::Shutdown => {}
        }
        Ok(())
    }

    fn send_batch(&mut self, shard: usize, seq: usize) {
        let batches = &self.batches[shard];
        let Some(batch) = batches.get(seq) else {
            return;
        };
        self.ep.send(
            shard as u32,
            self.nodes[shard].epoch,
            Msg::Stage {
                seq: seq as u64,
                keys: batch.clone(),
                last: seq + 1 == batches.len(),
            },
        );
    }

    /// The periodic work: staging retransmits and the failure detector.
    fn tick(&mut self) -> Result<()> {
        let now = Instant::now();
        for s in 0..self.nodes.len() {
            // Failure detector: a silent node is dead (or unreachable,
            // which must be treated the same — fencing makes the
            // distinction harmless).
            if now.duration_since(self.nodes[s].last_seen) > self.cfg.timeout {
                self.recover(s)?;
                continue;
            }
            // Stop-and-wait retransmission with backoff + jitter.
            let cfg_retry = self.cfg.retry;
            let rpc_timeout = self.cfg.rpc_timeout;
            self.rpc_nonce += 1;
            let nonce = self.rpc_nonce;
            let mut exhausted = false;
            let mut resend = None;
            if let Phase::Staging(p) = &mut self.nodes[s].phase {
                if now.duration_since(p.sent_at) > p.wait {
                    if p.attempts >= cfg_retry.max_attempts {
                        // Retries exhausted: escalate to the detector.
                        exhausted = true;
                    } else {
                        p.attempts += 1;
                        p.sent_at = now;
                        p.wait = rpc_timeout + cfg_retry.jittered_backoff(p.attempts, nonce);
                        resend = Some(p.next);
                    }
                }
            }
            if exhausted {
                self.recover(s)?;
                continue;
            }
            if let Some(seq) = resend {
                self.send_batch(s, seq);
            }
        }
        Ok(())
    }

    /// Declare shard `s` dead: fire its fence, retire its epoch, rebind
    /// its mailbox, and boot a replacement on the same directory.
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
        node.fence.fire();
        node.epoch += 1;
        node.fence = FenceFlag::new();
        node.report.recoveries += 1;
        let epoch = node.epoch;
        let fence = node.fence.clone();
        let first_recovery = node.report.recoveries == 1;
        self.recoveries += 1;
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
        let endpoint = self.net.reconnect(s as u32);
        // Replacements boot unarmed: the drill kills a node once.
        let plan = self.plan(s as u32, None);
        let handle = std::thread::spawn(move || run_shard(plan, endpoint, epoch, fence));
        let node = &mut self.nodes[s];
        node.handles.push(handle);
        node.last_seen = Instant::now();
        node.phase = Phase::Waiting;
        node.done = None;
        if node.recovery_started.is_none() {
            node.recovery_started = Some(Instant::now());
        }
        Ok(())
    }

    /// Block until shard `s` is (again) serving, processing all other
    /// traffic and the failure detector meanwhile.
    fn await_serving(&mut self, s: usize) -> Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if matches!(self.nodes[s].phase, Phase::Done) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(DistError::Shard {
                    shard: s as u32,
                    msg: "replacement did not come back in time".into(),
                });
            }
            if let Some(env) = self.ep.recv_timeout(self.cfg.heartbeat) {
                self.handle(env)?;
            }
            self.tick()?;
        }
    }

    /// Fetch one block of shard `s`'s sorted run, stalling through node
    /// deaths: bounded retries per attempt round, and when a round is
    /// exhausted the shard is declared dead, replaced, and the fetch
    /// resumes against the replacement.
    fn fetch_block(&mut self, s: usize, block: u64) -> Result<Vec<u64>> {
        let mut rounds = 0u32;
        loop {
            for attempt in 1..=self.cfg.retry.max_attempts {
                self.rpc_nonce += 1;
                let req = self.rpc_nonce;
                self.ep
                    .send(s as u32, self.nodes[s].epoch, Msg::ReadBlock { req, block });
                let deadline = Instant::now() + self.cfg.rpc_timeout;
                while Instant::now() < deadline {
                    if let Some(env) = self.ep.recv_timeout(self.cfg.heartbeat) {
                        // Accept any reply for this (shard, block) at the
                        // current epoch — a duplicate of an earlier
                        // request carries identical bytes.
                        if env.src == s as u32 && env.epoch == self.nodes[s].epoch {
                            if let Msg::BlockData {
                                block: b, keys, ..
                            } = &env.msg
                            {
                                if *b == block {
                                    self.nodes[s].last_seen = Instant::now();
                                    return Ok(keys.clone());
                                }
                            }
                        }
                        self.handle(env)?;
                    }
                    self.tick()?;
                    // tick() may have recovered shard s (its heartbeats
                    // stopped); the outstanding request is then moot.
                    if !matches!(self.nodes[s].phase, Phase::Done) {
                        break;
                    }
                }
                if !matches!(self.nodes[s].phase, Phase::Done) {
                    break; // go stall on the replacement
                }
                std::thread::sleep(self.cfg.retry.jittered_backoff(attempt, self.rpc_nonce));
            }
            // The source is gone (or never answered a full retry round):
            // declare it dead if the detector hasn't already, then stall
            // until its replacement serves again.
            self.merge_stalls += 1;
            if matches!(self.nodes[s].phase, Phase::Done) {
                self.recover(s)?;
            }
            self.await_serving(s)?;
            rounds += 1;
            if rounds > self.cfg.max_recoveries {
                return Err(DistError::Shard {
                    shard: s as u32,
                    msg: "merge could not obtain block after repeated recoveries".into(),
                });
            }
        }
    }

    /// The striped cross-shard merge: k-way over the shards' sorted
    /// streams, one block RPC at a time, written through [`RunWriter`]
    /// to the coordinator's own output cluster.
    fn merge(&mut self) -> Result<(u64, u64)> {
        struct Source {
            blocks: u64,
            next_block: u64,
            buf: std::collections::VecDeque<u64>,
        }
        let mut sources: Vec<Source> = self
            .nodes
            .iter()
            .map(|n| {
                let blocks = n.done.map_or(0, |d| d.blocks);
                Source {
                    blocks,
                    next_block: 0,
                    buf: std::collections::VecDeque::new(),
                }
            })
            .collect();

        let geom = self.geom;
        let out_dir = self.root.join("global");
        if out_dir.exists() {
            std::fs::remove_dir_all(&out_dir)
                .map_err(|e| DistError::Io(format!("clear {}: {e}", out_dir.display())))?;
        }
        let mut out = FileDiskArray::<U64Record>::create(geom, &out_dir)?;
        let mut writer = RunWriter::new(geom, DiskId(0));

        // Prime every non-empty source, then heap-merge.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (s, src) in sources.iter_mut().enumerate() {
            if src.blocks == 0 {
                continue;
            }
            let keys = self.fetch_block(s, 0)?;
            src.next_block = 1;
            src.buf = keys.into();
            if let Some(&k) = src.buf.front() {
                heap.push(Reverse((k, s)));
            }
        }

        let mut merged = 0u64;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a, as digest_keys
        while let Some(Reverse((key, s))) = heap.pop() {
            sources[s].buf.pop_front();
            writer.push(&mut out, U64Record(key))?;
            for byte in key.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
            merged += 1;
            if sources[s].buf.is_empty() && sources[s].next_block < sources[s].blocks {
                let block = sources[s].next_block;
                let keys = self.fetch_block(s, block)?;
                sources[s].next_block += 1;
                sources[s].buf = keys.into();
            }
            if let Some(&k) = sources[s].buf.front() {
                heap.push(Reverse((k, s)));
            }
        }

        if merged > 0 {
            writer.finish(&mut out)?;
            out.sync()?;
        }
        Ok((hash, merged))
    }

    /// Politely stop every shard, then force the issue via the fences
    /// (a Shutdown message can be dropped by the fault model; the fence
    /// cannot), and join every thread this run ever spawned.
    fn shutdown(&mut self) {
        for (s, node) in self.nodes.iter().enumerate() {
            self.ep.send(s as u32, node.epoch, Msg::Shutdown);
        }
        for node in &mut self.nodes {
            node.fence.fire();
            for h in node.handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard sorts under the spec's whole overlap setting — read-ahead
    /// depth included — with its own salted seed.
    #[test]
    fn shard_plan_carries_the_specs_pipeline_and_read_ahead() {
        let spec = JobSpec {
            pipeline: true,
            read_ahead: 3,
            ..JobSpec::default()
        };
        let geom = spec.geometry().unwrap();
        let plan = plan_for(&spec, &DistConfig::new(2), geom, Path::new("unused"), 1, None);
        assert!(plan.sorter.pipeline());
        assert_eq!(plan.sorter.read_ahead(), 3);
        assert_ne!(plan.sorter.config().seed, spec.seed);
    }
}
