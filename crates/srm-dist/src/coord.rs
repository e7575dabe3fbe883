//! The coordinator: splitter sampling, record routing, heartbeat failure
//! detection, fence-and-respawn recovery, and the degraded cross-shard
//! output stream.
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
//! 3. **Streaming out** — the shards' sorted runs concatenated in
//!    splitter order ([`crate::concat`]), fetched in stripe-wide windows
//!    with one request always in flight, written through
//!    [`srm_core::RunWriter`] to the coordinator's own output cluster.
//!
//! The whole time, a heartbeat failure detector watches every shard.  A
//! silent shard is declared dead, **fenced** (its storage refuses all
//! further I/O and its epoch is retired), and replaced by a fresh
//! instance booted on the same durable directory — which resumes from
//! the journaled checkpoint (rebuilding lost blocks from parity first
//! when `--parity` is on).  The stream does not abort while this
//! happens: it *stalls* on the dead shard's window and resumes when the
//! replacement starts serving, so a node death degrades throughput, not
//! correctness.

use crate::concat::{concat_output, window_blocks, WindowSource};
use crate::error::{DistError, Result};
use crate::msg::{Envelope, Msg};
use crate::net::{Endpoint, NetStats, Network};
use crate::shard::{run_shard, KillPoint, ShardMs, ShardPlan};
use crate::split::{route, sample_splitters};
use pdisk::{NetFaultModel, RetryPolicy, U64Record};
use srm_server::{expected_digest, generate_records, JobSpec};
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
/// (die after serving `K` output windows; default 1).
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
    /// Retry schedule for staging batches and output-window RPCs
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
    /// Its finishing incarnation's wall-clock, by phase.
    pub ms: ShardMs,
}

/// Where a distributed sort's wall-clock went, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMs {
    /// Generate, sample splitters, route.
    pub split: u64,
    /// Spawning the shards until the last one reported its sort done
    /// (staging included).
    pub shards: u64,
    /// The cross-shard output stream, start to synced output.
    pub merge: u64,
    /// The part of `merge` spent blocked on a window that had not
    /// arrived yet.
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

/// A shard's staging progress (stop-and-wait, one batch in flight).
struct StageProgress {
    next: usize,
    resend: Resend,
}

/// The output stream's one outstanding window request.
struct Fetch {
    shard: usize,
    first: u64,
    resend: Resend,
    /// Recoveries this window has stalled through.
    rounds: u32,
    /// The window's keys, once a matching reply has been adopted.
    reply: Option<Vec<u64>>,
}

impl Fetch {
    /// Adopt `keys` if they answer this request and nothing has yet: a
    /// duplicate, or a reply to a window already drained, is refused.
    fn adopt(&mut self, shard: usize, first: u64, keys: Vec<u64>) -> bool {
        let fresh = self.shard == shard && self.first == first && self.reply.is_none();
        if fresh {
            self.reply = Some(keys);
        }
        fresh
    }
}

/// Where a shard is in its lifecycle, as the coordinator sees it.
enum Phase {
    /// Spawned; waiting for its `Hello`.
    Waiting,
    /// Feeding it staging batches.
    Staging(StageProgress),
    /// It has its input and is sorting.
    Sorting,
    /// Its sort is done and it is serving output windows.
    Done,
}

/// Coordinator-side state of one node slot.
struct Node {
    epoch: u64,
    fence: FenceFlag,
    last_seen: Instant,
    phase: Phase,
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
    fetch: Option<Fetch>,
}

/// Run a full distributed sort of `spec` across `cfg.shards` simulated
/// nodes rooted at `root` (one subdirectory per shard plus the global
/// output cluster).  Returns the report; the directory tree is left in
/// place for the caller to inspect or delete.
pub fn distsort(spec: &JobSpec, cfg: &DistConfig, root: &Path) -> Result<DistReport> {
    cfg.validate()?;
    spec.validate()?;
    let started = Instant::now();
    let (splitters, buckets) = split_input(spec, cfg.shards);
    let split = started.elapsed();
    let mut report = distsort_routed(spec, cfg, root, splitters, buckets)?;
    report.phase_ms.split = split.as_millis() as u64;
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    Ok(report)
}

/// Phase 0, shared by both modes: generate, sample, route.  Splitters
/// are a pure function of (spec, P), so any replacement re-staged later
/// gets the same partition the failure-free run would have.
pub(crate) fn split_input(spec: &JobSpec, shards: u32) -> (Vec<u64>, Vec<Vec<u64>>) {
    let records = generate_records(spec.records, spec.seed);
    let splitters = sample_splitters(&records, shards, spec.seed);
    let buckets = route(&records, &splitters, shards);
    (splitters, buckets)
}

/// Everything after the split: stage `buckets[s]` to shard `s`, sort,
/// stream out.
fn distsort_routed(
    spec: &JobSpec,
    cfg: &DistConfig,
    root: &Path,
    splitters: Vec<u64>,
    buckets: Vec<Vec<u64>>,
) -> Result<DistReport> {
    std::fs::create_dir_all(root)
        .map_err(|e| DistError::Io(format!("create {}: {e}", root.display())))?;
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
        fetch: None,
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
            report: ShardReport::default(),
            recovery_started: None,
            handles: vec![handle],
        });
    }

    let result = coord.run();
    coord.shutdown();
    result
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
        let spawned = Instant::now();
        self.await_all_done()?;
        let shards = spawned.elapsed();
        let blocks: Vec<u64> = self.nodes.iter().map(|n| n.report.blocks).collect();
        let (geom, root) = (self.geom, self.root.clone());
        let out = concat_output(geom, &root, &blocks, self)?;
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
                merge_wait: out.wait.as_millis() as u64,
                ..PhaseMs::default()
            },
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
                            resend: Resend::new(self.cfg),
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
                let mut advance = None;
                if let Phase::Staging(p) = &mut self.nodes[s].phase {
                    if seq as usize == p.next {
                        p.next += 1;
                        p.resend = Resend::new(self.cfg);
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
                ms,
            } => {
                let node = &mut self.nodes[s];
                node.report.records = records;
                node.report.blocks = blocks;
                node.report.passes = passes;
                node.report.digest = digest;
                node.report.trace_events = trace_events;
                node.report.trace_clean = trace_clean;
                node.report.repaired += repaired;
                node.report.ms = ms;
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
            // The stream's outstanding request adopts the window that
            // answers it, whenever it arrives; anything else (a
            // duplicate, a window already drained) carries bytes the
            // stream has seen and is dropped.
            Msg::BlockData { first, keys, .. } => {
                if let Some(fetch) = &mut self.fetch {
                    fetch.adopt(s, first, keys);
                }
            }
            // Heartbeat already bumped last_seen; Pass is progress-only.
            Msg::Heartbeat | Msg::Pass { .. } => {}
            // Shard-bound kinds cannot arrive on the coordinator's
            // mailbox; named rather than wildcarded so the protocol
            // pass proves no shard message is ever silently swallowed.
            Msg::Stage { .. } | Msg::ReadBlocks { .. } | Msg::Shutdown => {}
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
            self.rpc_nonce += 1;
            if let Phase::Staging(p) = &mut self.nodes[s].phase {
                let seq = p.next;
                match p.resend.poll(now, self.cfg, self.rpc_nonce) {
                    Due::NotYet => {}
                    Due::Resend => self.send_batch(s, seq),
                    Due::Exhausted => self.recover(s)?,
                }
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

    /// (Re)send the outstanding window request to its shard's current
    /// epoch.
    fn send_fetch(&mut self) {
        let Some(fetch) = &self.fetch else { return };
        self.rpc_nonce += 1;
        self.ep.send(
            fetch.shard as u32,
            self.nodes[fetch.shard].epoch,
            Msg::ReadBlocks {
                req: self.rpc_nonce,
                first: fetch.first,
                count: window_blocks(self.geom),
            },
        );
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

/// Thread mode's window source: one `ReadBlocks` RPC outstanding
/// against a serving shard, stalling through node deaths.
impl WindowSource for Coordinator<'_> {
    fn request(&mut self, shard: usize, first: u64) -> Result<()> {
        self.fetch = Some(Fetch {
            shard,
            first,
            resend: Resend::new(self.cfg),
            rounds: 0,
            reply: None,
        });
        self.send_fetch();
        Ok(())
    }

    /// Bounded retries per round; when a round is exhausted — or the
    /// detector got there first — the shard is dead: the stream stalls
    /// until its replacement serves, then asks the replacement again.
    fn wait(&mut self) -> Result<Vec<u64>> {
        loop {
            self.rpc_nonce += 1;
            let fetch = self.fetch.as_mut().ok_or_else(|| {
                DistError::Net("output stream waited with no window requested".into())
            })?;
            if let Some(keys) = fetch.reply.take() {
                self.fetch = None;
                return Ok(keys);
            }
            let s = fetch.shard;
            let serving = matches!(self.nodes[s].phase, Phase::Done);
            let due = if serving {
                fetch.resend.poll(Instant::now(), self.cfg, self.rpc_nonce)
            } else {
                Due::Exhausted
            };
            match due {
                Due::NotYet => {}
                Due::Resend => self.send_fetch(),
                Due::Exhausted => {
                    fetch.rounds += 1;
                    if fetch.rounds > self.cfg.max_recoveries {
                        return Err(DistError::Shard {
                            shard: s as u32,
                            msg: "output stream could not obtain a window after repeated recoveries"
                                .into(),
                        });
                    }
                    self.merge_stalls += 1;
                    if serving {
                        self.recover(s)?;
                    }
                    self.await_serving(s)?;
                    if let Some(fetch) = &mut self.fetch {
                        fetch.resend = Resend::new(self.cfg);
                    }
                    self.send_fetch();
                }
            }
            if let Some(env) = self.ep.recv_timeout(self.cfg.heartbeat) {
                self.handle(env)?;
            }
            self.tick()?;
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
        use crate::shard::open_base;
        use pdisk::DiskArray as _;
        use srm_core::sort::write_unsorted_input;

        let (pipelined, cfg, root) = (small_spec(), DistConfig::new(3), scratch("windows"));
        let blocking = JobSpec { pipeline: false, ..small_spec() };
        let geom = pipelined.geometry().unwrap();
        let (_, buckets) = split_input(&pipelined, cfg.shards);
        for (shard, bucket) in buckets.iter().enumerate() {
            let keys: Vec<U64Record> = bucket.iter().copied().map(U64Record).collect();
            let sort = |spec: &JobSpec| {
                let plan = plan_for(spec, &cfg, geom, &root, shard as u32, None);
                assert_ne!(plan.sorter.config().seed, spec.seed);
                std::fs::create_dir_all(&plan.dir).unwrap();
                let mut cluster = open_base(&plan, true).unwrap();
                let input = write_unsorted_input(&mut cluster, &keys).unwrap();
                cluster.reset_stats();
                let (run, report) = plan.sorter.sort(&mut cluster, &input).unwrap();
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

    /// A reply is adopted by the request it answers, once: duplicates
    /// and replies to other windows never reach the stream.
    #[test]
    fn the_outstanding_request_adopts_its_reply_exactly_once() {
        let cfg = DistConfig::new(2);
        let mut fetch = Fetch { shard: 1, first: 30, resend: Resend::new(&cfg), rounds: 0, reply: None };
        assert!(!fetch.adopt(0, 30, vec![9]), "another shard's window");
        assert!(!fetch.adopt(1, 0, vec![9]), "a window already drained");
        assert!(!fetch.adopt(1, 60, vec![9]), "a window not yet asked for");
        assert!(fetch.adopt(1, 30, vec![1, 2]));
        assert!(!fetch.adopt(1, 30, vec![9]), "a duplicate of the adopted reply");
        assert_eq!(fetch.reply, Some(vec![1, 2]));
    }

    fn small_spec() -> JobSpec {
        JobSpec { records: 3_000, seed: 0x0DD_BA11, d: 3, b: 16, m: 512, ..JobSpec::default() }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srm-dist-coord-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Swap two shards' partitions: every shard still sorts cleanly, but
    /// the runs no longer ascend in splitter order — the stream must
    /// refuse with the typed order error rather than write (and digest)
    /// a mis-ordered output.
    #[test]
    fn swapped_partitions_fail_the_order_check() {
        let (spec, cfg, dir) = (small_spec(), DistConfig::new(3), scratch("swap"));
        let (splitters, mut buckets) = split_input(&spec, cfg.shards);
        buckets.swap(0, 1);
        let err = distsort_routed(&spec, &cfg, &dir, splitters.clone(), buckets).unwrap_err();
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
    /// in-flight slot must pass over them without a stall.
    #[test]
    fn empty_leading_and_middle_shards_are_skipped() {
        let (spec, cfg, dir) = (small_spec(), DistConfig::new(5), scratch("holes"));
        let records = generate_records(spec.records, spec.seed);
        let splitters = vec![0, 1 << 63, 1 << 63, 1 << 63];
        let buckets = route(&records, &splitters, cfg.shards);
        assert_eq!(
            buckets.iter().map(|b| b.is_empty()).collect::<Vec<_>>(),
            [true, false, true, true, false]
        );
        let report = distsort_routed(&spec, &cfg, &dir, splitters, buckets).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.oracle_ok);
        assert_eq!(report.records, spec.records);
        assert_eq!((report.merge_stalls, report.recoveries), (0, 0));
    }
}
