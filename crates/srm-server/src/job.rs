//! The job-oriented engine API: one entry point over both sorters.
//!
//! Historically every driver built its engine by hand — the CLI
//! assembled an `SrmSorter` from parsed flags, the crash-matrix harness
//! assembled another from its own config, and they staged input,
//! ran, and read output through engine-specific free functions.  The
//! job server needs a *third* driver, so this module extracts the
//! shared shape once:
//!
//! * [`JobSpec`] — a plain-data description of one sort job (engine,
//!   geometry, seed, formation, deadline, fault injection) with a
//!   key=value encoding shared by the wire protocol and the server's
//!   durable spec files.  `JobSpec` is the **single construction
//!   point** for the engine: CLI, chaos harness, and server all call
//!   [`JobSpec::srm_sorter`] / [`JobSpec::dsm_sorter`] / [`JobSpec::build`].
//!   A DSM job is the same engine on its one wide disk
//!   ([`JobSpec::geometry`]);
//! * [`encode_run`] / [`decode_run`] — a run handle as one line of the
//!   server's durable job state;
//! * [`sort_durable`] — the one durable sort in a directory, the one
//!   driver of the [`SrmSorter`]'s `resume_point` / `sort_from` pair,
//!   which publishes its [`Descriptor`] once every check has passed
//!   (DESIGN §11.3): a job's, a shard's, `srm sort`'s and the chaos
//!   target's.
//!
//! Admission control prices a job with [`JobSpec::budget_records`]: the
//! Definition-3 partition of the job's array at its merge order,
//! rendered in records.

use analysis::MemoryBudget;
use modelcheck::CheckSummary;
use pdisk::manifest::atomic_write;
use pdisk::{
    ArrayLease, BuiltStack, DiskArray, DiskId, FileDiskArray, Geometry, InterruptFlag, IoStats, Layer, MemDiskArray,
    PdiskError, StackSpec, StripedRun, TraceEvent, U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
pub use srm_core::EngineKind;
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, scrub_runs, Placement, RunFormation, SortReport, SrmConfig, SrmError, SrmSorter};
use std::path::Path;
use std::time::{Duration, Instant};

/// Errors surfaced by the job layer and the server built on it.
#[derive(Debug)]
#[non_exhaustive]
pub enum JobError {
    /// Underlying disk-model failure.
    Disk(PdiskError),
    /// Invalid job description or configuration.
    Config(String),
    /// Checkpoint manifest could not be read, written, or trusted.
    Checkpoint(String),
    /// The sort stopped at a pass boundary because its interrupt flag
    /// was triggered (drain, cancel, or deadline); the boundary's
    /// checkpoint was journaled first.
    Interrupted,
    /// Engine-internal invariant failure (a bug, not an input problem).
    Engine(String),
    /// Host I/O failure outside the disk model (spec files, markers).
    Io(String),
    /// A model-check replay of the job's I/O trace found a violation.
    Model(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Disk(e) => write!(f, "disk error: {e}"),
            JobError::Config(m) => write!(f, "job configuration error: {m}"),
            JobError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            JobError::Interrupted => {
                write!(f, "job interrupted at a pass boundary (checkpoint journaled)")
            }
            JobError::Engine(m) => write!(f, "engine invariant violated: {m}"),
            JobError::Io(m) => write!(f, "i/o error: {m}"),
            JobError::Model(m) => write!(f, "model-rule violation: {m}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PdiskError> for JobError {
    fn from(e: PdiskError) -> Self {
        JobError::Disk(e)
    }
}

impl From<SrmError> for JobError {
    fn from(e: SrmError) -> Self {
        match e {
            SrmError::Interrupted => JobError::Interrupted,
            SrmError::Disk(d) => JobError::Disk(d),
            SrmError::Config(m) => JobError::Config(m),
            SrmError::Checkpoint(m) => JobError::Checkpoint(m),
            SrmError::Internal(m) => JobError::Engine(m),
            other => JobError::Engine(other.to_string()),
        }
    }
}

/// One-line encoding of a run handle for durable job state.
pub fn encode_run(r: &StripedRun) -> String {
    let offs: Vec<String> = r.base_offsets.iter().map(|o| o.to_string()).collect();
    format!("striped {} {} {} {}", r.start_disk.0, r.len_blocks, r.records, offs.join(","))
}

/// Parse [`encode_run`] output.  A `logical …` descriptor is the staged
/// input of the retired second DSM engine: its stripes are laid out for
/// `D` disks, not for DSM's one wide disk, so it is refused as a
/// checkpoint that cannot be trusted, never resumed.
pub fn decode_run(s: &str) -> Result<StripedRun, JobError> {
    let bad = || JobError::Io(format!("unparsable run descriptor `{s}`"));
    let mut parts = s.split_whitespace();
    match parts.next() {
        Some("striped") => {
            let start: u32 = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let len_blocks: u64 = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let records: u64 = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let offs = parts.next().ok_or_else(bad)?;
            let base_offsets: Vec<u64> = offs
                .split(',')
                .map(|o| o.parse().map_err(|_| bad()))
                .collect::<Result<_, _>>()?;
            Ok(StripedRun {
                start_disk: pdisk::DiskId(start),
                len_blocks,
                records,
                base_offsets,
            })
        }
        Some("logical") => Err(JobError::Checkpoint(format!(
            "run descriptor `{s}` was staged by the retired DSM engine; resubmit the job"
        ))),
        _ => Err(bad()),
    }
}

/// Plain-data description of one sort job — the single construction
/// point for the engine across the CLI, crash-matrix harness, and server.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Engine to run.
    pub engine: EngineKind,
    /// Records to generate and sort.
    pub records: u64,
    /// Seed for both input generation and the engine's placement RNG.
    pub seed: u64,
    /// Disks.
    pub d: usize,
    /// Records per block.
    pub b: usize,
    /// Memory, in records.
    pub m: usize,
    /// SRM start-disk policy (moot for DSM's one disk).
    pub placement: Placement,
    /// Run-formation strategy (SRM; DSM always sorts half-memory loads).
    /// `None`, a spec without `formation=`, leaves it to the sorter:
    /// half-memory loads, or replacement selection on a modelled device
    /// where that predicts fewer blocks ([`SrmSorter::formation`]).
    /// `Some` is an override.
    pub formation: Option<RunFormation>,
    /// Overlap I/O with merging (the engine's pipelined window).
    pub pipeline: bool,
    /// Forecast-driven read-ahead depth for pipelined merges
    /// (0 = demand reads only; ignored when `pipeline` is off).
    pub read_ahead: usize,
    /// Per-job execution deadline in milliseconds, checked at pass
    /// boundaries: overruns checkpoint, then abort.
    pub deadline_ms: Option<u64>,
    /// Transient-fault injection rate per disk (absorbed by the
    /// server's retry layer).
    pub fault_rate: f64,
    /// Seed for the fault model.
    pub fault_seed: u64,
}

/// Pipelined with forecast read-ahead 3 — the window every wall-clock
/// figure of the repo is measured at (`BENCH_pipeline.json`'s headline,
/// srmbench's sort and serve workloads) — so a `SUBMIT` without a
/// `pipeline` key, a distsort shard and `srm distsort` without flags all
/// overlap their I/O.  The window never changes the I/O schedule, the
/// output or the [`pdisk::IoStats`] (DESIGN.md §9), so `pipeline=0` stays
/// available as the explicit window-0 reference and a durable spec file
/// (which always carries both keys) resumes under the setting it was
/// submitted with.
impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            engine: EngineKind::Srm,
            records: 20_000,
            seed: 0xC11_5EED,
            d: 2,
            b: 8,
            m: 512,
            placement: Placement::Random,
            formation: None,
            pipeline: true,
            read_ahead: 3,
            deadline_ms: None,
            fault_rate: 0.0,
            fault_seed: 0xFA_017,
        }
    }
}

impl JobSpec {
    /// The job's array geometry: `D` disks of `B`-record blocks for SRM;
    /// for DSM, the one logical disk its stripes make, `D·B`-record
    /// blocks (§9).
    pub fn geometry(&self) -> Result<Geometry, JobError> {
        match self.engine {
            EngineKind::Srm => Geometry::new(self.d, self.b, self.m),
            EngineKind::Dsm => {
                let stripe = self.d.checked_mul(self.b).ok_or_else(|| {
                    JobError::Config(format!("D·B = {} × {} overflows", self.d, self.b))
                })?;
                Geometry::new(1, stripe, self.m)
            }
        }
        .map_err(JobError::Disk)
    }

    /// Validate everything a server must reject up front.
    pub fn validate(&self) -> Result<(), JobError> {
        if self.records == 0 {
            return Err(JobError::Config("records must be positive".into()));
        }
        if !(0.0..1.0).contains(&self.fault_rate) {
            return Err(JobError::Config(format!(
                "fault-rate {} outside [0, 1)",
                self.fault_rate
            )));
        }
        // The engine itself says whether it can run on this geometry.
        self.build(None).merge_order(self.geometry()?)?;
        Ok(())
    }

    /// The job's memory price in records — the quantity admission
    /// control sums against the server's `M`: the Definition-3 buffer
    /// partition of the job's array at its merge order (`2R + 4D + RD/B`
    /// blocks at SRM's `R`), rendered in records.
    pub fn budget_records(&self) -> Result<u64, JobError> {
        let geom = self.geometry()?;
        let r = self.build(None).merge_order(geom)?;
        Ok((MemoryBudget::for_order(geom, r).total() * geom.b) as u64)
    }

    /// The SRM engine configuration this spec describes.
    pub fn srm_config(&self) -> SrmConfig {
        SrmConfig {
            placement: self.placement,
            run_formation: self.formation,
            seed: self.seed,
        }
    }

    /// Build the SRM engine — THE one way drivers construct it.
    pub fn srm_sorter(&self) -> SrmSorter {
        SrmSorter::new(self.srm_config())
            .with_pipeline(self.pipeline)
            .with_read_ahead(self.read_ahead)
    }

    /// Build the engine DSM-configured: eq. 41's merge order and the
    /// paper's half-memory loads, to run on [`JobSpec::geometry`]'s one
    /// wide disk.
    pub fn dsm_sorter(&self) -> SrmSorter {
        let config = SrmConfig {
            run_formation: Some(RunFormation::MemoryLoad { fraction: 0.5 }),
            ..self.srm_config()
        };
        SrmSorter::new(config)
            .with_engine(EngineKind::Dsm)
            .with_pipeline(self.pipeline)
            .with_read_ahead(self.read_ahead)
    }

    /// Build the job's engine, optionally wiring an interrupt flag (the
    /// drain / cancel / deadline hook) into it.
    pub fn build(&self, interrupt: Option<InterruptFlag>) -> SrmSorter {
        let s = match self.engine {
            EngineKind::Srm => self.srm_sorter(),
            EngineKind::Dsm => self.dsm_sorter(),
        };
        match interrupt {
            Some(f) => s.with_interrupt(f),
            None => s,
        }
    }

    /// Deterministically regenerate this job's input records.
    pub fn input_records(&self) -> Vec<U64Record> {
        generate_records(self.records, self.seed)
    }

    /// The same input as a stream of keys, never resident as a whole:
    /// a distsort shard keeps only the keys of its own range.
    pub fn input_keys(&self) -> impl Iterator<Item = u64> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.records).map(move |_| rng.random())
    }

    /// Key=value pairs, the shared wire/file encoding.
    pub fn to_pairs(&self) -> Vec<(&'static str, String)> {
        let formation = self.formation.map(|f| f.name().to_string());
        let mut pairs = vec![
            ("engine", self.engine.as_str().to_string()),
            ("records", self.records.to_string()),
            ("seed", self.seed.to_string()),
            ("d", self.d.to_string()),
            ("b", self.b.to_string()),
            ("m", self.m.to_string()),
            (
                "placement",
                match self.placement {
                    Placement::Random => "random".to_string(),
                    Placement::Staggered => "staggered".to_string(),
                },
            ),
        ];
        pairs.extend(formation.map(|f| ("formation", f)));
        pairs.extend([
            ("pipeline", u8::from(self.pipeline).to_string()),
            ("read-ahead", self.read_ahead.to_string()),
            ("fault-rate", self.fault_rate.to_string()),
            ("fault-seed", self.fault_seed.to_string()),
        ]);
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline-ms", ms.to_string()));
        }
        pairs
    }

    /// Parse `key=value` pairs (unknown keys are rejected; missing keys
    /// fall back to [`JobSpec::default`]).
    pub fn from_pairs<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Self, JobError> {
        let mut spec = JobSpec::default();
        let bad = |k: &str, v: &str| JobError::Config(format!("bad value `{v}` for `{k}`"));
        for (k, v) in pairs {
            match k {
                "engine" | "algo" => {
                    spec.engine = match v {
                        "srm" => EngineKind::Srm,
                        "dsm" => EngineKind::Dsm,
                        _ => return Err(bad(k, v)),
                    }
                }
                "records" => spec.records = v.parse().map_err(|_| bad(k, v))?,
                "seed" => spec.seed = v.parse().map_err(|_| bad(k, v))?,
                "d" => spec.d = v.parse().map_err(|_| bad(k, v))?,
                "b" => spec.b = v.parse().map_err(|_| bad(k, v))?,
                "m" => spec.m = v.parse().map_err(|_| bad(k, v))?,
                "placement" => {
                    spec.placement = match v {
                        "random" => Placement::Random,
                        "staggered" => Placement::Staggered,
                        _ => return Err(bad(k, v)),
                    }
                }
                "formation" => {
                    spec.formation = Some(match v.split_once(':') {
                        None if v == "load" => RunFormation::MemoryLoad { fraction: 0.5 },
                        None if v == "rs" => RunFormation::ReplacementSelection,
                        // A stored spec from when loads could be sorted on
                        // threads: `parload:N` formed `load`'s runs.
                        Some(("parload", t)) if t.parse::<usize>().is_ok() => {
                            RunFormation::MemoryLoad { fraction: 0.5 }
                        }
                        _ => return Err(bad(k, v)),
                    })
                }
                "pipeline" => {
                    spec.pipeline = match v {
                        "1" | "true" => true,
                        "0" | "false" => false,
                        _ => return Err(bad(k, v)),
                    }
                }
                "read-ahead" => spec.read_ahead = v.parse().map_err(|_| bad(k, v))?,
                "deadline-ms" => spec.deadline_ms = Some(v.parse().map_err(|_| bad(k, v))?),
                "fault-rate" => spec.fault_rate = v.parse().map_err(|_| bad(k, v))?,
                "fault-seed" => spec.fault_seed = v.parse().map_err(|_| bad(k, v))?,
                other => return Err(JobError::Config(format!("unknown job key `{other}`"))),
            }
        }
        Ok(spec)
    }

    /// Multi-line `key=value` rendering for the durable spec file.
    pub fn encode(&self) -> String {
        encode_fields(self.to_pairs())
    }

    /// Parse [`JobSpec::encode`] output.
    pub fn decode(text: &str) -> Result<Self, JobError> {
        Self::from_pairs(decode_fields(text)?)
    }
}

/// The one line format of a durable sort's files — the `spec`, the
/// [`Descriptor`] and the `fail` marker: one `key=value` per line.
pub(crate) fn encode_fields<'a>(pairs: impl IntoIterator<Item = (&'a str, String)>) -> String {
    pairs.into_iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

/// Parse [`encode_fields`] output; a line without `=` is an error.
pub(crate) fn decode_fields(text: &str) -> Result<Vec<(&str, &str)>, JobError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| l.split_once('=').ok_or_else(|| JobError::Io(format!("bad line `{l}`"))))
        .collect()
}

/// The standard job input: `records` pseudo-random u64 keys from
/// `seed`, matching the CLI's generator — so a job is fully described
/// by its spec and any two runs of it sort identical data.
pub fn generate_records(records: u64, seed: u64) -> Vec<U64Record> {
    let spec = JobSpec { records, seed, ..JobSpec::default() };
    spec.input_keys().map(U64Record).collect()
}

/// FNV-1a over the little-endian key bytes in sequence order: the
/// byte-identity fingerprint used to compare a resumed job's output
/// against an uninterrupted run's.
pub fn digest_keys(keys: impl IntoIterator<Item = u64>) -> u64 {
    let mut digest = KeyDigest::new();
    for k in keys {
        digest.push(k);
    }
    digest.finish()
}

/// [`digest_keys`] one key at a time, for a stream that is never
/// resident as a whole (the distributed sort's concatenated output).
#[derive(Debug, Clone, Copy)]
pub struct KeyDigest(u64);

impl KeyDigest {
    /// The digest of the empty sequence.
    pub fn new() -> Self {
        KeyDigest(0xcbf2_9ce4_8422_2325)
    }

    /// Resume a digest from the `finish()` of a prefix: FNV-1a is a
    /// left fold, so pushing the rest of the sequence onto it gives the
    /// whole sequence's digest.
    pub fn from_state(state: u64) -> Self {
        KeyDigest(state)
    }

    /// Append one key.
    pub fn push(&mut self, key: u64) {
        for b in key.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything pushed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for KeyDigest {
    fn default() -> Self {
        KeyDigest::new()
    }
}

/// The expected output digest of a job: [`oracle_digest`] of its input.
pub fn expected_digest(spec: &JobSpec) -> u64 {
    oracle_digest(&spec.input_records())
}

/// The digest of `records` sorted in host memory, independently of the
/// engine: what the disks must agree with.
pub(crate) fn oracle_digest(records: &[U64Record]) -> u64 {
    let mut keys: Vec<u64> = records.iter().map(|r| r.0).collect();
    keys.sort_unstable();
    digest_keys(keys)
}

// ─── the durable sort: a `srm serve` job's or a distsort shard's ─────────

/// The cluster's disk files, under a durable sort's directory.
pub const DISKS: &str = "disks";
/// A parity stack's sidecar, beside them.
pub const PARITY_STORE: &str = "parity.store";
/// The checkpoint manifest (`manifest.prev` is its journaled predecessor).
pub const MANIFEST: &str = "manifest";
/// The [`Descriptor`], published once every check has passed.
pub const DONE: &str = "done";

/// How long a durable sort waits for its cluster's lease: a fenced
/// predecessor still holding the array releases it when it drops it.
const LEASE_WAIT: Duration = Duration::from_secs(5);

/// Where one durable sort's wall-clock went, in milliseconds.  The I/O
/// phases are split-phase on a file cluster: the sort runs at the
/// sorter's window, the verification read keeps a few stripes in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMs {
    /// Deriving the records in hand (a job's generation, a shard's
    /// partition), and writing them out for a staged sort.
    pub stage: u64,
    /// The checkpointed sort (of a resumed incarnation: what was left).
    pub sort: u64,
    /// Reading the output back and digesting it.
    pub verify: u64,
    /// Replaying the trace through the model checker.
    pub check: u64,
}

/// What a finished durable sort publishes as its directory's `done`
/// file, and a shard announces in its `SortDone`: everything a restart,
/// a replacement or a coordinator needs to know of it.  It exists only
/// once every check has passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Descriptor {
    /// The sorted output run (`None` for an empty input).
    pub run: Option<StripedRun>,
    /// Records in the run.
    pub records: u64,
    /// FNV-1a digest of the sorted keys.
    pub digest: u64,
    /// Merge passes performed over the whole logical sort.
    pub passes: u64,
    /// Trace events the model checker replayed (0 untraced).
    pub trace_events: u64,
    /// Blocks healed by the parity scrub before a resume.
    pub repaired: u64,
    /// The finishing incarnation's wall-clock, by phase.
    pub ms: ShardMs,
}

/// The descriptor of an empty input.
impl Default for Descriptor {
    fn default() -> Self {
        Descriptor {
            run: None,
            records: 0,
            digest: digest_keys(std::iter::empty()),
            passes: 0,
            trace_events: 0,
            repaired: 0,
            ms: ShardMs::default(),
        }
    }
}

impl Descriptor {
    /// The `done` file's text, in the [`encode_fields`] format.
    pub fn encode(&self) -> String {
        let ShardMs { stage, sort, verify, check } = self.ms;
        encode_fields([
            ("run", self.run.as_ref().map_or_else(|| "empty".into(), encode_run)),
            ("records", self.records.to_string()),
            ("digest", format!("{:#x}", self.digest)),
            ("passes", self.passes.to_string()),
            ("trace-events", self.trace_events.to_string()),
            ("repaired", self.repaired.to_string()),
            ("ms", format!("{stage} {sort} {verify} {check}")),
        ])
    }

    /// Parse [`Descriptor::encode`] output, and a server job's `done`
    /// file from before the descriptor: its decimal digest and
    /// `merge-passes`, and the keys nothing reads, are taken as they
    /// stand.  A malformed line is a typed error, never a plausible
    /// wrong answer.
    pub fn parse(text: &str) -> Result<Self, JobError> {
        let mut done = Descriptor::default();
        let mut saw_digest = false;
        for (key, val) in decode_fields(text)? {
            let bad = || JobError::Io(format!("bad descriptor line `{key}={val}`"));
            let num = || val.parse::<u64>().map_err(|_| bad());
            match key {
                "run" if val == "empty" => done.run = None,
                "run" => done.run = Some(decode_run(val)?),
                "records" => done.records = num()?,
                "digest" => {
                    done.digest = match val.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16).map_err(|_| bad())?,
                        None => num()?,
                    };
                    saw_digest = true;
                }
                "passes" | "merge-passes" => done.passes = num()?,
                "trace-events" => done.trace_events = num()?,
                "repaired" => done.repaired = num()?,
                "ms" => {
                    let ms: Vec<u64> = val.split(' ').map(str::parse).collect::<Result<_, _>>().map_err(|_| bad())?;
                    let [stage, sort, verify, check] = ms[..] else { return Err(bad()) };
                    done.ms = ShardMs { stage, sort, verify, check };
                }
                "runs-formed" | "merge-order" | "trace-clean" => {}
                _ => return Err(bad()),
            }
        }
        if !saw_digest {
            return Err(JobError::Io("descriptor without a digest".into()));
        }
        Ok(done)
    }

    /// The descriptor `dir` holds, if its sort finished.  A distsort
    /// shard from before the descriptor published an `output` file of
    /// `key value` lines, read here once as the same fields.
    pub fn load(dir: &Path) -> Result<Option<Self>, JobError> {
        let read = |name: &str| match std::fs::read_to_string(dir.join(name)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(JobError::Io(format!("read {}/{name}: {e}", dir.display()))),
        };
        let text = match read(DONE)? {
            Some(text) => text,
            None => match read("output")? {
                Some(old) => old.lines().map(|l| format!("{}\n", l.replacen(' ', "=", 1))).collect(),
                None => return Ok(None),
            },
        };
        Self::parse(&text).map(Some)
    }
}

/// Publish `text` at `dir/name` through the checkpoint journal's temp +
/// fsync + rename, so a crash leaves the old file or the new one.
pub fn publish(dir: &Path, name: &str, text: &str) -> Result<(), JobError> {
    let path = dir.join(name);
    atomic_write(&path, text.as_bytes()).map_err(|e| JobError::Io(format!("write {}: {e}", path.display())))
}

/// Read a finished durable sort's output `run` back through `stack`
/// with `slot` (a replacement's fold needs the keys), under the lease.
pub fn read_back<X: Layer<U64Record>>(
    dir: &Path,
    geom: Geometry,
    run: &StripedRun,
    mut stack: StackSpec,
    slot: X,
    io_delay: Duration,
) -> Result<Vec<U64Record>, JobError> {
    let mut cluster = FileCluster { io_delay };
    let lease = cluster.lease(dir)?;
    let file = cluster.disks(lease, geom, false)?;
    if let Some(parity) = &mut stack.parity {
        parity.store = Some(dir.join(PARITY_STORE));
    }
    Ok(read_run(&mut stack.build(file, slot)?, run)?)
}

/// Take the lease on the cluster at `disks`, retrying `ArrayLocked` for
/// up to [`LEASE_WAIT`].
fn lease(disks: &Path) -> Result<ArrayLease, JobError> {
    let deadline = Instant::now() + LEASE_WAIT;
    loop {
        match ArrayLease::take(disks) {
            Err(PdiskError::ArrayLocked { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            taken => return Ok(taken?),
        }
    }
}

/// The disks a durable sort runs on, and what of them outlives one
/// incarnation of it (DESIGN §11.3).
pub trait Cluster {
    /// The backend the stack is built on.
    type Disks: DiskArray<U64Record>;
    /// What keeps the manifest and the disks in step while the sort
    /// reads the one and opens the other.
    type Lease;
    /// Take the lease; the manifest is read after it.
    fn lease(&mut self, dir: &Path) -> Result<Self::Lease, JobError>;
    /// The disks on `lease`: reopened for a resume, truncated when `fresh`.
    fn disks(&mut self, lease: Self::Lease, geom: Geometry, fresh: bool) -> Result<Self::Disks, JobError>;
    /// Take the built stack back, on every exit of the sort after it was
    /// built, success or error.
    fn settle<X: Layer<U64Record>>(&mut self, stack: BuiltStack<U64Record, Self::Disks, X>) {
        drop(stack);
    }
    /// The backend's own counters, one line, where it keeps any.
    fn counters(_disks: &Self::Disks) -> Option<String> {
        None
    }
}

/// The cluster of a job, a shard and `srm sort --backend file`: the disk
/// files at [`DISKS`], on a lease a fenced predecessor is waited out for.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileCluster {
    /// The device time per I/O (DESIGN §14.8).
    pub io_delay: Duration,
}

impl Cluster for FileCluster {
    type Disks = FileDiskArray<U64Record>;
    type Lease = ArrayLease;

    fn lease(&mut self, dir: &Path) -> Result<ArrayLease, JobError> {
        lease(&dir.join(DISKS))
    }

    fn disks(&mut self, lease: ArrayLease, geom: Geometry, fresh: bool) -> Result<Self::Disks, JobError> {
        let file = FileDiskArray::on_lease(geom, lease, fresh)?;
        file.set_io_delay(self.io_delay);
        Ok(file)
    }

    /// Whether a parallel I/O reached the workers as one event, whether
    /// read-ahead hints landed, and whether buffers came out of the pool.
    fn counters(a: &Self::Disks) -> Option<String> {
        let (q, pf) = (a.queue_stats(), a.prefetch_stats());
        let pool = a.buffer_pool().map(|p| p.stats()).unwrap_or_default();
        Some(format!(
            "{} submissions, {} notifications, {} completion waits; read-ahead {} issued, \
             {} hit, {} invalidated; pool hit rate {:.4} ({} misses)",
            q.submissions,
            q.notifications,
            q.completion_waits,
            pf.issued,
            pf.hits,
            pf.invalidated,
            pool.hit_rate().unwrap_or(0.0),
            pool.misses(),
        ))
    }
}

/// Memory disks: platters that survive from one incarnation to the next
/// only inside one process (`srm sort --backend mem`, the chaos target's
/// `mem` backend).
#[derive(Debug, Default)]
pub struct MemCluster {
    platters: Option<MemDiskArray<U64Record>>,
}

impl Cluster for MemCluster {
    type Disks = MemDiskArray<U64Record>;
    type Lease = ();

    fn lease(&mut self, _dir: &Path) -> Result<(), JobError> {
        Ok(())
    }

    fn disks(&mut self, (): (), geom: Geometry, fresh: bool) -> Result<Self::Disks, JobError> {
        if fresh {
            return Ok(MemDiskArray::new(geom));
        }
        self.platters.take().ok_or_else(|| {
            JobError::Checkpoint(
                "the checkpoint names runs on memory disks, which died with the process that wrote them".into(),
            )
        })
    }

    fn settle<X: Layer<U64Record>>(&mut self, stack: BuiltStack<U64Record, Self::Disks, X>) {
        self.platters = Some(stack.into_backend());
    }
}

/// One durable sort: what [`sort_durable`] sorts, where and how.
#[derive(Debug)]
pub struct DurableSort<'a, X, C> {
    /// The directory (DESIGN §11.3): [`DISKS`], [`PARITY_STORE`],
    /// [`MANIFEST`] and its predecessor, [`DONE`].
    pub dir: &'a Path,
    /// The cluster's geometry.
    pub geom: Geometry,
    /// The sorter; every incarnation must build the same one.
    pub sorter: &'a SrmSorter,
    /// The records in hand.
    pub records: &'a [U64Record],
    /// Write the records to the disks on a fresh start and form the runs
    /// from there, the paper's pass 0 (DESIGN §14.9); otherwise formation
    /// sorts them from memory.
    pub staged: bool,
    /// What deriving them took, in ms: the descriptor's `stage`.
    pub stage_ms: u64,
    /// The layers over the cluster.  A parity stack's sidecar is
    /// cleared with a fresh cluster; a traced stack is model-checked.
    pub stack: StackSpec,
    /// The stack's slot layer: `()`, a shard's fence, or the chaos
    /// target's misclassifier.
    pub slot: X,
    /// The disks, and what becomes of them between incarnations.
    pub cluster: &'a mut C,
    /// Check the output against [`oracle_digest`] of the records, which
    /// a helper thread computes while the engine sorts.
    pub oracle: bool,
}

/// What [`sort_durable`] hands back once it has published.
#[derive(Debug, Default)]
pub struct Sorted {
    /// The published descriptor.
    pub done: Descriptor,
    /// The sorted keys, as read back.
    pub keys: Vec<U64Record>,
    /// What this incarnation's sort did.
    pub report: SortReport,
    /// A traced stack's model check.
    pub model: Option<CheckSummary>,
    /// On a resume, the disks the manifest recorded dead; `None` on a
    /// fresh start.
    pub resumed: Option<Vec<DiskId>>,
    /// The disks dead at the end.
    pub dead: Vec<DiskId>,
    /// The array's I/O: the sort's and the read-back's.
    pub io: IoStats,
    /// The sort's host time (the descriptor keeps whole ms).
    pub elapsed: Duration,
    /// The backend's own counters ([`Cluster::counters`]), staging
    /// included.
    pub counters: Option<String>,
}

/// Sort `job.records` durably in `job.dir`, resuming whatever an earlier
/// incarnation left there, and publish its [`Descriptor`] once every
/// check has passed:
///
/// 1. take the cluster's lease, waiting out a predecessor's hold;
/// 2. read the manifest, once, under the lease;
/// 3. reopen the cluster for a resume, re-marking the disks the manifest
///    records dead, or truncate it — and stage a `staged` input;
/// 4. scrub the manifest's runs first when a resume runs on parity;
/// 5. sort, calling `observer(pass, stack)` at every boundary before its
///    snapshot (an `Err` stops the sort and comes back);
/// 6. read the output back and digest it;
/// 7. replay a traced stack's trace and stats through the model checker,
///    and, with `job.oracle`, compare the digest with the oracle's;
/// 8. publish the descriptor at [`DONE`].
///
/// The stack goes back to the cluster on every exit once it is built.
/// Every array handle is dropped on return, so a successor can take the
/// lease.  An empty input publishes [`Descriptor::default`] at once.
pub fn sort_durable<X: Layer<U64Record>, C: Cluster>(
    job: DurableSort<'_, X, C>,
    mut observer: impl FnMut(u64, &mut BuiltStack<U64Record, C::Disks, X>) -> srm_core::Result<()>,
) -> Result<Sorted, JobError> {
    let DurableSort { dir, geom, sorter, records, staged, stage_ms, mut stack, slot, cluster, oracle } = job;
    let mut ms = ShardMs { stage: stage_ms, ..ShardMs::default() };
    std::fs::create_dir_all(dir).map_err(|e| JobError::Io(format!("create {}: {e}", dir.display())))?;
    if records.is_empty() {
        let done = Descriptor { ms, ..Descriptor::default() };
        publish(dir, DONE, &done.encode())?;
        return Ok(Sorted { done, ..Sorted::default() });
    }
    let held = cluster.lease(dir)?;
    let manifest = dir.join(MANIFEST);
    let resume = sorter.resume_point(geom, records.len() as u64, &manifest)?;
    let resumed: Option<Vec<DiskId>> =
        resume.as_ref().map(|m| m.redundancy.iter().flat_map(|r| r.dead.iter().copied()).collect());
    let disks = cluster.disks(held, geom, resume.is_none())?;
    let parity = stack.parity.is_some();
    if let Some(spec) = &mut stack.parity {
        let store = dir.join(PARITY_STORE);
        match &resumed {
            Some(dead) => spec.dead.extend(dead.iter().copied()),
            None => match std::fs::remove_file(&store) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(JobError::Io(format!("clear {}: {e}", store.display())));
                }
                _ => {}
            },
        }
        spec.store = Some(store);
    }
    // A staged input is written through the parity layer alone (so its
    // sidecar covers it): off the crash clock, the fault ordinals, the
    // trace and the stats of the sort.
    let clock = Instant::now();
    let (disks, input) = if staged && resume.is_none() {
        let mut staging = StackSpec { parity: stack.parity.clone(), ..StackSpec::default() }.build(disks, ())?;
        let run = write_unsorted_input(&mut staging, records)?;
        (staging.into_backend(), Some(run))
    } else {
        (disks, None)
    };
    ms.stage += clock.elapsed().as_millis() as u64;
    let traced = stack.trace;
    let mut array = stack.build(disks, slot)?;
    let sorted = (|| {
        // A resume on parity heals every block its runs lost first; the
        // scrub's counters and events are dropped, so the sort's stats
        // match its trace exactly.
        let mut repaired = 0;
        if let Some(m) = resume.as_ref().filter(|_| parity) {
            let scrub = scrub_runs(&mut array, &m.runs)?;
            if scrub.unrepairable > 0 {
                return Err(JobError::Checkpoint(format!(
                    "{} block(s) unrepairable even with parity",
                    scrub.unrepairable
                )));
            }
            repaired = scrub.repaired;
        }
        array.reset_stats();
        drop(array.take_trace());
        // The trace starts on the array as the sort finds it: the checker
        // learns the disks an earlier incarnation saw die.
        if let Some(sink) = array.trace_sink() {
            for disk in array.redundancy().map(|r| r.dead).unwrap_or_default() {
                sink.emit(TraceEvent::DiskDeath { disk });
            }
        }

        let clock = Instant::now();
        let input = match &input {
            Some(run) => srm_core::Input::Staged(run),
            None => srm_core::Input::InMemory(records),
        };
        let (sorted, expect) = std::thread::scope(|s| {
            let expect = oracle.then(|| s.spawn(|| oracle_digest(records)));
            let sorted = sorter.sort_from(&mut array, input, Some(&manifest), resume, &mut observer);
            (sorted, expect.map(|h| h.join().map_err(|_| JobError::Engine("the oracle's thread panicked".into()))))
        });
        let (run, report) = sorted?;
        let expect = expect.transpose()?;
        let elapsed = clock.elapsed();
        ms.sort = elapsed.as_millis() as u64;

        let clock = Instant::now();
        let keys = read_run(&mut array, &run)?;
        let digest = digest_keys(keys.iter().map(|r| r.0));
        ms.verify = clock.elapsed().as_millis() as u64;

        let clock = Instant::now();
        let io = array.stats();
        let mut model = None;
        if traced {
            let trace = array.take_trace();
            model = Some(modelcheck::check_trace(geom, &trace).map_err(|v| JobError::Model(v.to_string()))?);
            modelcheck::check_stats(&trace, &io).map_err(|v| JobError::Model(format!("trace/stats drift: {v}")))?;
        }
        ms.check = clock.elapsed().as_millis() as u64;
        if let Some(want) = expect.filter(|&want| want != digest) {
            return Err(JobError::Engine(format!("output digest {digest:#018x} != expected {want:#018x}")));
        }
        let done = Descriptor {
            run: Some(run),
            records: records.len() as u64,
            digest,
            passes: report.merge_passes,
            trace_events: model.as_ref().map_or(0, |m| m.events),
            repaired,
            ms,
        };
        // Published under the lease, before the stack goes back.
        publish(dir, DONE, &done.encode())?;
        let dead = array.redundancy().map(|r| r.dead).unwrap_or_default();
        let counters = C::counters(array.backend());
        Ok(Sorted { done, keys, report, model, resumed, dead, io, elapsed, counters })
    })();
    cluster.settle(array);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_encoding() {
        let spec = JobSpec {
            engine: EngineKind::Dsm,
            records: 1234,
            seed: 99,
            d: 3,
            b: 4,
            m: 240,
            placement: Placement::Staggered,
            formation: Some(RunFormation::ReplacementSelection),
            pipeline: true,
            read_ahead: 4,
            deadline_ms: Some(5000),
            fault_rate: 0.01,
            fault_seed: 7,
        };
        let decoded = JobSpec::decode(&spec.encode()).unwrap();
        assert_eq!(decoded, spec);
        // Protocol-style pairs parse the same way.
        let encoded = spec.encode();
        let pairs: Vec<(&str, &str)> = encoded
            .lines()
            .filter_map(|l| l.split_once('='))
            .collect();
        assert_eq!(JobSpec::from_pairs(pairs).unwrap(), spec);
    }

    /// A spec that names no window gets the default one, pipelined at
    /// read-ahead 3; `pipeline=0` is honoured as the window-0 reference;
    /// and a durable spec file from before the default moved — every
    /// version has written both keys — still decodes to the window its
    /// job was submitted with, so a restart resumes it unchanged.
    #[test]
    fn absent_window_keys_take_the_default_and_explicit_ones_win() {
        let unnamed = JobSpec::decode("records=5000\nd=2\nb=4\nm=96\n").unwrap();
        assert_eq!((unnamed.pipeline, unnamed.read_ahead), (true, 3));
        assert!(unnamed.srm_sorter().pipeline());
        assert_eq!(unnamed.srm_sorter().read_ahead(), 3);
        assert_eq!(JobSpec::decode(&unnamed.encode()).unwrap(), unnamed);

        let blocking = JobSpec::from_pairs([("records", "5000"), ("pipeline", "0")]).unwrap();
        assert!(!blocking.pipeline && !blocking.srm_sorter().pipeline());
        assert_eq!(JobSpec::decode(&blocking.encode()).unwrap(), blocking);

        let durable = "engine=srm\nrecords=20000\nseed=202465005\nd=2\nb=8\nm=512\n\
                       placement=random\nformation=load\npipeline=0\nread-ahead=0\n\
                       fault-rate=0\nfault-seed=1024023\n";
        let resumed = JobSpec::decode(durable).unwrap();
        assert_eq!(
            resumed,
            JobSpec {
                formation: Some(RunFormation::MemoryLoad { fraction: 0.5 }),
                pipeline: false,
                read_ahead: 0,
                ..JobSpec::default()
            },
            "the old default, spelled out: `formation=load` is an override now"
        );
        assert_eq!(resumed.encode(), durable, "and it re-encodes byte for byte");
    }

    /// A spec without `formation=` leaves the choice to the sorter, which
    /// on a modelled device (the array's delay) picks RS where it
    /// predicts fewer blocks (a `dist_p4` shard's 30 000 records) and
    /// loads on a free one; `load` and `rs` are overrides a device does
    /// not touch, and each round-trips through the encoding.  A stored
    /// `parload:N` reads as `load` and re-encodes as it.
    #[test]
    fn an_omitted_formation_is_chosen_and_a_named_one_overrides() {
        let shard = "records=30000\nd=3\nb=16\nm=1024\n";
        let chosen = JobSpec::decode(shard).unwrap();
        assert_eq!(chosen.formation, None);
        assert!(!chosen.encode().contains("formation"), "None is the key's absence");
        assert_eq!(JobSpec::decode(&chosen.encode()).unwrap(), chosen);
        let geom = chosen.geometry().unwrap();
        let dir = std::env::temp_dir().join(format!("srm-job-formation-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let array: FileDiskArray<U64Record> = FileDiskArray::create(geom, &dir).unwrap();
        let device = |delay_us: u64| {
            array.set_io_delay(Duration::from_micros(delay_us));
            array.device_time()
        };
        let formed = |spec: &JobSpec, delay_us: u64| {
            spec.build(None).formation(geom, spec.records, device(delay_us)).unwrap()
        };
        assert_eq!(formed(&chosen, 1), RunFormation::ReplacementSelection);
        assert_eq!(formed(&chosen, 0), RunFormation::MemoryLoad { fraction: 0.5 });
        assert_eq!(chosen.build(None).formation(geom, 30_000, Duration::ZERO).unwrap(), RunFormation::MemoryLoad { fraction: 0.5 });

        for (named, want) in [
            ("load", RunFormation::MemoryLoad { fraction: 0.5 }),
            ("rs", RunFormation::ReplacementSelection),
        ] {
            let spec = JobSpec::decode(&format!("{shard}formation={named}\n")).unwrap();
            assert_eq!(spec.formation, Some(want));
            assert_eq!(JobSpec::decode(&spec.encode()).unwrap(), spec);
            assert_eq!((formed(&spec, 1), formed(&spec, 0)), (want, want), "{named}");
        }
        let legacy = JobSpec::decode(&format!("{shard}formation=parload:3\n")).unwrap();
        assert_eq!(legacy.formation, Some(RunFormation::MemoryLoad { fraction: 0.5 }));
        assert!(legacy.encode().contains("formation=load\n"));
        assert!(JobSpec::decode(&format!("{shard}formation=parload:x\n")).is_err());
        // DSM keeps its half-memory loads on any device.
        let dsm = JobSpec { engine: EngineKind::Dsm, ..chosen };
        let wide = dsm.geometry().unwrap();
        let sorter = dsm.build(None);
        assert_eq!(sorter.formation(wide, 30_000, device(1)).unwrap(), RunFormation::MemoryLoad { fraction: 0.5 });
        drop(array);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_spec_values_are_rejected() {
        assert!(JobSpec::from_pairs([("engine", "quantum")]).is_err());
        assert!(JobSpec::from_pairs([("records", "many")]).is_err());
        assert!(JobSpec::from_pairs([("no-such-key", "1")]).is_err());
        let zero = JobSpec {
            records: 0,
            ..JobSpec::default()
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn run_descriptors_roundtrip() {
        let striped = StripedRun {
            start_disk: pdisk::DiskId(1),
            len_blocks: 9,
            records: 33,
            base_offsets: vec![4, 0, 7],
        };
        assert_eq!(decode_run(&encode_run(&striped)).unwrap(), striped);
        assert!(matches!(decode_run("conical 1 2 3"), Err(JobError::Io(_))));
    }

    /// The old engine's staged-input descriptor is refused, typed.
    #[test]
    fn a_logical_run_descriptor_is_refused_not_resumed() {
        assert!(matches!(decode_run("logical 2 5 40"), Err(JobError::Checkpoint(_))));
    }

    #[test]
    fn budget_is_the_definition_3_partition_of_the_jobs_array() {
        let spec = JobSpec::default();
        let geom = spec.geometry().unwrap();
        let budget = MemoryBudget::for_geometry(geom).unwrap();
        assert_eq!(spec.budget_records().unwrap(), (budget.total() * geom.b) as u64);
        // DSM at (D, B, M) = (4, 128, 12 352): one disk of 512-record
        // blocks, R = 11, M_R = 9 — all 24 blocks, never more than M.
        let dsm = JobSpec { engine: EngineKind::Dsm, d: 4, b: 128, m: 12_352, ..JobSpec::default() };
        let wide = dsm.geometry().unwrap();
        assert_eq!((wide.d, wide.b), (1, 512));
        assert_eq!(dsm.budget_records().unwrap(), 24 * 512);
    }

    #[test]
    fn both_engines_sort_through_the_trait() {
        for engine in [EngineKind::Srm, EngineKind::Dsm] {
            let spec = JobSpec {
                engine,
                records: 3000,
                d: 2,
                b: 4,
                m: 96,
                ..JobSpec::default()
            };
            let geom = spec.geometry().unwrap();
            let mut array: MemDiskArray<U64Record> = MemDiskArray::new(geom);
            let data = spec.input_records();
            let job = spec.build(None);
            let input = write_unsorted_input(&mut array, &data).unwrap();
            let mut passes = Vec::new();
            let (run, report) = job
                .sort_observed(&mut array, &input, None, |p, _| {
                    passes.push(p);
                    Ok(())
                })
                .unwrap();
            assert_eq!(report.records, 3000);
            assert!(passes.contains(&0), "formation boundary must be observed");
            let out: Vec<U64Record> = read_run(&mut array, &run).unwrap();
            let got = digest_keys(out.iter().map(|r| r.0));
            assert_eq!(got, expected_digest(&spec), "engine {engine:?}");
        }
    }

    #[test]
    fn interrupt_via_build_flows_through_the_trait() {
        let spec = JobSpec {
            records: 3000,
            d: 2,
            b: 4,
            m: 96,
            ..JobSpec::default()
        };
        let mut array: MemDiskArray<U64Record> = MemDiskArray::new(spec.geometry().unwrap());
        let data = spec.input_records();
        let flag = InterruptFlag::new();
        flag.trigger();
        let job = spec.build(Some(flag));
        let input = write_unsorted_input(&mut array, &data).unwrap();
        let r = job.sort(&mut array, &input);
        assert!(matches!(r.map_err(JobError::from), Err(JobError::Interrupted)));
    }
}
