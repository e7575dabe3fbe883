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
//!   [`JobSpec::srm_sorter`] / [`JobSpec::dsm_sorter`] / [`JobSpec::build`],
//!   and drive the [`SrmSorter`] through its `resume_point` /
//!   `sort_observed` pair.  A DSM job is the same engine on
//!   its one wide disk ([`JobSpec::geometry`]);
//! * [`encode_run`] / [`decode_run`] — a run handle as one line of the
//!   server's durable job state.
//!
//! Admission control prices a job with [`JobSpec::budget_records`]: the
//! Definition-3 partition of the job's array at its merge order,
//! rendered in records.

use analysis::MemoryBudget;
use pdisk::{Geometry, InterruptFlag, PdiskError, StripedRun, U64Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
pub use srm_core::EngineKind;
use srm_core::{Placement, RunFormation, SrmConfig, SrmError, SrmSorter};

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
        let formation = self.formation.map(|f| match f {
            RunFormation::ParallelMemoryLoad { threads, .. } => format!("parload:{threads}"),
            other => other.name().to_string(),
        });
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
                        Some(("parload", t)) => RunFormation::ParallelMemoryLoad {
                            fraction: 0.5,
                            threads: t.parse().map_err(|_| bad(k, v))?,
                        },
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
        let mut out = String::new();
        for (k, v) in self.to_pairs() {
            out.push_str(k);
            out.push('=');
            out.push_str(&v);
            out.push('\n');
        }
        out
    }

    /// Parse [`JobSpec::encode`] output.
    pub fn decode(text: &str) -> Result<Self, JobError> {
        let pairs: Vec<(&str, &str)> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| {
                l.split_once('=')
                    .ok_or_else(|| JobError::Io(format!("bad spec line `{l}`")))
            })
            .collect::<Result<_, _>>()?;
        Self::from_pairs(pairs)
    }
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

/// The expected output digest of a job: generate its input, sort in
/// host memory, digest.  What the disks must agree with.
pub fn expected_digest(spec: &JobSpec) -> u64 {
    let mut keys: Vec<u64> = spec.input_records().iter().map(|r| r.0).collect();
    keys.sort_unstable();
    digest_keys(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::{DiskArray, FileDiskArray, MemDiskArray};
    use std::time::Duration;
    use srm_core::read_run;
    use srm_core::sort::write_unsorted_input;

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
            formation: Some(RunFormation::ParallelMemoryLoad {
                fraction: 0.5,
                threads: 2,
            }),
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
    /// loads on a free one; `load`, `parload:N` and `rs` are overrides a
    /// device does not touch, and each round-trips through the encoding.
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
            ("parload:3", RunFormation::ParallelMemoryLoad { fraction: 0.5, threads: 3 }),
            ("rs", RunFormation::ReplacementSelection),
        ] {
            let spec = JobSpec::decode(&format!("{shard}formation={named}\n")).unwrap();
            assert_eq!(spec.formation, Some(want));
            assert_eq!(JobSpec::decode(&spec.encode()).unwrap(), spec);
            assert_eq!((formed(&spec, 1), formed(&spec, 0)), (want, want), "{named}");
        }
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
