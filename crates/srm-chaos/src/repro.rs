//! Deterministic replay artifacts (`chaos-repro-*.json`).
//!
//! An artifact records everything a trial's outcome depended on: the
//! target, the engine parameters, whether the planted bug was armed,
//! the violation's code, and the exact (minimized) event list.
//! Because [`crate::run_trial`] is a pure function of those inputs,
//! `srm chaos --replay FILE` re-executes the failure identically — on
//! any machine, any number of times.
//!
//! The JSON is hand-rolled (this workspace's `serde` is an offline
//! stub): a flat object with one `events` array of flat objects, and
//! a recursive-descent reader that accepts exactly the subset the
//! writer emits (strings, unsigned integers, booleans, arrays,
//! objects).  Unknown keys are rejected loudly rather than skipped —
//! an artifact that doesn't round-trip is not a reproducer.

use crate::schedule::ChaosEvent;
use crate::{Backend, CampaignConfig, ChaosError, Target};
use pdisk::FaultOp;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Artifact format version; bumped on incompatible schema changes.
pub const VERSION: u64 = 1;

/// One reproducer: the full input of a single failing trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproArtifact {
    /// Schema version ([`VERSION`]).
    pub version: u64,
    /// Target the trial ran against.
    pub target: Target,
    /// Campaign seed (for provenance; replay does not re-draw).
    pub seed: u64,
    /// Trial index within the campaign.
    pub trial: u32,
    /// Records sorted.
    pub records: u64,
    /// Disks per machine.
    pub d: usize,
    /// Block size, records.
    pub b: usize,
    /// Memory, records.
    pub m: usize,
    /// Pipelined engine?
    pub pipeline: bool,
    /// Forecast read-ahead depth.
    pub read_ahead: usize,
    /// Sorter placement seed.
    pub sort_seed: u64,
    /// Shards (dist target).
    pub shards: u32,
    /// The local target's disks; written only when not `mem`.
    pub backend: Backend,
    /// Parity under the local target; written only when off.
    pub parity: bool,
    /// Planted retry-classification bug armed?
    pub plant_bug: bool,
    /// Jobs per server trial.
    pub server_jobs: u32,
    /// The violation's stable code (`digest-mismatch`, `wedged`, ...).
    pub violation: String,
    /// The minimized failing schedule.
    pub events: Vec<ChaosEvent>,
}

impl ReproArtifact {
    /// Capture a failing trial from a running campaign.
    pub fn from_campaign(
        cfg: &CampaignConfig,
        trial: u32,
        violation: &crate::Violation,
        events: &[ChaosEvent],
    ) -> ReproArtifact {
        ReproArtifact {
            version: VERSION,
            target: cfg.target,
            seed: cfg.seed,
            trial,
            records: cfg.records,
            d: cfg.d,
            b: cfg.b,
            m: cfg.m,
            pipeline: cfg.pipeline,
            read_ahead: cfg.read_ahead,
            sort_seed: cfg.sort_seed,
            shards: cfg.shards,
            backend: cfg.backend,
            parity: cfg.parity,
            plant_bug: cfg.plant_bug,
            server_jobs: cfg.server_jobs,
            violation: violation.code().to_string(),
            events: events.to_vec(),
        }
    }

    /// Rebuild the campaign configuration a replay needs.
    pub fn campaign_config(
        &self,
        scratch: &Path,
        server_bin: Option<PathBuf>,
    ) -> Result<CampaignConfig, ChaosError> {
        if self.version != VERSION {
            return Err(ChaosError::BadArtifact(format!(
                "artifact version {} (this build replays version {VERSION})",
                self.version
            )));
        }
        if self.target == Target::Server && server_bin.is_none() {
            return Err(ChaosError::BadArtifact(
                "server-target artifact needs the srm binary to spawn".into(),
            ));
        }
        let mut cfg = CampaignConfig::new(self.target, self.seed, scratch);
        cfg.trials = 1;
        cfg.records = self.records;
        cfg.d = self.d;
        cfg.b = self.b;
        cfg.m = self.m;
        cfg.pipeline = self.pipeline;
        cfg.read_ahead = self.read_ahead;
        cfg.sort_seed = self.sort_seed;
        cfg.shards = self.shards;
        cfg.backend = self.backend;
        cfg.parity = self.parity;
        cfg.plant_bug = self.plant_bug;
        cfg.server_jobs = self.server_jobs;
        cfg.server_bin = server_bin;
        cfg.minimize = false;
        Ok(cfg)
    }

    /// Serialize to the artifact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::from("{\n");
        let mut field = |k: &str, v: String| {
            out.push_str(&format!("  \"{k}\": {v},\n"));
        };
        field("version", self.version.to_string());
        field("target", format!("\"{}\"", self.target.slug()));
        field("seed", self.seed.to_string());
        field("trial", self.trial.to_string());
        field("records", self.records.to_string());
        field("d", self.d.to_string());
        field("b", self.b.to_string());
        field("m", self.m.to_string());
        field("pipeline", self.pipeline.to_string());
        field("read_ahead", self.read_ahead.to_string());
        field("sort_seed", self.sort_seed.to_string());
        field("shards", self.shards.to_string());
        // The defaults are left out, so artifacts from before these
        // fields existed stay byte-identical.
        if self.backend != Backend::Mem {
            field("backend", format!("\"{}\"", self.backend.slug()));
        }
        if !self.parity {
            field("parity", "false".into());
        }
        field("plant_bug", self.plant_bug.to_string());
        field("server_jobs", self.server_jobs.to_string());
        field("violation", format!("\"{}\"", self.violation));
        let events: Vec<String> = self.events.iter().map(encode_event).collect();
        out.push_str(&format!("  \"events\": [{}]\n", events.join(", ")));
        out.push_str("}\n");
        out
    }

    /// Parse an artifact.
    pub fn decode(text: &str) -> Result<ReproArtifact, ChaosError> {
        let value = Json::parse(text)?;
        let obj = value.object("artifact")?;
        let target_slug = get(obj, "target")?.string("target")?;
        let target = Target::from_slug(&target_slug)
            .ok_or_else(|| ChaosError::Parse(format!("unknown target `{target_slug}`")))?;
        let events = get(obj, "events")?
            .array("events")?
            .iter()
            .map(decode_event)
            .collect::<Result<Vec<ChaosEvent>, ChaosError>>()?;
        Ok(ReproArtifact {
            version: get(obj, "version")?.number("version")?,
            target,
            seed: get(obj, "seed")?.number("seed")?,
            trial: get(obj, "trial")?.number("trial")? as u32,
            records: get(obj, "records")?.number("records")?,
            d: get(obj, "d")?.number("d")? as usize,
            b: get(obj, "b")?.number("b")? as usize,
            m: get(obj, "m")?.number("m")? as usize,
            pipeline: get(obj, "pipeline")?.boolean("pipeline")?,
            read_ahead: get(obj, "read_ahead")?.number("read_ahead")? as usize,
            sort_seed: get(obj, "sort_seed")?.number("sort_seed")?,
            shards: get(obj, "shards")?.number("shards")? as u32,
            backend: match obj.get("backend").map(|v| v.string("backend")).transpose()? {
                None => Backend::Mem,
                Some(slug) => Backend::from_slug(&slug)
                    .ok_or_else(|| ChaosError::Parse(format!("unknown backend `{slug}`")))?,
            },
            parity: obj.get("parity").map_or(Ok(true), |v| v.boolean("parity"))?,
            plant_bug: get(obj, "plant_bug")?.boolean("plant_bug")?,
            server_jobs: get(obj, "server_jobs")?.number("server_jobs")? as u32,
            violation: get(obj, "violation")?.string("violation")?,
            events,
        })
    }

    /// Read and parse an artifact file.
    pub fn load(path: &Path) -> Result<ReproArtifact, ChaosError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ChaosError::Io(format!("read {}: {e}", path.display())))?;
        ReproArtifact::decode(&text)
    }
}

fn op_slug(op: FaultOp) -> &'static str {
    match op {
        FaultOp::Read => "read",
        FaultOp::Write => "write",
        FaultOp::Alloc => "alloc",
        FaultOp::Sync => "sync",
    }
}

fn op_from_slug(s: &str) -> Result<FaultOp, ChaosError> {
    match s {
        "read" => Ok(FaultOp::Read),
        "write" => Ok(FaultOp::Write),
        "alloc" => Ok(FaultOp::Alloc),
        "sync" => Ok(FaultOp::Sync),
        other => Err(ChaosError::Parse(format!("unknown fault op `{other}`"))),
    }
}

fn encode_event(ev: &ChaosEvent) -> String {
    let kind = ev.kind();
    match ev {
        ChaosEvent::Transient { op, ordinal } => format!(
            "{{\"kind\": \"{kind}\", \"op\": \"{}\", \"ordinal\": {ordinal}}}",
            op_slug(*op)
        ),
        ChaosEvent::CorruptRead { ordinal }
        | ChaosEvent::DiskFull { ordinal }
        | ChaosEvent::SyncFail { ordinal } => {
            format!("{{\"kind\": \"{kind}\", \"ordinal\": {ordinal}}}")
        }
        ChaosEvent::CrashAt { point } => format!("{{\"kind\": \"{kind}\", \"point\": {point}}}"),
        ChaosEvent::KillDisk { disk, pass } => {
            format!("{{\"kind\": \"{kind}\", \"disk\": {disk}, \"pass\": {pass}}}")
        }
        ChaosEvent::Interrupt { pass } => format!("{{\"kind\": \"{kind}\", \"pass\": {pass}}}"),
        ChaosEvent::NetDrop { per_mille } | ChaosEvent::NetDup { per_mille } => {
            format!("{{\"kind\": \"{kind}\", \"per_mille\": {per_mille}}}")
        }
        ChaosEvent::NetDelay {
            per_mille,
            max_ticks,
        } => format!(
            "{{\"kind\": \"{kind}\", \"per_mille\": {per_mille}, \"max_ticks\": {max_ticks}}}"
        ),
        ChaosEvent::Partition { node, from, until } => format!(
            "{{\"kind\": \"{kind}\", \"node\": {node}, \"from\": {from}, \"until\": {until}}}"
        ),
        ChaosEvent::KillNode { shard, pass } => {
            format!("{{\"kind\": \"{kind}\", \"shard\": {shard}, \"pass\": {pass}}}")
        }
        ChaosEvent::IoDelayUs { micros } => {
            format!("{{\"kind\": \"{kind}\", \"micros\": {micros}}}")
        }
        ChaosEvent::KillServer { after_submit } => {
            format!("{{\"kind\": \"{kind}\", \"after_submit\": {after_submit}}}")
        }
        ChaosEvent::StoreFull { after_writes } => {
            format!("{{\"kind\": \"{kind}\", \"after_writes\": {after_writes}}}")
        }
    }
}

fn decode_event(v: &Json) -> Result<ChaosEvent, ChaosError> {
    let obj = v.object("event")?;
    let kind = get(obj, "kind")?.string("kind")?;
    let num = |k: &str| -> Result<u64, ChaosError> { get(obj, k)?.number(k) };
    Ok(match kind.as_str() {
        "transient" => ChaosEvent::Transient {
            op: op_from_slug(&get(obj, "op")?.string("op")?)?,
            ordinal: num("ordinal")?,
        },
        "corrupt-read" => ChaosEvent::CorruptRead {
            ordinal: num("ordinal")?,
        },
        "disk-full" => ChaosEvent::DiskFull {
            ordinal: num("ordinal")?,
        },
        "sync-fail" => ChaosEvent::SyncFail {
            ordinal: num("ordinal")?,
        },
        "crash-at" => ChaosEvent::CrashAt {
            point: num("point")?,
        },
        "kill-disk" => ChaosEvent::KillDisk {
            disk: num("disk")? as u32,
            pass: num("pass")?,
        },
        "interrupt" => ChaosEvent::Interrupt { pass: num("pass")? },
        "net-drop" => ChaosEvent::NetDrop {
            per_mille: num("per_mille")? as u32,
        },
        "net-dup" => ChaosEvent::NetDup {
            per_mille: num("per_mille")? as u32,
        },
        "net-delay" => ChaosEvent::NetDelay {
            per_mille: num("per_mille")? as u32,
            max_ticks: num("max_ticks")?,
        },
        "partition" => ChaosEvent::Partition {
            node: num("node")? as u32,
            from: num("from")?,
            until: num("until")?,
        },
        "kill-node" => ChaosEvent::KillNode {
            shard: num("shard")? as u32,
            pass: num("pass")?,
        },
        "io-delay" => ChaosEvent::IoDelayUs {
            micros: num("micros")?,
        },
        "kill-server" => ChaosEvent::KillServer {
            after_submit: num("after_submit")? as u32,
        },
        "store-full" => ChaosEvent::StoreFull {
            after_writes: num("after_writes")?,
        },
        other => return Err(ChaosError::Parse(format!("unknown event kind `{other}`"))),
    })
}

/// The JSON subset the artifact format uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Number(u64),
    Bool(bool),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a Json, ChaosError> {
    obj.get(key)
        .ok_or_else(|| ChaosError::Parse(format!("missing key `{key}`")))
}

impl Json {
    fn object(&self, what: &str) -> Result<&BTreeMap<String, Json>, ChaosError> {
        match self {
            Json::Object(m) => Ok(m),
            _ => Err(ChaosError::Parse(format!("{what}: expected an object"))),
        }
    }

    fn array(&self, what: &str) -> Result<&[Json], ChaosError> {
        match self {
            Json::Array(v) => Ok(v),
            _ => Err(ChaosError::Parse(format!("{what}: expected an array"))),
        }
    }

    fn number(&self, what: &str) -> Result<u64, ChaosError> {
        match self {
            Json::Number(n) => Ok(*n),
            _ => Err(ChaosError::Parse(format!("{what}: expected a number"))),
        }
    }

    fn boolean(&self, what: &str) -> Result<bool, ChaosError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(ChaosError::Parse(format!("{what}: expected a boolean"))),
        }
    }

    fn string(&self, what: &str) -> Result<String, ChaosError> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(ChaosError::Parse(format!("{what}: expected a string"))),
        }
    }

    fn parse(text: &str) -> Result<Json, ChaosError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ChaosError::Parse(format!(
                "trailing garbage at byte {pos}"
            )));
        }
        Ok(value)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ChaosError> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(ChaosError::Parse(format!(
            "expected `{}` at byte {pos}",
            c as char
        )))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, ChaosError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') | Some(b'f') => parse_bool(b, pos),
        Some(c) if c.is_ascii_digit() => parse_number(b, pos),
        _ => Err(ChaosError::Parse(format!("unexpected input at byte {pos}"))),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, ChaosError> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(ChaosError::Parse(format!("expected `,` or `}}` at byte {pos}"))),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, ChaosError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(ChaosError::Parse(format!("expected `,` or `]` at byte {pos}"))),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ChaosError> {
    expect(b, pos, b'"')?;
    let start = *pos;
    while *pos < b.len() && b[*pos] != b'"' {
        if b[*pos] == b'\\' {
            return Err(ChaosError::Parse(format!(
                "escape sequences are not part of the artifact format (byte {pos})"
            )));
        }
        *pos += 1;
    }
    if *pos >= b.len() {
        return Err(ChaosError::Parse("unterminated string".into()));
    }
    let s = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| ChaosError::Parse("non-UTF-8 string".into()))?
        .to_string();
    *pos += 1;
    Ok(s)
}

fn parse_bool(b: &[u8], pos: &mut usize) -> Result<Json, ChaosError> {
    if b[*pos..].starts_with(b"true") {
        *pos += 4;
        Ok(Json::Bool(true))
    } else if b[*pos..].starts_with(b"false") {
        *pos += 5;
        Ok(Json::Bool(false))
    } else {
        Err(ChaosError::Parse(format!("bad literal at byte {pos}")))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ChaosError> {
    let start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
    text.parse::<u64>()
        .map(Json::Number)
        .map_err(|e| ChaosError::Parse(format!("bad number `{text}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    fn sample() -> ReproArtifact {
        let cfg = CampaignConfig::new(Target::Local, 7, "/tmp/x");
        let events = vec![
            ChaosEvent::Transient {
                op: FaultOp::Write,
                ordinal: 12,
            },
            ChaosEvent::DiskFull { ordinal: 30 },
            ChaosEvent::SyncFail { ordinal: 2 },
            ChaosEvent::CrashAt { point: 99 },
            ChaosEvent::KillDisk { disk: 1, pass: 1 },
            ChaosEvent::Interrupt { pass: 2 },
            ChaosEvent::NetDelay {
                per_mille: 80,
                max_ticks: 2,
            },
            ChaosEvent::Partition {
                node: 1,
                from: 5,
                until: 11,
            },
            ChaosEvent::KillServer { after_submit: 2 },
            ChaosEvent::StoreFull { after_writes: 1 },
        ];
        ReproArtifact::from_campaign(&cfg, 3, &Violation::Wedged { attempts: 6 }, &events)
    }

    #[test]
    fn round_trips_every_event_kind() {
        let mut artifact = sample();
        // Left out at their defaults, so older artifacts stay byte-identical.
        let json = artifact.encode();
        assert!(!json.contains("\"backend\"") && !json.contains("\"parity\""), "{json}");
        for (backend, parity) in [(Backend::Mem, true), (Backend::File, false)] {
            (artifact.backend, artifact.parity) = (backend, parity);
            let decoded = ReproArtifact::decode(&artifact.encode()).expect("round trip");
            assert_eq!(decoded, artifact);
        }
    }

    #[test]
    fn rejects_unknown_kinds_and_truncation() {
        let artifact = sample();
        let json = artifact.encode();
        let bad = json.replace("\"disk-full\"", "\"disk-melted\"");
        assert!(matches!(
            ReproArtifact::decode(&bad),
            Err(ChaosError::Parse(_))
        ));
        let truncated = &json[..json.len() / 2];
        assert!(ReproArtifact::decode(truncated).is_err());
    }

    #[test]
    fn version_gate_is_enforced() {
        let mut artifact = sample();
        artifact.version = 999;
        let err = artifact
            .campaign_config(Path::new("/tmp/x"), None)
            .unwrap_err();
        assert!(matches!(err, ChaosError::BadArtifact(_)));
    }

    #[test]
    fn replay_config_mirrors_the_artifact() {
        let artifact = sample();
        let cfg = artifact
            .campaign_config(Path::new("/tmp/replay"), None)
            .expect("config");
        assert_eq!(cfg.target, Target::Local);
        assert_eq!(cfg.records, artifact.records);
        assert_eq!(cfg.sort_seed, artifact.sort_seed);
        assert!(!cfg.minimize);
        assert_eq!(cfg.trials, 1);
    }
}
