//! The wire vocabulary between the coordinator and its shard nodes.
//!
//! Nodes `0..P` are shards; node `P` is the coordinator.  Every message
//! travels in an [`Envelope`] stamped with its sender and the sender's
//! **epoch** — the fencing token that makes a superseded shard instance
//! harmless: the coordinator bumps a shard's epoch when it declares the
//! shard dead, and discards envelopes from older epochs, so a
//! falsely-suspected node that is still running cannot confuse the
//! protocol after its replacement has been spawned.
//!
//! Across a pipe (a `--procs` child's stdin and stdout) an envelope is
//! one [`Envelope::encode`] line: `SRC DST EPOCH Kind fields…`, the kind
//! named as its variant and its fields as decimal numbers in declaration
//! order (a `Folded` outcome says `ok` or `err` first) — except that
//! `SortDone` and `Fatal` end in text, the descriptor's
//! ([`Descriptor::encode`]) or the message, with `\\`, newline and
//! carriage return escaped.  [`Envelope::decode`] takes exactly that
//! back; any other line is a typed error, never a plausible message.

use crate::error::DistError;
use crate::fold::{Carry, Disorder};
use srm_server::Descriptor;

/// One message.  No message carries keys: each shard derives its own
/// partition from the spec ([`crate::split::KeyRange`]), and the fold
/// travels as a [`Carry`].
/// Each dispatch `match` on it denies clippy's wildcard-arm lints, so it
/// names every kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    // ── coordinator → shard ──────────────────────────────────────────
    /// Fold the shard's sorted run onto `carry`, the state the shards
    /// before it in splitter order left.  Sent once the shard's sort is
    /// done and every shard before it is folded; resent until
    /// [`Msg::Folded`] arrives, which is safe because the fold is a pure
    /// function of the carry and the shard's durable run.
    Fold {
        /// The fold's state after the shards before this one.
        carry: Carry,
    },
    /// Finish up: the distributed sort is complete.
    Shutdown,

    // ── shard → coordinator ──────────────────────────────────────────
    /// Liveness beacon, sent every heartbeat interval.
    Heartbeat,
    /// A pass boundary was reached (0 = run formation done).
    Pass {
        /// The completed pass.
        pass: u64,
    },
    /// The shard's sort finished and its descriptor is published.
    SortDone {
        /// The descriptor: the run, its digest, the finishing
        /// incarnation's trace and phase timers.
        done: Descriptor,
    },
    /// Reply to [`Msg::Fold`]: the carry with this shard's run folded
    /// on, or where a key fell below its predecessor.
    Folded {
        /// The fold's outcome.
        fold: Result<Carry, Disorder>,
    },
    /// The shard hit an unrecoverable error.
    Fatal {
        /// Description, for the coordinator's report.
        msg: String,
    },
}

/// A message plus its routing and fencing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node (shards `0..P`, coordinator `P`).
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// The sender's epoch (fencing token; coordinator messages carry the
    /// *destination shard's* current epoch so stale shards can also
    /// ignore the coordinator's messages to their successors).
    pub epoch: u64,
    /// The payload.
    pub msg: Msg,
}

impl Envelope {
    /// This envelope as one line of the pipe codec, newline included, so
    /// that a writer hands the whole line to the kernel in one `write`.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn encode(&self) -> String {
        let body = match &self.msg {
            Msg::Fold { carry: c } => format!("Fold {} {} {}", c.digest, c.prev, c.records),
            Msg::Folded { fold: Ok(c) } => format!("Folded ok {} {} {}", c.digest, c.prev, c.records),
            Msg::Folded { fold: Err(d) } => format!("Folded err {} {} {}", d.first, d.key, d.prev),
            Msg::Shutdown => "Shutdown".into(),
            Msg::Heartbeat => "Heartbeat".into(),
            Msg::Pass { pass } => format!("Pass {pass}"),
            Msg::SortDone { done } => format!("SortDone {}", escape(&done.encode())),
            Msg::Fatal { msg } => format!("Fatal {}", escape(msg)),
        };
        format!("{} {} {} {body}\n", self.src, self.dst, self.epoch)
    }

    /// Parse one line [`Envelope::encode`] wrote (its newline optional).
    /// Any other line — torn, truncated, or not the codec's — is a
    /// [`DistError::Net`] naming it.
    pub fn decode(line: &str) -> crate::Result<Envelope> {
        let line = line.strip_suffix('\n').unwrap_or(line);
        let bad = || DistError::Net(format!("malformed message line `{line}`"));
        let mut words = line.splitn(5, ' ');
        let mut word = || words.next().ok_or_else(bad);
        let (src, dst) = (word()?.parse().map_err(|_| bad())?, word()?.parse().map_err(|_| bad())?);
        let (epoch, kind) = (word()?.parse().map_err(|_| bad())?, word()?);
        let rest = words.next();
        let text = || unescape(rest.unwrap_or_default()).ok_or_else(bad);
        let mut fields: Vec<&str> = rest.map_or_else(Vec::new, |r| r.split(' ').collect());
        let outcome = (kind == "Folded" && !fields.is_empty()).then(|| fields.remove(0));
        let n: std::result::Result<Vec<u64>, _> = fields.iter().map(|f| f.parse()).collect();
        let msg = match (kind, outcome, &n.unwrap_or_default()[..]) {
            ("SortDone", ..) => Msg::SortDone { done: Descriptor::parse(&text()?).map_err(|_| bad())? },
            ("Fatal", ..) => Msg::Fatal { msg: text()? },
            ("Fold", None, &[digest, prev, records]) => Msg::Fold { carry: Carry { digest, prev, records } },
            ("Folded", Some("ok"), &[digest, prev, records]) => Msg::Folded { fold: Ok(Carry { digest, prev, records }) },
            ("Folded", Some("err"), &[first, key, prev]) => Msg::Folded { fold: Err(Disorder { first, key, prev }) },
            ("Shutdown", None, []) if rest.is_none() => Msg::Shutdown,
            ("Heartbeat", None, []) if rest.is_none() => Msg::Heartbeat,
            ("Pass", None, &[pass]) => Msg::Pass { pass },
            _ => return Err(bad()),
        };
        Ok(Envelope { src, dst, epoch, msg })
    }
}

/// Escape `\\`, newline and carriage return, so `text` is one line.
fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n").replace('\r', "\\r")
}

/// Undo [`escape`]; `None` on a stray backslash.
fn unescape(text: &str) -> Option<String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                '\\' => '\\',
                'n' => '\n',
                'r' => '\r',
                _ => return None,
            },
            c => c,
        });
    }
    Some(out)
}
