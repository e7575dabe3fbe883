//! The wire vocabulary between the coordinator and its shard nodes.
//!
//! Nodes `0..P` are shards; node `P` is the coordinator.  Every message
//! travels in an [`Envelope`] stamped with its sender and the sender's
//! **epoch** — the fencing token that makes a superseded shard instance
//! harmless: the coordinator bumps a shard's epoch when it declares the
//! shard dead, and discards envelopes from older epochs, so a
//! falsely-suspected node that is still running cannot confuse the
//! protocol after its replacement has been spawned.

use crate::fold::{Carry, Disorder};

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
    /// The shard's sort finished and its output descriptor is durable.
    SortDone {
        /// Records in the shard's output run.
        records: u64,
        /// Blocks in the shard's output run (0 when the shard is empty).
        blocks: u64,
        /// Merge passes the *final* incarnation performed.
        passes: u64,
        /// FNV-1a digest of the shard's sorted keys.
        digest: u64,
        /// Events replayed through the model checker (0 if unchecked).
        trace_events: u64,
        /// The incarnation's trace passed the model checker.
        trace_clean: bool,
        /// Blocks healed by the parity scrub during recovery.
        repaired: u64,
        /// The finishing incarnation's wall-clock, by phase.
        ms: crate::shard::ShardMs,
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
