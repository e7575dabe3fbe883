//! The wire vocabulary between the coordinator and its shard nodes.
//!
//! Nodes `0..P` are shards; node `P` is the coordinator.  Every message
//! travels in an [`Envelope`] stamped with its sender and the sender's
//! **epoch** — the fencing token that makes a superseded shard instance
//! harmless: the coordinator bumps a shard's epoch when it declares the
//! shard dead, and discards envelopes from older epochs, so a
//! falsely-suspected node that is still running cannot confuse the
//! protocol after its replacement has been spawned.

/// One message.  Keys travel as raw `u64`s ([`pdisk::U64Record`] is its
/// key), which keeps the vocabulary independent of record layout.
#[derive(Debug, Clone, PartialEq, Eq)]
#[srmlint::protocol]
pub enum Msg {
    // ── coordinator → shard ──────────────────────────────────────────
    /// One batch of the shard's input partition.  Stop-and-wait: the
    /// coordinator sends batch `seq` and retries it until [`Msg::StageAck`]
    /// for `seq` arrives; the shard deduplicates by `seq`, so drops,
    /// delays, and duplicates are all safe.
    Stage {
        /// Batch sequence number, starting at 0.
        seq: u64,
        /// The records (keys) in this batch.
        keys: Vec<u64>,
        /// True on the final batch: the shard may stage and sort.
        last: bool,
    },
    /// Request one window — a whole number of stripes — of the shard's
    /// sorted output run: blocks `first..first + count`, clamped to the
    /// run's end.
    ReadBlocks {
        /// Request ID, echoed in the reply.
        req: u64,
        /// First block of the window within the shard's output run.
        first: u64,
        /// Blocks in the window.
        count: u64,
    },
    /// Finish up: the distributed sort is complete.
    Shutdown,

    // ── shard → coordinator ──────────────────────────────────────────
    /// Sent once on boot: what the shard found in its durable directory.
    Hello {
        /// The shard still needs its input staged (fresh boot, or death
        /// before the input descriptor became durable).
        needs_input: bool,
        /// Merge passes already completed per the recovered checkpoint
        /// manifest (`None` when starting fresh or already finished).
        resume_pass: Option<u64>,
    },
    /// Acknowledge staging batch `seq`.
    StageAck {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// The shard's input is durable (descriptor journaled); the
    /// coordinator may forget the shard's partition.
    Staged {
        /// Records staged.
        records: u64,
    },
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
    /// Reply to [`Msg::ReadBlocks`]: the keys of that window, in order
    /// (empty when `first` lies past the run's end).
    BlockData {
        /// Request ID being answered.
        req: u64,
        /// First block of the window being answered.
        first: u64,
        /// The window's keys.
        keys: Vec<u64>,
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
