//! Typed errors for the distributed sort.

use pdisk::PdiskError;
use srm_core::SrmError;
use srm_server::JobError;

/// Everything that can go wrong coordinating a distributed sort.
#[derive(Debug)]
#[non_exhaustive]
pub enum DistError {
    /// A configuration cannot be run (bad shard count, spec mismatch…).
    Config(String),
    /// The network layer failed in a way retries could not absorb
    /// (e.g. an RPC exhausted its attempts against a live node).
    Net(String),
    /// A shard failed terminally (its replacement also failed, or its
    /// durable state belongs to a different sort).
    Shard {
        /// Which shard.
        shard: u32,
        /// What happened.
        msg: String,
    },
    /// Underlying disk-model failure on the coordinator's own array.
    Disk(PdiskError),
    /// A shard-local sort failure surfaced to the coordinator.
    Sort(SrmError),
    /// Spec-level failure (validation, encode/decode).
    Job(JobError),
    /// Filesystem failure around the durable shard directories.
    Io(String),
    /// A shard's trace violated the model checker's invariants.
    Model(String),
    /// The cross-shard stream met a key below its predecessor: the
    /// shards' runs are not range-disjoint in splitter order (a record
    /// was routed to the wrong shard, or a window arrived out of turn).
    Order {
        /// The shard whose window held the offending key.
        shard: u32,
        /// First block of that window.
        first: u64,
        /// The offending key.
        key: u64,
        /// The key written just before it.
        prev: u64,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Config(m) => write!(f, "distsort configuration error: {m}"),
            DistError::Net(m) => write!(f, "network error: {m}"),
            DistError::Shard { shard, msg } => write!(f, "shard {shard} failed: {msg}"),
            DistError::Disk(e) => write!(f, "disk error: {e}"),
            DistError::Sort(e) => write!(f, "sort error: {e}"),
            DistError::Job(e) => write!(f, "job error: {e}"),
            DistError::Io(m) => write!(f, "i/o error: {m}"),
            DistError::Model(m) => write!(f, "model-rule violation: {m}"),
            DistError::Order { shard, first, key, prev } => write!(
                f,
                "output order violated: shard {shard}'s window at block {first} holds key \
                 {key:#x} after {prev:#x}"
            ),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Disk(e) => Some(e),
            DistError::Sort(e) => Some(e),
            DistError::Job(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PdiskError> for DistError {
    fn from(e: PdiskError) -> Self {
        DistError::Disk(e)
    }
}

impl From<SrmError> for DistError {
    fn from(e: SrmError) -> Self {
        DistError::Sort(e)
    }
}

impl From<JobError> for DistError {
    fn from(e: JobError) -> Self {
        DistError::Job(e)
    }
}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, DistError>;
