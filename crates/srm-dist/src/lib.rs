//! # srm-dist — distributed SRM that survives node death
//!
//! A sharded external sort across `P` simulated nodes, built from the
//! pieces the rest of the workspace already trusts:
//!
//! - **Partitioning** ([`split`]): sample-based range splitters
//!   (Rahn/Sanders/Singler style) route every record to a shard; shard
//!   sorts then never need to talk to each other, and their sorted runs
//!   in splitter order are the output.
//! - **Transport** ([`net`], [`pdisk::NetFaultModel`]): an in-process
//!   message network whose every send passes through a seeded,
//!   scriptable fault model — drops, bounded delays, duplicates, and
//!   timed partitions — so the protocol is tested against the same kind
//!   of adversary the disk stack faces.
//! - **Shards** ([`shard`]): each shard runs an ordinary *checkpointed*
//!   SRM sort (PR 5) over its own pdisk cluster, traced end to end and
//!   replayed through the model checker; every state transition is
//!   journaled in the shard's directory, so a replacement instance can
//!   always pick up where a dead one stopped.
//! - **Robustness** ([`coord`], [`fence`]): heartbeat failure detection,
//!   epoch-stamped envelopes, and storage fencing (the STONITH
//!   analogue) make recovery safe even under false suspicion; the
//!   cross-shard merge *stalls and resumes* across a node death instead
//!   of aborting.
//! - **Process mode** ([`procs`]): `--procs` runs each shard as a real
//!   child process and the `--kill-node` drill becomes an actual
//!   `kill -9`.
//!
//! The headline invariant, enforced by the node-death matrix test:
//! killing any shard at any pass boundary (or mid-merge, or during a
//! channel partition) yields a global output **byte-identical** to the
//! failure-free run, with every shard's recovery trace checker-clean.

// Library code returns typed errors: clippy denies it a panic (test code
// excepted, see clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(missing_docs)]

mod concat;
pub mod coord;
pub mod error;
pub mod fence;
pub mod msg;
pub mod net;
pub mod procs;
pub mod shard;
pub mod split;

pub use coord::{
    distsort, parse_kill_node, DistConfig, DistReport, KillPlan, PhaseMs, ShardReport,
};
pub use error::{DistError, Result};
pub use fence::{FenceFlag, Fenced, FencedDiskArray};
pub use msg::{Envelope, Msg};
pub use net::{Endpoint, NetSender, NetStats, Network};
pub use procs::{run_procs, shard_run_standalone};
pub use shard::{KillPoint, OutputMeta, ShardMs, ShardPlan};
pub use split::{route, sample_splitters, shard_of};
