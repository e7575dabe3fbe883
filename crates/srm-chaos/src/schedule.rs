//! Fault schedules: the unit a chaos trial executes and the minimizer
//! shrinks.
//!
//! A schedule is a flat `Vec<ChaosEvent>`.  Every event names one
//! injection the workspace already knows how to perform — a scripted
//! fault in a [`pdisk::FaultModel`], a crash point on a
//! [`pdisk::CrashClock`], a network fault in a
//! [`pdisk::NetFaultModel`], a node kill, a `kill -9` of the job
//! server — plus the two taxonomy members this crate introduced to the
//! stack: disk-full ([`pdisk::FaultKind::NoSpace`]) and fsync failure
//! ([`pdisk::FaultOp::Sync`]).
//!
//! Schedules are *generated*, never hand-ordered: [`generate`] draws a
//! small composed schedule from a seeded RNG, with every ordinal
//! bounded by an [`Envelope`] learned from a fault-free dry run so the
//! events actually land inside the sort instead of past its last I/O.
//! The draw is a pure function of `(target, seed, trial, envelope)`,
//! which is what makes a reproducer artifact replayable: re-running
//! the recorded event list *is* re-running the trial.

use crate::Target;
use pdisk::FaultOp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One injected fault in a schedule.
///
/// Local-target events speak in per-op ordinals (the N-th read /
/// write / alloc / sync of a sort incarnation) and crash-clock
/// boundary numbers; dist-target events configure the shared
/// [`pdisk::NetFaultModel`] or kill a node; server-target events drive
/// the out-of-process `kill -9` / disk-full drills.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Scripted transient fault on the given op's `ordinal`-th issue.
    /// The retry layer must absorb it invisibly.
    Transient { op: FaultOp, ordinal: u64 },
    /// Scripted checksum mismatch on the `ordinal`-th read.  Corruption
    /// is retryable (the mirror half of a torn transfer), so one retry
    /// heals it.
    CorruptRead { ordinal: u64 },
    /// The disk serving the `ordinal`-th write reports ENOSPC and stays
    /// full until an operator frees space.  Never retried.
    DiskFull { ordinal: u64 },
    /// The `ordinal`-th durability barrier fails (fsyncgate).  Never
    /// retried; the checkpoint generation it was protecting must not
    /// be trusted.
    SyncFail { ordinal: u64 },
    /// Process crash at crash-clock boundary `point` (counted from the
    /// start of the incarnation this event fires in).
    CrashAt { point: u64 },
    /// Permanently fail one disk at a merge-pass boundary; rotating
    /// parity must keep the sort alive in degraded mode.
    KillDisk { disk: u32, pass: u64 },
    /// SIGINT-style interrupt at a pass boundary: the sort must stop at
    /// the checkpoint and a rerun must resume byte-identically.
    Interrupt { pass: u64 },
    /// Message drop rate, per mille, on the dist transport.
    NetDrop { per_mille: u32 },
    /// Message duplication rate, per mille.
    NetDup { per_mille: u32 },
    /// Message delay rate, per mille, with a bounded reorder window.
    NetDelay { per_mille: u32, max_ticks: u64 },
    /// One node unreachable for the message-ordinal window
    /// `[from, until)`; the failure detector may fence and respawn it.
    Partition { node: u32, from: u64, until: u64 },
    /// Kill one shard's node at a local pass boundary; the coordinator
    /// must fence, respawn, and resume it from its journal.
    KillNode { shard: u32, pass: u64 },
    /// Uniform per-disk I/O service delay on every shard, microseconds.
    IoDelayUs { micros: u64 },
    /// `kill -9` the job server after its `after_submit`-th accepted
    /// job; a restart on the same store must resume every job.
    KillServer { after_submit: u32 },
    /// The server's job store hits ENOSPC after `after_writes` spec
    /// writes: the overflowing SUBMIT must be refused with the typed
    /// `no-space` admission error, not wedge a queue slot.
    StoreFull { after_writes: u64 },
}

impl ChaosEvent {
    /// Stable slug naming the event kind — the JSON discriminator in a
    /// reproducer artifact.
    pub fn kind(&self) -> &'static str {
        match self {
            ChaosEvent::Transient { .. } => "transient",
            ChaosEvent::CorruptRead { .. } => "corrupt-read",
            ChaosEvent::DiskFull { .. } => "disk-full",
            ChaosEvent::SyncFail { .. } => "sync-fail",
            ChaosEvent::CrashAt { .. } => "crash-at",
            ChaosEvent::KillDisk { .. } => "kill-disk",
            ChaosEvent::Interrupt { .. } => "interrupt",
            ChaosEvent::NetDrop { .. } => "net-drop",
            ChaosEvent::NetDup { .. } => "net-dup",
            ChaosEvent::NetDelay { .. } => "net-delay",
            ChaosEvent::Partition { .. } => "partition",
            ChaosEvent::KillNode { .. } => "kill-node",
            ChaosEvent::IoDelayUs { .. } => "io-delay",
            ChaosEvent::KillServer { .. } => "kill-server",
            ChaosEvent::StoreFull { .. } => "store-full",
        }
    }
}

impl std::fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosEvent::Transient { op, ordinal } => write!(f, "transient {op}#{ordinal}"),
            ChaosEvent::CorruptRead { ordinal } => write!(f, "corrupt-read #{ordinal}"),
            ChaosEvent::DiskFull { ordinal } => write!(f, "disk-full write#{ordinal}"),
            ChaosEvent::SyncFail { ordinal } => write!(f, "sync-fail #{ordinal}"),
            ChaosEvent::CrashAt { point } => write!(f, "crash-at boundary {point}"),
            ChaosEvent::KillDisk { disk, pass } => write!(f, "kill-disk {disk}@pass{pass}"),
            ChaosEvent::Interrupt { pass } => write!(f, "interrupt @pass{pass}"),
            ChaosEvent::NetDrop { per_mille } => write!(f, "net-drop {per_mille}‰"),
            ChaosEvent::NetDup { per_mille } => write!(f, "net-dup {per_mille}‰"),
            ChaosEvent::NetDelay {
                per_mille,
                max_ticks,
            } => write!(f, "net-delay {per_mille}‰ window {max_ticks}"),
            ChaosEvent::Partition { node, from, until } => {
                write!(f, "partition node{node} [{from},{until})")
            }
            ChaosEvent::KillNode { shard, pass } => write!(f, "kill-node {shard}@pass{pass}"),
            ChaosEvent::IoDelayUs { micros } => write!(f, "io-delay {micros}us"),
            ChaosEvent::KillServer { after_submit } => {
                write!(f, "kill-server after submit {after_submit}")
            }
            ChaosEvent::StoreFull { after_writes } => {
                write!(f, "store-full after {after_writes} writes")
            }
        }
    }
}

/// Bounds learned from a fault-free dry run of the local target: how
/// many of each op the sort issues, how many crash-clock boundaries it
/// ticks, and how many merge passes it runs.  Generated ordinals are
/// drawn inside these ranges so every event has a chance to land.
#[derive(Debug, Clone, Copy, Default)]
pub struct Envelope {
    /// Parallel reads issued.
    pub reads: u64,
    /// Parallel writes issued.
    pub writes: u64,
    /// Contiguous allocations issued.
    pub allocs: u64,
    /// Durability barriers issued.
    pub syncs: u64,
    /// Crash-clock boundaries ticked by the whole durable sort, its
    /// read-back included.
    pub points: u64,
    /// Merge passes (run formation is pass 0's boundary).
    pub passes: u64,
    /// Disks in the array.
    pub disks: u32,
}

fn below(rng: &mut SmallRng, n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        rng.random_range(0..n)
    }
}

/// Draw the schedule for `(target, seed, trial)` — a pure function of
/// its arguments, so a replayed campaign regenerates the identical
/// event list.
pub fn generate(target: Target, seed: u64, trial: u32, env: &Envelope) -> Vec<ChaosEvent> {
    // Distinct stream per trial; the multiplier spreads small trial
    // indices across the whole seed space.
    let mut rng = SmallRng::seed_from_u64(seed ^ (u64::from(trial) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match target {
        Target::Local => generate_local(&mut rng, env),
        Target::Dist => generate_dist(&mut rng, env),
        Target::Server => generate_server(&mut rng),
    }
}

fn generate_local(rng: &mut SmallRng, env: &Envelope) -> Vec<ChaosEvent> {
    let n = rng.random_range(1..=4u32);
    let mut events = Vec::new();
    let mut crashes = 0u32;
    let mut kills = 0u32;
    for _ in 0..n {
        let roll = rng.random_range(0..100u32);
        let ev = match roll {
            // Retryable noise the stack must absorb invisibly.
            0..=29 => {
                let (op, bound) = match rng.random_range(0..3u32) {
                    0 => (FaultOp::Read, env.reads),
                    1 => (FaultOp::Write, env.writes),
                    _ => (FaultOp::Alloc, env.allocs),
                };
                ChaosEvent::Transient {
                    op,
                    ordinal: below(rng, bound),
                }
            }
            30..=43 => ChaosEvent::CorruptRead {
                ordinal: below(rng, env.reads),
            },
            44..=57 => ChaosEvent::DiskFull {
                ordinal: below(rng, env.writes),
            },
            58..=67 => ChaosEvent::SyncFail {
                ordinal: below(rng, env.syncs),
            },
            // At most two crashes per schedule keeps a trial's
            // incarnation count (and wall clock) bounded.
            68..=82 if crashes < 2 => {
                crashes += 1;
                ChaosEvent::CrashAt {
                    point: below(rng, env.points),
                }
            }
            // Rotating parity survives exactly one dead disk.
            83..=92 if kills == 0 && env.disks > 1 => {
                kills += 1;
                ChaosEvent::KillDisk {
                    disk: rng.random_range(0..env.disks),
                    pass: below(rng, env.passes + 1),
                }
            }
            _ => ChaosEvent::Interrupt {
                pass: below(rng, env.passes + 1),
            },
        };
        events.push(ev);
    }
    events
}

fn generate_dist(rng: &mut SmallRng, env: &Envelope) -> Vec<ChaosEvent> {
    let n = rng.random_range(1..=3u32);
    let mut events = Vec::new();
    let mut kills = 0u32;
    let shards = env.disks.max(1); // dist reuses `disks` as the shard count
    for _ in 0..n {
        let roll = rng.random_range(0..100u32);
        let ev = match roll {
            0..=24 => ChaosEvent::NetDrop {
                per_mille: rng.random_range(1..=80u32),
            },
            25..=39 => ChaosEvent::NetDup {
                per_mille: rng.random_range(1..=100u32),
            },
            40..=54 => ChaosEvent::NetDelay {
                per_mille: rng.random_range(1..=150u32),
                max_ticks: rng.random_range(1..=3u64),
            },
            55..=69 => {
                let from = rng.random_range(0..40u64);
                ChaosEvent::Partition {
                    node: rng.random_range(0..shards),
                    from,
                    until: from + rng.random_range(1..=12u64),
                }
            }
            // One kill per schedule: the coordinator's circuit breaker
            // caps respawns, and stacking kills with partitions is how
            // an unsurvivable (and thus oracle-ambiguous) trial forms.
            70..=89 if kills == 0 => {
                kills += 1;
                ChaosEvent::KillNode {
                    shard: rng.random_range(0..shards),
                    pass: rng.random_range(0..=2u64),
                }
            }
            _ => ChaosEvent::IoDelayUs {
                micros: rng.random_range(1..=200u64),
            },
        };
        events.push(ev);
    }
    events
}

fn generate_server(rng: &mut SmallRng) -> Vec<ChaosEvent> {
    let n = rng.random_range(1..=2u32);
    let mut events = Vec::new();
    let mut store_full = 0u32;
    for _ in 0..n {
        let roll = rng.random_range(0..100u32);
        let ev = match roll {
            0..=39 if store_full == 0 => {
                store_full += 1;
                ChaosEvent::StoreFull {
                    after_writes: rng.random_range(0..3u64),
                }
            }
            _ => ChaosEvent::KillServer {
                after_submit: rng.random_range(1..=3u32),
            },
        };
        events.push(ev);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Envelope {
        Envelope {
            reads: 100,
            writes: 100,
            allocs: 20,
            syncs: 10,
            points: 400,
            passes: 3,
            disks: 4,
        }
    }

    #[test]
    fn generation_is_deterministic_per_trial() {
        for target in [Target::Local, Target::Dist, Target::Server] {
            let a = generate(target, 7, 3, &env());
            let b = generate(target, 7, 3, &env());
            assert_eq!(a, b, "{target:?} schedule must be a pure function of (seed, trial)");
            let c = generate(target, 7, 4, &env());
            // Not a hard guarantee for any single pair, but with these
            // seeds the streams differ; a regression to a trial-blind
            // seed would make every trial identical.
            assert_ne!(a, c, "{target:?} trials should explore different schedules");
        }
    }

    #[test]
    fn local_schedules_respect_caps_and_envelope() {
        for trial in 0..200 {
            let events = generate(Target::Local, 11, trial, &env());
            assert!(!events.is_empty() && events.len() <= 4);
            let crashes = events
                .iter()
                .filter(|e| matches!(e, ChaosEvent::CrashAt { .. }))
                .count();
            let kills = events
                .iter()
                .filter(|e| matches!(e, ChaosEvent::KillDisk { .. }))
                .count();
            assert!(crashes <= 2, "trial {trial}: {crashes} crashes");
            assert!(kills <= 1, "trial {trial}: {kills} disk kills");
            for e in &events {
                match e {
                    ChaosEvent::CrashAt { point } => assert!(*point < 400),
                    ChaosEvent::KillDisk { disk, .. } => assert!(*disk < 4),
                    ChaosEvent::DiskFull { ordinal } => assert!(*ordinal < 100),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn dist_schedules_cap_node_kills() {
        for trial in 0..200 {
            let events = generate(Target::Dist, 13, trial, &env());
            let kills = events
                .iter()
                .filter(|e| matches!(e, ChaosEvent::KillNode { .. }))
                .count();
            assert!(kills <= 1, "trial {trial}: {kills} node kills");
        }
    }
}
