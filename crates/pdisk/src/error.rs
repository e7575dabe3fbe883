//! Error type shared by all disk backends.

use crate::addr::{BlockAddr, DiskId};

/// How long a device fault persists.
///
/// The taxonomy follows the usual storage-reliability split: *transient*
/// faults (bus resets, recoverable read errors, controller timeouts)
/// succeed when the operation is re-issued, while *permanent* faults
/// (head crash, dead controller) fail every subsequent operation on the
/// affected disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The fault affects only this attempt; a retry may succeed.
    Transient,
    /// The disk is gone; every future operation on it will fail.
    Permanent,
    /// The disk is out of space (ENOSPC): writes and allocations fail
    /// until space is freed, but the condition is *sticky*, not
    /// per-attempt — re-issuing the same write cannot succeed, so the
    /// fault is never retryable.  Reads still work.
    NoSpace,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Transient => f.write_str("transient"),
            FaultKind::Permanent => f.write_str("permanent"),
            FaultKind::NoSpace => f.write_str("no-space"),
        }
    }
}

/// Which backend operation a fault interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    Read,
    Write,
    Alloc,
    /// A durability barrier (`fsync`).  Sync faults are special: per
    /// fsyncgate semantics a failed fsync may have *dropped* the dirty
    /// pages it was asked to persist, so retrying the barrier can
    /// report success without the data ever reaching stable storage.
    /// Sync faults are therefore never retryable regardless of kind.
    Sync,
}

impl std::fmt::Display for FaultOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultOp::Read => f.write_str("read"),
            FaultOp::Write => f.write_str("write"),
            FaultOp::Alloc => f.write_str("alloc"),
            FaultOp::Sync => f.write_str("sync"),
        }
    }
}

/// Errors produced by the parallel disk model.
#[derive(Debug)]
#[non_exhaustive]
pub enum PdiskError {
    /// A parallel I/O operation addressed the same disk more than once.
    ///
    /// The model allows at most one block per disk per operation; violating
    /// this is always an algorithmic bug in the caller, never an I/O fault.
    DuplicateDisk(DiskId),
    /// A request addressed a disk that does not exist in this array.
    NoSuchDisk(DiskId),
    /// A read addressed a block that was never written (or was freed).
    UnmappedBlock(BlockAddr),
    /// A block held a different number of records than the geometry's `B`
    /// where a full block was required.
    BadBlockSize { expected: usize, got: usize },
    /// Geometry parameters are unusable (e.g. `D = 0`, or `M` too small for
    /// any merge order).
    BadGeometry(String),
    /// Underlying OS-level I/O failure (file backend only).
    Io(std::io::Error),
    /// On-disk data failed to decode or failed its checksum.
    Corrupt(String),
    /// A device fault, real or injected by [`crate::FaultModel`].
    Fault {
        /// Transient (retryable) or permanent (disk is dead).
        kind: FaultKind,
        /// The operation that was interrupted.
        op: FaultOp,
        /// The disk the fault occurred on, when attributable.
        disk: Option<DiskId>,
    },
    /// Data loss the redundancy layer cannot repair: more simultaneous
    /// failures than the parity scheme tolerates (e.g. a second disk died,
    /// or parity for the stripe was lost with its disk).  Never retryable —
    /// the missing data cannot be reconstructed from what survives.
    Unrecoverable(String),
    /// A retry policy gave up: every attempt failed with a retryable
    /// error; `last` is the final attempt's failure (the error source).
    RetriesExhausted {
        /// Total attempts made, including the first.
        attempts: u32,
        /// Error returned by the final attempt.
        last: Box<PdiskError>,
    },
    /// A split-phase completion was handed a ticket this backend cannot
    /// finish: the ticket is pending on a different backend's in-flight
    /// I/O (tickets must be completed by the array that issued them).
    TicketMismatch,
    /// A simulated process crash injected by [`crate::CrashingDiskArray`]
    /// fired at numbered I/O boundary `point`.  The array is poisoned:
    /// every subsequent operation fails with the same error, mimicking a
    /// dead process until the harness "reboots" (unwraps and re-wraps the
    /// array).  Never retryable — a crashed process cannot retry.
    Crashed {
        /// The crash point (boundary number) that fired.
        point: u64,
        /// Human-readable label for the boundary kind (e.g. `write-torn`).
        label: &'static str,
    },
    /// A [`crate::FileDiskArray`] directory is already open — by this
    /// process or (per its lock file) by a live process `holder`.  Two
    /// handles on the same directory would silently interleave writes
    /// and corrupt both sorts, so the second open is refused.
    ArrayLocked {
        /// The contested array directory.
        dir: std::path::PathBuf,
        /// PID recorded in the lock file (this process's own PID when
        /// the double-open is within one process).
        holder: u32,
    },
    /// A [`crate::FileDiskArray`] reopen found no format record at this
    /// path: the directory holds no array, or one laid down before the
    /// record, whose slot checksums this build does not read.
    Unformatted(std::path::PathBuf),
}

impl PdiskError {
    /// Whether re-issuing the failed operation could plausibly succeed.
    ///
    /// Transient faults, OS-level I/O errors, and checksum mismatches
    /// (torn reads) are retryable; permanent faults, out-of-space
    /// faults, and every logic error (bad addressing, bad geometry)
    /// are not.  Sync (fsync) faults are never retryable even when
    /// transient: a failed fsync may have dropped the dirty pages, so
    /// a "successful" retry would report durability that was never
    /// achieved (fsyncgate).  Retrying ENOSPC is just as hazardous —
    /// under the parity layer a retried-then-dropped write leaves the
    /// stripe's parity inconsistent with its data.
    pub fn is_retryable(&self) -> bool {
        match self {
            PdiskError::Fault { kind, op, .. } => {
                *kind == FaultKind::Transient && *op != FaultOp::Sync
            }
            PdiskError::Io(_) | PdiskError::Corrupt(_) => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for PdiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PdiskError::DuplicateDisk(d) => {
                write!(f, "parallel I/O touches disk {} more than once", d.0)
            }
            PdiskError::NoSuchDisk(d) => write!(f, "disk {} out of range", d.0),
            PdiskError::UnmappedBlock(a) => {
                write!(f, "read of unmapped block {a:?}")
            }
            PdiskError::BadBlockSize { expected, got } => {
                write!(f, "block holds {got} records, geometry requires {expected}")
            }
            PdiskError::BadGeometry(msg) => write!(f, "bad geometry: {msg}"),
            PdiskError::Io(e) => write!(f, "I/O error: {e}"),
            PdiskError::Corrupt(msg) => write!(f, "corrupt on-disk data: {msg}"),
            PdiskError::Unrecoverable(msg) => write!(f, "unrecoverable data loss: {msg}"),
            PdiskError::Fault { kind, op, disk } => match disk {
                Some(d) => write!(f, "{kind} fault on disk {} during {op}", d.0),
                None => write!(f, "{kind} fault during {op}"),
            },
            PdiskError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            PdiskError::TicketMismatch => {
                f.write_str("split-phase ticket completed on a backend that did not issue it")
            }
            PdiskError::Crashed { point, label } => {
                write!(f, "simulated process crash at I/O boundary {point} ({label})")
            }
            PdiskError::ArrayLocked { dir, holder } => {
                write!(
                    f,
                    "disk array directory {} is already open (held by pid {holder}); \
                     a second handle would interleave writes",
                    dir.display()
                )
            }
            PdiskError::Unformatted(path) => {
                write!(
                    f,
                    "no format record {}: the directory holds no array, or one \
                     laid down before slot format 2, which this build does not read",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for PdiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PdiskError::Io(e) => Some(e),
            PdiskError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PdiskError {
    fn from(e: std::io::Error) -> Self {
        PdiskError::Io(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, PdiskError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PdiskError::DuplicateDisk(DiskId(3));
        assert!(e.to_string().contains("disk 3"));
        let e = PdiskError::BadBlockSize { expected: 8, got: 5 };
        assert!(e.to_string().contains('8') && e.to_string().contains('5'));
    }

    #[test]
    fn io_error_roundtrips_source() {
        use std::error::Error;
        let e: PdiskError = std::io::Error::other("boom").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn fault_display_names_disk_kind_and_op() {
        let e = PdiskError::Fault {
            kind: FaultKind::Transient,
            op: FaultOp::Read,
            disk: Some(DiskId(2)),
        };
        let text = e.to_string();
        assert!(text.contains("transient") && text.contains("disk 2") && text.contains("read"));
    }

    #[test]
    fn retries_exhausted_chains_source() {
        use std::error::Error;
        let last = PdiskError::Fault {
            kind: FaultKind::Transient,
            op: FaultOp::Write,
            disk: None,
        };
        let e = PdiskError::RetriesExhausted {
            attempts: 4,
            last: Box::new(last),
        };
        assert!(e.to_string().contains("4 attempts"));
        let src = e.source().expect("source must be the last attempt");
        assert!(src.to_string().contains("transient fault during write"));
    }

    #[test]
    fn retryability_matches_taxonomy() {
        let transient = PdiskError::Fault {
            kind: FaultKind::Transient,
            op: FaultOp::Read,
            disk: None,
        };
        let permanent = PdiskError::Fault {
            kind: FaultKind::Permanent,
            op: FaultOp::Read,
            disk: None,
        };
        let no_space = PdiskError::Fault {
            kind: FaultKind::NoSpace,
            op: FaultOp::Write,
            disk: None,
        };
        // fsyncgate: a failed durability barrier is unretryable even
        // when the underlying fault is transient.
        let sync = PdiskError::Fault {
            kind: FaultKind::Transient,
            op: FaultOp::Sync,
            disk: None,
        };
        assert!(transient.is_retryable());
        assert!(!permanent.is_retryable());
        assert!(!no_space.is_retryable());
        assert!(!sync.is_retryable());
        assert!(PdiskError::Io(std::io::Error::other("x")).is_retryable());
        assert!(PdiskError::Corrupt("torn".into()).is_retryable());
        assert!(!PdiskError::NoSuchDisk(DiskId(0)).is_retryable());
        assert!(!PdiskError::Unrecoverable("two disks down".into()).is_retryable());
        assert!(!PdiskError::Crashed { point: 7, label: "write-torn" }.is_retryable());
    }

    #[test]
    fn no_space_and_sync_faults_render_their_taxonomy() {
        let e = PdiskError::Fault {
            kind: FaultKind::NoSpace,
            op: FaultOp::Write,
            disk: Some(DiskId(1)),
        };
        let text = e.to_string();
        assert!(text.contains("no-space") && text.contains("disk 1") && text.contains("write"));
        let e = PdiskError::Fault {
            kind: FaultKind::Transient,
            op: FaultOp::Sync,
            disk: None,
        };
        assert!(e.to_string().contains("sync"));
    }

    #[test]
    fn crashed_display_names_point_and_label() {
        let e = PdiskError::Crashed { point: 42, label: "read-submit" };
        let text = e.to_string();
        assert!(text.contains("42") && text.contains("read-submit") && text.contains("crash"));
    }

    #[test]
    fn unrecoverable_display_carries_context() {
        let e = PdiskError::Unrecoverable("stripe 7 lost disks 0 and 2".into());
        assert!(e.to_string().contains("unrecoverable"));
        assert!(e.to_string().contains("stripe 7"));
    }
}
