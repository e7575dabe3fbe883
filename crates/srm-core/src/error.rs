//! Error type for the SRM crate.

use pdisk::PdiskError;

/// Errors surfaced by SRM's merging and sorting.
#[derive(Debug)]
#[non_exhaustive]
pub enum SrmError {
    /// Underlying disk-model failure.
    Disk(PdiskError),
    /// A configuration cannot support the requested operation (e.g. more
    /// runs than the merge order, or memory too small for any merge).
    Config(String),
    /// A checkpoint manifest could not be read, written, or trusted
    /// (torn file, checksum mismatch, or written by an incompatible
    /// sorter/geometry).  See [`crate::checkpoint`].
    Checkpoint(String),
    /// An internal invariant failed — a bug, never an input problem (by
    /// Lemma 1 the SRM schedule can never deadlock).
    Internal(String),
    /// The sort stopped at a pass boundary because its
    /// [`pdisk::InterruptFlag`] was triggered.  If a manifest path was
    /// given, the boundary's checkpoint was journaled *before* this was
    /// returned, so a rerun resumes byte-identically.
    Interrupted,
}

impl std::fmt::Display for SrmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SrmError::Disk(e) => write!(f, "disk error: {e}"),
            SrmError::Config(msg) => write!(f, "configuration error: {msg}"),
            SrmError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            SrmError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            SrmError::Interrupted => {
                write!(
                    f,
                    "sort interrupted at a pass boundary (checkpoint journaled)"
                )
            }
        }
    }
}

impl std::error::Error for SrmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SrmError::Disk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PdiskError> for SrmError {
    fn from(e: PdiskError) -> Self {
        SrmError::Disk(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SrmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SrmError::Config("too many runs".into())
            .to_string()
            .contains("too many runs"));
        assert!(SrmError::Internal("x".into()).to_string().contains("invariant"));
        let e: SrmError = PdiskError::NoSuchDisk(pdisk::DiskId(9)).into();
        assert!(e.to_string().contains("disk"));
    }
}
