//! Error type for the SRM crate.

/// Errors surfaced by SRM's merging and sorting: the vocabulary the pass
/// driver and every engine share.
pub type SrmError = pdisk::SortError;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SrmError>;

#[cfg(test)]
mod tests {
    use super::*;
    use pdisk::PdiskError;

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
