//! Graceful-shutdown coordination.
//!
//! A drain is the server-wide analogue of a single sort's interrupt:
//! stop admitting work, let every running job reach its next pass
//! boundary (where the PR-5 checkpoint path journals a manifest
//! atomically), and only then stop.  The signal handler and the `DRAIN`
//! protocol verb both ask through one method,
//! [`crate::JobServer::request_shutdown`].  [`DrainReport`] is the
//! accounting a completed drain hands back: what finished, what was
//! suspended mid-sort (resumable on restart, byte-identically), what was
//! cancelled, and what was still queued.

/// What a completed drain left behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that ran to completion before or during the drain.
    pub completed: u64,
    /// Jobs checkpointed mid-sort; a restarted server resumes them.
    pub suspended: u64,
    /// Jobs cancelled (by request or deadline) before completion.
    pub cancelled: u64,
    /// Jobs that failed with an error.
    pub failed: u64,
    /// Jobs still waiting in the queue; a restarted server re-queues
    /// them.
    pub queued: u64,
}

impl DrainReport {
    /// Total jobs the report covers.
    pub fn total(&self) -> u64 {
        self.completed + self.suspended + self.cancelled + self.failed + self.queued
    }
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drained: {} completed, {} suspended, {} cancelled, {} failed, {} queued",
            self.completed, self.suspended, self.cancelled, self.failed, self.queued
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals_and_renders() {
        let r = DrainReport {
            completed: 2,
            suspended: 1,
            cancelled: 1,
            failed: 0,
            queued: 3,
        };
        assert_eq!(r.total(), 7);
        let s = r.to_string();
        assert!(s.contains("2 completed") && s.contains("1 suspended"));
    }
}
