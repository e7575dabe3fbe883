//! I/O accounting.
//!
//! Every experiment in the paper is stated in terms of counted parallel I/O
//! operations; [`IoStats`] is the single source of truth for those counts.

use serde::{Deserialize, Serialize};

/// Counters kept by every [`crate::DiskArray`] backend.
///
/// One *parallel* read/write operation moves up to `D` blocks (one per
/// disk); `blocks_read`/`blocks_written` record the actual number moved so
/// the achieved parallelism `blocks / ops` can be reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoStats {
    /// Number of parallel read operations issued.
    pub read_ops: u64,
    /// Number of parallel write operations issued.
    pub write_ops: u64,
    /// Total blocks transferred by reads.
    pub blocks_read: u64,
    /// Total blocks transferred by writes.
    pub blocks_written: u64,
    /// Read operations re-issued after a transient fault.
    ///
    /// Retries are accounted separately from `read_ops` so the logical
    /// I/O schedule (the quantity the paper's bounds speak about) stays
    /// comparable between faulty and fault-free runs.
    pub read_retries: u64,
    /// Write operations re-issued after a transient fault.
    pub write_retries: u64,
    /// Allocation requests re-issued after a transient fault.
    ///
    /// Kept apart from `write_retries` so per-[`crate::FaultOp`] exposure
    /// is visible (allocations used to be folded into the write counter).
    pub alloc_retries: u64,
    /// Read operations that failed every attempt under a retry policy.
    pub read_exhausted: u64,
    /// Write operations that failed every attempt under a retry policy.
    pub write_exhausted: u64,
    /// Allocations that failed every attempt under a retry policy.
    pub alloc_exhausted: u64,
    /// Blocks served by parity reconstruction instead of a direct read
    /// (a dead disk's block, or one a scrub repairs).
    ///
    /// Counted separately from `read_ops` so the healthy-path golden
    /// counts are untouched by the redundancy layer.
    pub reconstructed_reads: u64,
    /// Parity blocks written (or updated) by the redundancy layer.
    pub parity_writes: u64,
}

/// Apply `op` to every counter pair; exhaustive field list in one place so
/// adding a counter without updating `since`/`merged` is impossible.
macro_rules! fieldwise {
    ($a:expr, $b:expr, $op:tt) => {
        IoStats {
            read_ops: $a.read_ops $op $b.read_ops,
            write_ops: $a.write_ops $op $b.write_ops,
            blocks_read: $a.blocks_read $op $b.blocks_read,
            blocks_written: $a.blocks_written $op $b.blocks_written,
            read_retries: $a.read_retries $op $b.read_retries,
            write_retries: $a.write_retries $op $b.write_retries,
            alloc_retries: $a.alloc_retries $op $b.alloc_retries,
            read_exhausted: $a.read_exhausted $op $b.read_exhausted,
            write_exhausted: $a.write_exhausted $op $b.write_exhausted,
            alloc_exhausted: $a.alloc_exhausted $op $b.alloc_exhausted,
            reconstructed_reads: $a.reconstructed_reads $op $b.reconstructed_reads,
            parity_writes: $a.parity_writes $op $b.parity_writes,
        }
    };
}

impl IoStats {
    /// Record one parallel read moving `blocks` blocks.
    #[inline]
    pub fn record_read(&mut self, blocks: usize) {
        self.read_ops += 1;
        self.blocks_read += blocks as u64;
    }

    /// Record one parallel write moving `blocks` blocks.
    #[inline]
    pub fn record_write(&mut self, blocks: usize) {
        self.write_ops += 1;
        self.blocks_written += blocks as u64;
    }

    /// Record one read retry after a transient fault.
    #[inline]
    pub fn record_read_retry(&mut self) {
        self.read_retries += 1;
    }

    /// Record one write retry after a transient fault.
    #[inline]
    pub fn record_write_retry(&mut self) {
        self.write_retries += 1;
    }

    /// Record one block served by parity reconstruction.
    #[inline]
    pub fn record_reconstructed_read(&mut self) {
        self.reconstructed_reads += 1;
    }

    /// Record one parity block written or updated.
    #[inline]
    pub fn record_parity_write(&mut self) {
        self.parity_writes += 1;
    }

    /// Total operations re-issued after transient faults.
    #[inline]
    pub fn total_retries(&self) -> u64 {
        self.read_retries + self.write_retries + self.alloc_retries
    }

    /// Total operations that failed every retry attempt.
    #[inline]
    pub fn total_exhausted(&self) -> u64 {
        self.read_exhausted + self.write_exhausted + self.alloc_exhausted
    }

    /// Total parallel operations (reads + writes).
    #[inline]
    pub fn total_ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }

    /// Mean blocks moved per read operation (read parallelism achieved).
    pub fn read_parallelism(&self) -> f64 {
        if self.read_ops == 0 {
            0.0
        } else {
            self.blocks_read as f64 / self.read_ops as f64
        }
    }

    /// Mean blocks moved per write operation (write parallelism achieved).
    pub fn write_parallelism(&self) -> f64 {
        if self.write_ops == 0 {
            0.0
        } else {
            self.blocks_written as f64 / self.write_ops as f64
        }
    }

    /// Counter-wise difference `self − earlier`; use to isolate one phase of
    /// a computation from a shared backend.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        fieldwise!(self, earlier, -)
    }

    /// Counter-wise sum.
    pub fn merged(&self, other: &IoStats) -> IoStats {
        fieldwise!(self, other, +)
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} ({} blocks, {:.2}x par) writes={} ({} blocks, {:.2}x par)",
            self.read_ops,
            self.blocks_read,
            self.read_parallelism(),
            self.write_ops,
            self.blocks_written,
            self.write_parallelism()
        )?;
        if self.total_retries() > 0 {
            write!(
                f,
                " retries={}r/{}w",
                self.read_retries, self.write_retries
            )?;
            if self.alloc_retries > 0 {
                write!(f, "/{}a", self.alloc_retries)?;
            }
        }
        if self.total_exhausted() > 0 {
            write!(
                f,
                " exhausted={}r/{}w/{}a",
                self.read_exhausted, self.write_exhausted, self.alloc_exhausted
            )?;
        }
        if self.reconstructed_reads > 0 || self.parity_writes > 0 {
            write!(
                f,
                " reconstructed={} parity-writes={}",
                self.reconstructed_reads, self.parity_writes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = IoStats::default();
        s.record_read(4);
        s.record_read(2);
        s.record_write(4);
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.blocks_read, 6);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.blocks_written, 4);
        assert_eq!(s.total_ops(), 3);
    }

    #[test]
    fn parallelism_ratios() {
        let mut s = IoStats::default();
        assert_eq!(s.read_parallelism(), 0.0);
        s.record_read(4);
        s.record_read(2);
        assert!((s.read_parallelism() - 3.0).abs() < 1e-12);
        s.record_write(5);
        assert!((s.write_parallelism() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn since_isolates_a_phase() {
        let mut s = IoStats::default();
        s.record_read(3);
        let mark = s;
        s.record_read(1);
        s.record_write(2);
        let phase = s.since(&mark);
        assert_eq!(phase.read_ops, 1);
        assert_eq!(phase.blocks_read, 1);
        assert_eq!(phase.write_ops, 1);
    }

    #[test]
    fn merged_sums_counters() {
        let mut a = IoStats::default();
        a.record_read(2);
        let mut b = IoStats::default();
        b.record_write(3);
        let m = a.merged(&b);
        assert_eq!(m.read_ops, 1);
        assert_eq!(m.write_ops, 1);
        assert_eq!(m.blocks_read, 2);
        assert_eq!(m.blocks_written, 3);
    }

    #[test]
    fn retries_tracked_separately_from_logical_ops() {
        let mut s = IoStats::default();
        s.record_read(4);
        s.record_read_retry();
        s.record_read_retry();
        s.record_write_retry();
        assert_eq!(s.read_ops, 1, "retries must not inflate logical ops");
        assert_eq!(s.read_retries, 2);
        assert_eq!(s.write_retries, 1);
        assert_eq!(s.total_retries(), 3);
        assert!(s.to_string().contains("retries=2r/1w"));
        let mut other = IoStats::default();
        other.record_write_retry();
        assert_eq!(s.merged(&other).write_retries, 2);
        assert_eq!(s.since(&IoStats::default()).read_retries, 2);
    }

    #[test]
    fn per_op_retry_counters_are_distinct() {
        let s = IoStats {
            read_retries: 2,
            write_retries: 1,
            alloc_retries: 3,
            alloc_exhausted: 1,
            ..Default::default()
        };
        assert_eq!(s.total_retries(), 6);
        assert_eq!(s.total_exhausted(), 1);
        let text = s.to_string();
        assert!(text.contains("retries=2r/1w/3a"), "{text}");
        assert!(text.contains("exhausted=0r/0w/1a"), "{text}");
        let m = s.merged(&s);
        assert_eq!(m.alloc_retries, 6);
        assert_eq!(m.alloc_exhausted, 2);
        assert_eq!(m.since(&s), s);
    }

    #[test]
    fn parity_counters_are_separate_from_logical_ops() {
        let mut s = IoStats::default();
        s.record_read(4);
        s.record_reconstructed_read();
        s.record_parity_write();
        s.record_parity_write();
        assert_eq!(s.read_ops, 1, "reconstruction must not inflate read ops");
        assert_eq!(s.write_ops, 0, "parity updates must not inflate write ops");
        assert_eq!(s.reconstructed_reads, 1);
        assert_eq!(s.parity_writes, 2);
        let text = s.to_string();
        assert!(text.ends_with("reconstructed=1 parity-writes=2"), "{text}");
        assert_eq!(s.merged(&s).parity_writes, 4);
        assert_eq!(s.since(&IoStats::default()).reconstructed_reads, 1);
    }

    #[test]
    fn healthy_display_omits_degraded_counters() {
        let mut s = IoStats::default();
        s.record_read(2);
        let text = s.to_string();
        assert!(!text.contains("reconstructed") && !text.contains("exhausted"));
    }

    #[test]
    fn display_mentions_both_directions() {
        let mut s = IoStats::default();
        s.record_read(2);
        s.record_write(2);
        let text = s.to_string();
        assert!(text.contains("reads=1") && text.contains("writes=1"));
    }
}
