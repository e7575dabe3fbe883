//! Disk service-time model.
//!
//! The paper motivates SRM by the I/O bottleneck: each parallel operation
//! costs roughly one random access on every participating disk.  This module
//! converts counted operations into estimated wall time with the standard
//! seek + rotational-latency + transfer decomposition (Ruemmler & Wilkes,
//! "An introduction to disk drive modeling", IEEE Computer 1994 — the
//! paper's reference \[RW94\]).
//!
//! Because all disks of one parallel operation work concurrently, one
//! operation costs one per-disk access time, not `D` of them.

use crate::stats::IoStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-disk service-time parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Average seek time, milliseconds.
    pub avg_seek_ms: f64,
    /// Average rotational latency, milliseconds (half a revolution).
    pub avg_rotational_ms: f64,
    /// Sustained media transfer rate, megabytes per second.
    pub transfer_mb_per_s: f64,
}

impl DiskModel {
    /// A mid-1990s SCSI drive of the kind the paper contemplates
    /// (≈ 5400 RPM, ≈ 9 ms seek, ≈ 6 MB/s media rate).
    pub fn hdd_1996() -> Self {
        DiskModel {
            avg_seek_ms: 9.0,
            avg_rotational_ms: 5.6,
            transfer_mb_per_s: 6.0,
        }
    }

    /// A solid-state device: no mechanical latency to speak of, but a
    /// non-zero per-operation overhead.
    pub fn ssd() -> Self {
        DiskModel {
            avg_seek_ms: 0.03,
            avg_rotational_ms: 0.0,
            transfer_mb_per_s: 2500.0,
        }
    }

    /// Time for one parallel I/O operation transferring one block of
    /// `block_bytes` bytes per participating disk.
    pub fn op_time(&self, block_bytes: usize) -> Duration {
        let access_ms = self.avg_seek_ms + self.avg_rotational_ms;
        let transfer_ms = block_bytes as f64 / (self.transfer_mb_per_s * 1e6) * 1e3;
        Duration::from_secs_f64((access_ms + transfer_ms) / 1e3)
    }

    /// Estimated wall time for a whole I/O trace, assuming every operation
    /// is a random access (the pessimistic end of the paper's model).
    pub fn estimate(&self, stats: &IoStats, block_bytes: usize) -> Duration {
        let ops = stats.total_ops() as u32;
        self.op_time(block_bytes) * ops
    }

    /// Makespan when internal computation overlaps I/O — the pipelined
    /// execution both SRM and DSM are built for (§5's two concurrent
    /// control flows).  In steady state the slower resource dominates.
    pub fn overlapped_estimate(
        &self,
        stats: &IoStats,
        block_bytes: usize,
        cpu: Duration,
    ) -> Duration {
        self.estimate(stats, block_bytes).max(cpu)
    }

    /// Makespan when computation and I/O serialize (no prefetching, no
    /// write-behind): the sum of both resources.
    pub fn serial_estimate(&self, stats: &IoStats, block_bytes: usize, cpu: Duration) -> Duration {
        self.estimate(stats, block_bytes) + cpu
    }

    /// Estimated aggregate bandwidth achieved by a trace that moved
    /// `blocks` total blocks of `block_bytes` bytes in `ops` parallel
    /// operations, in MB/s.
    pub fn achieved_bandwidth(&self, stats: &IoStats, block_bytes: usize) -> f64 {
        let t = self.estimate(stats, block_bytes).as_secs_f64();
        if t == 0.0 {
            return 0.0;
        }
        let bytes = (stats.blocks_read + stats.blocks_written) as f64 * block_bytes as f64;
        bytes / t / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(reads: u64, writes: u64, blocks_each: u64) -> IoStats {
        IoStats {
            read_ops: reads,
            write_ops: writes,
            blocks_read: reads * blocks_each,
            blocks_written: writes * blocks_each,
            ..IoStats::default()
        }
    }

    #[test]
    fn op_time_scales_with_block_size() {
        let m = DiskModel::hdd_1996();
        let small = m.op_time(1 << 10);
        let large = m.op_time(1 << 24);
        assert!(large > small);
        // Access time dominates tiny blocks: ~14.6 ms.
        assert!((small.as_secs_f64() - 0.0146).abs() < 1e-3);
    }

    #[test]
    fn estimate_is_linear_in_ops() {
        let m = DiskModel::hdd_1996();
        let one = m.estimate(&stats(1, 0, 4), 1 << 16);
        let ten = m.estimate(&stats(6, 4, 4), 1 << 16);
        assert!((ten.as_secs_f64() / one.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn wider_ops_increase_bandwidth() {
        let m = DiskModel::hdd_1996();
        // Same blocks moved, fewer ops (higher parallelism) -> more MB/s.
        let narrow = IoStats {
            read_ops: 100,
            write_ops: 0,
            blocks_read: 100,
            blocks_written: 0,
            ..IoStats::default()
        };
        let wide = IoStats {
            read_ops: 25,
            write_ops: 0,
            blocks_read: 100,
            blocks_written: 0,
            ..IoStats::default()
        };
        assert!(m.achieved_bandwidth(&wide, 1 << 16) > m.achieved_bandwidth(&narrow, 1 << 16));
    }

    #[test]
    fn zero_trace_has_zero_bandwidth() {
        let m = DiskModel::ssd();
        assert_eq!(m.achieved_bandwidth(&IoStats::default(), 4096), 0.0);
    }

    #[test]
    fn overlap_is_max_serial_is_sum() {
        let m = DiskModel::hdd_1996();
        let s = stats(100, 100, 4);
        let io = m.estimate(&s, 1 << 16);
        let short_cpu = io / 3;
        let long_cpu = io * 3;
        assert_eq!(m.overlapped_estimate(&s, 1 << 16, short_cpu), io);
        assert_eq!(m.overlapped_estimate(&s, 1 << 16, long_cpu), long_cpu);
        assert_eq!(m.serial_estimate(&s, 1 << 16, short_cpu), io + short_cpu);
        // Overlap never loses.
        assert!(m.overlapped_estimate(&s, 1 << 16, long_cpu) <= m.serial_estimate(&s, 1 << 16, long_cpu));
    }
}
