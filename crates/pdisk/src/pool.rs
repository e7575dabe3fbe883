//! Recycling buffer pool: zero per-block heap allocations in steady state.
//!
//! External sorting moves the same fixed-size buffers around forever — a
//! block's record vector and its on-disk slot encoding are both allocated,
//! filled, drained, and dropped once per block in the naive engine.  A
//! [`BufferPool`] breaks that cycle: consumers return drained buffers
//! (`put_*`) and producers draw them back (`take_*`), so after the first
//! few operations warm the pool, the merge loop performs no block-sized
//! heap allocations at all.
//!
//! The pool is shared by cloning (an [`Arc`] internally): the engine, the
//! backend, and any wrapper layer can hold handles onto one pool.  It
//! pools two kinds of buffers independently:
//!
//! * **record buffers** (`Vec<R>`) — the payload side of a
//!   [`crate::Block`], drawn when decoding a slot and returned when a
//!   leading buffer is depleted or a block is encoded for writing;
//! * **byte buffers** (`Vec<u8>`) — on-disk slot images, drawn when
//!   encoding or issuing a read and returned once decoded or written.
//!
//! Returned buffers are cleared (`len == 0`) but keep their capacity;
//! `take_*` guarantees at least the requested capacity so callers never
//! reallocate.  The pool is bounded (default a few hundred buffers per
//! kind) so a burst can never pin unbounded memory; overflow buffers are
//! simply dropped.  [`PoolStats`] counts fresh vs. reused draws, which is
//! how the tests prove the steady state really is allocation-free.

use std::sync::Arc;

use crate::sync::Mutex;

/// Allocation-vs-reuse counters for one [`BufferPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Record buffers allocated because the pool was empty.
    pub fresh_records: u64,
    /// Record buffers served from the pool.
    pub reused_records: u64,
    /// Record buffers returned to the pool (drops on overflow excluded).
    pub returned_records: u64,
    /// Byte buffers allocated because the pool was empty.
    pub fresh_bytes: u64,
    /// Byte buffers served from the pool.
    pub reused_bytes: u64,
    /// Byte buffers returned to the pool (drops on overflow excluded).
    pub returned_bytes: u64,
}

impl PoolStats {
    /// Fraction of record-buffer draws served from the pool, in
    /// `[0, 1]`; `None` before any draw happened.
    pub fn record_hit_rate(&self) -> Option<f64> {
        let total = self.fresh_records + self.reused_records;
        (total > 0).then(|| self.reused_records as f64 / total as f64)
    }

    /// Fraction of byte-buffer draws served from the pool, in `[0, 1]`;
    /// `None` before any draw happened.
    pub fn byte_hit_rate(&self) -> Option<f64> {
        let total = self.fresh_bytes + self.reused_bytes;
        (total > 0).then(|| self.reused_bytes as f64 / total as f64)
    }

    /// Hit rate over both buffer kinds combined; `None` before any draw.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.fresh_records + self.reused_records + self.fresh_bytes + self.reused_bytes;
        (total > 0).then(|| (self.reused_records + self.reused_bytes) as f64 / total as f64)
    }

    /// Pool misses: draws that had to allocate because the pool was
    /// empty (both kinds).
    pub fn misses(&self) -> u64 {
        self.fresh_records + self.fresh_bytes
    }
}

#[derive(Debug)]
struct PoolInner<R> {
    records: Vec<Vec<R>>,
    bytes: Vec<Vec<u8>>,
    cap_per_kind: usize,
    stats: PoolStats,
}

/// Shared recycling pool of record and byte buffers.  Cloning shares the
/// pool.
#[derive(Debug)]
pub struct BufferPool<R> {
    inner: Arc<Mutex<PoolInner<R>>>,
}

impl<R> Clone for BufferPool<R> {
    fn clone(&self) -> Self {
        BufferPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<R> Default for BufferPool<R> {
    fn default() -> Self {
        Self::new()
    }
}

/// Default bound on pooled buffers of each kind.  Generous versus any
/// merge's working set (`2R + 4D` blocks) yet small enough that a pool
/// can never hold more than a few megabytes of idle capacity.
const DEFAULT_CAP_PER_KIND: usize = 1024;

impl<R> BufferPool<R> {
    /// A fresh pool with the default per-kind bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAP_PER_KIND)
    }

    /// A fresh pool holding at most `cap_per_kind` idle buffers of each
    /// kind; further returns are dropped.
    pub fn with_capacity(cap_per_kind: usize) -> Self {
        BufferPool {
            inner: Arc::new(Mutex::new(PoolInner {
                records: Vec::new(),
                bytes: Vec::new(),
                cap_per_kind,
                stats: PoolStats::default(),
            })),
        }
    }

    /// An empty record buffer with capacity at least `cap`.
    pub fn take_records(&self, cap: usize) -> Vec<R> {
        let mut g = self.inner.lock();
        match g.records.pop() {
            Some(mut v) => {
                g.stats.reused_records += 1;
                drop(g);
                if v.capacity() < cap {
                    // The buffer is empty, so this guarantees capacity
                    // of at least `cap`.
                    v.reserve(cap);
                }
                v
            }
            None => {
                g.stats.fresh_records += 1;
                drop(g);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Return a drained record buffer to the pool.
    pub fn put_records(&self, mut v: Vec<R>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        let mut g = self.inner.lock();
        if g.records.len() < g.cap_per_kind {
            g.records.push(v);
            g.stats.returned_records += 1;
        }
    }

    /// An empty byte buffer with capacity at least `cap`.
    pub fn take_bytes(&self, cap: usize) -> Vec<u8> {
        let mut g = self.inner.lock();
        match g.bytes.pop() {
            Some(mut v) => {
                g.stats.reused_bytes += 1;
                drop(g);
                if v.capacity() < cap {
                    // The buffer is empty, so this guarantees capacity
                    // of at least `cap`.
                    v.reserve(cap);
                }
                v
            }
            None => {
                g.stats.fresh_bytes += 1;
                drop(g);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Return a drained byte buffer to the pool.
    pub fn put_bytes(&self, mut v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        let mut g = self.inner.lock();
        if g.bytes.len() < g.cap_per_kind {
            g.bytes.push(v);
            g.stats.returned_bytes += 1;
        }
    }

    /// Snapshot of the allocation/reuse counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Idle buffers currently held, `(record_buffers, byte_buffers)`.
    pub fn idle(&self) -> (usize, usize) {
        let g = self.inner.lock();
        (g.records.len(), g.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_reuses_capacity() {
        let pool: BufferPool<u64> = BufferPool::new();
        let mut v = pool.take_records(16);
        assert!(v.capacity() >= 16);
        v.extend(0..16u64);
        pool.put_records(v);
        let v2 = pool.take_records(8);
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 16, "recycled buffer keeps its capacity");
        let s = pool.stats();
        assert_eq!(s.fresh_records, 1);
        assert_eq!(s.reused_records, 1);
        assert_eq!(s.returned_records, 1);
    }

    #[test]
    fn bytes_and_records_pool_independently() {
        let pool: BufferPool<u64> = BufferPool::new();
        pool.put_bytes(Vec::with_capacity(64));
        assert_eq!(pool.idle(), (0, 1));
        let b = pool.take_bytes(32);
        assert!(b.capacity() >= 64);
        assert_eq!(pool.stats().reused_bytes, 1);
        assert_eq!(pool.stats().fresh_records, 0);
    }

    #[test]
    fn undersized_recycled_buffer_is_grown() {
        let pool: BufferPool<u8> = BufferPool::new();
        pool.put_bytes(Vec::with_capacity(4));
        let b = pool.take_bytes(128);
        assert!(b.capacity() >= 128);
    }

    #[test]
    fn bound_drops_overflow() {
        let pool: BufferPool<u64> = BufferPool::with_capacity(2);
        for _ in 0..5 {
            pool.put_bytes(Vec::with_capacity(8));
        }
        assert_eq!(pool.idle().1, 2);
        assert_eq!(pool.stats().returned_bytes, 2);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let pool: BufferPool<u64> = BufferPool::new();
        pool.put_records(Vec::new());
        pool.put_bytes(Vec::new());
        assert_eq!(pool.idle(), (0, 0));
    }

    #[test]
    fn clones_share_one_pool() {
        let pool: BufferPool<u64> = BufferPool::new();
        let clone = pool.clone();
        clone.put_records(Vec::with_capacity(8));
        assert_eq!(pool.idle().0, 1);
        let _ = pool.take_records(4);
        assert_eq!(clone.stats().reused_records, 1);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let pool: BufferPool<u64> = BufferPool::new();
        // Warm-up: one buffer of each kind.
        pool.put_records(pool.take_records(32));
        pool.put_bytes(pool.take_bytes(256));
        let warm = pool.stats();
        for _ in 0..100 {
            let r = pool.take_records(32);
            let b = pool.take_bytes(256);
            pool.put_records(r);
            pool.put_bytes(b);
        }
        let s = pool.stats();
        assert_eq!(s.fresh_records, warm.fresh_records, "no new record allocs");
        assert_eq!(s.fresh_bytes, warm.fresh_bytes, "no new byte allocs");
        assert_eq!(s.reused_records, warm.reused_records + 100);
        assert_eq!(s.reused_bytes, warm.reused_bytes + 100);
    }
}
