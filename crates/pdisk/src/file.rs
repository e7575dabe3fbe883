//! Real-file disk array.
//!
//! Each simulated disk is one file; the per-disk transfers of a parallel
//! I/O operation execute concurrently on dedicated worker threads (one per
//! disk, owning that disk's file handle), so a `D`-wide operation issues `D`
//! positioned reads/writes in parallel exactly as the model intends.
//!
//! On-disk format: fixed-size block slots.  Each slot is
//!
//! ```text
//! [u64 FNV-1a checksum of the rest of the slot]
//! [u32 record-count][u32 forecast-kind][8 * max(D,1) bytes forecast keys]
//! [B * ENCODED_LEN bytes records]
//! ```
//!
//! `forecast-kind` is 0 for [`Forecast::Next`] (one key used) and 1 for
//! [`Forecast::Initial`] (`D` keys used).  Unused key slots hold
//! [`crate::block::NO_BLOCK`].
//!
//! The leading checksum covers every payload byte, so a torn write, a
//! flipped bit, or a stale sector surfaces as [`PdiskError::Corrupt`] at
//! read time — corruption can abort a sort but can never silently
//! mis-sort.  [`FileDiskArray::open`] reopens an existing array without
//! truncating, which is what checkpoint/resume builds on.
//!
//! The slot codec (`SlotLayout`) runs on the worker threads, beside the
//! transfer it belongs to: a write job carries its typed block and the
//! worker encodes, checksums and writes it; a read job's worker reads,
//! verifies and decodes, and replies with the block.  The submitting
//! thread only validates the operation, draws buffers from the pool and
//! queues the jobs, so the `D` slots of one parallel I/O are coded `D`
//! ways in parallel and none of it delays the merge.
//!
//! An operation reaches the workers whole (`crate::queue`): its jobs are
//! built first, pushed onto the per-disk queues under one lock, and the
//! workers are woken once, after the last job is queued — one scheduling
//! event per parallel I/O, not one per block.  Its results come back
//! through one completion record with a slot per job.

use std::collections::{BTreeSet, HashMap};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::addr::{BlockAddr, DiskId};
use crate::backend::{
    BlockReply, DiskArray, ReadState, ReadTicket, SlotReply, WriteState, WriteTicket,
};
use crate::block::{Block, Forecast, NO_BLOCK};
use crate::error::{PdiskError, Result};
use crate::geometry::Geometry;
use crate::manifest::fnv1a64;
use crate::pool::BufferPool;
use crate::queue::{completion, DiskQueues, SlotFill};
use crate::record::Record;
use crate::stats::IoStats;
use crate::trace::{TraceEvent, TraceSink};

/// Bytes of the leading per-slot checksum.
const CHECKSUM_BYTES: usize = 8;

/// Deepest write-behind pipeline the engines run: a queue of at most
/// this many un-completed [`WriteTicket`]s per run writer.  Deeper
/// write-behind hides more device latency, but every un-completed
/// ticket is a write a crash can tear — so the reopen recovery window
/// below is sized from this same constant and the two move in lockstep.
pub const WRITE_BEHIND_LIMIT: usize = 3;

/// How many whole trailing slots per disk a crash can tear.  The engines
/// keep at most [`WRITE_BEHIND_LIMIT`] write-behind tickets in flight
/// when the process dies (the newest of them being the write just
/// issued), and each parallel write places at most one slot per disk —
/// so with one slot of margin, at most `WRITE_BEHIND_LIMIT + 1`
/// un-fsynced trailing slots per disk can be partially applied.
/// Checksum failures deeper than this window are structural corruption
/// and refuse the reopen.
const MAX_TORN_SLOTS: u64 = WRITE_BEHIND_LIMIT as u64 + 1;

/// Name of the advisory lock file guarding an array directory.
const LOCK_FILE: &str = "pdisk.lock";

/// First 8 bytes of `bytes` as a little-endian `u64`.  Callers pass
/// buffers sized by the codec, so the length is guaranteed.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

/// First 4 bytes of `bytes` as a little-endian `u32`.
fn le_u32(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(b)
}

/// Canonicalized array directories currently open in this process.
fn open_dirs() -> &'static Mutex<BTreeSet<PathBuf>> {
    static DIRS: OnceLock<Mutex<BTreeSet<PathBuf>>> = OnceLock::new();
    DIRS.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Whether a process with `pid` is alive, per procfs.  On platforms
/// without `/proc` this reports `false`, treating foreign locks as
/// stale — same-process double-opens are still caught by the registry.
fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

/// Exclusive claim on one array directory, held for the lifetime of a
/// [`FileDiskArray`].  Two live handles on the same directory would
/// share allocator state by accident and silently interleave writes, so
/// the second open fails with [`PdiskError::ArrayLocked`] instead.
///
/// Within a process the claim is a registry of canonicalized paths; a
/// cross-process claim is an advisory `pdisk.lock` file recording the
/// holder's PID.  A lock whose holder is no longer alive (a crash) is
/// stale and silently reclaimed, so recovery never needs a manual
/// unlock step.
#[derive(Debug)]
struct DirLock {
    canonical: PathBuf,
    lock_path: PathBuf,
}

impl DirLock {
    fn registry() -> crate::lockwitness::Witnessed<std::sync::MutexGuard<'static, BTreeSet<PathBuf>>>
    {
        crate::lockwitness::guard(
            "pdisk::file::open_dirs",
            open_dirs().lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    fn acquire(dir: &Path) -> Result<Self> {
        let canonical = dir.canonicalize()?;
        let lock_path = dir.join(LOCK_FILE);
        let me = std::process::id();
        let mut dirs = Self::registry();
        if dirs.contains(&canonical) {
            return Err(PdiskError::ArrayLocked {
                dir: canonical,
                holder: me,
            });
        }
        if let Ok(text) = std::fs::read_to_string(&lock_path) {
            if let Ok(pid) = text.trim().parse::<u32>() {
                if pid != me && pid_alive(pid) {
                    return Err(PdiskError::ArrayLocked {
                        dir: canonical,
                        holder: pid,
                    });
                }
            }
        }
        std::fs::write(&lock_path, format!("{me}\n"))?;
        dirs.insert(canonical.clone());
        Ok(DirLock {
            canonical,
            lock_path,
        })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        Self::registry().remove(&self.canonical);
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// Whether the slot at `index` passes its leading checksum.
fn slot_checksum_ok(file: &File, slot_bytes: usize, index: u64) -> io::Result<bool> {
    let mut buf = vec![0u8; slot_bytes];
    file.read_exact_at(&mut buf, index * slot_bytes as u64)?;
    let stored = le_u64(&buf[..CHECKSUM_BYTES]);
    Ok(stored == fnv1a64(&buf[CHECKSUM_BYTES..]))
}

/// The geometry of one on-disk slot — all the codec needs to know about
/// an array, small and `Copy` so every worker thread holds its own.
///
/// A slot is a checksum in front of a *payload* (count, forecast, record
/// cells).  The payload half is the one block codec of the crate: the
/// parity layer XORs the same bytes, so both persistent formats — disk
/// files and the parity store — move together or not at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotLayout {
    /// Records per block (`B`).
    b: usize,
    /// Bytes a slot occupies on disk.
    slot_bytes: usize,
    /// Forecast-key cells reserved per slot (`max(D, 1)`).
    forecast_keys: usize,
}

impl SlotLayout {
    pub(crate) fn new<R: Record>(geom: Geometry) -> Self {
        let forecast_keys = geom.d.max(1);
        SlotLayout {
            b: geom.b,
            slot_bytes: CHECKSUM_BYTES + 8 + 8 * forecast_keys + geom.b * R::ENCODED_LEN,
            forecast_keys,
        }
    }

    /// Bytes of a slot's payload: everything behind the checksum.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.slot_bytes - CHECKSUM_BYTES
    }

    /// Whether `block` fits a slot: everything the encoders take for
    /// granted, checked where the caller can still be refused.
    pub(crate) fn admits<R: Record>(&self, block: &Block<R>) -> Result<()> {
        if block.len() > self.b {
            return Err(PdiskError::BadBlockSize {
                expected: self.b,
                got: block.len(),
            });
        }
        if let Forecast::Initial(keys) = &block.forecast {
            if keys.len() > self.forecast_keys {
                return Err(PdiskError::Corrupt(format!(
                    "forecast table of {} keys exceeds reserved {}",
                    keys.len(),
                    self.forecast_keys
                )));
            }
        }
        Ok(())
    }

    /// Serialize `block`, which [`SlotLayout::admits`] has passed, into
    /// `out`, a zeroed buffer of [`SlotLayout::payload_bytes`]: short
    /// final blocks leave no stale bytes behind the record count.
    pub(crate) fn encode_payload<R: Record>(&self, block: &Block<R>, out: &mut [u8]) {
        out[..4].copy_from_slice(&(block.len() as u32).to_le_bytes());
        let (kind, keys): (u32, &[u64]) = match &block.forecast {
            Forecast::Next(k) => (0, std::slice::from_ref(k)),
            Forecast::Initial(ks) => (1, ks.as_slice()),
        };
        out[4..8].copy_from_slice(&kind.to_le_bytes());
        let mut off = 8;
        for i in 0..self.forecast_keys {
            let k = keys.get(i).copied().unwrap_or(NO_BLOCK);
            out[off..off + 8].copy_from_slice(&k.to_le_bytes());
            off += 8;
        }
        for rec in &block.records {
            rec.encode(&mut out[off..off + R::ENCODED_LEN]);
            off += R::ENCODED_LEN;
        }
    }

    /// Parse a payload of [`SlotLayout::payload_bytes`] into a block,
    /// filling the empty buffer `records`.
    pub(crate) fn decode_payload<R: Record>(&self, bytes: &[u8], mut records: Vec<R>) -> Result<Block<R>> {
        let n = le_u32(&bytes[..4]) as usize;
        if n > self.b {
            return Err(PdiskError::Corrupt(format!(
                "record count {n} exceeds block size {}",
                self.b
            )));
        }
        let kind = le_u32(&bytes[4..8]);
        let mut off = 8;
        let forecast = match kind {
            // `Next` carries one live key; skipping the reserved tail
            // avoids a per-block Vec on the hot path.
            0 => Forecast::Next(le_u64(&bytes[off..off + 8])),
            1 => {
                let mut keys = Vec::with_capacity(self.forecast_keys);
                for i in 0..self.forecast_keys {
                    keys.push(le_u64(&bytes[off + 8 * i..off + 8 * i + 8]));
                }
                Forecast::Initial(keys)
            }
            k => return Err(PdiskError::Corrupt(format!("unknown forecast kind {k}"))),
        };
        off += 8 * self.forecast_keys;
        for _ in 0..n {
            records.push(R::decode(&bytes[off..off + R::ENCODED_LEN]));
            off += R::ENCODED_LEN;
        }
        Ok(Block { records, forecast })
    }

    /// Serialize `block`, which [`SlotLayout::admits`] has passed, into
    /// `out` as one checksummed slot image.
    fn encode<R: Record>(&self, block: &Block<R>, out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.slot_bytes, 0);
        self.encode_payload(block, &mut out[CHECKSUM_BYTES..]);
        let checksum = fnv1a64(&out[CHECKSUM_BYTES..]);
        out[..CHECKSUM_BYTES].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Verify one slot image against its checksum and parse it into a
    /// block, filling the empty buffer `records`.
    fn decode<R: Record>(&self, bytes: &[u8], records: Vec<R>) -> Result<Block<R>> {
        if bytes.len() != self.slot_bytes {
            return Err(PdiskError::Corrupt(format!(
                "slot of {} bytes, expected {}",
                bytes.len(),
                self.slot_bytes
            )));
        }
        let stored = le_u64(&bytes[..CHECKSUM_BYTES]);
        let actual = fnv1a64(&bytes[CHECKSUM_BYTES..]);
        if stored != actual {
            return Err(PdiskError::Corrupt(format!(
                "block checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            )));
        }
        self.decode_payload(&bytes[CHECKSUM_BYTES..], records)
    }
}

/// One per-disk transfer, carrying everything its worker needs to code
/// the slot as well as move it.  Every buffer in a job was drawn from
/// the pool by the submitting thread.
enum Job<R: Record> {
    Read {
        offset: u64,
        /// Slot image buffer with room for one slot; the worker reads
        /// into it and sends it back beside the block, so steady-state
        /// reads allocate nothing.
        buf: Vec<u8>,
        /// Empty buffer the decoded records go into.
        records: Vec<R>,
        reply: SlotFill<Result<(Block<R>, Vec<u8>)>>,
    },
    Write {
        offset: u64,
        block: Block<R>,
        /// Buffer the worker encodes the slot image into; it replies
        /// with the consumed bytes on success so the caller can recycle
        /// them into the buffer pool.
        buf: Vec<u8>,
        /// Where the block's record buffer goes once it is encoded: the
        /// pool the array had installed when the write was submitted.
        pool: BufferPool<R>,
        reply: SlotFill<io::Result<Vec<u8>>>,
    },
    /// Durability barrier: `fsync` the disk file.  Because each worker
    /// processes its queue in order, the barrier also *drains* every
    /// write queued before it — a sync reply means those writes are on
    /// stable storage, not merely in flight.
    Sync {
        reply: SlotFill<io::Result<()>>,
    },
}

/// The per-disk worker threads and the queues that feed them.
struct Workers<R: Record> {
    queues: Arc<DiskQueues<Job<R>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<R: Record> Drop for Workers<R> {
    /// Workers exit on *closed and empty*, so this returns — with every
    /// queued write carried out — whatever tickets and prefetches are
    /// still outstanding: their results are filled into completion
    /// records nobody waits on.
    fn drop(&mut self) {
        self.queues.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Counters for the speculative read-ahead cache of
/// [`FileDiskArray::prefetch`].  Hints are free in the model (no
/// [`IoStats`] charge), so these are the only visibility into whether
/// read-ahead is actually landing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Speculative per-disk reads started.
    pub issued: u64,
    /// Demand reads served from an in-flight (or landed) prefetch.
    pub hits: u64,
    /// Prefetches thrown away because the slot was written over before
    /// the demand read arrived (the cache never serves stale bytes).
    pub invalidated: u64,
}

/// Counters for the dispatch path.  *Queue everything, then wake* keeps
/// `notifications` at or below `submissions` whatever an operation's
/// width — the in-product check that a parallel I/O is one scheduling
/// event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Operations (reads, writes, hints, barriers) queued whole under
    /// one lock acquisition.
    pub submissions: u64,
    /// Submissions that found a worker they touch asleep and notified.
    pub notifications: u64,
    /// Times a completing thread slept waiting for a result.
    pub completion_waits: u64,
}

/// A disk array backed by one file per disk, with per-disk I/O threads.
pub struct FileDiskArray<R: Record> {
    geom: Geometry,
    dir: PathBuf,
    workers: Workers<R>,
    next_free: Vec<u64>,
    stats: IoStats,
    layout: SlotLayout,
    trace: Option<TraceSink>,
    pool: BufferPool<R>,
    /// Artificial per-job service time in microseconds, shared with the
    /// worker threads (0 = none).  Used by benchmarks to emulate a
    /// device whose transfers take real time, making I/O–compute
    /// overlap measurable even on a fast local filesystem.
    io_delay_us: Arc<AtomicU64>,
    /// Per-disk count of torn trailing frames (whole slots plus a
    /// partial tail) dropped by the reopen recovery; all zero for a
    /// freshly created array or a clean reopen.
    torn_dropped: Vec<u64>,
    /// Speculative read-ahead cache: slots whose per-disk read was
    /// started on a [`DiskArray::prefetch`] hint and not yet claimed by
    /// a demand read.  Holds only the caller half of the read's completion
    /// slot — the decoded block and its slot image wait in it until
    /// claimed, so a hit simply adopts the half and the demand path
    /// proceeds as if it had dispatched the job itself.
    prefetched: HashMap<BlockAddr, BlockReply<R>>,
    prefetch_stats: PrefetchStats,
    completion_waits: u64,
    _lock: DirLock,
}

impl<R: Record> FileDiskArray<R> {
    /// Create (or truncate) `D` disk files under `dir` and start the worker
    /// threads.
    pub fn create(geom: Geometry, dir: impl AsRef<Path>) -> Result<Self> {
        Self::build(geom, dir, true)
    }

    /// Reopen an existing array without truncating: every block written
    /// before the reopen stays readable, and allocation resumes after
    /// the highest slot present in each disk file.  This is the
    /// substrate for checkpoint/resume — a resumed sort reopens the
    /// array and continues from its manifest.
    ///
    /// A crash mid-write can leave one *torn* slot at a file's tail
    /// (partial, or full-length with a failing checksum).  The reopen
    /// detects it via the slot checksum and truncates back to the last
    /// whole slot — but only after verifying the preceding slot, so a
    /// reopen under the wrong geometry still fails with
    /// [`PdiskError::Corrupt`] instead of shearing real data.
    pub fn open(geom: Geometry, dir: impl AsRef<Path>) -> Result<Self> {
        Self::build(geom, dir, false)
    }

    fn build(geom: Geometry, dir: impl AsRef<Path>, truncate: bool) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = DirLock::acquire(&dir)?;
        let layout = SlotLayout::new::<R>(geom);
        let slot_bytes = layout.slot_bytes;
        let io_delay_us = Arc::new(AtomicU64::new(0));
        // Owns the threads from the first spawn on: an error below closes
        // the queues and joins what was started.
        let mut workers = Workers {
            queues: Arc::new(DiskQueues::new(geom.d)),
            handles: Vec::with_capacity(geom.d),
        };
        let mut next_free = vec![0u64; geom.d];
        let mut torn_dropped = vec![0u64; geom.d];
        for (d, free) in next_free.iter_mut().enumerate() {
            let path = dir.join(format!("disk_{d:04}.bin"));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(truncate)
                .open(&path)?;
            if !truncate {
                // Recover the allocator from the file, tolerating a torn
                // *parallel-write group* at the tail.  A crash can leave
                // un-fsynced trailing slots partially applied on every
                // disk of the group at once, and with up to
                // WRITE_BEHIND_LIMIT write-behind tickets in flight, up
                // to MAX_TORN_SLOTS whole slots per disk may be affected
                // — not just the single last slot.  Verify *before*
                // truncating: after dropping the torn tail, the surviving
                // trailing slot must pass its checksum, so a reopen under
                // the wrong geometry — where every slot boundary is
                // misaligned — is refused rather than having real data
                // sheared off.
                let len = file.metadata()?.len();
                let sb = slot_bytes as u64;
                let (whole, rem) = (len / sb, len % sb);
                let refuse = |what: &str| {
                    Err(PdiskError::Corrupt(format!(
                        "disk file {} is {len} bytes with {what} and no \
                         checksum-valid {slot_bytes}-byte slot before it \
                         (wrong geometry or record type?)",
                        path.display()
                    )))
                };
                // Drop whole trailing slots that fail their checksum, up
                // to the torn-write window.
                let mut keep = whole;
                let mut dropped = 0u64;
                while keep > 0
                    && dropped < MAX_TORN_SLOTS
                    && !slot_checksum_ok(&file, slot_bytes, keep - 1)?
                {
                    keep -= 1;
                    dropped += 1;
                }
                if keep > 0 && !slot_checksum_ok(&file, slot_bytes, keep - 1)? {
                    // Corruption deeper than any torn write can reach.
                    return refuse("a corrupt trailing region");
                }
                if keep == 0 && len > 0 {
                    // A torn tail with no verified slot anywhere before
                    // it: nothing anchors the slot size, so refuse
                    // rather than guess.
                    return refuse(if rem != 0 {
                        "a partial trailing slot"
                    } else {
                        "a corrupt trailing slot"
                    });
                }
                if keep * sb != len {
                    file.set_len(keep * sb)?;
                }
                torn_dropped[d] = dropped + u64::from(rem != 0);
                *free = keep;
            }
            let queues = Arc::clone(&workers.queues);
            workers.handles.push(Self::spawn_worker(d, file, layout, Arc::clone(&io_delay_us), queues)?);
        }
        Ok(FileDiskArray {
            geom,
            dir,
            workers,
            next_free,
            stats: IoStats::default(),
            layout,
            trace: None,
            pool: BufferPool::new(),
            io_delay_us,
            torn_dropped,
            prefetched: HashMap::new(),
            prefetch_stats: PrefetchStats::default(),
            completion_waits: 0,
            _lock: lock,
        })
    }

    // The disk worker thread: ALL of its blocking I/O (positioned
    // reads/writes, fsync) lives in this one blessed fn, and its wait for
    // work in `QueueWorker::next_job`, the other; srmlint's blocking pass
    // rejects any other blocking call that becomes reachable from it.
    // The slot codec it calls is pure.
    #[srmlint::worker_entry]
    #[srmlint::blessed_seam]
    fn spawn_worker(
        idx: usize,
        file: File,
        layout: SlotLayout,
        delay_us: Arc<AtomicU64>,
        queues: Arc<DiskQueues<Job<R>>>,
    ) -> Result<std::thread::JoinHandle<()>> {
        let handle = std::thread::Builder::new()
            .name(format!("pdisk-io-{idx}"))
            .spawn(move || {
                // Virtual device clock for the simulated service time:
                // a disk that has been continuously busy completes one
                // block every `delay` of *modeled* time, so the worker
                // tracks `busy_until` and sleeps toward that deadline
                // rather than sleeping a fixed amount per job.  A bare
                // per-job `thread::sleep` overshoots sub-millisecond
                // requests by ~2x (kernel timer slack), which would
                // silently halve the simulated device bandwidth; with a
                // deadline, overshoot on one job shortens the next sleep,
                // so a backlogged queue drains at exactly one block per
                // `delay` while an idle disk still charges full latency.
                let mut busy_until = std::time::Instant::now();
                // Retires the disk when the thread ends, however it ends.
                let worker = queues.worker(idx);
                while let Some((job, backlogged)) = worker.next_job() {
                    let d = delay_us.load(Ordering::Relaxed);
                    if d > 0 {
                        let now = std::time::Instant::now();
                        if !backlogged && busy_until < now {
                            // The device sat idle until this job arrived.
                            busy_until = now;
                        }
                        busy_until += Duration::from_micros(d);
                        if busy_until > now {
                            std::thread::sleep(busy_until - now);
                        }
                    }
                    match job {
                        // Filling a slot never blocks; when the ticket
                        // was dropped the result is abandoned with the
                        // completion record and nothing else.
                        Job::Read { offset, mut buf, records, reply } => {
                            buf.resize(layout.slot_bytes, 0);
                            let res = match file.read_exact_at(&mut buf, offset) {
                                Ok(()) => layout.decode(&buf, records).map(|block| (block, buf)),
                                Err(e) => Err(PdiskError::Io(e)),
                            };
                            reply.fill_slot(res);
                        }
                        Job::Write { offset, block, mut buf, pool, reply } => {
                            layout.encode(&block, &mut buf);
                            pool.put_records(block.records);
                            reply.fill_slot(file.write_all_at(&buf, offset).map(|()| buf));
                        }
                        Job::Sync { reply } => {
                            reply.fill_slot(file.sync_all());
                        }
                    }
                }
            })?;
        Ok(handle)
    }

    /// Directory holding the disk files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Per-disk count of torn trailing frames dropped by the last
    /// reopen's recovery — how much of an interrupted parallel-write
    /// group was detected and discarded on each disk.  All zero for a
    /// fresh array or a clean reopen.
    pub fn torn_frames_dropped(&self) -> &[u64] {
        &self.torn_dropped
    }

    /// Bytes a block slot occupies on disk.
    pub fn slot_bytes(&self) -> usize {
        self.layout.slot_bytes
    }

    /// Add an artificial service time to every per-disk transfer,
    /// emulating a device where one block takes `delay` to move.
    /// Benchmarks use this to make I/O–compute overlap measurable on a
    /// fast local filesystem; sub-microsecond values round to zero.
    pub fn set_io_delay(&self, delay: Duration) {
        self.io_delay_us
            .store(delay.as_micros() as u64, Ordering::Relaxed);
    }

    /// Snapshot of the speculative read-ahead counters.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetch_stats
    }

    /// Snapshot of the dispatch counters.
    pub fn queue_stats(&self) -> QueueStats {
        let (submissions, notifications) = self.workers.queues.counts();
        QueueStats {
            submissions,
            notifications,
            completion_waits: self.completion_waits,
        }
    }

    /// Queue the reads of mapped slots as one submission with one
    /// completion record, returning its caller halves in `addrs` order.
    /// Every job is built — pool draws included — before the queue lock
    /// is taken; a refused submission has queued nothing.
    fn queue_reads(&mut self, addrs: &[BlockAddr]) -> Result<Vec<BlockReply<R>>> {
        if addrs.is_empty() {
            return Ok(Vec::new());
        }
        let (jobs, replies): (Vec<_>, Vec<_>) = addrs
            .iter()
            .zip(completion(addrs.len()))
            .map(|(addr, (reply, wait))| {
                let job = Job::Read {
                    offset: addr.offset * self.layout.slot_bytes as u64,
                    buf: self.pool.take_bytes(self.layout.slot_bytes),
                    records: self.pool.take_records(self.layout.b),
                    reply,
                };
                ((addr.disk.index(), job), wait)
            })
            .unzip();
        self.workers.queues.submit(jobs)?;
        Ok(replies)
    }

    /// Validate the whole of one parallel read, then queue it, returning
    /// the completion halves in request order.  A refused read has
    /// queued nothing.
    fn dispatch_reads(&mut self, addrs: &[BlockAddr]) -> Result<Vec<BlockReply<R>>> {
        self.geom.check_parallel_op(addrs.iter().map(|a| a.disk))?;
        if let Some(&addr) = addrs.iter().find(|a| a.offset >= self.next_free[a.disk.index()]) {
            return Err(PdiskError::UnmappedBlock(addr));
        }
        // A prefetch already started (or finished) some of these slot
        // reads: queue the rest, then adopt those completion halves
        // instead of reading again.  The demand path downstream is
        // unchanged — it just finds its slot filled sooner.
        let misses: Vec<BlockAddr> =
            addrs.iter().copied().filter(|a| !self.prefetched.contains_key(a)).collect();
        let mut queued = self.queue_reads(&misses)?.into_iter();
        self.prefetch_stats.hits += (addrs.len() - misses.len()) as u64;
        Ok(addrs
            .iter()
            .filter_map(|a| self.prefetched.remove(a).or_else(|| queued.next()))
            .collect())
    }

    /// Validate the whole of one parallel write, then queue it; the
    /// workers encode the blocks and recycle their record buffers into
    /// the pool.  A refused write has queued nothing.
    fn dispatch_writes(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<Vec<SlotReply>> {
        self.geom
            .check_parallel_op(writes.iter().map(|(a, _)| a.disk))?;
        for (addr, block) in &writes {
            if addr.offset >= self.next_free[addr.disk.index()] {
                return Err(PdiskError::UnmappedBlock(*addr));
            }
            self.layout.admits(block)?;
        }
        let n = writes.len();
        let (jobs, replies): (Vec<_>, Vec<_>) = writes
            .into_iter()
            .zip(completion(n))
            .map(|((addr, block), (reply, wait))| {
                // Never serve stale bytes: a prefetch of this slot raced
                // the overwrite, so abandon its result.
                if self.prefetched.remove(&addr).is_some() {
                    self.prefetch_stats.invalidated += 1;
                }
                let job = Job::Write {
                    offset: addr.offset * self.layout.slot_bytes as u64,
                    block,
                    buf: self.pool.take_bytes(self.layout.slot_bytes),
                    pool: self.pool.clone(),
                    reply,
                };
                ((addr.disk.index(), job), wait)
            })
            .unzip();
        self.workers.queues.submit(jobs)?;
        Ok(replies)
    }
}

impl<R: Record> DiskArray<R> for FileDiskArray<R> {
    fn geometry(&self) -> Geometry {
        self.geom
    }

    fn alloc_contiguous(&mut self, disk: DiskId, count: u64) -> Result<u64> {
        let slot = self
            .next_free
            .get_mut(disk.index())
            .ok_or(PdiskError::NoSuchDisk(disk))?;
        let start = *slot;
        *slot += count;
        Ok(start)
    }

    fn submit_read(&mut self, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        if addrs.is_empty() {
            return Ok(ReadTicket::ready(Vec::new(), Vec::new()));
        }
        let replies = self.dispatch_reads(addrs)?;
        // The operation is charged (and physically traced) at submit:
        // the split-phase pair is one parallel I/O, and counting it
        // where it is issued makes the op sequence independent of how
        // long the caller leaves the ticket outstanding.
        self.stats.record_read(addrs.len());
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::PhysRead {
                addrs: addrs.to_vec(),
            });
        }
        Ok(ReadTicket::pending(addrs.to_vec(), replies))
    }

    fn complete_read(&mut self, ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        match ticket.state {
            ReadState::Ready(blocks) => Ok(blocks),
            ReadState::Pending(replies) => {
                let mut out = Vec::with_capacity(replies.len());
                for reply in replies {
                    let (block, bytes) = reply.wait_slot(&mut self.completion_waits)??;
                    self.pool.put_bytes(bytes);
                    out.push(block);
                }
                Ok(out)
            }
        }
    }

    fn submit_write(&mut self, writes: Vec<(BlockAddr, Block<R>)>) -> Result<WriteTicket> {
        if writes.is_empty() {
            return Ok(WriteTicket::ready(Vec::new()));
        }
        let n = writes.len();
        let addrs: Vec<BlockAddr> = writes.iter().map(|(a, _)| *a).collect();
        let replies = self.dispatch_writes(writes)?;
        self.stats.record_write(n);
        if let Some(sink) = &self.trace {
            sink.emit(TraceEvent::PhysWrite {
                addrs: addrs.clone(),
            });
        }
        Ok(WriteTicket::pending(addrs, replies))
    }

    fn complete_write(&mut self, ticket: WriteTicket) -> Result<()> {
        match ticket.state {
            WriteState::Ready => Ok(()),
            WriteState::Pending(replies) => {
                for reply in replies {
                    let bytes = reply.wait_slot(&mut self.completion_waits)??;
                    self.pool.put_bytes(bytes);
                }
                Ok(())
            }
        }
    }

    /// Speculative read-ahead: start the per-disk reads for `addrs` now —
    /// the whole hint as one submission — and park the completion halves
    /// in a cache keyed by address.  A later demand read of the same slot
    /// adopts its half and skips the device wait.  Hints are *not* parallel I/O operations: nothing is
    /// charged to [`IoStats`], no trace events are emitted, and bad or
    /// already-cached addresses are silently skipped — but each
    /// speculative read does occupy its disk's worker (including any
    /// simulated service delay), so the device time is physically
    /// honest; prefetching only ever moves it earlier.
    fn prefetch(&mut self, addrs: &[BlockAddr]) {
        let mut wanted: Vec<BlockAddr> = Vec::with_capacity(addrs.len());
        for &addr in addrs {
            if self.prefetched.contains_key(&addr)
                || wanted.contains(&addr)
                || addr.disk.index() >= self.geom.d
                || addr.offset >= self.next_free[addr.disk.index()]
            {
                continue;
            }
            wanted.push(addr);
        }
        // A hint that could not be queued leaves no entry behind.
        if let Ok(replies) = self.queue_reads(&wanted) {
            self.prefetch_stats.issued += wanted.len() as u64;
            self.prefetched.extend(wanted.into_iter().zip(replies));
        }
    }

    /// Durability barrier: drain every queued write and `fsync` all `D`
    /// disk files before returning.  Worker queues are processed in
    /// order, so a completed sync means every write submitted before it
    /// — including abandoned write-behind tickets — is on stable
    /// storage.  Checkpoint writers call this before publishing a
    /// manifest.
    fn sync(&mut self) -> Result<()> {
        let (jobs, replies): (Vec<_>, Vec<_>) = completion(self.geom.d)
            .enumerate()
            .map(|(disk, (reply, wait))| ((disk, Job::Sync { reply }), wait))
            .unzip();
        self.workers.queues.submit(jobs)?;
        for reply in replies {
            reply.wait_slot(&mut self.completion_waits)??;
        }
        Ok(())
    }

    fn install_pool(&mut self, pool: BufferPool<R>) {
        self.pool = pool;
    }

    fn buffer_pool(&self) -> Option<&BufferPool<R>> {
        Some(&self.pool)
    }

    fn stats(&self) -> IoStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    fn install_trace(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }
}

// The slot codec is pure — no file, no thread — so unlike the backend's
// own tests below these also run under the CI miri job.
#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::record::{KeyPayloadRecord, U64Record};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn layout<R: Record>(d: usize, b: usize) -> SlotLayout {
        SlotLayout::new::<R>(Geometry::new(d, b, 1000).unwrap())
    }

    fn roundtrip<R: Record + PartialEq + std::fmt::Debug>(l: SlotLayout, block: &Block<R>) -> Vec<u8> {
        l.admits(block).unwrap();
        // A recycled buffer arrives with stale capacity, not zeroes.
        let mut image = vec![0xEE; l.slot_bytes + 7];
        l.encode(block, &mut image);
        assert_eq!(image.len(), l.slot_bytes);
        assert_eq!(&l.decode::<R>(&image, Vec::new()).unwrap(), block);
        image
    }

    #[test]
    fn both_forecast_kinds_round_trip() {
        let l = layout::<U64Record>(3, 4);
        let keys = [1u64, 5, 9, 9].map(U64Record).to_vec();
        roundtrip(l, &Block::new(keys.clone(), Forecast::Initial(vec![1, 20, NO_BLOCK])));
        roundtrip(l, &Block::new(keys, Forecast::Next(40)));
        // A table shorter than the reserved cells comes back padded.
        let mut image = Vec::new();
        l.encode(&Block::new(vec![U64Record(1)], Forecast::Initial(vec![7])), &mut image);
        let back = l.decode::<U64Record>(&image, Vec::new()).unwrap();
        assert_eq!(back.forecast, Forecast::Initial(vec![7, NO_BLOCK, NO_BLOCK]));

        let l = layout::<KeyPayloadRecord<24>>(2, 3);
        let recs: Vec<_> = (0..3).map(|k| KeyPayloadRecord::<24>::with_derived_payload(k * 7)).collect();
        roundtrip(l, &Block::new(recs, Forecast::Next(99)));
    }

    #[test]
    fn short_final_block_keeps_its_count_and_zeroes_its_tail() {
        let l = layout::<U64Record>(2, 8);
        let image = roundtrip(l, &Block::new(vec![U64Record(3), U64Record(4)], Forecast::Next(NO_BLOCK)));
        let tail_at = l.slot_bytes - 6 * U64Record::ENCODED_LEN;
        assert!(image[tail_at..].iter().all(|&b| b == 0), "stale bytes behind the records");
        roundtrip(l, &Block::<U64Record>::new(Vec::new(), Forecast::Next(NO_BLOCK)));
    }

    #[test]
    fn blocks_that_do_not_fit_a_slot_are_refused() {
        let l = layout::<U64Record>(2, 2);
        let oversized = Block::new([1u64, 2, 3].map(U64Record).to_vec(), Forecast::Next(0));
        assert!(matches!(l.admits(&oversized), Err(PdiskError::BadBlockSize { expected: 2, got: 3 })));
        let wide = Block::new(vec![U64Record(1)], Forecast::Initial(vec![1, 2, 3]));
        assert!(matches!(l.admits(&wide), Err(PdiskError::Corrupt(_))));
    }

    /// Behind a checksum that matches — or none at all: the parity layer
    /// decodes payloads it rebuilt by XOR — structure is still checked: a
    /// record count past B, an unknown forecast kind, a slot of the wrong
    /// length.
    #[test]
    fn a_well_summed_slot_with_bad_structure_is_corrupt() {
        let l = layout::<U64Record>(2, 4);
        let mut image = Vec::new();
        l.encode(&Block::new(vec![U64Record(10), U64Record(20)], Forecast::Next(77)), &mut image);
        let payload = |at: usize, byte: u8| {
            let mut bad = image[CHECKSUM_BYTES..].to_vec();
            bad[at] = byte;
            l.decode_payload::<U64Record>(&bad, Vec::new())
        };
        assert!(matches!(payload(0, 5), Err(PdiskError::Corrupt(_))));
        assert!(matches!(payload(4, 2), Err(PdiskError::Corrupt(_))));
        image.pop();
        assert!(matches!(l.decode::<U64Record>(&image, Vec::new()), Err(PdiskError::Corrupt(_))));
    }

    proptest! {
        /// Any single flipped byte, anywhere in a slot of either forecast
        /// kind and any fill, fails the decode as `Corrupt`.
        #[test]
        fn any_single_byte_flip_is_corrupt(
            keys in vec(any::<u64>(), 0..=4usize),
            initial in any::<bool>(),
            pos in any::<usize>(),
            mask in 1u8..=255u8,
        ) {
            let l = layout::<U64Record>(3, 4);
            let mut keys = keys;
            keys.sort_unstable();
            let forecast = if initial { Forecast::Initial(vec![pos as u64, NO_BLOCK]) } else { Forecast::Next(pos as u64) };
            let block = Block::new(keys.into_iter().map(U64Record).collect(), forecast);
            let mut image = Vec::new();
            l.encode(&block, &mut image);
            image[pos % l.slot_bytes] ^= mask;
            prop_assert!(matches!(l.decode::<U64Record>(&image, Vec::new()), Err(PdiskError::Corrupt(_))));
        }
    }
}

// The backend's own tests live on the real filesystem, which miri's
// isolation does not provide — the CI miri job runs the codec tests
// above and every other pdisk module, and skips these.
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::record::{KeyPayloadRecord, U64Record};

    fn tmpdir(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("pdisk-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn blk(keys: &[u64], forecast: Forecast) -> Block<U64Record> {
        Block::new(keys.iter().map(|&k| U64Record(k)).collect(), forecast)
    }

    #[test]
    fn roundtrip_including_forecast_variants() {
        let g = Geometry::new(3, 4, 1000).unwrap();
        let dir = tmpdir("roundtrip");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let o0 = a.alloc_contiguous(DiskId(0), 2).unwrap();
        let o1 = a.alloc_contiguous(DiskId(1), 1).unwrap();
        let initial = blk(&[1, 5, 9], Forecast::Initial(vec![1, 20, NO_BLOCK]));
        let next = blk(&[20, 21, 22, 23], Forecast::Next(40));
        a.write(vec![
            (BlockAddr::new(DiskId(0), o0), initial.clone()),
            (BlockAddr::new(DiskId(1), o1), next.clone()),
        ])
        .unwrap();
        let got = a
            .read(&[BlockAddr::new(DiskId(0), o0), BlockAddr::new(DiskId(1), o1)])
            .unwrap();
        assert_eq!(got[0], initial);
        assert_eq!(got[1], next);
        assert_eq!(a.stats().read_ops, 1);
        assert_eq!(a.stats().blocks_read, 2);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_records_survive_disk() {
        let g = Geometry::new(2, 3, 1000).unwrap();
        let dir = tmpdir("payload");
        let mut a: FileDiskArray<KeyPayloadRecord<24>> = FileDiskArray::create(g, &dir).unwrap();
        let o = a.alloc_contiguous(DiskId(1), 1).unwrap();
        let recs: Vec<_> = (0..3)
            .map(|k| KeyPayloadRecord::<24>::with_derived_payload(k * 7))
            .collect();
        let block = Block::new(recs.clone(), Forecast::Next(99));
        a.write(vec![(BlockAddr::new(DiskId(1), o), block)]).unwrap();
        let got = a.read(&[BlockAddr::new(DiskId(1), o)]).unwrap();
        assert_eq!(got[0].records, recs);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_block_preserves_record_count() {
        let g = Geometry::new(2, 8, 1000).unwrap();
        let dir = tmpdir("partial");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        a.write(vec![(BlockAddr::new(DiskId(0), o), blk(&[3, 4], Forecast::Next(NO_BLOCK)))])
            .unwrap();
        let got = a.read(&[BlockAddr::new(DiskId(0), o)]).unwrap();
        assert_eq!(got[0].len(), 2);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unallocated_read_and_write_fail() {
        let g = Geometry::new(2, 2, 1000).unwrap();
        let dir = tmpdir("unalloc");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        assert!(matches!(
            a.read(&[BlockAddr::new(DiskId(0), 0)]),
            Err(PdiskError::UnmappedBlock(_))
        ));
        assert!(matches!(
            a.write(vec![(BlockAddr::new(DiskId(0), 0), blk(&[1], Forecast::Next(0)))]),
            Err(PdiskError::UnmappedBlock(_))
        ));
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_disk_rejected_before_any_io() {
        let g = Geometry::new(2, 2, 1000).unwrap();
        let dir = tmpdir("dup");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let o = a.alloc_contiguous(DiskId(0), 2).unwrap();
        let err = a
            .read(&[BlockAddr::new(DiskId(0), o), BlockAddr::new(DiskId(0), o + 1)])
            .unwrap_err();
        assert!(matches!(err, PdiskError::DuplicateDisk(_)));
        assert_eq!(a.stats().read_ops, 0);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A parallel op the array refuses must leave no trace: nothing
    /// queued to a worker, nothing charged, nothing drawn from the pool.
    #[test]
    fn rejected_op_has_no_partial_effect() {
        let g = Geometry::new(2, 2, 1000).unwrap();
        let dir = tmpdir("reject");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let a0 = BlockAddr::new(DiskId(0), a.alloc_contiguous(DiskId(0), 1).unwrap());
        let a1 = BlockAddr::new(DiskId(1), a.alloc_contiguous(DiskId(1), 1).unwrap());
        let unmapped = BlockAddr::new(DiskId(1), 99);
        let old = blk(&[1, 2], Forecast::Next(9));
        let new = blk(&[7, 8], Forecast::Next(9));
        a.write(vec![(a0, old.clone()), (a1, old.clone())]).unwrap();
        let stats = a.stats();
        let draws = |a: &FileDiskArray<U64Record>| {
            let p = a.buffer_pool().unwrap().stats();
            (p.fresh_records + p.reused_records, p.fresh_bytes + p.reused_bytes)
        };
        let pool = draws(&a);

        // Each op is valid on disk 0 and refused for what it asks of disk 1.
        let oversized = blk(&[1, 2, 3], Forecast::Next(9));
        let err = a.write(vec![(a0, new.clone()), (a1, oversized)]).unwrap_err();
        assert!(matches!(err, PdiskError::BadBlockSize { expected: 2, got: 3 }), "got {err:?}");
        let wide = blk(&[1], Forecast::Initial(vec![1, 2, 3]));
        let err = a.write(vec![(a0, new.clone()), (a1, wide)]).unwrap_err();
        assert!(matches!(err, PdiskError::Corrupt(_)), "got {err:?}");
        let err = a.write(vec![(a0, new.clone()), (unmapped, new.clone())]).unwrap_err();
        assert!(matches!(err, PdiskError::UnmappedBlock(x) if x == unmapped), "got {err:?}");
        let err = a.read(&[a0, unmapped]).unwrap_err();
        assert!(matches!(err, PdiskError::UnmappedBlock(x) if x == unmapped), "got {err:?}");

        assert_eq!(a.stats(), stats, "a refused op charges nothing");
        assert_eq!(draws(&a), pool, "a refused op draws no buffer");
        // The barrier drains the worker queues, so a write a refused op
        // had queued for disk 0 would be on disk by now.
        a.sync().unwrap();
        assert_eq!(a.read(&[a0, a1]).unwrap(), vec![old.clone(), old]);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One parallel I/O is one scheduling event: a full-width write that
    /// finds every worker asleep notifies once, not `D` times.
    #[test]
    fn a_full_width_write_on_idle_workers_notifies_once() {
        let g = Geometry::new(4, 2, 1000).unwrap();
        let dir = tmpdir("notify-once");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let stripe: Vec<_> = (0..4)
            .map(|d| {
                let o = a.alloc_contiguous(DiskId(d), 1).unwrap();
                (BlockAddr::new(DiskId(d), o), blk(&[d as u64], Forecast::Next(9)))
            })
            .collect();
        a.workers.queues.until_asleep(0..4);
        let before = a.queue_stats();
        a.write(stripe).unwrap();
        let after = a.queue_stats();
        assert_eq!(after.submissions - before.submissions, 1);
        assert_eq!(after.notifications - before.notifications, 1);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With one disk's worker dead, an operation touching that disk is
    /// refused whole: nothing reaches the other disks, nothing is
    /// charged, and a hint leaves no cache entry behind.
    #[test]
    fn a_dead_worker_refuses_the_whole_operation() {
        let g = Geometry::new(4, 2, 1000).unwrap();
        let dir = tmpdir("dead-worker");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let at = |d: u32| BlockAddr::new(DiskId(d), 0);
        let stripe = |k: u64| (0..4).map(|d| (at(d), blk(&[k], Forecast::Next(9)))).collect::<Vec<_>>();
        for d in 0..4 {
            a.alloc_contiguous(DiskId(d), 1).unwrap();
        }
        a.write(stripe(1)).unwrap();
        let stats = a.stats();
        // Retire disk 2 the way its worker would on the way out.
        drop(a.workers.queues.worker(2));

        assert!(matches!(a.write(stripe(2)).unwrap_err(), PdiskError::Io(_)));
        assert!(matches!(a.read(&[at(0), at(2)]).unwrap_err(), PdiskError::Io(_)));
        a.prefetch(&[at(1), at(2)]);
        assert!(a.prefetched.is_empty());
        assert_eq!(a.prefetch_stats().issued, 0);
        assert!(a.sync().is_err());
        assert_eq!(a.stats(), stats, "a refused op charges nothing");
        // Nothing of the refused write landed on the surviving disks.
        assert_eq!(a.read(&[at(0), at(1), at(3)]).unwrap(), vec![blk(&[1], Forecast::Next(9)); 3]);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// The golden geometry: D = 2 reserves two forecast keys per slot,
    /// B = 3 leaves a two-record tail behind the short block.
    fn golden_geometry() -> Geometry {
        Geometry::new(2, 3, 1000).unwrap()
    }

    /// A full `Forecast::Initial` block and a one-record `Forecast::Next`
    /// block of `R`, built from the same keys for both record types.
    fn golden_blocks<R: Record>(rec: fn(u64) -> R) -> (Block<R>, Block<R>) {
        (
            Block::new(
                vec![rec(0x0102_0304_0506_0708), rec(0x1112_1314_1516_1718), rec(u64::MAX - 1)],
                Forecast::Initial(vec![0x0102_0304_0506_0708, NO_BLOCK]),
            ),
            Block::new(vec![rec(0x2122_2324_2526_2728)], Forecast::Next(0x3132_3334_3536_3738)),
        )
    }

    /// Write the golden pair through a fresh array — the `Initial` block
    /// to disk 0, the short `Next` block to disk 1 — and return the two
    /// disk files as hex.
    fn golden_slots_on_disk<R: Record>(tag: &str, rec: fn(u64) -> R) -> (String, String) {
        let dir = tmpdir(tag);
        let mut a: FileDiskArray<R> = FileDiskArray::create(golden_geometry(), &dir).unwrap();
        let (initial, next) = golden_blocks(rec);
        let o0 = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let o1 = a.alloc_contiguous(DiskId(1), 1).unwrap();
        a.write(vec![(BlockAddr::new(DiskId(0), o0), initial), (BlockAddr::new(DiskId(1), o1), next)])
            .unwrap();
        drop(a);
        let on_disk = |d: usize| hex(&std::fs::read(dir.join(format!("disk_{d:04}.bin"))).unwrap());
        let files = (on_disk(0), on_disk(1));
        let _ = std::fs::remove_dir_all(&dir);
        files
    }

    // Slot images, one field per line: checksum, count + kind, the two
    // reserved forecast keys, then the B = 3 record cells.
    const GOLDEN_U64_INITIAL: &str = "befa72b7466a00d0\
         0300000001000000\
         0807060504030201ffffffffffffffff\
         0807060504030201\
         1817161514131211\
         feffffffffffffff";
    const GOLDEN_U64_NEXT: &str = "ecafd01cc7dbd183\
         0100000000000000\
         3837363534333231ffffffffffffffff\
         2827262524232221\
         0000000000000000\
         0000000000000000";
    const GOLDEN_KP24_INITIAL: &str = "a776629f5a565d16\
         0300000001000000\
         0807060504030201ffffffffffffffff\
         08070605040302010806040600060406000e0c0e080e0c0e1816141610161416\
         18171615141312111816141610161416101e1c1e181e1c1e0806040600060406\
         fefffffffffffffffefefdfcfbfaf9f8f6f6f5f4f3f2f1f0eeeeedecebeae9e8";
    const GOLDEN_KP24_NEXT: &str = "b4e40fbdfc5869b0\
         0100000000000000\
         3837363534333231ffffffffffffffff\
         28272625242322212826242620262426202e2c2e282e2c2e3836343630363436\
         0000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000000000";

    /// The golden pair as the frames the parity layer XORs (and its
    /// store persists the XOR of), as hex.
    fn golden_parity_frames<R: Record>(rec: fn(u64) -> R) -> (String, String) {
        let mem = crate::mem::MemDiskArray::<R>::new(golden_geometry());
        let parity = crate::parity::ParityDiskArray::new(mem).unwrap();
        let (initial, next) = golden_blocks(rec);
        let frame = |b: &Block<R>| hex(&parity.layer.encode_frame(b).unwrap());
        (frame(&initial), frame(&next))
    }

    /// The on-disk slot format, byte for byte: an array written by any
    /// earlier build must stay readable, so no change to where or how
    /// slots are encoded may move a single byte of these.  The parity
    /// store is as persistent, and its frame is the slot behind the
    /// checksum: pinned here so the two formats cannot part.
    #[test]
    fn golden_slot_bytes_are_pinned() {
        let payload = |slot: &'static str| &slot[2 * CHECKSUM_BYTES..];
        let (initial, next) = golden_slots_on_disk("golden-u64", U64Record);
        assert_eq!(initial, GOLDEN_U64_INITIAL);
        assert_eq!(next, GOLDEN_U64_NEXT);
        let (initial, next) = golden_parity_frames(U64Record);
        assert_eq!(initial, payload(GOLDEN_U64_INITIAL));
        assert_eq!(next, payload(GOLDEN_U64_NEXT));
        let (initial, next) =
            golden_slots_on_disk("golden-kp24", KeyPayloadRecord::<24>::with_derived_payload);
        assert_eq!(initial, GOLDEN_KP24_INITIAL);
        assert_eq!(next, GOLDEN_KP24_NEXT);
        let (initial, next) = golden_parity_frames(KeyPayloadRecord::<24>::with_derived_payload);
        assert_eq!(initial, payload(GOLDEN_KP24_INITIAL));
        assert_eq!(next, payload(GOLDEN_KP24_NEXT));
    }

    /// An array laid down by an earlier build (the golden bytes, placed
    /// on disk by hand) reopens and reads back block-equal.
    #[test]
    fn array_written_by_an_earlier_build_reads_back() {
        fn check<R: Record + std::fmt::Debug + PartialEq>(
            tag: &str,
            rec: fn(u64) -> R,
            files: [&str; 2],
        ) {
            let dir = tmpdir(tag);
            std::fs::create_dir_all(&dir).unwrap();
            for (d, image) in files.iter().enumerate() {
                std::fs::write(dir.join(format!("disk_{d:04}.bin")), unhex(image)).unwrap();
            }
            let mut a: FileDiskArray<R> = FileDiskArray::open(golden_geometry(), &dir).unwrap();
            let got = a
                .read(&[BlockAddr::new(DiskId(0), 0), BlockAddr::new(DiskId(1), 0)])
                .unwrap();
            let (initial, next) = golden_blocks(rec);
            assert_eq!(got, vec![initial, next]);
            drop(a);
            let _ = std::fs::remove_dir_all(&dir);
        }
        check("golden-reopen-u64", U64Record, [GOLDEN_U64_INITIAL, GOLDEN_U64_NEXT]);
        check(
            "golden-reopen-kp24",
            KeyPayloadRecord::<24>::with_derived_payload,
            [GOLDEN_KP24_INITIAL, GOLDEN_KP24_NEXT],
        );
    }

    /// XOR `mask` into byte `at` of one disk file, behind the array's back.
    fn flip_on_disk(dir: &Path, disk: usize, at: usize, mask: u8) {
        let path = dir.join(format!("disk_{disk:04}.bin"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).unwrap();
    }

    /// Dropping the array with work outstanding — read tickets, write
    /// tickets and prefetches nobody completed or claimed — must return.
    /// The drop runs on a helper thread so a regression fails this test
    /// instead of wedging the suite.
    #[test]
    fn drop_with_outstanding_tickets_and_prefetches_returns() {
        let g = Geometry::new(2, 4, 1000).unwrap();
        let dir = tmpdir("drop-outstanding");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let at = |d: u32, o: u64| BlockAddr::new(DiskId(d), o);
        for d in 0..2 {
            a.alloc_contiguous(DiskId(d), 2).unwrap();
        }
        let old = blk(&[1, 2, 3, 4], Forecast::Next(9));
        let new = [blk(&[5, 6, 7, 8], Forecast::Next(9)), blk(&[9], Forecast::Next(NO_BLOCK))];
        a.write(vec![(at(0, 0), old.clone()), (at(1, 0), old.clone())]).unwrap();
        // The tickets outlive the array: their reply channels stay open
        // and are never received from while the workers wind down.
        let reads = a.submit_read(&[at(0, 0), at(1, 0)]).unwrap();
        let writes = a
            .submit_write(vec![(at(0, 1), new[0].clone()), (at(1, 1), new[1].clone())])
            .unwrap();
        a.prefetch(&[at(0, 0), at(1, 0)]);
        assert_eq!(a.prefetch_stats().issued, 2);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(a);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("dropping an array with outstanding tickets must not hang");
        dropper.join().unwrap();
        drop((reads, writes));
        // The directory is released, and the abandoned writes were
        // carried out whole before the workers exited.
        let mut a: FileDiskArray<U64Record> = FileDiskArray::open(g, &dir).unwrap();
        a.sync().unwrap();
        assert_eq!(a.read(&[at(0, 1), at(1, 1)]).unwrap(), new);
        assert_eq!(a.read(&[at(0, 0), at(1, 0)]).unwrap(), vec![old.clone(), old]);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The worker that decodes a slot reports what went wrong with its
    /// type intact, to exactly the operation that asked for the slot —
    /// also when the read was started by a prefetch.
    #[test]
    fn worker_side_failures_stay_typed_and_contained() {
        use crate::backend::ScrubOutcome;
        let g = Geometry::new(3, 4, 1000).unwrap();
        let dir = tmpdir("typed-errors");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let at = |d: u32, o: u64| BlockAddr::new(DiskId(d), o);
        let block = |d: u32, o: u64| blk(&[o * 10 + d as u64], Forecast::Next(9));
        for d in 0..3 {
            a.alloc_contiguous(DiskId(d), 2).unwrap();
        }
        for o in 0..2 {
            a.write((0..3).map(|d| (at(d, o), block(d, o))).collect()).unwrap();
        }
        a.sync().unwrap();
        // Latent damage in the records of disk 1's first slot.
        flip_on_disk(&dir, 1, a.slot_bytes() - 1, 0x01);
        let bad = at(1, 0);

        a.prefetch(&[at(0, 0), bad, at(2, 0)]);
        // Adopting the clean prefetches is unaffected by the bad one...
        assert_eq!(a.read(&[at(0, 0)]).unwrap()[0], block(0, 0));
        // ...which fails the demand op that adopts it, at completion.
        let ticket = a.submit_read(&[bad, at(2, 0)]).unwrap();
        assert_eq!(a.prefetch_stats().hits, 3);
        let err = a.complete_read(ticket).unwrap_err();
        assert!(matches!(err, PdiskError::Corrupt(_)), "got {err:?}");
        // The next op neither inherits the failure nor loses its data.
        let next: Vec<_> = (0..3).map(|d| block(d, 1)).collect();
        assert_eq!(a.read(&[at(0, 1), at(1, 1), at(2, 1)]).unwrap(), next);
        // A plain array can detect the damage but has nothing to heal from.
        assert!(matches!(a.scrub_block(bad).unwrap(), ScrubOutcome::Unrepairable(_)));

        // A disk file cut short is a failed transfer, not bad content.
        let file = OpenOptions::new().write(true).open(dir.join("disk_0002.bin")).unwrap();
        file.set_len(a.slot_bytes() as u64 / 2).unwrap();
        let err = a.read(&[at(0, 0), at(2, 0)]).unwrap_err();
        assert!(matches!(err, PdiskError::Io(_)), "got {err:?}");
        assert_eq!(a.read(&[at(0, 0)]).unwrap()[0], block(0, 0));
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Under parity the slot the worker reports corrupt is rebuilt from
    /// its stripe: the scrubber classifies on the error's variant.
    #[test]
    fn parity_over_file_reconstructs_a_slot_the_worker_reports_corrupt() {
        use crate::backend::ScrubOutcome;
        use crate::parity::ParityDiskArray;
        let g = Geometry::new(3, 4, 1000).unwrap();
        let dir = tmpdir("typed-errors-parity");
        let inner: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let slot = inner.slot_bytes();
        let mut a = ParityDiskArray::new(inner).unwrap();
        let at = |d: u32| BlockAddr::new(DiskId(d), 0);
        let block = |d: u32| blk(&[d as u64, 7], Forecast::Next(9));
        for d in 0..3 {
            a.alloc_contiguous(DiskId(d), 1).unwrap();
        }
        a.write((0..3).map(|d| (at(d), block(d))).collect()).unwrap();
        a.sync().unwrap();
        // The rotated layout keeps disk 1's logical slot 0 in its
        // physical slot 0 (disk 1 donates physical slot 1 to parity).
        flip_on_disk(&dir, 1, slot - 1, 0x01);
        a.prefetch(&[at(1)]);
        let err = a.read(&[at(1)]).unwrap_err();
        assert!(matches!(err, PdiskError::Corrupt(_)), "got {err:?}");
        assert_eq!(a.scrub_block(at(1)).unwrap(), ScrubOutcome::Repaired);
        assert_eq!(a.read(&[at(0), at(1), at(2)]).unwrap(), (0..3).map(block).collect::<Vec<_>>());
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A retryable failure a worker reports at completion continues the
    /// attempt budget the ticket's submit started; it does not open one.
    #[test]
    fn worker_reported_failure_spends_the_tickets_retry_budget() {
        use crate::retry::{RetryPolicy, RetryingDiskArray};
        let g = Geometry::new(2, 4, 1000).unwrap();
        let dir = tmpdir("typed-errors-retry");
        let mut inner: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let addr = BlockAddr::new(DiskId(0), inner.alloc_contiguous(DiskId(0), 1).unwrap());
        inner.write(vec![(addr, blk(&[1, 2], Forecast::Next(9)))]).unwrap();
        inner.sync().unwrap();
        flip_on_disk(&dir, 0, CHECKSUM_BYTES + 1, 0x10);
        let mut a = RetryingDiskArray::new(inner, RetryPolicy::new(3, Duration::ZERO));
        let ticket = a.submit_read(&[addr]).unwrap();
        assert!(ticket.is_pending());
        match a.complete_read(ticket).unwrap_err() {
            PdiskError::RetriesExhausted { attempts: 3, last } => {
                assert!(matches!(*last, PdiskError::Corrupt(_)), "got {last:?}")
            }
            other => panic!("expected RetriesExhausted after 3 attempts, got {other:?}"),
        }
        // The ticket's own read plus two re-issues: three in all.
        assert_eq!(a.retries(), (2, 0));
        assert_eq!(a.inner().stats().read_ops, 3);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_any_byte_yields_corrupt_error() {
        let g = Geometry::new(2, 4, 1000).unwrap();
        let dir = tmpdir("corrupt");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let addr = BlockAddr::new(DiskId(0), o);
        a.write(vec![(addr, blk(&[10, 20, 30, 40], Forecast::Next(77)))])
            .unwrap();
        let slot = a.slot_bytes();
        let path = dir.join("disk_0000.bin");
        // Flip one byte at several positions across the slot: checksum
        // field, header, forecast keys, record payload.
        for &pos in &[0usize, 9, 17, slot - 1] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[pos] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            let err = a.read(&[addr]).unwrap_err();
            assert!(
                matches!(err, PdiskError::Corrupt(_)),
                "byte {pos}: expected Corrupt, got {err:?}"
            );
            // Restore and confirm the block reads clean again.
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[pos] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            assert!(a.read(&[addr]).is_ok(), "byte {pos}: restore failed");
        }
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_resumes_without_truncating() {
        let g = Geometry::new(2, 3, 1000).unwrap();
        let dir = tmpdir("reopen");
        let block = blk(&[1, 2, 3], Forecast::Next(9));
        let (o0, o1);
        {
            let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
            o0 = a.alloc_contiguous(DiskId(0), 2).unwrap();
            o1 = a.alloc_contiguous(DiskId(1), 1).unwrap();
            a.write(vec![
                (BlockAddr::new(DiskId(0), o0), block.clone()),
                (BlockAddr::new(DiskId(1), o1), block.clone()),
            ])
            .unwrap();
            a.write(vec![(BlockAddr::new(DiskId(0), o0 + 1), block.clone())])
                .unwrap();
        } // drop: joins workers, flushes
        let mut a: FileDiskArray<U64Record> = FileDiskArray::open(g, &dir).unwrap();
        let got = a
            .read(&[BlockAddr::new(DiskId(0), o0), BlockAddr::new(DiskId(1), o1)])
            .unwrap();
        assert_eq!(got[0], block);
        assert_eq!(got[1], block);
        // Fresh allocations land after the recovered high-water mark.
        let next = a.alloc_contiguous(DiskId(0), 1).unwrap();
        assert!(next >= o0 + 2, "reopen must not reuse written slots");
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_a_torn_trailing_slot() {
        let g = Geometry::new(2, 3, 1000).unwrap();
        let dir = tmpdir("torn");
        let block = blk(&[1, 2, 3], Forecast::Next(9));
        let slot;
        {
            let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
            slot = a.slot_bytes() as u64;
            let o = a.alloc_contiguous(DiskId(0), 2).unwrap();
            a.write(vec![(BlockAddr::new(DiskId(0), o), block.clone())])
                .unwrap();
            a.write(vec![(BlockAddr::new(DiskId(0), o + 1), block.clone())])
                .unwrap();
        }
        // Simulate a crash mid-write of slot 2: append half a slot.
        let path = dir.join("disk_0000.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, 2 * slot);
        bytes.extend(vec![0xAAu8; slot as usize / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let mut a: FileDiskArray<U64Record> = FileDiskArray::open(g, &dir).unwrap();
        // The torn tail is gone; the two whole slots survive.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2 * slot);
        let got = a
            .read(&[BlockAddr::new(DiskId(0), 0)])
            .unwrap();
        assert_eq!(got[0], block);
        // Allocation resumes at the recovered high-water mark: the torn
        // slot's space is reused, not silently accepted as data.
        assert_eq!(a.alloc_contiguous(DiskId(0), 1).unwrap(), 2);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_truncates_a_full_length_garbage_tail_slot() {
        let g = Geometry::new(2, 3, 1000).unwrap();
        let dir = tmpdir("torn-full");
        let block = blk(&[4, 5, 6], Forecast::Next(9));
        let slot;
        {
            let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
            slot = a.slot_bytes() as u64;
            let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
            a.write(vec![(BlockAddr::new(DiskId(0), o), block.clone())])
                .unwrap();
        }
        // A torn write that reached the slot boundary: full length, bad
        // checksum.  Before the fix this was silently accepted and the
        // allocator handed out slot 2.
        let path = dir.join("disk_0000.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend(vec![0x55u8; slot as usize]);
        std::fs::write(&path, &bytes).unwrap();
        let mut a: FileDiskArray<U64Record> = FileDiskArray::open(g, &dir).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), slot);
        assert_eq!(a.read(&[BlockAddr::new(DiskId(0), 0)]).unwrap()[0], block);
        assert_eq!(a.alloc_contiguous(DiskId(0), 1).unwrap(), 1);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_recovers_a_torn_parallel_write_group() {
        // A crash mid-group can leave torn trailing frames on SEVERAL
        // disks at once — a full-length garbage slot on one, a partial
        // slot on another — while a third disk's frame landed cleanly.
        // Recovery must trim each member of the group independently and
        // report what it dropped.
        let g = Geometry::new(3, 3, 1000).unwrap();
        let dir = tmpdir("torn-group");
        let block = blk(&[1, 2, 3], Forecast::Next(9));
        let slot;
        {
            let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
            slot = a.slot_bytes() as u64;
            // One clean full-width stripe everywhere.
            let writes: Vec<_> = (0..3u32)
                .map(|d| {
                    let o = a.alloc_contiguous(DiskId(d), 1).unwrap();
                    (BlockAddr::new(DiskId(d), o), block.clone())
                })
                .collect();
            a.write(writes).unwrap();
        }
        // Torn group on top: disk 0 = full-length garbage slot, disk 1 =
        // half a slot, disk 2 = untouched (its frame never made it out
        // of the dead process).
        let p0 = dir.join("disk_0000.bin");
        let p1 = dir.join("disk_0001.bin");
        let mut b0 = std::fs::read(&p0).unwrap();
        b0.extend(vec![0x55u8; slot as usize]);
        std::fs::write(&p0, &b0).unwrap();
        let mut b1 = std::fs::read(&p1).unwrap();
        b1.extend(vec![0xAAu8; slot as usize / 2]);
        std::fs::write(&p1, &b1).unwrap();

        let mut a: FileDiskArray<U64Record> = FileDiskArray::open(g, &dir).unwrap();
        assert_eq!(a.torn_frames_dropped(), &[1, 1, 0]);
        // Every disk is trimmed back to the last durable group.
        for d in 0..3u32 {
            assert_eq!(a.read(&[BlockAddr::new(DiskId(d), 0)]).unwrap()[0], block);
            assert_eq!(a.alloc_contiguous(DiskId(d), 1).unwrap(), 1);
        }
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_recovers_full_torn_window_but_refuses_deeper_corruption() {
        let g = Geometry::new(2, 3, 1000).unwrap();
        let dir = tmpdir("torn-window");
        let block = blk(&[7, 8, 9], Forecast::Next(9));
        let slot;
        {
            let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
            slot = a.slot_bytes() as u64;
            let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
            a.write(vec![(BlockAddr::new(DiskId(0), o), block.clone())])
                .unwrap();
        }
        let path = dir.join("disk_0000.bin");
        // MAX_TORN_SLOTS garbage whole slots — the deepest a torn
        // write-behind pipeline can reach — recover fine...
        let window = MAX_TORN_SLOTS as usize;
        let clean = std::fs::read(&path).unwrap();
        let mut bytes = clean.clone();
        bytes.extend(vec![0x66u8; window * slot as usize]);
        std::fs::write(&path, &bytes).unwrap();
        {
            let a: FileDiskArray<U64Record> = FileDiskArray::open(g, &dir).unwrap();
            assert_eq!(a.torn_frames_dropped()[0], MAX_TORN_SLOTS);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), slot);
        }
        // ...but one more garbage slot exceeds the window: that is not
        // a torn write, and recovery must refuse instead of shearing.
        let mut bytes = clean;
        bytes.extend(vec![0x66u8; (window + 1) * slot as usize]);
        std::fs::write(&path, &bytes).unwrap();
        let err = match FileDiskArray::<U64Record>::open(g, &dir) {
            Ok(_) => panic!("corruption beyond the torn window must refuse"),
            Err(e) => e,
        };
        assert!(matches!(err, PdiskError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_drains_and_flushes_all_disks() {
        let g = Geometry::new(2, 3, 1000).unwrap();
        let dir = tmpdir("syncbar");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let block = blk(&[1, 2, 3], Forecast::Next(9));
        // Queue split-phase writes, then sync WITHOUT completing the
        // tickets: the barrier must drain the worker queues, so the
        // data is fully on disk afterwards.
        let o0 = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let o1 = a.alloc_contiguous(DiskId(1), 1).unwrap();
        let t = a
            .submit_write(vec![
                (BlockAddr::new(DiskId(0), o0), block.clone()),
                (BlockAddr::new(DiskId(1), o1), block.clone()),
            ])
            .unwrap();
        a.sync().unwrap();
        let len = std::fs::metadata(dir.join("disk_0000.bin")).unwrap().len();
        assert_eq!(len, a.slot_bytes() as u64, "write drained by the barrier");
        a.complete_write(t).unwrap();
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_refuses_torn_tail_without_a_verified_anchor() {
        // A lone partial slot has no preceding whole slot to verify
        // against; recovery must refuse rather than guess.
        let g = Geometry::new(2, 3, 1000).unwrap();
        let dir = tmpdir("torn-anchor");
        {
            let _a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        }
        std::fs::write(dir.join("disk_0000.bin"), vec![0xAA; 10]).unwrap();
        let err = match FileDiskArray::<U64Record>::open(g, &dir) {
            Ok(_) => panic!("unanchored torn tail must be refused"),
            Err(e) => e,
        };
        assert!(matches!(err, PdiskError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_mismatched_geometry() {
        let g = Geometry::new(2, 4, 1000).unwrap();
        let dir = tmpdir("badgeom");
        {
            let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
            let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
            a.write(vec![(BlockAddr::new(DiskId(0), o), blk(&[1], Forecast::Next(0)))])
                .unwrap();
        }
        // A different B changes the slot size; the file length no longer
        // divides evenly and the reopen is refused.
        let wrong = Geometry::new(2, 5, 1000).unwrap();
        let err = match FileDiskArray::<U64Record>::open(wrong, &dir) {
            Ok(_) => panic!("reopen with wrong geometry must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, PdiskError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_open_same_dir_is_refused() {
        let g = Geometry::new(2, 2, 1000).unwrap();
        let dir = tmpdir("doubleopen");
        let a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        // A second handle on the same directory — via create *or* open —
        // must fail while the first is alive: two handles would hand out
        // overlapping slots and silently interleave writes.
        let err = match FileDiskArray::<U64Record>::create(g, &dir) {
            Ok(_) => panic!("second create on a held directory must fail"),
            Err(e) => e,
        };
        assert!(
            matches!(err, PdiskError::ArrayLocked { holder, .. } if holder == std::process::id()),
            "got {err:?}"
        );
        let err = match FileDiskArray::<U64Record>::open(g, &dir) {
            Ok(_) => panic!("second open on a held directory must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, PdiskError::ArrayLocked { .. }), "got {err:?}");
        // Dropping the first handle releases the claim.
        drop(a);
        let b: FileDiskArray<U64Record> = FileDiskArray::open(g, &dir).unwrap();
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let g = Geometry::new(2, 2, 1000).unwrap();
        let dir = tmpdir("stalelock");
        {
            let _a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        }
        // Fake a crash: a lock file naming a PID that cannot be alive.
        std::fs::write(dir.join(super::LOCK_FILE), "4294967294\n").unwrap();
        let a = FileDiskArray::<U64Record>::open(g, &dir);
        assert!(a.is_ok(), "stale lock must be reclaimed: {:?}", a.err());
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_ops_emit_physical_events() {
        use crate::trace::TracingDiskArray;
        let g = Geometry::new(2, 2, 1000).unwrap();
        let dir = tmpdir("trace");
        let inner: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let mut a = TracingDiskArray::new(inner);
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        a.write(vec![(BlockAddr::new(DiskId(0), o), blk(&[1], Forecast::Next(0)))])
            .unwrap();
        a.read(&[BlockAddr::new(DiskId(0), o)]).unwrap();
        let t = a.take_trace();
        assert!(t.iter().any(|e| matches!(e.event, TraceEvent::PhysWrite { .. })));
        assert!(t.iter().any(|e| matches!(e.event, TraceEvent::PhysRead { .. })));
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefetch_serves_demand_reads_without_charging_ops() {
        let g = Geometry::new(2, 4, 1000).unwrap();
        let dir = tmpdir("prefetch");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let o0 = a.alloc_contiguous(DiskId(0), 2).unwrap();
        let b0 = blk(&[1, 2], Forecast::Next(9));
        let b1 = blk(&[3, 4], Forecast::Next(9));
        a.write(vec![(BlockAddr::new(DiskId(0), o0), b0.clone())]).unwrap();
        a.write(vec![(BlockAddr::new(DiskId(0), o0 + 1), b1.clone())]).unwrap();
        let ops_before = a.stats().read_ops;
        // Hints charge nothing; unmapped and duplicate hints are skipped.
        a.prefetch(&[
            BlockAddr::new(DiskId(0), o0),
            BlockAddr::new(DiskId(0), o0),
            BlockAddr::new(DiskId(0), 999),
            BlockAddr::new(DiskId(1), 0),
        ]);
        assert_eq!(a.stats().read_ops, ops_before);
        assert_eq!(a.prefetch_stats().issued, 1);
        // The demand read is served from the prefetch, data intact, and
        // the op is charged exactly as an uncached read would be.
        let got = a.read(&[BlockAddr::new(DiskId(0), o0)]).unwrap();
        assert_eq!(got[0], b0);
        assert_eq!(a.stats().read_ops, ops_before + 1);
        assert_eq!(a.prefetch_stats().hits, 1);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefetch_is_invalidated_by_an_overwrite() {
        let g = Geometry::new(2, 4, 1000).unwrap();
        let dir = tmpdir("prefetch-inval");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        let addr = BlockAddr::new(DiskId(0), o);
        a.write(vec![(addr, blk(&[1], Forecast::Next(0)))]).unwrap();
        a.prefetch(&[addr]);
        // Overwrite the slot while the prefetch is (logically) in
        // flight: the cached receiver must be discarded, and the demand
        // read must observe the new content.
        let newer = blk(&[42], Forecast::Next(0));
        a.write(vec![(addr, newer.clone())]).unwrap();
        assert_eq!(a.prefetch_stats().invalidated, 1);
        assert_eq!(a.read(&[addr]).unwrap()[0], newer);
        assert_eq!(a.prefetch_stats().hits, 0);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_blocks_across_disks_stress() {
        let g = Geometry::new(4, 16, 10_000).unwrap();
        let dir = tmpdir("stress");
        let mut a: FileDiskArray<U64Record> = FileDiskArray::create(g, &dir).unwrap();
        let mut addrs = Vec::new();
        for d in 0..4u32 {
            let o = a.alloc_contiguous(DiskId(d), 8).unwrap();
            for i in 0..8 {
                addrs.push(BlockAddr::new(DiskId(d), o + i));
            }
        }
        // Write stripes of 4 (one block per disk per op).
        for stripe in 0..8u64 {
            let writes: Vec<_> = (0..4u32)
                .map(|d| {
                    let keys: Vec<u64> = (0..16).map(|j| stripe * 1000 + d as u64 * 100 + j).collect();
                    (
                        BlockAddr::new(DiskId(d), stripe),
                        blk(&keys, Forecast::Next(NO_BLOCK)),
                    )
                })
                .collect();
            a.write(writes).unwrap();
        }
        assert_eq!(a.stats().write_ops, 8);
        assert_eq!(a.stats().blocks_written, 32);
        // Read back a full stripe and check contents.
        let got = a
            .read(&[
                BlockAddr::new(DiskId(0), 5),
                BlockAddr::new(DiskId(1), 5),
                BlockAddr::new(DiskId(2), 5),
                BlockAddr::new(DiskId(3), 5),
            ])
            .unwrap();
        for (d, b) in got.iter().enumerate() {
            assert_eq!(b.min_key(), 5000 + d as u64 * 100);
        }
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
