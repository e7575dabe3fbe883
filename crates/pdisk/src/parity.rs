//! RAID-5-style rotating parity over any [`DiskArray`].
//!
//! [`ParityDiskArray`] groups the blocks at one physical offset across
//! all `D` disks into a *stripe*.  Each stripe reserves the slot on disk
//! `s mod D` for parity (the XOR of the stripe's data frames), rotating
//! the parity disk per stripe index so no disk becomes a write
//! bottleneck.  Callers keep addressing a plain `D`-disk array: the
//! wrapper remaps each disk's logical slots past that disk's reserved
//! parity slots, so the *operation structure* — which disks a parallel
//! op touches, and how many ops a sort issues — is identical to the
//! unprotected array.  The price is capacity, `D/(D-1)`, not extra
//! parallel I/Os on the healthy path.
//!
//! When a disk suffers a [`FaultKind::Permanent`] fault (or is killed
//! administratively via [`ParityDiskArray::fail_disk`]), the wrapper
//! enters *degraded mode*: reads addressed to the dead disk are served
//! by XOR-reconstructing the block from the stripe's surviving members
//! (one extra parallel read), and writes destined for it exist only
//! through the parity update.  Both are counted separately in
//! [`IoStats`] (`reconstructed_reads` / `parity_writes`) so the logical
//! schedule stays comparable to a failure-free run.  A second
//! simultaneous death is [`PdiskError::Unrecoverable`].  A dead disk
//! stays dead for the array's lifetime: there is no online rebuild onto
//! a spare.  Latent corruption on a live disk is healed in place by the
//! scrubber ([`DiskArray::scrub_block`]).
//!
//! On a healthy array the layer is split-phase: a submitted read or
//! write stays in flight below, and a write's parity update travels in
//! its ticket and commits only after the data completion succeeded
//! (DESIGN.md §9.1.1).  Reads on a degraded array, and overwrites of a
//! committed slot, are served before the submit returns.
//!
//! Parity frames live in the wrapper (write-back, at the reserved slot's
//! identity), optionally persisted write-through to a sidecar file via
//! [`ParityDiskArray::with_store`] so a checkpointed sort can resume
//! against a degraded array.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::addr::{BlockAddr, DiskId};
use crate::backend::{DiskArray, ReadTicket, RedundancyInfo, ScrubOutcome, WriteTicket};
use crate::block::Block;
use crate::crash::CrashClock;
use crate::error::{FaultKind, PdiskError, Result};
use crate::file::{le_u64, SlotLayout};
use crate::geometry::Geometry;
use crate::layer::{Layer, Stack};
use crate::manifest::fnv1a64;
use crate::record::Record;
use crate::stats::IoStats;
use crate::trace::TraceEvent;

/// Physical offset of logical slot `lo` on disk `d` in a `dd`-disk
/// array: every group of `dd` physical slots donates the one at
/// `offset ≡ d (mod dd)` to parity, so data slots skip it.
fn phys_of(d: usize, lo: u64, dd: u64) -> u64 {
    let k = lo / (dd - 1);
    let r = lo % (dd - 1);
    k * dd + r + u64::from(r >= d as u64)
}

/// Logical slot stored at physical offset `po` on disk `d`, or `None`
/// if `po` is the disk's reserved parity slot for stripe `po`.
fn logical_of(d: usize, po: u64, dd: u64) -> Option<u64> {
    let k = po / dd;
    let r_phys = po % dd;
    if r_phys == d as u64 {
        return None;
    }
    let r = if r_phys > d as u64 { r_phys - 1 } else { r_phys };
    Some(k * (dd - 1) + r)
}

fn xor_into(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, b) in dst.iter_mut().zip(src) {
        *a ^= b;
    }
}

/// Mask bit marking a stripe whose parity died with its disk.
const PARITY_LOST_BIT: u64 = 1 << 63;

/// One stripe's redundancy state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stripe {
    /// XOR of every written data frame in the stripe.
    parity: Vec<u8>,
    /// Bit `d` set ⇒ disk `d`'s data slot in this stripe holds a block.
    written: u64,
    /// The stripe's parity disk died; the stripe is unprotected from
    /// then on (persisted as the mask's top bit).
    parity_lost: bool,
}

impl Stripe {
    fn empty(frame_len: usize, parity_lost: bool) -> Self {
        Stripe {
            parity: vec![0u8; frame_len],
            written: 0,
            parity_lost,
        }
    }
}

/// The parity update one parallel write owes, carried in its
/// [`WriteTicket`] from submit to completion.  It lives in the ticket and
/// not in the array so that a ticket the engine abandons takes its
/// uncommitted update with it.
pub(crate) struct ParityCommit {
    /// The addresses the ticket carried below the parity layer.
    inner_addrs: Vec<BlockAddr>,
    /// Per block written: its physical slot, and the frame to XOR into
    /// the stripe's parity (new frame, XOR the old one for an overwrite).
    deltas: Vec<(BlockAddr, Vec<u8>)>,
}

/// Write-through persistence for stripe state: one fixed slot per
/// stripe index, `[u64 checksum][u64 mask][parity frame]`.  All-zero
/// slots are holes (stripe never touched).
struct ParityStore {
    file: File,
    slot_len: usize,
}

impl std::fmt::Debug for ParityStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParityStore").field("slot_len", &self.slot_len).finish()
    }
}

impl ParityStore {
    fn open(path: &Path, frame_len: usize) -> Result<(Self, BTreeMap<u64, Stripe>)> {
        let slot_len = 8 + 8 + frame_len;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % slot_len as u64 != 0 {
            return Err(PdiskError::Corrupt(format!(
                "parity store {} is {len} bytes, not a multiple of the \
                 {slot_len}-byte stripe slot (wrong geometry or record type?)",
                path.display()
            )));
        }
        let mut stripes = BTreeMap::new();
        let mut buf = vec![0u8; slot_len];
        for s in 0..len / slot_len as u64 {
            file.read_exact_at(&mut buf, s * slot_len as u64)?;
            if buf.iter().all(|&b| b == 0) {
                continue; // hole: stripe never touched
            }
            let stored = le_u64(&buf[..8]);
            if stored != fnv1a64(&buf[8..]) {
                return Err(PdiskError::Corrupt(format!(
                    "parity store slot {s} fails its checksum"
                )));
            }
            let mask = le_u64(&buf[8..16]);
            stripes.insert(
                s,
                Stripe {
                    parity: buf[16..].to_vec(),
                    written: mask & !PARITY_LOST_BIT,
                    parity_lost: mask & PARITY_LOST_BIT != 0,
                },
            );
        }
        Ok((ParityStore { file, slot_len }, stripes))
    }

    fn save(&self, s: u64, stripe: &Stripe) -> Result<()> {
        let mut buf = vec![0u8; self.slot_len];
        let mask = stripe.written | if stripe.parity_lost { PARITY_LOST_BIT } else { 0 };
        buf[8..16].copy_from_slice(&mask.to_le_bytes());
        buf[16..].copy_from_slice(&stripe.parity);
        let checksum = fnv1a64(&buf[8..]);
        buf[..8].copy_from_slice(&checksum.to_le_bytes());
        self.file.write_all_at(&buf, s * self.slot_len as u64)?;
        Ok(())
    }
}

/// The layer that gives an array single-disk-failure tolerance via
/// rotating parity: the stripe state, the three allocation watermarks,
/// the dead set and this layer's counters.  See the module docs for the
/// layout and degraded-mode semantics.  Stack order matters: place it
/// *above* the fault injection layer (so it observes permanent faults)
/// and *below* [`crate::RetryingDiskArray`] (so transient faults still
/// retry).
#[derive(Debug)]
pub struct Parity {
    geom: Geometry,
    /// The block codec parity is XORed over: a *frame* is a file slot's
    /// payload, fixed-length and total.
    layout: SlotLayout,
    /// Per-disk logical allocation watermark (what callers see).
    logical_free: Vec<u64>,
    /// Per-disk physical extent actually allocated from `inner` (stops
    /// growing while a disk is dead: its slots exist only as parity).
    inner_free: Vec<u64>,
    stripes: BTreeMap<u64, Stripe>,
    dead: BTreeSet<DiskId>,
    reconstructed_reads: u64,
    parity_writes: u64,
    store: Option<ParityStore>,
    crash: Option<CrashClock>,
}

/// `inner` under the parity layer.
pub type ParityDiskArray<R, A> = Stack<R, Parity, A>;

impl<R: Record, A: DiskArray<R>> ParityDiskArray<R, A> {
    /// Wrap `inner`.  Rotating parity needs at least two disks (with
    /// one, losing it loses everything and no parity can help).
    pub fn new(inner: A) -> Result<Self> {
        let geom = inner.geometry();
        if geom.d < 2 {
            return Err(PdiskError::BadGeometry(
                "rotating parity needs at least 2 disks".into(),
            ));
        }
        let layer = Parity {
            geom,
            layout: SlotLayout::new::<R>(geom),
            logical_free: vec![0; geom.d],
            inner_free: vec![0; geom.d],
            stripes: BTreeMap::new(),
            dead: BTreeSet::new(),
            reconstructed_reads: 0,
            parity_writes: 0,
            store: None,
            crash: None,
        };
        Ok(Stack::from_parts(inner, layer))
    }

    /// Attach (or reopen) a sidecar parity store at `path`.  Existing
    /// stripe state is loaded and the allocator watermarks recovered
    /// from the written-block masks, which is what lets a checkpointed
    /// sort resume against a reopened, possibly degraded array.
    pub fn with_store(mut self, path: impl AsRef<Path>) -> Result<Self> {
        let p = &mut self.layer;
        let frame_len = p.layout.payload_bytes();
        let (store, stripes) = ParityStore::open(path.as_ref(), frame_len)?;
        for (s, stripe) in &stripes {
            if stripe.parity.len() != frame_len {
                return Err(PdiskError::Corrupt(format!(
                    "parity store stripe {s} has a {}-byte frame, expected {frame_len}",
                    stripe.parity.len()
                )));
            }
            let dd = p.geom.d as u64;
            for d in 0..p.geom.d {
                if stripe.written & (1 << d) != 0 {
                    let lo = logical_of(d, *s, dd).ok_or_else(|| {
                        PdiskError::Corrupt(format!(
                            "parity store stripe {s} claims data on its parity disk {d}"
                        ))
                    })?;
                    p.logical_free[d] = p.logical_free[d].max(lo + 1);
                    p.inner_free[d] = p.inner_free[d].max(s + 1);
                }
            }
        }
        p.stripes = stripes;
        p.store = Some(store);
        Ok(self)
    }

    /// Share `clock` with a [`crate::CrashingDiskArray`] sitting above
    /// this stack: the parity-commit section of every write then gets
    /// its own numbered crash boundaries (`parity-update` /
    /// `parity-updated`), so a crash-matrix sweep covers the window
    /// where data frames are durable but the parity sidecar is not.
    pub fn set_crash_clock(&mut self, clock: CrashClock) {
        self.layer.crash = Some(clock);
    }

    /// The physical slot (on the wrapped array) backing a logical
    /// address, after the rotating-parity layout shift.  For tooling
    /// and tests that need to reach below the parity layer — e.g. to
    /// inject latent corruption a scrub should then heal.
    pub fn physical_addr(&self, addr: BlockAddr) -> BlockAddr {
        self.layer.physical_addr(addr)
    }

    /// Disks currently served by reconstruction.
    pub fn dead_disks(&self) -> impl Iterator<Item = DiskId> + '_ {
        self.layer.dead.iter().copied()
    }

    /// Administratively kill `disk` (models a head crash discovered out
    /// of band; the CLI's `--kill-disk` lands here).  Idempotent for an
    /// already-dead disk; a *second* distinct death is
    /// [`PdiskError::Unrecoverable`].
    pub fn fail_disk(&mut self, disk: DiskId) -> Result<()> {
        self.layer.fail_disk(&self.inner, disk)
    }
}

impl Parity {
    fn crash_tick(&self, label: &'static str) -> Result<()> {
        match &self.crash {
            Some(c) => c.tick(label),
            None => Ok(()),
        }
    }

    fn physical_addr(&self, addr: BlockAddr) -> BlockAddr {
        BlockAddr::new(
            addr.disk,
            phys_of(addr.disk.index(), addr.offset, self.geom.d as u64),
        )
    }

    /// [`ParityDiskArray::fail_disk`], given the array below.
    pub(crate) fn fail_disk<R: Record>(&mut self, inner: &impl DiskArray<R>, disk: DiskId) -> Result<()> {
        if disk.index() >= self.geom.d {
            return Err(PdiskError::NoSuchDisk(disk));
        }
        self.mark_dead(inner, disk)
    }

    fn mark_dead<R: Record>(&mut self, inner: &impl DiskArray<R>, disk: DiskId) -> Result<()> {
        if self.dead.contains(&disk) {
            return Ok(());
        }
        if let Some(&other) = self.dead.iter().next() {
            return Err(PdiskError::Unrecoverable(format!(
                "disk {} died while disk {} is already dead; rotating parity \
                 tolerates one failure at a time",
                disk.0, other.0
            )));
        }
        self.dead.insert(disk);
        if let Some(sink) = inner.trace_sink() {
            sink.emit(TraceEvent::DiskDeath { disk });
        }
        // Parity stored on the dead disk is gone with it.
        let dd = self.geom.d as u64;
        let lost: Vec<u64> = self
            .stripes
            .iter()
            .filter(|(s, st)| **s % dd == disk.0 as u64 && !st.parity_lost)
            .map(|(s, _)| *s)
            .collect();
        for s in lost {
            if let Some(st) = self.stripes.get_mut(&s) {
                st.parity_lost = true;
            }
            self.save_stripe(s)?;
        }
        Ok(())
    }

    fn save_stripe(&self, s: u64) -> Result<()> {
        if let Some(store) = &self.store {
            if let Some(st) = self.stripes.get(&s) {
                store.save(s, st)?;
            }
        }
        Ok(())
    }

    /// `block` as the frame parity is XORed over: the payload of the
    /// slot [`crate::FileDiskArray`] would write for it (record count,
    /// forecast kind + keys, record cells), a fixed-length, total
    /// representation.
    pub(crate) fn encode_frame<R: Record>(&self, block: &Block<R>) -> Result<Vec<u8>> {
        self.layout.admits(block)?;
        let mut out = vec![0u8; self.layout.payload_bytes()];
        self.layout.encode_payload(block, &mut out);
        Ok(out)
    }

    fn decode_frame<R: Record>(&self, bytes: &[u8]) -> Result<Block<R>> {
        self.layout.decode_payload(bytes, Vec::new())
    }

    /// Raw frame of stripe `s`'s block on `target`, reconstructed as
    /// parity XOR the stripe's other written data frames (one extra
    /// parallel read when any survive; for `D = 2` the parity alone is
    /// the mirror).
    fn reconstruct_frame<R: Record>(
        &mut self,
        inner: &mut impl DiskArray<R>,
        s: u64,
        target: DiskId,
    ) -> Result<Vec<u8>> {
        let stripe = self.stripes.get(&s).cloned().ok_or_else(|| {
            PdiskError::Unrecoverable(format!("stripe {s} has no parity state"))
        })?;
        if stripe.parity_lost {
            return Err(PdiskError::Unrecoverable(format!(
                "stripe {s}: block on disk {} needs parity, but the stripe's \
                 parity died with disk {}",
                target.0,
                s % self.geom.d as u64
            )));
        }
        let dd = self.geom.d as u64;
        let mut sibs = Vec::new();
        for d in 0..self.geom.d {
            let did = DiskId::from_index(d);
            if did == target || d as u64 == s % dd || stripe.written & (1 << d) == 0 {
                continue;
            }
            if self.dead.contains(&did) {
                return Err(PdiskError::Unrecoverable(format!(
                    "stripe {s}: sibling disk {d} is also dead"
                )));
            }
            sibs.push(BlockAddr::new(did, s));
        }
        let mut frame = stripe.parity;
        if !sibs.is_empty() {
            let blocks = match inner.read(&sibs) {
                Ok(b) => b,
                Err(PdiskError::Fault {
                    kind: FaultKind::Permanent,
                    disk: Some(dd2),
                    ..
                }) => {
                    self.mark_dead(inner, dd2)?;
                    return Err(PdiskError::Unrecoverable(format!(
                        "stripe {s}: sibling disk {} died during reconstruction",
                        dd2.0
                    )));
                }
                Err(e) => return Err(e),
            };
            for b in blocks {
                let sib_frame = self.encode_frame(&b)?;
                xor_into(&mut frame, &sib_frame);
            }
        }
        if let Some(sink) = inner.trace_sink() {
            sink.emit(TraceEvent::Reconstruct {
                disk: target,
                stripe: s,
                siblings: sibs,
            });
        }
        Ok(frame)
    }

    /// Whether the stripe state records a block at physical slot `pa`.
    fn is_written(&self, pa: &BlockAddr) -> bool {
        self.stripes
            .get(&pa.offset)
            .is_some_and(|st| st.written & (1 << pa.disk.index()) != 0)
    }

    /// Validate one parallel op's logical addresses and translate them
    /// to the physical slots behind them, in request order.
    fn map_op(&self, addrs: impl Iterator<Item = BlockAddr> + Clone) -> Result<Vec<BlockAddr>> {
        self.geom.check_parallel_op(addrs.clone().map(|a| a.disk))?;
        addrs
            .map(|a| {
                if a.offset >= self.logical_free[a.disk.index()] {
                    return Err(PdiskError::UnmappedBlock(a));
                }
                Ok(self.physical_addr(a))
            })
            .collect()
    }

    /// Serve one parallel read without leaving anything in flight: dead
    /// disks' blocks by reconstruction, the rest by one direct inner
    /// read.  `pas` are `addrs` translated.
    fn read_eager<R: Record>(
        &mut self,
        inner: &mut impl DiskArray<R>,
        addrs: &[BlockAddr],
        pas: &[BlockAddr],
    ) -> Result<Vec<Block<R>>> {
        let (mut recon, mut direct): (Vec<_>, Vec<_>) =
            pas.iter().copied().enumerate().partition(|(_, pa)| self.dead.contains(&pa.disk));
        let mut out: Vec<Option<Block<R>>> = Vec::new();
        out.resize_with(addrs.len(), || None);
        // Direct reads, absorbing a mid-read permanent fault by moving
        // the newly dead disk's block onto the reconstruction path.
        loop {
            let req: Vec<BlockAddr> = direct.iter().map(|(_, a)| *a).collect();
            match inner.read(&req) {
                Ok(blocks) => {
                    for ((i, _), b) in direct.iter().zip(blocks) {
                        out[*i] = Some(b);
                    }
                    break;
                }
                Err(PdiskError::Fault {
                    kind: FaultKind::Permanent,
                    disk: Some(dead),
                    ..
                }) => {
                    self.mark_dead(inner, dead)?;
                    let (lost, live): (Vec<_>, Vec<_>) =
                        direct.into_iter().partition(|(_, a)| a.disk == dead);
                    direct = live;
                    recon.extend(lost);
                }
                Err(e) => return Err(e),
            }
        }
        for (i, pa) in recon {
            let logical = addrs[i];
            if !self.is_written(&pa) {
                return Err(PdiskError::UnmappedBlock(logical));
            }
            let frame = self.reconstruct_frame(inner, pa.offset, pa.disk)?;
            let block = self.decode_frame(&frame).map_err(|e| {
                PdiskError::Unrecoverable(format!(
                    "reconstruction of block {logical:?} decoded to garbage: {e}"
                ))
            })?;
            self.reconstructed_reads += 1;
            out[i] = Some(block);
        }
        out.into_iter()
            .enumerate()
            .map(|(i, b)| {
                b.ok_or_else(|| {
                    PdiskError::Unrecoverable(format!(
                        "parity read left request slot {i} unserved (internal invariant)"
                    ))
                })
            })
            .collect()
    }

    /// Fold one write's frames into the stripes it touched.  Called
    /// exactly once per logical write, and only after every durable
    /// effect below succeeded.  A crash (or an abandoned ticket) before
    /// this point leaves the stripes' `written` bits unset, so the frames
    /// read back as unwritten and the sorter re-issues them after
    /// recovery — never a half-updated parity that would reconstruct
    /// garbage.  XOR commutes, so the commits of writes that were in
    /// flight together may land in any order.
    fn commit_parity<R: Record>(
        &mut self,
        inner: &impl DiskArray<R>,
        deltas: &[(BlockAddr, Vec<u8>)],
    ) -> Result<()> {
        self.crash_tick("parity-update")?;
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for (pa, delta) in deltas {
            let parity_disk_dead = self.dead.contains(&DiskId::from_mod(pa.offset, self.geom.d));
            if self.dead.contains(&pa.disk) && parity_disk_dead {
                return Err(PdiskError::Unrecoverable(format!(
                    "write to dead disk {} in stripe {} whose parity is also lost",
                    pa.disk.0, pa.offset
                )));
            }
            let frame_len = self.layout.payload_bytes();
            let st = self
                .stripes
                .entry(pa.offset)
                .or_insert_with(|| Stripe::empty(frame_len, parity_disk_dead));
            if !st.parity_lost {
                xor_into(&mut st.parity, delta);
                touched.insert(pa.offset);
            }
            st.written |= 1 << pa.disk.index();
            self.save_stripe(pa.offset)?;
        }
        self.parity_writes += touched.len() as u64;
        if let Some(sink) = inner.trace_sink() {
            for &s in &touched {
                let data_disks: Vec<DiskId> = deltas
                    .iter()
                    .filter(|(pa, _)| pa.offset == s)
                    .map(|(pa, _)| pa.disk)
                    .collect();
                sink.emit(TraceEvent::ParityCommit {
                    stripe: s,
                    parity_disk: DiskId::from_mod(s, self.geom.d),
                    data_disks,
                });
            }
        }
        self.crash_tick("parity-updated")
    }
}

impl<R: Record> Layer<R> for Parity {
    /// On a healthy array the read stays in flight below: the ticket
    /// shows the caller's addresses upward and the remapped ones
    /// downward.  A degraded array serves the read before returning, as
    /// does a permanent fault met here.
    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        if addrs.is_empty() {
            return Ok(ReadTicket::ready(Vec::new(), Vec::new()));
        }
        let pas = self.map_op(addrs.iter().copied())?;
        if self.dead.is_empty() {
            match inner.submit_read(&pas) {
                Ok(mut ticket) => {
                    ticket.phys = Some(std::mem::replace(&mut ticket.addrs, addrs.to_vec()));
                    return Ok(ticket);
                }
                Err(PdiskError::Fault {
                    kind: FaultKind::Permanent,
                    disk: Some(dead),
                    ..
                }) => self.mark_dead(inner, dead)?,
                Err(e) => return Err(e),
            }
        }
        let blocks = self.read_eager(inner, addrs, &pas)?;
        Ok(ReadTicket::ready(addrs.to_vec(), blocks))
    }

    fn complete_read(&mut self, inner: &mut impl DiskArray<R>, mut ticket: ReadTicket<R>) -> Result<Vec<Block<R>>> {
        match ticket.phys.take() {
            Some(phys) => {
                ticket.addrs = phys;
                inner.complete_read(ticket)
            }
            // Served at submit: nothing is in flight below.
            None => ticket.into_ready(),
        }
    }

    /// Everything a write needs from the current stripe state happens
    /// here — map, encode, old frames for overwrites, reconstruction for
    /// a dead target — *before* touching the inner array, so a transient
    /// failure anywhere leaves no partial parity state and the op
    /// replays cleanly under a retry policy.  The data frames are then
    /// left in flight and the parity update rides in the ticket to the
    /// complete hook.
    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket> {
        if writes.is_empty() {
            return Ok(WriteTicket::ready(Vec::new()));
        }
        let addrs: Vec<BlockAddr> = writes.iter().map(|(a, _)| *a).collect();
        let pas = self.map_op(addrs.iter().copied())?;
        let mut deltas = Vec::with_capacity(writes.len());
        for (pa, (_, b)) in pas.iter().zip(&writes) {
            deltas.push((*pa, self.encode_frame(b)?));
        }
        let (dead_ow, live_ow): (Vec<usize>, Vec<usize>) = (0..pas.len())
            .filter(|&i| self.is_written(&pas[i]))
            .partition(|&i| self.dead.contains(&pas[i].disk));
        let overwrite = !dead_ow.is_empty() || !live_ow.is_empty();
        if !live_ow.is_empty() {
            let req: Vec<BlockAddr> = live_ow.iter().map(|&i| pas[i]).collect();
            for (&i, b) in live_ow.iter().zip(inner.read(&req)?) {
                let old = self.encode_frame(&b)?;
                xor_into(&mut deltas[i].1, &old);
            }
        }
        for &i in &dead_ow {
            let old = self.reconstruct_frame(inner, pas[i].offset, pas[i].disk)?;
            self.reconstructed_reads += 1;
            xor_into(&mut deltas[i].1, &old);
        }
        // Inner write of the live targets, absorbing a mid-write
        // permanent fault: the newly dead disk's block then survives
        // only through parity, like any degraded write.
        let mut live: Vec<usize> = (0..writes.len())
            .filter(|&i| !self.dead.contains(&pas[i].disk))
            .collect();
        let mut ticket = loop {
            let req: Vec<(BlockAddr, Block<R>)> = live
                .iter()
                .map(|&i| (pas[i], writes[i].1.clone()))
                .collect();
            match inner.submit_write(req) {
                Ok(ticket) => break ticket,
                Err(PdiskError::Fault {
                    kind: FaultKind::Permanent,
                    disk: Some(dead),
                    ..
                }) => {
                    self.mark_dead(inner, dead)?;
                    live.retain(|&i| pas[i].disk != dead);
                }
                Err(e) => return Err(e),
            }
        };
        if overwrite {
            // Between an overwrite landing and its commit, parity still
            // holds the old frame: a reconstruction in that window would
            // XOR it against the new data.  Close the window here.
            inner.complete_write(ticket)?;
            self.commit_parity(inner, &deltas)?;
            return Ok(WriteTicket::ready(addrs));
        }
        let inner_addrs = std::mem::replace(&mut ticket.addrs, addrs);
        ticket.parity = Some(ParityCommit { inner_addrs, deltas });
        Ok(ticket)
    }

    fn complete_write(&mut self, inner: &mut impl DiskArray<R>, mut ticket: WriteTicket) -> Result<()> {
        // Committed at submit (an overwrite), or empty: nothing is owed.
        let Some(commit) = ticket.parity.take() else {
            return Ok(());
        };
        ticket.addrs = commit.inner_addrs;
        inner.complete_write(ticket)?;
        self.commit_parity(inner, &commit.deltas)
    }

    /// Forward the hint in physical addresses.  A degraded array serves
    /// reads at submit, some by reconstruction instead of reading their
    /// slot, so there the hint is dropped.
    fn prefetch(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) {
        if !self.dead.is_empty() {
            return;
        }
        let pas: Vec<BlockAddr> = addrs
            .iter()
            .filter(|a| a.disk.index() < self.geom.d && a.offset < self.logical_free[a.disk.index()])
            .map(|&a| self.physical_addr(a))
            .collect();
        inner.prefetch(&pas);
    }

    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> Result<u64> {
        let i = disk.index();
        if i >= self.geom.d {
            return Err(PdiskError::NoSuchDisk(disk));
        }
        let dd = self.geom.d as u64;
        let start = self.logical_free[i];
        let new_logical = start + count;
        let phys_needed = if new_logical == 0 {
            0
        } else {
            phys_of(i, new_logical - 1, dd) + 1
        };
        // Grow the inner allocation first: a failure here (e.g. an
        // injected alloc fault) must leave the logical watermark
        // untouched so a retried alloc returns the same offset.
        if !self.dead.contains(&disk) && phys_needed > self.inner_free[i] {
            let req = phys_needed - self.inner_free[i];
            let got = inner.alloc_contiguous(disk, req)?;
            // After a resume the inner watermark may already be ahead of
            // ours; all that matters is that it now covers phys_needed.
            self.inner_free[i] = (got + req).max(phys_needed);
        }
        self.logical_free[i] = new_logical;
        Ok(start)
    }

    /// Inner stats plus this layer's degraded-mode counters.  Sibling
    /// reads issued for reconstruction are charged on the inner array
    /// as ordinary parallel reads (they are real I/O); the blocks they
    /// *serve* are visible here as `reconstructed_reads`.
    fn stats(&self, inner: &impl DiskArray<R>) -> IoStats {
        let mut s = inner.stats();
        s.reconstructed_reads += self.reconstructed_reads;
        s.parity_writes += self.parity_writes;
        s
    }

    fn reset_stats(&mut self, inner: &mut impl DiskArray<R>) {
        self.reconstructed_reads = 0;
        self.parity_writes = 0;
        inner.reset_stats();
    }

    fn redundancy(&self, _inner: &impl DiskArray<R>) -> Option<RedundancyInfo> {
        Some(RedundancyInfo {
            stripe_disks: self.geom.d,
            dead: self.dead.iter().copied().collect(),
        })
    }

    /// Durability barrier: flush the inner array first (data frames),
    /// then the parity sidecar, so a crash between the two leaves
    /// parity *behind* the data — the safe direction, since a stale
    /// `written` mask merely re-exposes frames as unwritten.
    fn sync(&mut self, inner: &mut impl DiskArray<R>) -> Result<()> {
        inner.sync()?;
        if let Some(store) = &self.store {
            store.file.sync_all()?;
        }
        Ok(())
    }

    /// Verify the block at `addr`; on a checksum failure in the inner
    /// backend, reconstruct the frame from the stripe's parity and
    /// rewrite it in place.  The rewrite goes straight to the inner
    /// array: parity already reflects the *correct* frame (the
    /// corruption is latent media damage below us), so updating it
    /// again would wreck it.
    fn scrub_block(&mut self, inner: &mut impl DiskArray<R>, addr: BlockAddr) -> Result<ScrubOutcome> {
        if addr.disk.index() >= self.geom.d {
            return Err(PdiskError::NoSuchDisk(addr.disk));
        }
        if addr.offset >= self.logical_free[addr.disk.index()] {
            return Err(PdiskError::UnmappedBlock(addr));
        }
        let pa = self.physical_addr(addr);
        if !self.dead.contains(&addr.disk) {
            match inner.read(&[pa]) {
                Ok(_) => return Ok(ScrubOutcome::Clean),
                Err(PdiskError::Corrupt(_)) => {}
                Err(PdiskError::Fault {
                    kind: FaultKind::Permanent,
                    disk: Some(dead),
                    ..
                }) => {
                    // The disk died under the scrubber; fall through to
                    // the degraded verification path.
                    self.mark_dead(inner, dead)?;
                }
                Err(e) => return Err(e),
            }
        }
        if !self.is_written(&pa) {
            return Ok(ScrubOutcome::Unrepairable(format!(
                "block {addr:?} fails verification and its stripe holds no \
                 parity state to rebuild it from"
            )));
        }
        let frame = match self.reconstruct_frame(inner, pa.offset, pa.disk) {
            Ok(f) => f,
            Err(PdiskError::Unrecoverable(why)) => {
                return Ok(ScrubOutcome::Unrepairable(why));
            }
            // A corrupt sibling is a double failure in this stripe —
            // that makes the block unrepairable, but it must not abort
            // the scrub of every block behind it.
            Err(PdiskError::Corrupt(why)) => {
                return Ok(ScrubOutcome::Unrepairable(format!(
                    "block {addr:?}: a stripe sibling is corrupt too: {why}"
                )));
            }
            Err(e) => return Err(e),
        };
        let block = match self.decode_frame(&frame) {
            Ok(b) => b,
            Err(e) => {
                return Ok(ScrubOutcome::Unrepairable(format!(
                    "block {addr:?} reconstructed to garbage: {e}"
                )));
            }
        };
        self.reconstructed_reads += 1;
        if self.dead.contains(&addr.disk) {
            // Nothing to rewrite: the disk is gone, but the degraded
            // read path serves the block, which is all a scrub can
            // promise here.
            return Ok(ScrubOutcome::Clean);
        }
        inner.write(vec![(pa, block)])?;
        if let Some(sink) = inner.trace_sink() {
            sink.emit(TraceEvent::ScrubRepair {
                addr: pa,
                stripe: pa.offset,
            });
        }
        Ok(ScrubOutcome::Repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Forecast, NO_BLOCK};
    use crate::faulty::{FaultModel, FaultyDiskArray};
    use crate::file::FileDiskArray;
    use crate::mem::MemDiskArray;
    use crate::record::U64Record;
    use crate::retry::tests::FlakySplit;
    use std::path::PathBuf;

    type Mem = MemDiskArray<U64Record>;
    type Faulty = FaultyDiskArray<U64Record, Mem>;
    type Parity = ParityDiskArray<U64Record, Faulty>;

    fn tmpdir(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("pdisk-parity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn blk(keys: &[u64]) -> Block<U64Record> {
        Block::new(keys.iter().map(|&k| U64Record(k)).collect(), Forecast::Next(NO_BLOCK))
    }

    /// A parity array over `d` disks with `slots` logical blocks written
    /// per disk; block (d, o) holds keys d*1000+o*10 .. +B.
    fn seeded(d: usize, slots: u64) -> Parity {
        let geom = Geometry::new(d, 4, 1000).unwrap();
        let inner = FaultyDiskArray::new(MemDiskArray::new(geom), FaultModel::none());
        let mut a = ParityDiskArray::new(inner).unwrap();
        for disk in 0..d {
            let o = a.alloc_contiguous(DiskId(disk as u32), slots).unwrap();
            assert_eq!(o, 0);
        }
        for slot in 0..slots {
            let writes: Vec<_> = (0..d)
                .map(|disk| {
                    let base = disk as u64 * 1000 + slot * 10;
                    (
                        BlockAddr::new(DiskId(disk as u32), slot),
                        blk(&[base, base + 1, base + 2, base + 3]),
                    )
                })
                .collect();
            a.write(writes).unwrap();
        }
        a
    }

    fn expected(disk: usize, slot: u64) -> Block<U64Record> {
        let base = disk as u64 * 1000 + slot * 10;
        blk(&[base, base + 1, base + 2, base + 3])
    }

    #[test]
    fn mapping_is_a_bijection_that_avoids_parity_slots() {
        for d_total in 2..6usize {
            let dd = d_total as u64;
            for disk in 0..d_total {
                let mut seen = std::collections::BTreeSet::new();
                for lo in 0..60u64 {
                    let po = phys_of(disk, lo, dd);
                    assert_ne!(po % dd, disk as u64, "data slot on its parity stripe");
                    assert_eq!(logical_of(disk, po, dd), Some(lo), "inverse mismatch");
                    assert!(seen.insert(po), "physical slot reused");
                }
                // The reserved slots are exactly those the inverse rejects.
                for po in 0..60u64 {
                    if po % dd == disk as u64 {
                        assert_eq!(logical_of(disk, po, dd), None);
                    }
                }
            }
        }
    }

    #[test]
    fn parity_needs_two_disks() {
        let geom = Geometry::new(1, 4, 1000).unwrap();
        let inner: Mem = MemDiskArray::new(geom);
        assert!(matches!(
            ParityDiskArray::new(inner),
            Err(PdiskError::BadGeometry(_))
        ));
    }

    #[test]
    fn healthy_path_preserves_op_structure() {
        let d = 3;
        let a = seeded(d, 4);
        // Reference: the same workload on a bare array.
        let geom = Geometry::new(d, 4, 1000).unwrap();
        let mut bare: Mem = MemDiskArray::new(geom);
        for disk in 0..d {
            bare.alloc_contiguous(DiskId(disk as u32), 4).unwrap();
        }
        for slot in 0..4u64 {
            let writes: Vec<_> = (0..d)
                .map(|disk| (BlockAddr::new(DiskId(disk as u32), slot), expected(disk, slot)))
                .collect();
            bare.write(writes).unwrap();
        }
        let (ps, bs) = (a.stats(), bare.stats());
        assert_eq!(ps.write_ops, bs.write_ops, "same parallel write count");
        assert_eq!(ps.blocks_written, bs.blocks_written, "same blocks moved");
        assert_eq!(ps.read_ops, bs.read_ops);
        // The remap shifts each disk's slots differently, so one
        // parallel op's blocks straddle two adjacent stripes: 2 parity
        // updates per op here, never more than stripes touched.
        assert_eq!(ps.parity_writes, 8, "one parity update per stripe per op");
        assert_eq!(ps.reconstructed_reads, 0);
    }

    #[test]
    fn healthy_reads_round_trip() {
        let mut a = seeded(3, 4);
        for slot in 0..4u64 {
            let addrs: Vec<_> = (0..3)
                .map(|disk| BlockAddr::new(DiskId(disk as u32), slot))
                .collect();
            let got = a.read(&addrs).unwrap();
            for (disk, b) in got.iter().enumerate() {
                assert_eq!(*b, expected(disk, slot));
            }
        }
    }

    #[test]
    fn administrative_kill_reconstructs_every_block() {
        let mut a = seeded(4, 5);
        a.fail_disk(DiskId(2)).unwrap();
        for slot in 0..5u64 {
            let got = a.read(&[BlockAddr::new(DiskId(2), slot)]).unwrap();
            assert_eq!(got[0], expected(2, slot), "slot {slot}");
        }
        let s = a.stats();
        assert_eq!(s.reconstructed_reads, 5);
        assert_eq!(
            a.redundancy(),
            Some(RedundancyInfo {
                stripe_disks: 4,
                dead: vec![DiskId(2)],
            })
        );
    }

    #[test]
    fn mid_read_death_is_absorbed_within_the_op() {
        let mut a = seeded(3, 4);
        // The fault layer below kills disk 1; the parity layer must
        // catch the permanent fault mid-op and still return all blocks.
        a.inner_mut().model_mut().kill_disk(DiskId(1));
        let addrs: Vec<_> = (0..3).map(|d| BlockAddr::new(DiskId(d), 2)).collect();
        let got = a.read(&addrs).unwrap();
        for (disk, b) in got.iter().enumerate() {
            assert_eq!(*b, expected(disk, 2));
        }
        assert!(a.stats().reconstructed_reads >= 1);
        assert_eq!(a.dead_disks().collect::<Vec<_>>(), vec![DiskId(1)]);
    }

    #[test]
    fn degraded_writes_survive_via_parity() {
        let mut a = seeded(3, 2);
        a.fail_disk(DiskId(0)).unwrap();
        // Extend disk 0's run while it is dead: the block exists only
        // through parity, and reads it back reconstructed.
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        assert_eq!(o, 2);
        a.write(vec![(BlockAddr::new(DiskId(0), o), blk(&[7, 8, 9]))])
            .unwrap();
        let got = a.read(&[BlockAddr::new(DiskId(0), o)]).unwrap();
        assert_eq!(got[0], blk(&[7, 8, 9]));
        assert!(a.stats().reconstructed_reads >= 1);
    }

    #[test]
    fn mid_write_death_is_absorbed_within_the_op() {
        let geom = Geometry::new(3, 4, 1000).unwrap();
        let inner = FaultyDiskArray::new(
            MemDiskArray::new(geom),
            FaultModel::none().kill_at(crate::error::FaultOp::Write, 1),
        );
        let mut a = ParityDiskArray::new(inner).unwrap();
        for d in 0..3 {
            a.alloc_contiguous(DiskId(d), 2).unwrap();
        }
        let stripe_writes = |slot: u64| -> Vec<_> {
            (0..3)
                .map(|d| (BlockAddr::new(DiskId(d), slot), expected(d as usize, slot)))
                .collect()
        };
        a.write(stripe_writes(0)).unwrap(); // write 0: clean
        a.write(stripe_writes(1)).unwrap(); // write 1: disk 0 dies mid-op
        assert_eq!(a.dead_disks().collect::<Vec<_>>(), vec![DiskId(0)]);
        // Every block of both stripes is still readable.
        for slot in 0..2u64 {
            let got = a
                .read(&(0..3).map(|d| BlockAddr::new(DiskId(d), slot)).collect::<Vec<_>>())
                .unwrap();
            for (disk, b) in got.iter().enumerate() {
                assert_eq!(*b, expected(disk, slot), "slot {slot} disk {disk}");
            }
        }
    }

    #[test]
    fn two_disk_mirror_reconstructs_from_parity_alone() {
        let mut a = seeded(2, 3);
        a.fail_disk(DiskId(1)).unwrap();
        let before = a.stats().read_ops;
        for slot in 0..3u64 {
            let got = a.read(&[BlockAddr::new(DiskId(1), slot)]).unwrap();
            assert_eq!(got[0], expected(1, slot));
        }
        // D = 2: no sibling reads needed; parity is the mirror copy.
        assert_eq!(a.stats().read_ops, before, "no inner reads for D=2 rebuilds");
        assert_eq!(a.stats().reconstructed_reads, 3);
    }

    #[test]
    fn second_death_is_unrecoverable() {
        let mut a = seeded(3, 2);
        a.fail_disk(DiskId(0)).unwrap();
        a.fail_disk(DiskId(0)).unwrap(); // idempotent
        let err = a.fail_disk(DiskId(1)).unwrap_err();
        assert!(matches!(err, PdiskError::Unrecoverable(_)), "got {err:?}");
    }

    #[test]
    fn dead_disk_unwritten_slot_reads_as_unmapped() {
        let mut a = seeded(3, 2);
        let o = a.alloc_contiguous(DiskId(0), 1).unwrap();
        a.fail_disk(DiskId(0)).unwrap();
        let err = a.read(&[BlockAddr::new(DiskId(0), o)]).unwrap_err();
        assert!(matches!(err, PdiskError::UnmappedBlock(_)), "got {err:?}");
    }

    /// Like [`seeded`] but directly over [`MemDiskArray`], so tests can
    /// reach [`MemDiskArray::corrupt_block`] through one `inner_mut`.
    fn seeded_mem(d: usize, slots: u64) -> ParityDiskArray<U64Record, Mem> {
        let geom = Geometry::new(d, 4, 1000).unwrap();
        let mut a = ParityDiskArray::new(MemDiskArray::new(geom)).unwrap();
        for disk in 0..d {
            a.alloc_contiguous(DiskId(disk as u32), slots).unwrap();
        }
        for slot in 0..slots {
            let writes: Vec<_> = (0..d)
                .map(|disk| (BlockAddr::new(DiskId(disk as u32), slot), expected(disk, slot)))
                .collect();
            a.write(writes).unwrap();
        }
        a
    }

    #[test]
    fn scrub_repairs_latent_corruption_in_place() {
        use crate::backend::ScrubOutcome;
        let mut a = seeded_mem(3, 4);
        let logical = BlockAddr::new(DiskId(1), 2);
        let pa = BlockAddr::new(DiskId(1), phys_of(1, 2, 3));
        a.inner_mut().corrupt_block(pa).unwrap();
        // Plain reads now fail: the damage is latent until touched.
        assert!(matches!(a.read(&[logical]), Err(PdiskError::Corrupt(_))));
        assert_eq!(a.scrub_block(logical).unwrap(), ScrubOutcome::Repaired);
        // The rewrite healed the media; data and parity both intact.
        assert_eq!(a.read(&[logical]).unwrap()[0], expected(1, 2));
        assert_eq!(a.scrub_block(logical).unwrap(), ScrubOutcome::Clean);
        assert!(a.stats().reconstructed_reads >= 1);
    }

    #[test]
    fn scrub_on_a_dead_disk_verifies_the_degraded_path() {
        use crate::backend::ScrubOutcome;
        let mut a = seeded_mem(3, 2);
        a.fail_disk(DiskId(2)).unwrap();
        // Nothing to rewrite (the disk is gone) but the block is
        // reconstructable, which is all a scrub can promise here.
        assert_eq!(
            a.scrub_block(BlockAddr::new(DiskId(2), 1)).unwrap(),
            ScrubOutcome::Clean
        );
        assert!(a.stats().reconstructed_reads >= 1);
    }

    #[test]
    fn scrub_reports_unrepairable_when_a_sibling_is_dead() {
        use crate::backend::ScrubOutcome;
        let mut a = seeded_mem(3, 2);
        a.fail_disk(DiskId(0)).unwrap();
        // Logical (1, 1) lives in stripe 2, whose reconstruction needs
        // dead disk 0's member: corruption there is beyond repair.
        let logical = BlockAddr::new(DiskId(1), 1);
        let pa = BlockAddr::new(DiskId(1), phys_of(1, 1, 3));
        assert_eq!(pa.offset, 2);
        a.inner_mut().corrupt_block(pa).unwrap();
        match a.scrub_block(logical).unwrap() {
            ScrubOutcome::Unrepairable(why) => {
                assert!(why.contains("dead"), "unexpected reason: {why}");
            }
            other => panic!("expected Unrepairable, got {other:?}"),
        }
    }

    #[test]
    fn crash_between_data_write_and_parity_commit_stays_consistent() {
        let geom = Geometry::new(3, 4, 1000).unwrap();
        let mut a = ParityDiskArray::new(MemDiskArray::<U64Record>::new(geom)).unwrap();
        for d in 0..3 {
            a.alloc_contiguous(DiskId(d), 1).unwrap();
        }
        let clock = crate::crash::CrashClock::crash_at(0);
        a.set_crash_clock(clock.clone());
        let writes: Vec<_> = (0..3)
            .map(|d| (BlockAddr::new(DiskId(d), 0), expected(d as usize, 0)))
            .collect();
        let err = a.write(writes).unwrap_err();
        assert!(matches!(err, PdiskError::Crashed { point: 0, .. }), "got {err:?}");
        assert_eq!(clock.fired(), Some(0));
        // Data frames landed below, but no stripe committed: recovery
        // sees the frames as unwritten and re-issues them.
        assert!(a.layer.stripes.is_empty(), "parity committed despite the crash");
        // The poisoned clock keeps refusing work, like a dead process.
        let err = a
            .write(vec![(BlockAddr::new(DiskId(0), 0), expected(0, 0))])
            .unwrap_err();
        assert!(matches!(err, PdiskError::Crashed { point: 0, .. }));
    }

    /// Three fresh blocks at `slot`, one per disk of a 3-disk array.
    fn stripe_writes(slot: u64) -> Vec<(BlockAddr, Block<U64Record>)> {
        (0..3)
            .map(|d| (BlockAddr::new(DiskId(d), slot), expected(d as usize, slot)))
            .collect()
    }

    /// A 3-disk parity array over a double whose write completions fail
    /// retryably `fail_completes` times, after the data has landed.
    fn over_flaky(fail_completes: u32) -> ParityDiskArray<U64Record, FlakySplit> {
        let geom = Geometry::new(3, 4, 1000).unwrap();
        let inner = FlakySplit {
            inner: MemDiskArray::new(geom),
            fail_submits: 0,
            fail_completes,
            fail_fallbacks: 0,
            issues: 0,
        };
        let mut a = ParityDiskArray::new(inner).unwrap();
        for d in 0..3 {
            a.alloc_contiguous(DiskId(d), 2).unwrap();
        }
        a
    }

    #[test]
    fn dropped_write_ticket_takes_its_parity_update_with_it() {
        let mut a = over_flaky(0);
        let ticket = a.submit_write(stripe_writes(0)).unwrap();
        assert_eq!(ticket.addrs(), &stripe_writes(0).iter().map(|(a, _)| *a).collect::<Vec<_>>()[..]);
        assert!(a.layer.stripes.is_empty(), "parity committed before the completion");
        drop(ticket);
        assert!(a.layer.stripes.is_empty(), "an abandoned ticket must never commit");
        assert_eq!(a.stats().parity_writes, 0);
        // The frames read back as unwritten, so the re-issue is a first write.
        a.write(stripe_writes(0)).unwrap();
        a.fail_disk(DiskId(1)).unwrap();
        assert_eq!(a.read(&[BlockAddr::new(DiskId(1), 0)]).unwrap()[0], expected(1, 0));
    }

    #[test]
    fn failed_inner_completion_commits_nothing() {
        let mut a = over_flaky(1);
        let ticket = a.submit_write(stripe_writes(0)).unwrap();
        let err = a.complete_write(ticket).unwrap_err();
        assert!(err.is_retryable(), "got {err:?}");
        assert!(a.layer.stripes.is_empty(), "parity committed despite the failed completion");
        assert_eq!(a.stats().parity_writes, 0);
    }

    #[test]
    fn retried_completion_commits_exactly_once() {
        let serial = {
            let mut a = over_flaky(0);
            a.write(stripe_writes(0)).unwrap();
            (a.stats().parity_writes, a.layer.stripes.clone())
        };
        let mut a = crate::retry::RetryingDiskArray::new(over_flaky(1), crate::retry::RetryPolicy::default());
        let ticket = a.submit_write(stripe_writes(0)).unwrap();
        a.complete_write(ticket).unwrap();
        assert_eq!(a.stats().write_retries, 1, "the completion was re-issued");
        assert_eq!(a.stats().parity_writes, serial.0, "one commit, as in the serial run");
        assert_eq!(a.inner().layer.stripes, serial.1);
    }

    #[test]
    fn overwrite_commits_before_submit_returns() {
        let mut a = over_flaky(0);
        a.write(stripe_writes(0)).unwrap();
        let before = a.layer.stripes.clone();
        let over = vec![(BlockAddr::new(DiskId(0), 0), blk(&[7, 8, 9]))];
        let ticket = a.submit_write(over).unwrap();
        assert!(ticket.parity.is_none(), "an overwrite leaves nothing owed");
        assert_ne!(a.layer.stripes, before, "parity must follow the data at once");
        a.complete_write(ticket).unwrap();
        a.fail_disk(DiskId(0)).unwrap();
        assert_eq!(a.read(&[BlockAddr::new(DiskId(0), 0)]).unwrap()[0], blk(&[7, 8, 9]));
    }

    #[test]
    fn permanent_fault_at_submit_is_absorbed_like_the_eager_path() {
        // Reads: disk 1 dies on the submit; the ticket comes back served.
        let mut a = seeded(3, 4);
        a.inner_mut().model_mut().kill_disk(DiskId(1));
        let (reads_before, _) = a.inner().observed();
        let addrs: Vec<_> = (0..3).map(|d| BlockAddr::new(DiskId(d), 2)).collect();
        let ticket = a.submit_read(&addrs).unwrap();
        assert!(!ticket.is_pending());
        assert_eq!(ticket.addrs(), &addrs[..]);
        for (disk, b) in a.complete_read(ticket).unwrap().iter().enumerate() {
            assert_eq!(*b, expected(disk, 2));
        }
        assert_eq!(a.dead_disks().collect::<Vec<_>>(), vec![DiskId(1)]);
        assert_eq!(a.stats().reconstructed_reads, 1);
        // The failed submit, the live pair, the sibling read: the inner
        // ordinals the eager retry loop always consumed.
        assert_eq!(a.inner().observed().0 - reads_before, 3);

        // Writes: disk 0 dies on write 1; its block survives via parity.
        let geom = Geometry::new(3, 4, 1000).unwrap();
        let inner = FaultyDiskArray::new(
            MemDiskArray::new(geom),
            FaultModel::none().kill_at(crate::error::FaultOp::Write, 1),
        );
        let mut a = ParityDiskArray::new(inner).unwrap();
        for d in 0..3 {
            a.alloc_contiguous(DiskId(d), 2).unwrap();
        }
        for slot in 0..2 {
            let ticket = a.submit_write(stripe_writes(slot)).unwrap();
            a.complete_write(ticket).unwrap();
        }
        assert_eq!(a.dead_disks().collect::<Vec<_>>(), vec![DiskId(0)]);
        assert_eq!(a.inner().observed().1, 3, "write 1 is issued twice: whole, then without disk 0");
        for slot in 0..2u64 {
            let addrs: Vec<_> = (0..3).map(|d| BlockAddr::new(DiskId(d), slot)).collect();
            for (disk, b) in a.read(&addrs).unwrap().iter().enumerate() {
                assert_eq!(*b, expected(disk, slot), "slot {slot} disk {disk}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn store_persists_parity_across_reopen_and_serves_degraded_resume() {
        let dir = tmpdir("store");
        let geom = Geometry::new(3, 4, 1000).unwrap();
        let store_path = dir.join("parity.bin");
        {
            let inner: FileDiskArray<U64Record> =
                FileDiskArray::create(geom, dir.join("disks")).unwrap();
            let mut a = ParityDiskArray::new(inner)
                .unwrap()
                .with_store(&store_path)
                .unwrap();
            for d in 0..3 {
                a.alloc_contiguous(DiskId(d), 2).unwrap();
            }
            for slot in 0..2u64 {
                let writes: Vec<_> = (0..3)
                    .map(|d| (BlockAddr::new(DiskId(d), slot), expected(d as usize, slot)))
                    .collect();
                a.write(writes).unwrap();
            }
        }
        // Reopen: watermarks recover from the store, old data reads
        // back, and a disk that died in the meantime is reconstructed
        // from the persisted parity.
        let inner: FileDiskArray<U64Record> =
            FileDiskArray::open(geom, dir.join("disks")).unwrap();
        let mut a = ParityDiskArray::new(inner)
            .unwrap()
            .with_store(&store_path)
            .unwrap();
        // The layer's one read decision.  Healthy: the read stays in
        // flight below and the hint is forwarded.
        let probe = [BlockAddr::new(DiskId(2), 1)];
        let ticket = a.submit_read(&probe).unwrap();
        assert!(ticket.is_pending(), "a healthy read must stay in flight below");
        assert_eq!(a.complete_read(ticket).unwrap()[0], expected(2, 1));
        a.prefetch(&[BlockAddr::new(DiskId(0), 0)]);
        assert_eq!(a.inner().prefetch_stats().issued, 1, "a healthy array forwards the hint");
        a.fail_disk(DiskId(2)).unwrap();
        for slot in 0..2u64 {
            let addrs: Vec<_> = (0..3).map(|d| BlockAddr::new(DiskId(d), slot)).collect();
            let got = a.read(&addrs).unwrap();
            for (disk, b) in got.iter().enumerate() {
                assert_eq!(*b, expected(disk, slot), "slot {slot} disk {disk}");
            }
        }
        assert_eq!(a.stats().reconstructed_reads, 2);
        // Degraded: the read is served at submit and the hint dropped.
        let ticket = a.submit_read(&probe).unwrap();
        assert!(!ticket.is_pending(), "a degraded read must be served at submit");
        assert_eq!(a.complete_read(ticket).unwrap()[0], expected(2, 1));
        a.prefetch(&[BlockAddr::new(DiskId(1), 0)]);
        assert_eq!(a.inner().prefetch_stats().issued, 1, "a degraded array drops the hint");
        // New allocations continue past the recovered watermark.
        assert_eq!(a.alloc_contiguous(DiskId(0), 1).unwrap(), 2);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn corrupt_store_is_refused() {
        let dir = tmpdir("store-corrupt");
        let geom = Geometry::new(2, 4, 1000).unwrap();
        let store_path = dir.join("parity.bin");
        {
            let inner: Mem = MemDiskArray::new(geom);
            let mut a = ParityDiskArray::new(inner)
                .unwrap()
                .with_store(&store_path)
                .unwrap();
            a.alloc_contiguous(DiskId(0), 1).unwrap();
            a.write(vec![(BlockAddr::new(DiskId(0), 0), blk(&[1, 2]))])
                .unwrap();
        }
        let mut bytes = std::fs::read(&store_path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        std::fs::write(&store_path, &bytes).unwrap();
        let inner: Mem = MemDiskArray::new(geom);
        let err = ParityDiskArray::new(inner)
            .unwrap()
            .with_store(&store_path)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, PdiskError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
