//! Fault injection: a scriptable fault model over any backend.
//!
//! Real disk arrays fail; a library someone would adopt must surface
//! those failures as errors, not panics or silent corruption.  This
//! module provides two layers:
//!
//! * [`FaultPlan`] — the simple deterministic script ("fail the n-th
//!   read"), kept for precise error-path tests;
//! * [`FaultModel`] — the general model: scripted *and* seeded-random
//!   faults, transient vs. permanent ([`FaultKind`]), per-disk fault
//!   rates, and detected-corruption faults.  Random faults are driven
//!   by a dedicated RNG seeded explicitly, so every faulty run is
//!   reproducible from `(workload seed, fault seed)`.
//!
//! Faulted operations charge **no I/O** to the inner backend (the
//! backend is never invoked), so the inner [`crate::IoStats`] always reflects
//! logical, successful operations; recovery work is visible separately
//! through [`crate::retry::RetryingDiskArray`]'s retry counters.

use crate::addr::{BlockAddr, DiskId};
use crate::backend::{DiskArray, ReadTicket, WriteTicket};
use crate::block::Block;
use crate::error::{FaultKind, FaultOp, PdiskError, Result};
use crate::layer::{Layer, Stack};
use crate::record::Record;
use crate::trace::TraceEvent;
use std::collections::BTreeSet;

/// Which operations to fail, counted from 0 over the wrapper's lifetime.
///
/// The plan is the deterministic core of the fault model: each set
/// ordinal fails exactly once, as a [`FaultKind::Transient`] fault.
/// Convert into a [`FaultModel`] (via `Into`) to add random faults,
/// permanent faults, or corruption.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the read with this ordinal (0-based), if set.
    pub fail_read: Option<u64>,
    /// Fail the write with this ordinal (0-based), if set.
    pub fail_write: Option<u64>,
    /// Fail the allocation with this ordinal (0-based), if set.
    pub fail_alloc: Option<u64>,
}

impl FaultPlan {
    /// Fail the `n`-th read.
    pub fn read(n: u64) -> Self {
        FaultPlan {
            fail_read: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Fail the `n`-th write.
    pub fn write(n: u64) -> Self {
        FaultPlan {
            fail_write: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Fail the `n`-th allocation.
    pub fn alloc(n: u64) -> Self {
        FaultPlan {
            fail_alloc: Some(n),
            ..FaultPlan::default()
        }
    }

    /// Also fail the `n`-th read.
    pub fn and_read(mut self, n: u64) -> Self {
        self.fail_read = Some(n);
        self
    }

    /// Also fail the `n`-th write.
    pub fn and_write(mut self, n: u64) -> Self {
        self.fail_write = Some(n);
        self
    }

    /// Also fail the `n`-th allocation.
    pub fn and_alloc(mut self, n: u64) -> Self {
        self.fail_alloc = Some(n);
        self
    }
}

/// A single scripted fault: fail the `ordinal`-th operation of kind
/// `op`, once, with the given persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    pub op: FaultOp,
    /// 0-based ordinal among operations of this kind.
    pub ordinal: u64,
    pub kind: FaultKind,
}

/// The general fault model: scripted one-shot faults plus seeded-random
/// transient faults at per-disk rates, plus detected-corruption faults.
///
/// Random fault decisions are made per *disk touched* by an operation,
/// so wider (more parallel) operations are proportionally more exposed
/// — matching the independent-disks failure assumption of the
/// Vitter–Shriver model this repo simulates.
#[derive(Debug, Clone)]
pub struct FaultModel {
    scripted: Vec<ScriptedFault>,
    /// Probability a read op faults transiently, per disk touched.
    read_rate: f64,
    /// Probability a write op faults transiently, per disk touched.
    write_rate: f64,
    /// Probability a read op reports detected corruption (a torn read
    /// caught by checksums), per disk touched.  Retryable.
    corrupt_rate: f64,
    /// Per-disk multipliers on the random rates; `1.0` when absent, so
    /// an empty vector means uniform exposure.
    disk_weights: Vec<f64>,
    /// Seed for random trials.  Each trial derives its draw as a pure
    /// hash of `(seed, op kind, per-kind ordinal, disk)` — never from a
    /// shared stream — so fault decisions depend only on *which*
    /// operation this is, not on how reads and writes interleave.  A
    /// pipelined sort submits the same Nth read and Nth write as a
    /// blocking one, so both see byte-identical fault sequences.
    seed: u64,
    /// Disks that have suffered a permanent fault; every later
    /// operation touching them fails permanently.
    dead: BTreeSet<DiskId>,
    /// Disks that are out of space; writes and allocations touching
    /// them fail with [`FaultKind::NoSpace`] until [`Self::free_space`]
    /// clears the condition.  Reads are unaffected — the data already
    /// on a full disk is still readable.
    full: BTreeSet<DiskId>,
    /// Read ordinals that return detected corruption, each exactly
    /// once.  The scripted counterpart of `corrupt_rate`, used by the
    /// chaos engine to place corruption deterministically.
    corrupt_at: Vec<u64>,
}

impl FaultModel {
    /// A model that never faults.
    pub fn none() -> Self {
        Self::random(0)
    }

    /// A model whose random draws are reproducible from `seed`.
    /// All rates start at zero; configure with the builder methods.
    pub fn random(seed: u64) -> Self {
        FaultModel {
            scripted: Vec::new(),
            read_rate: 0.0,
            write_rate: 0.0,
            corrupt_rate: 0.0,
            disk_weights: Vec::new(),
            seed,
            dead: BTreeSet::new(),
            full: BTreeSet::new(),
            corrupt_at: Vec::new(),
        }
    }

    /// Transient-fault probability per disk touched, for reads.
    pub fn with_read_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.read_rate = rate;
        self
    }

    /// Transient-fault probability per disk touched, for writes.
    pub fn with_write_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.write_rate = rate;
        self
    }

    /// Transient-fault probability per disk touched, both directions.
    pub fn with_rate(self, rate: f64) -> Self {
        self.with_read_rate(rate).with_write_rate(rate)
    }

    /// Detected-corruption probability per disk touched, for reads.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.corrupt_rate = rate;
        self
    }

    /// Per-disk multipliers on the random rates (index = disk id).
    /// Disks beyond the vector keep weight `1.0`; use e.g.
    /// `vec![4.0, 1.0, 1.0]` for one flaky disk in three.
    pub fn with_disk_weights(mut self, weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| *w >= 0.0),
            "weights must be non-negative"
        );
        self.disk_weights = weights;
        self
    }

    /// Add a scripted one-shot fault.
    pub fn with_scripted(mut self, fault: ScriptedFault) -> Self {
        self.scripted.push(fault);
        self
    }

    /// Script a permanent fault on the `ordinal`-th operation of kind
    /// `op`: the first disk that operation touches dies.
    pub fn kill_at(self, op: FaultOp, ordinal: u64) -> Self {
        self.with_scripted(ScriptedFault {
            op,
            ordinal,
            kind: FaultKind::Permanent,
        })
    }

    /// Script an out-of-space fault on the `ordinal`-th operation of
    /// kind `op`: the first disk that operation touches fills up and
    /// stays full (writes and allocations keep failing) until
    /// [`Self::free_space`] is called.
    pub fn fill_at(self, op: FaultOp, ordinal: u64) -> Self {
        self.with_scripted(ScriptedFault {
            op,
            ordinal,
            kind: FaultKind::NoSpace,
        })
    }

    /// Script a sync (fsync) failure on the `ordinal`-th durability
    /// barrier.  Sync ordinals are counted separately from reads,
    /// writes, and allocations, so scripting one does not shift any
    /// other fault schedule.
    pub fn fail_sync_at(self, ordinal: u64) -> Self {
        self.with_scripted(ScriptedFault {
            op: FaultOp::Sync,
            ordinal,
            kind: FaultKind::Transient,
        })
    }

    /// Script detected corruption on the `ordinal`-th read: the read
    /// fails its checksum exactly once; the retry gets the good copy.
    pub fn corrupt_at(mut self, ordinal: u64) -> Self {
        self.corrupt_at.push(ordinal);
        self
    }

    /// Disks currently marked permanently failed.
    pub fn dead_disks(&self) -> impl Iterator<Item = DiskId> + '_ {
        self.dead.iter().copied()
    }

    /// Administratively kill `disk` now: every later operation touching
    /// it fails permanently.  Used by tests and the CLI's `--kill-disk`
    /// to model a mid-sort head crash at an exact point.
    pub fn kill_disk(&mut self, disk: DiskId) {
        self.dead.insert(disk);
    }

    /// A spare has been attached in place of `disk`: the slot works
    /// again.  Models the swap that precedes an online rebuild; returns
    /// whether the disk was actually dead.
    pub fn attach_spare(&mut self, disk: DiskId) -> bool {
        self.dead.remove(&disk)
    }

    /// Disks currently out of space.
    pub fn full_disks(&self) -> impl Iterator<Item = DiskId> + '_ {
        self.full.iter().copied()
    }

    /// Administratively mark `disk` out of space now: writes and
    /// allocations touching it fail with [`FaultKind::NoSpace`] until
    /// [`Self::free_space`] is called.  Reads keep working.
    pub fn fill_disk(&mut self, disk: DiskId) {
        self.full.insert(disk);
    }

    /// The operator freed space on `disk` (deleted files, grew the
    /// volume): writes work again.  Returns whether the disk was
    /// actually full.
    pub fn free_space(&mut self, disk: DiskId) -> bool {
        self.full.remove(&disk)
    }

    fn weight(&self, disk: DiskId) -> f64 {
        self.disk_weights.get(disk.0 as usize).copied().unwrap_or(1.0)
    }

    fn rate_for(&self, op: FaultOp) -> f64 {
        match op {
            FaultOp::Read => self.read_rate,
            FaultOp::Write => self.write_rate,
            FaultOp::Alloc | FaultOp::Sync => 0.0,
        }
    }

    /// A uniform `[0, 1)` draw that is a pure function of
    /// `(seed, op, ordinal, disk, salt)`: splitmix64 over the packed
    /// trial identity.  `salt` separates the transient and corruption
    /// trials an op makes against the same disk.
    fn trial(&self, op: FaultOp, ordinal: u64, disk: DiskId, salt: u64) -> f64 {
        let op_tag = match op {
            FaultOp::Read => 1u64,
            FaultOp::Write => 2,
            FaultOp::Alloc => 3,
            FaultOp::Sync => 4,
        };
        let mut x = self
            .seed
            .wrapping_add(ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(op_tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(u64::from(disk.0).wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(salt);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide the fate of the `ordinal`-th operation of kind `op`
    /// touching `disks`.  `Ok(())` lets the operation proceed.
    fn check(&mut self, op: FaultOp, ordinal: u64, disks: &[DiskId]) -> Result<()> {
        // A dead disk fails everything addressed to it, forever.
        if let Some(&disk) = disks.iter().find(|d| self.dead.contains(d)) {
            return Err(PdiskError::Fault {
                kind: FaultKind::Permanent,
                op,
                disk: Some(disk),
            });
        }
        // A full disk fails writes and allocations (reads still work)
        // until the operator frees space.
        if matches!(op, FaultOp::Write | FaultOp::Alloc) {
            if let Some(&disk) = disks.iter().find(|d| self.full.contains(d)) {
                return Err(PdiskError::Fault {
                    kind: FaultKind::NoSpace,
                    op,
                    disk: Some(disk),
                });
            }
        }
        // Scripted faults fire exactly once each.
        if let Some(pos) = self
            .scripted
            .iter()
            .position(|s| s.op == op && s.ordinal == ordinal)
        {
            let fault = self.scripted.swap_remove(pos);
            let disk = disks.first().copied();
            match fault.kind {
                // Sticky kinds latch their state so every later
                // operation sees the condition, not just this one.
                FaultKind::Permanent => {
                    if let Some(d) = disk {
                        self.dead.insert(d);
                    }
                }
                FaultKind::NoSpace => {
                    if let Some(d) = disk {
                        self.full.insert(d);
                    }
                }
                FaultKind::Transient => {}
            }
            return Err(PdiskError::Fault {
                kind: fault.kind,
                op,
                disk,
            });
        }
        // Scripted corruption fires exactly once per listed ordinal.
        if op == FaultOp::Read {
            if let Some(pos) = self.corrupt_at.iter().position(|&n| n == ordinal) {
                self.corrupt_at.swap_remove(pos);
                let disk = disks.first().map_or(0, |d| d.0);
                return Err(PdiskError::Corrupt(format!(
                    "injected checksum mismatch on disk {disk}"
                )));
            }
        }
        // Random transient faults, one independent trial per disk.
        let rate = self.rate_for(op);
        if rate > 0.0 {
            for &disk in disks {
                let p = (rate * self.weight(disk)).min(1.0);
                if p > 0.0 && self.trial(op, ordinal, disk, 0) < p {
                    return Err(PdiskError::Fault {
                        kind: FaultKind::Transient,
                        op,
                        disk: Some(disk),
                    });
                }
            }
        }
        // Detected corruption: the read completes but fails its
        // checksum.  Retryable — re-reading gets the good copy.
        if op == FaultOp::Read && self.corrupt_rate > 0.0 {
            for &disk in disks {
                let p = (self.corrupt_rate * self.weight(disk)).min(1.0);
                if p > 0.0 && self.trial(op, ordinal, disk, 1) < p {
                    return Err(PdiskError::Corrupt(format!(
                        "injected checksum mismatch on disk {}",
                        disk.0
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::none()
    }
}

impl From<FaultPlan> for FaultModel {
    fn from(plan: FaultPlan) -> Self {
        let mut model = FaultModel::none();
        if let Some(n) = plan.fail_read {
            model.scripted.push(ScriptedFault {
                op: FaultOp::Read,
                ordinal: n,
                kind: FaultKind::Transient,
            });
        }
        if let Some(n) = plan.fail_write {
            model.scripted.push(ScriptedFault {
                op: FaultOp::Write,
                ordinal: n,
                kind: FaultKind::Transient,
            });
        }
        if let Some(n) = plan.fail_alloc {
            model.scripted.push(ScriptedFault {
                op: FaultOp::Alloc,
                ordinal: n,
                kind: FaultKind::Transient,
            });
        }
        model
    }
}

/// The layer that injects failures per a [`FaultModel`]: the model and
/// the per-kind operation ordinals it is consulted with.  A faulted
/// operation never reaches the array below.  What is *not* an operation
/// consumes no ordinal and passes untouched: a prefetch hint, a ticket's
/// completion (the decision was made at its submit), and a scrub, which
/// verifies the media below the injector — routing it through the read
/// hook would make the sort's fault schedule depend on whether a scrub
/// ran.
#[derive(Debug)]
pub struct Faulty {
    model: FaultModel,
    reads_seen: u64,
    writes_seen: u64,
    allocs_seen: u64,
    syncs_seen: u64,
}

/// `inner` under the fault layer.
pub type FaultyDiskArray<R, A> = Stack<R, Faulty, A>;

impl<R: Record, A: DiskArray<R>> FaultyDiskArray<R, A> {
    /// Wrap `inner` with the given plan or model.
    pub fn new(inner: A, model: impl Into<FaultModel>) -> Self {
        Stack::from_parts(inner, Faulty::new(model.into()))
    }

    /// Operations observed so far (reads, writes).
    pub fn observed(&self) -> (u64, u64) {
        (self.layer.reads_seen, self.layer.writes_seen)
    }

    /// [`Faulty::observed_ops`].
    pub fn observed_ops(&self) -> (u64, u64, u64, u64) {
        self.layer.observed_ops()
    }

    /// [`Faulty::model`].
    pub fn model(&self) -> &FaultModel {
        self.layer.model()
    }

    /// Mutable access to the fault model, e.g. to kill a disk at an
    /// exact point in a sort or to attach a spare before a rebuild.
    pub fn model_mut(&mut self) -> &mut FaultModel {
        &mut self.layer.model
    }
}

impl Faulty {
    pub(crate) fn new(model: FaultModel) -> Self {
        Faulty {
            model,
            reads_seen: 0,
            writes_seen: 0,
            allocs_seen: 0,
            syncs_seen: 0,
        }
    }

    /// Every per-op ordinal counter: (reads, writes, allocs, syncs).
    /// A fault-free dry run exposes these so a schedule generator can
    /// draw scripted ordinals that actually land inside the sort.
    pub fn observed_ops(&self) -> (u64, u64, u64, u64) {
        (self.reads_seen, self.writes_seen, self.allocs_seen, self.syncs_seen)
    }

    /// The fault model, e.g. to inspect which disks have died.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Consult the model for the `ordinal`-th `op` touching `disks`; an
    /// injected fault is recorded in the trace, if tracing is active.
    fn decide<R: Record>(
        &mut self,
        inner: &impl DiskArray<R>,
        op: FaultOp,
        ordinal: u64,
        disks: &[DiskId],
    ) -> Result<()> {
        let fault = self.model.check(op, ordinal, disks);
        if let (Err(err), Some(sink)) = (&fault, inner.trace_sink()) {
            let (kind, disk) = match err {
                PdiskError::Fault { kind, disk, .. } => (*kind, *disk),
                // Injected corruption is retryable, i.e. transient.
                _ => (FaultKind::Transient, None),
            };
            sink.emit(TraceEvent::Fault { op, kind, disk });
        }
        fault
    }
}

impl<R: Record> Layer<R> for Faulty {
    fn alloc_contiguous(&mut self, inner: &mut impl DiskArray<R>, disk: DiskId, count: u64) -> Result<u64> {
        let ordinal = self.allocs_seen;
        self.allocs_seen += 1;
        self.decide(inner, FaultOp::Alloc, ordinal, &[disk])?;
        inner.alloc_contiguous(disk, count)
    }

    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> Result<ReadTicket<R>> {
        if addrs.is_empty() {
            return inner.submit_read(addrs);
        }
        // The fault decision is made at submit time against the per-read
        // ordinal, so for a given seed the Nth scheduled read fails
        // identically whether the engine runs serial or pipelined.
        let ordinal = self.reads_seen;
        self.reads_seen += 1;
        let disks: Vec<DiskId> = addrs.iter().map(|a| a.disk).collect();
        self.decide(inner, FaultOp::Read, ordinal, &disks)?;
        inner.submit_read(addrs)
    }

    fn submit_write(
        &mut self,
        inner: &mut impl DiskArray<R>,
        writes: Vec<(BlockAddr, Block<R>)>,
    ) -> Result<WriteTicket> {
        if writes.is_empty() {
            return inner.submit_write(writes);
        }
        // Decided at submit against the per-write ordinal, as for reads.
        let ordinal = self.writes_seen;
        self.writes_seen += 1;
        let disks: Vec<DiskId> = writes.iter().map(|(a, _)| a.disk).collect();
        self.decide(inner, FaultOp::Write, ordinal, &disks)?;
        inner.submit_write(writes)
    }

    fn sync(&mut self, inner: &mut impl DiskArray<R>) -> Result<()> {
        // A durability barrier is not a counted parallel op; it has its
        // own ordinal space, so seeded read/write/alloc fault sequences
        // are unchanged by how often the sorter checkpoints.  Only
        // *scripted* sync faults can fire here (random rates never
        // apply to sync), modelling fsyncgate: the barrier fails, the
        // dirty pages may be gone, and the caller must treat the data
        // it tried to persist as suspect rather than retry the sync.
        let ordinal = self.syncs_seen;
        self.syncs_seen += 1;
        self.decide(inner, FaultOp::Sync, ordinal, &[])?;
        inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Forecast;
    use crate::geometry::Geometry;
    use crate::mem::MemDiskArray;
    use crate::record::U64Record;

    fn setup(
        model: impl Into<FaultModel>,
    ) -> FaultyDiskArray<U64Record, MemDiskArray<U64Record>> {
        let geom = Geometry::new(2, 2, 100).unwrap();
        let mut inner: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        for d in 0..2 {
            let o = inner.alloc_contiguous(DiskId(d), 4).unwrap();
            for i in 0..4 {
                inner
                    .write(vec![(
                        BlockAddr::new(DiskId(d), o + i),
                        Block::new(vec![U64Record(i)], Forecast::Next(u64::MAX)),
                    )])
                    .unwrap();
            }
        }
        inner.reset_stats();
        FaultyDiskArray::new(inner, model)
    }

    #[test]
    fn fails_exactly_the_planned_read() {
        let mut a = setup(FaultPlan::read(1));
        let addr = BlockAddr::new(DiskId(0), 0);
        assert!(a.read(&[addr]).is_ok()); // read 0
        assert!(matches!(
            a.read(&[addr]),
            Err(PdiskError::Fault {
                kind: FaultKind::Transient,
                op: FaultOp::Read,
                ..
            })
        )); // read 1
        assert!(a.read(&[addr]).is_ok()); // read 2: back to normal
        assert_eq!(a.observed().0, 3);
    }

    #[test]
    fn fails_exactly_the_planned_write() {
        let mut a = setup(FaultPlan::write(0));
        let block = Block::new(vec![U64Record(9)], Forecast::Next(u64::MAX));
        let addr = BlockAddr::new(DiskId(0), 0);
        assert!(a.write(vec![(addr, block.clone())]).is_err());
        assert!(a.write(vec![(addr, block)]).is_ok());
    }

    #[test]
    fn nth_write_fails_identically_serial_or_split_phase() {
        let outcomes = |split: bool| -> Vec<bool> {
            let mut a = setup(
                FaultModel::random(21)
                    .with_write_rate(0.3)
                    .with_scripted(ScriptedFault {
                        op: FaultOp::Write,
                        ordinal: 5,
                        kind: FaultKind::Transient,
                    }),
            );
            (0..64u64)
                .map(|i| {
                    let addr = BlockAddr::new(DiskId(0), i % 4);
                    let w = vec![(addr, Block::new(vec![U64Record(i)], Forecast::Next(u64::MAX)))];
                    if split {
                        // A hint between two writes must not shift the schedule.
                        a.prefetch(&[addr]);
                        a.submit_write(w).and_then(|t| a.complete_write(t)).is_err()
                    } else {
                        a.write(w).is_err()
                    }
                })
                .collect()
        };
        let serial = outcomes(false);
        assert_eq!(serial, outcomes(true), "write N must meet the same fate either way");
        assert!(serial[5], "the scripted fault lands on write 5");
        assert!(serial.iter().any(|f| !f), "the rate is not 1");
    }

    #[test]
    fn fails_the_planned_alloc() {
        let mut a = setup(FaultPlan::alloc(0));
        assert!(matches!(
            a.alloc_contiguous(DiskId(0), 1),
            Err(PdiskError::Fault {
                op: FaultOp::Alloc,
                ..
            })
        ));
        assert!(a.alloc_contiguous(DiskId(0), 1).is_ok());
    }

    #[test]
    fn combined_plan_fires_each_once() {
        let mut a = setup(FaultPlan::read(0).and_write(1));
        let addr = BlockAddr::new(DiskId(0), 0);
        let block = Block::new(vec![U64Record(9)], Forecast::Next(u64::MAX));
        assert!(a.read(&[addr]).is_err());
        assert!(a.read(&[addr]).is_ok());
        assert!(a.write(vec![(addr, block.clone())]).is_ok()); // write 0
        assert!(a.write(vec![(addr, block.clone())]).is_err()); // write 1
        assert!(a.write(vec![(addr, block)]).is_ok());
    }

    #[test]
    fn injected_failure_charges_no_io() {
        let mut a = setup(FaultPlan::read(0));
        let _ = a.read(&[BlockAddr::new(DiskId(0), 0)]);
        assert_eq!(a.stats().read_ops, 0, "failed op must not be counted");
    }

    #[test]
    fn passthrough_without_plan() {
        let mut a = setup(FaultPlan::default());
        for _ in 0..5 {
            assert!(a.read(&[BlockAddr::new(DiskId(0), 0)]).is_ok());
        }
        assert_eq!(a.stats().read_ops, 5);
    }

    #[test]
    fn permanent_fault_kills_the_disk() {
        let mut a = setup(FaultModel::none().kill_at(FaultOp::Read, 1));
        let d0 = BlockAddr::new(DiskId(0), 0);
        let d1 = BlockAddr::new(DiskId(1), 0);
        assert!(a.read(&[d0]).is_ok());
        assert!(matches!(
            a.read(&[d0]),
            Err(PdiskError::Fault {
                kind: FaultKind::Permanent,
                ..
            })
        ));
        // Disk 0 is dead for good; disk 1 still works.
        for _ in 0..3 {
            assert!(matches!(
                a.read(&[d0]),
                Err(PdiskError::Fault {
                    kind: FaultKind::Permanent,
                    ..
                })
            ));
        }
        assert!(a.read(&[d1]).is_ok());
        assert_eq!(a.model().dead_disks().collect::<Vec<_>>(), vec![DiskId(0)]);
        // Writes and allocs on the dead disk fail too.
        let block = Block::new(vec![U64Record(9)], Forecast::Next(u64::MAX));
        assert!(a.write(vec![(d0, block)]).is_err());
        assert!(a.alloc_contiguous(DiskId(0), 1).is_err());
    }

    #[test]
    fn kill_disk_and_attach_spare_round_trip() {
        let mut a = setup(FaultModel::none());
        let d0 = BlockAddr::new(DiskId(0), 0);
        assert!(a.read(&[d0]).is_ok());
        a.model_mut().kill_disk(DiskId(0));
        assert!(matches!(
            a.read(&[d0]),
            Err(PdiskError::Fault {
                kind: FaultKind::Permanent,
                disk: Some(DiskId(0)),
                ..
            })
        ));
        assert!(a.model_mut().attach_spare(DiskId(0)), "disk 0 was dead");
        assert!(!a.model_mut().attach_spare(DiskId(0)), "already revived");
        assert!(a.read(&[d0]).is_ok(), "spare serves the slot again");
    }

    #[test]
    fn no_space_is_sticky_until_freed_and_reads_still_work() {
        let mut a = setup(FaultModel::none().fill_at(FaultOp::Write, 0));
        let addr = BlockAddr::new(DiskId(0), 0);
        let block = Block::new(vec![U64Record(9)], Forecast::Next(u64::MAX));
        // The scripted fault fills disk 0; writes keep failing.
        for _ in 0..3 {
            assert!(matches!(
                a.write(vec![(addr, block.clone())]),
                Err(PdiskError::Fault {
                    kind: FaultKind::NoSpace,
                    op: FaultOp::Write,
                    disk: Some(DiskId(0)),
                })
            ));
        }
        assert!(a.alloc_contiguous(DiskId(0), 1).is_err(), "allocs fail too");
        // Reads of the full disk still succeed, as does I/O elsewhere.
        assert!(a.read(&[addr]).is_ok());
        assert!(a.write(vec![(BlockAddr::new(DiskId(1), 0), block.clone())]).is_ok());
        assert_eq!(a.model().full_disks().collect::<Vec<_>>(), vec![DiskId(0)]);
        // Freeing space repairs the condition.
        assert!(a.model_mut().free_space(DiskId(0)), "disk 0 was full");
        assert!(!a.model_mut().free_space(DiskId(0)), "already freed");
        assert!(a.write(vec![(addr, block)]).is_ok());
    }

    #[test]
    fn scripted_sync_fault_fires_once_on_its_own_ordinal_space() {
        let mut a = setup(FaultModel::none().fail_sync_at(1));
        let addr = BlockAddr::new(DiskId(0), 0);
        // Reads and writes never consume sync ordinals.
        assert!(a.read(&[addr]).is_ok());
        assert!(a.sync().is_ok()); // sync 0
        assert!(matches!(
            a.sync(), // sync 1
            Err(PdiskError::Fault {
                kind: FaultKind::Transient,
                op: FaultOp::Sync,
                disk: None,
            })
        ));
        assert!(a.sync().is_ok()); // sync 2: one-shot
        // The read fault schedule was not shifted by the syncs.
        assert!(a.read(&[addr]).is_ok());
    }

    #[test]
    fn scripted_corruption_fires_exactly_once() {
        let mut a = setup(FaultModel::none().corrupt_at(1));
        let addr = BlockAddr::new(DiskId(0), 0);
        assert!(a.read(&[addr]).is_ok()); // read 0
        assert!(matches!(a.read(&[addr]), Err(PdiskError::Corrupt(_)))); // read 1
        assert!(a.read(&[addr]).is_ok()); // read 2: the good copy
    }

    #[test]
    fn random_faults_are_reproducible_and_rate_bounded() {
        let run = |seed: u64| -> Vec<bool> {
            let mut a = setup(FaultModel::random(seed).with_read_rate(0.3));
            (0..200)
                .map(|_| a.read(&[BlockAddr::new(DiskId(0), 0)]).is_err())
                .collect()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same fault seed must give the same fault stream");
        assert_ne!(a, c, "different fault seeds should differ");
        let faults = a.iter().filter(|&&x| x).count();
        // 200 trials at p = 0.3: expect ~60, allow wide slack.
        assert!((20..120).contains(&faults), "got {faults} faults");
    }

    #[test]
    fn disk_weights_skew_fault_exposure() {
        let mut a = setup(
            FaultModel::random(5)
                .with_read_rate(0.2)
                .with_disk_weights(vec![0.0, 5.0]),
        );
        let mut failures = [0u32; 2];
        for _ in 0..200 {
            for d in 0..2u32 {
                if a.read(&[BlockAddr::new(DiskId(d), 0)]).is_err() {
                    failures[d as usize] += 1;
                }
            }
        }
        assert_eq!(failures[0], 0, "weight 0 disables faults on disk 0");
        assert!(failures[1] > 50, "weight 5 amplifies disk 1 faults");
    }

    #[test]
    fn corruption_faults_surface_as_corrupt() {
        let mut a = setup(FaultModel::random(9).with_corrupt_rate(1.0));
        assert!(matches!(
            a.read(&[BlockAddr::new(DiskId(0), 0)]),
            Err(PdiskError::Corrupt(_))
        ));
    }
}
