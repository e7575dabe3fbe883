//! Typed, located invariant violations.
//!
//! Every violation names the event that exposed it (sequence number and
//! pass tag) plus the disks, runs, blocks, or stripes involved, so a
//! failing check reads like a line in the paper's proof being broken:
//! "event #812 (pass 2): parallel read touches disk 3 twice".

use pdisk::{BlockAddr, DiskId};

/// Identity of a block inside one merge: `(min key, run, block idx)` —
/// the total order every rank computation uses.
pub type BlockRef = (u64, u32, u64);

/// One broken model rule, located at the event that exposed it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Violation {
    /// Sequence number of the offending trace event.
    pub seq: u64,
    /// Pass tag the event carried (0 = run formation).
    pub pass: u64,
    /// Which rule was broken, and how.
    pub kind: ViolationKind,
}

impl Violation {
    pub(crate) fn new(seq: u64, pass: u64, kind: ViolationKind) -> Self {
        Violation { seq, pass, kind }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event #{} (pass {}): {}", self.seq, self.pass, self.kind)
    }
}

impl std::error::Error for Violation {}

/// The model rules the checker enforces, each with the evidence needed
/// to reproduce the judgement by hand.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ViolationKind {
    /// A single parallel I/O moved two blocks on one disk — the defining
    /// constraint of the Vitter–Shriver model (one block per disk per
    /// operation).
    DuplicateDiskInOp {
        /// The operation kind ("read", "write", "phys-read", ...).
        op: &'static str,
        /// The disk touched more than once.
        disk: DiskId,
    },
    /// An operation named a disk outside the geometry.
    DiskOutOfRange {
        /// The operation kind.
        op: &'static str,
        /// The out-of-range disk.
        disk: DiskId,
        /// Number of disks in the geometry.
        d: usize,
    },
    /// An annotation event arrived outside the context it needs (e.g. a
    /// `SchedRead` with no merge open, or a nested `MergeBegin`).
    UnexpectedEvent {
        /// What arrived.
        event: &'static str,
        /// Why it could not be applied.
        reason: &'static str,
    },
    /// An annotation referenced a run id or block index outside the
    /// announced merge input.
    RunOutOfRange {
        /// The run id referenced.
        run: u32,
        /// Number of input runs in the merge.
        r: usize,
    },
    /// A forecasting entry was implanted on a disk other than the
    /// block's home disk under cyclic striping (§3: block `i` of a run
    /// starting on `d_r` lives on `(d_r + i) mod D`).
    OffHomeDisk {
        /// What placed the block ("implant", "target", "flush").
        role: &'static str,
        /// The run.
        run: u32,
        /// The block index.
        idx: u64,
        /// Where the event said the block is.
        got: DiskId,
        /// Where cyclic striping puts it.
        home: DiskId,
    },
    /// A parallel read was initiated while `M_D` still held staged
    /// blocks — reads require free staging buffers (§5.5).
    ReadWhileStagingOccupied {
        /// Blocks still staged.
        staged: usize,
    },
    /// A buffer pool exceeded its Definition 3 capacity
    /// (`|F| ≤ |M_R|`, `|M_D| ≤ D`), or a merge's whole partition
    /// exceeded memory (pool "M", capacity `M/B`).
    BufferOverCommit {
        /// The pool ("M_R", "M_D", "M").
        pool: &'static str,
        /// Occupancy reached.
        len: usize,
        /// The model capacity.
        cap: usize,
    },
    /// The trace's recorded buffer occupancy disagrees with the
    /// checker's independent replay.
    OccupancyTagMismatch {
        /// The pool ("M_R", "M_D").
        pool: &'static str,
        /// What the trace recorded.
        tagged: usize,
        /// What the replay computed.
        replayed: usize,
    },
    /// Rule 2c flushed a block that was not the farthest-future
    /// (largest-keyed) block of `F` — breaking Lemma 2's guarantee that
    /// the `R + OutRank − 1` smallest blocks survive.
    FlushNotFarthestFuture {
        /// The block flushed.
        flushed: BlockRef,
        /// The block rule 2c requires (current maximum of `F`).
        expected: BlockRef,
    },
    /// A flushed block was not buffered in `M_R` at flush time.
    FlushedBlockNotBuffered {
        /// The block claimed flushed.
        flushed: BlockRef,
    },
    /// The number of blocks flushed disagrees with rule 2c's formula
    /// (`extra − OutRank + 1` when `OutRank ≤ extra`, else zero).
    FlushCountMismatch {
        /// Blocks rule 2c flushes here.
        expected: usize,
        /// Blocks the trace flushed.
        got: usize,
    },
    /// A read target was not the forecast-minimal block of its disk —
    /// the fetch must take exactly `min H_i[j]` per disk (§4).
    NotForecastMinimal {
        /// The disk read.
        disk: DiskId,
        /// The block fetched.
        got: BlockRef,
        /// The disk's actual forecast minimum, if it had one.
        expected: Option<BlockRef>,
    },
    /// A disk with pending blocks was left out of the fetch set `S_t`
    /// (the read must take the smallest block from *every* disk that
    /// has one).
    FetchSetIncomplete {
        /// A disk with a forecast entry but no target.
        disk: DiskId,
        /// That disk's forecast minimum.
        expected: BlockRef,
    },
    /// The scheduled targets disagree with the addresses the preceding
    /// logical read actually fetched.
    ReadMismatch {
        /// The target block.
        block: BlockRef,
        /// Its address under the announced run layout.
        disk: DiskId,
        /// Slot on that disk.
        offset: u64,
    },
    /// An arriving block's leading/staged routing disagrees with
    /// exchange rule 2 of §5.2 (straight to `M_L` iff its run awaits
    /// exactly this block).
    ToLeadingMismatch {
        /// The block.
        block: BlockRef,
        /// What the replay expects.
        expected: bool,
    },
    /// A `Promote` event does not match the block the replay just moved
    /// to the leading buffer.
    PromoteMismatch {
        /// The promoted run.
        run: u32,
        /// The promoted block index.
        idx: u64,
    },
    /// A leading block depleted out of order (block `i + 1` cannot
    /// deplete before block `i` of the same run).
    DepleteOutOfOrder {
        /// The run.
        run: u32,
        /// The index the trace depleted.
        got: u64,
        /// The index the replay expected.
        expected: u64,
    },
    /// A run awaits a block from disk, but the forecasting table has no
    /// (or the wrong) entry for it — the merge would wedge.
    AwaitWithoutForecast {
        /// The run.
        run: u32,
        /// The awaited block index.
        idx: u64,
    },
    /// The merge ended with blocks still buffered or unread.
    MergeIncomplete {
        /// Blocks left in `M_R`.
        fset: usize,
        /// Blocks left in `M_D`.
        staged: usize,
        /// Forecast entries (unread blocks) remaining.
        unread: usize,
    },
    /// An output-run write broke perfect `D`-striping: block `i` of a
    /// run starting on `d_r` must land on `(d_r + i) mod D`.
    RunWriteNotStriped {
        /// Block index within the output run.
        idx: u64,
        /// Disk the write targeted.
        got: DiskId,
        /// Disk the cyclic layout requires.
        expected: DiskId,
    },
    /// A non-final output stripe was written below full `D` width —
    /// output runs must use perfect write parallelism.
    RunStripeNotFullWidth {
        /// Stripe ordinal within the run.
        stripe: usize,
        /// Blocks the write moved.
        width: usize,
        /// The full width `D`.
        d: usize,
    },
    /// The run writer's announced length disagrees with the blocks the
    /// trace wrote.
    RunLengthMismatch {
        /// `len_blocks` announced at `RunEnd`.
        announced: u64,
        /// Blocks actually written between `RunStart` and `RunEnd`.
        written: u64,
    },
    /// A parity block was placed on the same disk as one of its
    /// stripe's data blocks — one dead disk would then lose both.
    ParityOnDataDisk {
        /// The stripe.
        stripe: u64,
        /// The disk holding both data and parity.
        disk: DiskId,
    },
    /// The parity disk of a stripe is not the rotating-parity disk
    /// `stripe mod D`.
    ParityPlacementMismatch {
        /// The stripe.
        stripe: u64,
        /// The disk the trace used.
        got: DiskId,
        /// The disk rotation requires.
        expected: DiskId,
    },
    /// A reconstruction read its own target as a sibling.
    ReconstructReadsTarget {
        /// The stripe.
        stripe: u64,
        /// The disk being reconstructed.
        disk: DiskId,
    },
    /// A parallel read touched a block whose logical write was never
    /// followed by a durable completion (`WriteDurable`) — after a
    /// crash, such a frame may be torn or absent, so nothing
    /// recoverable may depend on it.
    ReadBeforeDurableWrite {
        /// The address read inside the durability gap.
        addr: BlockAddr,
    },
    /// A counter in [`pdisk::IoStats`] disagrees with the events in the
    /// trace (e.g. parity work leaking into the logical-op counters).
    StatsMismatch {
        /// Which counter.
        counter: &'static str,
        /// Value implied by the trace.
        from_trace: u64,
        /// Value the stats report.
        from_stats: u64,
    },
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn block(b: &BlockRef) -> String {
            format!("block {} of run {} (key {})", b.2, b.1, b.0)
        }
        match self {
            ViolationKind::DuplicateDiskInOp { op, disk } => {
                write!(f, "parallel {op} touches {disk} twice")
            }
            ViolationKind::DiskOutOfRange { op, disk, d } => {
                write!(f, "{op} names {disk}, but the geometry has {d} disks")
            }
            ViolationKind::UnexpectedEvent { event, reason } => {
                write!(f, "unexpected {event} event: {reason}")
            }
            ViolationKind::RunOutOfRange { run, r } => {
                write!(f, "run {run} referenced, but the merge has {r} input runs")
            }
            ViolationKind::OffHomeDisk { role, run, idx, got, home } => write!(
                f,
                "{role} places block {idx} of run {run} on {got}, but cyclic striping homes it on {home}"
            ),
            ViolationKind::ReadWhileStagingOccupied { staged } => write!(
                f,
                "parallel read initiated with {staged} block(s) still staged in M_D"
            ),
            ViolationKind::BufferOverCommit { pool, len, cap } => {
                write!(f, "{pool} holds {len} blocks, capacity is {cap}")
            }
            ViolationKind::OccupancyTagMismatch { pool, tagged, replayed } => write!(
                f,
                "trace records |{pool}| = {tagged}, independent replay computes {replayed}"
            ),
            ViolationKind::FlushNotFarthestFuture { flushed, expected } => write!(
                f,
                "flushed {}, but rule 2c evicts the farthest-future block, {}",
                block(flushed),
                block(expected)
            ),
            ViolationKind::FlushedBlockNotBuffered { flushed } => {
                write!(f, "flushed {}, which is not buffered in M_R", block(flushed))
            }
            ViolationKind::FlushCountMismatch { expected, got } => write!(
                f,
                "flush evicted {got} block(s); rule 2c's formula gives {expected}"
            ),
            ViolationKind::NotForecastMinimal { disk, got, expected } => match expected {
                Some(e) => write!(
                    f,
                    "read fetched {} from {disk}, but its forecast minimum is {}",
                    block(got),
                    block(e)
                ),
                None => write!(
                    f,
                    "read fetched {} from {disk}, which has no pending blocks",
                    block(got)
                ),
            },
            ViolationKind::FetchSetIncomplete { disk, expected } => write!(
                f,
                "fetch set skips {disk}, whose forecast minimum is {}",
                block(expected)
            ),
            ViolationKind::ReadMismatch { block: b, disk, offset } => write!(
                f,
                "scheduler targeted {} at {disk} slot {offset}, absent from the preceding read",
                block(b)
            ),
            ViolationKind::ToLeadingMismatch { block: b, expected } => write!(
                f,
                "{} routed {} the leading buffer; exchange rule 2 says {}",
                block(b),
                if *expected { "past" } else { "into" },
                if *expected { "into" } else { "past" }
            ),
            ViolationKind::PromoteMismatch { run, idx } => write!(
                f,
                "promote of block {idx} of run {run} does not match the replayed exchange"
            ),
            ViolationKind::DepleteOutOfOrder { run, got, expected } => write!(
                f,
                "run {run} depleted block {got}; its leading block is {expected}"
            ),
            ViolationKind::AwaitWithoutForecast { run, idx } => write!(
                f,
                "run {run} awaits block {idx} with no matching forecast entry — the merge wedges"
            ),
            ViolationKind::MergeIncomplete { fset, staged, unread } => write!(
                f,
                "merge ended with {fset} block(s) in M_R, {staged} staged, {unread} unread"
            ),
            ViolationKind::RunWriteNotStriped { idx, got, expected } => write!(
                f,
                "output block {idx} written to {got}; cyclic striping requires {expected}"
            ),
            ViolationKind::RunStripeNotFullWidth { stripe, width, d } => write!(
                f,
                "non-final output stripe {stripe} wrote {width} block(s), not the full width {d}"
            ),
            ViolationKind::RunLengthMismatch { announced, written } => write!(
                f,
                "run closed at {announced} blocks, but {written} were written"
            ),
            ViolationKind::ParityOnDataDisk { stripe, disk } => write!(
                f,
                "stripe {stripe} holds data and parity on the same {disk}"
            ),
            ViolationKind::ParityPlacementMismatch { stripe, got, expected } => write!(
                f,
                "stripe {stripe} parity on {got}; rotation places it on {expected}"
            ),
            ViolationKind::ReconstructReadsTarget { stripe, disk } => write!(
                f,
                "reconstruction of {disk} in stripe {stripe} lists its own target as a sibling"
            ),
            ViolationKind::ReadBeforeDurableWrite { addr } => write!(
                f,
                "read of {addr:?} inside its durability gap: the write was \
                 submitted but never durably completed"
            ),
            ViolationKind::StatsMismatch { counter, from_trace, from_stats } => write!(
                f,
                "IoStats::{counter} is {from_stats}, but the trace implies {from_trace}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_location() {
        let v = Violation::new(
            812,
            2,
            ViolationKind::DuplicateDiskInOp {
                op: "read",
                disk: DiskId(3),
            },
        );
        let text = v.to_string();
        assert!(text.contains("#812"), "{text}");
        assert!(text.contains("pass 2"), "{text}");
        assert!(text.contains("d3"), "{text}");
    }

    #[test]
    fn every_kind_renders() {
        let kinds = vec![
            ViolationKind::DiskOutOfRange { op: "write", disk: DiskId(9), d: 4 },
            ViolationKind::FlushNotFarthestFuture {
                flushed: (10, 1, 2),
                expected: (90, 0, 7),
            },
            ViolationKind::NotForecastMinimal {
                disk: DiskId(1),
                got: (5, 0, 1),
                expected: None,
            },
            ViolationKind::BufferOverCommit { pool: "M_D", len: 5, cap: 4 },
            ViolationKind::ParityOnDataDisk { stripe: 12, disk: DiskId(0) },
            ViolationKind::StatsMismatch {
                counter: "read_ops",
                from_trace: 10,
                from_stats: 11,
            },
        ];
        for k in kinds {
            assert!(!k.to_string().is_empty());
        }
    }
}
