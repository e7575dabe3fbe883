//! Window-invariance suite: the sorters have one engine, and `pipeline` /
//! `read_ahead` only set its window — how long a submitted parallel I/O
//! may stay outstanding.  Every window must be **observationally
//! identical** to the blocking one (window 0: each ticket completed where
//! it was submitted) everywhere the repo's fault and recovery machinery
//! can see — byte-identical sorted output, identical [`pdisk::IoStats`],
//! and model-checker-clean traces — across healthy, transiently-faulty,
//! parity-protected, degraded (permanent disk death), full production
//! stack, and checkpoint-resume configurations, on both the in-memory and
//! the file backend.
//!
//! Staging (`write_unsorted_input`, `write_unsorted_stripes`) and the
//! verification read (`read_run`, `read_logical_run`) are split-phase at
//! every window — they write behind and read ahead by a constant depth
//! whatever the sorter's setting — and are held to the same contract
//! against the eager in-memory backend.
//!
//! Window 0 is a valid reference because it is not the only oracle: the
//! pinned counts in `golden_io_counts.rs`, the block-level simulator in
//! `simulator_vs_engine.rs` and `modelcheck`'s replay all judge it
//! independently of this comparison.
//!
//! This is the contract that makes pipelining safe to turn on: every
//! scripted fault ordinal, parity commit, reconstruction, and checkpoint
//! boundary lands at exactly the same operation at every window, because
//! operations are always *submitted* in the same order and only their
//! completion moves.

mod common;

use dsm::{read_logical_run, write_unsorted_stripes, DsmSorter};
use modelcheck::{check_stats, check_trace};
use pdisk::trace::{TraceEvent, TracingDiskArray};
use pdisk::{
    DiskArray, FaultModel, FaultOp, FaultyDiskArray, FileDiskArray, Geometry, IoStats,
    MemDiskArray, ParityDiskArray, Record, RetryPolicy, RetryingDiskArray, Stack, U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::{write_unsorted_input, SrmConfig};
use srm_core::{read_run, SrmError, SrmSorter};
use std::path::PathBuf;
use std::time::Duration;

/// One engine setting, as the public options spell it.
#[derive(Debug, Clone, Copy)]
struct Window {
    pipeline: bool,
    read_ahead: usize,
}

impl Window {
    const fn pipelined(read_ahead: usize) -> Self {
        Window { pipeline: true, read_ahead }
    }

    fn srm(self, config: SrmConfig) -> SrmSorter {
        SrmSorter::new(config)
            .with_pipeline(self.pipeline)
            .with_read_ahead(self.read_ahead)
    }

    /// A directory name unique to this window.
    fn slug(self) -> String {
        format!("p{}-k{}", u8::from(self.pipeline), self.read_ahead)
    }
}

/// The sweep: the blocking window first (the reference), then pipelined at
/// read-ahead 0, 1, 3 and 8.
const WINDOWS: [Window; 5] = [
    Window { pipeline: false, read_ahead: 0 },
    Window::pipelined(0),
    Window::pipelined(1),
    Window::pipelined(3),
    Window::pipelined(8),
];

/// What a sort leaves behind for comparison: the sorted bytes and the
/// sort's own [`IoStats`] (snapshotted before the verification read).
type Outcome = (Vec<u8>, IoStats);

/// The one comparison: `run` under every window must leave exactly what
/// it leaves under the blocking one, and that must be `data`, sorted.
fn assert_window_invariant(tag: &str, data: &[U64Record], mut run: impl FnMut(Window) -> Outcome) {
    let blocking = run(WINDOWS[0]);
    for w in &WINDOWS[1..] {
        let (out, io) = run(*w);
        assert_eq!(out, blocking.0, "{tag} {w:?}: output must be byte-identical");
        assert_eq!(io, blocking.1, "{tag} {w:?}: IoStats must be identical");
    }
    // Guard against every window agreeing on a wrong answer.
    let mut sorted = data.to_vec();
    sorted.sort();
    assert_eq!(blocking.0, encode_all(&sorted), "{tag}: output must be sorted");
}

fn random_records(n: u64, seed: u64) -> Vec<U64Record> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| U64Record(rng.random())).collect()
}

fn encode_all(records: &[U64Record]) -> Vec<u8> {
    let mut out = vec![0u8; records.len() * U64Record::ENCODED_LEN];
    for (rec, chunk) in records.iter().zip(out.chunks_mut(U64Record::ENCODED_LEN)) {
        rec.encode(chunk);
    }
    out
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-pipeq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a full SRM sort on `inner` under window `w`, replay the trace
/// through the model checker, and return the outcome plus the array (for
/// suites that inspect a layer afterwards).
fn srm_outcome<A: DiskArray<U64Record>>(
    inner: A,
    config: SrmConfig,
    data: &[U64Record],
    w: Window,
) -> (Outcome, TracingDiskArray<U64Record, A>) {
    let mut a = TracingDiskArray::new(inner);
    let geom = a.geometry();
    let input = write_unsorted_input(&mut a, data).unwrap();
    let (run, _) = w
        .srm(config)
        .sort(&mut a, &input)
        .unwrap_or_else(|e| panic!("sort ({w:?}) failed: {e}"));
    let stats = a.stats();
    let out = read_run(&mut a, &run).unwrap();
    let trace = a.take_trace();
    check_trace(geom, &trace).unwrap_or_else(|v| panic!("violation ({w:?}): {v}"));
    check_stats(&trace, &a.stats()).unwrap_or_else(|v| panic!("stats drift ({w:?}): {v}"));
    ((encode_all(&out), stats), a)
}

/// SRM with the default configuration on identically-constructed arrays.
fn assert_srm_invariant<A, F>(make: F, data: &[U64Record], tag: &str)
where
    A: DiskArray<U64Record>,
    F: Fn(Window) -> A,
{
    assert_window_invariant(tag, data, |w| {
        srm_outcome(make(w), SrmConfig::default(), data, w).0
    });
}

#[test]
fn healthy_srm_equivalent() {
    // A deep-merge geometry and a flush-heavy (low k = R/D) geometry, so
    // both the plain-read and the rule-2c paths are exercised.
    assert_srm_invariant(
        |_| MemDiskArray::<U64Record>::new(Geometry::new(2, 4, 96).unwrap()),
        &random_records(3000, 0xE1),
        "healthy d=2",
    );
    assert_srm_invariant(
        |_| MemDiskArray::<U64Record>::new(Geometry::new(4, 8, 256).unwrap()),
        &random_records(12_000, 0xE2),
        "healthy d=4 flush-heavy",
    );
}

#[test]
fn transient_faults_with_retry_equivalent() {
    // Scripted transient faults hit the same op ordinals at every window
    // (operations are submitted in the same order), so even the retry
    // counts must agree exactly.
    let geom = Geometry::new(2, 4, 96).unwrap();
    assert_srm_invariant(
        |_| {
            let faulty = FaultyDiskArray::new(
                MemDiskArray::<U64Record>::new(geom),
                FaultModel::random(7).with_rate(0.01),
            );
            RetryingDiskArray::new(faulty, RetryPolicy::new(8, Duration::ZERO))
        },
        &random_records(3000, 0xE3),
        "transient faults",
    );
}

#[test]
fn parity_equivalent() {
    let geom = Geometry::new(3, 4, 120).unwrap();
    assert_srm_invariant(
        |_| ParityDiskArray::new(MemDiskArray::<U64Record>::new(geom)).unwrap(),
        &random_records(3000, 0xE4),
        "parity",
    );
}

#[test]
fn degraded_equivalent() {
    let geom = Geometry::new(3, 4, 120).unwrap();
    let data = random_records(3000, 0xE5);
    // Learn a mid-sort read ordinal from a clean run to aim the kill.
    let reads = {
        let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
        let input = write_unsorted_input(&mut a, &data).unwrap();
        a.reset_stats();
        SrmSorter::default().sort(&mut a, &input).unwrap();
        a.stats().read_ops
    };
    assert_srm_invariant(
        |_| {
            let faulty = FaultyDiskArray::new(
                MemDiskArray::<U64Record>::new(geom),
                FaultModel::none().kill_at(FaultOp::Read, reads / 2),
            );
            ParityDiskArray::new(faulty).unwrap()
        },
        &data,
        "degraded (disk death mid-sort)",
    );
}

#[test]
fn file_backend_equivalent() {
    // The file backend is the one with *native* async split-phase I/O
    // (per-disk worker threads), so this is where completion genuinely
    // overlaps with merging — and where equivalence is least trivial.
    let geom = Geometry::new(4, 8, 256).unwrap();
    let dir = unique_dir("file");
    assert_srm_invariant(
        |w| FileDiskArray::<U64Record>::create(geom, dir.join(w.slug())).unwrap(),
        &random_records(8000, 0xE6),
        "file backend",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Depth-K read-ahead and the formation strategy's own machinery are pure
/// wall-clock knobs: on the file backend — the one whose speculative
/// prefetch cache actually acts on the hints — a sort with 4 formation
/// threads, and one by replacement selection (its input stripe window
/// one read deep at window 0, two pipelined), is byte- and op-identical
/// at every window, depth 8 included, and its trace replays
/// checker-clean.
#[test]
fn deep_read_ahead_and_threads_equivalent() {
    use srm_core::run_formation::RunFormation;

    let geom = Geometry::new(4, 8, 256).unwrap();
    let data = random_records(8000, 0xE9);
    let dir = unique_dir("deep");
    for (tag, run_formation) in [
        ("threads", RunFormation::ParallelMemoryLoad { fraction: 1.0, threads: 4 }),
        ("rs", RunFormation::ReplacementSelection),
    ] {
        let config = SrmConfig { run_formation, ..SrmConfig::default() };
        assert_window_invariant(&format!("deep read-ahead + {tag}"), &data, |w| {
            let file = FileDiskArray::<U64Record>::create(geom, dir.join(tag).join(w.slug())).unwrap();
            srm_outcome(file, config, &data, w).0
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stack `srm-cli`, `srm-server` and `srm-dist` build,
/// `Retrying(Parity(Faulty(File)))` with the parity sidecar, under a
/// random transient fault rate: every window agrees byte for byte and
/// count for count.  At window 0 no ticket is ever outstanding when the
/// next operation is issued and no read-ahead hint is sent; at every
/// pipelined window operations do overlap, and each one submitted is
/// still in flight when the outermost layer hands its ticket up — no
/// wrapper waits inside a submit.
#[test]
fn full_production_stack_equivalent_and_pipelined() {
    let geom = Geometry::new(4, 8, 256).unwrap();
    let data = random_records(8000, 0xEA);
    let dir = unique_dir("stack");
    // Staging and the read-back keep stripes in flight at every window:
    // each of their submits but the first finds a ticket outstanding.
    let stripes = data.len().div_ceil(geom.b).div_ceil(geom.d) as u64;

    assert_window_invariant("production stack", &data, |w| {
        let sub = dir.join(w.slug());
        let file = FileDiskArray::<U64Record>::create(geom, sub.join("disks")).unwrap();
        let faulty = FaultyDiskArray::new(file, FaultModel::random(0x5EED).with_rate(0.01));
        let parity = ParityDiskArray::new(faulty).unwrap().with_store(sub.join("parity.store")).unwrap();
        let stack = RetryingDiskArray::new(parity, RetryPolicy::new(8, Duration::ZERO));
        let (outcome, a) = srm_outcome(common::Probe::new(stack), SrmConfig::default(), &data, w);
        let watch = a.inner();
        assert!(watch.tickets > 0, "{w:?}: every scheduled operation is split-phase");
        assert_eq!(watch.outstanding, 0, "{w:?}: a ticket was never completed");
        if w.pipeline {
            assert!(watch.overlapped > 0, "{w:?}: the window must keep tickets in flight");
            assert_eq!(
                watch.pending, watch.tickets,
                "{w:?}: a wrapper completed an operation inside its submit"
            );
        } else {
            assert_eq!(
                watch.overlapped,
                2 * (stripes - 1),
                "{w:?}: the sort left a ticket outstanding at its next operation"
            );
            assert!(!watch.log.borrow().contains("prefetch"), "{w:?}: window 0 sends no hints");
            assert!(outcome.1.total_retries() > 0, "the fault rate must bite");
            assert!(outcome.1.parity_writes > 0);
        }
        outcome
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// One traced incarnation as a distsort shard runs it — stage, sort,
/// read back — on `stack`, with a probe over the whole stack.
struct Incarnation {
    bytes: Vec<u8>,
    staged: IoStats,
    total: IoStats,
    trace: Vec<pdisk::trace::Tagged>,
    tickets: u64,
    pending: u64,
    max_writes_out: u64,
}

fn incarnation<A: DiskArray<U64Record>>(stack: A, data: &[U64Record]) -> Incarnation {
    let mut a = TracingDiskArray::new(common::Probe::new(stack));
    let geom = a.geometry();
    let input = write_unsorted_input(&mut a, data).unwrap();
    let staged = a.stats();
    let (run, _) = Window::pipelined(3).srm(SrmConfig::default()).sort(&mut a, &input).unwrap();
    // The sort writes split-phase only (its blocking reads are each
    // merge's initial loads); staging and the read-back must not fall
    // back to a blocking call either.
    assert!(!a.inner().log.borrow().contains("write"), "a blocking write");
    a.inner().log.borrow_mut().clear();
    let out = read_run(&mut a, &run).unwrap();
    assert!(!a.inner().log.borrow().contains("read"), "a blocking read-back");
    let total = a.stats();
    let trace = a.take_trace();
    check_trace(geom, &trace).unwrap_or_else(|v| panic!("violation: {v}"));
    check_stats(&trace, &total).unwrap_or_else(|v| panic!("stats drift: {v}"));
    let watch = a.inner();
    assert_eq!(watch.outstanding, 0, "a ticket was never completed");
    Incarnation {
        bytes: encode_all(&out),
        staged,
        total,
        trace,
        tickets: watch.tickets,
        pending: watch.pending,
        max_writes_out: watch.max_writes_out,
    }
}

/// Stage-in, sort and read-back through `Retrying(Parity(Faulty(File)))`
/// leave the bytes, the [`IoStats`] of every phase and the very trace
/// the same stack leaves over `MemDiskArray`, whose eager trait defaults
/// execute each operation inside its submit: the helpers issue the same
/// parallel I/Os in the same order on both, and only where completion
/// waits differs.  On the file stack every ticket is handed up still in
/// flight, and the write-behind depth never passes the torn-write
/// window reopen recovery is sized for.  The same holds with the layer
/// that intercepts nothing stacked above every layer of the file stack:
/// the forwarding point is transparent to a pipelined stacked sort.
#[test]
fn stage_in_and_read_back_match_the_eager_backend() {
    let geom = Geometry::new(4, 8, 256).unwrap();
    let data = random_records(8000, 0xEB);
    let dir = unique_dir("phases");
    fn model() -> FaultModel {
        FaultModel::random(0x5EED).with_rate(0.01)
    }
    fn policy() -> RetryPolicy {
        RetryPolicy::new(8, Duration::ZERO)
    }
    fn stack<B: DiskArray<U64Record>>(base: B, store: PathBuf) -> impl DiskArray<U64Record> {
        let faulty = FaultyDiskArray::new(base, model());
        let parity = ParityDiskArray::new(faulty).unwrap().with_store(store).unwrap();
        RetryingDiskArray::new(parity, policy())
    }
    fn thru<A: DiskArray<U64Record>>(a: A) -> Stack<U64Record, common::Transparent, A> {
        Stack::from_parts(a, common::Transparent)
    }
    fn layered<B: DiskArray<U64Record>>(base: B, store: PathBuf) -> impl DiskArray<U64Record> {
        let faulty = FaultyDiskArray::new(thru(base), model());
        let parity = ParityDiskArray::new(thru(faulty)).unwrap().with_store(store).unwrap();
        thru(RetryingDiskArray::new(thru(parity), policy()))
    }
    let file = |sub: &str| FileDiskArray::<U64Record>::create(geom, dir.join(sub)).unwrap();

    let eager = incarnation(stack(MemDiskArray::<U64Record>::new(geom), dir.join("mem.parity")), &data);
    let split = incarnation(stack(file("disks"), dir.join("file.parity")), &data);
    let layered = incarnation(layered(file("layered"), dir.join("layered.parity")), &data);

    let mut sorted = data.clone();
    sorted.sort();
    assert_eq!(eager.bytes, encode_all(&sorted));
    assert!(eager.total.total_retries() > 0, "the fault rate must bite");
    assert_eq!(eager.pending, 0, "the in-memory backend has nothing to leave in flight");
    assert_eq!(eager.max_writes_out, pdisk::WRITE_BEHIND_LIMIT as u64, "mem: write tickets in flight");
    for (tag, run) in [("file", &split), ("file under empty layers", &layered)] {
        assert_eq!(run.bytes, eager.bytes, "{tag}: sorted bytes");
        assert_eq!(run.staged, eager.staged, "{tag}: stage-in IoStats");
        assert_eq!(run.total, eager.total, "{tag}: stage-in + sort + read-back IoStats");
        assert!(run.trace == eager.trace, "{tag}: the trace differs from the eager backend's");
        assert_eq!(run.tickets, eager.tickets, "{tag}: tickets");
        assert_eq!(run.pending, run.tickets, "{tag}: a layer completed an operation inside its submit");
        assert_eq!(run.max_writes_out, pdisk::WRITE_BEHIND_LIMIT as u64, "{tag}: write tickets in flight");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pdisk::StackSpec::build` against the constructors nested by hand, in
/// the shapes the product's sites ask it for — injector + retry (the
/// server, a faulty shard), parity with its sidecar (staging, a scrub),
/// those under a crash clock shared with the parity commit (the crash
/// matrix), under the trace, and every layer at once (the CLI, the chaos
/// target): a pipelined sort leaves the same bytes, [`IoStats`], trace
/// and crash-point count on both, so an absent layer (`None`, the empty
/// slot) is absent and a present one sits where the hand nest put it.
#[test]
fn the_builder_is_the_hand_nested_stack() {
    use pdisk::{CrashClock, CrashingDiskArray, ParitySpec, StackSpec};

    type Seen = (Vec<u8>, IoStats, Vec<pdisk::trace::Tagged>, u64);
    fn observe<A: DiskArray<U64Record>>(mut a: A, data: &[U64Record], clock: &CrashClock) -> Seen {
        let input = write_unsorted_input(&mut a, data).unwrap();
        let (run, _) = Window::pipelined(3).srm(SrmConfig::default()).sort(&mut a, &input).unwrap();
        let out = read_run(&mut a, &run).unwrap();
        let trace = a.trace_sink().map(|sink| sink.take()).unwrap_or_default();
        (encode_all(&out), a.stats(), trace, clock.points())
    }
    fn same(tag: &str, built: Seen, hand: Seen) -> Seen {
        assert_eq!(built.0, hand.0, "{tag}: sorted bytes");
        assert_eq!(built.1, hand.1, "{tag}: IoStats");
        assert!(built.2 == hand.2, "{tag}: the trace differs from the hand-nested stack's");
        assert_eq!(built.3, hand.3, "{tag}: crash points");
        built
    }

    let geom = Geometry::new(3, 4, 120).unwrap();
    let data = random_records(3000, 0xEC);
    let dir = unique_dir("builder");
    let mem = || MemDiskArray::<U64Record>::new(geom);
    let model = || FaultModel::random(0x5EED).with_rate(0.01);
    let policy = || RetryPolicy::new(8, Duration::ZERO);
    let parity = |store: &str| ParitySpec { store: Some(dir.join(store)), ..ParitySpec::default() };
    let built = |spec: StackSpec, clock: &CrashClock| observe(spec.build(mem(), ()).unwrap(), &data, clock);
    let off = CrashClock::counting();

    let spec = StackSpec { faults: Some(model()), retry: Some(policy()), ..StackSpec::default() };
    let hand = RetryingDiskArray::new(FaultyDiskArray::new(mem(), model()), policy());
    same("faults + retry", built(spec, &off), observe(hand, &data, &off));

    let spec = StackSpec { parity: Some(parity("b1")), ..StackSpec::default() };
    let hand = ParityDiskArray::new(mem()).unwrap().with_store(dir.join("h1")).unwrap();
    same("parity + store", built(spec, &off), observe(hand, &data, &off));

    let (b, h) = (CrashClock::counting(), CrashClock::counting());
    let spec = StackSpec { parity: Some(parity("b2")), crash: Some(b.clone()), ..StackSpec::default() };
    let mut hand = ParityDiskArray::new(mem()).unwrap().with_store(dir.join("h2")).unwrap();
    hand.set_crash_clock(h.clone());
    let hand = CrashingDiskArray::new(hand, h.clone());
    same("parity + crash clock", built(spec, &b), observe(hand, &data, &h));

    let (b, h) = (CrashClock::counting(), CrashClock::counting());
    let spec = StackSpec { parity: Some(parity("b3")), crash: Some(b.clone()), trace: true, ..StackSpec::default() };
    let mut hand = ParityDiskArray::new(mem()).unwrap().with_store(dir.join("h3")).unwrap();
    hand.set_crash_clock(h.clone());
    let hand = TracingDiskArray::new(CrashingDiskArray::new(hand, h.clone()));
    same("parity + crash clock + trace", built(spec, &b), observe(hand, &data, &h));

    let (b, h) = (CrashClock::counting(), CrashClock::counting());
    let spec = StackSpec {
        faults: Some(model()),
        parity: Some(parity("b4")),
        retry: Some(policy()),
        crash: Some(b.clone()),
        trace: true,
    };
    let mut hand = ParityDiskArray::new(FaultyDiskArray::new(mem(), model())).unwrap().with_store(dir.join("h4")).unwrap();
    hand.set_crash_clock(h.clone());
    let hand = TracingDiskArray::new(CrashingDiskArray::new(RetryingDiskArray::new(hand, policy()), h.clone()));
    let all = same("every layer", built(spec, &b), observe(hand, &data, &h));
    assert!(all.1.total_retries() > 0 && all.1.parity_writes > 0, "the layers must bite");
    assert!(!all.2.is_empty() && all.3 > 0, "the trace and the clock must run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sort that crashes at a pass boundary and resumes from its manifest
/// must agree across windows *per session*: same crash point, same
/// resumed schedule, same final bytes, same combined stats — and every
/// session's trace replays clean.
#[test]
fn checkpoint_resume_equivalent() {
    let geom = Geometry::new(2, 4, 96).unwrap();
    let data = random_records(3000, 0xE7);
    let dir = unique_dir("resume");

    assert_window_invariant("resume", &data, |w| {
        let manifest = dir.join(format!("{}.manifest", w.slug()));
        let mut a = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
        let input = write_unsorted_input(&mut a, &data).unwrap();

        // Session 1: crash after merge pass 1 completes.
        let sorter = w.srm(SrmConfig::default());
        let crashed = sorter.sort_observed(&mut a, &input, Some(&manifest), |pass, _| {
            if pass == 1 {
                return Err(SrmError::Internal("simulated crash".into()));
            }
            Ok(())
        });
        assert!(crashed.is_err(), "session 1 ({w:?}) must crash");
        let first = a.take_trace();
        check_trace(geom, &first).unwrap_or_else(|v| panic!("session 1 violation ({w:?}): {v}"));

        // Session 2: resume from the manifest and finish.
        let (run, _) = sorter.sort_checkpointed(&mut a, &input, &manifest).unwrap();
        let stats = a.stats();
        let out = read_run(&mut a, &run).unwrap();
        let second = a.take_trace();
        check_trace(geom, &second).unwrap_or_else(|v| panic!("session 2 violation ({w:?}): {v}"));
        let mut all = first;
        all.extend(second);
        check_stats(&all, &a.stats()).unwrap_or_else(|v| panic!("stats drift ({w:?}): {v}"));
        (encode_all(&out), stats)
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// DSM counterpart of [`srm_outcome`] (DSM has no read-ahead depth, so
/// the pipelined windows of the sweep coincide for it), with the two
/// phases around the sort held to the contract too: beside the outcome,
/// the [`IoStats`] after stage-in and after the read-back.  Neither phase
/// has a window setting — staging writes one stripe behind (eq. 41's two
/// output stripes), the read-back keeps several stripes in flight — and a
/// probe over the array checks that is what they do.
fn dsm_outcome<A: DiskArray<U64Record>>(inner: A, data: &[U64Record], w: Window) -> (Outcome, [IoStats; 2]) {
    let mut a = TracingDiskArray::new(common::Probe::new(inner));
    let geom = a.geometry();
    let input = write_unsorted_stripes(&mut a, data).unwrap();
    let staged = a.stats();
    // One stripe behind: the next stripe is allocated (and was cut from
    // the input) while the first one's write is still in flight.
    let next_stripe_begun_in_flight = (a.sink().snapshot().iter())
        .skip_while(|e| !matches!(e.event, TraceEvent::Write { .. }))
        .take_while(|e| !matches!(e.event, TraceEvent::WriteDurable { .. }))
        .any(|e| matches!(e.event, TraceEvent::Alloc { .. }));
    assert!(next_stripe_begun_in_flight, "{w:?}: staging waited for each stripe where it wrote it");
    let (run, _) = DsmSorter::default().with_pipeline(w.pipeline).sort(&mut a, &input).unwrap();
    let stats = a.stats();
    let before = a.inner().overlapped;
    let out = read_logical_run(&mut a, &run).unwrap();
    let watch = a.inner();
    assert!(watch.overlapped > before, "{w:?}: the read-back waited for each stripe where it asked for it");
    assert_eq!(watch.outstanding, 0, "{w:?}: a ticket was never completed");
    assert_eq!(watch.max_writes_out, 1, "{w:?}: DSM's output budget is two stripes, one in flight");
    let log = watch.log.borrow();
    assert!(!log.contains("read") && !log.contains("write"), "{w:?}: a blocking call");
    drop(log);
    let trace = a.take_trace();
    check_trace(geom, &trace).unwrap_or_else(|v| panic!("dsm violation ({w:?}): {v}"));
    check_stats(&trace, &a.stats()).unwrap_or_else(|v| panic!("dsm stats drift ({w:?}): {v}"));
    ((encode_all(&out), stats), [staged, a.stats()])
}

/// The sweep for DSM on arrays built by `array`: the sort is window
/// invariant, and stage-in and read-back charge the same operations
/// whatever window the sort between them ran at.
fn assert_dsm_window_invariant<A: DiskArray<U64Record>>(tag: &str, data: &[U64Record], array: impl Fn() -> A) {
    let mut around = Vec::new();
    assert_window_invariant(tag, data, |w| {
        let (outcome, phases) = dsm_outcome(array(), data, w);
        around.push(phases);
        outcome
    });
    assert!(around.windows(2).all(|p| p[0] == p[1]), "{tag}: stage-in / read-back IoStats");
}

#[test]
fn dsm_equivalent() {
    // DSM pipelining (striped-read double-buffering) gets the same
    // contract, healthy and under parity.
    let geom = Geometry::new(3, 4, 120).unwrap();
    let data = random_records(3000, 0xE8);
    assert_dsm_window_invariant("dsm healthy", &data, || MemDiskArray::<U64Record>::new(geom));
    assert_dsm_window_invariant("dsm parity", &data, || {
        ParityDiskArray::new(MemDiskArray::<U64Record>::new(geom)).unwrap()
    });
}
