//! Forwarding audit: every `DiskArray` method a layer could fail to pass
//! on — the required split-phase submits and each method with a default
//! body — must, through every layer of the workspace, reach the array
//! underneath, or the layer must say here why it answers for itself.
//!
//! Forwarding lives in one place: `pdisk::Stack`, whose `pdisk::Layer`
//! hooks default to "call the array below".  The first audit is of that
//! one impl, through a layer with no overrides, where nothing may be
//! declined: a method `Stack` left to the trait default would still
//! compile and still sort correctly, silently completing tickets it never
//! saw and with no read-ahead for `prefetch`.  The per-layer audits
//! then pin the operations a layer keeps to itself — a hook overridden
//! to answer without calling down — so that list changes only on purpose.
//!
//! The blocking `read` / `write` are the trait's provided composition of
//! the pair and no layer has a hook for them, so they never travel: the
//! last rows call them on each stacked array and require the array below
//! to see the submit and the complete, not a blocking call.

mod common;

use common::{Log, Probe, Transparent};
use pdisk::{
    Block, BlockAddr, BufferPool, ClusteredDiskArray, CrashClock, CrashingDiskArray, DiskArray,
    DiskId, FaultModel, FaultyDiskArray, Forecast, Geometry, MemDiskArray, ParityDiskArray,
    ParitySpec, RetryPolicy, RetryingDiskArray, Stack, StackSpec, TraceSink, TracingDiskArray,
    U64Record,
};
use srm_chaos::local::Misclassifying;
use srm_dist::{FenceFlag, Fenced};

type Rec = U64Record;
type Mem = Probe<MemDiskArray<Rec>>;

/// The required half of the protocol: the split-phase submits.
const SUBMITS: [&str; 2] = ["submit_read", "submit_write"];

/// The trait methods with a default body (the provided blocking pair is
/// audited apart, by [`travels_as_the_pair`]).
const DEFAULTED: [&str; 10] = [
    "complete_read",
    "complete_write",
    "prefetch",
    "sync",
    "scrub_block",
    "install_pool",
    "buffer_pool",
    "install_trace",
    "trace_sink",
    "redundancy",
];

/// A blocking call and the pair the array below must see in its place.
const BLOCKING: [(&str, [&str; 2]); 2] = [
    ("read", ["submit_read", "complete_read"]),
    ("write", ["submit_write", "complete_write"]),
];

/// (layer, method, why the call stops at this layer).
const DECLINED: [(&str, &str, &str); 12] = [
    ("Parity", "scrub_block", "it is the layer that repairs: it verifies by reading the slot below and rewrites it from parity"),
    ("Parity", "redundancy", "it is the redundancy layer and answers for itself"),
    ("Tracing", "trace_sink", "it owns the sink it installed below and answers with it"),
    ("Clustered", "submit_read", "one logical block is c physical blocks reassembled on return, and no production stack builds it: served at submit by one blocking read below"),
    ("Clustered", "complete_read", "its tickets are always already served"),
    ("Clustered", "submit_write", "as submit_read: served at submit by one blocking write below"),
    ("Clustered", "complete_write", "its tickets are always already served"),
    ("Clustered", "read", "its submit_read is where the blocking call below comes from"),
    ("Clustered", "write", "as read: from its submit_write"),
    ("Clustered", "prefetch", "a hint for one logical block would have to fan out to c slots; unused, so dropped"),
    ("Clustered", "install_trace", "physical events would carry disk ids outside the logical geometry a trace is checked against"),
    ("Clustered", "trace_sink", "as install_trace: no sink is installed below"),
];

fn block(key: u64) -> Block<Rec> {
    Block::new(vec![U64Record(key)], Forecast::Next(u64::MAX))
}

/// Call `method` on `a` and report whether the probe saw the same call.
/// `fresh` hands out slots nothing has written yet, so a parity layer
/// treats every write here as a first write.
fn reaches<A: DiskArray<Rec>>(a: &mut A, log: &Log, method: &'static str, fresh: &mut u64) -> bool {
    let written = BlockAddr::new(DiskId(0), 0);
    let mut next = || {
        *fresh += 1;
        BlockAddr::new(DiskId(0), *fresh)
    };
    // The first half of a pair runs before the log is cleared.
    let read_ticket = (method == "complete_read").then(|| a.submit_read(&[written]).unwrap());
    let write_ticket =
        (method == "complete_write").then(|| a.submit_write(vec![(next(), block(2))]).unwrap());
    log.borrow_mut().clear();
    match method {
        "submit_read" => drop(a.submit_read(&[written]).unwrap()),
        "complete_read" => drop(a.complete_read(read_ticket.unwrap()).unwrap()),
        "submit_write" => drop(a.submit_write(vec![(next(), block(3))]).unwrap()),
        "complete_write" => a.complete_write(write_ticket.unwrap()).unwrap(),
        "prefetch" => a.prefetch(&[written]),
        "sync" => a.sync().unwrap(),
        "scrub_block" => drop(a.scrub_block(written).unwrap()),
        "install_pool" => a.install_pool(BufferPool::new()),
        "buffer_pool" => drop(a.buffer_pool()),
        "install_trace" => a.install_trace(TraceSink::new()),
        "trace_sink" => drop(a.trace_sink()),
        "redundancy" => drop(a.redundancy()),
        other => panic!("no driver for {other}"),
    }
    log.borrow().contains(method)
}

/// Call the blocking `method` on `a` and report whether the probe saw its
/// pair, submit and complete, and no blocking call.
fn travels_as_the_pair<A: DiskArray<Rec>>(
    a: &mut A,
    log: &Log,
    (method, pair): (&'static str, [&'static str; 2]),
    fresh: &mut u64,
) -> bool {
    log.borrow_mut().clear();
    match method {
        "read" => drop(a.read(&[BlockAddr::new(DiskId(0), 0)]).unwrap()),
        "write" => {
            *fresh += 1;
            a.write(vec![(BlockAddr::new(DiskId(0), *fresh), block(4))]).unwrap()
        }
        other => panic!("no driver for {other}"),
    }
    let log = log.borrow();
    pair.iter().all(|m| log.contains(m)) && !log.contains(method)
}

/// Audit one wrapper; returns one line per disagreement with `DECLINED`.
fn audit<A: DiskArray<Rec>>(wrapper: &'static str, wrap: impl FnOnce(Mem) -> A) -> Vec<String> {
    let probe = Probe::new(MemDiskArray::new(Geometry::new(2, 2, 100).unwrap()));
    let log = probe.log.clone();
    let mut a = wrap(probe);
    for d in 0..a.geometry().d {
        a.alloc_contiguous(DiskId::from_index(d), 8).unwrap();
    }
    a.write(vec![(BlockAddr::new(DiskId(0), 0), block(1))]).unwrap();
    let mut fresh = 0;
    let mut findings = Vec::new();
    let declined = |method: &str| DECLINED.iter().any(|(w, m, _)| *w == wrapper && *m == method);
    for method in SUBMITS.into_iter().chain(DEFAULTED) {
        match (reaches(&mut a, &log, method, &mut fresh), declined(method)) {
            (true, false) | (false, true) => {}
            (false, false) => findings.push(format!(
                "{wrapper}::{method} never reaches the inner array: forward it, or decline it in DECLINED with a reason"
            )),
            (true, true) => findings.push(format!("{wrapper}::{method} is declined in DECLINED but forwards")),
        }
    }
    for blocking in BLOCKING {
        match (travels_as_the_pair(&mut a, &log, blocking, &mut fresh), declined(blocking.0)) {
            (true, false) | (false, true) => {}
            (false, false) => findings.push(format!(
                "a blocking {} on {wrapper} does not reach the inner array as {:?} alone",
                blocking.0, blocking.1
            )),
            (true, true) => findings.push(format!(
                "{wrapper}::{} is declined in DECLINED but travels as the pair",
                blocking.0
            )),
        }
    }
    findings
}

#[test]
fn every_wrapper_forwards_or_declines_every_defaulted_method() {
    let mut findings = audit("no overrides", |p| Stack::from_parts(p, Transparent));
    findings.extend(audit("Retrying", |p| RetryingDiskArray::new(p, RetryPolicy::default())));
    findings.extend(audit("Parity", |p| ParityDiskArray::new(p).unwrap()));
    findings.extend(audit("Faulty", |p| FaultyDiskArray::new(p, FaultModel::none())));
    findings.extend(audit("Crashing", |p| CrashingDiskArray::new(p, CrashClock::counting())));
    findings.extend(audit("Tracing", TracingDiskArray::new));
    findings.extend(audit("Clustered", |p| ClusteredDiskArray::new(p, 2).unwrap()));
    findings.extend(audit("Fenced", |p| Stack::from_parts(p, Fenced(FenceFlag::new()))));
    findings.extend(audit("Misclassifying", |p| Stack::from_parts(p, Misclassifying { armed: true })));
    for (wrapper, method, why) in DECLINED {
        println!("declined: {wrapper}::{method}: {why}");
    }
    assert!(findings.is_empty(), "forwarding audit:\n{}", findings.join("\n"));
}

/// The optional layer and the builder under the same audit.  An absent
/// layer — `None`, the empty slot `()`, and `pdisk::StackSpec::build`
/// with nothing switched on, which is five `None`s and a `()` stacked —
/// declines nothing; and with one layer on, the built stack declines
/// exactly what that layer declines alone (its rows in `DECLINED`), as
/// `Some(layer)` among `None`s or in the builder's slot.
#[test]
fn an_absent_layer_declines_nothing_and_the_builder_what_its_one_layer_declines() {
    let spec = StackSpec::default;
    let mut findings = audit("None", |p| Stack::from_parts(p, None::<Transparent>));
    findings.extend(audit("()", |p| Stack::from_parts(p, ())));
    findings.extend(audit("every layer absent", |p| spec().build(p, ()).unwrap()));
    let one = [
        ("Retrying", StackSpec { retry: Some(RetryPolicy::default()), ..spec() }),
        ("Parity", StackSpec { parity: Some(ParitySpec::default()), ..spec() }),
        ("Faulty", StackSpec { faults: Some(FaultModel::none()), ..spec() }),
        ("Crashing", StackSpec { crash: Some(CrashClock::counting()), ..spec() }),
        ("Tracing", StackSpec { trace: true, ..spec() }),
    ];
    for (layer, spec) in one {
        findings.extend(audit(layer, |p| spec.build(p, ()).unwrap()));
    }
    findings.extend(audit("Fenced", |p| spec().build(p, Fenced(FenceFlag::new())).unwrap()));
    findings.extend(audit("Misclassifying", |p| spec().build(p, Misclassifying { armed: true }).unwrap()));
    assert!(findings.is_empty(), "forwarding audit:\n{}", findings.join("\n"));
}
