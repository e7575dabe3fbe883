//! End-to-end drills for the job server, mirroring the ISSUE-6
//! acceptance criteria:
//!
//! * the admission invariant — at **every** sampled instant the summed
//!   Definition-3 budgets of running jobs fit the configured `M`;
//! * the drain-and-restart drill — three concurrent jobs, a drain that
//!   suspends them at checkpoint boundaries, and a restarted server
//!   that resumes each one byte-identically with the model checker
//!   replaying every resumed trace;
//! * cancellation and deadlines — both abort at a checkpoint boundary,
//!   leaving a journaled manifest behind.

use srm_server::{
    expected_digest, EngineKind, JobServer, JobSpec, JobState, ServerConfig, SubmitError,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-server-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 1500 records over d=2, b=4, m=96: ~32 formation runs and two merge
/// passes — enough checkpoint boundaries for drains and cancels to hit
/// mid-sort, small enough to run in CI.
fn spec(seed: u64) -> JobSpec {
    JobSpec {
        engine: EngineKind::Srm,
        records: 1500,
        seed,
        d: 2,
        b: 4,
        m: 96,
        ..JobSpec::default()
    }
}

fn wait_all_terminal(server: &JobServer, budget: Duration) {
    let deadline = Instant::now() + budget;
    loop {
        let jobs = server.list();
        if jobs.iter().all(|j| j.state.is_terminal()) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "jobs never settled: {:?}",
            jobs.iter().map(|j| (j.id, j.state)).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(15));
    }
}

#[test]
fn admission_never_exceeds_capacity_while_jobs_overlap() {
    let dir = scratch("admission");
    let cost = spec(1).budget_records().unwrap();
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 4;
    cfg.queue_depth = 8;
    // Room for exactly two jobs at once; four are submitted.
    cfg.capacity = 2 * cost + cost / 2;
    cfg.io_delay = Duration::from_micros(300);
    let server = Arc::new(JobServer::open(cfg).unwrap());

    // A sampler hammers the invariant from outside while jobs run: the
    // summed costs of Running jobs, and the ledger itself, must fit M
    // at every instant.
    let violated = Arc::new(AtomicBool::new(false));
    let saw_overlap = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let server = Arc::clone(&server);
        let violated = Arc::clone(&violated);
        let saw_overlap = Arc::clone(&saw_overlap);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let stats = server.stats();
                let running_cost: u64 = server
                    .list()
                    .iter()
                    .filter(|j| j.state == JobState::Running)
                    .map(|j| j.cost)
                    .sum();
                if running_cost > stats.capacity || stats.admitted > stats.capacity {
                    violated.store(true, Ordering::Relaxed);
                }
                if stats.running == 2 {
                    saw_overlap.store(true, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let ids: Vec<u64> = (0..4).map(|i| server.submit(spec(10 + i)).unwrap()).collect();
    wait_all_terminal(&server, Duration::from_secs(120));
    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();

    assert!(!violated.load(Ordering::Relaxed), "admission invariant broken");
    assert!(
        saw_overlap.load(Ordering::Relaxed),
        "two jobs never overlapped; the drill proved nothing"
    );
    let stats = server.stats();
    assert!(
        stats.peak_admitted >= 2 * cost,
        "peak {} never reached two admitted jobs ({})",
        stats.peak_admitted,
        2 * cost
    );
    assert!(stats.peak_admitted <= stats.capacity);
    for (i, id) in ids.iter().enumerate() {
        let s = server.status(*id).unwrap();
        assert_eq!(s.state, JobState::Done, "job {id}: {}", s.detail);
        assert_eq!(s.digest, Some(expected_digest(&spec(10 + i as u64))));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_job_is_rejected_outright() {
    let dir = scratch("oversized");
    let mut cfg = ServerConfig::new(&dir);
    cfg.capacity = spec(1).budget_records().unwrap() - 1;
    let server = JobServer::open(cfg).unwrap();
    match server.submit(spec(1)) {
        Err(SubmitError::TooLarge { cost, capacity }) => assert!(cost > capacity),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole drill: three jobs mid-sort, a graceful drain, then a
/// restarted server over the same jobs dir.  Every job must finish with
/// the digest an uninterrupted run produces, and every resumed trace
/// must replay cleanly through the model checker.
#[test]
fn drain_suspends_and_restart_resumes_byte_identically() {
    let dir = scratch("drain");
    let cost = spec(1).budget_records().unwrap();
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 3;
    cfg.capacity = 3 * cost;
    cfg.io_delay = Duration::from_millis(1); // slow enough to drain mid-sort
    cfg.check_model = true;
    let server = JobServer::open(cfg.clone()).unwrap();
    let ids: Vec<u64> = (0..3).map(|i| server.submit(spec(70 + i)).unwrap()).collect();

    // Let all three get into their sorts, then drain while they are
    // still several checkpoint boundaries from the finish line.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let jobs = server.list();
        if jobs.iter().filter(|j| j.state == JobState::Running).count() == 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "jobs never all started: {:?}",
            jobs.iter().map(|j| (j.state, j.passes)).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100)); // into formation, not past it

    let report = server.shutdown();
    assert_eq!(report.suspended, 3, "all three jobs must suspend: {report}");
    for id in &ids {
        let s = server.status(*id).unwrap();
        assert_eq!(s.state, JobState::Suspended);
        assert!(
            dir.join(format!("job-{id:06}/manifest")).exists(),
            "suspended job {id} must leave a journaled checkpoint"
        );
    }

    // "Reboot": a fresh server over the same jobs dir (fast, no delay)
    // re-queues the suspended jobs and resumes them from their
    // manifests, model-checking every resumed trace.
    let mut cfg2 = cfg;
    cfg2.io_delay = Duration::ZERO;
    let server2 = JobServer::open(cfg2).unwrap();
    wait_all_terminal(&server2, Duration::from_secs(120));
    for (i, id) in ids.iter().enumerate() {
        let s = server2.status(*id).unwrap();
        assert_eq!(s.state, JobState::Done, "job {id}: {}", s.detail);
        assert_eq!(
            s.digest,
            Some(expected_digest(&spec(70 + i as u64))),
            "job {id} did not resume byte-identically"
        );
        assert!(
            !dir.join(format!("job-{id:06}/manifest")).exists(),
            "completed job {id} must retire its manifest"
        );
    }
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job sorts its generated input from memory: the pass-0 manifest is
/// its first durable state, and its directory never holds an `input`
/// file.  Drained once that manifest is journaled, it resumes from it on
/// restart and finishes with the uninterrupted digest.
#[test]
fn a_job_drained_after_its_pass_0_checkpoint_resumes_without_an_input_file() {
    let dir = scratch("pass0");
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 1;
    cfg.io_delay = Duration::from_millis(1);
    cfg.check_model = true;
    let server = JobServer::open(cfg.clone()).unwrap();
    let id = server.submit(spec(9)).unwrap();
    let job = dir.join(format!("job-{id:06}"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !job.join("manifest").exists() {
        assert!(Instant::now() < deadline, "no pass-0 checkpoint: {:?}", server.status(id).map(|s| s.state));
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = server.shutdown();
    assert_eq!(report.suspended, 1, "{report}");
    assert_eq!(server.status(id).unwrap().state, JobState::Suspended);
    assert!(!job.join("input").exists(), "a job stages no input");

    let mut cfg2 = cfg;
    cfg2.io_delay = Duration::ZERO;
    let server2 = JobServer::open(cfg2).unwrap();
    wait_all_terminal(&server2, Duration::from_secs(60));
    let s = server2.status(id).unwrap();
    assert_eq!(s.state, JobState::Done, "{}", s.detail);
    assert_eq!(s.digest, Some(expected_digest(&spec(9))));
    assert!(!job.join("input").exists(), "a resumed job stages no input");
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_interrupts_a_running_job_at_a_checkpoint() {
    let dir = scratch("cancel");
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 1;
    cfg.io_delay = Duration::from_millis(1);
    let server = JobServer::open(cfg).unwrap();
    let id = server.submit(spec(5)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.status(id).unwrap().state != JobState::Running {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.cancel(id));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = server.status(id).unwrap();
        if s.state.is_terminal() {
            assert_eq!(s.state, JobState::Cancelled, "{}", s.detail);
            break;
        }
        assert!(Instant::now() < deadline, "cancel never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The abort happened at a boundary: the checkpoint journal remains.
    assert!(dir.join(format!("job-{id:06}/manifest")).exists());
    // Terminal means terminal: a second cancel is refused.
    assert!(!server.cancel(id));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_overrun_checkpoints_then_aborts() {
    let dir = scratch("deadline");
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 1;
    cfg.io_delay = Duration::from_millis(1);
    let server = JobServer::open(cfg).unwrap();
    let mut overdue = spec(6);
    overdue.deadline_ms = Some(0); // overruns at the first boundary
    let id = server.submit(overdue).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let s = server.status(id).unwrap();
        if s.state.is_terminal() {
            assert_eq!(s.state, JobState::DeadlineExceeded, "{}", s.detail);
            break;
        }
        assert!(Instant::now() < deadline, "deadline never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(dir.join(format!("job-{id:06}/manifest")).exists());

    // A sane deadline leaves the same spec to finish normally.
    let fine = spec(6);
    let id2 = server.submit(fine.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = server.status(id2).unwrap();
        if s.state.is_terminal() {
            assert_eq!(s.state, JobState::Done, "{}", s.detail);
            assert_eq!(s.digest, Some(expected_digest(&fine)));
            break;
        }
        assert!(Instant::now() < deadline, "job stuck");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Faulty jobs ride the server's retry layer: a nonzero transient-fault
/// rate must not change the output.
#[test]
fn transient_faults_are_absorbed_by_the_retry_layer() {
    let dir = scratch("faults");
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 1;
    let server = JobServer::open(cfg).unwrap();
    let mut faulty = spec(8);
    faulty.fault_rate = 0.02;
    faulty.fault_seed = 99;
    let id = server.submit(faulty.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = server.status(id).unwrap();
        if s.state.is_terminal() {
            assert_eq!(s.state, JobState::Done, "{}", s.detail);
            assert_eq!(s.digest, Some(expected_digest(&faulty)));
            break;
        }
        assert!(Instant::now() < deadline, "faulty job stuck");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job priced at EXACTLY the server's capacity is the boundary case
/// of the admission invariant `admitted <= capacity`: `<=` means it
/// must be admitted and run, not starve in the queue.
#[test]
fn job_priced_exactly_at_capacity_is_admitted() {
    let dir = scratch("exact-fit");
    let exact = spec(31);
    let cost = exact.budget_records().unwrap();
    let mut cfg = ServerConfig::new(&dir);
    cfg.capacity = cost;
    cfg.workers = 1;
    let server = JobServer::open(cfg).unwrap();
    let id = server.submit(exact.clone()).unwrap();
    wait_all_terminal(&server, Duration::from_secs(120));
    let s = server.status(id).unwrap();
    assert_eq!(s.state, JobState::Done, "{}", s.detail);
    assert_eq!(s.digest, Some(expected_digest(&exact)));
    let stats = server.stats();
    assert_eq!(
        stats.peak_admitted, cost,
        "the exact-fit job must have filled the ledger to the brim"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One record short of the job's price, the same submission must be
/// refused outright as TooLarge — it could never run here.
#[test]
fn job_one_record_over_capacity_is_refused() {
    let dir = scratch("over-by-one");
    let exact = spec(32);
    let cost = exact.budget_records().unwrap();
    let mut cfg = ServerConfig::new(&dir);
    cfg.capacity = cost - 1;
    let server = JobServer::open(cfg).unwrap();
    match server.submit(exact) {
        Err(SubmitError::TooLarge {
            cost: c,
            capacity,
        }) => {
            assert_eq!(c, cost);
            assert_eq!(capacity, cost - 1);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero-record spec must be refused at validation, before pricing or
/// persistence — never enqueued.
#[test]
fn zero_record_job_is_rejected_as_invalid() {
    let dir = scratch("zero-records");
    let server = JobServer::open(ServerConfig::new(&dir)).unwrap();
    let mut empty = spec(33);
    empty.records = 0;
    match server.submit(empty) {
        Err(SubmitError::Invalid(msg)) => {
            assert!(msg.contains("records"), "message should blame records: {msg}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert!(server.list().is_empty(), "nothing may be enqueued");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The degenerate-but-legal single-record job must sort and settle
/// with the digest of its one record.
#[test]
fn one_record_job_completes() {
    let dir = scratch("one-record");
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 1;
    let server = JobServer::open(cfg).unwrap();
    let mut tiny = spec(34);
    tiny.records = 1;
    let id = server.submit(tiny.clone()).unwrap();
    wait_all_terminal(&server, Duration::from_secs(60));
    let s = server.status(id).unwrap();
    assert_eq!(s.state, JobState::Done, "{}", s.detail);
    assert_eq!(s.digest, Some(expected_digest(&tiny)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE-10 satellite: the job store hits ENOSPC mid-service.  The
/// overflowing SUBMIT must be refused with the *typed* no-space
/// admission error — not an untyped I/O string, not a queued ghost that
/// wedges a worker slot — and the jobs admitted before the disk filled
/// run to completion, the server drains cleanly, and a restart on the
/// same store (fresh "disk", space freed) admits again.
#[test]
fn store_enospc_is_typed_leaves_no_wedged_slot_and_drains_clean() {
    let dir = scratch("store-enospc");
    let mut cfg = ServerConfig::new(&dir);
    cfg.workers = 2;
    cfg.store_nospace_after = Some(2); // third submission overflows
    let server = JobServer::open(cfg).unwrap();

    let a = server.submit(spec(0xA)).expect("store has space");
    let b = server.submit(spec(0xB)).expect("store has space");
    let refused = server.submit(spec(0xC));
    match refused {
        Err(SubmitError::NoSpace(msg)) => {
            assert!(msg.contains("ENOSPC"), "diagnostic names the cause: {msg}");
        }
        other => panic!("expected the typed no-space refusal, got {other:?}"),
    }
    // Every later submission is refused the same way — deterministically,
    // not once-per-retry-attempt.
    assert!(matches!(server.submit(spec(0xD)), Err(SubmitError::NoSpace(_))));

    // The refusal left no queue slot, no ghost job, and no job directory.
    let stats = server.stats();
    assert_eq!(stats.queued + stats.running + stats.done, 2, "exactly the two admitted jobs exist");
    assert_eq!(server.list().len(), 2);

    // The admitted jobs are unharmed: both settle as done with the
    // digests their specs predict.
    wait_all_terminal(&server, Duration::from_secs(30));
    for (id, seed) in [(a, 0xA), (b, 0xB)] {
        let status = server
            .list()
            .into_iter()
            .find(|j| j.id == id)
            .expect("job still listed");
        assert_eq!(status.state, JobState::Done, "job {id}: {}", status.detail);
        assert_eq!(status.digest, Some(expected_digest(&spec(seed))));
    }

    // Clean drain: nothing suspended, nothing stuck in the queue.
    // (`shutdown` drains and releases the store's liveness lock.)
    let report = server.shutdown();
    assert_eq!(report.suspended, 0, "a refused submit must not leave work to suspend");
    drop(server);

    // Restart on the same store without the injection: the operator
    // freed space, and the server admits again with ids continuing past
    // the refused ones (refusals must not burn or corrupt the id space).
    let server = JobServer::open(ServerConfig::new(&dir)).unwrap();
    let c = server.submit(spec(0xE)).expect("space was freed");
    assert!(c > b, "id sequence survives the ENOSPC episode");
    wait_all_terminal(&server, Duration::from_secs(30));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
