//! The job server: durable job directories, a bounded worker pool,
//! admission control, deadlines, cancellation, and drain/restart.
//!
//! ## Durability layout
//!
//! Every job owns a directory `jobs_dir/job-NNNNNN/`:
//!
//! ```text
//! job-000001/
//!   spec       job description (JobSpec key=value encoding), atomic
//!   input      staged-input run descriptor, written before the sort
//!   disks/     the FileDiskArray backend (survives crashes)
//!   manifest   PR-5 checkpoint manifest (journaled at pass boundaries)
//!   done       terminal marker: digest + report (atomic rename)
//!   fail       terminal marker: kind=cancelled|deadline|failed
//! ```
//!
//! Everything the server knows is reconstructible from this layout:
//! [`JobServer::open`] scans it, marks jobs with a terminal marker as
//! finished, and re-queues the rest in id order.  A re-queued job whose
//! manifest survives resumes from its last checkpoint byte-identically
//! (the spec pins the data seed and the placement RNG; the manifest
//! pins the pass and the RNG fast-forward count).  A re-queued job
//! without a manifest re-sorts its staged input from scratch — same
//! spec, same bytes.
//!
//! ## Admission invariant
//!
//! Workers claim strictly from the queue head, and only after
//! [`Admission::try_admit`] accepts the job's Definition-3 price; so at
//! every instant the summed budgets of running jobs fit the configured
//! capacity, and jobs start in submission order.

use crate::drain::{DrainReport, ShutdownFlag};
use crate::job::{digest_keys, expected_digest, AnyJob, JobError, JobRun, JobSpec};
use crate::queue::Admission;
use pdisk::manifest::atomic_write as atomic_write_raw;
use pdisk::{DiskArray, FaultModel, FileDiskArray, InterruptFlag, RetryPolicy, StackSpec, U64Record};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a worker sleeps between queue polls.  Polling is a choice,
/// not a constraint — the state sits behind a `std::sync::Mutex`, which
/// has a `Condvar` — and ROADMAP item 6 revisits it.
const WORKER_POLL: Duration = Duration::from_millis(10);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the durable job directories.
    pub jobs_dir: PathBuf,
    /// Server memory `M`, in records — what admission control sums
    /// Definition-3 job budgets against.
    pub capacity: u64,
    /// Worker threads (concurrent jobs never exceed this OR the
    /// admission capacity, whichever binds first).
    pub workers: usize,
    /// Queued (not yet running) jobs beyond which SUBMIT is refused
    /// with a queue-full rejection.
    pub queue_depth: usize,
    /// Per-I/O delay injected into each job's file backend, to make
    /// concurrency observable in tests.
    pub io_delay: Duration,
    /// Retry policy absorbing each job's transient faults.
    pub retry: RetryPolicy,
    /// Trace every job's I/O and replay it through the model checker;
    /// a violation fails the job.
    pub check_model: bool,
    /// Fault-injection hook: after this many successful job-store spec
    /// writes, further SUBMITs fail as if the store volume hit ENOSPC.
    /// The refusal must be a clean typed admission error that takes no
    /// queue slot; the server keeps serving and draining.  `None` (the
    /// default) disables the hook.
    pub store_nospace_after: Option<u64>,
}

impl ServerConfig {
    /// Defaults: capacity 8192 records, 2 workers, queue depth 16, no
    /// injected delay, default retry policy, model checking off.
    pub fn new(jobs_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            jobs_dir: jobs_dir.into(),
            capacity: 8192,
            workers: 2,
            queue_depth: 16,
            io_delay: Duration::ZERO,
            retry: RetryPolicy::default(),
            check_model: false,
            store_nospace_after: None,
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the FIFO queue for admission.
    Queued,
    /// Admitted and sorting on a worker.
    Running,
    /// Interrupted by a drain at a checkpoint boundary; a restarted
    /// server resumes it byte-identically.
    Suspended,
    /// Completed and verified.
    Done,
    /// Cancelled by request (checkpointed first if it was running).
    Cancelled,
    /// Overran its deadline: checkpointed, then aborted.
    DeadlineExceeded,
    /// Failed with an error.
    Failed,
}

impl JobState {
    /// Whether the state is final (the job will never run again).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::DeadlineExceeded | JobState::Failed
        )
    }

    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Suspended => "suspended",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::DeadlineExceeded => "deadline-exceeded",
            JobState::Failed => "failed",
        }
    }
}

/// Point-in-time public view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id (assigned at submit, stable across restarts).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The job's full specification.
    pub spec: JobSpec,
    /// Admission price in records (the Definition-3 budget).
    pub cost: u64,
    /// Last pass boundary reached (0 = formation).
    pub passes: u64,
    /// FNV-1a digest of the sorted output keys, once done.
    pub digest: Option<u64>,
    /// Human-readable detail (error text, cancellation reason).
    pub detail: String,
}

/// Point-in-time server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Configured memory capacity, in records.
    pub capacity: u64,
    /// Memory admitted right now, in records.
    pub admitted: u64,
    /// High-water mark of `admitted` since the server opened.
    pub peak_admitted: u64,
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Jobs running on workers.
    pub running: u64,
    /// Jobs completed and verified.
    pub done: u64,
    /// Jobs suspended by a drain.
    pub suspended: u64,
    /// Jobs cancelled or deadline-aborted.
    pub cancelled: u64,
    /// Jobs failed.
    pub failed: u64,
}

/// Why a SUBMIT was refused.  Marked for srmlint's protocol pass: every
/// refusal must map to a wire code in `submit_error_line`, with no
/// catch-all to silently swallow a new variant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
#[srmlint::protocol]
pub enum SubmitError {
    /// The server is draining and admits no new work.
    Draining,
    /// The job's budget alone exceeds the server's capacity; it could
    /// never run here.
    TooLarge {
        /// The job's Definition-3 price in records.
        cost: u64,
        /// The server's capacity in records.
        capacity: u64,
    },
    /// The bounded queue is full — the 429 of this protocol.
    QueueFull {
        /// The configured queue depth that is exhausted.
        depth: usize,
    },
    /// The spec failed validation.
    Invalid(String),
    /// The job store is out of space (ENOSPC).  Unlike [`Self::Io`]
    /// this is not worth retrying as-is: the client must wait for the
    /// operator to free space.  The refused job takes no queue slot.
    NoSpace(String),
    /// The job directory could not be persisted.
    Io(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "server is draining"),
            SubmitError::TooLarge { cost, capacity } => write!(
                f,
                "job needs {cost} records of memory but the server only has {capacity}"
            ),
            SubmitError::QueueFull { depth } => {
                write!(f, "queue full (depth {depth}); retry later")
            }
            SubmitError::Invalid(m) => write!(f, "invalid job: {m}"),
            SubmitError::NoSpace(m) => {
                write!(f, "job store out of space: {m}; free space and resubmit")
            }
            SubmitError::Io(m) => write!(f, "cannot persist job: {m}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Internal per-job record.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    cost: u64,
    state: JobState,
    flag: InterruptFlag,
    cancel_requested: bool,
    deadline_hit: bool,
    passes: u64,
    digest: Option<u64>,
    detail: String,
}

impl Job {
    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            state: self.state,
            spec: self.spec.clone(),
            cost: self.cost,
            passes: self.passes,
            digest: self.digest,
            detail: self.detail.clone(),
        }
    }
}

#[derive(Debug)]
struct State {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    admission: Admission,
    next_id: u64,
    draining: bool,
    running: usize,
}

#[derive(Debug)]
struct Inner {
    cfg: ServerConfig,
    state: Mutex<State>,
    shutdown: ShutdownFlag,
    /// Successful job-store spec writes, for the
    /// [`ServerConfig::store_nospace_after`] injection hook.
    store_writes: std::sync::atomic::AtomicU64,
}

impl Inner {
    fn state(&self) -> pdisk::lockwitness::Witnessed<MutexGuard<'_, State>> {
        // A worker panicking mid-update cannot leave partial state: every
        // critical section is a handful of field writes.  Recover the guard.
        pdisk::lockwitness::guard(
            "srm_server::server::Inner.state",
            self.state.lock().unwrap_or_else(|p| p.into_inner()),
        )
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.cfg.jobs_dir.join(format!("job-{id:06}"))
    }
}

/// The sort-as-a-service job server.
#[derive(Debug)]
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Publish a marker through the checkpoint journal's own temp + fsync +
/// rename ([`pdisk::manifest::atomic_write`]).
fn atomic_write(path: &Path, contents: &str) -> Result<(), JobError> {
    atomic_write_raw(path, contents.as_bytes())
        .map_err(|e| JobError::Io(format!("write {}: {e}", path.display())))
}

fn read_marker(path: &Path) -> Option<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(
        text.lines()
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

impl JobServer {
    /// Open (or create) a server over `cfg.jobs_dir`: acquire the
    /// single-server lock, scan the durable job directories, re-queue
    /// every non-terminal job in id order, and start the worker pool.
    pub fn open(cfg: ServerConfig) -> Result<Self, JobError> {
        if cfg.workers == 0 {
            return Err(JobError::Config("server needs at least one worker".into()));
        }
        std::fs::create_dir_all(&cfg.jobs_dir)
            .map_err(|e| JobError::Io(format!("create {}: {e}", cfg.jobs_dir.display())))?;
        acquire_lock(&cfg.jobs_dir)?;

        let mut jobs = BTreeMap::new();
        let entries = std::fs::read_dir(&cfg.jobs_dir)
            .map_err(|e| JobError::Io(format!("scan {}: {e}", cfg.jobs_dir.display())))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("job-"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            let dir = entry.path();
            let spec_text = std::fs::read_to_string(dir.join("spec"))
                .map_err(|e| JobError::Io(format!("read {}/spec: {e}", dir.display())))?;
            let spec = JobSpec::decode(&spec_text)?;
            let cost = spec.budget_records()?;
            let (state, digest, detail) = if let Some(done) = read_marker(&dir.join("done")) {
                let digest = done.get("digest").and_then(|d| d.parse().ok());
                (JobState::Done, digest, String::new())
            } else if let Some(fail) = read_marker(&dir.join("fail")) {
                let state = match fail.get("kind").map(String::as_str) {
                    Some("cancelled") => JobState::Cancelled,
                    Some("deadline") => JobState::DeadlineExceeded,
                    _ => JobState::Failed,
                };
                let detail = fail.get("detail").cloned().unwrap_or_default();
                (state, None, detail)
            } else {
                (JobState::Queued, None, String::new())
            };
            jobs.insert(
                id,
                Job {
                    spec,
                    cost,
                    state,
                    flag: InterruptFlag::new(),
                    cancel_requested: false,
                    deadline_hit: false,
                    passes: 0,
                    digest,
                    detail,
                },
            );
        }
        // BTreeMap iteration is id order, so restart preserves FIFO.
        let queue: VecDeque<u64> = jobs
            .iter()
            .filter(|(_, j)| j.state == JobState::Queued)
            .map(|(id, _)| *id)
            .collect();
        let next_id = jobs.keys().next_back().map_or(1, |max| max + 1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs,
                queue,
                admission: Admission::new(cfg.capacity),
                next_id,
                draining: false,
                running: 0,
            }),
            shutdown: ShutdownFlag::new(),
            cfg,
            store_writes: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..inner.cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(JobServer {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// The flag that requests a server-wide drain-and-stop; share it
    /// with signal handlers and the network front end.
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.inner.shutdown.clone()
    }

    /// Server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Submit a job.  Validates the spec, prices it, persists the job
    /// directory, and enqueues it FIFO.  Refusals are explicit:
    /// [`SubmitError::TooLarge`] can never run here,
    /// [`SubmitError::QueueFull`] is the bounded-queue 429.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        spec.validate()
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        let cost = spec
            .budget_records()
            .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        let mut st = self.inner.state();
        if st.draining || self.inner.shutdown.is_set() {
            return Err(SubmitError::Draining);
        }
        if !st.admission.ever_fits(cost) {
            return Err(SubmitError::TooLarge {
                cost,
                capacity: st.admission.capacity(),
            });
        }
        if st.queue.len() >= self.inner.cfg.queue_depth {
            return Err(SubmitError::QueueFull {
                depth: self.inner.cfg.queue_depth,
            });
        }
        let id = st.next_id;
        let dir = self.inner.job_dir(id);
        // The injected ENOSPC fires *before* the directory is created:
        // a refused submission must leave no queue slot and no partial
        // job directory behind, so the server stays clean and drains.
        if let Some(limit) = self.inner.cfg.store_nospace_after {
            use std::sync::atomic::Ordering;
            if self.inner.store_writes.fetch_add(1, Ordering::SeqCst) >= limit {
                return Err(SubmitError::NoSpace(format!(
                    "injected ENOSPC on job store {}",
                    self.inner.cfg.jobs_dir.display()
                )));
            }
        }
        let persist = std::fs::create_dir_all(&dir)
            .and_then(|()| atomic_write_raw(&dir.join("spec"), spec.encode().as_bytes()));
        if let Err(e) = persist {
            // Best-effort cleanup: an unpersisted job directory must not
            // confuse a future restart scan.
            let _ = std::fs::remove_dir_all(&dir);
            let msg = format!("persist {}: {e}", dir.display());
            return Err(if e.kind() == std::io::ErrorKind::StorageFull {
                SubmitError::NoSpace(msg)
            } else {
                SubmitError::Io(msg)
            });
        }
        st.next_id += 1;
        st.jobs.insert(
            id,
            Job {
                spec,
                cost,
                state: JobState::Queued,
                flag: InterruptFlag::new(),
                cancel_requested: false,
                deadline_hit: false,
                passes: 0,
                digest: None,
                detail: String::new(),
            },
        );
        st.queue.push_back(id);
        Ok(id)
    }

    /// Status of one job, if it exists.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.inner.state().jobs.get(&id).map(|j| j.status(id))
    }

    /// Status of every job, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        self.inner
            .state()
            .jobs
            .iter()
            .map(|(id, j)| j.status(*id))
            .collect()
    }

    /// Cancel a job.  Queued jobs cancel immediately; running jobs are
    /// interrupted at their next checkpoint boundary (the checkpoint is
    /// journaled first).  Returns `false` for unknown or already
    /// terminal jobs.
    pub fn cancel(&self, id: u64) -> bool {
        let marker = {
            let mut st = self.inner.state();
            let Some(job) = st.jobs.get_mut(&id) else {
                return false;
            };
            match job.state {
                JobState::Queued | JobState::Suspended => {
                    job.state = JobState::Cancelled;
                    job.detail = "cancelled before running".into();
                    st.queue.retain(|q| *q != id);
                    true
                }
                JobState::Running => {
                    job.cancel_requested = true;
                    job.flag.trigger();
                    return true;
                }
                _ => return false,
            }
        };
        if marker {
            let dir = self.inner.job_dir(id);
            let _ = atomic_write(
                &dir.join("fail"),
                "kind=cancelled\ndetail=cancelled before running\n",
            );
        }
        true
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServerStats {
        let st = self.inner.state();
        let mut s = ServerStats {
            capacity: st.admission.capacity(),
            admitted: st.admission.admitted(),
            peak_admitted: st.admission.peak(),
            queued: st.queue.len() as u64,
            running: st.running as u64,
            ..ServerStats::default()
        };
        for job in st.jobs.values() {
            match job.state {
                JobState::Done => s.done += 1,
                JobState::Suspended => s.suspended += 1,
                JobState::Cancelled | JobState::DeadlineExceeded => s.cancelled += 1,
                JobState::Failed => s.failed += 1,
                _ => {}
            }
        }
        s
    }

    /// Drain: stop admitting, interrupt every running job at its next
    /// checkpoint boundary, and wait until no job is running.  Queued
    /// jobs stay queued (durably) for the next server.
    pub fn drain(&self) -> DrainReport {
        {
            let mut st = self.inner.state();
            st.draining = true;
            for job in st.jobs.values() {
                if job.state == JobState::Running {
                    job.flag.trigger();
                }
            }
        }
        loop {
            {
                let st = self.inner.state();
                if st.running == 0 {
                    break;
                }
            }
            std::thread::sleep(WORKER_POLL);
        }
        let stats = self.stats();
        DrainReport {
            completed: stats.done,
            suspended: stats.suspended,
            cancelled: stats.cancelled,
            failed: stats.failed,
            queued: stats.queued,
        }
    }

    /// Drain, stop the workers, release the server lock, and report.
    pub fn shutdown(&self) -> DrainReport {
        let report = self.drain();
        self.inner.shutdown.trigger();
        let handles: Vec<_> = {
            let mut w = pdisk::lockwitness::guard(
                "srm_server::server::JobServer.workers",
                self.workers.lock().unwrap_or_else(|p| p.into_inner()),
            );
            w.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(self.inner.cfg.jobs_dir.join("server.lock"));
        report
    }
}

/// Take the single-server lock on `jobs_dir`, reclaiming stale locks
/// left by dead processes (checked via `/proc`).
fn acquire_lock(jobs_dir: &Path) -> Result<(), JobError> {
    let lock = jobs_dir.join("server.lock");
    if let Ok(text) = std::fs::read_to_string(&lock) {
        if let Ok(pid) = text.trim().parse::<u32>() {
            // A live pid refuses the open even when it is our own: two
            // servers over one jobs dir are wrong no matter where they
            // run.  `shutdown` releases the lock; dead owners are
            // reclaimed.
            if Path::new(&format!("/proc/{pid}")).exists() {
                return Err(JobError::Io(format!(
                    "jobs dir {} is owned by a live server (pid {pid})",
                    jobs_dir.display()
                )));
            }
        }
    }
    atomic_write(&lock, &format!("{}\n", std::process::id()))
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        if inner.shutdown.is_set() {
            return;
        }
        let claimed = {
            let mut st = inner.state();
            if st.draining {
                None
            } else {
                // Strict FIFO: only the head is considered, so a large
                // job is never starved by smaller ones slipping past it.
                // Claim and drain are serialized by the state mutex: a
                // drain either sees this job still queued (and leaves it
                // for the next server) or already Running with the fresh
                // flag it will trigger.
                match st.queue.front().copied() {
                    Some(id) => {
                        let cost = st.jobs.get(&id).map_or(0, |j| j.cost);
                        if st.admission.try_admit(cost) {
                            st.queue.pop_front();
                            st.running += 1;
                            if let Some(job) = st.jobs.get_mut(&id) {
                                job.state = JobState::Running;
                                job.flag = InterruptFlag::new();
                                job.cancel_requested = false;
                                job.deadline_hit = false;
                            }
                            Some((id, cost))
                        } else {
                            None
                        }
                    }
                    None => None,
                }
            }
        };
        match claimed {
            Some((id, cost)) => execute(inner, id, cost),
            None => std::thread::sleep(WORKER_POLL),
        }
    }
}

/// Run one claimed job to a terminal or suspended state and write its
/// durable marker.
fn execute(inner: &Arc<Inner>, id: u64, cost: u64) {
    let (spec, flag) = {
        let st = inner.state();
        match st.jobs.get(&id) {
            Some(job) => (job.spec.clone(), job.flag.clone()),
            None => return,
        }
    };
    let result = run_job(inner, id, &spec, flag);
    let dir = inner.job_dir(id);
    let marker: Option<(String, String)>;
    {
        let mut st = inner.state();
        st.running -= 1;
        st.admission.release(cost);
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        match result {
            Ok(digest) => {
                job.state = JobState::Done;
                job.digest = Some(digest);
                job.detail.clear();
                marker = None; // `done` was written inside run_job
            }
            Err(JobError::Interrupted) => {
                if job.cancel_requested {
                    job.state = JobState::Cancelled;
                    job.detail = "cancelled at a checkpoint boundary".into();
                    marker = Some(("cancelled".into(), job.detail.clone()));
                } else if job.deadline_hit {
                    job.state = JobState::DeadlineExceeded;
                    job.detail = "deadline overrun: checkpointed, then aborted".into();
                    marker = Some(("deadline".into(), job.detail.clone()));
                } else {
                    // A drain stopped it: suspended, resumable on restart.
                    job.state = JobState::Suspended;
                    job.detail = "suspended by drain; checkpoint journaled".into();
                    marker = None;
                }
            }
            Err(e) => {
                job.state = JobState::Failed;
                job.detail = e.to_string();
                marker = Some(("failed".into(), job.detail.clone()));
            }
        }
    }
    if let Some((kind, detail)) = marker {
        let _ = atomic_write(&dir.join("fail"), &format!("kind={kind}\ndetail={detail}\n"));
    }
}

/// Build (or reopen) the job's world and sort.  Returns the verified
/// output digest on completion.
fn run_job(inner: &Arc<Inner>, id: u64, spec: &JobSpec, flag: InterruptFlag) -> Result<u64, JobError> {
    let dir = inner.job_dir(id);
    let disks = dir.join("disks");
    let manifest = dir.join("manifest");
    let input_path = dir.join("input");
    let geom = spec.geometry()?;
    let job = spec.build(Some(flag));

    // Resume only when both halves of the crashed world survive: the
    // staged input descriptor and a loadable checkpoint generation.
    let resume = input_path.exists()
        && job.resume_point(geom, spec.records, &manifest)?.is_some();
    let (file, input) = if resume {
        let f: FileDiskArray<U64Record> = FileDiskArray::open(geom, &disks)?;
        let text = std::fs::read_to_string(&input_path)
            .map_err(|e| JobError::Io(format!("read {}: {e}", input_path.display())))?;
        (f, JobRun::decode(text.trim())?)
    } else {
        // Partial leftovers (a crash before the first checkpoint) are
        // wiped; the job re-stages deterministically from its spec.
        let _ = std::fs::remove_dir_all(&disks);
        let _ = std::fs::remove_file(&manifest);
        let _ = std::fs::remove_file(manifest.with_extension("prev"));
        let mut f: FileDiskArray<U64Record> = FileDiskArray::create(geom, &disks)?;
        let data = spec.input_records();
        let input = job.stage(&mut f, &data)?;
        f.sync()?;
        atomic_write(&input_path, &input.encode())?;
        (f, input)
    };
    file.set_io_delay(inner.cfg.io_delay);

    // The protected stack every job runs on: retries over injected
    // transient faults over the durable file backend.  With the spec's
    // fault rate at 0 the fault layer is a no-op passthrough, so one
    // stack shape serves both faulty and clean jobs.
    let mut stack = StackSpec {
        faults: Some(FaultModel::random(spec.fault_seed).with_rate(spec.fault_rate)),
        retry: Some(inner.cfg.retry),
        trace: inner.cfg.check_model,
        ..StackSpec::default()
    }
    .build(file, ())?;

    let started = Instant::now();
    let deadline = spec.deadline_ms.map(Duration::from_millis);
    let inner_obs = Arc::clone(inner);
    let mut observer = move |pass: u64| {
        let mut st = inner_obs.state();
        if let Some(j) = st.jobs.get_mut(&id) {
            j.passes = pass;
            if let Some(limit) = deadline {
                if started.elapsed() >= limit {
                    j.deadline_hit = true;
                    j.flag.trigger();
                }
            }
        }
    };

    let digest = sort_and_digest(&job, &mut stack, &input, &manifest, &mut observer)?;
    if inner.cfg.check_model {
        modelcheck::check_trace(geom, &stack.take_trace())
            .map_err(|v| JobError::Model(v.to_string()))?;
    }

    let expected = expected_digest(spec);
    if digest != expected {
        return Err(JobError::Engine(format!(
            "output digest {digest:#018x} != expected {expected:#018x}"
        )));
    }
    Ok(digest)
}

/// Sort (or resume), read the output back through the same stack, and
/// digest it.  On completion the `done` marker is journaled before the
/// caller flips in-memory state, so a crash between the two leaves a
/// resumable-but-finished job, never a lost result.
fn sort_and_digest<A: DiskArray<U64Record>>(
    job: &AnyJob,
    array: &mut A,
    input: &JobRun,
    manifest: &Path,
    observer: &mut dyn FnMut(u64),
) -> Result<u64, JobError> {
    let (run, report) = job.run(array, input, Some(manifest), |pass, _| {
        observer(pass);
        Ok(())
    })?;
    let out = job.output(array, &run)?;
    let digest = digest_keys(out.iter().map(|r| r.0));
    let done = format!(
        "digest={digest}\nrecords={}\nruns-formed={}\nmerge-passes={}\nmerge-order={}\nrun={}\n",
        report.records,
        report.runs_formed,
        report.merge_passes,
        report.merge_order,
        run.encode(),
    );
    atomic_write(&manifest.with_file_name("done"), &done)?;
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::EngineKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srm-server-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec(seed: u64) -> JobSpec {
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

    #[test]
    fn submit_run_and_report_one_job() {
        let dir = tmp_dir("one");
        let mut cfg = ServerConfig::new(&dir);
        cfg.workers = 1;
        let server = JobServer::open(cfg).unwrap();
        let id = server.submit(small_spec(7)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let s = server.status(id).unwrap();
            if s.state.is_terminal() {
                assert_eq!(s.state, JobState::Done, "detail: {}", s.detail);
                assert_eq!(s.digest, Some(expected_digest(&small_spec(7))));
                break;
            }
            assert!(Instant::now() < deadline, "job stuck: {:?}", s.state);
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_and_overflow_submissions_are_refused() {
        let dir = tmp_dir("refuse");
        let mut cfg = ServerConfig::new(&dir);
        cfg.capacity = 10; // far below any real budget
        cfg.queue_depth = 0;
        let server = JobServer::open(cfg).unwrap();
        match server.submit(small_spec(1)) {
            Err(SubmitError::TooLarge { cost, capacity }) => {
                assert!(cost > capacity);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_depth_is_bounded() {
        let dir = tmp_dir("depth");
        let spec = small_spec(3);
        let mut cfg = ServerConfig::new(&dir);
        cfg.workers = 1;
        cfg.queue_depth = 1;
        // Exactly one job's budget: the second job queues, the third
        // overflows the depth-1 queue.
        cfg.capacity = spec.budget_records().unwrap();
        cfg.io_delay = Duration::from_millis(2); // keep job 1 running a while
        let server = JobServer::open(cfg).unwrap();
        let first = server.submit(spec.clone()).unwrap();
        // Wait until the worker claims job 1, so the queue is empty again.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().running == 0 {
            assert!(Instant::now() < deadline, "job 1 never started");
            std::thread::sleep(Duration::from_millis(5));
        }
        let second = server.submit(small_spec(4)).unwrap();
        match server.submit(small_spec(5)) {
            Err(SubmitError::QueueFull { depth: 1 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_ne!(first, second);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_server_on_same_dir_is_refused() {
        let dir = tmp_dir("lock");
        let server = JobServer::open(ServerConfig::new(&dir)).unwrap();
        let err = JobServer::open(ServerConfig::new(&dir));
        assert!(err.is_err(), "live lock must refuse a second server");
        server.shutdown();
        // After shutdown the lock is released and reopening works.
        let again = JobServer::open(ServerConfig::new(&dir)).unwrap();
        again.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
