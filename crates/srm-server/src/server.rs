//! The job server: durable job directories, a bounded worker pool,
//! admission control, deadlines, cancellation, and drain/restart.
//!
//! ## Durability layout
//!
//! Every job owns a directory `jobs_dir/job-NNNNNN/`, a durable sort's
//! (DESIGN §11.3, [`crate::job::sort_durable`]) plus its `spec`:
//!
//! ```text
//! job-000001/
//!   spec       job description (JobSpec key=value encoding), atomic
//!   disks/     the FileDiskArray cluster (survives crashes)
//!   manifest   checkpoint manifest (journaled at pass boundaries)
//!   done       the Descriptor, published once every check has passed
//!   fail       terminal marker: kind=cancelled|deadline|failed, detail
//! ```
//!
//! Everything the server knows is reconstructible from this layout:
//! [`JobServer::open`] scans it, marks jobs with a terminal marker as
//! finished, and re-queues the rest in id order.  A re-queued job
//! resumes from its manifest byte-identically, or, with none, regenerates
//! its input from the spec and sorts it afresh — same spec, same bytes.
//!
//! ## Admission invariant
//!
//! Workers claim strictly from the queue head, and only after
//! [`Admission::try_admit`] accepts the job's Definition-3 price; so at
//! every instant the summed budgets of running jobs fit the configured
//! capacity, and jobs start in submission order.
//!
//! Nothing waits on a timer: every change of state bumps a generation
//! and notifies one `Condvar`, which every waiter parks on
//! ([`Inner::wait_for`], DESIGN §11.4).

use crate::drain::DrainReport;
use crate::job::{
    decode_fields, encode_fields, publish, sort_durable, Descriptor, DurableSort, FileCluster, JobError, JobSpec,
};
use crate::queue::Admission;
use pdisk::manifest::atomic_write;
use pdisk::sync::Mutex;
use pdisk::{FaultModel, InterruptFlag, RetryPolicy, StackSpec};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

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
    /// concurrency observable in tests.  It is the array's device time,
    /// so, nonzero, it is also what a job without `formation=` chooses
    /// its formation by ([`srm_core::SrmSorter::formation`]).
    pub io_delay: Duration,
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
    /// injected delay, model checking off.
    pub fn new(jobs_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            jobs_dir: jobs_dir.into(),
            capacity: 8192,
            workers: 2,
            queue_depth: 16,
            io_delay: Duration::ZERO,
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

/// Why a SUBMIT was refused.  Every refusal maps to a wire code in
/// `submit_error_line`, whose match denies clippy's wildcard-arm lints,
/// so a new variant cannot fall through.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
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
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
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
    /// A job in `state`, with the digest and passes of its descriptor and
    /// its detail (what [`terminal`] reads); without a descriptor, at no
    /// pass yet.
    fn new(spec: JobSpec, cost: u64, (state, done, detail): (JobState, Option<Descriptor>, String)) -> Job {
        Job {
            spec,
            cost,
            state,
            flag: InterruptFlag::new(),
            cancel_requested: false,
            deadline_hit: false,
            passes: done.as_ref().map_or(0, |d| d.passes),
            digest: done.map(|d| d.digest),
            detail,
        }
    }

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
    /// Nothing more is admitted or claimed, and workers exit.
    draining: bool,
    running: usize,
    /// Bumped at every change of state ([`Inner::touch`]); from 1, so a
    /// watcher that has seen nothing passes 0.
    generation: u64,
}

#[derive(Debug)]
struct Inner {
    cfg: ServerConfig,
    state: Mutex<State>,
    /// Notified at every bump of [`State::generation`].
    changed: Condvar,
    /// Successful job-store spec writes, for the
    /// [`ServerConfig::store_nospace_after`] injection hook.
    store_writes: std::sync::atomic::AtomicU64,
}

impl Inner {
    fn job_dir(&self, id: u64) -> PathBuf {
        self.cfg.jobs_dir.join(format!("job-{id:06}"))
    }

    /// Publish a change made to `st`: bump the generation and wake every
    /// waiter to re-check.
    fn touch(&self, st: &mut State) {
        st.generation += 1;
        self.changed.notify_all();
    }

    /// Wait until `ready`, run under the lock after every change, finds
    /// what the caller waits for.  If it changes the state it touches it.
    #[expect(
        clippy::disallowed_methods,
        reason = "the job server's one wait: workers, WATCH and serve's drain waiter park here until the state changes"
    )]
    fn wait_for<R>(&self, mut ready: impl FnMut(&mut State) -> Option<R>) -> R {
        let mut st = self.state.lock();
        loop {
            if let Some(found) = ready(&mut st) {
                return found;
            }
            st = st.wait(&self.changed);
        }
    }
}

/// The sort-as-a-service job server.
#[derive(Debug)]
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The terminal marker of a job that did not finish: its `kind`
/// (`cancelled`, `deadline`, `failed`) and `detail`, one line each.
const FAIL: &str = "fail";

fn write_fail(dir: &Path, kind: &str, detail: &str) -> Result<(), JobError> {
    publish(dir, FAIL, &encode_fields([("kind", kind.to_string()), ("detail", detail.replace('\n', " "))]))
}

/// A job directory's terminal state, from its markers: `fail` first, so
/// a store whose job failed a check after an older server had already
/// published its `done` reads as the failure it was.
fn terminal(dir: &Path) -> (JobState, Option<Descriptor>, String) {
    if let Ok(text) = std::fs::read_to_string(dir.join(FAIL)) {
        let fields = decode_fields(&text).unwrap_or_default();
        let field = |k: &str| fields.iter().find(|(key, _)| *key == k).map(|(_, v)| *v);
        let state = match field("kind") {
            Some("cancelled") => JobState::Cancelled,
            Some("deadline") => JobState::DeadlineExceeded,
            _ => JobState::Failed,
        };
        return (state, None, field("detail").unwrap_or_default().to_string());
    }
    match Descriptor::load(dir) {
        Ok(Some(done)) => (JobState::Done, Some(done), String::new()),
        Ok(None) => (JobState::Queued, None, String::new()),
        Err(e) => (JobState::Failed, None, e.to_string()),
    }
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
            jobs.insert(id, Job::new(spec, cost, terminal(&dir)));
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
                generation: 1,
            }),
            changed: Condvar::new(),
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

    /// Request a drain-and-stop and wake every waiter: nothing more is
    /// admitted or claimed, running jobs stop at their next checkpoint
    /// boundary, then workers exit.  `DRAIN` and the signal bridge call it.
    pub fn request_shutdown(&self) {
        let mut st = self.inner.state.lock();
        st.draining = true;
        st.jobs.values().filter(|j| j.state == JobState::Running).for_each(|j| j.flag.trigger());
        self.inner.touch(&mut st);
    }

    /// Whether a drain has been requested.
    pub(crate) fn is_draining(&self) -> bool {
        self.inner.state.lock().draining
    }

    /// Block until a drain is requested.
    pub(crate) fn wait_draining(&self) {
        self.inner.wait_for(|st| st.draining.then_some(()));
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
        let mut st = self.inner.state.lock();
        if st.draining {
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
            .and_then(|()| atomic_write(&dir.join("spec"), spec.encode().as_bytes()));
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
        st.jobs.insert(id, Job::new(spec, cost, (JobState::Queued, None, String::new())));
        st.queue.push_back(id);
        self.inner.touch(&mut st);
        Ok(id)
    }

    /// Status of one job, if it exists.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.inner.state.lock().jobs.get(&id).map(|j| j.status(id))
    }

    /// Status of one job, and the generation it was read at, once the
    /// state has moved past generation `seen` (0 at first) or a drain is
    /// requested.  `None` for an unknown job.  `WATCH` waits here.
    pub fn watch(&self, id: u64, seen: u64) -> Option<(u64, JobStatus)> {
        self.inner.wait_for(|st| {
            (st.generation != seen || st.draining).then(|| st.jobs.get(&id).map(|j| (st.generation, j.status(id))))
        })
    }

    /// Status of every job, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        self.inner
            .state
            .lock()
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
            let mut st = self.inner.state.lock();
            let Some(job) = st.jobs.get_mut(&id) else {
                return false;
            };
            let marker = match job.state {
                JobState::Queued | JobState::Suspended => {
                    job.state = JobState::Cancelled;
                    job.detail = "cancelled before running".into();
                    st.queue.retain(|q| *q != id);
                    true
                }
                JobState::Running => {
                    job.cancel_requested = true;
                    job.flag.trigger();
                    false
                }
                _ => return false,
            };
            self.inner.touch(&mut st);
            marker
        };
        if marker {
            let _ = write_fail(&self.inner.job_dir(id), "cancelled", "cancelled before running");
        }
        true
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServerStats {
        let st = self.inner.state.lock();
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

    /// Drain and stop: request the shutdown, join the workers (each exits
    /// once its job has settled, so no job is running after), release
    /// the server lock, and report.  Queued jobs stay queued (durably)
    /// for the next server.
    pub fn shutdown(&self) -> DrainReport {
        self.request_shutdown();
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(self.inner.cfg.jobs_dir.join("server.lock"));
        let stats = self.stats();
        DrainReport {
            completed: stats.done,
            suspended: stats.suspended,
            cancelled: stats.cancelled,
            failed: stats.failed,
            queued: stats.queued,
        }
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
    atomic_write(&lock, format!("{}\n", std::process::id()).as_bytes())
        .map_err(|e| JobError::Io(format!("write {}: {e}", lock.display())))
}

fn worker_loop(inner: &Arc<Inner>) {
    // A drain is `Some(None)`: the worker exits.
    while let Some(claimed) = inner.wait_for(|st| if st.draining { Some(None) } else { claim(inner, st).map(Some) }) {
        execute(inner, claimed);
    }
}

/// A claimed job: its id, admission price, spec and fresh interrupt flag.
type Claimed = (u64, u64, JobSpec, InterruptFlag);

/// Claim the queue head if admission accepts its price.  Strict FIFO:
/// only the head is considered, so a large job is never starved by
/// smaller ones slipping past it.  Claim and drain are serialized by the
/// state mutex: a drain either sees this job still queued (and leaves it
/// for the next server) or already Running with the fresh flag it will
/// trigger.
fn claim(inner: &Inner, st: &mut State) -> Option<Claimed> {
    let id = st.queue.front().copied()?;
    let job = st.jobs.get_mut(&id)?;
    if !st.admission.try_admit(job.cost) {
        return None;
    }
    job.state = JobState::Running;
    job.flag = InterruptFlag::new();
    job.cancel_requested = false;
    job.deadline_hit = false;
    let claimed = (id, job.cost, job.spec.clone(), job.flag.clone());
    st.queue.pop_front();
    st.running += 1;
    inner.touch(st);
    Some(claimed)
}

/// Run one claimed job to a terminal or suspended state and write its
/// durable marker.
fn execute(inner: &Arc<Inner>, (id, cost, spec, flag): Claimed) {
    let result = run_job(inner, id, &spec, flag);
    let dir = inner.job_dir(id);
    let marker: Option<(String, String)>;
    {
        let mut st = inner.state.lock();
        st.running -= 1;
        st.admission.release(cost);
        // Waiters re-check once the whole settlement is in.
        inner.touch(&mut st);
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        match result {
            Ok(done) => {
                job.state = JobState::Done;
                job.digest = Some(done.digest);
                job.passes = done.passes;
                job.detail.clear();
                marker = None; // `done` was published inside run_job
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
        let _ = write_fail(&dir, &kind, &detail);
    }
}

/// Sort the job durably in its directory: the default retry policy over
/// the file cluster, with the fault injector under it only at a nonzero
/// rate (without it the output is digested as the last merge writes it),
/// an observer that records each pass and trips the deadline, and the
/// one-scan check that the output is the input sorted as the last check
/// before `done` is published.
/// Returns the published descriptor.
fn run_job(inner: &Arc<Inner>, id: u64, spec: &JobSpec, flag: InterruptFlag) -> Result<Descriptor, JobError> {
    let clock = Instant::now();
    let records = spec.input_records();
    let stage_ms = clock.elapsed().as_millis() as u64;
    let stack = StackSpec {
        faults: (spec.fault_rate > 0.0).then(|| FaultModel::random(spec.fault_seed).with_rate(spec.fault_rate)),
        retry: Some(RetryPolicy::default()),
        trace: inner.cfg.check_model,
        ..StackSpec::default()
    };
    let started = Instant::now();
    let deadline = spec.deadline_ms.map(Duration::from_millis);
    let observer = |pass: u64, _: &mut _| {
        let mut st = inner.state.lock();
        if let Some(j) = st.jobs.get_mut(&id) {
            j.passes = pass;
            if deadline.is_some_and(|limit| started.elapsed() >= limit) {
                j.deadline_hit = true;
                j.flag.trigger();
            }
            inner.touch(&mut st);
        }
        Ok(())
    };
    let job = DurableSort {
        dir: &inner.job_dir(id),
        geom: spec.geometry()?,
        sorter: &spec.build(Some(flag)),
        records: &records,
        staged: false,
        stage_ms,
        stack,
        slot: (),
        cluster: &mut FileCluster { io_delay: inner.cfg.io_delay },
        oracle: true,
    };
    Ok(sort_durable(job, observer)?.done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{expected_digest, EngineKind};

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
