//! Subcommand implementations.

use crate::args::Flags;
use pdisk::{
    ArrayTiming, CrashClock, DiskArray, DiskId, DiskModel, FaultModel, FileDiskArray, Geometry,
    InterruptFlag, Manifest as _, MemDiskArray, ParitySpec, Record, RetryPolicy, SortError, Sorter,
    StackSpec, U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::simulator::{estimate_overhead_v, SimPlacement};
use srm_core::{Placement, RunFormation};
use srm_server::{EngineKind, JobServer, JobSpec, ServerConfig};
use std::path::{Path, PathBuf};

/// CLI-level error: either a message for stderr (exit 2) or a graceful
/// interruption (exit 130 = 128 + SIGINT, the shell convention), which
/// is *not* a failure — the checkpoint is journaled and a rerun with the
/// same flags resumes byte-identically.
enum CliError {
    Msg(String),
    /// What became of the sort's progress, for the `interrupted:` line.
    Interrupted(String),
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Msg(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Msg(m.into())
    }
}

/// Exit code for a graceful interrupt (`128 + SIGINT`).
pub const EXIT_INTERRUPTED: i32 = 130;

/// Top-level usage text.
pub const USAGE: &str = "\
srm — Simple Randomized Mergesort on parallel disks (SPAA '96 reproduction)

USAGE:
  srm sort [--records N] [--d D] [--b B] [--k K | --m M] [--algo srm|dsm|both]
           [--backend mem|file] [--dir PATH] [--seed S]
           [--placement random|staggered] [--formation load|parload|rs]
           [--threads N] [--pipeline] [--read-ahead K] [--keep]
           [--fault-rate R] [--fault-seed S] [--resume MANIFEST]
           [--parity] [--kill-disk D@PASS] [--slow-disk D:F[,D:F...]]
           [--hedge-after MULT] [--check-model]
           [--crash-at K] [--crash-points]
      Generate N random records, stage them on the simulated disk array,
      sort, verify, and print the I/O accounting (one parallel operation
      moves up to one block per disk) plus estimated wall times under a
      1996-era disk model and an SSD model.

      --pipeline opens both sorters' I/O window: the next scheduled
      read is in flight while the merge drains the current buffers, and
      output stripes are written behind the merge (DESIGN.md §9).
      Without it every parallel I/O is waited for where it is issued —
      the same engine at window 0.  The operation sequence, I/O
      accounting, and output bytes are identical either way — only the
      waiting overlaps — so --check-model and --resume work unchanged.
      --read-ahead K additionally hints the next K forecast-predicted
      blocks per disk to the backend as speculative reads (DESIGN.md
      §14; SRM only, needs --pipeline, default 0).
      --threads N sizes parallel run formation (and implies
      --formation parload when --formation is not given); under
      --formation load or rs, which sort on one thread, it is a usage
      error.

      --fault-rate R injects transient faults on reads and writes with
      per-disk probability R (0 <= R < 1, seeded by --fault-seed) and
      absorbs them with the bounded-retry wrapper; retry counts appear in
      the I/O line.  --resume MANIFEST checkpoints the sort to MANIFEST
      after every pass and, when the file already exists, resumes from it
      (with --backend file the disk files are reopened, not truncated —
      a killed sort picks up from its last completed pass).  Both
      sorters run the same pass driver (DESIGN.md §6.4), so --algo dsm
      honours --backend, --resume and Ctrl-C checkpointing exactly as
      --algo srm does.  One manifest names one sort: under --algo both
      it is the SRM sort's, and DSM runs unjournaled.  Memory disks die
      with their process, so --backend mem refuses a MANIFEST that
      survives from an earlier run (delete it, or sort on --backend
      file --dir D --keep).

      --parity adds rotating-parity redundancy (RAID-5 style): the array
      survives one permanent disk death, serving the dead disk's blocks by
      reconstruction from the surviving disks (reconstruction reads and
      parity writes are counted separately so the logical schedule stays
      comparable).  --kill-disk D@PASS is the failure drill: disk D dies
      permanently right after pass PASS (0 = run formation) and the sort
      completes degraded, byte-identical to the failure-free run.
      --slow-disk D:F marks disk D as F times slower than nominal;
      --hedge-after MULT (default 4) reads around any disk at least
      MULT times slower than the fastest via parity reconstruction
      instead of waiting for it.  Checkpoint manifests record the parity
      geometry and dead-disk set, so --resume works from a degraded
      array.  --kill-disk, --slow-disk, and --hedge-after require
      --parity.

      --crash-points numbers every I/O boundary of the SRM sort with a
      counting crash clock and reports the total N after success;
      --crash-at K then kills the process state at boundary K exactly
      (including torn parallel writes where only a prefix of the stripe
      lands) and exits nonzero.  Rerun without --crash-at (keeping
      --resume MANIFEST and, with --backend file, the same --dir) to
      recover from the last durable checkpoint.  Both flags stay
      SRM-only (--algo srm; DSM carries no crash clock) and cannot be
      combined with --kill-disk.

      --check-model records the structured I/O trace of each sort and
      replays it through the modelcheck invariant checker (one block per
      disk per parallel I/O, forecast-minimal fetching, flush discipline,
      buffer budgets, striped output runs, parity placement — DESIGN.md
      §8).  Any violation aborts with a typed, located error naming the
      pass, disk, and block involved.

      Ctrl-C (SIGINT) or SIGTERM interrupts either sorter gracefully:
      with --resume MANIFEST the current pass finishes, the checkpoint
      is journaled, and the process exits with code 130; rerunning with
      the same flags (on --backend file) resumes byte-identically from
      that boundary.  (The hidden --interrupt-after-pass K flag trips
      the same path from tests without a signal.)

  srm occupancy --k K --d D [--trials N] [--seed S]
      Estimate Table 1's overhead v(k, D) = C(kD, D)/k by ball-throwing.

  srm simulate --k K --d D [--blocks L] [--trials N] [--seed S]
           [--placement random|staggered]
      Estimate Table 3's overhead v(k, D) by simulating the SRM merge of
      kD runs of L blocks on average-case input.

  srm scrub --dir PATH --manifest MANIFEST [--parity]
      Walk every live run recorded in a sort's checkpoint manifest,
      verify block checksums, and (with --parity) self-heal latent
      corruption by parity reconstruction.  Geometry and the dead-disk
      set come from the manifest; disk files are reopened from --dir.
      Exits 0 when every block verified clean or was repaired, 1 when
      any block is unrepairable.

  srm crash-matrix [--records N] [--d D] [--b B] [--k K | --m M]
           [--seed S] [--pipeline] [--read-ahead K] [--parity]
           [--backend mem|file] [--dir PATH] [--no-check]
      Exhaustive crash-point exploration: dry-run a small checkpointed
      sort to number its N I/O boundaries, then for every K in 0..N
      crash at boundary K, reboot (only the disks and sidecar files
      survive), recover, and require byte-identical sorted output.
      Each recovery's own I/O trace is replayed through the model
      checker unless --no-check is given.

  srm serve --dir PATH [--port P] [--capacity M] [--workers N]
           [--queue-depth Q] [--io-delay-us U] [--check-model]
           [--store-nospace-after N]
      Sort-as-a-service: a job server on a loopback TCP line protocol.
      Jobs are priced by their Definition-3 memory partition and admitted
      only while the sum of running budgets fits --capacity (records of
      server memory M); the wait queue is bounded by --queue-depth and
      SUBMIT is refused explicitly beyond either limit.  Every job lives
      in a durable directory under --dir, checkpointing after each merge
      pass.  SIGINT/SIGTERM (or the DRAIN verb) drain gracefully: stop
      admitting, checkpoint every running job at its next pass boundary,
      exit; a restarted server on the same --dir resumes every
      unfinished job byte-identically.  --port 0 (default) picks an
      ephemeral port, announced as `listening on ADDR`.
      --store-nospace-after N is a chaos-drill hook: the job store's
      disk reports ENOSPC after N record-writes, so the overflowing
      SUBMIT is refused with the typed `no-space` admission error while
      the server keeps serving (no wedged slot, clean drain).

      Protocol verbs, one request per line:
        SUBMIT key=value ...   (records=N d=D b=B m=M engine=srm|dsm
                                seed=S deadline-ms=T fault-rate=R
                                pipeline=0|1 read-ahead=K ...)
                               A job sorts pipelined at read-ahead 3
                               unless it says otherwise; pipeline=0 is
                               the window-0 reference (DESIGN.md §11.1).
        STATUS ID | WATCH ID | CANCEL ID | LIST | STATS | DRAIN |
        PING | QUIT

  srm client --port P --send \"REQUEST\" [--connect-retries N]
      One-shot client for `srm serve`: sends REQUEST, prints the
      response lines (WATCH streams until the job settles), exits 1 if
      the server answered with an error.  Connection refused/reset is
      retried up to N times (default 8) with capped exponential
      backoff, so a client racing a still-booting server wins.

  srm distsort [--shards P] [--records N] [--d D] [--b B] [--k K | --m M]
           [--seed S] [--pipeline] [--read-ahead K]
           [--placement random|staggered]
           [--parity] [--dir PATH] [--keep] [--procs]
           [--heartbeat-ms H] [--timeout-ms T] [--io-delay-us U]
           [--kill-node S@PASS | --kill-node S@merge:K]
           [--corrupt-disk D] [--net-seed S] [--net-drop R]
           [--net-dup R] [--net-delay R] [--net-max-delay K]
           [--partition NODE:FROM:UNTIL]
      Distributed sort that survives node death: a coordinator samples
      P-1 splitters, routes records to P shard nodes over a
      fault-injectable message channel, each shard runs a checkpointed
      SRM sort over its own disk cluster (traces model-checked), and
      the coordinator concatenates the shards' runs in splitter order,
      fetched in stripe-wide windows with one request always in flight,
      into the striped global output.  A shard's stage-in, sort and
      digest read-back all keep their I/O in flight: without either
      window flag the sort runs pipelined at read-ahead 3 (the job
      default); --pipeline [--read-ahead K] picks the depth as for
      `srm sort`, and --read-ahead 0 alone asks for window 0, the
      reference every window is byte- and count-identical to.  Per
      shard the report prints where its time went (stage / sort /
      verify / check ms).  Shards are
      threads by default; --procs spawns real `srm` child processes so
      the node-death drill is a genuine SIGKILL.  A heartbeat failure
      detector (--heartbeat-ms / --timeout-ms) declares silent nodes
      dead, fences the old epoch (its in-flight I/O fails, its stale
      messages are discarded), and boots a replacement that resumes
      from the shard's last checkpoint manifest.  --kill-node S@PASS is
      the drill: kill shard S at pass boundary PASS (or S@merge:K after
      it has served K stripe-wide output windows, K=0 being before the
      first); with --parity, --corrupt-disk D also trashes disk D of the
      victim's cluster so the replacement must rebuild from parity
      before resuming.  The output stream degrades gracefully: it stalls
      on a dead shard and resumes when the replacement serves again.  --net-* and --partition inject seeded
      channel faults (drop/duplicate/delay/partition windows).  The
      final digest is checked against a centrally sorted oracle; any
      mismatch exits nonzero.

  srm chaos [--target local|distsort|server|all] [--seed S] [--trials N]
           [--records N] [--d D] [--b B] [--m M] [--pipeline]
           [--read-ahead K] [--shards P] [--jobs J] [--no-minimize]
           [--plant-bug] [--dir PATH] [--keep]
  srm chaos --replay FILE [--dir PATH] [--expect-violation CODE]
      Chaos campaign engine: N trials, each drawing a seeded randomized
      fault schedule that composes the workspace's injectors —
      transient/permanent/corruption disk faults, disk-full (ENOSPC),
      fsync failure, crash points, interrupts, network
      drop/dup/delay/partition, node kills, server kill -9 — and
      running it against the chosen target: `local` (the in-process
      checkpointed sort behind the full tracing/crash/retry/parity
      stack), `distsort` (the sharded sort with failure detection), or
      `server` (a real `srm serve` child on a durable store, killed
      with SIGKILL and restarted).  After every trial a standing oracle
      checks: output identical to the failure-free run, model-checker-
      clean traces, no panic, no unexpected error, no wedged recovery,
      no leaked temp or journal files.  Schedules are a pure function
      of (target, seed, trial): reruns are bit-identical.

      On a violation the delta-debugging minimizer shrinks the
      schedule to a 1-minimal failing subset and writes a
      deterministic reproducer (chaos-repro-N.json) into --dir;
      `srm chaos --replay FILE` re-executes it exactly, and
      --expect-violation CODE makes the replay exit 0 only when it
      reproduces that violation (for CI regression fixtures).
      --plant-bug arms a deliberate retry-classification bug (ENOSPC
      relabelled transient, so recovery spins) — the engine's own
      end-to-end fixture: the campaign must catch it, shrink it to the
      single disk-full event, and replay it.  Exit 0 iff the campaign
      had zero violations.

  srm help
      This text.
";

/// The hidden subcommand `--procs` spawns its children as.
const SHARD_RUN_USAGE: &str = "  srm shard-run --root PATH --shard S [--arm-kill PASS]
      One `srm distsort --procs` shard as a child process (internal).
";

/// `sub`'s own section of [`USAGE`], synopsis and description: what `srm
/// SUB --help` prints, and the text [`Flags::parse`] takes the
/// subcommand's flags from.
pub fn usage_of(sub: &str) -> &'static str {
    if sub == "shard-run" {
        return SHARD_RUN_USAGE;
    }
    let head = format!("\n  srm {sub} ");
    let from = USAGE.find(&head).map_or(0, |at| at + 1);
    let section = &USAGE[from..];
    // Up to the next subcommand's synopsis (`srm chaos` has two lines).
    let next = section.match_indices("\n  srm ").find(|(at, _)| !section[*at..].starts_with(&head));
    &section[..next.map_or(section.len(), |(at, _)| at + 1)]
}

pub fn fail(msg: impl std::fmt::Display) -> i32 {
    eprintln!("error: {msg}");
    2
}

/// `srm sort`
pub fn sort(flags: &Flags) -> i32 {
    let inner = || -> Result<(), CliError> {
        let records: u64 = flags.get_or("records", 1_000_000)?;
        let d: usize = flags.get_or("d", 4)?;
        let b: usize = flags.get_or("b", 64)?;
        let seed: u64 = flags.get_or("seed", 0xC11_5EED)?;
        let geom = match flags.get::<usize>("m")? {
            Some(m) => Geometry::new(d, b, m).map_err(|e| e.to_string())?,
            None => {
                let k: usize = flags.get_or("k", 4)?;
                Geometry::for_table(k, d, b).map_err(|e| e.to_string())?
            }
        };
        let algo = flags.get_str("algo").unwrap_or("both");
        if !matches!(algo, "srm" | "dsm" | "both") {
            return Err(format!("unknown algo `{algo}`").into());
        }
        let backend = flags.get_str("backend").unwrap_or("mem");
        if !matches!(backend, "mem" | "file") {
            return Err(format!("unknown backend `{backend}`").into());
        }
        let placement = match flags.get_str("placement").unwrap_or("random") {
            "random" => Placement::Random,
            "staggered" => Placement::Staggered,
            other => return Err(format!("unknown placement `{other}`").into()),
        };
        let (formation, threads) = flags.formation()?;
        let formation = match formation {
            "load" => RunFormation::MemoryLoad { fraction: 0.5 },
            "parload" => RunFormation::ParallelMemoryLoad {
                fraction: 0.5,
                threads: threads.unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(4, |p| p.get())
                }),
            },
            "rs" => RunFormation::ReplacementSelection,
            other => return Err(format!("unknown formation `{other}`").into()),
        };
        let (pipeline, read_ahead) = flags.overlap()?;
        let fault_rate: f64 = flags.get_or("fault-rate", 0.0)?;
        if !(0.0..1.0).contains(&fault_rate) {
            return Err(format!("--fault-rate {fault_rate} outside [0, 1)").into());
        }
        let fault_seed: u64 = flags.get_or("fault-seed", 0xFA_017)?;
        let resume = flags.get_str("resume").map(PathBuf::from);

        // Crash drills: a counting clock numbers the boundaries, an
        // armed clock kills the process state at one of them.
        let crash_at: Option<u64> = flags.get("crash-at")?;
        let crash_points = flags.has("crash-points");
        let crash = match crash_at {
            Some(kk) => Some(CrashClock::crash_at(kk)),
            None if crash_points => Some(CrashClock::counting()),
            None => None,
        };

        let parity = flags.has("parity");
        let kill = flags.get_str("kill-disk").map(parse_kill_spec).transpose()?;
        let slow = flags
            .get_str("slow-disk")
            .map(parse_slow_spec)
            .transpose()?
            .unwrap_or_default();
        let hedge_after: f64 = flags.get_or("hedge-after", 4.0)?;
        if !parity && (kill.is_some() || !slow.is_empty() || flags.get_str("hedge-after").is_some())
        {
            return Err("--kill-disk, --slow-disk, and --hedge-after require --parity".into());
        }
        if parity && geom.d < 2 {
            return Err("--parity needs at least 2 disks".into());
        }
        if hedge_after <= 0.0 {
            return Err(format!("--hedge-after {hedge_after} must be positive").into());
        }
        for disk in kill.iter().map(|&(d, _)| d).chain(slow.iter().map(|&(d, _)| d)) {
            if disk as usize >= geom.d {
                return Err(format!("disk {disk} out of range for D={}", geom.d).into());
            }
        }
        let popts = parity.then_some(ParityOpts {
            kill,
            slow,
            hedge_after,
        });
        if crash.is_some() {
            if algo != "srm" {
                return Err("--crash-at / --crash-points require --algo srm".into());
            }
            if popts.as_ref().is_some_and(|p| p.kill.is_some()) {
                return Err("--crash-at / --crash-points cannot be combined with --kill-disk".into());
            }
        }

        println!(
            "geometry: D={} disks, B={} records/block, M={} records ({} blocks of memory)",
            geom.d,
            geom.b,
            geom.m,
            geom.memory_blocks()
        );
        if let Ok(budget) = analysis::MemoryBudget::for_geometry(geom) {
            println!("SRM memory partition (Definition 3): {}", budget.render());
        }
        println!("input: {records} random u64 records (seed {seed:#x})\n");
        // One construction path everywhere: the CLI builds the same
        // JobSpec the job server and the crash-matrix harness use, and
        // drives the sorters it builds through the same `Sorter`
        // lifecycle, so `srm sort`, `srm serve`, and `srm crash-matrix`
        // can never drift in how they wire a sorter, generate input, or
        // resume.
        let spec = JobSpec {
            engine: EngineKind::Srm,
            records,
            seed,
            d: geom.d,
            b: geom.b,
            m: geom.m,
            placement,
            formation,
            pipeline,
            read_ahead,
            fault_rate,
            fault_seed,
            ..JobSpec::default()
        };
        let data = spec.input_records();

        // Graceful interruption: SIGINT/SIGTERM (or the test hook
        // --interrupt-after-pass K) trip this flag; the sorter stops at
        // the next pass boundary *after* journaling its checkpoint, and
        // the process exits with code 130.  Without --resume there is no
        // manifest to journal, so the sort simply stops early.
        let interrupt = InterruptFlag::new();
        srm_repro::signals::install();
        srm_repro::signals::watch(interrupt.clone(), || false);
        let trip: Option<(InterruptFlag, u64)> = flags
            .get::<u64>("interrupt-after-pass")?
            .map(|k| (interrupt.clone(), k));

        let job = |label: &'static str, resume: Option<&Path>| SortJob {
            label,
            data: &data,
            geom,
            fault_rate,
            fault_seed,
            resume: resume.map(Path::to_path_buf),
            durable: backend == "file",
            parity: popts.clone(),
            check_model: flags.has("check-model"),
            crash: crash.clone(),
            trip: trip.clone(),
        };
        if algo == "srm" || algo == "both" {
            let sorter = spec.srm_sorter().with_interrupt(interrupt.clone());
            // The sorter ticks its own manifest-write boundaries on the
            // same clock the array layers use, so boundary numbering is
            // total.
            let sorter = match &crash {
                Some(c) => sorter.with_crash_clock(c.clone()),
                None => sorter,
            };
            if pipeline {
                println!("window: pipelined (reads in flight + write-behind)");
            }
            sort_on_backend(flags, &sorter, &job("SRM", resume.as_deref()))?;
            if let Some(c) = crash.as_ref().filter(|_| crash_points) {
                println!(
                    "crash boundaries numbered: {} (explore with --crash-at 0..{})",
                    c.points(),
                    c.points()
                );
            }
        }
        if algo == "dsm" || algo == "both" {
            // One manifest names one sort: under `--algo both` it is SRM's.
            let resume = resume.as_deref().filter(|_| algo == "dsm");
            let sorter = spec.dsm_sorter().with_interrupt(interrupt.clone());
            sort_on_backend(flags, &sorter, &job("DSM", resume))?;
        }
        Ok(())
    };
    match inner() {
        Ok(()) => 0,
        Err(CliError::Interrupted(outcome)) => {
            eprintln!("interrupted: {outcome}");
            EXIT_INTERRUPTED
        }
        Err(CliError::Msg(e)) => fail(e),
    }
}

/// What one `srm sort` run hands down the chain besides the array and
/// the sorter.
struct SortJob<'a> {
    /// The engine's name in the report (`SRM` / `DSM`).
    label: &'static str,
    data: &'a [U64Record],
    geom: Geometry,
    fault_rate: f64,
    fault_seed: u64,
    /// `--resume`: the manifest this sort journals to and resumes from.
    resume: Option<PathBuf>,
    /// Whether the disks outlive the process (`--backend file`): only
    /// then can a journaled checkpoint actually be resumed.
    durable: bool,
    parity: Option<ParityOpts>,
    check_model: bool,
    crash: Option<CrashClock>,
    /// `--interrupt-after-pass K`, standing in for a human Ctrl-C.
    trip: Option<(InterruptFlag, u64)>,
}

/// Why a checkpoint under `--backend mem` cannot be resumed, and the two
/// ways out.
fn memory_disks_die(manifest: &Path, consequence: &str) -> String {
    format!(
        "--backend mem disks die with their process, so {consequence}; delete {} to start \
         over, or sort with --backend file --dir D --keep for a resumable one",
        manifest.display()
    )
}

impl SortJob<'_> {
    /// Render a sort failure with the advice that fits it: what a rerun
    /// would do, or why it cannot help.
    fn failure(&self, e: SortError) -> CliError {
        match (&e, self.resume.as_deref(), self.durable) {
            (SortError::Interrupted, Some(m), true) => CliError::Interrupted(format!(
                "checkpoint journaled; rerun with the same flags to resume from {}",
                m.display()
            )),
            (SortError::Interrupted, Some(m), false) => CliError::Interrupted(format!(
                "checkpoint journaled at {}, but {}",
                m.display(),
                memory_disks_die(m, "it cannot be resumed")
            )),
            (SortError::Interrupted, None, _) => CliError::Interrupted(
                "this sort had no --resume manifest (under --algo both it is the SRM sort's), \
                 so nothing was checkpointed; rerun to start over"
                    .into(),
            ),
            // A bad manifest will fail the same way on every rerun — the
            // only way out is to discard it.
            (SortError::Checkpoint(_), Some(m), _) => CliError::Msg(format!(
                "{e}; delete {} to start a fresh sort",
                m.display()
            )),
            (_, Some(m), true) => CliError::Msg(format!(
                "{e}; rerun with the same flags to resume from {}",
                m.display()
            )),
            _ => CliError::Msg(e.to_string()),
        }
    }

    /// Whether `sorter` would resume from `--resume` — asked before the
    /// array is built, since a resume reopens the disk files instead of
    /// truncating them — and if so, the disks the checkpoint records dead,
    /// for the parity layer to re-mark.
    fn resume_point<S: Sorter>(&self, sorter: &S) -> Result<Option<Vec<DiskId>>, CliError> {
        let Some(path) = self.resume.as_deref() else {
            return Ok(None);
        };
        let at = sorter
            .resume_point(self.geom, self.data.len() as u64, path)
            .map_err(|e| self.failure(e))?;
        let Some(at) = at else {
            return Ok(None);
        };
        if !self.durable {
            return Err(format!(
                "{} holds a checkpoint from an earlier run, but {}",
                path.display(),
                memory_disks_die(path, "the runs it names are gone")
            )
            .into());
        }
        println!("resuming from {}", path.display());
        Ok(Some(at.redundancy.map(|r| r.dead).unwrap_or_default()))
    }
}

/// Build the `--backend` array — fresh, or reopened when `--resume` finds
/// a checkpoint — and run `sorter` on it.
fn sort_on_backend<S: Sorter>(flags: &Flags, sorter: &S, job: &SortJob) -> Result<(), CliError> {
    let resuming = job.resume_point(sorter)?;
    let dead = resuming.as_deref().unwrap_or_default();
    if !job.durable {
        let array: MemDiskArray<U64Record> = MemDiskArray::new(job.geom);
        return run_sort(array, sorter, job, None, dead, |_| None);
    }
    let dir = flags.get_str("dir").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("srm-cli-{}", std::process::id()))
    });
    println!("file backend at {}", dir.display());
    // Resuming from a manifest means the disk files hold prior progress:
    // reopen them instead of truncating.
    let array: FileDiskArray<U64Record> = if resuming.is_some() {
        FileDiskArray::open(job.geom, &dir).map_err(|e| e.to_string())?
    } else {
        FileDiskArray::create(job.geom, &dir).map_err(|e| e.to_string())?
    };
    // Parity frames persist next to the disk files so a degraded sort can
    // be resumed after a crash.  A fresh sort truncates the disks, so any
    // sidecar left by an earlier (crashed) run is stale and must go with
    // them.
    let store = job.parity.as_ref().map(|_| dir.join("parity.store"));
    if let Some(s) = store.as_ref().filter(|_| resuming.is_none()) {
        let _ = std::fs::remove_file(s);
    }
    run_sort(array, sorter, job, store.as_deref(), dead, |a| Some(file_counters(a)))?;
    if !flags.has("keep") {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!("disk files kept at {}", dir.display());
    }
    Ok(())
}

/// The file backend's own counters, one line: whether a parallel I/O
/// reached the workers as one event, whether read-ahead hints landed,
/// and whether buffers came out of the pool.
fn file_counters(a: &FileDiskArray<U64Record>) -> String {
    let (q, pf) = (a.queue_stats(), a.prefetch_stats());
    let pool = a.buffer_pool().map(|p| p.stats()).unwrap_or_default();
    format!(
        "{} submissions, {} notifications, {} completion waits; read-ahead {} issued, {} hit, \
         {} invalidated; pool hit rate {:.4} ({} misses)",
        q.submissions,
        q.notifications,
        q.completion_waits,
        pf.issued,
        pf.hits,
        pf.invalidated,
        pool.hit_rate().unwrap_or(0.0),
        pool.misses(),
    )
}

fn print_io(label: &str, io: &pdisk::IoStats, geom: Geometry, cpu: std::time::Duration) {
    println!("  {label}: {io}");
    for (name, model) in [
        ("1996 HDD array", DiskModel::hdd_1996()),
        ("modern SSD array", DiskModel::ssd()),
    ] {
        let bytes = geom.b * U64Record::ENCODED_LEN;
        let t = model.estimate(io, bytes);
        println!(
            "    {name}: {:.2}s I/O ({:.1} MB/s); with compute overlapped {:.2}s, serialized {:.2}s",
            t.as_secs_f64(),
            model.achieved_bandwidth(io, bytes),
            model.overlapped_estimate(io, bytes, cpu).as_secs_f64(),
            model.serial_estimate(io, bytes, cpu).as_secs_f64(),
        );
    }
}

/// Redundancy drill options parsed from `--parity` and friends.
#[derive(Debug, Clone)]
struct ParityOpts {
    /// `--kill-disk D@PASS`: disk D dies permanently right after PASS.
    kill: Option<(u32, u64)>,
    /// `--slow-disk D:F`: per-disk slowdown factors.
    slow: Vec<(u32, f64)>,
    /// `--hedge-after MULT`: hedge reads off disks this much slower than
    /// the fastest.
    hedge_after: f64,
}

fn parse_kill_spec(s: &str) -> Result<(u32, u64), String> {
    let (d, pass) = s
        .split_once('@')
        .ok_or_else(|| format!("--kill-disk {s}: expected D@PASS"))?;
    Ok((
        d.parse().map_err(|_| format!("--kill-disk {s}: bad disk id"))?,
        pass.parse()
            .map_err(|_| format!("--kill-disk {s}: bad pass number"))?,
    ))
}

fn parse_slow_spec(s: &str) -> Result<Vec<(u32, f64)>, String> {
    s.split(',')
        .map(|part| {
            let (d, f) = part
                .split_once(':')
                .ok_or_else(|| format!("--slow-disk {part}: expected D:FACTOR"))?;
            let disk: u32 = d.parse().map_err(|_| format!("--slow-disk {part}: bad disk id"))?;
            let factor: f64 = f.parse().map_err(|_| format!("--slow-disk {part}: bad factor"))?;
            if factor < 1.0 {
                return Err(format!("--slow-disk {part}: factor must be >= 1"));
            }
            Ok((disk, factor))
        })
        .collect()
}

/// Run `sorter` on `backend` under the layers this job asks for — fault
/// injection + retry (`--fault-rate`), rotating parity (`--parity`, with
/// its sidecar `store` and the disks a resumed manifest records `dead`),
/// the crash clock (`--crash-at` / `--crash-points`) and the trace
/// (`--check-model`): stage, sort, verify, report — the report ending with
/// `backend_counters`' line when the backend keeps counters of its own.
fn run_sort<S: Sorter, A: DiskArray<U64Record>>(
    backend: A,
    sorter: &S,
    job: &SortJob,
    store: Option<&Path>,
    dead: &[DiskId],
    backend_counters: fn(&A) -> Option<String>,
) -> Result<(), CliError> {
    let geom = job.geom;
    let policy = RetryPolicy::default();
    if job.fault_rate > 0.0 {
        println!(
            "fault injection: transient rate {} per disk (seed {:#x}), up to {} attempts per op",
            job.fault_rate, job.fault_seed, policy.max_attempts
        );
    }
    let parity = job.parity.as_ref().map(|opts| {
        println!(
            "parity: rotating parity over {} disks ({} of every {} blocks usable); survives one disk death",
            geom.d,
            geom.d - 1,
            geom.d
        );
        let hedge = (!opts.slow.is_empty()).then(|| {
            let mut timing = ArrayTiming::uniform(DiskModel::hdd_modern(), geom.d);
            for &(disk, f) in &opts.slow {
                println!(
                    "straggler: disk {disk} at {f}x nominal service time (hedging reads past {}x the fastest)",
                    opts.hedge_after
                );
                timing = timing.with_slowdown(DiskId(disk), f);
            }
            (timing, opts.hedge_after)
        });
        // A degraded resume re-marks the manifest's dead disks in the
        // build, *before* the sorter validates redundancy.
        for dd in dead {
            println!("manifest records disk {} dead; resuming degraded", dd.0);
        }
        ParitySpec {
            store: store.map(Path::to_path_buf),
            dead: dead.to_vec(),
            hedge,
        }
    });
    // The injector and retry go in with parity or a fault rate; a plain
    // sort runs on the bare backend.
    let protected = parity.is_some() || job.fault_rate > 0.0;
    let spec = StackSpec {
        faults: protected.then(|| FaultModel::random(job.fault_seed).with_rate(job.fault_rate)),
        parity,
        retry: protected.then_some(policy),
        // Crash drills also number the parity layer's read-modify-write
        // boundaries, so --crash-at can land between a data write and its
        // parity commit.
        crash: job.crash.clone(),
        trace: job.check_model,
    };
    let array = &mut spec.build(backend, ()).map_err(|e| e.to_string())?;

    let input = sorter.stage(array, job.data).map_err(|e| e.to_string())?;
    let staged = array.stats();
    let start = std::time::Instant::now();
    // Crash drills exclude --kill-disk (validated at parse time).
    let kill = job.parity.as_ref().and_then(|p| p.kill);
    let (sorted, report) = sorter
        .run(array, &input, job.resume.as_deref(), |pass, a| {
            // The --interrupt-after-pass test hook stands in for a human
            // Ctrl-C: the observer runs at the boundary *before* the
            // snapshot and the interrupt check, so tripping here drains
            // at this very pass.
            if let Some((flag, after)) = &job.trip {
                if pass >= *after {
                    flag.trigger();
                }
            }
            // The `--kill-disk` injection point.
            if let Some((disk, at)) = kill {
                if pass == at {
                    println!("drill: disk {disk} dies permanently after pass {pass}");
                    a.fail_disk(DiskId(disk))?;
                }
            }
            Ok(())
        })
        .map_err(|e| job.failure(e))?;
    let elapsed = start.elapsed();
    verify_sorted(
        &sorter.output(array, &sorted).map_err(|e| e.to_string())?,
        job.data,
    )?;
    println!("{}: sorted & verified in {elapsed:.2?} (host time)", job.label);
    println!("  {report}");
    if let Some(red) = array.redundancy() {
        if !red.dead.is_empty() {
            let ids: Vec<u32> = red.dead.iter().map(|d| d.0).collect();
            println!(
                "  degraded: completed with disk(s) {ids:?} dead; output identical to the failure-free run"
            );
        }
    }
    let io = array.stats().since(&staged);
    print_io("I/O (sort only)", &io, job.geom, elapsed);
    if let Some(line) = backend_counters(array.backend()) {
        println!("  file backend (staging included): {line}");
    }
    println!();
    if job.check_model {
        report_model_check(job.geom, &array.take_trace(), &array.stats())?;
    }
    Ok(())
}

/// Replay a traced sort's event stream through the model checker and
/// report the verdict (the CLI's `--check-model` back end).
fn report_model_check(geom: Geometry, trace: &[pdisk::trace::Tagged], stats: &pdisk::IoStats) -> Result<(), String> {
    let summary = modelcheck::check_trace(geom, trace)
        .map_err(|v| format!("model-rule violation: {v}"))?;
    modelcheck::check_stats(trace, stats).map_err(|v| format!("trace/stats drift: {v}"))?;
    println!(
        "  model check: clean — {} events replayed ({} scheduled reads, {} blocks flushed, \
         {} runs written, {} parity commits, {} reconstructions)",
        summary.events,
        summary.sched_reads,
        summary.flushed_blocks,
        summary.runs_written,
        summary.parity_commits,
        summary.reconstructs,
    );
    Ok(())
}

fn verify_sorted(got: &[U64Record], original: &[U64Record]) -> Result<(), String> {
    if got.len() != original.len() {
        return Err(format!(
            "output holds {} records, input had {}",
            got.len(),
            original.len()
        ));
    }
    if !got.windows(2).all(|w| w[0].key() <= w[1].key()) {
        return Err("output is not sorted".into());
    }
    let mut expected: Vec<u64> = original.iter().map(|r| r.0).collect();
    expected.sort_unstable();
    if got.iter().map(|r| r.0).ne(expected.iter().copied()) {
        return Err("output is not a permutation of the input".into());
    }
    Ok(())
}

/// `srm scrub`
pub fn scrub(flags: &Flags) -> i32 {
    let inner = || -> Result<bool, String> {
        let dir = flags
            .get_str("dir")
            .map(std::path::PathBuf::from)
            .ok_or("`srm scrub` requires --dir")?;
        let manifest = flags
            .get_str("manifest")
            .map(std::path::PathBuf::from)
            .ok_or("`srm scrub` requires --manifest")?;
        let parity = flags.has("parity");
        let m = srm_core::SortManifest::load_latest(&manifest)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("no valid manifest at {}", manifest.display()))?;
        let geom = m.geometry;
        println!(
            "scrubbing {} live runs ({} blocks) from {} (D={} disks, B={} records/block)",
            m.runs.len(),
            m.runs.iter().map(|r| r.len_blocks).sum::<u64>(),
            manifest.display(),
            geom.d,
            geom.b
        );
        let fa: FileDiskArray<U64Record> =
            FileDiskArray::open(geom, &dir).map_err(|e| e.to_string())?;
        // Under --parity the scrub reads through the parity layer, the
        // manifest's dead disks re-marked; without it, the bare files.
        let dead = m.redundancy.as_ref().map(|red| red.dead.clone()).unwrap_or_default();
        let spec = StackSpec {
            parity: parity.then(|| {
                for dd in &dead {
                    println!("manifest records disk {} dead; scrubbing degraded", dd.0);
                }
                ParitySpec {
                    store: Some(dir.join("parity.store")),
                    dead,
                    hedge: None,
                }
            }),
            ..StackSpec::default()
        };
        let mut array = spec.build(fa, ()).map_err(|e| e.to_string())?;
        let report = srm_core::scrub_runs(&mut array, &m.runs).map_err(|e| e.to_string())?;
        println!("{report}");
        for f in &report.failures {
            println!("  unrepairable: {f}");
        }
        Ok(report.is_healthy())
    };
    match inner() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => fail(e),
    }
}

/// `srm crash-matrix`
pub fn crash_matrix(flags: &Flags) -> i32 {
    use srm_repro::crashmat::{run_matrix, Backend, MatrixConfig};
    let inner = || -> Result<(), String> {
        let records: u64 = flags.get_or("records", 600)?;
        let d: usize = flags.get_or("d", 4)?;
        let b: usize = flags.get_or("b", 4)?;
        let seed: u64 = flags.get_or("seed", 0xC4A5)?;
        let geom = match flags.get::<usize>("m")? {
            Some(m) => Geometry::new(d, b, m),
            None => match flags.get::<usize>("k")? {
                Some(k) => Geometry::for_table(k, d, b),
                // Small enough for an exhaustive sweep, big enough
                // (with the default record count) for two merge passes.
                None => Geometry::new(d, b, 8 * d * b),
            },
        }
        .map_err(|e| e.to_string())?;
        let backend = match flags.get_str("backend").unwrap_or("mem") {
            "mem" => Backend::Mem,
            "file" => Backend::File,
            other => return Err(format!("unknown backend `{other}`")),
        };
        let scratch = flags
            .get_str("dir")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("srm-crash-matrix-{}", std::process::id()))
            });
        let (pipeline, read_ahead) = flags.overlap()?;
        let cfg = MatrixConfig {
            geom,
            seed,
            pipeline,
            read_ahead,
            parity: flags.has("parity"),
            backend,
            check_recovery: !flags.has("no-check"),
            scratch: scratch.clone(),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let data: Vec<U64Record> = (0..records).map(|_| U64Record(rng.random())).collect();
        println!(
            "crash matrix: {records} records on D={} B={} M={} ({} window, parity {}, {} backend)",
            geom.d,
            geom.b,
            geom.m,
            if cfg.pipeline { "pipelined" } else { "blocking" },
            if cfg.parity { "on" } else { "off" },
            if backend == Backend::Mem { "mem" } else { "file" },
        );
        let start = std::time::Instant::now();
        let report = run_matrix(&cfg, &data, |kk, n| {
            if kk % 100 == 0 {
                println!("  exploring crash point {kk}/{n}");
            }
        })?;
        println!(
            "explored {} crash points in {:.2?}: {} resumed from a checkpoint, {} restarted \
             fresh; every recovery was byte-identical to the baseline{}",
            report.points,
            start.elapsed(),
            report.resumed_from_checkpoint,
            report.fresh_restarts,
            if cfg.check_recovery {
                " with a checker-clean I/O trace"
            } else {
                ""
            },
        );
        let _ = std::fs::remove_dir_all(&scratch);
        Ok(())
    };
    match inner() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `srm occupancy`
pub fn occupancy(flags: &Flags) -> i32 {
    let inner = || -> Result<(), String> {
        let k: u64 = flags
            .get("k")?
            .ok_or("`srm occupancy` requires --k")?;
        let d: usize = flags.get("d")?.ok_or("`srm occupancy` requires --d")?;
        let trials: u64 = flags.get_or("trials", 1000)?;
        let seed: u64 = flags.get_or("seed", 0xC11_0CC)?;
        let mut rng = SmallRng::seed_from_u64(seed);
        let v = ::occupancy::overhead_v(k, d, trials, &mut rng);
        println!("v({k}, {d}) = C({}, {d})/{k} = {v}", k * d as u64);
        println!(
            "analytic rho* upper bound on E[max]/k: {:.4}",
            ::occupancy::upper_bound_expected_max(k * d as u64, d) / k as f64
        );
        Ok(())
    };
    match inner() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `srm simulate`
pub fn simulate(flags: &Flags) -> i32 {
    let inner = || -> Result<(), String> {
        let k: usize = flags.get("k")?.ok_or("`srm simulate` requires --k")?;
        let d: usize = flags.get("d")?.ok_or("`srm simulate` requires --d")?;
        let blocks: u64 = flags.get_or("blocks", 1000)?;
        let trials: u64 = flags.get_or("trials", 3)?;
        let seed: u64 = flags.get_or("seed", 0x000C_1151)?;
        let placement = match flags.get_str("placement").unwrap_or("random") {
            "random" => SimPlacement::Random,
            "staggered" => SimPlacement::Staggered,
            other => return Err(format!("unknown placement `{other}`")),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let v = estimate_overhead_v(k, d, blocks, 1000, placement, trials, &mut rng)
            .map_err(|e| e.to_string())?;
        println!(
            "simulated v({k}, {d}) over {trials} merges of {} runs x {blocks} blocks: {v}",
            k * d
        );
        Ok(())
    };
    match inner() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `srm serve`
pub fn serve(flags: &Flags) -> i32 {
    use std::io::Write as _;
    let inner = || -> Result<(), String> {
        let dir = flags
            .get_str("dir")
            .map(std::path::PathBuf::from)
            .ok_or("`srm serve` requires --dir (the durable job store)")?;
        let port: u16 = flags.get_or("port", 0)?;
        let mut cfg = ServerConfig::new(&dir);
        cfg.capacity = flags.get_or("capacity", cfg.capacity)?;
        cfg.workers = flags.get_or("workers", cfg.workers)?;
        cfg.queue_depth = flags.get_or("queue-depth", cfg.queue_depth)?;
        cfg.io_delay =
            std::time::Duration::from_micros(flags.get_or::<u64>("io-delay-us", 0)?);
        cfg.check_model = flags.has("check-model");
        // Fault-injection hook for chaos drills: the job store starts
        // refusing writes (typed no-space admission error) after N
        // record-writes.  A restarted server gets a fresh "disk".
        cfg.store_nospace_after = flags.get("store-nospace-after")?;

        let server =
            std::sync::Arc::new(JobServer::open(cfg).map_err(|e| e.to_string())?);
        let listener = std::net::TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;

        // SIGINT/SIGTERM trigger the same drain as the DRAIN verb:
        // stop admitting, checkpoint every running job at its next pass
        // boundary, exit.  A restarted server resumes them all.
        let shutdown = server.shutdown_flag();
        srm_repro::signals::install();
        srm_repro::signals::watch(shutdown.interrupt_flag(), || false);

        let stats = server.stats();
        println!(
            "serving jobs from {} (capacity {} records, {} workers, queue depth {})",
            dir.display(),
            stats.capacity,
            server.config().workers,
            server.config().queue_depth
        );
        if stats.queued > 0 || stats.suspended > 0 {
            println!(
                "restart recovery: {} queued and {} suspended job(s) picked up from disk",
                stats.queued, stats.suspended
            );
        }
        // Tests and scripts parse this line for the ephemeral port.
        println!("listening on {addr}");
        let _ = std::io::stdout().flush();

        let report = srm_server::serve(server, listener).map_err(|e| e.to_string())?;
        println!("{report}");
        Ok(())
    };
    match inner() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// Connect to the local job server, absorbing a refused or reset
/// connection with capped exponential backoff — the server may still be
/// binding its listener (restart races are routine when a supervisor
/// respawns `srm serve` and clients reconnect immediately).
fn connect_with_retry(
    port: u16,
    attempts: u32,
    base: std::time::Duration,
) -> Result<std::net::TcpStream, String> {
    let cap = std::time::Duration::from_millis(500);
    let mut wait = base;
    let mut last = None;
    for attempt in 1..=attempts {
        match std::net::TcpStream::connect(("127.0.0.1", port)) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                last = Some(e);
                if attempt < attempts {
                    std::thread::sleep(wait);
                    wait = (wait * 2).min(cap);
                }
            }
            Err(e) => return Err(format!("connect 127.0.0.1:{port}: {e}")),
        }
    }
    Err(format!(
        "connect 127.0.0.1:{port}: {} (after {attempts} attempts)",
        last.map_or_else(|| "no attempt made".into(), |e| e.to_string())
    ))
}

/// `srm client`
pub fn client(flags: &Flags) -> i32 {
    use std::io::{BufRead as _, Write as _};
    let inner = || -> Result<bool, String> {
        let port: u16 = flags
            .get("port")?
            .ok_or("`srm client` requires --port")?;
        let request = flags
            .get_str("send")
            .ok_or("`srm client` requires --send \"REQUEST\"")?;
        let attempts: u32 = flags.get_or("connect-retries", 8)?;
        let stream =
            connect_with_retry(port, attempts.max(1), std::time::Duration::from_millis(10))?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        // The server handles one request per line in order, so writing
        // the request followed by QUIT streams the full response (all
        // WATCH events included) and then closes the connection.
        writer
            .write_all(format!("{request}\nQUIT\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut ok = true;
        for line in std::io::BufReader::new(stream).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.starts_with("ERR ") {
                ok = false;
            }
            println!("{line}");
        }
        Ok(ok)
    };
    match inner() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => fail(e),
    }
}

/// `srm distsort`
pub fn distsort(flags: &Flags) -> i32 {
    let inner = || -> Result<(), String> {
        let mut spec = JobSpec {
            records: flags.get_or("records", 100_000)?,
            seed: flags.get_or("seed", 0xC11_5EED)?,
            d: flags.get_or("d", 4)?,
            b: flags.get_or("b", 64)?,
            ..JobSpec::default()
        };
        // The shards' window: `JobSpec`'s default unless either flag
        // asks for another one (`--read-ahead 0` alone is window 0).
        if flags.has("pipeline") || flags.get_str("read-ahead").is_some() {
            (spec.pipeline, spec.read_ahead) = flags.overlap()?;
        }
        spec.m = match flags.get::<usize>("m")? {
            Some(m) => m,
            // No explicit memory: size M for a k-way SRM merge on this
            // D and B, exactly as `srm sort` does.
            None => {
                let k: usize = flags.get_or("k", 4)?;
                Geometry::for_table(k, spec.d, spec.b)
                    .map_err(|e| e.to_string())?
                    .m
            }
        };
        spec.placement = match flags.get_str("placement").unwrap_or("random") {
            "random" => Placement::Random,
            "staggered" => Placement::Staggered,
            other => return Err(format!("unknown placement `{other}`")),
        };

        let shards: u32 = flags.get_or("shards", 4)?;
        let mut cfg = srm_dist::DistConfig::new(shards);
        cfg.parity = flags.has("parity");
        cfg.heartbeat =
            std::time::Duration::from_millis(flags.get_or("heartbeat-ms", 15)?);
        cfg.timeout = std::time::Duration::from_millis(flags.get_or("timeout-ms", 250)?);
        cfg.io_delay =
            std::time::Duration::from_micros(flags.get_or::<u64>("io-delay-us", 0)?);
        cfg.kill = flags
            .get_str("kill-node")
            .map(srm_dist::parse_kill_node)
            .transpose()
            .map_err(|e| e.to_string())?;
        cfg.corrupt_disk = flags.get("corrupt-disk")?;

        let net_seed: u64 = flags.get_or("net-seed", 0x0DD_5EED)?;
        let drop: f64 = flags.get_or("net-drop", 0.0)?;
        let dup: f64 = flags.get_or("net-dup", 0.0)?;
        let delay: f64 = flags.get_or("net-delay", 0.0)?;
        if drop > 0.0 || dup > 0.0 || delay > 0.0 || flags.get_str("partition").is_some() {
            let mut model = pdisk::NetFaultModel::seeded(net_seed)
                .with_drop_rate(drop)
                .with_dup_rate(dup)
                .with_delay_rate(delay)
                .with_max_delay(flags.get_or("net-max-delay", 8)?);
            if let Some(s) = flags.get_str("partition") {
                let parts: Vec<&str> = s.split(':').collect();
                let bad =
                    || format!("bad --partition `{s}` (want NODE:FROM:UNTIL in global sends)");
                let [node, from, until] = parts[..] else { return Err(bad()) };
                model = model.partition(
                    node.parse().map_err(|_| bad())?,
                    from.parse().map_err(|_| bad())?,
                    until.parse().map_err(|_| bad())?,
                );
            }
            cfg.net = model;
        }

        let dir = flags
            .get_str("dir")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("srm-distsort-{}", std::process::id()))
            });
        let keep = flags.has("keep") || flags.get_str("dir").is_some();

        if spec.pipeline {
            println!("window: pipelined (reads in flight + write-behind)");
        }
        let report = if flags.has("procs") {
            let bin = std::env::current_exe()
                .map_err(|e| format!("current_exe: {e}"))?;
            srm_dist::run_procs(&spec, &cfg, &dir, &bin)
        } else {
            srm_dist::distsort(&spec, &cfg, &dir)
        }
        .map_err(|e| e.to_string())?;
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }

        println!(
            "distsort: {} records over {} shards in {} ms ({} mode)",
            report.records,
            report.shards,
            report.elapsed_ms,
            if flags.has("procs") { "process" } else { "thread" }
        );
        println!(
            "  splitters: {:?}",
            report.splitters.iter().map(|k| format!("{k:#x}")).collect::<Vec<_>>()
        );
        for (s, shard) in report.per_shard.iter().enumerate() {
            println!(
                "  shard {s}: {} records, {} blocks, {} passes, trace {} ({} events), {} recoveries, {} repaired",
                shard.records,
                shard.blocks,
                shard.passes,
                if shard.trace_clean { "clean" } else { "DIRTY" },
                shard.trace_events,
                shard.recoveries,
                shard.repaired
            );
            println!(
                "    stage {} ms, sort {} ms, verify {} ms, check {} ms",
                shard.ms.stage, shard.ms.sort, shard.ms.verify, shard.ms.check
            );
        }
        let ph = report.phase_ms;
        println!(
            "  phases: split {} ms, shards {} ms, merge {} ms ({} ms waiting on a window)",
            ph.split, ph.shards, ph.merge, ph.merge_wait
        );
        println!(
            "  recoveries: {} total, merge stalls: {}, recovery wall-clock: {:?} ms",
            report.recoveries, report.merge_stalls, report.recovery_ms
        );
        println!(
            "  net: {} sent, {} delivered, {} dropped, {} duplicated, {} delayed",
            report.net.sent,
            report.net.delivered,
            report.net.dropped,
            report.net.duplicated,
            report.net.delayed
        );
        println!(
            "  global digest {:#018x}: {}",
            report.digest,
            if report.oracle_ok {
                "matches the central oracle"
            } else {
                "MISMATCH against the central oracle"
            }
        );
        if !report.oracle_ok {
            return Err("global output digest mismatch".into());
        }
        Ok(())
    };
    match inner() {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// The hidden `srm shard-run` subcommand: one shard child of a
/// `--procs` distributed sort (see `srm_dist::procs`).  Not advertised —
/// it is an implementation detail of `srm distsort --procs`, spawned
/// with plan files already on disk.
pub fn shard_run(flags: &Flags) -> i32 {
    let inner = || -> Result<(), String> {
        let root = flags
            .get_str("root")
            .map(std::path::PathBuf::from)
            .ok_or("`srm shard-run` requires --root")?;
        let shard: u32 = flags
            .get("shard")?
            .ok_or("`srm shard-run` requires --shard")?;
        let arm_kill: Option<u64> = flags.get("arm-kill")?;
        srm_dist::shard_run_standalone(&root, shard, arm_kill).map_err(|e| e.to_string())
    };
    match inner() {
        Ok(()) => 0,
        Err(e) => {
            // The parent parses stdout; report the failure there too so a
            // child that dies before its monitor sees ERR is still
            // diagnosable.
            println!("ERR {e}");
            fail(e)
        }
    }
}

/// `srm chaos`
pub fn chaos(flags: &Flags) -> i32 {
    use srm_chaos::{replay, run_campaign, CampaignConfig, ReproArtifact, Target};
    let inner = || -> Result<i32, String> {
        let scratch = match flags.get_str("dir") {
            Some(d) => std::path::PathBuf::from(d),
            None => std::env::temp_dir().join(format!("srm-chaos-{}", std::process::id())),
        };
        let keep = flags.has("keep") || flags.get_str("dir").is_some();

        // --replay FILE: re-execute one reproducer artifact exactly.
        if let Some(file) = flags.get_str("replay") {
            let artifact = ReproArtifact::load(Path::new(file)).map_err(|e| e.to_string())?;
            println!(
                "replaying {} (target {}, campaign seed {:#x}, trial {}, {} event(s), recorded violation `{}`)",
                file,
                artifact.target.slug(),
                artifact.seed,
                artifact.trial,
                artifact.events.len(),
                artifact.violation,
            );
            let server_bin = server_bin_for(artifact.target.slug())?;
            let outcome =
                replay(&artifact, &scratch, server_bin).map_err(|e| e.to_string())?;
            if !keep {
                let _ = std::fs::remove_dir_all(&scratch);
            }
            let expect = flags.get_str("expect-violation");
            return Ok(match (&outcome.violation, expect) {
                (Some(v), Some(code)) if v.code() == code => {
                    println!("reproduced: {v} ({} attempt(s))", outcome.attempts);
                    0
                }
                (Some(v), Some(code)) => {
                    eprintln!("violation mismatch: expected `{code}`, got `{}`: {v}", v.code());
                    1
                }
                (Some(v), None) => {
                    eprintln!("violation reproduced: {v} ({} attempt(s))", outcome.attempts);
                    1
                }
                (None, Some(code)) => {
                    eprintln!("replay did NOT reproduce the expected `{code}` violation");
                    1
                }
                (None, None) => {
                    println!(
                        "clean: no violation ({} attempt(s), {} resumed)",
                        outcome.attempts, outcome.resumed
                    );
                    0
                }
            });
        }

        let target_flag = flags.get_str("target").unwrap_or("local");
        let targets: Vec<Target> = match target_flag {
            "all" => vec![Target::Local, Target::Dist, Target::Server],
            slug => vec![Target::from_slug(slug)
                .ok_or_else(|| format!("unknown chaos target `{slug}`"))?],
        };
        let seed: u64 = flags.get_or("seed", 0xC405_5EED)?;
        let trials: u32 = flags.get_or("trials", 20)?;

        let mut total_violations = 0usize;
        for target in targets {
            let mut cfg = CampaignConfig::new(target, seed, scratch.join(target.slug()));
            cfg.trials = trials;
            cfg.records = flags.get_or("records", cfg.records)?;
            cfg.d = flags.get_or("d", cfg.d)?;
            cfg.b = flags.get_or("b", cfg.b)?;
            cfg.m = flags.get_or("m", cfg.m)?;
            (cfg.pipeline, cfg.read_ahead) = flags.overlap()?;
            cfg.shards = flags.get_or("shards", cfg.shards)?;
            cfg.server_jobs = flags.get_or("jobs", cfg.server_jobs)?;
            cfg.plant_bug = flags.has("plant-bug");
            cfg.minimize = !flags.has("no-minimize");
            cfg.server_bin = server_bin_for(target.slug())?;

            println!(
                "chaos campaign: target {}, seed {:#x}, {} trial(s)",
                target.slug(),
                seed,
                trials
            );
            let report = run_campaign(&cfg, |trial, total| {
                if trial % 10 == 0 && trial > 0 {
                    println!("  ... trial {trial}/{total}");
                }
            })
            .map_err(|e| e.to_string())?;
            println!(
                "  {} trial(s), {} incarnation(s) ({} resumed from checkpoints), {} violation(s)",
                report.trials,
                report.attempts,
                report.resumed,
                report.violations.len()
            );
            for v in &report.violations {
                println!(
                    "  trial {}: {} — schedule minimized {} -> {} event(s)",
                    v.trial, v.violation, v.events_total, v.events_min
                );
                for ev in &v.schedule {
                    println!("    - {ev}");
                }
                if let Some(p) = &v.artifact {
                    println!("    reproducer: {} (rerun: srm chaos --replay {0})", p.display());
                }
            }
            total_violations += report.violations.len();
        }
        // Violations leave their reproducers behind even without --keep.
        if !keep && total_violations == 0 {
            let _ = std::fs::remove_dir_all(&scratch);
        }
        Ok(i32::from(total_violations > 0))
    };
    match inner() {
        Ok(code) => code,
        Err(e) => fail(e),
    }
}

/// The server chaos target spawns this very binary as `srm serve`.
fn server_bin_for(target_slug: &str) -> Result<Option<std::path::PathBuf>, String> {
    if target_slug != "server" {
        return Ok(None);
    }
    std::env::current_exe()
        .map(Some)
        .map_err(|e| format!("cannot locate the srm binary for the server target: {e}"))
}
