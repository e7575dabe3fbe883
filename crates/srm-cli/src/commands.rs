//! Subcommand implementations.

use crate::args::Flags;
use pdisk::{
    CrashClock, DiskId, FaultModel, FileDiskArray, Geometry, InterruptFlag, ParitySpec, Record, RetryPolicy,
    StackSpec, U64Record,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use srm_core::simulator::{estimate_overhead_v, SimPlacement};
use srm_core::{Placement, RunFormation, SortReport, SrmSorter};
use srm_server::job::{
    sort_durable, Cluster, DurableSort, FileCluster, MemCluster, Sorted, DISKS, MANIFEST, PARITY_STORE,
};
use srm_server::{EngineKind, JobError, JobServer, JobSpec, ServerConfig};
use std::num::{NonZeroU64, NonZeroUsize};
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
           [--placement random|staggered] [--formation load|rs]
           [--pipeline] [--read-ahead K] [--keep]
           [--fault-rate R] [--fault-seed S]
           [--parity] [--kill-disk D@PASS] [--check-model]
           [--crash-at K] [--crash-points]
      Generate N random records, stage them on the simulated disk array,
      sort, verify, and print the I/O accounting (one parallel operation
      moves up to one block per disk).

      --algo dsm runs the paper's baseline (§9): the same engine on one
      logical disk whose blocks hold D·B records (every read and write a
      full stripe), merging eq. 41's R_DSM = (M/B - 2D)/2D runs at a
      time; --algo both runs SRM, then DSM.

      --pipeline opens the engine's I/O window: the next scheduled
      read is in flight while the merge drains the current buffers, and
      output stripes are written behind the merge (DESIGN.md §9).
      Without it every parallel I/O is waited for where it is issued —
      the same engine at window 0.  The operation sequence, I/O
      accounting, and output bytes are identical either way — only the
      waiting overlaps — so --check-model and a resume work unchanged.
      --read-ahead K additionally hints the next K forecast-predicted
      blocks per disk to the backend as speculative reads (DESIGN.md
      §14; needs --pipeline, default 0).

      --fault-rate R injects transient faults on reads and writes with
      per-disk probability R (0 <= R < 1, seeded by --fault-seed) and
      absorbs them with the bounded-retry wrapper; retry counts appear in
      the I/O line.

      Each engine sorts durably in PATH/srm or PATH/dsm (DESIGN.md
      §11.3), as a `srm serve` job and a distsort shard do: the
      checkpoint is journaled after every pass, and rerunning the same
      command over a PATH that holds one resumes it (with --backend file
      the disk files are reopened, not truncated).  Without --dir, PATH
      is a fresh temporary directory; a finished sort removes it unless
      --backend file --keep.  Memory disks die with their process, so
      --backend mem leaves no temporary directory even when it fails, and
      refuses a checkpoint an earlier run left in --dir (delete it, or
      sort with --backend file --dir D --keep).

      --parity adds rotating-parity redundancy (RAID-5 style): the array
      survives one permanent disk death, serving the dead disk's blocks by
      reconstruction from the surviving disks (reconstruction reads and
      parity writes are counted separately so the logical schedule stays
      comparable).  --kill-disk D@PASS is the failure drill: disk D dies
      permanently right after pass PASS (0 = run formation) and the sort
      completes degraded, byte-identical to the failure-free run.
      Checkpoint manifests record the parity geometry and dead-disk
      set, so a resume works from a degraded array.  --kill-disk
      requires --parity, and both require --algo srm: rotating parity
      needs at least 2 disks, and DSM sorts on one.

      --crash-points numbers every I/O boundary of the sort with a
      counting crash clock and reports the total N after success;
      --crash-at K then kills the process state at boundary K exactly
      (including torn parallel writes where only a prefix of the stripe
      lands) and exits nonzero.  Rerun without --crash-at (with
      --backend file and the same --dir) to recover from the last
      durable checkpoint.  Both flags name one
      sort (--algo srm or --algo dsm, not both) and cannot be combined
      with --kill-disk.

      --check-model records the structured I/O trace of each sort and
      replays it through the modelcheck invariant checker (one block per
      disk per parallel I/O, forecast-minimal fetching, flush discipline,
      buffer budgets, striped output runs, parity placement — DESIGN.md
      §8).  Any violation aborts with a typed, located error naming the
      pass, disk, and block involved.

      Ctrl-C (SIGINT) or SIGTERM interrupts either sort gracefully: the
      current pass finishes, the checkpoint is journaled, and the
      process exits with code 130; rerunning with the same flags (on
      --backend file, with --dir) resumes byte-identically from that
      boundary.  (The hidden --interrupt-after-pass K flag trips
      the same path from tests without a signal.)

  srm occupancy --k K --d D [--trials N] [--seed S]
      Estimate Table 1's overhead v(k, D) = C(kD, D)/k by ball-throwing.

  srm simulate --k K --d D [--blocks L] [--trials N] [--seed S]
           [--placement random|staggered]
      Estimate Table 3's overhead v(k, D) by simulating the SRM merge of
      kD runs of L blocks on average-case input.

  srm scrub --dir PATH [--parity]
      Walk every live run recorded in the checkpoint manifest of the
      durable sort directory PATH (`srm sort --dir D` leaves D/srm),
      verify block checksums, and (with --parity) self-heal latent
      corruption by parity reconstruction.  Geometry and the dead-disk
      set come from the manifest; disk files are reopened from
      PATH/disks.
      Exits 0 when every block verified clean or was repaired, 1 when
      any block is unrepairable.

  srm crash-matrix [--records N] [--d D] [--b B] [--k K | --m M]
           [--seed S] [--pipeline] [--read-ahead K] [--parity]
           [--backend mem|file] [--dir PATH]
      Exhaustive crash-point exploration: dry-run a small checkpointed
      sort to number its N I/O boundaries, then for every K in 0..N run
      the one-crash chaos schedule [crash-at K] on the local target:
      crash at boundary K, reboot (only the disks and sidecar files
      survive), recover, and require the chaos oracle: byte-identical
      sorted output, a checker-clean I/O trace, no panic, no wedged
      recovery and no leaked files.  The trials run under --dir PATH,
      which is kept (only what the matrix made in it is removed), or
      else under a temp directory removed on exit.

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
      --io-delay-us U models each job's disks at U us per block, and
      the sorter reads that device off the job's array: a job that
      names no formation then forms its runs by replacement selection
      when the pass plan predicts fewer blocks moved than half-memory
      loads, even for runs of only M - 4DB records (its guarantee).  At
      0 (the default) it keeps the loads, which cost less host time.

      Protocol verbs, one request per line:
        SUBMIT key=value ...   (records=N d=D b=B m=M engine=srm|dsm
                                seed=S deadline-ms=T fault-rate=R
                                pipeline=0|1 read-ahead=K
                                formation=load|rs ...)
                               A job sorts pipelined at read-ahead 3
                               unless it says otherwise; pipeline=0 is
                               the window-0 reference (DESIGN.md §11.1).
                               Without formation= the job's device
                               chooses (--io-delay-us); a named one stays.
                               An older store's threaded formation
                               reads as load.
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
           [--kill-node S@PASS | --kill-node S@merge]
           [--corrupt-disk D] [--net-seed S] [--net-drop R]
           [--net-dup R] [--net-delay R] [--net-max-delay K]
           [--partition NODE:FROM:UNTIL]
      Distributed sort that survives node death: a coordinator samples
      P-1 splitters and boots P shard nodes, each with its key range;
      a shard derives its partition itself (the spec's keys in its
      range, in generation order), so no key crosses the
      fault-injectable message channel, and runs a checkpointed SRM
      sort over its own disk cluster (traces model-checked).  The
      shards' sorted, range-disjoint runs are the output, left where the
      shards wrote them: in splitter order, each shard folds its own
      keys onto the global digest the shards before it carried, checking
      the order of every key, so no key crosses to the coordinator.  A
      shard forms its runs from the partition it holds in memory, so
      it never writes its input to disk only to read it back.  Its sort keeps its I/O in flight:
      without either window flag the sort runs pipelined at
      read-ahead 3 (the job default); --pipeline [--read-ahead K] picks
      the depth as for `srm sort`, and --read-ahead 0 alone asks for
      window 0, the reference every window is byte- and count-identical
      to.  --io-delay-us U models each shard's disks at U us per block,
      which a shard's sorter reads off its array: it forms its runs by
      replacement selection when the pass plan predicts fewer blocks
      moved than half-memory loads even for runs of M - 4DB records,
      and sorts half-memory loads otherwise.  Per shard the report prints its
      formation (load or rs), its passes, and where its time went
      (stage = deriving the partition / sort / verify = digesting the
      output the last merge kept as it wrote it, or, under --parity,
      the output read back / check ms).
      Shards are threads by default; --procs runs each as a real `srm`
      child process, driven by the same coordinator over its stdin and
      stdout.  A heartbeat failure detector (--heartbeat-ms /
      --timeout-ms, which must exceed the heartbeat) declares silent
      nodes dead in either mode, fences the old epoch (a thread's
      in-flight I/O fails, a child is killed and reaped, stale messages
      are discarded), and boots a replacement, which derives its partition again and
      resumes from the shard's last checkpoint manifest (a shard killed
      before its pass-0 manifest forms its runs afresh).  --kill-node
      S@PASS is the drill: kill shard S at pass
      boundary PASS, before its snapshot (or S@merge when its one fold
      request arrives, before it answers) — under --procs the child
      calls exit there, so nothing is flushed, as under SIGKILL; with
      --parity, --corrupt-disk D also trashes
      disk D of the victim's cluster so the replacement must rebuild
      from parity before resuming.  The fold degrades gracefully: it
      stalls on a dead shard and asks the replacement, which reads its
      keys back once.  The phases line splits the wall into split /
      shards (until the last sort is done) / fold (the chain's tail
      after that; folds of shards that finish early overlap the others'
      sorts).  --net-* and --partition inject seeded channel faults
      (drop/duplicate/delay/partition windows) in either mode: a
      --procs child's messages cross the same channel.  The output is
      checked in the fold's one scan, with no sort: every key in order,
      and the record count and multiset fingerprint of the input the
      coordinator generated for its splitters (so the digest is the
      sorted input's); any mismatch exits nonzero.  Without --dir or
      --keep the shard tree is a temp directory, removed whatever the
      outcome.

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
const SHARD_RUN_USAGE: &str = "  srm shard-run --root PATH --shard S [--arm-kill PASS|merge]
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
        let formation = match flags.get_str("formation").unwrap_or("load") {
            "load" => RunFormation::MemoryLoad { fraction: 0.5 },
            "rs" => RunFormation::ReplacementSelection,
            other => return Err(format!("unknown formation `{other}`").into()),
        };
        let (pipeline, read_ahead) = flags.overlap()?;
        let fault_rate: f64 = flags.get_or("fault-rate", 0.0)?;
        if !(0.0..1.0).contains(&fault_rate) {
            return Err(format!("--fault-rate {fault_rate} outside [0, 1)").into());
        }
        let fault_seed: u64 = flags.get_or("fault-seed", 0xFA_017)?;

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
        if !parity && kill.is_some() {
            return Err("--kill-disk requires --parity".into());
        }
        if parity && algo != "srm" {
            return Err("--parity / --kill-disk require --algo srm: rotating parity needs at least 2 disks, \
                        and DSM sorts on one wide disk"
                .into());
        }
        if parity && geom.d < 2 {
            return Err("--parity needs at least 2 disks".into());
        }
        if let Some((disk, _)) = kill.filter(|&(d, _)| d as usize >= geom.d) {
            return Err(format!("disk {disk} out of range for D={}", geom.d).into());
        }
        if crash.is_some() {
            if algo == "both" {
                return Err("--crash-at / --crash-points name one sort: give --algo srm or --algo dsm".into());
            }
            if kill.is_some() {
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
        // One construction path everywhere: the CLI builds and validates
        // the same JobSpec the job server and the crash-matrix harness
        // use, and sorts it through the same durable sort, so `srm sort`,
        // `srm serve`, and `srm crash-matrix` can never drift in how they
        // wire a sorter, generate input, or resume.
        let spec = JobSpec {
            engine: EngineKind::Srm,
            records,
            seed,
            d: geom.d,
            b: geom.b,
            m: geom.m,
            placement,
            formation: Some(formation),
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
        // the process exits with code 130.
        let interrupt = InterruptFlag::new();
        srm_repro::signals::install();
        let forward = interrupt.clone();
        srm_repro::signals::watch(move || forward.trigger(), || false);
        let trip = flags.get::<u64>("interrupt-after-pass")?;

        // Without --dir the sort gets a directory of its own, named so that
        // no later process (pids are reused) meets its checkpoint.
        let named = flags.get_str("dir").is_some();
        let root = flags.get_str("dir").map(PathBuf::from).unwrap_or_else(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |t| t.as_nanos());
            std::env::temp_dir().join(format!("srm-cli-{}-{nanos:x}", std::process::id()))
        });
        let file = backend == "file";
        let keep = flags.has("keep");
        if pipeline {
            println!("window: pipelined (reads in flight + write-behind)");
        }
        let engines = match algo {
            "srm" => &[EngineKind::Srm][..],
            "dsm" => &[EngineKind::Dsm],
            _ => &[EngineKind::Srm, EngineKind::Dsm],
        };
        for &engine in engines {
            let spec = JobSpec { engine, ..spec.clone() };
            spec.validate().map_err(|e| e.to_string())?;
            let label = if engine == EngineKind::Dsm { "DSM" } else { "SRM" };
            let geom = spec.geometry().map_err(|e| e.to_string())?;
            let sorter = spec.build(Some(interrupt.clone()));
            // The sorter ticks its own manifest-write boundaries on the
            // same clock the array layers use, so boundary numbering is
            // total.
            let sorter = match &crash {
                Some(c) => sorter.with_crash_clock(c.clone()),
                None => sorter,
            };
            let dir = root.join(engine.as_str());
            let policy = RetryPolicy::default();
            if file {
                println!("file backend at {}", dir.display());
            }
            if fault_rate > 0.0 {
                println!(
                    "fault injection: transient rate {fault_rate} per disk (seed {fault_seed:#x}), up to {} attempts per op",
                    policy.max_attempts
                );
            }
            if parity {
                println!(
                    "parity: rotating parity over {} disks ({} of every {} blocks usable); survives one disk death",
                    geom.d,
                    geom.d - 1,
                    geom.d
                );
            }
            // The injector and retry go in with parity or a fault rate; a
            // plain sort runs on the bare backend.
            let protected = parity || fault_rate > 0.0;
            let job = Incarnation {
                dir: &dir,
                geom,
                sorter: &sorter,
                records: &data,
                stack: StackSpec {
                    faults: protected.then(|| FaultModel::random(fault_seed).with_rate(fault_rate)),
                    parity: parity.then(ParitySpec::default),
                    retry: protected.then_some(policy),
                    // Crash drills also number the parity layer's
                    // read-modify-write boundaries, so --crash-at can land
                    // between a data write and its parity commit.
                    crash: crash.clone(),
                    trace: flags.has("check-model"),
                },
                kill,
                trip: trip.map(|after| (&interrupt, after)),
            };
            let sorted = if file { job.run(FileCluster::default()) } else { job.run(MemCluster::default()) };
            if !file && !named {
                // Memory disks die with this process, and so does any
                // checkpoint on them: nothing here can be resumed.
                let _ = std::fs::remove_dir_all(&root);
            }
            let sorted = sorted.map_err(|e| failure(e, &dir, file, named))?;
            verify_sorted(&sorted.keys, &data)?;
            if let Some(dead) = &sorted.resumed {
                println!("resuming from {}", dir.join(MANIFEST).display());
                for d in dead {
                    println!("manifest records disk {} dead; resuming degraded", d.0);
                }
            }
            println!("{label}: sorted & verified in {:.2?} (host time)", sorted.elapsed);
            println!("  {}", sorted.report);
            println!("  {}", pass_plan_line(&sorted.report, geom));
            if !sorted.dead.is_empty() {
                let ids: Vec<u32> = sorted.dead.iter().map(|d| d.0).collect();
                println!("  degraded: completed with disk(s) {ids:?} dead; output identical to the failure-free run");
            }
            println!("  I/O (sort only): {}", sorted.report.io);
            if let Some(line) = &sorted.counters {
                println!("  file backend (staging included): {line}");
            }
            println!();
            if let Some(m) = sorted.model {
                println!(
                    "  model check: clean — {} events replayed ({} scheduled reads, {} blocks flushed, \
                     {} runs written, {} parity commits, {} reconstructions)",
                    m.events, m.sched_reads, m.flushed_blocks, m.runs_written, m.parity_commits, m.reconstructs,
                );
            }
            if file && keep {
                println!("disk files kept at {}", dir.display());
            } else {
                let _ = std::fs::remove_dir_all(&dir);
            }
            if let Some(c) = crash.as_ref().filter(|_| crash_points) {
                println!(
                    "crash boundaries numbered: {} (explore with --crash-at 0..{})",
                    c.points(),
                    c.points()
                );
            }
        }
        // The root goes too once every engine's directory has.
        let _ = std::fs::remove_dir(&root);
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

/// One engine's `srm sort`: an incarnation of the durable sort in `dir`,
/// whichever cluster it runs on.
struct Incarnation<'a> {
    dir: &'a Path,
    geom: Geometry,
    sorter: &'a SrmSorter,
    records: &'a [U64Record],
    /// The layers the flags switch on.
    stack: StackSpec,
    /// `--kill-disk D@PASS`: disk D dies permanently right after PASS.
    kill: Option<(u32, u64)>,
    /// `--interrupt-after-pass K`, standing in for a human Ctrl-C.
    trip: Option<(&'a InterruptFlag, u64)>,
}

impl Incarnation<'_> {
    /// Sort on `cluster`, the drills in the observer.
    fn run<C: Cluster>(self, mut cluster: C) -> Result<Sorted, JobError> {
        let job = DurableSort {
            dir: self.dir,
            geom: self.geom,
            sorter: self.sorter,
            records: self.records,
            staged: true,
            stage_ms: 0,
            stack: self.stack,
            slot: (),
            cluster: &mut cluster,
            oracle: false,
        };
        sort_durable(job, |pass, a| {
            // The observer runs at the boundary *before* the snapshot and
            // the interrupt check, so tripping here drains at this pass.
            if let Some((flag, _)) = self.trip.filter(|&(_, after)| pass >= after) {
                flag.trigger();
            }
            if let Some((disk, at)) = self.kill.filter(|&(_, at)| pass == at) {
                println!("drill: disk {disk} dies permanently after pass {at}");
                a.fail_disk(DiskId(disk))?;
            }
            Ok(())
        })
    }
}

/// A failed sort of `dir`, with the advice that fits it: what a rerun
/// would do, or why it cannot help.  Only a `named` (`--dir`) memory
/// sort leaves its checkpoint behind.
fn failure(e: JobError, dir: &Path, file: bool, named: bool) -> CliError {
    let resume = format!(
        "rerun with the same flags and --dir {} to resume from {}",
        dir.parent().unwrap_or(dir).display(),
        dir.join(MANIFEST).display()
    );
    let resumable = "sort with --backend file --dir D --keep for a resumable one";
    let start_over = format!("delete {} to start over, or {resumable}", dir.display());
    match (e, file, named) {
        (JobError::Interrupted, true, _) => CliError::Interrupted(format!("checkpoint journaled; {resume}")),
        (JobError::Interrupted, false, true) => CliError::Interrupted(format!(
            "checkpoint journaled at {}, but --backend mem disks die with their process, so it \
             cannot be resumed; {start_over}",
            dir.join(MANIFEST).display()
        )),
        (JobError::Interrupted, false, false) => CliError::Interrupted(format!(
            "--backend mem disks die with their process, so this sort cannot be resumed; {resumable}"
        )),
        // A bad manifest fails the same way on every rerun: the only way
        // out is to discard it.
        (e @ JobError::Checkpoint(_), true, _) => {
            CliError::Msg(format!("{e}; delete {} to start a fresh sort", dir.display()))
        }
        (e @ JobError::Checkpoint(_), false, true) => CliError::Msg(format!("{e}; {start_over}")),
        (e, true, _) => CliError::Msg(format!("{e}; {resume}")),
        (e, false, _) => CliError::Msg(e.to_string()),
    }
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

/// The `pass plan:` line: what merge pass 1 does — it merges only enough
/// runs to leave a power of `R`, and the rest wait — and the blocks the
/// sort writes, predicted by `analysis` beside the count the array kept:
/// exactly under memory-load formation, whose run lengths are known up
/// front, and for replacement selection its worst case, runs of
/// `M − 4DB` records.
fn pass_plan_line(report: &SortReport, geom: Geometry) -> String {
    let (runs, r) = (report.runs_formed, report.merge_order);
    let plan = match analysis::pass_plan(runs, r) {
        Some(p) => format!(
            "pass 1 merges the last {} of {runs} runs (a group of {}, then {} of {r}) while {} wait, leaving {}",
            p.merged(r),
            p.first,
            p.full,
            p.untouched,
            p.runs_after()
        ),
        None => format!("{runs} run, no merge pass"),
    };
    let actual = report.io.blocks_written;
    let written = |runs: &[u64]| -> u64 {
        analysis::sort_volumes(report.records, runs, geom.b, r).iter().map(|p| p.written).sum()
    };
    let blocks = match report.formation {
        None => format!("blocks written since the resume: {actual}"),
        Some(RunFormation::MemoryLoad { fraction }) => {
            let predicted = written(&analysis::load_runs(report.records, geom, fraction));
            format!("blocks written: predicted {predicted}, actual {actual}")
        }
        Some(RunFormation::ReplacementSelection) => {
            let worst = written(&analysis::rs_worst_runs(report.records, geom));
            format!("blocks written: predicted {worst} for runs of M - 4DB (RS's worst case), actual {actual}")
        }
    };
    format!("pass plan: {plan}; {blocks}")
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
        let manifest = dir.join(MANIFEST);
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
            FileDiskArray::open(geom, dir.join(DISKS)).map_err(|e| e.to_string())?;
        // Under --parity the scrub reads through the parity layer, the
        // manifest's dead disks re-marked; without it, the bare files.
        let dead = m.redundancy.as_ref().map(|red| red.dead.clone()).unwrap_or_default();
        let spec = StackSpec {
            parity: parity.then(|| {
                for dd in &dead {
                    println!("manifest records disk {} dead; scrubbing degraded", dd.0);
                }
                ParitySpec {
                    store: Some(dir.join(PARITY_STORE)),
                    dead,
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
    use srm_chaos::{local, Backend, CampaignConfig, Target};
    // A directory the caller named is kept: the matrix removes only what
    // it made inside it.  The default temp directory goes on every exit.
    let named = flags.get_str("dir").map(PathBuf::from);
    let scratch = named.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("srm-crash-matrix-{}", std::process::id()))
    });
    let inner = || -> Result<(), String> {
        // The campaign seed draws no schedule here: the matrix enumerates.
        let mut cfg = CampaignConfig::new(Target::Local, 0, scratch.clone());
        cfg.records = flags.get_or("records", 600)?;
        cfg.d = flags.get_or("d", 4)?;
        cfg.b = flags.get_or("b", 4)?;
        // One seed draws the input and the placement.
        cfg.sort_seed = flags.get_or("seed", 0xC4A5)?;
        cfg.m = match (flags.get::<usize>("m")?, flags.get::<usize>("k")?) {
            (Some(m), _) => m,
            (None, Some(k)) => Geometry::for_table(k, cfg.d, cfg.b).map_err(|e| e.to_string())?.m,
            // Small enough for an exhaustive sweep, big enough (with the
            // default record count) for two merge passes.
            (None, None) => 8 * cfg.d * cfg.b,
        };
        (cfg.pipeline, cfg.read_ahead) = flags.overlap()?;
        cfg.parity = flags.has("parity");
        let backend = flags.get_str("backend").unwrap_or("mem");
        cfg.backend = Backend::from_slug(backend).ok_or(format!("unknown backend `{backend}`"))?;
        println!(
            "crash matrix: {} records on D={} B={} M={} ({} window, parity {}, {backend} backend)",
            cfg.records,
            cfg.d,
            cfg.b,
            cfg.m,
            if cfg.pipeline { "pipelined" } else { "blocking" },
            if cfg.parity { "on" } else { "off" },
        );
        let start = std::time::Instant::now();
        let report = local::crash_matrix(&cfg, 1, |k, n| {
            if k % 100 == 0 {
                println!("  exploring crash point {k}/{n}");
            }
        })?;
        println!(
            "explored {} crash points in {:.2?}: {} resumed from a checkpoint, {} restarted \
             fresh; every recovery was byte-identical to the sorted input with a checker-clean \
             I/O trace",
            report.explored,
            start.elapsed(),
            report.resumed,
            report.fresh,
        );
        Ok(())
    };
    let result = inner();
    if named.is_none() {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    match result {
        Ok(()) => 0,
        Err(e) => fail(e),
    }
}

/// `srm occupancy`
pub fn occupancy(flags: &Flags) -> i32 {
    let inner = || -> Result<(), String> {
        let k = flags
            .get::<NonZeroU64>("k")?
            .ok_or("`srm occupancy` requires --k")?
            .get();
        let d = flags
            .get::<NonZeroUsize>("d")?
            .ok_or("`srm occupancy` requires --d")?
            .get();
        let trials = flags
            .get::<NonZeroU64>("trials")?
            .map_or(1000, NonZeroU64::get);
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
        let k = flags
            .get::<NonZeroUsize>("k")?
            .ok_or("`srm simulate` requires --k")?
            .get();
        let d = flags
            .get::<NonZeroUsize>("d")?
            .ok_or("`srm simulate` requires --d")?
            .get();
        let blocks = flags
            .get::<NonZeroU64>("blocks")?
            .map_or(1000, NonZeroU64::get);
        let trials = flags
            .get::<NonZeroU64>("trials")?
            .map_or(3, NonZeroU64::get);
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
        srm_repro::signals::install();
        let forward = std::sync::Arc::clone(&server);
        srm_repro::signals::watch(move || forward.request_shutdown(), || false);

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
        };
        // The tree goes whatever the outcome, unless it was asked for.
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let report = report.map_err(|e| e.to_string())?;

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
                "  shard {s}: {} records, {} blocks, formation {}, {} passes, trace {} ({} events), {} recoveries, {} repaired",
                shard.records,
                shard.blocks,
                shard.formation.name(),
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
            "  phases: split {} ms, shards {} ms, fold {} ms ({} ms waiting on a shard)",
            ph.split, ph.shards, ph.merge, ph.merge_wait
        );
        println!(
            "  recoveries: {} total, fold stalls: {}, recovery wall-clock: {:?} ms",
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
        let arm_kill: Option<srm_dist::KillPoint> = flags.get("arm-kill")?;
        srm_dist::shard_run_standalone(&root, shard, arm_kill).map_err(|e| e.to_string())
    };
    match inner() {
        Ok(()) => 0,
        Err(e) => fail(e),
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
