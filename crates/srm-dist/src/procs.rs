//! Process mode (`--procs`): each shard is a real child `srm` process,
//! so node death is a genuine `SIGKILL`, not a simulation.
//!
//! The parent routes each shard's partition to a durable `keys` file in
//! the shard's directory (the staging channel of thread mode, made
//! trivially reliable), writes the job spec and dist settings to plan
//! files at the root, and spawns one `srm shard-run --root R --shard I`
//! child per shard.  Children speak a line protocol on stdout:
//!
//! ```text
//! PASS <k>      pass boundary k reached (before its snapshot)
//! KILLME <k>    armed drill boundary reached; child parks until killed
//! DONE          sort finished; the output descriptor is journaled
//! ERR <msg>     unrecoverable failure
//! ```
//!
//! The `--kill-node N@P` drill arms child `N`: at boundary `P` it prints
//! `KILLME` and parks *before the checkpoint snapshot*, and the parent
//! answers with `kill -9` — after which a replacement child is spawned
//! on the same directory and resumes from the journaled manifest,
//! exactly like thread mode.  Any child that dies without `DONE` (drill
//! or otherwise) is likewise replaced, up to the recovery cap.
//!
//! After every child reports `DONE`, the parent streams the shard
//! outputs out of their directories (children have exited; their
//! clusters' advisory locks are free) through the same concatenating
//! writer as thread mode, in the same stripe windows.

use crate::concat::{concat_output, window_blocks, WindowSource};
use crate::coord::{plan_for, split_input, DistConfig, DistReport, KillPlan, PhaseMs, ShardReport};
use crate::error::{DistError, Result};
use crate::fence::FenceFlag;
use crate::net::NetStats;
use crate::shard::{
    atomic_write, complete_window, inspect_dir, open_base, shard_stack, sort_shard, submit_window, Boot,
    KillPoint, Outcome, OutputMeta, ShardPlan, ShardStack, SortInput,
};
use pdisk::{StripedRun, U64Record};
use srm_core::StripeWindow;
use srm_server::{expected_digest, JobSpec};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// One line of the child protocol, tagged with its shard.
enum Event {
    Pass,
    KillMe(u32),
    Done(u32),
    Err(u32, String),
    /// Child stdout closed: the process is gone (killed or exited).
    Eof(u32),
}

/// Write the plan files a `shard-run` child reads: the job spec and the
/// dist settings, both in the `key value` line format.
fn write_plan(spec: &JobSpec, cfg: &DistConfig, root: &Path) -> Result<()> {
    atomic_write(&root.join("spec"), &spec.encode())?;
    let dist = format!(
        "shards {}\nparity {}\nio-delay-us {}\n",
        cfg.shards,
        cfg.parity,
        cfg.io_delay.as_micros()
    );
    atomic_write(&root.join("dist"), &dist)
}

/// Read the plan files back (child side).
fn read_plan(root: &Path) -> Result<(JobSpec, DistConfig)> {
    let read = |name: &str| {
        let p = root.join(name);
        std::fs::read_to_string(&p)
            .map_err(|e| DistError::Io(format!("read {}: {e}", p.display())))
    };
    let spec = JobSpec::decode(&read("spec")?).map_err(DistError::Job)?;
    let mut cfg = DistConfig::new(1);
    for line in read("dist")?.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let bad = || DistError::Io(format!("bad dist plan line `{line}`"));
        let (k, v) = line.split_once(' ').ok_or_else(bad)?;
        match k {
            "shards" => cfg.shards = v.parse().map_err(|_| bad())?,
            "parity" => cfg.parity = v.parse().map_err(|_| bad())?,
            "io-delay-us" => {
                cfg.io_delay = Duration::from_micros(v.parse().map_err(|_| bad())?)
            }
            _ => return Err(bad()),
        }
    }
    Ok((spec, cfg))
}

fn keys_path(plan: &ShardPlan) -> PathBuf {
    plan.dir.join("keys")
}

/// Entry point of the hidden `srm shard-run` subcommand: run one shard
/// incarnation in this process, speaking the stdout line protocol.
/// `arm_kill` is the drill boundary (first incarnation of the drill
/// target only).
pub fn shard_run_standalone(root: &Path, shard: u32, arm_kill: Option<u64>) -> Result<()> {
    let (spec, cfg) = read_plan(root)?;
    let geom = spec.geometry()?;
    let plan = plan_for(&spec, &cfg, geom, root, shard, None);
    let say = |line: String| {
        let mut out = std::io::stdout();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };

    let input = match inspect_dir(&plan)? {
        Boot::Serve(_) | Boot::Empty => {
            // Output already durable (a replacement of a shard that died
            // after finishing): nothing to redo.
            say("DONE".into());
            return Ok(());
        }
        Boot::Sort(run) => SortInput::Durable(run),
        Boot::Stage => {
            let path = keys_path(&plan);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| DistError::Io(format!("read {}: {e}", path.display())))?;
            let mut keys = Vec::new();
            for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
                keys.push(line.parse::<u64>().map_err(|_| {
                    DistError::Io(format!("bad key line `{line}` in {}", path.display()))
                })?);
            }
            if keys.is_empty() {
                atomic_write(&plan.input_path(), "empty")?;
                atomic_write(&plan.output_path(), &OutputMeta::empty().encode())?;
                say("DONE".into());
                return Ok(());
            }
            SortInput::Fresh(keys.into_iter().map(U64Record).collect())
        }
    };

    let fence = FenceFlag::new(); // never fired: death here is a real SIGKILL
    let mut on_staged = |_records: u64| {};
    let mut on_pass = |pass: u64| {
        if arm_kill == Some(pass) {
            // Park before the snapshot and wait for the parent's kill -9:
            // the most adversarial death, with this pass's work unsaved.
            say(format!("KILLME {pass}"));
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        say(format!("PASS {pass}"));
    };
    match sort_shard(&plan, &fence, input, &mut on_staged, &mut on_pass)? {
        Outcome::Done(_) => {
            say("DONE".into());
            Ok(())
        }
        // Unreachable: plan.kill is None in process mode (the drill is
        // the parent's SIGKILL), but handle it as a clean exit anyway.
        Outcome::Killed => Ok(()),
    }
}

/// Spawn one shard child and a thread pumping its stdout into `events`.
fn spawn_child(
    bin: &Path,
    root: &Path,
    shard: u32,
    arm_kill: Option<u64>,
    events: &Sender<Event>,
) -> Result<Child> {
    let mut cmd = Command::new(bin);
    cmd.arg("shard-run")
        .arg("--root")
        .arg(root)
        .arg("--shard")
        .arg(shard.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(pass) = arm_kill {
        cmd.arg("--arm-kill").arg(pass.to_string());
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| DistError::Io(format!("spawn {}: {e}", bin.display())))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| DistError::Io("child stdout not captured".into()))?;
    let tx = events.clone();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            let ev = match line.split_once(' ') {
                Some(("PASS", _)) => Some(Event::Pass),
                Some(("KILLME", _)) => Some(Event::KillMe(shard)),
                Some(("ERR", msg)) => Some(Event::Err(shard, msg.to_string())),
                None if line == "DONE" => Some(Event::Done(shard)),
                _ => None,
            };
            if let Some(ev) = ev {
                if tx.send(ev).is_err() {
                    break;
                }
            }
        }
        let _ = tx.send(Event::Eof(shard));
    });
    Ok(child)
}

/// Run the distributed sort with real child processes.  `bin` is the
/// `srm` binary to spawn (normally `std::env::current_exe()`).
pub fn run_procs(spec: &JobSpec, cfg: &DistConfig, root: &Path, bin: &Path) -> Result<DistReport> {
    spec.validate()?;
    if let Some(KillPlan {
        point: KillPoint::Merge(_),
        ..
    }) = cfg.kill
    {
        return Err(DistError::Config(
            "--kill-node N@merge requires thread mode (process mode has no serve phase)".into(),
        ));
    }
    let started = Instant::now();
    std::fs::create_dir_all(root)
        .map_err(|e| DistError::Io(format!("create {}: {e}", root.display())))?;
    write_plan(spec, cfg, root)?;

    // Route each shard's partition to a durable keys file.
    let (splitters, buckets) = split_input(spec, cfg.shards);
    let split = started.elapsed();
    let geom = spec.geometry()?;
    for (shard, bucket) in buckets.iter().enumerate() {
        let plan = plan_for(spec, cfg, geom, root, shard as u32, None);
        std::fs::create_dir_all(&plan.dir)
            .map_err(|e| DistError::Io(format!("create {}: {e}", plan.dir.display())))?;
        let mut text = String::with_capacity(bucket.len() * 12);
        for k in bucket {
            text.push_str(&k.to_string());
            text.push('\n');
        }
        atomic_write(&keys_path(&plan), &text)?;
    }

    // Spawn the fleet (the drill target armed) and supervise.
    let (tx, rx): (Sender<Event>, Receiver<Event>) = mpsc::channel();
    let mut children: Vec<Option<Child>> = Vec::new();
    let mut reports: Vec<ShardReport> = vec![ShardReport::default(); cfg.shards as usize];
    let mut done = vec![false; cfg.shards as usize];
    let mut recovery_started: Vec<Option<Instant>> = vec![None; cfg.shards as usize];
    let mut recovery_ms = Vec::new();
    let mut recoveries = 0u64;
    for shard in 0..cfg.shards {
        let arm = cfg.kill.and_then(|k| match k.point {
            KillPoint::Pass(p) if k.shard == shard => Some(p),
            _ => None,
        });
        children.push(Some(spawn_child(bin, root, shard, arm, &tx)?));
    }

    let deadline = Instant::now() + Duration::from_secs(300);
    while !done.iter().all(|d| *d) {
        if Instant::now() > deadline {
            return Err(DistError::Net("process fleet timed out".into()));
        }
        let ev = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(DistError::Net("all child monitors gone".into()))
            }
        };
        match ev {
            Event::Pass => {}
            Event::KillMe(shard) => {
                // The drill: a real kill -9, mid-pass-boundary.
                if let Some(child) = children[shard as usize].as_mut() {
                    let _ = child.kill();
                }
            }
            Event::Done(shard) => {
                let s = shard as usize;
                done[s] = true;
                if let Some(t) = recovery_started[s].take() {
                    recovery_ms.push(t.elapsed().as_millis() as u64);
                }
            }
            Event::Err(shard, msg) => {
                return Err(DistError::Shard { shard, msg });
            }
            Event::Eof(shard) => {
                let s = shard as usize;
                if let Some(mut child) = children[s].take() {
                    let _ = child.wait();
                }
                if done[s] {
                    continue; // clean exit
                }
                // Died without DONE: drill kill or crash — either way,
                // fence is implicit (the process is gone and its locks
                // released); boot a replacement on the same directory.
                recoveries += 1;
                reports[s].recoveries += 1;
                if reports[s].recoveries > cfg.max_recoveries {
                    return Err(DistError::Shard {
                        shard,
                        msg: format!("crash loop: {} recoveries exhausted", cfg.max_recoveries),
                    });
                }
                if recovery_started[s].is_none() {
                    recovery_started[s] = Some(Instant::now());
                }
                children[s] = Some(spawn_child(bin, root, shard, None, &tx)?);
            }
        }
    }
    for child in children.iter_mut().flatten() {
        let _ = child.wait();
    }
    let shards = started.elapsed() - split;

    // Stream the output straight from the shard directories.
    let mut src = LocalWindows {
        plans: Vec::new(),
        runs: Vec::new(),
        window: window_blocks(geom),
        open: None,
        in_flight: None,
    };
    for (shard, report) in (0..cfg.shards).zip(&mut reports) {
        let plan = plan_for(spec, cfg, geom, root, shard, None);
        let text = std::fs::read_to_string(plan.output_path()).map_err(|e| {
            DistError::Io(format!("read {}: {e}", plan.output_path().display()))
        })?;
        let meta = OutputMeta::parse(&text)?;
        report.records = meta.records;
        report.blocks = meta.run.as_ref().map_or(0, |r| r.len_blocks);
        report.passes = meta.passes;
        report.digest = meta.digest;
        report.trace_events = meta.trace_events;
        report.trace_clean = meta.trace_clean;
        report.repaired = meta.repaired;
        report.ms = meta.ms;
        src.plans.push(plan);
        src.runs.push(meta.run);
    }
    let blocks: Vec<u64> = reports.iter().map(|r| r.blocks).collect();
    let out = concat_output(geom, root, &blocks, &mut src)?;
    let merge = started.elapsed() - split - shards;

    Ok(DistReport {
        records: out.records,
        shards: cfg.shards,
        splitters,
        digest: out.digest,
        oracle_ok: out.digest == expected_digest(spec) && out.records == spec.records,
        per_shard: reports,
        recoveries,
        merge_stalls: 0,
        recovery_ms,
        net: NetStats::default(),
        elapsed_ms: started.elapsed().as_millis() as u64,
        phase_ms: PhaseMs {
            split: split.as_millis() as u64,
            shards: shards.as_millis() as u64,
            merge: merge.as_millis() as u64,
            merge_wait: out.wait.as_millis() as u64,
        },
    })
}

/// Process mode's window source: the parent reads each finished
/// shard's cluster itself, through the stack the shard's plan mandates,
/// keeping open only the cluster the stream is currently in.
struct LocalWindows {
    plans: Vec<ShardPlan>,
    runs: Vec<Option<StripedRun>>,
    window: u64,
    open: Option<(usize, ShardStack)>,
    in_flight: Option<StripeWindow<U64Record>>,
}

impl WindowSource for LocalWindows {
    fn request(&mut self, shard: usize, first: u64) -> Result<()> {
        if self.open.as_ref().map(|(s, _)| *s) != Some(shard) {
            // No replacement can own a finished shard's cluster: the
            // parent reads it behind a fence that never fires.
            let plan = &self.plans[shard];
            self.open = Some((shard, shard_stack(plan, open_base(plan, false)?, &FenceFlag::new(), false)?));
        }
        if let (Some((_, array)), Some(run)) = (&mut self.open, &self.runs[shard]) {
            self.in_flight = Some(submit_window(array, run, first, self.window)?);
        }
        Ok(())
    }

    fn wait(&mut self) -> Result<Vec<u64>> {
        match (&mut self.open, self.in_flight.take()) {
            (Some((_, array)), Some(window)) => complete_window(array, window),
            _ => Ok(Vec::new()),
        }
    }
}
