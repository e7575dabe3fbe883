//! Process mode (`--procs`): each shard is a real child `srm` process,
//! so node death is a genuine `SIGKILL`, not a simulation.
//!
//! The parent samples the splitters, writes the job spec and the dist
//! settings (splitters included) to plan files at the root, and spawns
//! one `srm shard-run --root R --shard I` child per shard, which derives
//! its partition from the two as a thread-mode shard does.  Children
//! speak a line protocol on stdout:
//!
//! ```text
//! PASS <k>                        pass boundary k reached (before its snapshot)
//! KILLME <k|merge>                armed drill point reached; child parks until killed
//! DONE                            sort finished; the output descriptor is journaled
//! FOLDED <digest> <prev> <n>      the carry with this shard's run folded on
//! DISORDER <block> <key> <prev>   the fold met a key below its predecessor
//! ERR <msg>                       unrecoverable failure
//! ```
//!
//! and, after `DONE`, read one `FOLD <digest> <prev> <n>` line on stdin:
//! the same [`crate::fold`] chain as thread mode, which the parent drives
//! as children finish.  A child exits once it has answered, or when its
//! stdin closes.
//!
//! The `--kill-node N@P` drill arms child `N`: at boundary `P` it prints
//! `KILLME` and parks *before the checkpoint snapshot*, and the parent
//! answers with `kill -9` — after which a replacement child is spawned
//! on the same directory, derives its partition again and resumes from
//! the journaled manifest (or, killed before the pass-0 snapshot, forms
//! its runs afresh), exactly like thread mode; with `--parity`,
//! `--corrupt-disk D` trashes disk `D` of the victim's cluster between
//! the reaping and the respawn.  `N@merge` parks the same way when the
//! fold request arrives; its replacement boots on the finished
//! directory, reads its keys back and is asked again.  Any child that
//! dies before the chain has passed it (drill or otherwise) is likewise
//! replaced, up to the recovery cap.  There is no message channel, so
//! the channel-fault options (`--net-*`, `--partition`) are refused.

use crate::coord::{corrupt_disk_file, plan_for, sample_input, DistConfig, DistReport, PhaseMs, ShardReport};
use crate::error::{DistError, Result};
use crate::fence::FenceFlag;
use crate::fold::{Carry, Chain, Disorder, Step};
use crate::net::NetStats;
use crate::shard::{
    atomic_write, inspect_dir, read_output, sort_shard, Boot, KillPoint, Outcome, OutputMeta, ShardPlan,
};
use crate::split::KeyRange;
use pdisk::U64Record;
use srm_server::{expected_digest, JobSpec};
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// One line of the child protocol the parent acts on (`PASS` is
/// progress only), tagged with its shard.
enum Event {
    KillMe(u32),
    Done(u32),
    Folded(u32, std::result::Result<Carry, Disorder>),
    Err(u32, String),
    /// Child stdout closed: the process is gone (killed or exited).
    Eof(u32),
}

/// Three numbers after a line's tag (`FOLD`, `FOLDED`, `DISORDER`).
fn three(rest: &str) -> Option<[u64; 3]> {
    let mut it = rest.split(' ').map(str::parse);
    match (it.next(), it.next(), it.next(), it.next()) {
        (Some(Ok(a)), Some(Ok(b)), Some(Ok(c)), None) => Some([a, b, c]),
        _ => None,
    }
}

/// Write the plan files a `shard-run` child reads: the job spec and the
/// dist settings with the splitters, both in the `key value` line format.
fn write_plan(spec: &JobSpec, cfg: &DistConfig, splitters: &[u64], root: &Path) -> Result<()> {
    atomic_write(&root.join("spec"), &spec.encode())?;
    let splitters: Vec<String> = splitters.iter().map(u64::to_string).collect();
    let dist = format!(
        "shards {}\nparity {}\nio-delay-us {}\nsplitters {}\n",
        cfg.shards,
        cfg.parity,
        cfg.io_delay.as_micros(),
        splitters.join(" ")
    );
    atomic_write(&root.join("dist"), &dist)
}

/// Read the plan files back (child side).
fn read_plan(root: &Path) -> Result<(JobSpec, DistConfig, Vec<u64>)> {
    let read = |name: &str| {
        let p = root.join(name);
        std::fs::read_to_string(&p)
            .map_err(|e| DistError::Io(format!("read {}: {e}", p.display())))
    };
    let spec = JobSpec::decode(&read("spec")?).map_err(DistError::Job)?;
    let (mut cfg, mut splitters) = (DistConfig::new(1), Vec::new());
    for line in read("dist")?.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let bad = || DistError::Io(format!("bad dist plan line `{line}`"));
        // One shard has no splitters: its line is the bare key.
        let (k, v) = line.split_once(' ').unwrap_or((line, ""));
        match k {
            "shards" => cfg.shards = v.parse().map_err(|_| bad())?,
            "parity" => cfg.parity = v.parse().map_err(|_| bad())?,
            "io-delay-us" => {
                cfg.io_delay = Duration::from_micros(v.parse().map_err(|_| bad())?)
            }
            "splitters" => {
                let keys: std::result::Result<Vec<u64>, _> = v.split_whitespace().map(str::parse).collect();
                splitters = keys.map_err(|_| bad())?;
            }
            _ => return Err(bad()),
        }
    }
    if splitters.len() + 1 != cfg.shards as usize {
        return Err(DistError::Io(format!("dist plan has {} splitters for {} shards", splitters.len(), cfg.shards)));
    }
    Ok((spec, cfg, splitters))
}

/// Entry point of the hidden `srm shard-run` subcommand: run one shard
/// incarnation in this process, speaking the line protocol.  `arm_kill`
/// is the drill point (first incarnation of the drill target only).
pub fn shard_run_standalone(root: &Path, shard: u32, arm_kill: Option<KillPoint>) -> Result<()> {
    let (spec, cfg, splitters) = read_plan(root)?;
    let geom = spec.geometry()?;
    let plan = plan_for(&spec, &cfg, geom, root, shard, KeyRange::of(&splitters, shard), None);

    // Never fired: death here is a real SIGKILL.
    let fence = FenceFlag::new();
    // Output already durable (a replacement of a shard that died after
    // finishing): nothing to redo but read its keys back.
    if let Boot::Done(meta) = inspect_dir(&plan)? {
        return answer_fold(&plan, &read_output(&plan, &fence, &meta)?, arm_kill);
    }
    let mut on_pass = |pass: u64| {
        if arm_kill == Some(KillPoint::Pass(pass)) {
            // Park before the snapshot and wait for the parent's kill -9:
            // the most adversarial death, with this pass's work unsaved.
            park(&format!("KILLME {pass}"));
        }
        say(&format!("PASS {pass}"));
    };
    match sort_shard(&plan, &fence, &mut on_pass)? {
        Outcome::Done(_, keys) => answer_fold(&plan, &keys, arm_kill),
        // Unreachable: plan.kill is None in process mode (the drill is
        // the parent's SIGKILL), but handle it as a clean exit anyway.
        Outcome::Killed => Ok(()),
    }
}

/// Print one protocol line on stdout.
fn say(line: &str) {
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Announce `line` and wait for the parent's kill -9.
fn park(line: &str) -> ! {
    say(line);
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Say `DONE`, then answer the fold request on stdin (or exit when the
/// parent closes it without asking, as it does for an empty shard).
fn answer_fold(plan: &ShardPlan, keys: &[U64Record], arm_kill: Option<KillPoint>) -> Result<()> {
    say("DONE");
    let mut line = String::new();
    while std::io::stdin().read_line(&mut line).map_err(|e| DistError::Io(format!("read stdin: {e}")))? > 0 {
        if let Some([digest, prev, records]) = line.trim().strip_prefix("FOLD ").and_then(three) {
            if arm_kill == Some(KillPoint::Merge) {
                park("KILLME merge");
            }
            match (Carry { digest, prev, records }).fold(keys.iter().map(|r| r.0), plan.geom.b) {
                Ok(c) => say(&format!("FOLDED {} {} {}", c.digest, c.prev, c.records)),
                Err(d) => say(&format!("DISORDER {} {} {}", d.first, d.key, d.prev)),
            }
            return Ok(());
        }
        line.clear();
    }
    Ok(())
}

/// Spawn one shard child and a thread pumping its stdout into `events`.
fn spawn_child(
    bin: &Path,
    root: &Path,
    shard: u32,
    arm_kill: Option<KillPoint>,
    events: &Sender<Event>,
) -> Result<Child> {
    let mut cmd = Command::new(bin);
    cmd.arg("shard-run")
        .arg("--root")
        .arg(root)
        .arg("--shard")
        .arg(shard.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match arm_kill {
        Some(KillPoint::Pass(pass)) => cmd.arg("--arm-kill").arg(pass.to_string()),
        Some(KillPoint::Merge) => cmd.arg("--arm-kill").arg("merge"),
        None => &mut cmd,
    };
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
                Some(("KILLME", _)) => Some(Event::KillMe(shard)),
                Some(("ERR", msg)) => Some(Event::Err(shard, msg.to_string())),
                Some(("FOLDED", rest)) => three(rest)
                    .map(|[digest, prev, records]| Event::Folded(shard, Ok(Carry { digest, prev, records }))),
                Some(("DISORDER", rest)) => {
                    three(rest).map(|[first, key, prev]| Event::Folded(shard, Err(Disorder { first, key, prev })))
                }
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
    let geom = spec.geometry()?;
    cfg.validate(geom)?;
    if cfg.net.is_active() {
        return Err(DistError::Config(
            "--net-drop, --net-dup, --net-delay and --partition fault thread mode's message channel, \
             which --procs does not have (its children talk over pipes)"
                .into(),
        ));
    }
    if cfg.fill_write.is_some() {
        return Err(DistError::Config("the disk-full drill runs in thread mode only".into()));
    }
    let started = Instant::now();
    let splitters = sample_input(spec, cfg.shards);
    let split = started.elapsed();
    std::fs::create_dir_all(root)
        .map_err(|e| DistError::Io(format!("create {}: {e}", root.display())))?;
    write_plan(spec, cfg, &splitters, root)?;
    let plans: Vec<ShardPlan> =
        (0..cfg.shards).map(|s| plan_for(spec, cfg, geom, root, s, KeyRange::of(&splitters, s), None)).collect();

    // Spawn the fleet (the drill target armed), supervise, and drive the
    // fold as children finish.
    let (tx, rx): (Sender<Event>, Receiver<Event>) = mpsc::channel();
    let p = cfg.shards as usize;
    let mut children: Vec<Option<Child>> = Vec::new();
    let mut reports: Vec<ShardReport> = vec![ShardReport::default(); p];
    // Each live incarnation's sorted record count, once it said DONE.
    let mut done: Vec<Option<u64>> = vec![None; p];
    let mut recovery_started: Vec<Option<Instant>> = vec![None; p];
    let mut recovery_ms = Vec::new();
    let (mut recoveries, mut merge_stalls) = (0u64, 0u64);
    for shard in 0..cfg.shards {
        let arm = cfg.kill.filter(|k| k.shard == shard).map(|k| k.point);
        children.push(Some(spawn_child(bin, root, shard, arm, &tx)?));
    }

    let (mut chain, mut asked) = (Chain::default(), None);
    let (mut sorted, mut wait) = (None, Duration::ZERO);
    let deadline = Instant::now() + Duration::from_secs(300);
    let out = loop {
        if sorted.is_none() && done.iter().all(Option::is_some) {
            sorted = Some(started.elapsed());
        }
        match chain.step(&done) {
            Step::Complete(carry) => break carry,
            Step::Ask(s, carry) if asked.is_none() => {
                asked = Some(s);
                // A child that died meanwhile cannot take the line; its
                // EOF is already on the way and re-asks its replacement.
                if let Some(stdin) = children[s].as_mut().and_then(|c| c.stdin.as_mut()) {
                    let _ = writeln!(stdin, "FOLD {} {} {}", carry.digest, carry.prev, carry.records);
                }
            }
            Step::Ask(..) | Step::Wait => {}
        }
        if Instant::now() > deadline {
            return Err(DistError::Net("process fleet timed out".into()));
        }
        let blocked = Instant::now();
        let ev = rx.recv_timeout(Duration::from_millis(50));
        if sorted.is_some() {
            wait += blocked.elapsed();
        }
        let ev = match ev {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(DistError::Net("all child monitors gone".into()))
            }
        };
        match ev {
            Event::KillMe(shard) => {
                // The drill: a real kill -9, at a pass boundary or on the
                // fold request.
                if let Some(child) = children[shard as usize].as_mut() {
                    let _ = child.kill();
                }
            }
            Event::Done(shard) => {
                let s = shard as usize;
                let meta = read_meta(&plans[s])?;
                let report = &mut reports[s];
                report.records = meta.records;
                report.blocks = meta.run.as_ref().map_or(0, |r| r.len_blocks);
                report.passes = meta.passes;
                report.formation = plans[s].sorter.formation(geom, meta.records)?;
                report.digest = meta.digest;
                report.trace_events = meta.trace_events;
                report.trace_clean = meta.trace_clean;
                report.repaired = meta.repaired;
                report.ms = meta.ms;
                done[s] = Some(meta.records);
                if let Some(t) = recovery_started[s].take() {
                    recovery_ms.push(t.elapsed().as_millis() as u64);
                }
            }
            Event::Folded(shard, fold) => {
                let s = shard as usize;
                if chain.adopt(s, fold, reports[s].records)? {
                    asked = None;
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
                if !chain.needs(s) {
                    continue; // answered its fold and exited
                }
                // Died before the chain passed it: drill kill or crash —
                // either way, fence is implicit (the process is gone and
                // its locks released); boot a replacement on the same
                // directory, and ask it again if it was asked.  The
                // drill's victim may take part of a disk with it first.
                done[s] = None;
                let victim = cfg.kill.is_some_and(|k| k.shard == shard) && reports[s].recoveries == 0;
                if let Some(disk) = cfg.corrupt_disk.filter(|_| victim) {
                    corrupt_disk_file(&plans[s], disk)?;
                }
                if asked == Some(s) {
                    asked = None;
                    merge_stalls += 1;
                }
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
    };
    // Closing stdin releases the children never asked (empty shards).
    for child in children.iter_mut().flatten() {
        drop(child.stdin.take());
        let _ = child.wait();
    }
    let shards = sorted.unwrap_or_default().saturating_sub(split);
    let merge = started.elapsed() - split - shards;

    Ok(DistReport {
        records: out.records,
        shards: cfg.shards,
        splitters,
        digest: out.digest,
        oracle_ok: out.digest == expected_digest(spec) && out.records == spec.records,
        per_shard: reports,
        recoveries,
        merge_stalls,
        recovery_ms,
        net: NetStats::default(),
        elapsed_ms: started.elapsed().as_millis() as u64,
        phase_ms: PhaseMs {
            split: split.as_millis() as u64,
            shards: shards.as_millis() as u64,
            merge: merge.as_millis() as u64,
            merge_wait: wait.as_millis() as u64,
        },
    })
}

/// A finished shard's journaled output descriptor.
fn read_meta(plan: &ShardPlan) -> Result<OutputMeta> {
    let path = plan.output_path();
    let text = std::fs::read_to_string(&path).map_err(|e| DistError::Io(format!("read {}: {e}", path.display())))?;
    OutputMeta::parse(&text)
}
