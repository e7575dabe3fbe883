//! Process mode (`--procs`): each shard incarnation is a child `srm
//! shard-run` process, driven by the same coordinator as a thread.
//!
//! The parent samples the splitters and writes the job spec and the
//! dist settings (heartbeat interval and splitters included) to plan
//! files at the root; a child reads them back and derives its partition
//! as a thread does.  To the coordinator, a child is one more endpoint
//! of its [`Network`], reached through two pipes.  Two pump threads per
//! incarnation stand behind them: one decodes the child's stdout
//! ([`Envelope::decode`]) and offers each message as node `s`'s at the
//! incarnation's epoch, so the channel's fault model decides its fate
//! exactly as for a thread's; the other writes node `s`'s mailbox to the
//! child's stdin, dropping mail for another epoch as a shard's own loop
//! does.  A replaced child's late lines therefore meet the
//! coordinator's epoch check like a fenced thread's messages.
//!
//! The child runs the ordinary [`run_shard`] at epoch 0 on a fault-free
//! loopback network and pumps between the loopback's coordinator
//! endpoint and its stdin and stdout, one line per message.  It exits
//! when its shard ends, or when its stdin closes.
//!
//! A child is fenced by `kill` + `wait`: its successor never races a
//! live predecessor for the cluster, and the kernel frees its lock.  The
//! `--kill-node` drill arms the victim's first incarnation, which calls
//! [`std::process::exit`] at its armed point — leaving the cluster as a
//! SIGKILL would — and the coordinator finds it dead by heartbeat
//! silence, as in thread mode.

use crate::coord::{plan_for, run_distsort, DistConfig, DistReport};
use crate::error::{DistError, Result};
use crate::fence::FenceFlag;
use crate::msg::{Envelope, Msg};
use crate::net::{Endpoint, Network};
use crate::shard::{atomic_write, run_shard, KillPoint, ShardPlan};
use crate::split::KeyRange;
use pdisk::NetFaultModel;
use srm_server::JobSpec;
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// Run the distributed sort with each shard incarnation a child process
/// of `bin` (normally `std::env::current_exe()`, an `srm`).
pub fn run_procs(spec: &JobSpec, cfg: &DistConfig, root: &Path, bin: &Path) -> Result<DistReport> {
    run_distsort(spec, cfg, root, Some(bin))
}

/// Write the plan files a `shard-run` child reads: the job spec and the
/// dist settings with the splitters, both in the `key value` line format.
pub(crate) fn write_plan(spec: &JobSpec, cfg: &DistConfig, splitters: &[u64], root: &Path) -> Result<()> {
    atomic_write(&root.join("spec"), &spec.encode())?;
    let splitters: Vec<String> = splitters.iter().map(u64::to_string).collect();
    let mut dist = format!(
        "shards {}\nparity {}\nio-delay-us {}\nheartbeat-us {}\nsplitters {}\n",
        cfg.shards,
        cfg.parity,
        cfg.io_delay.as_micros(),
        cfg.heartbeat.as_micros(),
        splitters.join(" ")
    );
    if let Some((shard, write)) = cfg.fill_write {
        dist += &format!("fill-write {shard} {write}\n");
    }
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
        let micros = || v.parse().map(Duration::from_micros).map_err(|_| bad());
        let nums = || v.split_whitespace().map(str::parse).collect::<std::result::Result<Vec<u64>, _>>();
        match (k, nums()) {
            ("shards", _) => cfg.shards = v.parse().map_err(|_| bad())?,
            ("parity", _) => cfg.parity = v.parse().map_err(|_| bad())?,
            ("io-delay-us", _) => cfg.io_delay = micros()?,
            ("heartbeat-us", _) => cfg.heartbeat = micros()?,
            ("splitters", Ok(keys)) => splitters = keys,
            ("fill-write", Ok(n)) if n.len() == 2 => cfg.fill_write = Some((n[0] as u32, n[1])),
            _ => return Err(bad()),
        }
    }
    if splitters.len() + 1 != cfg.shards as usize {
        return Err(DistError::Io(format!("dist plan has {} splitters for {} shards", splitters.len(), cfg.shards)));
    }
    Ok((spec, cfg, splitters))
}

/// Write one envelope to stdout in a single `write` of its whole line,
/// so a process that dies mid-emit leaves the line whole or absent.
fn emit(env: &Envelope) -> Result<()> {
    let mut out = std::io::stdout().lock();
    out.write_all(env.encode().as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| DistError::Io(format!("write stdout: {e}")))
}

/// Decode `input`'s lines and `offer` each message, until EOF or the
/// first line that is not the codec's.
fn pump(input: impl BufRead, mut offer: impl FnMut(Msg)) -> Result<()> {
    input.lines().try_for_each(|line| {
        offer(Envelope::decode(&line.map_err(|e| DistError::Io(format!("read pipe: {e}")))?)?.msg);
        Ok(())
    })
}

/// Report `e` as shard `shard`'s `Fatal` line.  The parent takes every
/// line as the coordinator's, so the `dst` it cannot always know is
/// immaterial.
fn fatal(shard: u32, e: &DistError) {
    let _ = emit(&Envelope { src: shard, dst: u32::MAX, epoch: 0, msg: Msg::Fatal { msg: e.to_string() } });
}

/// Entry point of the hidden `srm shard-run` subcommand: run one shard
/// incarnation in this process, its messages pumped over stdin and
/// stdout.  `arm_kill` is the drill point (first incarnation of the
/// drill target only).  A failure before the shard starts is reported
/// as a `Fatal` line too.
pub fn shard_run_standalone(root: &Path, shard: u32, arm_kill: Option<KillPoint>) -> Result<()> {
    let boot = || -> Result<(ShardPlan, Endpoint, Endpoint)> {
        let (spec, cfg, splitters) = read_plan(root)?;
        let plan = plan_for(&spec, &cfg, spec.geometry()?, root, shard, KeyRange::of(&splitters, shard), arm_kill);
        let (_, mut eps) = Network::new(cfg.shards + 1, NetFaultModel::none());
        let coord = eps.pop();
        match (coord, eps.into_iter().nth(shard as usize)) {
            (Some(coord), Some(node)) => Ok((ShardPlan { process: true, ..plan }, coord, node)),
            _ => Err(DistError::Config(format!("shard {shard} out of range (P = {})", cfg.shards))),
        }
    };
    let (plan, coord, node) = boot().inspect_err(|e| fatal(shard, e))?;

    // The coordinator's mail, line by line into the loopback; the parent
    // gone (stdin closed) ends this process.
    let tx = coord.sender();
    std::thread::spawn(move || {
        if let Err(e) = pump(std::io::stdin().lock(), |msg| tx.send(shard, 0, msg)) {
            fatal(shard, &e);
        }
        std::process::exit(0);
    });
    let poll = plan.heartbeat;
    let node = std::thread::spawn(move || run_shard(plan, node, 0, FenceFlag::new()));
    // The shard's messages, each a line on stdout, until it has ended and
    // said everything.
    loop {
        match coord.recv_timeout(poll) {
            Some(env) => emit(&env)?,
            None if node.is_finished() => break,
            None => {}
        }
    }
    std::iter::from_fn(|| coord.try_recv()).try_for_each(|env| emit(&env))
}

/// Start `plan`'s incarnation `epoch` as a child process of `bin` and
/// stand two pumps behind its pipes on `ep`, node `plan.shard`'s
/// endpoint in the coordinator's network.  The stdout pump ends at the
/// child's EOF, the stdin pump once `fence` fires.
pub(crate) fn spawn_child(
    bin: &Path,
    root: &Path,
    plan: &ShardPlan,
    ep: Endpoint,
    epoch: u64,
    fence: FenceFlag,
) -> Result<(Child, [JoinHandle<()>; 2])> {
    let mut cmd = Command::new(bin);
    cmd.arg("shard-run")
        .arg("--root")
        .arg(root)
        .arg("--shard")
        .arg(plan.shard.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match plan.kill {
        Some(KillPoint::Pass(pass)) => cmd.arg("--arm-kill").arg(pass.to_string()),
        Some(KillPoint::Merge) => cmd.arg("--arm-kill").arg("merge"),
        None => &mut cmd,
    };
    let mut child = cmd
        .spawn()
        .map_err(|e| DistError::Io(format!("spawn {}: {e}", bin.display())))?;
    let (Some(mut stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
        return Err(DistError::Io("child pipes not captured".into()));
    };
    let (tx, coord, poll) = (ep.sender(), plan.shards, plan.heartbeat);
    let from_child = std::thread::spawn(move || {
        if let Err(e) = pump(BufReader::new(stdout), |msg| tx.send(coord, epoch, msg)) {
            tx.send(coord, epoch, Msg::Fatal { msg: e.to_string() });
        }
    });
    let to_child = std::thread::spawn(move || {
        while !fence.is_fired() {
            let Some(env) = ep.recv_timeout(poll) else { continue };
            if env.epoch == epoch && stdin.write_all(env.encode().as_bytes()).is_err() {
                return;
            }
        }
    });
    Ok((child, [from_child, to_child]))
}
