//! End-to-end drills of `srm distsort` as a subprocess, including the
//! `--procs` path where shard nodes are real child processes and the
//! kill drill ends one with `exit` (no destructor, no flush), plus the
//! `srm client` connect-retry contract against a late-starting server.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_srm"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-distcli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Run `srm distsort` with the shared small workload plus `extra`
/// flags; returns captured output after asserting a zero exit.
fn distsort(name: &str, extra: &[&str]) -> String {
    let dir = scratch(name);
    let mut cmd = bin();
    cmd.args([
        "distsort", "--shards", "2", "--records", "4000", "--d", "2", "--b", "8", "--m", "256",
        "--seed", "42",
    ]);
    cmd.arg("--dir").arg(&dir);
    cmd.args(extra);
    let out = cmd.output().expect("run srm distsort");
    let gathered = dir.join("global").exists();
    let keys_files = (0..2).filter(|s| dir.join(format!("shard-{s:03}/keys")).exists()).count();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!gathered, "distsort {extra:?}: the shards' runs are the output; nothing gathers a copy");
    assert_eq!(keys_files, 0, "distsort {extra:?}: a shard derives its partition; none is written for it");
    assert!(
        out.status.success(),
        "distsort {extra:?} failed\nstdout: {}\nstderr: {}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout(&out)
}

/// Pull the `global digest 0x...` value out of the report text.
fn digest(report: &str) -> String {
    report
        .lines()
        .find_map(|l| l.trim().strip_prefix("global digest "))
        .and_then(|rest| rest.split(':').next())
        .unwrap_or_else(|| panic!("no digest line in report:\n{report}"))
        .to_string()
}

#[test]
fn distsort_thread_and_procs_modes_agree() {
    let threads = distsort("threads", &[]);
    assert!(threads.contains("matches the central oracle"), "{threads}");
    assert!(threads.contains("thread mode"), "{threads}");

    let procs = distsort("procs", &["--procs"]);
    assert!(procs.contains("matches the central oracle"), "{procs}");
    assert!(procs.contains("process mode"), "{procs}");

    assert_eq!(
        digest(&threads),
        digest(&procs),
        "both execution modes must produce the identical global output"
    );
}

/// Two records over six shards leave most shards an empty range: a
/// `--procs` child boots on a directory nobody made for it and journals
/// its empty output, and both modes agree.
#[test]
fn empty_shards_agree_in_both_modes() {
    let run = |name: &str, extra: &[&str]| {
        let dir = scratch(name);
        let out = bin()
            .args(["distsort", "--shards", "6", "--records", "2", "--d", "2", "--b", "8", "--m", "256"])
            .args(extra)
            .arg("--dir")
            .arg(&dir)
            .output()
            .expect("run srm distsort");
        let _ = std::fs::remove_dir_all(&dir);
        let report = stdout(&out);
        assert!(out.status.success(), "{extra:?}: {report}\n{}", String::from_utf8_lossy(&out.stderr));
        assert!(report.contains(" 0 records"), "{extra:?}: no empty shard\n{report}");
        digest(&report)
    };
    assert_eq!(run("empty-threads", &[]), run("empty-procs", &["--procs"]));
}

/// The headline drill: under `--procs --kill-node` a real child process
/// exits mid-sort, before its pass's snapshot; the coordinator hears its
/// heartbeats stop, and the respawned replacement resumes from its
/// checkpoint with output byte-identical to the clean run.
#[test]
fn procs_mode_sigkill_drill_is_byte_identical() {
    let clean = distsort("procs-clean", &["--procs"]);
    let killed = distsort("procs-kill", &["--procs", "--kill-node", "1@1"]);
    assert!(killed.contains("matches the central oracle"), "{killed}");
    assert!(
        killed.contains("recoveries: 1 total"),
        "the drill must cause exactly one recovery:\n{killed}"
    );
    assert_eq!(digest(&clean), digest(&killed));
}

/// The fold drill in process mode: child 1 exits when its fold request
/// arrives; the replacement boots on the finished directory, reads its
/// keys back and answers, and the digest is thread mode's.
#[test]
fn procs_mode_sigkill_on_the_fold_request_is_byte_identical() {
    let threads = distsort("fold-threads", &[]);
    let killed = distsort("fold-procs-kill", &["--procs", "--kill-node", "1@merge"]);
    assert!(killed.contains("matches the central oracle"), "{killed}");
    assert!(
        killed.contains("recoveries: 1 total, fold stalls: 1"),
        "the drill must stall the fold once and recover the victim:\n{killed}"
    );
    assert_eq!(digest(&threads), digest(&killed));
}

/// Run `srm distsort` on 2 shards with `args`, expecting a refusal
/// before any shard starts: exit 2, `want` on stderr, no shard
/// directory.
fn refused(name: &str, args: &[&str], want: &str) {
    let dir = scratch(name);
    let out = bin()
        .args(["distsort", "--shards", "2", "--records", "2000", "--d", "2", "--b", "8", "--m", "256"])
        .args(args)
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("run srm distsort");
    let shard_dirs = std::fs::read_dir(&dir).map(|d| d.filter(|e| e.is_ok()).count()).unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stdout {}\nstderr {err}", stdout(&out));
    assert!(err.contains("configuration error") && err.contains(want), "{args:?}: stderr {err}");
    assert!(!stdout(&out).contains("matches the central oracle"), "{args:?} ran");
    assert_eq!(shard_dirs, 0, "{args:?}: refused, yet it left shard directories");
}

#[test]
fn distsort_kill_requires_valid_shard() {
    refused("badkill", &["--kill-node", "9@0"], "out of range");
    refused("badkill-procs", &["--procs", "--kill-node", "7@1"], "--kill-node shard 7 out of range");
}

/// A timeout no longer than the heartbeat would declare every live
/// shard dead: refused in both modes before any shard starts.
#[test]
fn a_deaf_failure_detector_is_refused() {
    let deaf = ["--timeout-ms", "1", "--heartbeat-ms", "100000"];
    refused("deaf", &deaf, "--timeout-ms 1 must exceed --heartbeat-ms 100000");
    refused("deaf-procs", &[&["--procs"][..], &deaf].concat(), "--timeout-ms 1 must exceed --heartbeat-ms 100000");
}

/// Without `--dir` or `--keep`, the temp tree goes even when the sort
/// fails: here the coordinator is partitioned from every shard until the
/// crash-loop cap gives up — under `--procs` too, whose children sit
/// behind the same faulty channel.
#[test]
fn a_failed_run_leaves_no_temp_tree() {
    for mode in [&[][..], &["--procs"]] {
        let tmp = scratch(&format!("tmpdir{}", mode.len()));
        std::fs::create_dir_all(&tmp).expect("create TMPDIR");
        let out = bin()
            .args(["distsort", "--shards", "2", "--records", "2000", "--d", "2", "--b", "8", "--m", "256"])
            .args(["--partition", "2:0:1000000000", "--heartbeat-ms", "10", "--timeout-ms", "50"])
            .args(mode)
            .env("TMPDIR", &tmp)
            .output()
            .expect("run srm distsort");
        let left: Vec<_> = std::fs::read_dir(&tmp).expect("read TMPDIR").filter_map(|e| e.ok()).map(|e| e.path()).collect();
        let _ = std::fs::remove_dir_all(&tmp);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{mode:?}: {err}");
        assert!(err.contains("crash loop"), "{mode:?}: {err}");
        assert!(left.is_empty(), "{mode:?} left {left:?}");
    }
}

/// `--corrupt-disk D` with `D` >= the spec's `d` is refused up front in
/// both modes, not after the kill it rides on.
#[test]
fn an_out_of_range_corrupt_disk_is_refused_before_any_shard_starts() {
    let drill = ["--parity", "--kill-node", "0@1", "--corrupt-disk", "7"];
    refused("baddisk", &drill, "--corrupt-disk 7 out of range (D = 2)");
    refused("baddisk-procs", &[&["--procs"][..], &drill].concat(), "--corrupt-disk 7 out of range (D = 2)");
}

/// A `--procs` child is an endpoint of the same faulty channel as a
/// thread: CI's lossy fold drill matches the oracle and thread mode's
/// digest, and the channel did drop messages.
#[test]
fn procs_mode_runs_channel_faults() {
    let lossy = ["--net-seed", "7", "--net-drop", "0.03", "--net-dup", "0.03", "--net-delay", "0.05"];
    let drill = [&lossy[..], &["--kill-node", "1@merge"]].concat();
    let threads = distsort("lossy-threads", &drill);
    let procs = distsort("lossy-procs", &[&drill[..], &["--procs"]].concat());
    assert!(procs.contains("matches the central oracle"), "{procs}");
    assert_eq!(digest(&threads), digest(&procs));
    let dropped: u64 = procs
        .lines()
        .find_map(|l| l.trim().strip_prefix("net: "))
        .and_then(|l| l.split(", ").find_map(|f| f.strip_suffix(" dropped")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no net line:\n{procs}"));
    assert!(dropped > 0, "the lossy channel dropped nothing under --procs:\n{procs}");
}

/// The parity drill fires under `--procs` too: the parent trashes the
/// victim's disk after reaping it, and the replacement heals it.
#[test]
fn procs_mode_corrupt_disk_drill_repairs() {
    let threads = distsort("corrupt-threads", &[]);
    let drill = distsort("corrupt-procs", &["--procs", "--parity", "--kill-node", "0@1", "--corrupt-disk", "1"]);
    assert!(drill.contains("recoveries: 1 total"), "{drill}");
    let repaired: u64 = drill
        .lines()
        .find(|l| l.trim_start().starts_with("shard 0:"))
        .and_then(|l| l.split(", ").find_map(|f| f.strip_suffix(" repaired")))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no shard 0 line:\n{drill}"));
    assert!(repaired >= 1, "the replacement must heal the trashed disk:\n{drill}");
    assert_eq!(digest(&threads), digest(&drill));
}

/// Satellite drill: a client racing a still-booting server.  The
/// client is launched against a port nobody is listening on yet; the
/// server binds that port ~200 ms later.  With connect retries the
/// client must win anyway.
#[test]
fn client_retries_until_late_server_appears() {
    // Reserve a free port, then release it so the server can bind it.
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        listener.local_addr().expect("local addr").port()
    };

    let client = bin()
        .args([
            "client",
            "--port",
            &port.to_string(),
            "--send",
            "PING",
            "--connect-retries",
            "40",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn srm client");

    // Let the client eat a few connection-refused rounds first.
    std::thread::sleep(Duration::from_millis(200));

    let root = scratch("lateserver");
    std::fs::create_dir_all(&root).expect("create server dir");
    let mut server = bin()
        .args(["serve", "--workers", "1", "--port", &port.to_string()])
        .arg("--dir")
        .arg(&root)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn srm serve");
    let mut reader = BufReader::new(server.stdout.take().expect("server stdout"));
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read server stdout") == 0 {
            panic!("server exited before listening");
        }
        if line.contains("listening on") {
            break;
        }
    }
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });

    let out = client.wait_with_output().expect("client exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "client stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout(&out).contains("OK pong"),
        "client stdout: {}",
        stdout(&out)
    );

    server.kill().expect("stop server");
    server.wait().expect("reap server");
    let _ = std::fs::remove_dir_all(&root);
}

/// Without a server ever appearing, the retry loop must give up with a
/// typed complaint that names the attempt budget.
#[test]
fn client_gives_up_after_retry_budget() {
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        listener.local_addr().expect("local addr").port()
    };
    let out = bin()
        .args([
            "client",
            "--port",
            &port.to_string(),
            "--send",
            "PING",
            "--connect-retries",
            "2",
        ])
        .output()
        .expect("run srm client");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("2 attempts"), "stderr: {err}");
}
