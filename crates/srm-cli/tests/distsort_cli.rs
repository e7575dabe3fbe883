//! End-to-end drills of `srm distsort` as a subprocess, including the
//! `--procs` path where shard nodes are real child processes and the
//! kill drill is a genuine SIGKILL, plus the `srm client` connect-retry
//! contract against a late-starting server.

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
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!gathered, "distsort {extra:?}: the shards' runs are the output; nothing gathers a copy");
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

/// The headline drill: `--procs --kill-node` SIGKILLs a real child
/// process mid-sort; the respawned replacement resumes from its
/// checkpoint and the output is byte-identical to the clean run.
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

#[test]
fn distsort_kill_requires_valid_shard() {
    let dir = scratch("badkill");
    let out = bin()
        .args([
            "distsort", "--shards", "2", "--records", "100", "--kill-node", "9@0",
        ])
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("run srm distsort");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("out of range"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
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
