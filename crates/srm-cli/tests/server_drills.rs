//! End-to-end drills of the `srm` binary itself, as subprocesses:
//!
//! * the graceful-interrupt contract of `srm sort` — interrupt at a
//!   pass boundary, exit 130 with the checkpoint journaled, resume on
//!   rerun and finish byte-identically;
//! * the crash-recovery contract of `srm serve` — `kill -9` mid-run,
//!   restart on the same job store, every unfinished job resumes and
//!   completes with the digest an uninterrupted sort would produce.

use srm_server::{expected_digest, JobSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_srm"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-drill-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn wait_for(mut done: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// Both engines run the one pass driver, so both checkpoint on an
/// interrupt and resume across processes.  DSM's record count leaves a
/// partial final stripe: the reopened disk files come back with ragged
/// allocators, which the resumed sort must realign rather than trip on.
#[test]
fn sort_interrupt_exits_130_and_rerun_resumes() {
    for (algo, records) in [("srm", "2000"), ("dsm", "2001")] {
        let root = scratch(&format!("interrupt-{algo}"));
        let manifest = root.join(algo).join("manifest");
        let run = |extra: &[&str]| {
            let mut cmd = bin();
            cmd.args([
                "sort", "--records", records, "--d", "2", "--b", "4", "--m", "96", "--algo", algo,
                "--backend", "file", "--keep",
            ]);
            cmd.arg("--dir").arg(&root);
            cmd.args(extra);
            cmd.output().expect("run srm sort")
        };

        // The hidden test hook trips the same flag a SIGINT would; the CLI
        // must exit 130 (= 128 + SIGINT) with the checkpoint journaled.
        let out = run(&["--interrupt-after-pass", "1"]);
        assert_eq!(
            out.status.code(),
            Some(130),
            "{algo} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("checkpoint journaled"),
            "{algo}: stderr should point at the resume path"
        );
        assert!(manifest.exists(), "{algo}: interrupt must leave a manifest behind");

        // Rerunning with the same flags resumes from the boundary and
        // finishes; the retired manifest is the proof the sort completed.
        let out = run(&[]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{algo} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(text.contains("resuming from"), "{algo} stdout: {text}");
        assert!(text.contains("sorted & verified"), "{algo} stdout: {text}");
        assert!(!manifest.exists(), "{algo}: completion must retire the manifest");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Spawn `srm serve` on `dir` and return the child plus the ephemeral
/// port parsed from its `listening on` line.  A drain thread keeps the
/// stdout pipe from filling up.
fn spawn_server(dir: &PathBuf, io_delay_us: &str) -> (Child, u16) {
    let mut child = bin()
        .args(["serve", "--workers", "2", "--io-delay-us", io_delay_us])
        .arg("--dir")
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn srm serve");
    let mut reader = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    let port = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read server stdout") == 0 {
            panic!("server exited before announcing its port");
        }
        if let Some(rest) = line.trim().strip_prefix("listening on 127.0.0.1:") {
            break rest.parse().expect("parse port");
        }
    };
    std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
    });
    (child, port)
}

/// One request over a fresh connection; returns every response line.
fn request(port: u16, line: &str) -> Vec<String> {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to server");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(format!("{line}\nQUIT\n").as_bytes())
        .expect("send request");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read response"))
        .collect()
}

/// Pull `key=` out of a response line of `key=value` fields.
fn field(line: &str, key: &str) -> Option<String> {
    line.split_whitespace()
        .find_map(|part| part.strip_prefix(&format!("{key}=")).map(str::to_string))
}

#[test]
fn server_killed_dash_nine_resumes_every_job_on_restart() {
    let root = scratch("kill9");
    let seeds: [u64; 3] = [11, 12, 13];
    let spec_for = |seed: u64| JobSpec {
        records: 1500,
        seed,
        d: 2,
        b: 4,
        m: 96,
        ..JobSpec::default()
    };

    // Phase 1: a deliberately slow server (per-I/O delay) so SIGKILL
    // lands while jobs are genuinely mid-sort.
    let (mut child, port) = spawn_server(&root, "500");
    for seed in seeds {
        let resp = request(port, &format!("SUBMIT records=1500 d=2 b=4 m=96 seed={seed}"));
        assert!(
            resp.first().is_some_and(|l| l.starts_with("OK id=")),
            "submit response: {resp:?}"
        );
    }
    wait_for(
        || {
            let stats = request(port, "STATS");
            stats.first().and_then(|l| field(l, "running")) == Some("2".into())
        },
        "two jobs running",
    );
    std::thread::sleep(Duration::from_millis(200));

    // SIGKILL: no drain, no checkpoint-on-exit — whatever the last pass
    // boundary journaled is all the restart gets.
    child.kill().expect("kill -9 the server");
    child.wait().expect("reap the server");

    // Phase 2: restart on the same job store at full speed.  The stale
    // lock names a dead pid, so the new server claims the store, re-runs
    // every unfinished job from its manifest (or from scratch if the
    // kill landed before the first snapshot), and finishes them all.
    let (mut child, port) = spawn_server(&root, "0");
    wait_for(
        || {
            let stats = request(port, "STATS");
            stats.first().and_then(|l| field(l, "done")) == Some("3".into())
        },
        "all three jobs done after restart",
    );

    // Byte-identity proxy: each job's digest equals the digest of the
    // sorted input computed independently in host memory.
    for (id, seed) in seeds.iter().enumerate() {
        let resp = request(port, &format!("STATUS {}", id + 1));
        let line = resp.first().expect("status line");
        assert_eq!(field(line, "state").as_deref(), Some("done"), "{line}");
        let want = expected_digest(&spec_for(*seed)).to_string();
        assert_eq!(field(line, "digest"), Some(want), "{line}");
    }

    // Drain through the one-shot client binary for coverage of
    // `srm client`, then the server must exit 0.
    let out = bin()
        .args(["client", "--port", &port.to_string(), "--send", "DRAIN"])
        .output()
        .expect("run srm client");
    assert_eq!(
        out.status.code(),
        Some(0),
        "client stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK draining"));
    let status = child.wait().expect("server exits after drain");
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&root);
}
