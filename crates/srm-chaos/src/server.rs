//! The server chaos target: a real `srm serve` subprocess driven over
//! its line protocol, with `kill -9` restarts and injected job-store
//! ENOSPC.
//!
//! Unlike the in-process targets, this one exercises the whole durable
//! path: jobs are persisted to a real directory, the process is killed
//! without warning (`SIGKILL`, no drain), a fresh process is started
//! on the same store, and the oracle demands every submitted job still
//! settle as `done` with the digest the spec predicts.  A scheduled
//! [`ChaosEvent::StoreFull`] starts the first incarnation with the
//! store's ENOSPC injection armed; the overflowing SUBMIT must be
//! refused with the typed `no-space` admission error (anything else —
//! a hang, a wedged queue slot, an untyped error — is a violation),
//! after which a restart without the injection plays the operator
//! freeing space.
//!
//! Requires [`crate::CampaignConfig::server_bin`] — the `srm` binary
//! to spawn.  The campaign and replay paths thread it through from
//! `std::env::current_exe()` in the CLI.

use crate::schedule::ChaosEvent;
use crate::{CampaignConfig, ChaosError, TrialOutcome, Violation};
use srm_server::expected_digest;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct ServerProc {
    child: Child,
    port: u16,
}

fn io(e: impl std::fmt::Display) -> ChaosError {
    ChaosError::Io(e.to_string())
}

fn spawn_server(
    bin: &Path,
    dir: &Path,
    nospace_after: Option<u64>,
) -> Result<ServerProc, ChaosError> {
    let mut cmd = Command::new(bin);
    cmd.arg("serve")
        .arg("--dir")
        .arg(dir)
        .args(["--port", "0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .stdin(Stdio::null());
    if let Some(n) = nospace_after {
        cmd.args(["--store-nospace-after", &n.to_string()]);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| ChaosError::Io(format!("spawn {} serve: {e}", bin.display())))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = BufReader::new(stdout).lines();
    // The server prints "listening on 127.0.0.1:<port>" once bound.
    let port = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let port = addr
                        .rsplit(':')
                        .next()
                        .and_then(|p| p.parse::<u16>().ok())
                        .ok_or_else(|| {
                            ChaosError::Io(format!("unparseable listen line: {line}"))
                        })?;
                    break port;
                }
            }
            Some(Err(e)) => return Err(io(format!("read server stdout: {e}"))),
            None => {
                let status = child.wait().map_err(io)?;
                return Err(ChaosError::Io(format!(
                    "server exited before listening ({status})"
                )));
            }
        }
    };
    // Drain the rest of stdout in the background so the server never
    // blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Ok(ServerProc { child, port })
}

/// One request line, one (or more, for WATCH) response lines; returns
/// the final `OK`/`ERR` line.
fn request(port: u16, line: &str) -> Result<String, ChaosError> {
    let mut last = None;
    // The server may still be binding after a restart; retry refused
    // connections briefly (mirrors the CLI client's reconnect loop).
    for attempt in 0..50u32 {
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(mut stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .map_err(io)?;
                writeln!(stream, "{line}").map_err(io)?;
                stream.flush().map_err(io)?;
                let reader = BufReader::new(stream);
                let mut final_line = String::new();
                for resp in reader.lines() {
                    let resp = resp.map_err(io)?;
                    if resp.starts_with("OK") || resp.starts_with("ERR") || resp.starts_with("BYE")
                    {
                        final_line = resp;
                        break;
                    }
                    // EVENT/JOB rows stream past until the final line.
                }
                if final_line.is_empty() {
                    return Err(ChaosError::Io(format!(
                        "connection closed before a final response to `{line}`"
                    )));
                }
                return Ok(final_line);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20 + 10 * u64::from(attempt)));
            }
        }
    }
    Err(ChaosError::Io(format!(
        "cannot reach server on port {port}: {}",
        last.map_or_else(|| "no error recorded".into(), |e| e.to_string())
    )))
}

fn kill9(proc: &mut ServerProc) -> Result<(), ChaosError> {
    proc.child.kill().map_err(io)?; // SIGKILL on unix
    proc.child.wait().map_err(io)?;
    Ok(())
}

/// Run one server trial in the fresh directory `dir`.  See the module
/// docs for the drill's shape.
pub(crate) fn run_trial(
    cfg: &CampaignConfig,
    events: &[ChaosEvent],
    dir: &Path,
) -> Result<TrialOutcome, ChaosError> {
    let bin: &PathBuf = cfg.server_bin.as_ref().ok_or_else(|| {
        ChaosError::Config("server target needs CampaignConfig::server_bin (the srm binary)".into())
    })?;
    let store = dir.join("store");

    let nospace_after = events.iter().find_map(|e| match e {
        ChaosEvent::StoreFull { after_writes } => Some(*after_writes),
        _ => None,
    });
    let kills: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            ChaosEvent::KillServer { after_submit } => Some(*after_submit),
            _ => None,
        })
        .collect();

    let mut outcome = TrialOutcome {
        attempts: 1,
        ..TrialOutcome::default()
    };
    let result = run_drill(
        cfg,
        bin,
        &store,
        nospace_after,
        &kills,
        &mut outcome,
    );
    match result {
        Ok(violation) => outcome.violation = violation,
        Err(e) => return Err(e),
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(outcome)
}

fn run_drill(
    cfg: &CampaignConfig,
    bin: &Path,
    store: &Path,
    nospace_after: Option<u64>,
    kills: &[u32],
    outcome: &mut TrialOutcome,
) -> Result<Option<Violation>, ChaosError> {
    let spec = cfg.job_spec();
    let submit_line = format!(
        "SUBMIT records={} seed={} d={} b={} m={}",
        spec.records, spec.seed, spec.d, spec.b, spec.m
    );
    let want = expected_digest(&spec);

    let mut server = spawn_server(bin, store, nospace_after)?;
    let mut nospace_refusals = 0u32;
    let mut ids: Vec<u64> = Vec::new();
    let mut accepted = 0u32;

    while (ids.len() as u32) < cfg.server_jobs {
        let resp = request(server.port, &submit_line)?;
        if let Some(rest) = resp.strip_prefix("OK id=") {
            let id: u64 = rest
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ChaosError::Io(format!("unparseable submit reply: {resp}")))?;
            ids.push(id);
            accepted += 1;
            if kills.contains(&accepted) {
                kill9(&mut server)?;
                // Restart on the same store; the injection does not
                // survive the restart (the "disk" has been swapped).
                server = spawn_server(bin, store, None)?;
                outcome.attempts += 1;
                outcome.resumed += 1;
            }
        } else if resp.starts_with("ERR code=no-space") {
            if nospace_after.is_none() {
                return Ok(Some(Violation::UnexpectedError(format!(
                    "no-space refusal without a store-full event: {resp}"
                ))));
            }
            nospace_refusals += 1;
            if nospace_refusals > cfg.server_jobs + 2 {
                return Ok(Some(Violation::Wedged {
                    attempts: nospace_refusals,
                }));
            }
            // The operator frees space: restart without the injection
            // and resubmit the refused job.
            kill9(&mut server)?;
            server = spawn_server(bin, store, None)?;
            outcome.attempts += 1;
            outcome.resumed += 1;
        } else {
            return Ok(Some(Violation::UnexpectedError(format!(
                "submit refused: {resp}"
            ))));
        }
    }
    if nospace_after.is_some() && nospace_refusals == 0 {
        // The injection was armed but never tripped: the threshold sits
        // beyond this trial's writes.  Not a violation — the event was
        // a no-op, exactly like an out-of-range ordinal.
    }

    // Every job must settle as done with the spec's digest; WATCH
    // streams until it settles.
    let mut violation = None;
    for id in &ids {
        // WATCH settles on Suspended as well (that is its drain
        // contract); after a kill-9 restart a job can be observed
        // suspended for a moment before a worker re-adopts it, so
        // re-watch until it reaches a terminal state.
        let mut resp = request(server.port, &format!("WATCH {id}"))?;
        for _ in 0..100 {
            if !resp.contains("state=suspended") {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
            resp = request(server.port, &format!("WATCH {id}"))?;
        }
        if resp.starts_with("BYE") {
            violation = Some(Violation::UnexpectedError(format!(
                "server began draining uninstructed: {resp}"
            )));
            break;
        }
        if !resp.contains("state=done") {
            violation = Some(Violation::Wedged {
                attempts: outcome.attempts,
            });
            break;
        }
        let got = resp
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("digest="))
            .and_then(|d| d.parse::<u64>().ok());
        if got != Some(want) {
            violation = Some(Violation::DigestMismatch {
                got: got.unwrap_or(0),
                want,
            });
            break;
        }
    }

    let _ = request(server.port, "DRAIN");
    let status = server.child.wait().map_err(io)?;
    if violation.is_none() && !status.success() {
        violation = Some(Violation::UnexpectedError(format!(
            "server exited uncleanly after drain: {status}"
        )));
    }
    Ok(violation)
}
