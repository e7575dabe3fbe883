//! The loopback TCP front end: accept connections, speak the line
//! protocol, and turn `DRAIN` (or [`JobServer::request_shutdown`] from
//! elsewhere, e.g. the CLI's SIGTERM bridge) into a graceful server
//! drain.  Nothing here polls: `accept` and `read` block until the drain
//! wakes them (DESIGN §11.4), and `WATCH` waits on the server's state.

use crate::drain::DrainReport;
use crate::protocol::{parse_request, status_fields, stats_fields, submit_error_line, Request};
use crate::server::{JobServer, JobState};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;

/// Serve the line protocol on `listener` until
/// [`JobServer::request_shutdown`] is called (by `DRAIN`, or externally
/// by a signal handler), then drain gracefully and report.  Every
/// running job reaches its next checkpoint boundary before this returns.
pub fn serve(server: Arc<JobServer>, listener: TcpListener) -> std::io::Result<DrainReport> {
    let waker = {
        let server = Arc::clone(&server);
        let addr = listener.local_addr()?;
        std::thread::spawn(move || {
            server.wait_draining();
            // Wakes the `accept` below; what it connects to is dropped.
            let _ = TcpStream::connect(addr);
        })
    };
    // Each connection's thread, and a handle on its socket to shut.
    let mut conns: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    let accepted = loop {
        let mut stream = match listener.accept() {
            Ok((stream, _addr)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        };
        if server.is_draining() {
            let _ = send_line(&mut stream, "BYE draining".into());
            break Ok(());
        }
        let Ok(kept) = stream.try_clone() else { continue };
        let server = Arc::clone(&server);
        conns.push((
            std::thread::spawn(move || {
                let _ = handle_conn(&server, &mut stream);
                // `kept` is another handle on this socket: close the
                // connection itself, not just this handle.
                let _ = stream.shutdown(Shutdown::Both);
            }),
            kept,
        ));
        conns.retain(|(h, _)| !h.is_finished());
    };
    // Stopped, or the listener failed: either way the server stops.
    server.request_shutdown();
    for (_, kept) in &conns {
        let _ = kept.shutdown(Shutdown::Read);
    }
    let report = server.shutdown();
    for (h, _) in conns {
        let _ = h.join();
    }
    let _ = waker.join();
    accepted.map(|()| report)
}

/// Read complete lines from the stream, dispatching each through the
/// protocol.  Returns when the peer closes, sends `QUIT`, or the server
/// stops (`serve` shuts the read half, so a blocked read returns).
fn handle_conn(server: &Arc<JobServer>, stream: &mut TcpStream) -> std::io::Result<()> {
    // Replies are single short lines a client waits on: send them now.
    stream.set_nodelay(true)?;
    let mut pending = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        // Drain any complete lines already buffered.
        while let Some(nl) = pending.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line).into_owned();
            if !dispatch(server, stream, line.trim())? {
                return Ok(());
            }
        }
        if server.is_draining() {
            // Jobs are checkpointing; tell the client and hang up.
            let _ = send_line(stream, "BYE draining".into());
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) if !server.is_draining() => return Ok(()),
            // 0 here is `serve` shutting the read half: the BYE goes out above.
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Send one reply line as a single write.  `writeln!` straight onto the
/// socket writes each format fragment separately, and a small write
/// behind an unacknowledged one waits for the peer's delayed ACK.
fn send_line(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Handle one request line; `Ok(false)` closes the connection.
#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
fn dispatch(
    server: &Arc<JobServer>,
    stream: &mut TcpStream,
    line: &str,
) -> std::io::Result<bool> {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(err_line) => {
            send_line(stream, err_line)?;
            return Ok(true);
        }
    };
    match request {
        Request::Ping => send_line(stream, "OK pong".into())?,
        Request::Quit => return Ok(false),
        Request::Submit(spec) => match server.submit(spec) {
            Ok(id) => {
                let cost = server
                    .status(id)
                    .map(|s| s.cost)
                    .unwrap_or_default();
                send_line(stream, format!("OK id={id} cost={cost}"))?;
            }
            Err(e) => send_line(stream, submit_error_line(&e))?,
        },
        Request::Status(id) => match server.status(id) {
            Some(s) => send_line(stream, format!("OK {}", status_fields(&s)))?,
            None => send_line(stream, format!("ERR code=not-found job {id}"))?,
        },
        Request::Watch(id) => {
            // One line per change of this job's state or passes; the
            // terminal line the moment it settles.
            let (mut seen, mut sent) = (0, None);
            loop {
                let Some((generation, s)) = server.watch(id, seen) else {
                    send_line(stream, format!("ERR code=not-found job {id}"))?;
                    break;
                };
                seen = generation;
                if s.state.is_terminal() || s.state == JobState::Suspended {
                    send_line(stream, format!("OK {}", status_fields(&s)))?;
                    break;
                }
                if sent != Some((s.state, s.passes)) {
                    sent = Some((s.state, s.passes));
                    send_line(stream, format!("EVENT {}", status_fields(&s)))?;
                }
                if server.is_draining() {
                    // The drain settles it, and the connection says BYE.
                    break;
                }
            }
        }
        Request::Cancel(id) => {
            if server.cancel(id) {
                send_line(stream, format!("OK cancelling id={id}"))?;
            } else {
                send_line(stream, format!("ERR code=not-found job {id} (or already settled)"))?;
            }
        }
        Request::List => {
            let jobs = server.list();
            let mut reply = String::new();
            for s in &jobs {
                reply.push_str(&format!("JOB {}\n", status_fields(s)));
            }
            send_line(stream, format!("{reply}OK count={}", jobs.len()))?;
        }
        Request::Stats => send_line(stream, format!("OK {}", stats_fields(&server.stats())))?,
        Request::Drain => {
            send_line(stream, "OK draining".into())?;
            server.request_shutdown();
        }
    }
    Ok(true)
}
