//! The loopback TCP front end: accept connections, speak the line
//! protocol, and turn `DRAIN` (or an external [`ShutdownFlag`] trigger,
//! e.g. from a SIGTERM handler) into a graceful server drain.
//!
//! Everything here polls — the accept loop runs the listener
//! non-blocking and connection reads use short timeouts — so a shutdown
//! request is observed within tens of milliseconds without any
//! condition-variable machinery.

use crate::drain::DrainReport;
use crate::protocol::{parse_request, status_fields, stats_fields, submit_error_line, Request};
use crate::server::JobServer;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Accept-loop poll interval.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Per-connection read timeout (how fast a connection notices drain).
const READ_POLL: Duration = Duration::from_millis(50);
/// WATCH streaming interval.
const WATCH_POLL: Duration = Duration::from_millis(20);

/// Serve the line protocol on `listener` until the server's shutdown
/// flag is triggered (by `DRAIN`, or externally by a signal handler),
/// then drain gracefully and report.  Every running job reaches its
/// next checkpoint boundary before this returns.
pub fn serve(server: Arc<JobServer>, listener: TcpListener) -> std::io::Result<DrainReport> {
    listener.set_nonblocking(true)?;
    let shutdown = server.shutdown_flag();
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutdown.is_set() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let server = Arc::clone(&server);
                conns.push(std::thread::spawn(move || {
                    let _ = handle_conn(&server, stream);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) => return Err(e),
        }
        conns.retain(|h| !h.is_finished());
    }
    // The flag is set: drain jobs first (connections keep answering
    // STATUS/WATCH while jobs checkpoint), then close connections.
    let report = server.shutdown();
    for h in conns {
        let _ = h.join();
    }
    Ok(report)
}

/// Read complete lines from a non-blocking-ish stream, dispatching each
/// through the protocol.  Returns when the peer closes, sends `QUIT`,
/// or the server shuts down.
// Observes the shutdown flag only to stop *accepting work* — jobs
// checkpoint via the drain path, not here, so the interrupt rule does
// not apply to this poll loop (`Interrupted` below is io::ErrorKind).
fn handle_conn(server: &Arc<JobServer>, mut stream: TcpStream) -> std::io::Result<()> { // srmlint::allow(interrupt)
    stream.set_read_timeout(Some(READ_POLL))?;
    // Replies are single short lines a client waits on: send them now.
    stream.set_nodelay(true)?;
    let shutdown = server.shutdown_flag();
    let mut pending = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        // Drain any complete lines already buffered.
        while let Some(nl) = pending.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line).into_owned();
            if !dispatch(server, &mut stream, line.trim())? {
                return Ok(());
            }
        }
        if shutdown.is_set() {
            // Jobs are checkpointing; tell the client and hang up.
            let _ = send_line(&mut stream, "BYE draining".into());
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
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
            let shutdown = server.shutdown_flag();
            loop {
                let Some(s) = server.status(id) else {
                    send_line(stream, format!("ERR code=not-found job {id}"))?;
                    break;
                };
                let settled = s.state.is_terminal() || s.state == crate::server::JobState::Suspended;
                if settled {
                    send_line(stream, format!("OK {}", status_fields(&s)))?;
                    break;
                }
                send_line(stream, format!("EVENT {}", status_fields(&s)))?;
                if shutdown.is_set() {
                    // The drain will settle it; one final status follows
                    // on the next WATCH. Don't hold the connection.
                    send_line(stream, "BYE draining".into())?;
                    break;
                }
                std::thread::sleep(WATCH_POLL);
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
            server.shutdown_flag().trigger();
        }
    }
    Ok(true)
}
