//! The line protocol: one request per line, one (or, for `WATCH` and
//! `LIST`, several) response lines back.
//!
//! Requests:
//!
//! ```text
//! SUBMIT key=value [key=value ...]   queue a job (JobSpec keys)
//! STATUS <id>                        one job's state
//! WATCH <id>                         stream state until it settles
//! CANCEL <id>                        cancel queued or running job
//! LIST                               every job, one line each
//! STATS                              server counters
//! DRAIN                              graceful drain-and-stop
//! PING                               liveness probe
//! QUIT                               close the connection
//! ```
//!
//! Responses are `OK ...` / `ERR code=<slug> <message>` lines;
//! `WATCH` and `LIST` prefix their streamed rows with `EVENT` / `JOB`
//! so clients can tell rows from the final status line.  Everything is
//! ASCII key=value — greppable in tests, typeable over `nc`.

use crate::job::{JobError, JobSpec};
use crate::server::{JobStatus, ServerStats, SubmitError};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
#[srmlint::protocol]
pub enum Request {
    /// Queue a job.
    Submit(JobSpec),
    /// One job's state.
    Status(u64),
    /// Stream a job's state until it settles.
    Watch(u64),
    /// Cancel a job.
    Cancel(u64),
    /// Every job.
    List,
    /// Server counters.
    Stats,
    /// Graceful drain-and-stop.
    Drain,
    /// Liveness probe.
    Ping,
    /// Close the connection.
    Quit,
}

/// Parse one request line.  Errors are ready-to-send `ERR` lines.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let id = |rest: &str, verb: &str| -> Result<u64, String> {
        rest.parse()
            .map_err(|_| format!("ERR code=bad-request {verb} needs a numeric job id"))
    };
    match verb.to_ascii_uppercase().as_str() {
        "SUBMIT" => {
            let pairs: Vec<(&str, &str)> = rest
                .split_whitespace()
                .map(|tok| {
                    tok.split_once('=')
                        .ok_or_else(|| format!("ERR code=bad-request not key=value: `{tok}`"))
                })
                .collect::<Result<_, _>>()?;
            let spec = JobSpec::from_pairs(pairs)
                .map_err(|e: JobError| format!("ERR code=bad-request {e}"))?;
            Ok(Request::Submit(spec))
        }
        "STATUS" => Ok(Request::Status(id(rest, "STATUS")?)),
        "WATCH" => Ok(Request::Watch(id(rest, "WATCH")?)),
        "CANCEL" => Ok(Request::Cancel(id(rest, "CANCEL")?)),
        "LIST" => Ok(Request::List),
        "STATS" => Ok(Request::Stats),
        "DRAIN" => Ok(Request::Drain),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        "" => Err("ERR code=bad-request empty line".into()),
        other => Err(format!("ERR code=bad-request unknown verb `{other}`")),
    }
}

/// The `ERR` line for a refused SUBMIT — the queue-full case is this
/// protocol's 429.
pub fn submit_error_line(e: &SubmitError) -> String {
    let code = match e {
        SubmitError::Draining => "draining",
        SubmitError::TooLarge { .. } => "too-large",
        SubmitError::QueueFull { .. } => "queue-full",
        SubmitError::Invalid(_) => "bad-request",
        SubmitError::NoSpace(_) => "no-space",
        SubmitError::Io(_) => "io",
    };
    format!("ERR code={code} {e}")
}

/// Render one job's status as response fields.
pub fn status_fields(s: &JobStatus) -> String {
    let engine = s.spec.engine.as_str();
    let mut line = format!(
        "id={} state={} engine={engine} records={} cost={} passes={}",
        s.id,
        s.state.as_str(),
        s.spec.records,
        s.cost,
        s.passes
    );
    if let Some(d) = s.digest {
        line.push_str(&format!(" digest={d}"));
    }
    if !s.detail.is_empty() {
        line.push_str(&format!(" detail=\"{}\"", s.detail));
    }
    line
}

/// Render the server counters as response fields.
pub fn stats_fields(s: &ServerStats) -> String {
    format!(
        "capacity={} admitted={} peak-admitted={} queued={} running={} done={} suspended={} cancelled={} failed={}",
        s.capacity,
        s.admitted,
        s.peak_admitted,
        s.queued,
        s.running,
        s.done,
        s.suspended,
        s.cancelled,
        s.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::EngineKind;

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("  status 7 ").unwrap(), Request::Status(7));
        assert_eq!(parse_request("WATCH 3").unwrap(), Request::Watch(3));
        assert_eq!(parse_request("CANCEL 9").unwrap(), Request::Cancel(9));
        assert_eq!(parse_request("LIST").unwrap(), Request::List);
        assert_eq!(parse_request("DRAIN").unwrap(), Request::Drain);
        match parse_request("SUBMIT engine=dsm records=500 seed=9").unwrap() {
            Request::Submit(spec) => {
                assert_eq!(spec.engine, EngineKind::Dsm);
                assert_eq!(spec.records, 500);
                assert_eq!(spec.seed, 9);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn bad_requests_become_err_lines() {
        for line in ["", "FLY", "STATUS many", "SUBMIT notkeyvalue", "SUBMIT x=1"] {
            let e = parse_request(line).unwrap_err();
            assert!(e.starts_with("ERR code=bad-request"), "{line} -> {e}");
        }
    }

    #[test]
    fn submit_errors_have_stable_codes() {
        let line = submit_error_line(&SubmitError::QueueFull { depth: 4 });
        assert!(line.starts_with("ERR code=queue-full"));
        let line = submit_error_line(&SubmitError::TooLarge {
            cost: 9,
            capacity: 5,
        });
        assert!(line.starts_with("ERR code=too-large"));
    }
}
