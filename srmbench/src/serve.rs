//! `serve_mix`: an in-process `JobServer` behind `srm_server::serve`
//! on loopback, driven by a closed-loop client that `SUBMIT`s a job,
//! `WATCH`es it to its terminal line, and only then takes the next one.
//!
//! The client works through the seeded job order for a fixed window.
//! The job running when the window closes finishes and is checked, and
//! counts toward throughput by the share of its time that fell inside
//! the window.

use crate::metrics::{Outcome, Report};
use crate::span::{Rec, Tracer};
use crate::stats::{describe, median, midmean, peak_rss_mb, percentile, reset_peak_rss, KeepAwake};
use crate::workloads::{job_order, job_seeds, JobClass};
use crate::RunOpts;
use dsm::write_unsorted_stripes;
use pdisk::FileDiskArray;
use srm_core::sort::write_unsorted_input;
use srm_server::{expected_digest, serve, EngineKind, JobServer, JobSpec, ServerConfig, ServerStats};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads, as `ServerConfig::new` sets them.  The one
/// closed-loop client keeps one busy: on the sandbox's 2 cores a second
/// concurrent job (a caller thread plus four disk threads each) made
/// runs of the same seed differ by 6 to 8 %.
const WORKERS: usize = 2;
/// Longest wait for one reply line; a job takes about a second.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Server bring-up and drain cycles timed for `setup_s`, the measured
/// session's own included.
const SETUP_CYCLES: usize = 5;
/// Distinct job inputs per class; every one has its oracle digest
/// computed during set-up.
const SMALL_SEEDS: usize = 8;
const LARGE_SEEDS: usize = 4;

fn records_of(class: JobClass, quick: bool) -> u64 {
    match (class.is_small(), quick) {
        (true, false) => 300_000,
        (false, false) => 1_200_000,
        (true, true) => 20_000,
        (false, true) => 80_000,
    }
}

/// d = 4, b = 128, m = 12 352, pipelined, read-ahead 3.
fn spec_of(class: JobClass, seed: u64, quick: bool) -> JobSpec {
    JobSpec {
        engine: if class == JobClass::LargeDsm { EngineKind::Dsm } else { EngineKind::Srm },
        records: records_of(class, quick),
        seed,
        d: 4,
        b: 128,
        m: 12_352,
        pipeline: true,
        read_ahead: 3,
        ..JobSpec::default()
    }
}

/// A serving server: the job store, the worker pool, the accept loop.
struct Session {
    dir: PathBuf,
    server: Arc<JobServer>,
    addr: SocketAddr,
    accept: std::thread::JoinHandle<std::io::Result<srm_server::DrainReport>>,
}

impl Session {
    /// Bring a server up in a fresh `dir` and wait until it answers.
    fn up(dir: &Path) -> Result<Session, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut cfg = ServerConfig::new(dir);
        cfg.workers = WORKERS;
        cfg.capacity = 4 * 12_352;
        let server = Arc::new(JobServer::open(cfg).map_err(|e| format!("open server: {e}"))?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || serve(server, listener))
        };
        let session = Session { dir: dir.to_path_buf(), server, addr, accept };
        let mut probe = Client::connect(addr)?;
        let pong = probe.request("PING")?;
        if pong != "OK pong" {
            return Err(format!("PING answered `{pong}`"));
        }
        Ok(session)
    }

    /// `DRAIN`, wait for the accept loop and every worker to end, and
    /// remove the job store.
    fn down(self) -> Result<ServerStats, String> {
        Client::connect(self.addr)?.request("DRAIN")?;
        self.accept.join().map_err(|_| "the accept loop panicked".to_string())?.map_err(|e| format!("serve: {e}"))?;
        let stats = self.server.stats();
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(stats)
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.line()
    }
}

/// One job as its client saw it; times are seconds since the window opened.
#[derive(Debug, Clone)]
struct JobSample {
    class: JobClass,
    records: u64,
    submitted_s: f64,
    done_s: f64,
    submit_rtt_s: f64,
    /// `None` when the job ran and its digest matched the oracle.
    error: Option<String>,
}

impl JobSample {
    fn latency_ms(&self) -> f64 {
        (self.done_s - self.submitted_s) * 1e3
    }

    /// Share of the job's time that fell inside a window of `window_s`.
    fn share_inside(&self, window_s: f64) -> f64 {
        let inside = self.done_s.min(window_s) - self.submitted_s;
        (inside / (self.done_s - self.submitted_s)).clamp(0.0, 1.0)
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// `SUBMIT` then `WATCH` one job; the sample's `error` says what went
/// wrong, refusals included.
fn run_job(
    client: &mut Client,
    class: JobClass,
    spec: &JobSpec,
    expect: u64,
    opened: Instant,
    tracer: Option<&Tracer>,
) -> JobSample {
    let pairs: Vec<String> = spec.to_pairs().iter().map(|(k, v)| format!("{k}={v}")).collect();
    let submitted_s = opened.elapsed().as_secs_f64();
    let mut sample =
        JobSample { class, records: spec.records, submitted_s, done_s: submitted_s, submit_rtt_s: 0.0, error: None };
    if let Some(t) = tracer {
        t.open(if class.is_small() { "job.small" } else { "job.large" });
        t.open("srm_server.submit");
    }
    let outcome = (|| -> Result<(), String> {
        let reply = client.request(&format!("SUBMIT {}", pairs.join(" ")))?;
        sample.submit_rtt_s = opened.elapsed().as_secs_f64() - submitted_s;
        if let Some(t) = tracer {
            t.next_sibling("srm_server.watch");
        }
        let id =
            field(&reply, "id").filter(|_| reply.starts_with("OK ")).ok_or(format!("refused: {reply}"))?.to_string();
        client.send(&format!("WATCH {id}"))?;
        loop {
            let line = client.line()?;
            if line.starts_with("EVENT ") {
                continue;
            }
            if field(&line, "state") != Some("done") {
                return Err(format!("job {id} ended as `{line}`"));
            }
            let digest: Option<u64> = field(&line, "digest").and_then(|d| d.parse().ok());
            return if digest == Some(expect) {
                Ok(())
            } else {
                Err(format!("job {id}: digest {digest:?}, oracle {expect}"))
            };
        }
    })();
    sample.done_s = opened.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.close_all();
    }
    sample.error = outcome.err();
    sample
}

/// The job specs run straight through the sorters on a file array,
/// with no server around them: median seconds of the sort call.
fn direct_sort_s(spec: &JobSpec, dir: &Path, reps: usize) -> Result<f64, String> {
    let geom = spec.geometry().map_err(|e| e.to_string())?;
    let data: Vec<Rec> = spec.input_records();
    let mut walls = Vec::new();
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(dir);
        let mut array: FileDiskArray<Rec> = FileDiskArray::create(geom, dir).map_err(|e| e.to_string())?;
        let wall = match spec.engine {
            EngineKind::Srm => {
                let input = write_unsorted_input(&mut array, &data).map_err(|e| e.to_string())?;
                let start = Instant::now();
                spec.srm_sorter().sort(&mut array, &input).map_err(|e| e.to_string())?;
                start.elapsed()
            }
            EngineKind::Dsm => {
                let input = write_unsorted_stripes(&mut array, &data).map_err(|e| e.to_string())?;
                let start = Instant::now();
                spec.dsm_sorter().sort(&mut array, &input).map_err(|e| e.to_string())?;
                start.elapsed()
            }
        };
        walls.push(wall.as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(median(&walls))
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let base = opts.scratch.join(format!("serve_mix-{}", std::process::id()));
    let order = job_order(opts.seed);
    let small_seeds = job_seeds(opts.seed, 1, SMALL_SEEDS);
    let large_seeds = job_seeds(opts.seed, 2, LARGE_SEEDS);
    let spec_for = |i: usize| -> JobSpec {
        let class = order[i % order.len()];
        let pool = if class.is_small() { &small_seeds } else { &large_seeds };
        spec_of(class, pool[i % pool.len()], opts.quick)
    };

    // Set-up: the oracle digest of every distinct input, then server
    // bring-up and drain cycles; the last server brought up stays.
    let oracle_started = Instant::now();
    let mut oracle: HashMap<(u64, u64), u64> = HashMap::new();
    for (class, seeds) in [(JobClass::Small, &small_seeds), (JobClass::LargeSrm, &large_seeds)] {
        for &seed in seeds {
            let spec = spec_of(class, seed, opts.quick);
            oracle.insert((spec.records, seed), expected_digest(&spec));
        }
    }
    let oracle_s = oracle_started.elapsed().as_secs_f64();
    let mut cycles = Vec::new();
    for i in 1..SETUP_CYCLES {
        let started = Instant::now();
        Session::up(&base.join(format!("cycle-{i}")))?.down()?;
        cycles.push(started.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let session = Session::up(&base.join("jobs"))?;
    let up_s = started.elapsed().as_secs_f64();

    // The measured window.
    let window_s = if opts.quick { 0.0 } else { opts.seconds };
    let both_classes = |samples: &[JobSample]| {
        samples.iter().any(|s| s.class.is_small()) && samples.iter().any(|s| !s.class.is_small())
    };
    reset_peak_rss();
    let awake = KeepAwake::start();
    let opened = Instant::now();
    let mut client = Client::connect(session.addr)?;
    let tracer = Tracer::new();
    let mut samples: Vec<JobSample> = Vec::new();
    while !both_classes(&samples) || opened.elapsed().as_secs_f64() < window_s {
        let i = samples.len();
        let spec = spec_for(i);
        let expect = oracle[&(spec.records, spec.seed)];
        tracer.set_rep(i as u32);
        samples.push(run_job(
            &mut client,
            order[i % order.len()],
            &spec,
            expect,
            opened,
            opts.trace.then_some(&tracer),
        ));
    }
    drop(client);
    drop(awake);
    let elapsed_s = opened.elapsed().as_secs_f64();
    let peak = peak_rss_mb().unwrap_or(0.0);
    let started = Instant::now();
    let stats = session.down()?;
    cycles.push(up_s + started.elapsed().as_secs_f64());
    let _ = std::fs::remove_dir_all(&base);

    let failed = samples.iter().filter(|s| s.error.is_some()).count() as u64;
    for s in samples.iter().filter_map(|s| s.error.as_ref()) {
        eprintln!("serve_mix: {s}");
    }
    let refused = samples.iter().filter(|s| s.error.as_ref().is_some_and(|e| e.starts_with("refused"))).count();
    let correct = failed == 0 && stats.failed == 0;

    // A window of zero (quick mode) degenerates to the whole session.
    let window = if window_s > 0.0 { window_s } else { elapsed_s };
    let records: f64 = samples.iter().map(|s| s.records as f64 * s.share_inside(window)).sum();
    let jobs: f64 = samples.iter().map(|s| s.share_inside(window)).sum();
    let lat = |pick: fn(&JobSample) -> bool| -> Vec<f64> {
        samples.iter().filter(|s| pick(s)).map(JobSample::latency_ms).collect()
    };
    let all = lat(|_| true);
    let small = lat(|s| s.class.is_small());
    let large = lat(|s| !s.class.is_small());
    println!(
        "serve_mix: {} jobs in a {window:.1} s window ({elapsed_s:.1} s to the last one), 1 closed-loop client",
        samples.len()
    );
    println!("  latency ms, all    {}", describe(&all));
    println!("  latency ms, small  {}", describe(&small));
    println!("  latency ms, large  {}", describe(&large));
    println!("  set-up s           {} (+ {oracle_s:.3} s of oracle digests, once)", describe(&cycles));

    let mut report = Report::new(opts.trace);
    if !opts.trace {
        report.set("records_per_s", records / window);
        report.set("op_latency_ms", midmean(&all));
        report.set("setup_s", oracle_s + median(&cycles));
        return Ok(Outcome { correct, attempted: samples.len() as u64, failed, report });
    }

    let small_p50 = median(&small);
    report.set("srm_server.jobs_per_s", jobs / window);
    report.set("srm_server.small_p50_ms", small_p50);
    report.set("srm_server.small_p90_ms", percentile(&small, 0.9));
    report.set("srm_server.large_p50_ms", median(&large));
    report
        .set("srm_server.submit_rtt_ms_p50", median(&samples.iter().map(|s| s.submit_rtt_s * 1e3).collect::<Vec<_>>()));
    report.set("srm_server.peak_admitted", stats.peak_admitted as f64);
    report.set("srm_server.refused", refused as f64);
    report.set("srm_server.failed", stats.failed as f64);
    report.set("bench.reps", samples.len() as f64);
    report.set("bench.peak_rss_mb", peak);
    let direct_dir = base.join("direct");
    let direct_small = direct_sort_s(&spec_of(JobClass::Small, small_seeds[0], opts.quick), &direct_dir, 5)?;
    let direct_large = direct_sort_s(&spec_of(JobClass::LargeSrm, large_seeds[0], opts.quick), &direct_dir, 3)?;
    let direct_dsm = direct_sort_s(&spec_of(JobClass::LargeDsm, large_seeds[0], opts.quick), &direct_dir, 3)?;
    let _ = std::fs::remove_dir_all(&base);
    report.set("srm_server.direct_small_s", direct_small);
    report.set("srm_server.direct_large_s", direct_large);
    report.set("dsm.sort.direct_s", direct_dsm);
    report.set("srm_server.overhead_ms_small_p50", small_p50 - direct_small * 1e3);
    tracer.save("serve_mix", &opts.scratch);
    Ok(Outcome { correct, attempted: samples.len() as u64, failed, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straddling_jobs_count_by_their_share_of_the_window() {
        let job = |submitted_s: f64, done_s: f64| JobSample {
            class: JobClass::Small,
            records: 100,
            submitted_s,
            done_s,
            submit_rtt_s: 0.0,
            error: None,
        };
        assert_eq!(job(1.0, 2.0).share_inside(10.0), 1.0);
        assert_eq!(job(9.0, 11.0).share_inside(10.0), 0.5);
        assert_eq!(job(10.5, 11.0).share_inside(10.0), 0.0);
        assert_eq!(job(1.0, 2.0).latency_ms(), 1000.0);
    }

    #[test]
    fn status_fields_parse() {
        let line = "OK id=7 state=done engine=srm records=300 cost=9 passes=2 digest=12345";
        assert_eq!(field(line, "id"), Some("7"));
        assert_eq!(field(line, "state"), Some("done"));
        assert_eq!(field(line, "digest"), Some("12345"));
        assert_eq!(field(line, "detail"), None);
    }
}
