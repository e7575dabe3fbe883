//! `dist_p4`: `srm_dist::distsort` over four simulated nodes, each
//! with its own 3-disk cluster at 40 us/block, so the shards have real
//! waiting to overlap.  A traced run interleaves P = 1 with P = 4 and
//! sorts one shard's worth of records locally, which splits the P = 4
//! time into the shard's own sort and the coordinator around it.

use crate::metrics::{Outcome, Report};
use crate::span::{Rec, Tracer};
use crate::stats::{describe, median, midmean, peak_rss_mb, reset_peak_rss, KeepAwake};
use crate::RunOpts;
use pdisk::FileDiskArray;
use srm_core::sort::write_unsorted_input;
use srm_dist::{distsort, DistConfig, DistReport};
use srm_server::{expected_digest, JobSpec};
use std::path::Path;
use std::time::{Duration, Instant};

const SHARDS: u32 = 4;
const IO_DELAY: Duration = Duration::from_micros(40);

/// 120k records on d = 3, b = 16, m = 1024 clusters, as `distsort_bench`.
fn spec(seed: u64, quick: bool) -> JobSpec {
    JobSpec {
        records: if quick { 20_000 } else { 120_000 },
        seed: seed >> 16,
        d: 3,
        b: 16,
        m: 1024,
        ..JobSpec::default()
    }
}

/// What one distsort call measured.
struct DistRep {
    wall_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    report: DistReport,
    ok: bool,
}

/// One distsort run in a fresh root, which a reused one would poison:
/// stale shard state resumes and fails the oracle.
fn rep(spec: &JobSpec, shards: u32, root: &Path, tracer: Option<&Tracer>) -> Result<DistRep, String> {
    let started = Instant::now();
    let expect = expected_digest(spec);
    let _ = std::fs::remove_dir_all(root);
    let mut cfg = DistConfig::new(shards);
    cfg.io_delay = IO_DELAY;
    reset_peak_rss();
    if let Some(t) = tracer {
        t.open(&format!("srm_dist.distsort.p{shards}"));
    }
    let start = Instant::now();
    let result = distsort(spec, &cfg, root);
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.close_all();
    }
    let peak = peak_rss_mb().unwrap_or(0.0);
    let _ = std::fs::remove_dir_all(root);
    let report = result.map_err(|e| format!("distsort P={shards}: {e}"))?;
    let ok = report.oracle_ok && report.digest == expect && report.per_shard.iter().all(|s| s.trace_clean);
    Ok(DistRep { wall_s, setup_s: started.elapsed().as_secs_f64() - wall_s, peak_rss_mb: peak, report, ok })
}

/// A local SRM sort of one shard's share of the records, at the shard
/// geometry and delay: what P = 4 would take with a free coordinator.
fn shard_ideal_s(spec: &JobSpec, dir: &Path) -> Result<f64, String> {
    let share = JobSpec { records: spec.records / u64::from(SHARDS), ..spec.clone() };
    let data: Vec<Rec> = share.input_records();
    let mut walls = Vec::new();
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(dir);
        let mut array: FileDiskArray<Rec> =
            FileDiskArray::create(share.geometry().map_err(|e| e.to_string())?, dir).map_err(|e| e.to_string())?;
        let input = write_unsorted_input(&mut array, &data).map_err(|e| e.to_string())?;
        array.set_io_delay(IO_DELAY);
        let start = Instant::now();
        share.srm_sorter().sort(&mut array, &input).map_err(|e| e.to_string())?;
        walls.push(start.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(median(&walls))
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let spec = spec(opts.seed, opts.quick);
    let root = opts.scratch.join(format!("dist_p4-{}", std::process::id()));
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let min_reps = if opts.quick { 1 } else { 2 };
    // Untraced runs spend all their time at P = 4; a traced run
    // interleaves P = 1, so that drift in host load favours neither.
    let cycle: &[u32] = if opts.trace { &[1, SHARDS] } else { &[SHARDS] };
    let (mut one, mut many): (Vec<DistRep>, Vec<DistRep>) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let tracer = Tracer::new();
    let awake = KeepAwake::start();
    while many.len() < min_reps || Instant::now() < deadline {
        for &shards in cycle {
            attempted += 1;
            tracer.set_rep(attempted as u32);
            match rep(&spec, shards, &root, opts.trace.then_some(&tracer)) {
                Ok(r) => {
                    if !r.ok {
                        eprintln!("dist_p4: P={shards}: digest or shard trace failed the check");
                        failed += 1;
                    }
                    if shards == 1 { &mut one } else { &mut many }.push(r);
                }
                Err(e) => {
                    eprintln!("dist_p4: {e}");
                    failed += 1;
                    if failed > 2 {
                        return Err("distsort keeps failing".into());
                    }
                }
            }
        }
    }
    drop(awake);
    let walls: Vec<f64> = many.iter().map(|r| r.wall_s).collect();
    let tp = median(&walls);
    println!("dist_p4: {} records, {} reps at P={SHARDS}, {} at P=1", spec.records, many.len(), one.len());
    println!("  P={SHARDS} wall s   {}", describe(&walls));

    let mut report = Report::new(opts.trace);
    if !opts.trace {
        let setups: Vec<f64> = many.iter().map(|r| r.setup_s).collect();
        println!("  set-up s     {}", describe(&setups));
        report.set("records_per_s", spec.records as f64 / tp);
        report.set("op_latency_ms", midmean(&walls) * 1e3);
        report.set("setup_s", median(&setups));
        return Ok(Outcome { correct: failed == 0, attempted, failed, report });
    }

    let walls_one: Vec<f64> = one.iter().map(|r| r.wall_s).collect();
    if walls_one.is_empty() {
        return Err("no P=1 run finished".into());
    }
    let t1 = median(&walls_one);
    println!("  P=1 wall s   {}", describe(&walls_one));
    let ideal = shard_ideal_s(&spec, &root)?;
    let last = &many[many.len() - 1].report;
    let shard_records: Vec<f64> = last.per_shard.iter().map(|s| s.records as f64).collect();
    let mean = shard_records.iter().sum::<f64>() / shard_records.len() as f64;
    report.set("srm_dist.t1_s", t1);
    report.set("srm_dist.tp_s", tp);
    report.set("srm_dist.efficiency", t1 / (f64::from(SHARDS) * tp));
    report.set("srm_dist.shard_ideal_s", ideal);
    report.set("srm_dist.overhead_share", (tp - ideal) / tp);
    report.set("srm_dist.shard_skew", shard_records.iter().copied().fold(0.0, f64::max) / mean);
    report.set("srm_dist.net_sent_per_krec", last.net.sent as f64 / (spec.records as f64 / 1e3));
    report.set("srm_dist.recoveries", last.recoveries as f64);
    report.set("srm_dist.merge_stalls", last.merge_stalls as f64);
    report.set("modelcheck.trace_events", last.per_shard.iter().map(|s| s.trace_events as f64).sum());
    report.set("bench.reps", many.len() as f64);
    report.set("bench.peak_rss_mb", median(&many.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()));
    tracer.save("dist_p4", &opts.scratch);
    Ok(Outcome { correct: failed == 0, attempted, failed, report })
}
