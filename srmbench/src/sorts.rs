//! The four `sort_*` workloads: one SRM sort per rep on a file array,
//! bare or behind the production wrapper stack.
//!
//! A rep sets up (generate the keys, sort them on the host for the
//! oracle digest, stage them on a fresh array), times the sort call and
//! nothing else, then reads the output back and checks its digest.
//! Reps repeat until the run's time is spent; timings are medians.

use crate::kernels;
use crate::metrics::{Outcome, Report};
use crate::span::{Layering, NoSpans, Rec, Tracer, WithSpans};
use crate::stats::{describe, median, midmean, peak_rss_mb, reset_peak_rss};
use crate::workloads::{digest, mix64, sorted_digest, uniform, zipf_dup};
use crate::RunOpts;
use pdisk::{
    DiskArray, FaultModel, FaultyDiskArray, FileDiskArray, Geometry, IoStats, MemDiskArray, ParityDiskArray, PoolStats,
    PrefetchStats, RetryPolicy, RetryingDiskArray, TracingDiskArray,
};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, SortReport, SrmConfig, SrmSorter};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    Uniform,
    Zipf,
}

impl Keys {
    pub fn generate(self, n: u64, seed: u64) -> Vec<Rec> {
        match self {
            Keys::Uniform => uniform(n, seed),
            Keys::Zipf => zipf_dup(n, seed),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct SortCase {
    pub name: &'static str,
    pub keys: Keys,
    pub records: u64,
    pub quick_records: u64,
    /// Modelled device service time per block.
    pub delay: Duration,
    /// Run over `Retrying(Parity(Faulty(File)))` instead of the bare array.
    pub stacked: bool,
}

/// Transient fault rate per disk per operation under `sort_stacked`.
const FAULT_RATE: f64 = 0.001;
/// Forecast read-ahead depth, as `srm sort --pipeline --read-ahead 3`.
const READ_AHEAD: usize = 3;

pub const CASES: [SortCase; 4] = [
    SortCase {
        name: "sort_cpu",
        keys: Keys::Uniform,
        records: 2_000_000,
        quick_records: 150_000,
        delay: Duration::ZERO,
        stacked: false,
    },
    SortCase {
        name: "sort_skew",
        keys: Keys::Zipf,
        records: 2_000_000,
        quick_records: 150_000,
        delay: Duration::ZERO,
        stacked: false,
    },
    SortCase {
        name: "sort_io",
        keys: Keys::Uniform,
        records: 1_000_000,
        quick_records: 60_000,
        delay: Duration::from_micros(200),
        stacked: false,
    },
    SortCase {
        name: "sort_stacked",
        keys: Keys::Uniform,
        records: 500_000,
        quick_records: 40_000,
        delay: Duration::from_micros(200),
        stacked: true,
    },
];

/// k = 4, D = 4, B = 512: 4 KiB blocks, M = 24 640 records, R = 15.
pub fn geometry() -> Geometry {
    Geometry::for_table(4, 4, 512).expect("the table geometry is valid")
}

/// The sorter `srm sort` builds by default, pipelined.
pub fn sorter() -> SrmSorter {
    SrmSorter::new(SrmConfig::default()).with_pipeline(true).with_read_ahead(READ_AHEAD)
}

type File = FileDiskArray<Rec>;
type Out<L, A> = <L as Layering>::Out<A>;
/// The production stack of `srm-cli`, with `L` deciding what sits
/// between the layers.
type Protected<L> =
    Out<L, RetryingDiskArray<Rec, Out<L, ParityDiskArray<Rec, Out<L, FaultyDiskArray<Rec, Out<L, File>>>>>>>;

/// Assemble `Retrying(Parity(Faulty(File)))` with the `parity.store`
/// sidecar, as `srm-cli`'s `build_parity_stack` does.
pub fn build_protected<L: Layering>(l: &L, file: File, dir: &Path, fault_seed: u64) -> pdisk::Result<Protected<L>> {
    let model = FaultModel::random(fault_seed).with_rate(FAULT_RATE);
    let faulty = FaultyDiskArray::new(l.wrap("file", file), model);
    let parity = ParityDiskArray::new(l.wrap("faulty", faulty))?.with_store(dir.join("parity.store"))?;
    Ok(l.wrap("retry", RetryingDiskArray::new(l.wrap("parity", parity), RetryPolicy::default())))
}

fn unwrap_protected<L: Layering>(stack: Protected<L>) -> File {
    let parity = L::unwrap(L::unwrap(stack).into_inner());
    let faulty = L::unwrap(parity.into_inner());
    L::unwrap(faulty.into_inner())
}

/// What one rep measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The sort call, and nothing else.
    pub wall_s: f64,
    pub formation_s: f64,
    /// The rest of the rep: generate, oracle, stage, build the stack,
    /// read back, verify, tear down.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub io: IoStats,
    pub report: SortReport,
    pub pool: PoolStats,
    pub prefetch: PrefetchStats,
    pub digest_ok: bool,
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        fresh_records: after.fresh_records - before.fresh_records,
        reused_records: after.reused_records - before.reused_records,
        returned_records: after.returned_records - before.returned_records,
        fresh_bytes: after.fresh_bytes - before.fresh_bytes,
        reused_bytes: after.reused_bytes - before.reused_bytes,
        returned_bytes: after.returned_bytes - before.returned_bytes,
    }
}

/// Stage `data`, time one sort, verify the output.  `arm` runs after
/// staging and `disarm` before the read-back, to switch the modelled
/// device delay on for the sort alone where the array can be reached.
fn rep_on<A: DiskArray<Rec>>(
    array: &mut A,
    data: Vec<Rec>,
    expect: u64,
    tracer: Option<&Tracer>,
    arm: impl FnOnce(&A),
    disarm: impl FnOnce(&A),
) -> Result<Rep, String> {
    let n = data.len();
    let input = write_unsorted_input(array, &data).map_err(|e| format!("stage: {e}"))?;
    drop(data);
    arm(array);
    array.reset_stats();
    let pool_before = array.buffer_pool().map(|p| p.stats()).unwrap_or_default();
    if let Some(t) = tracer {
        t.reset_counts();
        t.next_sibling("sort");
        t.open("srm_core.formation");
    }
    reset_peak_rss();

    let start = Instant::now();
    let mut formation = Duration::ZERO;
    let result = sorter().sort_observed(array, &input, None, |pass, _: &mut A| {
        if pass == 0 {
            formation = start.elapsed();
        }
        if let Some(t) = tracer {
            t.next_sibling(&format!("srm_core.merge_pass.{}", pass + 1));
        }
        Ok(())
    });
    let wall = start.elapsed();

    let peak = peak_rss_mb().unwrap_or(0.0);
    if let Some(t) = tracer {
        // The observer opened a span for a pass that never ran.
        t.close_innermost(true);
        t.next_sibling("setup");
    }
    let (sorted, report) = result.map_err(|e| format!("sort: {e}"))?;
    let io = array.stats();
    let pool = pool_delta(array.buffer_pool().map(|p| p.stats()).unwrap_or_default(), pool_before);
    disarm(array);
    let out = read_run(array, &sorted).map_err(|e| format!("read back: {e}"))?;
    let digest_ok = out.len() == n && digest(out.iter().map(|r| r.0)) == expect;
    Ok(Rep {
        wall_s: wall.as_secs_f64(),
        formation_s: formation.as_secs_f64(),
        setup_s: 0.0,
        peak_rss_mb: peak,
        io,
        report,
        pool,
        prefetch: PrefetchStats::default(),
        digest_ok,
    })
}

/// One rep of `case` in a fresh directory `dir`, removed afterwards.
/// With a tracer, every stack boundary records spans under
/// `rep > setup | sort > srm_core.* > pdisk.<layer>.<call>`.
pub fn rep(case: &SortCase, records: u64, seed: u64, dir: &Path, tracer: Option<&Tracer>) -> Result<Rep, String> {
    let started = Instant::now();
    let out = match tracer {
        Some(t) => {
            t.open("rep");
            t.open("setup");
            let out = rep_layered(case, records, seed, dir, &WithSpans(t.clone()), tracer);
            t.close_all();
            out
        }
        None => rep_layered(case, records, seed, dir, &NoSpans, None),
    };
    let _ = std::fs::remove_dir_all(dir);
    out.map(|mut r| {
        r.setup_s = started.elapsed().as_secs_f64() - r.wall_s;
        r
    })
}

fn rep_layered<L: Layering>(
    case: &SortCase,
    records: u64,
    seed: u64,
    dir: &Path,
    l: &L,
    tracer: Option<&Tracer>,
) -> Result<Rep, String> {
    let data = case.keys.generate(records, seed);
    let expect = sorted_digest(&data);
    let _ = std::fs::remove_dir_all(dir);
    let file: File = FileDiskArray::create(geometry(), dir).map_err(|e| format!("create array: {e}"))?;
    if case.stacked {
        // FaultyDiskArray gives no way back to the file array, so the
        // delay is on for staging and read-back too; both are set-up.
        file.set_io_delay(case.delay);
        let mut stack = build_protected(l, file, dir, mix64(seed ^ 0xFA17)).map_err(|e| format!("build stack: {e}"))?;
        let mut r = rep_on(&mut stack, data, expect, tracer, |_| {}, |_| {})?;
        r.prefetch = unwrap_protected::<L>(stack).prefetch_stats();
        Ok(r)
    } else {
        let mut stack = l.wrap("file", file);
        let mut r = rep_on(
            &mut stack,
            data,
            expect,
            tracer,
            |a| L::peel(a).set_io_delay(case.delay),
            |a| L::peel(a).set_io_delay(Duration::ZERO),
        )?;
        r.prefetch = L::peel(&stack).prefetch_stats();
        Ok(r)
    }
}

/// Per-layer numbers of one traced rep, from its spans.
fn layer_metrics(case: &SortCase, records: u64, tracer: &Tracer, rep_id: u32, r: &Rep) -> Vec<(String, f64)> {
    let totals = tracer.totals(rep_id, "sort");
    let total = |name: &str| totals.get(name).map_or(0.0, |a| a.total_s);
    let self_of = |name: &str| totals.get(name).map_or(0.0, |a| a.self_s);
    let sum_prefix = |prefix: &str, pick: fn(&crate::span::Agg) -> f64| -> f64 {
        totals.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, a)| pick(a)).sum()
    };
    let mut m: Vec<(String, f64)> = Vec::new();
    for call in ["read", "write", "submit_read", "complete_read", "submit_write", "complete_write", "prefetch", "sync"]
    {
        m.push((format!("pdisk.file.{call}_s"), total(&format!("pdisk.file.{call}"))));
    }
    let file_calls: u64 = totals.iter().filter(|(k, _)| k.starts_with("pdisk.file.")).map(|(_, a)| a.calls).sum();
    m.push(("pdisk.file.calls".into(), file_calls as f64));
    m.push(("pdisk.file.busy_share".into(), sum_prefix("pdisk.file.", |a| a.total_s) / r.wall_s));
    for layer in ["retry", "parity", "faulty"] {
        m.push((format!("pdisk.{layer}.self_s"), sum_prefix(&format!("pdisk.{layer}."), |a| a.self_s)));
    }
    let outer = if case.stacked { "retry" } else { "file" };
    let tickets = tracer.counted(&format!("pdisk.{outer}.tickets"));
    let pending = tracer.counted(&format!("pdisk.{outer}.pending_tickets"));
    m.push((
        "pdisk.stack.pending_ticket_share".into(),
        if tickets == 0 { 0.0 } else { pending as f64 / tickets as f64 },
    ));

    let merge_wall = sum_prefix("srm_core.merge_pass.", |a| a.total_s);
    let merge_self = sum_prefix("srm_core.merge_pass.", |a| a.self_s);
    let own = self_of("sort");
    m.push(("srm_core.sort.wall_s".into(), r.wall_s));
    m.push(("srm_core.sort.self_s".into(), own + self_of("srm_core.formation") + merge_self));
    m.push(("srm_core.run_formation.wall_s".into(), total("srm_core.formation")));
    m.push(("srm_core.run_formation.self_s".into(), self_of("srm_core.formation")));
    m.push(("srm_core.merge.wall_s".into(), merge_wall));
    m.push(("srm_core.merge.self_s".into(), merge_self));
    let merged = (records * r.report.merge_passes.max(1)) as f64;
    m.push(("srm_core.merge.self_ns_per_record".into(), merge_self * 1e9 / merged));
    let attributed: f64 = totals.values().map(|a| a.self_s).sum::<f64>() - own;
    m.push(("bench.attributed_share".into(), attributed / r.wall_s));
    m
}

/// Counts that must repeat exactly from rep to rep.
fn count_metrics(report: &mut Report, records: u64, r: &Rep) {
    let geom = geometry();
    let io = &r.io;
    report.set("pdisk.io.parallel_ios", (io.read_ops + io.write_ops) as f64);
    report.set("pdisk.io.read_ops", io.read_ops as f64);
    report.set("pdisk.io.write_ops", io.write_ops as f64);
    report.set("pdisk.io.blocks_read", io.blocks_read as f64);
    report.set("pdisk.io.blocks_written", io.blocks_written as f64);
    report.set("pdisk.io.read_parallelism", io.read_parallelism());
    report.set("pdisk.io.write_parallelism", io.write_parallelism());
    report.set("pdisk.io.retries", io.total_retries() as f64);
    report.set("pdisk.io.parity_writes", io.parity_writes as f64);
    report.set("pdisk.io.reconstructed_reads", io.reconstructed_reads as f64);
    report.set("pdisk.file.prefetch_issued", r.prefetch.issued as f64);
    let hit = if r.prefetch.issued == 0 { 0.0 } else { r.prefetch.hits as f64 / r.prefetch.issued as f64 };
    report.set("pdisk.file.prefetch_hit_ratio", hit);
    report.set("pdisk.file.prefetch_invalidated", r.prefetch.invalidated as f64);
    report.set("pdisk.pool.hit_ratio", r.pool.hit_rate().unwrap_or(0.0));
    report.set("pdisk.pool.misses", r.pool.misses() as f64);
    report.set("srm_core.merge.passes", r.report.merge_passes as f64);
    report.set("srm_core.scheduler.flush_ops", r.report.schedule.flush_ops as f64);
    report.set("srm_core.scheduler.blocks_flushed", r.report.schedule.blocks_flushed as f64);
    let blocks = records.div_ceil(geom.b as u64);
    report.set("srm_core.scheduler.read_overhead_v", r.report.overhead_v(geom.d, blocks));
}

/// The same sort on `MemDiskArray`: the engine with no device at all.
fn mem_backend_sort_s(data: &[Rec], expect: u64) -> Result<f64, String> {
    let mut array: MemDiskArray<Rec> = MemDiskArray::new(geometry());
    let input = write_unsorted_input(&mut array, data).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let (sorted, _) = sorter().sort(&mut array, &input).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    let out = read_run(&mut array, &sorted).map_err(|e| e.to_string())?;
    if digest(out.iter().map(|r| r.0)) != expect {
        return Err("mem-backend output digest differs from the oracle".into());
    }
    Ok(wall)
}

/// One untimed sort under `TracingDiskArray`; its trace must satisfy
/// the model checker and agree with `IoStats`.  Returns `(events, check_s)`.
fn model_check(case: &SortCase, data: &[Rec], seed: u64, dir: &Path) -> Result<(u64, f64), String> {
    fn traced_sort<A: DiskArray<Rec>>(array: A, data: &[Rec]) -> Result<(u64, f64), String> {
        let mut traced = TracingDiskArray::new(array);
        let input = write_unsorted_input(&mut traced, data).map_err(|e| e.to_string())?;
        sorter().sort(&mut traced, &input).map_err(|e| e.to_string())?;
        let trace = traced.take_trace();
        let start = Instant::now();
        let summary = modelcheck::check_trace(geometry(), &trace).map_err(|v| format!("model-rule violation: {v}"))?;
        let check_s = start.elapsed().as_secs_f64();
        modelcheck::check_stats(&trace, &traced.stats()).map_err(|v| format!("trace/stats drift: {v}"))?;
        Ok((summary.events, check_s))
    }
    let _ = std::fs::remove_dir_all(dir);
    let file: File = FileDiskArray::create(geometry(), dir).map_err(|e| e.to_string())?;
    let out = if case.stacked {
        let stack = build_protected(&NoSpans, file, dir, mix64(seed ^ 0xFA17)).map_err(|e| e.to_string())?;
        traced_sort(stack, data)
    } else {
        traced_sort(file, data)
    };
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Every rep of one run, untraced and traced apart.
struct Reps {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    /// Per-layer numbers of each traced rep, by metric name.
    layers: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Repeat `case` until `opts.seconds` have passed.  A traced run
/// alternates untraced and traced reps, so that the tracing overhead is
/// measured inside one process.
fn measure(case: &SortCase, records: u64, opts: &RunOpts, dir: &Path, tracer: &Tracer) -> Reps {
    let mut reps =
        Reps { plain: Vec::new(), traced: Vec::new(), layers: BTreeMap::new(), attempted: 0, failed: 0, correct: true };
    let mut first_io: Option<IoStats> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let min_reps = match (opts.quick, opts.trace) {
        (true, false) => 1,
        (true, true) => 2,
        (false, false) => 3,
        (false, true) => 6,
    };
    for rep_id in 0u32.. {
        if rep_id >= min_reps && Instant::now() >= deadline {
            break;
        }
        let with_spans = opts.trace && rep_id % 2 == 1;
        tracer.set_rep(rep_id);
        reps.attempted += 1;
        match rep(case, records, opts.seed, dir, with_spans.then_some(tracer)) {
            Ok(r) => {
                if !r.digest_ok {
                    eprintln!("{}: rep {rep_id}: output digest differs from the oracle", case.name);
                    reps.failed += 1;
                } else if *first_io.get_or_insert(r.io) != r.io {
                    eprintln!("{}: rep {rep_id}: IoStats differ from rep 0: {:?}", case.name, r.io);
                    reps.correct = false;
                }
                if with_spans {
                    for (k, v) in layer_metrics(case, records, tracer, rep_id, &r) {
                        reps.layers.entry(k).or_default().push(v);
                    }
                    reps.traced.push(r);
                } else {
                    reps.plain.push(r);
                }
            }
            Err(e) => {
                eprintln!("{}: rep {rep_id}: {e}", case.name);
                reps.failed += 1;
            }
        }
    }
    reps.correct &= reps.failed == 0;
    reps
}

/// What a traced run adds after its reps: kernels on the workload's
/// own keys, the engine floor on `MemDiskArray`, and the model check.
/// The last two are sorts of their own and count as operations.
fn kernels_and_checks(case: &SortCase, records: u64, opts: &RunOpts, dir: &Path, report: &mut Report) -> (u64, u64) {
    let data = case.keys.generate(records, opts.seed);
    let keys: Vec<u64> = data.iter().map(|r| r.0).collect();
    let geom = geometry();
    let r = geom.srm_merge_order().expect("the table geometry has a merge order");
    report.set("srm_core.loser_tree.kernel_ns_per_record", kernels::loser_tree_ns_per_record(&keys, r));
    report.set("srm_core.par_sort.kernel_ns_per_record", kernels::par_sort_ns_per_record(&data, geom.m / 2));
    report.set("srm_core.merge_path.kernel_ns_per_record", kernels::merge_path_ns_per_record(&data, geom.m / 2));
    report.set("srm_core.forecast.kernel_ns_per_op", kernels::forecast_ns_per_op(&keys, geom.d));
    report.set("analysis.predicted_v", kernels::predicted_v(4, geom.d, geom.b as u64));
    let mut failed = 0;
    let mut check = |what: &str, outcome: Result<Vec<(&str, f64)>, String>| match outcome {
        Ok(values) => values.into_iter().for_each(|(name, v)| report.set(name, v)),
        Err(e) => {
            eprintln!("{}: {what}: {e}", case.name);
            failed += 1;
        }
    };
    check(
        "file kernel",
        kernels::file_us_per_block(&data, geom, dir).map(|(w, r)| {
            vec![("pdisk.file.kernel_write_us_per_block", w), ("pdisk.file.kernel_read_us_per_block", r)]
        }),
    );
    check(
        "mem backend",
        mem_backend_sort_s(&data, sorted_digest(&data)).map(|s| vec![("srm_core.mem_backend.sort_s", s)]),
    );
    check(
        "model check",
        model_check(case, &data, opts.seed, dir)
            .map(|(events, s)| vec![("modelcheck.trace_events", events as f64), ("modelcheck.check_s", s)]),
    );
    (3, failed)
}

/// Run `case` for `opts.seconds` and report every metric of the kind
/// `opts.trace` asks for.
pub fn run(case: &SortCase, opts: &RunOpts) -> Result<Outcome, String> {
    let records = if opts.quick { case.quick_records } else { case.records };
    let dir = opts.scratch.join(format!("{}-{}", case.name, std::process::id()));
    let tracer = Tracer::new();
    let Reps { plain, traced, layers, mut attempted, mut failed, correct } =
        measure(case, records, opts, &dir, &tracer);
    if plain.is_empty() || (opts.trace && traced.is_empty()) {
        return Err(format!("no rep finished ({failed} of {attempted} failed)"));
    }
    // The first rep warms the page cache and the allocator; leave it
    // out of the timings when there are enough others.
    let timed = if plain.len() > 3 { &plain[1..] } else { &plain[..] };
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let wall = median(&walls);
    println!("{}: {} records, {} untraced reps, {} traced", case.name, records, plain.len(), traced.len());
    println!("  sort wall s      {}", describe(&walls));
    println!("  formation s      {}", describe(&timed.iter().map(|r| r.formation_s).collect::<Vec<_>>()));

    let mut report = Report::new(opts.trace);
    if !opts.trace {
        let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        println!("  set-up s         {}", describe(&setups));
        report.set("records_per_s", records as f64 / wall);
        report.set("op_latency_ms", midmean(&walls) * 1e3);
        report.set("setup_s", median(&setups));
        return Ok(Outcome { correct, attempted, failed, report });
    }

    for (k, v) in &layers {
        report.set(k, median(v));
    }
    count_metrics(&mut report, records, &traced[0]);
    let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    report.set("bench.trace_overhead_share", (traced_wall - wall) / wall);
    report.set("bench.reps", traced.len() as f64);
    // Memory is read on the untraced reps: the span vector is the
    // benchmark's, not the program's.
    report.set("bench.peak_rss_mb", median(&timed.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()));
    let (more, more_failed) = kernels_and_checks(case, records, opts, &dir, &mut report);
    attempted += more;
    failed += more_failed;
    tracer.save(case.name, &opts.scratch);
    Ok(Outcome { correct: correct && more_failed == 0, attempted, failed, report })
}
