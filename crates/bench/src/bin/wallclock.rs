//! **Wall-clock pipeline benchmark** — times SRM's and DSM's one engine
//! at its two windows, blocking ("serial": every I/O waited for where it
//! is issued) and pipelined (forecast-driven deep read-ahead +
//! write-behind), on the *file* backend, where disk latency is real, and
//! writes `BENCH_pipeline.json` at the repo root.
//!
//! ```text
//! cargo run -p bench --release --bin wallclock [-- --quick]
//!     [--assert-speedup MARGIN] [--assert-zero-delay MARGIN]
//!     [--out PATH] [--seed N] [--reps N]
//! ```
//!
//! Every case runs the same input at both windows and asserts the
//! outputs are byte-identical and the [`pdisk::IoStats`] exactly equal —
//! the pipeline moves waiting, never work (DESIGN.md §9, §14).  Windows
//! are interleaved and each is timed as the minimum of `--reps` runs
//! (default 3), which filters host scheduling noise.  The headline case
//! (SRM, `D = 8`, realistic per-block delay, depth-3 read-ahead, 4
//! formation threads) is additionally run under the tracing wrapper and
//! replayed through the modelcheck invariant checker.
//! `--assert-speedup 1.5` exits non-zero unless the headline pipelined
//! sort is at least 1.5x faster than serial; `--assert-zero-delay 1.0`
//! gates the `io_delay = 0` SRM case the same way (the pipeline must never
//! *cost* wall-clock even with nothing to hide).
//!
//! The full matrix includes a read-ahead **depth sweep** over the
//! headline geometry (depth 0, 1, 3, 6), so the emitted JSON records
//! how speedup scales with prefetch depth.
//!
//! The emitted JSON is a flat object:
//!
//! ```json
//! { "bench": "pipeline", "quick": false, "headline_speedup": 1.62,
//!   "cases": [ { "algo": "srm", "d": 8, "b": 16, "m": 1792,
//!                "records": 120000, "io_delay_us": 60,
//!                "depth": 3, "threads": 4,
//!                "serial_ms": 2812.4, "pipelined_ms": 1731.0,
//!                "formation_ms": 402.1, "merge_ms": 1328.9,
//!                "speedup": 1.62, "read_ops": 3121, "write_ops": 2430,
//!                "stats_match": true, "output_match": true,
//!                "headline": true, "model_checked": true } ] }
//! ```
//!
//! `formation_ms` / `merge_ms` split the *pipelined* engine's best run
//! at the pass-0 boundary (run formation vs all merge passes); they sum
//! to `pipelined_ms` for SRM cases and are 0 for DSM (whose driver has
//! no pass observer).

use dsm::{read_logical_run, write_unsorted_stripes, DsmSorter};
use pdisk::{DiskArray, FileDiskArray, Geometry, IoStats, StackSpec, U64Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::run_formation::RunFormation;
use srm_core::sort::{write_unsorted_input, SrmConfig};
use srm_core::{read_run, SrmSorter};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One benchmark configuration.
struct Case {
    algo: &'static str,
    d: usize,
    b: usize,
    k: usize,
    records: u64,
    io_delay_us: u64,
    /// Forecast-driven read-ahead depth for the pipelined engine
    /// (0 = submit/complete only, no prefetch hints).
    depth: usize,
    /// Worker threads for run formation's internal sort (both engines).
    threads: usize,
    /// The acceptance-gate case: `D >= 4` with realistic latency.
    headline: bool,
}

/// One measured result.
struct Outcome {
    case: Case,
    m: usize,
    serial_ms: f64,
    pipelined_ms: f64,
    /// Pipelined best run, time up to the pass-0 boundary (SRM only).
    formation_ms: f64,
    /// Pipelined best run, time after the pass-0 boundary (SRM only).
    merge_ms: f64,
    io: IoStats,
    stats_match: bool,
    output_match: bool,
    model_checked: bool,
}

impl Outcome {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.pipelined_ms
    }
}

fn main() {
    let mut quick = false;
    let mut assert_speedup: Option<f64> = None;
    let mut assert_zero_delay: Option<f64> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut seed: u64 = 0x01BE_11E5;
    let mut reps: usize = 3;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--assert-speedup" => {
                let v = it.next().expect("--assert-speedup needs a value");
                assert_speedup = Some(v.parse().expect("--assert-speedup: bad float"));
            }
            "--assert-zero-delay" => {
                let v = it.next().expect("--assert-zero-delay needs a value");
                assert_zero_delay = Some(v.parse().expect("--assert-zero-delay: bad float"));
            }
            "--out" => {
                out_path = Some(PathBuf::from(it.next().expect("--out needs a path")));
            }
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                seed = v.parse().expect("--seed: bad integer");
            }
            "--reps" => {
                let v = it.next().expect("--reps needs a value");
                reps = v.parse().expect("--reps: bad integer");
                assert!(reps >= 1, "--reps must be at least 1");
            }
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    let out_path = out_path.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json")
    });

    // (algo, D, B, k, records, delay_us, depth, threads, headline).
    // `--quick` keeps one SRM, one zero-delay SRM, and one DSM case at
    // reduced scale for CI smoke.
    //
    // Delays are SSD-class per-block service times; 60us sits where disk
    // time and engine compute are comparable, which is where overlap has
    // something to hide.  (With ms-class delays both engines are purely
    // disk-bound and the ratio tends to 1; at 0 the pipeline hides only
    // filesystem latency — the zero-delay case is the "never slower"
    // gate, not a speedup showcase.)  The depth sweep holds the headline
    // geometry fixed and varies only the read-ahead depth.
    let cases: Vec<Case> = if quick {
        vec![
            case("srm", 4, 16, 4, 30_000, 60, 3, 1, true),
            case("srm", 4, 16, 4, 30_000, 0, 3, 1, false),
            case("dsm", 4, 16, 4, 30_000, 60, 0, 1, false),
        ]
    } else {
        vec![
            // Depth sweep over the headline geometry.
            case("srm", 8, 16, 4, 120_000, 60, 0, 4, false),
            case("srm", 8, 16, 4, 120_000, 60, 1, 4, false),
            case("srm", 8, 16, 4, 120_000, 60, 3, 4, true),
            case("srm", 8, 16, 4, 120_000, 60, 6, 4, false),
            // Breadth: other geometries, block sizes, memory factors.
            case("srm", 2, 16, 4, 60_000, 60, 3, 1, false),
            case("srm", 4, 32, 4, 100_000, 60, 3, 1, false),
            case("srm", 4, 64, 4, 100_000, 60, 3, 1, false),
            case("srm", 4, 32, 2, 100_000, 60, 3, 1, false),
            // Zero-delay floor: overlap machinery must not cost time.
            case("srm", 4, 32, 4, 100_000, 0, 3, 1, false),
            case("dsm", 4, 32, 4, 100_000, 60, 0, 1, false),
            case("dsm", 2, 16, 4, 60_000, 60, 0, 1, false),
        ]
    };

    println!("# Wall-clock: blocking (serial) vs pipelined window (file backend)\n");
    println!("(seed={seed:#x}; every case asserts identical output bytes and identical IoStats)\n");
    println!("| algo | D | B | M | records | delay | depth | thr | serial | pipelined | form | merge | speedup |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|");

    let mut outcomes: Vec<Outcome> = Vec::new();
    for case in cases {
        let o = run_case(case, seed, reps);
        println!(
            "| {} | {} | {} | {} | {} | {}us | {} | {} | {:.1}ms | {:.1}ms | {:.1}ms | {:.1}ms | {:.2}x |",
            o.case.algo,
            o.case.d,
            o.case.b,
            o.m,
            o.case.records,
            o.case.io_delay_us,
            o.case.depth,
            o.case.threads,
            o.serial_ms,
            o.pipelined_ms,
            o.formation_ms,
            o.merge_ms,
            o.speedup()
        );
        assert!(o.output_match, "pipelined output diverged from serial");
        assert!(o.stats_match, "pipelined IoStats diverged from serial");
        outcomes.push(o);
    }

    let headline = outcomes
        .iter()
        .find(|o| o.case.headline)
        .expect("a headline case must be configured");
    println!(
        "\nheadline (SRM D={} B={} delay={}us depth={} threads={}): {:.2}x speedup, model check {}",
        headline.case.d,
        headline.case.b,
        headline.case.io_delay_us,
        headline.case.depth,
        headline.case.threads,
        headline.speedup(),
        if headline.model_checked { "clean" } else { "SKIPPED" },
    );
    assert!(headline.model_checked, "headline trace must model-check");

    let json = render_json(&outcomes, quick, headline.speedup());
    std::fs::write(&out_path, json).expect("write BENCH_pipeline.json");
    println!("wrote {}", out_path.display());

    if let Some(margin) = assert_speedup {
        assert!(
            headline.speedup() >= margin,
            "headline speedup {:.3}x below required {margin}x",
            headline.speedup()
        );
        println!("speedup gate: {:.2}x >= {margin}x ok", headline.speedup());
    }
    if let Some(margin) = assert_zero_delay {
        let zero = outcomes
            .iter()
            .find(|o| o.case.algo == "srm" && o.case.io_delay_us == 0)
            .expect("--assert-zero-delay requires an io_delay=0 SRM case");
        assert!(
            zero.speedup() >= margin,
            "zero-delay speedup {:.3}x below required {margin}x",
            zero.speedup()
        );
        println!("zero-delay gate: {:.2}x >= {margin}x ok", zero.speedup());
    }
}

#[allow(clippy::too_many_arguments)]
fn case(
    algo: &'static str,
    d: usize,
    b: usize,
    k: usize,
    records: u64,
    io_delay_us: u64,
    depth: usize,
    threads: usize,
    headline: bool,
) -> Case {
    Case { algo, d, b, k, records, io_delay_us, depth, threads, headline }
}

/// The SRM sorter for a case: formation threads and read-ahead depth
/// applied identically at both windows (the blocking one sends no
/// hints), so the two timed runs differ *only* in pipelining.
fn srm_sorter(case: &Case) -> SrmSorter {
    let config = if case.threads > 1 {
        SrmConfig {
            run_formation: RunFormation::ParallelMemoryLoad {
                fraction: 0.5,
                threads: case.threads,
            },
            ..SrmConfig::default()
        }
    } else {
        SrmConfig::default()
    };
    SrmSorter::new(config).with_read_ahead(case.depth)
}

/// Stage `data` on a fresh file array in `dir`, switch on the service
/// delay, time one sort, then return (sorted output, total elapsed,
/// formation elapsed, IoStats).
fn timed_sort(
    dir: &std::path::Path,
    geom: Geometry,
    delay: Duration,
    data: &[U64Record],
    case: &Case,
    pipeline: bool,
) -> (Vec<U64Record>, Duration, Duration, IoStats) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("bench dir");
    let mut array: FileDiskArray<U64Record> = FileDiskArray::create(geom, dir).expect("array");
    let (output, elapsed, formation, io) = match case.algo {
        "srm" => {
            let input = write_unsorted_input(&mut array, data).expect("stage");
            array.set_io_delay(delay);
            array.reset_stats();
            let start = Instant::now();
            let formation = std::cell::Cell::new(Duration::ZERO);
            let (sorted, _) = srm_sorter(case)
                .with_pipeline(pipeline)
                .sort_observed(&mut array, &input, None, |pass, _a: &mut _| {
                    if pass == 0 {
                        formation.set(start.elapsed());
                    }
                    Ok(())
                })
                .expect("srm sort");
            let elapsed = start.elapsed();
            let io = array.stats();
            array.set_io_delay(Duration::ZERO);
            if pipeline && std::env::var_os("WALLCLOCK_DEBUG").is_some() {
                eprintln!(
                    "prefetch: {:?} / blocks_read {} ops r{} w{}",
                    array.prefetch_stats(),
                    io.blocks_read,
                    io.read_ops,
                    io.write_ops
                );
            }
            (
                read_run(&mut array, &sorted).expect("read output"),
                elapsed,
                formation.get(),
                io,
            )
        }
        "dsm" => {
            let input = write_unsorted_stripes(&mut array, data).expect("stage");
            array.set_io_delay(delay);
            array.reset_stats();
            let start = Instant::now();
            let (sorted, _) = DsmSorter::default()
                .with_pipeline(pipeline)
                .sort(&mut array, &input)
                .expect("dsm sort");
            let elapsed = start.elapsed();
            let io = array.stats();
            array.set_io_delay(Duration::ZERO);
            (
                read_logical_run(&mut array, &sorted).expect("read output"),
                elapsed,
                Duration::ZERO,
                io,
            )
        }
        other => panic!("unknown algo {other}"),
    };
    drop(array);
    let _ = std::fs::remove_dir_all(dir);
    (output, elapsed, formation, io)
}

fn run_case(case: Case, seed: u64, reps: usize) -> Outcome {
    let geom = Geometry::for_table(case.k, case.d, case.b).expect("geometry");
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<U64Record> = (0..case.records).map(|_| U64Record(rng.random())).collect();
    let delay = Duration::from_micros(case.io_delay_us);
    let base = std::env::temp_dir().join(format!(
        "srm-wallclock-{}-{}-{}-{}-{}",
        std::process::id(),
        case.algo,
        case.d,
        case.io_delay_us,
        case.depth
    ));

    // Interleave engines and keep each one's *minimum* over `reps`
    // repetitions: min-of-N filters host scheduling noise, which on a
    // shared machine easily exceeds the effect under measurement.  The
    // phase split follows the best pipelined repetition.
    let (serial_out, mut serial_t, _, serial_io) =
        timed_sort(&base, geom, delay, &data, &case, false);
    let (pipe_out, mut pipe_t, mut pipe_form, pipe_io) =
        timed_sort(&base, geom, delay, &data, &case, true);
    for _ in 1..reps {
        let (o, t, _, io) = timed_sort(&base, geom, delay, &data, &case, false);
        assert_eq!(o, serial_out, "serial output unstable across reps");
        assert_eq!(io, serial_io, "serial IoStats unstable across reps");
        serial_t = serial_t.min(t);
        let (o, t, form, io) = timed_sort(&base, geom, delay, &data, &case, true);
        assert_eq!(o, pipe_out, "pipelined output unstable across reps");
        assert_eq!(io, pipe_io, "pipelined IoStats unstable across reps");
        if t < pipe_t {
            pipe_t = t;
            pipe_form = form;
        }
    }

    let mut sorted = data.clone();
    sorted.sort_unstable_by_key(|r| r.0);
    assert_eq!(serial_out, sorted, "serial output unsorted or corrupt");

    // The headline case must also hold up in front of the invariant
    // checker: replay a traced pipelined sort (untimed, no delay), at
    // the case's full depth and thread count.
    let model_checked = if case.headline && case.algo == "srm" {
        let dir = base.with_extension("trace");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("trace dir");
        let file: FileDiskArray<U64Record> = FileDiskArray::create(geom, &dir).expect("array");
        let spec = StackSpec { trace: true, ..StackSpec::default() };
        let mut traced = spec.build(file, ()).expect("stack");
        let input = write_unsorted_input(&mut traced, &data).expect("stage");
        srm_sorter(&case)
            .with_pipeline(true)
            .sort(&mut traced, &input)
            .expect("traced sort");
        let trace = traced.take_trace();
        modelcheck::check_trace(geom, &trace)
            .unwrap_or_else(|v| panic!("model-rule violation: {v}"));
        modelcheck::check_stats(&trace, &traced.stats())
            .unwrap_or_else(|v| panic!("trace/stats drift: {v}"));
        drop(traced);
        let _ = std::fs::remove_dir_all(&dir);
        true
    } else {
        false
    };

    let pipelined_ms = pipe_t.as_secs_f64() * 1e3;
    let formation_ms = pipe_form.as_secs_f64() * 1e3;
    Outcome {
        m: geom.m,
        serial_ms: serial_t.as_secs_f64() * 1e3,
        pipelined_ms,
        formation_ms,
        merge_ms: (pipelined_ms - formation_ms).max(0.0),
        stats_match: serial_io == pipe_io,
        output_match: serial_out == pipe_out,
        io: pipe_io,
        model_checked,
        case,
    }
}

/// Hand-rolled JSON (the bench crate carries no serde).
fn render_json(outcomes: &[Outcome], quick: bool, headline_speedup: f64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"pipeline\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"headline_speedup\": {headline_speedup:.4},\n"));
    s.push_str("  \"cases\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"algo\": \"{}\", \"d\": {}, \"b\": {}, \"m\": {}, \"records\": {}, \
             \"io_delay_us\": {}, \"depth\": {}, \"threads\": {}, \
             \"serial_ms\": {:.3}, \"pipelined_ms\": {:.3}, \
             \"formation_ms\": {:.3}, \"merge_ms\": {:.3}, \
             \"speedup\": {:.4}, \"read_ops\": {}, \"write_ops\": {}, \
             \"stats_match\": {}, \"output_match\": {}, \"headline\": {}, \
             \"model_checked\": {}}}{}\n",
            o.case.algo,
            o.case.d,
            o.case.b,
            o.m,
            o.case.records,
            o.case.io_delay_us,
            o.case.depth,
            o.case.threads,
            o.serial_ms,
            o.pipelined_ms,
            o.formation_ms,
            o.merge_ms,
            o.speedup(),
            o.io.read_ops,
            o.io.write_ops,
            o.stats_match,
            o.output_match,
            o.case.headline,
            o.model_checked,
            if i + 1 == outcomes.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
