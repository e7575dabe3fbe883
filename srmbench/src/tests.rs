//! Tests that span modules: the span wrapper's transparency, the quick
//! mode of every workload, and the agreement between the registry and
//! `BENCHMARK.json`.

use crate::metrics::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use crate::span::{Rec, SpanDiskArray, Tracer};
use crate::{json, parse_args, run_workload, sorts, RunOpts, RUN_SECONDS};
use pdisk::{
    Block, BufferPool, DiskArray, DiskId, FileDiskArray, Forecast, Geometry, MemDiskArray, ParityDiskArray,
    ScrubOutcome, TraceSink, U64Record,
};
use std::path::PathBuf;

/// A fresh directory under the package's own (git-ignored) `target/`.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("target/test-scratch/{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test scratch directory");
    dir
}

/// Spans on and off must be indistinguishable to the sort: same output,
/// same `IoStats`, same prefetch and pool behaviour.  A forgotten
/// forward would show here as an eager stack (no prefetches, no pending
/// tickets) or as a lost pool.
#[test]
fn spans_are_transparent_to_the_sort() {
    for case in [&sorts::CASES[0], &sorts::CASES[3]] {
        let case = sorts::SortCase { delay: std::time::Duration::ZERO, ..*case };
        let dir = scratch(case.name);
        let off = sorts::rep(&case, 60_000, 42, &dir, None).expect("untraced rep");
        let tracer = Tracer::new();
        let on = sorts::rep(&case, 60_000, 42, &dir, Some(&tracer)).expect("traced rep");
        assert!(off.digest_ok && on.digest_ok, "{}: digest", case.name);
        assert_eq!(off.io, on.io, "{}: IoStats", case.name);
        assert_eq!(off.prefetch, on.prefetch, "{}: PrefetchStats", case.name);
        assert_eq!(off.pool, on.pool, "{}: PoolStats", case.name);
        assert_eq!(off.report.schedule, on.report.schedule, "{}: schedule", case.name);

        let outer = if case.stacked { "retry" } else { "file" };
        let tickets = tracer.counted(&format!("pdisk.{outer}.tickets"));
        let pending = tracer.counted(&format!("pdisk.{outer}.pending_tickets"));
        assert!(tickets > 0, "{}: the pipelined engine submits tickets", case.name);
        if case.stacked {
            // Today's wrappers fall back to eager I/O (ROADMAP item 3).
            assert_eq!(tracer.counted("pdisk.file.tickets"), 0, "nothing reaches the file array split-phase");
        } else {
            assert_eq!(pending, tickets, "file tickets stay pending through the wrapper");
            assert!(on.prefetch.issued > 0, "read-ahead hints reach the file array");
        }
        let totals = tracer.totals(1, "sort");
        assert!(totals.is_empty(), "rep ids come from the caller; this tracer only saw rep 0");
        let totals = tracer.totals(0, "sort");
        assert_eq!(totals["sort"].calls, 1);
        assert_eq!(totals["srm_core.formation"].calls, 1);
        assert!(totals.contains_key("srm_core.merge_pass.1"));
        let self_sum: f64 = totals.values().map(|a| a.self_s).sum();
        assert!((self_sum - totals["sort"].total_s).abs() < 1e-6, "self times add up to the sort span");
    }
}

#[test]
fn wrapper_forwards_every_trait_method() {
    let geom = Geometry::new(3, 4, 64).expect("geometry");
    let tracer = Tracer::new();
    let block = |k: u64| Block { records: vec![U64Record(k); 4], forecast: Forecast::Next(pdisk::block::NO_BLOCK) };

    // Split-phase calls on a file array: tickets must stay pending.
    let dir = scratch("forward");
    let file: FileDiskArray<Rec> = FileDiskArray::create(geom, &dir).expect("array");
    let mut spanned = SpanDiskArray::new(file, "file", tracer.clone());
    assert_eq!(DiskArray::<Rec>::geometry(&spanned), geom);
    let run = spanned.alloc_run(DiskId(0), 3, 12).expect("alloc_run");
    let writes: Vec<_> = (0..3).map(|i| (run.addr_of(i), block(i))).collect();
    let addrs: Vec<_> = writes.iter().map(|(a, _)| *a).collect();
    let wt = spanned.submit_write(writes).expect("submit_write");
    assert!(wt.is_pending());
    spanned.complete_write(wt).expect("complete_write");
    spanned.sync().expect("sync");
    spanned.prefetch(&addrs);
    assert_eq!(spanned.inner().prefetch_stats().issued, 3, "prefetch reaches the file array");
    let rt = spanned.submit_read(&addrs).expect("submit_read");
    assert!(rt.is_pending());
    assert_eq!(spanned.complete_read(rt).expect("complete_read").len(), 3);
    assert_eq!(spanned.inner().prefetch_stats().hits, 3);
    assert_eq!(spanned.stats().read_ops, 1);
    spanned.reset_stats();
    assert_eq!(spanned.stats().read_ops, 0);
    let pool: BufferPool<Rec> = BufferPool::new();
    spanned.install_pool(pool.clone());
    spanned.read(&addrs).expect("read");
    assert!(spanned.buffer_pool().is_some());
    assert!(pool.stats().fresh_bytes + pool.stats().reused_bytes > 0, "the installed pool is the one in use");
    assert_eq!(tracer.counted("pdisk.file.tickets"), 2);
    assert_eq!(tracer.counted("pdisk.file.pending_tickets"), 2);
    drop(spanned);
    let _ = std::fs::remove_dir_all(&dir);

    // Redundancy, scrubbing and the trace sink, over a parity layer.
    let parity = ParityDiskArray::new(MemDiskArray::<Rec>::new(geom)).expect("parity");
    let mut spanned = SpanDiskArray::new(parity, "parity", tracer.clone());
    assert_eq!(spanned.redundancy().map(|r| r.stripe_disks), Some(3));
    assert!(spanned.trace_sink().is_none());
    spanned.install_trace(TraceSink::new());
    assert!(spanned.trace_sink().is_some());
    let offset = spanned.alloc_contiguous(DiskId(1), 1).expect("alloc_contiguous");
    let addr = pdisk::BlockAddr::new(DiskId(1), offset);
    spanned.write(vec![(addr, block(9))]).expect("write");
    assert_eq!(spanned.scrub_block(addr).expect("scrub_block"), ScrubOutcome::Clean);
    let names = tracer.totals(0, "pdisk.parity.scrub_block");
    assert_eq!(names["pdisk.parity.scrub_block"].calls, 1);
}

/// `--quick` drives all six workloads, both kinds of run, and every
/// result line carries every metric of its kind, named and with a unit.
#[test]
fn quick_mode_emits_every_metric() {
    let name_ok = |n: &str| !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    let started = std::time::Instant::now();
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            let opts = RunOpts { seed: 99, seconds: 0.0, trace, quick: true, scratch: scratch("quick") };
            let outcome = run_workload(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
            let result = json::parse(&outcome.to_json()).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert_eq!(result.get("correct"), Some(&json::Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(json::Json::as_f64), Some(0.0), "{workload}");
            assert!(result.get("attempted").and_then(json::Json::as_f64) >= Some(1.0), "{workload}");
            let metrics = result.get("metrics").and_then(json::Json::as_obj).expect("metrics");
            let defs = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.len(), defs.len(), "{workload}: exactly the metrics of this kind");
            for def in defs {
                let m = metrics.get(def.name).unwrap_or_else(|| panic!("{workload}: {} missing", def.name));
                assert!(name_ok(def.name));
                assert_eq!(m.get("unit").and_then(json::Json::as_str), Some(def.unit));
                let v = m.get("value").and_then(json::Json::as_f64).expect("value");
                assert!(v.is_finite());
                if !trace {
                    assert!(v > 0.0, "{workload}: end-to-end metric {} must never be 0", def.name);
                }
            }
            let _ = std::fs::remove_dir_all(&opts.scratch);
        }
    }
    assert!(started.elapsed().as_secs() < 20, "quick mode took {:?}", started.elapsed());
}

#[test]
fn benchmark_json_matches_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(on_disk, benchmark_json(RUN_SECONDS), "regenerate with `srmbench --benchmark-json > BENCHMARK.json`");
    let parsed = json::parse(&on_disk).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = parsed.as_obj().expect("object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert!(on_disk.len() <= 64 * 1024);
    let command = parsed.get("command").and_then(json::Json::as_arr).expect("command");
    assert!(
        command.len() <= 32
            && command.iter().all(|c| c.as_str().is_some_and(|s| s.len() <= 200 && !s.starts_with('/')))
    );
}

#[test]
fn the_drivers_arguments_parse() {
    let argv = ["--workload", "sort_io", "--seed", "7", "--seconds", "12", "--trace", "1"];
    let args = parse_args(argv.iter().map(|s| s.to_string())).expect("parse");
    assert_eq!(args.workload.as_deref(), Some("sort_io"));
    assert_eq!((args.seed, args.seconds, args.trace, args.quick), (Some(7), Some(12.0), true, false));
    for bad in [&["--trace", "2"][..], &["--seed", "x"], &["--seconds"], &["--frobnicate"]] {
        assert!(parse_args(bad.iter().map(|s| s.to_string())).is_err(), "{bad:?}");
    }
    assert!(run_workload(
        "no_such_workload",
        &RunOpts { seed: 1, seconds: 0.0, trace: false, quick: true, scratch: scratch("none") }
    )
    .is_err());
}
