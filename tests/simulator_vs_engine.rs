//! Cross-validation: the block-level simulator must reproduce the
//! record-level engine's I/O schedule **exactly** — the same initial
//! reads, the same parallel reads with the same targets and flush
//! victims, the same depletions, in the same order — when both consume
//! the same runs.
//!
//! This is the load-bearing test behind the Table 3 reproduction: the
//! table is generated by the simulator at scales the engine cannot reach,
//! and this test is what licenses that substitution.  Every engine merge
//! here is recorded under a [`TracingDiskArray`] and must be
//! `modelcheck::check_trace`-clean, so the simulator's schedule is
//! checked by the one model checker transitively: it equals, event for
//! event, a trace the checker judged.

use pdisk::trace::{Tagged, TraceEvent, TracingDiskArray};
use pdisk::{DiskId, Geometry, MemDiskArray, StripedRun, U64Record};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use srm_core::simulator::{MergeSim, SimInput, SimRun, TraceEvent as SimTrace};
use srm_core::{merge_runs, RunWriter, ScheduleStats};

/// Build `n_runs` sorted runs over a shared pool of *distinct* keys, with
/// random (possibly unequal) lengths.
fn random_distinct_runs(rng: &mut SmallRng, n_runs: usize, min_len: usize, max_len: usize) -> Vec<Vec<u64>> {
    let lens: Vec<usize> = (0..n_runs)
        .map(|_| rng.random_range(min_len..=max_len))
        .collect();
    let total: usize = lens.iter().sum();
    // Distinct keys: sample a strictly increasing sequence, then shuffle
    // the assignment of keys to runs.
    let mut pool: Vec<u64> = Vec::with_capacity(total);
    let mut next = 0u64;
    for _ in 0..total {
        next += rng.random_range(1..50);
        pool.push(next);
    }
    pool.shuffle(rng);
    let mut runs = Vec::with_capacity(n_runs);
    let mut cursor = 0;
    for len in lens {
        let mut r: Vec<u64> = pool[cursor..cursor + len].to_vec();
        cursor += len;
        r.sort_unstable();
        runs.push(r);
    }
    runs
}

/// Derive the simulator's view (block min/max keys) of a run laid out in
/// blocks of `b` records.
fn sim_run(keys: &[u64], b: usize, start_disk: u32) -> SimRun {
    let min_keys = keys.chunks(b).map(|c| c[0]).collect();
    let max_keys = keys.chunks(b).map(|c| *c.last().unwrap()).collect();
    SimRun {
        start_disk,
        min_keys,
        max_keys,
    }
}

/// The engine's merge trace in the simulator's vocabulary: an initial
/// load is an `InitRead`, a scheduled read's completion a `ParRead`, a
/// depletion a `Depleted`; every other event has no simulator analogue.
fn project(trace: &[Tagged]) -> Vec<SimTrace> {
    trace
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::InitLoad { blocks } => Some(SimTrace::InitRead {
                runs: blocks.iter().map(|&(run, _)| run).collect(),
            }),
            TraceEvent::SchedRead { targets, flushed, .. } => Some(SimTrace::ParRead {
                targets: targets.iter().map(|t| (t.disk.0, t.run, t.idx)).collect(),
                flushed: flushed.iter().map(|f| (f.run, f.idx)).collect(),
            }),
            TraceEvent::Deplete { run, idx } => Some(SimTrace::Depleted { run: *run, idx: *idx }),
            _ => None,
        })
        .collect()
}

/// Write `runs` and merge them on the engine under a trace, require the
/// whole trace to be model-checker clean, and return the merge's
/// schedule counters with its projected event list.
fn engine_merge(geom: Geometry, runs: &[Vec<u64>], starts: &[u32]) -> (ScheduleStats, Vec<SimTrace>) {
    let mut array = TracingDiskArray::new(MemDiskArray::<U64Record>::new(geom));
    let handles: Vec<StripedRun> = runs
        .iter()
        .zip(starts)
        .map(|(keys, &s)| {
            let mut w = RunWriter::new(geom, DiskId(s));
            for &k in keys {
                w.push(&mut array, U64Record(k)).unwrap();
            }
            w.finish(&mut array).unwrap()
        })
        .collect();
    let stats = merge_runs(&mut array, &handles, DiskId(0)).unwrap().stats.schedule;
    let trace = array.take_trace();
    let summary = modelcheck::check_trace(geom, &trace)
        .unwrap_or_else(|v| panic!("engine merge violates the model: {v}"));
    assert_eq!(summary.merges, 1, "{summary:?}");
    (stats, project(&trace))
}

/// Merge `runs` on both the engine and the simulator; the schedules must
/// be identical event for event (and so in every counter).  Returns the
/// shared event list.
fn assert_same_schedule(d: usize, b: usize, runs: &[Vec<u64>], starts: &[u32], what: &str) -> Vec<SimTrace> {
    let geom = Geometry::new(d, b, 100_000_000).unwrap();
    let (engine_stats, engine_trace) = engine_merge(geom, runs, starts);
    let sim_input = SimInput {
        d,
        runs: runs
            .iter()
            .zip(starts)
            .map(|(keys, &s)| sim_run(keys, b, s))
            .collect(),
    };
    let (sim_stats, sim_trace) = MergeSim::run_traced(&sim_input).unwrap();
    if let Some(i) = engine_trace.iter().zip(&sim_trace).position(|(e, s)| e != s) {
        panic!(
            "schedule diverges at event {i} for {what}: engine {:?}, simulator {:?}",
            engine_trace[i], sim_trace[i]
        );
    }
    assert_eq!(engine_trace.len(), sim_trace.len(), "schedule length differs for {what}");
    assert_eq!(engine_stats, sim_stats.schedule, "schedule counters differ for {what}");
    sim_trace
}

fn compare(seed: u64, d: usize, b: usize, n_runs: usize, min_len: usize, max_len: usize) -> Vec<SimTrace> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let runs = random_distinct_runs(&mut rng, n_runs, min_len, max_len);
    let starts: Vec<u32> = (0..n_runs).map(|_| rng.random_range(0..d as u32)).collect();
    let what = format!("seed={seed} d={d} b={b} runs={n_runs} lens={min_len}..{max_len}");
    assert_same_schedule(d, b, &runs, &starts, &what)
}

#[test]
fn exact_equivalence_small_configs() {
    compare(1, 2, 2, 3, 4, 30);
    compare(2, 3, 4, 5, 10, 60);
    compare(3, 4, 3, 8, 20, 80);
    compare(4, 1, 4, 4, 5, 40); // single disk
}

#[test]
fn exact_equivalence_flush_heavy() {
    // k = R/D near 1 is where flushing actually happens (per the paper's
    // §9.3 discussion): per-disk minima drag far-future blocks into
    // memory, and urgent arrivals must evict them.
    compare(10, 8, 2, 8, 150, 250);
    compare(11, 10, 2, 10, 100, 200);
    compare(12, 6, 2, 3, 250, 350);
}

#[test]
fn exact_equivalence_same_start_disk() {
    // Adversarial layout: every run starts on disk 0.
    let mut rng = SmallRng::seed_from_u64(20);
    let runs = random_distinct_runs(&mut rng, 7, 20, 60);
    assert_same_schedule(3, 3, &runs, &[0u32; 7], "every run on disk 0");
}

#[test]
fn exact_equivalence_randomized_sweep() {
    for seed in 100..120 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = rng.random_range(1..=5);
        let b = rng.random_range(2..=6);
        let n_runs = rng.random_range(2..=10);
        compare(seed * 7, d, b, n_runs, 5, 70);
    }
}

#[test]
fn flushes_actually_occur_in_the_sweep() {
    // Guard against the equivalence being vacuous: the k = 1 configs must
    // exercise rule 2c (measured flush rates there are dozens per merge),
    // and the traces compared above must carry the flush victims.
    let any_flush = (0..5).any(|seed| {
        compare(seed, 8, 2, 8, 150, 250)
            .iter()
            .any(|e| matches!(e, SimTrace::ParRead { flushed, .. } if !flushed.is_empty()))
    });
    assert!(any_flush, "no configuration exercised flushing");
}
