//! **Distributed-sort scaling benchmark** — wall-clock of `distsort`
//! across shard counts P = 1, 2, 4, 8 on the same input, plus the
//! recovery drill: how much a mid-sort node death (fence, respawn,
//! checkpoint resume) costs end to end.  Writes `BENCH_distsort.json`
//! at the repo root.
//!
//! ```text
//! cargo run -p bench --release --bin distsort_bench [-- --quick]
//!     [--out PATH] [--seed N] [--reps N] [--assert-scaling]
//! ```
//!
//! Shard counts are interleaved and each is timed as the minimum of
//! `--reps` runs (default 3), which filters host scheduling noise.  A
//! per-block service delay puts genuine I/O latency on every shard's
//! private disk cluster, so the shards have real waiting to overlap —
//! with a zero-cost disk the coordinator's splitter scan dominates and
//! P changes nothing.  Every run's digest is checked against the
//! centrally sorted oracle, and every P must produce the *same*
//! digest (the global output does not depend on the partitioning).
//!
//! Each P's row also carries the coordinator's phase split
//! (`phase_ms`: split, shards, merge, merge_wait) of its fastest rep,
//! and under it what each shard's incarnation spent staging, sorting,
//! verifying and model-checking (`shard_ms`, one entry per shard).
//!
//! `--assert-scaling` exits non-zero unless wall-clock improves
//! monotonically from P=1 through P=4 *and* P=4 reaches the measured
//! speedup floor over P=1: 2.1x, and 1.75x for the small `--quick`
//! input, whose fixed costs weigh more.  The floors sit 11–12 % under
//! the slowest of six full (2.38–2.63x) and ten `--quick`
//! (1.97–2.23x) runs on the 2-core build host.  They are lower than
//! the 2.5x / 2.0x held while shards sorted at window 0 because a
//! split-phase shard made P=1 2.4x faster (2.55 s → 1.01–1.12 s) while
//! the output stream, already at its device floor, stayed ≈ 0.13 s of
//! every P — the same absolute saving leaves a smaller ratio.  At
//! `--quick` size a P=2 and a P=4 run both sit on per-shard fixed costs
//! (60 and 60–61 ms in all ten runs), so there the P=2 → 4 step may
//! tie within 5 % instead of having to improve.  P=8 typically
//! oversubscribes CI hosts and is reported but not gated.
//!
//! The recovery drill reruns P ∈ {2, 4} with `--kill-node` at the
//! first merge-pass boundary and reports both the end-to-end overhead
//! against the clean run and the fence-to-replacement-ready time the
//! coordinator measured.

use srm_dist::{distsort, DistConfig, DistReport, KillPlan, KillPoint, PhaseMs, ShardMs};
use srm_server::JobSpec;
use std::path::PathBuf;
use std::time::Duration;

/// One shard-count measurement (min over reps).
struct Scale {
    shards: u32,
    elapsed_ms: u64,
    digest: u64,
    /// Phase split of the fastest rep.
    phase_ms: PhaseMs,
    /// Each shard's own phases in that rep.
    shard_ms: Vec<ShardMs>,
}

fn shard_ms(report: &DistReport) -> Vec<ShardMs> {
    report.per_shard.iter().map(|s| s.ms).collect()
}

/// One kill-drill measurement.
struct Recovery {
    shards: u32,
    clean_ms: u64,
    killed_ms: u64,
    recovery_ms: u64,
    recoveries: u64,
}

fn main() {
    let mut quick = false;
    let mut out_path: Option<PathBuf> = None;
    let mut seed: u64 = 0xD157_BE4C;
    let mut reps: usize = 3;
    let mut assert_scaling = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--assert-scaling" => assert_scaling = true,
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
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_distsort.json")
    });

    // One shard's cluster is d disks of b-record blocks; every shard
    // sees only its bucket, so per-shard work shrinks with P while the
    // service delay keeps each block honest.
    let (records, io_delay_us) = if quick { (20_000u64, 20u64) } else { (120_000, 40) };
    let spec = JobSpec {
        records,
        seed,
        d: 3,
        b: 16,
        m: 1024,
        ..JobSpec::default()
    };
    let delay = Duration::from_micros(io_delay_us);
    let shard_counts: &[u32] = &[1, 2, 4, 8];

    println!("# Distributed sort: wall-clock vs shard count\n");
    println!(
        "({} records, d={} b={} m={} per shard, {}us/block, min of {} reps)\n",
        records, spec.d, spec.b, spec.m, io_delay_us, reps
    );
    println!(
        "| P | wall-clock | speedup vs P=1 | efficiency | split / shards / merge (waiting) ms \
         | slowest shard: stage / sort / verify / check ms |"
    );
    println!("|---|---|---|---|---|---|");

    // Interleave shard counts across reps (round-robin, not P-at-a-
    // time) so slow drift in host load cannot favor one P.
    let mut best: Vec<Option<Scale>> = shard_counts.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (i, &p) in shard_counts.iter().enumerate() {
            let report = run_clean(&spec, p, delay);
            let slot = &mut best[i];
            match slot {
                Some(prev) => {
                    assert_eq!(
                        prev.digest, report.digest,
                        "P={p} digest unstable across reps"
                    );
                    if report.elapsed_ms < prev.elapsed_ms {
                        prev.elapsed_ms = report.elapsed_ms;
                        prev.phase_ms = report.phase_ms;
                        prev.shard_ms = shard_ms(&report);
                    }
                }
                None => {
                    *slot = Some(Scale {
                        shards: p,
                        elapsed_ms: report.elapsed_ms,
                        digest: report.digest,
                        phase_ms: report.phase_ms,
                        shard_ms: shard_ms(&report),
                    })
                }
            }
        }
    }
    let scales: Vec<Scale> = best.into_iter().map(|s| s.expect("measured")).collect();
    for s in &scales {
        assert_eq!(
            s.digest, scales[0].digest,
            "the global output must not depend on the partitioning"
        );
    }

    let t1 = scales[0].elapsed_ms.max(1) as f64;
    for s in &scales {
        let speedup = t1 / s.elapsed_ms.max(1) as f64;
        let ph = s.phase_ms;
        let slowest = |f: fn(&ShardMs) -> u64| s.shard_ms.iter().map(f).max().unwrap_or(0);
        println!(
            "| {} | {}ms | {:.2}x | {:.0}% | {} / {} / {} ({}) | {} / {} / {} / {} |",
            s.shards,
            s.elapsed_ms,
            speedup,
            100.0 * speedup / f64::from(s.shards),
            ph.split,
            ph.shards,
            ph.merge,
            ph.merge_wait,
            slowest(|m| m.stage),
            slowest(|m| m.sort),
            slowest(|m| m.verify),
            slowest(|m| m.check),
        );
    }

    // The recovery drill: same workload, kill one shard at its first
    // merge-pass boundary, measure the end-to-end cost of the fence +
    // respawn + checkpoint resume.
    println!("\n## Recovery after a node death (kill at pass 1)\n");
    println!("| P | clean | with kill | overhead | fence-to-ready |");
    println!("|---|---|---|---|---|");
    let mut recoveries: Vec<Recovery> = Vec::new();
    for &p in &[2u32, 4] {
        let clean_ms = scales
            .iter()
            .find(|s| s.shards == p)
            .expect("P measured above")
            .elapsed_ms;
        let mut killed: Option<DistReport> = None;
        for _ in 0..reps {
            let mut cfg = config(p, delay);
            cfg.kill = Some(KillPlan {
                shard: p - 1,
                point: KillPoint::Pass(1),
            });
            let report = run_one(&spec, cfg, p, "kill");
            assert_eq!(report.digest, scales[0].digest, "kill run digest diverged");
            assert!(report.recoveries >= 1, "the drill must cause a recovery");
            killed = Some(match killed.take() {
                Some(prev) if prev.elapsed_ms <= report.elapsed_ms => prev,
                _ => report,
            });
        }
        let killed = killed.expect("measured");
        let fence_to_ready = killed.recovery_ms.iter().copied().max().unwrap_or(0);
        println!(
            "| {} | {}ms | {}ms | +{}ms | {}ms |",
            p,
            clean_ms,
            killed.elapsed_ms,
            killed.elapsed_ms.saturating_sub(clean_ms),
            fence_to_ready
        );
        recoveries.push(Recovery {
            shards: p,
            clean_ms,
            killed_ms: killed.elapsed_ms,
            recovery_ms: fence_to_ready,
            recoveries: killed.recoveries,
        });
    }

    let json = render_json(&spec, io_delay_us, quick, reps, &scales, &recoveries);
    std::fs::write(&out_path, json).expect("write BENCH_distsort.json");
    println!("\nwrote {}", out_path.display());

    if assert_scaling {
        for pair in scales[..3].windows(2) {
            let tie_ms = if quick && pair[0].shards > 1 { pair[0].elapsed_ms / 20 } else { 0 };
            assert!(
                pair[1].elapsed_ms < pair[0].elapsed_ms + tie_ms,
                "wall-clock must improve monotonically P={} ({}ms) -> P={} ({}ms)",
                pair[0].shards,
                pair[0].elapsed_ms,
                pair[1].shards,
                pair[1].elapsed_ms
            );
        }
        let floor = if quick { 1.75 } else { 2.1 };
        let speedup = t1 / scales[2].elapsed_ms.max(1) as f64;
        assert!(
            speedup >= floor,
            "P=4 speedup {speedup:.2}x is under the {floor}x floor"
        );
        println!("scaling gate: P=1 -> 2 -> 4 monotone, P=4 at {speedup:.2}x >= {floor}x ok");
    }
}

fn config(shards: u32, delay: Duration) -> DistConfig {
    let mut cfg = DistConfig::new(shards);
    cfg.io_delay = delay;
    cfg
}

fn run_clean(spec: &JobSpec, shards: u32, delay: Duration) -> DistReport {
    run_one(spec, config(shards, delay), shards, "clean")
}

fn run_one(spec: &JobSpec, cfg: DistConfig, shards: u32, tag: &str) -> DistReport {
    let dir = std::env::temp_dir().join(format!(
        "srm-distbench-{}-{tag}-{shards}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let report = distsort(spec, &cfg, &dir).expect("distsort failed");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.oracle_ok, "P={shards} digest must match the oracle");
    for (s, shard) in report.per_shard.iter().enumerate() {
        assert!(shard.trace_clean, "P={shards} shard {s} trace dirty");
    }
    report
}

/// Hand-rolled JSON (the bench crate carries no serde).
fn render_json(
    spec: &JobSpec,
    io_delay_us: u64,
    quick: bool,
    reps: usize,
    scales: &[Scale],
    recoveries: &[Recovery],
) -> String {
    let t1 = scales[0].elapsed_ms.max(1) as f64;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"distsort\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!(
        "  \"records\": {}, \"d\": {}, \"b\": {}, \"m\": {}, \"io_delay_us\": {},\n",
        spec.records, spec.d, spec.b, spec.m, io_delay_us
    ));
    s.push_str(&format!("  \"digest\": \"{:#018x}\",\n", scales[0].digest));
    s.push_str("  \"scaling\": [\n");
    for (i, sc) in scales.iter().enumerate() {
        let speedup = t1 / sc.elapsed_ms.max(1) as f64;
        let per_shard = |f: fn(&ShardMs) -> u64| {
            let ms: Vec<String> = sc.shard_ms.iter().map(|m| f(m).to_string()).collect();
            ms.join(", ")
        };
        s.push_str(&format!(
            "    {{\"shards\": {}, \"elapsed_ms\": {}, \"speedup\": {:.4}, \
             \"efficiency\": {:.4}, \"phase_ms\": {{\"split\": {}, \"shards\": {}, \
             \"merge\": {}, \"merge_wait\": {}}},\n     \"shard_ms\": {{\"stage\": [{}], \
             \"sort\": [{}], \"verify\": [{}], \"check\": [{}]}}}}{}\n",
            sc.shards,
            sc.elapsed_ms,
            speedup,
            speedup / f64::from(sc.shards),
            sc.phase_ms.split,
            sc.phase_ms.shards,
            sc.phase_ms.merge,
            sc.phase_ms.merge_wait,
            per_shard(|m| m.stage),
            per_shard(|m| m.sort),
            per_shard(|m| m.verify),
            per_shard(|m| m.check),
            if i + 1 == scales.len() { "" } else { "," },
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"recovery\": [\n");
    for (i, r) in recoveries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"shards\": {}, \"clean_ms\": {}, \"killed_ms\": {}, \
             \"overhead_ms\": {}, \"fence_to_ready_ms\": {}, \"recoveries\": {}}}{}\n",
            r.shards,
            r.clean_ms,
            r.killed_ms,
            r.killed_ms.saturating_sub(r.clean_ms),
            r.recovery_ms,
            r.recoveries,
            if i + 1 == recoveries.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
