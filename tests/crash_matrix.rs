//! Crash matrix: crash a checkpointed SRM sort at numbered I/O
//! boundaries, reboot, recover, and require the chaos oracle — sorted
//! output byte-identical to the failure-free result, a checker-clean
//! trace, no panic, no wedged recovery and no leaked files — at the
//! blocking window (the `serial_*` sweeps) and the pipelined one, on mem
//! and file backends, with and without parity.
//!
//! Each point is the one-event chaos schedule `[CrashAt { point: k }]`
//! run by `srm_chaos::local::crash_matrix`, the enumerator behind `srm
//! crash-matrix`, in that command's world: 600 records on D = 4, B = 4,
//! M = 128, seed `0xC4A5` for both the input and the placement.
//!
//! This is the proof behind `DESIGN.md`'s crash-consistency claim: the
//! checkpoint manifests are journaled (write-temp + fsync + rename with
//! generations), every snapshot is preceded by an `array.sync()`
//! durability barrier, and the engine quiesces split-phase tickets on
//! the way out — so no crash point, including torn parallel writes and a
//! crash *during* the manifest rename, can lose the sort.
//!
//! The sweeps here sample every [`EVERY`]-th boundary; CI's
//! `crash-matrix` job runs all six exhaustively through the CLI and
//! checks its counts.

use srm_chaos::local::{crash_matrix, dry_run};
use srm_chaos::{run_trial, Backend, CampaignConfig, ChaosEvent, Target};

/// The sampling stride: a prime, so the sample walks through every
/// residue of the boundary labels' short periods (a read is 4 ticks)
/// instead of landing on one label.
const EVERY: usize = 7;

/// The matrix's boundaries and its first point that resumes from a
/// checkpoint (every earlier one restarts fresh), plain and with parity.
const PLAIN: (u64, u64) = (1292, 420);
const PARITY: (u64, u64) = (1496, 496);

fn config(tag: &str, pipeline: bool, parity: bool, backend: Backend) -> CampaignConfig {
    let scratch = std::env::temp_dir().join(format!("srm-crashmat-{tag}-{}", std::process::id()));
    let mut cfg = CampaignConfig::new(Target::Local, 0, scratch);
    // Small enough for an exhaustive sweep, big enough for two merge
    // passes (so the matrix covers inter-pass checkpoints, not just
    // formation).
    cfg.records = 600;
    (cfg.d, cfg.b, cfg.m) = (4, 4, 128);
    cfg.sort_seed = 0xC4A5;
    cfg.pipeline = pipeline;
    // Pipelined sweeps run at read-ahead depth 3: every crash point
    // must recover cleanly with speculative backend reads in flight and
    // the full write-behind window torn.
    cfg.read_ahead = if pipeline { 3 } else { 0 };
    cfg.parity = parity;
    cfg.backend = backend;
    cfg
}

fn sweep(tag: &str, pipeline: bool, parity: bool, backend: Backend) {
    let cfg = config(tag, pipeline, parity, backend);
    let report = crash_matrix(&cfg, EVERY, |_, _| {}).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let (points, first_resumed) = if parity { PARITY } else { PLAIN };
    assert_eq!(report.points, points, "{tag}: the dry run numbers {} boundaries", report.points);
    assert!(report.resumed > 0, "{tag}: no crash point ever resumed from a checkpoint");
    assert!(report.fresh > 0, "{tag}: no crash point struck before the first checkpoint");
    // The sampled points below the first resuming one are the fresh ones.
    assert_eq!(
        report.fresh,
        first_resumed.div_ceil(EVERY as u64),
        "{tag}: {} of {} sampled points restarted fresh",
        report.fresh,
        report.explored
    );
}

#[test]
fn serial_mem_plain_recovers_from_every_crash_point() {
    sweep("serial-mem", false, false, Backend::Mem);
}

#[test]
fn serial_mem_parity_recovers_from_every_crash_point() {
    sweep("serial-mem-par", false, true, Backend::Mem);
}

#[test]
fn pipelined_mem_plain_recovers_from_every_crash_point() {
    sweep("pipe-mem", true, false, Backend::Mem);
}

#[test]
fn pipelined_mem_parity_recovers_from_every_crash_point() {
    sweep("pipe-mem-par", true, true, Backend::Mem);
}

/// File-backend sweeps exercise real fsync barriers, DirLock handoff,
/// and torn-frame detection on reopen.  The file worlds are much slower
/// per point, so only two of the four configurations run on them.
#[test]
fn serial_file_plain_recovers_from_every_crash_point() {
    sweep("serial-file", false, false, Backend::File);
}

#[test]
fn pipelined_file_parity_recovers_from_every_crash_point() {
    sweep("pipe-file-par", true, true, Backend::File);
}

/// Recovery is deterministic: the same crash point explored twice takes
/// the same path (and the oracle already checks its output).  This is
/// the "identical IoStats on resume" property at the observable level.
#[test]
fn recovery_is_deterministic_at_a_fixed_crash_point() {
    let cfg = config("determinism", false, true, Backend::Mem);
    std::fs::create_dir_all(&cfg.scratch).unwrap();
    // A mid-sort boundary: far enough in to land after checkpoints exist.
    let k = dry_run(&cfg).unwrap().points / 2;
    let crash = [ChaosEvent::CrashAt { point: k }];
    let dir = cfg.scratch.join("t");
    let [first, second] = [0, 1].map(|_| run_trial(&cfg, &crash, &dir).unwrap());
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    for outcome in [&first, &second] {
        assert_eq!(outcome.violation, None, "recovery from point {k}");
    }
    assert_eq!(
        (first.attempts, first.resumed),
        (second.attempts, second.resumed),
        "two recoveries from point {k} diverged"
    );
    assert_eq!(first.resumed, 1, "point {k} lies after the first checkpoint");
}

/// The crash vocabulary, pinned: the boundaries a dry run numbers for the
/// four mem configurations, over the whole durable sort.  Every tick
/// label of the crash layer (`*-submit`/`*-submitted`/`*-complete`/
/// `*-completed` for reads and writes, `write-torn`, `sync`/`sync-done`),
/// the parity layer's `parity-update`/`parity-updated` and the pass
/// driver's manifest ticks feed these counts, so a layer that starts or
/// stops ticking moves them.  No sweep: dry runs only.
///
/// The derivation: a read is a submit/complete pair, 4 boundaries; a
/// write of `n` frames is 4 plus `n − 1` `write-torn`s; each of the two
/// journaled snapshots (formation, pass 1) adds `sync`/`sync-done` and
/// the three manifest ticks; parity adds `parity-update`/`-updated` per
/// write.  The sort issues 105 reads and 102 writes of 402 blocks:
/// 4·105 + (3·102 + 402) + 2·5 = 1138 at its last boundary, and parity
/// 2·102 more, 1342.  Then the output's `sync`/`sync-done` (2) and its
/// read-back, ⌈150 / 4⌉ = 38 stripe reads (152): 1292, and 1496.
/// The writes and blocks follow from the pass plan alone; the reads
/// depend on where the seed's random placement puts the blocks.
#[test]
fn dry_run_point_counts_are_pinned() {
    for (tag, pipeline, parity, want) in [
        ("pin-serial-mem", false, false, PLAIN.0),
        ("pin-serial-mem-par", false, true, PARITY.0),
        ("pin-pipe-mem", true, false, PLAIN.0),
        ("pin-pipe-mem-par", true, true, PARITY.0),
    ] {
        let cfg = config(tag, pipeline, parity, Backend::Mem);
        std::fs::create_dir_all(&cfg.scratch).unwrap();
        let points = dry_run(&cfg).unwrap_or_else(|e| panic!("{tag}: {e}")).points;
        let _ = std::fs::remove_dir_all(&cfg.scratch);
        assert_eq!(points, want, "{tag}: the dry run numbers {points} boundaries");
    }
}

/// The resumed/fresh split `srm crash-matrix` prints — 872 / 420 plain,
/// 1000 / 496 with parity — pinned where it splits.  A crash before the
/// first manifest generation is renamed into place finds no checkpoint
/// and restarts fresh; every later one finds it (or its `.prev`), up to
/// the last boundary the durable sort numbers: the output's `sync`, its
/// read-back and the checks all come before `done` is published and the
/// manifest retired.  So the fresh count is the first resuming point.  A
/// crash point past the count never fires.
#[test]
fn resumed_fresh_splits_are_pinned() {
    for (tag, parity, (points, first_resumed)) in [("split", false, PLAIN), ("split-par", true, PARITY)] {
        let cfg = config(tag, false, parity, Backend::Mem);
        std::fs::create_dir_all(&cfg.scratch).unwrap();
        let dir = cfg.scratch.join("t");
        for (k, resumes) in [
            (first_resumed - 1, false),
            (first_resumed, true),
            (points - 1, true),
            (points, false),
        ] {
            let outcome = run_trial(&cfg, &[ChaosEvent::CrashAt { point: k }], &dir).unwrap();
            assert_eq!(outcome.violation, None, "{tag}: crash point {k}");
            assert_eq!(outcome.resumed > 0, resumes, "{tag}: crash point {k}");
            assert_eq!(outcome.attempts, if k < points { 2 } else { 1 }, "{tag}: crash point {k}");
        }
        let _ = std::fs::remove_dir_all(&cfg.scratch);
    }
}
