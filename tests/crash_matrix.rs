//! Exhaustive crash-matrix: crash a checkpointed SRM sort at **every**
//! numbered I/O boundary, reboot, recover, and require byte-identical
//! sorted output — at the blocking window (the `serial_*` sweeps) and the
//! pipelined one, on mem and file backends, with and without parity.
//! Every recovery's own I/O trace is
//! replayed through the model checker, so a recovery that reads a frame
//! whose write never durably completed fails the suite even if its
//! output happens to be right.
//!
//! This is the proof behind `DESIGN.md`'s crash-consistency claim: the
//! checkpoint manifests are journaled (write-temp + fsync + rename with
//! generations), every snapshot is preceded by an `array.sync()`
//! durability barrier, and the engine quiesces split-phase tickets on
//! the way out — so no crash point, including torn parallel writes and a
//! crash *during* the manifest rename, can lose the sort.
//!
//! Point counts: the blocking sweeps number the same boundaries as the
//! pipelined ones since the engines were merged, because every scheduled
//! operation is now a `submit_*` followed by a `complete_*` at both
//! windows and the crash layer numbers each half (`srm crash-matrix
//! --records 600 --d 4 --b 4`: 810 points before, 1262 after — the count
//! `--pipeline` always had).  Nothing was renumbered at the pipelined
//! window.

use pdisk::Geometry;
use pdisk::U64Record;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_repro::crashmat::{dry_run, explore_point, run_matrix, Backend, MatrixConfig};

const D: usize = 4;
const B: usize = 4;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("srm-crashmat-{tag}-{}", std::process::id()))
}

fn data(records: usize) -> Vec<U64Record> {
    let mut rng = SmallRng::seed_from_u64(0xC4A5);
    (0..records).map(|_| U64Record(rng.random())).collect()
}

/// Small enough for an exhaustive sweep, big enough for two merge passes
/// (so the matrix covers inter-pass checkpoints, not just formation).
fn config(tag: &str, pipeline: bool, parity: bool, backend: Backend) -> MatrixConfig {
    MatrixConfig {
        geom: Geometry::new(D, B, 8 * D * B).unwrap(),
        seed: 0x5EED_C4A5,
        pipeline,
        // Pipelined sweeps run at read-ahead depth 3: every crash point
        // must recover cleanly with speculative backend reads in flight
        // and the full write-behind window torn.
        read_ahead: if pipeline { 3 } else { 0 },
        parity,
        backend,
        check_recovery: true,
        scratch: scratch(tag),
    }
}

fn sweep(tag: &str, pipeline: bool, parity: bool, backend: Backend) {
    let cfg = config(tag, pipeline, parity, backend);
    let input = data(600);
    let report = run_matrix(&cfg, &input, |_, _| {}).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert!(report.points > 0, "{tag}: dry run numbered no boundaries");
    assert!(
        report.resumed_from_checkpoint > 0,
        "{tag}: no crash point ever resumed from a checkpoint \
         ({} points, {} fresh restarts)",
        report.points,
        report.fresh_restarts
    );
    let _ = std::fs::remove_dir_all(&cfg.scratch);
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

/// Recovery is deterministic: the same crash point explored twice gives
/// the same output (and the harness already checks it equals the
/// baseline).  This is the "identical IoStats on resume" property at the
/// observable level — a recovery that took a different path would place
/// blocks differently and diverge.
#[test]
fn recovery_is_deterministic_at_a_fixed_crash_point() {
    let cfg = config("determinism", false, true, Backend::Mem);
    std::fs::create_dir_all(&cfg.scratch).unwrap();
    let input = data(600);
    let (points, baseline) = dry_run(&cfg, &input).unwrap();
    // A mid-sort boundary: far enough in to land after checkpoints exist.
    let k = points / 2;
    let (first, _) = explore_point(&cfg, &input, k).unwrap();
    let (second, _) = explore_point(&cfg, &input, k).unwrap();
    assert_eq!(first, second, "two recoveries from point {k} diverged");
    assert_eq!(first, baseline, "recovery from point {k} diverged from baseline");
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}

/// The crash vocabulary, pinned: the boundaries a dry run numbers for the
/// four mem configurations.  Every tick label of the crash layer
/// (`*-submit`/`*-submitted`/`*-complete`/`*-completed` for reads and
/// writes, `write-torn`, `sync`/`sync-done`), the parity layer's
/// `parity-update`/`parity-updated` and the pass driver's manifest ticks
/// feed these counts, so a layer that starts or stops ticking moves them.
/// No sweep: dry runs only.
///
/// The derivation: a read is a submit/complete pair, 4 boundaries; a
/// write of `n` frames is 4 plus `n − 1` `write-torn`s; each of the two
/// journaled snapshots (formation, pass 1) adds `sync`/`sync-done` and
/// the three manifest ticks; parity adds `parity-update`/`-updated` per
/// write.  The sort issues 109 reads and 102 writes of 402 blocks:
/// 4·109 + (3·102 + 402) + 2·5 = 1154, and parity 2·102 more, 1358.
///
/// They were 1290 / 1518 (122 reads, 114 writes of 450 blocks) while
/// pass 1 merged all 10 runs.  The pass plan (10 runs at R = 5 leave 5)
/// merges a group of 2 and one of 5, and the first 3 runs, 48 blocks,
/// wait: 12 fewer write stripes and 13 fewer reads, so 4·13 + 3·12 + 48
/// = 136 fewer boundaries, and parity 2·12 more.  Before that, 1274 /
/// 1502 while the crash layer numbered a blocking call `read`/`read-done`
/// (2 boundaries) instead of as the pair it is (4).
#[test]
fn dry_run_point_counts_are_pinned() {
    let input = data(600);
    for (tag, pipeline, parity, want) in [
        ("pin-serial-mem", false, false, 1154u64),
        ("pin-serial-mem-par", false, true, 1358),
        ("pin-pipe-mem", true, false, 1154),
        ("pin-pipe-mem-par", true, true, 1358),
    ] {
        let cfg = config(tag, pipeline, parity, Backend::Mem);
        std::fs::create_dir_all(&cfg.scratch).unwrap();
        let (points, _) = dry_run(&cfg, &input).unwrap_or_else(|e| panic!("{tag}: {e}"));
        let _ = std::fs::remove_dir_all(&cfg.scratch);
        assert_eq!(points, want, "{tag}: the dry run numbers {points} boundaries");
    }
}
