//! End-to-end drills for the distributed sort: the node-death matrix,
//! channel-fault runs, false suspicions, and parity rebuilds.
//!
//! The headline assertion, everywhere: the global output digest is
//! **byte-identical** to the failure-free run's (which itself matches
//! the centrally computed oracle), and every shard's finishing trace is
//! checker-clean.

use pdisk::{NetFault, NetFaultModel};
use srm_dist::{distsort, DistConfig, DistReport, KillPlan, KillPoint};
use srm_server::JobSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "srm-dist-{tag}-{}-{n}",
        std::process::id()
    ));
    if dir.exists() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    dir
}

fn spec() -> JobSpec {
    JobSpec {
        records: 6_000,
        seed: 0xD15_7A11,
        d: 3,
        b: 16,
        m: 512,
        ..JobSpec::default()
    }
}

fn run(tag: &str, cfg: &DistConfig) -> DistReport {
    run_spec(tag, &spec(), cfg)
}

fn run_spec(tag: &str, spec: &JobSpec, cfg: &DistConfig) -> DistReport {
    let dir = scratch(tag);
    let report = distsort(spec, cfg, &dir).expect("distsort failed");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn assert_clean(report: &DistReport, baseline_digest: u64) {
    assert_eq!(
        report.digest, baseline_digest,
        "global output must be byte-identical to the failure-free run"
    );
    assert!(report.oracle_ok, "digest must match the central oracle");
    assert_eq!(report.records, spec().records);
    for (s, shard) in report.per_shard.iter().enumerate() {
        assert!(shard.trace_clean, "shard {s} trace must be checker-clean");
    }
    assert_eq!(
        report.per_shard.iter().map(|s| s.records).sum::<u64>(),
        spec().records,
        "shard partitions must cover the input exactly"
    );
}

/// The failure-free digest for a given shard count (computed once per
/// P, reused by every drill in the matrix).
fn baseline(p: u32) -> u64 {
    let report = run("baseline", &DistConfig::new(p));
    assert!(report.oracle_ok, "baseline must match the oracle");
    assert_eq!(report.recoveries, 0, "baseline must not need recovery");
    report.digest
}

#[test]
fn failure_free_matches_oracle_across_shard_counts() {
    for p in [1, 2, 3, 5] {
        let report = run("ff", &DistConfig::new(p));
        assert!(report.oracle_ok, "P={p} digest mismatch");
        assert_eq!(report.records, spec().records);
        assert_eq!(report.shards, p);
        assert_eq!(report.splitters.len() as u32, p - 1);
        for shard in &report.per_shard {
            assert!(shard.trace_clean);
            assert_eq!(shard.recoveries, 0);
        }
    }
}

/// The node-death matrix: for P ∈ {2, 4}, kill each shard at each pass
/// boundary; the output must be byte-identical to the failure-free run
/// and the dead shard must have recovered exactly once.
#[test]
fn node_death_matrix_is_byte_identical() {
    for p in [2u32, 4] {
        let want = baseline(p);
        // This workload forms runs (pass 0) and needs at least one merge
        // pass (pass 1) on every shard; strike both boundaries.
        for pass in [0u64, 1] {
            for victim in 0..p {
                let mut cfg = DistConfig::new(p);
                cfg.kill = Some(KillPlan {
                    shard: victim,
                    point: KillPoint::Pass(pass),
                });
                let report = run("kill", &cfg);
                assert_clean(&report, want);
                assert!(
                    report.recoveries >= 1,
                    "P={p} kill {victim}@{pass}: the drill must cause a recovery"
                );
                assert!(
                    report.per_shard[victim as usize].recoveries >= 1,
                    "P={p} kill {victim}@{pass}: the victim must be the one recovered"
                );
                assert!(
                    !report.recovery_ms.is_empty(),
                    "recovery wall-clock must be measured"
                );
            }
        }
    }
}

/// Kill a shard while it serves the cross-shard output stream: the
/// stream must stall, the replacement must come back serving, and the
/// output must still be byte-identical.  `Merge(K)` dies with K windows
/// served; at m=512 a window is (512/2)/(3·16) = 5 stripes = 15 blocks,
/// so a ~188-block shard serves 13.
#[test]
fn merge_survives_a_serving_node_death() {
    let p = 2;
    let clean = run("mergekill-base", &DistConfig::new(p));
    assert!(clean.oracle_ok && clean.recoveries == 0);
    let windows = clean.per_shard[0].blocks.div_ceil(15);
    assert!(windows > 3, "the drill needs a few windows per shard, got {windows}");
    for (victim, served, what) in [
        (1, 2, "mid-run"),
        (0, windows - 1, "on the last window of a shard"),
        (1, 0, "on the next shard's first window, requested while shard 0's last drains"),
    ] {
        let mut cfg = DistConfig::new(p);
        cfg.kill = Some(KillPlan {
            shard: victim,
            point: KillPoint::Merge(served),
        });
        let report = run("mergekill", &cfg);
        assert_clean(&report, clean.digest);
        assert!(report.merge_stalls >= 1, "{what}: the stream must have stalled");
        assert!(report.per_shard[victim as usize].recoveries >= 1, "{what}");
    }
}

/// Every drill above runs the shards at `JobSpec`'s default window
/// (pipelined, read-ahead 3).  The explicit window-0 spec is the same
/// sort: same global digest, and per shard the same partition, run
/// length, passes and digest (the trace lengths may differ: `Promote`
/// annotations follow the window) — and it survives a death at a pass
/// boundary and one while serving.
#[test]
fn window_zero_shards_agree_with_the_default_and_survive_the_drills() {
    assert!(spec().pipeline && spec().read_ahead == 3, "the default spec is pipelined");
    let window0 = JobSpec { pipeline: false, read_ahead: 0, ..spec() };
    let p = 2;
    let want = run("w0-default", &DistConfig::new(p));
    let clean = run_spec("w0-clean", &window0, &DistConfig::new(p));
    assert_clean(&clean, want.digest);
    for (a, b) in clean.per_shard.iter().zip(&want.per_shard) {
        assert_eq!(
            (a.records, a.blocks, a.passes, a.digest),
            (b.records, b.blocks, b.passes, b.digest)
        );
    }
    for point in [KillPoint::Pass(1), KillPoint::Merge(2)] {
        let mut cfg = DistConfig::new(p);
        cfg.kill = Some(KillPlan { shard: 1, point });
        let report = run_spec("w0-kill", &window0, &cfg);
        assert_clean(&report, want.digest);
        assert!(report.per_shard[1].recoveries >= 1, "{point:?}: the victim must be recovered");
    }
}

/// Kill a shard during a channel partition that also separates the
/// coordinator from another shard — recovery under compound failure.
#[test]
fn node_death_mid_partition_is_byte_identical() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // Partition node 0 off for a window of global sends mid-protocol,
    // and kill shard 1 at its first merge-pass boundary.
    cfg.net = NetFaultModel::seeded(0xBAD1).partition(0, 40, 120);
    cfg.kill = Some(KillPlan {
        shard: 1,
        point: KillPoint::Pass(1),
    });
    let report = run("partkill", &cfg);
    assert_clean(&report, want);
    assert!(report.recoveries >= 1);
}

/// A lossy, delaying, duplicating channel — no kills — must still
/// produce the byte-identical output (false suspicions are allowed and
/// must be harmless thanks to fencing + epochs).  Window replies are
/// dropped, doubled and overtaken like everything else: a run that
/// returns at all never tripped the stream's order check, and the
/// digest shows each window was adopted exactly once, in sequence.
#[test]
fn channel_faults_never_corrupt_output() {
    let p = 3;
    let want = baseline(p);
    for seed in [0x5EED_CAFE, 0xD0_0B1E, 0x0DD_BA11] {
        let mut cfg = DistConfig::new(p);
        cfg.net = NetFaultModel::seeded(seed)
            .with_drop_rate(0.05)
            .with_dup_rate(0.10)
            .with_delay_rate(0.15)
            .with_max_delay(6);
        let report = run("lossy", &cfg);
        assert_clean(&report, want);
        assert!(
            report.net.dropped > 0 && report.net.duplicated > 0 && report.net.delayed > 0,
            "the fault model must actually have fired, got {:?}",
            report.net
        );
    }
}

/// A scripted drop of a staging batch exercises the stop-and-wait
/// retransmission path deterministically.
#[test]
fn scripted_staging_drop_is_retransmitted() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // Drop the first two coordinator→shard-0 messages (Hello's reply
    // traffic/staging batches), forcing retransmission.
    cfg.net = NetFaultModel::seeded(9)
        .script(2, 0, 0, NetFault::Drop)
        .script(2, 0, 1, NetFault::Drop);
    let report = run("script", &cfg);
    assert_clean(&report, want);
    assert!(report.net.dropped >= 2);
}

/// With `--parity`, corrupt one of the dead shard's disk files between
/// the kill and the recovery: the replacement must rebuild the lost
/// blocks from parity before resuming, and the output must still be
/// byte-identical.
#[test]
fn parity_rebuilds_a_corrupted_replacement_disk() {
    let p = 2;
    let mut base_cfg = DistConfig::new(p);
    base_cfg.parity = true;
    let want = {
        let r = run("parity-base", &base_cfg);
        assert!(r.oracle_ok);
        r.digest
    };

    let mut cfg = base_cfg.clone();
    cfg.kill = Some(KillPlan {
        shard: 0,
        point: KillPoint::Pass(1),
    });
    // The death also trashes the leading slots of disk 1 in the victim's
    // cluster before the replacement boots.
    cfg.corrupt_disk = Some(1);
    let report = run("parity-kill", &cfg);
    assert_clean(&report, want);
    assert!(report.per_shard[0].recoveries >= 1);
    assert!(
        report.per_shard[0].repaired >= 1,
        "the pre-resume scrub must have healed the trashed blocks, got {:?}",
        report.per_shard[0]
    );
}

#[test]
fn empty_shard_partitions_are_tolerated() {
    // A tiny input across many shards guarantees some empty buckets.
    let mut spec = spec();
    spec.records = 40;
    spec.m = 512;
    let dir = scratch("tiny");
    let report = distsort(&spec, &DistConfig::new(6), &dir).expect("distsort failed");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.oracle_ok);
    assert_eq!(report.records, 40);
}

/// The window size is derived from M; the output must not depend on
/// it.  The smallest M SRM accepts here (two-stripe windows), the
/// suite's 512 and a 4096 whose window swallows most of a shard all
/// agree.
#[test]
fn window_size_never_leaks_into_output() {
    let legal = |m: usize| JobSpec { m, ..spec() }.validate().is_ok();
    let smallest = (1..512).find(|&m| legal(m)).expect("some M below 512 is legal");
    let mut digests = Vec::new();
    for m in [smallest, 512, 4096] {
        let dir = scratch("msweep");
        let report = distsort(&JobSpec { m, ..spec() }, &DistConfig::new(3), &dir)
            .unwrap_or_else(|e| panic!("m={m}: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(report.oracle_ok, "m={m}");
        assert!(report.per_shard.iter().all(|s| s.trace_clean), "m={m}");
        digests.push(report.digest);
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:x?}");
}

#[test]
fn kill_spec_validation() {
    let mut cfg = DistConfig::new(2);
    cfg.kill = Some(KillPlan {
        shard: 7,
        point: KillPoint::Pass(0),
    });
    let dir = scratch("badkill");
    let err = distsort(&spec(), &cfg, &dir).unwrap_err();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(err.to_string().contains("out of range"), "{err}");
}

/// Drop a staging batch *and its retransmissions*: stop-and-wait must
/// keep re-offering the same batch until one copy lands, and the
/// output must be byte-identical.
#[test]
fn repeated_retransmission_loss_still_converges() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // Coordinator→shard-0 sends 0, 1, and 2 all vanish: the original
    // batch and its first two retransmissions.  The third retry lands.
    cfg.net = NetFaultModel::seeded(0x7E7A)
        .script(2, 0, 0, NetFault::Drop)
        .script(2, 0, 1, NetFault::Drop)
        .script(2, 0, 2, NetFault::Drop);
    let report = run("redrop", &cfg);
    assert_clean(&report, want);
    assert!(
        report.net.dropped >= 3,
        "all three scripted drops must fire, got {:?}",
        report.net
    );
}

/// Drop a StageAck for a batch the shard already applied: the
/// coordinator retransmits the batch, and the shard must take the
/// duplicate-of-applied-batch path and re-ack rather than re-apply.
#[test]
fn dropped_ack_forces_reack_not_reapply() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // Shard 0's send 0 to the coordinator is its Hello; send 1 is the
    // first StageAck.  Losing the ack (not the batch) means the batch
    // was applied — a re-delivery must not double-apply the keys.
    cfg.net = NetFaultModel::seeded(0xACC) .script(0, 2, 1, NetFault::Drop);
    let report = run("ackdrop", &cfg);
    assert_clean(&report, want);
    assert!(report.net.dropped >= 1, "{:?}", report.net);
}

/// Duplicate and delay copies of the same logical staging batch: with
/// the delayed original overtaken by its own retransmission (which is
/// itself duplicated), the same `seq` arrives three ways; dedup by
/// sequence number must keep exactly one application.
#[test]
fn duplicated_and_delayed_copies_of_one_batch_apply_once() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // Edge coordinator→shard-0: send 1 (a staging batch) is delayed
    // past the retransmission timeout, so send 2 is the same batch
    // again — and that retransmission is delivered twice.
    cfg.net = NetFaultModel::seeded(0xD0D0)
        .script(2, 0, 1, NetFault::Delay(6))
        .script(2, 0, 2, NetFault::Duplicate);
    let report = run("dupdelay", &cfg);
    assert_clean(&report, want);
    assert!(report.net.delayed >= 1, "{:?}", report.net);
    assert!(report.net.duplicated >= 1, "{:?}", report.net);
}

/// Partition the *coordinator* mid-heartbeat: beacons and acks die in
/// both directions for a window of sends, false suspicions may spawn
/// replacements, and after the window heals the sort must still finish
/// byte-identical (epoch fencing makes the suspicions harmless).
#[test]
fn coordinator_partition_heals_mid_heartbeat() {
    let p = 3;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // The coordinator is node P by convention; cut it off for a window
    // of global sends while shards are staging/heartbeating.  This
    // drill is about the partition *healing* (false-suspicion recovery
    // has its own drills above), so give the failure detector enough
    // patience that a loaded host can't turn the window into a
    // recovery storm before shard heartbeats close it.
    cfg.net = NetFaultModel::seeded(0x9A97).partition(p, 40, 110);
    cfg.timeout = std::time::Duration::from_millis(1500);
    cfg.max_recoveries = 64;
    let report = run("coordpart", &cfg);
    assert_clean(&report, want);
    assert!(
        report.net.dropped >= 1,
        "the partition window must have cut live traffic, got {:?}",
        report.net
    );
}
