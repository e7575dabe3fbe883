//! End-to-end drills for the distributed sort: the node-death matrix,
//! channel-fault runs, false suspicions, and parity rebuilds.
//!
//! The headline assertion, everywhere: the global output digest is
//! **byte-identical** to the failure-free run's (which itself matches
//! the centrally computed oracle), and every shard's finishing trace is
//! checker-clean.

use pdisk::{NetFault, NetFaultModel};
use srm_dist::{distsort, parse_kill_node, DistConfig, DistError, DistReport, KillPlan, KillPoint};
use srm_core::RunFormation;
use srm_server::JobSpec;
use std::path::PathBuf;
use std::time::Duration;
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
    assert!(!dir.join("global").exists(), "the shards' runs are the output; nothing gathers a copy");
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
                assert_eq!(
                    report.recovery_ms.len() as u64,
                    report.recoveries,
                    "every recovery's wall-clock must be measured"
                );
            }
        }
    }
}

/// Cut one shard off for a window of sends a few detector timeouts
/// long: it is replaced, and its replacement, cut off too, is replaced
/// before it could ever report, so the second recovery supersedes the
/// first.  Every recovery, the superseded one included, is timed on its
/// own.  The timeout is many times a shard's sort, so every victim is a
/// done shard, which writes nothing.
#[test]
fn a_shard_recovered_twice_times_every_recovery() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    cfg.heartbeat = Duration::from_millis(100);
    cfg.timeout = Duration::from_secs(1);
    cfg.max_recoveries = 64;
    // Sends run at about 25 a second here, so the window stays shut for
    // about 3.5 s: two or three recoveries of shard 1, a second apart.
    cfg.net = NetFaultModel::seeded(0x2EC0).partition(1, 2, 90);
    let report = run("twice", &cfg);
    assert_clean(&report, want);
    assert!(report.per_shard[1].recoveries >= 2, "the cut-off shard must be replaced twice: {:?}", report.per_shard[1]);
    assert_eq!(report.recovery_ms.len() as u64, report.recoveries, "{:?}", report.recovery_ms);
}

/// Kill a shard when its fold request arrives, before it answers: the
/// chain must stall, the replacement must boot on the finished
/// directory, read its keys back and fold them, and the output must
/// still be byte-identical.  Each place in the chain is drilled: the
/// first shard (the carry is fresh), the middle and the last.
#[test]
fn merge_survives_a_serving_node_death() {
    let p = 3;
    let want = baseline(p);
    for (victim, what) in [(0, "first in the chain"), (1, "middle"), (2, "last")] {
        let mut cfg = DistConfig::new(p);
        cfg.kill = Some(KillPlan { shard: victim, point: KillPoint::Merge });
        let report = run("mergekill", &cfg);
        assert_clean(&report, want);
        assert!(report.merge_stalls >= 1, "{what}: the fold must have stalled");
        assert!(report.per_shard[victim as usize].recoveries >= 1, "{what}: the victim must be recovered");
    }
}

/// On a modelled device the shards form their runs by replacement
/// selection (the rule picks it for these 3 000-record shards), and a
/// shard killed after formation, or on its fold request, recovers
/// byte-identical: every incarnation forms its runs the same way.
#[test]
fn rs_shards_on_a_device_survive_the_kill_drills() {
    let p = 2;
    let want = baseline(p);
    let mut device = DistConfig::new(p);
    device.io_delay = Duration::from_micros(20);
    let clean = run("rs-clean", &device);
    assert_clean(&clean, want);
    for shard in &clean.per_shard {
        assert_eq!(shard.formation, RunFormation::ReplacementSelection);
    }
    for point in [KillPoint::Pass(0), KillPoint::Merge] {
        let mut cfg = device.clone();
        cfg.kill = Some(KillPlan { shard: 1, point });
        let report = run("rs-kill", &cfg);
        assert_clean(&report, want);
        assert!(report.per_shard[1].recoveries >= 1, "{point:?}: the victim must be recovered");
        for (a, b) in report.per_shard.iter().zip(&clean.per_shard) {
            assert_eq!((a.formation, a.blocks, a.passes, a.digest), (b.formation, b.blocks, b.passes, b.digest));
        }
    }
}

/// `dist_p4`'s spec (srmbench's and CI's: 120k records over 4 shards on
/// a 40 us/block device).  A shard forms its runs from the partition it
/// derives, so its pass-0 manifest is its first durable state: one
/// killed at pass 0, before that manifest, derives its partition again
/// and re-forms its runs on a fresh cluster (its finishing trace is the
/// failure-free one); one killed at pass 1 derives it again and resumes
/// from the manifest without a second pass-0 boundary (its trace holds
/// no formation).  Both end on the spec's pinned digest and partitions.
#[test]
fn dist_p4_recovers_on_either_side_of_the_pass_0_manifest() {
    let spec = JobSpec { records: 120_000, seed: 0xC11_5EED, d: 3, b: 16, m: 1024, ..JobSpec::default() };
    let mut device = DistConfig::new(4);
    device.io_delay = Duration::from_micros(40);
    let clean = run_spec("p4-clean", &spec, &device);
    assert_eq!(clean.digest, 0x7a6d_4366_c4ee_86da);
    let records: Vec<u64> = clean.per_shard.iter().map(|s| s.records).collect();
    assert_eq!(records, [31_091, 27_494, 30_273, 31_142]);
    for pass in [0, 1] {
        let mut cfg = device.clone();
        cfg.kill = Some(KillPlan { shard: 1, point: KillPoint::Pass(pass) });
        let report = run_spec("p4-kill", &spec, &cfg);
        assert!(report.oracle_ok);
        assert_eq!(report.digest, 0x7a6d_4366_c4ee_86da, "S@{pass}");
        let (victim, want) = (&report.per_shard[1], &clean.per_shard[1]);
        assert_eq!(victim.recoveries, 1, "S@{pass}");
        assert!(victim.trace_clean);
        assert_eq!((victim.records, victim.blocks, victim.passes), (want.records, want.blocks, want.passes));
        if pass == 0 {
            assert_eq!(victim.trace_events, want.trace_events, "S@0 re-formed its runs");
        } else {
            assert!(victim.trace_events < want.trace_events, "S@1 resumed past formation");
        }
    }
}

/// Every drill above runs the shards at `JobSpec`'s default window
/// (pipelined, read-ahead 3).  The explicit window-0 spec is the same
/// sort: same global digest, and per shard the same partition, run
/// length, passes and digest (the trace lengths may differ: `Promote`
/// annotations follow the window) — and it survives a death at a pass
/// boundary and one on its fold request.
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
    for point in [KillPoint::Pass(1), KillPoint::Merge] {
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
/// must be harmless thanks to fencing + epochs).  Fold requests and
/// replies are dropped, doubled and overtaken like everything else: a
/// run that returns at all never tripped the fold's order check, and
/// the digest shows each shard's fold was adopted exactly once, in
/// sequence.  A run makes only about 20 sends, so the seeded rates
/// alone may miss a fault class; each class is also scripted onto the
/// coordinator's first send to a shard — its fold request, which every
/// run sends to each of these non-empty shards.
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
            .with_max_delay(6)
            .script(p, 0, 0, NetFault::Drop)
            .script(p, 1, 0, NetFault::Duplicate)
            .script(p, 2, 0, NetFault::Delay(3));
        let report = run("lossy", &cfg);
        assert_clean(&report, want);
        assert!(
            report.net.dropped > 0 && report.net.duplicated > 0 && report.net.delayed > 0,
            "the fault model must actually have fired, got {:?}",
            report.net
        );
    }
}

/// A scripted drop of a fold request exercises the retransmission path
/// deterministically: the coordinator's first send to shard 0 is its
/// fold request, and the second its first resend.
#[test]
fn scripted_fold_request_drop_is_retransmitted() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    cfg.net = NetFaultModel::seeded(9)
        .script(2, 0, 0, NetFault::Drop)
        .script(2, 0, 1, NetFault::Drop);
    let report = run("script", &cfg);
    assert_clean(&report, want);
    assert_eq!(report.net.dropped, 2, "{:?}", report.net);
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

/// The shards' memory M sets their merge order and pass count; the
/// output must not depend on it.  The smallest M SRM accepts here, the
/// suite's 512 and a 4096 that merges a shard's runs in fewer passes
/// all agree.
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

    let plan = parse_kill_node("1@merge").unwrap();
    assert_eq!((plan.shard, plan.point), (1, KillPoint::Merge));
    assert_eq!(parse_kill_node("0@2").unwrap().point, KillPoint::Pass(2));
    // A shard answers exactly one fold request, so there is no K-th.
    match parse_kill_node("1@merge:2") {
        Err(DistError::Config(msg)) => assert!(msg.contains("one fold request"), "{msg}"),
        other => panic!("want a config error, got {other:?}"),
    }
    assert!(matches!(parse_kill_node("1@merged"), Err(DistError::Config(_))));
}

/// `--corrupt-disk D` names a disk of every shard's cluster: one the
/// spec's `D` does not have is refused before any shard starts, so no
/// shard directory is left behind.
#[test]
fn an_out_of_range_corrupt_disk_is_refused_before_any_shard_starts() {
    let mut cfg = DistConfig::new(2);
    cfg.parity = true;
    cfg.kill = Some(KillPlan { shard: 0, point: KillPoint::Pass(1) });
    cfg.corrupt_disk = Some(spec().d);
    let dir = scratch("baddisk");
    let err = distsort(&spec(), &cfg, &dir).unwrap_err();
    let shard_dirs = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    match err {
        DistError::Config(msg) => assert!(msg.contains("--corrupt-disk 3 out of range"), "{msg}"),
        other => panic!("want a config error, got {other}"),
    }
    assert_eq!(shard_dirs, 0);
}

/// Drop a fold request *and its retransmissions*: the coordinator must
/// keep re-asking until one copy lands, and the output must be
/// byte-identical.
#[test]
fn repeated_retransmission_loss_still_converges() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // Coordinator→shard-0 sends 0, 1, and 2 all vanish: the fold request
    // and its first two retransmissions.  The third retry lands.
    cfg.net = NetFaultModel::seeded(0x7E7A)
        .script(2, 0, 0, NetFault::Drop)
        .script(2, 0, 1, NetFault::Drop)
        .script(2, 0, 2, NetFault::Drop);
    let report = run("redrop", &cfg);
    assert_clean(&report, want);
    assert_eq!(report.net.dropped, 3, "all three scripted drops must fire, got {:?}", report.net);
}

/// Drop shard 0's fold reply: the shard has folded, the coordinator
/// never heard, so it asks again and the shard must fold again from its
/// held run (the fold is pure), the carry advancing once.  The reply's
/// place on the shard's edge is fixed once heartbeats are slower than
/// the sort: one boot heartbeat, a `Pass` per boundary (formation and
/// each merge pass), `SortDone`, then the reply.
#[test]
fn dropped_fold_reply_forces_a_refold_not_a_readopt() {
    let p = 2;
    let clean = run("reply-clean", &DistConfig::new(p));
    let mut cfg = DistConfig::new(p);
    cfg.heartbeat = Duration::from_millis(500);
    cfg.timeout = Duration::from_secs(10);
    let reply = 1 + (clean.per_shard[0].passes + 1) + 1;
    cfg.net = NetFaultModel::seeded(0xACC).script(0, 2, reply, NetFault::Drop);
    let report = run("replydrop", &cfg);
    assert_clean(&report, clean.digest);
    assert_eq!((report.net.dropped, report.recoveries), (1, 0), "{:?}", report.net);
}

/// Duplicate and delay copies of one fold request: with the delayed
/// original overtaken by its own retransmission (which is itself
/// duplicated), the request arrives three ways and the shard answers
/// each; the chain must adopt exactly one reply.
#[test]
fn duplicated_and_delayed_copies_of_one_fold_request_adopt_once() {
    let p = 2;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // Edge coordinator→shard-0: send 0 (shard 0's fold request) is
    // delayed 24 global sends — heartbeats at 15 ms from two shards
    // take longer than the 80 ms RPC timeout to make them — so send 1
    // is the same request again, and that retransmission is delivered
    // twice.
    cfg.net = NetFaultModel::seeded(0xD0D0)
        .script(2, 0, 0, NetFault::Delay(24))
        .script(2, 0, 1, NetFault::Duplicate);
    let report = run("dupdelay", &cfg);
    assert_clean(&report, want);
    assert!(report.net.delayed >= 1, "{:?}", report.net);
    assert!(report.net.duplicated >= 1, "{:?}", report.net);
}

/// Partition the *coordinator* mid-heartbeat: beacons, `SortDone`s and
/// fold traffic die in both directions for a window of sends, false
/// suspicions may spawn replacements, and after the window heals the
/// sort must still finish byte-identical (epoch fencing makes the
/// suspicions harmless).
#[test]
fn coordinator_partition_heals_mid_heartbeat() {
    let p = 3;
    let want = baseline(p);
    let mut cfg = DistConfig::new(p);
    // The coordinator is node P by convention; cut it off for a window
    // of global sends.  A run makes about 20 sends and cannot finish in
    // fewer than nine (three `SortDone`s, three fold requests, three
    // replies), so a window opening at the 4th always cuts live
    // traffic; until it heals no `SortDone` or reply lands, and the
    // heartbeats (and the done shards' re-announcements) carry the
    // count past its end.  This drill is about the partition *healing*
    // (false-suspicion recovery has its own drills above), so give the
    // failure detector enough patience that a loaded host can't turn
    // the window into a recovery storm before shard heartbeats close it.
    cfg.net = NetFaultModel::seeded(0x9A97).partition(p, 4, 74);
    cfg.timeout = Duration::from_millis(1500);
    cfg.max_recoveries = 64;
    let report = run("coordpart", &cfg);
    assert_clean(&report, want);
    assert!(
        report.net.dropped >= 1,
        "the partition window must have cut live traffic, got {:?}",
        report.net
    );
}
