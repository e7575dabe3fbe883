//! Chaos campaign engine integration: composed-fault trials against
//! the local and dist targets, the planted-bug minimize/replay loop,
//! and the fsyncgate drill.
//!
//! These are the tier-2 drills behind `srm chaos`; CI's chaos-smoke
//! job runs the same campaigns through the CLI.

use srm_chaos::{
    replay, run_campaign, run_trial, CampaignConfig, ChaosEvent, ReproArtifact, Target,
};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-chaos-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn local_cfg(name: &str, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(Target::Local, seed, scratch(name));
    // Small but multi-pass: enough I/O that every event class has
    // ordinals to land on.
    cfg.records = 4_000;
    cfg.d = 4;
    cfg.b = 16;
    cfg.m = 512;
    cfg
}

#[test]
fn empty_schedule_trial_is_clean() {
    let cfg = local_cfg("empty", 1);
    std::fs::create_dir_all(&cfg.scratch).unwrap();
    let dir = cfg.scratch.join("t");
    let outcome = run_trial(&cfg, &[], &dir).expect("harness ok");
    assert_eq!(outcome.violation, None, "fault-free trial must be clean");
    assert_eq!(outcome.attempts, 1);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}

#[test]
fn local_campaign_has_zero_violations() {
    let mut cfg = local_cfg("local-campaign", 7);
    cfg.trials = 12;
    let report = run_campaign(&cfg, |_, _| {}).expect("campaign runs");
    assert_eq!(report.trials, 12);
    assert!(
        report.violations.is_empty(),
        "composed schedules must all recover: {:?}",
        report
            .violations
            .iter()
            .map(|v| (v.trial, v.violation.clone(), v.schedule.clone()))
            .collect::<Vec<_>>()
    );
    // Some trials must actually have exercised recovery, or the
    // campaign is vacuous.
    assert!(
        report.attempts > u64::from(report.trials),
        "no trial ever needed recovery: attempts = {}",
        report.attempts
    );
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}

#[test]
fn dist_campaign_has_zero_violations() {
    let mut cfg = CampaignConfig::new(Target::Dist, 7, scratch("dist-campaign"));
    cfg.trials = 6;
    cfg.records = 3_000;
    cfg.shards = 3;
    cfg.d = 2;
    cfg.b = 8;
    cfg.m = 256;
    let report = run_campaign(&cfg, |_, _| {}).expect("campaign runs");
    assert_eq!(report.trials, 6);
    assert!(
        report.violations.is_empty(),
        "dist schedules are survivable by construction: {:?}",
        report
            .violations
            .iter()
            .map(|v| (v.trial, v.violation.clone(), v.schedule.clone()))
            .collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}

/// The planted retry-classification bug (ENOSPC relabelled transient)
/// must be caught by the campaign, shrink to the single `disk-full`
/// event, and replay identically — twice — from the written artifact.
#[test]
fn planted_bug_is_caught_minimized_and_replays_identically() {
    let mut cfg = local_cfg("planted", 7);
    cfg.plant_bug = true;
    cfg.trials = 20;
    let report = run_campaign(&cfg, |_, _| {}).expect("campaign runs");
    let caught: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.violation.code() == "wedged")
        .collect();
    assert!(
        !caught.is_empty(),
        "20 trials with the planted bug armed must hit a disk-full schedule"
    );
    let rec = caught[0];
    assert!(
        rec.events_min <= 5,
        "minimizer left {} events: {:?}",
        rec.events_min,
        rec.schedule
    );
    assert!(
        rec.schedule
            .iter()
            .all(|e| matches!(e, ChaosEvent::DiskFull { .. })),
        "minimal schedule should be the disk-full culprit alone: {:?}",
        rec.schedule
    );

    // Replay the artifact twice: same violation, byte-for-byte same code.
    let path = rec.artifact.as_ref().expect("artifact written");
    let artifact = ReproArtifact::load(path).expect("artifact parses");
    assert_eq!(artifact.violation, "wedged");
    assert_eq!(artifact.events, rec.schedule);
    for round in 0..2 {
        let outcome = replay(&artifact, &cfg.scratch.join("replays"), None).expect("replay runs");
        let v = outcome
            .violation
            .unwrap_or_else(|| panic!("replay round {round} did not reproduce"));
        assert_eq!(v.code(), "wedged", "round {round} diverged: {v}");
    }

    // The same schedule with the bug disarmed recovers cleanly: the
    // violation is the misclassification, not the ENOSPC itself.
    let mut fixed = cfg.clone();
    fixed.plant_bug = false;
    let dir = fixed.scratch.join("disarmed");
    let outcome = run_trial(&fixed, &rec.schedule, &dir).expect("harness ok");
    assert_eq!(
        outcome.violation, None,
        "with correct classification the same schedule must recover"
    );
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}

/// fsyncgate drill: a failed durability barrier immediately followed
/// by a crash must recover byte-identically from the previous (`.prev`)
/// manifest generation, checker-clean.
#[test]
fn failed_sync_then_crash_recovers_from_prev_generation() {
    let cfg = local_cfg("fsyncgate", 11);
    std::fs::create_dir_all(&cfg.scratch).unwrap();
    for sync_ordinal in 0..3 {
        for crash_point in [40, 90, 140] {
            let events = vec![
                ChaosEvent::SyncFail {
                    ordinal: sync_ordinal,
                },
                ChaosEvent::CrashAt { point: crash_point },
            ];
            let dir = cfg
                .scratch
                .join(format!("sync{sync_ordinal}-crash{crash_point}"));
            let outcome = run_trial(&cfg, &events, &dir).expect("harness ok");
            assert_eq!(
                outcome.violation, None,
                "sync-fail #{sync_ordinal} + crash@{crash_point} must recover"
            );
            assert!(outcome.attempts >= 2, "the drill must actually interrupt");
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}

/// Composed single-events: each event class alone recovers (the
/// campaign covers compositions; this pins each injector's baseline).
#[test]
fn each_event_class_recovers_alone() {
    let cfg = local_cfg("singles", 13);
    std::fs::create_dir_all(&cfg.scratch).unwrap();
    let singles: Vec<(&str, ChaosEvent)> = vec![
        (
            "transient-read",
            ChaosEvent::Transient {
                op: pdisk::FaultOp::Read,
                ordinal: 5,
            },
        ),
        ("corrupt", ChaosEvent::CorruptRead { ordinal: 9 }),
        ("disk-full", ChaosEvent::DiskFull { ordinal: 20 }),
        ("sync-fail", ChaosEvent::SyncFail { ordinal: 1 }),
        ("crash", ChaosEvent::CrashAt { point: 77 }),
        ("kill-disk", ChaosEvent::KillDisk { disk: 2, pass: 1 }),
        ("interrupt", ChaosEvent::Interrupt { pass: 1 }),
    ];
    for (name, ev) in singles {
        let dir = cfg.scratch.join(name);
        let outcome = run_trial(&cfg, std::slice::from_ref(&ev), &dir).expect("harness ok");
        assert_eq!(outcome.violation, None, "{name} must recover: {ev}");
    }
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}

/// A dist trial with ENOSPC on a shard fails with the typed shard
/// error (never a panic, never a hang) — the unsurvivable injection's
/// contract, which is why the generator excludes it.
#[test]
fn dist_fill_write_fails_typed_not_wedged() {
    let mut cfg = CampaignConfig::new(Target::Dist, 3, scratch("dist-fill"));
    cfg.records = 2_000;
    cfg.shards = 2;
    cfg.d = 2;
    cfg.b = 8;
    cfg.m = 256;
    std::fs::create_dir_all(&cfg.scratch).unwrap();
    let spec = cfg.job_spec();
    let mut dc = srm_dist::DistConfig::new(cfg.shards);
    dc.fill_write = Some((1, 4));
    let err = srm_dist::distsort(&spec, &dc, &cfg.scratch.join("world"))
        .expect_err("a full shard volume cannot be survived");
    match err {
        srm_dist::DistError::Shard { shard, msg } => {
            assert_eq!(shard, 1);
            assert!(
                msg.contains("no-space"),
                "shard error must carry the no-space taxonomy: {msg}"
            );
        }
        other => panic!("expected the typed shard error, got: {other}"),
    }
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}

/// A crash point is drawn against a whole sort's boundaries, but the
/// incarnation that arms it may be a resumed one with fewer of its own —
/// then the point lands in the verification read, which runs under the
/// same clock.  That is a process death like any other: reboot, rerun,
/// same output; never a harness error.
#[test]
fn a_crash_during_the_verification_read_is_rebooted_through() {
    let cfg = local_cfg("crash-verify", 11);
    std::fs::create_dir_all(&cfg.scratch).unwrap();
    let points = srm_chaos::local::dry_run(&cfg).expect("dry run").points;
    // The first crash strikes late, so the second incarnation resumes
    // the last pass only; sweep the second across everything after it.
    let (mut rebooted_twice, dir) = (0, cfg.scratch.join("t"));
    for second in (0..points).step_by(29) {
        let events = [
            ChaosEvent::CrashAt { point: points - 50 },
            ChaosEvent::CrashAt { point: second },
        ];
        let outcome = run_trial(&cfg, &events, &dir).expect("a crash is not a harness error");
        assert_eq!(outcome.violation, None, "second crash at {second}");
        rebooted_twice += u32::from(outcome.attempts == 3);
    }
    assert!(rebooted_twice > 0, "no second crash ever fired");
    let _ = std::fs::remove_dir_all(&cfg.scratch);
}
