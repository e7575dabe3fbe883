//! The dist chaos target: one in-process `srm-dist` distributed sort
//! per trial, with the schedule folded into the coordinator's fault
//! configuration — network drop/dup/delay rates and partitions on the
//! shared transport, one node kill with fence-and-respawn recovery,
//! and per-disk I/O service delay.
//!
//! Every generated event is *survivable by specification*: the
//! detector fences and respawns killed or partitioned nodes, the RPC
//! layer re-sends dropped frames, the dedupe layer absorbs duplicates.
//! The oracle is therefore strict: the sort must complete with
//! `oracle_ok`, a checker-clean trace on every shard, and the digest
//! of the failure-free run.  (The unsurvivable injections — ENOSPC on
//! a shard via `DistConfig::fill_write` — are deliberately excluded
//! from generated schedules; their typed-failure contract is covered
//! by directed tests instead.)

use crate::schedule::ChaosEvent;
use crate::{CampaignConfig, ChaosError, TrialOutcome, Violation};
use pdisk::NetFaultModel;
use srm_dist::{distsort, DistConfig, KillPlan, KillPoint};
use srm_server::expected_digest;
use std::path::Path;

/// Fold a schedule into a [`DistConfig`].  Event order is irrelevant
/// (each event arms an independent knob), which keeps subsets of a
/// schedule meaningful for the minimizer.
fn dist_config(cfg: &CampaignConfig, events: &[ChaosEvent], seed: u64) -> DistConfig {
    let mut dc = DistConfig::new(cfg.shards);
    let mut net = NetFaultModel::seeded(seed);
    let mut net_armed = false;
    for ev in events {
        match ev {
            ChaosEvent::NetDrop { per_mille } => {
                net = net.with_drop_rate(f64::from(*per_mille) / 1000.0);
                net_armed = true;
            }
            ChaosEvent::NetDup { per_mille } => {
                net = net.with_dup_rate(f64::from(*per_mille) / 1000.0);
                net_armed = true;
            }
            ChaosEvent::NetDelay {
                per_mille,
                max_ticks,
            } => {
                net = net
                    .with_delay_rate(f64::from(*per_mille) / 1000.0)
                    .with_max_delay(*max_ticks);
                net_armed = true;
            }
            ChaosEvent::Partition { node, from, until } => {
                net = net.partition(*node, *from, *until);
                net_armed = true;
            }
            ChaosEvent::KillNode { shard, pass } => {
                dc.kill = Some(KillPlan {
                    shard: *shard,
                    point: KillPoint::Pass(*pass),
                });
            }
            ChaosEvent::IoDelayUs { micros } => {
                dc.io_delay = std::time::Duration::from_micros(*micros);
            }
            // Local- and server-target events in a dist schedule are
            // inert (only reachable via a hand-edited artifact).
            _ => {}
        }
    }
    if net_armed {
        dc.net = net;
    }
    dc
}

/// Run one dist trial in the fresh directory `dir`: fold the schedule
/// into the coordinator config, sort, and hold the report to the
/// standing oracle.
pub(crate) fn run_trial(
    cfg: &CampaignConfig,
    events: &[ChaosEvent],
    dir: &Path,
) -> Result<TrialOutcome, ChaosError> {
    let spec = cfg.job_spec();
    // Derive the transport seed from the campaign seed and the events
    // so distinct schedules explore distinct delivery interleavings,
    // deterministically.
    let net_seed = cfg.seed ^ (events.len() as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    let dc = dist_config(cfg, events, net_seed);

    let run = distsort(&spec, &dc, dir);
    let mut outcome = TrialOutcome {
        attempts: 1,
        ..TrialOutcome::default()
    };
    match run {
        Ok(report) => {
            outcome.resumed = report.recoveries as u32;
            outcome.attempts += report.recoveries as u32;
            let want = expected_digest(&spec);
            if !report.oracle_ok {
                outcome.violation = Some(Violation::ModelViolation(
                    "dist report: oracle_ok = false (merged output out of order or wrong length)"
                        .into(),
                ));
            } else if let Some((i, _)) = report
                .per_shard
                .iter()
                .enumerate()
                .find(|(_, s)| !s.trace_clean)
            {
                outcome.violation = Some(Violation::ModelViolation(format!(
                    "shard {i}: recovery trace rejected by the model checker"
                )));
            } else if report.digest != want {
                outcome.violation = Some(Violation::DigestMismatch {
                    got: report.digest,
                    want,
                });
            }
        }
        Err(e) => {
            outcome.violation = Some(Violation::UnexpectedError(format!(
                "distsort failed under a survivable schedule: {e}"
            )));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(outcome)
}
