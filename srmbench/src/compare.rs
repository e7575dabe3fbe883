//! `--compare A.json B.json`: how far each metric of B is from A, in
//! the direction that counts as worse, against the metric's bound.
//! This is the A-A check for the benchmark itself and the regression
//! check for later changes.

use crate::json::{self, Json};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;

/// Share by which `b` is worse than `a` (negative when better).
pub fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn value(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Print the table; `Ok(false)` when any end-to-end metric of `b` is
/// worse than `a` by more than its bound, or any operation failed.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut within = true;
    println!("{:<14} {:<44} {:>16} {:>16} {:>9} {:>7}  verdict", "workload", "metric", "A", "B", "worse by", "bound");
    for (workload, _) in WORKLOADS {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(va), Some(vb)) = (value(a, workload, def.name), value(b, workload, def.name)) else {
                if def.bound.is_some() {
                    println!("{workload:<14} {:<44} missing from one side", def.name);
                    within = false;
                }
                continue;
            };
            let delta = worse_by(def, va, vb);
            let (bound, verdict) = match def.bound {
                Some(bound) if delta > bound => (format!("{:.1}%", bound * 100.0), "BREACH"),
                Some(bound) => (format!("{:.1}%", bound * 100.0), "ok"),
                None => ("-".to_string(), ""),
            };
            within &= verdict != "BREACH";
            println!(
                "{workload:<14} {:<44} {va:>16.6} {vb:>16.6} {:>8.2}% {bound:>7}  {verdict}",
                def.name,
                delta * 100.0
            );
        }
        for (side, results) in [("A", a), ("B", b)] {
            let failed = results
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64);
            if failed != Some(0.0) {
                println!("{workload:<14} {side}: failed operations: {failed:?}");
                within = false;
            }
        }
    }
    within
}

pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let within = compare(&load(a)?, &load(b)?);
    println!(
        "{}",
        if within {
            "every end-to-end metric is within its bound"
        } else {
            "at least one end-to-end metric breaches its bound"
        }
    );
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(records_per_s: f64, failed: u64) -> Json {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    if d.name == "records_per_s" { records_per_s } else { 5.0 },
                    d.unit
                )
            })
            .collect();
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|(w, _)| {
                format!("\"{w}\": {{\"attempted\": 3, \"failed\": {failed}, \"metrics\": {{{}}}}}", metrics.join(","))
            })
            .collect();
        json::parse(&format!("{{\"workloads\": {{{}}}}}", workloads.join(","))).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let rate = END_TO_END.iter().find(|d| d.name == "records_per_s").unwrap();
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!((worse_by(rate, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(rate, 100.0, 120.0) < 0.0);
        assert!((worse_by(setup, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert_eq!(worse_by(setup, 0.0, 0.0), 0.0);
    }

    #[test]
    fn breach_and_failures_fail_the_comparison() {
        assert!(compare(&results(100.0, 0), &results(95.0, 0)));
        assert!(compare(&results(100.0, 0), &results(300.0, 0)), "better is never a breach");
        assert!(!compare(&results(100.0, 0), &results(70.0, 0)));
        assert!(!compare(&results(100.0, 0), &results(100.0, 1)));
    }
}
