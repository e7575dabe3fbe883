//! The metric registry: every name the benchmark may print, with its
//! unit, its direction, and (for end-to-end metrics) the bound
//! `BENCHMARK.json` fixes.  A workload reports every metric of the
//! kind it was asked for; a per-layer metric whose layer is not on the
//! workload's path reads 0.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the system sees.  README.md defines each.
pub const END_TO_END: &[MetricDef] = &[
    e2e("records_per_s", "rec/s", Better::Higher, 0.25),
    e2e("op_latency_ms", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// One layer each, named `<crate>.<module>.<measure>`.
pub const PER_LAYER: &[MetricDef] = &[
    // pdisk boundary spans, innermost (file) layer.
    lo("pdisk.file.read_s", "s"),
    lo("pdisk.file.write_s", "s"),
    lo("pdisk.file.submit_read_s", "s"),
    lo("pdisk.file.complete_read_s", "s"),
    lo("pdisk.file.submit_write_s", "s"),
    lo("pdisk.file.complete_write_s", "s"),
    lo("pdisk.file.prefetch_s", "s"),
    lo("pdisk.file.sync_s", "s"),
    lo("pdisk.file.calls", "count"),
    lo("pdisk.file.busy_share", "share"),
    // Wrapper layers: span minus the span of the layer below.
    lo("pdisk.retry.self_s", "s"),
    lo("pdisk.parity.self_s", "s"),
    lo("pdisk.faulty.self_s", "s"),
    hi("pdisk.stack.pending_ticket_share", "share"),
    // pdisk counts.
    lo("pdisk.io.parallel_ios", "count"),
    lo("pdisk.io.read_ops", "count"),
    lo("pdisk.io.write_ops", "count"),
    lo("pdisk.io.blocks_read", "count"),
    lo("pdisk.io.blocks_written", "count"),
    hi("pdisk.io.read_parallelism", "blocks/op"),
    hi("pdisk.io.write_parallelism", "blocks/op"),
    lo("pdisk.io.retries", "count"),
    lo("pdisk.io.parity_writes", "count"),
    lo("pdisk.io.reconstructed_reads", "count"),
    hi("pdisk.file.prefetch_issued", "count"),
    hi("pdisk.file.prefetch_hit_ratio", "share"),
    lo("pdisk.file.prefetch_invalidated", "count"),
    hi("pdisk.pool.hit_ratio", "share"),
    lo("pdisk.pool.misses", "count"),
    // pdisk kernels.
    lo("pdisk.file.kernel_write_us_per_block", "us"),
    lo("pdisk.file.kernel_read_us_per_block", "us"),
    // srm_core spans.
    lo("srm_core.sort.wall_s", "s"),
    lo("srm_core.sort.self_s", "s"),
    lo("srm_core.run_formation.wall_s", "s"),
    lo("srm_core.run_formation.self_s", "s"),
    lo("srm_core.merge.wall_s", "s"),
    lo("srm_core.merge.self_s", "s"),
    lo("srm_core.merge.passes", "count"),
    lo("srm_core.merge.self_ns_per_record", "ns"),
    // srm_core schedule counts.
    lo("srm_core.scheduler.flush_ops", "count"),
    lo("srm_core.scheduler.blocks_flushed", "count"),
    lo("srm_core.scheduler.read_overhead_v", "ratio"),
    lo("analysis.predicted_v", "ratio"),
    // srm_core kernels, on the workload's own keys.
    lo("srm_core.loser_tree.kernel_ns_per_record", "ns"),
    lo("srm_core.par_sort.kernel_ns_per_record", "ns"),
    lo("srm_core.merge_path.kernel_ns_per_record", "ns"),
    lo("srm_core.forecast.kernel_ns_per_op", "ns"),
    lo("srm_core.mem_backend.sort_s", "s"),
    // dsm and srm_server.
    lo("dsm.sort.direct_s", "s"),
    lo("srm_server.direct_small_s", "s"),
    lo("srm_server.direct_large_s", "s"),
    hi("srm_server.jobs_per_s", "1/s"),
    lo("srm_server.small_p50_ms", "ms"),
    lo("srm_server.small_p90_ms", "ms"),
    lo("srm_server.large_p50_ms", "ms"),
    lo("srm_server.overhead_ms_small_p50", "ms"),
    lo("srm_server.submit_rtt_ms_p50", "ms"),
    lo("srm_server.peak_admitted", "records"),
    lo("srm_server.refused", "count"),
    lo("srm_server.failed", "count"),
    // srm_dist.
    lo("srm_dist.t1_s", "s"),
    lo("srm_dist.tp_s", "s"),
    hi("srm_dist.efficiency", "ratio"),
    lo("srm_dist.shard_ideal_s", "s"),
    lo("srm_dist.overhead_share", "share"),
    lo("srm_dist.shard_skew", "ratio"),
    lo("srm_dist.net_sent_per_krec", "msgs"),
    lo("srm_dist.recoveries", "count"),
    lo("srm_dist.merge_stalls", "count"),
    // modelcheck and the benchmark itself.
    lo("modelcheck.trace_events", "count"),
    lo("modelcheck.check_s", "s"),
    lo("bench.peak_rss_mb", "MB"),
    hi("bench.attributed_share", "share"),
    lo("bench.trace_overhead_share", "share"),
    hi("bench.reps", "count"),
];

/// The six workloads and why each exists (one line, as `BENCHMARK.json`
/// records it).
pub const WORKLOADS: &[(&str, &str)] = &[
    ("sort_cpu", "SRM on a bare file array, delay 0, uniform keys: the device is free, so pdisk encode/decode/FNV and srm_core merge and formation CPU do all the work"),
    ("sort_skew", "sort_cpu with Zipf(1.1) keys over 4096 values: same layers, duplicate-heavy input, so a trick that only pays on uniform keys shows its cost"),
    ("sort_io", "SRM on a bare file array at 200us/block: device time exceeds CPU time, so only I/O count, overlap and read-ahead move it; CPU work must not"),
    ("sort_stacked", "sort_io over Retrying(Parity(Faulty(File))) with the parity store: the production stack, where wrappers fall back to eager I/O and parity adds reads beside writes"),
    ("serve_mix", "JobServer behind serve on loopback, one closed-loop client, 25:4 small:large SRM/DSM jobs: job latency as a client sees it, and DSM's only wall-clock coverage"),
    ("dist_p4", "distsort at P=4 with 40us/block (P=1 beside it when traced): scaling with real per-shard waiting, where the coordinator funnel does most of the work"),
];

/// The metrics one run reports, filled by name.
#[derive(Debug, Clone)]
pub struct Report {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// A report of every end-to-end (`trace == false`) or every
    /// per-layer metric; per-layer metrics start at 0.
    pub fn new(trace: bool) -> Self {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let values = if trace { defs.iter().map(|d| (d.name, 0.0)).collect() } else { BTreeMap::new() };
        Report { defs, values }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry for this run"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        // An empty sum is -0.0, which JSON readers need not accept.
        self.values.insert(def.name, if value == 0.0 { 0.0 } else { value });
    }

    /// `(definition, value)` in registry order; panics if a metric was
    /// never set, because the contract wants every one.
    pub fn entries(&self) -> Vec<(&'static MetricDef, f64)> {
        self.defs
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).unwrap_or_else(|| panic!("metric `{}` was not measured", d.name));
                (d, *v)
            })
            .collect()
    }
}

/// Result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
}

impl Outcome {
    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .report
            .entries()
            .iter()
            .map(|(d, v)| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, json_num(*v), d.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float with all its digits, in a form JSON accepts.
pub fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The `BENCHMARK.json` this registry stands for.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> =
        WORKLOADS.iter().map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}")).collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!("    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}", d.name, d.unit, d.better.as_str())
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"srmbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"srmbench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad name {}", d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "bad unit {}", d.unit);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in END_TO_END {
            let bound = d.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound.unwrap_or(0.0)).fold(0.0, f64::max);
        assert_eq!(END_TO_END.iter().find(|d| d.name == "setup_s").and_then(|d| d.bound), Some(widest));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why has {} chars", why.len());
        }
    }

    #[test]
    fn numbers_print_as_json() {
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(1.5e-7), "0.00000015");
    }
}
