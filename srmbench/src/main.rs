//! `srmbench` — one layer-attributed wall-clock benchmark for
//! `srm sort`, `srm serve` and `srm distsort`.  README.md beside this
//! package defines the workloads and every metric.
//!
//! ```text
//! srmbench --workload NAME --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! srmbench [--seed N] [--seconds S] [--quick] [--out PATH]    every workload, both kinds of run
//! srmbench --compare A.json B.json                            delta against bound, exit 1 on a breach
//! srmbench --benchmark-json                                   the BENCHMARK.json the registry stands for
//! ```

#![forbid(unsafe_code)]

mod compare;
mod dist;
mod json;
mod kernels;
mod metrics;
mod serve;
mod sorts;
mod span;
mod stats;
mod workloads;

use metrics::{Outcome, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;
const DEFAULT_SEED: u64 = 0x5EED_BE4C;

/// What one run of one workload is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Feeds the input generators and nothing else.
    pub seed: u64,
    /// How long to keep repeating the workload.
    pub seconds: f64,
    /// Report per-layer metrics from traced reps instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Reduced inputs and a single rep: a smoke run, not a measurement.
    pub quick: bool,
    /// Where temp directories and trace files go.
    pub scratch: PathBuf,
}

/// `$CARGO_TARGET_DIR/srmbench` (or `target/srmbench`), relative to
/// the working directory: build output is already ignored by git and
/// stays inside the checkout.
fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("srmbench")
}

/// Run one workload in this process.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.scratch).map_err(|e| format!("create {}: {e}", opts.scratch.display()))?;
    if let Some(case) = sorts::CASES.iter().find(|c| c.name == name) {
        return sorts::run(case, opts);
    }
    match name {
        "serve_mix" => serve::run(opts),
        "dist_p4" => dist::run(opts),
        other => Err(format!("unknown workload `{other}` (known: {})", workload_names().join(", "))),
    }
}

fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _)| *name).collect()
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark_json: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv;
    let value =
        |flag: &str, it: &mut dyn Iterator<Item = String>| it.next().ok_or_else(|| format!("{flag} needs a value"));
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut it)?),
            "--seed" => {
                let v = value(&flag, &mut it)?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed: `{v}` is not an unsigned integer"))?);
            }
            "--seconds" => {
                let v = value(&flag, &mut it)?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0..=600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--compare" => {
                let a = PathBuf::from(value(&flag, &mut it)?);
                let b = PathBuf::from(value(&flag, &mut it)?);
                args.compare = Some((a, b));
            }
            "--benchmark-json" => args.benchmark_json = true,
            other => return Err(format!("unknown flag `{other}` (see srmbench/README.md)")),
        }
    }
    Ok(args)
}

/// Every workload, each in a child process of its own, once untraced
/// and once traced; the merged results go to `out` for `--compare`.
fn run_all(args: &Args, opts: &RunOpts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut entries = Vec::new();
    for name in workload_names() {
        let mut merged: Vec<String> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &opts.seed.to_string(), "--trace", trace]);
            cmd.args(["--seconds", &opts.seconds.to_string()]);
            if opts.quick {
                cmd.arg("--quick");
            }
            let output =
                cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| format!("spawn {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (report, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
            println!("{report}");
            if !output.status.success() {
                return Err(format!("{name} (trace {trace}) exited with {}", output.status));
            }
            let result = json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
            all_correct &= result.get("correct") == Some(&json::Json::Bool(true));
            attempted += result.get("attempted").and_then(json::Json::as_f64).unwrap_or(0.0);
            failed += result.get("failed").and_then(json::Json::as_f64).unwrap_or(0.0);
            let metrics = result.get("metrics").and_then(json::Json::as_obj).ok_or("result without metrics")?;
            for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
                if let Some(m) = metrics.get(def.name) {
                    let v = m.get("value").and_then(json::Json::as_f64).ok_or("metric without value")?;
                    println!("  {:<44} {:>18} {}", def.name, metrics::json_num(v), def.unit);
                    merged.push(format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        def.name,
                        metrics::json_num(v),
                        def.unit
                    ));
                }
            }
        }
        entries.push(format!(
            "    \"{name}\": {{\"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{\n      {}\n    }}}}",
            merged.join(",\n      ")
        ));
    }
    let text = format!(
        "{{\n  \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"correct\": {all_correct},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        opts.seed,
        opts.seconds,
        opts.quick,
        entries.join(",\n")
    );
    let out = args.out.clone().unwrap_or_else(|| opts.scratch.join("results.json"));
    std::fs::write(&out, text).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("srmbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        print!("{}", metrics::benchmark_json(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return match compare::compare_files(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("srmbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = RunOpts {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(if args.quick { 0.0 } else { RUN_SECONDS as f64 }),
        trace: args.trace,
        quick: args.quick,
        scratch: scratch_root(),
    };
    println!(
        "srmbench: seed {} seconds {} trace {} quick {} threads {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.quick,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let Some(name) = &args.workload else {
        return match run_all(&args, &opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("srmbench: some output was wrong; see above");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("srmbench: {e}");
                ExitCode::FAILURE
            }
        };
    };
    match run_workload(name, &opts) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("srmbench: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
