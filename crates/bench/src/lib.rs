//! Shared plumbing for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index) and accepts:
//!
//! * `--smoke` — reduced parameters for CI (seconds, not minutes);
//! * `--trials N` — Monte-Carlo trials per cell;
//! * `--seed N` — RNG seed (defaults are fixed, so runs are reproducible);
//! * `--blocks N` — blocks per run for the merge-simulation tables.

/// Parsed common flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Reduced-scale mode.
    pub smoke: bool,
    /// Trials per cell (None = binary default).
    pub trials: Option<u64>,
    /// RNG seed (None = binary default).
    pub seed: Option<u64>,
    /// Blocks per run for simulation tables (None = binary default).
    pub blocks: Option<u64>,
}

impl Args {
    /// Parse from `std::env::args`, panicking with usage on bad input.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // not an iterator collector; a flag parser
    pub fn from_iter(iter: impl IntoIterator<Item = String>) -> Self {
        let mut args = Args {
            smoke: false,
            trials: None,
            seed: None,
            blocks: None,
        };
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut grab = |name: &str| -> u64 {
                it.next()
                    .unwrap_or_else(|| panic!("{name} needs a value"))
                    .parse()
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            };
            match flag.as_str() {
                "--smoke" => args.smoke = true,
                "--trials" => args.trials = Some(grab("--trials")),
                "--seed" => args.seed = Some(grab("--seed")),
                "--blocks" => args.blocks = Some(grab("--blocks")),
                other => panic!("unknown flag {other}; known: --smoke --trials --seed --blocks"),
            }
        }
        args
    }
}

/// Print a generated grid next to the paper's reference values.
pub fn print_comparison(
    title: &str,
    generated: &analysis::Grid,
    reference: &[&[f64]],
    digits: usize,
) {
    println!("## {title}\n");
    println!("Generated (this run):\n");
    println!("{}", generated.to_markdown("k \\ D", digits));
    println!("Paper reference:\n");
    let reference_grid = analysis::Grid {
        ks: generated.ks.clone(),
        ds: generated.ds.clone(),
        cells: reference.iter().map(|r| r.to_vec()).collect(),
    };
    println!("{}", reference_grid.to_markdown("k \\ D", digits));
    println!(
        "max |Δ| = {:.3}, max relative Δ = {:.1}%\n",
        generated.max_abs_diff(reference),
        generated.max_rel_diff(reference) * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::from_iter(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_empty() {
        assert_eq!(
            parse(""),
            Args {
                smoke: false,
                trials: None,
                seed: None,
                blocks: None
            }
        );
    }

    #[test]
    fn parses_all_flags() {
        let a = parse("--smoke --trials 50 --seed 9 --blocks 100");
        assert!(a.smoke);
        assert_eq!(a.trials, Some(50));
        assert_eq!(a.seed, Some(9));
        assert_eq!(a.blocks, Some(100));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        parse("--bogus");
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn rejects_missing_value() {
        parse("--trials");
    }
}
