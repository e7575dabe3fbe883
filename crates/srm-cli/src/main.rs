//! `srm` — command-line driver for the SRM reproduction.
//!
//! Subcommands:
//!
//! * `srm sort` — generate records, sort them with SRM and/or DSM on the
//!   in-memory or real-file backend, verify, and print the I/O accounting
//!   in parallel operations;
//! * `srm occupancy` — quick `v(k, D)` estimate by ball-throwing (Table 1
//!   cells on demand);
//! * `srm simulate` — quick `v(k, D)` estimate by simulating the SRM
//!   merge itself (Table 3 cells on demand);
//! * `srm scrub` — walk a checkpointed sort's live runs, verify block
//!   checksums, and heal latent corruption via parity reconstruction;
//! * `srm crash-matrix` — crash a small checkpointed sort at every I/O
//!   boundary, one chaos schedule `[crash-at K]` per boundary on the
//!   local target, and hold every recovery to the chaos oracle;
//! * `srm serve` — the sort-as-a-service job server: concurrent jobs over
//!   a loopback line protocol, Definition-3 admission control, graceful
//!   drain on SIGINT/SIGTERM, crash-resumable restarts;
//! * `srm client` — one-shot line-protocol client for `srm serve`;
//! * `srm distsort` — sharded SRM across simulated nodes with failure
//!   detection, node-death drills, and a degraded cross-shard merge;
//! * `srm chaos` — seeded campaigns of composed randomized fault
//!   schedules against the local, dist, and server targets, with a
//!   standing oracle, delta-debugging reproducer minimization, and
//!   deterministic `--replay`.
//!
//! Run `srm help` for flags.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = argv.first().map_or("help", String::as_str);
    let run: fn(&args::Flags) -> i32 = match sub {
        "sort" => commands::sort,
        "occupancy" => commands::occupancy,
        "simulate" => commands::simulate,
        "scrub" => commands::scrub,
        "crash-matrix" => commands::crash_matrix,
        "serve" => commands::serve,
        "client" => commands::client,
        "distsort" => commands::distsort,
        "chaos" => commands::chaos,
        "shard-run" => commands::shard_run,
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            std::process::exit(0);
        }
        other => {
            eprintln!("unknown subcommand `{other}`\n\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let usage = commands::usage_of(sub);
    if argv[1..].iter().any(|arg| arg == "--help") {
        print!("{usage}");
        std::process::exit(0);
    }
    let code = match args::Flags::parse(sub, usage, &argv[1..]) {
        Ok(flags) => run(&flags),
        Err(e) => commands::fail(e),
    };
    std::process::exit(code);
}
