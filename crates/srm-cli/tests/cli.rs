//! End-to-end tests of the `srm` binary via `std::process`.

use std::process::{Command, Output};

fn srm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srm"))
        .args(args)
        .output()
        .expect("spawn srm binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory of its own, for `srm sort --dir`.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn help_prints_usage() {
    for args in [&["help"][..], &["--help"][..], &[][..]] {
        let out = srm(args);
        assert!(out.status.success());
        assert!(stdout(&out).contains("USAGE"));
        assert!(stdout(&out).contains("srm sort"));
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = srm(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

/// A flag the subcommand's help does not name is a usage error naming
/// both, and nothing runs: before this check `srm sort --bogus-flag 1` and
/// `srm sort --read-ahed 3 --pipeline` ran the default sort and exited 0.
/// `--slow-disk` and `--hedge-after` went with straggler hedging, and
/// `--pipeline` when `srm sort` took the job's window.
#[test]
fn unknown_flags_are_usage_errors() {
    for args in [
        &["sort", "--bogus-flag", "1"][..],
        &["sort", "--read-ahed", "3", "--pipeline"][..],
        &["sort", "--slow-disk", "2:8", "--parity"][..],
        &["sort", "--hedge-after", "4", "--parity"][..],
        &["sort", "--pipeline", "--read-ahead", "3"][..],
        // A sort resumes its directory's checkpoint; no flag names one.
        &["sort", "--resume", "sort.manifest"][..],
    ] {
        let out = srm(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let flag = args[1];
        assert!(stderr(&out).contains(&format!("unknown flag `{flag}` for `srm sort`")), "{}", stderr(&out));
        assert_eq!(stdout(&out), "", "{args:?}: nothing may run");
    }
}

/// `srm SUB --help` prints SUB's own usage and runs nothing; every
/// subcommand refuses a flag its usage does not name and accepts one it
/// does (each probe then stops at a later usage error, so no sort runs).
#[test]
fn every_subcommand_checks_its_flags_against_its_own_usage() {
    let probes: [(&str, &[&str]); 10] = [
        ("sort", &["--algo", "nope"]),
        ("occupancy", &["--trials", "10"]),
        ("simulate", &["--trials", "10"]),
        ("scrub", &["--parity"]),
        ("crash-matrix", &["--backend", "nope"]),
        ("serve", &["--port", "nope"]),
        ("client", &["--connect-retries", "0"]),
        ("distsort", &["--placement", "nope"]),
        ("chaos", &["--target", "nope"]),
        ("shard-run", &["--shard", "0"]),
    ];
    for (sub, accepted) in probes {
        let help = srm(&[sub, "--records", "10", "--help"]);
        assert_eq!(help.status.code(), Some(0), "srm {sub} --help");
        assert!(stdout(&help).starts_with(&format!("  srm {sub} ")), "srm {sub} --help: {}", stdout(&help));
        assert!(!stdout(&help).contains("USAGE"), "srm {sub} --help prints its own section only");

        let bogus = srm(&[sub, "--no-such-flag"]);
        assert_eq!(bogus.status.code(), Some(2), "srm {sub} --no-such-flag");
        assert!(
            stderr(&bogus).contains(&format!("unknown flag `--no-such-flag` for `srm {sub}`")),
            "srm {sub}: {}",
            stderr(&bogus)
        );

        let out = srm(&[&[sub], accepted].concat());
        assert_eq!(out.status.code(), Some(2), "srm {sub} {accepted:?} is a usage error of its own");
        assert!(!stderr(&out).contains("unknown flag"), "srm {sub} {accepted:?}: {}", stderr(&out));
    }
}

/// `srm sort` runs the job's window, pipelined at read-ahead 3, and
/// `--read-ahead 0` is window 0: the same operations, counted alike.
#[test]
fn sort_runs_the_jobs_window_and_read_ahead_0_is_window_0() {
    let run = |extra: &[&str]| {
        let out = srm(&[&["sort", "--records", "5000", "--d", "2", "--b", "8", "--algo", "srm"][..], extra].concat());
        assert!(out.status.success(), "{extra:?}: {}", stderr(&out));
        stdout(&out)
    };
    let io = |text: &str| text.lines().find(|l| l.contains("I/O (sort only)")).map(str::to_owned);
    let (default, zero) = (run(&[]), run(&["--read-ahead", "0"]));
    assert!(default.contains("window: pipelined"), "{default}");
    assert!(!zero.contains("window:"), "{zero}");
    assert_eq!(io(&default), io(&zero));
    assert!(io(&zero).is_some(), "{zero}");
}

#[test]
fn sort_both_algorithms_mem_backend() {
    let out = srm(&[
        "sort", "--records", "20000", "--d", "2", "--b", "8", "--k", "2", "--algo", "both",
        "--seed", "7",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("SRM: sorted & verified"));
    assert!(text.contains("DSM: sorted & verified"));
    assert!(text.contains("merge order"));
    assert!(text.contains("memory partition"));
    assert!(text.contains("I/O (sort only): reads="), "{text}");
}

/// Rotating parity needs at least two disks and DSM sorts on one wide
/// disk, so `--parity` / `--kill-disk` name `--algo srm` — a usage error
/// otherwise (exit 2, nothing runs), the default `--algo both` included.
#[test]
fn sort_refuses_parity_and_kill_disk_without_algo_srm() {
    for args in [
        &["sort", "--records", "2000", "--algo", "dsm", "--parity"][..],
        &["sort", "--records", "2000", "--algo", "dsm", "--parity", "--kill-disk", "1@1"][..],
        &["sort", "--records", "2000", "--parity"][..],
    ] {
        let out = srm(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("require --algo srm"), "{args:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{args:?}: nothing may run");
    }
}

/// DSM carries the crash clock: `--crash-points` numbers its boundaries,
/// `--crash-at K` kills it at one, and the same command rerun over the
/// directory resumes from the last durable checkpoint to the same sorted
/// output.
#[test]
fn sort_dsm_crash_at_a_boundary_then_resume_matches_the_clean_sort() {
    let dir = scratch_dir("dsm-crash");
    let manifest = dir.join("dsm").join("manifest");
    let base = [
        "sort", "--records", "3000", "--d", "2", "--b", "4", "--m", "96", "--algo", "dsm",
        "--backend", "file", "--keep", "--dir", dir.to_str().unwrap(),
    ];
    let run = |extra: &[&str]| srm(&[&base[..], extra].concat());
    let report = |out: &Output| {
        let text = stdout(out);
        let line = text.lines().find(|l| l.contains("merge order R=")).map(str::to_owned);
        line.unwrap_or_else(|| panic!("no report line in: {text}"))
    };

    let clean = run(&["--crash-points"]);
    assert!(clean.status.success(), "stderr: {}", stderr(&clean));
    let points: u64 = stdout(&clean)
        .lines()
        .find_map(|l| l.strip_prefix("crash boundaries numbered: "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no crash count in: {}", stdout(&clean)));
    assert!(points > 100, "{points} boundaries");
    assert!(!stdout(&clean).contains("resuming from"), "a finished sort leaves nothing to resume");

    let crashed = run(&["--crash-at", &(points / 2).to_string()]);
    assert_ne!(crashed.status.code(), Some(0), "the crash must stop the sort");
    assert!(manifest.exists(), "a mid-sort crash leaves the last durable checkpoint");

    let resumed = run(&[]);
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    assert!(stdout(&resumed).contains(&format!("resuming from {}", manifest.display())), "{}", stdout(&resumed));
    assert!(stdout(&resumed).contains("DSM: sorted & verified"), "{}", stdout(&resumed));
    let whole_sort = |line: String| line.split(", flushes").next().map(str::to_owned);
    assert_eq!(whole_sort(report(&resumed)), whole_sort(report(&clean)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash after the sort's last snapshot — here at the read-back's first
/// boundary, 1140 of the 1292 this sort numbers (= 1292 − 4 × ⌈150 / 4⌉
/// stripe reads) — leaves the manifest its message names, and the rerun
/// resumes it: only the last pass's 39 reads and 38 writes, not the
/// whole sort's 105 and 102.  Once `done` is published the manifest is
/// retired; a fresh sort over the kept directory clears the old `done`
/// first, so no `done` sits beside a manifest it does not describe.
#[test]
fn a_crash_in_the_read_back_resumes_the_last_pass() {
    let dir = scratch_dir("read-back-crash");
    let manifest = dir.join("srm").join("manifest");
    let base = [
        "sort", "--records", "600", "--d", "4", "--b", "4", "--m", "128", "--seed", "50341", "--algo", "srm",
        "--backend", "file", "--keep", "--dir", dir.to_str().unwrap(),
    ];
    let run = |extra: &[&str]| srm(&[&base[..], extra].concat());

    let clean = run(&["--crash-points"]);
    assert!(clean.status.success(), "stderr: {}", stderr(&clean));
    assert!(stdout(&clean).contains("crash boundaries numbered: 1292 "), "{}", stdout(&clean));
    assert!(stdout(&clean).contains("reads=105 (404 blocks"), "{}", stdout(&clean));
    assert!(!manifest.exists(), "a finished sort retires its manifest");
    let done = dir.join("srm").join("done");
    assert!(done.exists(), "beside its published `done`");

    let crashed = run(&["--crash-at", "1140"]);
    assert_eq!(crashed.status.code(), Some(2), "stdout: {}", stdout(&crashed));
    assert!(stderr(&crashed).contains("I/O boundary 1140 (read-submit)"), "{}", stderr(&crashed));
    assert!(stderr(&crashed).contains(&format!("resume from {}", manifest.display())), "{}", stderr(&crashed));
    assert!(manifest.exists(), "the manifest the message names is there");
    assert!(!done.exists(), "the fresh sort cleared the finished one's `done`");

    let resumed = run(&[]);
    let text = stdout(&resumed);
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    assert!(text.contains(&format!("resuming from {}", manifest.display())), "{text}");
    assert!(text.contains("I/O (sort only): reads=39 (152 blocks"), "only the last pass is redone: {text}");
    assert!(text.contains("writes=38 (150 blocks"), "{text}");
    assert!(!manifest.exists(), "the finished sort retires its manifest");
    let _ = std::fs::remove_dir_all(&dir);
}

/// DSM behind the fault-injection + retry stack at the default geometry.
#[test]
fn sort_dsm_absorbs_transient_faults() {
    let out = srm(&[
        "sort", "--records", "20000", "--algo", "dsm", "--fault-rate", "0.05", "--fault-seed", "42",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("DSM: sorted & verified"), "{text}");
    assert!(text.contains("retries="), "retry counts belong in the I/O line: {text}");
}

/// `--algo dsm` drives the same chain as SRM: the sort journals in its
/// engine's directory, and the interrupt hook stops it behind its
/// checkpoint, exit 130.
#[test]
fn sort_dsm_honours_resume_and_interrupt() {
    let dir = scratch_dir("dsm-resume");
    let out = srm(&[
        "sort", "--records", "3000", "--d", "2", "--b", "4", "--m", "96", "--algo", "dsm",
        "--dir", dir.to_str().unwrap(), "--interrupt-after-pass", "0",
    ]);
    assert_eq!(out.status.code(), Some(130), "stderr: {}", stderr(&out));
    let checkpoint = srm_core::SortManifest::load_latest(&dir.join("dsm").join("manifest"))
        .expect("the manifest must load")
        .expect("the interrupt must leave a manifest behind");
    assert_eq!((checkpoint.pass, checkpoint.records), (0, 3000));
    assert_eq!(checkpoint.engine, srm_core::EngineKind::Dsm);
    assert_eq!((checkpoint.geometry.d, checkpoint.geometry.b), (1, 8), "one wide disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Memory disks die with their process, so a manifest that survives one
/// names runs that are gone: the interrupted sort says so instead of
/// promising a resume, and the rerun is refused up front with the cause
/// and both ways out — not with a disk error that recurs on every rerun.
#[test]
fn mem_backend_refuses_a_manifest_from_an_earlier_process() {
    let dir = scratch_dir("mem-resume");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "sort", "--records", "3000", "--d", "2", "--b", "4", "--m", "96", "--algo", "srm",
            "--dir", dir.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        srm(&args)
    };
    let out = run(&["--interrupt-after-pass", "0"]);
    assert_eq!(out.status.code(), Some(130), "stderr: {}", stderr(&out));
    let said = stderr(&out);
    assert!(said.contains("checkpoint journaled") && said.contains("cannot be resumed"), "{said}");
    assert!(!said.contains("rerun with the same flags"), "{said}");

    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    let said = stderr(&out);
    assert!(said.contains("memory disks, which died with the process that wrote them"), "{said}");
    assert!(said.contains("delete") && said.contains("--backend file --dir D --keep"), "{said}");
    assert!(!said.contains("rerun with the same flags"), "{said}");
    assert!(!stdout(&out).contains("sorted & verified"));
    assert!(!stdout(&out).contains("resuming from"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memory sort without `--dir` journals to a temporary directory of its
/// own, and an interrupt leaves nothing there: its checkpoint could never
/// be resumed, and no later process may meet it.
#[test]
fn an_interrupted_mem_sort_leaves_no_temporary_directory() {
    let tmp = scratch_dir("mem-tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_srm"))
        .args(["sort", "--records", "3000", "--d", "2", "--b", "4", "--m", "96", "--algo", "both"])
        .args(["--interrupt-after-pass", "0"])
        .env("TMPDIR", &tmp)
        .output()
        .expect("spawn srm binary");
    assert_eq!(out.status.code(), Some(130), "stderr: {}", stderr(&out));
    let said = stderr(&out);
    assert!(said.contains("cannot be resumed") && said.contains("--backend file --dir D --keep"), "{said}");
    assert!(!said.contains("checkpoint journaled at") && !said.contains("delete"), "{said}");
    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `srm crash-matrix --dir D` keeps `D` and what the caller put there,
/// removing only what the matrix made; without `--dir` its temporary
/// directory goes.
#[test]
fn crash_matrix_keeps_a_named_dir_and_removes_its_temp_dir() {
    let tmp = scratch_dir("matrix-tmp");
    let named = tmp.join("named");
    std::fs::create_dir_all(&named).unwrap();
    std::fs::write(named.join("precious.txt"), "keep me").unwrap();
    let matrix = ["crash-matrix", "--records", "200", "--d", "2", "--b", "4"];
    let out = srm(&[&matrix[..], &["--dir", named.to_str().unwrap()]].concat());
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let left: Vec<_> = std::fs::read_dir(&named).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["precious.txt"], "the named dir holds only the caller's file");
    std::fs::remove_dir_all(&named).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_srm"))
        .args(matrix)
        .env("TMPDIR", &tmp)
        .output()
        .expect("spawn srm binary");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A sort on the file backend takes its cluster's lease before it reads
/// its manifest: a second sort over a held directory that holds a
/// checkpoint waits the lease out, then fails typed, and touches neither
/// the manifest nor the disk files.
#[test]
fn a_held_lease_stops_a_resume_before_it_reads_the_manifest() {
    let dir = scratch_dir("held-lease");
    let run = |extra: &[&str]| {
        let args = [
            &["sort", "--records", "3000", "--d", "2", "--b", "4", "--m", "96", "--algo", "srm",
              "--backend", "file", "--keep", "--dir", dir.to_str().unwrap()][..],
            extra,
        ];
        srm(&args.concat())
    };
    let out = run(&["--interrupt-after-pass", "1"]);
    assert_eq!(out.status.code(), Some(130), "stderr: {}", stderr(&out));
    let durable = dir.join("srm");
    let snapshot = || {
        let mut files: Vec<(std::path::PathBuf, Vec<u8>)> = [durable.join("manifest"), durable.join("manifest.prev")]
            .into_iter()
            .chain(std::fs::read_dir(durable.join("disks")).unwrap().map(|e| e.unwrap().path()))
            .filter(|p| p.file_name().is_some_and(|n| n != "pdisk.lock"))
            .filter_map(|p| std::fs::read(&p).ok().map(|bytes| (p, bytes)))
            .collect();
        files.sort();
        files
    };
    let before = snapshot();
    assert!(before.iter().any(|(p, _)| p.ends_with("manifest")), "the interrupt left a checkpoint");

    let lease = pdisk::ArrayLease::take(durable.join("disks")).expect("take the lease");
    let started = std::time::Instant::now();
    let out = run(&[]);
    let waited = started.elapsed();
    drop(lease);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("is already open"), "{}", stderr(&out));
    assert!(waited >= std::time::Duration::from_secs(5), "the lease was waited out: {waited:?}");
    assert!(!stdout(&out).contains("resuming from"), "{}", stdout(&out));
    assert!(snapshot() == before, "the manifest and disk files are byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A degraded checkpoint resumes through the one durable path: the disk
/// killed at pass 1 is journaled dead with the pass-1 checkpoint, and
/// the same command rerun re-marks it before the sorter sees the array,
/// then sorts, verifies and says it ran degraded.  (Two merge passes, so
/// the rerun's only boundary is the last, where an interrupt stops
/// nothing.)
#[test]
fn a_degraded_checkpoint_resumes_with_its_dead_disk() {
    let dir = scratch_dir("degraded-resume");
    let args = [
        "sort", "--records", "20000", "--d", "4", "--b", "8", "--k", "4", "--algo", "srm",
        "--backend", "file", "--dir", dir.to_str().unwrap(), "--parity", "--kill-disk", "1@1",
        "--interrupt-after-pass", "1", "--check-model",
    ];
    let out = srm(&args);
    assert_eq!(out.status.code(), Some(130), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("drill: disk 1 dies permanently after pass 1"), "{}", stdout(&out));

    let out = srm(&args);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("resuming from"), "{text}");
    assert!(text.contains("manifest records disk 1 dead; resuming degraded"), "{text}");
    assert!(!text.contains("drill:"), "pass 1 is not run again: {text}");
    assert!(text.contains("SRM: sorted & verified"), "{text}");
    assert!(text.contains("degraded: completed with disk(s) [1] dead"), "{text}");
    assert!(text.contains("model check: clean"), "{text}");
    assert!(!dir.exists(), "a finished sort removes its directory without --keep");
}

/// `--algo` is validated with the other flags, before any work or output.
#[test]
fn unknown_algo_is_refused_before_the_banner() {
    let out = srm(&["sort", "--records", "100", "--algo", "quantum"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown algo `quantum`"), "{}", stderr(&out));
    assert!(!stdout(&out).contains("geometry:"), "{}", stdout(&out));
}

#[test]
fn sort_file_backend_cleans_up() {
    let dir = std::env::temp_dir().join(format!("srm-cli-test-{}", std::process::id()));
    let out = srm(&[
        "sort", "--records", "5000", "--d", "2", "--b", "8", "--k", "2", "--algo", "srm",
        "--backend", "file", "--dir", dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("file backend"));
    assert!(!dir.exists(), "directory must be removed without --keep");
}

/// A fresh array's kept directory holds the format record a later
/// reopen requires.
#[test]
fn sort_file_backend_names_its_slot_format() {
    let dir = std::env::temp_dir().join(format!("srm-cli-format-{}", std::process::id()));
    let out = srm(&[
        "sort", "--records", "5000", "--d", "2", "--b", "8", "--algo", "srm", "--backend", "file",
        "--dir", dir.to_str().unwrap(), "--keep",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("file backend (staging included): "), "{}", stdout(&out));
    assert_eq!(std::fs::read(dir.join("srm/disks/pdisk.format")).unwrap(), b"pdisk slot format 2\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sort_staggered_replacement_selection() {
    let out = srm(&[
        "sort", "--records", "8000", "--d", "3", "--b", "8", "--k", "2", "--algo", "srm",
        "--placement", "staggered", "--formation", "rs",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("SRM: sorted & verified"));
    // Formation's own line: 1000 input blocks on 3 disks, a stripe a read.
    assert!(stdout(&out).contains("formation reads=334 (2.99x par)"), "{}", stdout(&out));
}

/// Loads are sorted on one thread: `--threads` is no flag of `srm sort`
/// and `parload` no formation, each refused before the banner.
#[test]
fn threads_and_parload_are_usage_errors() {
    for args in [&["--threads", "4"][..], &["--formation", "parload"]] {
        let out = srm(&[&["sort", "--records", "100"][..], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).starts_with("error: "), "{}", stderr(&out));
        assert!(!stdout(&out).contains("geometry:"), "{}", stdout(&out));
    }
}

#[test]
fn occupancy_subcommand() {
    let out = srm(&["occupancy", "--k", "5", "--d", "10", "--trials", "200"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("v(5, 10)"));
    assert!(text.contains("rho*"));
}

#[test]
fn occupancy_requires_k_and_d() {
    let out = srm(&["occupancy", "--d", "10"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--k"));
}

#[test]
fn simulate_subcommand() {
    let out = srm(&[
        "simulate", "--k", "2", "--d", "4", "--blocks", "50", "--trials", "1",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("simulated v(2, 4)"));
}

/// A zero count is a usage error naming the flag: before, `occupancy`
/// printed a `NaN` line and panicked in the bounds, `simulate` panicked in
/// its input sampler, and `--trials 0` printed an `n=0` estimate.
#[test]
fn zero_counts_are_usage_errors() {
    for args in [
        &["occupancy", "--d", "4", "--k", "0"][..],
        &["occupancy", "--k", "2", "--d", "0"],
        &["occupancy", "--k", "2", "--d", "4", "--trials", "0"],
        &["simulate", "--d", "4", "--k", "0"],
        &["simulate", "--k", "2", "--d", "0"],
        &["simulate", "--k", "2", "--d", "4", "--blocks", "0"],
        &["simulate", "--k", "2", "--d", "4", "--trials", "0"],
    ] {
        let zero = args[args.len() - 2];
        let out = srm(args);
        let said = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {said}");
        assert!(said.contains(&format!("{zero} 0")), "{args:?}: {said}");
        assert!(!said.contains("panicked"), "{args:?}: {said}");
        assert_eq!(stdout(&out), "", "{args:?}: nothing may print a result");
    }
}

/// `srm sort` validates its job spec as `srm serve` and `srm distsort`
/// do, so an empty input is refused once, in the server's words.
#[test]
fn sort_of_zero_records_is_refused_by_the_job_spec() {
    for algo in ["srm", "dsm"] {
        let out = srm(&["sort", "--records", "0", "--algo", algo]);
        let said = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{algo}: {said}");
        assert!(said.contains("job configuration error: records must be positive"), "{algo}: {said}");
        assert!(!said.contains("empty input"), "{algo}: {said}");
    }
}

#[test]
fn bad_flag_value_reports_cleanly() {
    let out = srm(&["sort", "--records", "not-a-number"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--records"));
}
