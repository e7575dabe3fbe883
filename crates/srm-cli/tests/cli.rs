//! End-to-end tests of the `srm` binary via `std::process`.

use pdisk::Manifest as _;
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

/// A fresh manifest path under a scratch directory of its own.
fn scratch_manifest(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("srm-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("sort.manifest");
    (dir, manifest)
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
#[test]
fn unknown_flags_are_usage_errors() {
    for args in [&["sort", "--bogus-flag", "1"][..], &["sort", "--read-ahed", "3", "--pipeline"][..]] {
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
    assert!(text.contains("overlapped"));
}

/// The degraded-DSM drill: a disk dies after merge pass 1 under parity,
/// the sort completes by reconstruction, and the trace stays clean.
#[test]
fn sort_dsm_survives_a_disk_death_under_parity_with_a_clean_model_check() {
    let out = srm(&[
        "sort", "--records", "20000", "--algo", "dsm", "--parity", "--kill-disk", "1@1",
        "--check-model",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    for marker in [
        "drill: disk 1 dies",
        "degraded: completed with disk(s) [1] dead",
        "DSM: sorted & verified",
        "model check: clean",
    ] {
        assert!(text.contains(marker), "missing `{marker}` in: {text}");
    }
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

/// `--algo dsm` drives the same chain as SRM: `--resume` journals, the
/// interrupt hook stops the sort behind its checkpoint, exit 130.
#[test]
fn sort_dsm_honours_resume_and_interrupt() {
    let (dir, manifest) = scratch_manifest("dsm-resume");
    let out = srm(&[
        "sort", "--records", "3000", "--d", "2", "--b", "4", "--m", "96", "--algo", "dsm",
        "--resume", manifest.to_str().unwrap(), "--interrupt-after-pass", "0",
    ]);
    assert_eq!(out.status.code(), Some(130), "stderr: {}", stderr(&out));
    let checkpoint = dsm::DsmManifest::load_latest(&manifest)
        .expect("the manifest must load")
        .expect("the interrupt must leave a manifest behind");
    assert_eq!((checkpoint.pass, checkpoint.records), (0, 3000));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Memory disks die with their process, so a manifest that survives one
/// names runs that are gone: the interrupted sort says so instead of
/// promising a resume, and the rerun is refused up front with the cause
/// and both ways out — not with a disk error that recurs on every rerun.
#[test]
fn mem_backend_refuses_a_manifest_from_an_earlier_process() {
    let (dir, manifest) = scratch_manifest("mem-resume");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "sort", "--records", "3000", "--d", "2", "--b", "4", "--m", "96", "--algo", "srm",
            "--resume", manifest.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        srm(&args)
    };
    let out = run(&["--interrupt-after-pass", "0"]);
    assert_eq!(out.status.code(), Some(130), "stderr: {}", stderr(&out));
    let said = stderr(&out);
    assert!(said.contains("checkpoint journaled") && said.contains("cannot be resumed"), "{said}");
    assert!(!said.contains("rerun with the same flags to resume"), "{said}");

    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    let said = stderr(&out);
    assert!(said.contains("--backend mem disks die with their process"), "{said}");
    assert!(said.contains("delete") && said.contains("--backend file --dir D --keep"), "{said}");
    assert!(!said.contains("rerun with the same flags"), "{said}");
    assert!(!stdout(&out).contains("sorted & verified"));
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn threads_under_a_serial_formation_is_refused_before_the_banner() {
    let out = srm(&["sort", "--records", "100", "--threads", "4", "--formation", "rs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--threads 4 needs --formation parload"), "{}", stderr(&out));
    assert!(!stdout(&out).contains("geometry:"), "{}", stdout(&out));
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

#[test]
fn bad_flag_value_reports_cleanly() {
    let out = srm(&["sort", "--records", "not-a-number"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--records"));
}
