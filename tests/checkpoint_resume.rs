//! Kill-and-resume end-to-end tests: a multi-pass sort interrupted by a
//! permanent disk fault at *any* point must, when rerun against the same
//! array with the same manifest path, complete and produce output
//! **byte-identical** to an uninterrupted sort — same record sequence,
//! same encoded bytes — because the resumed placement RNG is
//! fast-forwarded to exactly where the interrupted sort left off.

use pdisk::manifest::manifest_sibling;
use pdisk::{DiskArray, FaultModel, FaultOp, FileDiskArray, Geometry, MemDiskArray, Record, U64Record};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, EngineKind, SortManifest, SrmError, SrmSorter};
use std::path::PathBuf;

fn random_records(n: u64, seed: u64) -> Vec<U64Record> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| U64Record(rng.random())).collect()
}

fn encode_all(records: &[U64Record]) -> Vec<u8> {
    let mut out = vec![0u8; records.len() * U64Record::ENCODED_LEN];
    for (rec, chunk) in records.iter().zip(out.chunks_mut(U64Record::ENCODED_LEN)) {
        rec.encode(chunk);
    }
    out
}

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A geometry giving three merge passes over 3000 records, so kills can
/// land in formation, pass 1, pass 2, and pass 3.
fn geom() -> Geometry {
    Geometry::new(2, 4, 96).unwrap()
}

/// Uninterrupted baseline of `sorter`: output bytes, total sort read/write
/// ops (used to aim the kill points across the whole schedule) and the
/// report.
fn baseline_of(sorter: &SrmSorter, data: &[U64Record]) -> (Vec<u8>, u64, u64, srm_core::SortReport) {
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let input = write_unsorted_input(&mut a, data).unwrap();
    a.reset_stats();
    let (run, report) = sorter.sort(&mut a, &input).unwrap();
    // Capture the op counts before the verification read below inflates
    // them — kill points must land inside the sort itself.
    let (reads, writes) = (a.stats().read_ops, a.stats().write_ops);
    let out = read_run(&mut a, &run).unwrap();
    (encode_all(&out), reads, writes, report)
}

/// [`baseline_of`] the default sorter, which must need three merge passes.
fn srm_baseline(data: &[U64Record]) -> (Vec<u8>, u64, u64) {
    let (want, reads, writes, report) = baseline_of(&SrmSorter::default(), data);
    assert!(report.merge_passes >= 3, "need a genuinely multi-pass sort");
    (want, reads, writes)
}

/// Kill a checkpointed sort of `data` by `sorter()` at each of `kills`,
/// "reboot" — same data on disk, fault gone, same sorter and manifest —
/// and require the resumed sort to finish byte-identical to `want`.
fn kill_and_resume(
    tag: &str,
    sorter: impl Fn() -> SrmSorter,
    data: &[U64Record],
    kills: &[(FaultOp, u64)],
    want: &[u8],
    passes: u64,
) {
    let dir = unique_dir(tag);
    for (i, &(op, ordinal)) in kills.iter().enumerate() {
        let manifest = dir.join(format!("kill-{i}.manifest"));
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let mut a = pdisk::FaultyDiskArray::new(inner, FaultModel::none().kill_at(op, ordinal));
        let input = write_unsorted_input(&mut a, data).unwrap();

        let killed = sorter().sort_checkpointed(&mut a, &input, &manifest);
        assert!(killed.is_err(), "{tag}: kill at {op} op {ordinal} must abort the sort");

        let mut recovered = a.into_inner();
        let (run, report) = sorter()
            .sort_checkpointed(&mut recovered, &input, &manifest)
            .unwrap_or_else(|e| panic!("{tag}: resume after kill at {op} op {ordinal} failed: {e}"));
        let out = read_run(&mut recovered, &run).unwrap();
        assert_eq!(
            encode_all(&out),
            want,
            "{tag}: kill at {op} op {ordinal}: resumed output differs from uninterrupted sort"
        );
        assert_eq!(report.records, data.len() as u64);
        assert_eq!(report.merge_passes, passes, "{tag}: whole-sort pass count survives resume");
        assert!(!manifest.exists(), "manifest must be deleted on completion");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn srm_killed_at_any_point_resumes_byte_identical() {
    let data = random_records(3000, 71);
    let (want, reads, writes) = srm_baseline(&data);

    // Read-ordinal kill points: formation's first read, mid-schedule
    // probes, and the very last read.  Write kills land after the
    // staging writes (input staging happens before the sort).
    let staging_writes = 3000u64.div_ceil(4).div_ceil(2);
    let kills: Vec<(FaultOp, u64)> = [0, reads / 5, reads / 2, 4 * reads / 5, reads - 1]
        .iter()
        .map(|&n| (FaultOp::Read, n))
        .chain([0, writes / 2, writes - 1].iter().map(|&n| (FaultOp::Write, staging_writes + n)))
        .collect();
    kill_and_resume("srm-mem", SrmSorter::default, &data, &kills, &want, 3);
}

/// Replacement selection is one more pass 0 under the same contract, at
/// window 0 and pipelined (where the kill finds an input stripe in
/// flight behind the one it strikes): killed inside formation — mid-input,
/// and on its last read — the rerun forms the runs again; killed on the
/// first read past the boundary, it resumes from formation's checkpoint.
#[test]
fn srm_replacement_selection_killed_in_and_at_pass_0_resumes_byte_identical() {
    let data = random_records(3000, 76);
    let config = srm_core::SrmConfig {
        run_formation: srm_core::run_formation::RunFormation::ReplacementSelection,
        ..srm_core::SrmConfig::default()
    };
    let (want, _, _, report) = baseline_of(&SrmSorter::new(config), &data);
    // Formation reads the input once, a stripe per read, and nothing else.
    let formation_reads = report.io.read_ops - report.schedule.total_reads();
    assert_eq!(formation_reads, 3000u64.div_ceil(4).div_ceil(2));
    let kills: Vec<(FaultOp, u64)> = [formation_reads / 2, formation_reads - 1, formation_reads]
        .map(|n| (FaultOp::Read, n))
        .to_vec();
    for pipeline in [false, true] {
        let sorter = || SrmSorter::new(config).with_pipeline(pipeline);
        kill_and_resume(&format!("srm-rs-p{pipeline}"), sorter, &data, &kills, &want, report.merge_passes);
    }
}

/// The real recovery story: a sort on the file backend dies (process and
/// all), the disk files are reopened with `FileDiskArray::open`, and the
/// resumed sort finishes byte-identically.
#[test]
fn srm_file_backend_survives_process_death() {
    let data = random_records(3000, 72);
    let (want, reads, _) = srm_baseline(&data);
    let dir = unique_dir("srm-file");
    let disks = dir.join("disks");
    let manifest = dir.join("sort.manifest");

    // First "process": stage input, then die from a permanent disk fault
    // midway through the merge schedule.
    let input = {
        let files: FileDiskArray<U64Record> = FileDiskArray::create(geom(), &disks).unwrap();
        let mut a =
            pdisk::FaultyDiskArray::new(files, FaultModel::none().kill_at(FaultOp::Read, reads / 2));
        let input = write_unsorted_input(&mut a, &data).unwrap();
        assert!(SrmSorter::default()
            .sort_checkpointed(&mut a, &input, &manifest)
            .is_err());
        assert!(manifest.exists(), "a mid-merge kill leaves a manifest behind");
        input
        // Array dropped here: worker threads shut down, files closed.
    };

    // Second "process": reopen the same files, resume from the manifest.
    let mut files = FileDiskArray::<U64Record>::open(geom(), &disks).unwrap();
    let (run, _) = SrmSorter::default()
        .sort_checkpointed(&mut files, &input, &manifest)
        .unwrap();
    let out = read_run(&mut files, &run).unwrap();
    assert_eq!(encode_all(&out), want, "cross-process resume must be byte-identical");
    assert!(!manifest.exists());
    drop(files);
    let _ = std::fs::remove_dir_all(&dir);
}

/// DSM on [`geom`]'s machine: one disk of `D·B`-record blocks.
fn dsm_geom() -> Geometry {
    let g = geom();
    Geometry::new(1, g.d * g.b, g.m).unwrap()
}

fn dsm() -> SrmSorter {
    SrmSorter::default().with_engine(EngineKind::Dsm)
}

#[test]
fn dsm_killed_mid_pass_resumes_byte_identical() {
    let data = random_records(3000, 73);

    // Uninterrupted baseline.
    let mut clean: MemDiskArray<U64Record> = MemDiskArray::new(dsm_geom());
    let input = write_unsorted_input(&mut clean, &data).unwrap();
    clean.reset_stats();
    let (run, report) = dsm().sort(&mut clean, &input).unwrap();
    assert!(report.merge_passes >= 2);
    let reads = clean.stats().read_ops; // before the verification read
    let want = encode_all(&read_run(&mut clean, &run).unwrap());

    let dir = unique_dir("dsm-mem");
    for (i, ordinal) in [reads / 3, 2 * reads / 3, reads - 1].into_iter().enumerate() {
        let manifest = dir.join(format!("kill-{i}.manifest"));
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(dsm_geom());
        let mut a =
            pdisk::FaultyDiskArray::new(inner, FaultModel::none().kill_at(FaultOp::Read, ordinal));
        let input = write_unsorted_input(&mut a, &data).unwrap();
        assert!(dsm().sort_checkpointed(&mut a, &input, &manifest).is_err());
        assert!(
            std::fs::read_to_string(&manifest).is_ok_and(|t| t.contains("\nalgo dsm\n")),
            "a DSM checkpoint names its merge-order rule"
        );
        // Neither rule resumes the other's checkpoint.
        let mut recovered = a.into_inner();
        assert!(matches!(
            SrmSorter::default().sort_checkpointed(&mut recovered, &input, &manifest),
            Err(srm_core::SrmError::Checkpoint(_))
        ));
        let (run, report) = dsm().sort_checkpointed(&mut recovered, &input, &manifest).unwrap();
        let out = read_run(&mut recovered, &run).unwrap();
        assert_eq!(encode_all(&out), want, "kill at read op {ordinal}");
        assert_eq!(report.records, 3000);
        assert!(!manifest.exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--pipeline` + `--resume` in one flow: a *pipelined* sort killed
/// mid-merge (possibly with split-phase tickets in flight — the engine
/// quiesces them on the way out) resumes under the pipelined engine and
/// finishes byte-identical to the serial baseline.
#[test]
fn srm_pipelined_killed_mid_merge_resumes_byte_identical() {
    let data = random_records(3000, 75);
    let (want, reads, _) = srm_baseline(&data);
    let dir = unique_dir("srm-pipe");

    for (i, ordinal) in [reads / 4, reads / 2, reads - 1].into_iter().enumerate() {
        let manifest = dir.join(format!("kill-{i}.manifest"));
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let mut a = pdisk::FaultyDiskArray::new(
            inner,
            FaultModel::none().kill_at(FaultOp::Read, ordinal),
        );
        let input = write_unsorted_input(&mut a, &data).unwrap();
        let sorter = SrmSorter::default().with_pipeline(true);
        assert!(
            sorter.sort_checkpointed(&mut a, &input, &manifest).is_err(),
            "kill at read op {ordinal} must abort the pipelined sort"
        );

        let mut recovered = a.into_inner();
        let (run, report) = SrmSorter::default()
            .with_pipeline(true)
            .sort_checkpointed(&mut recovered, &input, &manifest)
            .unwrap_or_else(|e| panic!("pipelined resume after kill at op {ordinal} failed: {e}"));
        let out = read_run(&mut recovered, &run).unwrap();
        assert_eq!(
            encode_all(&out),
            want,
            "kill at read op {ordinal}: pipelined resume diverged"
        );
        assert_eq!(report.records, 3000);
        assert!(!manifest.exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest under `engine`'s `algo` line, with redundancy lines and two
/// runs; `pass` tells two saved generations apart.  Every store test below
/// runs once per `algo` line — the envelope, the journal and the
/// redundancy codec are one body of code (`srm_core::checkpoint`).
fn sample(engine: EngineKind, pass: u64) -> SortManifest {
    let draws = match engine {
        EngineKind::Srm => 65 + pass,
        EngineKind::Dsm => 0,
    };
    SortManifest::new(
        engine,
        &srm_core::SrmConfig::default(),
        geom(),
        3000,
        63,
        pass,
        draws,
        Some(parity2(&[1])),
        vec![
            pdisk::StripedRun {
                start_disk: pdisk::DiskId(1),
                len_blocks: 130,
                records: 520,
                base_offsets: vec![10, 20],
            },
            pdisk::StripedRun {
                start_disk: pdisk::DiskId(0),
                len_blocks: 120,
                records: 480,
                base_offsets: vec![55, 66],
            },
        ],
    )
}

/// The store's failures are all `Checkpoint`.
fn is_checkpoint_error(e: &SrmError) -> bool {
    matches!(e, SrmError::Checkpoint(_))
}

/// A fresh scratch directory and the manifest path inside it.
fn journal_dir(engine: EngineKind, tag: &str) -> (PathBuf, PathBuf) {
    let dir = unique_dir(&format!("{}-{tag}", engine.as_str()));
    let path = dir.join("sort.manifest");
    (dir, path)
}

/// Save generation 1 (pass 1), then generation 2 (pass 2) — which
/// journals generation 1 to `.prev` — and return the second as saved.
fn save_two_generations(engine: EngineKind, path: &std::path::Path) -> SortManifest {
    sample(engine, 1).save(path, None).unwrap();
    let mut newest = sample(engine, 2);
    newest.save(path, None).unwrap();
    assert_eq!(newest.generation, 2);
    newest
}

fn flip_byte(path: &std::path::Path, at: impl Fn(usize) -> usize, mask: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    let i = at(bytes.len());
    bytes[i] ^= mask;
    std::fs::write(path, &bytes).unwrap();
}

fn save_load_roundtrips_and_remove_is_idempotent(engine: EngineKind) {
    let (dir, path) = journal_dir(engine, "roundtrip");
    let mut m = sample(engine, 2);
    m.save(&path, None).unwrap();
    assert_eq!(m.generation, 1, "first save starts the generation chain");
    assert_eq!(SortManifest::load(&path).unwrap(), m);
    SortManifest::remove(&path).unwrap();
    SortManifest::remove(&path).unwrap(); // second remove: no error
    assert!(SortManifest::load(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

fn saves_journal_the_previous_generation(engine: EngineKind) {
    let (dir, path) = journal_dir(engine, "gen");
    let newest = save_two_generations(engine, &path);
    // Both generations live on disk: the newest at `path`, its
    // predecessor journaled beside it.
    assert_eq!(SortManifest::load_latest(&path).unwrap().unwrap(), newest);
    let prev_path = manifest_sibling(&path, "prev");
    let prev = SortManifest::load(&prev_path).unwrap();
    assert_eq!(prev.generation, 1);
    assert_eq!(prev.pass, 1, "journal holds the pre-update snapshot");
    // Remove clears the whole journal.
    SortManifest::remove(&path).unwrap();
    assert!(SortManifest::load_latest(&path).unwrap().is_none());
    assert!(!path.exists() && !prev_path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

fn load_latest_falls_back_to_the_previous_valid_generation(engine: EngineKind) {
    let (dir, path) = journal_dir(engine, "fallback");
    save_two_generations(engine, &path);
    // Tear the newest manifest mid-byte: recovery must pick gen 1.
    flip_byte(&path, |len| len / 2, 0x01);
    let recovered = SortManifest::load_latest(&path).unwrap().unwrap();
    assert_eq!((recovered.generation, recovered.pass), (1, 1));
    // With *every* candidate corrupt, recovery refuses loudly — a typed
    // error, not a silent fresh start.
    flip_byte(&manifest_sibling(&path, "prev"), |len| len / 2, 0x01);
    let err = SortManifest::load_latest(&path).unwrap_err();
    assert!(is_checkpoint_error(&err), "{err:?}");
    assert!(err.to_string().contains("corrupt"), "{err}");
    // And with no candidates at all, there is nothing to resume.
    SortManifest::remove(&path).unwrap();
    assert!(SortManifest::load_latest(&path).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

fn a_torn_current_manifest_is_not_rotated_over_the_journal(engine: EngineKind) {
    let (dir, path) = journal_dir(engine, "rotate");
    let mut m = save_two_generations(engine, &path);
    std::fs::write(&path, b"torn garbage").unwrap();
    // The next save must not shove the garbage over the valid gen 1.
    m.save(&path, None).unwrap();
    assert_eq!(m.generation, 2, "torn gen 2 does not advance the chain");
    let prev = SortManifest::load(&manifest_sibling(&path, "prev")).unwrap();
    assert_eq!(prev.generation, 1, "journaled gen 1 survived the torn save");
    assert_eq!(SortManifest::load_latest(&path).unwrap().unwrap().generation, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generation journaling under fire: with two saved generations on
/// disk (current + `.prev`), random byte-flips in either file must
/// always be detected — recovery loads the newest generation that
/// still validates, falls back to the journaled predecessor when the
/// current copy is torn, and never parses to a state that was not
/// one of the two saved.
fn generation_fallback_survives_byte_flips(engine: EngineKind, flips: &[(usize, u8, bool)]) {
    let (dir, path) = journal_dir(engine, "genfuzz");
    let prev_path = manifest_sibling(&path, "prev");
    let newest = save_two_generations(engine, &path);
    let prev = SortManifest::load(&prev_path).unwrap();
    assert_eq!(prev.generation, 1);

    let mut cur_touched = false;
    for &(pos, mask, hit_current) in flips {
        flip_byte(if hit_current { &path } else { &prev_path }, |len| pos % len, mask);
        cur_touched |= hit_current;
    }

    match SortManifest::load_latest(&path) {
        Ok(Some(got)) if got == newest => {}
        Ok(Some(got)) if got == prev => {
            // Fallback is only legitimate when the current manifest
            // really is torn (a flip in trailing whitespace can
            // leave it valid).
            assert!(
                cur_touched && SortManifest::load(&path).is_err(),
                "fell back to generation 1 while generation 2 still validates"
            );
        }
        Ok(Some(got)) => panic!(
            "corrupt manifests parsed to a state never saved: gen {}",
            got.generation
        ),
        Ok(None) => panic!("files exist but recovery found nothing"),
        // Both generations torn: a typed error, not a panic.
        Err(e) => assert!(is_checkpoint_error(&e), "wrong error type: {e:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parity over the sample geometry's two disks, with `dead` already lost.
fn parity2(dead: &[u32]) -> pdisk::RedundancyInfo {
    pdisk::RedundancyInfo {
        stripe_disks: 2,
        dead: dead.iter().map(|&d| pdisk::DiskId(d)).collect(),
    }
}

fn encode_parse_roundtrips_and_corruption_is_detected(engine: EngineKind) {
    let m = sample(engine, 2);
    let text = m.encode();
    assert_eq!(SortManifest::parse(&text).unwrap(), m);
    // Flip one digit in the first run line.
    let broken = text.replacen("\nrun ", "\nrun 9", 1);
    assert_ne!(broken, text);
    let err = SortManifest::parse(&broken).unwrap_err();
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    // Truncation loses the checksum line, wholly or in part.
    assert!(SortManifest::parse(&text[..text.len() / 2]).is_err());
    assert!(SortManifest::parse(&text[..text.len() - 20]).is_err());
}

fn redundancy_lines_roundtrip(engine: EngineKind) {
    // Degraded snapshot: parity width 2, disk 1 dead.
    let mut m = sample(engine, 2);
    m.redundancy = Some(parity2(&[1]));
    let text = m.encode();
    assert!(text.contains("parity 2\n"), "{text}");
    assert!(text.contains("dead 1\n"), "{text}");
    assert_eq!(SortManifest::parse(&text).unwrap(), m);
    // Healthy parity snapshot: no `dead` line at all.
    m.redundancy = Some(parity2(&[]));
    let text = m.encode();
    assert!(!text.contains("dead"), "{text}");
    assert_eq!(SortManifest::parse(&text).unwrap(), m);
    // Plain manifests stay byte-compatible with the v1 wire format.
    m.redundancy = None;
    assert!(!m.encode().contains("parity"));
}

fn redundancy_lines_are_validated_against_geometry(engine: EngineKind) {
    // Re-stamp a hand-edited manifest body with a fresh valid checksum so
    // this exercises the *semantic* validation, not the checksum.
    let recheck = |text: String| {
        let body = &text[..text.rfind("checksum ").unwrap()];
        format!("{body}checksum {:016x}\n", pdisk::fnv1a64(body.as_bytes()))
    };
    let mut m = sample(engine, 2);
    m.redundancy = Some(parity2(&[1]));
    assert_eq!(SortManifest::parse(&recheck(m.encode())).unwrap(), m);
    // Stripe width must equal D.
    assert!(SortManifest::parse(&recheck(m.encode().replace("parity 2", "parity 3"))).is_err());
    // Dead ids must be in range.
    assert!(SortManifest::parse(&recheck(m.encode().replace("dead 1", "dead 9"))).is_err());
}

fn validate_redundancy_refuses_mismatches(engine: EngineKind) {
    let mut m = sample(engine, 2);
    m.redundancy = None;
    // Plain manifest on a plain array: fine.
    m.validate_redundancy(None).unwrap();
    // Plain manifest on a parity array: refused (remap mismatch).
    assert!(m.validate_redundancy(Some(&parity2(&[]))).is_err());
    m.redundancy = Some(parity2(&[1]));
    // Parity manifest on a plain array: refused.
    assert!(m.validate_redundancy(None).is_err());
    // Array must already treat manifest-dead disks as dead.
    let err = m.validate_redundancy(Some(&parity2(&[]))).unwrap_err();
    assert!(is_checkpoint_error(&err), "{err:?}");
    m.validate_redundancy(Some(&parity2(&[1]))).unwrap();
    // Extra deaths discovered since the snapshot are tolerated.
    m.validate_redundancy(Some(&parity2(&[0, 1]))).unwrap();
    // Stripe width mismatch is refused outright.
    let narrower = pdisk::RedundancyInfo {
        stripe_disks: 1,
        dead: vec![pdisk::DiskId(1)],
    };
    assert!(m.validate_redundancy(Some(&narrower)).is_err());
}

/// Exhaustive single-byte corruption: flipping **any** byte of a valid
/// manifest (two masks per position: a low bit and all bits) must either
/// be refused with a typed checkpoint error or parse back to a manifest
/// identical to the original — never panic, never yield a silently
/// different resume state.  (A flip in trailing whitespace can leave the
/// content intact; that is the only acceptable "success".)
fn byte_flips_never_panic_or_resume_wrong(engine: EngineKind) {
    let (dir, path) = journal_dir(engine, "fuzz");
    let mut m = sample(engine, 2);
    m.save(&path, None).unwrap();
    let valid = std::fs::read(&path).unwrap();

    for i in 0..valid.len() {
        for mask in [0x01u8, 0xFF] {
            let mut bytes = valid.clone();
            bytes[i] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            match SortManifest::load(&path) {
                Err(e) => assert!(
                    is_checkpoint_error(&e),
                    "byte {i} ^ {mask:#04x}: wrong error type {e:?}"
                ),
                Ok(parsed) => assert_eq!(
                    parsed, m,
                    "byte {i} ^ {mask:#04x}: corrupt manifest parsed to different state"
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `#[test]` per store property, each run through both `algo` lines.
mod both_payloads {
    use srm_core::EngineKind::{Dsm, Srm};

    #[test]
    fn encode_parse_roundtrips_and_corruption_is_detected() {
        super::encode_parse_roundtrips_and_corruption_is_detected(Srm);
        super::encode_parse_roundtrips_and_corruption_is_detected(Dsm);
    }

    #[test]
    fn redundancy_lines_roundtrip() {
        super::redundancy_lines_roundtrip(Srm);
        super::redundancy_lines_roundtrip(Dsm);
    }

    #[test]
    fn redundancy_lines_are_validated_against_geometry() {
        super::redundancy_lines_are_validated_against_geometry(Srm);
        super::redundancy_lines_are_validated_against_geometry(Dsm);
    }

    #[test]
    fn validate_redundancy_refuses_mismatches() {
        super::validate_redundancy_refuses_mismatches(Srm);
        super::validate_redundancy_refuses_mismatches(Dsm);
    }

    #[test]
    fn save_load_roundtrips_and_remove_is_idempotent() {
        super::save_load_roundtrips_and_remove_is_idempotent(Srm);
        super::save_load_roundtrips_and_remove_is_idempotent(Dsm);
    }

    #[test]
    fn saves_journal_the_previous_generation() {
        super::saves_journal_the_previous_generation(Srm);
        super::saves_journal_the_previous_generation(Dsm);
    }

    #[test]
    fn load_latest_falls_back_to_the_previous_valid_generation() {
        super::load_latest_falls_back_to_the_previous_valid_generation(Srm);
        super::load_latest_falls_back_to_the_previous_valid_generation(Dsm);
    }

    #[test]
    fn a_torn_current_manifest_is_not_rotated_over_the_journal() {
        super::a_torn_current_manifest_is_not_rotated_over_the_journal(Srm);
        super::a_torn_current_manifest_is_not_rotated_over_the_journal(Dsm);
    }
}

#[test]
fn srm_manifest_byte_flips_never_panic_or_resume_wrong() {
    byte_flips_never_panic_or_resume_wrong(EngineKind::Srm);
}

#[test]
fn dsm_manifest_byte_flips_never_panic_or_resume_wrong() {
    byte_flips_never_panic_or_resume_wrong(EngineKind::Dsm);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    #[test]
    fn srm_generation_fallback_survives_random_byte_flips(
        flips in proptest::collection::vec(
            (proptest::arbitrary::any::<usize>(), 1u8..=255u8, proptest::arbitrary::any::<bool>()),
            1..8,
        ),
    ) {
        generation_fallback_survives_byte_flips(EngineKind::Srm, &flips);
    }

    #[test]
    fn dsm_generation_fallback_survives_random_byte_flips(
        flips in proptest::collection::vec(
            (proptest::arbitrary::any::<usize>(), 1u8..=255u8, proptest::arbitrary::any::<bool>()),
            1..8,
        ),
    ) {
        generation_fallback_survives_byte_flips(EngineKind::Dsm, &flips);
    }
}

/// Resume refuses a manifest that doesn't match the sorter or input —
/// each mismatch is a checkpoint error, not silent corruption.
#[test]
fn resume_rejects_incompatible_manifests() {
    let data = random_records(3000, 74);
    let dir = unique_dir("srm-reject");
    let manifest = dir.join("sort.manifest");

    // Produce a real manifest by killing a checkpointed sort mid-merge.
    let (_, reads, _) = srm_baseline(&data);
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let mut a = pdisk::FaultyDiskArray::new(
        inner,
        FaultModel::none().kill_at(FaultOp::Read, reads / 2),
    );
    let input = write_unsorted_input(&mut a, &data).unwrap();
    assert!(SrmSorter::default()
        .sort_checkpointed(&mut a, &input, &manifest)
        .is_err());
    assert!(manifest.exists(), "mid-merge kill must leave a manifest");
    let mut recovered = a.into_inner();

    // Wrong seed.
    let reseeded = SrmSorter::new(srm_core::SrmConfig {
        seed: 0xBAD_5EED,
        ..srm_core::SrmConfig::default()
    });
    match reseeded.sort_checkpointed(&mut recovered, &input, &manifest) {
        Err(srm_core::SrmError::Checkpoint(msg)) => assert!(msg.contains("seed"), "{msg}"),
        other => panic!("wrong seed must be refused, got {other:?}"),
    }

    // Corrupted manifest file.
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.contains("records 3000"));
    std::fs::write(&manifest, text.replace("records 3000", "records 3001")).unwrap();
    match SrmSorter::default().sort_checkpointed(&mut recovered, &input, &manifest) {
        Err(srm_core::SrmError::Checkpoint(msg)) => {
            assert!(msg.contains("checksum mismatch"), "{msg}")
        }
        other => panic!("torn manifest must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Pass-loop conformance: the loop's contract, run under both merge-order
// rules (`EngineKind::{Srm, Dsm}`) through nothing but the public stage /
// `sort_observed` / read-back trio.  What a pass boundary promises:
//
// * the observer fires exactly once per boundary *completed by this
//   call* (pass 0 = formation) and is never replayed after a resume;
// * when `Interrupted` comes back, the manifest on disk loads and names
//   the boundary the sort stopped at;
// * every snapshot sits behind a `sync()` barrier with no write issued
//   between the observer and the return;
// * a set flag with one run left still completes;
// * success retires the manifest and its whole journal;
// * resuming under the other window is byte-identical.
// ---------------------------------------------------------------------

mod common;

use common::Probe;
use pdisk::{InterruptFlag, StripedRun};
use std::path::Path;

/// The array a sort of `g`'s machine runs on under `engine`.
fn engine_geometry(engine: EngineKind, g: Geometry) -> Geometry {
    match engine {
        EngineKind::Srm => g,
        EngineKind::Dsm => Geometry::new(1, g.d * g.b, g.m).unwrap(),
    }
}

/// `sort_observed` under `engine`, the given window and flag; returns the
/// sorted run and the report's whole-sort merge-pass count.
fn sort_as<A: DiskArray<U64Record>>(
    engine: EngineKind,
    pipeline: bool,
    flag: &InterruptFlag,
    a: &mut A,
    input: &StripedRun,
    manifest: Option<&Path>,
    observer: &mut dyn FnMut(u64, &mut A),
) -> Result<(StripedRun, u64), SrmError> {
    SrmSorter::default()
        .with_engine(engine)
        .with_pipeline(pipeline)
        .with_interrupt(flag.clone())
        .sort_observed(a, input, manifest, |pass, a: &mut A| {
            observer(pass, a);
            Ok(())
        })
        .map(|(run, report)| (run, report.merge_passes))
}

/// The pass named by the newest loadable checkpoint at `manifest`.
fn checkpointed_pass(manifest: &Path) -> Option<u64> {
    SortManifest::load_latest(manifest).unwrap().map(|m| m.pass)
}

/// The journal is wholly gone: manifest, `.prev` and `.tmp`.
fn assert_journal_retired(manifest: &Path) {
    for p in [
        manifest.to_path_buf(),
        manifest_sibling(manifest, "prev"),
        manifest_sibling(manifest, "tmp"),
    ] {
        assert!(!p.exists(), "{} must be retired on success", p.display());
    }
}

/// Interrupt at *every* boundary in turn, alternating the window between
/// calls, and hold each return against the contract above.
fn stepping_through_every_boundary_honours_the_contract(engine: EngineKind) {
    let data = random_records(3000, 81);
    let dir = unique_dir(&format!("conform-step-{}", engine.as_str()));
    let manifest = dir.join("sort.manifest");
    let flag = InterruptFlag::new();

    // Uninterrupted reference: one observer call per boundary, 0..=P.
    let mut clean: MemDiskArray<U64Record> = MemDiskArray::new(engine_geometry(engine, geom()));
    let input = write_unsorted_input(&mut clean, &data).unwrap();
    let mut boundaries = Vec::new();
    let (run, passes) =
        sort_as(engine, false, &flag, &mut clean, &input, None, &mut |pass, _| boundaries.push(pass))
            .unwrap();
    assert!(passes >= 2, "need a genuinely multi-pass sort");
    assert_eq!(boundaries, (0..=passes).collect::<Vec<_>>());
    let want = encode_all(&read_run(&mut clean, &run).unwrap());

    // Stepping run: the observer trips the flag at every boundary, so
    // each call completes exactly one pass and stops behind its snapshot.
    let mut a = Probe::new(MemDiskArray::<U64Record>::new(engine_geometry(engine, geom())));
    let input = write_unsorted_input(&mut a, &data).unwrap();
    let mut seen = Vec::new();
    let mut interrupts = 0u64;
    let run = loop {
        let pipeline = interrupts % 2 == 1;
        let before = checkpointed_pass(&manifest);
        let stopped = sort_as(engine, pipeline, &flag, &mut a, &input, Some(&manifest), &mut |pass, a| {
            seen.push(pass);
            assert_eq!(
                checkpointed_pass(&manifest),
                before,
                "pass {pass}: the observer runs before the boundary's snapshot"
            );
            a.log.borrow_mut().clear();
            flag.trigger();
        });
        match stopped {
            Ok((run, total)) => {
                assert_eq!(total, passes, "whole-sort pass count survives the resumes");
                break run;
            }
            Err(SrmError::Interrupted) => {
                let at = *seen.last().expect("interrupted before any boundary");
                assert_eq!(
                    checkpointed_pass(&manifest),
                    Some(at),
                    "Interrupted must leave a loadable manifest naming the boundary"
                );
                let log = a.log.borrow();
                assert!(log.contains("sync"), "pass {at}: snapshot without a sync barrier");
                assert!(
                    !log.contains("write") && !log.contains("submit_write"),
                    "pass {at}: a write slipped between the barrier and the snapshot: {log:?}"
                );
                interrupts += 1;
                flag.clear();
            }
            Err(e) => panic!("{} sort failed: {e}", engine.as_str()),
        }
    };
    // Every boundary once, in order, none replayed by a resume; the last
    // one (a single run left) completes although the flag was set.
    assert_eq!(seen, (0..=passes).collect::<Vec<_>>());
    assert_eq!(interrupts, passes, "one stop per boundary with work left");
    assert_eq!(encode_all(&read_run(&mut a, &run).unwrap()), want, "stepped output diverged");
    assert_journal_retired(&manifest);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One memory load, one run, no boundary with work left: a set flag must
/// not stop the sort, and the formation checkpoint is retired again.
fn a_set_flag_with_one_run_left_still_completes(engine: EngineKind) {
    let dir = unique_dir(&format!("conform-lone-{}", engine.as_str()));
    let manifest = dir.join("sort.manifest");
    let data: Vec<U64Record> = (0..60u64).rev().map(U64Record).collect();
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(engine_geometry(engine, Geometry::new(2, 4, 128).unwrap()));
    let input = write_unsorted_input(&mut a, &data).unwrap();
    let flag = InterruptFlag::new();
    flag.trigger();
    let mut seen = Vec::new();
    let (run, passes) =
        sort_as(engine, false, &flag, &mut a, &input, Some(&manifest), &mut |pass, _| seen.push(pass))
            .unwrap();
    assert_eq!((passes, seen), (0, vec![0]));
    let keys: Vec<u64> = read_run(&mut a, &run).unwrap().iter().map(|r| r.0).collect();
    assert_eq!(keys, (0..60).collect::<Vec<u64>>());
    assert_journal_retired(&manifest);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag set before the sort starts: formation still completes and is
/// journaled, and the sort stops behind that first snapshot — not before
/// it, where the stepping test's observer-set flag cannot look.
fn a_flag_set_before_the_sort_stops_behind_the_first_snapshot(engine: EngineKind) {
    let dir = unique_dir(&format!("conform-early-{}", engine.as_str()));
    let manifest = dir.join("sort.manifest");
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(engine_geometry(engine, geom()));
    let input = write_unsorted_input(&mut a, &random_records(3000, 82)).unwrap();
    let flag = InterruptFlag::new();
    flag.trigger();
    let mut seen = Vec::new();
    match sort_as(engine, false, &flag, &mut a, &input, Some(&manifest), &mut |pass, _| seen.push(pass)) {
        Err(SrmError::Interrupted) => {}
        Err(e) => panic!("{} sort failed: {e}", engine.as_str()),
        Ok(_) => panic!("{} sort ignored a set flag with runs left", engine.as_str()),
    }
    assert_eq!(seen, [0]);
    assert_eq!(
        checkpointed_pass(&manifest),
        Some(0),
        "Interrupted before the formation snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `#[test]` per contract, each run through every engine.
mod every_engine {
    use srm_core::EngineKind::{Dsm, Srm};

    #[test]
    fn stepping_through_every_boundary_honours_the_contract() {
        super::stepping_through_every_boundary_honours_the_contract(Srm);
        super::stepping_through_every_boundary_honours_the_contract(Dsm);
    }

    #[test]
    fn a_set_flag_with_one_run_left_still_completes() {
        super::a_set_flag_with_one_run_left_still_completes(Srm);
        super::a_set_flag_with_one_run_left_still_completes(Dsm);
    }

    #[test]
    fn a_flag_set_before_the_sort_stops_behind_the_first_snapshot() {
        super::a_flag_set_before_the_sort_stops_behind_the_first_snapshot(Srm);
        super::a_flag_set_before_the_sort_stops_behind_the_first_snapshot(Dsm);
    }
}
