//! Kill-and-resume end-to-end tests: a multi-pass sort interrupted by a
//! permanent disk fault at *any* point must, when rerun against the same
//! array with the same manifest path, complete and produce output
//! **byte-identical** to an uninterrupted sort — same record sequence,
//! same encoded bytes — because the resumed placement RNG is
//! fast-forwarded to exactly where the interrupted sort left off.

use pdisk::manifest::{manifest_sibling, Lines};
use pdisk::{
    DiskArray, FaultModel, FaultOp, FileDiskArray, Geometry, Manifest, MemDiskArray, Record,
    U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, EngineKind, SortManifest, SrmSorter};
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

/// What the shared store suite needs from a manifest payload: a sample
/// with redundancy lines and two runs, and a field that tells two saved
/// generations apart.
/// Every store test below runs once per implementor — the envelope, the
/// journal and the redundancy codec are one body of code
/// (`pdisk::manifest`), exercised through both payloads.
trait Payload: Manifest + Clone + PartialEq + std::fmt::Debug {
    const TAG: &'static str;
    fn sample(pass: u64) -> Self;
    fn pass(&self) -> u64;
    fn set_redundancy(&mut self, redundancy: Option<pdisk::RedundancyInfo>);
}

/// The store's failures are all the shared vocabulary's `Checkpoint`.
fn is_checkpoint_error(e: &pdisk::SortError) -> bool {
    matches!(e, pdisk::SortError::Checkpoint(_))
}

impl Payload for SortManifest {
    const TAG: &'static str = "srm";

    fn sample(pass: u64) -> Self {
        SortManifest::new(
            EngineKind::Srm,
            &srm_core::SrmConfig::default(),
            geom(),
            3000,
            63,
            pass,
            65 + pass,
            Some(pdisk::RedundancyInfo {
                stripe_disks: 2,
                dead: vec![pdisk::DiskId(1)],
            }),
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

    fn pass(&self) -> u64 {
        self.pass
    }

    fn set_redundancy(&mut self, redundancy: Option<pdisk::RedundancyInfo>) {
        self.redundancy = redundancy;
    }
}

/// The DSM-configured `SortManifest` — the same codec, writing `algo dsm`
/// — as a payload of its own, so every store test runs through both
/// `algo` lines.
#[derive(Debug, Clone, PartialEq)]
struct DsmPayload(SortManifest);

impl Manifest for DsmPayload {
    fn generation(&self) -> u64 {
        self.0.generation()
    }

    fn set_generation(&mut self, generation: u64) {
        self.0.set_generation(generation);
    }

    fn redundancy(&self) -> Option<&pdisk::RedundancyInfo> {
        self.0.redundancy()
    }

    fn encode_body(&self) -> String {
        self.0.encode_body()
    }

    fn parse_body(lines: &mut Lines<'_>) -> Result<Self, String> {
        SortManifest::parse_body(lines).map(DsmPayload)
    }
}

impl Payload for DsmPayload {
    const TAG: &'static str = "dsm";

    fn sample(pass: u64) -> Self {
        let mut m = SortManifest::sample(pass);
        m.engine = EngineKind::Dsm;
        m.draws = 0;
        DsmPayload(m)
    }

    fn pass(&self) -> u64 {
        self.0.pass
    }

    fn set_redundancy(&mut self, redundancy: Option<pdisk::RedundancyInfo>) {
        self.0.redundancy = redundancy;
    }
}

/// A fresh scratch directory and the manifest path inside it.
fn journal_dir<M: Payload>(tag: &str) -> (PathBuf, PathBuf) {
    let dir = unique_dir(&format!("{}-{tag}", M::TAG));
    let path = dir.join("sort.manifest");
    (dir, path)
}

/// Save generation 1 (pass 1), then generation 2 (pass 2) — which
/// journals generation 1 to `.prev` — and return the second as saved.
fn save_two_generations<M: Payload>(path: &std::path::Path) -> M {
    M::sample(1).save(path).unwrap();
    let mut newest = M::sample(2);
    newest.save(path).unwrap();
    assert_eq!(newest.generation(), 2);
    newest
}

fn flip_byte(path: &std::path::Path, at: impl Fn(usize) -> usize, mask: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    let i = at(bytes.len());
    bytes[i] ^= mask;
    std::fs::write(path, &bytes).unwrap();
}

fn save_load_roundtrips_and_remove_is_idempotent<M: Payload>() {
    let (dir, path) = journal_dir::<M>("roundtrip");
    let mut m = M::sample(2);
    m.save(&path).unwrap();
    assert_eq!(m.generation(), 1, "first save starts the generation chain");
    assert_eq!(M::load(&path).unwrap(), m);
    M::remove(&path).unwrap();
    M::remove(&path).unwrap(); // second remove: no error
    assert!(M::load(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

fn saves_journal_the_previous_generation<M: Payload>() {
    let (dir, path) = journal_dir::<M>("gen");
    let newest = save_two_generations::<M>(&path);
    // Both generations live on disk: the newest at `path`, its
    // predecessor journaled beside it.
    assert_eq!(M::load_latest(&path).unwrap().unwrap(), newest);
    let prev_path = manifest_sibling(&path, "prev");
    let prev = M::load(&prev_path).unwrap();
    assert_eq!(prev.generation(), 1);
    assert_eq!(prev.pass(), 1, "journal holds the pre-update snapshot");
    // Remove clears the whole journal.
    M::remove(&path).unwrap();
    assert!(M::load_latest(&path).unwrap().is_none());
    assert!(!path.exists() && !prev_path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

fn load_latest_falls_back_to_the_previous_valid_generation<M: Payload>() {
    let (dir, path) = journal_dir::<M>("fallback");
    save_two_generations::<M>(&path);
    // Tear the newest manifest mid-byte: recovery must pick gen 1.
    flip_byte(&path, |len| len / 2, 0x01);
    let recovered = M::load_latest(&path).unwrap().unwrap();
    assert_eq!((recovered.generation(), recovered.pass()), (1, 1));
    // With *every* candidate corrupt, recovery refuses loudly — a typed
    // error, not a silent fresh start.
    flip_byte(&manifest_sibling(&path, "prev"), |len| len / 2, 0x01);
    let err = M::load_latest(&path).unwrap_err();
    assert!(is_checkpoint_error(&err), "{err:?}");
    assert!(err.to_string().contains("corrupt"), "{err}");
    // And with no candidates at all, there is nothing to resume.
    M::remove(&path).unwrap();
    assert!(M::load_latest(&path).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

fn a_torn_current_manifest_is_not_rotated_over_the_journal<M: Payload>() {
    let (dir, path) = journal_dir::<M>("rotate");
    let mut m = save_two_generations::<M>(&path);
    std::fs::write(&path, b"torn garbage").unwrap();
    // The next save must not shove the garbage over the valid gen 1.
    m.save(&path).unwrap();
    assert_eq!(m.generation(), 2, "torn gen 2 does not advance the chain");
    let prev = M::load(&manifest_sibling(&path, "prev")).unwrap();
    assert_eq!(prev.generation(), 1, "journaled gen 1 survived the torn save");
    assert_eq!(M::load_latest(&path).unwrap().unwrap().generation(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generation journaling under fire: with two saved generations on
/// disk (current + `.prev`), random byte-flips in either file must
/// always be detected — recovery loads the newest generation that
/// still validates, falls back to the journaled predecessor when the
/// current copy is torn, and never parses to a state that was not
/// one of the two saved.
fn generation_fallback_survives_byte_flips<M: Payload>(flips: &[(usize, u8, bool)]) {
    let (dir, path) = journal_dir::<M>("genfuzz");
    let prev_path = manifest_sibling(&path, "prev");
    let newest = save_two_generations::<M>(&path);
    let prev = M::load(&prev_path).unwrap();
    assert_eq!(prev.generation(), 1);

    let mut cur_touched = false;
    for &(pos, mask, hit_current) in flips {
        flip_byte(if hit_current { &path } else { &prev_path }, |len| pos % len, mask);
        cur_touched |= hit_current;
    }

    match M::load_latest(&path) {
        Ok(Some(got)) if got == newest => {}
        Ok(Some(got)) if got == prev => {
            // Fallback is only legitimate when the current manifest
            // really is torn (a flip in trailing whitespace can
            // leave it valid).
            assert!(
                cur_touched && M::load(&path).is_err(),
                "fell back to generation 1 while generation 2 still validates"
            );
        }
        Ok(Some(got)) => panic!(
            "corrupt manifests parsed to a state never saved: gen {}",
            got.generation()
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

fn encode_parse_roundtrips_and_corruption_is_detected<M: Payload>() {
    let m = M::sample(2);
    let text = m.encode();
    assert_eq!(M::parse(&text).unwrap(), m);
    // Flip one digit in the first run line.
    let broken = text.replacen("\nrun ", "\nrun 9", 1);
    assert_ne!(broken, text);
    let err = M::parse(&broken).unwrap_err();
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    // Truncation loses the checksum line, wholly or in part.
    assert!(M::parse(&text[..text.len() / 2]).is_err());
    assert!(M::parse(&text[..text.len() - 20]).is_err());
}

fn redundancy_lines_roundtrip<M: Payload>() {
    // Degraded snapshot: parity width 2, disk 1 dead.
    let mut m = M::sample(2);
    m.set_redundancy(Some(parity2(&[1])));
    let text = m.encode();
    assert!(text.contains("parity 2\n"), "{text}");
    assert!(text.contains("dead 1\n"), "{text}");
    assert_eq!(M::parse(&text).unwrap(), m);
    // Healthy parity snapshot: no `dead` line at all.
    m.set_redundancy(Some(parity2(&[])));
    let text = m.encode();
    assert!(!text.contains("dead"), "{text}");
    assert_eq!(M::parse(&text).unwrap(), m);
    // Plain manifests stay byte-compatible with the v1 wire format.
    m.set_redundancy(None);
    assert!(!m.encode().contains("parity"));
}

fn redundancy_lines_are_validated_against_geometry<M: Payload>() {
    // Re-stamp a hand-edited manifest body with a fresh valid checksum so
    // this exercises the *semantic* validation, not the checksum.
    let recheck = |text: String| {
        let body = &text[..text.rfind("checksum ").unwrap()];
        format!("{body}checksum {:016x}\n", pdisk::fnv1a64(body.as_bytes()))
    };
    let mut m = M::sample(2);
    m.set_redundancy(Some(parity2(&[1])));
    assert_eq!(M::parse(&recheck(m.encode())).unwrap(), m);
    // Stripe width must equal D.
    assert!(M::parse(&recheck(m.encode().replace("parity 2", "parity 3"))).is_err());
    // Dead ids must be in range.
    assert!(M::parse(&recheck(m.encode().replace("dead 1", "dead 9"))).is_err());
}

fn validate_redundancy_refuses_mismatches<M: Payload>() {
    let mut m = M::sample(2);
    m.set_redundancy(None);
    // Plain manifest on a plain array: fine.
    m.validate_redundancy(None).unwrap();
    // Plain manifest on a parity array: refused (remap mismatch).
    assert!(m.validate_redundancy(Some(&parity2(&[]))).is_err());
    m.set_redundancy(Some(parity2(&[1])));
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
fn byte_flips_never_panic_or_resume_wrong<M: Payload>() {
    let (dir, path) = journal_dir::<M>("fuzz");
    let mut m = M::sample(2);
    m.save(&path).unwrap();
    let valid = std::fs::read(&path).unwrap();

    for i in 0..valid.len() {
        for mask in [0x01u8, 0xFF] {
            let mut bytes = valid.clone();
            bytes[i] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            match M::load(&path) {
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

/// One `#[test]` per store property, each run through both payloads.
mod both_payloads {
    use super::DsmPayload;
    use srm_core::SortManifest;

    #[test]
    fn encode_parse_roundtrips_and_corruption_is_detected() {
        super::encode_parse_roundtrips_and_corruption_is_detected::<SortManifest>();
        super::encode_parse_roundtrips_and_corruption_is_detected::<DsmPayload>();
    }

    #[test]
    fn redundancy_lines_roundtrip() {
        super::redundancy_lines_roundtrip::<SortManifest>();
        super::redundancy_lines_roundtrip::<DsmPayload>();
    }

    #[test]
    fn redundancy_lines_are_validated_against_geometry() {
        super::redundancy_lines_are_validated_against_geometry::<SortManifest>();
        super::redundancy_lines_are_validated_against_geometry::<DsmPayload>();
    }

    #[test]
    fn validate_redundancy_refuses_mismatches() {
        super::validate_redundancy_refuses_mismatches::<SortManifest>();
        super::validate_redundancy_refuses_mismatches::<DsmPayload>();
    }

    #[test]
    fn save_load_roundtrips_and_remove_is_idempotent() {
        super::save_load_roundtrips_and_remove_is_idempotent::<SortManifest>();
        super::save_load_roundtrips_and_remove_is_idempotent::<DsmPayload>();
    }

    #[test]
    fn saves_journal_the_previous_generation() {
        super::saves_journal_the_previous_generation::<SortManifest>();
        super::saves_journal_the_previous_generation::<DsmPayload>();
    }

    #[test]
    fn load_latest_falls_back_to_the_previous_valid_generation() {
        super::load_latest_falls_back_to_the_previous_valid_generation::<SortManifest>();
        super::load_latest_falls_back_to_the_previous_valid_generation::<DsmPayload>();
    }

    #[test]
    fn a_torn_current_manifest_is_not_rotated_over_the_journal() {
        super::a_torn_current_manifest_is_not_rotated_over_the_journal::<SortManifest>();
        super::a_torn_current_manifest_is_not_rotated_over_the_journal::<DsmPayload>();
    }
}

#[test]
fn srm_manifest_byte_flips_never_panic_or_resume_wrong() {
    byte_flips_never_panic_or_resume_wrong::<srm_core::SortManifest>();
}

#[test]
fn dsm_manifest_byte_flips_never_panic_or_resume_wrong() {
    byte_flips_never_panic_or_resume_wrong::<DsmPayload>();
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
        generation_fallback_survives_byte_flips::<srm_core::SortManifest>(&flips);
    }

    #[test]
    fn dsm_generation_fallback_survives_random_byte_flips(
        flips in proptest::collection::vec(
            (proptest::arbitrary::any::<usize>(), 1u8..=255u8, proptest::arbitrary::any::<bool>()),
            1..8,
        ),
    ) {
        generation_fallback_survives_byte_flips::<DsmPayload>(&flips);
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
// Engine conformance: the pass-driver contract, run once per engine
// through nothing but its public stage / `sort_observed` / read-back
// trio.  What a pass boundary promises is the same for every engine:
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
use pdisk::passes::{Boundary, Checkpointing};
use pdisk::InterruptFlag;
use std::path::Path;

/// How a conformance sort ended, when it did not complete.
#[derive(Debug)]
enum Stop {
    Interrupted,
    Failed(String),
}

/// The slice of an engine the conformance suite drives.
trait Conformant {
    type Run: Clone;
    const TAG: &'static str;

    /// The array a sort of `g`'s machine runs on.
    fn geometry(g: Geometry) -> Geometry {
        g
    }

    fn stage<A: DiskArray<U64Record>>(a: &mut A, data: &[U64Record]) -> Self::Run;

    /// `sort_observed` under the given window and flag; returns the
    /// sorted run and the report's whole-sort merge-pass count.
    fn sort<A: DiskArray<U64Record>>(
        pipeline: bool,
        flag: &InterruptFlag,
        a: &mut A,
        input: &Self::Run,
        manifest: Option<&Path>,
        observer: &mut dyn FnMut(u64, &mut A),
    ) -> Result<(Self::Run, u64), Stop>;

    fn read<A: DiskArray<U64Record>>(a: &mut A, run: &Self::Run) -> Vec<U64Record>;

    /// The pass named by the newest loadable checkpoint at `manifest`.
    fn checkpointed_pass(manifest: &Path) -> Option<u64>;
}

struct Srm;

impl Conformant for Srm {
    type Run = pdisk::StripedRun;
    const TAG: &'static str = "srm";

    fn stage<A: DiskArray<U64Record>>(a: &mut A, data: &[U64Record]) -> Self::Run {
        write_unsorted_input(a, data).unwrap()
    }

    fn sort<A: DiskArray<U64Record>>(
        pipeline: bool,
        flag: &InterruptFlag,
        a: &mut A,
        input: &Self::Run,
        manifest: Option<&Path>,
        observer: &mut dyn FnMut(u64, &mut A),
    ) -> Result<(Self::Run, u64), Stop> {
        SrmSorter::default()
            .with_pipeline(pipeline)
            .with_interrupt(flag.clone())
            .sort_observed(a, input, manifest, |pass, a: &mut A| {
                observer(pass, a);
                Ok(())
            })
            .map(|(run, report)| (run, report.merge_passes))
            .map_err(|e| match e {
                srm_core::SrmError::Interrupted => Stop::Interrupted,
                e => Stop::Failed(e.to_string()),
            })
    }

    fn read<A: DiskArray<U64Record>>(a: &mut A, run: &Self::Run) -> Vec<U64Record> {
        read_run(a, run).unwrap()
    }

    fn checkpointed_pass(manifest: &Path) -> Option<u64> {
        srm_core::SortManifest::load_latest(manifest).unwrap().map(|m| m.pass)
    }
}

struct Dsm;

impl Conformant for Dsm {
    type Run = pdisk::StripedRun;
    const TAG: &'static str = "dsm";

    fn geometry(g: Geometry) -> Geometry {
        Geometry::new(1, g.d * g.b, g.m).unwrap()
    }

    fn stage<A: DiskArray<U64Record>>(a: &mut A, data: &[U64Record]) -> Self::Run {
        write_unsorted_input(a, data).unwrap()
    }

    fn sort<A: DiskArray<U64Record>>(
        pipeline: bool,
        flag: &InterruptFlag,
        a: &mut A,
        input: &Self::Run,
        manifest: Option<&Path>,
        observer: &mut dyn FnMut(u64, &mut A),
    ) -> Result<(Self::Run, u64), Stop> {
        dsm()
            .with_pipeline(pipeline)
            .with_interrupt(flag.clone())
            .sort_observed(a, input, manifest, |pass, a: &mut A| {
                observer(pass, a);
                Ok(())
            })
            .map(|(run, report)| (run, report.merge_passes))
            .map_err(|e| match e {
                srm_core::SrmError::Interrupted => Stop::Interrupted,
                e => Stop::Failed(e.to_string()),
            })
    }

    fn read<A: DiskArray<U64Record>>(a: &mut A, run: &Self::Run) -> Vec<U64Record> {
        read_run(a, run).unwrap()
    }

    fn checkpointed_pass(manifest: &Path) -> Option<u64> {
        Srm::checkpointed_pass(manifest)
    }
}

/// A third engine, the proof that one is "one `impl`": two-way mergesort
/// over runs laid out like unsorted input, checkpointing in
/// `SortManifest`, written against [`pdisk::PassEngine`] alone — no
/// product file knows it exists.  [`Checkpointing::drive`] gives it the
/// resume rule, the observer, the barrier, the journal, the interrupt
/// check and manifest retirement.
struct Toy;

impl pdisk::PassEngine for Toy {
    type Run = pdisk::StripedRun;
    type Manifest = SortManifest;
    type State = ();

    fn merge_order(&self, _: Geometry) -> Result<usize, pdisk::SortError> {
        Ok(2)
    }

    fn form<R: Record, A: DiskArray<R>>(
        &self,
        a: &mut A,
        input: &Self::Run,
    ) -> Result<(Vec<Self::Run>, ()), pdisk::SortError> {
        let mut records = read_run(a, input)?;
        let mut runs = Vec::new();
        for load in records.chunks_mut(a.geometry().m / 2) {
            load.sort_unstable_by_key(|r| r.key());
            runs.push(write_unsorted_input(a, load)?);
        }
        Ok((runs, ()))
    }

    fn merge_group<R: Record, A: DiskArray<R>>(
        &self,
        a: &mut A,
        group: &[Self::Run],
        _: &mut (),
    ) -> Result<Self::Run, pdisk::SortError> {
        let mut merged = Vec::new();
        for run in group {
            merged.extend(read_run(a, run)?);
        }
        merged.sort_by_key(|r| r.key()); // stable: ties keep run order
        write_unsorted_input(a, &merged)
    }

    fn checkpoint(&self, _: &(), at: Boundary<Self::Run>) -> Self::Manifest {
        let Boundary { geometry, records, runs_formed, pass, redundancy, runs } = at;
        let config = srm_core::SrmConfig::default();
        SortManifest::new(EngineKind::Srm, &config, geometry, records, runs_formed, pass, 0, redundancy, runs)
    }

    fn restore(
        &self,
        m: &Self::Manifest,
        geometry: Geometry,
        records: u64,
    ) -> Result<(Boundary<Self::Run>, ()), pdisk::SortError> {
        m.validate(EngineKind::Srm, &srm_core::SrmConfig::default(), geometry, records)?;
        let (runs_formed, pass) = (m.runs_formed, m.pass);
        let (redundancy, runs) = (m.redundancy.clone(), m.runs.clone());
        Ok((Boundary { geometry, records, runs_formed, pass, redundancy, runs }, ()))
    }
}

impl Conformant for Toy {
    type Run = pdisk::StripedRun;
    const TAG: &'static str = "toy";

    fn stage<A: DiskArray<U64Record>>(a: &mut A, data: &[U64Record]) -> Self::Run {
        write_unsorted_input(a, data).unwrap()
    }

    fn sort<A: DiskArray<U64Record>>(
        _pipeline: bool,
        flag: &InterruptFlag,
        a: &mut A,
        input: &Self::Run,
        manifest: Option<&Path>,
        observer: &mut dyn FnMut(u64, &mut A),
    ) -> Result<(Self::Run, u64), Stop> {
        let checkpointing = Checkpointing { manifest, interrupt: Some(flag), crash: None };
        checkpointing
            .drive(&Toy, a, input, |pass, a: &mut A| {
                observer(pass, a);
                Ok(())
            })
                .map(|(run, report, ())| (run, report.merge_passes))
            .map_err(|e| match e {
                pdisk::SortError::Interrupted => Stop::Interrupted,
                e => Stop::Failed(e.to_string()),
            })
    }

    fn read<A: DiskArray<U64Record>>(a: &mut A, run: &Self::Run) -> Vec<U64Record> {
        read_run(a, run).unwrap()
    }

    fn checkpointed_pass(manifest: &Path) -> Option<u64> {
        Srm::checkpointed_pass(manifest)
    }
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
fn stepping_through_every_boundary_honours_the_contract<E: Conformant>() {
    let data = random_records(3000, 81);
    let dir = unique_dir(&format!("conform-step-{}", E::TAG));
    let manifest = dir.join("sort.manifest");
    let flag = InterruptFlag::new();

    // Uninterrupted reference: one observer call per boundary, 0..=P.
    let mut clean: MemDiskArray<U64Record> = MemDiskArray::new(E::geometry(geom()));
    let input = E::stage(&mut clean, &data);
    let mut boundaries = Vec::new();
    let (run, passes) =
        E::sort(false, &flag, &mut clean, &input, None, &mut |pass, _| boundaries.push(pass))
            .unwrap();
    assert!(passes >= 2, "need a genuinely multi-pass sort");
    assert_eq!(boundaries, (0..=passes).collect::<Vec<_>>());
    let want = encode_all(&E::read(&mut clean, &run));

    // Stepping run: the observer trips the flag at every boundary, so
    // each call completes exactly one pass and stops behind its snapshot.
    let mut a = Probe::new(MemDiskArray::<U64Record>::new(E::geometry(geom())));
    let input = E::stage(&mut a, &data);
    let mut seen = Vec::new();
    let mut interrupts = 0u64;
    let run = loop {
        let pipeline = interrupts % 2 == 1;
        let before = E::checkpointed_pass(&manifest);
        let stopped = E::sort(pipeline, &flag, &mut a, &input, Some(&manifest), &mut |pass, a| {
            seen.push(pass);
            assert_eq!(
                E::checkpointed_pass(&manifest),
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
            Err(Stop::Interrupted) => {
                let at = *seen.last().expect("interrupted before any boundary");
                assert_eq!(
                    E::checkpointed_pass(&manifest),
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
            Err(Stop::Failed(e)) => panic!("{} sort failed: {e}", E::TAG),
        }
    };
    // Every boundary once, in order, none replayed by a resume; the last
    // one (a single run left) completes although the flag was set.
    assert_eq!(seen, (0..=passes).collect::<Vec<_>>());
    assert_eq!(interrupts, passes, "one stop per boundary with work left");
    assert_eq!(encode_all(&E::read(&mut a, &run)), want, "stepped output diverged");
    assert_journal_retired(&manifest);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One memory load, one run, no boundary with work left: a set flag must
/// not stop the sort, and the formation checkpoint is retired again.
fn a_set_flag_with_one_run_left_still_completes<E: Conformant>() {
    let dir = unique_dir(&format!("conform-lone-{}", E::TAG));
    let manifest = dir.join("sort.manifest");
    let data: Vec<U64Record> = (0..60u64).rev().map(U64Record).collect();
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(E::geometry(Geometry::new(2, 4, 128).unwrap()));
    let input = E::stage(&mut a, &data);
    let flag = InterruptFlag::new();
    flag.trigger();
    let mut seen = Vec::new();
    let (run, passes) =
        E::sort(false, &flag, &mut a, &input, Some(&manifest), &mut |pass, _| seen.push(pass))
            .unwrap();
    assert_eq!((passes, seen), (0, vec![0]));
    let keys: Vec<u64> = E::read(&mut a, &run).iter().map(|r| r.0).collect();
    assert_eq!(keys, (0..60).collect::<Vec<u64>>());
    assert_journal_retired(&manifest);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag set before the sort starts: formation still completes and is
/// journaled, and the sort stops behind that first snapshot — not before
/// it, where the stepping test's observer-set flag cannot look.
fn a_flag_set_before_the_sort_stops_behind_the_first_snapshot<E: Conformant>() {
    let dir = unique_dir(&format!("conform-early-{}", E::TAG));
    let manifest = dir.join("sort.manifest");
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(E::geometry(geom()));
    let input = E::stage(&mut a, &random_records(3000, 82));
    let flag = InterruptFlag::new();
    flag.trigger();
    let mut seen = Vec::new();
    match E::sort(false, &flag, &mut a, &input, Some(&manifest), &mut |pass, _| seen.push(pass)) {
        Err(Stop::Interrupted) => {}
        Err(Stop::Failed(e)) => panic!("{} sort failed: {e}", E::TAG),
        Ok(_) => panic!("{} sort ignored a set flag with runs left", E::TAG),
    }
    assert_eq!(seen, [0]);
    assert_eq!(
        E::checkpointed_pass(&manifest),
        Some(0),
        "Interrupted before the formation snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `#[test]` per contract, each run through every engine.
mod every_engine {
    use super::{Dsm, Srm, Toy};

    #[test]
    fn stepping_through_every_boundary_honours_the_contract() {
        super::stepping_through_every_boundary_honours_the_contract::<Srm>();
        super::stepping_through_every_boundary_honours_the_contract::<Dsm>();
        super::stepping_through_every_boundary_honours_the_contract::<Toy>();
    }

    #[test]
    fn a_set_flag_with_one_run_left_still_completes() {
        super::a_set_flag_with_one_run_left_still_completes::<Srm>();
        super::a_set_flag_with_one_run_left_still_completes::<Dsm>();
        super::a_set_flag_with_one_run_left_still_completes::<Toy>();
    }

    #[test]
    fn a_flag_set_before_the_sort_stops_behind_the_first_snapshot() {
        super::a_flag_set_before_the_sort_stops_behind_the_first_snapshot::<Srm>();
        super::a_flag_set_before_the_sort_stops_behind_the_first_snapshot::<Dsm>();
        super::a_flag_set_before_the_sort_stops_behind_the_first_snapshot::<Toy>();
    }
}
