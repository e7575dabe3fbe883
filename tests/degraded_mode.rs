//! Permanent-disk-death drills: a sort under rotating parity that loses
//! one disk forever — mid-merge or at a pass boundary, with or without a
//! checkpoint resume in between — must complete **without restarting**
//! and produce output byte-identical to the failure-free run, because
//! the parity layer serves the dead disk's blocks by reconstruction and
//! the merge schedule never changes.

use pdisk::{
    DiskArray, DiskId, FaultModel, FaultOp, FaultyDiskArray, FileDiskArray, Geometry, MemDiskArray,
    ParityDiskArray, Record, U64Record,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srm_core::sort::write_unsorted_input;
use srm_core::{read_run, SrmError, SrmSorter};
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
    let dir = std::env::temp_dir().join(format!("srm-degraded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Three disks (real parity, not a mirror) and three merge passes over
/// 3000 records, so deaths can land at and between every boundary.
fn geom() -> Geometry {
    Geometry::new(3, 4, 120).unwrap()
}

/// Failure-free SRM baseline on a plain array: output bytes plus the
/// sort's own read-op count (to aim mid-merge kills).
fn srm_baseline(data: &[U64Record]) -> (Vec<u8>, u64) {
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom());
    let input = write_unsorted_input(&mut a, data).unwrap();
    a.reset_stats();
    let (run, report) = SrmSorter::default().sort(&mut a, &input).unwrap();
    assert!(report.merge_passes >= 3, "need a genuinely multi-pass sort");
    let reads = a.stats().read_ops;
    let out = read_run(&mut a, &run).unwrap();
    (encode_all(&out), reads)
}

/// The headline drill: a disk dies permanently in the middle of a merge
/// pass (first touch at a scripted read ordinal fails with a permanent
/// fault).  The parity layer absorbs the death inside the failing
/// operation and the sort runs to completion — no error, no restart,
/// byte-identical output, with the recovery work visible in the
/// reconstruction counters.
#[test]
fn srm_parity_survives_permanent_mid_merge_death() {
    let data = random_records(3000, 81);
    let (want, reads) = srm_baseline(&data);

    for ordinal in [reads / 4, reads / 2, reads - 1] {
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let faulty =
            FaultyDiskArray::new(inner, FaultModel::none().kill_at(FaultOp::Read, ordinal));
        let mut a = ParityDiskArray::new(faulty).unwrap();
        let input = write_unsorted_input(&mut a, &data).unwrap();
        a.reset_stats();

        let (run, report) = SrmSorter::default()
            .sort(&mut a, &input)
            .unwrap_or_else(|e| panic!("kill at read op {ordinal}: sort must survive, got {e}"));
        let out = read_run(&mut a, &run).unwrap();
        assert_eq!(
            encode_all(&out),
            want,
            "kill at read op {ordinal}: degraded output differs from failure-free run"
        );
        assert_eq!(report.records, 3000);
        let stats = a.stats();
        assert!(
            stats.reconstructed_reads > 0,
            "kill at read op {ordinal}: recovery must go through reconstruction"
        );
        assert!(stats.parity_writes > 0);
        let red = a.redundancy().unwrap();
        assert_eq!(red.dead.len(), 1, "exactly one disk died");
    }
}

/// The kill/resume matrix: at every pass boundary, a disk dies
/// (administratively, via `fail_disk`), the snapshot taken right after
/// records the death, the *next* boundary simulates a process crash, and
/// the resumed sort — on an array that knows the disk is dead — finishes
/// byte-identical with reconstruction reads on the books.
#[test]
fn srm_degraded_kill_resume_matrix_per_pass_boundary() {
    let data = random_records(3000, 82);
    let (want, _) = srm_baseline(&data);
    let dir = unique_dir("matrix");

    for boundary in 0..=2u64 {
        let manifest = dir.join(format!("kill-at-{boundary}.manifest"));
        let victim = DiskId((boundary % 3) as u32);
        let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        let mut a = ParityDiskArray::new(inner).unwrap();
        let input = write_unsorted_input(&mut a, &data).unwrap();
        a.reset_stats();

        // Session 1: kill `victim` at `boundary`, crash one boundary later.
        let crash_at = boundary + 1;
        let result = SrmSorter::default().sort_observed(
            &mut a,
            &input,
            Some(&manifest),
            |pass, array| {
                if pass == boundary {
                    array.fail_disk(victim).map_err(SrmError::from)?;
                }
                if pass == crash_at {
                    return Err(SrmError::Internal("simulated crash".into()));
                }
                Ok(())
            },
        );
        assert!(result.is_err(), "boundary {boundary}: session 1 must crash");
        assert!(manifest.exists(), "boundary {boundary}: crash leaves a manifest");
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(
            text.contains("parity 3") && text.contains(&format!("dead {}", victim.0)),
            "boundary {boundary}: manifest must record parity geometry and the death:\n{text}"
        );

        // A plain array must be refused: the manifest was written under
        // parity and one disk's data exists only as parity.
        let mut plain: MemDiskArray<U64Record> = MemDiskArray::new(geom());
        match SrmSorter::default().sort_checkpointed(&mut plain, &input, &manifest) {
            Err(SrmError::Checkpoint(msg)) => assert!(msg.contains("parity"), "{msg}"),
            other => panic!("boundary {boundary}: plain-array resume must be refused, got {other:?}"),
        }

        // Session 2: same degraded array (it already knows the disk is
        // dead), same manifest — resume and finish.
        let (run, report) = SrmSorter::default()
            .sort_checkpointed(&mut a, &input, &manifest)
            .unwrap_or_else(|e| panic!("boundary {boundary}: degraded resume failed: {e}"));
        let out = read_run(&mut a, &run).unwrap();
        assert_eq!(
            encode_all(&out),
            want,
            "boundary {boundary}: resumed degraded output differs from failure-free run"
        );
        assert_eq!(report.records, 3000);
        assert_eq!(report.merge_passes, 3, "whole-sort pass count survives resume");
        assert!(
            a.stats().reconstructed_reads > 0,
            "boundary {boundary}: degraded passes must reconstruct the dead disk's blocks"
        );
        assert!(!manifest.exists(), "manifest deleted on completion");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full cross-process story on the file backend: parity frames
/// persist in a sidecar store, the process dies after a disk died, and a
/// *fresh* process — new `FileDiskArray::open`, new parity wrapper fed
/// from the store, dead set re-marked from the manifest — finishes the
/// sort byte-identically.
#[test]
fn srm_file_backend_degraded_resume_with_parity_store() {
    let data = random_records(3000, 83);
    let (want, _) = srm_baseline(&data);
    let dir = unique_dir("file");
    let disks = dir.join("disks");
    let store = dir.join("parity.store");
    let manifest = dir.join("sort.manifest");
    let victim = DiskId(1);

    // First process: disk 1 dies at boundary 1, crash at boundary 2.
    let input = {
        let files: FileDiskArray<U64Record> = FileDiskArray::create(geom(), &disks).unwrap();
        let mut a = ParityDiskArray::new(files)
            .unwrap()
            .with_store(&store)
            .unwrap();
        let input = write_unsorted_input(&mut a, &data).unwrap();
        let result = SrmSorter::default().sort_observed(
            &mut a,
            &input,
            Some(&manifest),
            |pass, array| {
                if pass == 1 {
                    array.fail_disk(victim).map_err(SrmError::from)?;
                }
                if pass == 2 {
                    return Err(SrmError::Internal("simulated crash".into()));
                }
                Ok(())
            },
        );
        assert!(result.is_err());
        assert!(manifest.exists());
        input
        // Arrays dropped: files closed, store flushed (write-through).
    };

    // Second process: reopen everything from disk, re-mark the dead set
    // recorded in the manifest (as the CLI does), then resume.
    let m = srm_core::SortManifest::load(&manifest).unwrap();
    let dead = m.redundancy.as_ref().expect("manifest carries parity info").dead.clone();
    assert_eq!(dead, vec![victim]);
    let files = FileDiskArray::<U64Record>::open(geom(), &disks).unwrap();
    let mut a = ParityDiskArray::new(files)
        .unwrap()
        .with_store(&store)
        .unwrap();
    for d in dead {
        a.fail_disk(d).unwrap();
    }
    let (run, _) = SrmSorter::default()
        .sort_checkpointed(&mut a, &input, &manifest)
        .unwrap();
    let out = read_run(&mut a, &run).unwrap();
    assert_eq!(encode_all(&out), want, "cross-process degraded resume must be byte-identical");
    assert!(a.stats().reconstructed_reads > 0);
    assert!(!manifest.exists());
    drop(a);
    let _ = std::fs::remove_dir_all(&dir);
}
