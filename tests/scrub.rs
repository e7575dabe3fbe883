//! Scrubber integration tests: the parity-backed scrub pass must heal
//! injected latent corruption with *exact* repair accounting, even while
//! the array is already degraded (one disk permanently dead).

use pdisk::{
    DiskArray, Geometry, MemDiskArray, ParityDiskArray, ScrubOutcome, StripedRun, U64Record,
};
use srm_core::{scrub_runs, RunWriter};

const D: usize = 4;
const B: usize = 4;

fn stack() -> (ParityDiskArray<U64Record, MemDiskArray<U64Record>>, Geometry) {
    let geom = Geometry::new(D, B, 8 * D * B).unwrap();
    let inner = MemDiskArray::new(geom);
    (ParityDiskArray::new(inner).unwrap(), geom)
}

fn write_run(
    array: &mut ParityDiskArray<U64Record, MemDiskArray<U64Record>>,
    geom: Geometry,
    keys: std::ops::Range<u64>,
) -> StripedRun {
    let mut w = RunWriter::new(geom, pdisk::DiskId(0));
    for k in keys {
        w.push(array, U64Record(k)).unwrap();
    }
    w.finish(array).unwrap()
}

/// The ISSUE scenario: one dead disk *and* one corrupt block on a
/// survivor, with exact repair accounting.  Rotating parity can only
/// repair a survivor's block if its stripe does not also depend on the
/// dead disk (classic RAID-5: one failure per stripe).  A run whose
/// block count is not a multiple of `D` ends in a partial stripe the
/// trailing disks never wrote — corrupt the block there, kill a disk
/// outside that stripe, and the scrub must heal it exactly once while
/// the dead disk's own blocks verify clean via reconstructability.
#[test]
fn scrub_repairs_injected_corruption_in_degraded_mode() {
    let (mut a, geom) = stack();
    // 13 blocks = 3 full stripe rows + a partial row holding one block.
    let run = write_run(&mut a, geom, 0..52);
    assert_eq!(run.len_blocks, 13);

    // The last block sits alone in its stripe (plus parity).
    let victim = run.addr_of(12);
    let vphys = a.physical_addr(victim);
    let parity_home = pdisk::DiskId((vphys.offset % D as u64) as u32);

    // Kill a disk that holds neither the victim nor its stripe's parity:
    // the victim's stripe then has no dependence on the dead disk.
    let dead = (0..D as u32)
        .map(pdisk::DiskId)
        .find(|&dd| dd != victim.disk && dd != parity_home)
        .unwrap();
    a.fail_disk(dead).unwrap();
    a.inner_mut().corrupt_block(vphys).unwrap();

    let report = scrub_runs(&mut a, std::slice::from_ref(&run)).unwrap();
    assert_eq!(report.blocks_checked, 13, "{report}");
    assert_eq!(report.repaired, 1, "exactly the injected corruption: {report}");
    assert_eq!(report.unrepairable, 0, "{report:?}");
    assert_eq!(report.clean, 12, "{report}");
    assert!(report.is_healthy());

    // The heal is durable: a second scrub finds nothing to do, and the
    // run still reads back as written despite the dead disk.
    let again = scrub_runs(&mut a, std::slice::from_ref(&run)).unwrap();
    assert_eq!(again.clean, 13, "{again}");
    let keys: Vec<u64> = srm_core::read_run(&mut a, &run)
        .unwrap()
        .iter()
        .map(|r| r.0)
        .collect();
    assert_eq!(keys, (0..52).collect::<Vec<u64>>());
}

/// The flip side of degraded mode: corruption on a survivor whose stripe
/// *does* span the dead disk is a double failure — the scrub must report
/// it unrepairable (with a located failure line), not abort, and not
/// "heal" it with garbage.
#[test]
fn degraded_scrub_reports_a_double_failure_as_unrepairable() {
    let (mut a, geom) = stack();
    let run = write_run(&mut a, geom, 0..64); // 16 blocks: every stripe full
    a.fail_disk(pdisk::DiskId(2)).unwrap();

    // Any survivor block's stripe includes the dead disk's data here.
    let victim = (0..run.len_blocks)
        .map(|i| run.addr_of(i))
        .find(|addr| addr.disk != pdisk::DiskId(2))
        .unwrap();
    let vphys = a.physical_addr(victim);
    a.inner_mut().corrupt_block(vphys).unwrap();

    let report = scrub_runs(&mut a, &[run]).unwrap();
    assert_eq!(report.blocks_checked, 16, "{report}");
    assert_eq!(report.repaired, 0, "{report}");
    // The corrupt survivor is lost, and the dead disk's block in that
    // same stripe can no longer be reconstructed either.
    assert!(report.unrepairable >= 1, "{report}");
    assert_eq!(
        report.failures.len() as u64,
        report.unrepairable,
        "{report:?}"
    );
    assert!(!report.is_healthy());
}

/// Two corrupt frames in the *same* parity stripe exceed what rotating
/// parity can reconstruct even with every disk alive: scrub must report
/// both unrepairable rather than cascade garbage.
#[test]
fn scrub_reports_unrepairable_stripe_with_exact_counts() {
    let (mut a, geom) = stack();
    let run = write_run(&mut a, geom, 0..64);

    // Stripe 0's parity lives on disk 0 under the rotating layout, so
    // logical offset 0 of disks 1 and 2 are physical stripe-mates.
    let (m1, m2) = (a.physical_addr(run.addr_of(1)), a.physical_addr(run.addr_of(2)));
    assert_eq!(m1.offset, m2.offset, "test needs two frames in one stripe");
    a.inner_mut().corrupt_block(m1).unwrap();
    a.inner_mut().corrupt_block(m2).unwrap();

    let report = scrub_runs(&mut a, &[run]).unwrap();
    assert_eq!(report.blocks_checked, 16, "{report}");
    assert_eq!(report.unrepairable, 2, "{report:?}");
    assert_eq!(report.repaired, 0, "{report}");
    assert_eq!(report.failures.len(), 2, "{report:?}");
    assert!(!report.is_healthy());
}

/// Without a parity layer the scrubber is detection-only: corruption is
/// reported unrepairable, never silently "fixed".
#[test]
fn scrub_on_a_plain_array_detects_but_cannot_heal() {
    let geom = Geometry::new(D, B, 8 * D * B).unwrap();
    let mut a: MemDiskArray<U64Record> = MemDiskArray::new(geom);
    let mut w = RunWriter::new(geom, pdisk::DiskId(0));
    for k in 0..64u64 {
        w.push(&mut a, U64Record(k)).unwrap();
    }
    let run = w.finish(&mut a).unwrap();
    a.corrupt_block(run.addr_of(5)).unwrap();

    assert!(matches!(
        a.scrub_block(run.addr_of(5)).unwrap(),
        ScrubOutcome::Unrepairable(_)
    ));
    let report = scrub_runs(&mut a, &[run]).unwrap();
    assert_eq!(report.unrepairable, 1, "{report}");
    assert_eq!(report.clean, 15, "{report}");
    assert!(!report.is_healthy());
}

/// ISSUE-10 satellite — chaos × scrubber: a sort is crashed at a pass
/// boundary (the chaos engine's CrashAt in miniature), latent corruption
/// lands on checkpointed live runs while the array is "powered off", a
/// scrub pass over the manifest's runs heals every corrupt block, and
/// the resumed sort completes byte-identical to the failure-free run.
#[test]
fn chaos_crash_plus_latent_corruption_scrub_heals_then_resume_is_byte_identical() {
    use srm_core::sort::write_unsorted_input;
    use srm_core::{SortManifest, SrmError, SrmSorter};

    let geom = Geometry::new(D, B, 8 * D * B).unwrap();
    let data: Vec<U64Record> = (0..2400).map(|k| U64Record(k * 2_654_435_761 % 100_000)).collect();

    // The failure-free oracle.
    let mut clean: MemDiskArray<U64Record> = MemDiskArray::new(geom);
    let input = write_unsorted_input(&mut clean, &data).unwrap();
    let (oracle_run, _) = SrmSorter::default().sort(&mut clean, &input).unwrap();
    let want: Vec<u64> = srm_core::read_run(&mut clean, &oracle_run)
        .unwrap()
        .iter()
        .map(|r| r.0)
        .collect();

    // Session 1 on a parity array: crash right after pass 1's checkpoint.
    let dir = std::env::temp_dir().join(format!("srm-chaos-scrub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("sort.manifest");
    let inner: MemDiskArray<U64Record> = MemDiskArray::new(geom);
    let mut a = ParityDiskArray::new(inner).unwrap();
    let input = write_unsorted_input(&mut a, &data).unwrap();
    // The observer fires *before* each pass's checkpoint is journaled,
    // so crashing at pass 2 leaves a manifest recording pass 1: the
    // resume skips formation and the first merge pass.
    let result = SrmSorter::default().sort_observed(&mut a, &input, Some(&manifest), |pass, _| {
        if pass >= 2 {
            return Err(SrmError::Internal("chaos crash".into()));
        }
        Ok(())
    });
    assert!(result.is_err(), "session 1 crashes by schedule");
    let m = SortManifest::load_latest(&manifest).unwrap().expect("journaled");
    assert!(!m.runs.is_empty(), "live runs are checkpointed");

    // Bit-rot while down: corrupt one block in three distinct stripe
    // rows of the manifest's live runs (single failures, repairable).
    let mut corrupted_rows = std::collections::BTreeSet::new();
    let mut corrupted = 0u64;
    'outer: for run in &m.runs {
        for i in 0..run.len_blocks {
            let phys = a.physical_addr(run.addr_of(i));
            if corrupted_rows.insert(phys.offset) {
                a.inner_mut().corrupt_block(phys).unwrap();
                corrupted += 1;
                if corrupted == 3 {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(corrupted, 3, "enough checkpointed blocks to corrupt");

    // The scrub pass (what `srm scrub --parity` runs) heals all three.
    let report = scrub_runs(&mut a, &m.runs).unwrap();
    assert_eq!(report.repaired, 3, "every corrupt block healed: {report}");
    assert_eq!(report.unrepairable, 0, "{report:?}");
    assert!(report.is_healthy());

    // Session 2 resumes from the manifest on the healed array and the
    // output is byte-identical to the failure-free oracle.
    assert!(m.pass >= 1, "the checkpoint is mid-sort, so session 2 must resume");
    let (run, _) = SrmSorter::default()
        .sort_observed(&mut a, &input, Some(&manifest), |_, _| Ok(()))
        .expect("resume completes");
    let got: Vec<u64> = srm_core::read_run(&mut a, &run)
        .unwrap()
        .iter()
        .map(|r| r.0)
        .collect();
    assert_eq!(got, want, "healed + resumed output must match the oracle");
    let _ = std::fs::remove_dir_all(&dir);
}
