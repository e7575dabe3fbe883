//! `sort_durable`'s step 6 (DESIGN §11.3): the output is digested from
//! the records the last merge kept as it wrote them, and read back only
//! where the disks are the point — on a stack with a fault injector or a
//! crash clock, and when no merge ran in the call.  Either way, the keys
//! and digest it hands back are the published run's.

use pdisk::{BlockAddr, DiskArray, FaultModel, InterruptFlag, Layer, PdiskError, ReadTicket, Record, StackSpec};
use srm_core::RunFormation;
use srm_server::job::{read_back, sort_durable, DurableSort, FileCluster, Sorted, DONE, MANIFEST};
use srm_server::{digest_keys, Descriptor, EngineKind, JobError, JobSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A slot layer counting the blocks read through it.
#[derive(Debug, Clone, Default)]
struct BlocksRead(Arc<AtomicU64>);

impl<R: Record> Layer<R> for BlocksRead {
    fn submit_read(&mut self, inner: &mut impl DiskArray<R>, addrs: &[BlockAddr]) -> pdisk::Result<ReadTicket<R>> {
        self.0.fetch_add(addrs.len() as u64, Ordering::Relaxed);
        inner.submit_read(addrs)
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srm-server-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One incarnation of `spec`'s durable sort in `dir`, checked against
/// the oracle digest, with `faults` under the stack and an interrupt at
/// boundary `stop_at`.  Returns the outcome, the blocks read through the
/// stack and the last boundary observed.
fn incarnation(
    dir: &Path,
    spec: &JobSpec,
    faults: Option<FaultModel>,
    stop_at: Option<u64>,
) -> (Result<Sorted, JobError>, u64, u64) {
    let records = spec.input_records();
    let flag = InterruptFlag::new();
    let read = BlocksRead::default();
    let mut last = 0;
    let job = DurableSort {
        dir,
        geom: spec.geometry().unwrap(),
        sorter: &spec.build(Some(flag.clone())),
        records: &records,
        staged: false,
        stage_ms: 0,
        stack: StackSpec { faults, ..StackSpec::default() },
        slot: read.clone(),
        cluster: &mut FileCluster::default(),
        oracle: true,
    };
    let sorted = sort_durable(job, |pass, _| {
        last = pass;
        if stop_at == Some(pass) {
            flag.trigger();
        }
        Ok(())
    });
    (sorted, read.0.load(Ordering::Relaxed), last)
}

/// The keys and digest `sorted` carries are those of the run `dir`'s
/// descriptor publishes, read back; returns the run's blocks.  The
/// finished sort has retired its manifest and the journal behind it.
fn assert_published(dir: &Path, spec: &JobSpec, sorted: &Sorted, ctx: &str) -> u64 {
    assert!(dir.join(DONE).exists(), "{ctx}: `done` is published");
    for left in [MANIFEST, "manifest.prev"] {
        assert!(!dir.join(left).exists(), "{ctx}: a finished sort leaves no {left}");
    }
    let done = Descriptor::load(dir).unwrap().expect("a published descriptor");
    let run = done.run.expect("a published run");
    let back = read_back(dir, spec.geometry().unwrap(), &run, StackSpec::default(), (), Duration::ZERO).unwrap();
    assert!(sorted.keys == back, "{ctx}: the keys handed back are not the published run's");
    assert_eq!(done.digest, digest_keys(back.iter().map(|r| r.0)), "{ctx}");
    assert_eq!(sorted.done.digest, done.digest, "{ctx}");
    run.len_blocks
}

/// SRM and DSM, loads and RS: a multi-pass sort and a resume into its
/// last pass digest the last merge's copy and read nothing back; a sort
/// whose formation forms one run ran no merge, so it reads the run back.
#[test]
fn the_digest_is_the_published_runs_tapped_or_read_back() {
    for engine in [EngineKind::Srm, EngineKind::Dsm] {
        for (name, formation) in
            [("load", RunFormation::MemoryLoad { fraction: 0.5 }), ("rs", RunFormation::ReplacementSelection)]
        {
            let tag = format!("{}-{name}", engine.as_str());
            let spec = JobSpec {
                engine,
                records: 3000,
                seed: 0x7A9,
                d: 2,
                b: 4,
                m: 96,
                formation: Some(formation),
                ..JobSpec::default()
            };

            let dir = scratch(&format!("{tag}-whole"));
            let (whole, read, _) = incarnation(&dir, &spec, None, None);
            let whole = whole.unwrap_or_else(|e| panic!("{tag}: {e}"));
            let passes = whole.report.merge_passes;
            assert!(passes >= 2, "{tag}: {passes} passes");
            assert_eq!(read, whole.report.io.blocks_read, "{tag}: the sort's reads and no read-back");
            assert_published(&dir, &spec, &whole, &tag);
            let _ = std::fs::remove_dir_all(&dir);

            let dir = scratch(&format!("{tag}-resume"));
            let (stopped, _, last) = incarnation(&dir, &spec, None, Some(passes - 1));
            assert!(matches!(stopped, Err(JobError::Interrupted)), "{tag}: {stopped:?}");
            assert_eq!(last, passes - 1, "{tag}");
            let (resumed, read, _) = incarnation(&dir, &spec, None, None);
            let resumed = resumed.unwrap_or_else(|e| panic!("{tag} resumed: {e}"));
            assert!(resumed.resumed.is_some(), "{tag}: the rerun resumes");
            assert_eq!(resumed.report.merges, 1, "{tag}: the rerun runs the last pass alone");
            assert_eq!(read, resumed.report.io.blocks_read, "{tag}: resumed, no read-back");
            assert_published(&dir, &spec, &resumed, &tag);
            assert_eq!(resumed.done.digest, whole.done.digest, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);

            let one = JobSpec { records: 40, ..spec };
            let dir = scratch(&format!("{tag}-one"));
            let (single, read, _) = incarnation(&dir, &one, None, None);
            let single = single.unwrap_or_else(|e| panic!("{tag} one run: {e}"));
            assert_eq!((single.report.runs_formed, single.report.merge_passes), (1, 0), "{tag}");
            let blocks = assert_published(&dir, &one, &single, &tag);
            assert_eq!(read - single.report.io.blocks_read, blocks, "{tag}: one run formed, read back");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A stack with a fault injector keeps the read-back, whose oracle is the
/// disks.  Detected corruption on its first read, of a block the final
/// pass wrote (what a write that landed corrupt shows), fails the sort
/// after its last boundary; the same sort without the injector digests
/// the last merge's copy, which never reads that block, and passes.
#[test]
fn a_fault_stack_reads_the_output_back_and_catches_its_corruption() {
    let spec = JobSpec { records: 3000, seed: 0x7AB, d: 2, b: 4, m: 96, ..JobSpec::default() };

    let dir = scratch("fault-clean");
    let (clean, read, _) = incarnation(&dir, &spec, Some(FaultModel::none()), None);
    let clean = clean.unwrap();
    let blocks = assert_published(&dir, &spec, &clean, "fault-clean");
    assert_eq!(read - clean.report.io.blocks_read, blocks, "an injector, so a read-back");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("fault-corrupt");
    let corrupt = FaultModel::none().corrupt_at(clean.report.io.read_ops);
    let (failed, _, last) = incarnation(&dir, &spec, Some(corrupt), None);
    assert!(matches!(failed, Err(JobError::Disk(PdiskError::Corrupt(_)))), "{failed:?}");
    assert_eq!(last, clean.report.merge_passes, "the sort finished; its read-back failed");
    assert!(Descriptor::load(&dir).unwrap().is_none(), "nothing published");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("fault-tapped");
    let (tapped, read, _) = incarnation(&dir, &spec, None, None);
    let tapped = tapped.unwrap();
    assert_eq!(read, tapped.report.io.blocks_read, "no injector, no read-back");
    assert_eq!(tapped.done.digest, clean.done.digest);
    let _ = std::fs::remove_dir_all(&dir);
}
