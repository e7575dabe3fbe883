//! A replacement takes its cluster's lease before it reads the manifest.
//!
//! A fenced predecessor can still hold the cluster, and journal a
//! checkpoint, after its replacement has booted on the same directory.
//! Were the replacement to read the manifest first, it would decide to
//! form afresh, truncate the cluster once the lease came free, and then
//! find the predecessor's manifest naming blocks the truncation removed.

use pdisk::{FileDiskArray, InterruptFlag, StackSpec, U64Record};
use srm_core::{Input, SrmError};
use srm_dist::{FenceFlag, Fenced};
use srm_server::job::{sort_durable, DurableSort, FileCluster, DISKS, MANIFEST};
use srm_server::{digest_keys, JobSpec};
use std::path::Path;
use std::time::Duration;

/// The predecessor holds the cluster while its replacement starts, forms
/// its runs and journals the pass-0 manifest, then drops the array: the
/// replacement resumes from that manifest, on the cluster it names, and
/// finishes byte-identical to a failure-free sort.
#[test]
fn a_replacement_resumes_the_manifest_its_predecessor_journals_under_the_lease() {
    let spec = JobSpec { records: 3_000, seed: 0x1EA5E, d: 3, b: 16, m: 512, ..JobSpec::default() };
    let geom = spec.geometry().unwrap();
    let sorter = spec.build(None);
    let records = spec.input_records();
    let root = std::env::temp_dir().join(format!("srm-dist-lease-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let durable = |dir: &Path| {
        let job = DurableSort {
            dir,
            geom,
            sorter: &sorter,
            records: &records,
            staged: false,
            stage_ms: 0,
            stack: StackSpec { trace: true, ..StackSpec::default() },
            slot: Fenced(FenceFlag::new()),
            cluster: &mut FileCluster::default(),
            oracle: false,
        };
        sort_durable(job, |_, _| Ok(())).map(|sorted| (sorted.done, sorted.keys))
    };
    let (clean, _) = durable(&root.join("clean")).unwrap();

    let dir = root.join("shard");
    let mut predecessor: FileDiskArray<U64Record> = FileDiskArray::create(geom, dir.join(DISKS)).unwrap();
    let (resumed, keys) = std::thread::scope(|s| {
        let replacement = s.spawn(|| durable(&dir));
        std::thread::sleep(Duration::from_millis(200));
        // The predecessor stops at its first boundary, once the pass-0
        // manifest is journaled.
        let stop = InterruptFlag::new();
        stop.trigger();
        let stopped = spec.build(Some(stop)).sort_observed(
            &mut predecessor,
            Input::InMemory(&records),
            Some(&dir.join(MANIFEST)),
            |_, _| Ok(()),
        );
        assert!(matches!(stopped, Err(SrmError::Interrupted)), "{stopped:?}");
        drop(predecessor);
        replacement.join().unwrap().unwrap()
    });
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!((&resumed.run, resumed.digest, resumed.passes), (&clean.run, clean.digest, clean.passes));
    assert_eq!(digest_keys(keys.iter().map(|r| r.0)), clean.digest);
    assert!(resumed.trace_events < clean.trace_events, "the replacement resumed rather than re-formed");
}
