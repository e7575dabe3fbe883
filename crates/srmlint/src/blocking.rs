//! Blocking-in-worker pass.
//!
//! Disk-worker and heartbeat threads are latency budgets, not general
//! executors: a worker stuck in an unbounded `recv()` or a stray
//! filesystem call stalls one disk of a parallel-write group, which
//! (per the striping model) stalls *every* disk in the group.  The
//! pass walks everything reachable from fns annotated
//! `#[srmlint::worker_entry]` (closures inside the entry count as its
//! body) and flags calls from a blocklist of `std::io`/channel
//! blocking primitives.  A fn annotated `#[srmlint::blessed_seam]` may
//! make *direct* blocking calls — that is the sanctioned
//! submit/complete seam (the positioned reads/writes and fsync of
//! `pdisk`'s I/O workers, and the `Condvar` wait of their job queue) —
//! but its callees are still traversed.  `thread::sleep` is deliberately allowed: the
//! workers use it to emulate device service time.  One-off exceptions
//! use `// srmlint::allow(blocking)` on the call line.

use crate::calls::{call_sites, Callee, FnId, Index};
use crate::model::ItemKind;
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method/function names that block the calling thread.
const BLOCKING: &[&str] = &[
    "recv", // unbounded channel receive; recv_timeout is fine
    "join",
    "read_to_string",
    "read_to_end",
    "read_line",
    "read_exact",
    "read_exact_at",
    "write_all_at",
    "sync_all",
    "sync_data",
    "accept",
    "wait",
    "wait_on", // `lockwitness::Witnessed`'s Condvar wait
    "stdin",
];

/// Path-qualified blocking calls: (qualifier, name).
const BLOCKING_PATHS: &[(&str, &str)] = &[
    ("File", "open"),
    ("File", "create"),
    ("fs", "read"),
    ("fs", "write"),
    ("fs", "read_to_string"),
    ("fs", "remove_file"),
    ("fs", "rename"),
    ("fs", "create_dir_all"),
    ("fs", "metadata"),
];

pub fn run(idx: &Index<'_>, findings: &mut Vec<Finding>) {
    // Entry points, with the entry's name for the report.
    let entries: Vec<FnId> = idx
        .all_fns()
        .filter(|&id| idx.item(id).has_attr("srmlint::worker_entry"))
        .collect();
    if entries.is_empty() {
        return;
    }

    // BFS the call graph from each entry, remembering which entry
    // reached each fn first (for the message).
    let mut reached: BTreeMap<FnId, String> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &e in &entries {
        let name = idx.item(e).name.clone();
        if reached.insert(e, name).is_none() {
            queue.push_back(e);
        }
    }
    while let Some(id) = queue.pop_front() {
        let (f, it) = (idx.file(id), idx.item(id));
        let ItemKind::Fn { body: Some(b), .. } = it.kind else {
            continue;
        };
        let via = reached
            .get(&id)
            .cloned()
            .unwrap_or_default();
        for site in call_sites(f, b) {
            for callee in idx.resolve(&site.callee, it.impl_of.as_deref()) {
                if let std::collections::btree_map::Entry::Vacant(e) = reached.entry(callee) {
                    e.insert(via.clone());
                    queue.push_back(callee);
                }
            }
        }
    }

    // Scan every reached fn for blocking calls.
    let mut seen: BTreeSet<(std::path::PathBuf, u32, String)> = BTreeSet::new();
    for (&id, entry) in &reached {
        let (f, it) = (idx.file(id), idx.item(id));
        let blessed = it.has_attr("srmlint::blessed_seam");
        let ItemKind::Fn { body: Some(b), .. } = it.kind else {
            continue;
        };
        for site in call_sites(f, b) {
            let name = site.callee.name().to_string();
            let is_blocking = match &site.callee {
                Callee::Path { qual, name } => BLOCKING_PATHS
                    .iter()
                    .any(|(q, n)| q == qual && n == name)
                    || BLOCKING.contains(&name.as_str()),
                _ => BLOCKING.contains(&name.as_str()),
            };
            if !is_blocking || blessed {
                continue;
            }
            if f.has_directive(site.line, "srmlint::allow(blocking)") {
                continue;
            }
            if seen.insert((f.path.clone(), site.line, name.clone())) {
                findings.push(Finding {
                    path: f.path.clone(),
                    line: site.line,
                    rule: "blocking",
                    message: format!(
                        "blocking call `{name}` in `{fn_name}` is reachable from \
                         worker entry `{entry}` outside a blessed seam; workers \
                         must stay non-blocking (#[srmlint::blessed_seam] or \
                         // srmlint::allow(blocking) if intentional)",
                        fn_name = it.name
                    ),
                });
            }
        }
    }
}
