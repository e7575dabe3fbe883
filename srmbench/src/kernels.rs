//! Public kernel functions timed standalone, on the workload's own
//! keys: what one layer costs with every other layer out of the way.

use crate::span::Rec;
use pdisk::{DiskId, FileDiskArray, Geometry};
use srm_core::forecast::ForecastTable;
use srm_core::loser_tree::LoserTree;
use srm_core::par_sort::par_sort_by_key;
use srm_core::sort::write_unsorted_input;
use srm_core::{par_merge_sorted_chunks, read_run, BlockKey};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Records per run in the loser-tree kernel.
const TREE_RUN: usize = 1 << 16;
/// Memory loads the sort kernels average over.
const LOADS: usize = 32;

/// `r`-way merge of sorted runs through `LoserTree::{peek, update}`.
pub fn loser_tree_ns_per_record(keys: &[u64], r: usize) -> f64 {
    let per = (keys.len() / r).min(TREE_RUN);
    assert!(per > 0, "too few keys for {r} runs");
    let runs: Vec<Vec<u64>> = keys
        .chunks_exact(per)
        .take(r)
        .map(|c| {
            let mut v = c.to_vec();
            v.sort_unstable();
            v
        })
        .collect();
    let mut cursor = vec![0usize; r];
    let mut tree = LoserTree::new(runs.iter().map(|run| run[0]).collect());
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..r * per {
        let (leaf, key) = tree.peek();
        acc = acc.wrapping_add(key);
        cursor[leaf] += 1;
        // Exhausted runs park at u64::MAX, as in the merge engines.
        tree.update(leaf, runs[leaf].get(cursor[leaf]).copied().unwrap_or(u64::MAX));
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / (r * per) as f64
}

fn loads(data: &[Rec], load: usize) -> Vec<Vec<Rec>> {
    data.chunks_exact(load.min(data.len())).take(LOADS).map(<[Rec]>::to_vec).collect()
}

/// Run formation's internal sort of one `load`-record memory load, as
/// the default `RunFormation::MemoryLoad` runs it (one thread).
pub fn par_sort_ns_per_record(data: &[Rec], load: usize) -> f64 {
    let mut loads = loads(data, load);
    let n: usize = loads.iter().map(Vec::len).sum();
    let start = Instant::now();
    for v in &mut loads {
        par_sort_by_key(v, 1);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(&loads);
    ns / n as f64
}

/// Merge Path reduction of a load sorted in two halves, on two threads.
pub fn merge_path_ns_per_record(data: &[Rec], load: usize) -> f64 {
    let mut loads = loads(data, load);
    let n: usize = loads.iter().map(Vec::len).sum();
    for v in &mut loads {
        let half = v.len().div_ceil(2);
        for piece in v.chunks_mut(half) {
            piece.sort_unstable_by_key(|r| r.0);
        }
    }
    let start = Instant::now();
    for v in &mut loads {
        let half = v.len().div_ceil(2);
        par_merge_sorted_chunks(v, half, 2);
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(&loads);
    ns / n as f64
}

/// One `set` plus one `min` on the forecasting tables per block, with
/// 15 runs spread over `d` disks.
pub fn forecast_ns_per_op(keys: &[u64], d: usize) -> f64 {
    const RUNS: u32 = 15;
    let ops = keys.len().min(1 << 18);
    let mut table = ForecastTable::new(d);
    let mut acc = 0u64;
    let start = Instant::now();
    for (i, &key) in keys[..ops].iter().enumerate() {
        let disk = DiskId::from_index(i % d);
        let run = (i / d) as u32 % RUNS;
        table.set(disk, run, Some(BlockKey::new(key, run, i as u64)));
        acc = acc.wrapping_add(table.min(disk).map_or(0, |k| k.key));
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / (2 * ops) as f64
}

/// Read overhead `v(k, D)` the paper's Table 3 experiment predicts,
/// from `analysis`' merge simulation at reduced scale.
pub fn predicted_v(k: usize, d: usize, b: u64) -> f64 {
    let params = analysis::tables::Table3Params { blocks_per_run: 200, b, trials: 1, ..Default::default() };
    analysis::table3(&[k], &[d], params).get(k, d).unwrap_or(0.0)
}

/// Full-width writes then reads of up to 1024 blocks on a fresh file
/// array at delay 0: `(write, read)` microseconds per block, encode,
/// checksum, syscall and decode included.
pub fn file_us_per_block(data: &[Rec], geom: Geometry, dir: &Path) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut array: FileDiskArray<Rec> = FileDiskArray::create(geom, dir).map_err(|e| e.to_string())?;
    let records = data.len().min(1024 * geom.b);
    let blocks = records.div_ceil(geom.b) as f64;
    let start = Instant::now();
    let run = write_unsorted_input(&mut array, &data[..records]).map_err(|e| e.to_string())?;
    let write_us = start.elapsed().as_secs_f64() * 1e6 / blocks;
    let start = Instant::now();
    let back = read_run(&mut array, &run).map_err(|e| e.to_string())?;
    let read_us = start.elapsed().as_secs_f64() * 1e6 / blocks;
    drop(array);
    let _ = std::fs::remove_dir_all(dir);
    if back != data[..records] {
        return Err("file kernel read back different records".into());
    }
    Ok((write_us, read_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::uniform;

    #[test]
    fn kernels_run_on_small_inputs() {
        let data = uniform(40_000, 5);
        let keys: Vec<u64> = data.iter().map(|r| r.0).collect();
        assert!(loser_tree_ns_per_record(&keys, 15) > 0.0);
        assert!(par_sort_ns_per_record(&data, 12_320) > 0.0);
        assert!(merge_path_ns_per_record(&data, 12_320) > 0.0);
        assert!(forecast_ns_per_op(&keys, 4) > 0.0);
        let v = predicted_v(4, 4, 64);
        assert!((1.0..2.0).contains(&v), "v(4,4) = {v}");
    }
}
