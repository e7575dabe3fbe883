//! Sample-based range partitioning (Rahn/Sanders/Singler): the
//! coordinator samples the input, sorts the sample, and picks `P − 1`
//! splitters at the sample quantiles; shard `i` owns the [`KeyRange`]
//! `[splitter[i-1], splitter[i])` (half-open, first and last unbounded).
//!
//! Splitters are a pure function of `(input, shards, seed)`, and the
//! input is a pure function of the spec, so each shard derives its own
//! partition — the spec's keys in its range, in generation order — and a
//! replacement derives the very partition its predecessor sorted.

use pdisk::U64Record;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Samples drawn per shard (capped by the input size).
const SAMPLE_PER_SHARD: usize = 64;

/// Pick `shards − 1` splitter keys from a deterministic sample.
pub fn sample_splitters(records: &[U64Record], shards: u32, seed: u64) -> Vec<u64> {
    let shards = shards as usize;
    if shards <= 1 || records.is_empty() {
        return Vec::new();
    }
    let want = (SAMPLE_PER_SHARD * shards).min(records.len());
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5911_77E5_D157_5027);
    let mut sample: Vec<u64> = (0..want)
        .map(|_| records[rng.random_range(0..records.len())].0)
        .collect();
    sample.sort_unstable();
    (1..shards)
        .map(|i| sample[i * sample.len() / shards])
        .collect()
}

/// The keys one shard owns: `lo <= key < hi`, with no upper bound on
/// the last shard.  Ranges of consecutive shards meet, so every key has
/// exactly one owner, and they ascend with the shard index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Smallest key owned.
    pub lo: u64,
    /// First key above the range (`None` on the last shard).
    pub hi: Option<u64>,
}

impl KeyRange {
    /// Shard `shard`'s range under `splitters` (empty when the splitters
    /// around it coincide).
    pub fn of(splitters: &[u64], shard: u32) -> Self {
        let s = shard as usize;
        KeyRange {
            lo: s.checked_sub(1).and_then(|i| splitters.get(i)).copied().unwrap_or(u64::MIN),
            hi: splitters.get(s).copied(),
        }
    }

    /// Does this range own `key`?
    pub fn contains(&self, key: u64) -> bool {
        key >= self.lo && self.hi.is_none_or(|hi| key < hi)
    }

    /// The keys of `input` this range owns, in input order: a shard's
    /// partition.
    pub fn partition(&self, input: impl Iterator<Item = u64>) -> Vec<U64Record> {
        input.filter(|&k| self.contains(k)).map(U64Record).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm_server::{generate_records, JobSpec};

    /// The reference the derived partitions must reproduce: route every
    /// record to the shard counting the splitters `<=` its key.
    fn route(records: &[U64Record], splitters: &[u64], shards: u32) -> Vec<Vec<U64Record>> {
        let mut buckets = vec![Vec::new(); shards as usize];
        for &r in records {
            buckets[splitters.partition_point(|s| *s <= r.0)].push(r);
        }
        buckets
    }

    fn derived(spec: &JobSpec, splitters: &[u64], shards: u32) -> Vec<Vec<U64Record>> {
        (0..shards).map(|s| KeyRange::of(splitters, s).partition(spec.input_keys())).collect()
    }

    #[test]
    fn single_shard_needs_no_splitters() {
        let recs = generate_records(100, 1);
        assert!(sample_splitters(&recs, 1, 7).is_empty());
        assert_eq!(KeyRange::of(&[], 0), KeyRange { lo: 0, hi: None });
    }

    #[test]
    fn splitters_are_deterministic_and_sorted() {
        let recs = generate_records(5000, 0xC11_5EED);
        let a = sample_splitters(&recs, 4, 9);
        let b = sample_splitters(&recs, 4, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(a, sample_splitters(&recs, 4, 10), "seed must matter");
    }

    /// Each shard's derived partition is the routed bucket, key for key
    /// and in order — for sampled splitters at P ∈ {1, 2, 4, 8}, and for
    /// coinciding splitters that leave the leading and middle shards
    /// empty.
    #[test]
    fn derived_partitions_equal_the_routed_buckets() {
        let spec = JobSpec { records: 8000, seed: 3, ..JobSpec::default() };
        let records = spec.input_records();
        for shards in [1, 2, 4, 8] {
            let splitters = sample_splitters(&records, shards, spec.seed);
            let buckets = route(&records, &splitters, shards);
            assert_eq!(derived(&spec, &splitters, shards), buckets, "P={shards}");
            // Sampled quantiles of a uniform input balance reasonably.
            for b in &buckets {
                assert!(b.len() > 8000 / (2 * shards as usize), "P={shards}: degenerate bucket {}", b.len());
            }
        }
        let splitters = [0, 1 << 63, 1 << 63, 1 << 63];
        let buckets = route(&records, &splitters, 5);
        assert_eq!(buckets.iter().map(Vec::is_empty).collect::<Vec<_>>(), [true, false, true, true, false]);
        assert_eq!(derived(&spec, &splitters, 5), buckets);
    }

    #[test]
    fn ranges_meet_and_ascend() {
        let splitters = [10, 20, 20, 30];
        let ranges: Vec<KeyRange> = (0..5).map(|s| KeyRange::of(&splitters, s)).collect();
        assert_eq!(ranges[0], KeyRange { lo: 0, hi: Some(10) });
        assert_eq!(ranges[4], KeyRange { lo: 30, hi: None });
        for key in [0, 9, 10, 19, 20, 29, 30, u64::MAX] {
            let owners: Vec<usize> = (0..5).filter(|&s| ranges[s].contains(key)).collect();
            assert_eq!(owners.len(), 1, "key {key}: {owners:?}");
        }
    }
}
