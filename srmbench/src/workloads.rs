//! Seeded input generators.  `--seed` reaches the program only through
//! what these functions return: record keys for the sort workloads,
//! job seeds and the job order for `serve_mix`, and the `JobSpec` seed
//! for `dist_p4`.

use pdisk::U64Record;

/// SplitMix64: the benchmark's own generator, so that the inputs do
/// not change when the repository's vendored `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` keys uniform over `u64`.
pub fn uniform(n: u64, seed: u64) -> Vec<U64Record> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| U64Record(rng.next_u64())).collect()
}

/// Distinct key values of [`zipf_dup`].
pub const ZIPF_KEYS: usize = 4096;
const ZIPF_S: f64 = 1.1;

/// `n` keys drawn Zipf(s = 1.1) over [`ZIPF_KEYS`] distinct values.
/// Rank `r` maps to `mix64(r ^ salt)`, so the popular values are spread
/// over the key space instead of clustered at its low end.
pub fn zipf_dup(n: u64, seed: u64) -> Vec<U64Record> {
    let mut cdf = Vec::with_capacity(ZIPF_KEYS);
    let mut total = 0.0;
    for rank in 1..=ZIPF_KEYS {
        total += (rank as f64).powf(-ZIPF_S);
        cdf.push(total);
    }
    let salt = mix64(seed ^ 0x21BF);
    let values: Vec<u64> = (0..ZIPF_KEYS as u64).map(|r| mix64(r ^ salt)).collect();
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let u = rng.next_f64() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(ZIPF_KEYS - 1);
            U64Record(values[rank])
        })
        .collect()
}

/// Order-sensitive fingerprint of a key sequence.
pub fn digest(keys: impl IntoIterator<Item = u64>) -> u64 {
    keys.into_iter().fold(0x5EED_D16E_57ED_0001, |h, k| mix64(h ^ k).wrapping_add(h << 1))
}

/// The oracle: the digest a correct sort of `records` must produce.
pub fn sorted_digest(records: &[U64Record]) -> u64 {
    let mut keys: Vec<u64> = records.iter().map(|r| r.0).collect();
    keys.sort_unstable();
    digest(keys)
}

/// One `serve_mix` job class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    Small,
    LargeSrm,
    LargeDsm,
}

impl JobClass {
    pub fn is_small(self) -> bool {
        self == JobClass::Small
    }
}

/// Jobs in one block of the order: 25 small, 2 large SRM, 2 large DSM.
pub const JOB_BLOCK: usize = 29;
/// Blocks in the full order (100 small + 16 large jobs).
pub const JOB_BLOCKS: usize = 4;

/// The seeded `serve_mix` job order: [`JOB_BLOCKS`] blocks, each a
/// shuffle of the same 25:2:2 mix, so that any window of the order has
/// close to the same share of each class whatever the seed.
pub fn job_order(seed: u64) -> Vec<JobClass> {
    let mut rng = Rng::new(seed ^ 0x0A0B_0C0D);
    let mut order = Vec::with_capacity(JOB_BLOCK * JOB_BLOCKS);
    for _ in 0..JOB_BLOCKS {
        let mut block = vec![JobClass::Small; 25];
        block.extend([JobClass::LargeSrm, JobClass::LargeSrm, JobClass::LargeDsm, JobClass::LargeDsm]);
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order.extend(block);
    }
    order
}

/// `n` job seeds derived from the benchmark seed and a class tag.
pub fn job_seeds(seed: u64, tag: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(mix64(seed) ^ tag);
    // JobSpec seeds travel as decimal text; keep them short.
    (0..n).map(|_| rng.next_u64() >> 16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn keys_digest(v: &[U64Record]) -> u64 {
        digest(v.iter().map(|r| r.0))
    }

    #[test]
    fn generators_follow_the_seed() {
        for gen in [uniform, zipf_dup] {
            assert_eq!(keys_digest(&gen(5000, 7)), keys_digest(&gen(5000, 7)));
            assert_ne!(keys_digest(&gen(5000, 7)), keys_digest(&gen(5000, 8)));
        }
        assert_eq!(job_order(7), job_order(7));
        assert_ne!(job_order(7), job_order(8));
        assert_ne!(job_seeds(7, 1, 4), job_seeds(8, 1, 4));
    }

    #[test]
    fn zipf_has_few_distinct_keys_and_a_heavy_head() {
        let v = zipf_dup(200_000, 3);
        let distinct: HashSet<u64> = v.iter().map(|r| r.0).collect();
        assert!(distinct.len() <= ZIPF_KEYS);
        assert!(distinct.len() > ZIPF_KEYS / 2, "only {} distinct keys", distinct.len());
        let top = mix64(mix64(3 ^ 0x21BF));
        let share = v.iter().filter(|r| r.0 == top).count() as f64 / v.len() as f64;
        assert!(share > 0.05, "rank 1 holds {share} of the keys");
    }

    #[test]
    fn job_order_has_100_small_and_16_large() {
        let order = job_order(11);
        assert_eq!(order.iter().filter(|c| c.is_small()).count(), 100);
        assert_eq!(order.iter().filter(|&&c| c == JobClass::LargeSrm).count(), 8);
        assert_eq!(order.iter().filter(|&&c| c == JobClass::LargeDsm).count(), 8);
        for block in order.chunks(JOB_BLOCK) {
            assert_eq!(block.iter().filter(|c| c.is_small()).count(), 25);
        }
    }

    #[test]
    fn digest_depends_on_order() {
        assert_ne!(digest([1, 2, 3]), digest([3, 2, 1]));
        assert_eq!(sorted_digest(&[U64Record(3), U64Record(1)]), digest([1, 3]));
    }
}
