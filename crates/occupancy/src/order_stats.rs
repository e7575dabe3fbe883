//! Exact sampling of a run's block-minimum keys under the paper's
//! average-case input model (§9.3).
//!
//! The paper draws inputs as uniformly random partitions of `{1,…,L·kD}`
//! into `kD` runs of `L` records.  That model is distribution-equal to
//! giving every record an i.i.d. `Uniform(0,1)` key: each run is then `L`
//! sorted uniforms, and the *i*-th smallest has the representation
//!
//! ```text
//! U_(i) = S_i / S_(L+1),   S_i = E_1 + … + E_i,  E_j ~ Exp(1) i.i.d.
//! ```
//!
//! The SRM I/O schedule depends on record keys only through each block's
//! smallest key (plus each run's last key), i.e. through every `B`-th order
//! statistic.  Jumping from one block minimum to the next needs the sum of
//! `B` exponentials — a single `Gamma(B)` draw — so a run of `n` blocks is
//! sampled in `O(n)` time *independent of `B`*.  This is what lets the
//! Table 3 reproduction run at the paper's scale (`N' = 1000·kDB` records,
//! `B = 1000`) without materializing records.

use crate::gamma::{sample_exp1, GammaSampler};
use rand::Rng;

/// The sampled per-block minima of one run, plus the run's final key.
///
/// # Examples
///
/// ```
/// use occupancy::BlockMinima;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// // A run of 10^6 records in blocks of 1000: sampled in O(1000) time,
/// // never materializing a single record.
/// let bm = BlockMinima::sample(1_000_000, 1000, &mut rng);
/// assert_eq!(bm.blocks(), 1000);
/// assert!(bm.minima.windows(2).all(|w| w[0] < w[1]));
/// assert!(bm.last_key < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMinima {
    /// `minima[j]` is the smallest key of block `j`; strictly increasing,
    /// all in `(0, 1)`.
    pub minima: Vec<f64>,
    /// Key of the run's last record (`U_(L)`); at least `minima.last()`.
    pub last_key: f64,
}

impl BlockMinima {
    /// Sample the block minima of a run of `records` records in blocks of
    /// `block` records (the final block may be partial).
    ///
    /// # Panics
    /// Panics if `records == 0` or `block == 0`.
    pub fn sample<RN: Rng + ?Sized>(records: u64, block: u64, rng: &mut RN) -> Self {
        assert!(records > 0 && block > 0);
        let n_blocks = records.div_ceil(block);
        let gamma_b = GammaSampler::new(block as f64);

        // S_{jB+1} for each block j, built incrementally.
        let mut partial = Vec::with_capacity(n_blocks as usize);
        let mut s = sample_exp1(rng); // S_1: first record of block 0
        partial.push(s);
        for _ in 1..n_blocks {
            s += gamma_b.sample(rng); // advance B records
            partial.push(s);
        }
        // Tail: records in the final block.
        let tail = records - (n_blocks - 1) * block;
        // S_L = S_{(n_blocks-1)B+1} + Gamma(tail-1); S_{L+1} = S_L + Exp.
        let s_l = if tail > 1 {
            s + GammaSampler::new((tail - 1) as f64).sample(rng)
        } else {
            s
        };
        let total = s_l + sample_exp1(rng); // S_{L+1}
        let minima: Vec<f64> = partial.into_iter().map(|x| x / total).collect();
        BlockMinima {
            minima,
            last_key: s_l / total,
        }
    }

    /// Number of blocks in the run.
    pub fn blocks(&self) -> usize {
        self.minima.len()
    }

    /// Naive reference sampler: draw `records` uniforms, sort, take every
    /// `block`-th.  `O(records · log records)`; used to validate
    /// [`BlockMinima::sample`] in tests and benchmarks.
    pub fn sample_naive<RN: Rng + ?Sized>(records: u64, block: u64, rng: &mut RN) -> Self {
        assert!(records > 0 && block > 0);
        let mut keys: Vec<f64> = (0..records).map(|_| rng.random::<f64>()).collect();
        keys.sort_by(f64::total_cmp);
        let minima = keys.iter().step_by(block as usize).copied().collect();
        BlockMinima {
            minima,
            last_key: keys.last().copied().unwrap_or(0.0),
        }
    }
}

/// Both boundary keys of every block of a run: the smallest key
/// (`U_(jB+1)`, the forecasting/ranking key) *and* the largest key
/// (`U_((j+1)B)`, the key at which the block is depleted by a merge).
///
/// The SRM block-level simulator needs both: minima drive the forecasting
/// table and the flush ranking; maxima decide the instant a leading block's
/// buffer frees.  Sampled with the same `Gamma` partial-sum walk as
/// [`BlockMinima`], still `O(#blocks)` independent of `B`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockBounds {
    /// Smallest key per block; strictly increasing.
    pub minima: Vec<f64>,
    /// Largest key per block; `minima[j] < maxima[j] < minima[j+1]` (with
    /// equality of min and max for single-record blocks).
    pub maxima: Vec<f64>,
}

impl BlockBounds {
    /// Sample a run of `records` records in blocks of `block`.
    ///
    /// # Panics
    /// Panics if `records == 0` or `block == 0`.
    pub fn sample<RN: Rng + ?Sized>(records: u64, block: u64, rng: &mut RN) -> Self {
        assert!(records > 0 && block > 0);
        let n_blocks = records.div_ceil(block);
        let gamma_gap = (block > 1).then(|| GammaSampler::new((block - 1) as f64));
        let mut minima = Vec::with_capacity(n_blocks as usize);
        let mut maxima = Vec::with_capacity(n_blocks as usize);
        let mut s = 0.0f64;
        for j in 0..n_blocks {
            // Jump over the gap from the previous block's max to this
            // block's min (one record), then across the block's interior.
            s += sample_exp1(rng);
            minima.push(s);
            let in_block = if j + 1 < n_blocks {
                block
            } else {
                records - j * block
            };
            if in_block > 1 {
                #[expect(
                    clippy::expect_used,
                    reason = "Some whenever block > 1, the only way here"
                )]
                let interior = if in_block == block {
                    gamma_gap.as_ref().expect("block > 1").sample(rng)
                } else {
                    GammaSampler::new((in_block - 1) as f64).sample(rng)
                };
                s += interior;
            }
            maxima.push(s);
        }
        // One more exponential for S_{L+1}, the normalizer.
        let total = s + sample_exp1(rng);
        for m in minima.iter_mut().chain(maxima.iter_mut()) {
            *m /= total;
        }
        BlockBounds { minima, maxima }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.minima.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn shape_invariants() {
        let mut rng = SmallRng::seed_from_u64(1);
        for &(records, block) in &[(1u64, 1u64), (5, 2), (100, 7), (1000, 1000), (1001, 1000)] {
            let bm = BlockMinima::sample(records, block, &mut rng);
            assert_eq!(bm.blocks() as u64, records.div_ceil(block));
            assert!(bm.minima.windows(2).all(|w| w[0] < w[1]), "not increasing");
            assert!(bm.minima.iter().all(|&k| k > 0.0 && k < 1.0));
            assert!(bm.last_key >= *bm.minima.last().unwrap());
            assert!(bm.last_key < 1.0);
        }
    }

    /// The first block minimum is `U_(1)` of `L` uniforms: mean `1/(L+1)`.
    #[test]
    fn first_minimum_mean_matches_order_statistic() {
        let mut rng = SmallRng::seed_from_u64(2);
        let l = 50u64;
        let n = 40_000;
        let mean: f64 = (0..n)
            .map(|_| BlockMinima::sample(l, 10, &mut rng).minima[0])
            .sum::<f64>()
            / n as f64;
        let expected = 1.0 / (l + 1) as f64;
        assert!(
            (mean - expected).abs() < 0.15 * expected,
            "mean {mean} vs {expected}"
        );
    }

    /// Block j's minimum is `U_(jB+1)`: mean `(jB+1)/(L+1)`.  Check the
    /// whole vector of means against the closed form.
    #[test]
    fn all_minima_means_match_beta_expectations() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (l, b) = (60u64, 15u64);
        let n = 20_000;
        let n_blocks = l.div_ceil(b) as usize;
        let mut sums = vec![0.0; n_blocks];
        for _ in 0..n {
            let bm = BlockMinima::sample(l, b, &mut rng);
            for (s, m) in sums.iter_mut().zip(&bm.minima) {
                *s += m;
            }
        }
        for (j, s) in sums.iter().enumerate() {
            let mean = s / n as f64;
            let expected = (j as f64 * b as f64 + 1.0) / (l + 1) as f64;
            assert!(
                (mean - expected).abs() < 0.02,
                "block {j}: mean {mean} vs {expected}"
            );
        }
    }

    /// Fast sampler and naive sampler must agree in distribution: compare
    /// the mean and the standard deviation of a middle block's minimum.
    #[test]
    fn fast_matches_naive_distribution() {
        let (l, b) = (40u64, 8u64);
        let n = 25_000;
        let mut rng = SmallRng::seed_from_u64(4);
        let collect = |naive: bool, rng: &mut SmallRng| -> (f64, f64) {
            let mut acc = crate::stats::RunningStats::new();
            for _ in 0..n {
                let bm = if naive {
                    BlockMinima::sample_naive(l, b, rng)
                } else {
                    BlockMinima::sample(l, b, rng)
                };
                acc.push(bm.minima[2]); // U_(17)
            }
            (acc.mean(), acc.std_dev())
        };
        let (mf, sf) = collect(false, &mut rng);
        let (mn, sn) = collect(true, &mut rng);
        assert!((mf - mn).abs() < 0.01, "means {mf} vs {mn}");
        assert!((sf - sn).abs() < 0.01, "std devs {sf} vs {sn}");
    }

    /// Last key is `U_(L)`: mean `L/(L+1)`.
    #[test]
    fn last_key_mean_matches() {
        let mut rng = SmallRng::seed_from_u64(5);
        let l = 30u64;
        let n = 30_000;
        let mean: f64 = (0..n)
            .map(|_| BlockMinima::sample(l, 7, &mut rng).last_key)
            .sum::<f64>()
            / n as f64;
        let expected = l as f64 / (l + 1) as f64;
        assert!((mean - expected).abs() < 0.01, "mean {mean} vs {expected}");
    }

    #[test]
    fn single_record_run() {
        let mut rng = SmallRng::seed_from_u64(6);
        let bm = BlockMinima::sample(1, 4, &mut rng);
        assert_eq!(bm.blocks(), 1);
        assert_eq!(bm.minima[0], bm.last_key);
    }

    #[test]
    fn bounds_interleave_strictly() {
        let mut rng = SmallRng::seed_from_u64(7);
        for &(records, block) in &[(1u64, 1u64), (10, 3), (100, 7), (64, 8), (65, 8)] {
            let bb = BlockBounds::sample(records, block, &mut rng);
            assert_eq!(bb.blocks() as u64, records.div_ceil(block));
            for j in 0..bb.blocks() {
                assert!(bb.minima[j] <= bb.maxima[j], "block {j} min>max");
                if block > 1 && (j + 1 < bb.blocks() || records % block != 1) {
                    // Multi-record blocks have strictly separated bounds.
                    if (j + 1 < bb.blocks() && block > 1)
                        || (j + 1 == bb.blocks() && records - j as u64 * block > 1)
                    {
                        assert!(bb.minima[j] < bb.maxima[j], "block {j} not spread");
                    }
                }
                if j + 1 < bb.blocks() {
                    assert!(bb.maxima[j] < bb.minima[j + 1], "blocks {j},{} overlap", j + 1);
                }
            }
            assert!(*bb.maxima.last().unwrap() < 1.0);
            assert!(bb.minima[0] > 0.0);
        }
    }

    /// Block max means: U_((j+1)B) has mean (j+1)B/(L+1).
    #[test]
    fn maxima_means_match_beta_expectations() {
        let mut rng = SmallRng::seed_from_u64(8);
        let (l, b) = (60u64, 15u64);
        let n = 20_000;
        let blocks = l.div_ceil(b) as usize;
        let mut sums = vec![0.0; blocks];
        for _ in 0..n {
            let bb = BlockBounds::sample(l, b, &mut rng);
            for (s, m) in sums.iter_mut().zip(&bb.maxima) {
                *s += m;
            }
        }
        for (j, s) in sums.iter().enumerate() {
            let mean = s / n as f64;
            let expected = ((j as u64 + 1) * b).min(l) as f64 / (l + 1) as f64;
            assert!(
                (mean - expected).abs() < 0.02,
                "block {j}: mean {mean} vs {expected}"
            );
        }
    }

    /// Minima from BlockBounds must be distributed like BlockMinima's.
    #[test]
    fn bounds_minima_agree_with_blockminima_distribution() {
        let (l, b) = (48u64, 6u64);
        let n = 20_000;
        let mut rng = SmallRng::seed_from_u64(9);
        let mean_of = |use_bounds: bool, rng: &mut SmallRng| -> f64 {
            (0..n)
                .map(|_| {
                    if use_bounds {
                        BlockBounds::sample(l, b, rng).minima[3]
                    } else {
                        BlockMinima::sample(l, b, rng).minima[3]
                    }
                })
                .sum::<f64>()
                / n as f64
        };
        let a = mean_of(true, &mut rng);
        let c = mean_of(false, &mut rng);
        assert!((a - c).abs() < 0.01, "{a} vs {c}");
    }
}
