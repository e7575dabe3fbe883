//! Dependent occupancy: chains of balls deposited cyclically into bins
//! (§7.1 of the paper, illustrated by its Figure 1).
//!
//! A chain of length `ℓ` "thrown into bin `s`" puts ball `i` into bin
//! `(s + i) mod D`.  This is exactly how the blocks a merge phase needs are
//! distributed over disks: each run contributes a *chain* of consecutive
//! blocks, cyclically striped, whose start disk is uniformly random
//! (Lemma 7).

use crate::stats::{Estimate, RunningStats};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An instance of the dependent occupancy problem: `D` bins and a multiset
/// of chain lengths.
///
/// # Examples
///
/// ```
/// use occupancy::DependentProblem;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// // Figure 1's shape: 12 balls in 5 chains over 4 bins.
/// let p = DependentProblem::new(4, vec![4, 3, 2, 2, 1]);
/// assert_eq!(p.total_balls(), 12);
///
/// // Chains deposit cyclically: a throw conserves balls.
/// let mut rng = SmallRng::seed_from_u64(1);
/// assert_eq!(p.throw_once(&mut rng).iter().sum::<u64>(), 12);
///
/// // Dependent spreading beats independent balls in expectation
/// // (the §7.2 conjecture; exact on instances this small).
/// let classical = DependentProblem::classical(12, 4);
/// assert!(p.exact_expected_max() <= classical.exact_expected_max());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependentProblem {
    d: usize,
    chains: Vec<u64>,
}

impl DependentProblem {
    /// Build an instance.
    ///
    /// # Panics
    /// Panics if `d == 0` or any chain is empty.
    pub fn new(d: usize, chains: Vec<u64>) -> Self {
        assert!(d > 0, "at least one bin");
        assert!(chains.iter().all(|&c| c > 0), "chains must be non-empty");
        DependentProblem { d, chains }
    }

    /// `C` equal chains of length `len` — the shape arising from a merge
    /// phase in which every run contributes equally.
    pub fn uniform_chains(c: usize, len: u64, d: usize) -> Self {
        DependentProblem::new(d, vec![len; c])
    }

    /// The classical problem as a dependent instance: `n` chains of 1.
    pub fn classical(n_balls: usize, d: usize) -> Self {
        DependentProblem::new(d, vec![1; n_balls])
    }

    /// Number of bins `D`.
    pub fn bins(&self) -> usize {
        self.d
    }

    /// Chain lengths.
    pub fn chains(&self) -> &[u64] {
        &self.chains
    }

    /// Total number of balls `N_b`.
    pub fn total_balls(&self) -> u64 {
        self.chains.iter().sum()
    }

    /// Lemma 9 normalization: replace every chain of length `aD + b`
    /// (`a ≥ 1`) by `a` chains of length `D` and, if `b > 0`, one chain of
    /// length `b`.  The occupancy distribution — hence the expected maximum
    /// — is unchanged.
    pub fn normalized(&self) -> DependentProblem {
        let d = self.d as u64;
        let mut chains = Vec::with_capacity(self.chains.len());
        for &len in &self.chains {
            let (a, b) = (len / d, len % d);
            chains.extend(std::iter::repeat_n(d, a as usize));
            if b > 0 {
                chains.push(b);
            }
        }
        DependentProblem { d: self.d, chains }
    }

    /// Throw every chain into a uniformly random bin; return the full
    /// occupancy vector.
    ///
    /// Cost is `O(C + D)` per call via a cyclic difference array — chains
    /// longer than `D` contribute whole laps in O(1).
    pub fn throw_once<RN: Rng + ?Sized>(&self, rng: &mut RN) -> Vec<u64> {
        let d = self.d;
        let mut full_laps = 0u64;
        let mut diff = vec![0i64; d + 1];
        for &len in &self.chains {
            let s = rng.random_range(0..d);
            full_laps += len / d as u64;
            let rem = (len % d as u64) as usize;
            if rem > 0 {
                // Add 1 to bins s .. s+rem-1 cyclically.
                let end = s + rem;
                if end <= d {
                    diff[s] += 1;
                    diff[end] -= 1;
                } else {
                    diff[s] += 1;
                    diff[d] -= 1;
                    diff[0] += 1;
                    diff[end - d] -= 1;
                }
            }
        }
        let mut occ = Vec::with_capacity(d);
        let mut acc = 0i64;
        for &delta in diff.iter().take(d) {
            acc += delta;
            occ.push(full_laps + acc as u64);
        }
        occ
    }

    /// One trial's maximum occupancy.
    pub fn max_occupancy_once<RN: Rng + ?Sized>(&self, rng: &mut RN) -> u64 {
        self.throw_once(rng).into_iter().max().unwrap_or(0)
    }

    /// Monte-Carlo estimate of the expected maximum occupancy
    /// `E[X_max]` of this instance.
    pub fn estimate_max<RN: Rng + ?Sized>(&self, trials: u64, rng: &mut RN) -> Estimate {
        let mut acc = RunningStats::new();
        for _ in 0..trials {
            acc.push(self.max_occupancy_once(rng) as f64);
        }
        acc.estimate()
    }

    /// Deterministic throw with given start bins (for rendering Figure 1
    /// and for exact tests).  `starts[i]` is chain `i`'s bin.
    pub fn throw_at(&self, starts: &[usize]) -> Vec<u64> {
        assert_eq!(starts.len(), self.chains.len());
        let mut occ = vec![0u64; self.d];
        for (&len, &s) in self.chains.iter().zip(starts) {
            assert!(s < self.d);
            for i in 0..len {
                occ[(s + i as usize) % self.d] += 1;
            }
        }
        occ
    }

    /// **Exact** expected maximum occupancy by enumerating all `D^C`
    /// start-bin assignments.
    ///
    /// # Panics
    /// Panics when `D^C` exceeds 10⁸ outcomes — use
    /// [`DependentProblem::estimate_max`] beyond that.
    pub fn exact_expected_max(&self) -> f64 {
        let d = self.d as u64;
        let c = self.chains.len() as u32;
        #[expect(clippy::panic, reason = "documented # Panics contract")]
        let outcomes = d.checked_pow(c).filter(|&o| o <= 100_000_000).unwrap_or_else(|| {
            panic!("exact enumeration infeasible: {d}^{c} outcomes")
        });
        let mut total = 0u64;
        let mut starts = vec![0usize; self.chains.len()];
        for code in 0..outcomes {
            let mut x = code;
            for s in starts.iter_mut() {
                *s = (x % d) as usize;
                x /= d;
            }
            total += self.throw_at(&starts).into_iter().max().unwrap_or(0);
        }
        total as f64 / outcomes as f64
    }
}

/// The instance depicted in the paper's Figure 1: `N_b = 12` balls in
/// `C = 5` chains over `D = 4` bins, together with the start bins that
/// realize the figure's dependent maximum occupancy of 4 (and, thrown as
/// independent balls at the positions shown, a classical maximum of 5).
pub fn figure1_instance() -> (DependentProblem, Vec<usize>) {
    // Chain lengths sum to 12; the figure links blocks into chains of
    // lengths 4, 3, 2, 2, 1.
    let problem = DependentProblem::new(4, vec![4, 3, 2, 2, 1]);
    // Start bins chosen so the second bin reaches occupancy 4.
    let starts = vec![0, 1, 1, 3, 1];
    (problem, starts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn chain_of_full_laps_is_deterministically_flat() {
        // One chain of length 3D covers every bin exactly 3 times.
        let p = DependentProblem::new(5, vec![15]);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            let occ = p.throw_once(&mut rng);
            assert!(occ.iter().all(|&o| o == 3), "{occ:?}");
        }
    }

    #[test]
    fn partial_lap_adds_one_to_exactly_rem_bins() {
        let p = DependentProblem::new(4, vec![2 * 4 + 3]);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            let occ = p.throw_once(&mut rng);
            let threes = occ.iter().filter(|&&o| o == 3).count();
            let twos = occ.iter().filter(|&&o| o == 2).count();
            assert_eq!((threes, twos), (3, 1), "{occ:?}");
        }
    }

    #[test]
    fn throw_once_conserves_balls() {
        let p = DependentProblem::new(7, vec![1, 2, 3, 9, 14, 30]);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..50 {
            let occ = p.throw_once(&mut rng);
            assert_eq!(occ.iter().sum::<u64>(), p.total_balls());
        }
    }

    #[test]
    fn normalization_splits_long_chains_only() {
        let p = DependentProblem::new(4, vec![11, 4, 2]);
        let n = p.normalized();
        // 11 = 2*4 + 3 -> chains 4,4,3; 4 -> 4; 2 -> 2.
        assert_eq!(n.chains(), &[4, 4, 3, 4, 2]);
        assert_eq!(n.total_balls(), p.total_balls());
        assert!(n.chains().iter().all(|&c| c <= 4));
    }

    /// Lemma 9: the expected maximum is unchanged by normalization.
    /// (Statistical test with generous Monte-Carlo margins.)
    #[test]
    fn lemma9_preserves_expected_max() {
        let p = DependentProblem::new(5, vec![13, 7, 22, 3]);
        let n = p.normalized();
        let mut rng = SmallRng::seed_from_u64(3);
        let ep = p.estimate_max(30_000, &mut rng);
        let en = n.estimate_max(30_000, &mut rng);
        let tol = 5.0 * (ep.std_err + en.std_err);
        assert!(
            (ep.mean - en.mean).abs() < tol,
            "original {} vs normalized {} (tol {tol})",
            ep.mean,
            en.mean
        );
    }

    /// §7.2 conjecture, checked empirically: dependent expected max is at
    /// most the classical expected max for the same N_b, D.
    #[test]
    fn dependent_max_below_classical_max() {
        let d = 8;
        let chains = DependentProblem::uniform_chains(16, 4, d); // N_b = 64
        let classical = DependentProblem::classical(64, d);
        let mut rng = SmallRng::seed_from_u64(4);
        let dep = chains.estimate_max(20_000, &mut rng);
        let cla = classical.estimate_max(20_000, &mut rng);
        assert!(
            dep.mean < cla.mean,
            "dependent {} should be below classical {}",
            dep.mean,
            cla.mean
        );
    }

    #[test]
    fn classical_special_case_matches_classical_module() {
        let d = 6;
        let p = DependentProblem::classical(30, d);
        let mut rng = SmallRng::seed_from_u64(5);
        let dep = p.estimate_max(30_000, &mut rng);
        let cla = crate::classical::estimate_classical_max(30, d, 30_000, &mut rng);
        let tol = 5.0 * (dep.std_err + cla.std_err);
        assert!((dep.mean - cla.mean).abs() < tol);
    }

    #[test]
    fn figure1_reproduces_paper_maxima() {
        let (p, starts) = figure1_instance();
        assert_eq!(p.total_balls(), 12);
        assert_eq!(p.chains().len(), 5);
        assert_eq!(p.bins(), 4);
        let occ = p.throw_at(&starts);
        assert_eq!(occ.iter().max(), Some(&4), "dependent max of Figure 1(a) is 4: {occ:?}");
        assert_eq!(occ.iter().sum::<u64>(), 12);
    }

    #[test]
    fn throw_at_matches_throw_once_support() {
        // throw_at with every start must give occupancies summing to N_b.
        let p = DependentProblem::new(3, vec![2, 5]);
        for s0 in 0..3 {
            for s1 in 0..3 {
                let occ = p.throw_at(&[s0, s1]);
                assert_eq!(occ.iter().sum::<u64>(), 7);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_chain_rejected() {
        let _ = DependentProblem::new(3, vec![2, 0]);
    }

    /// Lemma 9, **exactly**: enumerating both the original problem and
    /// its normalization gives identical expected maxima (not merely
    /// statistically indistinguishable ones).
    #[test]
    fn lemma9_exact_equality() {
        for chains in [vec![7u64, 2], vec![9, 3, 1], vec![11]] {
            let p = DependentProblem::new(3, chains);
            let n = p.normalized();
            let ep = p.exact_expected_max();
            let en = n.exact_expected_max();
            assert!(
                (ep - en).abs() < 1e-12,
                "chains {:?}: exact {ep} vs normalized {en}",
                p.chains()
            );
        }
    }

    /// Exact enumeration agrees with the classical exact path when all
    /// chains are singletons.
    #[test]
    fn exact_matches_classical_special_case() {
        let p = DependentProblem::classical(4, 3);
        let dep = p.exact_expected_max();
        let cla = crate::classical::exact_classical_max(4, 3);
        assert!((dep - cla).abs() < 1e-12, "{dep} vs {cla}");
    }

    /// Monte Carlo converges to the exact value.
    #[test]
    fn monte_carlo_matches_exact() {
        let p = DependentProblem::new(4, vec![3, 2, 2, 1]);
        let exact = p.exact_expected_max();
        let mut rng = SmallRng::seed_from_u64(9);
        let mc = p.estimate_max(100_000, &mut rng);
        assert!(
            (mc.mean - exact).abs() < 5.0 * mc.std_err.max(1e-3),
            "MC {} vs exact {exact}",
            mc.mean
        );
    }

    /// The §7.2 conjecture holds *exactly* on every small instance we can
    /// enumerate: dependent <= classical with the same N_b, D.
    #[test]
    fn conjecture_exact_on_small_instances() {
        for (d, chains) in [
            (3usize, vec![2u64, 2]),
            (3, vec![3, 1]),
            (4, vec![2, 2, 2]),
            (4, vec![3, 2, 1]),
            (5, vec![4, 3]),
            (2, vec![2, 1, 1]),
        ] {
            let p = DependentProblem::new(d, chains.clone());
            let n_b = p.total_balls() as usize;
            let cla = DependentProblem::classical(n_b, d);
            let e_dep = p.exact_expected_max();
            let e_cla = cla.exact_expected_max();
            assert!(
                e_dep <= e_cla + 1e-12,
                "D={d} chains {chains:?}: dependent {e_dep} > classical {e_cla}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn exact_enumeration_guard() {
        let p = DependentProblem::uniform_chains(64, 1, 64);
        let _ = p.exact_expected_max();
    }
}
