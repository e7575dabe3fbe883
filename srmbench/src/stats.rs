//! Order statistics and process memory readings.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest quarter.  As robust as the median, and
/// smooth where samples sit on a lattice (the server polls every 10
/// and 20 ms, so job latencies come in steps the median jumps between).
pub fn midmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile, `p` in `(0, 1]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// `median [q1 .. q3] n=N` for the human-readable report.
pub fn describe(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("{:.6} [{:.6} .. {:.6}] n={}", median(values), q1, q3, values.len())
}

/// Keeps every core out of its idle state while it lives.
///
/// The sandbox is a VM whose wake-up latency from idle has two modes:
/// after a stretch of heavy CPU use the host wakes an idle vCPU late
/// for minutes, and a `dist_p4` rep, which is mostly thread hand-offs
/// and 40 us sleeps, goes from 1.8 s to 2.9 s.  One thread per core
/// that does nothing but yield keeps the vCPUs running, so a wake-up is
/// a guest context switch in both modes.  A yielding thread gives way
/// to any runnable one, so the measured threads lose next to nothing.
pub struct KeepAwake {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let spinners = (0..cores)
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in self.spinners.drain(..) {
            let _ = h.join();
        }
    }
}

/// Reset the kernel's peak-RSS watermark to the current RSS, so that
/// [`peak_rss_mb`] afterwards reports the peak of the region that
/// follows.  Returns `false` where `/proc` does not offer it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn peak_rss_reads_and_resets() {
        let before = peak_rss_mb().expect("VmHWM is readable on Linux");
        assert!(before > 0.0);
        if reset_peak_rss() {
            let big = vec![1u8; 64 << 20];
            assert!(std::hint::black_box(&big).iter().map(|&b| u64::from(b)).sum::<u64>() > 0);
            assert!(peak_rss_mb().expect("readable") >= 60.0);
        }
    }
}
