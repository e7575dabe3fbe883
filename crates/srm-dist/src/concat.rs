//! The cross-shard output stream, one loop for thread and process mode.
//!
//! [`crate::split::shard_of`] is monotone in the key and the splitters
//! are a pure function of `(spec, P)`, so every key of shard `i` is
//! `<=` every key of shard `i + 1`: the global output is the shards'
//! sorted runs **concatenated in splitter order**, with no comparison
//! across shards left to make.  The stream therefore drains one window
//! of one shard at a time into [`RunWriter`] while exactly one request —
//! the next window of this shard, or the first window of the next
//! non-empty shard — is in flight (§2.1's double buffer at stripe
//! granularity), and checks `key >= previous` on every key so a
//! mis-routed partition fails typed instead of producing a wrong
//! digest.

use crate::error::{DistError, Result};
use pdisk::{DiskArray, DiskId, FileDiskArray, Geometry, U64Record};
use srm_core::RunWriter;
use srm_server::KeyDigest;
use std::path::Path;
use std::time::{Duration, Instant};

/// Blocks per window: `max(1, (M/2) / (D·B))` whole stripes, so the
/// window being drained and the one in flight together fit the
/// coordinator's `M`-record budget.
pub(crate) fn window_blocks(geom: Geometry) -> u64 {
    let stripes = (geom.m / 2 / (geom.d * geom.b)).max(1);
    (stripes * geom.d) as u64
}

/// Where the stream's windows come from: block RPCs against serving
/// shards (thread mode) or the shard directories themselves (process
/// mode).  At most one request is outstanding.
pub(crate) trait WindowSource {
    /// Start fetching the window of shard `shard`'s run that begins at
    /// block `first` ([`window_blocks`] long, clamped to the run's end).
    fn request(&mut self, shard: usize, first: u64) -> Result<()>;

    /// Block until the outstanding window is here: its keys, in order.
    fn wait(&mut self) -> Result<Vec<u64>>;
}

/// What the stream wrote.
pub(crate) struct Concat {
    /// FNV-1a digest of the global output.
    pub digest: u64,
    /// Records written.
    pub records: u64,
    /// Time spent blocked in [`WindowSource::wait`].
    pub wait: Duration,
}

/// Concatenate the shards' runs (`blocks[s]` blocks each) into the
/// global output cluster under `root`.
pub(crate) fn concat_output(
    geom: Geometry,
    root: &Path,
    blocks: &[u64],
    src: &mut impl WindowSource,
) -> Result<Concat> {
    let out_dir = root.join("global");
    if out_dir.exists() {
        std::fs::remove_dir_all(&out_dir)
            .map_err(|e| DistError::Io(format!("clear {}: {e}", out_dir.display())))?;
    }
    let mut out = FileDiskArray::<U64Record>::create(geom, &out_dir)?;
    let mut writer = RunWriter::new(geom, DiskId(0));

    let step = window_blocks(geom) as usize;
    let mut windows = blocks
        .iter()
        .enumerate()
        .flat_map(|(s, &n)| (0..n).step_by(step).map(move |first| (s, first)));
    let mut in_flight = windows.next();
    if let Some((s, first)) = in_flight {
        src.request(s, first)?;
    }

    let (mut digest, mut records, mut wait) = (KeyDigest::new(), 0u64, Duration::ZERO);
    let mut prev = u64::MIN;
    while let Some((s, first)) = in_flight {
        let blocked = Instant::now();
        let keys = src.wait()?;
        wait += blocked.elapsed();
        in_flight = windows.next();
        if let Some((next_shard, next_first)) = in_flight {
            src.request(next_shard, next_first)?;
        }
        if keys.is_empty() {
            return Err(DistError::Shard {
                shard: s as u32,
                msg: format!("served no keys for block {first} of its {}-block run", blocks[s]),
            });
        }
        for key in keys {
            if key < prev {
                return Err(DistError::Order { shard: s as u32, first, key, prev });
            }
            prev = key;
            writer.push(&mut out, U64Record(key))?;
            digest.push(key);
            records += 1;
        }
    }
    if records > 0 {
        writer.finish(&mut out)?;
        out.sync()?;
    }
    Ok(Concat { digest: digest.finish(), records, wait })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_windows_fit_the_memory_budget_in_whole_stripes() {
        for (d, b, m, want) in [(3, 16, 1024, 30), (3, 16, 512, 15), (3, 16, 96, 3), (2, 8, 4096, 256)] {
            let geom = Geometry::new(d, b, m).unwrap();
            let w = window_blocks(geom);
            assert_eq!(w, want, "d={d} b={b} m={m}");
            assert_eq!(w % d as u64, 0, "a window is a whole number of stripes");
            assert!(w == d as u64 || 2 * w as usize * b <= m, "two windows must fit M");
        }
    }

    /// A source that serves canned windows and logs the protocol.
    struct Canned {
        runs: Vec<Vec<u64>>,
        per_window: usize,
        outstanding: Option<(usize, u64)>,
        log: Vec<(usize, u64)>,
    }

    impl WindowSource for Canned {
        fn request(&mut self, shard: usize, first: u64) -> Result<()> {
            assert!(self.outstanding.is_none(), "two requests in flight");
            self.outstanding = Some((shard, first));
            self.log.push((shard, first));
            Ok(())
        }

        fn wait(&mut self) -> Result<Vec<u64>> {
            let (shard, first) = self.outstanding.take().expect("wait without a request");
            let lo = (first as usize * 4).min(self.runs[shard].len());
            let hi = (lo + self.per_window).min(self.runs[shard].len());
            Ok(self.runs[shard][lo..hi].to_vec())
        }
    }

    /// d=2, b=4, m=16: one-stripe, two-block (8-key) windows.
    fn stream(runs: Vec<Vec<u64>>, blocks: &[u64]) -> (Result<Concat>, Vec<(usize, u64)>) {
        let geom = Geometry::new(2, 4, 16).unwrap();
        let root = std::env::temp_dir().join(format!(
            "srm-dist-concat-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut src = Canned { runs, per_window: 8, outstanding: None, log: Vec::new() };
        let out = concat_output(geom, &root, blocks, &mut src);
        let _ = std::fs::remove_dir_all(&root);
        (out, src.log)
    }

    #[test]
    fn empty_shards_are_skipped_and_one_request_is_in_flight() {
        let runs = vec![vec![], (0..20).collect(), vec![], vec![], (20..27).collect(), vec![]];
        let all: Vec<u64> = runs.iter().flatten().copied().collect();
        let (out, log) = stream(runs, &[0, 5, 0, 0, 2, 0]);
        let out = out.unwrap();
        assert_eq!(log, vec![(1, 0), (1, 2), (1, 4), (4, 0)]);
        assert_eq!(out.records, 27);
        assert_eq!(out.digest, srm_server::digest_keys(all));
    }

    #[test]
    fn a_key_below_its_predecessor_is_a_typed_error() {
        let (out, _) = stream(vec![(10..18).collect(), (0..8).collect()], &[2, 2]);
        match out {
            Err(DistError::Order { shard: 1, first: 0, key: 0, prev: 17 }) => {}
            other => panic!("want the order error, got {:?}", other.map(|c| c.digest)),
        }
    }

    #[test]
    fn an_empty_window_of_an_existing_block_is_a_typed_error() {
        // The coordinator believes shard 0 has 4 blocks; it holds 2.
        let (out, log) = stream(vec![(0..8).collect()], &[4]);
        assert_eq!(log, vec![(0, 0), (0, 2)]);
        match out {
            Err(DistError::Shard { shard: 0, msg }) => assert!(msg.contains("block 2"), "{msg}"),
            other => panic!("want a shard error, got {:?}", other.map(|c| c.digest)),
        }
    }
}
