//! Checkpoint manifests for multi-pass sorts.
//!
//! A multi-pass external sort is a natural unit of recovery: run formation
//! and every merge pass each leave the *entire* dataset on disk as a set
//! of sorted runs.  [`SortManifest`] records that set — plus everything
//! needed to replay the remaining passes exactly — so a sort killed
//! mid-pass can resume from the last completed pass instead of starting
//! over (see [`crate::SrmSorter::sort_observed`]).
//!
//! The manifest is a small versioned text file:
//!
//! ```text
//! srm-sort-manifest v1
//! algo srm|dsm
//! geometry <D> <B> <M>
//! seed <u64>
//! placement random|staggered
//! records <u64>
//! runs-formed <u64>
//! pass <completed merge passes>
//! draws <placement draws consumed>
//! generation <u64>                 (optional: monotonic save counter, absent = 0)
//! parity <stripe_disks>            (optional: array ran under parity)
//! dead <disk_id> ...               (optional: disks dead at snapshot time)
//! runs <count>
//! run <start_disk> <len_blocks> <records> <base_offset_0> ... <base_offset_D-1>
//! ...
//! checksum <fnv1a64 of all preceding bytes, hex>
//! ```
//!
//! What makes the file trustworthy after a crash:
//!
//! * **the envelope** — the trailing `checksum` line, so a torn or
//!   bit-flipped manifest is detected, never silently believed;
//! * **the journal** — each [`SortManifest::save`] first rotates the
//!   previous *valid* manifest to `<path>.prev`, then writes the new one
//!   to `<path>.tmp`, fsyncs it, and renames it over `path`, stamped with
//!   a generation one past the newest valid generation on disk.  Recovery
//!   ([`SortManifest::load_latest`]) picks the newest valid candidate
//!   among `path` and `path.prev`, so a crash at any byte of a manifest
//!   write falls back to the previous checkpoint instead of refusing to
//!   resume.
//!
//! `algo` names the merge-order rule ([`EngineKind`]): a DSM sort is this
//! engine on one wide disk, so its manifest differs from SRM's in that
//! line and its one-disk geometry, and a resume under the other rule is
//! refused.
//!
//! `draws` is the key to determinism: SRM's randomized placement draws one
//! start disk per run written.  Fast-forwarding a fresh placement RNG by
//! `draws` before resuming makes the resumed sort draw the *same* start
//! disks an uninterrupted sort would have — so the recovered output is
//! identical, not merely sorted.
//!
//! The optional `parity` / `dead` lines record the redundancy geometry the
//! snapshot was taken under ([`pdisk::RedundancyInfo`]).  A manifest written
//! under parity addresses blocks through the rotating-parity remap, and a
//! disk listed `dead` holds data that exists *only* as parity — so resuming
//! such a manifest on a plain array (or without re-marking the dead disks)
//! would read garbage.  [`SortManifest::validate_redundancy`] refuses those
//! mismatches.

use crate::error::{Result, SrmError};
use crate::sort::{EngineKind, Placement, SrmConfig};
use pdisk::manifest::{manifest_sibling, write_synced_temp};
use pdisk::{fnv1a64, CrashClock, DiskId, Geometry, RedundancyInfo, StripedRun};
use std::path::Path;

const HEADER: &str = "srm-sort-manifest v1";

/// Snapshot of a sort between passes: the surviving runs in merge-queue
/// order plus the state needed to replay the remaining passes.
#[derive(Debug, Clone, PartialEq)]
pub struct SortManifest {
    /// Merge-order rule of the sorter that wrote the manifest.
    pub engine: EngineKind,
    /// Disk-array geometry the sort ran under; a resume on a different
    /// geometry would misinterpret every address, so it is refused.
    pub geometry: Geometry,
    /// Seed of the sorter that wrote the manifest.
    pub seed: u64,
    /// Start-disk policy of the sorter that wrote the manifest.
    pub placement: Placement,
    /// Total records being sorted.
    pub records: u64,
    /// Runs produced by the formation pass (for the final report).
    pub runs_formed: u64,
    /// Completed merge passes (0 = formation finished, no merges yet).
    pub pass: u64,
    /// Placement draws consumed so far; the resuming sorter fast-forwards
    /// its RNG by this count.
    pub draws: u64,
    /// Monotonic save counter, stamped by [`SortManifest::save`]: each
    /// save writes one past the newest valid generation on disk, and
    /// recovery picks the valid candidate with the largest value.
    pub generation: u64,
    /// Redundancy geometry the snapshot was taken under: `None` for a plain
    /// array, `Some` when the array carried rotating parity (with the set
    /// of disks already dead at snapshot time).
    pub redundancy: Option<RedundancyInfo>,
    /// The surviving runs, in merge-queue order.
    pub runs: Vec<StripedRun>,
}

/// The message of a structurally broken manifest.
fn malformed(msg: &str) -> String {
    format!("malformed manifest: {msg}")
}

/// The body lines of a manifest (checksum already verified and cut off),
/// consumed front to back by [`SortManifest::parse`].  Every error is the
/// finished checkpoint message.
struct Lines<'a>(std::iter::Peekable<std::str::Lines<'a>>);

impl<'a> Lines<'a> {
    /// Consume the next line, which must be `<name> <value>`, and return
    /// the value.
    fn field(&mut self, name: &str) -> std::result::Result<&'a str, String> {
        let line = self.0.next().ok_or_else(|| malformed("truncated"))?;
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| malformed(&format!("expected `{name}` line, got `{line}`")))
    }

    /// [`Self::field`] parsed as one number; `what` names the field in
    /// the error.
    fn num<T: std::str::FromStr>(&mut self, name: &str, what: &str) -> std::result::Result<T, String> {
        self.field(name)?.parse().map_err(|_| malformed(what))
    }

    /// [`Self::field`] parsed as whitespace-separated integers.
    fn ints<T: std::str::FromStr>(&mut self, name: &str) -> std::result::Result<Vec<T>, String> {
        self.field(name)?
            .split_whitespace()
            .map(|w| w.parse::<T>().map_err(|_| malformed(&format!("bad integer `{w}`"))))
            .collect()
    }

    /// Whether the next line is a `name` field (for the optional lines).
    fn next_is(&mut self, name: &str) -> bool {
        self.0
            .peek()
            .is_some_and(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ')))
    }
}

impl SortManifest {
    /// Snapshot a sort's state after a completed pass.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        engine: EngineKind,
        config: &SrmConfig,
        geometry: Geometry,
        records: u64,
        runs_formed: u64,
        pass: u64,
        draws: u64,
        redundancy: Option<RedundancyInfo>,
        runs: Vec<StripedRun>,
    ) -> Self {
        SortManifest {
            engine,
            geometry,
            seed: config.seed,
            placement: config.placement,
            records,
            runs_formed,
            pass,
            draws,
            generation: 0,
            redundancy,
            runs,
        }
    }

    /// Refuse to resume under a sorter or array that doesn't match the one
    /// that wrote the manifest — a mismatch would produce wrong output,
    /// not just different I/O.
    pub fn validate(
        &self,
        engine: EngineKind,
        config: &SrmConfig,
        geometry: Geometry,
        records: u64,
    ) -> Result<()> {
        let (h, g) = (self.geometry, geometry);
        let refused = if self.engine != engine {
            format!(
                "manifest was written by a {} sort, not {}",
                self.engine.as_str(),
                engine.as_str()
            )
        } else if h != g {
            format!(
                "manifest geometry (D={} B={} M={}) does not match array (D={} B={} M={})",
                h.d, h.b, h.m, g.d, g.b, g.m
            )
        } else if self.records != records {
            format!(
                "manifest records {} does not match input records {records}",
                self.records
            )
        } else if self.runs.is_empty() {
            "manifest holds no runs".into()
        } else if self.seed != config.seed {
            format!(
                "manifest seed {} does not match sorter seed {}",
                self.seed, config.seed
            )
        } else if self.placement != config.placement {
            format!(
                "manifest placement {:?} does not match sorter placement {:?}",
                self.placement, config.placement
            )
        } else {
            return Ok(());
        };
        Err(SrmError::Checkpoint(refused))
    }

    /// Refuse to resume on an array whose redundancy state doesn't cover
    /// the manifest's.  A manifest written under parity addresses blocks
    /// through the rotating-parity remap, and blocks written while a disk
    /// was dead exist *only* as parity — so the resuming array must have
    /// the same stripe width and must already treat every manifest-dead
    /// disk as dead (extra deaths discovered since the snapshot are fine;
    /// they just mean more reconstruction).
    pub fn validate_redundancy(&self, current: Option<&RedundancyInfo>) -> Result<()> {
        let refused = match (&self.redundancy, current) {
            (None, None) => return Ok(()),
            (Some(_), None) => "manifest was written under parity redundancy but the array has \
                                none; blocks are laid out through the parity remap and degraded \
                                writes exist only as parity"
                .to_string(),
            (None, Some(_)) => "manifest was written on a plain array but the array has parity \
                                redundancy; the parity remap would misinterpret every address"
                .to_string(),
            (Some(want), Some(have)) => {
                if want.stripe_disks != have.stripe_disks {
                    format!(
                        "manifest parity stripe width {} does not match array stripe width {}",
                        want.stripe_disks, have.stripe_disks
                    )
                } else if let Some(d) = want.dead.iter().find(|d| !have.dead.contains(d)) {
                    format!(
                        "manifest records disk {} dead but the array treats it as live; \
                         its degraded-mode writes exist only as parity and a direct read \
                         would return stale or missing data",
                        d.0
                    )
                } else {
                    return Ok(());
                }
            }
        };
        Err(SrmError::Checkpoint(refused))
    }

    /// Serialize to the manifest text format, checksum line included.
    pub fn encode(&self) -> String {
        let g = self.geometry;
        let mut s = format!(
            "{HEADER}\nalgo {}\ngeometry {} {} {}\nseed {}\nplacement {}\n",
            self.engine.as_str(),
            g.d,
            g.b,
            g.m,
            self.seed,
            match self.placement {
                Placement::Random => "random",
                Placement::Staggered => "staggered",
            }
        );
        s.push_str(&format!("records {}\n", self.records));
        s.push_str(&format!("runs-formed {}\n", self.runs_formed));
        s.push_str(&format!("pass {}\n", self.pass));
        s.push_str(&format!("draws {}\n", self.draws));
        // Generation 0 (never saved) writes no line, which keeps
        // pre-journal manifests byte-compatible; so does a plain array.
        if self.generation > 0 {
            s.push_str(&format!("generation {}\n", self.generation));
        }
        if let Some(red) = &self.redundancy {
            s.push_str(&format!("parity {}\n", red.stripe_disks));
            if !red.dead.is_empty() {
                s.push_str("dead");
                for d in &red.dead {
                    s.push_str(&format!(" {}", d.0));
                }
                s.push('\n');
            }
        }
        s.push_str(&format!("runs {}\n", self.runs.len()));
        for run in &self.runs {
            s.push_str(&format!(
                "run {} {} {}",
                run.start_disk.0, run.len_blocks, run.records
            ));
            for &o in &run.base_offsets {
                s.push_str(&format!(" {o}"));
            }
            s.push('\n');
        }
        s.push_str(&format!("checksum {:016x}\n", fnv1a64(s.as_bytes())));
        s
    }

    /// Parse manifest text, verifying the trailing checksum.
    pub fn parse(text: &str) -> Result<Self> {
        let body_end = text
            .rfind("checksum ")
            .ok_or_else(|| SrmError::Checkpoint(malformed("missing checksum line")))?;
        let stored = text[body_end..]
            .trim()
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| SrmError::Checkpoint(malformed("unreadable checksum")))?;
        let computed = fnv1a64(&text.as_bytes()[..body_end]);
        if stored != computed {
            return Err(SrmError::Checkpoint(format!(
                "manifest checksum mismatch: stored {stored:016x}, computed {computed:016x} \
                 (torn or corrupted manifest)"
            )));
        }
        Self::parse_body(Lines(text[..body_end].lines().peekable())).map_err(SrmError::Checkpoint)
    }

    /// Parse the body [`Self::encode`] wrote above the checksum line.
    fn parse_body(mut lines: Lines<'_>) -> std::result::Result<Self, String> {
        if lines.0.next() != Some(HEADER) {
            return Err(malformed("unknown header or version"));
        }
        let engine = match lines.field("algo")? {
            "srm" => EngineKind::Srm,
            "dsm" => EngineKind::Dsm,
            other => return Err(malformed(&format!("unknown algo `{other}`"))),
        };
        let geo: Vec<usize> = lines.ints("geometry")?;
        if geo.len() != 3 {
            return Err(malformed("geometry needs three fields"));
        }
        let geometry = Geometry::new(geo[0], geo[1], geo[2])
            .map_err(|e| format!("manifest geometry invalid: {e}"))?;
        let seed = lines.num("seed", "seed")?;
        let placement = match lines.field("placement")? {
            "random" => Placement::Random,
            "staggered" => Placement::Staggered,
            other => return Err(malformed(&format!("unknown placement `{other}`"))),
        };
        let records = lines.num("records", "records")?;
        let runs_formed = lines.num("runs-formed", "runs-formed")?;
        let pass = lines.num("pass", "pass")?;
        let draws = lines.num("draws", "draws")?;
        // Manifests from before journaled saves carry no generation and
        // read as generation 0.
        let generation = if lines.next_is("generation") {
            lines.num("generation", "generation")?
        } else {
            0
        };
        // `dead` without `parity` is malformed (the next field's
        // `expected` error reports it).
        let mut redundancy = None;
        if lines.next_is("parity") {
            let stripe_disks: usize = lines.num("parity", "parity stripe width")?;
            if stripe_disks != geometry.d {
                return Err(malformed("parity stripe width does not match geometry"));
            }
            let mut dead = Vec::new();
            if lines.next_is("dead") {
                let ids: Vec<u32> = lines.ints("dead")?;
                if ids.iter().any(|&i| i as usize >= geometry.d) {
                    return Err(malformed("dead disk id out of range for geometry"));
                }
                dead = ids.into_iter().map(DiskId).collect();
            }
            redundancy = Some(RedundancyInfo { stripe_disks, dead });
        }
        let count: usize = lines.num("runs", "runs count")?;
        // Cap the pre-allocation: `count` is attacker-ish input (a corrupt
        // or hostile manifest) and should not drive an unbounded reserve.
        let mut runs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let nums: Vec<u64> = lines.ints("run")?;
            if nums.len() != 3 + geometry.d {
                return Err(malformed("run line has wrong field count for geometry"));
            }
            runs.push(StripedRun {
                start_disk: DiskId(u32::try_from(nums[0]).map_err(|_| malformed("start disk"))?),
                len_blocks: nums[1],
                records: nums[2],
                base_offsets: nums[3..].to_vec(),
            });
        }
        if lines.0.next().is_some() {
            return Err(malformed("trailing data after runs"));
        }
        Ok(SortManifest {
            engine,
            geometry,
            seed,
            placement,
            records,
            runs_formed,
            pass,
            draws,
            generation,
            redundancy,
            runs,
        })
    }

    /// Write journaled and atomic.  The previous valid manifest at `path`
    /// is first rotated to `<path>.prev`; the new manifest is then
    /// serialized to `<path>.tmp`, fsynced, and renamed over `path`,
    /// stamped with a generation one past the newest valid generation
    /// already on disk.  A crash at any point leaves at least one valid
    /// manifest for [`Self::load_latest`] to pick up.
    ///
    /// With a `clock`, the save ticks one crash boundary of its own,
    /// `manifest-sync`, between the temp file's fsync and the publishing
    /// rename.  A crash there models fsyncgate's worst case: the barrier
    /// ran (or failed) but the new generation was never published, so
    /// recovery must come up from the rotated `.prev` generation.  The
    /// rotation happens *before* the temp write precisely so that
    /// fallback always exists.
    pub fn save(&mut self, path: &Path, clock: Option<&CrashClock>) -> Result<()> {
        let ckpt = |e: std::io::Error| {
            SrmError::Checkpoint(format!("cannot write manifest {}: {e}", path.display()))
        };
        let prev = manifest_sibling(path, "prev");
        let current = Self::load(path).ok();
        let journaled = Self::load(&prev).ok();
        let newest = current.iter().chain(&journaled).map(|m| m.generation).max();
        self.generation = newest.map_or(1, |g| g + 1);
        // Rotate only a *valid* current manifest: renaming a torn one
        // over `.prev` would clobber the good fallback copy.
        if current.is_some() {
            std::fs::rename(path, &prev).map_err(ckpt)?;
        }
        let tmp = write_synced_temp(path, self.encode().as_bytes()).map_err(ckpt)?;
        if let Some(c) = clock {
            c.tick("manifest-sync")?;
        }
        std::fs::rename(&tmp, path).map_err(ckpt)?;
        Ok(())
    }

    /// Load and parse a manifest file.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            SrmError::Checkpoint(format!("cannot read manifest {}: {e}", path.display()))
        })?;
        Self::parse(&text)
    }

    /// Recovery rule: the newest *valid* manifest among `path` and its
    /// `.prev` journal sibling.
    ///
    /// * No candidate file exists → `Ok(None)` (nothing to resume).
    /// * At least one candidate parses and passes its checksum → the one
    ///   with the largest generation.
    /// * Candidates exist but every one is torn or corrupt → an error;
    ///   resuming blind would re-sort from scratch and clobber state
    ///   the operator may want to inspect.
    pub fn load_latest(path: &Path) -> Result<Option<Self>> {
        let prev = manifest_sibling(path, "prev");
        let mut best: Option<Self> = None;
        let mut existed = 0u32;
        let mut last_err = None;
        for p in [path, prev.as_path()] {
            if !p.exists() {
                continue;
            }
            existed += 1;
            match Self::load(p) {
                Ok(m) if best.as_ref().is_none_or(|b| m.generation > b.generation) => {
                    best = Some(m);
                }
                Ok(_) => {}
                Err(e) => last_err = Some(e),
            }
        }
        match (best, existed, last_err) {
            (Some(m), _, _) => Ok(Some(m)),
            (None, 0, _) => Ok(None),
            (None, _, Some(e)) => Err(SrmError::Checkpoint(format!(
                "every manifest candidate for {} is corrupt (last error: {e})",
                path.display()
            ))),
            (None, _, None) => Err(SrmError::Checkpoint(format!(
                "every manifest candidate for {} is unreadable",
                path.display()
            ))),
        }
    }

    /// Delete a completed sort's manifest, including its `.prev` journal
    /// sibling and any orphaned `.tmp`; missing files are fine (the sort
    /// may never have checkpointed).
    pub fn remove(path: &Path) -> Result<()> {
        for p in [
            path.to_path_buf(),
            manifest_sibling(path, "prev"),
            manifest_sibling(path, "tmp"),
        ] {
            match std::fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(SrmError::Checkpoint(format!(
                        "cannot remove manifest {}: {e}",
                        p.display()
                    )))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SortManifest {
        let geometry = Geometry::new(3, 4, 96).unwrap();
        SortManifest::new(
            EngineKind::Srm,
            &SrmConfig::default(),
            geometry,
            1000,
            21,
            2,
            25,
            None,
            vec![
                StripedRun {
                    start_disk: DiskId(1),
                    len_blocks: 130,
                    records: 520,
                    base_offsets: vec![10, 20, 30],
                },
                StripedRun {
                    start_disk: DiskId(0),
                    len_blocks: 120,
                    records: 480,
                    base_offsets: vec![55, 66, 77],
                },
            ],
        )
    }

    /// The on-disk text, pinned: a reordered, renamed or reformatted line
    /// would strand every manifest already written.
    #[test]
    fn golden_text_is_pinned() {
        const GOLDEN: &str = "srm-sort-manifest v1\n\
algo srm\n\
geometry 3 4 96\n\
seed 42\n\
placement staggered\n\
records 1000\n\
runs-formed 21\n\
pass 2\n\
draws 25\n\
generation 7\n\
parity 3\n\
dead 0 2\n\
runs 2\n\
run 1 130 520 10 20 30\n\
run 0 120 480 55 66 77\n\
checksum 5e206cbfbe423d69\n";
        let mut m = sample();
        m.seed = 42;
        m.placement = Placement::Staggered;
        m.generation = 7;
        m.redundancy = Some(RedundancyInfo {
            stripe_disks: 3,
            dead: vec![DiskId(0), DiskId(2)],
        });
        assert_eq!(m.encode(), GOLDEN);
        assert_eq!(SortManifest::parse(GOLDEN).unwrap(), m);
    }

    /// A DSM sort's manifest differs in its `algo` line alone; the old
    /// engine's `dsm-sort-manifest` is refused, not mis-resumed.
    #[test]
    fn dsm_writes_its_algo_line_and_the_old_format_is_refused() {
        let mut m = sample();
        m.engine = EngineKind::Dsm;
        let text = m.encode();
        assert!(text.starts_with("srm-sort-manifest v1\nalgo dsm\ngeometry 3 4 96\n"));
        assert_eq!(SortManifest::parse(&text).unwrap(), m);
        let old = "dsm-sort-manifest v1\nalgo dsm\ngeometry 2 4 96\nrecords 3000\n\
runs-formed 63\npass 1\nruns 1\nrun 0 375 3000\n";
        let old = format!("{old}checksum {:016x}\n", pdisk::fnv1a64(old.as_bytes()));
        assert!(SortManifest::parse(&old).is_err());
    }

    #[test]
    fn validate_refuses_mismatches() {
        let m = sample();
        let cfg = SrmConfig::default();
        let geom = m.geometry;
        let srm = EngineKind::Srm;
        m.validate(srm, &cfg, geom, 1000).unwrap();
        // Wrong engine.
        assert!(m.validate(EngineKind::Dsm, &cfg, geom, 1000).is_err());
        // Wrong geometry.
        let other = Geometry::new(2, 4, 96).unwrap();
        assert!(m.validate(srm, &cfg, other, 1000).is_err());
        // Wrong seed.
        let reseeded = SrmConfig { seed: 7, ..cfg };
        assert!(m.validate(srm, &reseeded, geom, 1000).is_err());
        // Wrong placement.
        let staggered = SrmConfig {
            placement: Placement::Staggered,
            ..cfg
        };
        assert!(m.validate(srm, &staggered, geom, 1000).is_err());
        // Wrong record count.
        assert!(m.validate(srm, &cfg, geom, 999).is_err());
    }
}
