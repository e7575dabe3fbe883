//! Checkpoint manifests for multi-pass sorts.
//!
//! A multi-pass external sort is a natural unit of recovery: run formation
//! and every merge pass each leave the *entire* dataset on disk as a set
//! of sorted runs.  [`SortManifest`] records that set — plus everything
//! needed to replay the remaining passes exactly — so a sort killed
//! mid-pass can resume from the last completed pass instead of starting
//! over (see [`crate::SrmSorter::sort_checkpointed`]).
//!
//! The manifest is a small versioned text file, written atomically
//! (temp file + rename) and protected by an FNV-1a checksum line, so a
//! crash *while writing the manifest itself* leaves either the previous
//! valid manifest or a detectably torn one — never a silently wrong one:
//!
//! ```text
//! srm-sort-manifest v1
//! algo srm
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
//! This module owns only the *payload*: the fields above, their order,
//! and [`SortManifest::validate`].  The checksum envelope, the journaled
//! save (`.prev` rotation, generation stamping, temp + fsync + rename),
//! newest-valid-generation recovery and the `parity` / `dead` line codec
//! are [`pdisk::Manifest`]'s provided methods, shared with DSM's manifest.
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
//! would read garbage.  [`Manifest::validate_redundancy`] refuses those
//! mismatches.

use crate::error::{Result, SrmError};
use crate::sort::{Placement, SrmConfig};
use pdisk::manifest::{
    generation_line, geometry_line, malformed, redundancy_lines, validate_target, Lines,
};
use pdisk::{DiskId, Geometry, Manifest, RedundancyInfo, StripedRun};

const HEADER: &str = "srm-sort-manifest v1";

/// Snapshot of a sort between passes: the surviving runs in merge-queue
/// order plus the state needed to replay the remaining passes.
#[derive(Debug, Clone, PartialEq)]
pub struct SortManifest {
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
    /// Monotonic save counter, stamped by [`Manifest::save`]: each
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

impl SortManifest {
    /// Snapshot a sort's state after a completed pass.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
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
    pub fn validate(&self, config: &SrmConfig, geometry: Geometry, records: u64) -> Result<()> {
        validate_target(self.geometry, self.records, self.runs.len(), geometry, records)?;
        if self.seed != config.seed {
            return Err(SrmError::Checkpoint(format!(
                "manifest seed {} does not match sorter seed {}",
                self.seed, config.seed
            )));
        }
        if self.placement != config.placement {
            return Err(SrmError::Checkpoint(format!(
                "manifest placement {:?} does not match sorter placement {:?}",
                self.placement, config.placement
            )));
        }
        Ok(())
    }
}

impl Manifest for SortManifest {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    fn redundancy(&self) -> Option<&RedundancyInfo> {
        self.redundancy.as_ref()
    }

    fn encode_body(&self) -> String {
        let mut s = format!("{HEADER}\nalgo srm\n");
        s.push_str(&geometry_line(self.geometry));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!(
            "placement {}\n",
            match self.placement {
                Placement::Random => "random",
                Placement::Staggered => "staggered",
            }
        ));
        s.push_str(&format!("records {}\n", self.records));
        s.push_str(&format!("runs-formed {}\n", self.runs_formed));
        s.push_str(&format!("pass {}\n", self.pass));
        s.push_str(&format!("draws {}\n", self.draws));
        s.push_str(&generation_line(self.generation));
        s.push_str(&redundancy_lines(self.redundancy.as_ref()));
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
        s
    }

    fn parse_body(lines: &mut Lines<'_>) -> std::result::Result<Self, String> {
        lines.take_header(HEADER)?;
        if lines.take_field("algo")? != "srm" {
            return Err(malformed("not an srm manifest"));
        }
        let geometry = lines.take_geometry()?;
        let seed = lines.take_num("seed", "seed")?;
        let placement = match lines.take_field("placement")? {
            "random" => Placement::Random,
            "staggered" => Placement::Staggered,
            other => return Err(malformed(&format!("unknown placement `{other}`"))),
        };
        let records = lines.take_num("records", "records")?;
        let runs_formed = lines.take_num("runs-formed", "runs-formed")?;
        let pass = lines.take_num("pass", "pass")?;
        let draws = lines.take_num("draws", "draws")?;
        let generation = lines.take_generation()?;
        let redundancy = lines.take_redundancy(geometry)?;
        let runs = lines.take_runs(|nums| {
            if nums.len() != 3 + geometry.d {
                return Err(malformed("run line has wrong field count for geometry"));
            }
            Ok(StripedRun {
                start_disk: DiskId(u32::try_from(nums[0]).map_err(|_| malformed("start disk"))?),
                len_blocks: nums[1],
                records: nums[2],
                base_offsets: nums[3..].to_vec(),
            })
        })?;
        Ok(SortManifest {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SortManifest {
        let geometry = Geometry::new(3, 4, 96).unwrap();
        SortManifest::new(
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

    #[test]
    fn validate_refuses_mismatches() {
        let m = sample();
        let cfg = SrmConfig::default();
        let geom = m.geometry;
        m.validate(&cfg, geom, 1000).unwrap();
        // Wrong geometry.
        let other = Geometry::new(2, 4, 96).unwrap();
        assert!(m.validate(&cfg, other, 1000).is_err());
        // Wrong seed.
        let reseeded = SrmConfig { seed: 7, ..cfg };
        assert!(m.validate(&reseeded, geom, 1000).is_err());
        // Wrong placement.
        let staggered = SrmConfig {
            placement: Placement::Staggered,
            ..cfg
        };
        assert!(m.validate(&staggered, geom, 1000).is_err());
        // Wrong record count.
        assert!(m.validate(&cfg, geom, 999).is_err());
    }
}
