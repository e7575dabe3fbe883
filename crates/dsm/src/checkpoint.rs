//! Checkpoint manifests for multi-pass DSM sorts.
//!
//! Same recovery idea as `srm-core::checkpoint`, for the striped
//! baseline: after formation and after each merge pass the whole dataset
//! exists as a set of sorted logical runs, so that set (plus the pass
//! number) is all a resume needs.  DSM is deterministic — there is no
//! placement RNG to fast-forward — which makes its manifest even
//! simpler:
//!
//! ```text
//! dsm-sort-manifest v1
//! algo dsm
//! geometry <D> <B> <M>
//! records <u64>
//! runs-formed <u64>
//! pass <completed merge passes>
//! parity <stripe_disks>            (optional: array ran under parity)
//! dead <disk_id> ...               (optional: disks dead at snapshot time)
//! generation <u64>                 (optional: monotonic save counter, absent = 0)
//! runs <count>
//! run <start_stripe> <len_stripes> <records>
//! ...
//! checksum <fnv1a64 of all preceding bytes, hex>
//! ```
//!
//! The optional `parity` / `dead` lines mirror the SRM manifest: they pin
//! the redundancy geometry the snapshot was taken under, so a degraded
//! array can only be resumed by an array that knows the same disks are
//! dead (see [`Manifest::validate_redundancy`]).
//!
//! This module owns only the payload — the fields above, their order, and
//! [`DsmManifest::validate`].  The checksum envelope, the journaled save
//! and newest-valid-generation recovery are [`pdisk::Manifest`]'s provided
//! methods, the same store `srm-core::checkpoint` uses.
//!
//! One DSM-specific caveat: stripes need the array's per-disk bump
//! allocators in lockstep, and a reopened file array can bring them back
//! ragged (a partial final stripe, a kill between the per-disk writes of
//! one).  [`crate::logical::alloc_stripe`] realigns them on the first
//! allocation after a resume.

use crate::logical::LogicalRun;
use crate::sort::DsmError;
use pdisk::manifest::{
    generation_line, geometry_line, malformed, redundancy_lines, validate_target, Lines,
};
use pdisk::{Geometry, Manifest, RedundancyInfo};

const HEADER: &str = "dsm-sort-manifest v1";

/// Snapshot of a DSM sort between passes.
#[derive(Debug, Clone, PartialEq)]
pub struct DsmManifest {
    /// Geometry the sort ran under; resume refuses a mismatch.
    pub geometry: Geometry,
    /// Total records being sorted.
    pub records: u64,
    /// Runs produced by the formation pass.
    pub runs_formed: u64,
    /// Completed merge passes (0 = formation finished).
    pub pass: u64,
    /// Redundancy geometry at snapshot time (`None` for a plain array).
    pub redundancy: Option<RedundancyInfo>,
    /// Monotonic save counter (0 until first saved).  Each journaled
    /// save writes one past the newest valid generation on disk, and
    /// [`Manifest::load_latest`] resumes from the largest valid one.
    pub generation: u64,
    /// Surviving runs, in merge-queue order.
    pub runs: Vec<LogicalRun>,
}

impl DsmManifest {
    /// Refuse to resume against a different array or input.
    pub fn validate(&self, geometry: Geometry, records: u64) -> Result<(), DsmError> {
        validate_target(self.geometry, self.records, self.runs.len(), geometry, records)
    }
}

impl Manifest for DsmManifest {
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
        let mut s = format!("{HEADER}\nalgo dsm\n");
        s.push_str(&geometry_line(self.geometry));
        s.push_str(&format!("records {}\n", self.records));
        s.push_str(&format!("runs-formed {}\n", self.runs_formed));
        s.push_str(&format!("pass {}\n", self.pass));
        s.push_str(&redundancy_lines(self.redundancy.as_ref()));
        s.push_str(&generation_line(self.generation));
        s.push_str(&format!("runs {}\n", self.runs.len()));
        for run in &self.runs {
            s.push_str(&format!(
                "run {} {} {}\n",
                run.start_stripe, run.len_stripes, run.records
            ));
        }
        s
    }

    fn parse_body(lines: &mut Lines<'_>) -> Result<Self, String> {
        lines.take_header(HEADER)?;
        if lines.take_field("algo")? != "dsm" {
            return Err(malformed("not a dsm manifest"));
        }
        let geometry = lines.take_geometry()?;
        let records = lines.take_num("records", "records")?;
        let runs_formed = lines.take_num("runs-formed", "runs-formed")?;
        let pass = lines.take_num("pass", "pass")?;
        let redundancy = lines.take_redundancy(geometry)?;
        let generation = lines.take_generation()?;
        let runs = lines.take_runs(|nums| match *nums {
            [start_stripe, len_stripes, records] => Ok(LogicalRun {
                start_stripe,
                len_stripes,
                records,
            }),
            _ => Err(malformed("run line needs three fields")),
        })?;
        Ok(DsmManifest {
            geometry,
            records,
            runs_formed,
            pass,
            redundancy,
            generation,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DsmManifest {
        DsmManifest {
            geometry: Geometry::new(2, 4, 96).unwrap(),
            records: 3000,
            runs_formed: 63,
            pass: 1,
            redundancy: None,
            generation: 0,
            runs: vec![
                LogicalRun {
                    start_stripe: 400,
                    len_stripes: 30,
                    records: 240,
                },
                LogicalRun {
                    start_stripe: 430,
                    len_stripes: 20,
                    records: 160,
                },
            ],
        }
    }

    /// The on-disk text, pinned: a reordered, renamed or reformatted line
    /// would strand every manifest already written.
    #[test]
    fn golden_text_is_pinned() {
        const GOLDEN: &str = "dsm-sort-manifest v1\n\
algo dsm\n\
geometry 3 4 96\n\
records 3000\n\
runs-formed 63\n\
pass 1\n\
parity 3\n\
dead 0 2\n\
generation 7\n\
runs 2\n\
run 400 30 240\n\
run 430 20 160\n\
checksum 1379fdc60cc0723e\n";
        let mut m = sample();
        m.geometry = Geometry::new(3, 4, 96).unwrap();
        m.generation = 7;
        m.redundancy = Some(RedundancyInfo {
            stripe_disks: 3,
            dead: vec![pdisk::DiskId(0), pdisk::DiskId(2)],
        });
        assert_eq!(m.encode(), GOLDEN);
        assert_eq!(DsmManifest::parse(GOLDEN).unwrap(), m);
    }

    #[test]
    fn validate_refuses_mismatches() {
        let m = sample();
        m.validate(m.geometry, 3000).unwrap();
        assert!(m.validate(Geometry::new(4, 4, 96).unwrap(), 3000).is_err());
        assert!(m.validate(m.geometry, 2999).is_err());
    }
}
