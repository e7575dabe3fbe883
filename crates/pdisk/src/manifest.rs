//! The journaled manifest store shared by every checkpointing sorter.
//!
//! A checkpoint manifest is a small line-oriented text file.  What the
//! lines *say* belongs to the sorter that writes them (its payload, in
//! its own field order); everything that makes the file trustworthy
//! after a crash lives here, once:
//!
//! * **the envelope** — a trailing `checksum <fnv1a64 of all preceding
//!   bytes, hex>` line, so a torn or bit-flipped manifest is detected,
//!   never silently believed;
//! * **the journal** — each [`Manifest::save`] first rotates the
//!   previous *valid* manifest to `<path>.prev`, then writes the new one
//!   to `<path>.tmp`, fsyncs it, and renames it over `path`, stamped with
//!   a **generation number** one past the newest valid generation on
//!   disk.  Recovery ([`Manifest::load_latest`]) picks the newest valid
//!   candidate among `path` and `path.prev`, so a crash at any byte of a
//!   manifest write falls back to the previous checkpoint instead of
//!   refusing to resume;
//! * **the line codec** — `<name> <value>` field lines, the optional
//!   `generation` line, and the optional `parity` / `dead` lines that pin
//!   the redundancy geometry a snapshot was taken under
//!   ([`RedundancyInfo`]), with [`Manifest::validate_redundancy`]
//!   refusing a resume on an array that does not cover it.
//!
//! A payload implements the required items of [`Manifest`]; the provided
//! methods are the store.

use crate::passes::SortError;
use crate::{CrashClock, DiskId, Geometry, RedundancyInfo};
use std::io::Write;
use std::path::{Path, PathBuf};

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty to catch torn or
/// bit-flipped data (this guards against accidents, not adversaries).
/// The one byte-slice hash behind block frames, parity sidecar slots and
/// manifest envelopes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `<path>.<suffix>` with the suffix *appended* (not replacing an
/// existing extension), so `sort.manifest` journals beside itself as
/// `sort.manifest.prev` / `sort.manifest.tmp`.
pub fn manifest_sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".");
    os.push(suffix);
    PathBuf::from(os)
}

/// Write `bytes` to `<path>.tmp` and fsync it: the half of an atomic
/// publish that can be torn.  The caller renames the returned temp path
/// over `path`.
fn write_synced_temp(path: &Path, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let tmp = manifest_sibling(path, "tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(tmp)
}

/// Publish `bytes` at `path` atomically — temp + fsync + rename, so a
/// crash leaves either the old file or the new one, never a torn hybrid.
/// The one such sequence in the workspace: manifests, the job server's
/// markers and the shards' descriptors all go through it.  The raw
/// [`std::io::Error`] is kept so callers can classify by kind (ENOSPC).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::rename(write_synced_temp(path, bytes)?, path)
}

/// The message of a structurally broken manifest.
pub fn malformed(msg: &str) -> String {
    format!("malformed manifest: {msg}")
}

/// `geometry <D> <B> <M>` line.
pub fn geometry_line(g: Geometry) -> String {
    format!("geometry {} {} {}\n", g.d, g.b, g.m)
}

/// Optional `generation <u64>` line; generation 0 (never saved) writes
/// nothing, which keeps pre-journal manifests byte-compatible.
pub fn generation_line(generation: u64) -> String {
    if generation > 0 {
        format!("generation {generation}\n")
    } else {
        String::new()
    }
}

/// Optional `parity <stripe_disks>` line, followed by `dead <id> ...`
/// when any disk was dead at snapshot time; a plain array writes nothing.
pub fn redundancy_lines(redundancy: Option<&RedundancyInfo>) -> String {
    let mut s = String::new();
    if let Some(red) = redundancy {
        s.push_str(&format!("parity {}\n", red.stripe_disks));
        if !red.dead.is_empty() {
            s.push_str("dead");
            for d in &red.dead {
                s.push_str(&format!(" {}", d.0));
            }
            s.push('\n');
        }
    }
    s
}

/// Refuse to resume a payload against a different array or input — the
/// checks every payload's `validate` shares.  A mismatch would produce
/// wrong output, not just different I/O.
pub fn validate_target(
    have_geometry: Geometry,
    have_records: u64,
    have_runs: usize,
    geometry: Geometry,
    records: u64,
) -> Result<(), SortError> {
    let (h, g) = (have_geometry, geometry);
    let refused = if h != g {
        format!(
            "manifest geometry (D={} B={} M={}) does not match array (D={} B={} M={})",
            h.d, h.b, h.m, g.d, g.b, g.m
        )
    } else if have_records != records {
        format!("manifest records {have_records} does not match input records {records}")
    } else if have_runs == 0 {
        "manifest holds no runs".into()
    } else {
        return Ok(());
    };
    Err(SortError::Checkpoint(refused))
}

/// Close a manifest body with its `checksum` line.
fn seal(mut body: String) -> String {
    body.push_str(&format!("checksum {:016x}\n", fnv1a64(body.as_bytes())));
    body
}

/// Verify the trailing `checksum` line and return the body above it.
fn unseal(text: &str) -> Result<&str, String> {
    let body_end = text
        .rfind("checksum ")
        .ok_or_else(|| malformed("missing checksum line"))?;
    let stored = text[body_end..]
        .trim()
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| malformed("unreadable checksum"))?;
    let computed = fnv1a64(&text.as_bytes()[..body_end]);
    if stored != computed {
        return Err(format!(
            "manifest checksum mismatch: stored {stored:016x}, computed {computed:016x} \
             (torn or corrupted manifest)"
        ));
    }
    Ok(&text[..body_end])
}

fn parse_ints<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String> {
    s.split_whitespace()
        .map(|w| w.parse::<T>().map_err(|_| malformed(&format!("bad integer `{w}`"))))
        .collect()
}

/// The body lines of a manifest (checksum already verified and cut off),
/// consumed front to back by [`Manifest::parse_body`].  Every error is
/// the finished checkpoint message.
#[derive(Debug)]
pub struct Lines<'a>(std::iter::Peekable<std::str::Lines<'a>>);

impl<'a> Lines<'a> {
    /// Consume the first line, which must be exactly `header`.
    pub fn take_header(&mut self, header: &str) -> Result<(), String> {
        if self.0.next() != Some(header) {
            return Err(malformed("unknown header or version"));
        }
        Ok(())
    }

    /// Consume the next line, which must be `<name> <value>`, and return
    /// the value.
    pub fn take_field(&mut self, name: &str) -> Result<&'a str, String> {
        let line = self.0.next().ok_or_else(|| malformed("truncated"))?;
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| malformed(&format!("expected `{name}` line, got `{line}`")))
    }

    /// [`Self::take_field`] parsed as one number; `what` names the field
    /// in the error.
    pub fn take_num<T: std::str::FromStr>(&mut self, name: &str, what: &str) -> Result<T, String> {
        self.take_field(name)?.parse().map_err(|_| malformed(what))
    }

    /// [`Self::take_field`] parsed as whitespace-separated integers.
    pub fn take_ints<T: std::str::FromStr>(&mut self, name: &str) -> Result<Vec<T>, String> {
        parse_ints(self.take_field(name)?)
    }

    fn next_is(&mut self, name: &str) -> bool {
        self.0
            .peek()
            .is_some_and(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ')))
    }

    /// The `geometry <D> <B> <M>` line.
    pub fn take_geometry(&mut self) -> Result<Geometry, String> {
        let geo: Vec<usize> = self.take_ints("geometry")?;
        if geo.len() != 3 {
            return Err(malformed("geometry needs three fields"));
        }
        Geometry::new(geo[0], geo[1], geo[2]).map_err(|e| format!("manifest geometry invalid: {e}"))
    }

    /// The optional `generation` line; manifests from before journaled
    /// saves carry none and read as generation 0.
    pub fn take_generation(&mut self) -> Result<u64, String> {
        if self.next_is("generation") {
            self.take_num("generation", "generation")
        } else {
            Ok(0)
        }
    }

    /// The optional redundancy lines, present only for snapshots taken
    /// under parity.  `dead` without `parity` is malformed (the next
    /// field's `expected` error reports it).
    pub fn take_redundancy(&mut self, geometry: Geometry) -> Result<Option<RedundancyInfo>, String> {
        if !self.next_is("parity") {
            return Ok(None);
        }
        let stripe_disks: usize = self.take_num("parity", "parity stripe width")?;
        if stripe_disks != geometry.d {
            return Err(malformed("parity stripe width does not match geometry"));
        }
        let mut dead = Vec::new();
        if self.next_is("dead") {
            let ids: Vec<u32> = self.take_ints("dead")?;
            if ids.iter().any(|&i| i as usize >= geometry.d) {
                return Err(malformed("dead disk id out of range for geometry"));
            }
            dead = ids.into_iter().map(DiskId).collect();
        }
        Ok(Some(RedundancyInfo { stripe_disks, dead }))
    }

    /// The `runs <count>` line and its `count` `run ...` lines, each
    /// decoded from its integer fields by `run`.
    pub fn take_runs<T>(
        &mut self,
        mut run: impl FnMut(&[u64]) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let count: usize = self.take_num("runs", "runs count")?;
        // Cap the pre-allocation: `count` is attacker-ish input (a corrupt
        // or hostile manifest) and should not drive an unbounded reserve.
        let mut runs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            runs.push(run(&self.take_ints::<u64>("run")?)?);
        }
        Ok(runs)
    }
}

/// A checkpoint payload kept in the journaled store.
///
/// Implementors supply their generation and redundancy fields and the
/// body text in their own field order; the provided methods are the
/// envelope, the journal and recovery.  Every failure is a
/// [`SortError::Checkpoint`] (or the crash clock's `Disk(Crashed)`).
pub trait Manifest: Sized {
    /// Monotonic save counter (0 until first saved), stamped by
    /// [`Self::save`]: each save writes one past the newest valid
    /// generation on disk, and recovery picks the valid candidate with
    /// the largest value.
    fn generation(&self) -> u64;

    /// Stamp the save counter.
    fn set_generation(&mut self, generation: u64);

    /// Redundancy geometry the snapshot was taken under: `None` for a
    /// plain array, `Some` when the array carried rotating parity (with
    /// the set of disks already dead at snapshot time).
    fn redundancy(&self) -> Option<&RedundancyInfo>;

    /// The manifest text above the checksum line.
    fn encode_body(&self) -> String;

    /// Parse what [`Self::encode_body`] wrote.  The error is the finished
    /// checkpoint message.
    fn parse_body(lines: &mut Lines<'_>) -> Result<Self, String>;

    /// Serialize to the manifest text format, checksum line included.
    fn encode(&self) -> String {
        seal(self.encode_body())
    }

    /// Parse manifest text, verifying the trailing checksum.
    fn parse(text: &str) -> Result<Self, SortError> {
        let body = unseal(text).map_err(SortError::Checkpoint)?;
        let mut lines = Lines(body.lines().peekable());
        let manifest = Self::parse_body(&mut lines).map_err(SortError::Checkpoint)?;
        if lines.0.next().is_some() {
            return Err(SortError::Checkpoint(malformed("trailing data after runs")));
        }
        Ok(manifest)
    }

    /// Refuse to resume on an array whose redundancy state doesn't cover
    /// the manifest's.  A manifest written under parity addresses blocks
    /// through the rotating-parity remap, and blocks written while a disk
    /// was dead exist *only* as parity — so the resuming array must have
    /// the same stripe width and must already treat every manifest-dead
    /// disk as dead (extra deaths discovered since the snapshot are fine;
    /// they just mean more reconstruction).
    fn validate_redundancy(&self, current: Option<&RedundancyInfo>) -> Result<(), SortError> {
        let refused = match (self.redundancy(), current) {
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
        Err(SortError::Checkpoint(refused))
    }

    /// Write journaled and atomic.  The previous valid manifest at
    /// `path` is first rotated to `<path>.prev`; the new manifest is
    /// then serialized to `<path>.tmp`, fsynced, and renamed over
    /// `path`, stamped with a generation one past the newest valid
    /// generation already on disk.  A crash at any point leaves at
    /// least one valid manifest for [`Self::load_latest`] to pick up.
    fn save(&mut self, path: &Path) -> Result<(), SortError> {
        self.save_clocked(path, None)
    }

    /// [`Self::save`] with an extra crash boundary, `manifest-sync`,
    /// ticked between the temp file's fsync and the publishing rename.
    /// A crash there models fsyncgate's worst case: the barrier ran
    /// (or failed) but the new generation was never published, so
    /// recovery must come up from the rotated `.prev` generation.  The
    /// rotation below happens *before* the temp write precisely so
    /// that fallback always exists.
    fn save_clocked(&mut self, path: &Path, clock: Option<&CrashClock>) -> Result<(), SortError> {
        let ckpt = |e: std::io::Error| {
            SortError::Checkpoint(format!("cannot write manifest {}: {e}", path.display()))
        };
        let prev = manifest_sibling(path, "prev");
        let current = Self::load(path).ok();
        let journaled = Self::load(&prev).ok();
        let newest = current.iter().chain(&journaled).map(|m| m.generation()).max();
        self.set_generation(newest.map_or(1, |g| g + 1));
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
    fn load(path: &Path) -> Result<Self, SortError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            SortError::Checkpoint(format!("cannot read manifest {}: {e}", path.display()))
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
    fn load_latest(path: &Path) -> Result<Option<Self>, SortError> {
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
                Ok(m) if best.as_ref().is_none_or(|b| m.generation() > b.generation()) => {
                    best = Some(m);
                }
                Ok(_) => {}
                Err(e) => last_err = Some(e),
            }
        }
        match (best, existed, last_err) {
            (Some(m), _, _) => Ok(Some(m)),
            (None, 0, _) => Ok(None),
            (None, _, Some(e)) => Err(SortError::Checkpoint(format!(
                "every manifest candidate for {} is corrupt (last error: {e})",
                path.display()
            ))),
            (None, _, None) => Err(SortError::Checkpoint(format!(
                "every manifest candidate for {} is unreadable",
                path.display()
            ))),
        }
    }

    /// Delete a completed sort's manifest, including its `.prev` journal
    /// sibling and any orphaned `.tmp`; missing files are fine (the sort
    /// may never have checkpointed).
    fn remove(path: &Path) -> Result<(), SortError> {
        for p in [
            path.to_path_buf(),
            manifest_sibling(path, "prev"),
            manifest_sibling(path, "tmp"),
        ] {
            match std::fs::remove_file(&p) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(SortError::Checkpoint(format!(
                        "cannot remove manifest {}: {e}",
                        p.display()
                    )))
                }
            }
        }
        Ok(())
    }
}
