//! The byte primitives behind every small durable file: the FNV-1a hash,
//! the `<path>.<suffix>` sibling naming, and the atomic publish (temp +
//! fsync + rename).  Block frames, parity sidecar slots, the slot-format
//! record, the job server's markers, the shards' descriptors and the
//! sort's checkpoint manifests (`srm_core::checkpoint`) are built on
//! them.

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
pub fn write_synced_temp(path: &Path, bytes: &[u8]) -> std::io::Result<PathBuf> {
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
