//! The one-scan check of a sort (`check_sorted`): the output is the
//! input sorted exactly when it ascends, has the input's count and the
//! input's multiset fingerprint.  Every corruption planted on a sorted
//! output here is refused by it, and each one also moves the digest off
//! `expected_digest`, the re-sorting oracle the check replaces; every
//! uncorrupted output passes with `expected_digest`'s digest.

use pdisk::U64Record;
use proptest::collection::vec;
use proptest::prelude::*;
use srm_server::{check_sorted, digest_keys, expected_digest, fingerprint, JobError, JobSpec};

const B: usize = 8;

fn spec() -> JobSpec {
    JobSpec { records: 5_000, seed: 0x5EED_5CA4, ..JobSpec::default() }
}

fn sorted(spec: &JobSpec) -> Vec<U64Record> {
    let mut out = spec.input_records();
    out.sort_unstable();
    out
}

/// `planted` is refused by the check, with `want` in its message, and
/// its digest is not the spec's.
fn refused(planted: &[U64Record], want: &str) {
    let spec = spec();
    match check_sorted(&spec.input_records(), planted, B) {
        Err(JobError::Engine(m)) => assert!(m.contains(want), "{want}: {m}"),
        other => panic!("{want}: the check passed or failed untyped: {other:?}"),
    }
    assert_ne!(digest_keys(planted.iter().map(|r| r.0)), expected_digest(&spec), "{want}");
}

#[test]
fn the_uncorrupted_output_passes_with_the_oracles_digest() {
    let spec = spec();
    assert_eq!(check_sorted(&spec.input_records(), &sorted(&spec), B).unwrap(), expected_digest(&spec));
}

#[test]
fn a_substituted_key_is_refused() {
    let mut out = sorted(&spec());
    // A value between its neighbours keeps the order: only the multiset
    // can tell.
    out[100] = U64Record(out[99].0 + (out[100].0 - out[99].0) / 2);
    assert_ne!(out[100], sorted(&spec())[100]);
    refused(&out, "not a permutation");
    // The neighbour's value: sorted, same count, one key twice.
    let mut out = sorted(&spec());
    out[100] = out[101];
    refused(&out, "not a permutation");
}

#[test]
fn a_dropped_and_a_duplicated_record_are_refused() {
    let mut out = sorted(&spec());
    out.remove(1234);
    let dup = out[4000];
    out.insert(4000, dup);
    assert!(out.windows(2).all(|w| w[0] <= w[1]), "the order is kept");
    refused(&out, "not a permutation");
}

#[test]
fn a_flipped_bit_is_refused() {
    // A low bit keeps the order here; a high one breaks it.
    for (i, bit) in [(2500, 0), (2500, 63), (0, 62), (4999, 1)] {
        let mut out = sorted(&spec());
        out[i] = U64Record(out[i].0 ^ (1 << bit));
        let ascends = out.windows(2).all(|w| w[0] <= w[1]);
        refused(&out, if ascends { "not a permutation" } else { "below its predecessor" });
    }
}

#[test]
fn two_swapped_records_are_refused_where_the_order_breaks() {
    let mut out = sorted(&spec());
    out.swap(17, 3001);
    // The fold stops at the first key below its predecessor: the one
    // after the swapped-in large key.
    refused(&out, &format!("in block {} is below", 18 / B));
}

#[test]
fn a_truncated_tail_is_refused() {
    let mut out = sorted(&spec());
    out.truncate(out.len() - B);
    refused(&out, "4992 records");
}

proptest! {
    /// Any job's input, sorted, passes the check with the digest the
    /// re-sorting oracle predicts.
    #[test]
    fn any_sorted_input_passes_with_the_expected_digest(records in 0u64..3_000, seed in any::<u64>(), b in 1usize..40) {
        let spec = JobSpec { records, seed, ..JobSpec::default() };
        prop_assert_eq!(check_sorted(&spec.input_records(), &sorted(&spec), b).unwrap(), expected_digest(&spec));
    }

    /// So does any multiset, duplicate-heavy ones included, against the
    /// digest of its sort; and the fingerprint ignores the order.
    #[test]
    fn any_multiset_sorted_passes(keys in vec(0u64..16, 0..400), b in 1usize..9) {
        let input: Vec<U64Record> = keys.iter().copied().map(U64Record).collect();
        let mut out = input.clone();
        out.sort_unstable();
        prop_assert_eq!(check_sorted(&input, &out, b).unwrap(), digest_keys(out.iter().map(|r| r.0)));
        prop_assert_eq!(fingerprint(keys.iter().copied()), fingerprint(out.iter().map(|r| r.0)));
    }
}
