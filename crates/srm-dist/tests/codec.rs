//! The pipe codec a `--procs` child speaks: every message kind survives
//! `Envelope::encode` → `Envelope::decode` exactly, as one line, and a
//! line the codec did not write is a typed error.  A `SortDone` carries
//! the durable sort's `Descriptor`, whose text is also the `done` file's,
//! so its round-trip is the file's too.

use pdisk::{DiskId, StripedRun};
use proptest::collection::vec;
use proptest::prelude::*;
use srm_dist::{Carry, Descriptor, Disorder, DistError, Envelope, Msg, ShardMs};

/// A descriptor from eleven numbers, with a run or without one.
fn descriptor(with_run: bool, n: &[u64]) -> Descriptor {
    Descriptor {
        run: with_run.then(|| StripedRun {
            start_disk: DiskId(n[3] as u32 % 4),
            len_blocks: n[4],
            records: n[0],
            base_offsets: n[5..9].to_vec(),
        }),
        records: n[0],
        digest: n[1],
        passes: n[2],
        trace_events: n[3],
        repaired: n[5],
        ms: ShardMs { stage: n[7], sort: n[8], verify: n[9], check: n[10] },
    }
}

/// Every kind, from a kind selector, eleven numbers and a text.
fn msg(kind: u8, n: &[u64], text: String) -> Msg {
    let carry = Carry { digest: n[0], prev: n[1], records: n[2], fingerprint: n[3] };
    match kind {
        0 => Msg::Fold { carry },
        1 => Msg::Shutdown,
        2 => Msg::Heartbeat,
        3 => Msg::Pass { pass: n[0] },
        4 | 5 => Msg::SortDone { done: descriptor(kind == 4, n) },
        6 => Msg::Folded { fold: Ok(carry) },
        7 => Msg::Folded { fold: Err(Disorder { first: n[0], key: n[1], prev: n[2] }) },
        _ => Msg::Fatal { msg: text },
    }
}

proptest! {
    /// Every kind round-trips exactly, empty and run-carrying
    /// descriptors and `Fatal` texts with spaces, escapes, newlines and
    /// non-ASCII included, and every encoding is one line.
    #[test]
    fn every_kind_round_trips_as_one_line(
        kind in 0u8..9,
        n in vec(any::<u64>(), 11),
        text in vec(0usize..8, 0..24),
        head in (any::<u32>(), any::<u32>(), any::<u64>()),
    ) {
        let text: String = text.into_iter().map(|i| [' ', '\\', 'n', '\n', '\r', 'x', 'é', '0'][i]).collect();
        let env = Envelope { src: head.0, dst: head.1, epoch: head.2, msg: msg(kind, &n, text) };
        let line = env.encode();
        prop_assert!(line.ends_with('\n') && line.matches('\n').count() == 1, "{line:?}");
        prop_assert_eq!(Envelope::decode(&line).unwrap(), env.clone());
        prop_assert_eq!(Envelope::decode(line.trim_end_matches('\n')).unwrap(), env);
    }
}

/// A descriptor written before the phase timers reads them as zeros, and
/// a torn `ms` line, a line without `=` or an unknown key is an error,
/// never a plausible report.
#[test]
fn a_descriptor_without_timers_reads_zeros_and_a_torn_one_is_refused() {
    let done = Descriptor { records: 9, ms: ShardMs { stage: 37, sort: 201, verify: 31, check: 4 }, ..Descriptor::default() };
    let text = done.encode();
    let older: String = text.lines().filter(|l| !l.starts_with("ms=")).map(|l| format!("{l}\n")).collect();
    assert_eq!(Descriptor::parse(&older).unwrap().ms, ShardMs::default());
    for torn in [text.replace("ms=37 201 31 4", "ms=37 201"), text.replace("records=9", "records 9"), format!("{text}colour=blue\n")] {
        assert!(Descriptor::parse(&torn).is_err(), "{torn:?}");
    }
}

/// A line the codec did not write is a typed error: torn, truncated,
/// padded, unknown, or carrying the wrong field count.
#[test]
fn malformed_lines_are_typed_errors() {
    let done = Envelope { src: 1, dst: 4, epoch: 2, msg: msg(4, &[7; 11], String::new()) }.encode();
    let torn = &done[..done.len() / 2];
    for line in [
        "",
        "1",
        "1 4",
        "1 4 2",
        "x 4 2 Heartbeat",
        "1 4 -2 Heartbeat",
        "1 4 2 Heartbeat ",
        "1 4 2 Beat",
        "1 4 2 Pass",
        "1 4 2 Pass 1 2",
        "1 4 2 Pass x",
        "1 4 2 Fold 1 2",
        "1 4 2 Fold 1 2 3 4 5",
        "1 4 2 Folded 1 2 3",
        "1 4 2 Folded maybe 1 2 3",
        "1 4 2 Folded ok 1 2",
        "1 4 2 Folded ok 1 2 3 4 5",
        "1 4 2 Folded err 1 2 3 4",
        "1 4 2 Shutdown now",
        "1 4 2 SortDone",
        "1 4 2 SortDone records 7",
        "1 4 2 SortDone records=7",
        "1 4 2 Fatal bad\\escape",
        "1 4 2 Fatal trailing\\",
        torn,
    ] {
        match Envelope::decode(line) {
            Err(DistError::Net(m)) => assert!(m.contains("malformed message line"), "{line:?}: {m}"),
            other => panic!("{line:?} decoded as {other:?}"),
        }
    }
}

/// A `Fold` / `Folded` line carries the carry's fingerprint as its fourth
/// field.  A line from before it, with the three fields of digest, prev
/// and records, is refused as malformed — never read as a carry whose
/// fingerprint is some default — while a `Folded err` keeps its three.
#[test]
fn a_carry_without_its_fingerprint_is_refused() {
    let carry = Carry { digest: 0xcbf2_9ce4_8422_2325, prev: 41, records: 7, fingerprint: u64::MAX };
    for msg in [Msg::Fold { carry }, Msg::Folded { fold: Ok(carry) }] {
        let env = Envelope { src: 2, dst: 4, epoch: 1, msg };
        let line = env.encode();
        assert!(line.ends_with(" 14695981039346656037 41 7 18446744073709551615\n"), "{line:?}");
        assert_eq!(Envelope::decode(&line).unwrap(), env);
        let old = line.replace(" 18446744073709551615", "");
        match Envelope::decode(&old) {
            Err(DistError::Net(m)) => assert!(m.contains("malformed message line"), "{old:?}: {m}"),
            other => panic!("{old:?} decoded as {other:?}"),
        }
    }
    let disorder = Envelope { src: 2, dst: 4, epoch: 1, msg: Msg::Folded { fold: Err(Disorder { first: 3, key: 5, prev: 9 }) } };
    assert_eq!(disorder.encode(), "2 4 1 Folded err 3 5 9\n");
}
