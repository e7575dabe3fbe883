//! Property tests for the `key=value` JobSpec encoding shared by the
//! wire protocol (`SUBMIT key=value ...`) and the durable per-job spec
//! file: every spec the strategy can produce round-trips
//! `encode → decode` exactly, and malformed input is refused with a
//! typed error, never a panic or a silently defaulted field.

use proptest::collection::vec;
use proptest::prelude::*;
use srm_core::{Placement, RunFormation};
use srm_server::{EngineKind, JobError, JobSpec};

/// Every JobSpec the encoding can represent.  Formation fractions are
/// pinned to the canonical 0.5 the wire format implies — `load` carries
/// no fraction on the wire — and `None`, the sorter's choice, is a spec
/// without the key.
fn arb_spec() -> impl Strategy<Value = JobSpec> {
    let engine = prop_oneof![Just(EngineKind::Srm), Just(EngineKind::Dsm)];
    let placement = prop_oneof![Just(Placement::Random), Just(Placement::Staggered)];
    let formation = proptest::option::of(prop_oneof![
        Just(RunFormation::MemoryLoad { fraction: 0.5 }),
        Just(RunFormation::ReplacementSelection),
    ]);
    (
        (engine, placement, formation),
        (1u64..1_000_000_000, any::<u64>()),
        (1usize..64, 1usize..256, 1usize..100_000),
        (any::<bool>(), 0usize..16, proptest::option::of(1u64..1_000_000)),
        // Any f64 in [0, 1) round-trips through Display/parse, but a
        // strategy over raw f64 bits mostly makes denormal noise; a
        // rational grid walks the same code path legibly.
        (0u32..1000, any::<u64>()),
    )
        .prop_map(
            |(
                (engine, placement, formation),
                (records, seed),
                (d, b, m),
                (pipeline, read_ahead, deadline_ms),
                (fr, fault_seed),
            )| JobSpec {
                engine,
                records,
                seed,
                d,
                b,
                m,
                placement,
                formation,
                pipeline,
                read_ahead,
                deadline_ms,
                fault_rate: f64::from(fr) / 1000.0,
                fault_seed,
            },
        )
}

/// Strings over an alphabet that parses as none of the value domains
/// (no digits, no `:`; `true`/`false`/engine/placement/formation names
/// are excluded case-by-case at the use site).
fn junk_value() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzQXZ?!@#";
    vec(0usize..ALPHABET.len(), 1..12)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i] as char).collect())
}

/// Identifier-shaped words: `[a-z][a-z0-9-]{0,15}`.
fn identifier() -> impl Strategy<Value = String> {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    (0usize..FIRST.len(), vec(0usize..REST.len(), 0..16)).prop_map(|(f, rest)| {
        let mut s = String::new();
        s.push(FIRST[f] as char);
        s.extend(rest.into_iter().map(|i| REST[i] as char));
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The durable-file direction: multi-line `k=v` text.
    #[test]
    fn spec_roundtrips_through_disk_encoding(spec in arb_spec()) {
        let decoded = JobSpec::decode(&spec.encode()).expect("decode own encoding");
        prop_assert_eq!(decoded, spec);
    }

    /// The wire direction: the same pairs as SUBMIT tokens.
    #[test]
    fn spec_roundtrips_through_wire_pairs(spec in arb_spec()) {
        let pairs = spec.to_pairs();
        let borrowed: Vec<(&str, &str)> =
            pairs.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let decoded = JobSpec::from_pairs(borrowed).expect("decode own pairs");
        prop_assert_eq!(decoded, spec);
    }

    /// Any single-key line with a value that fails to parse must come
    /// back as a typed Config error naming the key — not a panic, not
    /// a default.
    #[test]
    fn malformed_values_are_typed_errors(
        key in prop_oneof![
            Just("records"), Just("seed"), Just("d"), Just("b"), Just("m"),
            Just("engine"), Just("placement"), Just("formation"),
            Just("pipeline"), Just("deadline-ms"), Just("fault-rate"),
            Just("fault-seed"),
        ],
        junk in junk_value(),
    ) {
        prop_assume!(!matches!(
            (key, junk.as_str()),
            ("engine", "srm" | "dsm")
                | ("placement", "random" | "staggered")
                | ("formation", "load" | "rs")
                | ("pipeline", "true" | "false")
        ));
        // f64 parsing accepts `inf`/`nan` spellings; those are not
        // malformed for fault-rate (they fail later, in validate()).
        prop_assume!(key != "fault-rate" || junk.parse::<f64>().is_err());
        let line = format!("{key}={junk}");
        match JobSpec::decode(&line) {
            Err(JobError::Config(msg)) => {
                prop_assert!(msg.contains(key), "error must blame `{}`: {}", key, msg);
            }
            other => prop_assert!(false, "expected Config error for `{}`, got {:?}", line, other),
        }
    }

    /// Unknown keys and lines without `=` are refused, whatever the
    /// identifier looks like.
    #[test]
    fn unknown_keys_and_bare_lines_are_refused(word in identifier()) {
        prop_assume!(!matches!(
            word.as_str(),
            "engine" | "algo" | "records" | "seed" | "d" | "b" | "m" | "placement"
                | "formation" | "pipeline" | "deadline-ms" | "fault-rate" | "fault-seed"
        ));
        // Unknown key with a value.
        match JobSpec::decode(&format!("{word}=1")) {
            Err(JobError::Config(msg)) => prop_assert!(msg.contains(&word)),
            other => prop_assert!(false, "unknown key must be refused, got {:?}", other),
        }
        // No `=` at all: an Io error quoting the line.
        match JobSpec::decode(&word) {
            Err(JobError::Io(msg)) => prop_assert!(msg.contains(&word)),
            other => prop_assert!(false, "bare line must be refused, got {:?}", other),
        }
    }
}
