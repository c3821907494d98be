//! Property tests for the decision-journal NDJSON wire format over
//! *arbitrary* generated events — not just events captured from live
//! runs, which only ever exercise the value shapes the data plane
//! produces. The properties pin:
//!
//! * exact round-trip: `parse_event(write_event(ev)) == ev` for every
//!   variant, including adversarial bit-pattern floats (shortest-form
//!   `{:?}` printing must round-trip f64 exactly);
//! * canonical serialization: re-writing a parsed event reproduces the
//!   original line byte-for-byte (the NDJSON form is a function of the
//!   event, with no formatting drift);
//! * whole-document round-trip through `parse_ndjson`;
//! * strictness: an integer field that is not a plain digit run, or a
//!   key that appears twice, fails the line and names the field.

use proptest::prelude::*;

use telemetry::journal::{parse_event, parse_ndjson, write_event};
use telemetry::{JournalEvent, WeightCause};

/// Interned health-state wire names (the parser only accepts these).
const STATES: [&str; 4] = ["healthy", "suspect", "ejected", "probation"];
/// Interned transition-trigger wire names.
const TRIGGERS: [&str; 5] = [
    "silence",
    "abort_burst",
    "probe_silent",
    "probation_timeout",
    "samples_returned",
];

/// A finite f64 from an arbitrary bit pattern: adversarial mantissas,
/// subnormals, negative zero — everything except NaN/inf, which the
/// flat-JSON number lexer rejects by design (they never occur in
/// journaled values).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        f64::from_bits(bits & 0x000f_ffff_ffff_ffff) // clear exponent → subnormal
    }
}

/// A vector of adversarial finite floats.
fn float_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u64..u64::MAX, 0..6)
        .prop_map(|bits| bits.into_iter().map(finite).collect())
}

/// One arbitrary event of any of the 8 variants, via an integer
/// selector (the vendored proptest stub has no `prop_oneof!`).
fn journal_event() -> impl Strategy<Value = JournalEvent> {
    (
        0u8..8,
        0u64..u64::MAX,                   // at
        0usize..64,                       // backend-ish index
        (0u64..u64::MAX, 0u64..u64::MAX), // generic u64 payloads
        float_vec(),
        (
            proptest::collection::vec(0u64..1 << 20, 0..5),
            0u64..u64::MAX, // float bits / selector payload
        ),
    )
        .prop_map(|(sel, at, idx, (a, b), floats, (small_vec, fbits))| {
            let f = finite(fbits);
            match sel {
                0 => JournalEvent::Sample {
                    at,
                    backend: idx,
                    src_ip: a as u32,
                    src_port: b as u16,
                    delta: a,
                    t_lb: b,
                },
                1 => JournalEvent::EpochDecision {
                    at,
                    backend: idx,
                    chosen: idx % small_vec.len().max(1),
                    delta: a,
                    counts: small_vec,
                },
                2 => JournalEvent::WeightUpdate {
                    at,
                    cause: match a % 4 {
                        0 => WeightCause::Init,
                        1 => WeightCause::Controller,
                        2 => WeightCause::Gossip,
                        _ => WeightCause::Health,
                    },
                    victim: if b % 2 == 0 { Some(idx) } else { None },
                    moved: f.abs(),
                    weights: floats,
                },
                3 => JournalEvent::HealthTransition {
                    at,
                    backend: idx,
                    from: STATES[(a % 4) as usize],
                    to: STATES[(b % 4) as usize],
                    trigger: TRIGGERS[(a % 5) as usize],
                },
                4 => JournalEvent::GossipMerge {
                    at,
                    mix: f,
                    before: floats.clone(),
                    after: floats,
                },
                5 => JournalEvent::FlowRepin {
                    at,
                    src_ip: a as u32,
                    src_port: b as u16,
                    from: idx,
                    to: idx.wrapping_add(1) % 64,
                },
                6 => JournalEvent::NoBackend { at },
                _ => JournalEvent::ShardRemap {
                    at,
                    dst: a as u32,
                    before: small_vec.clone(),
                    after: small_vec,
                },
            }
        })
}

proptest! {
    /// write → parse is the identity on arbitrary events.
    #[test]
    fn write_parse_round_trips_any_event(ev in journal_event()) {
        let mut line = String::new();
        write_event(&mut line, &ev);
        let back = parse_event(&line)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(format!("{e}\n{line}")))?;
        prop_assert_eq!(&back, &ev, "line: {}", line);
    }

    /// parse → write reproduces the original bytes: the serialization is
    /// canonical, so captures diffed across runs can't drift on
    /// formatting (float shortest-form included).
    #[test]
    fn serialization_is_canonical(ev in journal_event()) {
        let mut first = String::new();
        write_event(&mut first, &ev);
        let back = parse_event(&first)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(format!("{e}\n{first}")))?;
        let mut second = String::new();
        write_event(&mut second, &back);
        prop_assert_eq!(&second, &first);
    }

    /// Whole documents survive the NDJSON round trip, including blank
    /// interior lines.
    #[test]
    fn ndjson_document_round_trips(
        evs in proptest::collection::vec(journal_event(), 0..12),
        blank_every in 2usize..5,
    ) {
        let mut doc = String::new();
        for (i, ev) in evs.iter().enumerate() {
            if i % blank_every == 0 {
                doc.push('\n'); // parse_ndjson skips blank lines
            }
            write_event(&mut doc, ev);
            doc.push('\n');
        }
        let back = parse_ndjson(&doc)
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(back, evs);
    }

    /// The negative side: whatever the event, a timestamp that is signed,
    /// fractional, in exponent form or present twice is an error naming
    /// `"at"` — never a value coerced through f64.
    #[test]
    fn a_timestamp_that_is_not_one_digit_run_is_rejected(
        ev in journal_event(),
        shape in 0u8..5,
    ) {
        let mut line = String::new();
        write_event(&mut line, &ev);
        let at = ev.at();
        let good = format!("{{\"at\":{at},");
        let bad = match shape {
            0 => format!("{{\"at\":-{at},"),
            1 => format!("{{\"at\":+{at},"),
            2 => format!("{{\"at\":{at}.0,"),
            3 => format!("{{\"at\":{at}e0,"),
            _ => format!("{good}\"at\":{at},"),
        };
        prop_assert!(line.starts_with(&good), "line: {}", line);
        let line = line.replacen(&good, &bad, 1);
        match parse_event(&line) {
            Ok(ev) => prop_assert!(false, "accepted {} as {:?}", line, ev),
            Err(e) => prop_assert!(e.contains("\"at\""), "{}: {}", line, e),
        }
    }
}

/// Hand-picked float edge cases the random sweep might miss: the exact
/// values whose shortest-form printing is historically fragile.
#[test]
fn float_shortest_form_edges_round_trip() {
    let edges: [f64; 10] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE, // smallest normal
        f64::from_bits(1), // smallest subnormal
        f64::MAX,
        f64::MIN,
        0.1, // classic non-dyadic
        1.0 / 3.0,
        1e-308,
        9007199254740993.0_f64, // 2^53 + 1: not exactly representable
    ];
    for &v in &edges {
        let ev = JournalEvent::GossipMerge {
            at: 1,
            mix: v,
            before: vec![v],
            after: vec![v, v],
        };
        let mut line = String::new();
        write_event(&mut line, &ev);
        let back = parse_event(&line).unwrap_or_else(|e| panic!("{v:?}: {e}\n{line}"));
        assert_eq!(back, ev, "value {v:?} line {line}");
    }
}
