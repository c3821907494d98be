//! Property tests for the decision journal over *arbitrary* generated
//! events — not just events captured from live runs, which only ever
//! exercise the value shapes the data plane produces. The properties pin:
//!
//! * exact NDJSON round-trip: parsing a written event gives it back, for
//!   every variant, including adversarial bit-pattern floats
//!   (shortest-form `{:?}` printing must round-trip f64 exactly);
//! * canonical serialization: re-writing a parsed event reproduces the
//!   original line byte-for-byte (the NDJSON form is a function of the
//!   event, with no formatting drift);
//! * whole-document round-trip through `parse_ndjson`;
//! * strictness: an integer field that is not a plain digit run, or a
//!   key that appears twice, fails the line and names the field;
//! * the packed store is observably the `Vec<JournalEvent>` it replaced:
//!   every float bit pattern (`-0.0`, NaN payloads, infinities) survives,
//!   the cap counts drops, and a drained journal encodes afresh.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use telemetry::journal::parse_ndjson;
use telemetry::log::{Codec, Field};
use telemetry::{Journal, JournalEvent, JournalMode, Record, WeightCause};

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

/// Float bit patterns a codec is most likely to get wrong: negative
/// zero, NaNs with payloads (quiet, signalling, negative), both
/// infinities and the smallest subnormal.
const EDGE_BITS: [u64; 7] = [
    0x8000_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0x7ff0_0000_0000_0001,
    0xfff8_dead_beef_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    1,
];

/// Float bits: an edge pattern half the time, otherwise any.
fn float_bits() -> impl Strategy<Value = u64> {
    (0usize..14, any::<u64>()).prop_map(|(sel, r)| EDGE_BITS.get(sel).copied().unwrap_or(r))
}

/// A finite f64 from an arbitrary bit pattern: adversarial mantissas,
/// subnormals, negative zero — everything except NaN/inf, which the
/// NDJSON number lexer rejects by design (the writer never emits them).
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        f64::from_bits(bits & 0x000f_ffff_ffff_ffff) // clear exponent → subnormal
    }
}

/// One arbitrary event of any of the 8 variants, via an integer
/// selector (the vendored proptest stub has no `prop_oneof!`); `float`
/// turns generated bit patterns into the event's floats.
fn journal_event(float: fn(u64) -> f64) -> impl Strategy<Value = JournalEvent> {
    (
        0u8..8,
        0u64..u64::MAX,                   // at
        0usize..64,                       // backend-ish index
        (0u64..u64::MAX, 0u64..u64::MAX), // generic u64 payloads
        proptest::collection::vec(float_bits(), 0..6),
        (
            proptest::collection::vec(0u64..1 << 20, 0..5),
            float_bits(), // float bits / selector payload
        ),
    )
        .prop_map(move |(sel, at, idx, (a, b), bits, (small_vec, fbits))| {
            let f = float(fbits);
            let floats: Vec<f64> = bits.into_iter().map(float).collect();
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
                    cause: WeightCause::ALL[(a % 4) as usize],
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
                4 => JournalEvent::GossipMerge { at, mix: f },
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

fn line(ev: &JournalEvent) -> String {
    let mut out = String::new();
    ev.clone().write_json(&mut out);
    out
}

/// Every field of an event as words, floats by their bits: equal words
/// are bitwise-equal events where `==` cannot say so (NaN).
struct Words(Vec<u64>);

impl Codec for Words {
    fn field(&mut self, _: &'static str, f: Field<'_>) -> Result<(), String> {
        match f {
            Field::Time(v) | Field::Flagged(v) | Field::Hash(v) => self.0.push(*v),
            Field::Kind(v, _) | Field::Label(v, _) | Field::Int(v) | Field::Sticky(v) => {
                self.0.push(v.get())
            }
            Field::Float(v) => self.0.push(v.to_bits()),
            Field::Opt(v) => self.0.extend([v.is_some().into(), v.unwrap_or(0) as u64]),
            Field::Ints(vs) => self.0.extend([vs.len() as u64].iter().chain(vs.iter())),
            Field::Floats(vs) => {
                self.0.push(vs.len() as u64);
                self.0.extend(vs.iter().map(|v| v.to_bits()));
            }
        }
        Ok(())
    }
}

/// Bitwise event equality: the same variant and fields (`Debug` names
/// them all) with the same float bits.
fn same(a: &[JournalEvent], b: &[JournalEvent]) -> bool {
    let words = |ev: &JournalEvent| {
        let mut w = Words(Vec::new());
        ev.clone().walk(&mut w).map(|_| w.0)
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| format!("{x:?}") == format!("{y:?}") && words(x) == words(y))
}

/// One step of a journal workout: drain it, or push an event.
#[derive(Debug, Clone)]
enum Step {
    Take,
    Push(JournalEvent),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..10, journal_event(f64::from_bits)).prop_map(|(take, ev)| {
            if take == 0 {
                Step::Take
            } else {
                Step::Push(ev)
            }
        }),
        1..60,
    )
}

proptest! {
    /// write → parse is the identity on arbitrary events.
    #[test]
    fn write_parse_round_trips_any_event(ev in journal_event(finite)) {
        let line = line(&ev);
        let back = JournalEvent::parse_json(&line)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{line}")))?;
        prop_assert_eq!(&back, &ev, "line: {}", line);
    }

    /// parse → write reproduces the original bytes: the serialization is
    /// canonical, so captures diffed across runs can't drift on
    /// formatting (float shortest-form included).
    #[test]
    fn serialization_is_canonical(ev in journal_event(finite)) {
        let first = line(&ev);
        let back = JournalEvent::parse_json(&first)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{first}")))?;
        prop_assert_eq!(&line(&back), &first);
    }

    /// Whole documents survive the NDJSON round trip, including blank
    /// interior lines.
    #[test]
    fn ndjson_document_round_trips(
        evs in proptest::collection::vec(journal_event(finite), 0..12),
        blank_every in 2usize..5,
    ) {
        let mut doc = String::new();
        for (i, ev) in evs.iter().enumerate() {
            if i % blank_every == 0 {
                doc.push('\n'); // parse_ndjson skips blank lines
            }
            doc.push_str(&line(ev));
            doc.push('\n');
        }
        let back: Vec<JournalEvent> = parse_ndjson(&doc).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, evs);
    }

    /// The negative side: whatever the event, a timestamp that is signed,
    /// fractional, in exponent form or present twice is an error naming
    /// `"at"` — never a value coerced through f64.
    #[test]
    fn a_timestamp_that_is_not_one_digit_run_is_rejected(
        ev in journal_event(finite),
        shape in 0u8..5,
    ) {
        let line = line(&ev);
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
        match JournalEvent::parse_json(&line) {
            Ok(ev) => prop_assert!(false, "accepted {} as {:?}", line, ev),
            Err(e) => prop_assert!(e.contains("\"at\""), "{}: {}", line, e),
        }
    }

    /// The packed journal against a plain-vector model: push while under
    /// the cap, count a drop otherwise, `take` = `mem::take`. Compared
    /// bit for bit after every step; a drained journal is refilled and
    /// must encode against a reset predictor, not the last batch's tail.
    #[test]
    fn packed_journal_matches_the_vector_model(steps in steps(), cap in 0usize..50) {
        let mut j = Journal::new(JournalMode::Full(cap));
        let mut model: Vec<JournalEvent> = Vec::new();
        let mut dropped = 0u64;
        for s in &steps {
            match s {
                Step::Take => {
                    let taken = j.take();
                    prop_assert!(same(&taken, &std::mem::take(&mut model)));
                    prop_assert_eq!(j.retained_bytes(), 0);
                }
                Step::Push(ev) => {
                    j.push(ev.clone());
                    if model.len() < cap {
                        model.push(ev.clone());
                    } else {
                        dropped += 1;
                    }
                }
            }
            prop_assert_eq!(j.len(), model.len());
            prop_assert_eq!(j.is_empty(), model.is_empty());
            prop_assert_eq!(j.overflow(), dropped);
            prop_assert!(same(&j.iter().collect::<Vec<_>>(), &model));
            prop_assert!(j.retained_bytes() >= 2 * model.len());
        }
        let bytes = j.retained_bytes();
        prop_assert!(same(&j.take(), &model));
        for ev in &model {
            j.push(ev.clone());
        }
        prop_assert_eq!(j.retained_bytes(), bytes);
        prop_assert!(same(&j.take(), &model));
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
        let ev = JournalEvent::WeightUpdate {
            at: 1,
            cause: WeightCause::Gossip,
            victim: None,
            moved: v,
            weights: vec![v, v],
        };
        let line = line(&ev);
        let back = JournalEvent::parse_json(&line).unwrap_or_else(|e| panic!("{v:?}: {e}\n{line}"));
        assert_eq!(back, ev, "value {v:?} line {line}");
    }
}
