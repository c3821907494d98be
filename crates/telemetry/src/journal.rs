//! Deterministic decision journal: a structured, sim-time-stamped event
//! stream recording *why* the load balancer acted — sample emissions,
//! ensemble epoch decisions, weight shifts, health transitions, gossip
//! merges, and flow re-pins.
//!
//! A [`Journal`] is a [`Log`] of [`JournalEvent`]s, kept packed (9.9
//! bytes an event on the Fig. 3 stream, nearly all of them samples) and
//! exported as NDJSON. Every variant's fields and
//! wire keys are listed once, in the event's [`Record::walk`], which all
//! four codecs walk.

// Fast-path module: a malformed input surfaces as a Result/Option,
// never a process abort (DESIGN.md §6.9, rule F1).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub use crate::log::{parse_ndjson, parse_ndjson_lossy};
use crate::log::{Codec, Field, Log, Mode, Record, Uint, AT};

/// What the journal retains.
pub type JournalMode = Mode;

/// The decision journal. Cloneable so experiment results can carry a copy.
pub type Journal = Log<JournalEvent>;

impl Journal {
    /// [`Log::dropped`], under the journal's name for it.
    pub fn overflow(&self) -> u64 {
        self.dropped()
    }
}

/// Why a weight vector was re-recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightCause {
    /// Initial weights at node start.
    Init,
    /// The in-band controller shifted weight.
    Controller,
    /// A gossip merge blended peer weights in.
    Gossip,
    /// The health tracker ejected/readmitted a backend (or lost all of
    /// them — the `no_backend` zero-weight record).
    Health,
}

/// Weight-cause wire names, in [`WeightCause::ALL`] order.
const CAUSES: [&str; 4] = ["init", "controller", "gossip", "health"];

impl WeightCause {
    /// Every cause, in wire order.
    pub const ALL: [WeightCause; 4] = [
        WeightCause::Init,
        WeightCause::Controller,
        WeightCause::Gossip,
        WeightCause::Health,
    ];

    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        CAUSES[*self as usize]
    }
}

/// One journal record. All timestamps (`at`) are simulation nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// An in-band T_LB sample was extracted from a flow.
    Sample {
        /// Sim time the sample was observed at the LB.
        at: u64,
        /// Backend the flow is pinned to.
        backend: usize,
        /// Client IPv4 (the VIP side is implicit).
        src_ip: u32,
        /// Client source port.
        src_port: u16,
        /// The ensemble member δ (ns) that produced the sample.
        delta: u64,
        /// The measured T_LB in nanoseconds.
        t_lb: u64,
    },
    /// An ensemble epoch closed and a δ was (re-)chosen.
    EpochDecision {
        /// Sim time of the epoch boundary.
        at: u64,
        /// Backend whose ensemble decided.
        backend: usize,
        /// Per-δ sample counts for the finished epoch.
        counts: Vec<u64>,
        /// Index of the chosen ensemble member.
        chosen: usize,
        /// δ (ns) of the chosen member.
        delta: u64,
    },
    /// The weight vector was recorded (start, controller shift, gossip
    /// merge, or health rebuild).
    WeightUpdate {
        /// Sim time of the update.
        at: u64,
        /// Which subsystem produced it.
        cause: WeightCause,
        /// Backend that lost the most weight, if any lost weight.
        victim: Option<usize>,
        /// Total weight mass moved off decreasing backends.
        moved: f64,
        /// The full post-update weight vector.
        weights: Vec<f64>,
    },
    /// A backend health state transition.
    HealthTransition {
        /// Sim time of the health epoch that fired the transition.
        at: u64,
        /// Backend index.
        backend: usize,
        /// State before (wire name, e.g. "healthy").
        from: &'static str,
        /// State after.
        to: &'static str,
        /// What fired it (wire name, e.g. "silence", "abort_burst").
        trigger: &'static str,
    },
    /// Peer weights were blended into the local vector (the
    /// `WeightUpdate` that follows holds the result).
    GossipMerge {
        /// Sim time of the merge.
        at: u64,
        /// Blend factor toward the peer mean.
        mix: f64,
    },
    /// An affinity-pinned flow was moved to a new backend.
    FlowRepin {
        /// Sim time of the re-pin.
        at: u64,
        /// Client IPv4.
        src_ip: u32,
        /// Client source port.
        src_port: u16,
        /// Previous backend.
        from: usize,
        /// New backend.
        to: usize,
    },
    /// Every backend is ejected; the node started dropping.
    NoBackend {
        /// Sim time the node entered the no-backend state.
        at: u64,
    },
}

/// Health-state wire names; parsed events hold these same strings.
const HEALTH_STATES: [&str; 4] = ["healthy", "suspect", "ejected", "probation"];
/// Health-transition trigger wire names.
const HEALTH_TRIGGERS: [&str; 5] = [
    "silence",
    "abort_burst",
    "probe_silent",
    "probation_timeout",
    "samples_returned",
];

// Wire keys that more than one variant carries, spelled once.
const BACKEND: &str = "backend";
const SRC_IP: &str = "src_ip";
const SRC_PORT: &str = "src_port";
const DELTA: &str = "delta";
const FROM: &str = "from";
const TO: &str = "to";

impl JournalEvent {
    /// Sim timestamp of the event.
    pub fn at(&self) -> u64 {
        match self {
            JournalEvent::Sample { at, .. }
            | JournalEvent::EpochDecision { at, .. }
            | JournalEvent::WeightUpdate { at, .. }
            | JournalEvent::HealthTransition { at, .. }
            | JournalEvent::GossipMerge { at, .. }
            | JournalEvent::FlowRepin { at, .. }
            | JournalEvent::NoBackend { at } => *at,
        }
    }

    /// Stable wire name of the event kind (the `"ev"` field).
    pub fn kind(&self) -> &'static str {
        Self::KINDS[usize::from(self.tag())]
    }

    /// The variant's packed tag, its index in [`Record::KINDS`].
    fn tag(&self) -> u8 {
        match self {
            JournalEvent::Sample { .. } => 0,
            JournalEvent::EpochDecision { .. } => 1,
            JournalEvent::WeightUpdate { .. } => 2,
            JournalEvent::HealthTransition { .. } => 3,
            JournalEvent::GossipMerge { .. } => 4,
            JournalEvent::FlowRepin { .. } => 5,
            JournalEvent::NoBackend { .. } => 6,
        }
    }
}

impl Record for JournalEvent {
    const KIND_KEY: &'static str = "ev";
    /// The `"ev"` wire name of each variant, indexed by its packed tag.
    const KINDS: &'static [&'static str] = &[
        "sample",
        "epoch_decision",
        "weight_update",
        "health",
        "gossip_merge",
        "flow_repin",
        "no_backend",
    ];

    fn blank(tag: u8) -> Option<JournalEvent> {
        Some(match tag {
            0 => JournalEvent::Sample {
                at: 0,
                backend: 0,
                src_ip: 0,
                src_port: 0,
                delta: 0,
                t_lb: 0,
            },
            1 => JournalEvent::EpochDecision {
                at: 0,
                backend: 0,
                counts: Vec::new(),
                chosen: 0,
                delta: 0,
            },
            2 => JournalEvent::WeightUpdate {
                at: 0,
                cause: WeightCause::Init,
                victim: None,
                moved: 0.0,
                weights: Vec::new(),
            },
            3 => JournalEvent::HealthTransition {
                at: 0,
                backend: 0,
                from: "",
                to: "",
                trigger: "",
            },
            4 => JournalEvent::GossipMerge { at: 0, mix: 0.0 },
            5 => JournalEvent::FlowRepin {
                at: 0,
                src_ip: 0,
                src_port: 0,
                from: 0,
                to: 0,
            },
            6 => JournalEvent::NoBackend { at: 0 },
            _ => return None,
        })
    }

    /// The journal's schema. (Forced inline: see the packed encoder.)
    #[inline(always)]
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        let tag = self.tag();
        let head = |c: &mut C, at: &mut u64| -> Result<(), String> {
            c.field(AT, Field::Time(at))?;
            c.field(Self::KIND_KEY, Field::Kind(&mut tag.clone(), Self::KINDS))
        };
        match self {
            JournalEvent::Sample {
                at,
                backend,
                src_ip,
                src_port,
                delta,
                t_lb,
            } => {
                head(c, at)?;
                c.field(BACKEND, Field::Sticky(backend))?;
                c.field(SRC_IP, Field::Sticky(src_ip))?;
                c.field(SRC_PORT, Field::Int(src_port))?;
                c.field(DELTA, Field::Sticky(delta))?;
                c.field("t_lb", Field::Int(t_lb))
            }
            JournalEvent::EpochDecision {
                at,
                backend,
                counts,
                chosen,
                delta,
            } => {
                head(c, at)?;
                c.field(BACKEND, Field::Int(backend))?;
                c.field("counts", Field::Ints(counts))?;
                c.field("chosen", Field::Int(chosen))?;
                c.field(DELTA, Field::Int(delta))
            }
            JournalEvent::WeightUpdate {
                at,
                cause,
                victim,
                moved,
                weights,
            } => {
                head(c, at)?;
                c.field("cause", Field::Label(cause, &CAUSES))?;
                c.field("victim", Field::Opt(victim))?;
                c.field("moved", Field::Float(moved))?;
                c.field("weights", Field::Floats(weights))
            }
            JournalEvent::HealthTransition {
                at,
                backend,
                from,
                to,
                trigger,
            } => {
                head(c, at)?;
                c.field(BACKEND, Field::Int(backend))?;
                c.field(FROM, Named(from, &HEALTH_STATES).label())?;
                c.field(TO, Named(to, &HEALTH_STATES).label())?;
                c.field("trigger", Named(trigger, &HEALTH_TRIGGERS).label())
            }
            JournalEvent::GossipMerge { at, mix } => {
                head(c, at)?;
                c.field("mix", Field::Float(mix))
            }
            JournalEvent::FlowRepin {
                at,
                src_ip,
                src_port,
                from,
                to,
            } => {
                head(c, at)?;
                c.field(SRC_IP, Field::Sticky(src_ip))?;
                c.field(SRC_PORT, Field::Int(src_port))?;
                c.field(FROM, Field::Int(from))?;
                c.field(TO, Field::Int(to))
            }
            JournalEvent::NoBackend { at } => head(c, at),
        }
    }
}

impl Uint for WeightCause {
    fn get(&self) -> u64 {
        *self as u64
    }

    fn set(&mut self, v: u64) -> bool {
        let cause = usize::try_from(v)
            .ok()
            .and_then(|i| WeightCause::ALL.get(i));
        cause.map(|&c| *self = c).is_some()
    }
}

/// A health wire name seen as its index in a name table.
struct Named<'a>(&'a mut &'static str, &'static [&'static str]);

impl Named<'_> {
    fn label(&mut self) -> Field<'_> {
        let names = self.1;
        Field::Label(self, names)
    }
}

impl Uint for Named<'_> {
    fn get(&self) -> u64 {
        // A name outside the table indexes past its end, which no reader
        // accepts.
        let i = self.1.iter().position(|n| n == self.0);
        i.unwrap_or(self.1.len()) as u64
    }

    fn set(&mut self, v: u64) -> bool {
        let name = usize::try_from(v).ok().and_then(|i| self.1.get(i));
        name.map(|n| *self.0 = n).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Sample {
                at: 1_000,
                backend: 1,
                src_ip: 0x0a00_0001,
                src_port: 40_000,
                delta: 64_000,
                t_lb: 123_456,
            },
            JournalEvent::EpochDecision {
                at: 2_000,
                backend: 0,
                counts: vec![9, 7, 2, 0],
                chosen: 1,
                delta: 128_000,
            },
            JournalEvent::WeightUpdate {
                at: 3_000,
                cause: WeightCause::Controller,
                victim: Some(0),
                moved: 0.125,
                weights: vec![0.375, 0.625],
            },
            JournalEvent::WeightUpdate {
                at: 3_500,
                cause: WeightCause::Init,
                victim: None,
                moved: 0.0,
                weights: vec![0.5, 0.5],
            },
            JournalEvent::HealthTransition {
                at: 4_000,
                backend: 0,
                from: "healthy",
                to: "suspect",
                trigger: "silence",
            },
            JournalEvent::GossipMerge {
                at: 5_000,
                mix: 0.5,
            },
            JournalEvent::FlowRepin {
                at: 6_000,
                src_ip: 0x0a00_0002,
                src_port: 31,
                from: 0,
                to: 1,
            },
            JournalEvent::NoBackend { at: 7_000 },
        ]
    }

    fn line(ev: &JournalEvent) -> String {
        let mut out = String::new();
        ev.clone().write_json(&mut out);
        out
    }

    #[test]
    fn every_tag_has_a_variant_and_a_name() {
        for (tag, kind) in JournalEvent::KINDS.iter().enumerate() {
            let ev = JournalEvent::blank(tag as u8).unwrap();
            assert_eq!((ev.tag(), ev.kind()), (tag as u8, *kind));
        }
        assert!(JournalEvent::blank(JournalEvent::KINDS.len() as u8).is_none());
    }

    #[test]
    fn roundtrip_every_event_kind() {
        let mut j = Journal::new(JournalMode::Full(1024));
        for ev in sample_events() {
            j.push(ev);
        }
        assert_eq!(j.iter().collect::<Vec<_>>(), sample_events());
        let text = j.to_ndjson();
        let parsed: Vec<JournalEvent> = parse_ndjson(&text).unwrap();
        assert_eq!(parsed, sample_events());
        // Writer is canonical: re-serializing the parse is byte-identical.
        assert_eq!(crate::log::to_ndjson(parsed), text);
        assert_eq!(
            text.lines().next().unwrap(),
            "{\"at\":1000,\"ev\":\"sample\",\"backend\":1,\"src_ip\":167772161,\
             \"src_port\":40000,\"delta\":64000,\"t_lb\":123456}"
        );
    }

    #[test]
    fn a_sample_packs_its_repeats_into_header_flags() {
        let sample = |at, src_ip| JournalEvent::Sample {
            at,
            backend: 1,
            src_ip,
            src_port: 40_000,
            delta: 64_000,
            t_lb: 250_000,
        };
        let mut j = Journal::new(JournalMode::Full(8));
        let mut sizes = Vec::new();
        for ev in [sample(14_000, 0x0a00_0001), sample(28_000, 0x0a00_0001)] {
            let before = j.retained_bytes();
            j.push(ev);
            sizes.push(j.retained_bytes() - before);
        }
        // Header, 3-byte time delta, backend, 4-byte address, port, δ, T_LB,
        // the three sticky fields each behind a literal tag; then the
        // backend, address and δ repeat and cost nothing.
        assert_eq!(sizes, [1 + 3 + 2 + 5 + 3 + 4 + 3, 1 + 3 + 3 + 3]);
        assert_eq!(j.take().len(), 2);
        assert_eq!(j.retained_bytes(), 0);
    }

    #[test]
    fn float_shortest_repr_roundtrips() {
        let w = JournalEvent::WeightUpdate {
            at: 1,
            cause: WeightCause::Gossip,
            victim: Some(2),
            moved: 0.1 + 0.2, // 0.30000000000000004
            weights: vec![1.0 / 3.0, 1e-7, 123_456.789_012_345],
        };
        assert_eq!(JournalEvent::parse_json(&line(&w)).unwrap(), w);
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut j = Journal::off();
        assert!(!j.enabled());
        j.push(JournalEvent::NoBackend { at: 1 });
        assert!(j.is_empty());
        assert_eq!(j.overflow(), 0);
        assert_eq!(j.to_ndjson(), "");
        assert_eq!(parse_ndjson::<JournalEvent>("").unwrap(), vec![]);
    }

    #[test]
    fn full_mode_caps_and_counts_overflow() {
        let mut j = Journal::new(JournalMode::Full(2));
        for at in 0..5 {
            j.push(JournalEvent::NoBackend { at });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.overflow(), 3);
        let ats: Vec<u64> = j.iter().map(|e| e.at()).collect();
        assert_eq!(ats, vec![0, 1]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let parse = parse_ndjson::<JournalEvent>;
        assert!(parse("{\"at\":1}").is_err()); // missing ev
        assert!(parse("{\"at\":1,\"ev\":\"bogus\"}").is_err());
        assert!(parse("not json").is_err());
        let err = parse("{\"at\":1,\"ev\":\"no_backend\"}\nnope").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
        // An integer field is a digit run that fits its type, a float is
        // finite: nothing is coerced through f64, wrapped by `as` or
        // rounded to infinity. A key appears once and is one the schema
        // reads, and the error names the field.
        let sample = |at: &str, ip: &str, port: &str| {
            format!(
                "{{\"at\":{at},\"ev\":\"sample\",\"backend\":1,\"src_ip\":{ip},\
                 \"src_port\":{port},\"delta\":2,\"t_lb\":3}}"
            )
        };
        assert!(JournalEvent::parse_json(&sample("7", "4294967295", "65535")).is_ok());
        for (line, field) in [
            ("{\"at\":-5,\"ev\":\"no_backend\"}".to_string(), "\"at\""),
            ("{\"at\":+5,\"ev\":\"no_backend\"}".to_string(), "\"at\""),
            ("{\"at\":1.9,\"ev\":\"no_backend\"}".to_string(), "\"at\""),
            ("{\"at\":1e30,\"ev\":\"no_backend\"}".to_string(), "\"at\""),
            (sample("7", "1", "70000"), "\"src_port\""),
            (sample("7", "4294967297", "1"), "\"src_ip\""),
            (
                "{\"at\":1,\"at\":2,\"ev\":\"no_backend\"}".to_string(),
                "\"at\"",
            ),
            (
                "{\"at\":1,\"ev\":\"no_backend\",\"zzz\":5}".to_string(),
                "\"zzz\"",
            ),
            (
                "{\"at\":1,\"ev\":\"weight_update\",\"cause\":\"init\",\"victim\":null,\
                 \"moved\":1e400,\"weights\":[]}"
                    .to_string(),
                "\"moved\"",
            ),
            (
                "{\"at\":1,\"ev\":\"gossip_merge\",\"mix\":1e400}".to_string(),
                "\"mix\"",
            ),
        ] {
            let err = JournalEvent::parse_json(&line).expect_err(&line);
            assert!(err.contains(field), "{line}: {err}");
        }
    }

    #[test]
    fn lossy_parse_drops_only_a_truncated_tail() {
        let lossy = parse_ndjson_lossy::<JournalEvent>;
        let good = "{\"at\":1,\"ev\":\"no_backend\"}";
        // A half-written final line (truncated mid-capture) is dropped
        // and flagged; the preceding events still parse.
        let truncated = format!("{good}\n{{\"at\":2,\"ev\":\"no_bac");
        let (evs, dropped) = lossy(&truncated).unwrap();
        assert_eq!(evs, vec![JournalEvent::NoBackend { at: 1 }]);
        assert!(dropped, "truncated tail must be flagged");
        // A trailing blank line after the garbage does not shield it.
        let (evs, dropped) = lossy(&format!("{truncated}\n\n")).unwrap();
        assert_eq!(evs.len(), 1);
        assert!(dropped);
        // Clean documents (including empty ones) report no drop.
        let (evs, dropped) = lossy(&format!("{good}\n")).unwrap();
        assert_eq!(evs.len(), 1);
        assert!(!dropped);
        assert_eq!(lossy("").unwrap(), (vec![], false));
        // Interior corruption is still a hard error with its line number.
        let err = lossy(&format!("nope\n{good}\n")).unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }
}
