//! `lbtrace`: offline analyzer for decision-journal NDJSON captures.
//!
//! The journal (see `telemetry::journal`) records *why* the LB acted —
//! T_LB samples, ensemble epoch decisions, weight shifts, health
//! transitions, re-pins. This module turns a capture back into answers:
//!
//! * [`Trace::sample_timeline`] — per-backend T_LB sample series.
//! * [`Trace::explain_shift`] — walk a weight shift back to the epoch
//!   decision that set the sampling δ and the samples that drove it.
//! * [`Trace::ejection_storylines`] — health transitions with the flow
//!   re-pins they caused.
//! * [`Trace::reaction_time`] — the Fig. 3 reaction metric, recomputed
//!   from the journal alone. Matches `experiments::fig3` exactly: the
//!   journal's `weight_update` events are one-to-one with the LB's
//!   weight-series points, and the rule is the experiment's own
//!   [`kv::reaction`], so the two computations cannot drift apart.

use experiments::kv;
use telemetry::journal::parse_ndjson_lossy;
use telemetry::{JournalEvent, ScalarSeries, WeightCause};

/// A parsed journal capture, in emission (chronological) order.
#[derive(Debug)]
pub struct Trace {
    events: Vec<JournalEvent>,
    dropped_tail: bool,
}

/// One weight shift traced back to its cause.
pub struct ShiftExplanation {
    /// The `weight_update` event being explained.
    pub shift: JournalEvent,
    /// The victim backend (the shift's largest loser).
    pub victim: usize,
    /// The victim's most recent `epoch_decision` at or before the shift —
    /// the δ choice governing the samples that fed the controller.
    pub decision: Option<JournalEvent>,
    /// The victim's samples between the previous weight update and this
    /// shift: the evidence the controller acted on.
    pub samples: Vec<JournalEvent>,
}

/// One backend's health history: its transitions, plus the flow re-pins
/// journalled between leaving and (re-)entering service.
pub struct EjectionStoryline {
    /// Backend index.
    pub backend: usize,
    /// `(at, from, to, trigger)` in order.
    pub transitions: Vec<(u64, String, String, String)>,
    /// Flows moved off or onto this backend, `(at, src_ip, src_port, from, to)`.
    pub repins: Vec<(u64, u32, u16, usize, usize)>,
}

impl Trace {
    /// Parses an NDJSON capture. A capture truncated mid-write (killed
    /// process, partial copy) loses its half-written final line instead
    /// of failing the whole parse; [`Trace::dropped_tail`] reports the
    /// drop so callers can warn. Interior corruption is still an error.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let (events, dropped_tail) = parse_ndjson_lossy(text)?;
        Ok(Trace {
            events,
            dropped_tail,
        })
    }

    /// Reads and parses a capture file.
    pub fn load(path: &str) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Trace::parse(&text)
    }

    /// True when the capture ended in a truncated line that was dropped
    /// during parsing.
    pub fn dropped_tail(&self) -> bool {
        self.dropped_tail
    }

    /// All events, chronological.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of backends, inferred from the widest weight vector seen.
    pub fn n_backends(&self) -> usize {
        self.events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::WeightUpdate { weights, .. } => Some(weights.len()),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// `(at, t_lb)` of every sample attributed to `backend`.
    pub fn sample_timeline(&self, backend: usize) -> Vec<(u64, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Sample {
                    at,
                    backend: b,
                    t_lb,
                    ..
                } if *b == backend => Some((*at, *t_lb)),
                _ => None,
            })
            .collect()
    }

    /// The backend's weight over time, reconstructed from `weight_update`
    /// events. Point-for-point identical to the live LB's
    /// `weight_series(backend)` (both are fed at the same call sites).
    pub fn weight_series(&self, backend: usize) -> ScalarSeries {
        let mut s = ScalarSeries::new();
        for e in &self.events {
            if let JournalEvent::WeightUpdate { at, weights, .. } = e {
                if let Some(&w) = weights.get(backend) {
                    s.push(*at, w);
                }
            }
        }
        s
    }

    /// The Fig. 3 reaction metric from the journal alone: the first
    /// instant at or after `inject_ns` when `backend` holds less than
    /// half the traffic (instantaneous if it already did at injection).
    pub fn reaction_time(&self, backend: usize, inject_ns: u64) -> Option<u64> {
        let series = self.weight_series(backend);
        kv::reaction(&[&series], inject_ns, 0.5).map(|r| r.instant(inject_ns))
    }

    /// Explains the first weight shift (a `weight_update` with a victim)
    /// at or after `after_ns`: which backend lost, under which epoch-δ
    /// decision, on the evidence of which samples.
    pub fn explain_shift(&self, after_ns: u64) -> Option<ShiftExplanation> {
        let (idx, shift, victim) = self.events.iter().enumerate().find_map(|(i, e)| match e {
            JournalEvent::WeightUpdate {
                at,
                victim: Some(v),
                ..
            } if *at >= after_ns => Some((i, e.clone(), *v)),
            _ => None,
        })?;
        let shift_at = shift.at();
        // The causal window: since the previous weight update (of any
        // cause), this shift is the controller's response to what it saw.
        let window_start = self.events[..idx]
            .iter()
            .rev()
            .find_map(|e| match e {
                JournalEvent::WeightUpdate { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap_or(0);
        let decision = self.events[..=idx]
            .iter()
            .rev()
            .find(|e| {
                matches!(e, JournalEvent::EpochDecision { backend, at, .. }
                    if *backend == victim && *at <= shift_at)
            })
            .cloned();
        let samples: Vec<JournalEvent> = self.events[..idx]
            .iter()
            .filter(|e| {
                matches!(e, JournalEvent::Sample { backend, at, .. }
                    if *backend == victim && *at > window_start && *at <= shift_at)
            })
            .cloned()
            .collect();
        Some(ShiftExplanation {
            shift,
            victim,
            decision,
            samples,
        })
    }

    /// Per-backend health storylines: every transition, plus the re-pins
    /// journalled while the backend was changing state.
    pub fn ejection_storylines(&self) -> Vec<EjectionStoryline> {
        let n = self
            .events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::HealthTransition { backend, .. } => Some(*backend + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
            .max(self.n_backends());
        let mut out = Vec::new();
        for b in 0..n {
            let transitions: Vec<(u64, String, String, String)> = self
                .events
                .iter()
                .filter_map(|e| match e {
                    JournalEvent::HealthTransition {
                        at,
                        backend,
                        from,
                        to,
                        trigger,
                    } if *backend == b => {
                        Some((*at, from.to_string(), to.to_string(), trigger.to_string()))
                    }
                    _ => None,
                })
                .collect();
            let repins: Vec<(u64, u32, u16, usize, usize)> = self
                .events
                .iter()
                .filter_map(|e| match e {
                    JournalEvent::FlowRepin {
                        at,
                        src_ip,
                        src_port,
                        from,
                        to,
                    } if *from == b || *to == b => Some((*at, *src_ip, *src_port, *from, *to)),
                    _ => None,
                })
                .collect();
            if !transitions.is_empty() {
                out.push(EjectionStoryline {
                    backend: b,
                    transitions,
                    repins,
                });
            }
        }
        out
    }

    /// Count of events of one kind (see [`JournalEvent::kind`]).
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// Count of health transitions *into* the ejected state — the
    /// shard's ejection count.
    pub fn count_ejections(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, JournalEvent::HealthTransition { to, .. } if *to == "ejected"))
            .count()
    }

    /// Event counts by kind plus the covered time span — the capture at
    /// a glance.
    pub fn summary(&self) -> String {
        const KINDS: &[&str] = &[
            "sample",
            "epoch_decision",
            "weight_update",
            "health",
            "gossip_merge",
            "flow_repin",
            "no_backend",
            "shard_remap",
        ];
        let mut out = String::new();
        let span = match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => format!(
                "{} events over {:.3} s (t = {} .. {} ns)",
                self.events.len(),
                (b.at().saturating_sub(a.at())) as f64 / 1e9,
                a.at(),
                b.at()
            ),
            _ => "0 events".to_string(),
        };
        out.push_str(&span);
        out.push('\n');
        for kind in KINDS {
            let n = self.count_kind(kind);
            if n > 0 {
                out.push_str(&format!("  {kind:<16} {n}\n"));
            }
        }
        out
    }
}

/// Per-shard summary of a multi-LB capture (one [`Trace`] per shard):
/// each shard's sample / weight-update / ejection counts side by side,
/// plus the tier totals — the shard-skew view a merged summary hides.
pub fn summary_shards(shards: &[Trace]) -> String {
    let mut out = String::new();
    let mut totals = (0usize, 0usize, 0usize, 0usize);
    for (i, t) in shards.iter().enumerate() {
        let samples = t.count_kind("sample");
        let updates = t.count_kind("weight_update");
        let ejections = t.count_ejections();
        let events = t.events().len();
        out.push_str(&format!(
            "shard {i}: {events:>6} event(s)  samples {samples:>6}  \
             weight_updates {updates:>5}  ejections {ejections:>3}\n"
        ));
        totals.0 += events;
        totals.1 += samples;
        totals.2 += updates;
        totals.3 += ejections;
    }
    out.push_str(&format!(
        "tier:    {:>6} event(s)  samples {:>6}  weight_updates {:>5}  ejections {:>3}\n",
        totals.0, totals.1, totals.2, totals.3
    ));
    out
}

impl ShiftExplanation {
    /// Human-readable rendering of the causal chain.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let JournalEvent::WeightUpdate {
            at,
            cause,
            moved,
            weights,
            ..
        } = &self.shift
        {
            out.push_str(&format!(
                "weight shift at t = {at} ns ({}): backend {} lost {:.4} weight\n  weights after: {:?}\n",
                cause.as_str(),
                self.victim,
                moved,
                weights
            ));
            if *cause != WeightCause::Controller {
                out.push_str("  (not a controller shift: no sample evidence expected)\n");
            }
        }
        match &self.decision {
            Some(JournalEvent::EpochDecision {
                at,
                counts,
                chosen,
                delta,
                ..
            }) => {
                out.push_str(&format!(
                    "governing epoch decision at t = {at} ns: chose member {chosen} (delta = {delta} ns), counts {counts:?}\n"
                ));
            }
            _ => out.push_str("no epoch decision recorded for the victim before the shift\n"),
        }
        out.push_str(&format!(
            "evidence: {} sample(s) from backend {} since the previous update\n",
            self.samples.len(),
            self.victim
        ));
        for s in self.samples.iter().rev().take(5).rev() {
            if let JournalEvent::Sample {
                at,
                src_ip,
                src_port,
                delta,
                t_lb,
                ..
            } = s
            {
                out.push_str(&format!(
                    "  t = {at} ns  flow {}:{src_port}  T_LB = {t_lb} ns (delta {delta} ns)\n",
                    std::net::Ipv4Addr::from(*src_ip)
                ));
            }
        }
        out
    }
}

impl EjectionStoryline {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!("backend {}:\n", self.backend);
        for (at, from, to, trigger) in &self.transitions {
            out.push_str(&format!("  t = {at} ns  {from} -> {to}  ({trigger})\n"));
        }
        let off = self.repins.iter().filter(|r| r.3 == self.backend).count();
        out.push_str(&format!(
            "  flows re-pinned: {} off, {} onto this backend\n",
            off,
            self.repins.len() - off
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{Journal, JournalMode};

    fn synthetic() -> Trace {
        Trace::parse(&synthetic_ndjson()).unwrap()
    }

    fn synthetic_ndjson() -> String {
        let mut j = Journal::new(JournalMode::Full(1024));
        j.push(JournalEvent::WeightUpdate {
            at: 0,
            cause: WeightCause::Init,
            victim: None,
            moved: 0.0,
            weights: vec![0.5, 0.5],
        });
        j.push(JournalEvent::Sample {
            at: 10,
            backend: 0,
            src_ip: 0x0a000001,
            src_port: 4001,
            delta: 64_000,
            t_lb: 900_000,
        });
        j.push(JournalEvent::EpochDecision {
            at: 20,
            backend: 0,
            counts: vec![3, 2, 1],
            chosen: 1,
            delta: 128_000,
        });
        j.push(JournalEvent::Sample {
            at: 30,
            backend: 0,
            src_ip: 0x0a000002,
            src_port: 4002,
            delta: 128_000,
            t_lb: 1_500_000,
        });
        j.push(JournalEvent::WeightUpdate {
            at: 40,
            cause: WeightCause::Controller,
            victim: Some(0),
            moved: 0.1,
            weights: vec![0.4, 0.6],
        });
        j.push(JournalEvent::WeightUpdate {
            at: 50,
            cause: WeightCause::Controller,
            victim: Some(0),
            moved: 0.1,
            weights: vec![0.3, 0.7],
        });
        j.to_ndjson()
    }

    #[test]
    fn explain_finds_decision_and_samples() {
        let t = synthetic();
        let ex = t.explain_shift(35).unwrap();
        assert_eq!(ex.shift.at(), 40);
        assert_eq!(ex.victim, 0);
        let Some(JournalEvent::EpochDecision { at, delta, .. }) = ex.decision else {
            panic!("no decision");
        };
        assert_eq!((at, delta), (20, 128_000));
        // Window is (previous update at t=0, shift at t=40]: both samples.
        assert_eq!(ex.samples.len(), 2);
        let rendered = ex.render();
        assert!(rendered.contains("backend 0"), "{rendered}");
        assert!(rendered.contains("128000"), "{rendered}");
    }

    #[test]
    fn reaction_uses_weight_threshold() {
        let t = synthetic();
        // At injection t=25 the weight is 0.5 (not < 0.5); first drop
        // below half is the t=40 update (0.4).
        assert_eq!(t.reaction_time(0, 25), Some(40));
        // Already below half at injection: instantaneous.
        assert_eq!(t.reaction_time(0, 45), Some(45));
        // The other backend never drops below half.
        assert_eq!(t.reaction_time(1, 25), None);
    }

    #[test]
    fn timelines_and_summary() {
        let t = synthetic();
        assert_eq!(t.sample_timeline(0), vec![(10, 900_000), (30, 1_500_000)]);
        assert!(t.sample_timeline(1).is_empty());
        assert_eq!(t.n_backends(), 2);
        let s = t.summary();
        assert!(s.contains("sample"), "{s}");
        assert!(s.contains("weight_update"), "{s}");
    }

    #[test]
    fn empty_and_truncated_captures_parse_cleanly() {
        // Empty capture: no events, no drop, summary still renders.
        let t = Trace::parse("").unwrap();
        assert!(t.events().is_empty());
        assert!(!t.dropped_tail());
        assert!(t.summary().contains("0 events"), "{}", t.summary());
        // Truncated capture (killed mid-write): the half line is
        // dropped and flagged, everything before it is usable.
        let mut ndjson = synthetic_ndjson();
        ndjson.truncate(ndjson.len() - 10);
        let t = Trace::parse(&ndjson).unwrap();
        assert!(t.dropped_tail(), "truncation must be flagged");
        assert_eq!(t.events().len(), 5, "events before the tear survive");
        assert!(t.explain_shift(0).is_some());
        // Interior garbage is corruption, not truncation: hard error.
        let poisoned = format!("garbage\n{}", synthetic_ndjson());
        let err = Trace::parse(&poisoned).unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }

    #[test]
    fn storylines_group_health_events() {
        let mut j = Journal::new(JournalMode::Full(64));
        j.push(JournalEvent::HealthTransition {
            at: 5,
            backend: 1,
            from: "healthy",
            to: "ejected",
            trigger: "silence",
        });
        j.push(JournalEvent::FlowRepin {
            at: 6,
            src_ip: 1,
            src_port: 2,
            from: 1,
            to: 0,
        });
        j.push(JournalEvent::HealthTransition {
            at: 9,
            backend: 1,
            from: "ejected",
            to: "probation",
            trigger: "probation_timeout",
        });
        let t = Trace::parse(&j.to_ndjson()).unwrap();
        let lines = t.ejection_storylines();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].backend, 1);
        assert_eq!(lines[0].transitions.len(), 2);
        assert_eq!(lines[0].repins.len(), 1);
        assert!(lines[0].render().contains("silence"));
    }

    #[test]
    fn summary_shards_counts_per_shard_and_totals() {
        let mut j = Journal::new(JournalMode::Full(64));
        j.push(JournalEvent::HealthTransition {
            at: 5,
            backend: 1,
            from: "healthy",
            to: "ejected",
            trigger: "silence",
        });
        let shards = vec![synthetic(), Trace::parse(&j.to_ndjson()).unwrap()];
        let s = summary_shards(&shards);
        // Shard 0 is the synthetic journal: 6 events, 2 samples, 3
        // weight updates, no ejections; shard 1 has the one ejection.
        assert!(
            s.contains(
                "shard 0:      6 event(s)  samples      2  weight_updates     3  ejections   0"
            ),
            "{s}"
        );
        assert!(
            s.contains(
                "shard 1:      1 event(s)  samples      0  weight_updates     0  ejections   1"
            ),
            "{s}"
        );
        assert!(
            s.contains(
                "tier:         7 event(s)  samples      2  weight_updates     3  ejections   1"
            ),
            "{s}"
        );
    }
}
