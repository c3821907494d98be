//! Per-backend health tracking: detecting dead or stalled backends from
//! the *absence* of in-band samples.
//!
//! The failure mode this guards against is the blind spot of purely
//! latency-driven control: a crashed backend produces **no** `T_LB`
//! samples, so the estimator goes silent instead of reporting a bad
//! latency, and the Maglev table keeps forwarding to it forever. The
//! tracker closes the loop on sample *counts* rather than sample values:
//! a backend that is being offered traffic (forwarded packets keep
//! increasing) while producing zero new samples is presumed unhealthy.
//!
//! State machine per backend:
//!
//! ```text
//!            S silent epochs            +E more silent epochs
//! Healthy ────────────────▶ Suspect ────────────────▶ Ejected
//!    ▲  ▲   (or abort burst)    │  (or abort burst)      │
//!    │  └───── samples ─────────┘                        │ probation
//!    │                                                   ▼ timeout
//!    └───────────── samples (readmission) ────────── Probation
//!                                                        │ still silent
//!                                                        └──▶ Ejected
//! ```
//!
//! An *epoch* is a fixed control-plane period ([`EPOCH`], 100 ms). "Silent"
//! means zero new *credible* samples in an epoch **while traffic was
//! offered** — an idle backend that simply was not sent anything is never
//! ejected, and samples above [`SAMPLE_CEILING`] do not count (they are
//! retransmission-backoff phantoms, not responses).
//! RTO-abort signals (connection setups that never progressed, reported
//! by the data plane) accelerate detection: a burst of aborts ejects a
//! backend without waiting out the full silence window. After
//! `probation_after`, an ejected backend re-enters [`HealthState::Probation`]
//! and is offered a floor-level trickle again; one epoch with samples
//! readmits it, another silent epoch re-ejects it.
//!
//! The tracker is deliberately decoupled from the estimator and the data
//! plane: [`HealthTracker::on_epoch`] consumes plain cumulative counters,
//! which keeps it a pure, property-testable state machine.

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

use crate::Nanos;

/// Liveness classification of one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Producing samples (or not offered any traffic).
    Healthy,
    /// Offered traffic but silent for [`SUSPECT_AFTER`] consecutive epochs.
    Suspect,
    /// Presumed dead: receives no new connections, pinned flows migrated.
    Ejected,
    /// Past the probation timeout: offered a floor-level trickle to test
    /// whether it recovered.
    Probation,
}

impl HealthState {
    /// Stable wire name (used by the decision journal).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Ejected => "ejected",
            HealthState::Probation => "probation",
        }
    }
}

/// What fired a health state transition (used by the decision journal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTrigger {
    /// Offered-but-silent epochs crossed a threshold.
    Silence,
    /// An RTO-abort burst advanced the state machine early.
    AbortBurst,
    /// The probation probe trickle went unanswered.
    ProbeSilent,
    /// The ejection sit-out elapsed; backend enters probation.
    ProbationTimeout,
    /// Credible samples arrived; the silence run is over.
    SamplesReturned,
}

impl HealthTrigger {
    /// Stable wire name (used by the decision journal).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthTrigger::Silence => "silence",
            HealthTrigger::AbortBurst => "abort_burst",
            HealthTrigger::ProbeSilent => "probe_silent",
            HealthTrigger::ProbationTimeout => "probation_timeout",
            HealthTrigger::SamplesReturned => "samples_returned",
        }
    }
}

/// One recorded state transition: `(backend, from, to, trigger)`.
pub type HealthTransition = (usize, HealthState, HealthState, HealthTrigger);

/// RTO-abort signals within the current silence run that immediately
/// advance the state machine (Healthy → Suspect → Ejected).
pub const ABORT_THRESHOLD: u32 = 3;

/// Plausibility ceiling on `T_LB` samples counted as liveness evidence:
/// 50 ms, where the largest ensemble timeout is 4 ms and a legitimate
/// `T_LB` is orders of magnitude below it. A dead backend is not
/// perfectly silent: its pinned clients retransmit on RTO backoff, and
/// each retransmission burst looks like a new batch to the in-band
/// estimator — producing phantom "samples" whose value is the backoff
/// gap (tens to hundreds of milliseconds, far above any real response
/// latency). The data plane must not count samples above this ceiling
/// when it reports per-epoch sample counts to [`HealthTracker::on_epoch`],
/// or the phantoms keep resetting the silence run forever.
pub const SAMPLE_CEILING: Nanos = 50_000_000;

/// Length of one detection epoch: 100 ms.
pub const EPOCH: Nanos = 100_000_000;
/// Consecutive silent epochs before Healthy → Suspect.
pub const SUSPECT_AFTER: u32 = 2;
/// Additional silent epochs before Suspect → Ejected: the detection
/// window is `SUSPECT_AFTER + EJECT_AFTER` epochs ≈ 300 ms.
pub const EJECT_AFTER: u32 = 1;
const _: () = assert!(EPOCH > 0 && SUSPECT_AFTER > 0 && EJECT_AFTER > 0);

/// Tunables for the health state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// How long an ejected backend sits out before probation.
    pub probation_after: Nanos,
}

impl Default for HealthConfig {
    /// Probation after 1 s.
    fn default() -> HealthConfig {
        HealthConfig {
            probation_after: 1_000_000_000,
        }
    }
}

/// Per-backend bookkeeping.
#[derive(Debug, Clone, Copy)]
struct BackendHealth {
    state: HealthState,
    /// Consecutive offered-but-sample-less epochs.
    silent_epochs: u32,
    /// RTO-abort signals since the last epoch with samples.
    aborts: u32,
    /// When the backend entered `Ejected`.
    ejected_at: Nanos,
    /// Cumulative sample count at the last epoch boundary.
    last_samples: u64,
    /// Cumulative forwarded-packet count at the last epoch boundary.
    last_forwarded: u64,
}

impl BackendHealth {
    fn new() -> BackendHealth {
        BackendHealth {
            state: HealthState::Healthy,
            silent_epochs: 0,
            aborts: 0,
            ejected_at: 0,
            last_samples: 0,
            last_forwarded: 0,
        }
    }
}

/// The health state machine over all backends of one LB.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    cfg: HealthConfig,
    backends: Vec<BackendHealth>,
    ejections: u64,
    readmissions: u64,
    /// Transitions fired by the most recent [`HealthTracker::on_epoch`].
    transitions: Vec<HealthTransition>,
}

impl HealthTracker {
    /// A tracker over `n` backends, all initially healthy.
    pub fn new(n: usize, cfg: HealthConfig) -> HealthTracker {
        assert!(n > 0, "at least one backend");
        HealthTracker {
            cfg,
            backends: vec![BackendHealth::new(); n],
            ejections: 0,
            readmissions: 0,
            transitions: Vec::new(),
        }
    }

    /// Number of tracked backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True if no backends are tracked (never constructible).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Current state of backend `b`.
    pub fn state(&self, b: usize) -> HealthState {
        self.backends[b].state
    }

    /// Records an RTO-abort signal against backend `b` (a connection
    /// setup that never progressed past the handshake). Cleared by the
    /// next epoch in which the backend produces samples.
    pub fn record_abort(&mut self, b: usize) {
        self.backends[b].aborts = self.backends[b].aborts.saturating_add(1);
    }

    /// Advances every backend by one epoch. `samples` and `forwarded` are
    /// *cumulative* per-backend counts (total samples recorded by the
    /// estimator; total packets forwarded by the data plane) — the tracker
    /// keeps the previous marks and works on the deltas. Returns `true`
    /// if any backend changed state.
    pub fn on_epoch(&mut self, now: Nanos, samples: &[u64], forwarded: &[u64]) -> bool {
        assert_eq!(samples.len(), self.backends.len(), "samples length");
        assert_eq!(forwarded.len(), self.backends.len(), "forwarded length");
        let cfg = self.cfg;
        let mut changed = false;
        let mut ejections = 0u64;
        let mut readmissions = 0u64;
        // Reuse the transition buffer's capacity across epochs.
        let mut transitions = core::mem::take(&mut self.transitions);
        transitions.clear();
        for (b, h) in self.backends.iter_mut().enumerate() {
            let new_samples = samples[b].saturating_sub(h.last_samples);
            let offered = forwarded[b] > h.last_forwarded;
            h.last_samples = samples[b];
            h.last_forwarded = forwarded[b];
            let before = h.state;
            let mut trigger = HealthTrigger::Silence;
            if new_samples > 0 {
                // Alive: clear the silence run and readmit if probing.
                h.silent_epochs = 0;
                h.aborts = 0;
                trigger = HealthTrigger::SamplesReturned;
                match h.state {
                    HealthState::Suspect => h.state = HealthState::Healthy,
                    HealthState::Probation => {
                        h.state = HealthState::Healthy;
                        readmissions += 1;
                    }
                    _ => {}
                }
            } else if offered {
                // Offered traffic but silent. Idle backends (not offered)
                // are left alone: absence of samples is only evidence of
                // death when there was traffic to answer.
                h.silent_epochs = h.silent_epochs.saturating_add(1);
                let abort_burst = h.aborts >= ABORT_THRESHOLD;
                if abort_burst {
                    trigger = HealthTrigger::AbortBurst;
                }
                match h.state {
                    HealthState::Healthy if h.silent_epochs >= SUSPECT_AFTER || abort_burst => {
                        h.state = HealthState::Suspect;
                    }
                    HealthState::Suspect
                        if h.silent_epochs >= SUSPECT_AFTER + EJECT_AFTER || abort_burst =>
                    {
                        h.state = HealthState::Ejected;
                        h.ejected_at = now;
                        h.silent_epochs = 0;
                        h.aborts = 0;
                        ejections += 1;
                    }
                    HealthState::Probation => {
                        // The probe trickle went unanswered: re-eject.
                        h.state = HealthState::Ejected;
                        h.ejected_at = now;
                        h.silent_epochs = 0;
                        h.aborts = 0;
                        ejections += 1;
                        trigger = HealthTrigger::ProbeSilent;
                    }
                    _ => {}
                }
            }
            if h.state == HealthState::Ejected
                && now.saturating_sub(h.ejected_at) >= cfg.probation_after
            {
                h.state = HealthState::Probation;
                trigger = HealthTrigger::ProbationTimeout;
            }
            if h.state != before {
                changed = true;
                transitions.push((b, before, h.state, trigger));
            }
        }
        self.transitions = transitions;
        self.ejections += ejections;
        self.readmissions += readmissions;
        changed
    }

    /// State transitions fired by the most recent
    /// [`HealthTracker::on_epoch`] call (cleared at every epoch).
    pub fn last_transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Total ejections so far (including re-ejections from probation).
    pub fn ejections(&self) -> u64 {
        self.ejections
    }

    /// Total probation → healthy readmissions so far.
    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    /// Drives `t` through `epochs` boundaries with the given per-epoch
    /// deltas for backend 0 (other backends idle).
    fn drive(t: &mut HealthTracker, start_epoch: u64, deltas: &[(u64, u64)]) -> Nanos {
        let n = t.len();
        let mut samples = vec![0u64; n];
        let mut forwarded = vec![0u64; n];
        let mut now = start_epoch * EPOCH;
        // Recover current cumulative marks so repeated drives compose.
        samples[0] = t.backends[0].last_samples;
        forwarded[0] = t.backends[0].last_forwarded;
        for &(ds, df) in deltas {
            now += EPOCH;
            samples[0] += ds;
            forwarded[0] += df;
            t.on_epoch(now, &samples, &forwarded);
        }
        now / EPOCH
    }

    #[test]
    fn healthy_backend_stays_healthy() {
        let mut t = HealthTracker::new(2, cfg());
        drive(&mut t, 0, &[(10, 100); 20]);
        assert_eq!(t.state(0), HealthState::Healthy);
        assert_eq!(t.ejections(), 0);
    }

    #[test]
    fn idle_backend_is_never_ejected() {
        // Zero samples *and* zero forwarded: no evidence of death.
        let mut t = HealthTracker::new(2, cfg());
        drive(&mut t, 0, &[(0, 0); 50]);
        assert_eq!(t.state(0), HealthState::Healthy);
    }

    #[test]
    fn silence_under_load_walks_to_ejected() {
        let mut t = HealthTracker::new(2, cfg());
        drive(&mut t, 0, &[(5, 50)]);
        drive(&mut t, 1, &[(0, 50)]);
        assert_eq!(t.state(0), HealthState::Healthy); // 1 silent epoch
        drive(&mut t, 2, &[(0, 50)]);
        assert_eq!(t.state(0), HealthState::Suspect); // 2 silent epochs
        drive(&mut t, 3, &[(0, 50)]);
        assert_eq!(t.state(0), HealthState::Ejected); // 3 silent epochs
        assert_eq!(t.ejections(), 1);
        assert_eq!(t.state(1), HealthState::Healthy);
    }

    #[test]
    fn samples_reset_the_silence_run() {
        let mut t = HealthTracker::new(2, cfg());
        drive(&mut t, 0, &[(0, 50), (0, 50)]);
        assert_eq!(t.state(0), HealthState::Suspect);
        drive(&mut t, 2, &[(3, 50)]);
        assert_eq!(t.state(0), HealthState::Healthy);
        // The run starts over: two more silent epochs only reach Suspect.
        drive(&mut t, 3, &[(0, 50), (0, 50)]);
        assert_eq!(t.state(0), HealthState::Suspect);
    }

    #[test]
    fn abort_burst_accelerates_ejection() {
        let mut t = HealthTracker::new(2, cfg());
        for _ in 0..3 {
            t.record_abort(0);
        }
        drive(&mut t, 0, &[(0, 50)]);
        assert_eq!(t.state(0), HealthState::Suspect); // 1 silent epoch + burst
        drive(&mut t, 1, &[(0, 50)]);
        assert_eq!(t.state(0), HealthState::Ejected); // 2 epochs, not 3
    }

    #[test]
    fn probation_and_readmission() {
        let mut t = HealthTracker::new(2, cfg());
        drive(&mut t, 0, &[(0, 50), (0, 50), (0, 50)]);
        assert_eq!(t.state(0), HealthState::Ejected);
        // probation_after = 1 s = 10 epochs after the ejection epoch.
        drive(&mut t, 3, &[(0, 0); 9]);
        assert_eq!(t.state(0), HealthState::Ejected);
        drive(&mut t, 12, &[(0, 0)]);
        assert_eq!(t.state(0), HealthState::Probation);
        assert_eq!(t.state(1), HealthState::Healthy);
        // Probe answered: readmitted.
        drive(&mut t, 13, &[(2, 5)]);
        assert_eq!(t.state(0), HealthState::Healthy);
        assert_eq!(t.readmissions(), 1);
    }

    #[test]
    fn transitions_are_recorded_with_triggers() {
        let mut t = HealthTracker::new(2, cfg());
        drive(&mut t, 0, &[(0, 50)]);
        assert_eq!(t.last_transitions(), &[]);
        drive(&mut t, 1, &[(0, 50)]);
        assert_eq!(
            t.last_transitions(),
            &[(
                0,
                HealthState::Healthy,
                HealthState::Suspect,
                HealthTrigger::Silence
            )]
        );
        drive(&mut t, 2, &[(0, 50)]);
        assert_eq!(
            t.last_transitions(),
            &[(
                0,
                HealthState::Suspect,
                HealthState::Ejected,
                HealthTrigger::Silence
            )]
        );
        // Probation timeout, then a probe answered: readmission trigger.
        drive(&mut t, 3, &[(0, 0); 10]);
        assert_eq!(
            t.last_transitions(),
            &[(
                0,
                HealthState::Ejected,
                HealthState::Probation,
                HealthTrigger::ProbationTimeout
            )]
        );
        drive(&mut t, 13, &[(2, 5)]);
        assert_eq!(
            t.last_transitions(),
            &[(
                0,
                HealthState::Probation,
                HealthState::Healthy,
                HealthTrigger::SamplesReturned
            )]
        );
        // A quiet epoch clears the buffer.
        drive(&mut t, 14, &[(2, 5)]);
        assert_eq!(t.last_transitions(), &[]);
    }

    #[test]
    fn abort_burst_transition_carries_trigger() {
        let mut t = HealthTracker::new(2, cfg());
        for _ in 0..3 {
            t.record_abort(0);
        }
        drive(&mut t, 0, &[(0, 50)]);
        assert_eq!(
            t.last_transitions(),
            &[(
                0,
                HealthState::Healthy,
                HealthState::Suspect,
                HealthTrigger::AbortBurst
            )]
        );
    }

    #[test]
    fn silent_probation_re_ejects() {
        let mut t = HealthTracker::new(2, cfg());
        drive(&mut t, 0, &[(0, 50), (0, 50), (0, 50)]);
        drive(&mut t, 3, &[(0, 0); 10]);
        assert_eq!(t.state(0), HealthState::Probation);
        drive(&mut t, 13, &[(0, 5)]);
        assert_eq!(t.state(0), HealthState::Ejected);
        assert_eq!(t.ejections(), 2);
    }
}
