//! Feedback controllers: from per-backend latency estimates to weight
//! updates.
//!
//! The paper proposes one deliberately simple strategy (§3, "Simple load
//! balancing strategy"): every time a new latency sample arrives, shift a
//! fixed fraction α = 10% of total traffic away from the highest-latency
//! server, spread equally over the others. That is [`AlphaShift`].
//!
//! §5(4) asks for more sophisticated loops; two are provided for the
//! controller-comparison ablation:
//!
//! * [`AimdController`] — multiplicative decrease on the worst backend,
//!   additive recovery toward equal shares.
//! * [`ProportionalController`] — weights ∝ 1/latencyᵖ, recomputed from
//!   the estimates directly.

use crate::estimator::BackendEstimator;
use crate::weights::Weights;
use crate::Nanos;

/// A weight-update policy driven by backend latency estimates.
///
/// The contract, which [`Weights`] enforces rather than trusts:
///
/// * a controller may only move shares through the methods of the
///   `Weights` it is handed, each of which leaves the vector normalized,
///   floored, and with nothing on an ejected backend — an ejected backend
///   cannot receive mass, whatever the controller asks for;
/// * returning `false` means the shares are untouched, bit for bit. A
///   change threshold is applied to the staged result *before* it is
///   written ([`Weights::remap`]), never after: what the dataplane's
///   table implements and what `weights` says are always the same vector.
pub trait Controller {
    /// Considers an update at `now` given current `estimates`; mutates
    /// `weights` and returns `true` when it changed them (the dataplane
    /// then commits them; its Maglev table is rebuilt by the next lookup).
    /// Called once per latency sample: implementations should not
    /// allocate.
    fn maybe_update(
        &mut self,
        now: Nanos,
        estimates: &BackendEstimator,
        weights: &mut Weights,
    ) -> bool;

    /// A short name for tables and figures.
    fn name(&self) -> &'static str;
}

/// The paper's controller: shift α of total traffic from the worst server
/// to all others, equally.
#[derive(Debug, Clone)]
pub struct AlphaShift {
    /// Fraction of total traffic moved per action (paper: 0.10).
    pub alpha: f64,
    /// Minimum relative latency gap (worst vs. best other) before acting;
    /// 0 reproduces the paper exactly, a small margin (e.g. 0.1) prevents
    /// weight random-walk when all backends are equally fast.
    pub margin: f64,
    /// Minimum time between actions. The paper allows an action per new
    /// sample; the interval is the knob that emulates "every sample"
    /// (set it to 0) or gentler pacing.
    pub min_interval: Nanos,
    last_action: Option<Nanos>,
}

impl AlphaShift {
    /// The paper's parameters: α = 10%, no margin, act on every sample.
    pub fn paper() -> AlphaShift {
        AlphaShift {
            alpha: 0.10,
            margin: 0.0,
            min_interval: 0,
            last_action: None,
        }
    }

    /// A damped variant used by the default scenarios: 10% shifts, 10%
    /// margin, at most one action per millisecond.
    pub fn damped() -> AlphaShift {
        AlphaShift {
            alpha: 0.10,
            margin: 0.10,
            min_interval: 1_000_000,
            last_action: None,
        }
    }

    /// Returns a copy with a different shift fraction α.
    pub fn with_alpha(mut self, alpha: f64) -> AlphaShift {
        assert!((0.0..1.0).contains(&alpha), "alpha out of range");
        self.alpha = alpha;
        self
    }

    /// Returns a copy with a different action pacing interval.
    pub fn with_min_interval(mut self, min_interval: Nanos) -> AlphaShift {
        self.min_interval = min_interval;
        self
    }
}

impl Controller for AlphaShift {
    fn maybe_update(
        &mut self,
        now: Nanos,
        estimates: &BackendEstimator,
        weights: &mut Weights,
    ) -> bool {
        if let Some(last) = self.last_action {
            if now.saturating_sub(last) < self.min_interval {
                return false;
            }
        }
        let Some((worst, worst_lat)) = estimates.worst(now) else {
            return false;
        };
        if self.margin > 0.0 {
            let Some(best) = estimates.best_other(worst, now) else {
                return false;
            };
            if worst_lat < best * (1.0 + self.margin) {
                return false;
            }
        }
        let moved = weights.shift_from(worst, self.alpha);
        if moved > 0.0 {
            self.last_action = Some(now);
            true
        } else {
            false
        }
    }

    fn name(&self) -> &'static str {
        "alpha-shift"
    }
}

/// AIMD: multiplicative decrease of the worst backend's weight,
/// additive increase of everyone toward equal shares when no action is
/// needed (recovery).
#[derive(Debug, Clone)]
pub struct AimdController {
    /// Multiplicative decrease factor applied to the worst backend (< 1).
    pub beta: f64,
    /// Additive recovery step (fraction of the gap to equal share healed
    /// per action period).
    pub recovery: f64,
    /// Same margin semantics as [`AlphaShift`].
    pub margin: f64,
    /// Minimum time between actions.
    pub min_interval: Nanos,
    last_action: Option<Nanos>,
}

impl AimdController {
    /// Reasonable defaults: β = 0.7, 5% recovery, 10% margin, 1 ms pacing.
    pub fn new() -> AimdController {
        AimdController {
            beta: 0.7,
            recovery: 0.05,
            margin: 0.10,
            min_interval: 1_000_000,
            last_action: None,
        }
    }
}

impl Default for AimdController {
    fn default() -> Self {
        Self::new()
    }
}

impl Controller for AimdController {
    fn maybe_update(
        &mut self,
        now: Nanos,
        estimates: &BackendEstimator,
        weights: &mut Weights,
    ) -> bool {
        if let Some(last) = self.last_action {
            if now.saturating_sub(last) < self.min_interval {
                return false;
            }
        }
        let n = weights.len();
        let equal = 1.0 / n as f64;
        let decrease = match estimates.worst(now) {
            Some((worst, worst_lat)) => {
                let trip = match estimates.best_other(worst, now) {
                    Some(best) => worst_lat >= best * (1.0 + self.margin),
                    None => false,
                };
                trip.then_some(worst)
            }
            None => None,
        };
        let changed = match decrease {
            Some(worst) => {
                weights.scale(worst, self.beta);
                true
            }
            None => {
                // Recovery: move every weight a step toward equal share.
                let recovery = self.recovery;
                weights.remap(1e-6, |_, w| w + recovery * (equal - w))
            }
        };
        if changed {
            self.last_action = Some(now);
        }
        changed
    }

    fn name(&self) -> &'static str {
        "aimd"
    }
}

/// Latency-proportional weights: wᵢ ∝ (1/latencyᵢ)ᵖ. Backends without a
/// fresh estimate keep their current share; the rest of the mass is what
/// the estimated ones divide.
#[derive(Debug, Clone)]
pub struct ProportionalController {
    /// Exponent p (1 = inverse-latency, 2 = aggressive).
    pub power: f64,
    /// Minimum time between recomputations.
    pub min_interval: Nanos,
    last_action: Option<Nanos>,
}

impl ProportionalController {
    /// Inverse-latency weighting recomputed at most every millisecond.
    pub fn new(power: f64) -> ProportionalController {
        assert!(power > 0.0, "power must be positive");
        ProportionalController {
            power,
            min_interval: 1_000_000,
            last_action: None,
        }
    }
}

impl Controller for ProportionalController {
    fn maybe_update(
        &mut self,
        now: Nanos,
        estimates: &BackendEstimator,
        weights: &mut Weights,
    ) -> bool {
        if let Some(last) = self.last_action {
            if now.saturating_sub(last) < self.min_interval {
                return false;
            }
        }
        // A backend's pull, (1/e)ᵖ, if its estimate is usable: fresh and
        // positive.
        let power = self.power;
        let pull = |b: usize| {
            let e = estimates.fresh_estimate(b, now).filter(|&e| e > 0.0)?;
            Some((1.0 / e).powf(power))
        };
        // Shares and pulls are different units: a backend without an
        // estimate keeps its share, and the estimated ones divide the
        // mass they hold between them now, by pull.
        let (mut pulling, mut mass, mut total_pull) = (0, 0.0, 0.0);
        for b in (0..weights.len()).filter(|&b| !weights.ejected()[b]) {
            if let Some(p) = pull(b) {
                pulling += 1;
                mass += weights.get(b);
                total_pull += p;
            }
        }
        if pulling < 2 {
            return false; // nothing to differentiate
        }
        let changed = weights.remap(1e-4, |b, w| pull(b).map_or(w, |p| mass * p / total_pull));
        if changed {
            self.last_action = Some(now);
        }
        changed
    }

    fn name(&self) -> &'static str {
        "proportional"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    fn estimates_two(now: Nanos, lat0: Nanos, lat1: Nanos) -> BackendEstimator {
        let mut e = BackendEstimator::new(2, 1.0, 10_000 * MS);
        e.record(0, lat0, now);
        e.record(1, lat1, now);
        e
    }

    #[test]
    fn alpha_shift_moves_away_from_worst() {
        let mut ctl = AlphaShift::paper();
        let mut w = Weights::equal(2, 0.01);
        let est = estimates_two(0, MS, 3 * MS);
        assert!(ctl.maybe_update(1, &est, &mut w));
        assert!(
            (w.get(1) - 0.4).abs() < 1e-9,
            "worst lost 10%: {}",
            w.get(1)
        );
        assert!((w.get(0) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn alpha_shift_margin_suppresses_noise() {
        let mut ctl = AlphaShift {
            margin: 0.10,
            ..AlphaShift::paper()
        };
        let mut w = Weights::equal(2, 0.01);
        // 5% latency difference < 10% margin: no action.
        let est = estimates_two(0, 1_000_000, 1_050_000);
        assert!(!ctl.maybe_update(1, &est, &mut w));
        assert!((w.get(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn alpha_shift_respects_min_interval() {
        let mut ctl = AlphaShift {
            min_interval: 10 * MS,
            ..AlphaShift::paper()
        };
        let mut w = Weights::equal(2, 0.01);
        let est = estimates_two(0, MS, 3 * MS);
        assert!(ctl.maybe_update(0, &est, &mut w));
        assert!(
            !ctl.maybe_update(5 * MS, &est, &mut w),
            "acted within interval"
        );
        assert!(ctl.maybe_update(11 * MS, &est, &mut w));
    }

    #[test]
    fn alpha_shift_needs_comparable_estimates() {
        let mut ctl = AlphaShift::paper();
        let mut w = Weights::equal(2, 0.01);
        let mut est = BackendEstimator::new(2, 1.0, 10_000 * MS);
        assert!(!ctl.maybe_update(0, &est, &mut w));
        est.record(0, MS, 0);
        assert!(!ctl.maybe_update(1, &est, &mut w));
    }

    #[test]
    fn repeated_shifts_converge_to_floor() {
        let mut ctl = AlphaShift::paper();
        let mut w = Weights::equal(2, 0.05);
        let est = estimates_two(0, MS, 5 * MS);
        for t in 0..100 {
            ctl.maybe_update(t, &est, &mut w);
        }
        assert!((w.get(1) - 0.05).abs() < 1e-9, "worst pinned at floor");
        assert!((w.get(0) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn aimd_decreases_then_recovers() {
        let mut ctl = AimdController::new();
        let mut w = Weights::equal(2, 0.01);
        let est = estimates_two(0, MS, 4 * MS);
        assert!(ctl.maybe_update(0, &est, &mut w));
        let after_drop = w.get(1);
        assert!(after_drop < 0.45);
        // Now latencies equalize: recovery pulls weights back toward 0.5.
        let est = estimates_two(2 * MS, MS, MS);
        let mut t = 2 * MS;
        for _ in 0..200 {
            ctl.maybe_update(t, &est, &mut w);
            t += 2 * MS;
        }
        assert!((w.get(1) - 0.5).abs() < 0.01, "recovered to {}", w.get(1));
    }

    #[test]
    fn proportional_matches_inverse_latency() {
        let mut ctl = ProportionalController::new(1.0);
        let mut w = Weights::equal(2, 0.01);
        let est = estimates_two(0, MS, 3 * MS);
        assert!(ctl.maybe_update(0, &est, &mut w));
        // 1/1 : 1/3 normalized = 0.75 : 0.25.
        assert!((w.get(0) - 0.75).abs() < 0.01, "{}", w.get(0));
        assert!((w.get(1) - 0.25).abs() < 0.01);
    }

    #[test]
    fn proportional_holds_the_share_of_a_backend_whose_estimate_went_stale() {
        // Three equal backends; backend 2 goes silent past the staleness
        // window. Its normalized share must not be weighed against the
        // others' raw inverse latencies (which once handed it 0.96).
        let mut ctl = ProportionalController::new(1.0);
        let mut w = Weights::equal(3, 0.02);
        let mut est = BackendEstimator::new(3, 1.0, 500 * MS);
        for b in 0..3 {
            est.record(b, 250_000, 0);
        }
        est.record(0, 250_000, 600 * MS);
        est.record(1, 250_000, 600 * MS);
        assert!(!ctl.maybe_update(600 * MS, &est, &mut w), "nothing to move");
        assert_eq!(w, Weights::equal(3, 0.02));
        // Backend 1 slows to twice backend 0's latency: they split the
        // two thirds that are theirs 2:1, backend 2 keeps its third.
        for _ in 0..16 {
            est.record(1, 500_000, 601 * MS); // flush the median window
        }
        assert!(ctl.maybe_update(602 * MS, &est, &mut w));
        assert!((w.get(2) - 1.0 / 3.0).abs() < 1e-12, "held: {}", w.get(2));
        assert!((w.get(0) - 4.0 / 9.0).abs() < 1e-12, "{}", w.get(0));
        assert!((w.get(1) - 2.0 / 9.0).abs() < 1e-12, "{}", w.get(1));
    }

    #[test]
    fn controller_names() {
        assert_eq!(AlphaShift::paper().name(), "alpha-shift");
        assert_eq!(AimdController::new().name(), "aimd");
        assert_eq!(ProportionalController::new(1.0).name(), "proportional");
    }
}
