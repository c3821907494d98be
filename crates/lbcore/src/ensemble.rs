//! Algorithm 2 of the paper: `ENSEMBLETIMEOUT` with sample-cliff detection.
//!
//! One `FIXEDTIMEOUT` instance cannot know the right δ: it depends on the
//! propagation delay, the flow's share of the bottleneck, and the client's
//! transmission pattern, all of which drift. Algorithm 2 runs k instances
//! with exponentially spaced timeouts simultaneously and exploits the
//! asymmetry of their failure modes:
//!
//! * δ too **low** → *extra* (erroneously low) samples,
//! * δ too **high** → *missing* samples (batches merge),
//!
//! so over an epoch E, the per-timeout sample counts N₁ ≥ N₂ ≥ … ≥ Nₖ drop
//! sharply — a *cliff* — right after the best timeout. At each epoch
//! boundary the algorithm picks δₘ at the largest Nᵢ/Nᵢ₊₁ ratio and uses it
//! to report samples during the next epoch.

use crate::Nanos;

/// How the epoch-boundary decision picks δₘ from the counts N₁…Nₖ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CliffRule {
    /// The paper's rule (Algorithm 2, line 8): m = argmaxᵢ Nᵢ/Nᵢ₊₁.
    ///
    /// Correct when the count profile is flat-then-cliff, as for the
    /// backlogged window-limited flow of Fig. 2. For request/response
    /// traffic whose batch gaps *are* the (widely distributed) response
    /// latencies, the counts decay smoothly and the largest ratio sits in
    /// the far tail — the rule then picks a δ so large that batches merge
    /// and samples become garbage (a failure mode this reproduction
    /// documents in EXPERIMENTS.md).
    ArgmaxRatio,
    /// Robust variant: pick the *start of the flat plateau* — the smallest
    /// i whose step ratio Nᵢ/Nᵢ₊₁ drops to ≤ `rho` (i.e., just past the
    /// split-inflation cliff). Falls back to the paper's rule when no
    /// step is flat.
    FlatHead {
        /// Flatness threshold (e.g. 1.5).
        rho: f64,
    },
}

/// Configuration for [`EnsembleTimeout`].
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// The candidate timeouts δ₁ < δ₂ < … < δₖ, in nanoseconds.
    pub timeouts: Vec<Nanos>,
    /// Epoch length E over which sample counts are accumulated.
    pub epoch: Nanos,
    /// The decision rule at epoch boundaries.
    pub rule: CliffRule,
    /// Keep the previous δₑ when an epoch produced fewer samples than
    /// this (not enough evidence to re-decide).
    pub min_epoch_samples: u64,
}

impl Default for EnsembleConfig {
    /// The paper's parameters: δ = 64 µs, 128 µs, …, 4 ms (k = 7),
    /// E = 64 ms, argmax-ratio cliff detection.
    fn default() -> Self {
        EnsembleConfig {
            timeouts: (0..7).map(|i| 64_000u64 << i).collect(),
            epoch: 64_000_000,
            rule: CliffRule::ArgmaxRatio,
            min_epoch_samples: 8,
        }
    }
}

impl EnsembleConfig {
    /// The robust configuration used by the latency-aware LB: paper
    /// timeouts and epoch, flat-head cliff detection.
    pub fn robust() -> EnsembleConfig {
        EnsembleConfig {
            rule: CliffRule::FlatHead { rho: 1.5 },
            ..EnsembleConfig::default()
        }
    }

    /// Validates and returns the number of timeouts k.
    fn validate(&self) -> usize {
        assert!(
            self.timeouts.len() >= 2,
            "ensemble needs at least two timeouts"
        );
        assert!(
            self.timeouts.len() <= MAX_TIMEOUTS,
            "ensemble takes at most {MAX_TIMEOUTS} timeouts (a flow keeps one batch anchor \
             per timeout inline), got {}",
            self.timeouts.len()
        );
        assert!(self.epoch > 0, "epoch must be positive");
        assert!(
            self.timeouts.windows(2).all(|w| w[0] < w[1]),
            "timeouts must be strictly increasing"
        );
        self.timeouts.len()
    }
}

/// The most timeouts an ensemble may run: the paper uses 7, and ABL-K
/// sweeps k up to 9.
pub const MAX_TIMEOUTS: usize = 9;

/// Per-flow state for the ensemble: one shared `time_last_pkt` plus one
/// `time_last_batch` per timeout (the paper's `f.time_last_batchᵢ`).
/// Inline, so a new flow allocates nothing.
#[derive(Debug, Clone)]
pub struct EnsembleFlowState {
    /// Arrival time of the flow's most recent packet.
    time_last_pkt: Nanos,
    /// Per-timeout batch anchors; an ensemble of k timeouts uses the
    /// first k.
    time_last_batch: [Nanos; MAX_TIMEOUTS],
}

impl EnsembleFlowState {
    /// Initializes state at the flow's first observed packet.
    pub fn first_packet(now: Nanos) -> EnsembleFlowState {
        EnsembleFlowState {
            time_last_pkt: now,
            time_last_batch: [now; MAX_TIMEOUTS],
        }
    }
}

/// One epoch decision: when it was made, what it chose, and the counts it
/// chose from. Inline, so deciding allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct EpochDecision {
    /// When the decision was made (the epoch boundary).
    pub at: Nanos,
    /// Index of the chosen timeout.
    pub chosen: usize,
    /// The chosen timeout value in nanoseconds.
    pub delta: Nanos,
    /// The per-timeout sample counts N₁…Nₖ, in the first k slots.
    counts: [u64; MAX_TIMEOUTS],
    k: usize,
}

impl EpochDecision {
    /// The per-timeout sample counts N₁…Nₖ the decision was made from.
    pub fn counts(&self) -> &[u64] {
        &self.counts[..self.k]
    }
}

/// Algorithm 2: the ensemble estimator. Sample counts are aggregated
/// across every flow the instance sees; the LB runs one instance per
/// backend, so each backend's flows pick their own δₑ.
#[derive(Debug, Clone)]
pub struct EnsembleTimeout {
    /// The k candidate timeouts δ₁ < … < δₖ, one `FIXEDTIMEOUT` each.
    cfg: EnsembleConfig,
    /// Sample counts Nᵢ for the current epoch, in the first k slots.
    counts: [u64; MAX_TIMEOUTS],
    /// Index of the epoch the counts belong to.
    epoch_index: u64,
    /// Index of δₑ, the timeout whose samples are reported this epoch.
    chosen: usize,
    /// The decision the latest `on_packet` made, if it closed an epoch
    /// with enough samples to decide.
    decision: Option<EpochDecision>,
}

impl EnsembleTimeout {
    /// Creates the estimator; the initial δₑ is the smallest timeout, as
    /// the cheapest way to start (it will correct at the first boundary).
    pub fn new(cfg: EnsembleConfig) -> EnsembleTimeout {
        cfg.validate();
        EnsembleTimeout {
            cfg,
            counts: [0; MAX_TIMEOUTS],
            epoch_index: 0,
            chosen: 0,
            decision: None,
        }
    }

    /// Number of candidate timeouts.
    pub fn k(&self) -> usize {
        self.cfg.timeouts.len()
    }

    /// The currently selected timeout δₑ in nanoseconds.
    pub fn current_delta(&self) -> Nanos {
        self.cfg.timeouts[self.chosen]
    }

    /// Per-timeout sample counts accumulated in the current epoch.
    pub fn epoch_counts(&self) -> &[u64] {
        &self.counts[..self.k()]
    }

    /// The epoch decision the latest [`on_packet`](Self::on_packet) made,
    /// if it closed an epoch with enough samples to decide.
    pub fn decision(&self) -> Option<&EpochDecision> {
        self.decision.as_ref()
    }

    /// Fresh per-flow state.
    pub fn new_flow(&self, now: Nanos) -> EnsembleFlowState {
        EnsembleFlowState::first_packet(now)
    }

    /// Processes a packet arrival for one flow. Returns `Some(T_LB)` when
    /// the *currently chosen* timeout produces a sample. Internally updates
    /// all k instances and, at epoch boundaries, re-selects δₑ via the
    /// sample cliff.
    pub fn on_packet(&mut self, f: &mut EnsembleFlowState, now: Nanos) -> Option<Nanos> {
        self.decision = None;
        // Epoch boundary first (the paper runs it on the first packet of a
        // new epoch, before reporting).
        let epoch_now = now / self.cfg.epoch;
        if epoch_now != self.epoch_index {
            self.finish_epoch(now);
            self.epoch_index = epoch_now;
        }

        let mut chosen_sample = None;
        let gap = now.saturating_sub(f.time_last_pkt);
        for (i, &delta) in self.cfg.timeouts.iter().enumerate() {
            // Inline FIXEDTIMEOUT sharing time_last_pkt across instances.
            if gap > delta {
                let t_lb = now.saturating_sub(f.time_last_batch[i]);
                f.time_last_batch[i] = now;
                self.counts[i] += 1;
                if i == self.chosen {
                    chosen_sample = Some(t_lb);
                }
            }
        }
        f.time_last_pkt = now;
        chosen_sample
    }

    /// Applies the sample-cliff rule and resets counts.
    fn finish_epoch(&mut self, now: Nanos) {
        let k = self.k();
        let total: u64 = self.counts.iter().sum();
        if total >= self.cfg.min_epoch_samples {
            // Laplace smoothing (+1) keeps ratios finite when a larger
            // timeout produced zero samples, preserving the ordering.
            let ratio =
                |i: usize| (self.counts[i] as f64 + 1.0) / (self.counts[i + 1] as f64 + 1.0);
            let argmax = || {
                let mut best_i = self.chosen;
                let mut best_ratio = f64::MIN;
                for i in 0..k - 1 {
                    if ratio(i) > best_ratio {
                        best_ratio = ratio(i);
                        best_i = i;
                    }
                }
                best_i
            };
            let best_i = match self.cfg.rule {
                // m = argmaxᵢ Nᵢ / Nᵢ₊₁ (paper, Algorithm 2 line 8).
                CliffRule::ArgmaxRatio => argmax(),
                // Smallest i whose step is flat: the first timeout past
                // the split-inflation cliff.
                CliffRule::FlatHead { rho } => (0..k - 1)
                    .find(|&i| self.counts[i] > 0 && ratio(i) <= rho)
                    .unwrap_or_else(argmax),
            };
            self.chosen = best_i;
            self.decision = Some(EpochDecision {
                at: now,
                chosen: best_i,
                delta: self.cfg.timeouts[best_i],
                counts: self.counts,
                k,
            });
        }
        self.counts = [0; MAX_TIMEOUTS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Nanos = 1_000;
    const MS: Nanos = 1_000_000;

    /// Generates a periodic batched arrival process: batches of
    /// `batch_len` packets spaced `intra` apart, with batch starts every
    /// `period`, from `start` until `end`.
    fn batched_arrivals(
        start: Nanos,
        end: Nanos,
        period: Nanos,
        batch_len: u64,
        intra: Nanos,
    ) -> Vec<Nanos> {
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            for i in 0..batch_len {
                out.push(t + i * intra);
            }
            t += period;
        }
        out
    }

    fn feed(
        ens: &mut EnsembleTimeout,
        arrivals: &[Nanos],
    ) -> (Vec<(Nanos, Nanos)>, Vec<EpochDecision>) {
        let mut flow = ens.new_flow(arrivals[0]);
        let (mut samples, mut decisions) = (Vec::new(), Vec::new());
        for &t in &arrivals[1..] {
            if let Some(s) = ens.on_packet(&mut flow, t) {
                samples.push((t, s));
            }
            decisions.extend(ens.decision().copied());
        }
        (samples, decisions)
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = EnsembleConfig::default();
        assert_eq!(cfg.timeouts.len(), 7);
        assert_eq!(cfg.timeouts[0], 64 * US);
        // The paper quotes "δ₇ = 4 ms"; exact doubling from 64 µs gives
        // 4096 µs, which is what "4 ms" rounds from.
        assert_eq!(cfg.timeouts[6], 4096 * US);
        assert_eq!(cfg.epoch, 64 * MS);
    }

    #[test]
    fn converges_to_separating_timeout() {
        // Intra-batch gap 90 µs, inter-batch period 1 ms: timeouts 64 µs
        // splits batches; 128/256/512 µs separate correctly; 1–4 ms merge.
        // After the first epoch the cliff should sit in the separating band.
        let mut ens = EnsembleTimeout::new(EnsembleConfig::default());
        let arrivals = batched_arrivals(0, 200 * MS, MS, 4, 90 * US);
        let (_, decisions) = feed(&mut ens, &arrivals);
        let last = decisions.last().expect("no epoch decided");
        assert!(
            (128 * US..=512 * US).contains(&last.delta),
            "chose {} which does not separate 90us from 1ms",
            last.delta
        );
    }

    #[test]
    fn chosen_timeout_reports_true_rtt() {
        let mut ens = EnsembleTimeout::new(EnsembleConfig::default());
        let arrivals = batched_arrivals(0, 500 * MS, MS, 4, 20 * US);
        let (samples, _) = feed(&mut ens, &arrivals);
        // Ignore the first epoch (δₑ still defaulted); after convergence
        // samples must equal the 1 ms batch period.
        let late: Vec<Nanos> = samples
            .iter()
            .filter(|&&(t, _)| t > 128 * MS)
            .map(|&(_, s)| s)
            .collect();
        assert!(!late.is_empty());
        let exact = late.iter().filter(|&&s| s == MS).count();
        assert!(
            exact as f64 >= 0.9 * late.len() as f64,
            "only {}/{} samples equal the true RTT",
            exact,
            late.len()
        );
    }

    #[test]
    fn tracks_rtt_increase() {
        // RTT (batch period) jumps from 500 µs to 2 ms halfway: the chosen
        // timeout must move upward across the change (Fig. 2(b)).
        let mut ens = EnsembleTimeout::new(EnsembleConfig::default());
        let mut arrivals = batched_arrivals(0, 300 * MS, 500 * US, 3, 30 * US);
        arrivals.extend(batched_arrivals(300 * MS, 600 * MS, 2 * MS, 3, 100 * US));
        let (samples, _) = feed(&mut ens, &arrivals);
        let early: Vec<Nanos> = samples
            .iter()
            .filter(|&&(t, _)| (100 * MS..300 * MS).contains(&t))
            .map(|&(_, s)| s)
            .collect();
        let late: Vec<Nanos> = samples
            .iter()
            .filter(|&&(t, _)| t > 450 * MS)
            .map(|&(_, s)| s)
            .collect();
        let med = |v: &[Nanos]| {
            let mut s = v.to_vec();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(!early.is_empty() && !late.is_empty());
        assert_eq!(med(&early), 500 * US, "early estimates off");
        assert_eq!(
            med(&late),
            2 * MS,
            "late estimates did not track the increase"
        );
    }

    #[test]
    fn counts_reset_each_epoch() {
        let mut ens = EnsembleTimeout::new(EnsembleConfig::default());
        let arrivals = batched_arrivals(0, 96 * MS, MS, 2, 10 * US);
        let _ = feed(&mut ens, &arrivals);
        // We are in the middle of the second epoch: counts reflect only it.
        let total: u64 = ens.epoch_counts().iter().sum();
        assert!(total > 0);
        assert!(total < 200, "counts were never reset");
    }

    #[test]
    fn multiple_flows_share_the_ensemble() {
        // Two flows with the same batch period: per-flow state is separate,
        // counts aggregate, and both produce correct samples.
        let mut ens = EnsembleTimeout::new(EnsembleConfig::default());
        let a = batched_arrivals(0, 300 * MS, MS, 3, 20 * US);
        let b = batched_arrivals(137 * US, 300 * MS, MS, 3, 20 * US);
        let mut fa = ens.new_flow(a[0]);
        let mut fb = ens.new_flow(b[0]);
        let (mut ia, mut ib) = (1usize, 1usize);
        let mut good = 0u64;
        let mut all = 0u64;
        // Merge the two arrival streams in time order.
        while ia < a.len() || ib < b.len() {
            let (t, f) = if ib >= b.len() || (ia < a.len() && a[ia] <= b[ib]) {
                ia += 1;
                (a[ia - 1], &mut fa)
            } else {
                ib += 1;
                (b[ib - 1], &mut fb)
            };
            if let Some(s) = ens.on_packet(f, t) {
                if t > 128 * MS {
                    all += 1;
                    if s == MS {
                        good += 1;
                    }
                }
            }
        }
        assert!(all > 0);
        assert!(good as f64 >= 0.9 * all as f64, "{good}/{all} correct");
    }

    #[test]
    fn flathead_beats_argmax_on_smooth_gap_distributions() {
        // Request/response-like traffic: inter-batch gaps ARE the response
        // latencies, drawn from a smooth distribution spanning the timeout
        // grid (100 µs .. 2 ms, heavy on the low end). The argmax rule
        // latches onto the tail; flat-head stays at the head.
        let mut gaps = Vec::new();
        for i in 0..4000u64 {
            // Deterministic smooth mixture: mostly 100-400 µs, a tail to 2 ms.
            let x = (i * 2654435761) % 1000;
            let gap = if x < 700 {
                100_000 + x * 400 // 100–380 µs
            } else if x < 950 {
                400_000 + (x - 700) * 2_400 // 0.4–1.0 ms
            } else {
                1_000_000 + (x - 950) * 20_000 // 1–2 ms
            };
            gaps.push(gap);
        }
        let arrivals: Vec<Nanos> = {
            let mut t = 0;
            let mut out = vec![0];
            for g in &gaps {
                t += g;
                out.push(t);
            }
            out
        };
        let run = |rule: CliffRule| {
            let mut ens = EnsembleTimeout::new(EnsembleConfig {
                rule,
                ..EnsembleConfig::default()
            });
            let (_, decisions) = feed(&mut ens, &arrivals);
            let med = |v: &mut Vec<Nanos>| {
                v.sort_unstable();
                v[v.len() / 2]
            };
            let mut chosen: Vec<Nanos> = decisions.iter().map(|d| d.delta).collect();
            med(&mut chosen)
        };
        let argmax_delta = run(CliffRule::ArgmaxRatio);
        let flathead_delta = run(CliffRule::FlatHead { rho: 1.5 });
        // Every gap exceeds 64 µs, so δ = 64 µs yields exactly one sample
        // per true gap — the correct choice. Flat-head finds it; argmax
        // climbs the tail.
        assert_eq!(flathead_delta, 64 * US, "flat-head should sit at the head");
        assert!(
            argmax_delta >= 4 * flathead_delta,
            "argmax ({argmax_delta}) should have chased the tail"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_timeouts_rejected() {
        let _ = EnsembleTimeout::new(EnsembleConfig {
            timeouts: vec![128 * US, 64 * US],
            ..EnsembleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at most 9 timeouts")]
    fn too_many_timeouts_rejected() {
        let _ = EnsembleTimeout::new(EnsembleConfig {
            timeouts: (0..10).map(|i| (64 * US) << i).collect(),
            ..EnsembleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_timeout_rejected() {
        let _ = EnsembleTimeout::new(EnsembleConfig {
            timeouts: vec![64 * US],
            ..EnsembleConfig::default()
        });
    }
}
