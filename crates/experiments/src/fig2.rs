//! Fig. 2 of the paper: timeout-based RTT estimation vs. ground truth on a
//! backlogged flow, with an RTT step mid-run.
//!
//! The experiment observes a window-limited bulk TCP flow at the LB
//! (client→server direction only). At `step_at`, 1 ms of delay is injected
//! on the LB→server path, raising the true RTT. We then compare:
//!
//! * **Fig. 2(a)**: `FIXEDTIMEOUT` with a too-low timeout (δ = 64 µs,
//!   producing a band of erroneously low estimates) and a too-high timeout
//!   (δ = 1024 µs, producing few, erroneously large estimates before the
//!   step) against the client's transport-level RTT samples.
//! * **Fig. 2(b)**: `ENSEMBLETIMEOUT`, which re-selects its timeout per
//!   64 ms epoch via the sample cliff and tracks the truth across the step.

use lbcore::{EnsembleConfig, EnsembleTimeout, FixedTimeout, FlowTiming};
use netsim::{Duration, Time, TraceKind};
use telemetry::{exact_percentile, AccuracySummary, Table};

use crate::topology::{BacklogScenario, BacklogScenarioConfig, VIP};

/// Common parameters for both Fig. 2 experiments.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Total run length.
    pub duration: Duration,
    /// When the RTT step happens (the paper's t = 3 s).
    pub step_at: Duration,
    /// Injected extra delay (1 ms in the paper).
    pub extra: Duration,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            duration: Duration::from_secs(6),
            step_at: Duration::from_secs(3),
            extra: Duration::from_millis(1),
            seed: 7,
        }
    }
}

/// The shared raw material: client→VIP packet arrival times at the LB and
/// client-side ground-truth RTT samples.
#[derive(Debug, Clone)]
pub struct Fig2Trace {
    /// Packet arrival times at the LB (ns).
    pub arrivals: Vec<u64>,
    /// `(time, rtt)` ground-truth samples at the client (ns).
    pub truth: Vec<(u64, u64)>,
    /// The step instant (ns).
    pub step_at: u64,
}

/// Runs the scenario once and extracts the trace.
pub fn capture_trace(cfg: &Fig2Config) -> Fig2Trace {
    let mut scenario = BacklogScenario::build(BacklogScenarioConfig {
        seed: cfg.seed,
        ..BacklogScenarioConfig::fig2_defaults()
    });
    let step_at = Time::ZERO + cfg.step_at;
    scenario.inject_delay(step_at, cfg.extra);
    observe(scenario, cfg.duration, step_at.as_nanos())
}

/// Runs `scenario` for `duration` with the packet trace on and extracts
/// the client→VIP arrivals at the LB and the client's RTT samples.
pub(crate) fn observe(
    mut scenario: BacklogScenario,
    duration: Duration,
    step_at: u64,
) -> Fig2Trace {
    scenario.sim.enable_trace(1 << 22);
    scenario.sim.run_for(duration);
    let lb = scenario.lb;
    let arrivals: Vec<u64> = scenario
        .sim
        .trace()
        .filter(|e| {
            e.node == lb
                && e.kind == TraceKind::Deliver
                && e.flow.map(|f| f.dst_ip == VIP).unwrap_or(false)
        })
        .map(|e| e.at.as_nanos())
        .collect();
    assert!(
        scenario.sim.trace().truncated == 0,
        "trace overflowed; raise capacity"
    );
    let client = scenario.client_app();
    assert!(
        client.rtt_dropped() == 0,
        "ground-truth RTT samples overflowed the client's cap"
    );
    let truth = client.rtt_raw().to_vec();
    Fig2Trace {
        arrivals,
        truth,
        step_at,
    }
}

/// Replays `FIXEDTIMEOUT` with timeout `delta` over an arrival series.
pub fn replay_fixed(arrivals: &[u64], delta: u64) -> Vec<(u64, u64)> {
    let alg = FixedTimeout::new(delta);
    let mut out = Vec::new();
    let Some((&first, rest)) = arrivals.split_first() else {
        return out;
    };
    let mut state = FlowTiming::first_packet(first);
    for &t in rest {
        if let Some(s) = alg.on_packet(&mut state, t) {
            out.push((t, s));
        }
    }
    out
}

/// A series of `(time, value)` pairs in nanoseconds.
pub type TimedSeries = Vec<(u64, u64)>;

/// Replays `ENSEMBLETIMEOUT` over an arrival series; returns the samples
/// and the per-epoch timeout decisions.
pub fn replay_ensemble(arrivals: &[u64], cfg: EnsembleConfig) -> (TimedSeries, TimedSeries) {
    let mut ens = EnsembleTimeout::new(cfg);
    let mut out = Vec::new();
    let Some((&first, rest)) = arrivals.split_first() else {
        return (out, Vec::new());
    };
    let mut state = ens.new_flow(first);
    let mut decisions = Vec::new();
    for &t in rest {
        if let Some(s) = ens.on_packet(&mut state, t) {
            out.push((t, s));
        }
        decisions.extend(ens.decision().map(|d| (d.at, d.delta)));
    }
    (out, decisions)
}

/// Fig. 2(a) results.
pub struct Fig2aResult {
    /// The captured trace.
    pub trace: Fig2Trace,
    /// Samples from δ = 64 µs.
    pub low: Vec<(u64, u64)>,
    /// Samples from δ = 1024 µs.
    pub high: Vec<(u64, u64)>,
    /// Accuracy vs. truth, before the step, for (low, high).
    pub pre_step: (AccuracySummary, AccuracySummary),
    /// Accuracy vs. truth, after the step, for (low, high).
    pub post_step: (AccuracySummary, AccuracySummary),
}

/// The values of `series` at instants in `[lo, hi)`.
pub(crate) fn values_in(series: &[(u64, u64)], lo: u64, hi: u64) -> Vec<u64> {
    series
        .iter()
        .filter(|&&(at, _)| (lo..hi).contains(&at))
        .map(|&(_, v)| v)
        .collect()
}

/// Runs Fig. 2(a).
pub fn run_fig2a(cfg: &Fig2Config) -> Fig2aResult {
    let trace = capture_trace(cfg);
    let low = replay_fixed(&trace.arrivals, 64_000);
    let high = replay_fixed(&trace.arrivals, 1_024_000);
    let step = trace.step_at;
    // `series` against the ground truth over `[lo, hi)`.
    let compare = |series: &[(u64, u64)], lo, hi| {
        let truth = values_in(&trace.truth, lo, hi);
        AccuracySummary::compare(&values_in(series, lo, hi), &truth, &[0.5])
    };
    Fig2aResult {
        pre_step: (compare(&low, 0, step), compare(&high, 0, step)),
        post_step: (
            compare(&low, step, u64::MAX),
            compare(&high, step, u64::MAX),
        ),
        trace,
        low,
        high,
    }
}

/// Width of the Fig. 2 tables' time bins.
const BIN: u64 = 250_000_000;

/// The start of every bin up to the last sample of `a` or `b`.
fn bin_starts(a: &[(u64, u64)], b: &[(u64, u64)]) -> impl Iterator<Item = u64> {
    let end = a.iter().chain(b).map(|&(t, _)| t).max().unwrap_or(0);
    (0..=end / BIN).map(|b| b * BIN)
}

/// The values of `series` in the bin starting at `lo`.
fn in_bin(series: &[(u64, u64)], lo: u64) -> Vec<u64> {
    values_in(series, lo, lo + BIN)
}

/// The median of `values` in µs, or "-".
fn median_us(values: &[u64]) -> String {
    exact_percentile(values, 0.5)
        .map(|x| format!("{:.1}", x as f64 / 1e3))
        .unwrap_or_else(|| "-".into())
}

/// Renders the Fig. 2(a) time series as a table: per 250 ms bin, the
/// median and count of each estimator and of the ground truth.
pub fn fig2a_table(r: &Fig2aResult) -> Table {
    let mut t = Table::new(
        "Fig 2(a): FIXEDTIMEOUT T_LB vs ground truth T_client (us; 250ms bins)",
        &[
            "t_s",
            "truth_med",
            "truth_n",
            "d64us_med",
            "d64us_n",
            "d1024us_med",
            "d1024us_n",
        ],
    );
    for lo in bin_starts(&r.trace.truth, &r.low) {
        let tr = in_bin(&r.trace.truth, lo);
        let lo_s = in_bin(&r.low, lo);
        let hi_s = in_bin(&r.high, lo);
        t.row(&[
            format!("{:.2}", lo as f64 / 1e9),
            median_us(&tr),
            tr.len().to_string(),
            median_us(&lo_s),
            lo_s.len().to_string(),
            median_us(&hi_s),
            hi_s.len().to_string(),
        ]);
    }
    t
}

/// Fig. 2(b) results.
pub struct Fig2bResult {
    /// The captured trace.
    pub trace: Fig2Trace,
    /// Ensemble samples.
    pub samples: Vec<(u64, u64)>,
    /// `(epoch boundary, chosen δ)` decisions.
    pub decisions: Vec<(u64, u64)>,
    /// Accuracy vs. truth before and after the step.
    pub pre_step: AccuracySummary,
    /// Accuracy after the step.
    pub post_step: AccuracySummary,
}

/// Runs Fig. 2(b).
pub fn run_fig2b(cfg: &Fig2Config) -> Fig2bResult {
    let trace = capture_trace(cfg);
    let (samples, decisions) = replay_ensemble(&trace.arrivals, EnsembleConfig::default());
    let step = trace.step_at;
    let truth_pre = values_in(&trace.truth, 0, step);
    let truth_post = values_in(&trace.truth, step, u64::MAX);
    // Skip the first 500 ms (ensemble warm-up) in the pre-step summary.
    let s_pre_warm = values_in(&samples, 500_000_001, step);
    let s_post = values_in(&samples, step, u64::MAX);
    let q = [0.5];
    Fig2bResult {
        pre_step: AccuracySummary::compare(&s_pre_warm, &truth_pre, &q),
        post_step: AccuracySummary::compare(&s_post, &truth_post, &q),
        trace,
        samples,
        decisions,
    }
}

/// Renders Fig. 2(b): per 250 ms bin, the ensemble estimate vs. truth,
/// plus the timeout the ensemble has currently chosen.
pub fn fig2b_table(r: &Fig2bResult) -> Table {
    let mut t = Table::new(
        "Fig 2(b): ENSEMBLETIMEOUT T_LB vs ground truth (us; 250ms bins)",
        &["t_s", "truth_med", "est_med", "est_n", "chosen_delta_us"],
    );
    for lo in bin_starts(&r.trace.truth, &r.samples) {
        let est = in_bin(&r.samples, lo);
        let chosen = r
            .decisions
            .iter()
            .take_while(|&&(at, _)| at <= lo + BIN)
            .last()
            .map(|&(_, d)| format!("{:.0}", d as f64 / 1e3))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            format!("{:.2}", lo as f64 / 1e9),
            median_us(&in_bin(&r.trace.truth, lo)),
            median_us(&est),
            est.len().to_string(),
            chosen,
        ]);
    }
    t
}
