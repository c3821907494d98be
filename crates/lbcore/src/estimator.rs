//! Per-backend latency aggregation feeding the controllers.
//!
//! `T_LB` samples from the ensemble estimator arrive tagged with the
//! backend the flow is pinned to. The controller wants a smoothed,
//! recency-weighted view per backend; this module provides a windowed
//! quantile (the robust control signal) and staleness tracking (a
//! backend that stops receiving samples must not be judged on ancient
//! data forever). It also keeps a per-backend EWMA, which no controller
//! reads.
//!
//! The controller reads the signal of *every* backend on every sample,
//! but a sample changes the window of *one*. So the count-window signal
//! is cached per backend and refreshed in [`BackendEstimator::record`]
//! for the backend that got the sample (one sort of at most
//! `DEFAULT_COUNT_WINDOW` values on a stack array);
//! [`BackendEstimator::fresh_estimate`], [`BackendEstimator::worst`] and
//! [`BackendEstimator::best_other`] are allocation-free scans over the
//! cached values. The time-horizon signal depends on `now`, so it is
//! computed at read time, on the same stack buffer, uncached.

use crate::Nanos;

/// Ring capacity for recent samples (time, value).
const WINDOW_CAP: usize = 64;
/// How many of the most recent samples the default count-based signal
/// uses.
const DEFAULT_COUNT_WINDOW: usize = 16;

/// Latency state for one backend.
#[derive(Debug, Clone)]
pub struct BackendEstimate {
    ewma: Option<f64>,
    alpha: f64,
    /// Ring buffer of the most recent `(time, value)` samples. `T_LB`
    /// occasionally produces wildly large values (merged batches) and
    /// small ones (split batches); a windowed quantile is robust to both
    /// where an EWMA is poisoned by a single merged-batch giant.
    window: [(Nanos, Nanos); WINDOW_CAP],
    window_len: usize,
    window_pos: usize,
    /// The count-window control signal, refreshed on every sample (see
    /// the module docs).
    signal: Option<f64>,
    samples: u64,
    last_sample_at: Nanos,
}

impl BackendEstimate {
    fn new(alpha: f64) -> BackendEstimate {
        BackendEstimate {
            ewma: None,
            alpha,
            window: [(0, 0); WINDOW_CAP],
            window_len: 0,
            window_pos: 0,
            signal: None,
            samples: 0,
            last_sample_at: 0,
        }
    }

    /// Feeds one latency sample (nanoseconds) observed at `now`;
    /// `signal_quantile` is the estimator's, for the cached signal.
    fn record(&mut self, latency: Nanos, now: Nanos, signal_quantile: f64) {
        let x = latency as f64;
        self.ewma = Some(match self.ewma {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        });
        self.window[self.window_pos] = (now, latency);
        self.window_pos = (self.window_pos + 1) % WINDOW_CAP;
        self.window_len = (self.window_len + 1).min(WINDOW_CAP);
        self.samples += 1;
        self.last_sample_at = now;
        self.signal = self.windowed_quantile(signal_quantile);
    }

    /// The smoothed latency in nanoseconds, if any sample arrived yet.
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }

    /// An arbitrary quantile of the most recent (count-based) samples.
    /// Higher quantiles (e.g. 0.9) make the signal variance-aware.
    pub fn windowed_quantile(&self, q: f64) -> Option<f64> {
        self.quantile_over(q, 0, None)
    }

    /// Quantile over a configurable window: count-based (the last
    /// `DEFAULT_COUNT_WINDOW` samples) when `horizon` is `None`, or over
    /// every retained sample within `horizon` of `now`. A time-based
    /// horizon gives the signal *memory spanning a periodic
    /// disturbance* — the fix the bursty-congestion experiments call for.
    pub fn quantile_over(&self, q: f64, now: Nanos, horizon: Option<Nanos>) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let take = match horizon {
            None => DEFAULT_COUNT_WINDOW.min(self.window_len),
            Some(_) => self.window_len,
        };
        let mut buf = [0; WINDOW_CAP];
        let mut len = 0;
        for i in 0..take {
            // Walk backwards from the most recent entry.
            let idx = (self.window_pos + WINDOW_CAP - 1 - i) % WINDOW_CAP;
            let (t, v) = self.window[idx];
            if let Some(h) = horizon {
                if now.saturating_sub(t) > h {
                    break; // older entries are older still
                }
            }
            buf[len] = v;
            len += 1;
        }
        if len == 0 {
            return None;
        }
        let w = &mut buf[..len];
        w.sort_unstable();
        let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
        Some(w[rank - 1] as f64)
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Time of the most recent sample.
    pub fn last_sample_at(&self) -> Nanos {
        self.last_sample_at
    }
}

/// Estimates for all backends of one LB.
#[derive(Debug, Clone)]
pub struct BackendEstimator {
    backends: Vec<BackendEstimate>,
    staleness_limit: Nanos,
    signal_quantile: f64,
    signal_horizon: Option<Nanos>,
}

impl BackendEstimator {
    /// Creates estimators for `n` backends.
    ///
    /// `alpha` is the EWMA gain (0 < α ≤ 1; higher = more reactive).
    /// `staleness_limit` bounds how old a backend's estimate may be before
    /// [`BackendEstimator::fresh_estimate`] discards it. The control
    /// signal defaults to the windowed median; see
    /// [`BackendEstimator::with_signal_quantile`].
    pub fn new(n: usize, alpha: f64, staleness_limit: Nanos) -> BackendEstimator {
        assert!(n > 0, "at least one backend");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        BackendEstimator {
            backends: (0..n).map(|_| BackendEstimate::new(alpha)).collect(),
            staleness_limit,
            signal_quantile: 0.5,
            signal_horizon: None,
        }
    }

    /// Changes the windowed quantile used as the control signal.
    pub fn with_signal_quantile(mut self, q: f64) -> BackendEstimator {
        assert!(q > 0.0 && q <= 1.0, "signal quantile out of range");
        self.signal_quantile = q;
        for e in &mut self.backends {
            e.signal = e.windowed_quantile(q);
        }
        self
    }

    /// Switches the control signal to a time-based window: the quantile is
    /// computed over every retained sample from the last `horizon_ns`
    /// (up to the ring capacity) instead of a fixed sample count.
    pub fn with_signal_horizon(mut self, horizon_ns: Nanos) -> BackendEstimator {
        assert!(horizon_ns > 0, "horizon must be positive");
        self.signal_horizon = Some(horizon_ns);
        self
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True if there are no backends (never constructible).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Records a sample for backend `b`.
    pub fn record(&mut self, b: usize, latency: Nanos, now: Nanos) {
        self.backends[b].record(latency, now, self.signal_quantile);
    }

    /// One backend's state.
    pub fn backend(&self, b: usize) -> &BackendEstimate {
        &self.backends[b]
    }

    /// The control signal for backend `b` (windowed quantile, median by
    /// default), if it exists and is fresh at `now`.
    pub fn fresh_estimate(&self, b: usize, now: Nanos) -> Option<f64> {
        let e = &self.backends[b];
        let est = match self.signal_horizon {
            None => e.signal?,
            Some(_) => e.quantile_over(self.signal_quantile, now, self.signal_horizon)?,
        };
        if now.saturating_sub(e.last_sample_at) > self.staleness_limit {
            None
        } else {
            Some(est)
        }
    }

    /// The backend with the highest fresh latency estimate, with its value
    /// — the controller's "worst server". `None` until at least two
    /// backends have fresh estimates (with fewer there is nothing to
    /// compare).
    pub fn worst(&self, now: Nanos) -> Option<(usize, f64)> {
        let mut fresh = 0;
        let worst = (0..self.backends.len())
            .filter_map(|b| self.fresh_estimate(b, now).map(|e| (b, e)))
            .inspect(|_| fresh += 1)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        if fresh < 2 {
            return None;
        }
        worst
    }

    /// The lowest fresh estimate among backends other than `excluding`.
    pub fn best_other(&self, excluding: usize, now: Nanos) -> Option<f64> {
        (0..self.backends.len())
            .filter(|&b| b != excluding)
            .filter_map(|b| self.fresh_estimate(b, now))
            .min_by(|a, b| a.total_cmp(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    #[test]
    fn ewma_converges() {
        let mut est = BackendEstimator::new(2, 0.2, 10_000 * MS);
        for i in 0..100 {
            est.record(0, MS, i);
        }
        let e = est.backend(0).ewma().unwrap();
        assert!((e - MS as f64).abs() < 1.0);
        assert_eq!(est.backend(0).samples(), 100);
        assert_eq!(est.backend(1).ewma(), None);
    }

    #[test]
    fn ewma_tracks_step() {
        let mut est = BackendEstimator::new(1, 0.2, 10_000 * MS);
        for i in 0..50 {
            est.record(0, MS, i);
        }
        for i in 50..100 {
            est.record(0, 2 * MS, i);
        }
        let e = est.backend(0).ewma().unwrap();
        assert!(e > 1.9 * MS as f64, "ewma {e} lags");
    }

    #[test]
    fn worst_picks_highest() {
        let mut est = BackendEstimator::new(3, 0.5, 10_000 * MS);
        est.record(0, MS, 0);
        est.record(1, 3 * MS, 0);
        est.record(2, 2 * MS, 0);
        let (b, v) = est.worst(1).unwrap();
        assert_eq!(b, 1);
        assert!((v - 3.0 * MS as f64).abs() < 1.0);
        assert!((est.best_other(1, 1).unwrap() - MS as f64).abs() < 1.0);
    }

    #[test]
    fn worst_requires_two_fresh() {
        let mut est = BackendEstimator::new(2, 0.5, 10_000 * MS);
        assert_eq!(est.worst(0), None);
        est.record(0, MS, 0);
        assert_eq!(est.worst(1), None, "one estimate is not comparable");
        est.record(1, 2 * MS, 1);
        assert!(est.worst(2).is_some());
    }

    #[test]
    fn staleness_discards_old_estimates() {
        let mut est = BackendEstimator::new(2, 0.5, 100 * MS);
        est.record(0, MS, 0);
        est.record(1, 5 * MS, 0);
        assert_eq!(est.worst(50 * MS).unwrap().0, 1);
        // Backend 1 goes silent; long past the limit its estimate is gone.
        est.record(0, MS, 400 * MS);
        assert_eq!(est.fresh_estimate(1, 400 * MS), None);
        assert_eq!(est.worst(400 * MS), None);
    }

    #[test]
    fn time_horizon_sees_past_bursts() {
        // A burst of ten 2 ms samples at t = 0..1 ms, then forty fast
        // 100 µs samples over the next 4 ms. The count-window median has
        // forgotten the burst; a 10 ms horizon's p90 still remembers it.
        let mut e = BackendEstimator::new(1, 0.5, u64::MAX);
        for i in 0..10u64 {
            e.record(0, 2 * MS, i * 100_000);
        }
        for i in 0..40u64 {
            e.record(0, 100_000, MS + i * 100_000);
        }
        let now = 5 * MS;
        let count_median = e.backend(0).quantile_over(0.5, now, None).unwrap();
        assert!(
            count_median < 200_000.0,
            "count window should be all-fast: {count_median}"
        );
        let horizon_p90 = e.backend(0).quantile_over(0.9, now, Some(10 * MS)).unwrap();
        assert!(
            horizon_p90 >= 2.0 * MS as f64,
            "10 ms horizon p90 must remember the burst: {horizon_p90}"
        );
        // A horizon shorter than the data's age excludes the burst.
        let short_p90 = e.backend(0).quantile_over(0.9, now, Some(2 * MS)).unwrap();
        assert!(
            short_p90 < 200_000.0,
            "2 ms horizon should be all-fast: {short_p90}"
        );
    }

    #[test]
    fn estimator_with_horizon_controls_freshness_consistently() {
        let mut e = BackendEstimator::new(2, 0.5, 100 * MS).with_signal_horizon(50 * MS);
        e.record(0, MS, 0);
        e.record(1, 2 * MS, 0);
        // Within the horizon and freshness: comparable.
        assert!(e.worst(10 * MS).is_some());
        // Past the horizon the windows go empty even before staleness.
        assert_eq!(e.fresh_estimate(0, 60 * MS), None);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn bad_alpha_rejected() {
        let _ = BackendEstimator::new(1, 0.0, 0);
    }
}
