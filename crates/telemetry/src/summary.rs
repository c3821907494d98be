//! Estimate-vs-ground-truth accuracy summaries.
//!
//! The paper's measurement claim is that `T_LB` (estimated at the LB from
//! causally-triggered transmissions) tracks `T_client` (the true response
//! latency). This module quantifies that claim for the reproduction:
//! sample-count ratios and distribution-level error between the two.

use crate::percentile::exact_percentile;

/// A comparison between an estimated latency sample set and ground truth.
#[derive(Debug, Clone)]
pub struct AccuracySummary {
    /// Number of estimated samples.
    pub estimate_count: usize,
    /// Number of ground-truth samples.
    pub truth_count: usize,
    /// Ratio `estimate_count / truth_count` (the paper's sample-cliff logic
    /// reasons about exactly this: a good timeout yields ≈1.0).
    pub sample_ratio: f64,
    /// Relative error of selected quantiles: `(q, est, truth, rel_err)`.
    pub quantile_errors: Vec<(f64, u64, u64, f64)>,
    /// Median of per-quantile absolute relative errors.
    pub median_rel_err: f64,
}

impl AccuracySummary {
    /// Compares `estimates` against `truth` (both in nanoseconds) at the
    /// given quantiles (defaults to the quartiles + p95 when empty).
    pub fn compare(estimates: &[u64], truth: &[u64], quantiles: &[f64]) -> AccuracySummary {
        let default_q = [0.25, 0.5, 0.75, 0.95];
        let qs: &[f64] = if quantiles.is_empty() {
            &default_q
        } else {
            quantiles
        };
        let mut quantile_errors = Vec::with_capacity(qs.len());
        let mut errs = Vec::with_capacity(qs.len());
        for &q in qs {
            let est = exact_percentile(estimates, q).unwrap_or(0);
            let tru = exact_percentile(truth, q).unwrap_or(0);
            let rel = if tru == 0 {
                if est == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (est as f64 - tru as f64).abs() / tru as f64
            };
            quantile_errors.push((q, est, tru, rel));
            errs.push(rel);
        }
        errs.sort_by(|a, b| a.total_cmp(b));
        let median_rel_err = if errs.is_empty() {
            0.0
        } else {
            errs[errs.len() / 2]
        };
        let sample_ratio = if truth.is_empty() {
            0.0
        } else {
            estimates.len() as f64 / truth.len() as f64
        };
        AccuracySummary {
            estimate_count: estimates.len(),
            truth_count: truth.len(),
            sample_ratio,
            quantile_errors,
            median_rel_err,
        }
    }

    /// True when the estimate distribution is within `tol` relative error
    /// at every compared quantile.
    pub fn within(&self, tol: f64) -> bool {
        self.quantile_errors.iter().all(|&(_, _, _, e)| e <= tol)
    }
}

impl core::fmt::Display for AccuracySummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "samples: est={} truth={} ratio={:.3}",
            self.estimate_count, self.truth_count, self.sample_ratio
        )?;
        for (q, est, tru, rel) in &self.quantile_errors {
            writeln!(
                f,
                "  p{:<4} est={:>10}ns truth={:>10}ns rel_err={:.3}",
                q * 100.0,
                est,
                tru,
                rel
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::float_cmp)] // identical inputs: exactly 1 and 0
    fn identical_sets_have_zero_error() {
        let v: Vec<u64> = (1..1000).collect();
        let s = AccuracySummary::compare(&v, &v, &[]);
        assert_eq!(s.sample_ratio, 1.0);
        assert!(s.within(0.0001));
        assert_eq!(s.median_rel_err, 0.0);
    }

    #[test]
    fn biased_estimates_show_error() {
        let truth: Vec<u64> = (1..1000).map(|x| x * 100).collect();
        let est: Vec<u64> = truth.iter().map(|x| x * 2).collect();
        let s = AccuracySummary::compare(&est, &truth, &[0.5]);
        assert!(!s.within(0.5));
        assert!((s.quantile_errors[0].3 - 1.0).abs() < 0.01);
    }

    #[test]
    fn sample_ratio_reflects_counts() {
        let truth = vec![100; 100];
        let est = vec![100; 250];
        let s = AccuracySummary::compare(&est, &truth, &[0.5]);
        assert!((s.sample_ratio - 2.5).abs() < 1e-9);
        assert!(s.within(0.01)); // values agree even though counts differ
    }

    #[test]
    #[allow(clippy::float_cmp)] // no truth: exactly 0
    fn empty_truth_handled() {
        let s = AccuracySummary::compare(&[1, 2, 3], &[], &[0.5]);
        assert_eq!(s.truth_count, 0);
        assert_eq!(s.sample_ratio, 0.0);
        assert!(!s.within(10.0)); // infinite error at the quantile
    }

    #[test]
    fn display_renders() {
        let s = AccuracySummary::compare(&[1, 2, 3], &[1, 2, 3], &[0.5]);
        let out = s.to_string();
        assert!(out.contains("ratio=1.000"));
    }
}
