//! Property-based tests for the measurement toolkit.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use telemetry::span::HOP_KINDS;
use telemetry::{
    exact_percentile, BinnedSeries, HopRecord, LogHistogram, ScalarSeries, SpanLog, SpanMode,
};

/// The values a varint, a zigzag delta or the `b` rotate is most likely
/// to get wrong: both sides of the 1-byte and 32-bit boundaries, the top
/// bit alone, and all ones.
const EDGES: [u64; 8] = [
    0,
    1,
    (1 << 7) - 1,
    (1 << 7) + 1,
    (1 << 32) - 1,
    (1 << 32) + 1,
    1 << 63,
    u64::MAX,
];

/// An edge value two times in three, otherwise any `u64`.
fn operand() -> impl Strategy<Value = u64> {
    (0usize..12, any::<u64>()).prop_map(|(sel, random)| EDGES.get(sel).copied().unwrap_or(random))
}

/// One step of a span-log workout: drain the log, or record a hop built
/// from fresh operands and the previous hop under `mask` — bits 0–3 keep
/// the previous `at` / `trace` / `node` / `a` (long runs of identical
/// fields), bit 4 moves `at` by a small signed `step` instead (time
/// running backwards by a little, the way a service start does).
#[derive(Debug, Clone)]
struct Step {
    take: bool,
    mask: u8,
    step: i64,
    fresh: HopRecord,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let fresh = (
        0usize..HOP_KINDS.len(),
        operand(),
        operand(),
        operand(),
        operand(),
        operand(),
    )
        .prop_map(|(kind, at, trace, node, a, b)| HopRecord {
            at,
            trace,
            kind: HOP_KINDS[kind],
            // Edges land on 0, 1, 127, 129 and u32::MAX.
            node: node.min(u64::from(u32::MAX)) as u32,
            a,
            b,
        });
    proptest::collection::vec(
        (0u8..12, 0u8..32, -200i64..200, fresh).prop_map(|(take, mask, step, fresh)| Step {
            take: take == 0,
            mask,
            step,
            fresh,
        }),
        1..80,
    )
}

/// Drives `log` and a plain-vector model through `steps` and compares
/// them after every one. The model is the old store: push while under
/// the cap, count a drop otherwise, `take` = `mem::take`.
fn check_against_model(cap: usize, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut log = SpanLog::new(SpanMode::Full(cap));
    let mut model: Vec<HopRecord> = Vec::new();
    let mut dropped = 0u64;
    let mut prev = steps[0].fresh;
    for s in steps {
        if s.take {
            prop_assert_eq!(log.take(), std::mem::take(&mut model));
            prop_assert_eq!(log.retained_bytes(), 0);
        } else {
            let mut rec = s.fresh;
            if s.mask & 1 != 0 {
                rec.at = prev.at;
            }
            if s.mask & 2 != 0 {
                rec.trace = prev.trace;
            }
            if s.mask & 4 != 0 {
                rec.node = prev.node;
            }
            if s.mask & 8 != 0 {
                rec.a = prev.a;
            }
            if s.mask & 16 != 0 {
                rec.at = prev.at.wrapping_add(s.step as u64);
            }
            prev = rec;
            log.record(rec);
            if model.len() < cap {
                model.push(rec);
            } else {
                dropped += 1;
            }
        }
        prop_assert_eq!(log.len(), model.len());
        prop_assert_eq!(log.is_empty(), model.is_empty());
        prop_assert_eq!(log.dropped(), dropped);
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), model);
        prop_assert!(log.retained_bytes() >= 2 * model.len());
    }
    // One more drain and refill: a log that has been taken encodes the
    // next batch against a reset predictor, not the last batch's tail.
    prop_assert_eq!(log.take(), model);
    for r in &model {
        log.record(*r);
    }
    prop_assert_eq!(log.iter().collect::<Vec<_>>(), model);
    prop_assert_eq!(log.take(), model);
    Ok(())
}

proptest! {
    /// The packed span log is observably the plain `Vec<HopRecord>` it
    /// replaced, for arbitrary record sequences with drains in between.
    #[test]
    fn span_log_full_matches_the_vector_model(steps in steps(), cap in 0usize..60) {
        check_against_model(cap, &steps)?;
    }

    /// The log histogram's quantiles stay within its design relative error
    /// (≈3%, two sub-bucket widths) of exact quantiles, for arbitrary data.
    #[test]
    fn histogram_quantiles_bounded_error(
        values in proptest::collection::vec(1u64..1_000_000_000, 10..500),
        q in 0.01f64..0.99,
    ) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let approx = h.quantile(q) as f64;
        let exact = exact_percentile(&values, q).unwrap() as f64;
        // Bucket resolution bound plus rank-rounding slack: compare against
        // the neighbouring exact quantiles too.
        let lo = exact_percentile(&values, (q - 0.05).max(0.0)).unwrap() as f64;
        let hi = exact_percentile(&values, (q + 0.05).min(1.0)).unwrap() as f64;
        let tolerance = 0.04 * exact.max(1.0);
        prop_assert!(
            approx >= lo - tolerance && approx <= hi + tolerance,
            "quantile({}) = {} outside [{}, {}] of exact {}",
            q, approx, lo, hi, exact
        );
    }

    /// Histogram count/min/max/mean are exact regardless of bucketing.
    #[test]
    fn histogram_moments_exact(values in proptest::collection::vec(0u64..1u64<<40, 1..300)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-3 * mean.max(1.0));
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn histogram_merge_is_concat(
        a in proptest::collection::vec(1u64..1u64<<30, 1..100),
        b in proptest::collection::vec(1u64..1u64<<30, 1..100),
    ) {
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        let mut hc = LogHistogram::new();
        for &v in &a { ha.record(v); hc.record(v); }
        for &v in &b { hb.record(v); hc.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hc.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(q), hc.quantile(q));
        }
    }

    /// Exact percentile is monotone in q and bounded by min/max.
    #[test]
    fn exact_percentile_monotone(values in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut last = 0u64;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = exact_percentile(&values, q).unwrap();
            prop_assert!(v >= last || i == 0);
            last = v;
        }
        prop_assert_eq!(exact_percentile(&values, 0.0).unwrap(), *values.iter().min().unwrap());
        prop_assert_eq!(exact_percentile(&values, 1.0).unwrap(), *values.iter().max().unwrap());
    }

    /// BinnedSeries never loses observations: the merged histogram count
    /// equals the number of records.
    #[test]
    fn binned_series_conserves_counts(
        points in proptest::collection::vec((0u64..10_000_000, 1u64..1_000_000), 1..300),
        bin in 1_000u64..1_000_000,
    ) {
        let mut s = BinnedSeries::new(bin);
        for &(t, v) in &points {
            s.record(t, v);
        }
        prop_assert_eq!(s.merged().count(), points.len() as u64);
        let total: u64 = s.count_series().iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total, points.len() as u64);
    }

    /// ScalarSeries step lookup returns the last pushed value at or before
    /// the query (reference implementation comparison).
    #[test]
    fn scalar_series_lookup_matches_reference(
        deltas in proptest::collection::vec(1u64..1000, 1..50),
        queries in proptest::collection::vec(0u64..100_000, 1..50),
    ) {
        let mut s = ScalarSeries::new();
        let mut pts = Vec::new();
        let mut t = 0u64;
        for (i, &d) in deltas.iter().enumerate() {
            t += d;
            s.push(t, i as f64);
            pts.push((t, i as f64));
        }
        for &q in &queries {
            let expect = pts.iter().rev().find(|&&(pt, _)| pt <= q).map(|&(_, v)| v);
            prop_assert_eq!(s.value_at(q), expect);
        }
    }
}
