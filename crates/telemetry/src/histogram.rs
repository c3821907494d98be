//! A log-bucketed histogram for latency values, in the spirit of HdrHistogram.
//!
//! Values (nanoseconds) are bucketed with a fixed number of sub-buckets per
//! power of two, giving a bounded relative error (≈1.6% with 64 sub-buckets)
//! over the full `u64` range with a few KiB of memory.

/// Sub-buckets per power-of-two; a power of two itself.
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// A fixed-memory, log-bucketed histogram over `u64` values.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // Index space: values < SUB_BUCKETS map 1:1; above that, each
        // power-of-two "group" contributes SUB_BUCKETS/2 sub-buckets.
        let groups = 64 - SUB_BUCKET_BITS as usize; // msb from 6..=63
        let buckets = SUB_BUCKETS as usize + groups * (SUB_BUCKETS as usize / 2);
        LogHistogram {
            counts: vec![0; buckets],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let msb = 63 - u64::from(value.leading_zeros()); // >= SUB_BUCKET_BITS
        let group = msb - u64::from(SUB_BUCKET_BITS) + 1; // 1-based
        let sub = (value >> group) & (SUB_BUCKETS / 2 - 1);
        (SUB_BUCKETS + (group - 1) * (SUB_BUCKETS / 2) + sub) as usize
    }

    /// The representative (midpoint) value of the bucket with this index.
    fn bucket_mid(index: usize) -> u64 {
        let idx = index as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let rest = idx - SUB_BUCKETS;
        let group = rest / (SUB_BUCKETS / 2) + 1;
        let sub = rest % (SUB_BUCKETS / 2);
        let lo = (SUB_BUCKETS / 2 + sub) << group;
        let width = 1u64 << group;
        lo + width / 2
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += u128::from(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (exact), or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (exact), or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, approximated to bucket
    /// resolution. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_mid(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Clears all recorded data.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::float_cmp)] // an empty mean is exactly 0.0
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS - 1);
        assert_eq!(h.quantile(0.5), SUB_BUCKETS / 2 - 1);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LogHistogram::new();
        for exp in 6..40u32 {
            let v = (1u64 << exp) + (1 << (exp - 2));
            h.clear();
            h.record(v);
            let q = h.quantile(0.5);
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(err < 0.04, "value {v}: got {q}, err {err}");
        }
    }

    #[test]
    fn quantiles_monotonic() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 137);
        }
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < previous {last}");
            last = v;
        }
        // p50 of a uniform grid should be near the middle.
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 / (5_000.0 * 137.0) - 1.0).abs() < 0.05);
    }

    #[test]
    fn merge_combines() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn extreme_values_dont_panic() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        let _ = h.quantile(0.99);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        LogHistogram::new().quantile(1.5);
    }
}
