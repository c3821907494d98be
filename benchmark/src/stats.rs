//! Order statistics for repetition timings.

/// Median, first and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them (the exclusive method), so the spread printed here is the one
    /// the contract's acceptance check computes. A single value is its
    /// own quartiles.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            };
        }
        let cut = |i: usize| {
            let pos = i * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank quantile of an ascending-sorted sample (0 when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        // Five values: [1, 2, 4, 8, 16] -> [1.5, 4.0, 12.0]
        let q = Quartiles::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn single_value_and_spread() {
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(q.iqr_share(), 0.0);
        let q = Quartiles::of(&[90.0, 100.0, 110.0]);
        assert!((q.iqr_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.95), 95);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.0), 1);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }
}
