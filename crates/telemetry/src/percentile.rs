//! Exact (sort-based) percentiles.

/// Exact percentile of a sample set by sorting a copy.
///
/// `q` in `[0, 1]`; uses the nearest-rank method. Returns `None` on an
/// empty slice.
pub fn exact_percentile(samples: &[u64], q: f64) -> Option<u64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_small_sets() {
        assert_eq!(exact_percentile(&[], 0.5), None);
        assert_eq!(exact_percentile(&[7], 0.5), Some(7));
        assert_eq!(exact_percentile(&[1, 2, 3, 4, 5], 0.5), Some(3));
        assert_eq!(exact_percentile(&[5, 4, 3, 2, 1], 0.0), Some(1));
        assert_eq!(exact_percentile(&[5, 4, 3, 2, 1], 1.0), Some(5));
    }

    #[test]
    fn exact_p95_of_100() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_percentile(&v, 0.95), Some(95));
    }
}
