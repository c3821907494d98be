//! Percentile estimation: exact (sort-based) and streaming (P² algorithm).

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

/// The P² (Jain & Chlamtac 1985) streaming quantile estimator: tracks one
/// quantile in O(1) memory using five markers with parabolic interpolation.
///
/// Used by the LB controller to keep per-backend tail-latency estimates
/// without storing samples.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "P2 quantile must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Number of observations seen.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation.
    pub fn record(&mut self, value: f64) {
        if self.count < 5 {
            self.heights[self.count] = value;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(|a, b| a.total_cmp(b));
            }
            return;
        }
        self.count += 1;

        // Find the cell k such that heights[k] <= value < heights[k+1],
        // adjusting extremes.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if value >= self.heights[i] && value < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let sign = d.signum();
                let candidate = self.parabolic(i, sign);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, sign)
                    };
                self.heights[i] = new_height;
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + sign / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + sign) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - sign) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = (i as f64 + sign) as usize;
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate; before five observations, falls back to the
    /// exact value among what has been seen.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count < 5 {
            let mut seen: Vec<f64> = self.heights[..self.count].to_vec();
            seen.sort_by(|a, b| a.total_cmp(b));
            let rank = ((self.q * self.count as f64).ceil() as usize).clamp(1, self.count);
            return seen[rank - 1];
        }
        self.heights[2]
    }
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

    #[test]
    fn p2_matches_exact_on_uniform() {
        // Deterministic LCG-driven pseudo-uniform stream.
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut p2 = P2Quantile::new(0.95);
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let v = next();
            p2.record(v);
            all.push((v * 1e9) as u64);
        }
        let exact = exact_percentile(&all, 0.95).unwrap() as f64 / 1e9;
        let est = p2.value();
        assert!((est - exact).abs() < 0.02, "p2 {est} vs exact {exact}");
        assert_eq!(p2.count(), 50_000);
    }

    #[test]
    #[allow(clippy::float_cmp)] // under five samples the value is a sample
    fn p2_small_counts_fall_back_to_exact() {
        let mut p2 = P2Quantile::new(0.5);
        assert_eq!(p2.value(), 0.0);
        p2.record(10.0);
        assert_eq!(p2.value(), 10.0);
        p2.record(20.0);
        p2.record(30.0);
        assert_eq!(p2.value(), 20.0);
    }

    #[test]
    fn p2_tracks_shifted_distribution() {
        // After a step change, the estimator should move toward the new
        // regime (it converges slowly by design, but must move).
        let mut p2 = P2Quantile::new(0.5);
        for _ in 0..1000 {
            p2.record(1.0);
        }
        let before = p2.value();
        for _ in 0..20_000 {
            p2.record(100.0);
        }
        let after = p2.value();
        assert!(before < 2.0);
        assert!(after > 50.0, "estimator stuck at {after}");
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }
}
