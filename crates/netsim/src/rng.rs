//! Deterministic randomness: every stochastic component derives its own
//! stream from a root seed and a label, so adding a component never
//! perturbs the random draws of existing ones.
//!
//! [`SimRng`] is the **only** sanctioned randomness source in the
//! simulation crates (rule D2, DESIGN.md §6.9): it is seeded explicitly,
//! pure `std`, and its stream depends on nothing but the seed — never on
//! wall-clock time, thread identity, or process entropy. The generator
//! is xoshiro256++ with splitmix64 seed expansion.

// Narrowing is the bit mixing here: a draw of a smaller type keeps the
// low bits of a uniform 64-bit word, and a ranged draw's remainder is
// below the span, which fits the range's type. No sequence number or id
// passes through this module (rule G3).
#![allow(clippy::cast_possible_truncation)]

use netpkt::flow::splitmix64;

/// A deterministic, explicitly-seeded pseudo-random number generator
/// (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        // Standard splitmix64 state expansion; guards against the
        // all-zero state xoshiro cannot leave.
        let mut x = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *w = splitmix64(x);
        }
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        SimRng { s }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draws a uniformly distributed value of a primitive type.
    pub fn gen<T: StandardDist>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from a range, e.g. `0..n`, `0..=span`,
    /// or `0.0..1.0`.
    ///
    /// # Panics
    /// Panics on an empty range.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

/// Types [`SimRng::gen`] can draw uniformly over their whole range
/// (floats: uniform in `[0, 1)`).
pub trait StandardDist {
    /// Draws one value.
    fn sample(rng: &mut SimRng) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl StandardDist for $t {
            fn sample(rng: &mut SimRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardDist for bool {
    fn sample(rng: &mut SimRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl StandardDist for f64 {
    fn sample(rng: &mut SimRng) -> f64 {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardDist for f32 {
    fn sample(rng: &mut SimRng) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges [`SimRng::gen_range`] can sample from.
pub trait UniformRange {
    /// The element type of the range.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut SimRng) -> Self::Output;
}

macro_rules! uniform_uint_range {
    ($($t:ty),*) => {$(
        impl UniformRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                // Below 2^64 for every type: the remainder is u64 math.
                let span = self.end as u64 - self.start as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl UniformRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                // The span is (hi - lo) + 1 <= 2^64; only the full u64
                // range reaches 2^64, and a draw modulo 2^64 is itself.
                let draw = rng.next_u64();
                match (hi as u64 - lo as u64).checked_add(1) {
                    Some(span) => lo + (draw % span) as $t,
                    None => lo + draw as $t,
                }
            }
        }
    )*};
}
uniform_uint_range!(u8, u16, u32, u64, usize);

impl UniformRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SimRng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

/// Derives a component RNG from a root seed and a textual label.
///
/// The label is folded with FNV-1a and then mixed with the root seed through
/// splitmix64, giving independent, reproducible streams per component.
pub fn component_rng(root_seed: u64, label: &str) -> SimRng {
    use telemetry::{fnv1a, FNV_OFFSET, SIM_FNV_PRIME};
    let h = fnv1a(SIM_FNV_PRIME, FNV_OFFSET, label.as_bytes());
    let seed = splitmix64(root_seed ^ h);
    SimRng::seed_from_u64(seed)
}

/// Derives a sub-seed (not an RNG) for handing to nested components.
pub fn derive_seed(root_seed: u64, index: u64) -> u64 {
    splitmix64(splitmix64(root_seed) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let mut a = component_rng(42, "client-0");
        let mut b = component_rng(42, "client-0");
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_differ() {
        let mut a = component_rng(42, "client-0");
        let mut b = component_rng(42, "client-1");
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_roots_differ() {
        let mut a = component_rng(1, "x");
        let mut b = component_rng(2, "x");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derive_seed_spreads() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(7, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(5u64..=5);
            assert_eq!(w, 5);
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_its_range_evenly() {
        // The workload's key draw: every key of a uniform keyspace is hit
        // at its share, within sampling noise.
        let mut r = SimRng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[r.gen_range(0u64..10) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 50_000.0;
            assert!((frac - 0.1).abs() < 0.01, "uniform fraction {frac}");
        }
    }

    /// The draw `r` makes next, `r` itself untouched.
    fn peek(r: &SimRng) -> u64 {
        r.clone().next_u64()
    }

    /// `lo + draw mod (hi - lo + 1)`, computed in u128.
    fn wide_reference(draw: u64, lo: u64, hi: u64) -> u128 {
        u128::from(lo) + u128::from(draw) % (u128::from(hi - lo) + 1)
    }

    #[test]
    fn gen_range_equals_the_u128_remainder_at_the_edges() {
        const EDGES: [(u64, u64); 9] = [
            (0, 0),
            (0, 1),
            (5, 5),
            (7, 1 << 63),
            (0, u64::MAX - 1),
            (0, u64::MAX), // span 2^64: the draw itself
            (1, u64::MAX),
            (1 << 32, u64::MAX),
            (u64::MAX, u64::MAX),
        ];
        let mut r = SimRng::seed_from_u64(17);
        for _ in 0..200 {
            for &(lo, hi) in &EDGES {
                let want = wide_reference(peek(&r), lo, hi);
                assert_eq!(u128::from(r.gen_range(lo..=hi)), want, "{lo}..={hi}");
                if lo < hi {
                    let want = wide_reference(peek(&r), lo, hi - 1);
                    assert_eq!(u128::from(r.gen_range(lo..hi)), want, "{lo}..{hi}");
                }
            }
            // Narrow types keep the low bits of the same remainder.
            let want = wide_reference(peek(&r), 0, 255);
            assert_eq!(u128::from(r.gen_range(0u8..=255)), want);
            let want = wide_reference(peek(&r), 0, 254);
            assert_eq!(u128::from(r.gen_range(0u8..255)), want);
            let want = wide_reference(peek(&r), 1, u64::from(u32::MAX));
            assert_eq!(u128::from(r.gen_range(1u32..=u32::MAX)), want);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SimRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02, "hits {hits}");
    }

    #[test]
    fn float_samples_are_uniformish() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
