//! Normalized backend traffic shares.

/// A normalized weight vector over backends: entries are ≥ `floor`, sum to
/// 1, and represent each backend's share of *new* connections.
#[derive(Debug, Clone)]
pub struct Weights {
    w: Vec<f64>,
    floor: f64,
    /// Reusable buffers for the water-fill, sized at construction, so no
    /// operation on the control path allocates. Never part of the value:
    /// equality ignores it.
    scratch: Scratch,
}

#[derive(Debug, Clone)]
struct Scratch {
    /// The requested shares, staged here and normalized in place.
    raw: Vec<f64>,
    /// Which backends the water-fill has pinned to the floor.
    pinned: Vec<bool>,
    /// The shares before a [`Weights::remap`], for its change measure.
    prev: Vec<f64>,
}

impl Scratch {
    /// Stages the requested shares for the water-fill.
    fn stage(&mut self, new: impl IntoIterator<Item = f64>) {
        self.raw.clear();
        self.raw.extend(new);
        assert!(
            self.raw.iter().all(|&x| x.is_finite() && x >= 0.0),
            "weights must be finite and >= 0"
        );
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

impl PartialEq for Weights {
    fn eq(&self, other: &Self) -> bool {
        self.w == other.w && self.floor == other.floor
    }
}

impl Weights {
    /// Equal shares over `n` backends with a per-backend floor (a backend's
    /// share never drops below the floor, so every backend keeps receiving
    /// a trickle of traffic — otherwise a recovered server could never be
    /// re-measured from in-band samples).
    pub fn equal(n: usize, floor: f64) -> Weights {
        assert!(n > 0, "at least one backend");
        assert!(
            (0.0..1.0).contains(&floor) && floor * n as f64 <= 1.0,
            "floor {floor} infeasible for {n} backends"
        );
        Weights {
            w: vec![1.0 / n as f64; n],
            floor,
            scratch: Scratch {
                raw: Vec::with_capacity(n),
                pinned: Vec::with_capacity(n),
                prev: Vec::with_capacity(n),
            },
        }
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True if there are no backends (never constructible).
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// The shares.
    pub fn as_slice(&self) -> &[f64] {
        &self.w
    }

    /// A single backend's share.
    pub fn get(&self, i: usize) -> f64 {
        self.w[i]
    }

    /// The configured floor.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Moves `alpha` of *total* traffic away from backend `from`, spread
    /// equally over all other backends (the paper's control action). The
    /// donor is clamped at the floor; the actually moved amount is
    /// returned (may be less than `alpha` near the floor).
    pub fn shift_from(&mut self, from: usize, alpha: f64) -> f64 {
        assert!((0.0..1.0).contains(&alpha), "alpha out of range");
        let n = self.w.len();
        if n < 2 {
            return 0.0;
        }
        let movable = (self.w[from] - self.floor).max(0.0).min(alpha);
        if movable <= 0.0 {
            return 0.0;
        }
        self.w[from] -= movable;
        let each = movable / (n - 1) as f64;
        for (i, w) in self.w.iter_mut().enumerate() {
            if i != from {
                *w += each;
            }
        }
        self.renormalize();
        movable
    }

    /// Replaces the shares with the normalization of `new`, then enforces
    /// the floor by water-filling: backends that would fall below the floor
    /// are pinned to it and the remaining mass is split proportionally
    /// among the rest. An all-zero input degrades to equal shares rather
    /// than dividing by zero (the caller has no signal to apportion by).
    pub fn set(&mut self, new: &[f64]) {
        assert_eq!(new.len(), self.w.len(), "backend count mismatch");
        self.scratch.stage(new.iter().copied());
        Self::set_into(&mut self.w, self.floor, &mut self.scratch);
    }

    /// [`Weights::set`] with the new values computed from the current
    /// ones, `new[i] = f(i, w[i])`, without the caller staging them in a
    /// vector of its own. Returns the largest absolute change of any
    /// share — what a controller's "did anything move" threshold reads.
    pub fn remap(&mut self, mut f: impl FnMut(usize, f64) -> f64) -> f64 {
        self.scratch.prev.clear();
        self.scratch.prev.extend_from_slice(&self.w);
        self.scratch
            .stage(self.w.iter().enumerate().map(|(i, &w)| f(i, w)));
        Self::set_into(&mut self.w, self.floor, &mut self.scratch);
        max_abs_diff(&self.w, &self.scratch.prev)
    }

    /// Water-fills `w` from the shares staged in `scratch.raw`.
    fn set_into(w: &mut [f64], floor: f64, scratch: &mut Scratch) {
        let Scratch { raw, pinned, .. } = scratch;
        let n = raw.len();
        let total: f64 = raw.iter().sum();
        for x in raw.iter_mut() {
            *x = if total > 0.0 {
                *x / total
            } else {
                1.0 / n as f64
            };
        }
        pinned.clear();
        pinned.resize(n, false);
        loop {
            let pinned_count = pinned.iter().filter(|&&p| p).count();
            if pinned_count == n {
                // Everything pinned: distribute the leftover equally.
                let each = 1.0 / n as f64;
                w.iter_mut().for_each(|w| *w = each);
                return;
            }
            let mass = 1.0 - pinned_count as f64 * floor;
            let unpinned_sum: f64 = raw
                .iter()
                .zip(pinned.iter())
                .filter(|(_, &p)| !p)
                .map(|(x, _)| x)
                .sum();
            let mut newly_pinned = false;
            for i in 0..n {
                if pinned[i] {
                    w[i] = floor;
                    continue;
                }
                let candidate = if unpinned_sum > 0.0 {
                    raw[i] * mass / unpinned_sum
                } else {
                    mass / (n - pinned_count) as f64
                };
                if candidate < floor {
                    pinned[i] = true;
                    newly_pinned = true;
                } else {
                    w[i] = candidate;
                }
            }
            if !newly_pinned {
                return;
            }
        }
    }

    /// Ejection-aware renormalization: replaces the shares with the
    /// normalization of `new` over the surviving (non-ejected) backends,
    /// water-filling the floor among survivors. Ejected backends are
    /// pinned to exactly **zero** — unlike the floor, which exists to keep
    /// live backends measurable, an ejected backend must receive no new
    /// connections at all.
    ///
    /// Edge cases: a single survivor takes the whole share (1.0); when
    /// *every* backend is ejected the method returns `false` and leaves
    /// the shares untouched — the caller must stop admitting traffic
    /// (drop-with-counter) instead of dividing by zero.
    pub fn set_with_ejections(&mut self, new: &[f64], ejected: &[bool]) -> bool {
        assert_eq!(new.len(), self.w.len(), "backend count mismatch");
        assert_eq!(ejected.len(), self.w.len(), "mask length mismatch");
        self.scratch.stage(new.iter().copied());
        Self::eject_into(&mut self.w, self.floor, &mut self.scratch, ejected)
    }

    /// Re-applies an ejection mask to the *current* shares in place —
    /// exactly `set_with_ejections(self.as_slice(), ejected)`, but without
    /// the caller cloning the shares first.
    pub fn apply_ejections(&mut self, ejected: &[bool]) -> bool {
        assert_eq!(ejected.len(), self.w.len(), "mask length mismatch");
        self.scratch.stage(self.w.iter().copied());
        Self::eject_into(&mut self.w, self.floor, &mut self.scratch, ejected)
    }

    /// Water-fills `w` over the survivors from the shares staged in
    /// `scratch.raw`.
    fn eject_into(w: &mut [f64], floor: f64, scratch: &mut Scratch, ejected: &[bool]) -> bool {
        let n = w.len();
        let m = n - ejected.iter().filter(|&&e| e).count();
        if m == 0 {
            return false;
        }
        if m == n {
            Self::set_into(w, floor, scratch);
            return true;
        }
        let Scratch { raw, pinned, .. } = scratch;
        // Normalize over survivors; if they carry no mass, split equally.
        let total: f64 = raw
            .iter()
            .zip(ejected)
            .filter(|(_, &e)| !e)
            .map(|(x, _)| x)
            .sum();
        for (x, &e) in raw.iter_mut().zip(ejected) {
            *x = if e {
                0.0
            } else if total > 0.0 {
                *x / total
            } else {
                1.0 / m as f64
            };
        }
        // Water-fill the floor among survivors only. Feasible because
        // floor * m <= floor * n <= 1 (checked at construction).
        pinned.clear();
        pinned.resize(n, false);
        loop {
            let pinned_count = pinned.iter().filter(|&&p| p).count();
            if pinned_count == m {
                let each = 1.0 / m as f64;
                for (wi, &e) in w.iter_mut().zip(ejected) {
                    *wi = if e { 0.0 } else { each };
                }
                return true;
            }
            let mass = 1.0 - pinned_count as f64 * floor;
            let unpinned_sum: f64 = (0..n)
                .filter(|&i| !ejected[i] && !pinned[i])
                .map(|i| raw[i])
                .sum();
            let mut newly_pinned = false;
            for i in 0..n {
                if ejected[i] {
                    w[i] = 0.0;
                    continue;
                }
                if pinned[i] {
                    w[i] = floor;
                    continue;
                }
                let candidate = if unpinned_sum > 0.0 {
                    raw[i] * mass / unpinned_sum
                } else {
                    mass / (m - pinned_count) as f64
                };
                if candidate < floor {
                    pinned[i] = true;
                    newly_pinned = true;
                } else {
                    w[i] = candidate;
                }
            }
            if !newly_pinned {
                return true;
            }
        }
    }

    /// Multiplies one share by `factor` (≥ 0) and renormalizes.
    pub fn scale(&mut self, i: usize, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and >= 0"
        );
        self.w[i] = (self.w[i] * factor).max(self.floor);
        self.renormalize();
    }

    fn renormalize(&mut self) {
        let total: f64 = self.w.iter().sum();
        debug_assert!(total > 0.0);
        for w in &mut self.w {
            *w /= total;
        }
    }

    /// Largest absolute difference from another weight vector.
    pub fn max_diff(&self, other: &Weights) -> f64 {
        max_abs_diff(&self.w, &other.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(w: &Weights) -> f64 {
        w.as_slice().iter().sum()
    }

    #[test]
    fn equal_construction() {
        let w = Weights::equal(4, 0.01);
        assert_eq!(w.len(), 4);
        for i in 0..4 {
            assert!((w.get(i) - 0.25).abs() < 1e-12);
        }
        assert!((sum(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shift_moves_alpha() {
        let mut w = Weights::equal(2, 0.01);
        let moved = w.shift_from(0, 0.10);
        assert!((moved - 0.10).abs() < 1e-12);
        assert!((w.get(0) - 0.40).abs() < 1e-9);
        assert!((w.get(1) - 0.60).abs() < 1e-9);
        assert!((sum(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shift_spreads_equally_over_others() {
        let mut w = Weights::equal(5, 0.0);
        w.shift_from(2, 0.20);
        assert!((w.get(2) - 0.0).abs() < 1e-12);
        for i in [0usize, 1, 3, 4] {
            assert!((w.get(i) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn floor_limits_shift() {
        let mut w = Weights::equal(2, 0.05);
        // Repeated shifts cannot push the donor below the floor.
        for _ in 0..20 {
            w.shift_from(0, 0.10);
        }
        assert!(w.get(0) >= 0.05 - 1e-12);
        assert!((sum(&w) - 1.0).abs() < 1e-9);
        // And the shift reports less than alpha once pinned.
        let moved = w.shift_from(0, 0.10);
        assert!(moved < 1e-9);
    }

    #[test]
    fn set_clamps_and_normalizes() {
        let mut w = Weights::equal(3, 0.02);
        w.set(&[10.0, 0.0, 10.0]);
        assert!(
            (w.get(1) - 0.02).abs() < 1e-12,
            "pinned to floor: {}",
            w.get(1)
        );
        assert!((sum(&w) - 1.0).abs() < 1e-9);
        assert!((w.get(0) - 0.49).abs() < 1e-9);
    }

    #[test]
    fn set_without_floor_is_pure_normalization() {
        let mut w = Weights::equal(2, 0.0);
        w.set(&[3.0, 1.0]);
        assert!((w.get(0) - 0.75).abs() < 1e-12);
        assert!((w.get(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn set_all_tiny_pins_everything_equally() {
        let mut w = Weights::equal(2, 0.3);
        w.set(&[1e-9, 1e-9]);
        assert!((w.get(0) - 0.5).abs() < 1e-9);
        assert!((w.get(1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn remap_is_set_on_the_mapped_shares_and_measures_the_change() {
        let mut a = Weights::equal(4, 0.05);
        a.set(&[100.0, 0.001, 50.0, 1.0]);
        let mut b = a.clone();
        let f = |i: usize, w: f64| if i == 2 { 0.0 } else { w + 0.3 * (0.25 - w) };
        let mapped: Vec<f64> = a
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &w)| f(i, w))
            .collect();
        let before = a.clone();
        a.set(&mapped);
        let moved = b.remap(f);
        for i in 0..4 {
            assert_eq!(a.get(i).to_bits(), b.get(i).to_bits(), "share {i} diverged");
        }
        assert_eq!(moved.to_bits(), a.max_diff(&before).to_bits());
        assert!(moved > 0.1, "backend 2 fell to the floor: {moved}");
    }

    #[test]
    fn scale_changes_ratio() {
        let mut w = Weights::equal(2, 0.0);
        w.scale(0, 0.5); // 0.25 vs 0.5 -> normalized 1/3 vs 2/3
        assert!((w.get(0) - 1.0 / 3.0).abs() < 1e-9);
        assert!((w.get(1) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn max_diff_symmetry() {
        let a = Weights::equal(2, 0.0);
        let mut b = Weights::equal(2, 0.0);
        b.shift_from(0, 0.2);
        assert!((a.max_diff(&b) - 0.2).abs() < 1e-9);
        assert!((b.max_diff(&a) - 0.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_floor_rejected() {
        let _ = Weights::equal(3, 0.5);
    }

    #[test]
    fn set_all_zero_degrades_to_equal_shares() {
        let mut w = Weights::equal(3, 0.02);
        w.set(&[0.7, 0.2, 0.1]);
        w.set(&[0.0, 0.0, 0.0]);
        for i in 0..3 {
            assert!((w.get(i) - 1.0 / 3.0).abs() < 1e-9, "w[{i}] = {}", w.get(i));
        }
    }

    #[test]
    fn ejection_zeroes_and_renormalizes_survivors() {
        let mut w = Weights::equal(4, 0.02);
        assert!(w.set_with_ejections(&[3.0, 1.0, 2.0, 2.0], &[false, true, false, true]));
        assert_eq!(w.get(1).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.get(3).to_bits(), 0.0f64.to_bits());
        assert!((w.get(0) - 0.6).abs() < 1e-9);
        assert!((w.get(2) - 0.4).abs() < 1e-9);
        assert!((sum(&w) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_survivor_takes_the_whole_share() {
        let mut w = Weights::equal(3, 0.02);
        assert!(w.set_with_ejections(&[0.0, 5.0, 0.0], &[true, false, true]));
        assert!((w.get(1) - 1.0).abs() < 1e-12);
        assert_eq!(w.get(0).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.get(2).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn all_ejected_refuses_and_preserves_shares() {
        let mut w = Weights::equal(2, 0.02);
        w.set(&[3.0, 1.0]);
        let before = w.clone();
        assert!(!w.set_with_ejections(&[3.0, 1.0], &[true, true]));
        assert!(w.max_diff(&before) < 1e-12);
    }

    #[test]
    fn survivors_with_zero_mass_split_equally() {
        let mut w = Weights::equal(3, 0.02);
        assert!(w.set_with_ejections(&[0.0, 0.0, 7.0], &[false, false, true]));
        assert!((w.get(0) - 0.5).abs() < 1e-9);
        assert!((w.get(1) - 0.5).abs() < 1e-9);
        assert_eq!(w.get(2).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn apply_ejections_is_bit_identical_to_clone_then_set() {
        let mut a = Weights::equal(4, 0.05);
        a.set(&[100.0, 0.001, 50.0, 1.0]);
        let mut b = a.clone();
        let mask = [false, true, false, true];
        let raw = a.as_slice().to_vec();
        assert!(a.set_with_ejections(&raw, &mask));
        assert!(b.apply_ejections(&mask));
        for i in 0..4 {
            assert_eq!(a.get(i).to_bits(), b.get(i).to_bits(), "share {i} diverged");
        }
        // All-ejected still refuses and leaves the shares untouched.
        let before = b.clone();
        assert!(!b.apply_ejections(&[true, true, true, true]));
        assert!(b.max_diff(&before) < 1e-12);
    }

    #[test]
    fn all_ejected_refusal_is_bitwise_and_recoverable() {
        // The refused call must not perturb even the last bit of the
        // shares (callers keep serving from the stale vector while in
        // no-backend drop mode), and the *next* valid call must work
        // normally — refusal leaves no sticky state behind.
        let mut w = Weights::equal(3, 0.02);
        w.set(&[0.7, 0.2, 0.1]);
        let before: Vec<u64> = w.as_slice().iter().map(|x| x.to_bits()).collect();
        assert!(!w.set_with_ejections(&[1.0, 1.0, 1.0], &[true, true, true]));
        let after: Vec<u64> = w.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(before, after, "refused call must preserve shares bitwise");
        // Readmission: the very next call with a survivor succeeds.
        assert!(w.set_with_ejections(&[0.0, 5.0, 5.0], &[true, false, false]));
        assert_eq!(w.get(0).to_bits(), 0.0f64.to_bits());
        assert!((w.get(1) - 0.5).abs() < 1e-9);
        assert!((w.get(2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn extreme_skew_pins_every_survivor_at_the_floor() {
        // floor * n == 1.0 is feasible but leaves zero slack: water-fill
        // must cascade until every backend is pinned at exactly the
        // floor, whatever the skew of the input.
        let mut w = Weights::equal(4, 0.25);
        w.set(&[1000.0, 1.0, 1.0, 1.0]);
        for i in 0..4 {
            assert!((w.get(i) - 0.25).abs() < 1e-12, "w[{i}] = {}", w.get(i));
        }
        assert!((sum(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ejection_with_near_floor_skew_cascades_pins() {
        // Ejecting one backend tightens the survivor budget: with
        // floor 0.2 over 3 survivors only 0.4 of mass is free, so an
        // extreme skew pins both small survivors in a second pass.
        let mut w = Weights::equal(4, 0.2);
        assert!(w.set_with_ejections(&[1e6, 1.0, 1.0, 3.0], &[false, false, false, true]));
        assert_eq!(w.get(3).to_bits(), 0.0f64.to_bits());
        assert!((w.get(1) - 0.2).abs() < 1e-12, "pinned: {}", w.get(1));
        assert!((w.get(2) - 0.2).abs() < 1e-12, "pinned: {}", w.get(2));
        assert!((w.get(0) - 0.6).abs() < 1e-9, "remainder: {}", w.get(0));
        assert!((sum(&w) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_survivor_with_zero_mass_takes_one() {
        // The lone survivor carried no estimator mass at all; it still
        // must take the whole share (the equal-split fallback over m=1).
        let mut w = Weights::equal(3, 0.02);
        assert!(w.set_with_ejections(&[0.0, 0.0, 0.0], &[true, true, false]));
        assert_eq!(w.get(0).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.get(1).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.get(2).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn ejection_respects_floor_among_survivors() {
        let mut w = Weights::equal(4, 0.05);
        assert!(w.set_with_ejections(&[100.0, 0.001, 50.0, 1.0], &[false, false, true, false]));
        assert_eq!(w.get(2).to_bits(), 0.0f64.to_bits());
        assert!(w.get(1) >= 0.05 - 1e-12, "floored: {}", w.get(1));
        assert!(w.get(3) >= 0.05 - 1e-12, "floored: {}", w.get(3));
        assert!((sum(&w) - 1.0).abs() < 1e-9);
    }
}
