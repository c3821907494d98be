//! Normalized backend traffic shares.

/// The committed weight vector: each backend's share of *new*
/// connections, together with the ejection mask it was shaped under.
///
/// The invariants hold after every call, by construction, not by a
/// fix-up from the caller: an ejected backend holds exactly `0.0`, every
/// survivor holds at least `floor`, the shares sum to 1, and at least one
/// backend survives. Every mutator ends in the same survivor-aware
/// water-fill, so no mutator can put mass on an ejected backend; the mask
/// itself changes only through [`Weights::eject`].
#[derive(Debug, Clone)]
pub struct Weights {
    w: Vec<f64>,
    floor: f64,
    /// Backends that receive no new connections at all.
    ejected: Vec<bool>,
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
    /// The water-fill's result: the shares as they will be once written.
    out: Vec<f64>,
    /// The mask a [`Weights::eject`] is about to install.
    mask: Vec<bool>,
}

/// A [`Weights::remap`] threshold no change is under: always write.
const ALWAYS: f64 = -1.0;

impl PartialEq for Weights {
    fn eq(&self, other: &Self) -> bool {
        self.w == other.w && self.floor == other.floor && self.ejected == other.ejected
    }
}

impl Weights {
    /// Equal shares over `n` backends, none ejected, with a per-backend
    /// floor (a live backend's share never drops below the floor, so it
    /// keeps receiving a trickle of traffic — otherwise a recovered server
    /// could never be re-measured from in-band samples).
    pub fn equal(n: usize, floor: f64) -> Weights {
        assert!(n > 0, "at least one backend");
        assert!(
            (0.0..1.0).contains(&floor) && floor * n as f64 <= 1.0,
            "floor {floor} infeasible for {n} backends"
        );
        Weights {
            w: vec![1.0 / n as f64; n],
            floor,
            ejected: vec![false; n],
            scratch: Scratch {
                raw: Vec::with_capacity(n),
                pinned: Vec::with_capacity(n),
                out: Vec::with_capacity(n),
                mask: Vec::with_capacity(n),
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

    /// The ejection mask the shares were shaped under.
    pub fn ejected(&self) -> &[bool] {
        &self.ejected
    }

    /// Installs a new ejection mask together with the reshaped shares, both
    /// read off one function of `(backend, current share)`: `None` ejects
    /// the backend — pinned to exactly **zero**; unlike the floor, which
    /// keeps live backends measurable, an ejected backend must receive no
    /// new connections at all — and `Some(x)` keeps (or readmits) it with
    /// the requested share `x`, normalized and floored among the survivors.
    ///
    /// A single survivor takes the whole share. When *every* backend would
    /// be ejected the call returns `false` and leaves shares and mask
    /// untouched — the caller must stop admitting traffic
    /// (drop-with-counter) instead of dividing by zero.
    pub fn eject(&mut self, f: impl Fn(usize, f64) -> Option<f64>) -> bool {
        let mask = &mut self.scratch.mask;
        mask.clear();
        mask.extend(self.w.iter().enumerate().map(|(b, &w)| f(b, w).is_none()));
        if !mask.contains(&false) {
            return false;
        }
        core::mem::swap(&mut self.ejected, mask);
        self.remap(ALWAYS, |b, w| f(b, w).unwrap_or(0.0));
        true
    }

    /// Moves `alpha` of *total* traffic away from backend `from`, spread
    /// equally over all other backends (the paper's control action). The
    /// donor is clamped at the floor; the actually moved amount is
    /// returned (may be less than `alpha` near the floor), and `0.0` means
    /// the shares were not touched.
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
        let total: f64 = self.w.iter().sum();
        for w in &mut self.w {
            *w /= total;
        }
        if self.ejected.contains(&true) {
            // The equal spread reached the ejected backends too: the
            // water-fill hands their part back to the survivors.
            self.remap(ALWAYS, |_, w| w);
        }
        movable
    }

    /// Replaces the shares with the normalization of `new` over the
    /// survivors (an ejected backend's entry is ignored), floored by the
    /// water-fill. An all-zero input degrades to equal shares rather than
    /// dividing by zero (the caller has no signal to apportion by).
    pub fn set(&mut self, new: &[f64]) {
        assert_eq!(new.len(), self.w.len(), "backend count mismatch");
        self.remap(ALWAYS, |i, _| new[i]);
    }

    /// Multiplies one share by `factor` (≥ 0) and renormalizes.
    pub fn scale(&mut self, i: usize, factor: f64) {
        self.remap(ALWAYS, |j, w| if j == i { w * factor } else { w });
    }

    /// What every mutator ends in: stages the requested shares
    /// `f(i, w[i])`, water-fills them, and writes the result only if it
    /// moves some share by more than `threshold`. Returns `true` when the
    /// shares were written and `false` when they are untouched, bit for
    /// bit — a controller's "did anything move" test, made *before* the
    /// write.
    pub fn remap(&mut self, threshold: f64, mut f: impl FnMut(usize, f64) -> f64) -> bool {
        let Scratch {
            raw, pinned, out, ..
        } = &mut self.scratch;
        raw.clear();
        raw.extend(self.w.iter().enumerate().map(|(i, &w)| f(i, w)));
        fill(self.floor, &self.ejected, raw, pinned, out);
        let moved = out
            .iter()
            .zip(&self.w)
            .any(|(a, b)| (a - b).abs() > threshold);
        if moved {
            core::mem::swap(&mut self.w, out);
        }
        moved
    }
}

/// The one water-fill: normalizes the staged shares `raw` over the
/// survivors into `out`. Survivors that would fall below the floor are
/// pinned to it and the remaining mass is split proportionally among the
/// rest (equally, if they staged no mass at all); ejected backends get
/// exactly zero.
fn fill(floor: f64, ejected: &[bool], raw: &mut [f64], pinned: &mut Vec<bool>, out: &mut Vec<f64>) {
    assert!(
        raw.iter().all(|&x| x.is_finite() && x >= 0.0),
        "weights must be finite and >= 0"
    );
    let n = raw.len();
    let live = || (0..n).filter(|&i| !ejected[i]);
    let m = live().count();
    let total: f64 = live().map(|i| raw[i]).sum();
    for i in live() {
        raw[i] = if total > 0.0 {
            raw[i] / total
        } else {
            1.0 / m as f64
        };
    }
    // Feasible because floor * m <= floor * n <= 1 (checked at
    // construction).
    pinned.clear();
    pinned.resize(n, false);
    out.clear();
    out.resize(n, 0.0);
    loop {
        let pinned_count = pinned.iter().filter(|&&p| p).count();
        if pinned_count == m {
            // Every survivor pinned: they share the whole equally.
            live().for_each(|i| out[i] = 1.0 / m as f64);
            return;
        }
        let mass = 1.0 - pinned_count as f64 * floor;
        let unpinned_sum: f64 = live().filter(|&i| !pinned[i]).map(|i| raw[i]).sum();
        let mut newly_pinned = false;
        for i in live() {
            if pinned[i] {
                out[i] = floor;
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
                out[i] = candidate;
            }
        }
        if !newly_pinned {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(w: &Weights) -> f64 {
        w.as_slice().iter().sum()
    }

    /// Installs `mask` with the requested shares `new`.
    fn eject(w: &mut Weights, new: &[f64], mask: &[bool]) -> bool {
        w.eject(|b, _| (!mask[b]).then_some(new[b]))
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
    fn remap_writes_what_set_would_or_nothing_at_all() {
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
        let moved = (0..4)
            .map(|i| (a.get(i) - before.get(i)).abs())
            .fold(0.0, f64::max);
        assert!(moved > 0.1, "backend 2 fell to the floor: {moved}");
        // Under the threshold: refused, and not a bit of `b` moves.
        assert!(!b.remap(moved, f));
        for i in 0..4 {
            assert_eq!(
                b.get(i).to_bits(),
                before.get(i).to_bits(),
                "share {i} moved"
            );
        }
        // Over it: exactly what `set` wrote.
        assert!(b.remap(0.1, f));
        for i in 0..4 {
            assert_eq!(a.get(i).to_bits(), b.get(i).to_bits(), "share {i} diverged");
        }
    }

    #[test]
    fn scale_changes_ratio() {
        let mut w = Weights::equal(2, 0.0);
        w.scale(0, 0.5); // 0.25 vs 0.5 -> normalized 1/3 vs 2/3
        assert!((w.get(0) - 1.0 / 3.0).abs() < 1e-9);
        assert!((w.get(1) - 2.0 / 3.0).abs() < 1e-9);
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
        assert!(eject(
            &mut w,
            &[3.0, 1.0, 2.0, 2.0],
            &[false, true, false, true]
        ));
        assert_eq!(w.get(1).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.get(3).to_bits(), 0.0f64.to_bits());
        assert!((w.get(0) - 0.6).abs() < 1e-9);
        assert!((w.get(2) - 0.4).abs() < 1e-9);
        assert!((sum(&w) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_survivor_takes_the_whole_share() {
        let mut w = Weights::equal(3, 0.02);
        assert!(eject(&mut w, &[0.0, 5.0, 0.0], &[true, false, true]));
        assert!((w.get(1) - 1.0).abs() < 1e-12);
        assert_eq!(w.get(0).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.get(2).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn all_ejected_refuses_and_preserves_shares() {
        let mut w = Weights::equal(2, 0.02);
        w.set(&[3.0, 1.0]);
        let before = w.clone();
        assert!(!eject(&mut w, &[3.0, 1.0], &[true, true]));
        assert_eq!(w, before);
    }

    #[test]
    fn survivors_with_zero_mass_split_equally() {
        let mut w = Weights::equal(3, 0.02);
        assert!(eject(&mut w, &[0.0, 0.0, 7.0], &[false, false, true]));
        assert!((w.get(0) - 0.5).abs() < 1e-9);
        assert!((w.get(1) - 0.5).abs() < 1e-9);
        assert_eq!(w.get(2).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn every_mutator_respects_the_installed_mask() {
        let mut w = Weights::equal(4, 0.05);
        let mask = [false, true, false, false];
        assert!(eject(&mut w, &[100.0, 7.0, 50.0, 1.0], &mask));
        assert_eq!(w.ejected(), &mask);
        let check = |w: &Weights, what: &str| {
            assert_eq!(
                w.get(1).to_bits(),
                0.0f64.to_bits(),
                "{what}: mass on ejected"
            );
            assert!((sum(w) - 1.0).abs() < 1e-9, "{what}: sum {}", sum(w));
            for b in [0, 2, 3] {
                assert!(w.get(b) >= 0.05 - 1e-12, "{what}: w[{b}] = {}", w.get(b));
            }
        };
        assert!(w.shift_from(0, 0.3) > 0.0);
        check(&w, "shift_from");
        w.scale(2, 4.0);
        check(&w, "scale");
        assert!(w.remap(0.0, |b, w| if b == 1 { 9.0 } else { w * w }));
        check(&w, "remap");
        w.set(&[1.0, 1.0, 1.0, 1.0]);
        check(&w, "set");
        for b in [0, 2, 3] {
            assert!((w.get(b) - 1.0 / 3.0).abs() < 1e-12);
        }
        // The mask moves only through `eject`: readmission.
        assert!(w.eject(|_, w| Some(w.max(0.05))));
        assert_eq!(w.ejected(), &[false; 4]);
        assert!(w.get(1) >= 0.05 - 1e-12);
    }

    #[test]
    fn scale_up_keeps_the_others_at_the_floor() {
        let mut w = Weights::equal(2, 0.01);
        w.set(&[0.99, 0.01]);
        w.scale(0, 1.5);
        assert!(
            w.get(1) >= 0.01 - 1e-12,
            "pushed under the floor: {}",
            w.get(1)
        );
        assert!((sum(&w) - 1.0).abs() < 1e-12);
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
        assert!(!eject(&mut w, &[1.0, 1.0, 1.0], &[true, true, true]));
        let after: Vec<u64> = w.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(before, after, "refused call must preserve shares bitwise");
        // Readmission: the very next call with a survivor succeeds.
        assert!(eject(&mut w, &[0.0, 5.0, 5.0], &[true, false, false]));
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
        assert!(eject(
            &mut w,
            &[1e6, 1.0, 1.0, 3.0],
            &[false, false, false, true]
        ));
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
        assert!(eject(&mut w, &[0.0, 0.0, 0.0], &[true, true, false]));
        assert_eq!(w.get(0).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.get(1).to_bits(), 0.0f64.to_bits());
        assert_eq!(w.get(2).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn ejection_respects_floor_among_survivors() {
        let mut w = Weights::equal(4, 0.05);
        assert!(eject(
            &mut w,
            &[100.0, 0.001, 50.0, 1.0],
            &[false, false, true, false]
        ));
        assert_eq!(w.get(2).to_bits(), 0.0f64.to_bits());
        assert!(w.get(1) >= 0.05 - 1e-12, "floored: {}", w.get(1));
        assert!(w.get(3) >= 0.05 - 1e-12, "floored: {}", w.get(3));
        assert!((sum(&w) - 1.0).abs() < 1e-9);
    }
}
