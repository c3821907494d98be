//! F2 — exact float equality in controller/estimator code:
//! `float_cmp`. The old fixture compared with a literal zero, which the
//! lint lets through by design: a value that was assigned zero (an
//! ejected backend's share) equals the literal exactly. The rule exists
//! for two computed values, so that is what the fixture compares
//! (DESIGN.md §6.9).

pub fn settled(gain: f64, target: f64) -> bool {
    #[expect(clippy::float_cmp)]
    let same = gain * 0.5 == target;
    same
}

/// Not flagged, on purpose.
pub fn at_zero(gain: f64) -> bool {
    gain == 0.0
}
