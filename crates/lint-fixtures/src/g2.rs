//! G2 — a non-total float comparator: `partial_cmp(..).unwrap()` panics
//! on NaN and defines no order for it. `unwrap_used` and `expect_used`,
//! denied at the root of `lbcore` and `telemetry`, reject the call, so
//! the comparator is written with `f64::total_cmp`.

pub fn pick(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    #[expect(clippy::unwrap_used)]
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[0]
}

pub fn pick_expect(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    #[expect(clippy::expect_used)]
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v[0]
}
