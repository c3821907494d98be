//! D3 — hash-order iteration in a deterministic crate: the container is
//! a `disallowed_types` entry, and observing its order is
//! `iter_over_hash_type` on top.

pub fn sweep() {
    #[expect(clippy::disallowed_types)]
    let mut m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    m.insert(1, 2);
    #[expect(clippy::iter_over_hash_type)]
    for k in m.keys() {
        let _ = k;
    }
}

/// Type-resolved: an alias hides neither the container nor the loop.
pub fn renamed() {
    #[expect(clippy::disallowed_types)]
    use std::collections::HashMap as M;
    #[expect(clippy::disallowed_types)]
    let m: M<u64, u64> = M::new();
    #[expect(clippy::iter_over_hash_type)]
    for (k, v) in &m {
        let _ = (k, v);
    }
}
