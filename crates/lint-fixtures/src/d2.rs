//! D2 — ambient entropy instead of a seeded `SimRng`. The old fixture
//! called `rand::thread_rng()`, which the offline workspace cannot even
//! name: `scripts/check.sh` asserts `Cargo.lock` lists neither `rand`
//! nor `getrandom`, and the one source of process entropy std itself
//! offers is a `disallowed_types` entry.

use std::hash::{BuildHasher, Hasher};

pub fn roll() -> u64 {
    #[expect(clippy::disallowed_types)]
    let keyed = std::collections::hash_map::RandomState::new();
    keyed.build_hasher().finish()
}

pub fn hash(x: u64) -> u64 {
    #[expect(clippy::disallowed_types)]
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write_u64(x);
    h.finish()
}
