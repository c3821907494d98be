//! G1 — hash containers in struct fields of a deterministic crate:
//! `disallowed_types`, public or private alike.

#[expect(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};

pub struct Table {
    #[expect(clippy::disallowed_types)]
    pub by_key: HashMap<u64, u64>,
    #[expect(clippy::disallowed_types)]
    seen: HashSet<u64>,
}

impl Table {
    pub fn seen(&self, k: u64) -> bool {
        self.seen.contains(&k)
    }
}
