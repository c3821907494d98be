//! The host's flow index: a connection's four-tuple, as its peer sends
//! it, to the connection's slot.
//!
//! Open addressing over [`FlowKey::stable_hash`] with linear probing. The
//! bucket count is a power of two kept at least twice the entry count, so
//! probe chains stay short, and a removal shifts the rest of its chain
//! back into the hole (backward-shift deletion, no tombstones), so churn
//! never lengthens a lookup. The host only looks up, inserts and removes;
//! it never walks the index, so the index keeps no order and no hasher
//! state can leak into the simulation (rule D3, DESIGN.md §6.9).

use netpkt::FlowKey;

use crate::app::ConnId;

/// Buckets of a new index.
const MIN_BUCKETS: usize = 16;

/// See the module docs.
pub(crate) struct FlowIndex {
    /// `(key, slot)` per bucket, `None` = empty; the length is a power
    /// of two.
    buckets: Vec<Option<(FlowKey, ConnId)>>,
    len: usize,
}

impl FlowIndex {
    pub(crate) fn new() -> FlowIndex {
        FlowIndex {
            buckets: vec![None; MIN_BUCKETS],
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket where `key`'s probe chain starts.
    // The masked hash is below the bucket count, a `usize`.
    #[allow(clippy::cast_possible_truncation)]
    fn home(&self, key: &FlowKey) -> usize {
        (key.stable_hash() & self.mask() as u64) as usize
    }

    /// The bucket holding `key`, or else the empty bucket that ends its
    /// probe chain (there is one: the index is at most half full).
    fn find(&self, key: &FlowKey) -> usize {
        let mut i = self.home(key);
        while let Some((k, _)) = &self.buckets[i] {
            if k == key {
                break;
            }
            i = (i + 1) & self.mask();
        }
        i
    }

    /// The slot of `key`'s connection.
    pub(crate) fn get(&self, key: &FlowKey) -> Option<ConnId> {
        self.buckets[self.find(key)].map(|(_, id)| id)
    }

    /// Maps `key` to `id`, replacing an earlier mapping of `key`.
    pub(crate) fn insert(&mut self, key: FlowKey, id: ConnId) {
        if 2 * (self.len + 1) > self.buckets.len() {
            let doubled = vec![None; 2 * self.buckets.len()];
            let old = std::mem::replace(&mut self.buckets, doubled);
            for (k, v) in old.into_iter().flatten() {
                let i = self.find(&k);
                self.buckets[i] = Some((k, v));
            }
        }
        let i = self.find(&key);
        if self.buckets[i].is_none() {
            self.len += 1;
        }
        self.buckets[i] = Some((key, id));
    }

    /// Unmaps `key`, returning the slot it named.
    pub(crate) fn remove(&mut self, key: &FlowKey) -> Option<ConnId> {
        let mut hole = self.find(key);
        let (_, id) = self.buckets[hole].take()?;
        self.len -= 1;
        // Walk the rest of the chain: an entry whose probe path from its
        // home passes the hole moves into it, and its bucket is the new
        // hole. The first empty bucket ends every chain through the hole.
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask();
            let Some((k, _)) = self.buckets[j] else {
                return Some(id);
            };
            let from_home = j.wrapping_sub(self.home(&k)) & self.mask();
            if from_home >= j.wrapping_sub(hole) & self.mask() {
                self.buckets[hole] = self.buckets[j].take();
                hole = j;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            11211,
            Ipv4Addr::new(10, 0, 1, 1),
            port,
        )
    }

    /// The first `n` keys (by port) whose chains start at `bucket`.
    fn homed_at(index: &FlowIndex, bucket: usize, n: usize) -> Vec<FlowKey> {
        let keys: Vec<FlowKey> = (0..=u16::MAX)
            .map(key)
            .filter(|k| index.home(k) == bucket)
            .take(n)
            .collect();
        assert_eq!(keys.len(), n, "not enough keys homed at {bucket}");
        keys
    }

    fn id(n: usize) -> ConnId {
        ConnId(u32::try_from(n).expect("small test id"))
    }

    #[test]
    fn colliding_keys_share_a_chain_and_all_resolve() {
        let mut index = FlowIndex::new();
        // The last bucket: the chain wraps to bucket 0.
        let keys = homed_at(&index, MIN_BUCKETS - 1, 7);
        for (n, k) in keys.iter().enumerate() {
            index.insert(*k, id(n));
        }
        assert_eq!(index.buckets.len(), MIN_BUCKETS, "7 of 16 needs no growth");
        for (n, k) in keys.iter().enumerate() {
            assert_eq!(index.get(k), Some(id(n)));
        }
        let absent = homed_at(&index, MIN_BUCKETS - 1, 8)[7];
        assert_eq!(index.get(&absent), None);
        // Re-inserting a key replaces its slot in place.
        index.insert(keys[3], id(99));
        assert_eq!((index.get(&keys[3]), index.len), (Some(id(99)), 7));
    }

    #[test]
    fn removing_mid_chain_keeps_the_rest_reachable() {
        let mut index = FlowIndex::new();
        // Two chains that interleave: four keys homed at 14, three at 15
        // (pushed on to 0, 1, 2 by the first chain).
        let a = homed_at(&index, 14, 4);
        let b = homed_at(&index, 15, 3);
        let all: Vec<FlowKey> = a.iter().chain(&b).copied().collect();
        for (n, k) in all.iter().enumerate() {
            index.insert(*k, id(n));
        }
        let mut removed = Vec::new();
        for gone in [a[1], b[0], a[0]] {
            let slot = all.iter().position(|k| *k == gone).map(id);
            assert_eq!(index.remove(&gone), slot);
            assert_eq!(index.remove(&gone), None, "removed twice");
            removed.push(gone);
            for (n, k) in all.iter().enumerate() {
                let want = (!removed.contains(k)).then_some(id(n));
                assert_eq!(index.get(k), want, "after removing {gone}");
            }
        }
        // Backward shift left no hole inside the chains: the four
        // survivors fill the buckets from 14 on.
        assert_eq!(index.len, 4);
        let occupied = index.buckets.iter().filter(|b| b.is_some()).count();
        assert_eq!(occupied, 4);
        for i in [14, 15, 0, 1] {
            assert!(index.buckets[i].is_some(), "hole at bucket {i}");
        }
    }

    #[test]
    fn growth_keeps_every_mapping_and_the_index_half_empty() {
        let mut index = FlowIndex::new();
        for n in 0..1000 {
            index.insert(key(n), id(usize::from(n)));
            assert!(2 * index.len <= index.buckets.len());
            assert!(index.buckets.len().is_power_of_two());
        }
        assert_eq!(index.buckets.len(), 2048);
        for n in (0..1000).step_by(2) {
            assert_eq!(index.remove(&key(n)), Some(id(usize::from(n))));
        }
        for n in 0..1000 {
            let want = (n % 2 == 1).then_some(id(usize::from(n)));
            assert_eq!(index.get(&key(n)), want);
        }
        assert_eq!(index.len, 500);
    }
}
