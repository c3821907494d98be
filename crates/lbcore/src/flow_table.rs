//! Per-connection state at the LB: backend affinity plus the measurement
//! state of Algorithms 1/2.
//!
//! Connection-to-backend affinity is a hard LB requirement (§2.5): once a
//! connection is assigned, weight changes must not move it, or the TCP
//! connection breaks. The flow table pins assignments; the Maglev table
//! only decides *new* flows. Entries expire after an idle timeout, swept
//! periodically, so the table is bounded by the number of live-ish flows.

// Fast-path module: a malformed input surfaces as a Result/Option,
// never a process abort (DESIGN.md §6.9, rule F1).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::BTreeMap;
use std::ops::Bound;

use netpkt::FlowKey;

use crate::ensemble::EnsembleFlowState;
use crate::Nanos;

/// Per-flow entry.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    /// The pinned backend index.
    pub backend: usize,
    /// Measurement state for the ensemble estimator.
    pub timing: EnsembleFlowState,
    /// Last packet arrival (drives idle expiry).
    pub last_seen: Nanos,
    /// Packets observed on this flow.
    pub packets: u64,
}

/// Flow-table counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowTableStats {
    /// Entries created.
    pub inserted: u64,
    /// Entries explicitly removed (SYN-reset of a stale tuple, etc.).
    pub closed: u64,
    /// Entries removed by the idle sweep.
    pub expired: u64,
    /// Entries evicted because the table hit its capacity (SYN floods —
    /// §2.4's volumetric-attack concern — must not grow LB memory
    /// without bound).
    pub evicted: u64,
    /// Entries migrated to a different backend by health ejection.
    pub repinned: u64,
}

/// The LB's connection table.
///
/// Entries live in a `BTreeMap` so every traversal (capacity probes,
/// sweeps, per-backend counts) runs in key order: the table's observable
/// behaviour is a pure function of its contents, independent of hasher
/// seeds or insertion history (rule D3, DESIGN.md §6.9).
#[derive(Debug)]
pub struct FlowTable {
    entries: BTreeMap<FlowKey, FlowEntry>,
    idle_timeout: Nanos,
    max_entries: usize,
    /// Where the next capacity probe resumes (exclusive). Rotating the
    /// probe window across the key space approximates LRU with a fixed
    /// per-insert cost instead of always re-probing the smallest keys.
    probe_cursor: Option<FlowKey>,
    /// Counters.
    pub stats: FlowTableStats,
}

impl FlowTable {
    /// Creates a table whose entries expire after `idle_timeout` without
    /// traffic, with a default capacity of 2²⁰ entries.
    pub fn new(idle_timeout: Nanos) -> FlowTable {
        Self::with_capacity(idle_timeout, 1 << 20)
    }

    /// Creates a table with an explicit capacity. At capacity, inserting
    /// evicts the least-recently-seen entry among a bounded probe of
    /// existing entries (approximate LRU, the fixed-cost strategy
    /// production LB conntracks use).
    pub fn with_capacity(idle_timeout: Nanos, max_entries: usize) -> FlowTable {
        assert!(idle_timeout > 0, "idle timeout must be positive");
        assert!(max_entries > 0, "capacity must be positive");
        FlowTable {
            entries: BTreeMap::new(),
            idle_timeout,
            max_entries,
            probe_cursor: None,
            stats: FlowTableStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a flow.
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut FlowEntry> {
        self.entries.get_mut(key)
    }

    /// Inserts a new flow pinned to `backend`, evicting if at capacity.
    pub fn insert(
        &mut self,
        key: FlowKey,
        backend: usize,
        timing: EnsembleFlowState,
        now: Nanos,
    ) -> &mut FlowEntry {
        if self.entries.len() >= self.max_entries && !self.entries.contains_key(&key) {
            self.evict_one();
        }
        self.stats.inserted += 1;
        self.entries.entry(key).or_insert(FlowEntry {
            backend,
            timing,
            last_seen: now,
            packets: 0,
        })
    }

    /// Evicts the least-recently-seen entry among a bounded, key-ordered
    /// probe window (approximate LRU, the fixed-cost strategy production
    /// LB conntracks use). The window starts after the previous probe's
    /// last key and wraps, so repeated evictions sweep the whole table
    /// deterministically.
    fn evict_one(&mut self) {
        const PROBE: usize = 16;
        let mut probed: Vec<(FlowKey, Nanos)> = Vec::with_capacity(PROBE);
        let start = match self.probe_cursor {
            Some(c) => (Bound::Excluded(c), Bound::Unbounded),
            None => (Bound::Unbounded, Bound::Unbounded),
        };
        for (k, e) in self.entries.range(start).take(PROBE) {
            probed.push((*k, e.last_seen));
        }
        if probed.len() < PROBE {
            // Wrapped past the largest key: continue from the smallest.
            let have = probed.len();
            for (k, e) in self.entries.iter().take(PROBE - have) {
                if probed.iter().any(|(p, _)| p == k) {
                    break;
                }
                probed.push((*k, e.last_seen));
            }
        }
        // Ties on `last_seen` break on the key, keeping the choice a
        // pure function of table contents.
        let victim = probed
            .iter()
            .min_by_key(|(k, seen)| (*seen, *k))
            .map(|(k, _)| *k);
        if let Some(v) = victim {
            self.probe_cursor = probed.last().map(|(k, _)| *k);
            self.entries.remove(&v);
            self.stats.evicted += 1;
        }
    }

    /// Removes a flow (observed FIN from the client, or RST).
    pub fn remove(&mut self, key: &FlowKey) -> Option<FlowEntry> {
        let e = self.entries.remove(key);
        if e.is_some() {
            self.stats.closed += 1;
        }
        e
    }

    /// Removes entries idle for longer than the timeout; returns how many.
    pub fn sweep(&mut self, now: Nanos) -> usize {
        let timeout = self.idle_timeout;
        let before = self.entries.len();
        self.entries
            .retain(|_, e| now.saturating_sub(e.last_seen) <= timeout);
        let removed = before - self.entries.len();
        self.stats.expired += removed as u64;
        removed
    }

    /// Applies `f`, in key order, to every entry pinned to backend `from`
    /// (health ejection: the caller re-pins `entry.backend` to a survivor
    /// and resets the entry's timing state so affinity entries are
    /// migrated instead of blackholing their flows). Returns how many
    /// entries matched.
    pub fn repin_backend(
        &mut self,
        from: usize,
        mut f: impl FnMut(&FlowKey, &mut FlowEntry),
    ) -> usize {
        let mut matched = 0usize;
        for (k, e) in self.entries.iter_mut() {
            if e.backend == from {
                f(k, e);
                matched += 1;
            }
        }
        self.stats.repinned += matched as u64;
        matched
    }

    /// Number of live flows pinned to each of `n` backends (diagnostics).
    pub fn per_backend_counts(&self, n: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n];
        for e in self.entries.values() {
            if e.backend < n {
                counts[e.backend] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleConfig, EnsembleTimeout};
    use std::net::Ipv4Addr;

    const MS: Nanos = 1_000_000;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            port,
            Ipv4Addr::new(10, 9, 9, 9),
            11211,
        )
    }

    fn timing() -> EnsembleFlowState {
        EnsembleTimeout::new(EnsembleConfig::default()).new_flow(0)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = FlowTable::new(5_000 * MS);
        assert!(t.is_empty());
        t.insert(key(1000), 1, timing(), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_mut(&key(1000)).unwrap().backend, 1);
        assert!(t.get_mut(&key(1001)).is_none());
        assert!(t.remove(&key(1000)).is_some());
        assert!(t.is_empty());
        assert_eq!(t.stats.inserted, 1);
        assert_eq!(t.stats.closed, 1);
    }

    #[test]
    fn affinity_survives_updates() {
        let mut t = FlowTable::new(5_000 * MS);
        t.insert(key(1), 0, timing(), 0);
        let e = t.get_mut(&key(1)).unwrap();
        e.last_seen = 100;
        e.packets += 1;
        assert_eq!(t.get_mut(&key(1)).unwrap().backend, 0);
        assert_eq!(t.get_mut(&key(1)).unwrap().packets, 1);
    }

    #[test]
    fn sweep_expires_only_idle() {
        let mut t = FlowTable::new(10 * MS);
        t.insert(key(1), 0, timing(), 0);
        t.insert(key(2), 1, timing(), 0);
        t.get_mut(&key(2)).unwrap().last_seen = 95 * MS;
        let removed = t.sweep(100 * MS);
        assert_eq!(removed, 1);
        assert!(t.get_mut(&key(1)).is_none(), "idle flow must be gone");
        assert!(t.get_mut(&key(2)).is_some(), "active flow must stay");
        assert_eq!(t.stats.expired, 1);
    }

    #[test]
    fn per_backend_counts() {
        let mut t = FlowTable::new(5_000 * MS);
        t.insert(key(1), 0, timing(), 0);
        t.insert(key(2), 1, timing(), 0);
        t.insert(key(3), 1, timing(), 0);
        assert_eq!(t.per_backend_counts(2), vec![1, 2]);
    }

    #[test]
    fn capacity_evicts_stalest_probed() {
        let mut t = FlowTable::with_capacity(5_000 * MS, 4);
        for (i, port) in (1u16..=4).enumerate() {
            t.insert(key(port), 0, timing(), i as u64 * MS);
        }
        assert_eq!(t.len(), 4);
        // A fifth insert evicts one (the stalest in the probe window).
        t.insert(key(5), 1, timing(), 10 * MS);
        assert_eq!(t.len(), 4, "capacity exceeded");
        assert_eq!(t.stats.evicted, 1);
        assert!(t.get_mut(&key(5)).is_some(), "new entry must be present");
    }

    #[test]
    fn flood_of_inserts_stays_bounded() {
        let mut t = FlowTable::with_capacity(5_000 * MS, 64);
        for port in 0..10_000u64 {
            t.insert(key(port as u16), 0, timing(), port);
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.stats.evicted, 10_000 - 64);
    }

    #[test]
    fn eviction_is_a_pure_function_of_the_op_sequence() {
        let build = || {
            let mut t = FlowTable::with_capacity(5_000 * MS, 32);
            for i in 0..500u64 {
                // Ports collide and last_seen values repeat, exercising
                // both the wrap-around probe and the tie-break on key.
                let port = 1 + (i * 7919 % 301) as u16;
                t.insert(key(port), (i % 7) as usize, timing(), i % 13);
            }
            t
        };
        let (a, b) = (build(), build());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.stats.evicted, b.stats.evicted);
        assert_eq!(a.per_backend_counts(7), b.per_backend_counts(7));
        let keys_a: Vec<FlowKey> = a.entries.keys().copied().collect();
        let keys_b: Vec<FlowKey> = b.entries.keys().copied().collect();
        assert_eq!(keys_a, keys_b, "tables diverged under identical ops");
    }

    #[test]
    fn probe_cursor_rotates_across_the_key_space() {
        let mut t = FlowTable::with_capacity(5_000 * MS, 64);
        for port in 0..200u16 {
            t.insert(key(port + 1), 0, timing(), u64::from(port));
        }
        // With a rotating 16-entry probe window the evictions must not
        // all come from the smallest keys: some small-port early keys
        // survive while later windows evict elsewhere.
        assert_eq!(t.len(), 64);
        assert_eq!(t.stats.evicted, 200 - 64);
    }

    #[test]
    fn capacity_one_table_replaces_its_lone_entry() {
        // Degenerate capacity: every distinct insert evicts the single
        // resident entry, and the table never exceeds one flow.
        let mut t = FlowTable::with_capacity(5_000 * MS, 1);
        t.insert(key(1), 0, timing(), 0);
        for port in 2..=5u16 {
            t.insert(key(port), 0, timing(), u64::from(port) * MS);
            assert_eq!(t.len(), 1, "capacity-1 table grew");
            assert!(t.get_mut(&key(port)).is_some(), "newest flow missing");
            assert!(t.get_mut(&key(port - 1)).is_none(), "old flow survived");
        }
        assert_eq!(t.stats.evicted, 4);
    }

    #[test]
    fn equal_last_seen_ties_evict_the_smallest_key() {
        // All entries share one last_seen, so approximate-LRU has no
        // recency signal: the tie must break on the key (smallest wins)
        // to stay a pure function of table contents.
        let mut t = FlowTable::with_capacity(5_000 * MS, 4);
        for port in [7u16, 3, 9, 5] {
            t.insert(key(port), 0, timing(), 42 * MS);
        }
        t.insert(key(8), 0, timing(), 42 * MS);
        assert_eq!(t.len(), 4);
        assert!(t.get_mut(&key(3)).is_none(), "smallest key must be evicted");
        for port in [5u16, 7, 8, 9] {
            assert!(t.get_mut(&key(port)).is_some(), "port {port} missing");
        }
    }

    #[test]
    fn capacity_below_probe_width_stays_exact_lru() {
        // With capacity 8 < PROBE (16) every probe wraps and sees the
        // whole table, so approximate LRU degenerates to exact LRU:
        // under strictly increasing last_seen the survivors are always
        // the most recent `capacity` inserts.
        let mut t = FlowTable::with_capacity(5_000 * MS, 8);
        for port in 1..=40u16 {
            t.insert(key(port), 0, timing(), u64::from(port) * MS);
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.stats.evicted, 32);
        for port in 1..=32u16 {
            assert!(
                t.get_mut(&key(port)).is_none(),
                "port {port} should be gone"
            );
        }
        for port in 33..=40u16 {
            assert!(t.get_mut(&key(port)).is_some(), "port {port} missing");
        }
    }

    #[test]
    fn reinsert_of_existing_key_does_not_evict() {
        let mut t = FlowTable::with_capacity(5_000 * MS, 2);
        t.insert(key(1), 0, timing(), 0);
        t.insert(key(2), 0, timing(), 1);
        t.insert(key(1), 0, timing(), 2); // same key: no eviction needed
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats.evicted, 0);
    }

    #[test]
    fn duplicate_insert_keeps_original() {
        let mut t = FlowTable::new(5_000 * MS);
        t.insert(key(1), 0, timing(), 0);
        t.insert(key(1), 1, timing(), 50);
        assert_eq!(
            t.get_mut(&key(1)).unwrap().backend,
            0,
            "affinity must not change"
        );
    }
}
