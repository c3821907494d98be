//! Maglev consistent hashing (Eisenbud et al., NSDI '16), with a weighted
//! extension.
//!
//! The paper's testbed LB (Cilium XDP) uses Maglev to map connections to
//! backends; the feedback controller expresses its traffic shift by
//! changing backend *weights*, and the dataplane repopulates the lookup
//! table the next time it has to read it. This module implements:
//!
//! * the permutation-based table population of the original paper
//!   (`offset`/`skip` from two independent hashes, each backend claiming
//!   its next preferred empty slot in turn), and
//! * a weighted variant in which backend *i* receives turns proportional
//!   to its weight via a credit accumulator, so the final slot shares track
//!   the weight vector to within one part in the table size.
//!
//! A table is a pure function of `(weights, size)`, and so is the order
//! in which the population claims its slots: whose turn comes next
//! depends on the weights alone, and a claimed slot never changes. So the
//! population can stop anywhere and resume later with the same result.
//! One loop, `MaglevTable::populate`, runs it from a fill cursor (whose
//! turn it is, with that backend's credit, and how many slots are
//! claimed):
//!
//! * [`MaglevTable::build`] and [`MaglevTable::rebuild`] reset the
//!   cursor and run it to the end — in place for `rebuild`: the slot
//!   vector and the per-backend permutation state are reused,
//!   `offset`/`skip` are computed once per table, and a permutation is
//!   walked by add-and-wrap instead of a multiply and a 64-bit remainder
//!   per probe. No allocation, same slots.
//! * [`LazyMaglev`] resets the cursor for a new weight vector and fills
//!   nothing; each [`LazyMaglev::lookup`] of an unclaimed slot resumes the
//!   population just until that slot is claimed. One lookup costs about
//!   `M` probes for an `M`-slot table on average, a full build `M·H(M)`
//!   (≈ 8.9 `M` at 4093 slots), and lookups that land on claimed slots
//!   cost one read.
//!
//! A `MaglevTable` is always complete, so its `&self` lookups never see an
//! unclaimed slot; a partial one exists only inside a [`LazyMaglev`], which
//! hands it out ([`LazyMaglev::complete`]) once every slot is claimed.

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

use netpkt::flow::splitmix64;

/// A Maglev lookup table mapping hashes to backend indices. Every slot is
/// claimed: the partially populated state lives only inside
/// [`LazyMaglev`].
#[derive(Debug, Clone)]
pub struct MaglevTable {
    table: Vec<u32>,
    /// Per-backend population state, reused by every
    /// [`MaglevTable::rebuild`]. Never part of the value: equality
    /// ignores it.
    perms: Vec<Perm>,
    /// The fill cursor: the backend whose turn it is (its credit for the
    /// turn already earned) and the number of claimed slots.
    turn: usize,
    filled: usize,
}

/// One backend's walk through its slot permutation during a population.
#[derive(Debug, Clone)]
struct Perm {
    /// First preferred slot and stride (NSDI '16 §3.4): functions of the
    /// backend index and the table size only.
    offset: usize,
    skip: usize,
    /// The next slot of the permutation to try.
    pos: usize,
    /// Credits earned per round (`weight / mean weight`) and the balance.
    step: f64,
    credit: f64,
}

impl PartialEq for MaglevTable {
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table && self.perms.len() == other.perms.len()
    }
}

impl Eq for MaglevTable {}

const EMPTY: u32 = u32::MAX;

/// Returns true if `n` is prime (trial division; table sizes are small).
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// The default table size: a prime large enough that a 10% weight change
/// moves ≈400 slots (fine-grained), small enough to rebuild in tens of
/// microseconds. The original paper uses 65537 for production tables.
pub const DEFAULT_TABLE_SIZE: usize = 4093;

impl MaglevTable {
    /// Builds a table of `size` slots (must be prime and ≥ backends) over
    /// `weights.len()` backends with the given relative weights.
    ///
    /// Backends are identified by their index; hashing salts each index so
    /// permutations are independent. Weights must be non-negative and sum
    /// to a positive value; a zero-weight backend receives no *new* slots.
    ///
    /// # Panics
    /// Panics on an empty weight vector, non-prime size, or all-zero
    /// weights.
    pub fn build(weights: &[f64], size: usize) -> MaglevTable {
        let mut t = MaglevTable::unpopulated(size);
        t.rebuild(weights);
        t
    }

    /// Repopulates the table in place for a new weight vector: the result
    /// equals `MaglevTable::build(weights, self.len())` slot for slot, and
    /// nothing is allocated while the backend count stays what it was.
    ///
    /// # Panics
    /// Panics on an empty weight vector, more backends than slots, a
    /// negative or non-finite weight, or all-zero weights.
    pub fn rebuild(&mut self, weights: &[f64]) {
        self.reset(weights);
        self.populate(self.table.len());
    }

    /// A table of `size` slots, none claimed, over no backend yet.
    fn unpopulated(size: usize) -> MaglevTable {
        assert!(is_prime(size as u64), "table size must be prime");
        MaglevTable {
            table: vec![EMPTY; size],
            perms: Vec::new(),
            turn: 0,
            filled: 0,
        }
    }

    /// Unclaims every slot and puts the cursor at the start of the
    /// population for `weights`: backend 0's first turn, its credit for
    /// it earned.
    fn reset(&mut self, weights: &[f64]) {
        let n = weights.len();
        let size = self.table.len();
        assert!(n > 0, "at least one backend required");
        assert!(size >= n, "table smaller than backend count");
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be >= 0"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one positive weight required");

        if self.perms.len() != n {
            // Per-backend permutation parameters (offset, skip), NSDI '16
            // §3.4.
            let m = size as u64;
            self.perms.clear();
            self.perms.extend((0..n as u64).map(|b| {
                let h1 = splitmix64(0x6d61_676c_6576_0001 ^ b.wrapping_mul(0x9e37_79b9));
                let h2 = splitmix64(0x6d61_676c_6576_0002 ^ b.wrapping_mul(0x7f4a_7c15));
                Perm {
                    offset: (h1 % m) as usize,
                    skip: (h2 % (m - 1) + 1) as usize,
                    pos: 0,
                    step: 0.0,
                    credit: 0.0,
                }
            }));
        }
        // Weighted turn-taking: each round, backend b accrues
        // `weight_b / mean_weight` credits and claims one preferred slot
        // per whole credit.
        let mean = total / n as f64;
        for (p, &w) in self.perms.iter_mut().zip(weights) {
            p.pos = p.offset;
            p.step = w / mean;
            p.credit = 0.0;
        }
        self.table.fill(EMPTY);
        self.filled = 0;
        self.turn = 0;
        self.perms[0].credit += self.perms[0].step;
    }

    /// Runs the population from the cursor until slot `until` is claimed
    /// or, for `until >= len()`, until every slot is. The one population
    /// loop: a full build and a lookup's partial fill claim the same slots
    /// in the same order.
    fn populate(&mut self, until: usize) {
        let MaglevTable {
            table,
            perms,
            turn,
            filled,
        } = self;
        let size = table.len();
        let n = perms.len();
        let mut b = *turn;
        let mut claimed = *filled;
        while claimed < size {
            let p = &mut perms[b];
            if p.credit < 1.0 {
                // b's turn is over: the next backend earns its credit.
                b = if b + 1 == n { 0 } else { b + 1 };
                let q = &mut perms[b];
                q.credit += q.step;
                continue;
            }
            p.credit -= 1.0;
            // Claim the next empty slot in b's permutation
            // `(offset + k·skip) mod size`: offset < size and skip < size,
            // so one subtraction wraps.
            let slot = loop {
                let slot = p.pos;
                p.pos += p.skip;
                if p.pos >= size {
                    p.pos -= size;
                }
                if table[slot] == EMPTY {
                    break slot;
                }
            };
            table[slot] = b as u32;
            claimed += 1;
            if slot == until {
                break;
            }
        }
        *turn = b;
        *filled = claimed;
    }

    /// Builds an equal-weight table (classic Maglev).
    pub fn build_equal(backends: usize, size: usize) -> MaglevTable {
        MaglevTable::build(&vec![1.0; backends], size)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the table has no slots (never happens for built tables).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of backends the table was built over.
    pub fn backends(&self) -> usize {
        self.perms.len()
    }

    /// Looks up the backend for a flow hash.
    #[inline]
    pub fn lookup(&self, hash: u64) -> usize {
        self.table[(hash % self.table.len() as u64) as usize] as usize
    }

    /// The fraction of slots owned by each backend.
    pub fn shares(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.perms.len()];
        for &b in &self.table {
            counts[b as usize] += 1;
        }
        counts
            .iter()
            .map(|&c| c as f64 / self.table.len() as f64)
            .collect()
    }

    /// Number of slots that differ between two same-size tables — the
    /// *disruption* a table swap causes to connections without flow-table
    /// entries.
    pub fn slots_changed(&self, other: &MaglevTable) -> usize {
        assert_eq!(self.len(), other.len(), "tables must be the same size");
        self.table
            .iter()
            .zip(&other.table)
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// A [`MaglevTable`] populated on demand: [`LazyMaglev::reset`] installs a
/// weight vector and claims nothing, and [`LazyMaglev::lookup`] resumes
/// the population only until the slot it reads is claimed. Every lookup
/// returns what `MaglevTable::build(weights, size).lookup(hash)` would,
/// for the weights of the last reset.
#[derive(Debug, Clone)]
pub struct LazyMaglev {
    table: MaglevTable,
}

impl LazyMaglev {
    /// A table of `size` slots for `weights`, nothing claimed yet.
    ///
    /// # Panics
    /// As [`MaglevTable::build`].
    pub fn new(weights: &[f64], size: usize) -> LazyMaglev {
        let mut table = MaglevTable::unpopulated(size);
        table.reset(weights);
        LazyMaglev { table }
    }

    /// Restarts the population for a new weight vector: O(size) to
    /// unclaim the slots, no probing and no allocation while the backend
    /// count stays what it was.
    ///
    /// # Panics
    /// As [`MaglevTable::rebuild`].
    pub fn reset(&mut self, weights: &[f64]) {
        self.table.reset(weights);
    }

    /// Looks up the backend for a flow hash, claiming slots up to the one
    /// it reads if that one is still unclaimed.
    #[inline]
    pub fn lookup(&mut self, hash: u64) -> usize {
        let t = &mut self.table;
        let slot = (hash % t.table.len() as u64) as usize;
        if t.table[slot] == EMPTY {
            t.populate(slot);
        }
        t.table[slot] as usize
    }

    /// Slots claimed since the last reset.
    pub fn filled(&self) -> usize {
        self.table.filled
    }

    /// The finished table, once every slot is claimed.
    pub fn complete(&self) -> Option<&MaglevTable> {
        (self.table.filled == self.table.len()).then_some(&self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_balance() {
        for n in [2usize, 3, 5, 10] {
            let t = MaglevTable::build_equal(n, DEFAULT_TABLE_SIZE);
            let shares = t.shares();
            for (b, s) in shares.iter().enumerate() {
                let expect = 1.0 / n as f64;
                assert!(
                    (s - expect).abs() < 0.01,
                    "backend {b} of {n}: share {s} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn weighted_shares_track_weights() {
        let weights = [0.5, 0.3, 0.2];
        let t = MaglevTable::build(&weights, DEFAULT_TABLE_SIZE);
        let shares = t.shares();
        for (w, s) in weights.iter().zip(&shares) {
            assert!((w - s).abs() < 0.02, "weight {w} vs share {s}");
        }
    }

    #[test]
    fn extreme_skew_respected() {
        let t = MaglevTable::build(&[0.9, 0.1], DEFAULT_TABLE_SIZE);
        let shares = t.shares();
        assert!((shares[0] - 0.9).abs() < 0.02);
        assert!((shares[1] - 0.1).abs() < 0.02);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact: a zero weight owns no slot at all
    fn zero_weight_backend_gets_nothing() {
        let t = MaglevTable::build(&[1.0, 0.0, 1.0], DEFAULT_TABLE_SIZE);
        let shares = t.shares();
        assert_eq!(shares[1], 0.0);
        assert!((shares[0] - 0.5).abs() < 0.02);
    }

    #[test]
    fn lookup_is_deterministic_and_in_range() {
        let t = MaglevTable::build_equal(4, 251);
        for h in 0..10_000u64 {
            let b = t.lookup(splitmix64(h));
            assert!(b < 4);
            assert_eq!(b, t.lookup(splitmix64(h)));
        }
    }

    #[test]
    fn small_weight_change_is_low_disruption() {
        // Moving 10% of weight should remap roughly 10% of slots, not
        // reshuffle the table — the consistent-hashing property that keeps
        // un-tracked connections mostly unbroken.
        let a = MaglevTable::build(&[1.0, 1.0], DEFAULT_TABLE_SIZE);
        let b = MaglevTable::build(&[0.9, 1.1], DEFAULT_TABLE_SIZE);
        let changed = a.slots_changed(&b) as f64 / a.len() as f64;
        assert!(changed < 0.15, "disruption {changed} too high");
        assert!(changed > 0.0, "tables identical — weights ignored");
    }

    #[test]
    fn rebuild_identical_inputs_identical_tables() {
        let a = MaglevTable::build(&[0.7, 0.3], 1021);
        let b = MaglevTable::build(&[0.7, 0.3], 1021);
        assert_eq!(a, b);
    }

    #[test]
    fn backend_removal_spreads_to_survivors() {
        let a = MaglevTable::build_equal(3, DEFAULT_TABLE_SIZE);
        let b = MaglevTable::build(&[1.0, 1.0, 0.0], DEFAULT_TABLE_SIZE);
        // Every slot that pointed to backend 2 moved; slots of 0 and 1
        // mostly did not.
        let moved = a.slots_changed(&b) as f64 / a.len() as f64;
        assert!(moved > 0.25 && moved < 0.45, "moved {moved}");
        let shares = b.shares();
        assert!((shares[0] - 0.5).abs() < 0.02);
    }

    #[test]
    fn a_lazy_lookup_claims_only_up_to_its_slot() {
        let weights = [0.6, 0.3, 0.1];
        let full = MaglevTable::build(&weights, DEFAULT_TABLE_SIZE);
        let mut lazy = LazyMaglev::new(&weights, DEFAULT_TABLE_SIZE);
        assert_eq!(lazy.filled(), 0);
        let h = splitmix64(1);
        assert_eq!(lazy.lookup(h), full.lookup(h));
        let after_one = lazy.filled();
        assert!(
            after_one > 0 && after_one < DEFAULT_TABLE_SIZE,
            "{after_one}"
        );
        assert!(lazy.complete().is_none());
        // A read of a claimed slot claims nothing more.
        assert_eq!(lazy.lookup(h), full.lookup(h));
        assert_eq!(lazy.filled(), after_one);
        for slot in 0..DEFAULT_TABLE_SIZE as u64 {
            assert_eq!(lazy.lookup(slot), full.lookup(slot), "slot {slot}");
        }
        assert_eq!(lazy.complete(), Some(&full));
        lazy.reset(&[1.0, 1.0, 1.0]);
        assert_eq!((lazy.filled(), lazy.complete()), (0, None));
    }

    #[test]
    fn prime_checker() {
        assert!(is_prime(2));
        assert!(is_prime(251));
        assert!(is_prime(4093));
        assert!(is_prime(65537));
        assert!(!is_prime(1));
        assert!(!is_prime(4094));
        assert!(!is_prime(65536));
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn non_prime_size_rejected() {
        let _ = MaglevTable::build_equal(2, 4096);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_weights_rejected() {
        let _ = MaglevTable::build(&[0.0, 0.0], 251);
    }
}
