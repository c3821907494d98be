//! Periodic weight-gossip merge for a multi-LB tier.
//!
//! Behind an ECMP tier each load balancer sees only the flows that hash
//! to it, so its in-band feedback loop runs on a 1/N sample of the
//! traffic. With N large the per-LB signal thins out and reaction slows
//! (the partial-visibility regime). Gossip is the counter-measure: every
//! `period`, each LB blends its own weight vector toward the mean of its
//! peers' vectors, sharing what each shard has learned without sharing
//! raw samples.
//!
//! The merge is *mask-respecting* without being told the mask: the blend
//! is written through [`Weights::remap`], and the local [`Weights`] owns
//! the **local** ejection mask, so gossip can never resurrect a backend
//! this LB has ejected, and the floor/normalization invariants (survivors
//! ≥ floor, sum = 1, ejected pinned to exactly zero) hold after every
//! merge.
//!
//! Transport is the caller's problem: in the simulator the experiment
//! driver steps the clock in `period` increments and applies
//! [`merge_weights`] between steps, which keeps the whole exchange
//! deterministic and bit-reproducible.

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

use crate::weights::Weights;

/// A merge that would move no share by more than this is not applied.
const MERGE_EPSILON: f64 = 1e-12;

/// Gossip cadence and blend strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Nanoseconds between gossip rounds.
    pub period_ns: u64,
    /// How far each round pulls the local vector toward the peer mean:
    /// 0 = isolated (no-op), 1 = adopt the peer mean outright. Values are
    /// clamped to `[0, 1]` at merge time.
    pub mix: f64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            period_ns: 50_000_000, // 50 ms — a few controller periods
            mix: 0.5,
        }
    }
}

/// Blends `local` toward the element-wise mean of `peers`; the result is
/// normalized, floored and kept off ejected backends by `local` itself.
///
/// Peers whose vector length does not match `local` are skipped (a tier
/// mid-reconfiguration must not poison the merge). Returns `true` only
/// when the merge moved at least one share by more than an epsilon — the
/// caller then commits the new vector. Returns `false`, with `local`
/// untouched bit for bit, for an empty/mismatched peer set, a
/// non-positive mix, or a blend that stays under the epsilon.
pub fn merge_weights(local: &mut Weights, peers: &[&[f64]], mix: f64) -> bool {
    let n = local.len();
    let mix = mix.clamp(0.0, 1.0);
    let matching = || peers.iter().filter(|p| p.len() == n);
    let used = matching().count();
    if mix <= 0.0 || used == 0 {
        return false;
    }
    let inv = 1.0 / used as f64;
    local.remap(MERGE_EPSILON, |b, l| {
        let sum = matching().fold(0.0, |sum, p| sum + p[b]);
        ((1.0 - mix) * l + mix * sum * inv).max(0.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_peer_set_is_a_no_op() {
        let mut w = Weights::equal(3, 0.02);
        let before = w.clone();
        assert!(!merge_weights(&mut w, &[], 0.5));
        assert_eq!(w, before);
    }

    #[test]
    fn zero_mix_is_a_no_op() {
        let mut w = Weights::equal(2, 0.0);
        let peer = [0.9, 0.1];
        assert!(!merge_weights(&mut w, &[&peer], 0.0));
        assert!((w.get(0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn mismatched_peers_are_skipped() {
        let mut w = Weights::equal(2, 0.0);
        let short = [1.0];
        let before = w.clone();
        assert!(!merge_weights(&mut w, &[&short], 0.5));
        assert_eq!(w, before);
    }

    #[test]
    fn full_mix_adopts_the_peer_mean() {
        let mut w = Weights::equal(2, 0.0);
        let a = [0.9, 0.1];
        let b = [0.7, 0.3];
        assert!(merge_weights(&mut w, &[&a, &b], 1.0));
        assert!((w.get(0) - 0.8).abs() < 1e-9);
        assert!((w.get(1) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn half_mix_lands_halfway_and_stays_normalized() {
        let mut w = Weights::equal(2, 0.0);
        let peer = [1.0, 0.0];
        assert!(merge_weights(&mut w, &[&peer], 0.5));
        assert!((w.get(0) - 0.75).abs() < 1e-9);
        let sum: f64 = w.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gossip_cannot_resurrect_an_ejected_backend() {
        let mut w = Weights::equal(3, 0.02);
        assert!(w.eject(|b, _| (b != 2).then_some(1.0)));
        // Peer still believes in backend 2.
        let peer = [0.3, 0.1, 0.6];
        assert!(merge_weights(&mut w, &[&peer], 0.8));
        assert!(w.get(0) > w.get(1), "the survivors did blend");
        assert_eq!(w.get(2).to_bits(), 0.0f64.to_bits());
        let sum: f64 = w.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn identical_vectors_report_no_change() {
        let mut w = Weights::equal(4, 0.01);
        let peer = w.as_slice().to_vec();
        assert!(!merge_weights(&mut w, &[&peer], 0.5));
    }

    #[test]
    fn a_blend_under_the_epsilon_is_not_written() {
        let mut w = Weights::equal(2, 0.0);
        let peer = [0.5 + 1e-13, 0.5 - 1e-13];
        assert!(!merge_weights(&mut w, &[&peer], 1.0));
        assert_eq!(w.get(0).to_bits(), 0.5f64.to_bits());
        assert_eq!(w.get(1).to_bits(), 0.5f64.to_bits());
    }
}
