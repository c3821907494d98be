//! Rendezvous-hash (highest-random-weight) ECMP shard selection.
//!
//! The router's ECMP stage maps a flow hash to one egress link out of a
//! set. A naive `hash % n` is per-flow stable but not *shard*-stable:
//! resizing the set from n to n±1 remaps almost every flow, which in a
//! multi-LB tier would shift most flows onto a load balancer with no
//! state for them (§2.5 failover concern, amplified N-fold).
//!
//! Rendezvous hashing fixes that: every member scores the flow
//! independently (`splitmix64` over the flow hash mixed with the member
//! identity) and the highest score wins. Removing a member remaps only
//! the flows it owned; adding one steals only the flows the newcomer now
//! wins. Ties break toward the smaller [`LinkId`], so the pick is a pure
//! function of the *set* of members — independent of their order in the
//! route entry.
//!
//! Per-packet cost is one `splitmix64` per member; member sets here are
//! LB tiers (single digits), not server fleets, so this stays cheaper
//! than a Maglev-style table while giving the same minimal-disruption
//! property.

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

use crate::link::LinkId;

/// Salt folded into each member identity before scoring, so that link
/// IDs (small sequential integers) behave as independent hash streams
/// rather than near-collisions.
const MEMBER_SALT: u64 = 0x5bd1_e995_9e37_79b9;

/// The rendezvous score of `member` for a flow. Pure function of the
/// `(flow_hash, member)` pair; higher wins.
#[inline]
pub fn member_score(flow_hash: u64, member: LinkId) -> u64 {
    splitmix64(flow_hash ^ splitmix64(u64::from(member.0).wrapping_add(MEMBER_SALT)))
}

/// Picks the egress link for `flow_hash` among `members` by rendezvous
/// hashing. Returns `None` only for an empty member set.
///
/// Guarantees, relied on by the multi-LB tier and its property tests:
///
/// * **Determinism** — the pick depends only on the flow hash and the
///   *set* of members (ties break toward the smaller `LinkId`), never on
///   member order or any ambient state.
/// * **Shard stability on shrink** — removing a member changes the pick
///   only for flows that member owned.
/// * **Shard stability on growth** — adding a member either leaves a
///   flow where it was or moves it to the new member, never to a third.
#[inline]
pub fn pick(flow_hash: u64, members: &[LinkId]) -> Option<LinkId> {
    // Degenerate single-member sets (every single-LB topology) skip the
    // scoring entirely.
    if members.len() == 1 {
        return Some(members[0]);
    }
    let mut best: Option<(u64, LinkId)> = None;
    for &m in members {
        let score = member_score(flow_hash, m);
        let better = match best {
            None => true,
            Some((best_score, best_member)) => {
                score > best_score || (score == best_score && m.0 < best_member.0)
            }
        };
        if better {
            best = Some((score, m));
        }
    }
    best.map(|(_, member)| member)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: u32) -> Vec<LinkId> {
        (0..n).map(|i| LinkId(100 + 3 * i)).collect()
    }

    #[test]
    fn empty_set_has_no_pick() {
        assert_eq!(pick(42, &[]), None);
    }

    #[test]
    fn single_member_always_wins() {
        let m = [LinkId(7)];
        for f in 0..64u64 {
            assert_eq!(pick(splitmix64(f), &m), Some(LinkId(7)));
        }
    }

    #[test]
    fn pick_is_member_order_independent() {
        let fwd = members(8);
        let mut rev = fwd.clone();
        rev.reverse();
        let mut rotated = fwd.clone();
        rotated.rotate_left(3);
        for f in 0..4096u64 {
            let h = splitmix64(f);
            let p = pick(h, &fwd);
            assert_eq!(p, pick(h, &rev));
            assert_eq!(p, pick(h, &rotated));
        }
    }

    #[test]
    fn spread_is_roughly_uniform() {
        for n in [2u32, 4, 8] {
            let set = members(n);
            let mut counts = vec![0u32; set.len()];
            let flows = 8192u32;
            for f in 0..flows {
                let winner = pick(splitmix64(u64::from(f)), &set).expect("non-empty");
                let idx = set.iter().position(|&m| m == winner).expect("member");
                counts[idx] += 1;
            }
            let expect = flows / n;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    c > expect / 2 && c < expect * 2,
                    "member {i} of {n} got {c}, expected ~{expect}"
                );
            }
        }
    }

    #[test]
    fn removal_remaps_only_owned_flows() {
        let full = members(5);
        for removed_idx in 0..full.len() {
            let removed = full[removed_idx];
            let mut shrunk = full.clone();
            shrunk.remove(removed_idx);
            for f in 0..4096u64 {
                let h = splitmix64(f);
                let before = pick(h, &full).expect("non-empty");
                let after = pick(h, &shrunk).expect("non-empty");
                if before != removed {
                    assert_eq!(before, after, "flow {f} moved without losing its member");
                }
            }
        }
    }

    #[test]
    fn growth_moves_flows_only_to_the_new_member() {
        let small = members(4);
        let newcomer = LinkId(999);
        let mut grown = small.clone();
        grown.push(newcomer);
        let mut moved = 0u32;
        for f in 0..4096u64 {
            let h = splitmix64(f);
            let before = pick(h, &small).expect("non-empty");
            let after = pick(h, &grown).expect("non-empty");
            if after != before {
                assert_eq!(after, newcomer, "flow {f} moved to a surviving member");
                moved += 1;
            }
        }
        // The newcomer should win roughly 1/5 of the flows.
        assert!(moved > 500 && moved < 1200, "newcomer stole {moved} flows");
    }
}
