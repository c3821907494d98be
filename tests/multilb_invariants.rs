//! Multi-LB tier invariants: shard isolation and gossip safety.
//!
//! * With gossip disabled, each LB's feedback state is built *only* from
//!   flows the router's rendezvous ECMP assigned to it — no cross-shard
//!   feedback leakage, checked sample by sample against the pure shard
//!   function.
//! * With gossip enabled, the merged weights stay normalized and
//!   floor-respecting on every LB, merges actually happen, and sharing
//!   pulls the shards' views of the degraded backend closer together
//!   than isolation does.
//!
//! (The "every ejection subset" half of the gossip invariant is the
//! `gossip_merge_normalized_for_every_ejection_subset` property in
//! `crates/lbcore/tests/proptests.rs`.)

use std::collections::BTreeSet;

use experiments::fig3::Fig3Config;
use experiments::kv::kv_flow_key;
use experiments::KvCluster;
use lbcore::GossipConfig;
use netsim::Duration;
use telemetry::{JournalEvent, JournalMode};

fn invariant_cfg(gossip: Option<GossipConfig>) -> Fig3Config {
    Fig3Config {
        duration: Duration::from_secs(3),
        inject_at: Duration::from_secs(1),
        bin: Duration::from_millis(500),
        lbs: 4,
        gossip,
        ..Fig3Config::default()
    }
}

/// Runs `cfg`'s latency-aware tier and returns the finished cluster.
fn run(cfg: &Fig3Config) -> KvCluster {
    let mut cluster = KvCluster::build(cfg.cluster(true));
    cluster.run(&cfg.timeline());
    cluster
}

#[test]
fn no_cross_shard_feedback_leakage_without_gossip() {
    let cfg = Fig3Config {
        journal: JournalMode::Full(1 << 20),
        ..invariant_cfg(None)
    };
    let cluster = run(&cfg);

    let arms = cluster.lb_arms.clone();
    assert_eq!(arms.len(), 4);
    let mut per_lb_flows: Vec<BTreeSet<u64>> = Vec::new();
    for i in 0..cfg.lbs {
        let node = cluster.lb_node(i);
        // Partial visibility is real: every shard carried traffic and
        // produced in-band samples from it.
        assert!(node.stats().forwarded > 0, "LB {i} forwarded nothing");
        assert!(node.stats().samples > 0, "LB {i} produced no samples");
        assert_eq!(node.stats().gossip_merges, 0, "gossip ran while disabled");
        // The journal's `Sample` events are the per-sample record; an
        // overflowed or mis-gated journal would prove isolation over a
        // subset of the samples.
        assert_eq!(node.journal().overflow(), 0, "LB {i} journal truncated");
        // Every sample this LB learned from belongs to a flow the ECMP
        // stage assigned to this LB — its weights never reacted to
        // another shard's flows.
        let mut flows = BTreeSet::new();
        let mut journaled = 0u64;
        for ev in node.journal().iter() {
            let JournalEvent::Sample {
                src_ip, src_port, ..
            } = ev
            else {
                continue;
            };
            journaled += 1;
            let flow = kv_flow_key(src_ip, src_port);
            let hash = flow.stable_hash();
            let owner = netsim::ecmp::pick(hash, &arms).expect("non-empty arm set");
            assert_eq!(
                owner, arms[i],
                "LB {i} learned from flow {flow:?} owned by another shard"
            );
            flows.insert(hash);
        }
        assert_eq!(
            journaled,
            node.stats().samples,
            "LB {i} journal missed samples"
        );
        per_lb_flows.push(flows);
    }
    // Corollary: the shards' sample flow sets are pairwise disjoint.
    for i in 0..per_lb_flows.len() {
        for j in i + 1..per_lb_flows.len() {
            assert!(
                per_lb_flows[i].is_disjoint(&per_lb_flows[j]),
                "LBs {i} and {j} both sampled the same flow"
            );
        }
    }
}

#[test]
fn gossip_merges_stay_normalized_and_pull_shards_together() {
    let outcome = |gossip: Option<GossipConfig>| {
        let cfg = invariant_cfg(gossip);
        let cluster = run(&cfg);
        let merges: u64 = (0..cfg.lbs)
            .map(|i| cluster.lb_node(i).stats().gossip_merges)
            .sum();
        let degraded: Vec<f64> = (0..cfg.lbs)
            .map(|i| cluster.lb_node(i).weights().get(0))
            .collect();
        for i in 0..cfg.lbs {
            let node = cluster.lb_node(i);
            let w = node.weights();
            let sum: f64 = w.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "LB {i} weights sum to {sum}");
            for b in 0..w.len() {
                assert!(
                    w.get(b) >= w.floor() - 1e-9,
                    "LB {i} backend {b} below floor: {}",
                    w.get(b)
                );
            }
        }
        (merges, degraded)
    };

    let (no_merges, isolated) = outcome(None);
    let (merges, shared) = outcome(Some(GossipConfig::default()));
    assert_eq!(no_merges, 0, "isolated run gossiped");
    assert!(merges > 0, "gossip enabled but no merge ever moved weights");

    // Gossip narrows the tier's disagreement about the degraded backend.
    let spread = |v: &[f64]| {
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    };
    assert!(
        spread(&shared) <= spread(&isolated) + 1e-9,
        "gossip widened the spread: isolated {:?} vs shared {:?}",
        isolated,
        shared
    );
}
