//! Cross-crate invariants of the DSR dataplane: the LB must never see
//! response traffic, connections must keep affinity through weight churn,
//! and every client request must still be answered while the controller
//! reshapes the Maglev table.

use experiments::fig3::Fig3Config;
use experiments::kv::{Injection, Timeline};
use experiments::topology::VIP;
use experiments::{KvCluster, KvClusterConfig};
use lb_dataplane::{LbConfig, LbNode, Steering};
use lbcore::AlphaShift;
use netsim::{Duration, TraceKind};
use nettcp::Host;
use workload::MemtierClient;

fn aware_cluster(seed: u64) -> KvCluster {
    KvCluster::build(
        Fig3Config {
            seed,
            ..Fig3Config::default()
        }
        .cluster(true),
    )
}

/// Runs for `run_ms` with 1 ms injected on backend 0's path at `at_ms`.
fn run_injected(cluster: &mut KvCluster, at_ms: u64, run_ms: u64) {
    cluster.run(&Timeline {
        duration: Duration::from_millis(run_ms),
        injections: vec![Injection {
            backend: 0,
            at: Duration::from_millis(at_ms),
            extra: Duration::from_millis(1),
        }],
        ..Timeline::default()
    });
}

/// Under DSR the LB observes only client→VIP traffic: every packet it
/// receives must be TCP to the VIP, and the number of packets it forwards
/// equals the number it received.
#[test]
fn lb_sees_only_client_to_vip_traffic() {
    let mut cluster = aware_cluster(1);
    cluster.sim.enable_trace(1 << 21);
    cluster.sim.run_for(Duration::from_secs(2));

    let lb = cluster.lbs[0];
    let mut delivered = 0u64;
    for e in cluster
        .sim
        .trace()
        .filter(|e| e.node == lb && e.kind == TraceKind::Deliver)
    {
        let flow = e.flow.expect("LB traffic must parse as TCP/IPv4");
        assert_eq!(flow.dst_ip, VIP, "a non-VIP packet reached the LB: {flow}");
        delivered += 1;
    }
    assert!(
        delivered > 10_000,
        "implausibly little traffic: {delivered}"
    );
    let stats = cluster.lb_node(0).stats();
    assert_eq!(stats.rx, stats.forwarded + stats.dropped);
    assert_eq!(stats.dropped, 0, "the LB dropped in-scope traffic");
}

/// Responses must bypass the LB entirely: the packets the client receives
/// are (substantially) more bytes than the LB ever forwarded to backends
/// in the reverse direction — verified structurally: no server→client
/// deliveries at the LB node.
#[test]
fn responses_bypass_the_lb() {
    let mut cluster = aware_cluster(2);
    cluster.sim.enable_trace(1 << 21);
    cluster.sim.run_for(Duration::from_secs(2));

    let lb = cluster.lbs[0];
    let reverse = cluster
        .sim
        .trace()
        .filter(|e| {
            e.node == lb
                && e.kind == TraceKind::Deliver
                && e.flow.map(|f| f.src_ip == VIP).unwrap_or(false)
        })
        .count();
    assert_eq!(reverse, 0, "response traffic traversed the LB");

    // And the client really got responses (so they went *somewhere*).
    let client = cluster.client_app(0);
    assert!(client.recorder.responses > 10_000);
}

/// While the controller reshapes weights under injection, no request goes
/// unanswered and no connection breaks: issued == completed at the end
/// (modulo the requests still in flight on live connections).
#[test]
fn no_request_lost_during_weight_churn() {
    let mut cluster = aware_cluster(3);
    run_injected(&mut cluster, 500, 3_000);

    let client = cluster.client_app(0);
    let in_flight = client.stats.issued - client.stats.completed;
    assert!(
        in_flight <= 16,
        "more requests outstanding than connections: {in_flight}"
    );
    // The LB actually moved weights during this run.
    let lb = cluster.lb_node(0);
    assert!(lb.stats().table_rebuilds > 0, "controller never acted");
    // Both backends served traffic.
    assert!(cluster.backend_app(0).stats.gets + cluster.backend_app(0).stats.sets > 0);
    assert!(cluster.backend_app(1).stats.gets + cluster.backend_app(1).stats.sets > 0);
}

/// Connection affinity: packets of one connection always reach the same
/// backend even while the table is being rebuilt around them.
#[test]
fn affinity_survives_table_rebuilds() {
    let mut cluster = aware_cluster(4);
    cluster.sim.enable_trace(1 << 21);
    run_injected(&mut cluster, 300, 2_000);

    // Group backend deliveries by flow; each flow must map to one backend.
    use std::collections::BTreeMap;
    let mut flow_backend: BTreeMap<netpkt::FlowKey, netsim::NodeId> = BTreeMap::new();
    for (j, &node) in cluster.backends.iter().enumerate() {
        let _ = j;
        for e in cluster
            .sim
            .trace()
            .filter(|e| e.node == node && e.kind == TraceKind::Deliver)
        {
            let Some(flow) = e.flow else { continue };
            if flow.dst_ip != VIP {
                continue; // DSR return-path acks etc.
            }
            if let Some(prev) = flow_backend.insert(flow, node) {
                assert_eq!(prev, node, "flow {flow} switched backends mid-life");
            }
        }
    }
    assert!(
        flow_backend.len() > 100,
        "too few flows observed: {}",
        flow_backend.len()
    );
}

/// The same cluster, run twice with the same seed, produces identical
/// client-side results (whole-workspace determinism).
#[test]
fn cluster_runs_are_deterministic() {
    let run = || {
        let mut cluster = aware_cluster(5);
        run_injected(&mut cluster, 400, 2_000);
        let client: &MemtierClient = cluster.client_app(0);
        let lb: &LbNode = cluster.lb_node(0);
        (
            client.recorder.responses,
            client.recorder.raw().to_vec(),
            lb.stats().samples,
            lb.stats().table_rebuilds,
            lb.weights().as_slice().to_vec(),
        )
    };
    assert_eq!(run(), run());
}

/// Out-of-band reporting: agents' UDP reports reach the LB's control
/// address, feed the estimator, and drive the controller — without any
/// in-band measurement at all.
#[test]
fn oob_reports_drive_the_controller() {
    use experiments::topology::{CONTROL_IP, CONTROL_PORT};
    let mut cfg = KvClusterConfig::fig3_defaults(|backends| LbConfig {
        steering: Steering::OutOfBand {
            controller: Box::new(AlphaShift::damped()),
            addr: (CONTROL_IP, CONTROL_PORT),
        },
        ..LbConfig::baseline(VIP, backends)
    });
    cfg.seed = 21;
    cfg.oob_report_period = Some(Duration::from_millis(5));
    // Server-side slowdown from t = 400 ms (visible to self-measurement).
    cfg.backends[0].delay_schedule = backend::DelaySchedule::step(400_000_000, 1_000_000);
    let mut cluster = KvCluster::build(cfg);
    cluster.sim.run_for(Duration::from_millis(1500));

    let lb = cluster.lb_node(0);
    assert_eq!(lb.stats().samples, 0, "in-band measurement must be off");
    assert!(
        lb.stats().oob_reports > 100,
        "reports: {}",
        lb.stats().oob_reports
    );
    assert!(
        lb.stats().table_rebuilds > 0,
        "controller never acted on reports"
    );
    assert!(
        lb.weights().get(0) < 0.3,
        "weights did not shift off the slow backend: {:?}",
        lb.weights().as_slice()
    );
    // Both backends actually sent reports.
    assert!(cluster.backend_app(0).stats.reports_sent > 100);
    assert!(cluster.backend_app(1).stats.reports_sent > 100);
}

/// Multi-LB: with two plain-Maglev LBs behind ECMP, killing one mid-run
/// must not break a single connection — the identical-tables property.
#[test]
fn lb_failover_breaks_nothing_for_plain_maglev() {
    let mut cfg = KvClusterConfig::fig3_defaults(|backends| LbConfig::baseline(VIP, backends));
    cfg.lbs = 2;
    cfg.lb_failure = Some((Duration::from_millis(800), 0));
    cfg.seed = 11;
    let mut cluster = KvCluster::build(cfg);
    cluster.sim.run_for(Duration::from_millis(1600));

    // Both LBs carried traffic before the failure...
    let lb0 = cluster.lb_node(0).stats();
    let lb1 = cluster.lb_node(1).stats();
    assert!(lb0.forwarded > 1000, "LB0 carried {}", lb0.forwarded);
    assert!(lb1.forwarded > 1000, "LB1 carried {}", lb1.forwarded);
    // ...and no connection broke across the switchover.
    let stats = cluster.client_app(0).stats;
    assert_eq!(stats.conns_broken, 0, "failover broke connections");
    assert!(stats.completed > 10_000);
    // The router applied exactly one scripted update.
    let router = cluster
        .sim
        .node_ref::<netsim::router::Router>(cluster.router)
        .unwrap();
    assert_eq!(router.stats.route_updates, 1);
}

/// Sanity: the client host count and per-host connection bookkeeping stay
/// consistent over churn (no leaked connections on either side).
#[test]
fn connection_churn_leaks_nothing() {
    let mut cluster = aware_cluster(6);
    cluster.sim.run_for(Duration::from_secs(2));
    let client_host = cluster.sim.node_ref::<Host>(cluster.clients[0]).unwrap();
    // 16 configured connections; allow the transient during recycling.
    assert!(
        client_host.live_conns() <= 2 * 16,
        "client leaked connections"
    );
    for &b in &cluster.backends {
        let host = cluster.sim.node_ref::<Host>(b).unwrap();
        assert!(host.live_conns() <= 2 * 16, "backend leaked connections");
    }
}
