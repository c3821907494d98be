//! Health-ejection invariants under a backend crash: after the detection
//! window the LB must forward *zero* packets to the ejected backend
//! (trace-verified, not counter-verified), the DSR invariants must hold
//! throughout the migration, and the backend must be readmitted through
//! probation after its restart.
//!
//! Timeline (all times simulation time):
//!
//! ```text
//! 0s      1s         ~2.2s worst case       3.5s      ≥3.8s        8s
//! |-------|crash------|detected/ejected------|restart--|probe+readmit|
//!          <- detection ->   <--- quiet: no sends --->
//! ```
//!
//! The probation timeout is stretched to 2.5 s so the first probe cannot
//! land inside the quiet-window assertion.

use experiments::kv::{Fault, FaultKind, Timeline};
use experiments::topology::VIP;
use experiments::{KvCluster, KvClusterConfig};
use lb_dataplane::LbConfig;
use lbcore::{AlphaShift, HealthConfig, HealthState};
use netsim::{Duration, TraceKind};

const CRASH_MS: u64 = 1_000;
const RESTART_MS: u64 = 3_500;
const RUN_MS: u64 = 8_000;
/// Worst-case detection bound asserted here: generous against the
/// ~3-epoch (300 ms) minimum, because silent epochs only accrue while
/// traffic is *offered* (RTO backoff thins the retransmission stream).
const DETECT_BOUND_MS: u64 = 2_200;
/// Earliest possible probation probe: crash + 3 detection epochs +
/// the stretched probation timeout.
const PROBE_EARLIEST_MS: u64 = CRASH_MS + 300 + 2_500;

/// Runs the timeline above with the packet trace on.
fn crashed_cluster(seed: u64) -> KvCluster {
    let mut cluster_cfg = KvClusterConfig::fig3_defaults(|backends| {
        let mut cfg = LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
        cfg.health = Some(HealthConfig {
            probation_after: 2_500_000_000,
            ..HealthConfig::default()
        });
        cfg
    });
    cluster_cfg.seed = seed;
    let mut cluster = KvCluster::build(cluster_cfg);
    cluster.sim.enable_trace(1 << 22);
    cluster.run(&Timeline {
        duration: Duration::from_millis(RUN_MS),
        faults: vec![Fault {
            kind: FaultKind::Crash(0),
            from: Duration::from_millis(CRASH_MS),
            until: Duration::from_millis(RESTART_MS),
        }],
        ..Timeline::default()
    });
    cluster
}

/// Counts LB sends on backend 0's forwarding link inside `[lo, hi)` ms.
fn sends_to_dead_backend(cluster: &KvCluster, lo_ms: u64, hi_ms: u64) -> usize {
    let lb = cluster.lbs[0];
    let link = cluster.fwd_links[0][0];
    cluster
        .sim
        .trace()
        .filter(|e| {
            e.node == lb
                && e.kind == TraceKind::Send
                && e.link == link
                && e.at.as_nanos() >= lo_ms * 1_000_000
                && e.at.as_nanos() < hi_ms * 1_000_000
        })
        .count()
}

/// The core claim: within the detection window after the crash, the LB
/// stops forwarding to the dead backend entirely, and readmits it after
/// the restart.
#[test]
fn ejection_stops_all_traffic_to_the_dead_backend() {
    let cluster = crashed_cluster(31);

    // Before the crash the backend carried real traffic.
    let before = sends_to_dead_backend(&cluster, 0, CRASH_MS);
    assert!(before > 1_000, "backend 0 barely used pre-crash: {before}");

    // Quiet window: detection complete, probation probe not yet due.
    // Zero packets — not "few", zero: ejection empties the Maglev table
    // of the backend and re-pins every affinity entry.
    let quiet_lo = CRASH_MS + DETECT_BOUND_MS;
    assert!(quiet_lo < PROBE_EARLIEST_MS, "assertion window is empty");
    let during = sends_to_dead_backend(&cluster, quiet_lo, PROBE_EARLIEST_MS);
    assert_eq!(
        during, 0,
        "LB kept forwarding to the ejected backend in the quiet window"
    );

    // After restart + probation, traffic returns (probe → samples →
    // readmission → neutral share).
    let after = sends_to_dead_backend(&cluster, PROBE_EARLIEST_MS + 2_000, RUN_MS);
    assert!(after > 100, "backend 0 never readmitted: {after} sends");

    let lb = cluster.lb_node(0);
    assert!(lb.stats().ejections >= 1, "no ejection recorded");
    assert!(lb.stats().readmissions >= 1, "no readmission recorded");
    assert!(
        lb.stats().flows_repinned > 0,
        "no flows migrated at ejection"
    );
    let health = lb.health().expect("health tracking must be on");
    assert_eq!(
        health.state(0),
        HealthState::Healthy,
        "backend 0 should have fully recovered by the end of the run"
    );
    assert_eq!(health.state(1), HealthState::Healthy, "survivor flapped");
}

/// DSR invariants hold through ejection and migration: the LB sees only
/// client→VIP traffic, responses bypass it, and its packet accounting
/// stays exact (every received packet is forwarded or counted dropped).
#[test]
fn dsr_invariants_hold_during_migration() {
    let cluster = crashed_cluster(32);

    let lb = cluster.lbs[0];
    let mut delivered = 0u64;
    let mut reverse = 0u64;
    for e in cluster
        .sim
        .trace()
        .filter(|e| e.node == lb && e.kind == TraceKind::Deliver)
    {
        let flow = e.flow.expect("LB traffic must parse as TCP/IPv4");
        assert_eq!(flow.dst_ip, VIP, "a non-VIP packet reached the LB: {flow}");
        if flow.src_ip == VIP {
            reverse += 1;
        }
        delivered += 1;
    }
    assert!(
        delivered > 10_000,
        "implausibly little traffic: {delivered}"
    );
    assert_eq!(reverse, 0, "response traffic traversed the LB");

    let stats = cluster.lb_node(0).stats();
    assert_eq!(
        stats.rx,
        stats.forwarded + stats.dropped,
        "LB packet accounting broke during migration"
    );
    // Two backends, one crash: the all-ejected drop path must not fire.
    assert_eq!(stats.no_backend_drops, 0);

    // The client kept making progress after the crash: the survivor
    // absorbed the migrated load.
    let client = cluster.client_app(0);
    assert!(
        client.recorder.responses > 50_000,
        "cluster stalled: {} responses",
        client.recorder.responses
    );
    // Migration forces reconnects (by design: fast reset over silent
    // blackhole), so broken connections are expected — but bounded.
    assert!(
        client.stats.conns_broken < 200,
        "connection churn exploded: {}",
        client.stats.conns_broken
    );
}
