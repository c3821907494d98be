//! Workload-generator behaviour tests: a memtier client against a real
//! KV server over one link.

use std::net::Ipv4Addr;

use backend::{KvServerApp, KvServerConfig, ServiceDist};
use netpkt::MacAddr;
use netsim::{Duration, FaultAction, LinkConfig, Simulation, Time};
use nettcp::{App, ConnId, Host, HostConfig, HostIo};
use workload::{BacklogClient, BacklogConfig, MemtierClient, MemtierConfig, SinkServer};

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn run_memtier(cfg: MemtierConfig, secs: u64) -> (Simulation, netsim::NodeId, netsim::NodeId) {
    let (mut sim, c, s) = memtier_rig(cfg);
    sim.run_for(Duration::from_secs(secs));
    (sim, c, s)
}

/// A memtier client and a KV server with a 50 µs service time, one
/// link apart; nothing has run yet.
fn memtier_rig(cfg: MemtierConfig) -> (Simulation, netsim::NodeId, netsim::NodeId) {
    let server = KvServerApp::new(KvServerConfig {
        service: ServiceDist::Constant(50_000),
        ..KvServerConfig::default()
    });
    memtier_rig_with(cfg, Box::new(server))
}

/// A memtier client and `server`, one link apart; nothing has run yet.
fn memtier_rig_with(
    cfg: MemtierConfig,
    server: Box<dyn App>,
) -> (Simulation, netsim::NodeId, netsim::NodeId) {
    let mut sim = Simulation::new();
    let c = sim.reserve_node("client");
    let s = sim.reserve_node("server");
    let link = LinkConfig::new(1_000_000_000, Duration::from_micros(50), 1 << 20);
    let l = sim.add_link(c, s, link);
    sim.install_node(
        s,
        Box::new(Host::new(
            HostConfig::new(SERVER_IP, 2),
            MacAddr::from_id(2),
            l,
            server,
        )),
    );
    let cfg = MemtierConfig {
        vip: SERVER_IP,
        ..cfg
    };
    sim.install_node(
        c,
        Box::new(Host::new(
            HostConfig::new(CLIENT_IP, 1),
            MacAddr::from_id(1),
            l,
            Box::new(MemtierClient::new(cfg)),
        )),
    );
    (sim, c, s)
}

fn client_of(sim: &Simulation, c: netsim::NodeId) -> &MemtierClient {
    sim.node_ref::<Host>(c)
        .unwrap()
        .app_ref::<MemtierClient>()
        .unwrap()
}

#[test]
fn get_set_mix_approximates_ratio() {
    let (sim, c, s) = run_memtier(
        MemtierConfig {
            connections: 4,
            pipeline: 1,
            get_ratio: 0.5,
            requests_per_conn: 0,
            ..MemtierConfig::default()
        },
        1,
    );
    let server = sim
        .node_ref::<Host>(s)
        .unwrap()
        .app_ref::<KvServerApp>()
        .unwrap();
    let total = (server.stats.gets + server.stats.sets) as f64;
    assert!(total > 1000.0, "too few requests: {total}");
    let get_frac = server.stats.gets as f64 / total;
    assert!((get_frac - 0.5).abs() < 0.05, "GET fraction {get_frac}");
    let client = client_of(&sim, c);
    assert_eq!(
        client.stats.completed + (client.stats.issued - client.stats.completed),
        client.stats.issued
    );
}

#[test]
fn skewed_mix_respected() {
    let (sim, _c, s) = run_memtier(
        MemtierConfig {
            connections: 2,
            get_ratio: 0.9,
            requests_per_conn: 0,
            ..MemtierConfig::default()
        },
        1,
    );
    let server = sim
        .node_ref::<Host>(s)
        .unwrap()
        .app_ref::<KvServerApp>()
        .unwrap();
    let get_frac = server.stats.gets as f64 / (server.stats.gets + server.stats.sets) as f64;
    assert!((get_frac - 0.9).abs() < 0.05, "GET fraction {get_frac}");
}

#[test]
fn pipeline_bounds_outstanding() {
    // With pipeline = 3 and 2 connections, never more than 6 outstanding.
    let (sim, c, _s) = run_memtier(
        MemtierConfig {
            connections: 2,
            pipeline: 3,
            requests_per_conn: 0,
            ..MemtierConfig::default()
        },
        1,
    );
    let client = client_of(&sim, c);
    let outstanding = client.stats.issued - client.stats.completed;
    assert!(
        outstanding <= 6,
        "outstanding {outstanding} exceeds pipeline bound"
    );
    assert!(client.stats.completed > 1000);
}

#[test]
fn churn_recycles_connections() {
    let (sim, c, _s) = run_memtier(
        MemtierConfig {
            connections: 2,
            requests_per_conn: 50,
            ..MemtierConfig::default()
        },
        1,
    );
    let client = client_of(&sim, c);
    assert!(
        client.stats.conns_recycled > 10,
        "no churn: {:?}",
        client.stats
    );
    // The connection count stays constant: opened = recycled + initial 2
    // (plus possibly the in-flight reopen).
    assert!(client.stats.conns_opened >= client.stats.conns_recycled + 2);
    // Every recycled conn completed exactly its quota.
    assert!(client.stats.completed >= client.stats.conns_recycled * 50);
}

#[test]
fn no_churn_keeps_connections() {
    let (sim, c, _s) = run_memtier(
        MemtierConfig {
            connections: 3,
            requests_per_conn: 0,
            ..MemtierConfig::default()
        },
        1,
    );
    let client = client_of(&sim, c);
    assert_eq!(client.stats.conns_opened, 3);
    assert_eq!(client.stats.conns_recycled, 0);
}

#[test]
fn a_broken_connection_loses_its_requests_and_is_reopened_empty() {
    // The backend crashes with every pipeline full. A connection whose
    // requests are still unacknowledged retransmits until it aborts
    // underneath the client; one whose requests were acknowledged just
    // waits. The backend comes back after the aborts.
    let (connections, pipeline) = (3, 4);
    let (mut sim, c, s) = memtier_rig(MemtierConfig {
        connections,
        pipeline,
        requests_per_conn: 0,
        ..MemtierConfig::default()
    });
    sim.schedule(Time::from_nanos(500_000_000), FaultAction::NodeDown(s));
    sim.schedule(Time::from_nanos(6_000_000_000), FaultAction::NodeUp(s));
    sim.run_for(Duration::from_secs(6));
    let before = client_of(&sim, c).stats;
    assert!(before.conns_broken > 0, "nothing broke: {before:?}");
    // Closed loop: each broken connection had its pipeline full.
    assert_eq!(
        before.requests_lost,
        before.conns_broken * pipeline as u64,
        "{before:?}"
    );
    assert_eq!(
        before.conns_opened,
        connections as u64 + before.conns_broken,
        "{before:?}"
    );

    sim.run_for(Duration::from_secs(1));
    let host = sim.node_ref::<Host>(c).unwrap();
    let after = client_of(&sim, c).stats;
    assert_eq!(host.live_conns(), connections);
    assert_eq!(after.conns_broken, before.conns_broken, "{after:?}");
    assert!(
        after.completed > before.completed + 10_000,
        "the backend came back to an idle client: {after:?}"
    );
    // Every pipeline is full again. A reopened connection that kept its
    // predecessor's lost requests would see its pipeline full of them
    // and issue nothing.
    let in_flight = after.issued - after.completed - after.requests_lost;
    assert_eq!(in_flight, (connections * pipeline) as u64, "{after:?}");
}

/// A server that closes every connection it accepts straight away,
/// before answering anything.
struct ClosesFirst(u16);

impl App for ClosesFirst {
    fn on_start(&mut self, io: &mut dyn HostIo) {
        io.listen(self.0);
    }
    fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        io.close(conn);
    }
    fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, _data: &[u8]) {}
}

#[test]
fn a_connection_the_server_closes_first_is_closed_and_reaped() {
    // Every connection is half-closed by the server at once. The client
    // counts it broken and reopens; unless it also closes its own side,
    // each one sits in CloseWait, holding a slot and a port for good.
    let cfg = MemtierConfig {
        connections: 2,
        requests_per_conn: 0,
        ..MemtierConfig::default()
    };
    let port = cfg.port;
    let (mut sim, c, s) = memtier_rig_with(cfg, Box::new(ClosesFirst(port)));
    sim.run_for(Duration::from_millis(100));
    let stats = client_of(&sim, c).stats;
    assert!(stats.conns_broken > 100, "{stats:?}");
    assert_eq!(stats.conns_opened, 2 + stats.conns_broken, "{stats:?}");
    for (node, side) in [(c, "client"), (s, "server")] {
        let host = sim.node_ref::<Host>(node).unwrap();
        assert!(
            host.live_conns() <= 4,
            "{side} holds {} connections after {} closes",
            host.live_conns(),
            host.stats.conns_closed
        );
        assert!(host.stats.conns_closed >= stats.conns_broken - 2);
    }
}

#[test]
fn think_time_reduces_throughput() {
    let fast = run_memtier(
        MemtierConfig {
            connections: 1,
            pipeline: 1,
            requests_per_conn: 0,
            ..MemtierConfig::default()
        },
        1,
    );
    let slow = run_memtier(
        MemtierConfig {
            connections: 1,
            pipeline: 1,
            requests_per_conn: 0,
            think_time: Some((Duration::from_millis(5), Duration::from_millis(5))),
            ..MemtierConfig::default()
        },
        1,
    );
    let fast_n = client_of(&fast.0, fast.1).stats.completed;
    let slow_n = client_of(&slow.0, slow.1).stats.completed;
    assert!(
        slow_n * 5 < fast_n,
        "think time had no effect: fast {fast_n} vs slow {slow_n}"
    );
    // ~5 ms think per request over 1 s → about 200 requests.
    assert!((150..=230).contains(&slow_n), "slow count {slow_n}");
}

#[test]
fn recorder_latencies_match_path() {
    let (sim, c, _s) = run_memtier(
        MemtierConfig {
            connections: 1,
            pipeline: 1,
            requests_per_conn: 0,
            ..MemtierConfig::default()
        },
        1,
    );
    let rec = &client_of(&sim, c).recorder;
    assert!(rec.responses > 500);
    // Path: 100 µs RTT + 50 µs service (+ serialization): every latency
    // must exceed 150 µs and the median should sit close to it.
    let mut lats: Vec<u64> = rec.raw().iter().map(|&(_, l, _)| l).collect();
    lats.sort_unstable();
    let p50 = lats[lats.len() / 2];
    assert!(p50 >= 150_000, "p50 {p50} below physical floor");
    assert!(p50 < 400_000, "p50 {p50} implausibly high");
}

#[test]
fn backlog_client_saturates_window() {
    let mut sim = Simulation::new();
    let c = sim.reserve_node("client");
    let s = sim.reserve_node("server");
    let link = LinkConfig::new(1_000_000_000, Duration::from_micros(100), 1 << 20);
    let l = sim.add_link(c, s, link);
    sim.install_node(
        s,
        Box::new(Host::new(
            HostConfig::new(SERVER_IP, 2),
            MacAddr::from_id(2),
            l,
            Box::new(SinkServer::new(5001)),
        )),
    );
    let mut ccfg = HostConfig::new(CLIENT_IP, 1);
    ccfg.tcp = nettcp::TcpConfig::window_limited(4);
    sim.install_node(
        c,
        Box::new(Host::new(
            ccfg,
            MacAddr::from_id(1),
            l,
            Box::new(BacklogClient::new(BacklogConfig {
                dst: SERVER_IP,
                ..BacklogConfig::default()
            })),
        )),
    );
    sim.run_for(Duration::from_secs(1));
    let sink = sim
        .node_ref::<Host>(s)
        .unwrap()
        .app_ref::<SinkServer>()
        .unwrap();
    // Window-limited: 4 * 1400 B per ~200 µs RTT ≈ 28 MB/s; over 1 s the
    // sink must have consumed tens of MB (and far less than line rate).
    assert!(
        sink.bytes > 10_000_000,
        "sink got only {} bytes",
        sink.bytes
    );
    assert!(sink.bytes < 125_000_000, "flow was not window-limited");
    let client = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<BacklogClient>()
        .unwrap();
    assert!(!client.rtt_raw().is_empty());
    assert_eq!(client.rtt_dropped(), 0);
}
