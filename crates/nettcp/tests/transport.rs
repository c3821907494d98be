//! End-to-end transport tests: two hosts wired back-to-back, exercising
//! handshake, bidirectional transfer, reassembly, retransmission, delayed
//! ACKs, pacing, and connection teardown.

use std::net::Ipv4Addr;

use netsim::{Duration, FaultAction, ImpairmentConfig, LinkConfig, LinkId, Simulation, Time};
use nettcp::{App, ConnId, DelayedAck, Host, HostConfig, HostIo, Pacing, TcpConfig};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PORT: u16 = 7777;

/// Echoes every byte back to the sender; closes when the peer closes.
#[derive(Default)]
struct EchoServer {
    bytes_seen: usize,
    conns_accepted: usize,
}

impl App for EchoServer {
    fn on_start(&mut self, io: &mut dyn HostIo) {
        io.listen(PORT);
    }
    fn on_connected(&mut self, _io: &mut dyn HostIo, _conn: ConnId) {
        self.conns_accepted += 1;
    }
    fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
        self.bytes_seen += data.len();
        io.send(conn, data);
    }
    fn on_closed(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        io.close(conn);
    }
}

/// Sends `total` bytes (in one burst), verifies the echo, then closes.
struct BulkClient {
    total: usize,
    echoed: usize,
    connected: bool,
    closed: bool,
    rtt_samples: Vec<Duration>,
}

impl BulkClient {
    fn new(total: usize) -> Self {
        BulkClient {
            total,
            echoed: 0,
            connected: false,
            closed: false,
            rtt_samples: Vec::new(),
        }
    }
}

impl App for BulkClient {
    fn on_start(&mut self, io: &mut dyn HostIo) {
        io.connect(SERVER_IP, PORT);
    }
    fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        self.connected = true;
        let data = vec![0xabu8; self.total];
        io.send(conn, &data);
    }
    fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
        assert!(data.iter().all(|&b| b == 0xab), "echo corrupted");
        self.echoed += data.len();
        if self.echoed == self.total {
            io.close(conn);
        }
    }
    fn on_closed(&mut self, _io: &mut dyn HostIo, _conn: ConnId) {
        self.closed = true;
    }
    fn on_rtt_sample(&mut self, _io: &mut dyn HostIo, _conn: ConnId, rtt: Duration) {
        self.rtt_samples.push(rtt);
    }
}

/// Builds the standard two-host rig and returns (sim, client node, server node).
fn rig(
    client_tcp: TcpConfig,
    server_tcp: TcpConfig,
    link: LinkConfig,
    client_app: Box<dyn App>,
    server_app: Box<dyn App>,
) -> (Simulation, netsim::NodeId, netsim::NodeId) {
    let mut sim = Simulation::new();
    let c = sim.reserve_node("client");
    let s = sim.reserve_node("server");
    let l = sim.add_link(c, s, link);
    let mut ccfg = HostConfig::new(CLIENT_IP, 1);
    ccfg.tcp = client_tcp;
    let mut scfg = HostConfig::new(SERVER_IP, 2);
    scfg.tcp = server_tcp;
    sim.install_node(
        c,
        Box::new(Host::new(ccfg, netpkt::MacAddr::from_id(1), l, client_app)),
    );
    sim.install_node(
        s,
        Box::new(Host::new(scfg, netpkt::MacAddr::from_id(2), l, server_app)),
    );
    (sim, c, s)
}

fn default_link() -> LinkConfig {
    LinkConfig::new(1_000_000_000, Duration::from_micros(50), 1 << 20)
}

#[test]
fn small_transfer_echoes_and_closes() {
    let (mut sim, c, s) = rig(
        TcpConfig::default(),
        TcpConfig::default(),
        default_link(),
        Box::new(BulkClient::new(100)),
        Box::new(EchoServer::default()),
    );
    sim.run_for(Duration::from_secs(2));
    let client = sim.node_ref::<Host>(c).unwrap();
    let app = client.app_ref::<BulkClient>().unwrap();
    assert!(app.connected, "handshake did not complete");
    assert_eq!(app.echoed, 100);
    assert!(app.closed, "close did not complete");
    assert!(!app.rtt_samples.is_empty(), "no RTT samples taken");
    // Both sides reaped their connections.
    assert_eq!(client.live_conns(), 0);
    assert_eq!(sim.node_ref::<Host>(s).unwrap().live_conns(), 0);
}

#[test]
fn large_transfer_spans_many_segments() {
    let total = 512 * 1024;
    let (mut sim, c, s) = rig(
        TcpConfig::default(),
        TcpConfig::default(),
        default_link(),
        Box::new(BulkClient::new(total)),
        Box::new(EchoServer::default()),
    );
    sim.run_for(Duration::from_secs(10));
    let app = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<BulkClient>()
        .unwrap();
    assert_eq!(app.echoed, total);
    assert!(app.closed);
    let server = sim.node_ref::<Host>(s).unwrap();
    assert_eq!(server.app_ref::<EchoServer>().unwrap().bytes_seen, total);
}

#[test]
fn rtt_samples_match_path_delay() {
    // 50 µs each way plus serialization: RTT samples should sit near 100 µs.
    let (mut sim, c, _s) = rig(
        TcpConfig::default(),
        TcpConfig::default(),
        default_link(),
        Box::new(BulkClient::new(64 * 1024)),
        Box::new(EchoServer::default()),
    );
    sim.run_for(Duration::from_secs(5));
    let app = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<BulkClient>()
        .unwrap();
    assert!(!app.rtt_samples.is_empty());
    let min = app.rtt_samples.iter().min().unwrap();
    let max = app.rtt_samples.iter().max().unwrap();
    assert!(
        *min >= Duration::from_micros(100),
        "min RTT {min} below path delay"
    );
    assert!(
        *max < Duration::from_millis(10),
        "max RTT {max} implausible"
    );
}

#[test]
fn survives_heavy_queue_drops() {
    // A tiny queue forces drops mid-burst; retransmission must recover all
    // data. 16 KiB through a 3000-byte queue at 100 Mbps.
    let total = 16 * 1024;
    let lossy = LinkConfig::new(100_000_000, Duration::from_micros(50), 3_000);
    let (mut sim, c, _s) = rig(
        TcpConfig::default(),
        TcpConfig::default(),
        lossy,
        Box::new(BulkClient::new(total)),
        Box::new(EchoServer::default()),
    );
    sim.run_for(Duration::from_secs(30));
    let client = sim.node_ref::<Host>(c).unwrap();
    let app = client.app_ref::<BulkClient>().unwrap();
    assert_eq!(app.echoed, total, "data lost despite retransmission");
    assert!(app.closed);
}

#[test]
fn window_limited_flow_pauses_between_batches() {
    // A 4-segment window on a fast link with 500 µs RTT: the sender must
    // stall waiting for ACKs, so throughput is ~ window per RTT, far below
    // link rate.
    let total = 256 * 1024;
    let link = LinkConfig::new(1_000_000_000, Duration::from_micros(250), 1 << 20);
    let (mut sim, c, _s) = rig(
        TcpConfig::window_limited(4),
        TcpConfig::default(),
        link,
        Box::new(BulkClient::new(total)),
        Box::new(EchoServer::default()),
    );
    let t0 = sim.now();
    sim.run_for(Duration::from_secs(30));
    let app = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<BulkClient>()
        .unwrap();
    assert_eq!(app.echoed, total);
    // Rough duration check: 256 KiB at 4*1400 B per ~500 µs RTT ≈ 23 ms min.
    // (The echo direction is similarly limited.) If the flow were not
    // window-limited it would finish in ~4 ms.
    let elapsed = sim.now().saturating_since(t0);
    assert!(app.closed);
    assert!(
        elapsed > Duration::from_millis(20),
        "flow was not window-limited: {elapsed}"
    );
}

#[test]
fn delayed_ack_still_delivers_everything() {
    let server_tcp = TcpConfig {
        delayed_ack: DelayedAck::Enabled {
            max_delay: Duration::from_millis(40),
        },
        ..TcpConfig::default()
    };
    let (mut sim, c, _s) = rig(
        TcpConfig::default(),
        server_tcp,
        default_link(),
        Box::new(BulkClient::new(32 * 1024)),
        Box::new(EchoServer::default()),
    );
    sim.run_for(Duration::from_secs(10));
    let app = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<BulkClient>()
        .unwrap();
    assert_eq!(app.echoed, 32 * 1024);
    assert!(app.closed);
}

#[test]
fn pacing_spreads_transmissions() {
    // With pacing at 200 µs per segment, 10 segments take >= 1.8 ms to leave
    // the client, so the transfer cannot complete before that.
    let client_tcp = TcpConfig {
        pacing: Pacing::Enabled {
            min_gap: Duration::from_micros(200),
        },
        congestion_control: false,
        ..TcpConfig::default()
    };
    let total = 10 * 1400;
    let (mut sim, c, _s) = rig(
        client_tcp,
        TcpConfig::default(),
        default_link(),
        Box::new(BulkClient::new(total)),
        Box::new(EchoServer::default()),
    );
    let t0 = sim.now();
    sim.run_for(Duration::from_secs(5));
    let app = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<BulkClient>()
        .unwrap();
    assert_eq!(app.echoed, total);
    let elapsed = sim.now().saturating_since(t0);
    assert!(
        elapsed >= Duration::from_micros(1800),
        "pacing not applied: {elapsed}"
    );
}

#[test]
fn connection_refused_draws_rst() {
    // The server listens on a different port: the client's SYN finds no
    // listener, the server answers with a RST, and the client's connect
    // fails fast (no 50 ms SYN-retransmission limbo).
    struct WrongPortServer;
    impl App for WrongPortServer {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.listen(PORT + 1);
        }
        fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, _data: &[u8]) {}
    }

    let (mut sim, c, s) = rig(
        TcpConfig::default(),
        TcpConfig::default(),
        default_link(),
        Box::new(BulkClient::new(100)),
        Box::new(WrongPortServer),
    );
    sim.run_for(Duration::from_millis(5));
    let client_host = sim.node_ref::<Host>(c).unwrap();
    let app = client_host.app_ref::<BulkClient>().unwrap();
    assert!(!app.connected, "connected through a closed port?");
    assert!(app.closed, "RST did not tear the attempt down");
    let server_host = sim.node_ref::<Host>(s).unwrap();
    assert_eq!(server_host.stats.rsts_sent, 1);
    assert_eq!(client_host.live_conns(), 0);
}

#[test]
fn a_close_after_a_reset_or_an_abort_queues_no_work_and_sends_nothing() {
    // A client whose connection is torn down underneath it: reset by a
    // server with no listener on the port, or aborted after its data
    // went unacknowledged to a server that crashed. When `close` is set
    // it closes the dead connection in `on_closed`, twice over; that run
    // must be the run without the closes, packet for packet and event
    // for event.
    struct Closer {
        close: bool,
        closed: u32,
    }
    impl App for Closer {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.connect(SERVER_IP, PORT);
        }
        fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            io.send(conn, &[7; 100]);
        }
        fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, _data: &[u8]) {}
        fn on_closed(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            self.closed += 1;
            if self.close {
                io.close(conn);
                io.close(conn);
            }
        }
    }
    struct ListensElsewhere;
    impl App for ListensElsewhere {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.listen(PORT + 1);
        }
        fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, _data: &[u8]) {}
    }

    let run = |abort: bool, close: bool| {
        let server: Box<dyn App> = if abort {
            Box::new(EchoServer::default())
        } else {
            Box::new(ListensElsewhere)
        };
        let client = Box::new(Closer { close, closed: 0 });
        let (mut sim, c, s) = rig(
            TcpConfig::default(),
            TcpConfig::default(),
            default_link(),
            client,
            server,
        );
        if abort {
            // After the handshake (100 µs), before the data lands (150 µs).
            sim.schedule(Time::from_nanos(120_000), FaultAction::NodeDown(s));
        }
        let closed = |sim: &Simulation| {
            let host = sim.node_ref::<Host>(c).unwrap();
            host.app_ref::<Closer>().unwrap().closed > 0
        };
        while !closed(&sim) {
            assert!(sim.now() < Time::from_nanos(120_000_000_000), "no close");
            sim.run_for(Duration::from_millis(1));
        }
        sim.run_for(Duration::from_millis(1));
        let host = sim.node_ref::<Host>(c).unwrap();
        assert_eq!(host.app_ref::<Closer>().unwrap().closed, 1);
        assert_eq!(host.live_conns(), 0, "the dead connection was not reaped");
        assert_eq!(sim.pending_events(), 0);
        let (h, sim) = (host.stats, sim.stats());
        [
            h.packets_out,
            h.retransmits,
            h.timeouts,
            sim.events_processed,
            sim.timers_cancelled,
        ]
    };
    for abort in [false, true] {
        let quiet = run(abort, false);
        assert_eq!(quiet[2] > 0, abort, "{quiet:?}");
        assert_eq!(run(abort, true), quiet, "abort = {abort}");
    }
}

#[test]
fn stray_segment_to_dead_conn_is_reset_not_looped() {
    // After a normal transfer completes and both sides reap their state,
    // host counters confirm no RST storm happened during teardown.
    let (mut sim, c, s) = rig(
        TcpConfig::default(),
        TcpConfig::default(),
        default_link(),
        Box::new(BulkClient::new(1000)),
        Box::new(EchoServer::default()),
    );
    sim.run_for(Duration::from_secs(2));
    let client = sim.node_ref::<Host>(c).unwrap();
    let server = sim.node_ref::<Host>(s).unwrap();
    assert!(client.app_ref::<BulkClient>().unwrap().closed);
    // A clean close needs no RSTs at all on either side.
    assert_eq!(client.stats.rsts_sent + server.stats.rsts_sent, 0);
}

#[test]
fn two_runs_are_identical() {
    let run = || {
        let (mut sim, c, _s) = rig(
            TcpConfig::default(),
            TcpConfig::default(),
            default_link(),
            Box::new(BulkClient::new(50_000)),
            Box::new(EchoServer::default()),
        );
        sim.enable_trace(1 << 16);
        sim.run_for(Duration::from_secs(5));
        let events: Vec<(u64, u32, usize)> = sim
            .trace()
            .events()
            .iter()
            .map(|e| (e.at.as_nanos(), e.node.0, e.wire_len))
            .collect();
        let rtts: Vec<Duration> = sim
            .node_ref::<Host>(c)
            .unwrap()
            .app_ref::<BulkClient>()
            .unwrap()
            .rtt_samples
            .clone();
        (events, rtts)
    };
    assert_eq!(run(), run());
}

#[test]
fn rx_jitter_delays_but_preserves_data() {
    let mut sim = Simulation::new();
    let c = sim.reserve_node("client");
    let s = sim.reserve_node("server");
    let l = sim.add_link(c, s, default_link());
    let mut ccfg = HostConfig::new(CLIENT_IP, 1);
    ccfg.rx_jitter = Some((Duration::from_micros(10), Duration::from_micros(120)));
    let mut scfg = HostConfig::new(SERVER_IP, 2);
    scfg.rx_jitter = Some((Duration::from_micros(10), Duration::from_micros(120)));
    sim.install_node(
        c,
        Box::new(Host::new(
            ccfg,
            netpkt::MacAddr::from_id(1),
            l,
            Box::new(BulkClient::new(64 * 1024)),
        )),
    );
    sim.install_node(
        s,
        Box::new(Host::new(
            scfg,
            netpkt::MacAddr::from_id(2),
            l,
            Box::new(EchoServer::default()),
        )),
    );
    sim.run_for(Duration::from_secs(10));
    let app = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<BulkClient>()
        .unwrap();
    assert_eq!(app.echoed, 64 * 1024);
    assert!(app.closed);
    // Jitter must inflate observed RTTs beyond the bare path delay.
    assert!(app
        .rtt_samples
        .iter()
        .any(|r| *r > Duration::from_micros(120)));
}

/// A spike rides the jitter queue, so a spike without jitter would be
/// ignored; a probability outside `[0, 1]` would be silently clamped.
/// Both are configuration errors, refused when the host is built.
#[test]
fn rx_spike_without_jitter_or_out_of_range_is_refused() {
    let build = |jitter, spike| {
        let mut cfg = HostConfig::new(CLIENT_IP, 1);
        cfg.rx_jitter = jitter;
        cfg.rx_spike = Some(spike);
        std::panic::catch_unwind(|| {
            Host::new(
                cfg,
                netpkt::MacAddr::from_id(1),
                netsim::LinkId(0),
                Box::new(EchoServer::default()),
            )
        })
        .err()
        .map(|e| match e.downcast::<String>() {
            Ok(msg) => *msg,
            Err(e) => e.downcast_ref::<&str>().map_or("", |m| m).to_string(),
        })
    };
    let jitter = Some((Duration::from_micros(1), Duration::from_micros(5)));
    let ms = Duration::from_millis(1);
    assert!(build(jitter, (0.2, ms)).is_none());
    assert!(build(jitter, (1.0, ms)).is_none());
    let no_jitter = build(None, (0.2, ms)).expect("spike without jitter accepted");
    assert!(no_jitter.contains("requires rx_jitter"), "{no_jitter}");
    for prob in [-0.1, 1.5, f64::NAN] {
        let err = build(jitter, (prob, ms)).expect("bad probability accepted");
        assert!(err.contains("outside [0, 1]"), "{err}");
    }
}

#[test]
fn rx_spikes_inflate_some_rtts() {
    let mut sim = Simulation::new();
    let c = sim.reserve_node("client");
    let s = sim.reserve_node("server");
    let l = sim.add_link(c, s, default_link());
    let mut ccfg = HostConfig::new(CLIENT_IP, 1);
    // Modest jitter plus frequent 1 ms stalls.
    ccfg.rx_jitter = Some((Duration::from_micros(1), Duration::from_micros(5)));
    ccfg.rx_spike = Some((0.2, Duration::from_millis(1)));
    sim.install_node(
        c,
        Box::new(Host::new(
            ccfg,
            netpkt::MacAddr::from_id(1),
            l,
            Box::new(BulkClient::new(128 * 1024)),
        )),
    );
    sim.install_node(
        s,
        Box::new(Host::new(
            HostConfig::new(SERVER_IP, 2),
            netpkt::MacAddr::from_id(2),
            l,
            Box::new(EchoServer::default()),
        )),
    );
    sim.run_for(Duration::from_secs(10));
    let app = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<BulkClient>()
        .unwrap();
    assert_eq!(app.echoed, 128 * 1024, "spikes must not lose data");
    let spiked = app
        .rtt_samples
        .iter()
        .filter(|r| **r >= Duration::from_millis(1))
        .count();
    assert!(
        spiked * 20 >= app.rtt_samples.len(),
        "too few spiked RTTs: {spiked}/{}",
        app.rtt_samples.len()
    );
}

#[test]
fn many_sequential_connections_reuse_slots() {
    // A client that opens, transfers, closes, and reopens 20 times.
    struct ChurnClient {
        remaining: u32,
        done: u32,
    }
    impl App for ChurnClient {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.connect(SERVER_IP, PORT);
        }
        fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            io.send(conn, b"ping");
        }
        fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, _data: &[u8]) {
            io.close(conn);
        }
        fn on_closed(&mut self, io: &mut dyn HostIo, _conn: ConnId) {
            self.done += 1;
            if self.remaining > 0 {
                self.remaining -= 1;
                io.connect(SERVER_IP, PORT);
            }
        }
    }

    let (mut sim, c, s) = rig(
        TcpConfig::default(),
        TcpConfig::default(),
        default_link(),
        Box::new(ChurnClient {
            remaining: 19,
            done: 0,
        }),
        Box::new(EchoServer::default()),
    );
    sim.run_for(Duration::from_secs(10));
    let client = sim.node_ref::<Host>(c).unwrap();
    assert_eq!(client.app_ref::<ChurnClient>().unwrap().done, 20);
    assert_eq!(client.live_conns(), 0);
    let server = sim.node_ref::<Host>(s).unwrap();
    assert_eq!(server.app_ref::<EchoServer>().unwrap().conns_accepted, 20);
    assert_eq!(server.live_conns(), 0);
    assert_eq!(client.stats.conns_opened, 20);
    assert_eq!(client.stats.conns_closed, 20);
}

#[test]
fn ephemeral_ports_skip_live_connections_and_reuse_reaped_ones() {
    /// Holds one connection open on the first ephemeral port, then walks
    /// the port cursor once round the whole range with refused connects.
    struct PortWalker {
        ports: Vec<u16>,
    }
    impl PortWalker {
        fn connect(&mut self, io: &mut dyn HostIo, port: u16) {
            let conn = io.connect(SERVER_IP, port);
            self.ports.push(io.local_addr(conn).1);
        }
    }
    impl App for PortWalker {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            self.connect(io, PORT);
        }
        fn on_connected(&mut self, io: &mut dyn HostIo, _conn: ConnId) {
            // The held connection is up: the server does not listen on
            // PORT + 1, so each of these draws a RST and is reaped.
            self.connect(io, PORT + 1);
        }
        fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, _data: &[u8]) {}
        fn on_closed(&mut self, io: &mut dyn HostIo, _conn: ConnId) {
            if self.ports.len() <= RANGE {
                self.connect(io, PORT + 1);
            }
        }
    }
    const FIRST: u16 = 33_000;
    const RANGE: usize = (u16::MAX - FIRST) as usize + 1;

    let (mut sim, c, _s) = rig(
        TcpConfig::default(),
        TcpConfig::default(),
        default_link(),
        Box::new(PortWalker { ports: Vec::new() }),
        Box::new(EchoServer::default()),
    );
    let walked = |sim: &Simulation| {
        let host = sim.node_ref::<Host>(c).unwrap();
        host.app_ref::<PortWalker>().unwrap().ports.len() > RANGE && host.live_conns() == 1
    };
    while !walked(&sim) {
        assert!(sim.now() < Time::from_nanos(30_000_000_000), "walk stalled");
        sim.run_for(Duration::from_millis(10));
    }
    let host = sim.node_ref::<Host>(c).unwrap();
    let ports = &host.app_ref::<PortWalker>().unwrap().ports;
    assert_eq!(ports.len(), RANGE + 1);
    assert_eq!(ports[0], FIRST, "the held connection");
    // One refused connection per remaining port, in order …
    assert!(
        ports[1..RANGE].iter().copied().eq(FIRST + 1..=u16::MAX),
        "{:?}",
        &ports[..8]
    );
    // … then the cursor wraps: the held port is skipped, the first
    // reaped one is taken again.
    assert_eq!(ports[RANGE], FIRST + 1);
    assert_eq!(host.stats.conns_closed, RANGE as u64);
    assert!(host.conn(ConnId(0)).is_some_and(|c| c.local().1 == FIRST));
}

#[test]
fn a_closed_connection_leaves_nothing_in_the_event_queue() {
    /// Sends a patterned stream and closes behind it.
    struct PatternSender(Vec<u8>);
    impl App for PatternSender {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.connect(SERVER_IP, PORT);
        }
        fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            io.send(conn, &self.0);
            io.close(conn);
        }
        fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, _data: &[u8]) {}
    }
    /// Keeps what arrives; closes when the peer does.
    #[derive(Default)]
    struct Recorder(Vec<u8>);
    impl App for Recorder {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.listen(PORT);
        }
        fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, data: &[u8]) {
            self.0.extend_from_slice(data);
        }
        fn on_closed(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            io.close(conn);
        }
    }

    // Every connection timer in play — RTO and pacing on the sender, RTO
    // and delayed ACK on the receiver — over a link that loses, doubles
    // and reorders frames in both directions, so timers are re-armed,
    // cancelled *and* really fire (a callback for a timer that is not
    // the armed one trips the host's assertion).
    let sent: Vec<u8> = (0..48 * 1024u32)
        .map(|i| (i * 31 + 7).to_le_bytes()[0])
        .collect();
    let client_tcp = TcpConfig {
        pacing: Pacing::Enabled {
            min_gap: Duration::from_micros(20),
        },
        ..TcpConfig::default()
    };
    let server_tcp = TcpConfig {
        delayed_ack: DelayedAck::Enabled {
            max_delay: Duration::from_millis(1),
        },
        ..TcpConfig::default()
    };
    let (mut sim, c, s) = rig(
        client_tcp,
        server_tcp,
        default_link(),
        Box::new(PatternSender(sent.clone())),
        Box::new(Recorder::default()),
    );
    for (from, seed) in [(c, 11), (s, 12)] {
        let cfg = ImpairmentConfig {
            corrupt_p: 0.1,
            duplicate_p: 0.03,
            reorder_p: 0.1,
            reorder_window: Duration::from_micros(300),
            seed,
        };
        let link = LinkId(0);
        sim.schedule(Time::ZERO, FaultAction::Impair { link, from, cfg });
    }

    let reaped = |sim: &Simulation| {
        [c, s].iter().all(|&n| {
            let host = sim.node_ref::<Host>(n).unwrap();
            host.stats.conns_closed == 1 && host.live_conns() == 0
        })
    };
    while !reaped(&sim) {
        assert!(sim.now() < Time::from_nanos(30_000_000_000), "no close");
        sim.run_for(Duration::from_micros(100));
    }
    // Frames still in flight (and the RSTs they may draw) land within a
    // millisecond; neither application arms a timer of its own, so after
    // that nothing may be pending — no fenced-off RTO waiting to fire
    // into a reaped slot.
    sim.run_for(Duration::from_millis(1));
    assert_eq!(sim.pending_events(), 0);

    let server = sim.node_ref::<Host>(s).unwrap();
    assert_eq!(server.app_ref::<Recorder>().unwrap().0, sent);
    let client = sim.node_ref::<Host>(c).unwrap();
    assert!(
        client.stats.timeouts + server.stats.timeouts > 0 && client.stats.retransmits > 0,
        "the link lost nothing: {:?} {:?}",
        client.stats,
        server.stats
    );
    let stats = sim.stats();
    assert!(
        stats.timers_cancelled > 0 && stats.timers_fired > 0,
        "{stats:?}"
    );
}

#[test]
fn vip_addressed_server_accepts_and_replies_from_vip() {
    // The server accepts connections to a VIP it does not primarily own —
    // the DSR arrangement. The client connects to the VIP; replies must
    // come back from the VIP (otherwise the client's flow lookup fails and
    // nothing is echoed).
    const VIP: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

    struct VipClient {
        echoed: usize,
    }
    impl App for VipClient {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.connect(VIP, PORT);
        }
        fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            io.send(conn, b"hello-vip");
        }
        fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
            self.echoed += data.len();
            io.close(conn);
        }
    }

    let mut sim = Simulation::new();
    let c = sim.reserve_node("client");
    let s = sim.reserve_node("server");
    let l = sim.add_link(c, s, default_link());
    let ccfg = HostConfig::new(CLIENT_IP, 1);
    let mut scfg = HostConfig::new(SERVER_IP, 2);
    scfg.extra_ips.push(VIP);
    sim.install_node(
        c,
        Box::new(Host::new(
            ccfg,
            netpkt::MacAddr::from_id(1),
            l,
            Box::new(VipClient { echoed: 0 }),
        )),
    );
    sim.install_node(
        s,
        Box::new(Host::new(
            scfg,
            netpkt::MacAddr::from_id(2),
            l,
            Box::new(EchoServer::default()),
        )),
    );
    sim.run_for(Duration::from_secs(2));
    let app = sim
        .node_ref::<Host>(c)
        .unwrap()
        .app_ref::<VipClient>()
        .unwrap();
    assert_eq!(app.echoed, 9);
}
