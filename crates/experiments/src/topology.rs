//! The scenarios' addresses, and the backlogged-flow topology of Fig. 2
//! (the key-value cluster is [`crate::kv`]). Both share the
//! one-armed-LB-with-DSR shape the paper evaluates on:
//!
//! ```text
//!   clients ── router ── backends
//!                │
//!                LB        (client→VIP traffic detours through the LB;
//!                           backend→client responses bypass it)
//! ```

use std::net::Ipv4Addr;

use lb_dataplane::{LbConfig, LbNode};
use netpkt::MacAddr;
use netsim::router::Router;
use netsim::{Duration, LinkConfig, LinkId, NodeId, Simulation, Time};
use nettcp::{Host, HostConfig, TcpConfig};
use workload::{BacklogClient, BacklogConfig, SinkServer};

/// The virtual IP of the simulated service.
pub const VIP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
/// The LB's control address for out-of-band reports.
pub const CONTROL_IP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 2);
/// UDP port for out-of-band reports on [`CONTROL_IP`].
pub const CONTROL_PORT: u16 = 7946;
/// The service port used by the key-value scenarios.
pub const KV_PORT: u16 = 11211;
/// The port used by the bulk-flow scenarios.
pub const BULK_PORT: u16 = 5001;

/// The most clients, and the most backends, one cluster can address:
/// host `i` of either kind owns host octet `i + 1` of its /24.
pub const MAX_HOSTS: usize = u8::MAX as usize;

/// The host octet of client or backend `i`.
///
/// # Panics
/// Panics if `i` is `MAX_HOSTS` or more: its address would wrap onto
/// another host's.
fn host_octet(i: usize) -> u8 {
    u8::try_from(i + 1)
        .unwrap_or_else(|_| panic!("host index {i}: a cluster addresses at most {MAX_HOSTS}"))
}

pub(crate) fn client_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, host_octet(i))
}

pub(crate) fn backend_ip(j: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 2, host_octet(j))
}

/// The backlogged flow's sender window, in MSS-sized segments
/// (window-limited flow).
const WINDOW_SEGMENTS: u32 = 4;
/// The client access-link rate — the bottleneck that spaces intra-batch
/// packets (200 Mb/s ⇒ ≈58 µs per 1454-byte frame).
const CLIENT_RATE_BPS: u64 = 200_000_000;
/// Rare long stalls at the client (preemption/GC, §2.2), as
/// (probability per packet, stall): these are what make an over-large δ
/// produce its occasional erroneously-large estimates before the step in
/// Fig. 2(a).
const CLIENT_SPIKE: (f64, Duration) = (0.002, Duration::from_micros(1300));

/// Configuration for the backlogged-flow scenario (Fig. 2).
pub struct BacklogScenarioConfig {
    /// Client access-link propagation delay.
    pub client_delay: Duration,
    /// Backend-link propagation delay.
    pub backend_delay: Duration,
    /// Receive-path jitter on both endpoints (perturbs intra-batch gaps
    /// across the δ = 64 µs boundary, as in the paper's testbed).
    pub host_jitter: Option<(Duration, Duration)>,
    /// The LB config factory (usually [`LbConfig::observer`]). Fig. 2
    /// evaluates Algorithms 1/2 replayed over the LB's arrivals in the
    /// packet trace, not the samples this LB takes itself.
    pub lb: Box<dyn FnOnce(Vec<Ipv4Addr>) -> LbConfig>,
    /// Pacing at the bulk sender (§5(2) violation: smears batch edges).
    pub client_pacing: nettcp::Pacing,
    /// Delayed ACKs at the sink (§5(2) violation: defers the triggers).
    pub sink_delayed_ack: nettcp::DelayedAck,
    /// Application-limited sender (§5(2) violation): when set, the bulk
    /// client sends a small chunk every `poll` instead of staying
    /// backlogged, so pauses reflect the application, not flow control.
    pub app_limited: Option<(Duration, usize)>,
    /// Root seed.
    pub seed: u64,
}

impl BacklogScenarioConfig {
    /// The Fig. 2 defaults: base RTT ≈ 420 µs, 4-segment window,
    /// 200 Mb/s access link, ±jitter.
    pub fn fig2_defaults() -> BacklogScenarioConfig {
        BacklogScenarioConfig {
            client_delay: Duration::from_micros(80),
            backend_delay: Duration::from_micros(100),
            host_jitter: Some((Duration::from_micros(2), Duration::from_micros(40))),
            lb: Box::new(|backends| LbConfig::observer(VIP, backends)),
            client_pacing: nettcp::Pacing::Disabled,
            sink_delayed_ack: nettcp::DelayedAck::Disabled,
            app_limited: None,
            seed: 7,
        }
    }
}

/// A built backlogged-flow scenario.
pub struct BacklogScenario {
    /// The simulation.
    pub sim: Simulation,
    /// The bulk-sender client host.
    pub client: NodeId,
    /// The LB node.
    pub lb: NodeId,
    /// The sink backend host.
    pub backend: NodeId,
    /// The router.
    pub router: NodeId,
    /// The router→backend link (delay-injection point).
    pub backend_link: LinkId,
}

impl BacklogScenario {
    /// Builds the topology: one bulk client, one LB, one sink server.
    pub fn build(cfg: BacklogScenarioConfig) -> BacklogScenario {
        let mut sim = Simulation::new();
        let router_id = sim.reserve_node("router");
        let mut router = Router::new();

        let link = |delay| LinkConfig::new(10_000_000_000, delay, 1 << 20);
        let lb_id = sim.reserve_node("lb");
        let lb_link = sim.add_link(router_id, lb_id, link(Duration::from_micros(10)));
        router.add_route(VIP, lb_link);

        let backend_ip0 = backend_ip(0);
        let backend_node = sim.reserve_node("backend");
        // Forwarding path (LB → backend) and DSR return path (backend → router).
        let fwd_link = sim.add_link(lb_id, backend_node, link(cfg.backend_delay));
        let return_link = sim.add_link(router_id, backend_node, link(cfg.backend_delay));
        router.add_route(backend_ip0, return_link);
        let mut b_cfg = HostConfig::new(backend_ip0, netsim::rng::derive_seed(cfg.seed, 1));
        b_cfg.extra_ips.push(VIP);
        b_cfg.rx_jitter = cfg.host_jitter;
        b_cfg.tcp.delayed_ack = cfg.sink_delayed_ack;
        sim.install_node(
            backend_node,
            Box::new(Host::new(
                b_cfg,
                MacAddr::from_id(0xb0),
                return_link,
                Box::new(SinkServer::new(BULK_PORT)),
            )),
        );

        let lb_cfg = (cfg.lb)(vec![backend_ip0]);
        sim.install_node(
            lb_id,
            Box::new(LbNode::new(lb_cfg, MacAddr::from_id(0xff), vec![fwd_link])),
        );

        let c_ip = client_ip(0);
        let client_node = sim.reserve_node("client");
        let client_link = sim.add_link(
            router_id,
            client_node,
            LinkConfig::new(CLIENT_RATE_BPS, cfg.client_delay, 1 << 20),
        );
        router.add_route(c_ip, client_link);
        let mut c_cfg = HostConfig::new(c_ip, netsim::rng::derive_seed(cfg.seed, 2));
        c_cfg.rx_jitter = cfg.host_jitter;
        c_cfg.rx_spike = Some(CLIENT_SPIKE);
        c_cfg.tcp = TcpConfig::window_limited(WINDOW_SEGMENTS);
        c_cfg.tcp.pacing = cfg.client_pacing;
        let mut bulk = BacklogConfig {
            dst: VIP,
            port: BULK_PORT,
            ..BacklogConfig::default()
        };
        if let Some((poll, chunk)) = cfg.app_limited {
            // Application-limited: small sporadic writes instead of a
            // continuously backlogged buffer.
            bulk.poll = poll;
            bulk.chunk = chunk;
            bulk.low_watermark = usize::MAX; // always "below" → one chunk per poll
        }
        sim.install_node(
            client_node,
            Box::new(Host::new(
                c_cfg,
                MacAddr::from_id(0xc0),
                client_link,
                Box::new(BacklogClient::new(bulk)),
            )),
        );

        sim.install_node(router_id, Box::new(router));
        BacklogScenario {
            sim,
            client: client_node,
            lb: lb_id,
            backend: backend_node,
            router: router_id,
            backend_link: fwd_link,
        }
    }

    /// Schedules an RTT step: `extra` delay on the LB→backend direction
    /// starting at `at` (the Fig. 2 "true RTT increases" event).
    pub fn inject_delay(&mut self, at: Time, extra: Duration) {
        self.sim
            .schedule_extra_delay(at, self.backend_link, self.lb, extra);
    }

    /// The bulk client's app (after a run).
    pub fn client_app(&self) -> &BacklogClient {
        self.sim
            .node_ref::<Host>(self.client)
            .expect("client host")
            .app_ref::<BacklogClient>()
            .expect("backlog app")
    }
}
