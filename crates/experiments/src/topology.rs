//! Scenario topologies.
//!
//! Both scenarios share the same one-armed-LB-with-DSR shape the paper
//! evaluates on:
//!
//! ```text
//!   clients ── router ── backends
//!                │
//!                LB        (client→VIP traffic detours through the LB;
//!                           backend→client responses bypass it)
//! ```

use std::net::Ipv4Addr;

use backend::{KvServerApp, KvServerConfig};
use lb_dataplane::{LbConfig, LbNode};
use netpkt::{FlowKey, MacAddr};
use netsim::router::Router;
use netsim::{Duration, LinkConfig, LinkId, NodeId, Simulation, Time};
use nettcp::{App, Host, HostConfig, TcpConfig};
use workload::{BacklogClient, BacklogConfig, MemtierClient, MemtierConfig, SinkServer};

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

/// The client→VIP flow a journaled `Sample` came from. The journal
/// carries only the client side (`src_ip`, `src_port`); in the key-value
/// scenarios the other side is always `VIP:KV_PORT`.
pub fn kv_flow_key(src_ip: u32, src_port: u16) -> FlowKey {
    FlowKey::new(Ipv4Addr::from(src_ip), src_port, VIP, KV_PORT)
}

fn client_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 1 + i as u8)
}

fn backend_ip(j: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 2, 1 + j as u8)
}

/// Congestion on one backend's network path (§2.1): the LB→backend path
/// gains an aggregation hop whose egress link is a bottleneck shared with
/// a UDP cross-traffic blaster.
pub struct CongestionConfig {
    /// Which backend's path is congested.
    pub backend: usize,
    /// Bottleneck link rate (aggregation → backend).
    pub bottleneck_bps: u64,
    /// Bottleneck queue capacity in bytes (bounds the queueing delay the
    /// request traffic can experience: queue/rate).
    pub queue_bytes: u64,
    /// The cross-traffic source sharing the bottleneck.
    pub blaster: netsim::blaster::BlasterConfig,
}

/// Configuration for the key-value cluster scenario (Fig. 3 and the
/// controller ablations).
pub struct KvClusterConfig {
    /// Per-client workload configs (one client host each). The `vip` and
    /// `port` fields are overwritten to the scenario's VIP.
    pub clients: Vec<MemtierConfig>,
    /// Per-backend server configs.
    pub backends: Vec<KvServerConfig>,
    /// The LB configuration factory: given the backend address list,
    /// produce the LB config (lets callers choose baseline vs. aware).
    pub lb: Box<dyn FnOnce(Vec<Ipv4Addr>) -> LbConfig>,
    /// Additional LB instances serving the same VIP (the router ECMPs
    /// client flows across all of them). Each gets its own factory —
    /// independent measurement and control state per LB, as in a real
    /// fleet.
    pub extra_lbs: Vec<Box<dyn FnOnce(Vec<Ipv4Addr>) -> LbConfig>>,
    /// Scripted LB failure `(when, lb index)`: at that instant the router
    /// withdraws the dead LB from the VIP's ECMP set, re-hashing its
    /// flows onto the survivors (§2.5's LB-churn concern).
    pub lb_failure: Option<(Duration, usize)>,
    /// Client access-link propagation delay.
    pub client_delay: Duration,
    /// Per-client overrides of the access-link delay (index-aligned with
    /// `clients`; `None` entries use `client_delay`). Models §5(1)'s
    /// far, non-equidistant clients.
    pub client_delay_overrides: Vec<Option<Duration>>,
    /// LB arm propagation delay.
    pub lb_delay: Duration,
    /// Backend-link propagation delay.
    pub backend_delay: Duration,
    /// Link rate for every hop.
    pub rate_bps: u64,
    /// Receive-path jitter applied to clients and backends.
    pub host_jitter: Option<(Duration, Duration)>,
    /// Client transport parameters.
    pub client_tcp: TcpConfig,
    /// Optional network-path congestion on one backend (§2.1).
    pub congestion: Option<CongestionConfig>,
    /// When set, every backend runs an out-of-band reporting agent with
    /// this period, sending its locally measured latency to the LB's
    /// control address (§2.3's alternative; single-LB only).
    pub oob_report_period: Option<Duration>,
    /// Root seed.
    pub seed: u64,
}

impl KvClusterConfig {
    /// The Fig. 3 defaults: two backends, one client host running a
    /// 16-connection, strictly request-response (pipeline = 1) 50-50
    /// GET/SET workload with churn — matching memtier's default mode.
    ///
    /// Pipeline depth matters more than it looks: with depth ≥ 2 and
    /// staggered responses the connection never fully drains its quota, so
    /// its packet stream is continuous (gaps ≈ response *spacing*) and the
    /// batch structure the measurement needs disappears. See
    /// EXPERIMENTS.md, "findings".
    pub fn fig3_defaults(lb: Box<dyn FnOnce(Vec<Ipv4Addr>) -> LbConfig>) -> KvClusterConfig {
        KvClusterConfig {
            clients: vec![MemtierConfig {
                connections: 16,
                pipeline: 1,
                requests_per_conn: 200,
                ..MemtierConfig::default()
            }],
            backends: vec![
                KvServerConfig::default(),
                KvServerConfig {
                    seed: 1,
                    ..KvServerConfig::default()
                },
            ],
            lb,
            extra_lbs: Vec::new(),
            lb_failure: None,
            client_delay: Duration::from_micros(20),
            client_delay_overrides: Vec::new(),
            lb_delay: Duration::from_micros(10),
            backend_delay: Duration::from_micros(20),
            rate_bps: 10_000_000_000,
            host_jitter: Some((Duration::from_micros(2), Duration::from_micros(20))),
            client_tcp: TcpConfig::default(),
            congestion: None,
            oob_report_period: None,
            seed: 42,
        }
    }
}

/// A built key-value cluster.
pub struct KvCluster {
    /// The simulation (run it!).
    pub sim: Simulation,
    /// Client host nodes.
    pub clients: Vec<NodeId>,
    /// The primary LB node (`lbs[0]`).
    pub lb: NodeId,
    /// All LB nodes serving the VIP.
    pub lbs: Vec<NodeId>,
    /// Backend host nodes.
    pub backends: Vec<NodeId>,
    /// The router.
    pub router: NodeId,
    /// The primary LB's forwarding link per backend — the "LB to server
    /// path" where Fig. 3 injects its delay.
    pub backend_links: Vec<LinkId>,
    /// The router→LB arm per LB instance — the VIP's ECMP member set.
    /// Rendezvous-hashing a flow over these (`netsim::ecmp::pick`)
    /// reproduces the router's shard assignment exactly, which the
    /// multi-LB invariant tests rely on.
    pub lb_arms: Vec<LinkId>,
    /// Every LB's forwarding link per backend: `fwd_links[i][j]` is LB
    /// `i`'s link to backend `j` (`fwd_links[0]` == `backend_links`).
    pub fwd_links: Vec<Vec<LinkId>>,
}

impl KvCluster {
    /// Builds the topology.
    pub fn build(cfg: KvClusterConfig) -> KvCluster {
        let mut sim = Simulation::new();
        let router_id = sim.reserve_node("router");
        let mut router = Router::new();

        // LB nodes and arms (one or more instances serving the VIP).
        let num_lbs = 1 + cfg.extra_lbs.len();
        assert!(
            cfg.congestion.is_none() || num_lbs == 1,
            "congestion scenarios support a single LB"
        );
        let mut lb_ids = Vec::with_capacity(num_lbs);
        let mut lb_arms = Vec::with_capacity(num_lbs);
        for i in 0..num_lbs {
            let lb_id = sim.reserve_node(if i == 0 {
                "lb".to_string()
            } else {
                format!("lb-{i}")
            });
            let arm = sim.add_link(
                router_id,
                lb_id,
                LinkConfig::new(cfg.rate_bps, cfg.lb_delay, 1 << 20),
            );
            lb_ids.push(lb_id);
            lb_arms.push(arm);
        }
        let lb_id = lb_ids[0];
        router.add_route_ecmp(VIP, lb_arms.clone());
        if cfg.oob_report_period.is_some() {
            assert!(num_lbs == 1, "out-of-band reporting supports a single LB");
            router.add_route(CONTROL_IP, lb_arms[0]);
        }
        if let Some((at, dead)) = cfg.lb_failure {
            assert!(dead < num_lbs, "lb_failure index out of range");
            let survivors: Vec<_> = lb_arms
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != dead)
                .map(|(_, &l)| l)
                .collect();
            assert!(!survivors.is_empty(), "cannot fail the only LB");
            router.schedule_route_update(Time::ZERO + at, VIP, survivors);
        }

        // Backends. Each backend has two links: a direct LB→backend link
        // (the forwarding path; delay injection happens here) and a
        // backend→router link that carries its DSR replies to clients.
        let mut backend_nodes = Vec::new();
        // fwd_links[i][j]: LB i's forwarding link to backend j.
        let mut fwd_links: Vec<Vec<LinkId>> = vec![Vec::new(); num_lbs];
        let mut backend_ips = Vec::new();
        for (j, server_cfg) in cfg.backends.into_iter().enumerate() {
            let ip = backend_ip(j);
            backend_ips.push(ip);
            let node = sim.reserve_node(format!("backend-{j}"));
            let congest_here = cfg.congestion.as_ref().filter(|c| c.backend == j);
            let fwd_link = if let Some(c) = congest_here {
                // §2.1 congestion: LB → agg (fast) → backend (bottleneck),
                // with a UDP blaster sharing the bottleneck's queue.
                let agg = sim.reserve_node(format!("agg-{j}"));
                let lb_to_agg = sim.add_link(
                    lb_id,
                    agg,
                    LinkConfig::new(cfg.rate_bps, Duration::from_micros(5), 1 << 20),
                );
                let bottleneck = sim.add_link(
                    agg,
                    node,
                    LinkConfig::new(c.bottleneck_bps, cfg.backend_delay, c.queue_bytes),
                );
                let blaster_node = sim.reserve_node(format!("blaster-{j}"));
                let blast_link = sim.add_link(
                    blaster_node,
                    agg,
                    LinkConfig::new(cfg.rate_bps, Duration::from_micros(5), 1 << 20),
                );
                sim.install_node(
                    blaster_node,
                    Box::new(netsim::blaster::Blaster::new(c.blaster.clone(), blast_link)),
                );
                let mut agg_router = Router::new();
                // Everything heading down (requests to the VIP, junk to the
                // blaster's destination) shares the bottleneck.
                agg_router.set_default_route(bottleneck);
                sim.install_node(agg, Box::new(agg_router));
                lb_to_agg
            } else {
                sim.add_link(
                    lb_id,
                    node,
                    LinkConfig::new(cfg.rate_bps, cfg.backend_delay, 1 << 20),
                )
            };
            fwd_links[0].push(fwd_link);
            // Extra LBs get their own direct forwarding links.
            for i in 1..num_lbs {
                let link = sim.add_link(
                    lb_ids[i],
                    node,
                    LinkConfig::new(cfg.rate_bps, cfg.backend_delay, 1 << 20),
                );
                fwd_links[i].push(link);
            }
            let return_link = sim.add_link(
                router_id,
                node,
                LinkConfig::new(cfg.rate_bps, cfg.backend_delay, 1 << 20),
            );
            router.add_route(ip, return_link);
            let mut host_cfg =
                HostConfig::new(ip, netsim::rng::derive_seed(cfg.seed, 100 + j as u64));
            host_cfg.extra_ips.push(VIP); // DSR: the VIP lives on the backend's loopback
            host_cfg.rx_jitter = cfg.host_jitter;
            let mut server_cfg = KvServerConfig {
                port: KV_PORT,
                ..server_cfg
            };
            if let Some(period) = cfg.oob_report_period {
                server_cfg.report = Some(backend::OobAgent {
                    control_ip: CONTROL_IP,
                    port: CONTROL_PORT,
                    backend_id: j as u32,
                    period,
                });
            }
            let app = Box::new(KvServerApp::new(server_cfg));
            // The host's uplink (where replies go) is the router link.
            sim.install_node(
                node,
                Box::new(Host::new(
                    host_cfg,
                    MacAddr::from_id(0xb0 + j as u32),
                    return_link,
                    app,
                )),
            );
            backend_nodes.push(node);
        }

        // The LBs themselves.
        let factories = std::iter::once(cfg.lb).chain(cfg.extra_lbs);
        for (i, factory) in factories.enumerate() {
            let lb_cfg = factory(backend_ips.clone());
            sim.install_node(
                lb_ids[i],
                Box::new(LbNode::new(
                    lb_cfg,
                    MacAddr::from_id(0xf0 + i as u32),
                    fwd_links[i].clone(),
                )),
            );
        }
        let backend_links = fwd_links[0].clone();

        // Clients.
        let mut client_nodes = Vec::new();
        for (i, mut mem_cfg) in cfg.clients.into_iter().enumerate() {
            let ip = client_ip(i);
            let node = sim.reserve_node(format!("client-{i}"));
            let delay = cfg
                .client_delay_overrides
                .get(i)
                .copied()
                .flatten()
                .unwrap_or(cfg.client_delay);
            let link = sim.add_link(
                router_id,
                node,
                LinkConfig::new(cfg.rate_bps, delay, 1 << 20),
            );
            router.add_route(ip, link);
            let mut host_cfg =
                HostConfig::new(ip, netsim::rng::derive_seed(cfg.seed, 200 + i as u64));
            host_cfg.rx_jitter = cfg.host_jitter;
            host_cfg.tcp = cfg.client_tcp;
            mem_cfg.vip = VIP;
            mem_cfg.port = KV_PORT;
            mem_cfg.seed = netsim::rng::derive_seed(cfg.seed, 300 + i as u64);
            let app = Box::new(MemtierClient::new(mem_cfg));
            sim.install_node(
                node,
                Box::new(Host::new(
                    host_cfg,
                    MacAddr::from_id(0xc0 + i as u32),
                    link,
                    app,
                )),
            );
            client_nodes.push(node);
        }

        sim.install_node(router_id, Box::new(router));
        KvCluster {
            sim,
            clients: client_nodes,
            lb: lb_id,
            lbs: lb_ids,
            backends: backend_nodes,
            router: router_id,
            backend_links,
            lb_arms,
            fwd_links,
        }
    }

    /// Schedules the Fig. 3 event: `extra` delay on the LB→backend
    /// direction of backend `j`'s forwarding link ("the path from the LB
    /// to one of the servers"), starting at `at`.
    pub fn inject_backend_delay(&mut self, j: usize, at: Time, extra: Duration) {
        let link = self.backend_links[j];
        self.sim.schedule_extra_delay(at, link, self.lb, extra);
    }

    /// Multi-LB variant of [`KvCluster::inject_backend_delay`]: degrades
    /// backend `j` as seen from *every* LB instance — the Fig. 3 "server
    /// path slowed" event for a sharded tier, where each LB's forwarding
    /// link to the backend gains the same `extra` delay at `at`. For a
    /// single-LB cluster this schedules exactly the one event the fig3
    /// path schedules, keeping the N=1 degeneracy byte-identical.
    pub fn inject_backend_delay_all_lbs(&mut self, j: usize, at: Time, extra: Duration) {
        for (i, links) in self.fwd_links.iter().enumerate() {
            self.sim
                .schedule_extra_delay(at, links[j], self.lbs[i], extra);
        }
    }

    /// The client application of client host `i` (after a run).
    pub fn client_app(&self, i: usize) -> &MemtierClient {
        self.sim
            .node_ref::<Host>(self.clients[i])
            .expect("client host")
            .app_ref::<MemtierClient>()
            .expect("memtier app")
    }

    /// The primary LB node (after a run).
    pub fn lb_node(&self) -> &LbNode {
        self.sim.node_ref::<LbNode>(self.lb).expect("lb node")
    }

    /// LB node `i` of a multi-LB cluster (after a run).
    pub fn lb_node_i(&self, i: usize) -> &LbNode {
        self.sim.node_ref::<LbNode>(self.lbs[i]).expect("lb node")
    }

    /// The backend server app of backend `j` (after a run).
    pub fn backend_app(&self, j: usize) -> &KvServerApp {
        self.sim
            .node_ref::<Host>(self.backends[j])
            .expect("backend host")
            .app_ref::<KvServerApp>()
            .expect("kv server app")
    }
}

/// Configuration for the backlogged-flow scenario (Fig. 2).
pub struct BacklogScenarioConfig {
    /// Sender window, in MSS-sized segments (window-limited flow).
    pub window_segments: u32,
    /// Client access-link rate — the bottleneck that spaces intra-batch
    /// packets (200 Mb/s ⇒ ≈58 µs per 1454-byte frame).
    pub client_rate_bps: u64,
    /// Client access-link propagation delay.
    pub client_delay: Duration,
    /// Backend-link propagation delay.
    pub backend_delay: Duration,
    /// Receive-path jitter on both endpoints (perturbs intra-batch gaps
    /// across the δ = 64 µs boundary, as in the paper's testbed).
    pub host_jitter: Option<(Duration, Duration)>,
    /// Rare long stalls at the client (preemption/GC, §2.2); these are
    /// what make an over-large δ produce its occasional erroneously-large
    /// estimates before the step in Fig. 2(a).
    pub client_spike: Option<(f64, Duration)>,
    /// The LB config factory (usually [`LbConfig::observer`]).
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
            window_segments: 4,
            client_rate_bps: 200_000_000,
            client_delay: Duration::from_micros(80),
            backend_delay: Duration::from_micros(100),
            host_jitter: Some((Duration::from_micros(2), Duration::from_micros(40))),
            client_spike: Some((0.002, Duration::from_micros(1300))),
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

        let lb_id = sim.reserve_node("lb");
        let lb_link = sim.add_link(
            router_id,
            lb_id,
            LinkConfig::new(10_000_000_000, Duration::from_micros(10), 1 << 20),
        );
        router.add_route(VIP, lb_link);

        let backend_ip0 = backend_ip(0);
        let backend_node = sim.reserve_node("backend");
        // Forwarding path (LB → backend) and DSR return path (backend → router).
        let fwd_link = sim.add_link(
            lb_id,
            backend_node,
            LinkConfig::new(10_000_000_000, cfg.backend_delay, 1 << 20),
        );
        let return_link = sim.add_link(
            router_id,
            backend_node,
            LinkConfig::new(10_000_000_000, cfg.backend_delay, 1 << 20),
        );
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
            LinkConfig::new(cfg.client_rate_bps, cfg.client_delay, 1 << 20),
        );
        router.add_route(c_ip, client_link);
        let mut c_cfg = HostConfig::new(c_ip, netsim::rng::derive_seed(cfg.seed, 2));
        c_cfg.rx_jitter = cfg.host_jitter;
        c_cfg.rx_spike = cfg.client_spike;
        c_cfg.tcp = TcpConfig::window_limited(cfg.window_segments);
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

    /// The LB node (after a run).
    pub fn lb_node(&self) -> &LbNode {
        self.sim.node_ref::<LbNode>(self.lb).expect("lb node")
    }

    /// The sink app (after a run).
    pub fn sink_app(&self) -> &SinkServer {
        self.sim
            .node_ref::<Host>(self.backend)
            .expect("backend host")
            .app_ref::<SinkServer>()
            .expect("sink app")
    }
}

/// Helper trait object so scenario configs can also accept plain apps in
/// future extensions (kept private; re-exported types above are the API).
#[allow(dead_code)]
fn _assert_app_object_safe(_a: &dyn App) {}
