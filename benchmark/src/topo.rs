//! The four workloads: frozen parameters and the topologies built from the
//! simulator's public constructors.
//!
//! Every workload is the paper's one-armed LB with Direct Server Return:
//!
//! ```text
//!   clients ── router ──► LB(s) ──► backends     (requests)
//!      ▲          │
//!      └──────────┴◄────── backends              (responses bypass the LB)
//! ```
//!
//! `net_congest` adds, on the LB → backend 0 path only, an aggregation
//! router, a 1 Gb/s bottleneck shared with a UDP blaster, and a top-of-rack
//! router that splits the junk off to a sink.

use std::net::Ipv4Addr;

use backend::{KvServerApp, KvServerConfig, ServiceDist};
use lb_dataplane::{LbConfig, LbNode};
use lbcore::{AlphaShift, HealthConfig};
use netpkt::{MacAddr, Packet};
use netsim::blaster::{Blaster, BlasterConfig};
use netsim::fault::{FaultSchedule, ImpairmentConfig};
use netsim::rng::derive_seed;
use netsim::router::Router;
use netsim::{Ctx, Duration, LinkConfig, LinkId, Node, NodeId, Simulation, Time, TimerToken};
use nettcp::{App, Host, HostConfig};
use telemetry::{JournalMode, SpanMode};
use workload::{MemtierClient, MemtierConfig};

use crate::trace::{SharedTracer, Timed, TimedApp};

pub const VIP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);
pub const KV_PORT: u16 = 11211;
/// Every hop but the `net_congest` bottleneck.
const RATE_BPS: u64 = 10_000_000_000;
const QUEUE_BYTES: u64 = 1 << 20;
const CLIENT_DELAY: Duration = Duration::from_micros(20);
const LB_DELAY: Duration = Duration::from_micros(10);
const BACKEND_DELAY: Duration = Duration::from_micros(20);
/// Receive-path jitter on every host, as in the repo's Fig. 3 scenario.
const HOST_JITTER: (Duration, Duration) = (Duration::from_micros(2), Duration::from_micros(20));
/// Recorder capacities for `kv_observed`, sized so nothing drops.
const JOURNAL_CAP: usize = 1 << 23;
const SPAN_CAP: usize = 1 << 25;

/// The scripted disturbance of a workload, at `t_d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disturbance {
    /// Extra one-way delay on every LB → backend 0 forwarding link.
    Delay { extra_us: u64 },
    /// A blaster shares backend 0's bottleneck, `on_ms` on / `off_ms` off,
    /// first burst at `t_d` (which must be a multiple of the cycle).
    Congest {
        bottleneck_bps: u64,
        queue_bytes: u64,
        offered_bps: u64,
        datagram: usize,
        on_ms: u64,
        off_ms: u64,
    },
    /// Backend 0 crashes at `t_d` and restarts at `restart_ms`; LB 0's
    /// forwarding link to backend 1 is lightly impaired in between.
    Crash { restart_ms: u64 },
}

/// One workload's frozen parameters (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Simulated span of one repetition.
    pub sim_ms: u64,
    /// Timed repetitions. Frozen: `req_per_wall_s` takes a per-step
    /// minimum over them, and a minimum of more samples is lower, so two
    /// runs compare only at the same count. Sized so that the repetitions
    /// take about `run_seconds` on the builder's machine.
    pub reps: usize,
    /// When the disturbance starts.
    pub t_d_ms: u64,
    pub lbs: usize,
    pub backends: usize,
    pub client_hosts: usize,
    pub conns_per_host: usize,
    pub pipeline: usize,
    /// Close and reopen a connection after this many requests.
    pub requests_per_conn: u64,
    /// Uniform think time between a response and the next request (µs).
    pub think_us: Option<(u64, u64)>,
    /// Median service time per backend: backend 0's, then everyone else's.
    pub service_median_us: (u64, u64),
    /// Sit-out before an ejected backend is probed again.
    pub probation_ms: u64,
    /// Journal and span recorders on (`kv_observed`).
    pub observed: bool,
    pub disturbance: Disturbance,
}

impl Spec {
    pub fn conns(&self) -> usize {
        self.client_hosts * self.conns_per_host
    }

    /// The same workload with its recorders off.
    pub fn unobserved(&self) -> Spec {
        Spec {
            observed: false,
            ..*self
        }
    }
}

// The paper's Fig. 3: work spread over every layer, server-path delay,
// recorders off.
const KV_DELAY: Spec = Spec {
    name: "kv_delay",
    sim_ms: 3000,
    reps: 14,
    t_d_ms: 750,
    lbs: 1,
    backends: 2,
    client_hosts: 1,
    conns_per_host: 16,
    pipeline: 1,
    requests_per_conn: 200,
    think_us: None,
    service_median_us: (60, 60),
    probation_ms: 1000,
    observed: false,
    disturbance: Disturbance::Delay { extra_us: 1000 },
};

pub const WORKLOADS: [Spec; 4] = [
    KV_DELAY,
    // kv_delay bit for bit with journal and spans Full: only telemetry
    // does more work.
    Spec {
        name: "kv_observed",
        reps: 13,
        observed: true,
        ..KV_DELAY
    },
    // netsim-heavy: cross traffic congests the faster backend's path, not
    // the server.
    Spec {
        name: "net_congest",
        sim_ms: 3600,
        reps: 17,
        t_d_ms: 800,
        conns_per_host: 8,
        service_median_us: (50, 70),
        disturbance: Disturbance::Congest {
            bottleneck_bps: 1_000_000_000,
            queue_bytes: 256 * 1024,
            offered_bps: 1_100_000_000,
            datagram: 256,
            on_ms: 200,
            off_ms: 200,
        },
        ..KV_DELAY
    },
    // 4 LBs, 1024 churning connections, crash and restart: set-up,
    // ejection and RTO paths.
    Spec {
        name: "fleet_chaos",
        sim_ms: 3000,
        reps: 9,
        t_d_ms: 750,
        lbs: 4,
        backends: 8,
        client_hosts: 4,
        conns_per_host: 256,
        requests_per_conn: 20,
        think_us: Some((30_000, 90_000)),
        probation_ms: 500,
        disturbance: Disturbance::Crash { restart_ms: 1875 },
        ..KV_DELAY
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// Counts the junk datagrams that crossed the bottleneck.
pub struct Sink {
    pub got: u64,
}

impl Node for Sink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _link: LinkId, pkt: Packet) {
        self.got += 1;
        ctx.pool().recycle(pkt);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
}

/// Installs nodes and applications bare (timed repetitions) or through the
/// tracing wrappers (traced pass), and reads them back either way.
pub struct Installer {
    tracer: Option<SharedTracer>,
}

impl Installer {
    pub fn bare() -> Installer {
        Installer { tracer: None }
    }

    pub fn traced(tracer: &SharedTracer) -> Installer {
        Installer {
            tracer: Some(tracer.clone()),
        }
    }

    fn node<N: Node>(
        &self,
        sim: &mut Simulation,
        id: NodeId,
        layer: &'static str,
        role: &'static str,
        node: N,
    ) {
        match &self.tracer {
            None => sim.install_node(id, Box::new(node)),
            Some(t) => sim.install_node(id, Box::new(Timed::new(node, t, layer, role))),
        }
    }

    fn app<A: App>(&self, layer: &'static str, role: &'static str, app: A) -> Box<dyn App> {
        match &self.tracer {
            None => Box::new(app),
            Some(t) => Box::new(TimedApp::new(app, t, layer, "nettcp", role)),
        }
    }

    pub fn node_ref<'a, N: Node>(&self, sim: &'a Simulation, id: NodeId) -> &'a N {
        match &self.tracer {
            None => sim.node_ref::<N>(id),
            Some(_) => sim.node_ref::<Timed<N>>(id).map(|t| &t.inner),
        }
        .unwrap_or_else(|| panic!("{} is not the node type asked for", sim.node_name(id)))
    }

    pub fn app_ref<'a, A: App>(&self, sim: &'a Simulation, host: NodeId) -> &'a A {
        let h = self.node_ref::<Host>(sim, host);
        match &self.tracer {
            None => h.app_ref::<A>(),
            Some(_) => h.app_ref::<TimedApp<A>>().map(|t| &t.inner),
        }
        .unwrap_or_else(|| panic!("{} hosts another application", sim.node_name(host)))
    }
}

/// A built workload, ready to run.
pub struct Topo {
    pub sim: Simulation,
    pub lbs: Vec<NodeId>,
    pub clients: Vec<NodeId>,
    pub backends: Vec<NodeId>,
    pub links: Vec<LinkId>,
    /// `net_congest`: the bottleneck link and its transmitting node.
    pub bottleneck: Option<(LinkId, NodeId)>,
    pub blaster: Option<NodeId>,
    pub sink: Option<NodeId>,
}

/// Builds `spec`'s topology. Everything random in the run descends from
/// `seed`; the same `(spec, seed)` gives the same packet schedule.
pub fn build(spec: &Spec, seed: u64, inst: &Installer) -> Topo {
    let mut sim = Simulation::new();
    let mut links = Vec::new();
    let mut link = |sim: &mut Simulation, a, b, cfg| {
        let id = sim.add_link(a, b, cfg);
        links.push(id);
        id
    };
    let hop = |delay| LinkConfig::new(RATE_BPS, delay, QUEUE_BYTES);

    let router_id = sim.reserve_node("router");
    let mut router = Router::new();

    let lb_ids: Vec<NodeId> = (0..spec.lbs)
        .map(|i| sim.reserve_node(format!("lb-{i}")))
        .collect();
    let lb_arms: Vec<LinkId> = lb_ids
        .iter()
        .map(|&lb| link(&mut sim, router_id, lb, hop(LB_DELAY)))
        .collect();
    router.add_route_ecmp(VIP, lb_arms);

    // Backends: one forwarding link per LB (delay injection and
    // impairment happen there) and a return link to the router (DSR).
    let mut backend_ids = Vec::new();
    let mut backend_ips = Vec::new();
    let mut fwd_links: Vec<Vec<LinkId>> = vec![Vec::new(); spec.lbs];
    let mut bottleneck = None;
    let mut blaster_id = None;
    let mut sink_id = None;
    for j in 0..spec.backends {
        let ip = Ipv4Addr::new(10, 0, 2, 1 + j as u8);
        let node = sim.reserve_node(format!("backend-{j}"));
        match spec.disturbance {
            Disturbance::Congest {
                bottleneck_bps,
                queue_bytes,
                offered_bps,
                datagram,
                on_ms,
                off_ms,
            } if j == 0 => {
                assert_eq!(spec.lbs, 1, "the congested path hangs off a single LB");
                assert_eq!(
                    spec.t_d_ms % (on_ms + off_ms),
                    0,
                    "the blaster's cycle is anchored at t = 0"
                );
                let agg = sim.reserve_node("agg");
                let tor = sim.reserve_node("tor");
                let blaster = sim.reserve_node("blaster");
                let sink = sim.reserve_node("sink");
                let short = hop(Duration::from_micros(5));
                fwd_links[0].push(link(&mut sim, lb_ids[0], agg, short));
                let shared = link(
                    &mut sim,
                    agg,
                    tor,
                    LinkConfig::new(bottleneck_bps, BACKEND_DELAY, queue_bytes),
                );
                let to_backend = link(&mut sim, tor, node, short);
                let to_sink = link(&mut sim, tor, sink, short);
                let from_blaster = link(&mut sim, blaster, agg, short);
                let cfg = BlasterConfig {
                    rate_bps: offered_bps,
                    payload: datagram,
                    duty_cycle: Some((Duration::from_millis(on_ms), Duration::from_millis(off_ms))),
                    start_after: Duration::from_millis(spec.t_d_ms),
                    ..BlasterConfig::default()
                };
                let mut tor_router = Router::new();
                tor_router.add_route(VIP, to_backend);
                tor_router.add_route(cfg.dst_ip, to_sink);
                let mut agg_router = Router::new();
                agg_router.set_default_route(shared);
                inst.node(
                    &mut sim,
                    blaster,
                    "netsim",
                    "blaster",
                    Blaster::new(cfg, from_blaster),
                );
                inst.node(&mut sim, agg, "netsim", "router", agg_router);
                inst.node(&mut sim, tor, "netsim", "router", tor_router);
                inst.node(&mut sim, sink, "netsim", "sink", Sink { got: 0 });
                bottleneck = Some((shared, agg));
                blaster_id = Some(blaster);
                sink_id = Some(sink);
            }
            _ => {
                for (i, &lb) in lb_ids.iter().enumerate() {
                    fwd_links[i].push(link(&mut sim, lb, node, hop(BACKEND_DELAY)));
                }
            }
        }
        let return_link = link(&mut sim, router_id, node, hop(BACKEND_DELAY));
        router.add_route(ip, return_link);
        let mut host_cfg = HostConfig::new(ip, derive_seed(seed, 100 + j as u64));
        host_cfg.extra_ips.push(VIP);
        host_cfg.rx_jitter = Some(HOST_JITTER);
        let median_us = if j == 0 {
            spec.service_median_us.0
        } else {
            spec.service_median_us.1
        };
        let server = KvServerApp::new(KvServerConfig {
            port: KV_PORT,
            service: ServiceDist::LogNormal {
                median: median_us * 1000,
                sigma: 0.3,
            },
            seed: derive_seed(seed, 400 + j as u64),
            ..KvServerConfig::default()
        });
        let host = Host::new(
            host_cfg,
            MacAddr::from_id(0xb0 + j as u32),
            return_link,
            inst.app("backend", "backend", server),
        );
        inst.node(&mut sim, node, "nettcp", "backend", host);
        backend_ids.push(node);
        backend_ips.push(ip);
    }

    for (i, &lb) in lb_ids.iter().enumerate() {
        let mut cfg =
            LbConfig::latency_aware(VIP, backend_ips.clone(), Box::new(AlphaShift::damped()));
        cfg.health = Some(HealthConfig {
            probation_after: spec.probation_ms * 1_000_000,
            ..HealthConfig::default()
        });
        if spec.observed {
            cfg.journal = JournalMode::Full(JOURNAL_CAP);
        }
        let node = LbNode::new(cfg, MacAddr::from_id(0xf0 + i as u32), fwd_links[i].clone());
        inst.node(&mut sim, lb, "lb-dataplane", "lb", node);
    }

    let mut client_ids = Vec::new();
    for i in 0..spec.client_hosts {
        let ip = Ipv4Addr::new(10, 0, 0, 1 + i as u8);
        let node = sim.reserve_node(format!("client-{i}"));
        let access = link(&mut sim, router_id, node, hop(CLIENT_DELAY));
        router.add_route(ip, access);
        let mut host_cfg = HostConfig::new(ip, derive_seed(seed, 200 + i as u64));
        host_cfg.rx_jitter = Some(HOST_JITTER);
        let client = MemtierClient::new(MemtierConfig {
            vip: VIP,
            port: KV_PORT,
            connections: spec.conns_per_host,
            pipeline: spec.pipeline,
            requests_per_conn: spec.requests_per_conn,
            think_time: spec
                .think_us
                .map(|(lo, hi)| (Duration::from_micros(lo), Duration::from_micros(hi))),
            seed: derive_seed(seed, 300 + i as u64),
            ..MemtierConfig::default()
        });
        let host = Host::new(
            host_cfg,
            MacAddr::from_id(0xc0 + i as u32),
            access,
            inst.app("workload", "client", client),
        );
        inst.node(&mut sim, node, "nettcp", "client", host);
        client_ids.push(node);
    }
    inst.node(&mut sim, router_id, "netsim", "router", router);

    let t_d = Time::ZERO + Duration::from_millis(spec.t_d_ms);
    match spec.disturbance {
        Disturbance::Delay { extra_us } => {
            for (i, &lb) in lb_ids.iter().enumerate() {
                sim.schedule_extra_delay(t_d, fwd_links[i][0], lb, Duration::from_micros(extra_us));
            }
        }
        Disturbance::Congest { .. } => {}
        Disturbance::Crash { restart_ms } => {
            let restart = Time::ZERO + Duration::from_millis(restart_ms);
            let mut faults = FaultSchedule::new();
            faults.crash_window(backend_ids[0], t_d, restart);
            faults.impair_window(
                fwd_links[0][1],
                lb_ids[0],
                ImpairmentConfig::light(derive_seed(seed, 900)),
                t_d,
                restart,
            );
            faults.apply(&mut sim);
        }
    }
    if spec.observed {
        sim.enable_spans(SpanMode::Full(SPAN_CAP));
    }

    Topo {
        sim,
        lbs: lb_ids,
        clients: client_ids,
        backends: backend_ids,
        links,
        bottleneck,
        blaster: blaster_id,
        sink: sink_id,
    }
}
