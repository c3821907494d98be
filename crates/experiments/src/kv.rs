//! The key-value scenario, end to end. Fig. 3, EXP-CHAOS, the multi-LB
//! tier, the ablations and `scenariofuzz` each describe their scenario
//! as plain data — a [`KvClusterConfig`] and a [`Timeline`] — and this
//! module does the rest: [`KvCluster::build`] builds the cluster,
//! [`KvCluster::run`] disturbs and drives it, and [`p95_in`],
//! [`reaction`] and [`p95_table`] read it. `lbtrace` applies the same
//! [`reaction`] rule to a journal capture.
//!
//! The topology is the one-armed LB with DSR the paper evaluates on,
//! with the LB replicated behind the router's ECMP stage:
//!
//! ```text
//!   clients ── router ── backends
//!                │
//!                LB × lbs  (client→VIP traffic detours through the LB
//!                           its flow hashes to; backend→client
//!                           responses bypass every LB)
//! ```

use std::net::Ipv4Addr;

use backend::{KvServerApp, KvServerConfig};
use lb_dataplane::{LbConfig, LbNode};
use lbcore::GossipConfig;
use netpkt::{FlowKey, MacAddr};
use netsim::fault::{FaultSchedule, ImpairmentConfig};
use netsim::router::Router;
use netsim::{Duration, LinkConfig, LinkId, NodeId, Simulation, Time};
use nettcp::{Host, HostConfig};
use telemetry::{BinnedSeries, LogHistogram, ScalarSeries, Table};
use workload::{MemtierClient, MemtierConfig};

use crate::topology::{backend_ip, client_ip, CONTROL_IP, CONTROL_PORT, KV_PORT, VIP};

/// The client→VIP flow a journaled `Sample` came from. The journal
/// carries only the client side (`src_ip`, `src_port`); in the key-value
/// scenarios the other side is always `VIP:KV_PORT`.
pub fn kv_flow_key(src_ip: u32, src_port: u16) -> FlowKey {
    FlowKey::new(Ipv4Addr::from(src_ip), src_port, VIP, KV_PORT)
}

/// Client access-link propagation delay (unless overridden per client;
/// see [`KvClusterConfig::client_delay_overrides`]).
const CLIENT_DELAY: Duration = Duration::from_micros(20);
/// Router→LB arm propagation delay.
const LB_DELAY: Duration = Duration::from_micros(10);
/// Backend-link propagation delay.
const BACKEND_DELAY: Duration = Duration::from_micros(20);
/// Link rate of every hop but a congested bottleneck.
const RATE_BPS: u64 = 10_000_000_000;
/// Receive-path jitter on clients and backends.
const HOST_JITTER: Option<(Duration, Duration)> =
    Some((Duration::from_micros(2), Duration::from_micros(20)));

/// Builds an LB's config from the backend address list.
pub type LbFactory = Box<dyn Fn(Vec<Ipv4Addr>) -> LbConfig>;

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
    /// The LB configuration factory (lets callers choose baseline vs.
    /// aware). Called once per LB, so every LB has its own measurement
    /// and control state, as in a real fleet.
    pub lb: LbFactory,
    /// LB instances serving the VIP; the router ECMPs client flows
    /// across them.
    pub lbs: usize,
    /// Scripted LB failure `(when, lb index)`: at that instant the router
    /// withdraws the dead LB from the VIP's ECMP set, re-hashing its
    /// flows onto the survivors (§2.5's LB-churn concern).
    pub lb_failure: Option<(Duration, usize)>,
    /// Per-client overrides of the access-link delay (index-aligned with
    /// `clients`; `None` entries use the default 20 µs). Models §5(1)'s
    /// far, non-equidistant clients.
    pub client_delay_overrides: Vec<Option<Duration>>,
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
    /// GET/SET workload with churn — matching memtier's default mode —
    /// behind one LB built by `lb`.
    ///
    /// Pipeline depth matters more than it looks: with depth ≥ 2 and
    /// staggered responses the connection never fully drains its quota, so
    /// its packet stream is continuous (gaps ≈ response *spacing*) and the
    /// batch structure the measurement needs disappears. See
    /// EXPERIMENTS.md, "findings".
    pub fn fig3_defaults(lb: impl Fn(Vec<Ipv4Addr>) -> LbConfig + 'static) -> KvClusterConfig {
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
            lb: Box::new(lb),
            lbs: 1,
            lb_failure: None,
            client_delay_overrides: Vec::new(),
            congestion: None,
            oob_report_period: None,
            seed: 42,
        }
    }
}

/// What happens to a built cluster over a run, as plain data:
/// [`KvCluster::run`] schedules it and drives the clock. Times count
/// from the start of the run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Run length.
    pub duration: Duration,
    /// Scripted faults, scheduled in order and before the injections
    /// (events at the same instant fire in the order they were pushed).
    pub faults: Vec<Fault>,
    /// Delay injections, each on every LB's path to its backend.
    pub injections: Vec<Injection>,
    /// Periodic all-to-all weight gossip between the LBs (`None`: each
    /// LB reacts to its own shard only).
    pub gossip: Option<GossipConfig>,
}

/// The Fig. 3 event: `extra` one-way delay on the LB→backend direction
/// of every LB's forwarding link to `backend`, from `at` on.
#[derive(Debug, Clone, Copy)]
pub struct Injection {
    /// Backend index.
    pub backend: usize,
    /// Injection instant.
    pub at: Duration,
    /// Extra one-way delay.
    pub extra: Duration,
}

/// One scripted fault: `kind` holds from `from` until `until`.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// What fails.
    pub kind: FaultKind,
    /// When it fails (crash, link down, impairment on).
    pub from: Duration,
    /// When it recovers (restart, link up, impairment off).
    pub until: Duration,
}

/// What a [`Fault`] breaks, by backend and LB index.
#[derive(Debug, Clone, Copy)]
pub enum FaultKind {
    /// `Crash(backend)`: the backend host goes silent.
    Crash(usize),
    /// `Flap(lb, backend)`: that LB's forwarding link to that backend
    /// drops everything, both ways.
    Flap(usize, usize),
    /// `Impair(lb, backend, cfg)`: the LB→backend direction of that
    /// forwarding link corrupts, duplicates and reorders per `cfg`.
    Impair(usize, usize, ImpairmentConfig),
}

/// A built key-value cluster.
pub struct KvCluster {
    /// The simulation (run it!).
    pub sim: Simulation,
    /// Client host nodes.
    pub clients: Vec<NodeId>,
    /// The LB nodes serving the VIP, by LB index.
    pub lbs: Vec<NodeId>,
    /// Backend host nodes.
    pub backends: Vec<NodeId>,
    /// The router.
    pub router: NodeId,
    /// The router→LB arm per LB instance — the VIP's ECMP member set.
    /// Rendezvous-hashing a flow over these (`netsim::ecmp::pick`)
    /// reproduces the router's shard assignment exactly, which the
    /// multi-LB invariant tests rely on.
    pub lb_arms: Vec<LinkId>,
    /// `fwd_links[i][j]` is LB `i`'s forwarding link to backend `j` —
    /// the "LB to server path" where Fig. 3 injects its delay.
    pub fwd_links: Vec<Vec<LinkId>>,
}

impl KvCluster {
    /// Builds the topology.
    pub fn build(cfg: KvClusterConfig) -> KvCluster {
        let mut sim = Simulation::new();
        let router_id = sim.reserve_node("router");
        let mut router = Router::new();

        // LB nodes and arms (one or more instances serving the VIP).
        let num_lbs = cfg.lbs;
        assert!(num_lbs >= 1, "the cluster needs at least one LB");
        assert!(
            cfg.congestion.is_none() || num_lbs == 1,
            "congestion scenarios support a single LB"
        );
        let link = |delay| LinkConfig::new(RATE_BPS, delay, 1 << 20);
        let mut lb_ids = Vec::with_capacity(num_lbs);
        let mut lb_arms = Vec::with_capacity(num_lbs);
        for i in 0..num_lbs {
            let lb_id = sim.reserve_node(if i == 0 {
                "lb".to_string()
            } else {
                format!("lb-{i}")
            });
            lb_arms.push(sim.add_link(router_id, lb_id, link(LB_DELAY)));
            lb_ids.push(lb_id);
        }
        let lb_id = lb_ids[0];
        router.add_route_ecmp(VIP, lb_arms.clone());
        if cfg.oob_report_period.is_some() {
            assert!(num_lbs == 1, "out-of-band reporting supports a single LB");
            router.add_route(CONTROL_IP, lb_arms[0]);
        }
        if let Some((at, dead)) = cfg.lb_failure {
            assert!(dead < num_lbs, "lb_failure index out of range");
            let mut survivors = lb_arms.clone();
            survivors.remove(dead);
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
                let lb_to_agg = sim.add_link(lb_id, agg, link(Duration::from_micros(5)));
                let bottleneck = sim.add_link(
                    agg,
                    node,
                    LinkConfig::new(c.bottleneck_bps, BACKEND_DELAY, c.queue_bytes),
                );
                let blaster_node = sim.reserve_node(format!("blaster-{j}"));
                let blast_link = sim.add_link(blaster_node, agg, link(Duration::from_micros(5)));
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
                sim.add_link(lb_id, node, link(BACKEND_DELAY))
            };
            fwd_links[0].push(fwd_link);
            // Extra LBs get their own direct forwarding links.
            for i in 1..num_lbs {
                fwd_links[i].push(sim.add_link(lb_ids[i], node, link(BACKEND_DELAY)));
            }
            let return_link = sim.add_link(router_id, node, link(BACKEND_DELAY));
            router.add_route(ip, return_link);
            let mut host_cfg =
                HostConfig::new(ip, netsim::rng::derive_seed(cfg.seed, 100 + j as u64));
            host_cfg.extra_ips.push(VIP); // DSR: the VIP lives on the backend's loopback
            host_cfg.rx_jitter = HOST_JITTER;
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
        for (i, &id) in lb_ids.iter().enumerate() {
            sim.install_node(
                id,
                Box::new(LbNode::new(
                    (cfg.lb)(backend_ips.clone()),
                    MacAddr::from_id(0xf0 + i as u32),
                    fwd_links[i].clone(),
                )),
            );
        }

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
                .unwrap_or(CLIENT_DELAY);
            let access = sim.add_link(router_id, node, link(delay));
            router.add_route(ip, access);
            let mut host_cfg =
                HostConfig::new(ip, netsim::rng::derive_seed(cfg.seed, 200 + i as u64));
            host_cfg.rx_jitter = HOST_JITTER;
            mem_cfg.vip = VIP;
            mem_cfg.port = KV_PORT;
            mem_cfg.seed = netsim::rng::derive_seed(cfg.seed, 300 + i as u64);
            let app = Box::new(MemtierClient::new(mem_cfg));
            sim.install_node(
                node,
                Box::new(Host::new(
                    host_cfg,
                    MacAddr::from_id(0xc0 + i as u32),
                    access,
                    app,
                )),
            );
            client_nodes.push(node);
        }

        sim.install_node(router_id, Box::new(router));
        KvCluster {
            sim,
            clients: client_nodes,
            lbs: lb_ids,
            backends: backend_nodes,
            router: router_id,
            lb_arms,
            fwd_links,
        }
    }

    /// Schedules `timeline`'s faults, then its injections, and runs the
    /// cluster from t = 0 to the timeline's end. With gossip and more
    /// than one LB, the clock advances in `period` steps with a gossip
    /// round between steps. Events *at* a step boundary fire before the
    /// round (`run_until` is inclusive) and gossip sends no packets, so
    /// stepping never moves the packet schedule.
    pub fn run(&mut self, timeline: &Timeline) {
        let at = |d: Duration| Time::ZERO + d;
        let mut faults = FaultSchedule::new();
        for f in &timeline.faults {
            let (from, until) = (at(f.from), at(f.until));
            match f.kind {
                FaultKind::Crash(b) => faults.crash_window(self.backends[b], from, until),
                FaultKind::Flap(lb, b) => faults.link_flap(self.fwd_links[lb][b], from, until),
                FaultKind::Impair(lb, b, cfg) => {
                    let link = self.fwd_links[lb][b];
                    faults.impair_window(link, self.lbs[lb], cfg, from, until)
                }
            };
        }
        faults.apply(&mut self.sim);
        for inj in &timeline.injections {
            for (links, &lb) in self.fwd_links.iter().zip(&self.lbs) {
                self.sim
                    .schedule_extra_delay(at(inj.at), links[inj.backend], lb, inj.extra);
            }
        }

        let end = at(timeline.duration);
        let gossip = timeline
            .gossip
            .filter(|g| self.lbs.len() > 1 && g.period_ns > 0);
        if let Some(g) = gossip {
            let period = Duration::from_nanos(g.period_ns);
            let mut next = at(period);
            while next < end {
                self.sim.run_until(next);
                self.gossip_round(g.mix);
                next += period;
            }
        }
        self.sim.run_until(end);
    }

    /// One all-to-all gossip round: every LB merges against its peers'
    /// pre-round weights, so the round is symmetric and independent of
    /// LB order.
    fn gossip_round(&mut self, mix: f64) {
        let now = self.sim.now();
        let snapshots: Vec<Vec<f64>> = (0..self.lbs.len())
            .map(|i| self.lb_node(i).weights().as_slice().to_vec())
            .collect();
        for (i, &id) in self.lbs.iter().enumerate() {
            let mut peers: Vec<&[f64]> = snapshots.iter().map(Vec::as_slice).collect();
            peers.remove(i);
            if let Some(node) = self.sim.node_mut::<LbNode>(id) {
                node.apply_gossip(&peers, mix, now);
            }
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

    /// LB node `i` (after a run).
    pub fn lb_node(&self, i: usize) -> &LbNode {
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

/// p95 of the values in the bins of `series` that start in `[lo, hi)`
/// (ns).
pub fn p95_in(series: &BinnedSeries, lo: u64, hi: u64) -> u64 {
    let mut h = LogHistogram::new();
    for b in 0..series.len() {
        let start = b as u64 * series.bin_width_ns();
        if let Some(hist) = series.bin(b).filter(|_| (lo..hi).contains(&start)) {
            h.merge(hist);
        }
    }
    h.quantile(0.95)
}

/// How a weight signal answered a disturbance: see [`reaction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reaction {
    /// It was already below the threshold at the disturbance (noise-driven
    /// wander had routed around the backend before it degraded).
    AlreadyBelow,
    /// It first dropped below the threshold at this instant (ns), after
    /// the disturbance.
    At(u64),
}

impl Reaction {
    /// The reaction instant, with "already below" counted as instant
    /// reaction at `from_ns`.
    pub fn instant(self, from_ns: u64) -> u64 {
        match self {
            Reaction::AlreadyBelow => from_ns,
            Reaction::At(t) => t,
        }
    }
}

/// The reaction rule: when the mean of `series` — one weight series per
/// LB, each standing at its last value — first drops below `threshold`,
/// at or after `from_ns`. A series with no point yet is left out of the
/// mean. `None` if it never does. Over one series this is that series'
/// first point below the threshold.
pub fn reaction(series: &[&ScalarSeries], from_ns: u64, threshold: f64) -> Option<Reaction> {
    let mut current: Vec<Option<f64>> = series.iter().map(|s| s.value_at(from_ns)).collect();
    let below = |cur: &[Option<f64>]| {
        let (sum, n) = cur
            .iter()
            .flatten()
            .fold((0.0f64, 0u32), |(sum, n), v| (sum + v, n + 1));
        n > 0 && sum / f64::from(n) < threshold
    };
    if below(&current) {
        return Some(Reaction::AlreadyBelow);
    }
    // Replay every series' later points in (time, LB) order.
    let mut points: Vec<(u64, usize, f64)> = series
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.points().iter().map(move |&(t, w)| (t, i, w)))
        .filter(|&(t, _, _)| t > from_ns)
        .collect();
    points.sort_by_key(|&(t, i, _)| (t, i));
    points.into_iter().find_map(|(t, i, w)| {
        current[i] = Some(w);
        below(&current).then_some(Reaction::At(t))
    })
}

/// Two runs' `(bin start ns, p95 ns)` series side by side, in µs, with
/// "-" where a run has no sample in a bin.
pub fn p95_table(title: &str, maglev: &[(u64, u64)], aware: &[(u64, u64)]) -> Table {
    let mut t = Table::new(title, &["t_s", "maglev_p95", "aware_p95"]);
    let mut by_bin: std::collections::BTreeMap<u64, (Option<u64>, Option<u64>)> =
        std::collections::BTreeMap::new();
    for &(at, v) in maglev {
        by_bin.entry(at).or_default().0 = Some(v);
    }
    for &(at, v) in aware {
        by_bin.entry(at).or_default().1 = Some(v);
    }
    let us_or_dash = |v: Option<u64>| v.map(us).unwrap_or_else(|| "-".into());
    for (at, (b, a)) in by_bin {
        t.row(&[
            format!("{:.1}", at as f64 / 1e9),
            us_or_dash(b),
            us_or_dash(a),
        ]);
    }
    t
}

/// Nanoseconds as microseconds, one decimal.
pub(crate) fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Milliseconds from `from_ns` to `t`, two decimals; "-" if `t` is `None`.
pub(crate) fn ms_after(t: Option<u64>, from_ns: u64) -> String {
    t.map(|t| format!("{:.2}", (t - from_ns) as f64 / 1e6))
        .unwrap_or_else(|| "-".into())
}

/// The ratio of `after` to `before` as "N.NNx" ("NaNx" when `before`
/// is 0).
pub(crate) fn inflation(before: u64, after: u64) -> String {
    let ratio = if before > 0 {
        after as f64 / before as f64
    } else {
        f64::NAN
    };
    format!("{ratio:.2}x")
}

#[cfg(test)]
mod tests {
    use super::Reaction::{AlreadyBelow, At};
    use super::*;

    fn series(points: &[(u64, f64)]) -> ScalarSeries {
        let mut s = ScalarSeries::new();
        points.iter().for_each(|&(t, w)| s.push(t, w));
        s
    }

    #[test]
    fn one_series_reacts_after_before_or_never() {
        // A crossing after the disturbance is reported at its instant.
        let s = series(&[(0, 0.5), (150, 0.45), (200, 0.4)]);
        assert_eq!(reaction(&[&s], 100, 0.5), Some(At(150)));
        assert_eq!(At(150).instant(100), 150);
        // Already below at the disturbance is reported distinctly, also
        // for a point exactly at it.
        let s = series(&[(0, 0.5), (50, 0.45), (200, 0.6)]);
        assert_eq!(reaction(&[&s], 100, 0.5), Some(AlreadyBelow));
        assert_eq!(AlreadyBelow.instant(100), 100);
        assert_eq!(reaction(&[&s], 50, 0.5), Some(AlreadyBelow));
        // Never crossing, or nothing to cross.
        let s = series(&[(0, 0.5), (150, 0.55), (300, 0.5)]);
        assert_eq!(reaction(&[&s], 100, 0.5), None);
        assert_eq!(reaction(&[], 100, 0.5), None);
        assert_eq!(reaction(&[&ScalarSeries::new()], 100, 0.5), None);
    }

    #[test]
    fn the_threshold_decides_which_crossing_counts() {
        let s = series(&[(0, 0.4), (150, 0.35), (250, 0.25)]);
        assert_eq!(reaction(&[&s], 100, 0.5), Some(AlreadyBelow));
        assert_eq!(reaction(&[&s], 100, 0.3), Some(At(250)));
    }

    /// The tier rule over one LB is the single-series rule: the first
    /// point after the disturbance below the threshold.
    #[test]
    fn the_mean_over_one_series_is_that_series() {
        let points = [(0, 0.5), (120, 0.52), (130, 0.49), (130, 0.51), (400, 0.2)];
        let s = series(&points);
        for (from, threshold) in [(100, 0.5), (100, 0.3), (135, 0.5), (450, 0.3), (0, 0.5)] {
            let want = if s.value_at(from).is_some_and(|w| w < threshold) {
                Some(AlreadyBelow)
            } else {
                let first = points.iter().find(|&&(t, w)| t > from && w < threshold);
                first.map(|&(t, _)| At(t))
            };
            assert_eq!(reaction(&[&s], from, threshold), want, "{from} {threshold}");
        }
    }

    #[test]
    fn two_interleaved_series_react_when_their_mean_crosses() {
        let a = series(&[(0, 0.5), (150, 0.45), (350, 0.3)]);
        let b = series(&[(0, 0.5), (200, 0.6), (300, 0.5)]);
        // The mean is 0.475 after 150, 0.525 after 200, 0.475 after 300.
        assert_eq!(reaction(&[&a, &b], 100, 0.5), Some(At(150)));
        assert_eq!(reaction(&[&a, &b], 210, 0.5), Some(At(300)));
        assert_eq!(reaction(&[&b, &a], 210, 0.5), Some(At(300)));
        // A series weighs in from its first point on, not before.
        assert_eq!(
            reaction(&[&a, &series(&[(120, 0.45)])], 100, 0.5),
            Some(At(120))
        );
        assert_eq!(reaction(&[&a, &series(&[(120, 0.9)])], 100, 0.5), None);
    }

    #[test]
    fn the_p95_window_holds_the_bins_starting_in_lo_to_hi() {
        let p95 = |values: &[u64]| {
            let mut h = LogHistogram::new();
            values.iter().for_each(|&v| h.record(v));
            h.quantile(0.95)
        };
        let mut s = BinnedSeries::new(100);
        for (t, v) in [(50, 1_000), (100, 2_000), (199, 2_000), (200, 9_000_000)] {
            s.record(t, v);
        }
        // The bin starting at `lo` is in, the one starting at `hi` out.
        assert_eq!(p95_in(&s, 100, 200), p95(&[2_000, 2_000]));
        assert_eq!(p95_in(&s, 0, 100), p95(&[1_000]));
        assert_eq!(p95_in(&s, 200, u64::MAX), p95(&[9_000_000]));
        assert_eq!(p95_in(&s, 101, 199), p95(&[]));
        assert_eq!(p95_in(&s, 0, 300), p95(&[1_000, 2_000, 2_000, 9_000_000]));
    }
}
