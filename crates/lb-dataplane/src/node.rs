//! The LB node: its state, accessors, and the simulator bindings
//! (packet delivery and the sweep/health timers).

use netpkt::{MacAddr, Packet};
use netsim::{Ctx, Duration, LinkId, Node, TimerToken};
use telemetry::{Journal, ScalarSeries, WeightCause};

use lbcore::{BackendEstimator, EnsembleTimeout, FlowTable, HealthTracker, Weights};

use crate::config::{
    LbConfig, Steering, ESTIMATOR_ALPHA, ESTIMATOR_STALENESS, FLOW_IDLE_TIMEOUT,
    FLOW_TABLE_CAPACITY, SWEEP_INTERVAL, WEIGHT_FLOOR,
};
use crate::control::LazyTable;

/// The LB counters: always on, one plain integer each. Anything
/// per-sample or per-decision goes to the mode-gated journal instead.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LbStats {
    /// Packets received.
    pub rx: u64,
    /// Packets forwarded to a backend.
    pub forwarded: u64,
    /// Packets dropped (parse failure or not addressed to the VIP).
    pub dropped: u64,
    /// New flows admitted (SYN → Maglev assignment).
    pub new_flows: u64,
    /// Packets forwarded via direct Maglev lookup because their flow had
    /// no table entry (e.g. swept, or post-FIN stragglers).
    pub fallback_forwards: u64,
    /// Client FINs/RSTs observed (flow entries retired).
    pub flow_closes: u64,
    /// `T_LB` samples produced by the ensemble.
    pub samples: u64,
    /// Out-of-band reports accepted on the control address.
    pub oob_reports: u64,
    /// Weight vectors committed to the forwarding table, whatever the
    /// cause (controller, gossip merge, health epoch). The Maglev
    /// population itself happens at the lookups that need the table, and
    /// only as far as they read, so commits nobody looked at cost nothing.
    pub table_rebuilds: u64,
    /// Packets dropped because every backend was ejected (drop-with-counter
    /// beats blackholing into a known-dead pin).
    pub no_backend_drops: u64,
    /// Backends ejected by the health tracker (cumulative).
    pub ejections: u64,
    /// Backends readmitted after probation (cumulative).
    pub readmissions: u64,
    /// Flow-table entries migrated off an ejected backend.
    pub flows_repinned: u64,
    /// SYN retransmissions into a pin that never produced data — treated
    /// as RTO-abort evidence against the pinned backend.
    pub abort_signals: u64,
    /// Weight-gossip merges that actually moved the weights (multi-LB
    /// tier; see [`LbNode::apply_gossip`]).
    pub gossip_merges: u64,
}

const SWEEP_TOKEN: TimerToken = TimerToken(1);
const HEALTH_TOKEN: TimerToken = TimerToken(2);
/// The health timer's period: one [`lbcore::health::EPOCH`].
const HEALTH_EPOCH: Duration = Duration::from_nanos(lbcore::health::EPOCH);

/// The load-balancer node. See the crate docs.
pub struct LbNode {
    pub(crate) cfg: LbConfig,
    /// One forwarding link per backend (the "LB → server paths").
    pub(crate) backend_links: Vec<LinkId>,
    pub(crate) mac: MacAddr,
    pub(crate) weights: Weights,
    pub(crate) table: LazyTable,
    pub(crate) flows: FlowTable,
    /// One ensemble per backend: once latencies diverge, a single global
    /// timeout δₑ cannot serve both a 250 µs backend and a 1.3 ms backend
    /// (one merges batches while the other splits them), so sample-cliff
    /// detection runs per backend. A flow uses the ensemble of the backend
    /// it is pinned to.
    pub(crate) ensembles: Vec<EnsembleTimeout>,
    pub(crate) estimator: BackendEstimator,
    /// Weight of each backend over time (one series per backend, one
    /// point per weight change).
    pub(crate) weight_series: Vec<ScalarSeries>,
    /// Health state machine (None when disabled; see [`LbConfig::health`]).
    pub(crate) health: Option<HealthTracker>,
    /// Cumulative packets forwarded per backend — the "offered traffic"
    /// input to the health tracker.
    pub(crate) fwd_per_backend: Vec<u64>,
    /// Cumulative *credible* `T_LB` samples per backend — samples at or
    /// below [`lbcore::health::SAMPLE_CEILING`]. A dead backend's RTO
    /// retransmission bursts still produce batch-gap samples (valued at
    /// the backoff interval), which must not count as liveness evidence.
    pub(crate) live_samples: Vec<u64>,
    /// Routing class per backend at the last health commit (see
    /// `control::route_class`). A health transition only forces a weight
    /// commit when this vector changes — Healthy↔Suspect churn is free.
    pub(crate) route_class: Vec<u8>,
    /// True while every backend is ejected: the fast path drops packets
    /// (with a counter) instead of forwarding into dead pins.
    pub(crate) no_backend: bool,
    pub(crate) stats: LbStats,
    /// The decision journal (off unless [`LbConfig::journal`] enables it).
    pub(crate) journal: Journal,
}

impl LbNode {
    /// Creates the LB with one forwarding link per backend (order matches
    /// `cfg.backends`).
    pub fn new(cfg: LbConfig, mac: MacAddr, backend_links: Vec<LinkId>) -> LbNode {
        assert!(!cfg.backends.is_empty(), "LB needs at least one backend");
        assert_eq!(
            backend_links.len(),
            cfg.backends.len(),
            "one forwarding link per backend required"
        );
        let n = cfg.backends.len();
        let weights = Weights::equal(n, WEIGHT_FLOOR);
        let table = LazyTable::new(weights.as_slice(), lbcore::maglev::DEFAULT_TABLE_SIZE);
        let flows = FlowTable::with_capacity(FLOW_IDLE_TIMEOUT.as_nanos(), FLOW_TABLE_CAPACITY);
        let ensembles = (0..n)
            .map(|_| EnsembleTimeout::new(cfg.ensemble.clone()))
            .collect();
        let mut estimator =
            BackendEstimator::new(n, ESTIMATOR_ALPHA, ESTIMATOR_STALENESS.as_nanos())
                .with_signal_quantile(cfg.signal_quantile);
        if let Some(h) = cfg.signal_horizon {
            estimator = estimator.with_signal_horizon(h.as_nanos());
        }
        // Health tracking needs the in-band sample stream (the silence
        // signal) and a controlled table to act on; out-of-band reports
        // may come slower than the silence window and would false-eject.
        let tracked = matches!(cfg.steering, Steering::Control(_));
        let health = cfg.health.filter(|_| tracked);
        let journal = Journal::new(cfg.journal);
        LbNode {
            cfg,
            backend_links,
            mac,
            weights,
            table,
            flows,
            ensembles,
            estimator,
            weight_series: (0..n).map(|_| ScalarSeries::new()).collect(),
            health: health.map(|h| HealthTracker::new(n, h)),
            fwd_per_backend: vec![0; n],
            live_samples: vec![0; n],
            route_class: vec![0; n],
            no_backend: false,
            stats: LbStats::default(),
            journal,
        }
    }

    /// The committed weight vector: what the forwarding table implements
    /// (as of its next lookup) and the last point of every weight series.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Weight history of backend `b`.
    pub fn weight_series(&self, b: usize) -> &ScalarSeries {
        &self.weight_series[b]
    }

    /// The per-backend estimator.
    pub fn estimator(&self) -> &BackendEstimator {
        &self.estimator
    }

    /// Live flow-table entries.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The health tracker, when enabled.
    pub fn health(&self) -> Option<&HealthTracker> {
        self.health.as_ref()
    }

    /// Snapshot of the LB counters.
    pub fn stats(&self) -> LbStats {
        self.stats
    }

    /// The decision journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

impl Node for LbNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.record_weights(ctx.now(), WeightCause::Init);
        ctx.arm_timer(SWEEP_INTERVAL, SWEEP_TOKEN);
        if self.health.is_some() {
            ctx.arm_timer(HEALTH_EPOCH, HEALTH_TOKEN);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _link: LinkId, pkt: Packet) {
        self.process(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token {
            SWEEP_TOKEN => {
                self.flows.sweep(ctx.now().as_nanos());
                ctx.arm_timer(SWEEP_INTERVAL, SWEEP_TOKEN);
            }
            HEALTH_TOKEN => {
                self.health_epoch(ctx.now());
                if self.health.is_some() {
                    ctx.arm_timer(HEALTH_EPOCH, HEALTH_TOKEN);
                }
            }
            _ => debug_assert!(false, "unknown LB timer token {token:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use netpkt::{TcpFlags, TcpHeader};
    use telemetry::{JournalEvent, JournalMode};

    const VIP: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn backends() -> Vec<Ipv4Addr> {
        vec![Ipv4Addr::new(10, 0, 2, 1), Ipv4Addr::new(10, 0, 2, 2)]
    }

    fn addrs(dst_ip: Ipv4Addr) -> netpkt::Addresses {
        netpkt::Addresses {
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: CLIENT,
            dst_ip,
        }
    }

    fn client_pkt(src_port: u16, flags: TcpFlags, seq: u32) -> Packet {
        Packet::build_tcp(
            addrs(VIP),
            &TcpHeader {
                src_port,
                dst_port: 11211,
                seq,
                ack: 0,
                flags,
                window: 8192,
            },
            b"",
            64,
            0,
        )
    }

    /// A sink that remembers delivered packets.
    struct Sink {
        got: Vec<Packet>,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _l: LinkId, p: Packet) {
            self.got.push(p);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
    }

    /// An injector that sends a scripted list of (time, packet). Each
    /// entry is `take`n when its timer fires — a timer token fires exactly
    /// once, so no per-send clone of the packet is needed.
    struct Injector {
        link: LinkId,
        script: Vec<(Duration, Option<Packet>)>,
    }
    impl Node for Injector {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (after, _)) in self.script.iter().enumerate() {
                ctx.arm_timer(*after, TimerToken(i as u64));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _l: LinkId, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
            if let Some(pkt) = self.script[usize::try_from(t.0).unwrap()].1.take() {
                ctx.send(self.link, pkt);
            }
        }
    }

    /// Builds injector → LB → two sinks (one link per backend).
    /// Returns (sim, lb, [sink0, sink1]).
    fn rig(
        cfg: LbConfig,
        script: Vec<(Duration, Packet)>,
    ) -> (netsim::Simulation, netsim::NodeId, [netsim::NodeId; 2]) {
        let mut sim = netsim::Simulation::new();
        let inj = sim.reserve_node("client");
        let lb = sim.reserve_node("lb");
        let sink0 = sim.add_node("sink0", Box::new(Sink { got: Vec::new() }));
        let sink1 = sim.add_node("sink1", Box::new(Sink { got: Vec::new() }));
        let l_in = sim.add_link(inj, lb, netsim::LinkConfig::default());
        let l0 = sim.add_link(lb, sink0, netsim::LinkConfig::default());
        let l1 = sim.add_link(lb, sink1, netsim::LinkConfig::default());
        sim.install_node(
            inj,
            Box::new(Injector {
                link: l_in,
                script: script.into_iter().map(|(d, p)| (d, Some(p))).collect(),
            }),
        );
        sim.install_node(
            lb,
            Box::new(LbNode::new(cfg, MacAddr::from_id(9), vec![l0, l1])),
        );
        (sim, lb, [sink0, sink1])
    }

    /// One flow: a SYN, then `batches` four-packet batches 1 ms apart.
    fn batched_script(batches: u32) -> Vec<(Duration, Packet)> {
        let mut script = vec![(Duration::from_micros(1), client_pkt(4000, TcpFlags::SYN, 0))];
        let mut t = Duration::from_millis(1);
        for batch in 0..batches {
            for i in 0..4u32 {
                script.push((
                    t + Duration::from_micros(u64::from(i) * 20),
                    client_pkt(4000, TcpFlags::ACK | TcpFlags::PSH, batch * 4 + i),
                ));
            }
            t += Duration::from_millis(1);
        }
        script
    }

    fn delivered(sim: &netsim::Simulation, sinks: [netsim::NodeId; 2]) -> Vec<(usize, Packet)> {
        let mut out = Vec::new();
        for (i, s) in sinks.into_iter().enumerate() {
            for p in &sim.node_ref::<Sink>(s).unwrap().got {
                out.push((i, p.clone()));
            }
        }
        out
    }

    #[test]
    fn syn_admits_flow_and_forwards_with_vip_intact() {
        let script = vec![
            (
                Duration::from_micros(10),
                client_pkt(4000, TcpFlags::SYN, 1),
            ),
            (
                Duration::from_micros(50),
                client_pkt(4000, TcpFlags::ACK, 2),
            ),
        ];
        let (mut sim, lb, sinks) = rig(LbConfig::baseline(VIP, backends()), script);
        sim.run_for(Duration::from_millis(10));
        let lb_node = sim.node_ref::<LbNode>(lb).unwrap();
        assert_eq!(lb_node.stats().new_flows, 1);
        assert_eq!(lb_node.stats().forwarded, 2);
        let got = delivered(&sim, sinks);
        assert_eq!(got.len(), 2);
        for (_, p) in &got {
            let v =
                netpkt::PacketViewRef::parse(&p.data).expect("forwarded packet must still verify");
            assert_eq!(v.ip.dst, VIP, "DSR keeps the VIP in the IP header");
            assert_eq!(v.ip.src, CLIENT, "source preserved for DSR");
            assert_eq!(v.eth.src, MacAddr::from_id(9), "LB MAC as L2 source");
        }
    }

    #[test]
    fn same_flow_sticks_to_one_backend() {
        let mut script = vec![(
            Duration::from_micros(10),
            client_pkt(4000, TcpFlags::SYN, 1),
        )];
        for i in 0..20u32 {
            script.push((
                Duration::from_micros(100 + u64::from(i) * 10),
                client_pkt(4000, TcpFlags::ACK | TcpFlags::PSH, 2 + i),
            ));
        }
        let (mut sim, _lb, sinks) = rig(LbConfig::baseline(VIP, backends()), script);
        sim.run_for(Duration::from_millis(10));
        let got = delivered(&sim, sinks);
        let used: std::collections::BTreeSet<usize> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(used.len(), 1, "flow moved between backends");
        assert_eq!(got.len(), 21);
    }

    #[test]
    fn different_flows_spread_over_backends() {
        let mut script = Vec::new();
        for port in 0..64u16 {
            script.push((
                Duration::from_micros(10 + port as u64),
                client_pkt(4000 + port, TcpFlags::SYN, 1),
            ));
        }
        let (mut sim, lb, sinks) = rig(LbConfig::baseline(VIP, backends()), script);
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node_ref::<LbNode>(lb).unwrap().stats().new_flows, 64);
        let got = delivered(&sim, sinks);
        let mut counts = [0usize; 2];
        for (i, _) in &got {
            counts[*i] += 1;
        }
        assert!(counts[0] > 16 && counts[1] > 16, "imbalanced: {counts:?}");
    }

    #[test]
    fn fin_keeps_entry_until_idle_sweep() {
        // Entries are retired by the idle sweep, not by FIN: the post-FIN
        // straggler (the teardown's final ACK) must still hit the pinned
        // entry so it reaches the same backend.
        let script = vec![
            (
                Duration::from_micros(10),
                client_pkt(4000, TcpFlags::SYN, 1),
            ),
            (
                Duration::from_micros(50),
                client_pkt(4000, TcpFlags::FIN | TcpFlags::ACK, 2),
            ),
            (
                Duration::from_micros(90),
                client_pkt(4000, TcpFlags::ACK, 3),
            ),
        ];
        let (mut sim, lb, _sinks) = rig(LbConfig::baseline(VIP, backends()), script);
        sim.run_for(Duration::from_millis(1));
        {
            let lb_node = sim.node_ref::<LbNode>(lb).unwrap();
            assert_eq!(lb_node.stats().flow_closes, 1, "FIN observed");
            assert_eq!(
                lb_node.stats().fallback_forwards,
                0,
                "straggler used the entry"
            );
            assert_eq!(lb_node.flow_count(), 1, "entry survives the FIN");
            assert_eq!(lb_node.stats().forwarded, 3);
        }
        // After idling past the timeout, the next sweep reclaims it.
        sim.run_for(FLOW_IDLE_TIMEOUT + SWEEP_INTERVAL);
        assert_eq!(sim.node_ref::<LbNode>(lb).unwrap().flow_count(), 0);
    }

    #[test]
    fn non_vip_traffic_dropped() {
        let stray = Packet::build_tcp(
            addrs(Ipv4Addr::new(8, 8, 8, 8)),
            &TcpHeader {
                src_port: 1,
                dst_port: 2,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 1,
            },
            b"",
            64,
            0,
        );
        let script = vec![(Duration::from_micros(10), stray)];
        let (mut sim, lb, sinks) = rig(LbConfig::baseline(VIP, backends()), script);
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node_ref::<LbNode>(lb).unwrap().stats().dropped, 1);
        assert!(delivered(&sim, sinks).is_empty());
    }

    #[test]
    fn syn_flood_bounds_flow_table_and_keeps_forwarding() {
        // 5000 spoofed SYNs from distinct ports: the table stays within
        // its capacity, every packet still forwards, and a real flow
        // admitted afterwards works normally. (Eviction at a small
        // capacity is lbcore's `flood_of_inserts_stays_bounded`.)
        let mut script: Vec<(Duration, Packet)> = (0..5000u32)
            .map(|i| {
                (
                    Duration::from_nanos(1_000 + i as u64 * 200),
                    client_pkt(10_000 + (i % 50_000) as u16, TcpFlags::SYN, 1),
                )
            })
            .collect();
        script.push((
            Duration::from_millis(5),
            client_pkt(9_000, TcpFlags::SYN, 1),
        ));
        script.push((
            Duration::from_millis(6),
            client_pkt(9_000, TcpFlags::ACK | TcpFlags::PSH, 2),
        ));
        let (mut sim, lb, sinks) = rig(LbConfig::baseline(VIP, backends()), script);
        sim.run_for(Duration::from_millis(20));
        let lb_node = sim.node_ref::<LbNode>(lb).unwrap();
        assert!(
            lb_node.flow_count() <= FLOW_TABLE_CAPACITY,
            "table grew to {}",
            lb_node.flow_count()
        );
        assert_eq!(
            lb_node.stats().forwarded,
            5002,
            "flood packets must still forward"
        );
        // The real flow's data packet followed its SYN to the same place.
        assert!(delivered(&sim, sinks).len() >= 5002);
    }

    #[test]
    fn power_of_two_prefers_fresher_faster_backend() {
        // Build a standalone node (links are never used by pick_backend).
        let mut lb = LbNode::new(
            LbConfig {
                steering: Steering::PowerOfTwo,
                ..LbConfig::baseline(VIP, backends())
            },
            MacAddr::from_id(9),
            vec![netsim::LinkId(0), netsim::LinkId(1)],
        );
        // Without estimates, picks are hash-spread over both backends.
        let mut seen = [0usize; 2];
        for h in 0..200u64 {
            seen[lb.pick_backend(netpkt::flow::splitmix64(h), 0)] += 1;
        }
        assert!(
            seen[0] > 50 && seen[1] > 50,
            "unbalanced without estimates: {seen:?}"
        );

        // Backend 0 measured much slower: every pick goes to backend 1.
        for i in 0..20 {
            lb.estimator.record(0, 5_000_000, i);
            lb.estimator.record(1, 200_000, i);
        }
        for h in 0..200u64 {
            assert_eq!(lb.pick_backend(netpkt::flow::splitmix64(h), 20), 1);
        }
    }

    #[test]
    fn steering_truth_table() {
        const CONTROL: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 9, 9, 1), 7946);
        let ctl = || -> Box<dyn lbcore::Controller> { Box::new(lbcore::AlphaShift::paper()) };
        let oob = Steering::OutOfBand {
            controller: ctl(),
            addr: CONTROL,
        };
        // Per steering, whether: in-band samples are counted, the
        // controller commits, a health tracker exists, a gossip merge is
        // accepted, an out-of-band report is consumed.
        let rows = [
            (Steering::Off, [false, false, false, false, false]),
            (Steering::Control(ctl()), [true, true, true, true, false]),
            (oob, [false, true, false, true, true]),
            (Steering::PowerOfTwo, [true, false, false, false, false]),
        ];
        for (row, (steering, expect)) in rows.into_iter().enumerate() {
            // A batched flow, and one report (backend 0 at 5 ms) mid-way.
            let mut script = batched_script(100);
            let report = netpkt::oob::encode_report(0, 5_000_000);
            let report =
                netpkt::udp::build_udp_payload(addrs(CONTROL.0), 40_000, CONTROL.1, &report, 0);
            script.push((Duration::from_millis(50), report));
            let cfg = LbConfig {
                steering,
                ..LbConfig::baseline(VIP, backends())
            };
            let (mut sim, lb, _sinks) = rig(cfg, script);
            sim.run_for(Duration::from_millis(200));
            let now = sim.now();
            let node = sim.node_mut::<LbNode>(lb).unwrap();
            let consumed = node.stats.oob_reports == 1;
            assert_eq!(node.stats.dropped, u64::from(!consumed), "row {row}");
            let merged = node.apply_gossip(&[&[0.9, 0.1]], 0.5, now);
            // Backend 0 far slower: a controller shifts weight off it.
            node.estimator.record(0, 5_000_000, now.as_nanos());
            node.estimator.record(1, 200_000, now.as_nanos());
            let commits = node.stats.table_rebuilds;
            node.run_controller(now);
            let got = [
                node.stats.samples > 0,
                node.stats.table_rebuilds > commits,
                node.health().is_some(),
                merged,
                consumed,
            ];
            assert_eq!(got, expect, "row {row}");
        }
    }

    #[test]
    fn affinity_off_follows_current_table() {
        // With affinity disabled and a heavily skewed table, even packets
        // of an established flow land per the table, not the pin.
        let mut cfg = LbConfig::baseline(VIP, backends());
        cfg.affinity = false;
        let mut script = vec![(
            Duration::from_micros(10),
            client_pkt(4000, TcpFlags::SYN, 1),
        )];
        for i in 0..10u32 {
            script.push((
                Duration::from_micros(100 + u64::from(i) * 10),
                client_pkt(4000, TcpFlags::ACK | TcpFlags::PSH, 2 + i),
            ));
        }
        let (mut sim, lb, sinks) = rig(cfg, script);
        // Skew the table completely toward backend 1 after admission.
        sim.run_for(Duration::from_micros(50));
        {
            let node = sim.node_mut::<LbNode>(lb).unwrap();
            node.weights.set(&[0.0, 1.0]);
            node.table.commit();
        }
        sim.run_for(Duration::from_millis(10));
        let got = delivered(&sim, sinks);
        // The SYN went wherever the original table said; all post-skew
        // packets went to backend 1.
        let after_skew: Vec<usize> = got.iter().skip(1).map(|&(i, _)| i).collect();
        assert!(
            after_skew.iter().all(|&i| i == 1),
            "stateless routing ignored the table"
        );
    }

    /// Stale-until-read, end to end: one packet per 100 µs step, with
    /// weight commits from all three causes injected between steps (the
    /// in-band controller adds its own). Every packet that consults the
    /// table must land where an eagerly built table for the weights in
    /// force *before* that packet would have sent it.
    #[allow(clippy::float_cmp)] // exact: an ejected backend's share is 0.0
    fn lazy_table_case(affinity: bool) {
        use lbcore::health::{EJECT_AFTER, SUSPECT_AFTER};
        use lbcore::MaglevTable;
        use netpkt::FlowKey;

        const STEP: Duration = Duration::from_micros(100);
        let syn = |port| client_pkt(port, TcpFlags::SYN, 1);
        let data = |port, seq| client_pkt(port, TcpFlags::ACK | TcpFlags::PSH, seq);
        // 24 connection starts, a data packet on each, 12 packets of
        // unknown flows (fallback forwards), then data on each again.
        let mut pkts: Vec<Packet> = (0..24).map(|i| syn(4000 + i)).collect();
        pkts.extend((0..24).map(|i| data(4000 + i, 2)));
        pkts.extend((0..12).map(|i| client_pkt(5000 + i, TcpFlags::ACK, 7)));
        pkts.extend((0..24).map(|i| data(4000 + i, 3)));
        let script = pkts
            .into_iter()
            .enumerate()
            .map(|(k, p)| (Duration::from_micros(100 * (k as u64 + 1)), p))
            .collect();

        let mut cfg =
            LbConfig::latency_aware(VIP, backends(), Box::new(lbcore::AlphaShift::paper()));
        cfg.affinity = affinity;
        // Health epochs are driven by hand below: the run (8.4 ms) ends
        // inside the first health-timer period.
        cfg.journal = JournalMode::Full(1 << 12);
        let size = lbcore::maglev::DEFAULT_TABLE_SIZE;
        let (mut sim, lb, sinks) = rig(cfg, script);

        // Packet k leaves the client at (k + 1) · 100 µs and is at its sink
        // some 20 µs later: step k covers [k · 100 + 50, k · 100 + 150) µs.
        sim.run_for(Duration::from_micros(50));
        let mut seen = [0usize; 2];
        let mut pins = std::collections::BTreeMap::new();
        for k in 0..84u64 {
            let now = sim.now();
            let lb_node = sim.node_mut::<LbNode>(lb).unwrap();
            match k {
                8 => {
                    // Five controller commits, nobody looking: no build.
                    lb_node.estimator.record(0, 5_000_000, now.as_nanos());
                    lb_node.estimator.record(1, 200_000, now.as_nanos());
                    lb_node.table.lookup(&lb_node.weights, 0);
                    let (commits, builds) = (lb_node.stats.table_rebuilds, lb_node.table.builds);
                    for _ in 0..5 {
                        lb_node.run_controller(now);
                    }
                    assert_eq!(lb_node.stats.table_rebuilds, commits + 5);
                    assert_eq!(lb_node.table.builds, builds, "a commit built the table");
                    lb_node.table.lookup(&lb_node.weights, 0);
                    lb_node.table.lookup(&lb_node.weights, 0);
                    assert_eq!(
                        lb_node.table.builds,
                        builds + 1,
                        "one build per read commit"
                    );
                }
                16 | 40 => assert!(lb_node.apply_gossip(&[&[0.9, 0.1]], 0.5, now)),
                60 => {
                    // Eject backend 0 while the table is stale from a
                    // gossip commit: the re-pin must read the table for
                    // the *health* weights, not the stale one (which
                    // would re-pin some flows onto the dead backend).
                    lb_node.health_epoch(now); // sync the tracker's marks
                    assert!(lb_node.apply_gossip(&[&[0.9, 0.1]], 1.0, now));
                    let builds = lb_node.table.builds;
                    for _ in 0..SUSPECT_AFTER + EJECT_AFTER {
                        lb_node.fwd_per_backend[0] += 1;
                        lb_node.health_epoch(now);
                    }
                    assert_eq!(lb_node.stats.ejections, 1);
                    assert_eq!(lb_node.weights.get(0), 0.0);
                    assert!(lb_node.stats.flows_repinned > 0, "no flow was pinned to 0");
                    assert_eq!(lb_node.table.builds, builds + 1, "two commits, one build");
                    let table = MaglevTable::build(lb_node.weights.as_slice(), size);
                    let repins: Vec<_> = lb_node
                        .journal
                        .iter()
                        .filter_map(|e| match e {
                            JournalEvent::FlowRepin { src_port, to, .. } => Some((src_port, to)),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(repins.len() as u64, lb_node.stats.flows_repinned);
                    for (port, to) in repins {
                        let hash = FlowKey::new(CLIENT, port, VIP, 11211).stable_hash();
                        assert_eq!(to, table.lookup(hash), "port {port} re-pinned off-table");
                        pins.insert(port, to);
                    }
                }
                _ => {}
            }
            let before = MaglevTable::build(lb_node.weights.as_slice(), size);
            sim.run_for(STEP);
            let (sink, pkt) = (0..2)
                .find_map(|i| {
                    let got = &sim.node_ref::<Sink>(sinks[i]).unwrap().got;
                    (got.len() > seen[i]).then(|| (i, got[seen[i]].clone()))
                })
                .unwrap_or_else(|| panic!("packet {k} was not forwarded"));
            seen[sink] += 1;
            let (key, flags) = FlowKey::parse_with_flags(&pkt.data).unwrap();
            if flags.is_syn_only() {
                pins.insert(key.src_port, sink);
            }
            let expect = match pins.get(&key.src_port) {
                Some(&pin) if affinity => pin,
                _ => before.lookup(key.stable_hash()),
            };
            assert_eq!(sink, expect, "packet {k} (port {})", key.src_port);
        }
        let lb_node = sim.node_mut::<LbNode>(lb).unwrap();
        assert_eq!(lb_node.stats.forwarded, 84);
        assert_eq!(lb_node.stats.fallback_forwards, 12);
        assert!(
            lb_node.table.builds < lb_node.stats.table_rebuilds,
            "{} builds for {} commits",
            lb_node.table.builds,
            lb_node.stats.table_rebuilds
        );
    }

    #[test]
    fn table_is_built_by_the_first_lookup_after_a_commit() {
        lazy_table_case(true);
    }

    #[test]
    fn table_is_built_by_the_first_lookup_after_a_commit_without_affinity() {
        lazy_table_case(false);
    }

    #[test]
    fn weights_are_the_committed_vector_under_any_interleaving() {
        // Controller runs (AIMD: recovery steps that stay under its
        // threshold return false), gossip merges (some under the merge
        // epsilon) and health epochs (ejection, all-ejected refusal,
        // probation, readmission), interleaved by a fixed-seed generator.
        // After every call `weights()` is what the table implements and
        // what the weight series last recorded: there is no working copy.
        let cfg = LbConfig::latency_aware(VIP, backends(), Box::new(lbcore::AimdController::new()));
        let epoch = lbcore::health::EPOCH;
        let size = lbcore::maglev::DEFAULT_TABLE_SIZE;
        let mut lb = LbNode::new(
            cfg,
            MacAddr::from_id(9),
            vec![netsim::LinkId(0), netsim::LinkId(1)],
        );
        lb.record_weights(netsim::Time::ZERO, WeightCause::Init);
        let mut now_ns = 0u64;
        let mut rng = 7u64;
        // Calls and commits by cause: controller, gossip, health.
        let (mut calls, mut seen) = ([0u64; 3], [0u64; 3]);
        let mut all_ejected = false;
        for _ in 0..400 {
            rng = netpkt::flow::splitmix64(rng);
            now_ns += epoch;
            let now = netsim::Time::ZERO + Duration::from_nanos(now_ns);
            let commits = lb.stats.table_rebuilds;
            let kind = match rng % 8 {
                0..=3 => {
                    // A fast and a slow backend, then equal ones: AIMD
                    // decreases, then recovers in ever smaller steps.
                    let slow = if rng & 0x100 == 0 { 200_000 } else { 1_000_000 };
                    lb.estimator.record(0, slow, now_ns);
                    lb.estimator.record(1, 200_000, now_ns);
                    lb.run_controller(now);
                    0
                }
                4 | 5 => {
                    let nudge = if rng & 0x100 == 0 { 1e-14 } else { 0.2 };
                    let peer = [lb.weights.get(0) + nudge, lb.weights.get(1)];
                    lb.apply_gossip(&[&peer], 0.5, now);
                    1
                }
                _ => {
                    // Traffic offered to both; samples only from the
                    // backends this draw keeps alive (each is silent half
                    // the time, so runs of SUSPECT_AFTER + EJECT_AFTER
                    // silent epochs, on one backend or both, occur).
                    for b in 0..2 {
                        lb.fwd_per_backend[b] += 10;
                        if rng >> (9 + b) & 1 != 0 {
                            lb.live_samples[b] += 10;
                        }
                    }
                    lb.health_epoch(now);
                    2
                }
            };
            calls[kind] += 1;
            seen[kind] += lb.stats.table_rebuilds - commits;
            all_ejected |= lb.no_backend;
            let eager = lbcore::MaglevTable::build(lb.weights().as_slice(), size);
            for h in 0..500u64 {
                let hash = netpkt::flow::splitmix64(h);
                assert_eq!(lb.table.lookup(&lb.weights, hash), eager.lookup(hash));
            }
            for b in 0..2 {
                let &(_, last) = lb.weight_series(b).points().last().unwrap();
                assert_eq!(last.to_bits(), lb.weights().get(b).to_bits());
            }
        }
        assert!(
            (0..3).all(|k| 0 < seen[k] && seen[k] < calls[k]),
            "every cause must both commit and decline: {seen:?} of {calls:?}"
        );
        assert!(lb.stats.ejections > 0 && lb.stats.readmissions > 0 && all_ejected);
    }

    #[test]
    fn journal_records_samples_and_decisions() {
        // The batched workload with the journal on: every stat-counted sample must have a
        // journal event, epoch decisions must appear with their counts,
        // and the first event must be the init weight record.
        let script = batched_script(200);
        let cfg = LbConfig {
            steering: Steering::PowerOfTwo,
            journal: JournalMode::Full(1 << 16),
            ..LbConfig::baseline(VIP, backends())
        };
        let (mut sim, lb, _sinks) = rig(cfg, script);
        sim.run_for(Duration::from_millis(500));
        let lb_node = sim.node_ref::<LbNode>(lb).unwrap();
        let events: Vec<JournalEvent> = lb_node.journal().iter().collect();
        assert!(matches!(
            events[0],
            JournalEvent::WeightUpdate {
                cause: WeightCause::Init,
                ..
            }
        ));
        let samples = events
            .iter()
            .filter(|e| matches!(e, JournalEvent::Sample { .. }))
            .count() as u64;
        assert_eq!(samples, lb_node.stats().samples);
        assert!(samples > 50, "samples journaled: {samples}");
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::EpochDecision { counts, .. } => Some(counts),
                _ => None,
            })
            .collect();
        assert!(!decisions.is_empty(), "no epoch decisions journaled");
        assert!(decisions.iter().all(|c| c.iter().sum::<u64>() > 0));
        // The NDJSON export round-trips.
        let parsed: Vec<JournalEvent> =
            telemetry::journal::parse_ndjson(&lb_node.journal().to_ndjson()).unwrap();
        assert_eq!(parsed.len(), events.len());
    }

    #[test]
    fn the_first_no_backend_drop_is_journaled_once() {
        let mut cfg = LbConfig::baseline(VIP, backends());
        cfg.journal = JournalMode::Full(64);
        let script = vec![
            (
                Duration::from_micros(10),
                client_pkt(4000, TcpFlags::SYN, 1),
            ),
            (Duration::from_millis(5), client_pkt(4000, TcpFlags::ACK, 2)),
            (Duration::from_millis(8), client_pkt(4000, TcpFlags::ACK, 3)),
        ];
        let (mut sim, lb, _sinks) = rig(cfg, script);
        sim.run_for(Duration::from_millis(2));
        // Force the all-ejected state; both later packets must drop.
        sim.node_mut::<LbNode>(lb).unwrap().no_backend = true;
        sim.run_for(Duration::from_millis(10));
        let lb_node = sim.node_ref::<LbNode>(lb).unwrap();
        assert_eq!(lb_node.stats().no_backend_drops, 2);
        let events: Vec<JournalEvent> = lb_node.journal().iter().collect();
        let drops: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].kind() == "no_backend")
            .collect();
        assert_eq!(drops.len(), 1, "journaled on the first drop only");
        // It is stamped with the first drop and is the newest event at
        // that instant: the causal history leading into it precedes it.
        let at = events[drops[0]].at();
        assert!(
            (5_000_000..8_000_000).contains(&at),
            "drop journaled at {at}"
        );
        assert!(events[..drops[0]].iter().all(|e| e.at() <= at));
        assert!(events[drops[0] + 1..].iter().all(|e| e.at() > at));
    }

    #[test]
    fn inband_tap_measures_batched_flow() {
        // Batches every 1 ms: the ensemble must produce samples near 1 ms,
        // and with no controller the weights never change.
        let script = batched_script(400);
        let cfg = LbConfig {
            steering: Steering::PowerOfTwo,
            journal: JournalMode::Full(1 << 12),
            ..LbConfig::baseline(VIP, backends())
        };
        let (mut sim, lb, _sink) = rig(cfg, script);
        sim.run_for(Duration::from_secs(1));
        let lb_node = sim.node_ref::<LbNode>(lb).unwrap();
        assert!(
            lb_node.stats().samples > 100,
            "samples: {}",
            lb_node.stats().samples
        );
        // After the ensemble settles, samples should be ~1 ms.
        assert_eq!(lb_node.journal().overflow(), 0, "journal truncated");
        let late: Vec<u64> = lb_node
            .journal()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Sample { at, t_lb, .. } if at > 200_000_000 => Some(t_lb),
                _ => None,
            })
            .collect();
        let near = late
            .iter()
            .filter(|&&s| (900_000..1_100_000).contains(&s))
            .count();
        assert!(
            near as f64 > 0.9 * late.len() as f64,
            "only {near}/{} samples near 1 ms",
            late.len()
        );
        assert_eq!(
            lb_node.stats().table_rebuilds,
            0,
            "in-band measurement without a controller must not adapt"
        );
    }
}
