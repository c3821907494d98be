//! The simulation driver: owns nodes, links, the clock, and the event loop.

use std::any::Any;

use netpkt::pool::BufferPool;
use telemetry::span::{drop_reason, HopKind, HopRecord, SpanLog, SpanMode};

use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultAction, LinkImpairment};
use crate::link::{Link, LinkConfig, LinkId};
use crate::node::{record_link_hop, Ctx, Node, NodeId};
use crate::time::{Duration, Time};
use crate::trace::{Trace, TraceKind};

/// Aggregate counters for a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimStats {
    /// Events dispatched.
    pub events_processed: u64,
    /// Packets delivered to nodes.
    pub packets_delivered: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Timers removed from the queue by [`Ctx::cancel_timer`] before
    /// they could fire.
    pub timers_cancelled: u64,
    /// The most events that were ever pending at once.
    pub queue_peak: u64,
}

/// A discrete-event simulation: a topology of [`Node`]s joined by
/// [`Link`]s, plus the future-event list and the simulated clock.
pub struct Simulation {
    now: Time,
    queue: EventQueue,
    nodes: Vec<Option<Box<dyn Node>>>,
    node_names: Vec<String>,
    /// Per-node crash flag (fault layer): a down node neither receives
    /// nor sends, but its timers keep firing.
    node_down: Vec<bool>,
    links: Vec<Link>,
    trace: Trace,
    /// Causal span hop records from every layer (see
    /// [`Simulation::enable_spans`]); off by default.
    spans: SpanLog,
    /// Shared packet-buffer pool: per-hop copies draw from here and
    /// consumed packets are recycled back, via [`Ctx::pool`].
    pool: BufferPool,
    /// The dispatch counters; the queue keeps `timers_cancelled` and
    /// `queue_peak`, which [`Simulation::stats`] fills in.
    stats: SimStats,
    started: bool,
    /// Safety valve: abort if a run dispatches more events than this.
    pub max_events: u64,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at t = 0.
    pub fn new() -> Self {
        Simulation {
            now: Time::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            node_names: Vec::new(),
            node_down: Vec::new(),
            links: Vec::new(),
            trace: Trace::new(),
            spans: SpanLog::off(),
            pool: BufferPool::default(),
            stats: SimStats::default(),
            started: false,
            max_events: u64::MAX,
        }
    }

    /// Adds a node and returns its id. `name` appears in panics and traces.
    pub fn add_node(&mut self, name: impl Into<String>, node: Box<dyn Node>) -> NodeId {
        let id = self.next_node_id();
        self.nodes.push(Some(node));
        self.node_names.push(name.into());
        self.node_down.push(false);
        id
    }

    /// The id the next added node gets: node ids index `nodes`.
    fn next_node_id(&self) -> NodeId {
        NodeId(u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes"))
    }

    /// Reserves a node slot so links can reference it before the node value
    /// exists (useful when node construction needs the link ids).
    pub fn reserve_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.next_node_id();
        self.nodes.push(None);
        self.node_names.push(name.into());
        self.node_down.push(false);
        id
    }

    /// Installs the node for a slot created with [`Simulation::reserve_node`].
    ///
    /// # Panics
    /// Panics if the slot is already occupied.
    pub fn install_node(&mut self, id: NodeId, node: Box<dyn Node>) {
        let slot = &mut self.nodes[id.0 as usize];
        assert!(slot.is_none(), "node slot {id} already occupied");
        *slot = Some(node);
    }

    /// Connects two nodes with a link.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(a != b, "self-links are not supported");
        let id = LinkId(u32::try_from(self.links.len()).expect("more than u32::MAX links"));
        self.links.push(Link::new(a, b, cfg));
        id
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Run counters so far.
    pub fn stats(&self) -> SimStats {
        SimStats {
            timers_cancelled: self.queue.cancelled(),
            queue_peak: self.queue.peak_len() as u64,
            ..self.stats
        }
    }

    /// Events scheduled and not yet fired or cancelled.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Packet-buffer pool counters (hit/miss/recycle rates).
    pub fn pool_stats(&self) -> netpkt::PoolStats {
        self.pool.stats()
    }

    /// Access to the trace buffer.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables packet tracing with the given event capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// Enables packet tracing that also keeps frame bytes, so the run can
    /// be exported as a pcap capture via [`Trace::write_pcap`].
    pub fn enable_trace_with_bytes(&mut self, capacity: usize) {
        self.trace.enable_with_bytes(capacity);
    }

    /// Enables causal span tracing in the given mode. Every layer
    /// (links, TCP hosts, LBs, backends, clients) records its hops into
    /// this one log through [`Ctx`], so records carry real node ids and
    /// one harvest sees the whole causal path. Recording is pure
    /// observation: no events, timers, or RNG draws — the packet
    /// schedule is byte-identical whether tracing is off or on.
    pub fn enable_spans(&mut self, mode: SpanMode) {
        self.spans = SpanLog::new(mode);
    }

    /// Access to the span hop log. The log keeps its records packed
    /// (about 6.5 bytes a hop); `spans().iter()` decodes them in
    /// recording order without materialising them.
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Drains the span hop log (harvest helper). This is where the
    /// packed stream is decoded into 40-byte records: call it once, at
    /// the end of the run.
    pub fn take_span_records(&mut self) -> Vec<HopRecord> {
        self.spans.take()
    }

    /// Immutable access to a link (for stats assertions).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Schedules the scripted fault `action` at absolute time `at`.
    /// Prefer building a [`crate::fault::FaultSchedule`] over calling this
    /// directly.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock (the event would move
    /// the clock backwards), if `action` names an unknown node or link,
    /// or if its `from` is not an endpoint of its link.
    pub fn schedule(&mut self, at: Time, action: FaultAction) {
        assert!(
            at >= self.now,
            "event scheduled at {} ns, before the clock at {} ns",
            at.as_nanos(),
            self.now.as_nanos()
        );
        match action {
            FaultAction::NodeDown(node) | FaultAction::NodeUp(node) => assert!(
                (node.0 as usize) < self.nodes.len(),
                "unknown node {node} in fault schedule"
            ),
            FaultAction::LinkDown(link) | FaultAction::LinkUp(link) => assert!(
                (link.0 as usize) < self.links.len(),
                "unknown link {link} in fault schedule"
            ),
            FaultAction::Impair { link, from, .. }
            | FaultAction::ClearImpair { link, from }
            | FaultAction::ExtraDelay { link, from, .. } => {
                let l = self
                    .links
                    .get(link.0 as usize)
                    .unwrap_or_else(|| panic!("unknown link {link} in fault schedule"));
                assert!(
                    from == l.a || from == l.b,
                    "node {from} is not an endpoint of {link}"
                );
            }
        }
        self.queue.push(at, EventKind::Fault(action));
    }

    /// Schedules [`FaultAction::ExtraDelay`]: from `at` on, the `from` →
    /// peer direction of `link` adds `extra` to its propagation delay.
    /// This is how experiments inject server-path latency mid-run.
    pub fn schedule_extra_delay(&mut self, at: Time, link: LinkId, from: NodeId, extra: Duration) {
        self.schedule(at, FaultAction::ExtraDelay { link, from, extra });
    }

    /// Applies a scripted fault as its event fires; [`Simulation::schedule`]
    /// checked its node and link.
    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::NodeDown(node) => self.node_down[node.0 as usize] = true,
            FaultAction::NodeUp(node) => self.node_down[node.0 as usize] = false,
            FaultAction::LinkDown(link) => self.links[link.0 as usize].down = true,
            FaultAction::LinkUp(link) => self.links[link.0 as usize].down = false,
            FaultAction::Impair { link, from, cfg } => {
                self.links[link.0 as usize].dir_mut(from).impairment =
                    Some(LinkImpairment::new(cfg));
            }
            FaultAction::ClearImpair { link, from } => {
                self.links[link.0 as usize].dir_mut(from).impairment = None;
            }
            FaultAction::ExtraDelay { link, from, extra } => {
                self.links[link.0 as usize].dir_mut(from).extra_delay = extra;
            }
        }
    }

    /// Downcasts a node to a concrete type for post-run inspection.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0 as usize]
            .as_deref()
            .and_then(|n| (n as &dyn Any).downcast_ref::<T>())
    }

    /// Mutable variant of [`Simulation::node_ref`].
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.0 as usize]
            .as_deref_mut()
            .and_then(|n| (n as &mut dyn Any).downcast_mut::<T>())
    }

    /// The name a node was registered under.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0 as usize]
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.next_node_id().0 {
            self.with_node(NodeId(id), |node, ctx| node.on_start(ctx));
        }
    }

    /// Temporarily removes the node from its slot so the callback can borrow
    /// both the node and the rest of the simulation mutably.
    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) {
        let mut node = self.nodes[id.0 as usize].take().unwrap_or_else(|| {
            panic!(
                "node {} ({}) not installed",
                id, self.node_names[id.0 as usize]
            )
        });
        let mut ctx = Ctx {
            now: self.now,
            node: id,
            node_down: self.node_down[id.0 as usize],
            queue: &mut self.queue,
            links: &mut self.links,
            trace: &mut self.trace,
            spans: &mut self.spans,
            pool: &mut self.pool,
        };
        f(node.as_mut(), &mut ctx);
        self.nodes[id.0 as usize] = Some(node);
    }

    /// Runs until the event queue is exhausted or `deadline` is reached;
    /// the clock is left at `min(deadline, time of last event)`.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        self.start_if_needed();
        let mut processed = 0u64;
        while let Some(ev) = self.queue.pop_due(deadline) {
            debug_assert!(ev.at >= self.now, "event queue went backwards");
            self.now = ev.at;
            self.stats.events_processed += 1;
            processed += 1;
            if self.stats.events_processed > self.max_events {
                panic!(
                    "simulation exceeded max_events = {} (runaway event loop?)",
                    self.max_events
                );
            }
            match ev.kind {
                EventKind::Deliver { node, link, pkt } => {
                    if self.node_down[node.0 as usize] {
                        // The receiver is crashed: the frame dies at its NIC.
                        self.trace
                            .record(self.now, node, TraceKind::Drop, link, &pkt);
                        record_link_hop(
                            &mut self.spans,
                            self.now,
                            node,
                            &pkt,
                            HopKind::LinkDrop,
                            link,
                            drop_reason::RECEIVER_DOWN,
                        );
                        self.pool.recycle(pkt);
                        continue;
                    }
                    self.stats.packets_delivered += 1;
                    self.trace
                        .record(self.now, node, TraceKind::Deliver, link, &pkt);
                    record_link_hop(
                        &mut self.spans,
                        self.now,
                        node,
                        &pkt,
                        HopKind::LinkDeliver,
                        link,
                        pkt.wire_len() as u64,
                    );
                    self.with_node(node, |n, ctx| n.on_packet(ctx, link, pkt));
                }
                EventKind::Timer { node, token } => {
                    self.stats.timers_fired += 1;
                    self.with_node(node, |n, ctx| n.on_timer(ctx, token));
                }
                EventKind::Fault(action) => self.apply_fault(action),
            }
        }
        if self.now < deadline && deadline != Time::MAX {
            self.now = deadline;
        }
        processed
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: Duration) -> u64 {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Runs until no events remain.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(Time::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TimerToken;
    use netpkt::{MacAddr, Packet, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn test_packet(len_payload: usize) -> Packet {
        Packet::build_tcp(
            netpkt::Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
            &TcpHeader {
                src_port: 1000,
                dst_port: 2000,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 100,
            },
            &vec![0u8; len_payload],
            64,
            0,
        )
    }

    /// Sends `count` packets to its peer at start, records delivery times.
    struct Pinger {
        link: Option<LinkId>,
        count: usize,
        received_at: Vec<Time>,
    }

    impl Pinger {
        fn new(count: usize) -> Self {
            Pinger {
                link: None,
                count,
                received_at: Vec::new(),
            }
        }
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(link) = self.link {
                for _ in 0..self.count {
                    ctx.send(link, test_packet(100));
                }
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _link: LinkId, _pkt: Packet) {
            self.received_at.push(ctx.now());
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
    }

    /// Re-arms a periodic timer `n` times.
    struct Ticker {
        period: Duration,
        remaining: u32,
        fired_at: Vec<Time>,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.arm_timer(self.period, TimerToken(1));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _link: LinkId, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            assert_eq!(token, TimerToken(1));
            self.fired_at.push(ctx.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.arm_timer(self.period, TimerToken(1));
            }
        }
    }

    #[test]
    fn packets_deliver_with_link_delay() {
        let mut sim = Simulation::new();
        let a = sim.reserve_node("a");
        let b = sim.add_node("b", Box::new(Pinger::new(0)));
        let link = sim.add_link(
            a,
            b,
            LinkConfig::new(1_000_000_000, Duration::from_micros(50), 1 << 20),
        );
        let mut p = Pinger::new(3);
        p.link = Some(link);
        sim.install_node(a, Box::new(p));
        sim.run_to_completion();
        let b_node = sim.node_ref::<Pinger>(b).unwrap();
        assert_eq!(b_node.received_at.len(), 3);
        // 154-byte frames at 1 Gbps serialize in 1232 ns each, FIFO.
        let ser = 154 * 8; // ns at 1 Gbps
        assert_eq!(b_node.received_at[0].as_nanos(), ser + 50_000);
        assert_eq!(b_node.received_at[1].as_nanos(), 2 * ser + 50_000);
        assert_eq!(b_node.received_at[2].as_nanos(), 3 * ser + 50_000);
        assert_eq!(sim.stats().packets_delivered, 3);
    }

    #[test]
    fn timers_fire_periodically() {
        let mut sim = Simulation::new();
        let t = sim.add_node(
            "ticker",
            Box::new(Ticker {
                period: Duration::from_millis(10),
                remaining: 4,
                fired_at: Vec::new(),
            }),
        );
        sim.run_to_completion();
        let ticker = sim.node_ref::<Ticker>(t).unwrap();
        let at: Vec<u64> = ticker.fired_at.iter().map(|t| t.as_nanos()).collect();
        assert_eq!(
            at,
            vec![10_000_000, 20_000_000, 30_000_000, 40_000_000, 50_000_000]
        );
        assert_eq!(sim.stats().timers_fired, 5);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new();
        let t = sim.add_node(
            "ticker",
            Box::new(Ticker {
                period: Duration::from_millis(10),
                remaining: 100,
                fired_at: Vec::new(),
            }),
        );
        sim.run_until(Time::from_nanos(35_000_000));
        assert_eq!(sim.now(), Time::from_nanos(35_000_000));
        assert_eq!(sim.node_ref::<Ticker>(t).unwrap().fired_at.len(), 3);
        // Resume: events after the deadline are still pending.
        sim.run_until(Time::from_nanos(45_000_000));
        assert_eq!(sim.node_ref::<Ticker>(t).unwrap().fired_at.len(), 4);
    }

    #[test]
    fn scheduled_extra_delay_applies_at_exact_time() {
        let mut sim = Simulation::new();
        let a = sim.reserve_node("a");
        let b = sim.add_node("b", Box::new(Pinger::new(0)));
        let link = sim.add_link(
            a,
            b,
            LinkConfig::new(1_000_000_000, Duration::ZERO, 1 << 20),
        );
        let mut p = Pinger::new(0);
        p.link = Some(link);
        sim.install_node(a, Box::new(p));
        sim.schedule_extra_delay(Time::from_nanos(1000), link, a, Duration::from_millis(1));
        sim.run_to_completion();
        assert_eq!(sim.link(link).ab.extra_delay, Duration::from_millis(1));
        assert_eq!(sim.link(link).ba.extra_delay, Duration::ZERO);
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let mut sim = Simulation::new();
            let a = sim.reserve_node("a");
            let b = sim.add_node("b", Box::new(Pinger::new(0)));
            let link = sim.add_link(a, b, LinkConfig::default());
            let mut p = Pinger::new(10);
            p.link = Some(link);
            sim.install_node(a, Box::new(p));
            sim.enable_trace(1024);
            sim.run_to_completion();
            sim.trace()
                .events()
                .iter()
                .map(|e| (e.at.as_nanos(), e.node.0, e.wire_len))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn runaway_loop_detected() {
        let mut sim = Simulation::new();
        sim.add_node(
            "ticker",
            Box::new(Ticker {
                period: Duration::from_nanos(1),
                remaining: u32::MAX,
                fired_at: Vec::new(),
            }),
        );
        sim.max_events = 1000;
        sim.run_to_completion();
    }

    /// Runs an idle two-node simulation to 5 ms, then hands `schedule` an
    /// instant 1 ms behind the clock.
    fn schedule_in_the_past(schedule: impl FnOnce(&mut Simulation, Time, LinkId, NodeId)) {
        let mut sim = Simulation::new();
        let a = sim.reserve_node("a");
        let b = sim.add_node("b", Box::new(Pinger::new(0)));
        let link = sim.add_link(a, b, LinkConfig::default());
        sim.install_node(a, Box::new(Pinger::new(0)));
        sim.run_until(Time::from_nanos(5_000_000));
        schedule(&mut sim, Time::from_nanos(4_000_000), link, a);
    }

    #[test]
    #[should_panic(expected = "event scheduled at 4000000 ns, before the clock at 5000000 ns")]
    fn extra_delay_in_the_past_panics() {
        schedule_in_the_past(|sim, at, link, a| {
            sim.schedule_extra_delay(at, link, a, Duration::from_millis(1));
        });
    }

    #[test]
    #[should_panic(expected = "event scheduled at 4000000 ns, before the clock at 5000000 ns")]
    fn node_down_in_the_past_panics() {
        schedule_in_the_past(|sim, at, _, a| sim.schedule(at, FaultAction::NodeDown(a)));
    }

    #[test]
    #[should_panic(expected = "event scheduled at 4000000 ns, before the clock at 5000000 ns")]
    fn link_down_in_the_past_panics() {
        schedule_in_the_past(|sim, at, link, _| sim.schedule(at, FaultAction::LinkDown(link)));
    }

    #[test]
    #[should_panic(expected = "event scheduled at 4000000 ns, before the clock at 5000000 ns")]
    fn link_impairment_in_the_past_panics() {
        schedule_in_the_past(|sim, at, link, from| {
            sim.schedule(at, FaultAction::ClearImpair { link, from });
        });
    }

    /// Arms a timer 1 ns behind the clock when its first timer fires.
    struct LateArmer;

    impl Node for LateArmer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.arm_timer(Duration::from_micros(3), TimerToken(1));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _link: LinkId, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
            let at = Time::from_nanos(ctx.now().as_nanos() - 1);
            ctx.arm_timer_at(at, TimerToken(2));
        }
    }

    #[test]
    #[should_panic(expected = "timer armed at 2999 ns, before the clock at 3000 ns")]
    fn timer_armed_in_the_past_panics() {
        let mut sim = Simulation::new();
        sim.add_node("late", Box::new(LateArmer));
        sim.run_to_completion();
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_install_panics() {
        let mut sim = Simulation::new();
        let a = sim.add_node("a", Box::new(Pinger::new(0)));
        sim.install_node(a, Box::new(Pinger::new(0)));
    }

    #[test]
    fn node_downcast() {
        let mut sim = Simulation::new();
        let a = sim.add_node("a", Box::new(Pinger::new(0)));
        assert!(sim.node_ref::<Pinger>(a).is_some());
        assert!(sim.node_ref::<Ticker>(a).is_none());
        assert_eq!(sim.node_name(a), "a");
        sim.node_mut::<Pinger>(a).unwrap().count = 7;
        assert_eq!(sim.node_ref::<Pinger>(a).unwrap().count, 7);
    }
}
