//! Per-layer attribution from outside the crates: every node is installed
//! through [`Timed`], every application through [`TimedApp`] (which hands
//! the application a [`TimedIo`]), and each callback becomes a span in one
//! shared [`Tracer`].
//!
//! A span's **self time** is its duration minus the durations of the spans
//! opened inside it: a host's callback minus the application callbacks it
//! made, an application callback minus the `HostIo` calls it made (which
//! are the host's transport again). Whatever the event loop spends outside
//! every span — queue, links, delivery — is the simulator's dispatch cost,
//! computed by the caller as traced wall time minus [`Tracer::top_level_ns`].

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use netpkt::Packet;
use netsim::{Ctx, Duration, LinkId, Node, Time, TimerToken};
use nettcp::{App, ConnId, HostIo};
use telemetry::span::HopKind;

use crate::host;

/// Raw spans kept for the trace file; aggregates cover the whole run.
pub const RAW_SPAN_LIMIT: usize = 100_000;

/// Buckets of the log2 ns-per-call histogram (bucket `i` holds durations
/// in `[2^i, 2^(i+1))` ns; the last bucket is open-ended).
pub const HIST_BUCKETS: usize = 32;

/// What a span measures: the crate that did the work, which instance of it
/// (a client host and a backend host are both `nettcp`), and the callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName {
    pub layer: &'static str,
    pub role: &'static str,
    pub callback: &'static str,
}

/// Index of a registered [`SpanName`] in its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKey(usize);

/// Whole-run totals for one [`SpanName`].
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub name: SpanName,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Allocation calls made in the span itself, not in spans inside it.
    pub self_allocs: u64,
    pub hist: [u64; HIST_BUCKETS],
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    pub id: u64,
    /// Enclosing span's id, 0 at top level.
    pub parent: u64,
    pub key: SpanKey,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The packet's causal trace id, 0 when the callback has none.
    pub trace: u64,
}

#[derive(Debug)]
struct Frame {
    id: u64,
    key: SpanKey,
    start_ns: u64,
    child_ns: u64,
    allocs_at_start: u64,
    child_allocs: u64,
    trace: u64,
}

/// The span store shared by every wrapper of one traced run.
#[derive(Debug)]
pub struct Tracer {
    clock: fn() -> u64,
    allocs: fn() -> u64,
    aggregates: Vec<Aggregate>,
    stack: Vec<Frame>,
    raw: Vec<RawSpan>,
    next_id: u64,
    top_level_ns: u64,
    top_level_allocs: u64,
}

/// How wrappers hold the tracer: one simulator thread, callbacks nest but
/// never run concurrently, so each borrow is released before the next.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer on the host clock and the counting allocator. All storage
    /// is reserved here so recording never allocates inside a span.
    pub fn new() -> SharedTracer {
        Tracer::with_sources(host::now_ns, host::alloc_calls)
    }

    /// A tracer on caller-supplied clock and allocation counter (tests
    /// drive these by hand to check the arithmetic exactly).
    pub fn with_sources(clock: fn() -> u64, allocs: fn() -> u64) -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            clock,
            allocs,
            aggregates: Vec::with_capacity(128),
            stack: Vec::with_capacity(16),
            raw: Vec::with_capacity(RAW_SPAN_LIMIT),
            next_id: 1,
            top_level_ns: 0,
            top_level_allocs: 0,
        }))
    }

    /// Registers a span name (or finds it) and returns its key.
    pub fn register(&mut self, name: SpanName) -> SpanKey {
        if let Some(i) = self.aggregates.iter().position(|a| a.name == name) {
            return SpanKey(i);
        }
        self.aggregates.push(Aggregate {
            name,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            self_allocs: 0,
            hist: [0; HIST_BUCKETS],
        });
        SpanKey(self.aggregates.len() - 1)
    }

    /// Opens a span. `trace` 0 inherits the enclosing span's trace id.
    pub fn enter(&mut self, key: SpanKey, trace: u64) {
        let trace = if trace != 0 {
            trace
        } else {
            self.stack.last().map_or(0, |f| f.trace)
        };
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Frame {
            id,
            key,
            start_ns: (self.clock)(),
            child_ns: 0,
            allocs_at_start: (self.allocs)(),
            child_allocs: 0,
            trace,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = (self.clock)();
        let allocs_now = (self.allocs)();
        let frame = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let allocs = allocs_now.saturating_sub(frame.allocs_at_start);
        let agg = &mut self.aggregates[frame.key.0];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(frame.child_ns);
        agg.self_allocs += allocs.saturating_sub(frame.child_allocs);
        agg.hist[(dur.max(1).ilog2() as usize).min(HIST_BUCKETS - 1)] += 1;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.child_allocs += allocs;
                p.id
            }
            None => {
                self.top_level_ns += dur;
                self.top_level_allocs += allocs;
                0
            }
        };
        if self.raw.len() < RAW_SPAN_LIMIT {
            self.raw.push(RawSpan {
                id: frame.id,
                parent,
                key: frame.key,
                start_ns: frame.start_ns,
                end_ns,
                trace: frame.trace,
            });
        }
    }

    pub fn aggregates(&self) -> &[Aggregate] {
        &self.aggregates
    }

    pub fn name_of(&self, key: SpanKey) -> SpanName {
        self.aggregates[key.0].name
    }

    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }

    /// Spans opened so far (recorded or not).
    pub fn span_count(&self) -> u64 {
        self.next_id - 1
    }

    /// Time covered by top-level spans, i.e. by node callbacks.
    pub fn top_level_ns(&self) -> u64 {
        self.top_level_ns
    }

    /// Allocation calls made inside any span.
    pub fn top_level_allocs(&self) -> u64 {
        self.top_level_allocs
    }

    /// Sums `(calls, self_ns, self_allocs)` over the aggregates `pick`
    /// accepts.
    pub fn sum(&self, pick: impl Fn(&SpanName) -> bool) -> (u64, u64, u64) {
        self.aggregates
            .iter()
            .filter(|a| pick(&a.name))
            .fold((0, 0, 0), |(c, n, a), g| {
                (c + g.calls, n + g.self_ns, a + g.self_allocs)
            })
    }
}

/// A node whose three callbacks are spans.
pub struct Timed<N: Node> {
    pub inner: N,
    tracer: SharedTracer,
    on_start: SpanKey,
    on_packet: SpanKey,
    on_timer: SpanKey,
}

impl<N: Node> Timed<N> {
    pub fn new(inner: N, tracer: &SharedTracer, layer: &'static str, role: &'static str) -> Self {
        let mut t = tracer.borrow_mut();
        let mut key = |callback| {
            t.register(SpanName {
                layer,
                role,
                callback,
            })
        };
        Timed {
            inner,
            on_start: key("on_start"),
            on_packet: key("on_packet"),
            on_timer: key("on_timer"),
            tracer: Rc::clone(tracer),
        }
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.tracer.borrow_mut().enter(self.on_start, 0);
        self.inner.on_start(ctx);
        self.tracer.borrow_mut().exit();
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, link: LinkId, pkt: Packet) {
        self.tracer.borrow_mut().enter(self.on_packet, pkt.span());
        self.inner.on_packet(ctx, link, pkt);
        self.tracer.borrow_mut().exit();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.tracer.borrow_mut().enter(self.on_timer, 0);
        self.inner.on_timer(ctx, token);
        self.tracer.borrow_mut().exit();
    }
}

/// Span keys of the `HostIo` calls that do transport work. The getters
/// (`now`, addresses, backlog, `span_enabled`) are forwarded untimed: a
/// span costs more than they do.
#[derive(Debug, Clone, Copy)]
struct IoKeys {
    connect: SpanKey,
    listen: SpanKey,
    send: SpanKey,
    close: SpanKey,
    arm_app_timer: SpanKey,
    send_datagram: SpanKey,
    record_hop: SpanKey,
}

/// An application whose callbacks are spans, and whose `HostIo` calls are
/// spans charged back to the hosting transport's layer.
pub struct TimedApp<A: App> {
    pub inner: A,
    tracer: SharedTracer,
    on_start: SpanKey,
    on_connected: SpanKey,
    on_data: SpanKey,
    on_closed: SpanKey,
    on_app_timer: SpanKey,
    on_rtt_sample: SpanKey,
    io: IoKeys,
}

impl<A: App> TimedApp<A> {
    /// `layer`/`role` name the application; its `HostIo` calls are booked
    /// under `host_layer` with the same role.
    pub fn new(
        inner: A,
        tracer: &SharedTracer,
        layer: &'static str,
        host_layer: &'static str,
        role: &'static str,
    ) -> Self {
        let mut t = tracer.borrow_mut();
        let mut key = |layer, callback| {
            t.register(SpanName {
                layer,
                role,
                callback,
            })
        };
        TimedApp {
            inner,
            on_start: key(layer, "on_start"),
            on_connected: key(layer, "on_connected"),
            on_data: key(layer, "on_data"),
            on_closed: key(layer, "on_closed"),
            on_app_timer: key(layer, "on_app_timer"),
            on_rtt_sample: key(layer, "on_rtt_sample"),
            io: IoKeys {
                connect: key(host_layer, "io_connect"),
                listen: key(host_layer, "io_listen"),
                send: key(host_layer, "io_send"),
                close: key(host_layer, "io_close"),
                arm_app_timer: key(host_layer, "io_arm_app_timer"),
                send_datagram: key(host_layer, "io_send_datagram"),
                record_hop: key(host_layer, "io_record_hop"),
            },
            tracer: Rc::clone(tracer),
        }
    }

    fn spanned(&mut self, key: SpanKey, io: &mut dyn HostIo, f: impl FnOnce(&mut A, &mut TimedIo)) {
        self.tracer.borrow_mut().enter(key, 0);
        let mut io = TimedIo {
            inner: io,
            tracer: &self.tracer,
            keys: self.io,
        };
        f(&mut self.inner, &mut io);
        self.tracer.borrow_mut().exit();
    }
}

impl<A: App> App for TimedApp<A> {
    fn on_start(&mut self, io: &mut dyn HostIo) {
        self.spanned(self.on_start, io, |app, io| app.on_start(io));
    }

    fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        self.spanned(self.on_connected, io, |app, io| app.on_connected(io, conn));
    }

    fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
        self.spanned(self.on_data, io, |app, io| app.on_data(io, conn, data));
    }

    fn on_closed(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        self.spanned(self.on_closed, io, |app, io| app.on_closed(io, conn));
    }

    fn on_app_timer(&mut self, io: &mut dyn HostIo, token: u64) {
        self.spanned(self.on_app_timer, io, |app, io| app.on_app_timer(io, token));
    }

    fn on_rtt_sample(&mut self, io: &mut dyn HostIo, conn: ConnId, rtt: Duration) {
        self.spanned(self.on_rtt_sample, io, |app, io| {
            app.on_rtt_sample(io, conn, rtt)
        });
    }
}

/// The `HostIo` an application sees under [`TimedApp`]: forwards every
/// call to the host's own, opening a span around the ones that do work.
pub struct TimedIo<'a> {
    inner: &'a mut dyn HostIo,
    tracer: &'a SharedTracer,
    keys: IoKeys,
}

impl TimedIo<'_> {
    fn spanned<R>(&mut self, key: SpanKey, f: impl FnOnce(&mut dyn HostIo) -> R) -> R {
        self.tracer.borrow_mut().enter(key, 0);
        let r = f(self.inner);
        self.tracer.borrow_mut().exit();
        r
    }
}

impl HostIo for TimedIo<'_> {
    fn now(&self) -> Time {
        self.inner.now()
    }

    fn connect(&mut self, remote_ip: Ipv4Addr, remote_port: u16) -> ConnId {
        self.spanned(self.keys.connect, |io| io.connect(remote_ip, remote_port))
    }

    fn listen(&mut self, port: u16) {
        self.spanned(self.keys.listen, |io| io.listen(port));
    }

    fn send(&mut self, conn: ConnId, data: &[u8]) {
        self.spanned(self.keys.send, |io| io.send(conn, data));
    }

    fn close(&mut self, conn: ConnId) {
        self.spanned(self.keys.close, |io| io.close(conn));
    }

    fn arm_app_timer(&mut self, after: Duration, token: u64) {
        self.spanned(self.keys.arm_app_timer, |io| io.arm_app_timer(after, token));
    }

    fn send_backlog(&self, conn: ConnId) -> usize {
        self.inner.send_backlog(conn)
    }

    fn send_datagram(&mut self, dst_ip: Ipv4Addr, dst_port: u16, payload: &[u8]) {
        self.spanned(self.keys.send_datagram, |io| {
            io.send_datagram(dst_ip, dst_port, payload)
        });
    }

    fn local_addr(&self, conn: ConnId) -> (Ipv4Addr, u16) {
        self.inner.local_addr(conn)
    }

    fn remote_addr(&self, conn: ConnId) -> (Ipv4Addr, u16) {
        self.inner.remote_addr(conn)
    }

    fn span_enabled(&self) -> bool {
        self.inner.span_enabled()
    }

    fn record_hop(&mut self, at: u64, trace: u64, kind: HopKind, a: u64, b: u64) {
        self.spanned(self.keys.record_hop, |io| {
            io.record_hop(at, trace, kind, a, b)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkConfig, Simulation};
    use std::sync::atomic::{AtomicU64, Ordering};

    // Each test owns its fake clock and allocation counter, so tests can
    // run on parallel threads.
    macro_rules! fake_sources {
        ($clock:ident, $allocs:ident, $read_clock:ident, $read_allocs:ident) => {
            static $clock: AtomicU64 = AtomicU64::new(0);
            static $allocs: AtomicU64 = AtomicU64::new(0);
            fn $read_clock() -> u64 {
                $clock.load(Ordering::Relaxed)
            }
            fn $read_allocs() -> u64 {
                $allocs.load(Ordering::Relaxed)
            }
        };
    }

    fn agg<'a>(t: &'a Tracer, layer: &str, role: &str, callback: &str) -> &'a Aggregate {
        t.aggregates()
            .iter()
            .find(|a| a.name.layer == layer && a.name.role == role && a.name.callback == callback)
            .unwrap_or_else(|| panic!("no aggregate {layer}.{role}.{callback}"))
    }

    fn test_packet(trace: u64) -> Packet {
        let mut pkt = netpkt::udp::build_udp(
            netpkt::Addresses {
                src_mac: netpkt::MacAddr::from_id(1),
                dst_mac: netpkt::MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
            9,
            9,
            32,
            1,
        );
        pkt.set_span(trace);
        pkt
    }

    fake_sources!(TOY_CLOCK, TOY_ALLOCS, toy_clock, toy_allocs);

    /// Spends `work` fake nanoseconds and `allocs` fake allocations per
    /// callback; on start, optionally sends one packet to its peer.
    struct Toy {
        link: Option<LinkId>,
        work: u64,
        allocs: u64,
        seen: u64,
    }

    impl Toy {
        fn spend(&self) {
            TOY_CLOCK.fetch_add(self.work, Ordering::Relaxed);
            TOY_ALLOCS.fetch_add(self.allocs, Ordering::Relaxed);
        }
    }

    impl Node for Toy {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.spend();
            if let Some(link) = self.link {
                ctx.send(link, test_packet(77));
                ctx.arm_timer(Duration::from_micros(1), TimerToken(0));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _link: LinkId, _pkt: Packet) {
            self.spend();
            self.seen += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {
            self.spend();
        }
    }

    #[test]
    fn timed_nodes_book_each_callback_once_on_a_two_node_sim() {
        let tracer = Tracer::with_sources(toy_clock, toy_allocs);
        let mut sim = Simulation::new();
        let a = sim.reserve_node("a");
        let b = sim.reserve_node("b");
        let link = sim.add_link(a, b, LinkConfig::default());
        let toy = |link, work, allocs| Toy {
            link,
            work,
            allocs,
            seen: 0,
        };
        sim.install_node(
            a,
            Box::new(Timed::new(toy(Some(link), 100, 2), &tracer, "la", "a")),
        );
        sim.install_node(b, Box::new(Timed::new(toy(None, 7, 1), &tracer, "lb", "b")));
        sim.run_to_completion();

        // The wrapper is transparent to harvesting.
        assert_eq!(sim.node_ref::<Timed<Toy>>(b).map(|n| n.inner.seen), Some(1));

        let t = tracer.borrow();
        let a_start = agg(&t, "la", "a", "on_start");
        assert_eq!(
            (
                a_start.calls,
                a_start.total_ns,
                a_start.self_ns,
                a_start.self_allocs
            ),
            (1, 100, 100, 2)
        );
        let a_timer = agg(&t, "la", "a", "on_timer");
        assert_eq!((a_timer.calls, a_timer.self_ns), (1, 100));
        let b_pkt = agg(&t, "lb", "b", "on_packet");
        assert_eq!((b_pkt.calls, b_pkt.self_ns, b_pkt.self_allocs), (1, 7, 1));
        assert_eq!(agg(&t, "lb", "b", "on_start").self_ns, 7);
        // 7 ns lands in the [4, 8) bucket.
        assert_eq!(b_pkt.hist[2], 1);
        // Top level covers every callback: 100 + 100 + 7 + 7.
        assert_eq!(t.top_level_ns(), 214);
        assert_eq!(t.top_level_allocs(), 2 + 2 + 1 + 1);
        assert_eq!(t.span_count(), 4);
        // The delivered packet's trace id reaches its span.
        let delivered = t
            .raw()
            .iter()
            .find(|s| t.name_of(s.key).callback == "on_packet")
            .expect("on_packet span recorded");
        assert_eq!((delivered.trace, delivered.parent), (77, 0));
    }

    fake_sources!(APP_CLOCK, APP_ALLOCS, app_clock, app_allocs);

    /// A `HostIo` whose `send` costs 5 ns and one allocation.
    struct FakeIo {
        sent: usize,
        hops: usize,
    }

    impl HostIo for FakeIo {
        fn now(&self) -> Time {
            Time::ZERO
        }
        fn connect(&mut self, _ip: Ipv4Addr, _port: u16) -> ConnId {
            ConnId(0)
        }
        fn listen(&mut self, _port: u16) {}
        fn send(&mut self, _conn: ConnId, data: &[u8]) {
            APP_CLOCK.fetch_add(5, Ordering::Relaxed);
            APP_ALLOCS.fetch_add(1, Ordering::Relaxed);
            self.sent += data.len();
        }
        fn close(&mut self, _conn: ConnId) {}
        fn arm_app_timer(&mut self, _after: Duration, _token: u64) {}
        fn send_backlog(&self, _conn: ConnId) -> usize {
            0
        }
        fn send_datagram(&mut self, _ip: Ipv4Addr, _port: u16, _payload: &[u8]) {}
        fn local_addr(&self, _conn: ConnId) -> (Ipv4Addr, u16) {
            (Ipv4Addr::LOCALHOST, 1)
        }
        fn remote_addr(&self, _conn: ConnId) -> (Ipv4Addr, u16) {
            (Ipv4Addr::LOCALHOST, 2)
        }
        fn span_enabled(&self) -> bool {
            true
        }
        fn record_hop(&mut self, _at: u64, _trace: u64, _kind: HopKind, _a: u64, _b: u64) {
            self.hops += 1;
        }
    }

    /// Works 10 ns, sends twice (5 ns each, in the transport), works 10 ns.
    struct Echo;

    impl App for Echo {
        fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
            APP_CLOCK.fetch_add(10, Ordering::Relaxed);
            APP_ALLOCS.fetch_add(3, Ordering::Relaxed);
            io.send(conn, data);
            io.send(conn, data);
            assert!(io.span_enabled(), "span gate must reach the real HostIo");
            io.record_hop(0, 1, HopKind::ClientIssue, 0, 0);
            APP_CLOCK.fetch_add(10, Ordering::Relaxed);
        }
    }

    #[test]
    fn app_self_time_excludes_io_calls_and_host_self_time_excludes_the_app() {
        let tracer = Tracer::with_sources(app_clock, app_allocs);
        let host_key = tracer.borrow_mut().register(SpanName {
            layer: "nettcp",
            role: "client",
            callback: "on_packet",
        });
        let mut app = TimedApp::new(Echo, &tracer, "workload", "nettcp", "client");
        let mut io = FakeIo { sent: 0, hops: 0 };

        // The host's callback: 50 ns of its own before the app, 20 after.
        tracer.borrow_mut().enter(host_key, 9);
        APP_CLOCK.fetch_add(50, Ordering::Relaxed);
        app.on_data(&mut io, ConnId(0), b"abcd");
        APP_CLOCK.fetch_add(20, Ordering::Relaxed);
        tracer.borrow_mut().exit();

        assert_eq!((io.sent, io.hops), (8, 1));
        let t = tracer.borrow();
        let host = agg(&t, "nettcp", "client", "on_packet");
        assert_eq!(
            (host.total_ns, host.self_ns, host.self_allocs),
            (100, 70, 0)
        );
        let on_data = agg(&t, "workload", "client", "on_data");
        assert_eq!(
            (
                on_data.calls,
                on_data.total_ns,
                on_data.self_ns,
                on_data.self_allocs
            ),
            (1, 30, 20, 3)
        );
        let send = agg(&t, "nettcp", "client", "io_send");
        assert_eq!((send.calls, send.self_ns, send.self_allocs), (2, 10, 2));
        assert_eq!(agg(&t, "nettcp", "client", "io_record_hop").calls, 1);
        // Self times partition the top-level span exactly.
        let (_, self_sum, alloc_sum) = t.sum(|_| true);
        assert_eq!((self_sum, t.top_level_ns()), (100, 100));
        assert_eq!((alloc_sum, t.top_level_allocs()), (5, 5));
        // Nested spans inherit the packet's trace id and name their parent.
        let raw = t.raw();
        let host_span = raw.last().expect("host span closes last");
        assert_eq!((host_span.trace, host_span.parent), (9, 0));
        let data_span = raw
            .iter()
            .find(|s| t.name_of(s.key).callback == "on_data")
            .expect("on_data span");
        assert_eq!((data_span.trace, data_span.parent), (9, host_span.id));
        assert!(raw
            .iter()
            .filter(|s| t.name_of(s.key).callback == "io_send")
            .all(|s| s.parent == data_span.id && s.trace == 9));
    }
}
