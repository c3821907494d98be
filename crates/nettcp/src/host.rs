//! A simulated end host: one access link, a TCP-like stack, and an
//! application.
//!
//! The host implements [`netsim::Node`], demultiplexes incoming frames to
//! connections by four-tuple, pumps connection output queues into packets,
//! and dispatches connection events to its [`App`]. It also owns the
//! host-level realism knobs: receive-path jitter (modeling interrupt and
//! scheduling noise) and extra local addresses (a backend accepting
//! VIP-addressed connections under DSR replies with the VIP as source).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::Ipv4Addr;

use netpkt::{FlowKey, MacAddr, Packet, PacketViewRef, TcpHeader};
use netpkt::{ETH_HEADER_LEN, IPV4_HEADER_LEN, TCP_HEADER_LEN};
use netsim::rng::SimRng;
use netsim::{Ctx, Duration, EventHandle, LinkId, Node, Time, TimerToken};
use telemetry::span::HopKind;

use crate::app::{App, ConnId, HostIo};
use crate::config::TcpConfig;
use crate::conn::{Conn, ConnBuffers, ConnEvent, SegmentOut, TimerKind, TimerRequest};
use crate::seq::seq_add;

/// Timer-token tags (top 2 bits of the token).
const TAG_CONN: u64 = 0;
const TAG_APP: u64 = 1;
const TAG_RX: u64 = 2;

/// A connection timer's token: tag (2 bits) | zero (28) | connection
/// index (32, the width of [`ConnId`]) | [`TimerKind`] index (2). It
/// names the slot's `armed` entry that holds the timer's handle and
/// nothing else: a replaced or cancelled timer is taken out of the event
/// queue, so whatever fires is the armed one.
fn conn_token(idx: usize, kind: TimerKind) -> u64 {
    (TAG_CONN << 62) | ((idx as u64) << 2) | kind.index() as u64
}

/// The id of connection slot `idx`. `Host::alloc_conn` asserts that
/// every slot index fits 32 bits.
#[allow(clippy::cast_possible_truncation)]
fn conn_id(idx: usize) -> ConnId {
    ConnId(idx as u32)
}

/// Takes a connection timer out of the event queue, if it is armed.
fn disarm(armed: &mut Option<EventHandle>, ctx: &mut Ctx<'_>) {
    if let Some(handle) = armed.take() {
        let was_pending = ctx.cancel_timer(handle);
        debug_assert!(was_pending, "armed handle of a timer that already fired");
    }
}

/// A connection slot's tenant: a live connection, or — once it is
/// reaped — the buffers it left for the next connection opened in the
/// slot.
// `Live` is much the larger variant, and that is the point: boxing
// `Conn` would put back the allocation per opened connection that
// reusing the slot's buffers removed.
#[allow(clippy::large_enum_variant)]
enum Tenant {
    Live(Conn),
    Free(ConnBuffers),
}

impl Default for Tenant {
    fn default() -> Tenant {
        Tenant::Free(ConnBuffers::default())
    }
}

/// A connection slot, indexed by [`ConnId`]: the one record of the
/// tenant and of what the host keeps about it.
#[derive(Default)]
struct Slot {
    tenant: Tenant,
    /// Handle of the tenant's pending timer per [`TimerKind`], `None` =
    /// disarmed. Cleared when the timer fires, is cancelled or replaced,
    /// and when the tenant is reaped.
    armed: [Option<EventHandle>; 3],
    /// Span tracing: the tenant's last attributable trace id,
    /// `[outbound, inbound]` — attributes RTOs (to the request whose
    /// segment is outstanding) and reassembly completions (to the
    /// request whose bytes were delivered). Only maintained while the
    /// simulation's span tracing is enabled.
    traces: [u64; 2],
}

impl Slot {
    fn live(&self) -> Option<&Conn> {
        match &self.tenant {
            Tenant::Live(conn) => Some(conn),
            Tenant::Free(_) => None,
        }
    }

    fn live_mut(&mut self) -> Option<&mut Conn> {
        match &mut self.tenant {
            Tenant::Live(conn) => Some(conn),
            Tenant::Free(_) => None,
        }
    }

    /// Installs the connection `open` builds over the buffers the slot's
    /// last tenant left, with no trace ids. Reaping disarmed the last
    /// tenant's timers, so none can fire into this one.
    fn open(&mut self, open: impl FnOnce(ConnBuffers) -> Conn) {
        let Tenant::Free(bufs) = std::mem::take(&mut self.tenant) else {
            panic!("connection opened over a live one");
        };
        self.tenant = Tenant::Live(open(bufs));
        self.traces = [0; 2];
    }

    /// Retires the tenant, keeping its buffers for the next, and takes
    /// its timers out of the event queue.
    fn reap(&mut self, ctx: &mut Ctx<'_>) {
        if let Tenant::Live(conn) = std::mem::take(&mut self.tenant) {
            self.tenant = Tenant::Free(conn.into_buffers());
        }
        for armed in &mut self.armed {
            disarm(armed, ctx);
        }
    }
}

/// Host configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Primary local address (used as source for client connections).
    pub ip: Ipv4Addr,
    /// Additional accepted local addresses (VIPs under DSR).
    pub extra_ips: Vec<Ipv4Addr>,
    /// Transport parameters for all connections of this host.
    pub tcp: TcpConfig,
    /// Uniform receive-path processing jitter `(min, max)`, modeling
    /// interrupt/scheduler noise. `None` disables it. Per-host ordering is
    /// preserved (jittered packets never reorder).
    pub rx_jitter: Option<(Duration, Duration)>,
    /// Rare long receive-path stalls `(probability, length)`, modeling
    /// preemption/GC events of hundreds of µs to ms (§2.2 of the paper).
    /// Applied on top of `rx_jitter` per packet. Requires `rx_jitter` to
    /// be set (the stall rides the same deferred-processing queue) and a
    /// probability in `[0, 1]`; [`Host::new`] panics otherwise.
    pub rx_spike: Option<(f64, Duration)>,
    /// RNG seed for this host (jitter, ISS, ephemeral ports).
    pub seed: u64,
}

impl HostConfig {
    /// A host with default TCP parameters and no jitter.
    pub fn new(ip: Ipv4Addr, seed: u64) -> Self {
        HostConfig {
            ip,
            extra_ips: Vec::new(),
            tcp: TcpConfig::default(),
            rx_jitter: None,
            rx_spike: None,
            seed,
        }
    }
}

/// Host-level counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostStats {
    /// Frames received (before jitter queueing).
    pub packets_in: u64,
    /// Frames sent.
    pub packets_out: u64,
    /// Frames that matched no connection or listener.
    pub no_match: u64,
    /// Frames that failed to parse or verify checksums.
    pub parse_errors: u64,
    /// Connections opened (client + accepted).
    pub conns_opened: u64,
    /// Connections fully closed and reaped.
    pub conns_closed: u64,
    /// Segments retransmitted, summed over reaped connections.
    pub retransmits: u64,
    /// RTO events, summed over reaped connections.
    pub timeouts: u64,
    /// RSTs sent in response to unmatched segments.
    pub rsts_sent: u64,
}

/// A simulated end host. See the module docs.
pub struct Host {
    cfg: HostConfig,
    mac: MacAddr,
    uplink: LinkId,
    conns: Vec<Slot>,
    by_flow: BTreeMap<FlowKey, usize>,
    listeners: BTreeSet<u16>,
    app: Option<Box<dyn App>>,
    rng: SimRng,
    next_port: u16,
    next_ident: u16,
    pending: VecDeque<usize>,
    /// Jittered receive queue: (ready time, packet); ready times are
    /// monotone, so a deque suffices.
    rx_queue: VecDeque<(Time, Packet)>,
    last_rx_ready: Time,
    /// Reusable drain buffers for [`Host::drain_work`] — the per-cycle
    /// segment/timer/event queues are appended here instead of being
    /// `mem::take`n, so the drain loop allocates nothing in steady state.
    scratch_segs: Vec<SegmentOut>,
    scratch_reqs: Vec<TimerRequest>,
    scratch_events: Vec<ConnEvent>,
    /// Counters.
    pub stats: HostStats,
}

impl Host {
    /// Creates a host attached to `uplink`, running `app`.
    ///
    /// # Panics
    /// Panics on an `rx_spike` without `rx_jitter`, or with a
    /// probability outside `[0, 1]`.
    pub fn new(cfg: HostConfig, mac: MacAddr, uplink: LinkId, app: Box<dyn App>) -> Host {
        if let Some((prob, _)) = cfg.rx_spike {
            assert!(cfg.rx_jitter.is_some(), "rx_spike requires rx_jitter");
            assert!(
                (0.0..=1.0).contains(&prob),
                "rx_spike probability {prob} outside [0, 1]"
            );
        }
        let seed = cfg.seed;
        Host {
            cfg,
            mac,
            uplink,
            conns: Vec::new(),
            by_flow: BTreeMap::new(),
            listeners: BTreeSet::new(),
            app: Some(app),
            rng: SimRng::seed_from_u64(seed),
            next_port: 33_000,
            next_ident: 1,
            pending: VecDeque::new(),
            rx_queue: VecDeque::new(),
            last_rx_ready: Time::ZERO,
            scratch_segs: Vec::new(),
            scratch_reqs: Vec::new(),
            scratch_events: Vec::new(),
            stats: HostStats::default(),
        }
    }

    /// Immutable access to a connection (tests and experiments).
    pub fn conn(&self, id: ConnId) -> Option<&Conn> {
        self.conns.get(id.0 as usize).and_then(Slot::live)
    }

    /// Number of live connections.
    pub fn live_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.live().is_some()).count()
    }

    /// Downcast helper: immutable access to the hosted application.
    pub fn app_ref<T: App>(&self) -> Option<&T> {
        let app = self.app.as_deref()?;
        (app as &dyn std::any::Any).downcast_ref::<T>()
    }

    fn is_local_ip(&self, ip: Ipv4Addr) -> bool {
        ip == self.cfg.ip || self.cfg.extra_ips.contains(&ip)
    }

    /// Opens a connection in the lowest free slot: `open` builds it over
    /// the buffers the slot's previous tenant left behind.
    fn alloc_conn(&mut self, open: impl FnOnce(ConnBuffers) -> Conn) -> usize {
        self.stats.conns_opened += 1;
        let idx = match self.conns.iter().position(|s| s.live().is_none()) {
            Some(idx) => idx,
            None => {
                self.conns.push(Slot::default());
                self.conns.len() - 1
            }
        };
        assert!(
            u32::try_from(idx).is_ok(),
            "connection index {idx} does not fit ConnId and the timer token"
        );
        self.conns[idx].open(open);
        idx
    }

    // ------------------------------------------------------------- packet path

    fn process_frame(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        // The headers parse in place. A connection gets its payload as a
        // zero-copy slice of the frame's buffer, which is recycled once the
        // stack has consumed it (a retained out-of-order payload keeps the
        // buffer alive and the pool simply declines it).
        const PAYLOAD_OFF: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;
        let view = match PacketViewRef::parse(&pkt.data) {
            Ok(v) => v,
            Err(_) => {
                self.stats.parse_errors += 1;
                ctx.pool().recycle(pkt);
                return;
            }
        };
        if !self.is_local_ip(view.ip.dst) {
            self.stats.no_match += 1;
            ctx.pool().recycle(pkt);
            return;
        }
        let key = view.flow();
        if let Some(&idx) = self.by_flow.get(&key) {
            let slot = &mut self.conns[idx];
            if let Tenant::Live(conn) = &mut slot.tenant {
                if ctx.spans_enabled() && pkt.span() != 0 {
                    if view.payload.is_empty() {
                        ctx.record_hop(pkt.span(), HopKind::TcpAck, u64::from(view.tcp.ack), 0);
                    } else {
                        // Remember the request this data belongs to, so
                        // the reassembly completion it (eventually)
                        // triggers can name it.
                        slot.traces[1] = pkt.span();
                    }
                }
                let payload = pkt
                    .data
                    .slice(PAYLOAD_OFF..PAYLOAD_OFF + view.payload.len());
                conn.on_segment(ctx.now(), &view.tcp, payload);
                self.enqueue(idx);
                self.drain_work(ctx);
                ctx.pool().recycle(pkt);
                return;
            }
        }
        // No existing connection: a SYN to a listening port opens one.
        let flags = view.tcp.flags;
        if flags.is_syn_only() && self.listeners.contains(&view.tcp.dst_port) {
            let iss: u32 = self.rng.gen();
            let (tcp, now) = (self.cfg.tcp, ctx.now());
            let idx = self.alloc_conn(|bufs| {
                Conn::server_accept(
                    (view.ip.dst, view.tcp.dst_port),
                    (view.ip.src, view.tcp.src_port),
                    tcp,
                    iss,
                    view.tcp.seq,
                    now,
                    bufs,
                )
            });
            self.by_flow.insert(key, idx);
            self.enqueue(idx);
            self.drain_work(ctx);
            ctx.pool().recycle(pkt);
            return;
        }
        self.stats.no_match += 1;
        // Reset unmatched segments (standard TCP behaviour): without this,
        // a peer whose final-ACK was lost would retransmit its FIN against
        // a reaped connection forever. Never answer a RST with a RST.
        if !flags.contains(netpkt::TcpFlags::RST) {
            self.stats.rsts_sent += 1;
            let seq = if flags.contains(netpkt::TcpFlags::ACK) {
                view.tcp.ack
            } else {
                0
            };
            let mut ack = seq_add(view.tcp.seq, view.payload.len());
            if flags.contains(netpkt::TcpFlags::SYN) || flags.contains(netpkt::TcpFlags::FIN) {
                ack = ack.wrapping_add(1);
            }
            let (src_ip, dst_ip) = (view.ip.dst, view.ip.src);
            let (src_port, dst_port) = (view.tcp.dst_port, view.tcp.src_port);
            // Hand the offending frame back first so its buffer can back
            // the RST we are about to build.
            ctx.pool().recycle(pkt);
            let ident = self.next_ident;
            self.next_ident = self.next_ident.wrapping_add(1);
            let rst = Packet::build_tcp_pooled(
                netpkt::Addresses {
                    src_mac: self.mac,
                    dst_mac: MacAddr::from_id(0),
                    src_ip,
                    dst_ip,
                },
                &TcpHeader {
                    src_port,
                    dst_port,
                    seq,
                    ack,
                    flags: netpkt::TcpFlags::RST | netpkt::TcpFlags::ACK,
                    window: 0,
                },
                &[],
                64,
                ident,
                ctx.pool(),
            );
            self.stats.packets_out += 1;
            ctx.send(self.uplink, rst);
        } else {
            ctx.pool().recycle(pkt);
        }
    }

    fn enqueue(&mut self, idx: usize) {
        self.pending.push_back(idx);
    }

    /// Pumps pending connection output: segments → packets, timer requests
    /// → node timers, events → application callbacks (which may generate
    /// more work; the loop runs until quiescent).
    fn drain_work(&mut self, ctx: &mut Ctx<'_>) {
        // The per-cycle queues are appended into reusable buffers
        // (capacity is kept on both sides), drained, and handed back on
        // exit — the loop allocates nothing in steady state.
        let mut segs = std::mem::take(&mut self.scratch_segs);
        let mut reqs = std::mem::take(&mut self.scratch_reqs);
        let mut events = std::mem::take(&mut self.scratch_events);
        while let Some(idx) = self.pending.pop_front() {
            let Some(conn) = self.conns[idx].live_mut() else {
                continue;
            };
            conn.take_segments_into(&mut segs);
            conn.take_timer_requests_into(&mut reqs);
            conn.take_events_into(&mut events);

            // Segments first: their payload still sits in the connection's
            // send queue, and nothing below may feed the connection a
            // segment (which could release it) before the frames exist.
            for seg in segs.drain(..) {
                let mut pkt = self.build_packet(idx, &seg, ctx.pool());
                if ctx.spans_enabled() {
                    // Stamp the sidecar from the wire bytes themselves so
                    // every later hop (links, LB, receiver) sees the same
                    // trace id. Mid-message segments are unattributable
                    // here and stay unstamped.
                    let trace = netpkt::frame_trace_id(&pkt.data);
                    if trace != 0 {
                        pkt.set_span(trace);
                        self.conns[idx].traces[0] = trace;
                        ctx.record_hop(trace, HopKind::TcpSend, u64::from(seg.seq), seg.len as u64);
                    }
                }
                self.stats.packets_out += 1;
                ctx.send(self.uplink, pkt);
            }
            let armed = &mut self.conns[idx].armed;
            for req in reqs.drain(..) {
                match req {
                    TimerRequest::Arm(kind, at) => {
                        let armed = &mut armed[kind.index()];
                        disarm(armed, ctx);
                        // Timers armed "now or earlier" still fire (at now).
                        let at = at.max(ctx.now());
                        *armed = Some(ctx.arm_timer_at(at, TimerToken(conn_token(idx, kind))));
                    }
                    TimerRequest::Cancel(kind) => disarm(&mut armed[kind.index()], ctx),
                }
            }
            for ev in events.drain(..) {
                self.dispatch_event(ctx, idx, ev);
            }

            let Some(conn) = self.conns[idx].live_mut() else {
                continue;
            };
            if conn.has_output() {
                self.pending.push_back(idx);
            } else if conn.is_closed() {
                let ((lip, lport), (rip, rport)) = (conn.local(), conn.remote());
                self.stats.retransmits += conn.stats.retransmits;
                self.stats.timeouts += conn.stats.timeouts;
                self.by_flow.remove(&FlowKey::new(rip, rport, lip, lport));
                self.conns[idx].reap(ctx);
                self.stats.conns_closed += 1;
            }
        }
        self.scratch_segs = segs;
        self.scratch_reqs = reqs;
        self.scratch_events = events;
    }

    fn dispatch_event(&mut self, ctx: &mut Ctx<'_>, idx: usize, ev: ConnEvent) {
        if ctx.spans_enabled() {
            if let ConnEvent::Data(bytes) = &ev {
                let trace = self.conns[idx].traces[1];
                ctx.record_hop(trace, HopKind::TcpReassembled, 0, bytes.len() as u64);
            }
        }
        let mut app = self.app.take().expect("app re-entrancy");
        {
            let mut io = Io { host: self, ctx };
            let id = conn_id(idx);
            match ev {
                ConnEvent::Connected => app.on_connected(&mut io, id),
                ConnEvent::Data(bytes) => app.on_data(&mut io, id, &bytes),
                ConnEvent::RttSample(rtt) => app.on_rtt_sample(&mut io, id, rtt),
                ConnEvent::Closed => app.on_closed(&mut io, id),
            }
        }
        self.app = Some(app);
    }

    /// Serializes one segment of connection `idx`: the only copy of the
    /// payload between the send queue and the wire.
    fn build_packet(
        &mut self,
        idx: usize,
        seg: &SegmentOut,
        pool: &mut netpkt::BufferPool,
    ) -> Packet {
        let conn = self.conns[idx].live().expect("segment from live conn");
        let (lip, lport) = conn.local();
        let (rip, rport) = conn.remote();
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1);
        Packet::build_tcp_pooled_parts(
            // The next hop is resolved by routing, not by MAC.
            netpkt::Addresses {
                src_mac: self.mac,
                dst_mac: MacAddr::from_id(0),
                src_ip: lip,
                dst_ip: rip,
            },
            &TcpHeader {
                src_port: lport,
                dst_port: rport,
                seq: seg.seq,
                ack: seg.ack,
                flags: seg.flags,
                window: seg.window,
            },
            conn.segment_payload(seg),
            64,
            ident,
            pool,
        )
    }
}

impl Node for Host {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut app = self.app.take().expect("app present at start");
        {
            let mut io = Io { host: self, ctx };
            app.on_start(&mut io);
        }
        self.app = Some(app);
        self.drain_work(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _link: LinkId, pkt: Packet) {
        self.stats.packets_in += 1;
        match self.cfg.rx_jitter {
            None => self.process_frame(ctx, pkt),
            Some((lo, hi)) => {
                let span = hi.as_nanos().saturating_sub(lo.as_nanos());
                let extra = if span == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=span)
                };
                let mut jitter = lo + Duration::from_nanos(extra);
                if let Some((prob, len)) = self.cfg.rx_spike {
                    if self.rng.gen_bool(prob) {
                        jitter += len;
                    }
                }
                // Monotone ready times preserve per-host packet order.
                let ready = (ctx.now() + jitter).max(self.last_rx_ready);
                self.last_rx_ready = ready;
                self.rx_queue.push_back((ready, pkt));
                ctx.arm_timer_at(ready, TimerToken(TAG_RX << 62));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let tag = token.0 >> 62;
        match tag {
            TAG_CONN => {
                let idx = ((token.0 >> 2) & 0xffff_ffff) as usize;
                let kind_idx = (token.0 & 0x3) as usize;
                // Replaced, cancelled and reaped timers left the queue,
                // so this is the armed one, on a live connection.
                let slot = &mut self.conns[idx];
                let fired = slot.armed[kind_idx].take();
                assert!(fired.is_some(), "connection timer fired while disarmed");
                let Tenant::Live(conn) = &mut slot.tenant else {
                    panic!("connection timer outlived its connection");
                };
                match kind_idx {
                    0 => {
                        conn.on_rto(ctx.now());
                        if ctx.spans_enabled() {
                            let trace = slot.traces[0];
                            ctx.record_hop(trace, HopKind::TcpRto, 0, 0);
                        }
                    }
                    1 => conn.on_delack(ctx.now()),
                    _ => conn.on_pace(ctx.now()),
                }
                self.enqueue(idx);
                self.drain_work(ctx);
            }
            TAG_APP => {
                let app_token = token.0 & ((1 << 62) - 1);
                let mut app = self.app.take().expect("app re-entrancy");
                {
                    let mut io = Io { host: self, ctx };
                    app.on_app_timer(&mut io, app_token);
                }
                self.app = Some(app);
                self.drain_work(ctx);
            }
            TAG_RX => {
                while let Some(&(ready, _)) = self.rx_queue.front() {
                    if ready > ctx.now() {
                        break;
                    }
                    let (_, pkt) = self.rx_queue.pop_front().expect("peeked front");
                    self.process_frame(ctx, pkt);
                }
            }
            _ => unreachable!("unknown timer tag"),
        }
    }
}

/// The [`HostIo`] view handed to application callbacks.
struct Io<'a, 'c> {
    host: &'a mut Host,
    ctx: &'a mut Ctx<'c>,
}

impl HostIo for Io<'_, '_> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    fn connect(&mut self, remote_ip: Ipv4Addr, remote_port: u16) -> ConnId {
        // Ephemeral port allocation with recycling: scan from next_port,
        // wrapping at the top of the range, skipping the ports of
        // connections not yet reaped. (A reused port is safe: the
        // previous connection with it was fully closed on our side, and
        // the peer's old state answers stray segments with RSTs at worst.)
        const PORT_MIN: u16 = 33_000;
        let after = |p: u16| if p == u16::MAX { PORT_MIN } else { p + 1 };
        let conns = &self.host.conns;
        let port = std::iter::successors(Some(self.host.next_port), |&p| Some(after(p)))
            .take(usize::from(u16::MAX - PORT_MIN) + 1)
            .find(|&p| {
                !conns
                    .iter()
                    .any(|s| s.live().is_some_and(|c| c.local().1 == p))
            })
            .expect("ephemeral ports exhausted");
        self.host.next_port = after(port);
        let iss: u32 = self.host.rng.gen();
        let (local, tcp, now) = ((self.host.cfg.ip, port), self.host.cfg.tcp, self.ctx.now());
        let idx = self
            .host
            .alloc_conn(|bufs| Conn::client(local, (remote_ip, remote_port), tcp, iss, now, bufs));
        let key = FlowKey::new(remote_ip, remote_port, local.0, local.1);
        self.host.by_flow.insert(key, idx);
        self.host.enqueue(idx);
        conn_id(idx)
    }

    fn listen(&mut self, port: u16) {
        self.host.listeners.insert(port);
    }

    fn send(&mut self, conn: ConnId, data: &[u8]) {
        let idx = conn.0 as usize;
        let c = self.host.conns[idx]
            .live_mut()
            .unwrap_or_else(|| panic!("send on dead {conn}"));
        c.app_send(self.ctx.now(), data);
        self.host.enqueue(idx);
    }

    fn close(&mut self, conn: ConnId) {
        let idx = conn.0 as usize;
        // A connection already closed (reset, aborted, or waiting to be
        // reaped) has nothing to send: queueing its slot would leave an
        // entry that could drain the slot's next tenant out of order.
        if let Some(c) = self.host.conns[idx].live_mut().filter(|c| !c.is_closed()) {
            c.app_close(self.ctx.now());
            self.host.enqueue(idx);
        }
    }

    fn arm_app_timer(&mut self, after: Duration, token: u64) {
        assert!(token < (1 << 62), "app timer tokens must fit in 62 bits");
        self.ctx
            .arm_timer(after, TimerToken((TAG_APP << 62) | token));
    }

    fn send_backlog(&self, conn: ConnId) -> usize {
        self.host.conns[conn.0 as usize]
            .live()
            .map(|c| c.send_backlog())
            .unwrap_or(0)
    }

    fn send_datagram(&mut self, dst_ip: Ipv4Addr, dst_port: u16, payload: &[u8]) {
        let ident = self.host.next_ident;
        self.host.next_ident = self.host.next_ident.wrapping_add(1);
        let pkt = netpkt::udp::build_udp_payload(
            netpkt::Addresses {
                src_mac: self.host.mac,
                dst_mac: MacAddr::from_id(0),
                src_ip: self.host.cfg.ip,
                dst_ip,
            },
            49_999,
            // fixed agent source port; nothing replies to it
            dst_port,
            payload,
            ident,
        );
        self.host.stats.packets_out += 1;
        self.ctx.send(self.host.uplink, pkt);
    }

    fn local_addr(&self, conn: ConnId) -> (Ipv4Addr, u16) {
        self.host.conns[conn.0 as usize]
            .live()
            .unwrap_or_else(|| panic!("local_addr on dead {conn}"))
            .local()
    }

    fn remote_addr(&self, conn: ConnId) -> (Ipv4Addr, u16) {
        self.host.conns[conn.0 as usize]
            .live()
            .unwrap_or_else(|| panic!("remote_addr on dead {conn}"))
            .remote()
    }

    fn span_enabled(&self) -> bool {
        self.ctx.spans_enabled()
    }

    fn record_hop(&mut self, at: u64, trace: u64, kind: HopKind, a: u64, b: u64) {
        self.ctx.record_hop_at(at, trace, kind, a, b);
    }
}
