//! The memtier-like closed-loop key-value client (§4 of the paper).

use std::net::Ipv4Addr;

use netpkt::kv::{KvDecoder, KvMessage, KvOp, KEY_COUNT};
use netsim::rng::component_rng;
use netsim::rng::SimRng;
use netsim::Duration;
use nettcp::{App, ConnId, HostIo};
use telemetry::span::{pack_addr, HopKind};

use crate::recorder::LatencyRecorder;

/// Client workload parameters.
#[derive(Debug, Clone)]
pub struct MemtierConfig {
    /// The service VIP to connect to.
    pub vip: Ipv4Addr,
    /// Service port.
    pub port: u16,
    /// Concurrent connections held open by this client.
    pub connections: usize,
    /// Maximum outstanding (pipelined) requests per connection — the
    /// application-level flow-control quota. When a connection has this
    /// many requests in flight the client *must* wait for a response, and
    /// the packet that follows is a causally-triggered transmission.
    pub pipeline: usize,
    /// Fraction of requests that are GETs (the paper uses a 50-50 mix).
    pub get_ratio: f64,
    /// Value length written by SETs.
    pub set_value_len: u32,
    /// Close and reopen a connection after this many completed requests
    /// (the paper's client "closes and reopens connections from time to
    /// time" so the LB can make fresh routing decisions). 0 disables churn.
    pub requests_per_conn: u64,
    /// Optional think time between a response and the next request
    /// (uniform in the given range) — the "application-limited client"
    /// timing violation of §5(2). `None` = closed loop at full speed.
    pub think_time: Option<(Duration, Duration)>,
    /// Time-bin width for the recorder's latency series.
    pub recorder_bin: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MemtierConfig {
    fn default() -> Self {
        MemtierConfig {
            vip: Ipv4Addr::new(10, 9, 9, 9),
            port: 11211,
            connections: 8,
            pipeline: 4,
            get_ratio: 0.5,
            set_value_len: 64,
            requests_per_conn: 200,
            think_time: None,
            recorder_bin: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// One connection slot, indexed by `ConnId`. The host reuses the lowest
/// free `ConnId`, so the table is as long as the peak connection count
/// and a slot's decoder and `outstanding` are reset in place.
#[derive(Debug, Default)]
struct ConnTracker {
    decoder: KvDecoder,
    /// (request id, issue time ns, was GET) per request in flight: at
    /// most `pipeline` entries.
    outstanding: Vec<(u64, u64, bool)>,
    issued: u64,
    completed: u64,
    phase: Phase,
}

/// Where a connection is in its life, as the client sees it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Issuing requests.
    #[default]
    Open,
    /// The client asked for the close; responses still count.
    Closing,
    /// `on_closed` came: nothing happens on the slot until it is reopened.
    Gone,
}

/// Counters for the client.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemtierStats {
    /// Requests issued.
    pub issued: u64,
    /// Responses received.
    pub completed: u64,
    /// Connections opened (including reopenings).
    pub conns_opened: u64,
    /// Connections that completed their quota and were closed.
    pub conns_recycled: u64,
    /// Connections that died *without* the client asking (peer reset or
    /// retransmission-abort) — broken connections, in §2.5's terms.
    pub conns_broken: u64,
    /// Requests that were outstanding on broken connections (lost work).
    pub requests_lost: u64,
}

/// The memtier-like client application.
pub struct MemtierClient {
    cfg: MemtierConfig,
    rng: SimRng,
    conns: Vec<ConnTracker>,
    next_req_id: u64,
    /// Encode buffer, reused for every request.
    tx: Vec<u8>,
    /// Ground-truth latency recording.
    pub recorder: LatencyRecorder,
    /// Counters.
    pub stats: MemtierStats,
}

impl MemtierClient {
    /// Creates the client.
    pub fn new(cfg: MemtierConfig) -> MemtierClient {
        assert!(
            cfg.connections > 0 && cfg.pipeline > 0,
            "connections and pipeline must be positive"
        );
        let recorder = LatencyRecorder::new(cfg.recorder_bin.as_nanos());
        let rng = component_rng(cfg.seed, "memtier-client");
        MemtierClient {
            cfg,
            rng,
            conns: Vec::new(),
            next_req_id: 1,
            tx: Vec::new(),
            recorder,
            stats: MemtierStats::default(),
        }
    }

    fn open_conn(&mut self, io: &mut dyn HostIo) {
        let idx = io.connect(self.cfg.vip, self.cfg.port).0 as usize;
        if idx >= self.conns.len() {
            self.conns.resize_with(idx + 1, ConnTracker::default);
        }
        let t = &mut self.conns[idx];
        t.decoder.reset();
        t.outstanding.clear();
        (t.issued, t.completed, t.phase) = (0, 0, Phase::Open);
        self.stats.conns_opened += 1;
    }

    /// Issues a request on `conn`, which `fill_pipeline` found open and
    /// under its quotas.
    fn issue_one(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        let t = &mut self.conns[conn.0 as usize];
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let is_get = self.rng.gen_bool(self.cfg.get_ratio.clamp(0.0, 1.0));
        let key = self.rng.gen_range(0..KEY_COUNT);
        let msg = if is_get {
            KvMessage::get(req_id, key)
        } else {
            KvMessage::set(req_id, key, self.cfg.set_value_len)
        };
        let now = io.now().as_nanos();
        t.outstanding.push((req_id, now, is_get));
        t.issued += 1;
        self.stats.issued += 1;
        if io.span_enabled() {
            // Under DSR the local address of this connection names the
            // client endpoint the dataplane sees, so the trace id here
            // matches the one derived from wire bytes at every hop.
            let (ip, port) = io.local_addr(conn);
            let trace = netpkt::trace_id(u32::from(ip), port, req_id);
            let addr = pack_addr(u32::from(ip), port);
            let b = (u64::from(is_get) << 63) | req_id;
            io.record_hop(now, trace, HopKind::ClientIssue, addr, b);
        }
        self.tx.clear();
        msg.encode_into(&mut self.tx);
        io.send(conn, &self.tx);
    }

    fn fill_pipeline(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        loop {
            let t = &self.conns[conn.0 as usize];
            if t.phase != Phase::Open || t.outstanding.len() >= self.cfg.pipeline {
                return;
            }
            if self.cfg.requests_per_conn > 0 && t.issued >= self.cfg.requests_per_conn {
                return;
            }
            self.issue_one(io, conn);
        }
    }

    /// Issues the next request, either immediately or after think time.
    fn continue_conn(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        match self.cfg.think_time {
            None => self.fill_pipeline(io, conn),
            Some((lo, hi)) => {
                let span = hi.as_nanos().saturating_sub(lo.as_nanos());
                let extra = if span == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=span)
                };
                let wait = lo + Duration::from_nanos(extra);
                io.arm_app_timer(wait, conn.0 as u64);
            }
        }
    }

    fn maybe_recycle(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        let t = &mut self.conns[conn.0 as usize];
        if self.cfg.requests_per_conn > 0
            && t.completed >= self.cfg.requests_per_conn
            && t.outstanding.is_empty()
            && t.phase == Phase::Open
        {
            t.phase = Phase::Closing;
            self.stats.conns_recycled += 1;
            io.close(conn);
        }
    }
}

impl App for MemtierClient {
    fn on_start(&mut self, io: &mut dyn HostIo) {
        // A reopening takes a new slot while the closed one is reaped.
        self.conns.reserve_exact(self.cfg.connections + 1);
        for _ in 0..self.cfg.connections {
            self.open_conn(io);
        }
    }

    fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        self.fill_pipeline(io, conn);
    }

    fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
        let now = io.now().as_nanos();
        let t = &mut self.conns[conn.0 as usize];
        t.decoder.push(data);
        let spans = io.span_enabled();
        while let Ok(Some(resp)) = t.decoder.next_message() {
            assert!(!resp.is_request, "client received a request");
            let Some(i) = t.outstanding.iter().position(|r| r.0 == resp.request_id) else {
                continue;
            };
            let (_, issued_at, is_get) = t.outstanding.swap_remove(i);
            debug_assert_eq!(
                is_get,
                resp.op == KvOp::Get,
                "response op does not match request"
            );
            t.completed += 1;
            self.stats.completed += 1;
            self.recorder
                .record_response(now, now.saturating_sub(issued_at), is_get);
            if spans {
                // Recorded at the same clock read the recorder uses, so
                // span-derived T_client is bitwise the recorder's latency.
                let (ip, port) = io.local_addr(conn);
                let trace = netpkt::trace_id(u32::from(ip), port, resp.request_id);
                let addr = pack_addr(u32::from(ip), port);
                io.record_hop(now, trace, HopKind::ClientConsume, addr, resp.request_id);
            }
        }
        self.continue_conn(io, conn);
        self.maybe_recycle(io, conn);
    }

    fn on_closed(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        let t = &mut self.conns[conn.0 as usize];
        if t.phase == Phase::Gone {
            return;
        }
        if t.phase == Phase::Open {
            // The client never asked for this close: the connection was
            // reset or aborted underneath the application.
            self.stats.conns_broken += 1;
            self.stats.requests_lost += t.outstanding.len() as u64;
        }
        t.phase = Phase::Gone;
        // Keep the connection count constant: reopen.
        self.open_conn(io);
    }

    fn on_app_timer(&mut self, io: &mut dyn HostIo, token: u64) {
        let conn = ConnId(token as u32);
        self.fill_pipeline(io, conn);
        self.maybe_recycle(io, conn);
    }
}
