//! The key-value server application (the simulated memcached pod).

use netpkt::kv::{KvDecoder, KvMessage, KvOp, KvStatus, KEY_COUNT};
use netsim::rng::component_rng;
use netsim::rng::SimRng;
use netsim::Duration;
use nettcp::{App, ConnId, HostIo};
use telemetry::span::{pack_addr, HopKind};

use crate::service::{DelaySchedule, Nanos, ServiceDist, ServiceModel};

/// App-timer token namespace: a pending response's token is its slot in
/// `KvServerApp::pending`, below `REPORT_TOKEN`; the reporting process
/// uses exactly that token.
const REPORT_TOKEN: u64 = 1 << 60;

/// Value length returned for GETs of keys never SET (a pre-populated
/// cache).
pub const DEFAULT_VALUE_LEN: u32 = 64;

/// Out-of-band reporting agent configuration (§2.3's alternative design,
/// implemented so the in-band vs out-of-band comparison is empirical).
#[derive(Debug, Clone, Copy)]
pub struct OobAgent {
    /// The LB's control address reports are sent to.
    pub control_ip: std::net::Ipv4Addr,
    /// UDP port on the control address.
    pub port: u16,
    /// This backend's id, echoed in each report.
    pub backend_id: u32,
    /// Reporting period — the staleness knob.
    pub period: Duration,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct KvServerConfig {
    /// TCP port to listen on.
    pub port: u16,
    /// Per-request service time.
    pub service: ServiceDist,
    /// Worker parallelism.
    pub workers: usize,
    /// Scripted extra-delay steps (latency injection).
    pub delay_schedule: DelaySchedule,
    /// Optional out-of-band reporting agent.
    pub report: Option<OobAgent>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KvServerConfig {
    fn default() -> Self {
        KvServerConfig {
            port: 11211,
            service: ServiceDist::LogNormal {
                median: 60_000,
                sigma: 0.3,
            },
            workers: 4,
            delay_schedule: DelaySchedule::none(),
            report: None,
            seed: 0,
        }
    }
}

/// Server counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct KvServerStats {
    /// GET requests served.
    pub gets: u64,
    /// SET requests served.
    pub sets: u64,
    /// GETs answered from the "pre-populated" default.
    pub default_hits: u64,
    /// Responses dropped because the connection closed first.
    pub orphaned: u64,
    /// Out-of-band reports sent.
    pub reports_sent: u64,
}

/// One connection slot, indexed by `ConnId`. The host reuses the lowest
/// free `ConnId`, so the table is as long as the peak connection count
/// and a slot's decoder is reused in place.
#[derive(Debug, Default)]
struct ConnSlot {
    decoder: KvDecoder,
    /// Counts the connections that have taken this slot, so a response
    /// pending for one is never written into its successor.
    generation: u64,
    open: bool,
}

/// A response waiting out its service time.
#[derive(Debug)]
struct Pending {
    conn: ConnId,
    /// The connection slot's generation when the request arrived.
    generation: u64,
    resp: KvMessage,
}

/// The key-value server application. One instance per backend host.
pub struct KvServerApp {
    cfg: KvServerConfig,
    model: ServiceModel,
    rng: SimRng,
    /// Value length by key over `0..KEY_COUNT`; `None` was never SET.
    /// Empty until the first SET.
    store: Vec<Option<u32>>,
    conns: Vec<ConnSlot>,
    /// Responses in service, by app-timer token; `None` is free.
    pending: Vec<Option<Pending>>,
    /// Free slots of `pending`.
    free_pending: Vec<usize>,
    /// Encode buffer, reused for every response.
    tx: Vec<u8>,
    /// Recent request residence times (queue + service), for reporting.
    residence: [Nanos; 16],
    residence_len: usize,
    residence_pos: usize,
    /// Counters.
    pub stats: KvServerStats,
}

impl KvServerApp {
    /// Creates the server.
    pub fn new(cfg: KvServerConfig) -> KvServerApp {
        let model = ServiceModel::new(cfg.service, cfg.workers, cfg.delay_schedule.clone());
        let rng = component_rng(cfg.seed, "kv-server");
        KvServerApp {
            cfg,
            model,
            rng,
            store: Vec::new(),
            conns: Vec::new(),
            pending: Vec::new(),
            free_pending: Vec::new(),
            tx: Vec::new(),
            residence: [0; 16],
            residence_len: 0,
            residence_pos: 0,
            stats: KvServerStats::default(),
        }
    }

    /// The median of recently observed request residence times (what the
    /// out-of-band agent reports). Note what this signal *cannot* see:
    /// network delay on the LB→server path.
    pub fn local_latency_estimate(&self) -> Option<Nanos> {
        if self.residence_len == 0 {
            return None;
        }
        let mut sorted = self.residence;
        let w = &mut sorted[..self.residence_len];
        w.sort_unstable();
        Some(w[w.len() / 2])
    }

    fn handle_request(&mut self, io: &mut dyn HostIo, conn: ConnId, req: KvMessage) {
        let now = io.now().as_nanos();
        assert!(
            req.key < KEY_COUNT,
            "key {} is outside the keyspace 0..{KEY_COUNT}",
            req.key
        );
        let key = req.key as usize;
        let resp = match req.op {
            KvOp::Get => {
                self.stats.gets += 1;
                let len = match self.store.get(key) {
                    Some(&Some(len)) => len,
                    _ => {
                        self.stats.default_hits += 1;
                        DEFAULT_VALUE_LEN
                    }
                };
                KvMessage::response_to(&req, KvStatus::Ok, len)
            }
            KvOp::Set => {
                self.stats.sets += 1;
                if self.store.is_empty() {
                    self.store = vec![None; KEY_COUNT as usize];
                }
                self.store[key] = Some(req.body_len);
                KvMessage::response_to(&req, KvStatus::Ok, 0)
            }
        };
        let (start, done) = self.model.admit_timed(now, &mut self.rng);
        if io.span_enabled() {
            // Under DSR the connection's remote address is the client the
            // dataplane saw, so this trace id matches the wire-derived one.
            let (ip, port) = io.remote_addr(conn);
            let trace = netpkt::trace_id(u32::from(ip), port, req.request_id);
            let addr = pack_addr(u32::from(ip), port);
            io.record_hop(now, trace, HopKind::BackendEnqueue, addr, req.request_id);
            // Stamped at the admission-computed instant, not "now" — the
            // gap between the two records is exactly the queueing delay.
            io.record_hop(
                start,
                trace,
                HopKind::BackendServiceStart,
                addr,
                req.request_id,
            );
        }
        self.residence[self.residence_pos] = done.saturating_sub(now);
        self.residence_pos = (self.residence_pos + 1) % self.residence.len();
        self.residence_len = (self.residence_len + 1).min(self.residence.len());
        let entry = Pending {
            conn,
            generation: self.conns[conn.0 as usize].generation,
            resp,
        };
        let slot = match self.free_pending.pop() {
            Some(slot) => {
                self.pending[slot] = Some(entry);
                slot
            }
            None => {
                self.pending.push(Some(entry));
                self.pending.len() - 1
            }
        };
        io.arm_app_timer(Duration::from_nanos(done.saturating_sub(now)), slot as u64);
    }
}

impl App for KvServerApp {
    fn on_start(&mut self, io: &mut dyn HostIo) {
        io.listen(self.cfg.port);
        if let Some(agent) = self.cfg.report {
            io.arm_app_timer(agent.period, REPORT_TOKEN);
        }
    }

    fn on_connected(&mut self, _io: &mut dyn HostIo, conn: ConnId) {
        let idx = conn.0 as usize;
        if idx >= self.conns.len() {
            self.conns.resize_with(idx + 1, ConnSlot::default);
        }
        let slot = &mut self.conns[idx];
        slot.decoder.reset();
        slot.generation += 1;
        slot.open = true;
    }

    fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
        let idx = conn.0 as usize;
        match self.conns.get_mut(idx) {
            Some(slot) if slot.open => slot.decoder.push(data),
            _ => return,
        }
        // Each request is handled as it is framed; the decoder is indexed
        // again per message because handling borrows all of `self`.
        loop {
            match self.conns[idx].decoder.next_message() {
                Ok(Some(req)) => {
                    assert!(req.is_request, "server received a response message");
                    self.handle_request(io, conn, req);
                }
                Ok(None) => break,
                Err(e) => panic!("malformed request stream: {e}"),
            }
        }
    }

    fn on_closed(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        if let Some(slot) = self.conns.get_mut(conn.0 as usize) {
            slot.open = false;
        }
        io.close(conn); // complete the passive close
    }

    fn on_app_timer(&mut self, io: &mut dyn HostIo, token: u64) {
        if token == REPORT_TOKEN {
            if let Some(agent) = self.cfg.report {
                if let Some(lat) = self.local_latency_estimate() {
                    let payload = netpkt::oob::encode_report(agent.backend_id, lat);
                    io.send_datagram(agent.control_ip, agent.port, &payload);
                    self.stats.reports_sent += 1;
                }
                io.arm_app_timer(agent.period, REPORT_TOKEN);
            }
            return;
        }
        let slot = token as usize;
        let Some(Pending {
            conn,
            generation,
            resp,
        }) = self.pending.get_mut(slot).and_then(Option::take)
        else {
            return;
        };
        self.free_pending.push(slot);
        let live = &self.conns[conn.0 as usize];
        if live.open && live.generation == generation {
            if io.span_enabled() {
                let (ip, port) = io.remote_addr(conn);
                let trace = netpkt::trace_id(u32::from(ip), port, resp.request_id);
                let addr = pack_addr(u32::from(ip), port);
                let now = io.now().as_nanos();
                io.record_hop(now, trace, HopKind::BackendRespond, addr, resp.request_id);
            }
            self.tx.clear();
            resp.encode_into(&mut self.tx);
            io.send(conn, &self.tx);
        } else {
            self.stats.orphaned += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::MacAddr;
    use netsim::{LinkConfig, Simulation};
    use nettcp::{Host, HostConfig};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// A minimal client that sends a scripted list of KV requests over one
    /// connection, keeping at most `window` in flight (the next is sent as
    /// a response arrives), and records response latencies.
    struct ScriptClient {
        requests: Vec<KvMessage>,
        window: usize,
        sent: usize,
        issued_at: BTreeMap<u64, u64>,
        latencies: Vec<(u64, Nanos)>,
        /// Response body length by request id.
        body_lens: BTreeMap<u64, u32>,
        decoder: KvDecoder,
        wire: Vec<u8>,
        done: bool,
    }

    impl ScriptClient {
        fn new(requests: Vec<KvMessage>, window: usize) -> Self {
            ScriptClient {
                requests,
                window,
                sent: 0,
                issued_at: BTreeMap::new(),
                latencies: Vec::new(),
                body_lens: BTreeMap::new(),
                decoder: KvDecoder::new(),
                wire: Vec::new(),
                done: false,
            }
        }

        fn send_next(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            let Some(req) = self.requests.get(self.sent) else {
                return;
            };
            self.sent += 1;
            self.issued_at.insert(req.request_id, io.now().as_nanos());
            self.wire.clear();
            req.encode_into(&mut self.wire);
            io.send(conn, &self.wire);
        }
    }

    impl App for ScriptClient {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.connect(SERVER_IP, 11211);
        }
        fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            while self.sent < self.window.min(self.requests.len()) {
                self.send_next(io, conn);
            }
        }
        fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
            self.decoder.push(data);
            while let Ok(Some(resp)) = self.decoder.next_message() {
                let issued = self.issued_at[&resp.request_id];
                self.latencies
                    .push((resp.request_id, io.now().as_nanos() - issued));
                self.body_lens.insert(resp.request_id, resp.body_len);
                self.send_next(io, conn);
                if self.latencies.len() == self.requests.len() {
                    self.done = true;
                    io.close(conn);
                }
            }
        }
    }

    /// Runs `client` against a server built from `cfg` for 30 simulated
    /// seconds, then hands both applications to `inspect`.
    fn run_with<A: App, R>(
        cfg: KvServerConfig,
        client: A,
        inspect: impl FnOnce(&A, &KvServerApp) -> R,
    ) -> R {
        let mut sim = Simulation::new();
        let c = sim.reserve_node("client");
        let s = sim.reserve_node("server");
        let link = LinkConfig::new(1_000_000_000, Duration::from_micros(20), 1 << 20);
        let l = sim.add_link(c, s, link);
        sim.install_node(
            c,
            Box::new(Host::new(
                HostConfig::new(CLIENT_IP, 1),
                MacAddr::from_id(1),
                l,
                Box::new(client),
            )),
        );
        sim.install_node(
            s,
            Box::new(Host::new(
                HostConfig::new(SERVER_IP, 2),
                MacAddr::from_id(2),
                l,
                Box::new(KvServerApp::new(cfg)),
            )),
        );
        sim.run_for(Duration::from_secs(30));
        let client = sim.node_ref::<Host>(c).unwrap().app_ref::<A>().unwrap();
        let server = sim.node_ref::<Host>(s).unwrap();
        inspect(client, server.app_ref::<KvServerApp>().unwrap())
    }

    fn run_script(
        cfg: KvServerConfig,
        requests: Vec<KvMessage>,
    ) -> (Vec<(u64, Nanos)>, KvServerStats) {
        run_with(
            cfg,
            ScriptClient::new(requests, usize::MAX),
            |app, server| {
                assert!(app.done, "client did not finish");
                (app.latencies.clone(), server.stats)
            },
        )
    }

    #[test]
    fn get_and_set_round_trip() {
        let cfg = KvServerConfig {
            service: ServiceDist::Constant(100_000),
            workers: 1,
            ..KvServerConfig::default()
        };
        // Key 42, then both ends of the keyspace.
        let last = KEY_COUNT - 1;
        let reqs = vec![
            KvMessage::set(1, 42, 100),
            KvMessage::get(2, 42),
            KvMessage::get(3, 7),
            KvMessage::set(4, 0, 11),
            KvMessage::set(5, last, 22),
            KvMessage::get(6, 0),
            KvMessage::get(7, last),
        ];
        let (lat, lens, stats) =
            run_with(cfg, ScriptClient::new(reqs, usize::MAX), |app, server| {
                (app.latencies.clone(), app.body_lens.clone(), server.stats)
            });
        assert_eq!(lat.len(), 7);
        assert_eq!((stats.sets, stats.gets), (3, 4));
        assert_eq!(stats.default_hits, 1, "key 7 was never SET");
        let got: Vec<u32> = [2, 3, 6, 7].iter().map(|id| lens[id]).collect();
        assert_eq!(got, [100, DEFAULT_VALUE_LEN, 11, 22]);
        // Every request took at least the service time.
        for &(_, l) in &lat {
            assert!(l >= 100_000, "latency {l} below service time");
        }
    }

    #[test]
    fn queueing_grows_latency_single_worker() {
        let cfg = KvServerConfig {
            service: ServiceDist::Constant(200_000),
            workers: 1,
            ..KvServerConfig::default()
        };
        // 5 pipelined requests through one worker: the k-th waits for k-1.
        let reqs: Vec<KvMessage> = (0..5).map(|i| KvMessage::get(i, i)).collect();
        let (mut lat, _) = run_script(cfg, reqs);
        lat.sort_by_key(|&(id, _)| id);
        assert!(lat[4].1 >= 5 * 200_000, "no queueing visible: {:?}", lat);
        assert!(lat[0].1 < 2 * 200_000 + 1_000_000);
    }

    #[test]
    fn more_workers_cut_queueing() {
        let reqs: Vec<KvMessage> = (0..8).map(|i| KvMessage::get(i, i)).collect();
        let slow_cfg = KvServerConfig {
            service: ServiceDist::Constant(200_000),
            workers: 1,
            ..KvServerConfig::default()
        };
        let fast_cfg = KvServerConfig {
            workers: 8,
            ..slow_cfg.clone()
        };
        let (lat1, _) = run_script(slow_cfg, reqs.clone());
        let (lat8, _) = run_script(fast_cfg, reqs);
        let max1 = lat1.iter().map(|&(_, l)| l).max().unwrap();
        let max8 = lat8.iter().map(|&(_, l)| l).max().unwrap();
        assert!(max8 * 3 < max1, "parallel {max8} vs serial {max1}");
    }

    #[test]
    fn delay_injection_visible_from_client() {
        let cfg = KvServerConfig {
            service: ServiceDist::Constant(50_000),
            workers: 4,
            delay_schedule: DelaySchedule::step(0, 1_000_000),
            ..KvServerConfig::default()
        };
        let (lat, _) = run_script(cfg, vec![KvMessage::get(1, 1)]);
        assert!(
            lat[0].1 >= 1_050_000,
            "injected delay missing: {}",
            lat[0].1
        );
    }

    #[test]
    #[should_panic(expected = "key 10000 is outside the keyspace 0..10000")]
    fn a_key_outside_the_keyspace_panics_and_names_it() {
        run_script(
            KvServerConfig::default(),
            vec![KvMessage::get(1, KEY_COUNT)],
        );
    }

    #[test]
    fn gets_before_any_set_are_default_hits_and_allocate_no_store() {
        let reqs = vec![KvMessage::get(1, 0), KvMessage::get(2, KEY_COUNT - 1)];
        let (lens, stats, store_len) = run_with(
            KvServerConfig::default(),
            ScriptClient::new(reqs, usize::MAX),
            |app, server| (app.body_lens.clone(), server.stats, server.store.len()),
        );
        assert_eq!(stats.default_hits, 2);
        assert!(lens.values().all(|&len| len == DEFAULT_VALUE_LEN));
        assert_eq!(store_len, 0, "the store is allocated by the first SET");
    }

    #[test]
    fn pending_slots_are_reused_across_many_requests() {
        let window = 4;
        let reqs: Vec<KvMessage> = (0..10_000)
            .map(|i| KvMessage::get(i, i % KEY_COUNT))
            .collect();
        let slots = run_with(
            KvServerConfig::default(),
            ScriptClient::new(reqs, window),
            |app, server| {
                assert!(app.done, "client did not finish");
                server.pending.len()
            },
        );
        assert!(
            (1..=window).contains(&slots),
            "{slots} pending slots for at most {window} requests in flight"
        );
    }

    /// Sends one GET, closes before the response is due, then reconnects
    /// after `REOPEN_AFTER` and sends a second GET.
    #[derive(Default)]
    struct Reconnector {
        connections: u32,
        decoder: KvDecoder,
        /// `(connection ordinal, request id)` of every response received.
        responses: Vec<(u32, u64)>,
    }

    const REOPEN_AFTER: Duration = Duration::from_millis(1);

    impl App for Reconnector {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.connect(SERVER_IP, 11211);
        }
        fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            self.connections += 1;
            self.decoder.reset();
            let mut wire = Vec::new();
            KvMessage::get(u64::from(self.connections), 1).encode_into(&mut wire);
            io.send(conn, &wire);
            if self.connections == 1 {
                io.close(conn);
                io.arm_app_timer(REOPEN_AFTER, 0);
            }
        }
        fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, data: &[u8]) {
            self.decoder.push(data);
            while let Ok(Some(resp)) = self.decoder.next_message() {
                self.responses.push((self.connections, resp.request_id));
            }
        }
        fn on_app_timer(&mut self, io: &mut dyn HostIo, _token: u64) {
            io.connect(SERVER_IP, 11211);
        }
    }

    #[test]
    fn a_response_is_never_written_into_the_next_connection_in_its_slot() {
        let cfg = KvServerConfig {
            service: ServiceDist::Constant(5_000_000),
            workers: 1,
            ..KvServerConfig::default()
        };
        let (responses, stats, slots) = run_with(cfg, Reconnector::default(), |app, server| {
            (app.responses.clone(), server.stats, server.conns.len())
        });
        assert_eq!(
            slots, 1,
            "the second connection must reuse the first's slot"
        );
        assert_eq!(
            stats.orphaned, 1,
            "the first request's response is orphaned"
        );
        assert_eq!(
            responses,
            vec![(2, 2)],
            "only the second request is answered"
        );
    }
}
