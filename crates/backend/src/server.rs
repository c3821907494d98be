//! The key-value server application (the simulated memcached pod).

use std::collections::BTreeMap;

use netpkt::kv::{KvDecoder, KvMessage, KvOp, KvStatus};
use netsim::rng::component_rng;
use netsim::rng::SimRng;
use netsim::Duration;
use nettcp::{App, ConnId, HostIo};
use telemetry::span::{pack_addr, HopKind};

use crate::service::{DelaySchedule, Nanos, ServiceDist, ServiceModel};

/// App-timer token namespace: responses use sequential ids below
/// `REPORT_TOKEN`; the reporting process uses exactly that token.
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

/// The key-value server application. One instance per backend host.
pub struct KvServerApp {
    cfg: KvServerConfig,
    model: ServiceModel,
    rng: SimRng,
    store: BTreeMap<u64, u32>,
    decoders: BTreeMap<ConnId, KvDecoder>,
    /// Decoders of closed connections, reset, for the next ones accepted.
    spare_decoders: Vec<KvDecoder>,
    pending: BTreeMap<u64, (ConnId, KvMessage)>,
    next_token: u64,
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
            store: BTreeMap::new(),
            decoders: BTreeMap::new(),
            spare_decoders: Vec::new(),
            pending: BTreeMap::new(),
            next_token: 1,
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
        let resp = match req.op {
            KvOp::Get => {
                self.stats.gets += 1;
                let len = match self.store.get(&req.key) {
                    Some(&len) => len,
                    None => {
                        self.stats.default_hits += 1;
                        DEFAULT_VALUE_LEN
                    }
                };
                KvMessage::response_to(&req, KvStatus::Ok, len)
            }
            KvOp::Set => {
                self.stats.sets += 1;
                self.store.insert(req.key, req.body_len);
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
        let token = self.next_token;
        self.next_token += 1;
        assert!(token < REPORT_TOKEN, "token space exhausted");
        self.pending.insert(token, (conn, resp));
        io.arm_app_timer(Duration::from_nanos(done.saturating_sub(now)), token);
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
        let decoder = self.spare_decoders.pop().unwrap_or_default();
        self.decoders.insert(conn, decoder);
    }

    fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
        let Some(dec) = self.decoders.get_mut(&conn) else {
            return;
        };
        dec.push(data);
        // Each request is handled as it is framed; the decoder is looked
        // up again per message because handling borrows all of `self`.
        while let Some(dec) = self.decoders.get_mut(&conn) {
            match dec.next_message() {
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
        if let Some(mut decoder) = self.decoders.remove(&conn) {
            decoder.reset();
            self.spare_decoders.push(decoder);
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
        let Some((conn, resp)) = self.pending.remove(&token) else {
            return;
        };
        if self.decoders.contains_key(&conn) {
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
    use std::net::Ipv4Addr;

    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// A minimal client that sends a scripted list of KV requests (all at
    /// once, pipelined) and records response latencies.
    struct ScriptClient {
        requests: Vec<KvMessage>,
        issued_at: BTreeMap<u64, u64>,
        latencies: Vec<(u64, Nanos)>,
        decoder: KvDecoder,
        done: bool,
    }

    impl ScriptClient {
        fn new(requests: Vec<KvMessage>) -> Self {
            ScriptClient {
                requests,
                issued_at: BTreeMap::new(),
                latencies: Vec::new(),
                decoder: KvDecoder::new(),
                done: false,
            }
        }
    }

    impl App for ScriptClient {
        fn on_start(&mut self, io: &mut dyn HostIo) {
            io.connect(SERVER_IP, 11211);
        }
        fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
            let mut wire = Vec::new();
            for req in &self.requests {
                self.issued_at.insert(req.request_id, io.now().as_nanos());
                wire.clear();
                req.encode_into(&mut wire);
                io.send(conn, &wire);
            }
        }
        fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]) {
            self.decoder.push(data);
            while let Ok(Some(resp)) = self.decoder.next_message() {
                let issued = self.issued_at[&resp.request_id];
                self.latencies
                    .push((resp.request_id, io.now().as_nanos() - issued));
                if self.latencies.len() == self.requests.len() {
                    self.done = true;
                    io.close(conn);
                }
            }
        }
    }

    fn run_script(
        cfg: KvServerConfig,
        requests: Vec<KvMessage>,
    ) -> (Vec<(u64, Nanos)>, KvServerStats) {
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
                Box::new(ScriptClient::new(requests)),
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
        let host = sim.node_ref::<Host>(c).unwrap();
        let app = host.app_ref::<ScriptClient>().unwrap();
        let server = sim.node_ref::<Host>(s).unwrap();
        let stats = server.app_ref::<KvServerApp>().unwrap().stats;
        assert!(app.done, "client did not finish");
        (app.latencies.clone(), stats)
    }

    #[test]
    fn get_and_set_round_trip() {
        let cfg = KvServerConfig {
            service: ServiceDist::Constant(100_000),
            workers: 1,
            ..KvServerConfig::default()
        };
        let reqs = vec![
            KvMessage::set(1, 42, 100),
            KvMessage::get(2, 42),
            KvMessage::get(3, 7),
        ];
        let (lat, stats) = run_script(cfg, reqs);
        assert_eq!(lat.len(), 3);
        assert_eq!(stats.sets, 1);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.default_hits, 1, "key 7 was never SET");
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
}
