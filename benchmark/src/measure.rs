//! One repetition: build the topology, step it through its simulated span,
//! and harvest everything the metrics and self-checks need.

use backend::KvServerApp;
use lb_dataplane::LbNode;
use netsim::blaster::Blaster;
use netsim::{Duration, Time};
use nettcp::Host;
use workload::MemtierClient;

use crate::host::{alloc_calls, now_ns, runq_wait_ns, set_alloc_counting};
use crate::stats::quantile_sorted;
use crate::topo::{build, Installer, Sink, Spec, Topo};

/// The latency limit behind `in_limit_share`: five times the undisturbed
/// median, and what the 1 ms injected delay pushes a request past.
pub const LIMIT_NS: u64 = 1_000_000;
/// The window after `t_d` in which `net_congest`'s first burst must bite.
const BURST_WINDOW_MS: u64 = 200;
/// Hop records serialised for `telemetry.export_s` (the journal is
/// exported whole); a full span log would need gigabytes of text.
const EXPORT_HOPS: usize = 1_000_000;

/// Everything simulated that one repetition produced. A pure function of
/// `(spec, seed)`: repetitions, the traced pass and — for `kv_observed` —
/// the unobserved twin must agree on every field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimOutcome {
    pub events: u64,
    pub packets: u64,
    pub timers: u64,
    pub issued: u64,
    pub completed: u64,
    pub lost: u64,
    pub lost_before_td: u64,
    pub client_conns_opened: u64,
    pub conns_broken: u64,
    pub req_p50_ns: u64,
    pub req_p99_ns: u64,
    pub get_p95_after_ns: u64,
    pub gets_after: u64,
    pub over_limit: u64,
    /// Completed in `[t_d / 2, t_d)`: the steady state the disturbance
    /// hits, start-up transient excluded.
    pub settled_before_td: u64,
    pub over_limit_before_td: u64,
    pub completed_in_burst: u64,
    pub over_limit_in_burst: u64,
    /// 1 ms steps from `t_d` until every LB held backend 0 at or below
    /// half its fair share; the rest of the span when it never happened.
    pub react_ms: u64,
    pub react_censored: bool,
    pub lb_rx: u64,
    pub lb_samples: u64,
    pub lb_new_flows: u64,
    pub ejections: u64,
    pub readmissions: u64,
    pub flows_repinned: u64,
    pub backend_served: u64,
    pub host_packets_in: u64,
    pub host_conns_opened: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub link_drops: u64,
    pub bottleneck_drops: u64,
    pub blaster_sent: u64,
    pub sink_got: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl SimOutcome {
    /// Requests whose fate is known: in-flight ones at the end of the
    /// span are neither delivered nor failed.
    pub fn settled(&self) -> u64 {
        self.completed + self.lost
    }

    pub fn in_flight(&self) -> u64 {
        self.issued - self.settled()
    }
}

/// What the recorders held after a repetition (zero with recorders off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Recorded {
    pub journal_events: u64,
    pub journal_overflow: u64,
    pub hops: u64,
    pub spans_dropped: u64,
}

/// One repetition's host-side measurements and simulated outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub outcome: SimOutcome,
    pub recorded: Recorded,
    pub setup_ns: u64,
    pub wall_ns: u64,
    /// Wall time of each 1 ms step of the simulated span; sums to
    /// `wall_ns` (a step longer than 4.29 s saturates).
    pub step_ns: Vec<u32>,
    pub runq_wait_ns: u64,
    /// Allocation calls during the run (0 unless counting was asked for).
    pub allocs: u64,
    /// Seconds to serialise the recorders to NDJSON (0 unless asked for).
    pub export_s: f64,
}

impl Rep {
    pub fn req_per_wall_s(&self) -> f64 {
        self.outcome.completed as f64 / (self.wall_ns as f64 / 1e9)
    }

    pub fn runq_wait_share(&self) -> f64 {
        self.runq_wait_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// What to do beyond the timed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Extras {
    pub count_allocs: bool,
    pub export: bool,
}

/// Wall time of building `spec`'s topology once, in nanoseconds.
pub fn time_setup(spec: &Spec, seed: u64) -> u64 {
    let t0 = now_ns();
    let topo = build(spec, seed, &Installer::bare());
    let ns = now_ns() - t0;
    drop(topo);
    ns
}

/// Runs one repetition of `spec` under `seed`.
pub fn run_rep(spec: &Spec, seed: u64, inst: &Installer, extras: Extras) -> Rep {
    let t0 = now_ns();
    let mut topo = build(spec, seed, inst);
    let setup_ns = now_ns() - t0;

    let fair_half = 1.0 / (2.0 * spec.backends as f64);
    let mut react_ms = None;
    let mut lost_before_td = 0;

    let mut step_ns: Vec<u32> = Vec::with_capacity(spec.sim_ms as usize);
    // The /proc reads allocate, and how often depends on the digits in
    // the file: they stay outside the counted window.
    let runq0 = runq_wait_ns();
    set_alloc_counting(extras.count_allocs);
    let allocs0 = alloc_calls();
    let wall0 = now_ns();
    // 1 ms steps: the event order is the one a single `run_until` gives,
    // between steps the LBs' weights can be read from outside, and each
    // step's wall time is kept for the interference-free composite.
    let mut last = wall0;
    for ms in 1..=spec.sim_ms {
        topo.sim.run_until(Time::ZERO + Duration::from_millis(ms));
        if ms == spec.t_d_ms {
            lost_before_td = clients(&topo, inst).map(|c| c.stats.requests_lost).sum();
        }
        if ms > spec.t_d_ms && react_ms.is_none() {
            let reacted = topo
                .lbs
                .iter()
                .all(|&lb| inst.node_ref::<LbNode>(&topo.sim, lb).weights().get(0) <= fair_half);
            if reacted {
                react_ms = Some(ms - spec.t_d_ms);
            }
        }
        let t = now_ns();
        step_ns.push(u32::try_from(t - last).unwrap_or(u32::MAX));
        last = t;
    }
    let wall_ns = last - wall0;
    let allocs = alloc_calls() - allocs0;
    set_alloc_counting(false);
    let runq_wait_ns = runq_wait_ns() - runq0;

    let outcome = harvest(spec, &topo, inst, react_ms, lost_before_td);
    let recorded = recorded(&topo, inst);
    let export_s = if extras.export {
        export_seconds(&mut topo, inst)
    } else {
        0.0
    };
    Rep {
        outcome,
        recorded,
        setup_ns,
        wall_ns,
        step_ns,
        runq_wait_ns,
        allocs,
        export_s,
    }
}

fn clients<'a>(topo: &'a Topo, inst: &'a Installer) -> impl Iterator<Item = &'a MemtierClient> {
    topo.clients
        .iter()
        .map(move |&c| inst.app_ref::<MemtierClient>(&topo.sim, c))
}

fn harvest(
    spec: &Spec,
    topo: &Topo,
    inst: &Installer,
    react_ms: Option<u64>,
    lost_before_td: u64,
) -> SimOutcome {
    let sim = &topo.sim;
    let t_d = spec.t_d_ms * 1_000_000;
    let burst_end = t_d + BURST_WINDOW_MS * 1_000_000;
    let stats = sim.stats();
    let mut o = SimOutcome {
        events: stats.events_processed,
        packets: stats.packets_delivered,
        timers: stats.timers_fired,
        lost_before_td,
        react_ms: react_ms.unwrap_or(spec.sim_ms - spec.t_d_ms),
        react_censored: react_ms.is_none(),
        pool_hits: sim.pool_stats().hits,
        pool_misses: sim.pool_stats().misses,
        ..SimOutcome::default()
    };

    let mut all = Vec::new();
    let mut gets_after = Vec::new();
    for client in clients(topo, inst) {
        o.issued += client.stats.issued;
        o.completed += client.stats.completed;
        o.lost += client.stats.requests_lost;
        o.client_conns_opened += client.stats.conns_opened;
        o.conns_broken += client.stats.conns_broken;
        let raw = client.recorder.raw();
        assert_eq!(
            raw.len() as u64,
            client.recorder.responses,
            "the client's raw sample cap truncated the latency record"
        );
        for &(at, latency, is_get) in raw {
            let over = u64::from(latency > LIMIT_NS);
            all.push(latency);
            o.over_limit += over;
            if at < t_d {
                if at >= t_d / 2 {
                    o.settled_before_td += 1;
                    o.over_limit_before_td += over;
                }
            } else {
                if is_get {
                    gets_after.push(latency);
                }
                if at < burst_end {
                    o.completed_in_burst += 1;
                    o.over_limit_in_burst += over;
                }
            }
        }
    }
    all.sort_unstable();
    gets_after.sort_unstable();
    o.req_p50_ns = quantile_sorted(&all, 0.50);
    o.req_p99_ns = quantile_sorted(&all, 0.99);
    o.get_p95_after_ns = quantile_sorted(&gets_after, 0.95);
    o.gets_after = gets_after.len() as u64;

    for &lb in &topo.lbs {
        let s = inst.node_ref::<LbNode>(sim, lb).stats();
        o.lb_rx += s.rx;
        o.lb_samples += s.samples;
        o.lb_new_flows += s.new_flows;
        o.ejections += s.ejections;
        o.readmissions += s.readmissions;
        o.flows_repinned += s.flows_repinned;
    }
    for &h in topo.clients.iter().chain(&topo.backends) {
        let s = inst.node_ref::<Host>(sim, h).stats;
        o.host_packets_in += s.packets_in;
        o.host_conns_opened += s.conns_opened;
        o.retransmits += s.retransmits;
        o.timeouts += s.timeouts;
    }
    for &b in &topo.backends {
        let s = inst.app_ref::<KvServerApp>(sim, b).stats;
        o.backend_served += s.gets + s.sets;
    }
    for &l in &topo.links {
        let link = sim.link(l);
        o.link_drops += link.ab.stats.packets_dropped + link.ba.stats.packets_dropped;
    }
    if let Some((l, from)) = topo.bottleneck {
        o.bottleneck_drops = sim.link(l).dir(from).stats.packets_dropped;
    }
    if let Some(b) = topo.blaster {
        o.blaster_sent = inst.node_ref::<Blaster>(sim, b).sent;
    }
    if let Some(s) = topo.sink {
        o.sink_got = inst.node_ref::<Sink>(sim, s).got;
    }
    o
}

fn recorded(topo: &Topo, inst: &Installer) -> Recorded {
    let mut r = Recorded {
        hops: topo.sim.spans().len() as u64,
        spans_dropped: topo.sim.spans().dropped(),
        ..Recorded::default()
    };
    for &lb in &topo.lbs {
        let journal = inst.node_ref::<LbNode>(&topo.sim, lb).journal();
        r.journal_events += journal.len() as u64;
        r.journal_overflow += journal.overflow();
    }
    r
}

/// Serialises the journal(s) and the first [`EXPORT_HOPS`] hop records as
/// the repo's tools do, and returns the seconds it took.
fn export_seconds(topo: &mut Topo, inst: &Installer) -> f64 {
    let t0 = now_ns();
    let mut bytes = 0usize;
    for &lb in &topo.lbs {
        bytes += inst
            .node_ref::<LbNode>(&topo.sim, lb)
            .journal()
            .to_ndjson()
            .len();
    }
    let mut hops = topo.sim.take_span_records();
    hops.truncate(EXPORT_HOPS);
    telemetry::span::sort_records(&mut hops);
    bytes += telemetry::span::to_ndjson(&hops).len();
    std::hint::black_box(bytes);
    (now_ns() - t0) as f64 / 1e9
}
