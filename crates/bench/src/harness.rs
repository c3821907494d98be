//! BENCH-PERF: the reusable perf-bench harness behind the `perfbench`
//! binary.
//!
//! Five pinned macro-scenarios cover the simulator's hot paths from the
//! bottom up — raw event churn (nothing but the queue, links, and packet
//! delivery), a bulk TCP transfer through the LB, the Fig. 3 two-backend
//! KV workload, the chaos crash/restart scenario, and the 4-LB ECMP
//! tier with weight gossip — and each run is
//! summarised as events/sec, simulated-packets/sec, wall time, peak RSS,
//! and (in a binary that installs [`CountingAlloc`]) allocation counts.
//! Results are emitted as a schema-versioned `BENCH_perf.json` so
//! successive PRs append to one comparable perf trajectory.
//!
//! Simulated counters (`events`, `packets`, `timers`, `timers_cancelled`,
//! `queue_peak`, `sim_ms`) are a pure function of the scenario and seed;
//! wall time, RSS, and allocation counts are host measurements and vary
//! run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use experiments::chaos::ChaosConfig;
use experiments::fig3::Fig3Config;
use experiments::{BacklogScenario, BacklogScenarioConfig, KvCluster};
use lbcore::GossipConfig;
use netpkt::{Addresses, MacAddr, Packet, TcpFlags, TcpHeader};
use netsim::fault::ImpairmentConfig;
use netsim::{Ctx, Duration, LinkConfig, LinkId, Node, SimStats, Simulation, Time, TimerToken};

/// Version of the `BENCH_perf.json` schema this harness emits. Version 2
/// added `timers_cancelled` and `queue_peak` to every scenario.
pub const SCHEMA_VERSION: u32 = 2;

/// The pinned scenario names, in report order.
pub const SCENARIOS: &[&str] = &["netsim_churn", "nettcp_bulk", "fig3_kv", "chaos", "multilb"];

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. The type is always
/// here; *installing* it is the binary's business, because a
/// `#[global_allocator]` is process-wide: `perfbench` installs it under
/// the `bench-alloc` feature, the tier-1 allocation-budget test installs
/// it unconditionally. Counters are process-wide and monotone; callers
/// diff [`alloc_snapshot`]s.
pub struct CountingAlloc;

// The workspace's only `unsafe`, because `GlobalAlloc` is an unsafe trait.
// SAFETY: every method forwards its arguments to `System` unchanged, so
// the caller's guarantees are exactly the ones `System` requires.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// True when this process counts its allocations, i.e. its binary
/// installed [`CountingAlloc`] (nothing gets this far without having
/// allocated).
pub fn alloc_counting_enabled() -> bool {
    ALLOC_CALLS.load(Ordering::Relaxed) > 0
}

/// Cumulative (allocation calls, allocated bytes) so far; zeros in a
/// process that did not install [`CountingAlloc`]. Diff two snapshots to
/// attribute a region.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`);
/// 0 on platforms without procfs. Process-wide high water, not per-run.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

/// One scenario's measurements.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (one of [`SCENARIOS`]).
    pub name: String,
    /// Root seed the scenario ran with.
    pub seed: u64,
    /// Simulated span, in milliseconds.
    pub sim_ms: u64,
    /// Events dispatched by the simulator.
    pub events: u64,
    /// Packets delivered to nodes.
    pub packets: u64,
    /// Timer callbacks fired.
    pub timers: u64,
    /// Timers cancelled before they could fire.
    pub timers_cancelled: u64,
    /// The most events that were ever pending at once.
    pub queue_peak: u64,
    /// Host wall-clock time for the run, in nanoseconds.
    pub wall_ns: u64,
    /// Events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// Simulated packets delivered per wall-clock second.
    pub sim_packets_per_sec: f64,
    /// Peak RSS in kB observed after the run (process high water).
    pub peak_rss_kb: u64,
    /// Allocation calls during the run (0 when not counting).
    pub alloc_count: u64,
    /// Bytes allocated during the run (0 when not counting).
    pub alloc_bytes: u64,
}

/// A full harness report: what `BENCH_perf.json` holds.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Whether the process was counting allocations.
    pub bench_alloc: bool,
    /// Whether the short (`--quick`) scenario variants ran.
    pub quick: bool,
    /// Per-scenario results, in [`SCENARIOS`] order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Wraps a single scenario result in a report.
    pub fn single(quick: bool, r: ScenarioResult) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            bench_alloc: alloc_counting_enabled(),
            quick,
            scenarios: vec![r],
        }
    }
}

/// Runs every pinned scenario and collects the report.
pub fn run_all(quick: bool, seed: u64) -> BenchReport {
    let scenarios = SCENARIOS
        .iter()
        .filter_map(|name| run_scenario(name, quick, seed).ok())
        .collect();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        bench_alloc: alloc_counting_enabled(),
        quick,
        scenarios,
    }
}

/// Runs one named scenario. `quick` selects the short variant used by CI
/// and the smoke test; the full variant is the pinned trajectory point.
pub fn run_scenario(name: &str, quick: bool, seed: u64) -> Result<ScenarioResult, String> {
    let (calls0, bytes0) = alloc_snapshot();
    // The workspace's only host-clock read: wall time is what this
    // harness reports, and nothing simulated ever sees it.
    #[allow(clippy::disallowed_types, clippy::disallowed_methods)]
    let start = std::time::Instant::now();
    let (sim_ms, stats) = match name {
        "netsim_churn" => run_churn(if quick { 50 } else { 1000 }, seed),
        "nettcp_bulk" => run_bulk(if quick { 150 } else { 2000 }, seed),
        "fig3_kv" => run_fig3_kv(if quick { 400 } else { 3000 }, seed, false, false),
        // Same workload with the decision journal / span tracer
        // recording — not in [`SCENARIOS`] (the pinned trajectory), but
        // runnable by name so CI can report observability overhead side
        // by side. With both Off (the pinned `fig3_kv`), the only cost
        // is one branch per would-be hop.
        "fig3_kv_journal" => run_fig3_kv(if quick { 400 } else { 3000 }, seed, true, false),
        "fig3_kv_spans" => run_fig3_kv(if quick { 400 } else { 3000 }, seed, false, true),
        "chaos" => run_chaos(quick, seed),
        "multilb" => run_multilb_bench(if quick { 400 } else { 3000 }, seed),
        other => return Err(format!("unknown scenario '{other}'; known: {SCENARIOS:?}")),
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (calls1, bytes1) = alloc_snapshot();
    let wall_secs = (wall_ns as f64 / 1e9).max(1e-9);
    Ok(ScenarioResult {
        name: name.to_string(),
        seed,
        sim_ms,
        events: stats.events_processed,
        packets: stats.packets_delivered,
        timers: stats.timers_fired,
        timers_cancelled: stats.timers_cancelled,
        queue_peak: stats.queue_peak,
        wall_ns,
        events_per_sec: stats.events_processed as f64 / wall_secs,
        sim_packets_per_sec: stats.packets_delivered as f64 / wall_secs,
        peak_rss_kb: peak_rss_kb(),
        alloc_count: calls1.saturating_sub(calls0),
        alloc_bytes: bytes1.saturating_sub(bytes0),
    })
}

// ---------------------------------------------------------------------------
// Scenarios.

/// Tick period of the churn workload's per-node timer.
const CHURN_TICK: Duration = Duration::from_micros(10);

/// A node in the raw-event-churn scenario: every tick it re-arms its
/// timer and forwards its frame (with the DSR-style L2 rewrite the LB
/// performs per packet, into a pooled buffer) to its ring neighbour, and
/// it recycles every frame it receives, so the run exercises nothing but
/// the event queue, links, packet copies, and delivery.
struct Churner {
    out: LinkId,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    ticks: u64,
    rx: u64,
    frame: Packet,
}

impl Node for Churner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.arm_timer(CHURN_TICK, TimerToken(0));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _link: LinkId, pkt: Packet) {
        self.rx += 1;
        ctx.pool().recycle(pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        self.ticks += 1;
        let pkt = self
            .frame
            .with_macs_pooled(self.src_mac, self.dst_mac, ctx.pool());
        ctx.send(self.out, pkt);
        ctx.arm_timer(CHURN_TICK, TimerToken(0));
    }
}

/// Raw netsim event churn: a ring of nodes exchanging small frames on
/// every timer tick. No transport, no LB — the floor cost of an event.
fn run_churn(sim_ms: u64, seed: u64) -> (u64, SimStats) {
    const NODES: usize = 8;
    let mut sim = Simulation::new();
    let ids: Vec<_> = (0..NODES)
        .map(|i| sim.reserve_node(format!("churn-{i}")))
        .collect();
    let links: Vec<_> = (0..NODES)
        .map(|i| {
            sim.add_link(
                ids[i],
                ids[(i + 1) % NODES],
                LinkConfig::new(10_000_000_000, Duration::from_micros(5), 1 << 20),
            )
        })
        .collect();
    for i in 0..NODES {
        let frame = Packet::build_tcp(
            Addresses {
                src_mac: MacAddr::from_id(i as u32),
                dst_mac: MacAddr::from_id((i as u32 + 1) % NODES as u32),
                src_ip: Ipv4Addr::new(10, 7, (seed % 251) as u8, i as u8),
                dst_ip: Ipv4Addr::new(10, 7, (seed % 251) as u8, ((i + 1) % NODES) as u8),
            },
            &TcpHeader {
                src_port: 40_000 + i as u16,
                dst_port: 9,
                seq: 1,
                ack: 0,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 8192,
            },
            &[0u8; 64],
            64,
            i as u16,
        );
        sim.install_node(
            ids[i],
            Box::new(Churner {
                out: links[i],
                src_mac: MacAddr::from_id(0xe0 + i as u32),
                dst_mac: MacAddr::from_id(0xe1 + i as u32),
                ticks: 0,
                rx: 0,
                frame,
            }),
        );
    }
    sim.run_until(Time::ZERO + Duration::from_millis(sim_ms));
    (sim_ms, sim.stats())
}

/// A window-limited bulk TCP transfer through the LB (the Fig. 2 shape,
/// widened window): the nettcp + LB forwarding path under load.
fn run_bulk(sim_ms: u64, seed: u64) -> (u64, SimStats) {
    let mut cfg = BacklogScenarioConfig::fig2_defaults();
    cfg.seed = seed;
    cfg.window_segments = 64;
    let mut scenario = BacklogScenario::build(cfg);
    scenario
        .sim
        .run_until(Time::ZERO + Duration::from_millis(sim_ms));
    (sim_ms, scenario.sim.stats())
}

/// The Fig. 3 two-backend KV workload under the latency-aware LB, with
/// the 1 ms delay injected at the midpoint — the end-to-end macro path
/// (clients, TCP, LB measurement + control, backends).
fn run_fig3_kv(sim_ms: u64, seed: u64, journal: bool, spans: bool) -> (u64, SimStats) {
    let cfg = Fig3Config {
        duration: Duration::from_millis(sim_ms),
        inject_at: Duration::from_millis(sim_ms / 2),
        seed,
        journal: if journal {
            telemetry::JournalMode::Full(1 << 22)
        } else {
            telemetry::JournalMode::Off
        },
        span: if spans {
            telemetry::SpanMode::Full(1 << 22)
        } else {
            telemetry::SpanMode::Off
        },
        ..Fig3Config::default()
    };
    let mut cluster = KvCluster::build(cfg.cluster(true));
    cluster.sim.enable_spans(cfg.span);
    cluster.run(&cfg.timeline());
    (sim_ms, cluster.sim.stats())
}

/// The chaos crash/restart scenario (health ejection + fault layer +
/// impairment draws) under the latency-aware LB.
fn run_chaos(quick: bool, seed: u64) -> (u64, SimStats) {
    let cfg = if quick {
        ChaosConfig {
            duration: Duration::from_millis(1200),
            crash_at: Duration::from_millis(300),
            restart_at: Duration::from_millis(700),
            impair: Some(ImpairmentConfig::light(seed)),
            bin: Duration::from_millis(250),
            seed,
        }
    } else {
        ChaosConfig {
            duration: Duration::from_secs(8),
            crash_at: Duration::from_secs(2),
            restart_at: Duration::from_millis(4500),
            impair: Some(ImpairmentConfig::light(seed)),
            bin: Duration::from_millis(250),
            seed,
        }
    };
    let sim_ms = cfg.duration.as_nanos() / 1_000_000;
    let mut cluster = KvCluster::build(cfg.cluster(true));
    cluster.run(&cfg.timeline());
    (sim_ms, cluster.sim.stats())
}

/// The multi-LB tier: the fig3 KV workload ECMP-sharded over 4
/// latency-aware LBs with weight gossip every 50 ms — the rendezvous
/// router stage, per-shard measurement/control, and the driver-stepped
/// gossip loop, end to end.
fn run_multilb_bench(sim_ms: u64, seed: u64) -> (u64, SimStats) {
    let cfg = Fig3Config {
        duration: Duration::from_millis(sim_ms),
        inject_at: Duration::from_millis(sim_ms / 2),
        bin: Duration::from_millis(sim_ms / 8),
        seed,
        lbs: 4,
        gossip: Some(GossipConfig::default()),
        ..Fig3Config::default()
    };
    let mut cluster = KvCluster::build(cfg.cluster(true));
    cluster.run(&cfg.timeline());
    (sim_ms, cluster.sim.stats())
}

// ---------------------------------------------------------------------------
// JSON: a hand-rolled writer (the workspace vendors no serde). Nothing
// reads the file back: `tests/determinism.rs` pins the simulated
// counters, `lbbench` owns wall-clock, and `BENCH_perf.json` is a record.

impl BenchReport {
    /// Serialises the report as the `BENCH_perf.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"bench_alloc\": {},\n", self.bench_alloc));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&s.name)));
            out.push_str(&format!("      \"seed\": {},\n", s.seed));
            out.push_str(&format!("      \"sim_ms\": {},\n", s.sim_ms));
            out.push_str(&format!("      \"events\": {},\n", s.events));
            out.push_str(&format!("      \"packets\": {},\n", s.packets));
            out.push_str(&format!("      \"timers\": {},\n", s.timers));
            out.push_str(&format!(
                "      \"timers_cancelled\": {},\n",
                s.timers_cancelled
            ));
            out.push_str(&format!("      \"queue_peak\": {},\n", s.queue_peak));
            out.push_str(&format!("      \"wall_ns\": {},\n", s.wall_ns));
            out.push_str(&format!(
                "      \"events_per_sec\": {:.1},\n",
                s.events_per_sec
            ));
            out.push_str(&format!(
                "      \"sim_packets_per_sec\": {:.1},\n",
                s.sim_packets_per_sec
            ));
            out.push_str(&format!("      \"peak_rss_kb\": {},\n", s.peak_rss_kb));
            out.push_str(&format!("      \"alloc_count\": {},\n", s.alloc_count));
            out.push_str(&format!("      \"alloc_bytes\": {}\n", s.alloc_bytes));
            out.push_str(if i + 1 == self.scenarios.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(run_scenario("nope", true, 1).is_err());
    }

    #[test]
    fn churn_scenario_is_deterministic() {
        let (ms_a, a) = run_churn(5, 9);
        let (ms_b, b) = run_churn(5, 9);
        assert_eq!(ms_a, ms_b);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.timers_fired, b.timers_fired);
        assert!(a.events_processed > 0);
    }
}
