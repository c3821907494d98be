//! Whole-stack determinism regression (the static gate's runtime
//! counterpart).
//!
//! The static gate (`cargo clippy --workspace`, rules D1–D3 in DESIGN.md
//! §6.9) bans the *sources* of nondeterminism — wall clocks, ambient
//! entropy, hash-order iteration. This test checks the *outcome*: the
//! complete packet-event trace of a full cluster run is a pure function
//! of the seed. Unlike the client-side checks in `dsr_invariants.rs`, a trace
//! hash covers every send, delivery, and drop at every node, so even a
//! reordering that cancels out in the aggregates fails here.

use experiments::chaos::ChaosConfig;
use experiments::fig3::Fig3Config;
use experiments::KvCluster;
use lb_dataplane::{LbNode, LbStats};
use lbcore::GossipConfig;
use netsim::Duration;
use telemetry::{fnv1a, FNV_OFFSET, SIM_FNV_PRIME};

/// A finished simulation's packet-trace digest; a truncated trace fails.
fn digest(sim: &netsim::Simulation) -> (u64, usize) {
    let trace = sim.trace();
    assert_eq!(trace.truncated, 0, "trace buffer too small for the run");
    trace.digest()
}

/// One LB's counter record: its [`LbStats`] plus an FNV-1a over the bit
/// patterns of backend 0's weight history. Trace hashes pin the packet
/// schedule; this pins the counters the schedule does not depend on
/// (`samples`, `table_rebuilds`, `flows_repinned`, ...), so a dropped
/// increment fails here.
fn lb_record(lb: &LbNode) -> (LbStats, u64) {
    let h = lb
        .weight_series(0)
        .points()
        .iter()
        .fold(FNV_OFFSET, |h, &(t, w)| {
            let h = fnv1a(SIM_FNV_PRIME, h, &t.to_le_bytes());
            fnv1a(SIM_FNV_PRIME, h, &w.to_bits().to_le_bytes())
        });
    (lb.stats(), h)
}

/// The simulator's own counters for a run: `(events_processed,
/// packets_delivered, timers_fired, timers_cancelled)`. Pinned beside
/// the `LbStats` records: the packet count is the schedule's, and the
/// events and timers say what the run cost to dispatch. A change that
/// moves one edits the pin and says why.
fn sim_counts(sim: &netsim::Simulation) -> (u64, u64, u64, u64) {
    let s = sim.stats();
    (
        s.events_processed,
        s.packets_delivered,
        s.timers_fired,
        s.timers_cancelled,
    )
}

/// Runs `cfg`'s latency-aware tier with packet tracing on.
fn traced(cfg: &Fig3Config) -> KvCluster {
    let mut cluster = KvCluster::build(cfg.cluster(true));
    cluster.sim.enable_trace(1 << 21);
    cluster.run(&cfg.timeline());
    cluster
}

/// Runs the Fig. 3 cluster for `sim_ms` with packet tracing on, with a
/// mid-run perturbation so the controller path (weight shifts, table
/// rebuilds) is inside the hashed window too.
fn fig3_cluster(seed: u64, sim_ms: u64) -> KvCluster {
    traced(&Fig3Config {
        duration: Duration::from_millis(sim_ms),
        inject_at: Duration::from_millis(sim_ms / 2),
        seed,
        ..Fig3Config::default()
    })
}

/// Digests the packet trace of [`fig3_cluster`].
fn trace_hash(seed: u64, sim_ms: u64) -> (u64, usize) {
    digest(&fig3_cluster(seed, sim_ms).sim)
}

/// Runs the chaos scenario — backend crash + restart with packet
/// corruption/duplication/reordering on the survivor's path — with
/// packet tracing on. Exercises every fault-injection code path:
/// scheduled node down/up, impairment RNG draws, health ejection, flow
/// re-pinning, and probation readmission.
fn chaos_cluster(seed: u64) -> KvCluster {
    let cfg = ChaosConfig {
        duration: Duration::from_millis(1800),
        crash_at: Duration::from_millis(400),
        restart_at: Duration::from_millis(900),
        impair: Some(netsim::ImpairmentConfig::light(0xFA11)),
        bin: Duration::from_millis(250),
        seed,
    };
    let mut cluster = KvCluster::build(cfg.cluster(true));
    cluster.sim.enable_trace(1 << 21);
    cluster.run(&cfg.timeline());
    cluster
}

fn chaos_trace_hash(seed: u64) -> (u64, usize) {
    digest(&chaos_cluster(seed).sim)
}

/// Runs the 4-LB ECMP-sharded tier with weight gossip enabled for
/// `sim_ms` with packet tracing on. Covers the rendezvous ECMP router
/// stage, per-shard feedback, and the driver-stepped gossip rounds
/// (which must not perturb the packet schedule — gossip is pure
/// control-plane state).
fn multilb_cluster(seed: u64, sim_ms: u64) -> KvCluster {
    traced(&Fig3Config {
        duration: Duration::from_millis(sim_ms),
        inject_at: Duration::from_millis(sim_ms / 2),
        bin: Duration::from_millis(250),
        seed,
        lbs: 4,
        gossip: Some(GossipConfig::default()),
        ..Fig3Config::default()
    })
}

fn multilb_trace_hash(seed: u64, sim_ms: u64) -> (u64, usize) {
    digest(&multilb_cluster(seed, sim_ms).sim)
}

/// Runs EXP-CONGESTION's cluster for 600 ms with packet tracing on:
/// backend 0 has the faster servers behind a 150 Mb/s bottleneck, and a
/// UDP blaster offers 200 Mb/s of 256-byte datagrams in 20 ms bursts
/// every 60 ms. The bottleneck queue holds a few hundred frames during a
/// burst and drop-tail discards the overflow, so hundreds of deliveries
/// are in flight on one link at once.
fn congestion_cluster(seed: u64) -> KvCluster {
    let cfg = Fig3Config {
        duration: Duration::from_millis(600),
        seed,
        ..Fig3Config::default()
    };
    let mut cluster_cfg = cfg.cluster(true);
    for (backend, median) in [(0, 40_000), (1, 80_000)] {
        cluster_cfg.backends[backend].service =
            backend::ServiceDist::LogNormal { median, sigma: 0.3 };
    }
    cluster_cfg.congestion = Some(experiments::kv::CongestionConfig {
        backend: 0,
        bottleneck_bps: 150_000_000,
        queue_bytes: 64 * 1024,
        blaster: netsim::blaster::BlasterConfig {
            rate_bps: 200_000_000,
            payload: 256,
            duty_cycle: Some((Duration::from_millis(20), Duration::from_millis(40))),
            ..netsim::blaster::BlasterConfig::default()
        },
    });
    let mut cluster = KvCluster::build(cluster_cfg);
    cluster.sim.enable_trace(1 << 22);
    cluster.run(&experiments::kv::Timeline {
        duration: cfg.duration,
        ..experiments::kv::Timeline::default()
    });
    cluster
}

/// Runs the Fig. 2 bulk-transfer scenario (one window-limited TCP flow
/// through the LB) for 300 ms with packet tracing on. Covers the nettcp
/// retransmit/ACK machinery and the LB forwarding path without the KV
/// application on top.
fn bulk_sim(seed: u64) -> netsim::Simulation {
    use experiments::{BacklogScenario, BacklogScenarioConfig};
    let mut cfg = BacklogScenarioConfig::fig2_defaults();
    cfg.seed = seed;
    let mut scenario = BacklogScenario::build(cfg);
    scenario.sim.enable_trace(1 << 21);
    scenario.sim.run_for(Duration::from_millis(300));
    scenario.sim
}

/// Same seed → bit-identical packet schedule, event for event.
#[test]
fn same_seed_reproduces_the_exact_trace() {
    let (h1, n1) = trace_hash(17, 600);
    let (h2, n2) = trace_hash(17, 600);
    assert!(n1 > 1_000, "implausibly few events: {n1}");
    assert_eq!(n1, n2, "event counts diverged");
    assert_eq!(h1, h2, "trace hashes diverged for the same seed");
}

/// Different seed → a genuinely different run (guards against the hash
/// accidentally ignoring the seeded inputs).
#[test]
fn different_seed_changes_the_trace() {
    let (h1, _) = trace_hash(17, 600);
    let (h2, _) = trace_hash(18, 600);
    assert_ne!(h1, h2, "seed had no effect on the trace");
}

/// Chaos determinism: crash, restart, and probabilistic packet
/// impairment are all driven by seeded state, so the same seed must
/// reproduce the exact packet schedule.
#[test]
fn chaos_same_seed_reproduces_the_exact_trace() {
    let (h1, n1) = chaos_trace_hash(23);
    let (h2, n2) = chaos_trace_hash(23);
    assert!(n1 > 1_000, "implausibly few events: {n1}");
    assert_eq!(n1, n2, "event counts diverged under faults");
    assert_eq!(h1, h2, "trace hashes diverged for the same seed");
}

/// Chaos with a different seed → a genuinely different run.
#[test]
fn chaos_different_seed_changes_the_trace() {
    let (h1, _) = chaos_trace_hash(23);
    let (h2, _) = chaos_trace_hash(24);
    assert_ne!(h1, h2, "seed had no effect on the chaos trace");
}

/// Multi-LB determinism: four shards plus gossip rounds, same seed →
/// bit-identical packet schedule.
#[test]
fn multilb_same_seed_reproduces_the_exact_trace() {
    let (h1, n1) = multilb_trace_hash(17, 600);
    let (h2, n2) = multilb_trace_hash(17, 600);
    assert!(n1 > 1_000, "implausibly few events: {n1}");
    assert_eq!(n1, n2, "event counts diverged across shards");
    assert_eq!(h1, h2, "trace hashes diverged for the same seed");
}

/// Multi-LB with a different seed → a genuinely different run.
#[test]
fn multilb_different_seed_changes_the_trace() {
    let (h1, _) = multilb_trace_hash(17, 600);
    let (h2, _) = multilb_trace_hash(99, 600);
    assert_ne!(h1, h2, "seed had no effect on the multilb trace");
}

// ---------------------------------------------------------------------------
// Pinned trace hashes.
//
// The tests above prove run-to-run stability *within* one build; these
// constants pin the schedule *across* builds. They were captured before
// the hot-path optimization pass (indexed event queue, packet-buffer
// pool, zero-copy parse, rebuild de-cloning) and must never move: a perf
// change that alters any hash has changed packet timing or ordering, not
// just speed. If a *semantic* change legitimately moves a schedule,
// re-pin in the same commit and say why in its message.

/// Fig. 3 KV cluster, seed 17, 600 ms: pinned packet schedule. The
/// multi-LB tier runs through the same driver, so this is also the pin
/// of the tier at N = 1.
#[test]
fn fig3_trace_hash_is_pinned() {
    assert_eq!(
        trace_hash(17, 600),
        (0xa0af_927b_c332_dae6, 787_483),
        "fig3 packet schedule changed",
    );
}

/// Fig. 3 KV cluster, seed 42, 600 ms: pinned LB counters and weight
/// history (see [`lb_record`]).
#[test]
fn fig3_lb_counters_are_pinned() {
    let cluster = fig3_cluster(42, 600);
    assert_eq!(
        lb_record(cluster.lb_node(0)),
        (
            LbStats {
                rx: 78_826,
                forwarded: 78_826,
                new_flows: 204,
                flow_closes: 188,
                samples: 39_405,
                table_rebuilds: 83,
                ..LbStats::default()
            },
            0xe168_5918_d5b7_4e2b
        ),
        "fig3 LB counters or weight history changed",
    );
    // Before connection timers were cancelled instead of fenced (PR 20)
    // this run dispatched (668_253, 393_706, 274_546): the same packets,
    // and 78_091 more events, every one a timer that fired dead.
    assert_eq!(
        sim_counts(&cluster.sim),
        (590_162, 393_706, 196_455, 78_812),
        "fig3 simulator counters changed",
    );
}

/// Chaos crash/restart scenario, seed 23: pinned packet schedule.
#[test]
fn chaos_trace_hash_is_pinned() {
    assert_eq!(
        chaos_trace_hash(23),
        (0x28d8_4f06_7a78_d8c9, 2_070_418),
        "chaos packet schedule changed",
    );
}

/// Chaos with an outage long enough to eject, re-pin, and readmit
/// (crash at 300 ms, restart at 1.5 s, 3 s total), seed 23: pinned LB
/// counters and weight history — the run where `ejections`,
/// `readmissions`, `flows_repinned` and `abort_signals` are non-zero.
#[test]
fn chaos_lb_counters_are_pinned() {
    let cfg = ChaosConfig {
        duration: Duration::from_millis(3000),
        crash_at: Duration::from_millis(300),
        restart_at: Duration::from_millis(1500),
        impair: Some(netsim::ImpairmentConfig::light(0xFA11)),
        bin: Duration::from_millis(250),
        seed: 23,
    };
    let mut cluster = KvCluster::build(cfg.cluster(true));
    cluster.run(&cfg.timeline());
    assert_eq!(
        lb_record(cluster.lb_node(0)),
        (
            LbStats {
                rx: 407_629,
                forwarded: 407_629,
                new_flows: 1_062,
                flow_closes: 1_004,
                samples: 203_795,
                table_rebuilds: 844,
                ejections: 1,
                readmissions: 1,
                flows_repinned: 61,
                abort_signals: 42,
                ..LbStats::default()
            },
            0x8865_554a_00de_d4c4
        ),
        "chaos LB counters or weight history changed",
    );
    // Before PR 20: (3_458_742, 2_035_929, 1_422_760) — the same
    // packets, 406_787 more events, all of them dead timers.
    assert_eq!(
        sim_counts(&cluster.sim),
        (3_051_955, 2_035_929, 1_015_973, 407_555),
        "chaos simulator counters changed",
    );
}

/// Fig. 2 bulk transfer, seed 7, 300 ms: pinned packet schedule,
/// simulator counters and peak queue occupancy. The timer counts hold
/// nettcp's retransmission-timer arm and cancel path on one flow, which
/// no KV pin isolates.
#[test]
fn bulk_trace_hash_is_pinned() {
    let sim = bulk_sim(7);
    assert_eq!(
        digest(&sim),
        (0x3043_0b41_5f00_79ae, 24_742),
        "bulk packet schedule changed",
    );
    assert_eq!(
        (sim_counts(&sim), sim.stats().queue_peak),
        ((17_615, 12_369, 5_246, 4_947), 10),
        "bulk simulator counters or queue peak changed",
    );
}

/// EXP-CONGESTION cluster, seed 42, 600 ms: pinned packet schedule,
/// simulator counters and peak queue occupancy. The run that keeps the
/// event queue deepest: a congested bottleneck with drop-tail losses.
#[test]
fn congestion_trace_hash_is_pinned() {
    let cluster = congestion_cluster(42);
    let drops = cluster
        .sim
        .trace()
        .events()
        .iter()
        .filter(|e| e.kind == netsim::TraceKind::Drop)
        .count();
    assert_eq!(drops, 2_796, "the bottleneck's drop-tail losses changed");
    assert_eq!(
        digest(&cluster.sim),
        (0xcf96_1cf1_f46c_0bc1, 881_068),
        "congestion packet schedule changed",
    );
    assert_eq!(
        (sim_counts(&cluster.sim), cluster.sim.stats().queue_peak),
        ((644_641, 439_127, 205_514, 70_033), 283),
        "congestion simulator counters or queue peak changed",
    );
}

/// Multi-LB tier (4 shards, gossip on), seed 17, 600 ms: pinned packet
/// schedule. Pinned at introduction of the sharded tier; gossip rounds
/// run between event-queue drains, so they are invisible here by
/// construction.
#[test]
fn multilb_trace_hash_is_pinned() {
    let cluster = multilb_cluster(17, 600);
    assert_eq!(
        digest(&cluster.sim),
        (0x6bee_84af_e8da_5035, 715_548),
        "multilb packet schedule changed",
    );
    // Per-shard LB counters (the run that exercises `gossip_merges`):
    // every shard forwards all it receives, merges three gossip rounds,
    // and leaves every other counter at zero.
    let shard = |rx, new_flows, flow_closes, samples, table_rebuilds, weight_hash: u64| {
        let stats = LbStats {
            rx,
            forwarded: rx,
            new_flows,
            flow_closes,
            samples,
            table_rebuilds,
            gossip_merges: 3,
            ..LbStats::default()
        };
        (stats, weight_hash)
    };
    let records: Vec<_> = (0..4).map(|i| lb_record(cluster.lb_node(i))).collect();
    // Weight hashes re-pinned once at PR 21 (before: 0xde05_47b7_862c_d03c,
    // 0x5b05_ce06_13b0_04e8, 0xb0f0_2dd9_1f21_d100, 0xe54c_469c_cf08_8a99):
    // 17 gossip rounds used to snap a shard's 0.9800000000000001 to 0.98
    // — one ulp, under the merge epsilon, so written but never committed
    // or recorded — and later commits recorded the snapped value. A merge
    // under the epsilon now writes nothing. Counters, packet schedule and
    // simulator counts are unmoved.
    assert_eq!(
        records,
        [
            shard(21_524, 55, 49, 10_759, 85, 0x3d9a_aae6_f186_7a2e),
            shard(15_930, 40, 38, 7_964, 78, 0x7b54_ddeb_f580_2e0a),
            shard(16_903, 43, 40, 8_450, 89, 0x1249_f916_ec6a_5cee),
            shard(17_271, 45, 40, 8_633, 72, 0x4e33_f212_7806_6b73),
        ],
        "multilb LB counters or weight history changed",
    );
    // Before PR 20: (607_240, 357_766, 249_470) — the same packets,
    // 70_925 more events, all of them dead timers.
    assert_eq!(
        sim_counts(&cluster.sim),
        (536_315, 357_766, 178_545, 71_616),
        "multilb simulator counters changed",
    );
}

/// Multi-LB tier, seed 99, 600 ms: second pinned seed so a hash change
/// can't hide behind a single lucky collision.
#[test]
fn multilb_trace_hash_is_pinned_seed_99() {
    assert_eq!(
        multilb_trace_hash(99, 600),
        (0x53d7_dd57_5705_65c8, 635_553),
        "multilb packet schedule changed (seed 99)",
    );
}
