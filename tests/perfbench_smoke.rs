//! Smoke test for the perfbench harness: the shortest pinned scenario
//! runs, its counters are sane, the `BENCH_perf.json` document is
//! written byte for byte as pinned, and the simulated side of the measurement is
//! deterministic (same seed → identical simulated counters, however
//! noisy the wall-clock side is).

use bench::harness::{run_scenario, BenchReport, ScenarioResult, SCENARIOS, SCHEMA_VERSION};

/// The cheapest scenario in the pinned set (50 simulated ms in quick
/// mode) — keeps the smoke test inside a normal `cargo test` budget.
const SMOKE_SCENARIO: &str = "netsim_churn";

#[test]
fn quick_scenario_produces_sane_counters() {
    let r = run_scenario(SMOKE_SCENARIO, true, 42).expect("scenario must run");
    assert_eq!(r.name, SMOKE_SCENARIO);
    assert_eq!(r.seed, 42);
    assert!(r.sim_ms > 0, "no simulated time covered");
    assert!(r.events > 0, "no events dispatched");
    assert!(r.packets > 0, "no packets delivered");
    assert!(r.timers > 0, "no timers fired");
    assert!(r.wall_ns > 0, "wall clock did not advance");
    assert!(r.events_per_sec > 0.0);
    assert!(r.sim_packets_per_sec > 0.0);
    // peak_rss_kb is 0 only when /proc/self/status is unreadable; on
    // Linux CI it must be populated.
    #[cfg(target_os = "linux")]
    assert!(r.peak_rss_kb > 0, "VmHWM not read");
}

#[test]
fn same_seed_gives_identical_simulated_counters() {
    let a = run_scenario(SMOKE_SCENARIO, true, 7).expect("first run");
    let b = run_scenario(SMOKE_SCENARIO, true, 7).expect("second run");
    // Wall-clock fields (wall_ns, *_per_sec, peak_rss_kb, alloc_*) are
    // host noise; everything simulated must be bit-identical.
    assert_eq!(a.sim_ms, b.sim_ms);
    assert_eq!(a.events, b.events);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.timers, b.timers);
}

#[test]
fn different_seed_changes_the_workload() {
    // netsim_churn is a fixed ring (the seed only colours addresses), so
    // use the bulk TCP scenario, whose jitter draws come from the seed.
    let a = run_scenario("nettcp_bulk", true, 1).expect("seed 1");
    let b = run_scenario("nettcp_bulk", true, 2).expect("seed 2");
    assert!(
        (a.events, a.packets, a.timers) != (b.events, b.packets, b.timers),
        "seed does not reach the workload: {:?}",
        (a.events, a.packets, a.timers)
    );
}

#[test]
fn multilb_scenario_produces_sane_counters() {
    let r = run_scenario("multilb", true, 42).expect("multilb scenario must run");
    assert_eq!(r.name, "multilb");
    assert!(r.sim_ms > 0, "no simulated time covered");
    assert!(r.events > 0, "no events dispatched");
    assert!(r.packets > 0, "no packets delivered");
    assert!(r.timers > 0, "no timers fired");
    assert!(r.wall_ns > 0, "wall clock did not advance");
}

#[test]
fn multilb_same_seed_gives_identical_simulated_counters() {
    // The multilb driver interleaves gossip rounds with `run_until`
    // steps; the simulated counters must still be a pure function of
    // the seed.
    let a = run_scenario("multilb", true, 7).expect("first run");
    let b = run_scenario("multilb", true, 7).expect("second run");
    assert_eq!(a.sim_ms, b.sim_ms);
    assert_eq!(a.events, b.events);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.timers, b.timers);
}

#[test]
fn report_json_is_byte_exact() {
    // Nothing parses the file back (the harness writes a record), so the
    // writer is pinned on its bytes: a fixed two-scenario report covers
    // the between-entry separators, string escaping, the one-decimal
    // ratios, and counters an f64 could not hold (2^53 + 1, u64::MAX).
    let scenario = |name: &str, events: u64, alloc_bytes: u64| ScenarioResult {
        name: name.to_string(),
        seed: 42,
        sim_ms: 50,
        events,
        packets: 60_000,
        timers: 63_456,
        timers_cancelled: 1_234,
        queue_peak: 77,
        wall_ns: 7_000_000,
        events_per_sec: 17_636_571.44,
        sim_packets_per_sec: 8_571_428.55,
        peak_rss_kb: 10_240,
        alloc_count: 0,
        alloc_bytes,
    };
    let mut report = BenchReport::single(true, scenario("netsim_churn", 123_456, 0));
    report.bench_alloc = false;
    report
        .scenarios
        .push(scenario("quo\"ted\\\n", 9_007_199_254_740_993, u64::MAX));
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    let want = r#"{
  "schema_version": 2,
  "bench_alloc": false,
  "quick": true,
  "scenarios": [
    {
      "name": "netsim_churn",
      "seed": 42,
      "sim_ms": 50,
      "events": 123456,
      "packets": 60000,
      "timers": 63456,
      "timers_cancelled": 1234,
      "queue_peak": 77,
      "wall_ns": 7000000,
      "events_per_sec": 17636571.4,
      "sim_packets_per_sec": 8571428.6,
      "peak_rss_kb": 10240,
      "alloc_count": 0,
      "alloc_bytes": 0
    },
    {
      "name": "quo\"ted\\\n",
      "seed": 42,
      "sim_ms": 50,
      "events": 9007199254740993,
      "packets": 60000,
      "timers": 63456,
      "timers_cancelled": 1234,
      "queue_peak": 77,
      "wall_ns": 7000000,
      "events_per_sec": 17636571.4,
      "sim_packets_per_sec": 8571428.6,
      "peak_rss_kb": 10240,
      "alloc_count": 0,
      "alloc_bytes": 18446744073709551615
    }
  ]
}
"#;
    assert_eq!(report.to_json(), want);
}

#[test]
fn unknown_scenario_is_rejected() {
    let err = run_scenario("no_such_scenario", true, 42).unwrap_err();
    assert!(err.contains("unknown scenario"), "unhelpful error: {err}");
    // The error names the valid set so the CLI stays discoverable.
    for s in SCENARIOS {
        assert!(err.contains(s), "error must list scenario {s}");
    }
}
