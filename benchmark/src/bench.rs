//! The run protocol for one workload: warm-up, timed repetitions behind
//! the noise guard, the traced pass, and the metrics and self-checks
//! derived from them.

use std::fmt::Write as _;
use std::path::Path;

use crate::host::peak_rss_kb;
use crate::json::quote;
use crate::measure::{run_rep, time_setup, Extras, Rep, LIMIT_NS};
use crate::micro::{self, Micro};
use crate::report::{Check, MetricValue, WorkloadResult};
use crate::spec::{BenchSpec, MetricDef};
use crate::stats::Quartiles;
use crate::topo::{Disturbance, Installer, Spec};
use crate::trace::{SpanName, Tracer};

/// A repetition that waited for a CPU longer than this share of its wall
/// time is re-run (at most as many re-runs as repetitions).
const RUNQ_WAIT_LIMIT: f64 = 0.02;
/// Topology builds timed for `setup_s` before every repetition, the
/// repetition's own besides: a build takes tens of microseconds, so the
/// samples are spread over the whole run to see the same mix of host
/// states every run does.
const SETUPS_PER_REP: usize = 24;
/// Unobserved twins of `kv_observed` a traced run times for
/// `telemetry.overhead_share`, against as many observed repetitions;
/// otherwise one twin serves the observer-effect check.
const TWIN_REPS_TRACED: usize = 5;

/// The wall time the simulated span would take with no interference: for
/// each 1 ms step of simulated time, the fastest any repetition ran it.
/// Every repetition runs the identical event sequence, so step `k` is the
/// same work in each, and whatever the host did to one repetition's step
/// (a neighbour on the core, a cache flush) the others need not share.
/// The sandbox's per-repetition times drift by 30 %; this composite
/// repeats within a few per cent. A minimum falls as samples are added, so
/// composites compare only over the same number of repetitions: the count
/// is frozen per workload (`Spec::reps`).
fn composite_wall_ns(reps: &[&Rep]) -> u64 {
    let steps = reps.iter().map(|r| r.step_ns.len()).min().unwrap_or(0);
    (0..steps)
        .map(|k| {
            reps.iter()
                .map(|r| u64::from(r.step_ns[k]))
                .min()
                .unwrap_or(0)
        })
        .sum()
}

/// Requests per composite wall second over `reps`.
fn composite_rate(reps: &[&Rep]) -> f64 {
    let completed = reps.first().map_or(0, |r| r.outcome.completed);
    completed as f64 / (composite_wall_ns(reps).max(1) as f64 / 1e9)
}

/// How far `estimate` over the even-numbered samples disagrees with
/// `estimate` over the odd-numbered ones, as a share of `estimate` over
/// all of them: the run-to-run spread as seen from inside one run.
fn split_half_spread<T: Copy>(samples: &[T], estimate: impl Fn(&[T]) -> f64) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let half = |parity| {
        let picked: Vec<T> = samples.iter().copied().skip(parity).step_by(2).collect();
        estimate(&picked)
    };
    (half(0) - half(1)).abs() / estimate(samples)
}

fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Runs `spec` under `seed` and reports it. `trace_dir` set means the
/// traced pass and the micro-drivers run too and the trace file is written
/// there.
pub fn run_workload(
    spec: &Spec,
    seed: u64,
    trace_dir: Option<&Path>,
    contract: &BenchSpec,
) -> WorkloadResult {
    let bare = Installer::bare();
    let mut checks = Vec::new();

    // `kv_observed` only: the same workload with recorders off, for the
    // observer-effect check and, on a traced run, the recorders' cost.
    let twin = || run_rep(&spec.unobserved(), seed, &bare, Extras::default());
    let mut twins: Vec<Rep> = Vec::new();
    if spec.observed {
        twins.push(twin());
    }

    // Warm-up: discarded for time, kept for its allocation count.
    let warm = run_rep(
        spec,
        seed,
        &bare,
        Extras {
            count_allocs: true,
            export: false,
        },
    );

    // One full repetition from a fresh process: later repetitions reuse
    // its heap, so the high-water mark is read here.
    let peak_rss_mb = peak_rss_kb() as f64 / 1024.0;

    let reps = spec.reps;
    let mut timed: Vec<Rep> = Vec::with_capacity(reps);
    let mut setups = vec![warm.setup_ns as f64 / 1e9];
    let mut reruns = 0;
    while timed.len() < reps {
        setups.extend((0..SETUPS_PER_REP).map(|_| time_setup(spec, seed) as f64 / 1e9));
        let rep = run_rep(spec, seed, &bare, Extras::default());
        setups.push(rep.setup_ns as f64 / 1e9);
        if rep.runq_wait_share() > RUNQ_WAIT_LIMIT && reruns < reps {
            reruns += 1;
            continue;
        }
        timed.push(rep);
        // Twins alternate with the repetitions they are compared with,
        // so both see the same host states.
        if spec.observed && trace_dir.is_some() && twins.len() < TWIN_REPS_TRACED {
            twins.push(twin());
        }
    }

    let o = &warm.outcome;
    let same = timed.iter().filter(|r| r.outcome == *o).count();
    checks.push(Check {
        name: "determinism",
        ok: same == timed.len() && timed.iter().all(|r| r.recorded == warm.recorded),
        detail: format!(
            "{same}/{} repetitions reproduce the warm-up's {} events, {} packets, {} requests",
            timed.len(),
            o.events,
            o.packets,
            o.completed
        ),
    });
    if let Some(twin) = twins.first() {
        checks.push(Check {
            name: "observer_effect",
            ok: twin.outcome == *o,
            detail: format!(
                "recorders off: {} events, p99 {} ns; on: {} events, p99 {} ns",
                twin.outcome.events, twin.outcome.req_p99_ns, o.events, o.req_p99_ns
            ),
        });
    }
    let quota = (spec.conns() * spec.pipeline) as u64;
    checks.push(Check {
        name: "conservation",
        ok: o.issued >= o.settled() && o.in_flight() <= quota && o.completed > 0,
        detail: format!(
            "issued {} = completed {} + lost {} + in flight {} (quota {quota})",
            o.issued,
            o.completed,
            o.lost,
            o.in_flight()
        ),
    });
    let r = warm.recorded;
    checks.push(Check {
        name: "recorders",
        ok: r.journal_overflow == 0
            && r.spans_dropped == 0
            && (r.journal_events > 0 && r.hops > 0) == spec.observed,
        detail: format!(
            "{} journal events ({} overflowed), {} hops ({} dropped)",
            r.journal_events, r.journal_overflow, r.hops, r.spans_dropped
        ),
    });
    let settled_before = o.settled_before_td;
    let miss_before = o.over_limit_before_td as f64 / settled_before.max(1) as f64;
    checks.push(Check {
        name: "limit_is_meaningful",
        ok: settled_before > 0 && miss_before < 0.01,
        detail: format!(
            "{:.4}% of {settled_before} requests completed in [t_d/2, t_d) missed the {} us limit",
            100.0 * miss_before,
            LIMIT_NS / 1000
        ),
    });
    checks.push(Check {
        name: "p99_support",
        ok: o.completed >= 100_000 && o.gets_after >= 200,
        detail: format!(
            "{} samples beyond p99, {} beyond the post-disturbance GET p95",
            o.completed / 100,
            o.gets_after / 20
        ),
    });
    let failed = o.lost_before_td
        + match spec.disturbance {
            Disturbance::Crash { .. } => 0,
            _ => o.lost,
        };
    checks.push(Check {
        name: "no_unscripted_failure",
        ok: failed == 0,
        detail: format!(
            "{} requests lost before t_d, {} after (only a crash may lose requests)",
            o.lost_before_td,
            o.lost - o.lost_before_td
        ),
    });
    checks.push(workload_claim(spec, &warm));

    let wall_s: Vec<f64> = timed.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let rates = Quartiles::of(&timed.iter().map(Rep::req_per_wall_s).collect::<Vec<_>>());
    let timed_refs: Vec<&Rep> = timed.iter().collect();
    let rate = composite_rate(&timed_refs);
    let setup = Quartiles::of(&setups);
    let settled = o.settled().max(1) as f64;
    let exact = Measured::exact;
    let end_to_end = [
        Measured {
            name: "setup_s",
            value: setup.median,
            spread: Some(split_half_spread(&setups, median)),
            quartiles: Some(setup),
        },
        Measured {
            name: "req_per_wall_s",
            value: rate,
            spread: Some(split_half_spread(&timed_refs, composite_rate)),
            quartiles: Some(rates),
        },
        exact(
            "allocs_per_req",
            warm.allocs as f64 / o.completed.max(1) as f64,
        ),
        exact("peak_rss_mb", peak_rss_mb),
        exact("get_p95_us", o.get_p95_after_ns as f64 / 1e3),
        exact("req_p50_us", o.req_p50_ns as f64 / 1e3),
        exact("req_p99_us", o.req_p99_ns as f64 / 1e3),
        exact(
            "in_limit_share",
            1.0 - (o.over_limit + o.lost) as f64 / settled,
        ),
        exact("delivered_share", 1.0 - o.lost as f64 / settled),
    ];

    let mut per_layer = Vec::new();
    if let Some(dir) = trace_dir {
        let tracer = Tracer::new();
        let traced = run_rep(
            spec,
            seed,
            &Installer::traced(&tracer),
            Extras {
                count_allocs: true,
                export: spec.observed,
            },
        );
        let micro = micro::run(spec);
        let tracer = tracer.borrow();
        checks.push(Check {
            name: "traced_pass",
            ok: traced.outcome == *o
                && traced.recorded == warm.recorded
                && traced.allocs == warm.allocs,
            detail: format!(
                "traced: {} events, {} allocations; untraced: {} events, {} allocations",
                traced.outcome.events, traced.allocs, o.events, warm.allocs
            ),
        });
        let overhead_share = if twins.is_empty() {
            0.0
        } else {
            let twin_refs: Vec<&Rep> = twins.iter().collect();
            1.0 - composite_rate(&timed_refs[..twins.len()]) / composite_rate(&twin_refs)
        };
        let runq = median(&timed.iter().map(Rep::runq_wait_share).collect::<Vec<_>>());
        let (layers, covered_ns) = layer_metrics(&LayerInputs {
            traced: &traced,
            tracer: &tracer,
            micro: &micro,
            wall_s: composite_wall_ns(&timed_refs) as f64 / 1e9,
            rep_wall_s: median(&wall_s),
            overhead_share,
            runq_wait_share: runq,
            rep_iqr_share: rates.iqr_share(),
        });
        let (_, self_sum, _) = tracer.sum(|_| true);
        checks.push(Check {
            name: "self_times_sum",
            ok: self_sum == tracer.top_level_ns() && covered_ns == traced.wall_ns,
            detail: format!(
                "spans' self times {self_sum} ns = callbacks {} ns; \
                 the layers' shares cover {covered_ns} of {} ns traced",
                tracer.top_level_ns(),
                traced.wall_ns
            ),
        });
        let path = dir.join(format!("trace_{}.ndjson", spec.name));
        if let Err(e) = crate::write_file(&path, &trace_text(spec, seed, &traced, &tracer)) {
            checks.push(Check {
                name: "trace_file",
                ok: false,
                detail: e,
            });
        }
        per_layer = named(&contract.per_layer, &layers, &mut checks);
    }

    let end_to_end = named(&contract.end_to_end, &end_to_end, &mut checks);

    WorkloadResult {
        workload: spec.name.to_string(),
        seed,
        reps: timed.len(),
        rep_wall_s: wall_s,
        attempted: o.issued * timed.len() as u64,
        failed: failed * timed.len() as u64,
        end_to_end,
        per_layer,
        checks,
    }
}

/// Does the workload exercise what it exists to exercise?
fn workload_claim(spec: &Spec, rep: &Rep) -> Check {
    let o = &rep.outcome;
    match spec.disturbance {
        Disturbance::Delay { .. } => Check {
            name: "lb_reacts",
            ok: !o.react_censored && o.lb_samples > 0,
            detail: format!(
                "backend 0 at or below half its fair share {} ms after t_d, on {} T_LB samples",
                o.react_ms, o.lb_samples
            ),
        },
        Disturbance::Congest { .. } => {
            // A junk datagram is delivered to the aggregation router,
            // and, unless the bottleneck drops it, to the rack router
            // and the sink.
            let cross = o.blaster_sent + 2 * o.sink_got;
            let share = cross as f64 / o.packets.max(1) as f64;
            let before = o.over_limit_before_td as f64 / o.settled_before_td.max(1) as f64;
            let burst = o.over_limit_in_burst as f64 / o.completed_in_burst.max(1) as f64;
            Check {
                name: "congestion_bites",
                ok: share >= 0.5 && (o.bottleneck_drops > 0 || burst > before),
                detail: format!(
                    "cross traffic is {:.1}% of delivered packets; bottleneck dropped {}; \
                     missed the limit: {:.3}% before, {:.3}% in the first burst",
                    100.0 * share,
                    o.bottleneck_drops,
                    100.0 * before,
                    100.0 * burst
                ),
            }
        }
        Disturbance::Crash { .. } => Check {
            name: "ejects_and_readmits",
            ok: o.ejections >= 1 && o.readmissions >= 1 && o.flows_repinned > 0,
            detail: format!(
                "{} ejections, {} readmissions, {} flows re-pinned, {} connections opened",
                o.ejections, o.readmissions, o.flows_repinned, o.client_conns_opened
            ),
        },
    }
}

/// A metric as the run produced it, before the contract names its unit.
#[derive(Debug, Clone, Copy)]
struct Measured {
    name: &'static str,
    value: f64,
    spread: Option<f64>,
    quartiles: Option<Quartiles>,
}

impl Measured {
    /// A simulated metric or a count: it repeats exactly.
    fn exact(name: &'static str, value: f64) -> Measured {
        Measured {
            name,
            value,
            spread: None,
            quartiles: None,
        }
    }
}

/// Orders `values` as the contract lists them; a metric the contract
/// names but the run did not produce (or the reverse) fails a check.
fn named(defs: &[MetricDef], values: &[Measured], checks: &mut Vec<Check>) -> Vec<MetricValue> {
    let out: Vec<MetricValue> = defs
        .iter()
        .filter_map(|d| {
            let m = values.iter().find(|m| m.name == d.name)?;
            Some(MetricValue {
                name: d.name.clone(),
                unit: d.unit.clone(),
                value: m.value,
                spread: m.spread,
                quartiles: m.quartiles,
            })
        })
        .collect();
    let unknown = values
        .iter()
        .filter(|m| !defs.iter().any(|d| d.name == m.name))
        .count();
    if out.len() != defs.len() || unknown > 0 {
        checks.push(Check {
            name: "contract_metrics",
            ok: false,
            detail: format!(
                "BENCHMARK.json names {} metrics, the run produced {} of them and {unknown} others",
                defs.len(),
                out.len()
            ),
        });
    }
    out
}

struct LayerInputs<'a> {
    traced: &'a Rep,
    tracer: &'a Tracer,
    micro: &'a Micro,
    /// Composite wall time of the untraced repetitions.
    wall_s: f64,
    /// Median wall time of one untraced repetition.
    rep_wall_s: f64,
    overhead_share: f64,
    runq_wait_share: f64,
    rep_iqr_share: f64,
}

/// The per-layer metrics, named as in `BENCHMARK.json`, and the
/// nanoseconds the layers' `*_share`s cover between them — the traced
/// pass's whole wall time when no span name falls between the layers. A
/// `*_share` is a layer's self time over that wall time.
fn layer_metrics(inp: &LayerInputs<'_>) -> (Vec<Measured>, u64) {
    let t = inp.tracer;
    let o = &inp.traced.outcome;
    let wall_ns = inp.traced.wall_ns as f64;
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let share = |ns: u64| ns as f64 / wall_ns;

    let dispatch_ns = inp.traced.wall_ns - t.top_level_ns();
    let dispatch_allocs = inp.traced.allocs - t.top_level_allocs();
    let layer = |l: &'static str| move |n: &SpanName| n.layer == l;
    let role = |l: &'static str, r: &'static str| move |n: &SpanName| n.layer == l && n.role == r;
    let callback =
        |l: &'static str, c: &'static str| move |n: &SpanName| n.layer == l && n.callback == c;

    let (router_calls, router_ns, _) = t.sum(role("netsim", "router"));
    let (_, blaster_ns, _) = t.sum(|n| n.layer == "netsim" && n.role != "router");
    let (_, client_ns, _) = t.sum(role("nettcp", "client"));
    let (_, backend_host_ns, _) = t.sum(role("nettcp", "backend"));
    let (_, tcp_ns, tcp_allocs) = t.sum(layer("nettcp"));
    let (lb_pkts, lb_pkt_ns, lb_pkt_allocs) = t.sum(callback("lb-dataplane", "on_packet"));
    let (lb_timers, lb_timer_ns, _) =
        t.sum(|n| n.layer == "lb-dataplane" && n.callback != "on_packet");
    let (_, workload_ns, workload_allocs) = t.sum(layer("workload"));
    let (_, server_ns, server_allocs) = t.sum(layer("backend"));
    let m = inp.micro;
    let r = inp.traced.recorded;

    let covered_ns = dispatch_ns
        + router_ns
        + blaster_ns
        + client_ns
        + backend_host_ns
        + lb_pkt_ns
        + lb_timer_ns
        + workload_ns
        + server_ns;
    let metrics = [
        ("netsim.dispatch_share", share(dispatch_ns)),
        ("netsim.events_per_s", o.events as f64 / inp.wall_s),
        ("netsim.events_per_req", per(o.events, o.completed)),
        ("netsim.allocs_per_event", per(dispatch_allocs, o.events)),
        ("netsim.router_ns_per_pkt", per(router_ns, router_calls)),
        ("netsim.router_share", share(router_ns)),
        ("netsim.blaster_share", share(blaster_ns)),
        ("netsim.link_drops", o.link_drops as f64),
        ("nettcp.client_share", share(client_ns)),
        ("nettcp.backend_share", share(backend_host_ns)),
        ("nettcp.ns_per_pkt", per(tcp_ns, o.host_packets_in)),
        ("nettcp.allocs_per_pkt", per(tcp_allocs, o.host_packets_in)),
        ("nettcp.retransmits", o.retransmits as f64),
        ("nettcp.timeouts", o.timeouts as f64),
        ("nettcp.conns_opened", o.host_conns_opened as f64),
        ("lb-dataplane.pkt_share", share(lb_pkt_ns)),
        ("lb-dataplane.ns_per_pkt", per(lb_pkt_ns, lb_pkts)),
        ("lb-dataplane.allocs_per_pkt", per(lb_pkt_allocs, lb_pkts)),
        ("lb-dataplane.timer_share", share(lb_timer_ns)),
        ("lb-dataplane.ns_per_timer", per(lb_timer_ns, lb_timers)),
        ("lb-dataplane.react_ms", o.react_ms as f64),
        ("lb-dataplane.tlb_samples", o.lb_samples as f64),
        ("lb-dataplane.ejections", o.ejections as f64),
        ("lb-dataplane.flows_repinned", o.flows_repinned as f64),
        ("lbcore.maglev_lookup_ns", m.maglev_lookup_ns),
        ("lbcore.maglev_build_us", m.maglev_build_us),
        ("lbcore.flow_hit_ns", m.flow_hit_ns),
        ("lbcore.flow_insert_ns", m.flow_insert_ns),
        ("lbcore.ensemble_ns_per_pkt", m.ensemble_ns_per_pkt),
        (
            "lbcore.controller_ns_per_update",
            m.controller_ns_per_update,
        ),
        ("netpkt.parse_ns", m.parse_ns),
        ("netpkt.build_ns", m.build_ns),
        (
            "netpkt.pool_hit_share",
            per(o.pool_hits, o.pool_hits + o.pool_misses),
        ),
        ("workload.app_share", share(workload_ns)),
        ("workload.ns_per_req", per(workload_ns, o.completed)),
        ("workload.allocs_per_req", per(workload_allocs, o.completed)),
        ("backend.app_share", share(server_ns)),
        ("backend.ns_per_req", per(server_ns, o.backend_served)),
        (
            "backend.allocs_per_req",
            per(server_allocs, o.backend_served),
        ),
        ("telemetry.journal_ns_per_event", m.journal_ns_per_event),
        ("telemetry.span_ns_per_hop", m.span_ns_per_hop),
        ("telemetry.hops_recorded", r.hops as f64),
        ("telemetry.journal_events", r.journal_events as f64),
        ("telemetry.spans_dropped", r.spans_dropped as f64),
        ("telemetry.export_s", inp.traced.export_s),
        ("telemetry.overhead_share", inp.overhead_share),
        (
            "bench.trace_overhead_share",
            inp.traced.wall_ns as f64 / 1e9 / inp.rep_wall_s - 1.0,
        ),
        ("bench.runq_wait_share", inp.runq_wait_share),
        ("bench.rep_iqr_share", inp.rep_iqr_share),
    ]
    .map(|(name, value)| Measured::exact(name, value));
    (metrics.to_vec(), covered_ns)
}

/// The trace file's text: one `run` line, one `aggregate` line per span
/// name, then the first raw spans in the order they closed.
fn trace_text(spec: &Spec, seed: u64, traced: &Rep, t: &Tracer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\": \"run\", \"workload\": {}, \"seed\": {seed}, \"wall_ns\": {}, \
         \"callbacks_ns\": {}, \"spans\": {}, \"raw_spans\": {}}}",
        quote(spec.name),
        traced.wall_ns,
        t.top_level_ns(),
        t.span_count(),
        t.raw().len()
    );
    for a in t.aggregates().iter().filter(|a| a.calls > 0) {
        let hist: Vec<String> = a.hist.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "{{\"type\": \"aggregate\", \"layer\": {}, \"role\": {}, \"callback\": {}, \
             \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"self_allocs\": {}, \
             \"hist_log2_ns\": [{}]}}",
            quote(a.name.layer),
            quote(a.name.role),
            quote(a.name.callback),
            a.calls,
            a.total_ns,
            a.self_ns,
            a.self_allocs,
            hist.join(", ")
        );
    }
    for s in t.raw() {
        let n = t.name_of(s.key);
        let _ = writeln!(
            out,
            "{{\"type\": \"span\", \"id\": {}, \"parent\": {}, \"name\": \"{}.{}.{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"trace\": {}}}",
            s.id, s.parent, n.layer, n.role, n.callback, s.start_ns, s.end_ns, s.trace
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Recorded, SimOutcome};

    fn rep(step_ns: &[u32], completed: u64) -> Rep {
        Rep {
            outcome: SimOutcome {
                completed,
                ..SimOutcome::default()
            },
            recorded: Recorded::default(),
            setup_ns: 0,
            wall_ns: step_ns.iter().map(|&s| u64::from(s)).sum(),
            step_ns: step_ns.to_vec(),
            runq_wait_ns: 0,
            allocs: 0,
            export_s: 0.0,
        }
    }

    #[test]
    fn composite_takes_each_step_from_the_repetition_that_ran_it_fastest() {
        // Interference hits a different step in each repetition.
        let a = rep(&[100, 900, 100, 100], 1000);
        let b = rep(&[100, 100, 700, 100], 1000);
        let c = rep(&[500, 100, 100, 100], 1000);
        assert_eq!(composite_wall_ns(&[&a, &b, &c]), 400);
        assert_eq!(composite_wall_ns(&[&a]), a.wall_ns);
        assert_eq!(composite_wall_ns(&[]), 0);
        // 1000 requests in 400 ns.
        assert_eq!(composite_rate(&[&a, &b, &c]), 2.5e9);
    }

    #[test]
    fn split_half_spread_compares_even_and_odd_samples() {
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        // Evens sum to 4, odds to 6, all to 10.
        assert_eq!(split_half_spread(&[1.0, 2.0, 3.0, 4.0], sum), 0.2);
        assert_eq!(split_half_spread(&[5.0], sum), 0.0);
        assert_eq!(split_half_spread(&[2.0, 2.0], median), 0.0);
    }
}
