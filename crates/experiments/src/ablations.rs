//! Ablation studies: the design-choice sweeps DESIGN.md calls out, plus
//! experiments for the paper's §5 open questions.

use lb_dataplane::LbConfig;
use lbcore::{
    AimdController, AlphaShift, Controller, EnsembleConfig, ProportionalController, Weights,
};
use netsim::{Duration, Time};
use telemetry::{AccuracySummary, JournalEvent, JournalMode, Table};

use crate::fig2::{capture_trace, replay_ensemble, Fig2Config, Fig2Trace};
use crate::fig3::{fig3_summary_table, run_fig3, Fig3Config};
use crate::topology::{BacklogScenario, BacklogScenarioConfig, KvCluster, KvClusterConfig, VIP};

/// p95 of GET latencies within `[from_ns, to_ns)`, computed from the
/// recorder's (uncapped) binned series.
fn p95_get_between(recorder: &workload::LatencyRecorder, from_ns: u64, to_ns: u64) -> u64 {
    let mut h = telemetry::LogHistogram::new();
    let series = &recorder.get_series;
    for b in 0..series.len() {
        let start = b as u64 * series.bin_width_ns();
        if start >= from_ns && start < to_ns {
            if let Some(hist) = series.bin(b) {
                h.merge(hist);
            }
        }
    }
    h.quantile(0.95)
}

/// p95 of GET latencies at or after `from_ns`.
fn p95_get_after(recorder: &workload::LatencyRecorder, from_ns: u64) -> u64 {
    p95_get_between(recorder, from_ns, u64::MAX)
}

/// First instant after `from_ns` when the degraded backend's weight is
/// decisively shifted away (< 0.3), as "reaction time" in ms. Controllers
/// with a small margin wander even without an injection; when backend 0's
/// weight already sat below the threshold at injection time, that is
/// reported explicitly.
fn reaction_after(lb: &lb_dataplane::LbNode, from_ns: u64) -> String {
    let series = lb.weight_series(0);
    if series.value_at(from_ns).map(|w| w < 0.3).unwrap_or(false) {
        return "pre-shifted".into();
    }
    series
        .points()
        .iter()
        .find(|&&(at, w)| at > from_ns && w < 0.3)
        .map(|&(at, _)| format!("{:.2}", (at - from_ns) as f64 / 1e6))
        .unwrap_or_else(|| "-".into())
}

/// A one-shot mutation applied to a scenario config (ablation variant).
type ScenarioTweak = Box<dyn FnOnce(&mut BacklogScenarioConfig)>;

/// A factory producing fresh controller instances per run.
type ControllerFactory = Box<dyn Fn() -> Box<dyn Controller>>;

fn accuracy_of(trace: &Fig2Trace, samples: &[(u64, u64)], from: u64) -> f64 {
    let est: Vec<u64> = samples
        .iter()
        .filter(|&&(t, _)| t > from)
        .map(|&(_, v)| v)
        .collect();
    let truth: Vec<u64> = trace
        .truth
        .iter()
        .filter(|&&(t, _)| t > from)
        .map(|&(_, v)| v)
        .collect();
    AccuracySummary::compare(&est, &truth, &[0.5]).median_rel_err
}

/// ABL-EPOCH: sensitivity of `ENSEMBLETIMEOUT` to the epoch length E.
pub fn epoch_sweep(cfg: &Fig2Config, epochs_ms: &[u64]) -> Table {
    let trace = capture_trace(cfg);
    let mut t = Table::new(
        "ABL-EPOCH: ensemble accuracy vs epoch length",
        &["epoch_ms", "samples", "median_rel_err_p50"],
    );
    for &e in epochs_ms {
        let ens_cfg = EnsembleConfig {
            epoch: e * 1_000_000,
            ..EnsembleConfig::default()
        };
        let (samples, _) = replay_ensemble(&trace.arrivals, ens_cfg);
        // Judge accuracy after 4 epochs of warm-up.
        let err = accuracy_of(&trace, &samples, 4 * e * 1_000_000);
        t.row(&[
            e.to_string(),
            samples.len().to_string(),
            format!("{err:.3}"),
        ]);
    }
    t
}

/// ABL-K: sensitivity to the number of ensemble timeouts k (always
/// starting from δ₁ = 64 µs with exponential spacing).
pub fn k_sweep(cfg: &Fig2Config, ks: &[usize]) -> Table {
    let trace = capture_trace(cfg);
    let mut t = Table::new(
        "ABL-K: ensemble accuracy vs number of timeouts",
        &["k", "delta_max_us", "samples", "median_rel_err_p50"],
    );
    for &k in ks {
        assert!(k >= 2, "ensemble needs k >= 2");
        let timeouts: Vec<u64> = (0..k).map(|i| 64_000u64 << i).collect();
        let max_us = timeouts.last().unwrap() / 1_000;
        let ens_cfg = EnsembleConfig {
            timeouts,
            ..EnsembleConfig::default()
        };
        let (samples, _) = replay_ensemble(&trace.arrivals, ens_cfg);
        let err = accuracy_of(&trace, &samples, 500_000_000);
        t.row(&[
            k.to_string(),
            max_us.to_string(),
            samples.len().to_string(),
            format!("{err:.3}"),
        ]);
    }
    t
}

/// ABL-ALPHA: the shift fraction α of the paper's controller.
pub fn alpha_sweep(cfg: &Fig3Config, alphas: &[f64]) -> Table {
    let mut t = Table::new(
        "ABL-ALPHA: shift fraction vs tail latency and reaction",
        &["alpha", "p95_after_us", "reaction_ms", "rebuilds"],
    );
    for &alpha in alphas {
        let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
            Box::new(move |backends| {
                let ctl = AlphaShift::damped().with_alpha(alpha);
                LbConfig::latency_aware(VIP, backends, Box::new(ctl))
            });
        let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
        cluster_cfg.seed = cfg.seed;
        let mut cluster = KvCluster::build(cluster_cfg);
        let inject_at = Time::ZERO + cfg.inject_at;
        cluster.inject_backend_delay(0, inject_at, cfg.extra);
        cluster.sim.run_for(cfg.duration);

        let recorder = &cluster.client_app(0).recorder;
        let p95 = p95_get_after(recorder, inject_at.as_nanos());
        let lb = cluster.lb_node();
        let reaction = reaction_after(lb, inject_at.as_nanos());
        t.row(&[
            format!("{alpha:.2}"),
            format!("{:.1}", p95 as f64 / 1e3),
            reaction,
            lb.stats().table_rebuilds.to_string(),
        ]);
    }
    t
}

/// ABL-MARGIN: the controller's action margin trades healthy-state
/// stability against nothing much — even large margins react to a 1 ms
/// injection (a 4–5x latency gap) instantly, while small margins let
/// measurement noise drive a weight random-walk that costs tail latency
/// when both backends are healthy.
pub fn margin_sweep(cfg: &Fig3Config, margins: &[f64]) -> Table {
    let mut t = Table::new(
        "ABL-MARGIN: action margin vs healthy-state stability and reaction",
        &[
            "margin",
            "p95_healthy_us",
            "p95_after_us",
            "reaction_ms",
            "rebuilds",
        ],
    );
    for &margin in margins {
        let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
            Box::new(move |backends| {
                let mut ctl = AlphaShift::damped();
                ctl.margin = margin;
                LbConfig::latency_aware(VIP, backends, Box::new(ctl))
            });
        let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
        cluster_cfg.seed = cfg.seed;
        let mut cluster = KvCluster::build(cluster_cfg);
        let inject_at = Time::ZERO + cfg.inject_at;
        cluster.inject_backend_delay(0, inject_at, cfg.extra);
        cluster.sim.run_for(cfg.duration);

        let recorder = &cluster.client_app(0).recorder;
        let healthy = p95_get_between(recorder, 0, inject_at.as_nanos());
        let after = p95_get_after(recorder, inject_at.as_nanos());
        let lb = cluster.lb_node();
        t.row(&[
            format!("{margin:.2}"),
            format!("{:.1}", healthy as f64 / 1e3),
            format!("{:.1}", after as f64 / 1e3),
            reaction_after(lb, inject_at.as_nanos()),
            lb.stats().table_rebuilds.to_string(),
        ]);
    }
    t
}

/// ABL-TIMING: the §5(2) timing violations — delayed ACKs at the receiver,
/// pacing at the sender, and an application-limited sender — and what each
/// does to measurement accuracy.
pub fn timing_violations(cfg: &Fig2Config) -> Table {
    let mut t = Table::new(
        "ABL-TIMING: measurement accuracy under timing violations",
        &["variant", "arrivals", "samples", "median_rel_err_p50"],
    );
    let variants: Vec<(&str, ScenarioTweak)> = vec![
        ("baseline", Box::new(|_s| {})),
        (
            "delayed-acks",
            Box::new(|s| {
                s.sink_delayed_ack = nettcp::DelayedAck::Enabled {
                    max_delay: Duration::from_millis(40),
                };
            }),
        ),
        (
            "pacing",
            Box::new(|s| {
                s.client_pacing = nettcp::Pacing::Enabled {
                    min_gap: Duration::from_micros(120),
                };
            }),
        ),
        (
            "app-limited",
            Box::new(|s| {
                s.app_limited = Some((Duration::from_millis(5), 2 * 1400));
            }),
        ),
    ];
    for (name, tweak) in variants {
        let mut scfg = BacklogScenarioConfig::fig2_defaults();
        scfg.seed = cfg.seed;
        tweak(&mut scfg);
        let mut scenario = BacklogScenario::build(scfg);
        scenario.sim.enable_trace(1 << 22);
        scenario.sim.run_for(cfg.duration);
        let lb = scenario.lb;
        let arrivals: Vec<u64> = scenario
            .sim
            .trace()
            .filter(|e| {
                e.node == lb
                    && e.kind == netsim::TraceKind::Deliver
                    && e.flow.map(|f| f.dst_ip == VIP).unwrap_or(false)
            })
            .map(|e| e.at.as_nanos())
            .collect();
        let truth = scenario.client_app().recorder.rtt_raw().to_vec();
        let trace = Fig2Trace {
            arrivals,
            truth,
            step_at: 0,
        };
        let (samples, _) = replay_ensemble(&trace.arrivals, EnsembleConfig::default());
        let err = accuracy_of(&trace, &samples, 500_000_000);
        t.row(&[
            name.to_string(),
            trace.arrivals.len().to_string(),
            samples.len().to_string(),
            format!("{err:.3}"),
        ]);
    }
    t
}

/// ABL-CTRL: controller comparison on the Fig. 3 scenario.
pub fn controller_comparison(cfg: &Fig3Config) -> Table {
    let mut t = Table::new(
        "ABL-CTRL: controllers on the Fig 3 scenario",
        &["controller", "p95_after_us", "reaction_ms", "rebuilds"],
    );
    let factories: Vec<(&str, ControllerFactory)> = vec![
        ("alpha-shift", Box::new(|| Box::new(AlphaShift::damped()))),
        ("aimd", Box::new(|| Box::new(AimdController::new()))),
        (
            "proportional",
            Box::new(|| Box::new(ProportionalController::new(1.0))),
        ),
    ];
    for (name, make) in factories {
        let ctl = make();
        let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
            Box::new(move |backends| LbConfig::latency_aware(VIP, backends, ctl));
        let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
        cluster_cfg.seed = cfg.seed;
        let mut cluster = KvCluster::build(cluster_cfg);
        let inject_at = Time::ZERO + cfg.inject_at;
        cluster.inject_backend_delay(0, inject_at, cfg.extra);
        cluster.sim.run_for(cfg.duration);

        let recorder = &cluster.client_app(0).recorder;
        let p95 = p95_get_after(recorder, inject_at.as_nanos());
        let lb = cluster.lb_node();
        let reaction = reaction_after(lb, inject_at.as_nanos());
        t.row(&[
            name.to_string(),
            format!("{:.1}", p95 as f64 / 1e3),
            reaction,
            lb.stats().table_rebuilds.to_string(),
        ]);
    }

    // Power-of-two-choices: no controller at all — the in-band estimates
    // drive each new connection's choice directly.
    {
        let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
            Box::new(|backends| {
                let mut lb = LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
                lb.policy = lb_dataplane::RoutingPolicy::PowerOfTwo;
                lb
            });
        let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
        cluster_cfg.seed = cfg.seed;
        let mut cluster = KvCluster::build(cluster_cfg);
        let inject_at = Time::ZERO + cfg.inject_at;
        cluster.inject_backend_delay(0, inject_at, cfg.extra);
        cluster.sim.run_for(cfg.duration);
        let recorder = &cluster.client_app(0).recorder;
        let p95 = p95_get_after(recorder, inject_at.as_nanos());
        let lb = cluster.lb_node();
        t.row(&[
            "power-of-two".to_string(),
            format!("{:.1}", p95 as f64 / 1e3),
            "per-conn".to_string(),
            lb.stats().table_rebuilds.to_string(),
        ]);
    }
    t
}

/// ABL-HERD: an analytic model of N independent LBs running the same
/// controller against shared backends (§5(4): thundering herd), crossed
/// with observation **staleness** (each LB sees latency as it was
/// `staleness_ms` ago).
///
/// Backend latency grows with total offered load (M/M/1-like), so the
/// system has real feedback: over-shifting overloads the recipient.
/// The finding this table documents: with each LB shifting α of *its own*
/// slice, the aggregate loop gain is N-invariant — LB count alone does not
/// herd. What destabilizes the loop is **stale signals**: oscillation
/// amplitude (stddev / min–max of the degraded backend's aggregate share)
/// grows with the observation delay.
pub fn herd_model(n_lbs_list: &[usize]) -> Table {
    let mut t = Table::new(
        "ABL-HERD: N LBs x observation staleness, shared backends (model)",
        &[
            "n_lbs",
            "staleness_ms",
            "share_mean",
            "share_stddev",
            "share_min",
            "share_max",
        ],
    );
    for &n_lbs in n_lbs_list {
        for &staleness_ms in &[0usize, 5, 20] {
            let backends = 2;
            let mut weights: Vec<Weights> =
                (0..n_lbs).map(|_| Weights::equal(backends, 0.02)).collect();
            let mut controllers: Vec<AlphaShift> = (0..n_lbs)
                .map(|_| AlphaShift::damped().with_min_interval(0))
                .collect();
            // Service rate per backend, arrival rate per LB (req/ms).
            let mu = 100.0;
            let lambda_per_lb = 120.0 / n_lbs as f64;
            let mut lat_history: Vec<Vec<f64>> = Vec::new();
            let mut shares = Vec::new();
            for step in 0..600usize {
                let now = (step as u64) * 1_000_000; // 1 ms steps
                let mut load = vec![0.0f64; backends];
                for w in &weights {
                    for (b, item) in load.iter_mut().enumerate() {
                        *item += lambda_per_lb * w.get(b);
                    }
                }
                let mut lat = vec![0.0f64; backends];
                for b in 0..backends {
                    let rho = (load[b] / mu).min(0.99);
                    lat[b] = 100_000.0 / (1.0 - rho); // ns
                }
                if step >= 100 {
                    lat[0] += 1_000_000.0; // the 1 ms injection
                }
                lat_history.push(lat.clone());
                // Each LB observes the (possibly stale) latency and, with
                // a deterministic per-LB perturbation standing in for
                // sampling noise, adapts its own weights.
                let seen = &lat_history[step.saturating_sub(staleness_ms)];
                for (i, (ctl, w)) in controllers.iter_mut().zip(&mut weights).enumerate() {
                    let mut est = lbcore::BackendEstimator::new(backends, 1.0, u64::MAX);
                    for (b, &lat_b) in seen.iter().enumerate() {
                        let phase = ((step * (i + 3) + b * 7) % 13) as f64;
                        let jitter = 1.0 + 0.02 * (phase / 13.0 - 0.5);
                        est.record(b, (lat_b * jitter) as u64, now);
                    }
                    ctl.maybe_update(now, &est, w);
                }
                if step >= 200 {
                    let share: f64 = weights.iter().map(|w| w.get(0)).sum::<f64>() / n_lbs as f64;
                    shares.push(share);
                }
            }
            let mean = shares.iter().sum::<f64>() / shares.len() as f64;
            let var =
                shares.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / shares.len() as f64;
            let min = shares.iter().cloned().fold(f64::MAX, f64::min);
            let max = shares.iter().cloned().fold(f64::MIN, f64::max);
            t.row(&[
                n_lbs.to_string(),
                staleness_ms.to_string(),
                format!("{mean:.3}"),
                format!("{:.4}", var.sqrt()),
                format!("{min:.3}"),
                format!("{max:.3}"),
            ]);
        }
    }
    t
}

/// ABL-CLIFF: the paper's argmax-ratio cliff rule vs. the robust
/// flat-head rule, both driving the *control* loop on the Fig. 3 KV
/// scenario. This is the reproduction's main methodological finding: on
/// request/response traffic the argmax rule latches onto the gap
/// distribution's tail, manufactures merged-batch garbage samples, and
/// destabilizes the controller.
pub fn cliff_rule_comparison(cfg: &Fig3Config) -> Table {
    use lbcore::ensemble::CliffRule;
    let mut t = Table::new(
        "ABL-CLIFF: cliff-detection rule vs control quality (Fig 3 scenario)",
        &[
            "rule",
            "p95_after_us",
            "reaction_ms",
            "rebuilds",
            "giant_sample_pct",
        ],
    );
    for (name, rule) in [
        ("argmax-ratio (paper)", CliffRule::ArgmaxRatio),
        ("flat-head (ours)", CliffRule::FlatHead { rho: 1.5 }),
    ] {
        let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
            Box::new(move |backends| {
                let mut lb = LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
                lb.ensemble.rule = rule;
                // The giant-sample column reads every sample's `T_LB`
                // (~4.1M in the default 60 s run), so no cap.
                lb.journal = JournalMode::Full(usize::MAX);
                lb
            });
        let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
        cluster_cfg.seed = cfg.seed;
        let mut cluster = KvCluster::build(cluster_cfg);
        let inject_at = Time::ZERO + cfg.inject_at;
        cluster.inject_backend_delay(0, inject_at, cfg.extra);
        cluster.sim.run_for(cfg.duration);

        let recorder = &cluster.client_app(0).recorder;
        let p95 = p95_get_after(recorder, inject_at.as_nanos());
        let lb = cluster.lb_node();
        let reaction = reaction_after(lb, inject_at.as_nanos());
        // "Giant" samples: T_LB beyond anything the clients experienced
        // (client latencies stay < 3 ms throughout) — pure merge artifacts.
        assert_eq!(lb.journal().overflow(), 0, "journal too small for the run");
        let giant = lb
            .journal()
            .iter()
            .filter(|e| matches!(e, JournalEvent::Sample { t_lb, .. } if *t_lb > 5_000_000))
            .count();
        let total = lb.stats().samples.max(1);
        t.row(&[
            name.to_string(),
            format!("{:.1}", p95 as f64 / 1e3),
            reaction,
            lb.stats().table_rebuilds.to_string(),
            format!("{:.2}", 100.0 * giant as f64 / total as f64),
        ]);
    }
    t
}

/// ABL-FAR: §5(1) — far, non-equidistant clients.
///
/// Two client hosts share the cluster: a near one (20 µs access delay)
/// and a far one (2 ms access delay, e.g. another availability zone).
/// The far client's `T_LB` samples are dominated by its access path —
/// delay the LB cannot control — so they (a) inflate the per-backend
/// estimates as common-mode noise and (b) dilute the injection signal.
/// The table reports per-client p95 GET latency before/after a 1 ms
/// injection, for the plain-Maglev baseline and the latency-aware LB.
pub fn far_clients(cfg: &Fig3Config) -> Table {
    let mut t = Table::new(
        "ABL-FAR: near (20us) + far (2ms) clients, 1ms injected at backend 0",
        &[
            "variant",
            "client",
            "p95_before_us",
            "p95_after_us",
            "p95_steady_us",
            "w0_end",
            "rebuilds",
        ],
    );
    for (variant, aware) in [("maglev", false), ("latency-aware", true)] {
        let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> = if aware {
            Box::new(|backends| {
                LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()))
            })
        } else {
            Box::new(|backends| LbConfig::baseline(VIP, backends))
        };
        let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
        cluster_cfg.seed = cfg.seed;
        // Split the workload across a near and a far client host.
        let base = cluster_cfg.clients[0].clone();
        cluster_cfg.clients = vec![
            workload::MemtierConfig {
                connections: 8,
                ..base.clone()
            },
            workload::MemtierConfig {
                connections: 8,
                ..base
            },
        ];
        cluster_cfg.client_delay_overrides = vec![None, Some(Duration::from_millis(2))];
        let mut cluster = KvCluster::build(cluster_cfg);
        let inject_at = Time::ZERO + cfg.inject_at;
        cluster.inject_backend_delay(0, inject_at, cfg.extra);
        cluster.sim.run_for(cfg.duration);

        let lb = cluster.lb_node();
        let w0 = format!("{:.2}", lb.weights().get(0));
        let rebuilds = lb.stats().table_rebuilds.to_string();
        // "Steady state": the second half of the post-injection window,
        // past the connection-churn transition (routing changes only
        // apply to *new* connections, and far connections churn ∝ 1/RTT
        // — some 20x slower than near ones).
        let steady_from =
            inject_at.as_nanos() + (cfg.duration.as_nanos() - inject_at.as_nanos()) / 2;
        for (i, name) in [(0usize, "near"), (1, "far")] {
            let rec = &cluster.client_app(i).recorder;
            let before = p95_get_between(rec, 0, inject_at.as_nanos());
            let after = p95_get_after(rec, inject_at.as_nanos());
            let steady = p95_get_after(rec, steady_from);
            t.row(&[
                variant.to_string(),
                name.to_string(),
                format!("{:.1}", before as f64 / 1e3),
                format!("{:.1}", after as f64 / 1e3),
                format!("{:.1}", steady as f64 / 1e3),
                w0.clone(),
                rebuilds.clone(),
            ]);
        }
    }
    t
}

/// EXP-CONGESTION: §2.1 — "a slightly slower server that is reachable
/// faster may be preferable to a fast server with a congested network
/// path".
///
/// Backend 0 runs *faster* servers (40 µs median service vs. 80 µs) but
/// sits behind a 150 Mb/s bottleneck shared with bursty UDP cross traffic
/// (120 Mb/s in 20 ms bursts every 60 ms), whose queue adds milliseconds
/// of delay during bursts. A server-utilization signal would prefer
/// backend 0; end-to-end in-band measurement sees the queueing and shifts
/// to backend 1.
pub fn congestion(cfg: &Fig3Config) -> Table {
    let mut t = Table::new(
        "EXP-CONGESTION: fast server behind a congested path vs slower clean server",
        &[
            "pattern",
            "variant",
            "p95_us",
            "p99_us",
            "share_congested",
            "requests",
        ],
    );
    /// (label, blaster duty cycle, blaster rate).
    type Pattern = (&'static str, Option<(Duration, Duration)>, u64);
    let patterns: [Pattern; 3] = [
        // Continuous 130 Mb/s of a 150 Mb/s bottleneck: persistent queueing.
        ("sustained", None, 130_000_000),
        // Slow bursts the controller can track (200 ms on / 200 ms off).
        (
            "bursty-200ms",
            Some((Duration::from_millis(200), Duration::from_millis(200))),
            140_000_000,
        ),
        // Fast bursts well above the control loop's actuation bandwidth
        // (weights only affect *new* connections, which churn every ~50 ms).
        (
            "bursty-20ms",
            Some((Duration::from_millis(20), Duration::from_millis(40))),
            140_000_000,
        ),
    ];
    for (pattern, duty, rate) in patterns {
        for variant in [
            "maglev",
            "latency-aware",
            "aware-p90",
            "aware-p90-h100ms",
            "power-of-two",
        ] {
            let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> = match variant {
                "latency-aware" => Box::new(|backends| {
                    LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()))
                }),
                // Variance-aware signal: control on the windowed p90, so a
                // path that stalls periodically looks bad even when its
                // median between bursts is excellent.
                "aware-p90" => Box::new(|backends| {
                    let mut lb =
                        LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
                    lb.signal_quantile = 0.9;
                    lb
                }),
                // Variance-aware AND time-spanning: p90 over a 100 ms
                // horizon, longer than any burst period tested here.
                "aware-p90-h100ms" => Box::new(|backends| {
                    let mut lb =
                        LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
                    lb.signal_quantile = 0.9;
                    lb.signal_horizon = Some(Duration::from_millis(100));
                    lb
                }),
                "power-of-two" => Box::new(|backends| {
                    let mut lb =
                        LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
                    lb.policy = lb_dataplane::RoutingPolicy::PowerOfTwo;
                    lb
                }),
                _ => Box::new(|backends| LbConfig::baseline(VIP, backends)),
            };
            let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
            cluster_cfg.seed = cfg.seed;
            // Backend 0: faster servers, congested path. Backend 1: slower
            // servers, clean path. A server-load signal would prefer 0.
            cluster_cfg.backends[0].service = backend::ServiceDist::LogNormal {
                median: 40_000,
                sigma: 0.3,
            };
            cluster_cfg.backends[1].service = backend::ServiceDist::LogNormal {
                median: 80_000,
                sigma: 0.3,
            };
            cluster_cfg.congestion = Some(crate::topology::CongestionConfig {
                backend: 0,
                bottleneck_bps: 150_000_000,
                queue_bytes: 64 * 1024,
                blaster: netsim::blaster::BlasterConfig {
                    rate_bps: rate,
                    duty_cycle: duty,
                    ..netsim::blaster::BlasterConfig::default()
                },
            });
            let mut cluster = KvCluster::build(cluster_cfg);
            cluster.sim.run_for(cfg.duration);

            let rec = &cluster.client_app(0).recorder;
            let all = rec.get_series.merged();
            let b0 = cluster.backend_app(0).stats;
            let b1 = cluster.backend_app(1).stats;
            let served0 = b0.gets + b0.sets;
            let served1 = b1.gets + b1.sets;
            let share0 = served0 as f64 / (served0 + served1).max(1) as f64;
            t.row(&[
                pattern.to_string(),
                variant.to_string(),
                format!("{:.1}", all.quantile(0.95) as f64 / 1e3),
                format!("{:.1}", all.quantile(0.99) as f64 / 1e3),
                format!("{share0:.2}"),
                rec.responses.to_string(),
            ]);
        }
    }
    t
}

/// ABL-PCC: §2.5's connection-affinity requirement, quantified.
///
/// The latency-aware controller rebuilds the Maglev table as it moves
/// weights. With the flow table pinning established connections
/// (`affinity = true`), rebuilds are invisible to live connections. With
/// stateless per-packet routing (`affinity = false`, i.e. "Maglev lookup
/// only"), every rebuild strands the connections whose slots moved:
/// their packets arrive at a backend with no matching socket, draw RSTs,
/// and the client sees broken connections and lost requests.
pub fn pcc(cfg: &Fig3Config) -> Table {
    let mut t = Table::new(
        "ABL-PCC: connection affinity vs broken connections under weight churn",
        &[
            "affinity",
            "conns_opened",
            "conns_broken",
            "broken_pct",
            "requests_lost",
            "rebuilds",
        ],
    );
    for affinity in [true, false] {
        let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
            Box::new(move |backends| {
                let mut lb = LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
                lb.affinity = affinity;
                lb
            });
        let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
        cluster_cfg.seed = cfg.seed;
        let mut cluster = KvCluster::build(cluster_cfg);
        let inject_at = Time::ZERO + cfg.inject_at;
        cluster.inject_backend_delay(0, inject_at, cfg.extra);
        cluster.sim.run_for(cfg.duration);

        let stats = cluster.client_app(0).stats;
        let lb = cluster.lb_node();
        let broken_pct = 100.0 * stats.conns_broken as f64 / stats.conns_opened.max(1) as f64;
        t.row(&[
            affinity.to_string(),
            stats.conns_opened.to_string(),
            stats.conns_broken.to_string(),
            format!("{broken_pct:.1}"),
            stats.requests_lost.to_string(),
            lb.stats().table_rebuilds.to_string(),
        ]);
    }
    t
}

/// EXP-FAILOVER: §2.5 — connection survival across LB churn.
///
/// Two LB instances serve the VIP behind ECMP; at mid-run LB 0 "dies" and
/// the router re-hashes its flows onto LB 1, which has no flow-table
/// entries for them. Migrated packets take LB 1's stateless Maglev
/// fallback:
///
/// * with **plain Maglev**, both LBs hold the *same* table, so the
///   fallback resolves to the same backend and connections survive —
///   the statelessness that makes LB fleets resilient;
/// * with **latency-aware control**, each LB's controller reshaped its own
///   table independently, so a migrated flow may resolve to a different
///   backend and break — adaptive per-LB state quietly undermines the
///   failover story. (A real deployment would need either shared weight
///   state or flow-state sync.)
pub fn failover(cfg: &Fig3Config) -> Table {
    let mut t = Table::new(
        "EXP-FAILOVER: LB death mid-run, 2 LBs behind ECMP",
        &[
            "variant",
            "conns_opened",
            "conns_broken",
            "broken_pct",
            "requests",
        ],
    );
    for (variant, aware) in [("maglev", false), ("latency-aware", true)] {
        let make = move |backends: Vec<std::net::Ipv4Addr>| -> LbConfig {
            if aware {
                LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()))
            } else {
                LbConfig::baseline(VIP, backends)
            }
        };
        let mut cluster_cfg = KvClusterConfig::fig3_defaults(Box::new(make));
        cluster_cfg.extra_lbs = vec![Box::new(make)];
        // LB 0 dies mid-run; also inject the usual 1 ms slowdown earlier
        // so the aware LBs' tables have actually diverged from equal.
        cluster_cfg.lb_failure = Some((cfg.duration.div(2), 0));
        cluster_cfg.seed = cfg.seed;
        let mut cluster = KvCluster::build(cluster_cfg);
        let inject_at = Time::ZERO + cfg.inject_at;
        cluster.inject_backend_delay(0, inject_at, cfg.extra);
        cluster.sim.run_for(cfg.duration);

        let stats = cluster.client_app(0).stats;
        let broken_pct = 100.0 * stats.conns_broken as f64 / stats.conns_opened.max(1) as f64;
        t.row(&[
            variant.to_string(),
            stats.conns_opened.to_string(),
            stats.conns_broken.to_string(),
            format!("{broken_pct:.2}"),
            stats.completed.to_string(),
        ]);
    }
    t
}

/// ABL-OOB: §2.3 — in-band measurement vs. out-of-band server reports.
///
/// The out-of-band variant disables Algorithms 1/2 entirely; each backend
/// instead reports its locally measured request residence time to the
/// LB's control address every `period`. Two injection modes expose the
/// two failure axes the paper identifies:
///
/// * **server-side** slowdown (extra per-request service delay): the OOB
///   signal *can* see it, but `period` of staleness delays the reaction;
/// * **link** slowdown (delay on the LB→server path, the Fig. 3 event):
///   the server's self-measurement is *structurally blind* to it — only
///   end-to-end in-band measurement reacts at all.
pub fn oob_comparison(cfg: &Fig3Config) -> Table {
    let mut t = Table::new(
        "ABL-OOB: in-band vs out-of-band signals, 1ms injected at backend 0",
        &[
            "signal",
            "inject",
            "p95_after_us",
            "reaction_ms",
            "signal_events",
        ],
    );
    let variants: Vec<(&str, Option<Duration>)> = vec![
        ("in-band", None),
        ("oob-1ms", Some(Duration::from_millis(1))),
        ("oob-10ms", Some(Duration::from_millis(10))),
        ("oob-100ms", Some(Duration::from_millis(100))),
    ];
    for inject_mode in ["server", "link"] {
        for &(name, period) in &variants {
            let oob = period.is_some();
            let lb_factory: Box<dyn FnOnce(Vec<std::net::Ipv4Addr>) -> LbConfig> =
                Box::new(move |backends| {
                    let mut lb =
                        LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
                    if oob {
                        lb.inband = false;
                        lb.control_addr =
                            Some((crate::topology::CONTROL_IP, crate::topology::CONTROL_PORT));
                    }
                    lb
                });
            let mut cluster_cfg = KvClusterConfig::fig3_defaults(lb_factory);
            cluster_cfg.seed = cfg.seed;
            cluster_cfg.oob_report_period = period;
            let inject_at = Time::ZERO + cfg.inject_at;
            if inject_mode == "server" {
                cluster_cfg.backends[0].delay_schedule =
                    backend::DelaySchedule::step(inject_at.as_nanos(), cfg.extra.as_nanos());
            }
            let mut cluster = KvCluster::build(cluster_cfg);
            if inject_mode == "link" {
                cluster.inject_backend_delay(0, inject_at, cfg.extra);
            }
            cluster.sim.run_for(cfg.duration);

            let recorder = &cluster.client_app(0).recorder;
            let p95 = p95_get_after(recorder, inject_at.as_nanos());
            let lb = cluster.lb_node();
            let events = if oob {
                lb.stats().oob_reports
            } else {
                lb.stats().samples
            };
            t.row(&[
                name.to_string(),
                inject_mode.to_string(),
                format!("{:.1}", p95 as f64 / 1e3),
                reaction_after(lb, inject_at.as_nanos()),
                events.to_string(),
            ]);
        }
    }
    t
}

/// Convenience: run Fig. 3 and return its summary (used by the CLI).
pub fn fig3_summary(cfg: &Fig3Config) -> Table {
    let r = run_fig3(cfg);
    fig3_summary_table(&r)
}
