//! Ablation studies: the design-choice sweeps DESIGN.md calls out, plus
//! experiments for the paper's §5 open questions. The `ablations` binary
//! runs each by name.

use lb_dataplane::{LbConfig, Steering};
use lbcore::{
    AimdController, AlphaShift, Controller, EnsembleConfig, GossipConfig, ProportionalController,
    Weights,
};
use netsim::{Duration, Time};
use telemetry::{AccuracySummary, JournalEvent, JournalMode, Table};

use crate::fig2::{capture_trace, observe, replay_ensemble, values_in, Fig2Config, Fig2Trace};
use crate::fig3::{run_fig3_aware, Fig3Config};
use crate::kv::{
    inflation, ms_after, p95_in, reaction, us, KvCluster, KvClusterConfig, LbFactory, Reaction,
    Timeline,
};
use crate::topology::{BacklogScenario, BacklogScenarioConfig, CONTROL_IP, CONTROL_PORT, VIP};

/// The latency-aware LB (damped α-shift) with `tweak` applied.
fn aware(tweak: impl Fn(&mut LbConfig) + 'static) -> LbFactory {
    Box::new(move |backends| {
        let mut lb = LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()));
        tweak(&mut lb);
        lb
    })
}

/// Builds `cluster` and runs it through `timeline`.
fn run(cluster: KvClusterConfig, timeline: &Timeline) -> KvCluster {
    let mut cluster = KvCluster::build(cluster);
    cluster.run(timeline);
    cluster
}

/// The Fig. 3 run of `cfg` behind one latency-aware LB with `tweak`
/// applied.
fn run_aware(cfg: &Fig3Config, tweak: impl Fn(&mut LbConfig) + 'static) -> KvCluster {
    let cluster = KvClusterConfig {
        lb: aware(tweak),
        ..cfg.cluster(true)
    };
    run(cluster, &cfg.timeline())
}

/// Client 0's p95 GET latency in the bins starting in `[lo, hi)`, in µs.
fn p95_us(cluster: &KvCluster, lo: u64, hi: u64) -> String {
    us(p95_in(&cluster.client_app(0).recorder.get_series, lo, hi))
}

/// Milliseconds from `from_ns` until LB 0's weight on the degraded
/// backend is decisively shifted away (< 0.3), as "reaction time".
/// Controllers with a small margin wander even without an injection;
/// when the weight already sat below the threshold at injection time,
/// that is reported explicitly.
fn reaction_ms(cluster: &KvCluster, from_ns: u64) -> String {
    match reaction(&[cluster.lb_node(0).weight_series(0)], from_ns, 0.3) {
        Some(Reaction::AlreadyBelow) => "pre-shifted".into(),
        r => ms_after(r.map(|r| r.instant(from_ns)), from_ns),
    }
}

/// LB 0's Maglev table rebuilds.
fn rebuilds(cluster: &KvCluster) -> String {
    cluster.lb_node(0).stats().table_rebuilds.to_string()
}

/// A change to a config, naming an ablation variant.
type Tweak<T> = fn(&mut T);

/// Median relative error of `samples` against the truth, both after `from`.
fn accuracy_of(trace: &Fig2Trace, samples: &[(u64, u64)], from: u64) -> f64 {
    let after = |s: &[(u64, u64)]| values_in(s, from + 1, u64::MAX);
    AccuracySummary::compare(&after(samples), &after(&trace.truth), &[0.5]).median_rel_err
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
    let inject = cfg.inject_at.as_nanos();
    for &alpha in alphas {
        let cluster = run_aware(cfg, move |lb| {
            lb.steering = Steering::Control(Box::new(AlphaShift::damped().with_alpha(alpha)));
        });
        t.row(&[
            format!("{alpha:.2}"),
            p95_us(&cluster, inject, u64::MAX),
            reaction_ms(&cluster, inject),
            rebuilds(&cluster),
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
    let inject = cfg.inject_at.as_nanos();
    for &margin in margins {
        let cluster = run_aware(cfg, move |lb| {
            let mut ctl = AlphaShift::damped();
            ctl.margin = margin;
            lb.steering = Steering::Control(Box::new(ctl));
        });
        t.row(&[
            format!("{margin:.2}"),
            p95_us(&cluster, 0, inject),
            p95_us(&cluster, inject, u64::MAX),
            reaction_ms(&cluster, inject),
            rebuilds(&cluster),
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
    let variants: [(&str, Tweak<BacklogScenarioConfig>); 4] = [
        ("baseline", |_| {}),
        ("delayed-acks", |s| {
            s.sink_delayed_ack = nettcp::DelayedAck::Enabled {
                max_delay: Duration::from_millis(40),
            };
        }),
        ("pacing", |s| {
            s.client_pacing = nettcp::Pacing::Enabled {
                min_gap: Duration::from_micros(120),
            };
        }),
        ("app-limited", |s| {
            s.app_limited = Some((Duration::from_millis(5), 2 * 1400));
        }),
    ];
    for (name, tweak) in variants {
        let mut scfg = BacklogScenarioConfig {
            seed: cfg.seed,
            ..BacklogScenarioConfig::fig2_defaults()
        };
        tweak(&mut scfg);
        let trace = observe(BacklogScenario::build(scfg), cfg.duration, 0);
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
    let inject = cfg.inject_at.as_nanos();
    let steerings: [(&str, Tweak<LbConfig>); 4] = [
        ("alpha-shift", |lb| {
            lb.steering = Steering::Control(Box::new(AlphaShift::damped()));
        }),
        ("aimd", |lb| {
            lb.steering = Steering::Control(Box::new(AimdController::new()));
        }),
        ("proportional", |lb| {
            lb.steering = Steering::Control(Box::new(ProportionalController::new(1.0)));
        }),
        // Power-of-two-choices: no controller at all — the in-band
        // estimates drive each new connection's choice directly.
        ("power-of-two", |lb| lb.steering = Steering::PowerOfTwo),
    ];
    for (name, tweak) in steerings {
        let cluster = run_aware(cfg, tweak);
        let reaction = match name {
            "power-of-two" => "per-conn".to_string(),
            _ => reaction_ms(&cluster, inject),
        };
        t.row(&[
            name.to_string(),
            p95_us(&cluster, inject, u64::MAX),
            reaction,
            rebuilds(&cluster),
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
    let inject = cfg.inject_at.as_nanos();
    for (name, rule) in [
        ("argmax-ratio (paper)", CliffRule::ArgmaxRatio),
        ("flat-head (ours)", CliffRule::FlatHead { rho: 1.5 }),
    ] {
        let cluster = run_aware(cfg, move |lb| {
            lb.ensemble.rule = rule;
            // The giant-sample column reads every sample's `T_LB`
            // (~4.1M in the default 60 s run), so no cap.
            lb.journal = JournalMode::Full(usize::MAX);
        });
        let lb = cluster.lb_node(0);
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
            p95_us(&cluster, inject, u64::MAX),
            reaction_ms(&cluster, inject),
            rebuilds(&cluster),
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
    let inject = cfg.inject_at.as_nanos();
    // "Steady state": the second half of the post-injection window,
    // past the connection-churn transition (routing changes only apply
    // to *new* connections, and far connections churn ∝ 1/RTT — some
    // 20x slower than near ones).
    let steady_from = inject + (cfg.duration.as_nanos() - inject) / 2;
    for (variant, latency_aware) in [("maglev", false), ("latency-aware", true)] {
        let mut cluster_cfg = cfg.cluster(latency_aware);
        // Split the workload across a near and a far client host.
        cluster_cfg.clients[0].connections = 8;
        cluster_cfg.clients.push(cluster_cfg.clients[0].clone());
        cluster_cfg.client_delay_overrides = vec![None, Some(Duration::from_millis(2))];
        let cluster = run(cluster_cfg, &cfg.timeline());

        let w0 = format!("{:.2}", cluster.lb_node(0).weights().get(0));
        for (i, name) in [(0usize, "near"), (1, "far")] {
            let gets = &cluster.client_app(i).recorder.get_series;
            t.row(&[
                variant.to_string(),
                name.to_string(),
                us(p95_in(gets, 0, inject)),
                us(p95_in(gets, inject, u64::MAX)),
                us(p95_in(gets, steady_from, u64::MAX)),
                w0.clone(),
                rebuilds(&cluster),
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
    // Plain Maglev (`None`), or the latency-aware LB with a tweak.
    let variants: [(&str, Option<Tweak<LbConfig>>); 5] = [
        ("maglev", None),
        ("latency-aware", Some(|_| {})),
        // Variance-aware signal: control on the windowed p90, so a path
        // that stalls periodically looks bad even when its median between
        // bursts is excellent.
        ("aware-p90", Some(|lb| lb.signal_quantile = 0.9)),
        // Variance-aware AND time-spanning: p90 over a 100 ms horizon,
        // longer than any burst period tested here.
        (
            "aware-p90-h100ms",
            Some(|lb| {
                lb.signal_quantile = 0.9;
                lb.signal_horizon = Some(Duration::from_millis(100));
            }),
        ),
        (
            "power-of-two",
            Some(|lb| lb.steering = Steering::PowerOfTwo),
        ),
    ];
    for (pattern, duty, rate) in patterns {
        for (variant, tweak) in variants {
            let mut cluster_cfg = cfg.cluster(false);
            if let Some(tweak) = tweak {
                cluster_cfg.lb = aware(tweak);
            }
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
            cluster_cfg.congestion = Some(crate::kv::CongestionConfig {
                backend: 0,
                bottleneck_bps: 150_000_000,
                queue_bytes: 64 * 1024,
                blaster: netsim::blaster::BlasterConfig {
                    rate_bps: rate,
                    duty_cycle: duty,
                    ..netsim::blaster::BlasterConfig::default()
                },
            });
            // No injection: the congestion is the disturbance.
            let timeline = Timeline {
                duration: cfg.duration,
                ..Timeline::default()
            };
            let cluster = run(cluster_cfg, &timeline);

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
        let cluster = run_aware(cfg, move |lb| lb.affinity = affinity);
        let stats = cluster.client_app(0).stats;
        let broken_pct = 100.0 * stats.conns_broken as f64 / stats.conns_opened.max(1) as f64;
        t.row(&[
            affinity.to_string(),
            stats.conns_opened.to_string(),
            stats.conns_broken.to_string(),
            format!("{broken_pct:.1}"),
            stats.requests_lost.to_string(),
            rebuilds(&cluster),
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
    for (variant, latency_aware) in [("maglev", false), ("latency-aware", true)] {
        let mut cluster_cfg = cfg.cluster(latency_aware);
        cluster_cfg.lbs = 2;
        // LB 0 dies mid-run.
        cluster_cfg.lb_failure = Some((cfg.duration.div(2), 0));
        let mut cluster = KvCluster::build(cluster_cfg);
        // The usual 1 ms slowdown, earlier and on LB 0's path only, so
        // the aware LBs' tables have actually diverged from equal.
        let (at, link, lb0) = (
            Time::ZERO + cfg.inject_at,
            cluster.fwd_links[0][0],
            cluster.lbs[0],
        );
        cluster.sim.schedule_extra_delay(at, link, lb0, cfg.extra);
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
    let inject = cfg.inject_at.as_nanos();
    for inject_mode in ["server", "link"] {
        for &(name, period) in &variants {
            let oob = period.is_some();
            let mut cluster_cfg = cfg.cluster(true);
            if oob {
                cluster_cfg.lb = aware(|lb| {
                    lb.steering = Steering::OutOfBand {
                        controller: Box::new(AlphaShift::damped()),
                        addr: (CONTROL_IP, CONTROL_PORT),
                    };
                });
            }
            cluster_cfg.oob_report_period = period;
            let mut timeline = cfg.timeline();
            if inject_mode == "server" {
                cluster_cfg.backends[0].delay_schedule =
                    backend::DelaySchedule::step(inject, cfg.extra.as_nanos());
                timeline.injections.clear();
            }
            let cluster = run(cluster_cfg, &timeline);

            let stats = cluster.lb_node(0).stats();
            let events = if oob {
                stats.oob_reports
            } else {
                stats.samples
            };
            t.row(&[
                name.to_string(),
                inject_mode.to_string(),
                p95_us(&cluster, inject, u64::MAX),
                reaction_ms(&cluster, inject),
                events.to_string(),
            ]);
        }
    }
    t
}

/// EXP-MULTILB: the Fig. 3 timeline behind an ECMP-sharded tier of N
/// latency-aware LBs, with the delay injected on every LB's path to
/// backend 0. Each LB sees only the flows that hash to it and must
/// converge from that 1/N sample. For each N in `ns` the tier runs
/// isolated, and for every N > 1 also with `gossip` (over a tier of one,
/// gossip is a no-op, so that row would repeat the isolated one).
pub fn multilb_sweep(cfg: &Fig3Config, ns: &[usize], gossip: GossipConfig) -> Table {
    let mut t = Table::new(
        "Multi-LB tier: reaction and p95 GET latency vs. tier size N \
         (1ms injected on backend 0, every LB path)",
        &[
            "n_lbs",
            "feedback",
            "reaction_ms",
            "slowest_shard_ms",
            "p95_before_us",
            "p95_after_us",
            "inflation",
            "requests",
            "samples_per_lb",
            "merges",
        ],
    );
    let inject = cfg.inject_at.as_nanos();
    for &n in ns {
        for (feedback, shared) in [("isolated", None), ("gossip", Some(gossip))] {
            if n == 1 && shared.is_some() {
                continue;
            }
            let run = run_fig3_aware(&Fig3Config {
                lbs: n,
                gossip: shared,
                ..cfg.clone()
            });
            // A shard that never reacted is the slowest.
            let slowest = run.lbs.iter().map(|lb| lb.reaction);
            let slowest = slowest.max_by_key(|r| r.unwrap_or(u64::MAX)).flatten();
            let samples = run.lbs.iter().map(|lb| lb.stats.samples);
            let min_s = samples.clone().min().unwrap_or(0);
            let max_s = samples.max().unwrap_or(0);
            let merges: u64 = run.lbs.iter().map(|lb| lb.stats.gossip_merges).sum();
            t.row(&[
                n.to_string(),
                feedback.to_string(),
                ms_after(run.first_reaction, inject),
                ms_after(slowest, inject),
                us(run.p95_before),
                us(run.p95_after),
                inflation(run.p95_before, run.p95_after),
                run.completed.to_string(),
                format!("{min_s}..{max_s}"),
                merges.to_string(),
            ]);
        }
    }
    t
}
