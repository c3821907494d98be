//! Fig. 3 of the paper: tail latency of a load-balanced two-backend
//! key-value cluster under a 1 ms latency injection, plain Maglev vs. the
//! latency-aware LB. The same timeline runs behind an ECMP tier of `lbs`
//! LBs, each seeing only its shard of the flows, isolated or gossiping
//! weights (EXP-MULTILB); at `lbs = 1` that tier is the paper's setup.

use lb_dataplane::{LbConfig, LbStats};
use lbcore::{AlphaShift, GossipConfig};
use netsim::Duration;
use telemetry::{JournalMode, ScalarSeries, SpanMode, Table};

use crate::kv::{
    inflation, ms_after, p95_in, p95_table, reaction, us, Injection, KvCluster, KvClusterConfig,
    Timeline,
};
use crate::topology::VIP;

/// Fig. 3 parameters. The paper runs 200 s with the injection at t = 100 s
/// on CloudLab; the default here is a 60 s run with injection at t = 20 s
/// (the dynamics are identical and the simulation stays snappy); pass
/// `full()` for the paper's timeline.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Total run length.
    pub duration: Duration,
    /// When the delay is injected, on every LB's path to backend 0.
    pub inject_at: Duration,
    /// Injected extra delay.
    pub extra: Duration,
    /// Latency-series bin width.
    pub bin: Duration,
    /// Root seed.
    pub seed: u64,
    /// Decision-journal mode of every latency-aware LB (`Off` by default;
    /// journaling never perturbs the packet schedule, only records it).
    pub journal: JournalMode,
    /// Causal span-tracing mode (`Off` by default; like the journal,
    /// tracing records the schedule without perturbing it).
    pub span: SpanMode,
    /// LB instances behind the VIP's ECMP route (1: the paper's setup).
    pub lbs: usize,
    /// Weight gossip between the LBs (`None`: each LB reacts to its own
    /// shard of the flows only).
    pub gossip: Option<GossipConfig>,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            duration: Duration::from_secs(60),
            inject_at: Duration::from_secs(20),
            extra: Duration::from_millis(1),
            bin: Duration::from_secs(1),
            seed: 42,
            journal: JournalMode::Off,
            span: SpanMode::Off,
            lbs: 1,
            gossip: None,
        }
    }
}

impl Fig3Config {
    /// The paper's timeline: 200 s, injection at t = 100 s.
    pub fn full() -> Fig3Config {
        Fig3Config {
            duration: Duration::from_secs(200),
            inject_at: Duration::from_secs(100),
            ..Fig3Config::default()
        }
    }

    /// A fast variant for integration tests: 12 s, injection at t = 4 s.
    pub fn quick() -> Fig3Config {
        Fig3Config {
            duration: Duration::from_secs(12),
            inject_at: Duration::from_secs(4),
            bin: Duration::from_millis(500),
            ..Fig3Config::default()
        }
    }

    /// The cluster: the Fig. 3 defaults behind `lbs` plain-Maglev or
    /// latency-aware (damped α-shift) LBs.
    pub fn cluster(&self, latency_aware: bool) -> KvClusterConfig {
        let journal = self.journal;
        let mut cluster = if latency_aware {
            KvClusterConfig::fig3_defaults(move |backends| LbConfig {
                journal,
                ..LbConfig::latency_aware(VIP, backends, Box::new(AlphaShift::damped()))
            })
        } else {
            KvClusterConfig::fig3_defaults(|backends| LbConfig::baseline(VIP, backends))
        };
        cluster.lbs = self.lbs;
        cluster.seed = self.seed;
        for c in &mut cluster.clients {
            c.recorder_bin = self.bin;
        }
        cluster
    }

    /// The run: `extra` on every LB's path to backend 0 from `inject_at`,
    /// and the gossip.
    pub fn timeline(&self) -> Timeline {
        Timeline {
            duration: self.duration,
            faults: Vec::new(),
            injections: vec![Injection {
                backend: 0,
                at: self.inject_at,
                extra: self.extra,
            }],
            gossip: self.gossip,
        }
    }
}

/// One LB variant's outcome.
pub struct Fig3Run {
    /// `(bin start ns, p95 GET latency ns)` series.
    pub p95_series: Vec<(u64, u64)>,
    /// p95 GET latency over the pre-injection window.
    pub p95_before: u64,
    /// p95 GET latency over the post-injection window.
    pub p95_after: u64,
    /// Completed requests.
    pub completed: u64,
    /// "Reaction": the first instant at or after the injection when the
    /// tier's mean weight on the degraded backend is below one half; the
    /// injection instant itself if noise-driven wander had already put it
    /// there (the system was routing around the backend that then
    /// degraded). `None`: never.
    pub first_reaction: Option<u64>,
    /// Each LB's own outcome, by LB index.
    pub lbs: Vec<LbRun>,
    /// The run's span records as NDJSON, canonically sorted (empty unless
    /// [`Fig3Config::span`] is enabled).
    pub spans: String,
    /// Hop records the span log rejected after its capacity filled — a
    /// non-zero value means `spans` covers only a prefix of the run.
    pub spans_dropped: u64,
}

/// One LB's share of a [`Fig3Run`].
pub struct LbRun {
    /// Its counters (`samples` is the visibility its shard gave it,
    /// `forwarded` the shard's size).
    pub stats: LbStats,
    /// The reaction rule over this LB's weight series alone.
    pub reaction: Option<u64>,
    /// Its decision journal as NDJSON (empty unless
    /// [`Fig3Config::journal`] is enabled).
    pub journal: String,
    /// Journal events rejected after its capacity filled — a non-zero
    /// value means `journal` covers only a prefix of the run.
    pub journal_dropped: u64,
}

/// The full Fig. 3 result: baseline vs. latency-aware.
pub struct Fig3Result {
    /// Parameters used.
    pub cfg: Fig3Config,
    /// Plain-Maglev run.
    pub baseline: Fig3Run,
    /// Latency-aware run.
    pub aware: Fig3Run,
}

fn run_variant(cfg: &Fig3Config, latency_aware: bool) -> Fig3Run {
    let mut cluster = KvCluster::build(cfg.cluster(latency_aware));
    cluster.sim.enable_spans(cfg.span);
    cluster.run(&cfg.timeline());

    let spans_dropped = cluster.sim.spans().dropped();
    let spans = {
        let mut recs = cluster.sim.take_span_records();
        telemetry::span::sort_records(&mut recs);
        telemetry::span::to_ndjson(&recs)
    };
    let gets = &cluster.client_app(0).recorder.get_series;
    let inject_ns = cfg.inject_at.as_nanos();
    let reaction_of =
        |series: &[&ScalarSeries]| reaction(series, inject_ns, 0.5).map(|r| r.instant(inject_ns));
    let degraded: Vec<&ScalarSeries> = (0..cfg.lbs)
        .map(|i| cluster.lb_node(i).weight_series(0))
        .collect();
    Fig3Run {
        p95_series: gets.quantile_series(0.95),
        p95_before: p95_in(gets, 0, inject_ns),
        p95_after: p95_in(gets, inject_ns, u64::MAX),
        completed: cluster.client_app(0).recorder.responses,
        first_reaction: reaction_of(&degraded),
        lbs: (0..cfg.lbs)
            .map(|i| {
                let lb = cluster.lb_node(i);
                LbRun {
                    stats: lb.stats(),
                    reaction: reaction_of(&[lb.weight_series(0)]),
                    journal: lb.journal().to_ndjson(),
                    journal_dropped: lb.journal().overflow(),
                }
            })
            .collect(),
        spans,
        spans_dropped,
    }
}

/// Runs only the latency-aware variant, over the whole tier.
pub fn run_fig3_aware(cfg: &Fig3Config) -> Fig3Run {
    run_variant(cfg, true)
}

/// Runs both variants.
pub fn run_fig3(cfg: &Fig3Config) -> Fig3Result {
    let baseline = run_variant(cfg, false);
    let aware = run_variant(cfg, true);
    Fig3Result {
        cfg: cfg.clone(),
        baseline,
        aware,
    }
}

/// Renders the p95-vs-time comparison (the figure's two curves).
pub fn fig3_table(r: &Fig3Result) -> Table {
    p95_table(
        "Fig 3: p95 GET latency over time (us), 1ms injected at one backend",
        &r.baseline.p95_series,
        &r.aware.p95_series,
    )
}

/// Renders the summary rows (who wins, by how much, and reaction speed).
pub fn fig3_summary_table(r: &Fig3Result) -> Table {
    let mut t = Table::new(
        "Fig 3 summary",
        &[
            "variant",
            "p95_before_us",
            "p95_after_us",
            "inflation",
            "reaction_ms",
            "requests",
        ],
    );
    let inject_ns = r.cfg.inject_at.as_nanos();
    for (name, run) in [("maglev", &r.baseline), ("latency-aware", &r.aware)] {
        t.row(&[
            name.to_string(),
            us(run.p95_before),
            us(run.p95_after),
            inflation(run.p95_before, run.p95_after),
            ms_after(run.first_reaction, inject_ns),
            run.completed.to_string(),
        ]);
    }
    t
}
