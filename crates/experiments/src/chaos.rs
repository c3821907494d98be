//! The chaos scenario: a backend crash and restart under the Fig. 3
//! cluster, plain Maglev vs. the latency-aware LB with health ejection.
//!
//! The failure mode this demonstrates is the blackhole the paper's
//! in-band signal closes: when a backend dies, a hash-only LB keeps
//! assigning it new connections forever (clients burn RTO after RTO),
//! while the latency-aware LB notices the *silence* — traffic offered,
//! zero `T_LB` samples returned — ejects the backend within a few
//! detection epochs, migrates its pinned flows, and readmits it through
//! probation once it answers again after the restart.

use lb_dataplane::LbStats;
use netsim::fault::ImpairmentConfig;
use netsim::Duration;
use telemetry::Table;
use workload::client::MemtierStats;

use crate::fig3::Fig3Config;
use crate::kv::{p95_table, Fault, FaultKind, KvCluster, KvClusterConfig, Timeline};

/// Chaos-scenario parameters. The default compresses a paper-scale
/// timeline (200 s, crash at t = 100 s, restart at t = 150 s) into 60 s.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Total run length.
    pub duration: Duration,
    /// When backend 0 crashes (goes completely silent).
    pub crash_at: Duration,
    /// When backend 0 restarts.
    pub restart_at: Duration,
    /// Optional packet impairment on the survivor's forwarding path
    /// during the outage (corruption/duplication/reordering), to stress
    /// detection while the cluster is already degraded.
    pub impair: Option<ImpairmentConfig>,
    /// Latency-series bin width.
    pub bin: Duration,
    /// Root seed.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            duration: Duration::from_secs(60),
            crash_at: Duration::from_secs(20),
            restart_at: Duration::from_secs(40),
            impair: None,
            bin: Duration::from_secs(1),
            seed: 42,
        }
    }
}

impl ChaosConfig {
    /// The cluster: the Fig. 3 defaults behind one plain-Maglev or
    /// latency-aware LB (health ejection is on in the latter).
    pub fn cluster(&self, latency_aware: bool) -> KvClusterConfig {
        Fig3Config {
            bin: self.bin,
            seed: self.seed,
            ..Fig3Config::default()
        }
        .cluster(latency_aware)
    }

    /// The run: backend 0 down from `crash_at` to `restart_at`, and the
    /// optional impairment on the survivor's forwarding path over the
    /// same window.
    pub fn timeline(&self) -> Timeline {
        let outage = |kind| Fault {
            kind,
            from: self.crash_at,
            until: self.restart_at,
        };
        let mut faults = vec![outage(FaultKind::Crash(0))];
        faults.extend(self.impair.map(|cfg| outage(FaultKind::Impair(0, 1, cfg))));
        Timeline {
            duration: self.duration,
            faults,
            ..Timeline::default()
        }
    }
}

/// One LB variant's outcome.
pub struct ChaosRun {
    /// `(bin start ns, p95 GET latency ns)` series.
    pub p95_series: Vec<(u64, u64)>,
    /// Completed requests.
    pub completed: u64,
    /// The client's counters: connections broken under it (reset or
    /// RTO-aborted) and the requests lost on them.
    pub client: MemtierStats,
    /// The LB's counters: health ejections and readmissions, and the
    /// flow-table entries migrated off the dead backend.
    pub lb: LbStats,
    /// First instant at or after the crash when the crashed backend's
    /// weight reached zero (the ejection), if any (ns).
    pub ejected_at: Option<u64>,
    /// First instant at or after the restart when the crashed backend's
    /// weight rose above zero again (the readmission), if any (ns).
    pub readmitted_at: Option<u64>,
}

/// The full chaos result: baseline vs. latency-aware.
pub struct ChaosResult {
    /// Parameters used.
    pub cfg: ChaosConfig,
    /// Plain-Maglev run (no health tracking: the blackhole).
    pub baseline: ChaosRun,
    /// Latency-aware run with health ejection.
    pub aware: ChaosRun,
}

fn run_variant(cfg: &ChaosConfig, latency_aware: bool) -> ChaosRun {
    let mut cluster = KvCluster::build(cfg.cluster(latency_aware));
    cluster.run(&cfg.timeline());

    let client = cluster.client_app(0);
    let lb = cluster.lb_node(0);
    let dead_weight = lb.weight_series(0);
    ChaosRun {
        p95_series: client.recorder.get_series.quantile_series(0.95),
        completed: client.recorder.responses,
        client: client.stats,
        lb: lb.stats(),
        ejected_at: dead_weight.first_time_after(cfg.crash_at.as_nanos(), |w| w <= 0.0),
        readmitted_at: dead_weight.first_time_after(cfg.restart_at.as_nanos(), |w| w > 0.0),
    }
}

/// Runs both variants.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosResult {
    let baseline = run_variant(cfg, false);
    let aware = run_variant(cfg, true);
    ChaosResult {
        cfg: cfg.clone(),
        baseline,
        aware,
    }
}

/// Renders the p95-vs-time comparison (the recovery shape).
pub fn chaos_table(r: &ChaosResult) -> Table {
    p95_table(
        "Chaos: p95 GET latency over time (us), backend 0 crashed then restarted",
        &r.baseline.p95_series,
        &r.aware.p95_series,
    )
}

/// Renders the summary rows: detection/readmission timing and damage.
pub fn chaos_summary_table(r: &ChaosResult) -> Table {
    let mut t = Table::new(
        "Chaos summary",
        &[
            "variant",
            "requests",
            "conns_broken",
            "requests_lost",
            "eject_ms",
            "readmit_ms",
            "repinned",
            "ejections",
            "readmissions",
        ],
    );
    // Milliseconds from `from` to `t`, one decimal.
    let ms_since = |t: Option<u64>, from: Duration| {
        t.map(|t| format!("{:.1}", t.saturating_sub(from.as_nanos()) as f64 / 1e6))
            .unwrap_or_else(|| "-".into())
    };
    for (name, run) in [("maglev", &r.baseline), ("latency-aware", &r.aware)] {
        t.row(&[
            name.to_string(),
            run.completed.to_string(),
            run.client.conns_broken.to_string(),
            run.client.requests_lost.to_string(),
            ms_since(run.ejected_at, r.cfg.crash_at),
            ms_since(run.readmitted_at, r.cfg.restart_at),
            run.lb.flows_repinned.to_string(),
            run.lb.ejections.to_string(),
            run.lb.readmissions.to_string(),
        ]);
    }
    t
}
