//! LB configuration: what to measure, how to route, and the knobs.

use std::net::Ipv4Addr;

use lbcore::{Controller, EnsembleConfig, HealthConfig};
use netsim::Duration;
use telemetry::JournalMode;

/// How new connections are assigned to backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Weighted Maglev (the paper's design): the feedback controller
    /// reshapes backend weights and the table is rebuilt to match.
    WeightedMaglev,
    /// Latency-aware power-of-two-choices: each new connection hashes to
    /// two candidate backends and picks the one with the lower fresh
    /// in-band latency estimate (falling back to the first candidate when
    /// estimates are missing). No controller, no table rebuilds — the
    /// measurements drive per-connection decisions directly.
    PowerOfTwo,
}

/// What the LB does with the measurement machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureMode {
    /// Plain Maglev: no per-packet measurement at all (the baseline).
    Off,
    /// Run Algorithms 1/2 and record samples, but never change weights
    /// (used to evaluate measurement accuracy, Fig. 2).
    Observe,
    /// Measure and let the controller adapt weights (the paper's design).
    Control,
}

/// Load-balancer configuration.
pub struct LbConfig {
    /// The virtual IP clients address.
    pub vip: Ipv4Addr,
    /// Backend addresses, indexed by backend id.
    pub backends: Vec<Ipv4Addr>,
    /// Maglev table size (prime).
    pub table_size: usize,
    /// Ensemble estimator parameters.
    pub ensemble: EnsembleConfig,
    /// Measurement/control mode.
    pub mode: MeasureMode,
    /// New-connection routing policy.
    pub policy: RoutingPolicy,
    /// Whether in-band measurement (Algorithms 1/2) runs. Disable it to
    /// drive the controller purely from out-of-band reports — the §2.3
    /// baseline the paper argues against.
    pub inband: bool,
    /// Control address for out-of-band reports: UDP datagrams to this
    /// `(ip, port)` carrying `netpkt::oob` reports feed the per-backend
    /// estimator directly.
    pub control_addr: Option<(Ipv4Addr, u16)>,
    /// The feedback controller (used in [`MeasureMode::Control`]).
    pub controller: Box<dyn Controller>,
    /// Weight floor (see [`lbcore::Weights`]).
    pub weight_floor: f64,
    /// EWMA gain for per-backend latency.
    pub estimator_alpha: f64,
    /// Windowed quantile used as the control signal (0.5 = median;
    /// higher values are variance-aware).
    pub signal_quantile: f64,
    /// Optional time horizon for the signal window: compute the quantile
    /// over samples from the last `horizon` instead of a fixed count —
    /// signal memory for periodic disturbances.
    pub signal_horizon: Option<Duration>,
    /// Estimates older than this are ignored by the controller.
    pub estimator_staleness: Duration,
    /// Whether established connections are pinned to their backend via the
    /// flow table (§2.5's connection affinity requirement). Disabling this
    /// routes *every* packet through the current Maglev table — the
    /// configuration the ABL-PCC experiment uses to show how many
    /// connections a weight change breaks without connection tracking.
    pub affinity: bool,
    /// Idle timeout for flow-table entries.
    pub flow_idle_timeout: Duration,
    /// Flow-table capacity (entries); at capacity, inserts evict
    /// approximately-LRU victims, bounding LB memory under SYN floods.
    pub flow_table_capacity: usize,
    /// Period of the flow-table sweep timer.
    pub sweep_interval: Duration,
    /// Backend health tracking (crash/stall ejection). Only active in
    /// in-band [`MeasureMode::Control`] with [`RoutingPolicy::WeightedMaglev`]:
    /// the detector's "offered traffic but producing no samples" signal
    /// needs the in-band measurement path, and ejection acts by zeroing
    /// table weights. `None` disables health tracking entirely.
    pub health: Option<HealthConfig>,
    /// Decision-journal mode. Defaults to [`JournalMode::Off`]; emission
    /// sites are gated on it and the journal never sends packets or arms
    /// timers, so pinned determinism traces are byte-identical either way.
    pub journal: JournalMode,
}

impl LbConfig {
    /// A latency-aware LB with the paper's parameters and a given
    /// controller.
    pub fn latency_aware(
        vip: Ipv4Addr,
        backends: Vec<Ipv4Addr>,
        controller: Box<dyn Controller>,
    ) -> LbConfig {
        LbConfig {
            vip,
            backends,
            table_size: lbcore::maglev::DEFAULT_TABLE_SIZE,
            // Control mode defaults to the robust cliff rule; see the
            // CliffRule docs for why the paper's rule fails on KV traffic.
            ensemble: EnsembleConfig::robust(),
            mode: MeasureMode::Control,
            policy: RoutingPolicy::WeightedMaglev,
            inband: true,
            control_addr: None,
            controller,
            weight_floor: 0.02,
            estimator_alpha: 0.2,
            signal_quantile: 0.5,
            signal_horizon: None,
            estimator_staleness: Duration::from_millis(500),
            affinity: true,
            flow_idle_timeout: Duration::from_secs(5),
            flow_table_capacity: 1 << 20,
            sweep_interval: Duration::from_secs(1),
            health: Some(HealthConfig::default()),
            journal: JournalMode::Off,
        }
    }

    /// The plain-Maglev baseline (no measurement, no adaptation).
    pub fn baseline(vip: Ipv4Addr, backends: Vec<Ipv4Addr>) -> LbConfig {
        let mut cfg = Self::latency_aware(vip, backends, Box::new(lbcore::AlphaShift::paper()));
        cfg.mode = MeasureMode::Off;
        cfg
    }

    /// Measurement-only mode (Fig. 2 experiments). Uses the paper's
    /// argmax-ratio cliff rule for figure fidelity.
    pub fn observer(vip: Ipv4Addr, backends: Vec<Ipv4Addr>) -> LbConfig {
        let mut cfg = Self::latency_aware(vip, backends, Box::new(lbcore::AlphaShift::paper()));
        cfg.mode = MeasureMode::Observe;
        cfg.ensemble = EnsembleConfig::default();
        cfg
    }
}
