//! LB configuration: what steers new connections, and the knobs.

use std::net::Ipv4Addr;

use lbcore::{Controller, EnsembleConfig, HealthConfig};
use netsim::Duration;
use telemetry::JournalMode;

/// What drives a new connection's backend: the five configurations the
/// LB runs, from plain Maglev to the paper's in-band feedback loop.
pub enum Steering {
    /// Plain Maglev: no per-packet measurement at all (the baseline).
    Off,
    /// Run Algorithms 1/2 and record samples, but never change weights
    /// (used to evaluate measurement accuracy, Fig. 2).
    Observe,
    /// In-band `T_LB` samples drive the controller, which reshapes the
    /// weighted Maglev table (the paper's design).
    Control(Box<dyn Controller>),
    /// §2.3's baseline, which the paper argues against: no in-band
    /// measurement; UDP datagrams to `addr` carrying `netpkt::oob`
    /// reports feed the estimator and drive `controller`.
    OutOfBand {
        /// The feedback controller.
        controller: Box<dyn Controller>,
        /// The control `(ip, port)` reports are sent to.
        addr: (Ipv4Addr, u16),
    },
    /// Latency-aware power-of-two choices: a new connection goes to the
    /// one of two hashed candidates with the lower fresh in-band estimate.
    /// No controller, no table reshaping.
    PowerOfTwo,
}

impl Steering {
    /// Whether the fast path taps in-band timing (Algorithms 1/2).
    pub fn taps_inband(&self) -> bool {
        !matches!(self, Steering::Off | Steering::OutOfBand { .. })
    }

    /// The controller that reshapes the weights, if any.
    pub fn controller(&mut self) -> Option<&mut dyn Controller> {
        match self {
            Steering::Control(c) | Steering::OutOfBand { controller: c, .. } => Some(c.as_mut()),
            Steering::Off | Steering::Observe | Steering::PowerOfTwo => None,
        }
    }
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
    /// What drives a new connection's backend.
    pub steering: Steering,
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
    /// Backend health tracking (crash/stall ejection). Only active under
    /// [`Steering::Control`]: the detector's "offered traffic but producing
    /// no samples" signal needs the in-band measurement path, and ejection
    /// acts by zeroing table weights. `None` disables health tracking.
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
            steering: Steering::Control(controller),
            ..Self::baseline(vip, backends)
        }
    }

    /// The plain-Maglev baseline (no measurement, no adaptation), with the
    /// paper's parameters for the other steerings.
    pub fn baseline(vip: Ipv4Addr, backends: Vec<Ipv4Addr>) -> LbConfig {
        LbConfig {
            vip,
            backends,
            table_size: lbcore::maglev::DEFAULT_TABLE_SIZE,
            // The robust cliff rule (all but the observer); see the
            // CliffRule docs for why the paper's rule fails on KV traffic.
            ensemble: EnsembleConfig::robust(),
            steering: Steering::Off,
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

    /// Measurement-only mode (Fig. 2 experiments). Uses the paper's
    /// argmax-ratio cliff rule for figure fidelity.
    pub fn observer(vip: Ipv4Addr, backends: Vec<Ipv4Addr>) -> LbConfig {
        LbConfig {
            steering: Steering::Observe,
            ensemble: EnsembleConfig::default(),
            ..Self::baseline(vip, backends)
        }
    }
}
