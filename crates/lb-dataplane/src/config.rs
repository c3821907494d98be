//! LB configuration: what steers new connections, and the knobs.

use std::net::Ipv4Addr;

use lbcore::{Controller, EnsembleConfig, HealthConfig};
use netsim::Duration;
use telemetry::JournalMode;

/// Weight floor every backend keeps while admitted (see
/// [`lbcore::Weights`]); also the share a backend on probation earns.
pub const WEIGHT_FLOOR: f64 = 0.02;
/// EWMA gain of the per-backend latency estimate.
pub const ESTIMATOR_ALPHA: f64 = 0.2;
/// Estimates older than this are ignored by the controller.
pub const ESTIMATOR_STALENESS: Duration = Duration::from_millis(500);
/// Idle time after which the sweep retires a flow-table entry.
pub const FLOW_IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Flow-table capacity (entries); at capacity, inserts evict
/// approximately-LRU victims, bounding LB memory under SYN floods.
pub const FLOW_TABLE_CAPACITY: usize = 1 << 20;
/// Period of the flow-table sweep timer.
pub const SWEEP_INTERVAL: Duration = Duration::from_secs(1);

/// What drives a new connection's backend: the four configurations the
/// LB runs, from plain Maglev to the paper's in-band feedback loop.
pub enum Steering {
    /// Plain Maglev: no per-packet measurement at all (the baseline).
    Off,
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
        matches!(self, Steering::Control(_) | Steering::PowerOfTwo)
    }

    /// The controller that reshapes the weights, if any.
    pub fn controller(&mut self) -> Option<&mut dyn Controller> {
        match self {
            Steering::Control(c) | Steering::OutOfBand { controller: c, .. } => Some(c.as_mut()),
            Steering::Off | Steering::PowerOfTwo => None,
        }
    }
}

/// Load-balancer configuration.
pub struct LbConfig {
    /// The virtual IP clients address.
    pub vip: Ipv4Addr,
    /// Backend addresses, indexed by backend id. The Maglev table has
    /// [`lbcore::maglev::DEFAULT_TABLE_SIZE`] slots.
    pub backends: Vec<Ipv4Addr>,
    /// Ensemble estimator parameters.
    pub ensemble: EnsembleConfig,
    /// What drives a new connection's backend.
    pub steering: Steering,
    /// Windowed quantile used as the control signal (0.5 = median;
    /// higher values are variance-aware).
    pub signal_quantile: f64,
    /// Optional time horizon for the signal window: compute the quantile
    /// over samples from the last `horizon` instead of a fixed count —
    /// signal memory for periodic disturbances.
    pub signal_horizon: Option<Duration>,
    /// Whether established connections are pinned to their backend via the
    /// flow table (§2.5's connection affinity requirement). Disabling this
    /// routes *every* packet through the current Maglev table — the
    /// configuration the ABL-PCC experiment uses to show how many
    /// connections a weight change breaks without connection tracking.
    pub affinity: bool,
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
            // The robust cliff rule; see the CliffRule docs for why the
            // paper's rule fails on KV traffic.
            ensemble: EnsembleConfig::robust(),
            steering: Steering::Off,
            signal_quantile: 0.5,
            signal_horizon: None,
            affinity: true,
            health: Some(HealthConfig::default()),
            journal: JournalMode::Off,
        }
    }
}
