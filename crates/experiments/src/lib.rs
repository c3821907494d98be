//! The experiment harness: scenario topologies, figure regeneration, and
//! ablations for the HotNets '22 reproduction.
//!
//! Every figure in the paper's evaluation maps to a runner here:
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Fig. 2(a) — `FIXEDTIMEOUT` vs. ground truth | [`fig2::run_fig2a`] |
//! | Fig. 2(b) — `ENSEMBLETIMEOUT` tracking       | [`fig2::run_fig2b`] |
//! | Fig. 3 — p95 GET latency, Maglev vs. aware   | [`fig3::run_fig3`]  |
//!
//! plus the ablation suite in [`ablations`] (epoch length, ensemble size,
//! shift fraction α, §5 timing violations, controller comparison, and
//! multiple LBs) and the scale-out scenarios: [`chaos`] (fault injection
//! and health ejection) and [`multilb`] (an ECMP-sharded tier of N LBs
//! with partial-visibility feedback, isolated vs. gossip).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod chaos;
pub mod fig2;
pub mod fig3;
pub mod multilb;
pub mod topology;

pub use topology::{BacklogScenario, BacklogScenarioConfig, KvCluster, KvClusterConfig};
