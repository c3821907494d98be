//! The paper's contribution: in-band feedback control for load balancers.
//!
//! This crate implements, exactly as specified in *Load Balancers Need
//! In-Band Feedback Control* (HotNets '22):
//!
//! * **Algorithm 1 — [`fixed_timeout::FixedTimeout`]**: segments a flow's
//!   client→server packets into batches using a fixed inter-batch timeout
//!   δ; the gap between the first packets of successive batches is an
//!   estimate `T_LB` of the flow's response latency.
//! * **Algorithm 2 — [`ensemble::EnsembleTimeout`]**: runs an ensemble of
//!   exponentially spaced timeouts (δ₁ = 64 µs … δ₇ = 4 ms), counts samples
//!   per timeout over an epoch (E = 64 ms), and picks the timeout at the
//!   largest *sample cliff* (argmaxᵢ Nᵢ/Nᵢ₊₁) for the next epoch.
//! * **The paper's controller — [`controller::AlphaShift`]**: moves a fixed
//!   fraction α = 10% of traffic away from the highest-latency backend,
//!   spread equally over the others.
//!
//! plus the infrastructure a deployable LB needs around them:
//!
//! * **[`maglev::MaglevTable`]**: the Maglev consistent-hashing table
//!   (NSDI '16) used by the paper's Cilium/XDP testbed, extended with
//!   weighted slot allocation so the controller can express traffic shares;
//!   [`maglev::LazyMaglev`] populates it only as far as lookups read.
//! * **[`weights::Weights`]**: the committed share vector. It owns the
//!   ejection mask and holds its invariants by construction — sum 1,
//!   survivors ≥ floor, ejected exactly 0 — through every mutation, so no
//!   controller, merge or health epoch needs a fix-up afterwards.
//! * **[`flow_table::FlowTable`]**: per-connection affinity with idle
//!   expiry — an existing connection keeps its backend even as weights move.
//! * **[`estimator::BackendEstimator`]**: per-backend latency aggregation
//!   (a windowed-quantile control signal, cached per backend, plus an
//!   EWMA and a streaming p95 for reporting) feeding the controllers.
//! * **Alternative controllers** (§5 open question 4): AIMD and
//!   latency-proportional weighting, for the controller-comparison
//!   ablation.
//! * **[`gossip::merge_weights`]**: weight-gossip merge for a sharded LB
//!   tier, where each instance learns from only its own ECMP flow subset
//!   (partial visibility); it respects the ejection mask the local
//!   `Weights` carries.
//!
//! Everything here is simulator-agnostic: inputs are packet timestamps and
//! flow keys; outputs are latency samples and weight vectors. The
//! `lb-dataplane` crate binds it to the network simulator.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// Rule G2 (DESIGN.md §6.9): no `unwrap`/`expect` outside test code, so
// no `partial_cmp(..).unwrap()` comparator either; `f64::total_cmp` is
// the total order. The per-packet modules (`flow_table`, `health`,
// `maglev`, `gossip`) also deny the panic macros at their own top.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod controller;
pub mod ensemble;
pub mod estimator;
pub mod fixed_timeout;
pub mod flow_table;
pub mod gossip;
pub mod health;
pub mod maglev;
pub mod weights;

pub use controller::{AimdController, AlphaShift, Controller, ProportionalController};
pub use ensemble::{EnsembleConfig, EnsembleFlowState, EnsembleTimeout};
pub use estimator::BackendEstimator;
pub use fixed_timeout::{FixedTimeout, FlowTiming};
pub use flow_table::{FlowEntry, FlowTable};
pub use gossip::{merge_weights, GossipConfig};
pub use health::{HealthConfig, HealthState, HealthTracker, HealthTransition, HealthTrigger};
pub use maglev::{LazyMaglev, MaglevTable};
pub use weights::Weights;

/// Simulated time alias used throughout (nanoseconds since run start).
pub type Nanos = u64;
