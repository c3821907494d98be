//! # inband-lb — in-band feedback control for load balancers
//!
//! A from-scratch Rust reproduction of *Load Balancers Need In-Band
//! Feedback Control* (HotNets '22): a layer-4 load balancer that measures
//! end-to-end response latency **without ever seeing a response packet**
//! (Direct Server Return hides them) and adapts request routing within
//! milliseconds of a server slowing down.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`lbcore`] — the paper's algorithms: `FIXEDTIMEOUT` (Alg. 1),
//!   `ENSEMBLETIMEOUT` with sample-cliff detection (Alg. 2), the α-shift
//!   feedback controller, weighted Maglev hashing, and the flow table.
//! * [`lb_dataplane`] — the LB node: parse → measure → route → forward.
//! * [`netsim`] — the deterministic discrete-event network simulator.
//! * [`netpkt`] — Ethernet/IPv4/TCP wire formats and the key-value
//!   application protocol.
//! * [`nettcp`] — the flow-controlled TCP-like transport whose
//!   causally-triggered transmissions the measurement exploits.
//! * [`backend`] — the simulated memcached-like servers (service-time
//!   distributions, worker pool, delay injection).
//! * [`workload`] — memtier-like clients and backlogged bulk flows.
//! * [`telemetry`] — histograms, percentiles, time series, tables.
//! * [`experiments`] — ready-made scenarios reproducing every figure in
//!   the paper, plus ablations.
//!
//! ## Quick start
//!
//! ```no_run
//! use experiments::fig3::{run_fig3, Fig3Config};
//!
//! // A 12-second two-backend cluster with 1 ms injected at t = 4 s.
//! let result = run_fig3(&Fig3Config::quick());
//! // The latency-aware LB reacts within milliseconds...
//! assert!(result.aware.first_reaction.is_some());
//! // ...while plain Maglev's p95 stays inflated.
//! assert!(result.baseline.p95_after > 3 * result.baseline.p95_before);
//! ```
//!
//! (Marked `no_run` only because it simulates ~50 million events; the
//! same assertions run for real in `tests/paper_claims.rs`.)

#![deny(missing_docs)]

pub use backend;
pub use experiments;
pub use lb_dataplane;
pub use lbcore;
pub use netpkt;
pub use netsim;
pub use nettcp;
pub use telemetry;
pub use workload;
