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
//! plus the ablation suite in [`ablations`] and the fault-injection
//! scenario in [`chaos`] (backend crash and health ejection). Every
//! key-value scenario — Fig. 3 behind one LB or an ECMP tier of them,
//! chaos, the ablations — is a [`kv::KvClusterConfig`] plus a
//! [`kv::Timeline`], built, driven and read by [`kv`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod chaos;
pub mod fig2;
pub mod fig3;
pub mod kv;
pub mod topology;

pub use kv::{KvCluster, KvClusterConfig};
pub use topology::{BacklogScenario, BacklogScenarioConfig};
