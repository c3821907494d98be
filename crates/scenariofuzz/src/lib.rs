//! Seeded scenario fuzzing over the global invariant suite.
//!
//! The repo's suites each pin one behavior on one hand-written scenario
//! (fig3 determinism, the chaos schedule, multi-LB shard isolation, DSR
//! leakage, health ejection). This crate composes them generatively: a
//! single u64 seed derives a complete scenario — topology (LB tier
//! size, backend count and service tiers), workload mix (connections,
//! pipelining, GET/SET ratio, value size, churn), controller and gossip
//! config, and a fault schedule (crashes, flaps, impairments, latency
//! injections) — which is run through the key-value scenario driver
//! (`experiments::kv`) like every other experiment and checked
//! against every global invariant in one place, twice per seed for
//! trace-hash determinism.
//!
//! On violation, [`minimize::minimize`] shrinks the scenario while the
//! violation reproduces and the result is committed as a regression
//! case under `tests/fuzz_regressions/` (see the `scenariofuzz` CLI in
//! the `bench` crate), which the root `fuzz_regressions` suite replays
//! forever.
//!
//! Pipeline:
//!
//! ```text
//! seed ──> Scenario::generate ──> runner::check (run ×2, invariants)
//!                                        │ violation
//!                                        v
//!                         minimize::minimize ──> tests/fuzz_regressions/*.case
//! ```
//!
//! Everything here is a pure function of the seed: no wall clock, no
//! ambient entropy (rules D1/D2 apply to this crate, DESIGN.md §6.9), so
//! a campaign report is byte-identical across runs and machines.

#![deny(missing_docs)]

pub mod minimize;
pub mod report;
pub mod runner;
pub mod scenario;

pub use minimize::{minimize, minimize_with};
pub use report::{campaign_json, SeedResult, SCHEMA};
pub use runner::{check, run_once, Outcome, RunSummary, Violation};
pub use scenario::{BackendSpec, FaultMode, FaultSpec, Injection, Scenario};
