//! The load-balancer node: binds the `lbcore` algorithms to the simulator.
//!
//! [`LbNode`] is a one-armed layer-4 load balancer under Direct Server
//! Return, mirroring the paper's Cilium/XDP deployment:
//!
//! * it observes **only client→VIP traffic** (responses go server→client
//!   directly, never crossing the LB),
//! * per packet it runs the fast path — four-tuple parse, flow-table
//!   lookup, Maglev lookup for new flows, destination rewrite, forward —
//! * and, as its [`Steering`] says, executes `ENSEMBLETIMEOUT` per
//!   packet, aggregates per-backend latency, and lets a feedback
//!   controller reshape the Maglev weights.
//!
//! Four modules, plain `impl LbNode` blocks across them:
//!
//! * [`config`] — [`LbConfig`], [`Steering`] (what drives a new
//!   connection's backend), the two constructors (latency-aware,
//!   baseline) and the constants no run varies;
//! * `fastpath` — the per-packet path: parse → control port → flow table
//!   → ensemble tap → pick → rewrite → forward;
//! * `control` — everything that changes the weight vector (controller,
//!   gossip, health epochs) and the one commit from weights to table.
//!   The table is stale-until-read: a commit marks it stale, and the
//!   first lookup that needs it (a SYN, a fallback forward, a health
//!   re-pin, any packet when `affinity` is off) rebuilds it in place —
//!   pinned connections never read it, so most commits build nothing;
//! * [`node`] — the [`LbNode`] struct, its accessors, and the simulator
//!   bindings (packet delivery, sweep and health timers).
//!
//! The node keeps three records with three jobs: [`LbStats`] counters
//! (always on, O(1)), per-backend weight history (always on, one point
//! per weight change), and the mode-gated decision journal for anything
//! per-sample or per-decision.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
mod control;
mod fastpath;
pub mod node;

pub use config::{LbConfig, Steering};
pub use node::{LbNode, LbStats};
