//! The backend server model: a key-value server with realistic service
//! behaviour.
//!
//! The paper's testbed runs memcached pods whose request-processing
//! latency varies at 100 µs–1 ms time scales due to scheduling noise,
//! background work, and injected delay. This crate models the server's
//! share of that (host scheduling noise is `nettcp`'s receive jitter):
//!
//! * [`service::ServiceDist`] — per-request service-time distributions
//!   (constant, and the log-normal every experiment runs),
//! * [`service::ServiceModel`] — a bounded pool of workers with FIFO
//!   queueing,
//! * a step [`service::DelaySchedule`] for scripted latency injection
//!   ("add 1 ms from t = 100 s", the Fig. 3 event),
//! * [`server::KvServerApp`] — the [`nettcp::App`] gluing it to the
//!   transport and the key-value wire protocol.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod server;
pub mod service;

pub use server::{KvServerApp, KvServerConfig, KvServerStats, OobAgent};
pub use service::{DelaySchedule, ServiceDist, ServiceModel};
