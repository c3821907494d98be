//! Workload generation: the memtier-like key-value client the paper's
//! evaluation is driven by, plus the backlogged bulk flow used by its
//! measurement experiments.
//!
//! * [`client::MemtierClient`] reproduces the memtier_benchmark pattern
//!   described in §4: multiple TCP connections, several pipelined requests
//!   per connection (the application-level flow-control quota that creates
//!   causally-triggered transmissions), a 50-50 GET/SET mix over uniformly
//!   drawn keys, and periodic connection close/reopen so the LB can make
//!   fresh routing decisions.
//! * [`backlog::BacklogClient`] / [`backlog::SinkServer`] create the
//!   window-limited bulk TCP flow of Fig. 2, where batch structure comes
//!   from the transport window rather than request pipelining. The
//!   sender keeps the transport's RTT samples (capped, the overflow
//!   counted): Fig. 2's ground truth, and the only RTT truth recorded.
//! * [`recorder::LatencyRecorder`] collects the key-value client's ground
//!   truth: the GET latency series and raw response samples, with a count
//!   of the raw samples its cap turned away.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backlog;
pub mod client;
pub mod recorder;

pub use backlog::{BacklogClient, BacklogConfig, SinkServer};
pub use client::{MemtierClient, MemtierConfig};
pub use recorder::LatencyRecorder;
