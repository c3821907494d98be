//! A flow-controlled, TCP-like transport for the discrete-event simulator.
//!
//! This crate provides the traffic substrate whose timing behaviour the
//! paper's measurement technique depends on: windowed transmission with ACK
//! clocking, cumulative and delayed acknowledgments, retransmission
//! timeouts, optional pacing, and an application interface for
//! request/response protocols with bounded in-flight quotas.
//!
//! It intentionally implements *TCP-like* semantics rather than
//! wire-compatible TCP: no options, no SACK, no window scaling, fixed
//! advertised windows, no Nagle coalescing (a segment leaves as soon as
//! the window allows, as under TCP_NODELAY). What matters for the
//! reproduction is that the **packet arrival process at the load
//! balancer** exhibits the phenomena the paper exploits and the failure
//! modes it warns about:
//!
//! * flow-control-limited senders transmit *batches* separated by pauses
//!   of roughly one response latency (the signal),
//! * delayed ACKs, pacing, and application-limited clients perturb these
//!   timings (§5 open question 2 — all three are implemented and
//!   switchable per host).
//!
//! The main entry point is [`host::Host`], a [`netsim::Node`] hosting a TCP
//! stack and an [`app::App`] (the application logic — workload clients and
//! backend servers implement this trait).
//!
//! Outgoing bytes are copied twice and allocated for never: `HostIo::send`
//! copies them into the connection's one send queue, where they stay until
//! acknowledged, and the host copies each segment — first transmission or
//! retransmission — from that queue straight into a pooled frame. See
//! [`conn`] for the contract this puts on whoever drives a [`Conn`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod config;
pub mod conn;
pub mod host;
pub mod rto;
pub mod seq;

pub use app::{App, ConnId, HostIo};
pub use config::{DelayedAck, Pacing, TcpConfig, MSS, SEND_BUFFER};
pub use conn::{Conn, ConnBuffers, ConnState};
pub use host::{Host, HostConfig};
