//! The application interface: what workload clients and backend servers
//! implement to ride on the transport.

use netsim::{Duration, Time};
use std::net::Ipv4Addr;

/// Identifies a connection within one [`crate::host::Host`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

impl core::fmt::Display for ConnId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// Operations an application can perform on its host's stack during a
/// callback. Implemented by the host; applications never construct it.
pub trait HostIo {
    /// Current simulated time.
    fn now(&self) -> Time;

    /// Opens a client connection to `remote` (SYN is sent immediately);
    /// [`App::on_connected`] fires when the handshake completes.
    fn connect(&mut self, remote_ip: Ipv4Addr, remote_port: u16) -> ConnId;

    /// Starts accepting connections on a local port; accepted connections
    /// are announced via [`App::on_connected`].
    fn listen(&mut self, port: u16);

    /// Queues bytes on a connection's send buffer.
    ///
    /// # Panics
    /// Panics if the send buffer would overflow (closed-loop applications
    /// never let this happen; an overflow is a workload bug).
    fn send(&mut self, conn: ConnId, data: &[u8]);

    /// Initiates a graceful close (FIN after all queued data).
    fn close(&mut self, conn: ConnId);

    /// Arms an application timer delivered to [`App::on_app_timer`].
    fn arm_app_timer(&mut self, after: Duration, token: u64);

    /// Unsent + unacknowledged bytes on a connection — applications that
    /// generate open-ended data (bulk sources) use this for backpressure.
    fn send_backlog(&self, conn: ConnId) -> usize;

    /// Sends a one-shot UDP datagram from this host (fire-and-forget, no
    /// connection state) — how out-of-band agents publish reports.
    fn send_datagram(&mut self, dst_ip: Ipv4Addr, dst_port: u16, payload: &[u8]);

    /// The local address of a connection (distinguishes VIP-addressed
    /// server connections under DSR).
    fn local_addr(&self, conn: ConnId) -> (Ipv4Addr, u16);

    /// The remote address of a connection.
    fn remote_addr(&self, conn: ConnId) -> (Ipv4Addr, u16);

    /// True when causal span tracing is enabled on this host's
    /// simulation — applications gate hop construction on this.
    /// Defaults to off so test doubles need no tracing plumbing.
    fn span_enabled(&self) -> bool {
        false
    }

    /// Records a causal span hop at this host's node at sim time `at`
    /// (usually [`HostIo::now`], but a backend stamps its service start
    /// at the admission-computed instant). No-op by default and when
    /// tracing is off or the mode rejects `trace`.
    fn record_hop(&mut self, at: u64, trace: u64, kind: telemetry::span::HopKind, a: u64, b: u64) {
        let _ = (at, trace, kind, a, b);
    }
}

/// Application logic hosted on a [`crate::host::Host`].
///
/// All callbacks receive a [`HostIo`] handle; reentrancy is single-threaded
/// and deterministic (callbacks never interleave). The `Any` supertrait
/// lets experiments downcast the app back to its concrete type after a run.
pub trait App: std::any::Any {
    /// Called once at simulation start.
    fn on_start(&mut self, io: &mut dyn HostIo) {
        let _ = io;
    }

    /// A connection finished its handshake: for clients, the `connect` has
    /// completed; for servers, a connection was accepted.
    fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        let _ = (io, conn);
    }

    /// In-order stream bytes arrived on a connection.
    fn on_data(&mut self, io: &mut dyn HostIo, conn: ConnId, data: &[u8]);

    /// The peer closed (FIN received and all data delivered), or the
    /// connection was reset. After this callback the `ConnId` no longer
    /// names this connection, but it is not retired: once the connection
    /// is reaped, the host hands the id to the next connection opened or
    /// accepted in the lowest free slot. An app that keys a timer or a
    /// pending response by `ConnId` must tell that connection from this
    /// one itself, or the timer fires into the next tenant and the
    /// response is written to it.
    fn on_closed(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        let _ = (io, conn);
    }

    /// An application timer armed via [`HostIo::arm_app_timer`] fired.
    fn on_app_timer(&mut self, io: &mut dyn HostIo, token: u64) {
        let _ = (io, token);
    }

    /// The transport took an RTT sample on `conn` (ground truth for the
    /// measurement experiments).
    fn on_rtt_sample(&mut self, io: &mut dyn HostIo, conn: ConnId, rtt: Duration) {
        let _ = (io, conn, rtt);
    }
}
