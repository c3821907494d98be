//! The Fig. 2 traffic source: a backlogged, window-limited bulk TCP flow.
//!
//! The paper's measurement experiments observe "a backlogged TCP flow
//! between two endpoints" at the LB. With a window-limited sender, the
//! flow's client→server packets arrive in window-sized batches separated
//! by roughly one RTT: each new window is causally triggered by the ACKs
//! of the previous one. [`BacklogClient`] keeps the transport's send
//! buffer topped up; [`SinkServer`] consumes bytes and never replies
//! (its ACKs travel server→client directly, invisible to the LB).

use std::net::Ipv4Addr;

use netsim::Duration;
use nettcp::{App, ConnId, HostIo};

use crate::recorder::LatencyRecorder;

/// Configuration for the bulk sender.
#[derive(Debug, Clone)]
pub struct BacklogConfig {
    /// Destination (the VIP when flowing through an LB).
    pub dst: Ipv4Addr,
    /// Destination port.
    pub port: u16,
    /// Top up the send buffer whenever its backlog falls below this.
    pub low_watermark: usize,
    /// Bytes pushed per top-up.
    pub chunk: usize,
    /// Top-up poll interval.
    pub poll: Duration,
}

impl Default for BacklogConfig {
    fn default() -> Self {
        BacklogConfig {
            dst: Ipv4Addr::new(10, 9, 9, 9),
            port: 5001,
            low_watermark: 64 * 1024,
            chunk: 64 * 1024,
            poll: Duration::from_millis(1),
        }
    }
}

const POLL_TOKEN: u64 = 1;

/// A bulk sender that never runs out of data (an iperf-like source).
pub struct BacklogClient {
    cfg: BacklogConfig,
    conn: Option<ConnId>,
    /// One top-up's worth of filler, built on first use.
    chunk: Vec<u8>,
    /// Ground-truth RTT samples recorded from the transport.
    pub recorder: LatencyRecorder,
    /// Total bytes handed to the transport.
    pub bytes_queued: u64,
}

impl BacklogClient {
    /// Creates the sender.
    pub fn new(cfg: BacklogConfig) -> BacklogClient {
        let recorder = LatencyRecorder::new(1_000_000_000);
        BacklogClient {
            cfg,
            conn: None,
            chunk: Vec::new(),
            recorder,
            bytes_queued: 0,
        }
    }

    fn top_up(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        self.chunk.resize(self.cfg.chunk, 0x42);
        io.send(conn, &self.chunk);
        self.bytes_queued += self.chunk.len() as u64;
    }
}

impl App for BacklogClient {
    fn on_start(&mut self, io: &mut dyn HostIo) {
        self.conn = Some(io.connect(self.cfg.dst, self.cfg.port));
        io.arm_app_timer(self.cfg.poll, POLL_TOKEN);
    }

    fn on_connected(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        self.top_up(io, conn);
    }

    fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, _data: &[u8]) {
        // The sink never sends application data.
    }

    fn on_app_timer(&mut self, io: &mut dyn HostIo, token: u64) {
        debug_assert_eq!(token, POLL_TOKEN);
        if let Some(conn) = self.conn {
            // Keep the transport backlogged without overflowing its buffer.
            if io.send_backlog(conn) < self.cfg.low_watermark {
                self.top_up(io, conn);
            }
        }
        io.arm_app_timer(self.cfg.poll, POLL_TOKEN);
    }

    fn on_rtt_sample(&mut self, io: &mut dyn HostIo, _conn: ConnId, rtt: Duration) {
        self.recorder
            .record_rtt(io.now().as_nanos(), rtt.as_nanos());
    }
}

/// A data sink: accepts connections and discards everything.
#[derive(Default)]
pub struct SinkServer {
    port: u16,
    /// Bytes consumed.
    pub bytes: u64,
}

impl SinkServer {
    /// Creates a sink listening on `port`.
    pub fn new(port: u16) -> SinkServer {
        SinkServer { port, bytes: 0 }
    }
}

impl App for SinkServer {
    fn on_start(&mut self, io: &mut dyn HostIo) {
        io.listen(self.port);
    }

    fn on_data(&mut self, _io: &mut dyn HostIo, _conn: ConnId, data: &[u8]) {
        self.bytes += data.len() as u64;
    }

    fn on_closed(&mut self, io: &mut dyn HostIo, conn: ConnId) {
        io.close(conn);
    }
}
