//! The Fig. 2 traffic source: a backlogged, window-limited bulk TCP flow.
//!
//! The paper's measurement experiments observe "a backlogged TCP flow
//! between two endpoints" at the LB. With a window-limited sender, the
//! flow's client→server packets arrive in window-sized batches separated
//! by roughly one RTT: each new window is causally triggered by the ACKs
//! of the previous one. [`BacklogClient`] keeps the transport's send
//! buffer topped up; [`SinkServer`] consumes bytes and never replies
//! (its ACKs travel server→client directly, invisible to the LB).
//! The sender keeps the transport's RTT samples: the ground truth the
//! Fig. 2 timeout estimates are judged against.

use std::net::Ipv4Addr;

use netsim::Duration;
use nettcp::{App, ConnId, HostIo};

use crate::recorder::RAW_LIMIT;

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
    /// Ground-truth transport RTT samples `(time, rtt)`, capped at
    /// [`RAW_LIMIT`].
    rtt_raw: Vec<(u64, u64)>,
    /// RTT samples past the cap, recorded nowhere.
    rtt_dropped: u64,
    /// Total bytes handed to the transport.
    pub bytes_queued: u64,
}

impl BacklogClient {
    /// Creates the sender.
    pub fn new(cfg: BacklogConfig) -> BacklogClient {
        BacklogClient {
            cfg,
            conn: None,
            chunk: Vec::new(),
            rtt_raw: Vec::new(),
            rtt_dropped: 0,
            bytes_queued: 0,
        }
    }

    /// The transport's RTT samples `(time, rtt)` in nanoseconds, in the
    /// order they were taken.
    pub fn rtt_raw(&self) -> &[(u64, u64)] {
        &self.rtt_raw
    }

    /// RTT samples past [`RAW_LIMIT`], recorded nowhere: nonzero means
    /// [`Self::rtt_raw`] is a prefix of the run, not all of it.
    pub fn rtt_dropped(&self) -> u64 {
        self.rtt_dropped
    }

    fn record_rtt(&mut self, now_ns: u64, rtt_ns: u64) {
        if self.rtt_raw.len() < RAW_LIMIT {
            self.rtt_raw.push((now_ns, rtt_ns));
        } else {
            self.rtt_dropped += 1;
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
        self.record_rtt(io.now().as_nanos(), rtt.as_nanos());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_samples_past_the_cap_are_counted_not_kept() {
        let mut c = BacklogClient::new(BacklogConfig::default());
        let extra = 3;
        for i in 0..(RAW_LIMIT + extra) as u64 {
            c.record_rtt(i, i);
        }
        assert_eq!(c.rtt_raw().len(), RAW_LIMIT);
        assert_eq!(
            c.rtt_raw().last(),
            Some(&(RAW_LIMIT as u64 - 1, RAW_LIMIT as u64 - 1))
        );
        assert_eq!(c.rtt_dropped(), extra as u64);
    }

    #[test]
    fn an_rtt_sample_is_kept_with_its_time() {
        let mut c = BacklogClient::new(BacklogConfig::default());
        c.record_rtt(5, 123);
        assert_eq!(c.rtt_raw(), &[(5, 123)]);
        assert_eq!(c.rtt_dropped(), 0);
    }
}
