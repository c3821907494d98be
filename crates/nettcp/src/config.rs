//! Transport configuration knobs.

use netsim::Duration;

/// Delayed-acknowledgment behaviour (RFC 1122 §4.2.3.2 style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayedAck {
    /// Acknowledge every data segment immediately (the simulator default;
    /// matches modern datacenter stacks with quickack).
    Disabled,
    /// Hold ACKs until `max_delay` elapses or a second segment arrives.
    /// This is one of the paper's §5 timing violations: the *triggered*
    /// packet may be deferred, inflating `T_LB`.
    Enabled {
        /// Maximum time an ACK may be withheld.
        max_delay: Duration,
    },
}

/// Optional transmit pacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Segments are released as soon as the window allows (default).
    Disabled,
    /// Segments are spaced at least `min_gap` apart. Pacing smears the
    /// batch structure the LB measurement relies on — another §5 violation.
    Enabled {
        /// Minimum inter-segment gap.
        min_gap: Duration,
    },
}

/// Initial congestion window in segments (RFC 6928's ten).
pub const INITIAL_CWND_SEGMENTS: u32 = 10;
/// Maximum segment (payload) size in bytes.
pub const MSS: u32 = 1400;
/// Send buffer capacity in bytes; `HostIo::send` asserts against
/// overflow (applications are closed-loop, so this indicates a bug).
pub const SEND_BUFFER: usize = 1 << 20;

/// Per-connection transport parameters. Segments go out as soon as the
/// window allows (TCP_NODELAY: no Nagle coalescing), as in the
/// request/response deployments the paper measures.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Fixed advertised receive window in bytes (no window scaling).
    pub recv_window: u32,
    /// Upper bound on the sender's congestion window in bytes. Setting
    /// this equal to a few MSS makes a backlogged flow strictly
    /// window-limited, producing the batch structure of Fig. 2.
    pub max_cwnd: u32,
    /// Whether to run Reno-style congestion control (slow start + AIMD).
    /// When disabled the window is pinned at `max_cwnd`.
    pub congestion_control: bool,
    /// Delayed-ACK behaviour.
    pub delayed_ack: DelayedAck,
    /// Pacing behaviour.
    pub pacing: Pacing,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            recv_window: 65_535,
            max_cwnd: 65_535,
            congestion_control: true,
            delayed_ack: DelayedAck::Disabled,
            pacing: Pacing::Disabled,
        }
    }
}

impl TcpConfig {
    /// A configuration that keeps a bulk flow strictly window-limited at
    /// `segments` MSS-sized segments — the Fig. 2 "backlogged flow whose
    /// batches are one window" setup.
    pub fn window_limited(segments: u32) -> Self {
        let win = segments * MSS;
        TcpConfig {
            recv_window: win,
            max_cwnd: win,
            congestion_control: false,
            ..TcpConfig::default()
        }
    }

    /// Initial congestion window in bytes.
    pub fn initial_cwnd(&self) -> u32 {
        (INITIAL_CWND_SEGMENTS * MSS).min(self.max_cwnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        const _: () = assert!(MSS > 0 && MSS <= 1460);
        let c = TcpConfig::default();
        assert!(c.recv_window >= MSS);
        assert_eq!(c.delayed_ack, DelayedAck::Disabled);
        assert_eq!(c.pacing, Pacing::Disabled);
        assert!(c.initial_cwnd() >= MSS);
    }

    #[test]
    fn window_limited_pins_cwnd() {
        let c = TcpConfig::window_limited(4);
        assert_eq!(c.recv_window, 4 * 1400);
        assert_eq!(c.max_cwnd, 4 * 1400);
        assert!(!c.congestion_control);
        assert_eq!(c.initial_cwnd(), 4 * 1400); // clamped to max_cwnd
    }
}
