//! Point-to-point full-duplex links with serialization delay, propagation
//! delay, and a drop-tail transmit queue.

use crate::fault::LinkImpairment;
use crate::node::NodeId;
use crate::time::{Duration, Time};

/// Identifies a link within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl core::fmt::Display for LinkId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Static configuration for one link (applies to both directions).
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Serialization rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: Duration,
    /// Transmit queue capacity, in bytes; packets arriving to a full queue
    /// are dropped (drop-tail).
    pub queue_limit_bytes: u64,
}

impl Default for LinkConfig {
    /// A 10 Gbit/s link with 10 µs propagation delay and a 256 KiB queue —
    /// representative of an intra-cluster hop.
    fn default() -> Self {
        LinkConfig {
            rate_bps: 10_000_000_000,
            prop_delay: Duration::from_micros(10),
            queue_limit_bytes: 256 * 1024,
        }
    }
}

impl LinkConfig {
    /// Convenience constructor.
    pub fn new(rate_bps: u64, prop_delay: Duration, queue_limit_bytes: u64) -> Self {
        LinkConfig {
            rate_bps,
            prop_delay,
            queue_limit_bytes,
        }
    }

    /// Time to serialize `bytes` onto the wire at this link's rate.
    pub fn serialization_delay(&self, bytes: usize) -> Duration {
        // bits * 1e9 / rate. The product fits u64 up to 2.3 GB, so a
        // frame divides in u64; u128 (a slow library call) is the
        // fallback. The quotient fits: a 64 KiB frame at 1 bit/s is
        // 5.2e14 ns.
        let nanos = match (bytes as u64).checked_mul(8_000_000_000) {
            Some(scaled) => scaled / self.rate_bps,
            #[allow(clippy::cast_possible_truncation)]
            None => ((bytes as u128 * 8_000_000_000) / u128::from(self.rate_bps)) as u64,
        };
        Duration::from_nanos(nanos)
    }
}

/// Counters for one direction of a link.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkDirStats {
    /// Packets accepted for transmission.
    pub packets_sent: u64,
    /// Packets dropped because the transmit queue was full.
    pub packets_dropped: u64,
    /// Bytes accepted for transmission.
    pub bytes_sent: u64,
    /// Packets dropped because the link was scripted down (fault layer).
    pub packets_dropped_down: u64,
    /// Packets discarded by the receiver as corrupted frames.
    pub packets_corrupted: u64,
    /// Packets delivered twice by the impairment layer.
    pub packets_duplicated: u64,
    /// Packets held back by a reordering delay.
    pub packets_reordered: u64,
}

/// Dynamic state for one direction of a link.
#[derive(Debug)]
pub struct LinkDir {
    /// The instant the transmitter becomes idle (all queued bytes
    /// serialized). Queue occupancy is derived from this, which is exact
    /// for FIFO serialization and avoids per-packet bookkeeping.
    busy_until: Time,
    /// Extra propagation delay injected by experiments, added to the
    /// configured base delay.
    pub extra_delay: Duration,
    /// Stochastic impairment installed by the fault layer, if any.
    pub impairment: Option<LinkImpairment>,
    /// Counters.
    pub stats: LinkDirStats,
}

impl LinkDir {
    fn new() -> Self {
        LinkDir {
            busy_until: Time::ZERO,
            extra_delay: Duration::ZERO,
            impairment: None,
            stats: LinkDirStats::default(),
        }
    }

    /// Bytes currently waiting to be serialized, at instant `now`.
    // The backlog is the serialization time of frames the queue admitted,
    // so the quotient is at most `queue_limit_bytes` plus one frame.
    #[allow(clippy::cast_possible_truncation)]
    pub fn queued_bytes(&self, now: Time, cfg: &LinkConfig) -> u64 {
        let backlog = self.busy_until.saturating_since(now).as_nanos();
        // bytes = backlog * rate / 8e9, in u64 while the product fits
        // (up to a 1.8 s backlog at 10 Gbit/s), else in u128.
        match backlog.checked_mul(cfg.rate_bps) {
            Some(bit_ns) => bit_ns / 8_000_000_000,
            None => ((u128::from(backlog) * u128::from(cfg.rate_bps)) / 8_000_000_000) as u64,
        }
    }
}

/// The outcome of offering a packet to a link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Accepted; the packet will be delivered at the contained instant.
    DeliverAt(Time),
    /// Dropped by the drop-tail queue.
    Dropped,
}

/// A full-duplex link between two nodes.
#[derive(Debug)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Configuration shared by both directions.
    pub cfg: LinkConfig,
    /// True while the link is scripted down (fault layer): every offered
    /// packet is dropped, in both directions.
    pub down: bool,
    /// State of the a→b direction.
    pub ab: LinkDir,
    /// State of the b→a direction.
    pub ba: LinkDir,
}

impl Link {
    /// Creates a link between `a` and `b`.
    pub fn new(a: NodeId, b: NodeId, cfg: LinkConfig) -> Self {
        Link {
            a,
            b,
            cfg,
            down: false,
            ab: LinkDir::new(),
            ba: LinkDir::new(),
        }
    }

    /// The node at the far end from `from`.
    ///
    /// # Panics
    /// Panics if `from` is not an endpoint of this link.
    pub fn peer_of(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("node {from:?} is not an endpoint of this link");
        }
    }

    /// Mutable state of the direction whose transmitter is `from`.
    pub fn dir_mut(&mut self, from: NodeId) -> &mut LinkDir {
        if from == self.a {
            &mut self.ab
        } else if from == self.b {
            &mut self.ba
        } else {
            panic!("node {from:?} is not an endpoint of this link");
        }
    }

    /// Read-only state of the direction whose transmitter is `from`.
    pub fn dir(&self, from: NodeId) -> &LinkDir {
        if from == self.a {
            &self.ab
        } else if from == self.b {
            &self.ba
        } else {
            panic!("node {from:?} is not an endpoint of this link");
        }
    }

    /// Offers a `bytes`-long packet for transmission from `from` at `now`.
    /// On acceptance, returns the delivery instant at the far end.
    pub fn transmit(&mut self, from: NodeId, bytes: usize, now: Time) -> TxOutcome {
        let cfg = self.cfg;
        if self.down {
            self.dir_mut(from).stats.packets_dropped_down += 1;
            return TxOutcome::Dropped;
        }
        let dir = self.dir_mut(from);
        if dir.queued_bytes(now, &cfg) + bytes as u64 > cfg.queue_limit_bytes {
            dir.stats.packets_dropped += 1;
            return TxOutcome::Dropped;
        }
        let tx_start = dir.busy_until.max(now);
        let tx_end = tx_start + cfg.serialization_delay(bytes);
        dir.busy_until = tx_end;
        dir.stats.packets_sent += 1;
        dir.stats.bytes_sent += bytes as u64;
        TxOutcome::DeliverAt(tx_end + cfg.prop_delay + dir.extra_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rate_bps: u64, delay_us: u64, queue: u64) -> Link {
        Link::new(
            NodeId(0),
            NodeId(1),
            LinkConfig::new(rate_bps, Duration::from_micros(delay_us), queue),
        )
    }

    #[test]
    fn serialization_delay_equals_the_u128_formula_at_the_edges() {
        // 2_305_843_009 bytes is the largest count whose nanosecond
        // product fits u64; the next one takes the u128 path.
        const BYTES: [usize; 8] = [
            0,
            1,
            64,
            1500,
            65_535,
            2_305_843_009,
            2_305_843_010,
            usize::MAX,
        ];
        const RATES: [u64; 6] = [1, 3, 1_000_000, 1_000_000_007, 10_000_000_000, u64::MAX];
        for &rate in &RATES {
            let cfg = LinkConfig::new(rate, Duration::ZERO, 0);
            for &bytes in &BYTES {
                #[allow(clippy::cast_possible_truncation)]
                let want = ((bytes as u128 * 8 * 1_000_000_000) / u128::from(rate)) as u64;
                assert_eq!(
                    cfg.serialization_delay(bytes).as_nanos(),
                    want,
                    "{bytes} B at {rate} bit/s"
                );
            }
        }
    }

    #[test]
    fn queued_bytes_equals_the_u128_formula_at_the_edges() {
        const RATES: [u64; 5] = [1, 8, 1_000_000_000, 10_000_000_000, u64::MAX];
        for &rate in &RATES {
            let cfg = LinkConfig::new(rate, Duration::ZERO, 0);
            // Around the largest backlog whose product with the rate fits u64.
            let limit = u64::MAX / rate;
            for backlog in [
                0,
                1,
                1_800_000,
                limit - 1,
                limit,
                limit.saturating_add(1),
                u64::MAX,
            ] {
                let mut dir = LinkDir::new();
                dir.busy_until = Time::from_nanos(backlog);
                #[allow(clippy::cast_possible_truncation)]
                let want = ((u128::from(backlog) * u128::from(rate)) / 8_000_000_000) as u64;
                assert_eq!(
                    dir.queued_bytes(Time::ZERO, &cfg),
                    want,
                    "{backlog} ns at {rate} bit/s"
                );
            }
        }
    }

    #[test]
    fn serialization_plus_propagation() {
        // 1000-byte packet on a 1 Gbps link: 8 µs serialization + 10 µs prop.
        let mut link = mk(1_000_000_000, 10, 1 << 20);
        match link.transmit(NodeId(0), 1000, Time::ZERO) {
            TxOutcome::DeliverAt(t) => assert_eq!(t.as_nanos(), 8_000 + 10_000),
            TxOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut link = mk(1_000_000_000, 0, 1 << 20);
        let t1 = match link.transmit(NodeId(0), 1000, Time::ZERO) {
            TxOutcome::DeliverAt(t) => t,
            _ => panic!(),
        };
        let t2 = match link.transmit(NodeId(0), 1000, Time::ZERO) {
            TxOutcome::DeliverAt(t) => t,
            _ => panic!(),
        };
        assert_eq!(t1.as_nanos(), 8_000);
        assert_eq!(t2.as_nanos(), 16_000); // waits for the first to serialize
    }

    #[test]
    fn directions_are_independent() {
        let mut link = mk(1_000_000_000, 0, 1 << 20);
        let _ = link.transmit(NodeId(0), 1000, Time::ZERO);
        // The reverse direction is idle, so its packet is not delayed.
        match link.transmit(NodeId(1), 1000, Time::ZERO) {
            TxOutcome::DeliverAt(t) => assert_eq!(t.as_nanos(), 8_000),
            _ => panic!(),
        }
    }

    #[test]
    fn drop_tail_when_queue_full() {
        // Queue limit of 1500 bytes: the first packet occupies the "queue"
        // until serialized; the second (1000B, total 2000 > 1500) drops.
        let mut link = mk(1_000_000, 0, 1500);
        assert!(matches!(
            link.transmit(NodeId(0), 1000, Time::ZERO),
            TxOutcome::DeliverAt(_)
        ));
        assert!(matches!(
            link.transmit(NodeId(0), 1000, Time::ZERO),
            TxOutcome::Dropped
        ));
        assert_eq!(link.dir(NodeId(0)).stats.packets_dropped, 1);
        assert_eq!(link.dir(NodeId(0)).stats.packets_sent, 1);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut link = mk(1_000_000, 0, 1500); // 1 Mbps: 1000B = 8 ms
        let _ = link.transmit(NodeId(0), 1000, Time::ZERO);
        // At t = 8ms the queue has fully drained; a new packet is accepted.
        let now = Time::from_nanos(8_000_000);
        assert_eq!(link.dir(NodeId(0)).queued_bytes(now, &link.cfg), 0);
        assert!(matches!(
            link.transmit(NodeId(0), 1000, now),
            TxOutcome::DeliverAt(_)
        ));
    }

    #[test]
    fn extra_delay_adds_to_propagation() {
        let mut link = mk(1_000_000_000, 10, 1 << 20);
        link.ab.extra_delay = Duration::from_millis(1);
        match link.transmit(NodeId(0), 1000, Time::ZERO) {
            TxOutcome::DeliverAt(t) => assert_eq!(t.as_nanos(), 8_000 + 10_000 + 1_000_000),
            _ => panic!(),
        }
    }

    #[test]
    fn peer_resolution() {
        let link = mk(1_000_000_000, 0, 1);
        assert_eq!(link.peer_of(NodeId(0)), NodeId(1));
        assert_eq!(link.peer_of(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn foreign_node_panics() {
        let link = mk(1_000_000_000, 0, 1);
        let _ = link.peer_of(NodeId(9));
    }
}
