//! A UDP cross-traffic generator: congests links without holding any
//! connection state.
//!
//! §2.1 of the paper argues that request routing must account for network
//! path congestion, not just server speed ("a slightly slower server that
//! is reachable faster may be preferable to a fast server with a congested
//! network path"). The blaster creates that situation: attached upstream
//! of a bottleneck link, it fills a configurable fraction of the link's
//! capacity, optionally in on/off bursts, inflating the queueing delay
//! seen by the request traffic sharing the link.

use std::net::Ipv4Addr;

use netpkt::udp::build_udp_pooled;
use netpkt::{BufferPool, MacAddr, Packet};

use crate::link::LinkId;
use crate::node::{Ctx, Node, TimerToken};
use crate::time::Duration;

const TICK: TimerToken = TimerToken(1);

/// Cross-traffic configuration.
#[derive(Debug, Clone)]
pub struct BlasterConfig {
    /// Source address stamped on the junk datagrams.
    pub src_ip: Ipv4Addr,
    /// Destination address (something the downstream router can route, or
    /// drop — congestion happens on the way there either way).
    pub dst_ip: Ipv4Addr,
    /// Offered load in bits per second (while "on").
    pub rate_bps: u64,
    /// Datagram payload size in bytes.
    pub payload: usize,
    /// Optional duty cycle `(on, off)`: blast for `on`, stay silent for
    /// `off`, repeat. `None` blasts continuously.
    pub duty_cycle: Option<(Duration, Duration)>,
    /// Delay before the first packet.
    pub start_after: Duration,
}

impl Default for BlasterConfig {
    fn default() -> Self {
        BlasterConfig {
            src_ip: Ipv4Addr::new(172, 16, 0, 1),
            dst_ip: Ipv4Addr::new(172, 16, 0, 2),
            rate_bps: 100_000_000,
            payload: 1400,
            duty_cycle: None,
            start_after: Duration::ZERO,
        }
    }
}

/// The cross-traffic node. Sends fixed-size UDP datagrams on its link at
/// the configured rate, with an optional on/off duty cycle.
pub struct Blaster {
    cfg: BlasterConfig,
    link: LinkId,
    gap: Duration,
    ident: u16,
    /// Packets sent so far.
    pub sent: u64,
    /// Whether currently in the "on" phase.
    on: bool,
}

impl Blaster {
    /// Creates a blaster transmitting on `link`.
    ///
    /// # Panics
    /// Panics on a zero rate or zero payload.
    pub fn new(cfg: BlasterConfig, link: LinkId) -> Blaster {
        assert!(cfg.rate_bps > 0, "rate must be positive");
        assert!(cfg.payload > 0, "payload must be positive");
        // Inter-packet gap for the offered rate, based on wire length.
        let wire_bits = (netpkt::ETH_HEADER_LEN
            + netpkt::IPV4_HEADER_LEN
            + netpkt::UDP_HEADER_LEN
            + cfg.payload) as u64
            * 8;
        let gap = Duration::from_nanos(wire_bits * 1_000_000_000 / cfg.rate_bps);
        Blaster {
            cfg,
            link,
            gap,
            ident: 0,
            sent: 0,
            on: true,
        }
    }

    fn packet(&mut self, pool: &mut BufferPool) -> Packet {
        self.ident = self.ident.wrapping_add(1);
        build_udp_pooled(
            netpkt::Addresses {
                src_mac: MacAddr::from_id(0xcc),
                dst_mac: MacAddr::from_id(0xdd),
                src_ip: self.cfg.src_ip,
                dst_ip: self.cfg.dst_ip,
            },
            9,
            9,
            self.cfg.payload,
            self.ident,
            pool,
        )
    }
}

impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.arm_timer(self.cfg.start_after.max(Duration::from_nanos(1)), TICK);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _link: LinkId, _pkt: Packet) {
        // Return traffic (e.g. RSTs from confused hosts) is ignored.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        debug_assert_eq!(token, TICK);
        if self.on {
            let pkt = self.packet(ctx.pool());
            ctx.send(self.link, pkt);
            self.sent += 1;
        }
        // Duty-cycle bookkeeping: flip phases on the cycle boundaries.
        let next_in = match self.cfg.duty_cycle {
            None => self.gap,
            Some((on_len, off_len)) => {
                let cycle = on_len + off_len;
                let pos = Duration::from_nanos(ctx.now().as_nanos() % cycle.as_nanos().max(1));
                if pos < on_len {
                    self.on = true;
                    self.gap
                } else {
                    self.on = false;
                    // Sleep to the end of the off phase.
                    cycle - pos
                }
            }
        };
        ctx.arm_timer(next_in.max(Duration::from_nanos(1)), TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Simulation;
    use crate::time::Time;

    struct Sink {
        got: u64,
        bytes: u64,
        first: Option<Time>,
        last: Option<Time>,
    }
    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _l: LinkId, p: Packet) {
            self.got += 1;
            self.bytes += p.wire_len() as u64;
            self.first.get_or_insert(ctx.now());
            self.last = Some(ctx.now());
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
    }

    fn rig(cfg: BlasterConfig, link_bps: u64) -> (Simulation, crate::node::NodeId) {
        let mut sim = Simulation::new();
        let b = sim.reserve_node("blaster");
        let s = sim.add_node(
            "sink",
            Box::new(Sink {
                got: 0,
                bytes: 0,
                first: None,
                last: None,
            }),
        );
        let l = sim.add_link(
            b,
            s,
            LinkConfig::new(link_bps, Duration::from_micros(10), 1 << 20),
        );
        sim.install_node(b, Box::new(Blaster::new(cfg, l)));
        (sim, s)
    }

    #[test]
    fn achieves_configured_rate() {
        let (mut sim, s) = rig(
            BlasterConfig {
                rate_bps: 50_000_000,
                ..BlasterConfig::default()
            },
            10_000_000_000,
        );
        sim.run_for(Duration::from_millis(100));
        let sink = sim.node_ref::<Sink>(s).unwrap();
        let rate = sink.bytes as f64 * 8.0 / 0.1;
        assert!(
            (rate / 50_000_000.0 - 1.0).abs() < 0.05,
            "offered rate {rate} vs 50 Mbps"
        );
    }

    #[test]
    fn duty_cycle_produces_gaps() {
        let (mut sim, s) = rig(
            BlasterConfig {
                rate_bps: 100_000_000,
                duty_cycle: Some((Duration::from_millis(2), Duration::from_millis(8))),
                ..BlasterConfig::default()
            },
            10_000_000_000,
        );
        sim.run_for(Duration::from_millis(100));
        let sink = sim.node_ref::<Sink>(s).unwrap();
        // ~20% duty: between 15% and 30% of the continuous-rate volume.
        let full = 100_000_000.0 * 0.1 / 8.0;
        let frac = sink.bytes as f64 / full;
        assert!((0.13..=0.32).contains(&frac), "duty fraction {frac}");
    }

    #[test]
    fn congests_a_shared_bottleneck() {
        // Blast 90% of a 100 Mbps link and verify the queue builds: the
        // sink sees (almost) line rate and the link reports no drops until
        // the queue cap would be exceeded.
        let (mut sim, s) = rig(
            BlasterConfig {
                rate_bps: 90_000_000,
                ..BlasterConfig::default()
            },
            100_000_000,
        );
        sim.run_for(Duration::from_millis(50));
        let sink = sim.node_ref::<Sink>(s).unwrap();
        assert!(sink.got > 300, "blaster barely sent: {}", sink.got);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = Blaster::new(
            BlasterConfig {
                rate_bps: 0,
                ..BlasterConfig::default()
            },
            LinkId(0),
        );
    }
}
