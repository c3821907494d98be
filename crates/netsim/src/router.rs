//! A simple IP router node: forwards frames by exact-match destination
//! address, with ECMP fan-out, an optional default route, and scripted
//! route updates.
//!
//! The router is what makes Direct Server Return (DSR) expressible in the
//! simulator: client→VIP traffic is routed to the load balancer(s), while
//! server→client responses are routed straight to the client's access
//! link, never traversing the LB — exactly the asymmetry the paper's
//! measurement technique must survive.
//!
//! ECMP routes (multiple egress links for one destination, picked by the
//! flow hash) model a VIP served by several LB instances; scripted route
//! updates model LB churn ("LB 0 died at t = 30 s"), the §2.5 failover
//! concern.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use netpkt::{FlowKey, Packet, ETH_HEADER_LEN};

use crate::link::LinkId;
use crate::node::{Ctx, Node, TimerToken};
use crate::time::Time;

/// Forwarding statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct RouterStats {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped: no matching route.
    pub no_route: u64,
    /// Frames dropped: not parseable as IPv4.
    pub not_ipv4: u64,
    /// Scripted route updates applied.
    pub route_updates: u64,
}

/// An exact-match (/32) IPv4 router with ECMP.
pub struct Router {
    /// Keyed by destination address as a number, in a `BTreeMap` so
    /// any future traversal (debug dumps, route diffing) is
    /// address-ordered, never hasher-ordered (rule D3, DESIGN.md §6.9).
    routes: BTreeMap<u32, Vec<LinkId>>,
    default_route: Option<LinkId>,
    /// Scripted updates: `(when, destination, new egress set)`. An empty
    /// egress set deletes the route.
    schedule: Vec<(Time, Ipv4Addr, Vec<LinkId>)>,
    /// Counters.
    pub stats: RouterStats,
}

impl Router {
    /// Creates a router with no routes.
    pub fn new() -> Self {
        Router {
            routes: BTreeMap::new(),
            default_route: None,
            schedule: Vec::new(),
            stats: RouterStats::default(),
        }
    }

    /// Adds (or replaces) a host route: traffic to `dst` leaves via `link`.
    pub fn add_route(&mut self, dst: Ipv4Addr, link: LinkId) {
        self.routes.insert(dst.into(), vec![link]);
    }

    /// Adds (or replaces) an ECMP host route: traffic to `dst` is spread
    /// over `links` by rendezvous hashing of the flow hash
    /// ([`crate::ecmp::pick`]) — per-flow stable like real ECMP, and
    /// shard-stable: shrinking or growing the link set (via
    /// [`Router::schedule_route_update`]) remaps only the flows that
    /// lost their member or that the newcomer wins.
    ///
    /// # Panics
    /// Panics on an empty link set.
    pub fn add_route_ecmp(&mut self, dst: Ipv4Addr, links: Vec<LinkId>) {
        assert!(!links.is_empty(), "ECMP route needs at least one link");
        self.routes.insert(dst.into(), links);
    }

    /// Sets the default route for addresses with no host route.
    pub fn set_default_route(&mut self, link: LinkId) {
        self.default_route = Some(link);
    }

    /// Schedules a route change at absolute time `at`: the egress set for
    /// `dst` becomes `links` (empty = route withdrawn). Models LB/server
    /// churn mid-run.
    pub fn schedule_route_update(&mut self, at: Time, dst: Ipv4Addr, links: Vec<LinkId>) {
        self.schedule.push((at, dst, links));
    }

    /// Looks up the egress link for a destination and flow hash. ECMP
    /// routes pick by rendezvous hashing, so the result is a pure
    /// function of `(dst, flow_hash, egress set)`.
    pub fn lookup(&self, dst: Ipv4Addr, flow_hash: u64) -> Option<LinkId> {
        match self.routes.get(&u32::from(dst)) {
            Some(links) if !links.is_empty() => crate::ecmp::pick(flow_hash, links),
            _ => self.default_route,
        }
    }

    /// Extracts the destination address from a frame without a full parse
    /// (version nibble check + fixed offset), mirroring a fast-path router.
    fn dst_of(frame: &[u8]) -> Option<Ipv4Addr> {
        let ip = frame.get(ETH_HEADER_LEN..)?;
        if ip.first()? >> 4 != 4 || ip.len() < 20 {
            return None;
        }
        Some(Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]))
    }
}

impl Default for Router {
    fn default() -> Self {
        Self::new()
    }
}

impl Node for Router {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &(at, _, _)) in self.schedule.iter().enumerate() {
            ctx.arm_timer_at(at.max(ctx.now()), TimerToken(i as u64));
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, ingress: LinkId, pkt: Packet) {
        let Some(dst) = Self::dst_of(&pkt.data) else {
            self.stats.not_ipv4 += 1;
            return;
        };
        // ECMP hashes the 4-tuple when the frame is TCP/UDP-shaped;
        // otherwise falls back to a destination-only hash.
        let flow_hash = FlowKey::parse(&pkt.data)
            .map(|k| k.stable_hash())
            .unwrap_or_else(|_| u64::from(u32::from(dst)));
        match self.lookup(dst, flow_hash) {
            Some(egress) => {
                // Forwarding back out the ingress link is allowed (one-armed
                // routing) but almost always a topology bug in experiments;
                // it is still counted as forwarded.
                let _ = ingress;
                self.stats.forwarded += 1;
                ctx.send(egress, pkt);
            }
            None => {
                self.stats.no_route += 1;
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: TimerToken) {
        // The token is the index `on_start` armed it with.
        #[allow(clippy::cast_possible_truncation)]
        let (_, dst, links) = self.schedule[token.0 as usize].clone();
        self.stats.route_updates += 1;
        if links.is_empty() {
            self.routes.remove(&u32::from(dst));
        } else {
            self.routes.insert(dst.into(), links);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::sim::Simulation;
    use crate::time::Duration;
    use netpkt::{MacAddr, TcpFlags, TcpHeader};

    fn pkt_from_to(src_port: u16, dst: Ipv4Addr) -> Packet {
        Packet::build_tcp(
            netpkt::Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: dst,
            },
            &TcpHeader {
                src_port,
                dst_port: 2,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 1,
            },
            b"",
            64,
            0,
        )
    }

    struct Counter {
        got: usize,
    }
    impl Node for Counter {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _l: LinkId, _p: Packet) {
            self.got += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
    }

    struct Injector {
        link: LinkId,
        packets: Vec<(Duration, Packet)>,
    }
    impl Node for Injector {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (after, _)) in self.packets.iter().enumerate() {
                ctx.arm_timer(*after, TimerToken(i as u64));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _l: LinkId, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
            let pkt = self.packets[usize::try_from(t.0).unwrap()].1.clone();
            ctx.send(self.link, pkt);
        }
    }

    #[test]
    fn routes_by_destination() {
        let mut sim = Simulation::new();
        let r = sim.reserve_node("router");
        let src = sim.reserve_node("src");
        let dst_a = sim.add_node("dst-a", Box::new(Counter { got: 0 }));
        let dst_b = sim.add_node("dst-b", Box::new(Counter { got: 0 }));
        let cfg = LinkConfig::new(1_000_000_000, Duration::from_micros(1), 1 << 20);
        let l_src = sim.add_link(src, r, cfg);
        let l_a = sim.add_link(r, dst_a, cfg);
        let l_b = sim.add_link(r, dst_b, cfg);

        let mut router = Router::new();
        let ip_a = Ipv4Addr::new(10, 0, 0, 10);
        let ip_b = Ipv4Addr::new(10, 0, 0, 20);
        router.add_route(ip_a, l_a);
        router.add_route(ip_b, l_b);
        sim.install_node(r, Box::new(router));

        let zero = Duration::from_micros(1);
        sim.install_node(
            src,
            Box::new(Injector {
                link: l_src,
                packets: vec![
                    (zero, pkt_from_to(1, ip_a)),
                    (zero, pkt_from_to(2, ip_b)),
                    (zero, pkt_from_to(3, ip_a)),
                ],
            }),
        );
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<Counter>(dst_a).unwrap().got, 2);
        assert_eq!(sim.node_ref::<Counter>(dst_b).unwrap().got, 1);
        assert_eq!(sim.node_ref::<Router>(r).unwrap().stats.forwarded, 3);
    }

    #[test]
    fn unrouted_packets_counted() {
        let mut sim = Simulation::new();
        let r = sim.reserve_node("router");
        let src = sim.reserve_node("src");
        let cfg = LinkConfig::default();
        let l_src = sim.add_link(src, r, cfg);
        sim.install_node(r, Box::new(Router::new()));
        sim.install_node(
            src,
            Box::new(Injector {
                link: l_src,
                packets: vec![(
                    Duration::from_micros(1),
                    pkt_from_to(1, Ipv4Addr::new(1, 2, 3, 4)),
                )],
            }),
        );
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<Router>(r).unwrap().stats.no_route, 1);
    }

    #[test]
    fn default_route_catches_rest() {
        let mut r = Router::new();
        r.add_route(Ipv4Addr::new(10, 0, 0, 1), LinkId(1));
        r.set_default_route(LinkId(9));
        assert_eq!(r.lookup(Ipv4Addr::new(10, 0, 0, 1), 0), Some(LinkId(1)));
        assert_eq!(r.lookup(Ipv4Addr::new(8, 8, 8, 8), 0), Some(LinkId(9)));
    }

    #[test]
    fn ecmp_spreads_flows_and_is_per_flow_stable() {
        let mut sim = Simulation::new();
        let r = sim.reserve_node("router");
        let src = sim.reserve_node("src");
        let lb_a = sim.add_node("lb-a", Box::new(Counter { got: 0 }));
        let lb_b = sim.add_node("lb-b", Box::new(Counter { got: 0 }));
        let cfg = LinkConfig::default();
        let l_src = sim.add_link(src, r, cfg);
        let l_a = sim.add_link(r, lb_a, cfg);
        let l_b = sim.add_link(r, lb_b, cfg);
        let vip = Ipv4Addr::new(10, 99, 0, 1);
        let mut router = Router::new();
        router.add_route_ecmp(vip, vec![l_a, l_b]);
        sim.install_node(r, Box::new(router));

        // 64 flows, two packets each: spread across both, each flow sticky.
        let mut packets = Vec::new();
        for port in 0..64u16 {
            packets.push((Duration::from_micros(1), pkt_from_to(1000 + port, vip)));
            packets.push((Duration::from_micros(500), pkt_from_to(1000 + port, vip)));
        }
        sim.install_node(
            src,
            Box::new(Injector {
                link: l_src,
                packets,
            }),
        );
        sim.run_to_completion();
        let a = sim.node_ref::<Counter>(lb_a).unwrap().got;
        let b = sim.node_ref::<Counter>(lb_b).unwrap().got;
        assert_eq!(a + b, 128);
        assert!(a > 20 && b > 20, "ECMP imbalanced: {a}/{b}");
        // Stickiness: both packets of a flow take the same path, so both
        // counters must be even.
        assert_eq!(a % 2, 0, "a flow split across paths");
    }

    #[test]
    fn scheduled_update_rehomes_traffic() {
        let mut sim = Simulation::new();
        let r = sim.reserve_node("router");
        let src = sim.reserve_node("src");
        let lb_a = sim.add_node("lb-a", Box::new(Counter { got: 0 }));
        let lb_b = sim.add_node("lb-b", Box::new(Counter { got: 0 }));
        let cfg = LinkConfig::default();
        let l_src = sim.add_link(src, r, cfg);
        let l_a = sim.add_link(r, lb_a, cfg);
        let l_b = sim.add_link(r, lb_b, cfg);
        let vip = Ipv4Addr::new(10, 99, 0, 1);
        let mut router = Router::new();
        router.add_route_ecmp(vip, vec![l_a, l_b]);
        // LB A "dies" at t = 1 ms.
        router.schedule_route_update(Time::from_nanos(1_000_000), vip, vec![l_b]);
        sim.install_node(r, Box::new(router));

        let mut packets = Vec::new();
        for port in 0..32u16 {
            packets.push((Duration::from_micros(10), pkt_from_to(2000 + port, vip)));
            packets.push((Duration::from_millis(2), pkt_from_to(2000 + port, vip)));
        }
        sim.install_node(
            src,
            Box::new(Injector {
                link: l_src,
                packets,
            }),
        );
        sim.run_to_completion();
        let a = sim.node_ref::<Counter>(lb_a).unwrap().got;
        let b = sim.node_ref::<Counter>(lb_b).unwrap().got;
        assert!(a > 0, "no traffic reached A before the update");
        // After the update every packet goes to B: second wave = 32 packets.
        assert!(b >= 32, "B got {b}");
        assert_eq!(sim.node_ref::<Router>(r).unwrap().stats.route_updates, 1);
    }

    /// Records the source port of every delivered frame, in arrival order.
    struct FlowRecorder {
        ports: Vec<u16>,
    }
    impl Node for FlowRecorder {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _l: LinkId, p: Packet) {
            if let Ok(key) = FlowKey::parse(&p.data) {
                self.ports.push(key.src_port);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
    }

    #[test]
    fn ecmp_growth_moves_flows_only_to_the_new_link() {
        let mut sim = Simulation::new();
        let r = sim.reserve_node("router");
        let src = sim.reserve_node("src");
        let lb_a = sim.add_node("lb-a", Box::new(FlowRecorder { ports: Vec::new() }));
        let lb_b = sim.add_node("lb-b", Box::new(FlowRecorder { ports: Vec::new() }));
        let lb_c = sim.add_node("lb-c", Box::new(FlowRecorder { ports: Vec::new() }));
        let cfg = LinkConfig::default();
        let l_src = sim.add_link(src, r, cfg);
        let l_a = sim.add_link(r, lb_a, cfg);
        let l_b = sim.add_link(r, lb_b, cfg);
        let l_c = sim.add_link(r, lb_c, cfg);
        let vip = Ipv4Addr::new(10, 99, 0, 1);
        let mut router = Router::new();
        router.add_route_ecmp(vip, vec![l_a, l_b]);
        // A third LB joins at t = 1 ms.
        router.schedule_route_update(Time::from_nanos(1_000_000), vip, vec![l_a, l_b, l_c]);
        sim.install_node(r, Box::new(router));

        let mut packets = Vec::new();
        for port in 0..64u16 {
            packets.push((Duration::from_micros(10), pkt_from_to(3000 + port, vip)));
            packets.push((Duration::from_millis(2), pkt_from_to(3000 + port, vip)));
        }
        sim.install_node(
            src,
            Box::new(Injector {
                link: l_src,
                packets,
            }),
        );
        sim.run_to_completion();

        // Expected owners from the pure rendezvous function.
        let owner = |port: u16, links: &[LinkId]| {
            let key = FlowKey::parse(&pkt_from_to(port, vip).data).unwrap();
            crate::ecmp::pick(key.stable_hash(), links).unwrap()
        };
        let got = |id| sim.node_ref::<FlowRecorder>(id).unwrap().ports.clone();
        let (at_a, at_b, at_c) = (got(lb_a), got(lb_b), got(lb_c));
        assert!(!at_c.is_empty(), "the new link never won a flow");
        for port in 3000..3064u16 {
            let before = owner(port, &[l_a, l_b]);
            let after = owner(port, &[l_a, l_b, l_c]);
            // Growth may move a flow only onto the newcomer.
            assert!(after == before || after == l_c, "flow {port} moved a<->b");
            // Surviving flows stay put: both packets on the same link, and
            // FIFO links then guarantee in-flow delivery order.
            let total_a = at_a.iter().filter(|&&p| p == port).count();
            let total_b = at_b.iter().filter(|&&p| p == port).count();
            let total_c = at_c.iter().filter(|&&p| p == port).count();
            assert_eq!(total_a + total_b + total_c, 2, "flow {port} lost packets");
            if after == before {
                // Both packets on the owner's link.
                let expect_a = if before == l_a { 2 } else { 0 };
                let expect_b = if before == l_b { 2 } else { 0 };
                assert_eq!((total_a, total_b, total_c), (expect_a, expect_b, 0));
            } else {
                // First packet on the old owner, second on the newcomer.
                let expect_a = if before == l_a { 1 } else { 0 };
                let expect_b = if before == l_b { 1 } else { 0 };
                assert_eq!((total_a, total_b, total_c), (expect_a, expect_b, 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_ecmp_rejected() {
        let mut r = Router::new();
        r.add_route_ecmp(Ipv4Addr::new(1, 1, 1, 1), vec![]);
    }
}
