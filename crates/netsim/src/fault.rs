//! Scripted, seeded fault injection.
//!
//! A [`FaultSchedule`] is pure data: a list of `(time, action)` pairs that
//! is a function of nothing but its configuration.
//! Applying a schedule pushes scripted events into the simulation's event
//! queue; the per-packet impairment draws come from a [`SimRng`] owned by
//! the impaired link direction. The whole fault layer therefore replays
//! bit-identically for a fixed seed (rules D1–D3, DESIGN.md §6.9).
//!
//! Fault vocabulary:
//!
//! * **Node crash/restart** ([`FaultAction::NodeDown`] / `NodeUp`): while
//!   down, a node is network-silent — inbound deliveries are dropped at
//!   its NIC and its own sends are suppressed. Timers keep firing so that
//!   periodic machinery (timer wheels, report loops) resumes cleanly on
//!   restart, mirroring a process restart on a host whose clock kept
//!   running.
//! * **Link flap** ([`FaultAction::LinkDown`] / `LinkUp`): while down,
//!   both directions drop every offered packet.
//! * **Impairment** ([`FaultAction::Impair`]): one direction of a link
//!   corrupts (drops at the receiver, as a bad-FCS frame), duplicates,
//!   or reorders packets with per-fault probabilities.
//! * **Extra delay** ([`FaultAction::ExtraDelay`]): one direction of a
//!   link adds a fixed propagation delay — how experiments inject
//!   server-path latency mid-run.
//!
//! Each action is one [`FaultAction`] variant, checked against the
//! topology by [`Simulation::schedule`] and applied by one arm of the
//! simulation's fault dispatch when it fires.

// Fast-path module: a malformed input surfaces as a Result/Option,
// never a process abort (DESIGN.md §6.9, rule F1).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::link::LinkId;
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::sim::Simulation;
use crate::time::{Duration, Time};

/// Stochastic per-packet impairment of one link direction. Probabilities
/// are drawn independently per accepted packet, in a fixed order
/// (corrupt, duplicate, reorder), from a stream seeded by `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentConfig {
    /// Probability a packet is corrupted on the wire. The receiver NIC
    /// discards the frame (bad FCS), so corruption manifests as loss.
    pub corrupt_p: f64,
    /// Probability a packet is delivered twice.
    pub duplicate_p: f64,
    /// Probability a packet is held back by a random extra delay of up to
    /// [`ImpairmentConfig::reorder_window`], letting later packets
    /// overtake it.
    pub reorder_p: f64,
    /// Maximum extra delay applied to a reordered packet.
    pub reorder_window: Duration,
    /// Seed of this direction's draw stream.
    pub seed: u64,
}

impl ImpairmentConfig {
    /// A mild impairment profile: 0.01 % corruption, 0.01 % duplication,
    /// 0.1 % reordering within a 200 µs window.
    pub fn light(seed: u64) -> ImpairmentConfig {
        ImpairmentConfig {
            corrupt_p: 1e-4,
            duplicate_p: 1e-4,
            reorder_p: 1e-3,
            reorder_window: Duration::from_micros(200),
            seed,
        }
    }
}

/// Live impairment state attached to a link direction.
#[derive(Debug)]
pub struct LinkImpairment {
    /// The configured probabilities.
    pub cfg: ImpairmentConfig,
    /// The direction's private draw stream.
    pub(crate) rng: SimRng,
}

impl LinkImpairment {
    /// Instantiates the draw stream for `cfg`.
    pub fn new(cfg: ImpairmentConfig) -> LinkImpairment {
        LinkImpairment {
            cfg,
            rng: SimRng::seed_from_u64(cfg.seed),
        }
    }
}

/// One scripted fault action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Crash a node: inbound deliveries dropped, sends suppressed, timers
    /// still firing (see the module docs for why).
    NodeDown(NodeId),
    /// Restart a crashed node.
    NodeUp(NodeId),
    /// Take a link down in both directions.
    LinkDown(LinkId),
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Install a stochastic impairment on the `from` → peer direction.
    Impair {
        /// The link to impair.
        link: LinkId,
        /// Transmitting endpoint of the impaired direction.
        from: NodeId,
        /// Probabilities and seed.
        cfg: ImpairmentConfig,
    },
    /// Remove the impairment from the `from` → peer direction.
    ClearImpair {
        /// The link to heal.
        link: LinkId,
        /// Transmitting endpoint of the healed direction.
        from: NodeId,
    },
    /// Set the extra propagation delay of the `from` → peer direction,
    /// added to the link's configured base delay.
    ExtraDelay {
        /// The link to modify.
        link: LinkId,
        /// Transmitting endpoint of the delayed direction.
        from: NodeId,
        /// The new extra delay (it replaces the previous one).
        extra: Duration,
    },
}

/// A scripted fault schedule: an ordered list of `(time, action)` pairs.
///
/// Build one with the chainable helpers, then [`FaultSchedule::apply`] it
/// to a simulation before running. Applying is idempotent in effect but
/// should be done exactly once (each call pushes fresh events).
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<(Time, FaultAction)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds one action at an absolute time.
    pub fn at(&mut self, at: Time, action: FaultAction) -> &mut FaultSchedule {
        self.events.push((at, action));
        self
    }

    /// Crashes `node` at `down_at` and restarts it at `up_at`.
    pub fn crash_window(&mut self, node: NodeId, down_at: Time, up_at: Time) -> &mut FaultSchedule {
        assert!(down_at < up_at, "crash window must have positive length");
        self.at(down_at, FaultAction::NodeDown(node));
        self.at(up_at, FaultAction::NodeUp(node))
    }

    /// Takes `link` down at `down_at` and restores it at `up_at`.
    pub fn link_flap(&mut self, link: LinkId, down_at: Time, up_at: Time) -> &mut FaultSchedule {
        assert!(down_at < up_at, "flap window must have positive length");
        self.at(down_at, FaultAction::LinkDown(link));
        self.at(up_at, FaultAction::LinkUp(link))
    }

    /// Impairs the `from` → peer direction of `link` during
    /// `[from_at, until)`.
    pub fn impair_window(
        &mut self,
        link: LinkId,
        from: NodeId,
        cfg: ImpairmentConfig,
        from_at: Time,
        until: Time,
    ) -> &mut FaultSchedule {
        assert!(
            from_at < until,
            "impairment window must have positive length"
        );
        self.at(from_at, FaultAction::Impair { link, from, cfg });
        self.at(until, FaultAction::ClearImpair { link, from })
    }

    /// The scripted `(time, action)` pairs, in insertion order.
    pub fn events(&self) -> &[(Time, FaultAction)] {
        &self.events
    }

    /// Pushes every scripted action into `sim`'s event queue.
    pub fn apply(&self, sim: &mut Simulation) {
        for &(at, action) in &self.events {
            sim.schedule(at, action);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::node::{Ctx, Node, TimerToken};
    use crate::trace::TraceKind;
    use netpkt::{Addresses, MacAddr, Packet, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn test_packet(seq: u32) -> Packet {
        Packet::build_tcp(
            Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
            &TcpHeader {
                src_port: 1000,
                dst_port: 2000,
                seq,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 100,
            },
            b"x",
            64,
            0,
        )
    }

    /// Sends one sequence-stamped packet every `period` for `count` ticks;
    /// counts receipts and records the arrival order.
    struct Beacon {
        link: Option<LinkId>,
        period: Duration,
        remaining: u32,
        next_seq: u32,
        received: u64,
        received_at: Vec<Time>,
        received_seqs: Vec<u32>,
    }

    impl Beacon {
        fn new(link: Option<LinkId>, count: u32) -> Beacon {
            Beacon {
                link,
                period: Duration::from_micros(100),
                remaining: count,
                next_seq: 0,
                received: 0,
                received_at: Vec::new(),
                received_seqs: Vec::new(),
            }
        }
    }

    impl Node for Beacon {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.link.is_some() {
                ctx.arm_timer(self.period, TimerToken(1));
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _link: LinkId, pkt: Packet) {
            self.received += 1;
            self.received_at.push(ctx.now());
            self.received_seqs.push(pkt.view().unwrap().tcp.seq);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
            if let Some(link) = self.link {
                ctx.send(link, test_packet(self.next_seq));
                self.next_seq += 1;
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.arm_timer(self.period, TimerToken(1));
                }
            }
        }
    }

    fn beacon_pair(count: u32) -> (Simulation, NodeId, NodeId, LinkId) {
        let mut sim = Simulation::new();
        let a = sim.reserve_node("a");
        let b = sim.add_node("b", Box::new(Beacon::new(None, 0)));
        let link = sim.add_link(
            a,
            b,
            LinkConfig::new(1_000_000_000, Duration::from_micros(10), 1 << 20),
        );
        sim.install_node(a, Box::new(Beacon::new(Some(link), count)));
        (sim, a, b, link)
    }

    #[test]
    fn crashed_node_receives_nothing_until_restart() {
        // 100 beacons at 100 µs; node b down for [2 ms, 5 ms).
        let (mut sim, _a, b, _link) = beacon_pair(100);
        let mut faults = FaultSchedule::new();
        faults.crash_window(b, Time::from_nanos(2_000_000), Time::from_nanos(5_000_000));
        faults.apply(&mut sim);
        sim.run_to_completion();
        let rx = sim.node_ref::<Beacon>(b).unwrap();
        // ~30 of ~101 beacons fall in the down window.
        assert!(rx.received < 80, "received {}", rx.received);
        assert!(rx.received > 60, "received {}", rx.received);
        assert!(rx
            .received_at
            .iter()
            .all(|t| t.as_nanos() < 2_000_000 || t.as_nanos() >= 5_000_000));
    }

    #[test]
    fn crashed_node_sends_nothing() {
        let (mut sim, a, b, _link) = beacon_pair(100);
        let mut faults = FaultSchedule::new();
        faults.crash_window(a, Time::from_nanos(2_000_000), Time::from_nanos(5_000_000));
        faults.apply(&mut sim);
        sim.enable_trace(4096);
        sim.run_to_completion();
        // Sends from a during the window surface as Drop events at a.
        let drops = sim
            .trace()
            .events()
            .iter()
            .filter(|e| e.node == a && e.kind == TraceKind::Drop)
            .count();
        assert!(drops >= 28, "drops {drops}");
        let rx = sim.node_ref::<Beacon>(b).unwrap();
        assert!(rx.received < 80, "received {}", rx.received);
    }

    #[test]
    fn link_flap_drops_both_directions() {
        let (mut sim, _a, b, link) = beacon_pair(100);
        let mut faults = FaultSchedule::new();
        faults.link_flap(
            link,
            Time::from_nanos(2_000_000),
            Time::from_nanos(5_000_000),
        );
        faults.apply(&mut sim);
        sim.run_to_completion();
        let rx = sim.node_ref::<Beacon>(b).unwrap();
        assert!(rx.received < 80, "received {}", rx.received);
        assert!(sim.link(link).ab.stats.packets_dropped_down >= 28);
    }

    #[test]
    fn full_corruption_blackholes_the_direction() {
        let (mut sim, a, b, link) = beacon_pair(50);
        let cfg = ImpairmentConfig {
            corrupt_p: 1.0,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            reorder_window: Duration::ZERO,
            seed: 7,
        };
        let mut faults = FaultSchedule::new();
        faults.impair_window(link, a, cfg, Time::ZERO, Time::from_nanos(u64::MAX));
        faults.apply(&mut sim);
        sim.run_to_completion();
        assert_eq!(sim.node_ref::<Beacon>(b).unwrap().received, 0);
        assert_eq!(sim.link(link).ab.stats.packets_corrupted, 51);
    }

    #[test]
    fn full_duplication_doubles_deliveries() {
        let (mut sim, a, _b, link) = beacon_pair(50);
        let cfg = ImpairmentConfig {
            corrupt_p: 0.0,
            duplicate_p: 1.0,
            reorder_p: 0.0,
            reorder_window: Duration::ZERO,
            seed: 7,
        };
        let mut faults = FaultSchedule::new();
        faults.impair_window(link, a, cfg, Time::ZERO, Time::from_nanos(u64::MAX));
        faults.apply(&mut sim);
        sim.run_to_completion();
        let b_rx = sim.node_ref::<Beacon>(NodeId(1)).unwrap().received;
        assert_eq!(b_rx, 102); // 51 beacons, each delivered twice
        assert_eq!(sim.link(link).ab.stats.packets_duplicated, 51);
    }

    #[test]
    fn impairment_draws_are_reproducible() {
        let run = |seed: u64| {
            let (mut sim, a, b, link) = beacon_pair(200);
            let cfg = ImpairmentConfig {
                corrupt_p: 0.3,
                duplicate_p: 0.2,
                reorder_p: 0.2,
                reorder_window: Duration::from_micros(50),
                seed,
            };
            let mut faults = FaultSchedule::new();
            faults.impair_window(link, a, cfg, Time::ZERO, Time::from_nanos(u64::MAX));
            faults.apply(&mut sim);
            sim.run_to_completion();
            let rx = sim.node_ref::<Beacon>(b).unwrap();
            (
                rx.received,
                rx.received_at
                    .iter()
                    .map(|t| t.as_nanos())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(3), run(3));
        let (n1, at1) = run(3);
        let (n2, at2) = run(4);
        assert!(n1 != n2 || at1 != at2, "seeds should change the draws");
    }

    #[test]
    fn reordering_preserves_packet_count() {
        let (mut sim, a, b, link) = beacon_pair(100);
        let cfg = ImpairmentConfig {
            corrupt_p: 0.0,
            duplicate_p: 0.0,
            reorder_p: 0.5,
            reorder_window: Duration::from_micros(250),
            seed: 9,
        };
        let mut faults = FaultSchedule::new();
        faults.impair_window(link, a, cfg, Time::ZERO, Time::from_nanos(u64::MAX));
        faults.apply(&mut sim);
        sim.run_to_completion();
        let rx = sim.node_ref::<Beacon>(b).unwrap();
        assert_eq!(rx.received, 101);
        let reordered = sim.link(link).ab.stats.packets_reordered;
        assert!(reordered > 20, "reordered {reordered}");
        // At least one packet actually arrived out of sequence.
        let mut sorted = rx.received_seqs.clone();
        sorted.sort_unstable();
        assert_ne!(sorted, rx.received_seqs);
    }
}
