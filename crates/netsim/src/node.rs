//! The [`Node`] trait and the context handed to nodes on every callback.

use std::any::Any;

use netpkt::pool::BufferPool;
use netpkt::Packet;
use telemetry::span::{drop_reason, impair_kind, HopKind, HopRecord, SpanLog};

use crate::event::{EventHandle, EventKind, EventQueue};
use crate::link::{Link, LinkId, TxOutcome};
use crate::time::{Duration, Time};
use crate::trace::{Trace, TraceKind};

/// Identifies a node within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// An opaque timer identifier chosen by the node that arms the timer.
///
/// A timer that is no longer wanted is cancelled through the
/// [`EventHandle`] returned by [`Ctx::arm_timer`], which takes it out of
/// the event queue on the spot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// A packet processor living at a vertex of the simulated topology.
///
/// Nodes must be `Any` so that experiment code can downcast them back to
/// their concrete type after a run to harvest measurements.
pub trait Node: Any {
    /// Called once when the simulation starts, before any packets move.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when a packet is delivered to this node.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, link: LinkId, pkt: Packet);

    /// Called when a timer armed via [`Ctx::arm_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken);
}

/// Records a link-layer hop of a traced frame at `node` (shared by the
/// send path and the simulation's delivery dispatch). No-op when tracing
/// is off or the frame is untraced.
#[inline]
pub(crate) fn record_link_hop(
    spans: &mut SpanLog,
    at: Time,
    node: NodeId,
    pkt: &Packet,
    kind: HopKind,
    link: LinkId,
    b: u64,
) {
    let trace = pkt.span();
    if trace == 0 || !spans.enabled() {
        return;
    }
    spans.record(HopRecord {
        at: at.as_nanos(),
        trace,
        kind,
        node: node.0,
        a: u64::from(link.0),
        b,
    });
}

/// The simulation facilities available to a node during a callback.
pub struct Ctx<'a> {
    pub(crate) now: Time,
    pub(crate) node: NodeId,
    /// True while this node is scripted down (fault layer): its sends are
    /// suppressed. Timer callbacks still run so periodic machinery
    /// resumes cleanly on restart.
    pub(crate) node_down: bool,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) links: &'a mut [Link],
    pub(crate) trace: &'a mut Trace,
    pub(crate) spans: &'a mut SpanLog,
    pub(crate) pool: &'a mut BufferPool,
}

impl Ctx<'_> {
    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The simulation's shared packet-buffer pool. Draw per-hop copy
    /// buffers from here ([`netpkt::Packet::with_macs_pooled`]) and hand
    /// consumed packets back with [`BufferPool::recycle`]; pooling never
    /// changes packet contents or timing, only allocator traffic.
    pub fn pool(&mut self) -> &mut BufferPool {
        self.pool
    }

    /// The simulation's shared span log (see
    /// [`crate::Simulation::enable_spans`]). Nodes gate their hop
    /// construction on [`SpanLog::enabled`]; untraced frames (trace 0)
    /// are never recorded.
    pub fn spans(&mut self) -> &mut SpanLog {
        self.spans
    }

    /// Cheap hot-path gate: is span tracing enabled at all?
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.spans.enabled()
    }

    /// Records a span hop at this node at the current instant. No-op
    /// when tracing is off or `trace` is 0 (untraced) — recording
    /// never schedules events or draws randomness, so enabling it
    /// cannot perturb the packet schedule.
    #[inline]
    pub fn record_hop(&mut self, trace: u64, kind: HopKind, a: u64, b: u64) {
        if trace == 0 || !self.spans.enabled() {
            return;
        }
        self.spans.record(HopRecord {
            at: self.now.as_nanos(),
            trace,
            kind,
            node: self.node.0,
            a,
            b,
        });
    }

    /// [`Ctx::record_hop`] at an explicit instant — for hops whose
    /// causal time is not "now" (e.g. a backend service start computed
    /// at admission).
    #[inline]
    pub fn record_hop_at(&mut self, at: u64, trace: u64, kind: HopKind, a: u64, b: u64) {
        if trace == 0 || !self.spans.enabled() {
            return;
        }
        self.spans.record(HopRecord {
            at,
            trace,
            kind,
            node: self.node.0,
            a,
            b,
        });
    }

    /// Records a link-layer hop for a traced frame at this node, now.
    #[inline]
    fn record_link_hop(&mut self, pkt: &Packet, kind: HopKind, link: LinkId, b: u64) {
        record_link_hop(self.spans, self.now, self.node, pkt, kind, link, b);
    }

    /// Transmits `pkt` on `link`. The packet is delivered to the peer after
    /// serialization + propagation, or silently dropped if the link's
    /// transmit queue is full (drop counters are kept per link direction).
    /// A crashed node (fault layer) transmits nothing: its sends surface
    /// as `Drop` trace events. If the direction carries an impairment,
    /// per-packet corrupt/duplicate/reorder draws are taken here, in a
    /// fixed order, from the direction's seeded stream.
    ///
    /// # Panics
    /// Panics if this node is not an endpoint of `link`.
    pub fn send(&mut self, link: LinkId, pkt: Packet) {
        if self.node_down {
            self.trace
                .record(self.now, self.node, TraceKind::Drop, link, &pkt);
            self.record_link_hop(&pkt, HopKind::LinkDrop, link, drop_reason::NODE_DOWN);
            self.pool.recycle(pkt);
            return;
        }
        let l = &mut self.links[link.0 as usize];
        let peer = l.peer_of(self.node);
        match l.transmit(self.node, pkt.wire_len(), self.now) {
            TxOutcome::DeliverAt(at) => {
                let mut deliver_at = at;
                let mut duplicate = false;
                let dir = l.dir_mut(self.node);
                if let Some(imp) = dir.impairment.as_mut() {
                    // Draw order is fixed (corrupt, duplicate, reorder) so
                    // the stream replays identically for a fixed seed.
                    if imp.rng.gen_bool(imp.cfg.corrupt_p) {
                        // The receiver NIC discards the damaged frame; the
                        // wire time was still spent.
                        dir.stats.packets_corrupted += 1;
                        self.trace
                            .record(self.now, self.node, TraceKind::Drop, link, &pkt);
                        self.record_link_hop(&pkt, HopKind::LinkDrop, link, drop_reason::CORRUPT);
                        self.pool.recycle(pkt);
                        return;
                    }
                    if imp.rng.gen_bool(imp.cfg.duplicate_p) {
                        dir.stats.packets_duplicated += 1;
                        duplicate = true;
                    }
                    if imp.rng.gen_bool(imp.cfg.reorder_p) {
                        let span = imp.cfg.reorder_window.as_nanos().max(1);
                        deliver_at = at + Duration::from_nanos(imp.rng.gen_range(1..=span));
                        dir.stats.packets_reordered += 1;
                        self.record_link_hop(&pkt, HopKind::LinkImpair, link, impair_kind::REORDER);
                    }
                }
                if duplicate {
                    self.record_link_hop(&pkt, HopKind::LinkImpair, link, impair_kind::DUPLICATE);
                }
                self.trace
                    .record(self.now, self.node, TraceKind::Send, link, &pkt);
                if duplicate {
                    self.queue.push(
                        deliver_at,
                        EventKind::Deliver {
                            node: peer,
                            link,
                            pkt: pkt.clone(),
                        },
                    );
                }
                self.queue.push(
                    deliver_at,
                    EventKind::Deliver {
                        node: peer,
                        link,
                        pkt,
                    },
                );
            }
            TxOutcome::Dropped => {
                self.trace
                    .record(self.now, self.node, TraceKind::Drop, link, &pkt);
                self.record_link_hop(&pkt, HopKind::LinkDrop, link, drop_reason::LINK);
                self.pool.recycle(pkt);
            }
        }
    }

    /// Arms a timer that fires `after` from now, delivering `token` to
    /// [`Node::on_timer`]. The returned handle cancels it via
    /// [`Ctx::cancel_timer`]; a node that lets every timer fire can drop
    /// it.
    pub fn arm_timer(&mut self, after: Duration, token: TimerToken) -> EventHandle {
        self.queue.push(
            self.now + after,
            EventKind::Timer {
                node: self.node,
                token,
            },
        )
    }

    /// Arms a timer at an absolute instant.
    ///
    /// # Panics
    /// Panics if `at` is in the past: the timer would move the clock
    /// backwards.
    pub fn arm_timer_at(&mut self, at: Time, token: TimerToken) -> EventHandle {
        assert!(
            at >= self.now,
            "timer armed at {} ns, before the clock at {} ns",
            at.as_nanos(),
            self.now.as_nanos()
        );
        self.queue.push(
            at,
            EventKind::Timer {
                node: self.node,
                token,
            },
        )
    }

    /// Cancels a timer armed by this node: it leaves the event queue
    /// now and never fires. Stale handles (already fired or cancelled)
    /// return false and change nothing.
    pub fn cancel_timer(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// The node at the far end of `link`.
    pub fn peer_of(&self, link: LinkId) -> NodeId {
        self.links[link.0 as usize].peer_of(self.node)
    }
}
