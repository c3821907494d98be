//! The per-packet fast path: parse → control port → flow table →
//! ensemble tap → pick → rewrite → forward.

use lbcore::health::SAMPLE_CEILING;
use netpkt::{FlowKey, MacAddr, Packet, TcpFlags};
use netsim::{Ctx, Time};
use telemetry::span::{pack_addr, HopKind};
use telemetry::JournalEvent;

use crate::config::Steering;
use crate::node::LbNode;

impl LbNode {
    // MACs are cosmetic in the simulator (routing is by IP); derive a
    // stable per-backend address. A backend index is far below 2^32.
    #[allow(clippy::cast_possible_truncation)]
    fn backend_mac(&self, b: usize) -> MacAddr {
        MacAddr::from_id(0xb000 + b as u32)
    }

    /// Handles a datagram on the control address; returns true if consumed.
    fn try_control(&mut self, now: Time, pkt: &Packet) -> bool {
        let Steering::OutOfBand { addr, .. } = self.cfg.steering else {
            return false;
        };
        let Ok((hdr, udp, payload)) = netpkt::udp::parse_udp(&pkt.data) else {
            return false;
        };
        if (hdr.dst, udp.dst_port) != addr {
            return false;
        }
        if let Some((backend_id, latency_ns)) = netpkt::oob::parse_report(payload) {
            let b = backend_id as usize;
            if b < self.cfg.backends.len() {
                self.stats.oob_reports += 1;
                self.estimator.record(b, latency_ns, now.as_nanos());
                self.run_controller(now);
            }
        }
        true // addressed to the control port: consumed either way
    }

    /// The per-packet fast path.
    pub(crate) fn process(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.stats.rx += 1;
        if self.try_control(ctx.now(), &pkt) {
            ctx.pool().recycle(pkt);
            return;
        }
        let Ok((key, flags)) = FlowKey::parse_with_flags(&pkt.data) else {
            self.stats.dropped += 1;
            ctx.pool().recycle(pkt);
            return;
        };
        if key.dst_ip != self.cfg.vip {
            self.stats.dropped += 1;
            ctx.pool().recycle(pkt);
            return;
        }
        // Span hop: the LB parsed a traced frame's flow (recorded even
        // for frames that die below, so drops stay attributable).
        ctx.record_hop(
            pkt.span(),
            HopKind::LbDeliver,
            pack_addr(u32::from(key.src_ip), key.src_port),
            pkt.wire_len() as u64,
        );
        if self.no_backend {
            // Every backend ejected: any forwarding choice is a dead pin.
            self.stats.no_backend_drops += 1;
            self.stats.dropped += 1;
            if self.stats.no_backend_drops == 1 {
                // The first drop is journaled: the journal up to it is the
                // causal history of the outage.
                self.journal.push(JournalEvent::NoBackend {
                    at: ctx.now().as_nanos(),
                });
            }
            ctx.pool().recycle(pkt);
            return;
        }
        let now = ctx.now();
        let now_ns = now.as_nanos();

        // Flow lookup / admission. Entries are retired only by the idle
        // sweep, never on FIN: the final ACK of the teardown arrives
        // *after* the client's FIN, and a stateless fallback lookup could
        // send it to a different backend if the table moved in between —
        // breaking the close handshake. (Production LBs keep conntrack
        // state past FIN for the same reason.)
        let fin_or_rst = flags.contains(TcpFlags::FIN) || flags.contains(TcpFlags::RST);
        // A SYN always starts a fresh connection: if a stale entry exists
        // under the same four-tuple (the client recycled an ephemeral
        // port before the idle sweep ran), it must not contribute its old
        // timing anchors or backend pin to the new connection.
        if flags.is_syn_only() {
            if let Some(stale) = self.flows.remove(&key) {
                // A SYN under a pin that never carried data is the client
                // retrying a handshake the backend never answered — an
                // RTO-abort signal against that backend (handshake ACKs
                // bump `packets`, so a served pin never matches).
                if stale.packets == 0 {
                    self.stats.abort_signals += 1;
                    if let Some(h) = self.health.as_mut() {
                        h.record_abort(stale.backend);
                    }
                }
            }
        }
        let backend = if let Some(entry) = self.flows.get_mut(&key) {
            entry.last_seen = now_ns;
            entry.packets += 1;
            let backend = if self.cfg.affinity {
                entry.backend
            } else {
                // Stateless routing (ABL-PCC): every packet follows the
                // *current* table; a weight commit mid-connection moves
                // packets to a different backend and breaks the connection.
                self.table.lookup(&self.weights, key.stable_hash())
            };
            if self.cfg.steering.taps_inband() {
                let journal_on = self.journal.enabled();
                let sample = self.ensembles[backend].on_packet(&mut entry.timing, now_ns);
                // Any decision this packet closed happened before its sample.
                if let Some(d) = self.ensembles[backend].decision().filter(|_| journal_on) {
                    self.journal.push(JournalEvent::EpochDecision {
                        at: d.at,
                        backend,
                        counts: d.counts().to_vec(),
                        chosen: d.chosen,
                        delta: d.delta,
                    });
                }
                if let Some(t_lb) = sample {
                    self.stats.samples += 1;
                    if journal_on {
                        self.journal.push(JournalEvent::Sample {
                            at: now_ns,
                            backend,
                            src_ip: u32::from(key.src_ip),
                            src_port: key.src_port,
                            delta: self.ensembles[backend].current_delta(),
                            t_lb,
                        });
                    }
                    if self.health.is_some() && t_lb <= SAMPLE_CEILING {
                        self.live_samples[backend] += 1;
                    }
                    self.estimator.record(backend, t_lb, now_ns);
                    self.run_controller(now);
                }
            }
            ctx.record_hop(
                pkt.span(),
                HopKind::LbFlowTable,
                pack_addr(u32::from(key.src_ip), key.src_port),
                backend as u64,
            );
            backend
        } else if flags.is_syn_only() {
            let backend = self.pick_backend(key.stable_hash(), now_ns);
            let timing = self.ensembles[backend].new_flow(now_ns);
            self.flows.insert(key, backend, timing, now_ns);
            self.stats.new_flows += 1;
            backend
        } else {
            // No entry and not a connection start: forward statelessly.
            self.stats.fallback_forwards += 1;
            let backend = self.table.lookup(&self.weights, key.stable_hash());
            ctx.record_hop(
                pkt.span(),
                HopKind::LbPick,
                pack_addr(u32::from(key.src_ip), key.src_port),
                backend as u64,
            );
            backend
        };

        if fin_or_rst {
            self.stats.flow_closes += 1;
        }

        // DSR forwarding: L2 rewrite only; the VIP stays in the IP header.
        let fwd = pkt.with_macs_pooled(self.mac, self.backend_mac(backend), ctx.pool());
        self.stats.forwarded += 1;
        self.fwd_per_backend[backend] += 1;
        ctx.record_hop(
            fwd.span(),
            HopKind::LbForward,
            backend as u64,
            fwd.wire_len() as u64,
        );
        ctx.send(self.backend_links[backend], fwd);
        // The consumed rx buffer feeds the next forward's pooled copy.
        ctx.pool().recycle(pkt);
    }

    /// Chooses the backend for a new connection: power-of-two choices
    /// under [`Steering::PowerOfTwo`], the weighted table otherwise.
    // A remainder modulo `n`, a usize, fits a usize.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn pick_backend(&mut self, hash: u64, now_ns: u64) -> usize {
        if !matches!(self.cfg.steering, Steering::PowerOfTwo) {
            return self.table.lookup(&self.weights, hash);
        }
        let n = self.cfg.backends.len();
        if n == 1 {
            return 0;
        }
        let c1 = (hash % n as u64) as usize;
        // Second candidate from an independent hash, displaced so the two
        // always differ.
        let h2 = netpkt::flow::splitmix64(hash ^ 0x9e37_79b9_7f4a_7c15);
        let mut c2 = (h2 % n as u64) as usize;
        if c2 == c1 {
            c2 = (c2 + 1) % n;
        }
        match (
            self.estimator.fresh_estimate(c1, now_ns),
            self.estimator.fresh_estimate(c2, now_ns),
        ) {
            (Some(e1), Some(e2)) if e2 < e1 => c2,
            (None, Some(_)) => c1, // un-measured first candidate: explore it
            _ => c1,
        }
    }
}
