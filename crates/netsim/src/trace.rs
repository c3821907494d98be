//! Optional packet-event tracing, in the spirit of a pcap capture.
//!
//! Tracing is off by default (the hot path pays one branch). When enabled,
//! every send, delivery, and drop is recorded with its timestamp, node, link
//! and the packet's four-tuple — enough to reconstruct a full exchange in
//! tests and debugging sessions.

use std::fmt::Write as _;

use netpkt::{FlowKey, Packet};

use crate::link::LinkId;
use crate::node::NodeId;
use crate::time::Time;

/// The kind of a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A node offered a packet to a link and it was accepted.
    Send,
    /// A packet was delivered to a node.
    Deliver,
    /// A packet was dropped by a full transmit queue.
    Drop,
}

/// One traced packet event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Time,
    /// The node sending or receiving.
    pub node: NodeId,
    /// What happened.
    pub kind: TraceKind,
    /// The link involved.
    pub link: LinkId,
    /// The packet's four-tuple, if it parsed as TCP/IPv4.
    pub flow: Option<FlowKey>,
    /// Frame length in bytes.
    pub wire_len: usize,
    /// The full frame bytes, when byte capture is enabled
    /// ([`Trace::enable_with_bytes`]); cheap to keep — `Bytes` is
    /// reference-counted, so this aliases the in-flight packet.
    pub data: Option<bytes::Bytes>,
}

/// Folds the text written into it into an FNV-1a hash (multiplier
/// [`telemetry::SIM_FNV_PRIME`]) without buffering it: FNV-1a is
/// sequential, so the hash equals that of the concatenated text.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = telemetry::fnv1a(telemetry::SIM_FNV_PRIME, self.0, s.as_bytes());
        Ok(())
    }
}

/// A bounded in-memory trace buffer.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    capture_bytes: bool,
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Events not recorded because the buffer was full.
    pub truncated: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            enabled: false,
            capture_bytes: false,
            events: Vec::new(),
            capacity: 1 << 20,
            truncated: 0,
        }
    }
}

impl Trace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables recording with the given buffer capacity (in events).
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity;
        self.events.reserve(capacity.min(4096));
    }

    /// Like [`Trace::enable`], additionally keeping full frame bytes so
    /// the trace can be exported as a pcap capture.
    pub fn enable_with_bytes(&mut self, capacity: usize) {
        self.enable(capacity);
        self.capture_bytes = true;
    }

    /// Records one event if tracing is on. The gate inlines into the
    /// delivery loop, so a run with tracing off pays a branch, not a call.
    #[inline]
    pub(crate) fn record(
        &mut self,
        at: Time,
        node: NodeId,
        kind: TraceKind,
        link: LinkId,
        pkt: &Packet,
    ) {
        if self.enabled {
            self.push(at, node, kind, link, pkt);
        }
    }

    #[inline(never)]
    fn push(&mut self, at: Time, node: NodeId, kind: TraceKind, link: LinkId, pkt: &Packet) {
        if self.events.len() >= self.capacity {
            self.truncated += 1;
            return;
        }
        self.events.push(TraceEvent {
            at,
            node,
            kind,
            link,
            flow: FlowKey::parse(&pkt.data).ok(),
            wire_len: pkt.wire_len(),
            data: self.capture_bytes.then(|| pkt.data.clone()),
        });
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events matching a predicate (convenience for tests).
    pub fn filter<'a>(
        &'a self,
        pred: impl Fn(&TraceEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| pred(e))
    }

    /// FNV-1a over every recorded event's canonical line
    /// (`at;node;kind;link;flow;wire_len`), with the event count: the
    /// digest the determinism pins are taken in. It covers wire lengths,
    /// never payload bytes, and only what was recorded — check
    /// [`Trace::truncated`] first.
    pub fn digest(&self) -> (u64, usize) {
        let mut h = FnvWriter(telemetry::FNV_OFFSET);
        for e in &self.events {
            // `FnvWriter` never fails, so neither does the line.
            let _ = write!(
                h,
                "{};{:?};{:?};{:?};{:?};{}",
                e.at.as_nanos(),
                e.node,
                e.kind,
                e.link,
                e.flow,
                e.wire_len
            );
        }
        (h.0, self.events.len())
    }

    /// Drops all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
        self.truncated = 0;
    }

    /// Writes the matching events as a classic libpcap capture (LINKTYPE
    /// Ethernet, microsecond timestamps). Requires byte capture
    /// ([`Trace::enable_with_bytes`]); events recorded without bytes are
    /// skipped. Returns the number of packet records written.
    ///
    /// To capture "what a NIC saw", filter on one node and
    /// [`TraceKind::Deliver`] (rx) or [`TraceKind::Send`] (tx).
    pub fn write_pcap<W: std::io::Write>(
        &self,
        w: &mut W,
        pred: impl Fn(&TraceEvent) -> bool,
    ) -> std::io::Result<usize> {
        // Global header: magic, v2.4, UTC, 0 sigfigs, snaplen, Ethernet.
        w.write_all(&0xa1b2_c3d4u32.to_le_bytes())?;
        w.write_all(&2u16.to_le_bytes())?;
        w.write_all(&4u16.to_le_bytes())?;
        w.write_all(&0i32.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        w.write_all(&65_535u32.to_le_bytes())?;
        w.write_all(&1u32.to_le_bytes())?; // LINKTYPE_ETHERNET
        let mut written = 0usize;
        for e in self.events.iter().filter(|e| pred(e)) {
            let Some(data) = &e.data else { continue };
            let ns = e.at.as_nanos();
            // The record header's fields are 32 bits wide: an instant past
            // 2106 or a longer frame cannot be written, and is an error
            // rather than a wrapped field.
            let field = |v: u64, what: &str| {
                u32::try_from(v).map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("pcap {what} {v} does not fit 32 bits"),
                    )
                })
            };
            let len = field(data.len() as u64, "frame length")?;
            w.write_all(&field(ns / 1_000_000_000, "timestamp (s)")?.to_le_bytes())?;
            w.write_all(&(((ns % 1_000_000_000) / 1_000) as u32).to_le_bytes())?;
            w.write_all(&len.to_le_bytes())?;
            w.write_all(&len.to_le_bytes())?;
            w.write_all(data)?;
            written += 1;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::{MacAddr, Packet, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn pkt(payload: &[u8]) -> Packet {
        Packet::build_tcp(
            netpkt::Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
            &TcpHeader {
                src_port: 1,
                dst_port: 2,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                window: 1,
            },
            payload,
            64,
            0,
        )
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(
            Time::ZERO,
            NodeId(0),
            TraceKind::Send,
            LinkId(0),
            &pkt(b"x"),
        );
        assert!(t.events().is_empty());
    }

    #[test]
    fn capacity_truncates_and_counts() {
        let mut t = Trace::new();
        t.enable(2);
        for _ in 0..5 {
            t.record(
                Time::ZERO,
                NodeId(0),
                TraceKind::Send,
                LinkId(0),
                &pkt(b"x"),
            );
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.truncated, 3);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.truncated, 0);
    }

    #[test]
    fn bytes_only_kept_when_asked() {
        let mut t = Trace::new();
        t.enable(16);
        t.record(
            Time::ZERO,
            NodeId(0),
            TraceKind::Send,
            LinkId(0),
            &pkt(b"x"),
        );
        assert!(t.events()[0].data.is_none());

        let mut t = Trace::new();
        t.enable_with_bytes(16);
        t.record(
            Time::ZERO,
            NodeId(0),
            TraceKind::Send,
            LinkId(0),
            &pkt(b"x"),
        );
        assert!(t.events()[0].data.is_some());
    }

    #[test]
    fn pcap_output_is_well_formed() {
        let mut t = Trace::new();
        t.enable_with_bytes(16);
        let p1 = pkt(b"hello");
        let p2 = pkt(b"world!");
        t.record(
            Time::from_nanos(1_500_000_000),
            NodeId(0),
            TraceKind::Send,
            LinkId(0),
            &p1,
        );
        t.record(
            Time::from_nanos(2_000_001_000),
            NodeId(1),
            TraceKind::Deliver,
            LinkId(0),
            &p2,
        );

        let mut out = Vec::new();
        let n = t.write_pcap(&mut out, |_| true).unwrap();
        assert_eq!(n, 2);
        // Global header.
        assert_eq!(&out[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(u32::from_le_bytes(out[20..24].try_into().unwrap()), 1); // Ethernet
                                                                            // First record header: ts 1.5 s, lengths match the frame.
        let rec = &out[24..];
        assert_eq!(u32::from_le_bytes(rec[0..4].try_into().unwrap()), 1);
        assert_eq!(u32::from_le_bytes(rec[4..8].try_into().unwrap()), 500_000);
        let incl = u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize;
        assert_eq!(incl, p1.wire_len());
        // The captured bytes are the frame verbatim.
        assert_eq!(&rec[16..16 + incl], &p1.data[..]);
        // Total size adds up: 24 + 2*(16 + frame).
        assert_eq!(out.len(), 24 + 16 + p1.wire_len() + 16 + p2.wire_len());
    }

    #[test]
    fn pcap_filter_selects_subset() {
        let mut t = Trace::new();
        t.enable_with_bytes(16);
        t.record(
            Time::ZERO,
            NodeId(0),
            TraceKind::Send,
            LinkId(0),
            &pkt(b"a"),
        );
        t.record(
            Time::ZERO,
            NodeId(1),
            TraceKind::Deliver,
            LinkId(0),
            &pkt(b"b"),
        );
        let mut out = Vec::new();
        let n = t.write_pcap(&mut out, |e| e.node == NodeId(1)).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn digest_folds_each_event_line_and_counts() {
        let mut t = Trace::new();
        assert_eq!(t.digest(), (telemetry::FNV_OFFSET, 0));
        t.enable(16);
        t.record(
            Time::from_nanos(5),
            NodeId(1),
            TraceKind::Send,
            LinkId(2),
            &pkt(b"a"),
        );
        let one = t.digest();
        assert_eq!(one.1, 1);
        // The hash of the event's whole canonical line, folded piecewise.
        let e = &t.events()[0];
        let line = format!(
            "{};{:?};{:?};{:?};{:?};{}",
            e.at.as_nanos(),
            e.node,
            e.kind,
            e.link,
            e.flow,
            e.wire_len
        );
        let whole = telemetry::fnv1a(
            telemetry::SIM_FNV_PRIME,
            telemetry::FNV_OFFSET,
            line.as_bytes(),
        );
        assert_eq!(one.0, whole);
        // Payload bytes are not covered; a different instant is.
        let mut u = Trace::new();
        u.enable(16);
        u.record(
            Time::from_nanos(5),
            NodeId(1),
            TraceKind::Send,
            LinkId(2),
            &pkt(b"b"),
        );
        assert_eq!(u.digest(), one);
        u.record(
            Time::from_nanos(6),
            NodeId(1),
            TraceKind::Send,
            LinkId(2),
            &pkt(b"a"),
        );
        assert_ne!(u.digest().0, one.0);
    }

    #[test]
    fn filter_helper_works() {
        let mut t = Trace::new();
        t.enable(16);
        t.record(
            Time::ZERO,
            NodeId(0),
            TraceKind::Send,
            LinkId(0),
            &pkt(b"a"),
        );
        t.record(
            Time::ZERO,
            NodeId(0),
            TraceKind::Drop,
            LinkId(0),
            &pkt(b"b"),
        );
        assert_eq!(t.filter(|e| e.kind == TraceKind::Drop).count(), 1);
    }
}
