//! Deterministic causal span tracing: per-request hop records, span
//! assembly, and the critical-path walk.
//!
//! Every causally interesting point in the simulator (link delivery,
//! TCP send/ACK/RTO, LB parse→pick→forward, backend enqueue/service/
//! respond, client issue/consume) can record a [`HopRecord`] tagged with
//! a 64-bit *trace id* derived purely from the flow key and the request
//! sequence number. Records are assembled offline into per-request
//! [`Span`]s, and [`critical_path`] decomposes a request's end-to-end
//! latency into the five segments the estimator error budget needs:
//! forward network, LB processing, backend queueing, backend service,
//! and reverse network.
//!
//! Like the decision journal, the tier is mode-gated ([`SpanMode`]), off
//! by default, and a pure function of the seed: recording never arms
//! timers, draws randomness, or perturbs wire bytes, so enabling it
//! cannot change the packet schedule, and two runs with the same seed
//! produce byte-identical NDJSON and equal [`digest`]s.

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

pub use crate::log::parse_ndjson;
use crate::log::{Codec, Field, Log, Mode, Record, Uint, AT};

/// What the span log retains.
pub type SpanMode = Mode;

/// The span hop store owned by the simulation: one packed [`Log`] of
/// [`HopRecord`]s.
pub type SpanLog = Log<HopRecord>;

impl SpanLog {
    /// [`Log::push`], under the span log's name for it.
    #[inline]
    pub fn record(&mut self, rec: HopRecord) {
        self.push(rec);
    }
}

/// The hop taxonomy: one variant per causally interesting point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HopKind {
    /// Client wrote a request to its socket. `a` packs the client
    /// address, `b` packs `is_get` (bit 63) and the request id.
    ClientIssue,
    /// LB parsed the flow key of a delivered frame. `a` packs the client
    /// address, `b` is the frame wire length.
    LbDeliver,
    /// LB found the flow pinned in its flow table. `a` packs the client
    /// address, `b` is the pinned backend index.
    LbFlowTable,
    /// LB admitted a new flow and picked a backend. `a` packs the client
    /// address, `b` is the chosen backend index.
    LbPick,
    /// LB forwarded a frame toward a backend. `a` is the backend index,
    /// `b` is the frame wire length.
    LbForward,
    /// Backend decoded a complete request. `a` packs the client address,
    /// `b` is the request id.
    BackendEnqueue,
    /// A worker began service (timestamp may postdate the enqueue —
    /// the queueing delay is exactly that gap). `a` packs the client
    /// address, `b` is the request id.
    BackendServiceStart,
    /// Backend wrote the response to its socket. `a` packs the client
    /// address, `b` is the request id.
    BackendRespond,
    /// Client consumed a complete response. `a` packs the client
    /// address, `b` is the request id.
    ClientConsume,
    /// A link delivered a traced frame to a node. `a` is the link id,
    /// `b` is the frame wire length.
    LinkDeliver,
    /// A traced frame died in the network. `a` is the link id, `b` is a
    /// [`drop_reason`] code.
    LinkDrop,
    /// The impairment layer duplicated or reordered a traced frame.
    /// `a` is the link id, `b` is an [`impair_kind`] code.
    LinkImpair,
    /// TCP built a traced data segment. `a` is the sequence number,
    /// `b` is the payload length.
    TcpSend,
    /// TCP processed an ACK on a traced flow. `a` is the ack number.
    TcpAck,
    /// A retransmission timeout fired on a flow whose last traced
    /// activity belongs to this span.
    TcpRto,
    /// In-order payload from a traced segment reached the application.
    /// `a` is the sequence number, `b` is the payload length.
    TcpReassembled,
}

/// All hop kinds, in wire order (the order [`HopKind::code`] follows).
pub const HOP_KINDS: [HopKind; 16] = [
    HopKind::ClientIssue,
    HopKind::LbDeliver,
    HopKind::LbFlowTable,
    HopKind::LbPick,
    HopKind::LbForward,
    HopKind::BackendEnqueue,
    HopKind::BackendServiceStart,
    HopKind::BackendRespond,
    HopKind::ClientConsume,
    HopKind::LinkDeliver,
    HopKind::LinkDrop,
    HopKind::LinkImpair,
    HopKind::TcpSend,
    HopKind::TcpAck,
    HopKind::TcpRto,
    HopKind::TcpReassembled,
];

impl HopKind {
    /// Stable numeric code (tie-break key in sorts and digests): the
    /// declaration index, which is also the kind's place in [`HOP_KINDS`].
    pub fn code(&self) -> u8 {
        *self as u8
    }

    /// Stable wire name (the `"hop"` field of the NDJSON schema).
    pub fn as_str(&self) -> &'static str {
        HopRecord::KINDS[usize::from(self.code())]
    }
}

impl Uint for HopKind {
    fn get(&self) -> u64 {
        u64::from(self.code())
    }

    fn set(&mut self, v: u64) -> bool {
        let kind = usize::try_from(v).ok().and_then(|i| HOP_KINDS.get(i));
        kind.map(|&k| *self = k).is_some()
    }
}

/// Why a traced frame died ([`HopKind::LinkDrop`]'s `b` field).
pub mod drop_reason {
    /// The sending node was scripted down.
    pub const NODE_DOWN: u64 = 0;
    /// The impairment layer corrupted the frame in flight.
    pub const CORRUPT: u64 = 1;
    /// The link queue was full or the link was down.
    pub const LINK: u64 = 2;
    /// The receiving node was scripted down.
    pub const RECEIVER_DOWN: u64 = 3;
}

/// What the impairment layer did ([`HopKind::LinkImpair`]'s `b` field).
pub mod impair_kind {
    /// The frame will be delivered twice.
    pub const DUPLICATE: u64 = 1;
    /// The frame was held back by a reordering delay.
    pub const REORDER: u64 = 2;
}

/// Packs an IPv4 address and port into a hop record operand.
pub fn pack_addr(ip: u32, port: u16) -> u64 {
    (u64::from(ip) << 16) | u64::from(port)
}

/// Inverse of [`pack_addr`].
pub fn unpack_addr(a: u64) -> (u32, u16) {
    ((a >> 16) as u32, (a & 0xffff) as u16)
}

/// One hop record. `a`/`b` are kind-specific operands (see [`HopKind`]);
/// `node` is the simulator node id the hop happened at (0 until stamped
/// for logs kept by application objects that don't know their node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Sim time of the hop, nanoseconds.
    pub at: u64,
    /// Trace id of the request this hop belongs to (never 0 once
    /// retained).
    pub trace: u64,
    /// Which causal point this is.
    pub kind: HopKind,
    /// Simulator node id the hop happened at.
    pub node: u32,
    /// First kind-specific operand.
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

/// Hops written from one callback share time, trace and node, so a
/// packed hop is about 6.5 bytes, not `size_of::<HopRecord>()`: the four
/// sticky fields are the header's four flags, and a trace, address or
/// `b` seen a few records before is a one-byte dictionary index
/// (DESIGN.md §6.11; 6.44 bytes on the Fig. 3 stream).
impl Record for HopRecord {
    const KIND_KEY: &'static str = "hop";
    /// Hop-kind wire names, in [`HOP_KINDS`] order.
    const KINDS: &'static [&'static str] = &[
        "client_issue",
        "lb_deliver",
        "lb_flow_table",
        "lb_pick",
        "lb_forward",
        "backend_enqueue",
        "backend_service_start",
        "backend_respond",
        "client_consume",
        "link_deliver",
        "link_drop",
        "link_impair",
        "tcp_send",
        "tcp_ack",
        "tcp_rto",
        "tcp_reassembled",
    ];

    fn blank(tag: u8) -> Option<HopRecord> {
        Some(HopRecord {
            at: 0,
            trace: 0,
            kind: *HOP_KINDS.get(usize::from(tag))?,
            node: 0,
            a: 0,
            b: 0,
        })
    }

    /// The span wire schema, uniform across kinds:
    /// `{"at":…,"trace":…,"hop":"…","node":…,"a":…,"b":…}`. (Forced
    /// inline: see the packed encoder.)
    #[inline(always)]
    fn walk<C: Codec>(&mut self, c: &mut C) -> Result<(), String> {
        c.field(AT, Field::Time(&mut self.at))?;
        // Trace ids are hashes: a varint would only make them longer.
        c.field("trace", Field::Hash(&mut self.trace))?;
        c.field(Self::KIND_KEY, Field::Kind(&mut self.kind, Self::KINDS))?;
        c.field("node", Field::Sticky(&mut self.node))?;
        c.field("a", Field::Sticky(&mut self.a))?;
        c.field("b", Field::Flagged(&mut self.b))
    }
}

/// Canonical record order: time, then trace, then hop code, then node,
/// then operands. Merging several layers' logs and sorting with this
/// yields one deterministic stream regardless of harvest order.
pub fn sort_records(records: &mut [HopRecord]) {
    records.sort_unstable_by_key(|r| (r.at, r.trace, r.kind.code(), r.node, r.a, r.b));
}

/// FNV-1a digest over a record stream; equal for byte-identical streams.
/// The run-twice determinism tests compare this.
pub fn digest(records: &[HopRecord]) -> u64 {
    let mut h = crate::FNV_OFFSET;
    for r in records {
        let kind = u64::from(r.kind.code());
        for v in [r.at, r.trace, kind, u64::from(r.node), r.a, r.b] {
            h = crate::fnv1a(crate::FNV_PRIME, h, &v.to_le_bytes());
        }
    }
    h
}

/// Serialize a record stream as NDJSON.
pub fn to_ndjson(records: &[HopRecord]) -> String {
    crate::log::to_ndjson(records.iter().copied())
}

/// One request's assembled hop records, in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace id shared by every record.
    pub trace: u64,
    /// The span's hop records, sorted by [`sort_records`]'s key.
    pub records: Vec<HopRecord>,
}

impl Span {
    /// The first record of the given kind, if any.
    pub fn first(&self, kind: HopKind) -> Option<&HopRecord> {
        self.records.iter().find(|r| r.kind == kind)
    }

    /// The first record of the given kind at or after `t`.
    pub fn first_at_or_after(&self, kind: HopKind, t: u64) -> Option<&HopRecord> {
        self.records.iter().find(|r| r.kind == kind && r.at >= t)
    }
}

/// Group a record stream into per-request spans. Untraced records
/// (`trace == 0`) are skipped. Spans are ordered by the sim time of
/// their earliest record (trace id tie-break), records within a span by
/// the canonical key — both independent of input order.
pub fn assemble(records: &[HopRecord]) -> Vec<Span> {
    let mut sorted: Vec<HopRecord> = records.iter().copied().filter(|r| r.trace != 0).collect();
    sort_records(&mut sorted);
    let mut by_trace: std::collections::BTreeMap<u64, Vec<HopRecord>> =
        std::collections::BTreeMap::new();
    for r in sorted {
        by_trace.entry(r.trace).or_default().push(r);
    }
    let mut spans: Vec<Span> = by_trace
        .into_iter()
        .map(|(trace, records)| Span { trace, records })
        .collect();
    spans.sort_by_key(|s| (s.records[0].at, s.trace));
    spans
}

/// A request's end-to-end latency decomposed along its causal path.
///
/// Milestones are walked in order (issue → LB deliver → LB forward →
/// backend enqueue → service start → respond → consume); each present
/// milestone closes the segment since the previous present one, and a
/// missing milestone contributes a zero-width segment (its time folds
/// into the next present segment). The segments therefore always sum to
/// `t_client` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPath {
    /// The request's trace id.
    pub trace: u64,
    /// Client IPv4.
    pub client_ip: u32,
    /// Client source port.
    pub client_port: u16,
    /// Client-assigned request id.
    pub request_id: u64,
    /// True for GETs, false for SETs.
    pub is_get: bool,
    /// Backend index the LB chose, when an LB hop recorded one.
    pub backend: Option<u64>,
    /// Sim time the client issued the request.
    pub issued_at: u64,
    /// Sim time the client consumed the response.
    pub completed_at: u64,
    /// End-to-end latency: `completed_at - issued_at`. Bitwise equal to
    /// the client recorder's measurement (both reuse the same clock
    /// reads).
    pub t_client: u64,
    /// Client send → LB delivery (forward network, client side).
    pub client_to_lb: u64,
    /// LB delivery → LB forward (LB processing).
    pub lb_proc: u64,
    /// LB forward → backend request decoded (forward network, backend
    /// side, including TCP reassembly).
    pub lb_to_backend: u64,
    /// Backend decode → worker pickup (backend queueing).
    pub backend_queue: u64,
    /// Worker pickup → response written (backend service).
    pub backend_service: u64,
    /// Response written → client consumed it (reverse network — DSR, so
    /// this leg never crosses the LB).
    pub reverse_net: u64,
}

/// Walk a span's critical path. Returns `None` unless the span has both
/// a `ClientIssue` and a matching `ClientConsume` (same request id).
pub fn critical_path(span: &Span) -> Option<CriticalPath> {
    let issue = span.first(HopKind::ClientIssue)?;
    let request_id = issue.b & !(1 << 63);
    let is_get = issue.b >> 63 == 1;
    let (client_ip, client_port) = unpack_addr(issue.a);
    let consume = span
        .records
        .iter()
        .find(|r| r.kind == HopKind::ClientConsume && r.b == request_id)?;
    let issued_at = issue.at;
    let completed_at = consume.at;
    let backend = span
        .first(HopKind::LbFlowTable)
        .or_else(|| span.first(HopKind::LbPick))
        .map(|r| r.b)
        .or_else(|| span.first(HopKind::LbForward).map(|r| r.a));
    // Milestones between issue and consume, in causal order. Each
    // present one closes the segment since the previous present one.
    let milestones = [
        span.first_at_or_after(HopKind::LbDeliver, issued_at),
        span.first_at_or_after(HopKind::LbForward, issued_at),
        span.first_at_or_after(HopKind::BackendEnqueue, issued_at),
        span.first_at_or_after(HopKind::BackendServiceStart, issued_at),
        span.first_at_or_after(HopKind::BackendRespond, issued_at),
    ];
    let mut seg = [0u64; 6];
    let mut prev = issued_at;
    for (i, m) in milestones.iter().enumerate() {
        if let Some(r) = m {
            let at = r.at.clamp(prev, completed_at);
            seg[i] = at - prev;
            prev = at;
        }
    }
    seg[5] = completed_at.saturating_sub(prev);
    Some(CriticalPath {
        trace: span.trace,
        client_ip,
        client_port,
        request_id,
        is_get,
        backend,
        issued_at,
        completed_at,
        t_client: completed_at.saturating_sub(issued_at),
        client_to_lb: seg[0],
        lb_proc: seg[1],
        lb_to_backend: seg[2],
        backend_queue: seg[3],
        backend_service: seg[4],
        reverse_net: seg[5],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, trace: u64, kind: HopKind, node: u32, a: u64, b: u64) -> HopRecord {
        HopRecord {
            at,
            trace,
            kind,
            node,
            a,
            b,
        }
    }

    fn full_request(trace: u64, t0: u64, req_id: u64) -> Vec<HopRecord> {
        let addr = pack_addr(0x0a00_0001, 40_000);
        vec![
            rec(t0, trace, HopKind::ClientIssue, 1, addr, (1 << 63) | req_id),
            rec(t0 + 10, trace, HopKind::LbDeliver, 2, addr, 100),
            rec(t0 + 11, trace, HopKind::LbFlowTable, 2, addr, 1),
            rec(t0 + 12, trace, HopKind::LbForward, 2, 1, 100),
            rec(t0 + 30, trace, HopKind::BackendEnqueue, 3, addr, req_id),
            rec(
                t0 + 45,
                trace,
                HopKind::BackendServiceStart,
                3,
                addr,
                req_id,
            ),
            rec(t0 + 95, trace, HopKind::BackendRespond, 3, addr, req_id),
            rec(t0 + 120, trace, HopKind::ClientConsume, 1, addr, req_id),
        ]
    }

    #[test]
    fn log_caps_and_counts_drops() {
        assert!(!SpanLog::off().enabled() && SpanLog::new(SpanMode::Full(8)).enabled());
        let mut log = SpanLog::new(SpanMode::Full(2));
        for at in 0..5 {
            log.record(rec(at, 7, HopKind::LinkDeliver, 0, 0, 0));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        // A drain empties the log but keeps the drop count.
        assert_eq!(log.take().len(), 2);
        assert_eq!((log.len(), log.dropped()), (0, 3));
        let mut off = SpanLog::off();
        off.record(rec(0, 7, HopKind::LinkDeliver, 0, 0, 0));
        assert_eq!(off.iter().count(), 0);
        assert_eq!((off.retained_bytes(), off.dropped()), (0, 0));
    }

    #[test]
    fn log_packs_fields_shared_with_the_previous_record() {
        let addr = pack_addr(0x0a00_0001, 40_000);
        let (t, u) = (0xdead_beef_0000_0007, 0x0123_4567_89ab_cdef);
        let records = [
            rec(1_000_000, t, HopKind::LbDeliver, 2, addr, 118),
            // Same callback: time, trace, node and `a` repeat.
            rec(1_000_000, t, HopKind::LbFlowTable, 2, addr, 1),
            // A step back in time and a bit-63 flag both stay short.
            rec(999_990, t, HopKind::ClientIssue, 2, addr, (1 << 63) | 5),
            // Another trace, and `b` back to a length seen before.
            rec(1_000_000, u, HopKind::LbDeliver, 2, addr, 118),
            // Back to the first trace: a tag byte, not eight raw bytes.
            rec(1_000_000, t, HopKind::LbDeliver, 2, addr, 118),
        ];
        let mut log = SpanLog::new(SpanMode::Full(8));
        let mut sizes = Vec::new();
        for r in records {
            let before = log.retained_bytes();
            log.record(r);
            sizes.push(log.retained_bytes() - before);
        }
        // First: header, 3-byte time delta, then a literal tag before
        // each coded field's value: raw trace, node, 7-byte address,
        // 2-byte `b`. After it a repeated field is a header flag, but `b`
        // has none: a tag, plus its literal when new. A new trace is a
        // tag and eight raw bytes; one seen before, a tag alone.
        assert_eq!(
            sizes,
            [
                1 + 3 + 9 + 2 + 8 + 3,
                1 + 2,
                1 + 1 + 2,
                1 + 1 + 9 + 1,
                1 + 1 + 1
            ]
        );
        assert_eq!(log.iter().collect::<Vec<_>>(), records);
        assert_eq!(log.take(), records);
        assert_eq!((log.len(), log.retained_bytes()), (0, 0));
    }

    #[test]
    fn ndjson_roundtrip_every_kind() {
        let records: Vec<HopRecord> = HOP_KINDS
            .iter()
            .enumerate()
            .map(|(i, &kind)| rec(i as u64, u64::MAX - i as u64, kind, i as u32, 1 << 40, 3))
            .collect();
        let text = to_ndjson(&records);
        let parsed: Vec<HopRecord> = parse_ndjson(&text).unwrap();
        assert_eq!(parsed, records);
        // Writer is canonical: re-serializing the parse is byte-identical.
        assert_eq!(to_ndjson(&parsed), text);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let parse = parse_ndjson::<HopRecord>;
        assert!(parse("{\"at\":1}").is_err());
        assert!(
            parse("{\"at\":1,\"trace\":2,\"hop\":\"bogus\",\"node\":0,\"a\":0,\"b\":0}").is_err()
        );
        assert!(parse("not json").is_err());
        let err =
            parse("{\"at\":1,\"trace\":2,\"hop\":\"tcp_ack\",\"node\":0,\"a\":0,\"b\":0}\nnope")
                .unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }

    #[test]
    fn parse_names_the_field_it_rejects() {
        let line = |at: &str, node: &str, tail: &str| {
            format!(
                "{{\"at\":{at},\"trace\":2,\"hop\":\"tcp_ack\",\"node\":{node},\"a\":3,\"b\":4{tail}"
            )
        };
        let parse = HopRecord::parse_json;
        assert_eq!(parse(&line("1", "5", "}")).unwrap().node, 5);
        for (line, field) in [
            // A node id past u32 is an error, not node 1.
            (line("1", "4294967297", "}"), "field \"node\""),
            // An integer is a digit run: no sign, even a harmless one.
            (line("+5", "5", "}"), "field \"at\""),
            (line("1", "+5", "}"), "field \"node\""),
            // No key the schema does not read, and nothing after the
            // object; the closing brace is not optional.
            (line("1", "5", ",\"zzz\":5}"), "unknown field \"zzz\""),
            (line("1", "5", "}}"), "field \"b\""),
            (line("1", "5", ""), "object"),
        ] {
            let err = parse(&line).expect_err(&line);
            assert!(err.contains(field), "{line}: {err}");
        }
    }

    #[test]
    fn hop_kinds_are_listed_in_code_order() {
        for (i, kind) in HOP_KINDS.iter().enumerate() {
            assert_eq!(usize::from(kind.code()), i);
        }
        assert_eq!(HopKind::TcpReassembled.as_str(), "tcp_reassembled");
    }

    #[test]
    fn pack_addr_roundtrips() {
        let (ip, port) = unpack_addr(pack_addr(0xc0a8_0101, 65_535));
        assert_eq!((ip, port), (0xc0a8_0101, 65_535));
        let (ip, port) = unpack_addr(pack_addr(0, 0));
        assert_eq!((ip, port), (0, 0));
    }

    #[test]
    fn assemble_groups_and_orders_deterministically() {
        let mut records = full_request(9, 1_000, 1);
        records.extend(full_request(4, 500, 2));
        records.push(rec(700, 0, HopKind::LinkDeliver, 0, 0, 0)); // untraced
                                                                  // Shuffle-ish: reverse input order; assembly must not care.
        let mut reversed = records.clone();
        reversed.reverse();
        let spans = assemble(&records);
        assert_eq!(spans, assemble(&reversed));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].trace, 4, "earliest span first");
        assert_eq!(spans[1].trace, 9);
        assert!(spans.iter().all(|s| s.records.len() == 8));
    }

    #[test]
    fn critical_path_decomposes_exactly() {
        let spans = assemble(&full_request(9, 1_000, 1));
        let cp = critical_path(&spans[0]).unwrap();
        assert_eq!(cp.trace, 9);
        assert_eq!(cp.client_ip, 0x0a00_0001);
        assert_eq!(cp.client_port, 40_000);
        assert_eq!(cp.request_id, 1);
        assert!(cp.is_get);
        assert_eq!(cp.backend, Some(1));
        assert_eq!(cp.t_client, 120);
        assert_eq!(cp.client_to_lb, 10);
        assert_eq!(cp.lb_proc, 2);
        assert_eq!(cp.lb_to_backend, 18);
        assert_eq!(cp.backend_queue, 15);
        assert_eq!(cp.backend_service, 50);
        assert_eq!(cp.reverse_net, 25);
        let sum = cp.client_to_lb
            + cp.lb_proc
            + cp.lb_to_backend
            + cp.backend_queue
            + cp.backend_service
            + cp.reverse_net;
        assert_eq!(sum, cp.t_client);
    }

    #[test]
    fn critical_path_folds_missing_milestones_forward() {
        // No backend hops at all: their segments are zero and the time
        // lands in reverse_net; the sum invariant still holds.
        let records: Vec<HopRecord> = full_request(9, 0, 1)
            .into_iter()
            .filter(|r| {
                !matches!(
                    r.kind,
                    HopKind::BackendEnqueue
                        | HopKind::BackendServiceStart
                        | HopKind::BackendRespond
                )
            })
            .collect();
        let cp = critical_path(&assemble(&records)[0]).unwrap();
        assert_eq!(cp.backend_queue + cp.backend_service + cp.lb_to_backend, 0);
        assert_eq!(cp.reverse_net, 108);
        assert_eq!(cp.t_client, 120);
        // A span with no consume (in-flight request) has no path.
        let open: Vec<HopRecord> = full_request(9, 0, 1)
            .into_iter()
            .filter(|r| r.kind != HopKind::ClientConsume)
            .collect();
        assert!(critical_path(&assemble(&open)[0]).is_none());
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let records = full_request(9, 1_000, 1);
        let d1 = digest(&records);
        assert_eq!(d1, digest(&records.clone()));
        let mut swapped = records.clone();
        swapped.swap(0, 1);
        assert_ne!(d1, digest(&swapped));
        assert_ne!(digest(&[]), 0);
    }
}
