//! Sans-IO tests of the connection state machine: two `Conn`s wired
//! through an in-memory "pipe" with explicit delivery, no simulator.
//! This exercises transitions that are hard to hit through the full
//! stack (simultaneous close, RST during transfer, duplicate SYN-ACK,
//! abort after repeated timeouts).

use std::net::Ipv4Addr;

use netpkt::TcpHeader;
use netsim::{Duration, Time};
use nettcp::conn::{Conn, ConnBuffers, ConnEvent, ConnState, SegmentOut, TimerRequest};
use nettcp::TcpConfig;
use proptest::prelude::*;

const A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 1000);
const B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 2000);

/// Drains a connection's output the way the host does: every segment's
/// payload is read out of the send queue through `segment_payload` before
/// the connection is fed anything else.
fn take_segments(conn: &mut Conn) -> Vec<(SegmentOut, bytes::Bytes)> {
    let mut segs = Vec::new();
    conn.take_segments_into(&mut segs);
    segs.into_iter()
        .map(|seg| {
            let (front, back) = conn.segment_payload(&seg);
            assert_eq!(front.len() + back.len(), seg.len);
            (seg, bytes::Bytes::from([front, back].concat()))
        })
        .collect()
}

/// Drains a connection's application events the way the host does.
fn take_events(conn: &mut Conn) -> Vec<ConnEvent> {
    let mut events = Vec::new();
    conn.take_events_into(&mut events);
    events
}

fn hdr_of(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16), seg: &SegmentOut) -> TcpHeader {
    let _ = (local, remote);
    TcpHeader {
        src_port: local.1,
        dst_port: remote.1,
        seq: seg.seq,
        ack: seg.ack,
        flags: seg.flags,
        window: seg.window,
    }
}

/// A deterministic two-endpoint harness: segments travel with a fixed
/// one-way delay; time advances to the earliest pending delivery.
struct Pipe {
    a: Conn,
    b: Conn,
    /// (deliver_at, to_a, header, payload)
    in_flight: Vec<(Time, bool, TcpHeader, bytes::Bytes)>,
    now: Time,
    delay: Duration,
    /// Drop the next n segments leaving a.
    drop_from_a: usize,
}

impl Pipe {
    fn new(cfg: TcpConfig) -> Pipe {
        let now = Time::ZERO;
        let a = Conn::client(A, B, cfg, 1000, now, ConnBuffers::default());
        // The SYN is in a's out queue; b is created lazily on SYN receipt
        // in the host — here we preconstruct it from the known ISS.
        let b = Conn::server_accept(B, A, cfg, 9000, 1000, now, ConnBuffers::default());
        let mut p = Pipe {
            a,
            b,
            in_flight: Vec::new(),
            now,
            delay: Duration::from_micros(100),
            drop_from_a: 0,
        };
        // Discard a's initial SYN (b was constructed as if it received it)
        // but keep b's SYN-ACK flowing to a.
        let _ = take_segments(&mut p.a);
        p.collect(false);
        p
    }

    /// Collects outgoing segments from one side into the pipe.
    fn collect(&mut self, from_a: bool) {
        let (src, local, remote) = if from_a {
            (&mut self.a, A, B)
        } else {
            (&mut self.b, B, A)
        };
        for (seg, payload) in take_segments(src) {
            if from_a && self.drop_from_a > 0 {
                self.drop_from_a -= 1;
                continue;
            }
            let hdr = hdr_of(local, remote, &seg);
            self.in_flight
                .push((self.now + self.delay, !from_a, hdr, payload));
        }
    }

    /// Delivers everything due, advancing time delivery by delivery,
    /// until the pipe is empty. Timer events are NOT driven (tests that
    /// need timers call `Conn::on_rto` explicitly).
    fn run(&mut self) {
        for _ in 0..10_000 {
            self.collect(true);
            self.collect(false);
            if self.in_flight.is_empty() {
                return;
            }
            // Earliest delivery first; stable on ties.
            let i = self
                .in_flight
                .iter()
                .enumerate()
                .min_by_key(|(_, &(at, _, _, _))| at)
                .map(|(i, _)| i)
                .expect("non-empty");
            let (at, to_a, hdr, payload) = self.in_flight.remove(i);
            self.now = self.now.max(at);
            let dst = if to_a { &mut self.a } else { &mut self.b };
            dst.on_segment(self.now, &hdr, payload);
        }
        panic!("pipe did not quiesce");
    }

    fn events(&mut self, of_a: bool) -> Vec<ConnEvent> {
        if of_a {
            take_events(&mut self.a)
        } else {
            take_events(&mut self.b)
        }
    }
}

fn data_of(events: &[ConnEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in events {
        if let ConnEvent::Data(d) = e {
            out.extend_from_slice(d);
        }
    }
    out
}

fn has_connected(events: &[ConnEvent]) -> bool {
    events.iter().any(|e| matches!(e, ConnEvent::Connected))
}

fn has_closed(events: &[ConnEvent]) -> bool {
    events.iter().any(|e| matches!(e, ConnEvent::Closed))
}

#[test]
fn handshake_completes_both_sides() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    assert_eq!(p.a.state(), ConnState::Established);
    assert_eq!(p.b.state(), ConnState::Established);
    assert!(has_connected(&p.events(true)));
    assert!(has_connected(&p.events(false)));
}

#[test]
fn data_flows_both_directions() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let _ = p.events(true);
    let _ = p.events(false);

    p.a.app_send(p.now, b"request-bytes");
    p.run();
    assert_eq!(data_of(&p.events(false)), b"request-bytes");

    p.b.app_send(p.now, b"response-bytes");
    p.run();
    assert_eq!(data_of(&p.events(true)), b"response-bytes");
}

#[test]
fn large_send_segments_and_reassembles() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    p.a.app_send(p.now, &payload);
    p.run();
    let got = data_of(&p.events(false));
    assert_eq!(got.len(), payload.len());
    assert_eq!(got, payload);
    assert!(p.a.stats.segments_sent >= (20_000 / 1400) as u64);
}

#[test]
fn graceful_close_active_passive() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let _ = (p.events(true), p.events(false));

    // a closes; b learns (Closed event), then closes its side.
    p.a.app_close(p.now);
    p.run();
    assert!(
        has_closed(&p.events(false)),
        "passive side must learn of the close"
    );
    assert_eq!(p.b.state(), ConnState::CloseWait);
    p.b.app_close(p.now);
    p.run();
    assert!(p.a.is_closed(), "active closer finished: {:?}", p.a.state());
    assert!(
        p.b.is_closed(),
        "passive closer finished: {:?}",
        p.b.state()
    );
    assert!(has_closed(&p.events(true)));
}

#[test]
fn simultaneous_close_converges() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let _ = (p.events(true), p.events(false));
    // Both sides close before seeing each other's FIN.
    p.a.app_close(p.now);
    p.b.app_close(p.now);
    p.run();
    assert!(p.a.is_closed(), "a stuck in {:?}", p.a.state());
    assert!(p.b.is_closed(), "b stuck in {:?}", p.b.state());
}

#[test]
fn close_with_pending_data_delivers_everything_first() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let _ = (p.events(true), p.events(false));
    let payload = vec![7u8; 50_000];
    p.a.app_send(p.now, &payload);
    p.a.app_close(p.now); // FIN must trail the data
    p.run();
    let ev = p.events(false);
    assert_eq!(data_of(&ev).len(), payload.len(), "data truncated by close");
    assert!(has_closed(&ev));
}

#[test]
fn rst_tears_down_immediately() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let _ = (p.events(true), p.events(false));
    let rst = TcpHeader {
        src_port: B.1,
        dst_port: A.1,
        seq: 0,
        ack: 0,
        flags: netpkt::TcpFlags::RST,
        window: 0,
    };
    p.a.on_segment(p.now, &rst, bytes::Bytes::new());
    assert!(p.a.is_closed());
    assert!(has_closed(&p.events(true)));
}

/// A pipe whose `b` side has seen `a`'s FIN: `b` is in `CloseWait` and
/// has announced `Closed` once, and its events are drained.
fn close_wait_pipe() -> Pipe {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let _ = (p.events(true), p.events(false));
    p.a.app_close(p.now);
    p.run();
    assert_eq!(p.b.state(), ConnState::CloseWait);
    let closed = p.events(false);
    assert_eq!(
        closed
            .iter()
            .filter(|e| matches!(e, ConnEvent::Closed))
            .count(),
        1
    );
    p
}

#[test]
fn rst_in_close_wait_does_not_announce_closed_again() {
    let mut p = close_wait_pipe();
    let rst = TcpHeader {
        src_port: A.1,
        dst_port: B.1,
        seq: 0,
        ack: 0,
        flags: netpkt::TcpFlags::RST,
        window: 0,
    };
    p.b.on_segment(p.now, &rst, bytes::Bytes::new());
    assert!(p.b.is_closed());
    assert!(!has_closed(&p.events(false)), "Closed announced twice");
}

#[test]
fn abort_in_close_wait_does_not_announce_closed_again() {
    let mut p = close_wait_pipe();
    // b still sends, and the peer never answers again.
    p.b.app_send(p.now, b"unanswered");
    let mut now = p.now;
    for _ in 0..12 {
        let _ = take_segments(&mut p.b);
        now += Duration::from_secs(1);
        p.b.on_rto(now);
        if p.b.is_closed() {
            break;
        }
    }
    assert!(p.b.is_closed(), "connection never aborted");
    assert!(!has_closed(&p.events(false)), "Closed announced twice");
}

#[test]
fn lost_data_recovers_via_rto() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let _ = (p.events(true), p.events(false));

    // Drop the next data segment from a, then fire a's RTO manually.
    p.drop_from_a = 1;
    p.a.app_send(p.now, b"will-be-lost-then-recovered");
    p.run(); // segment dropped; nothing arrives
    assert!(data_of(&p.events(false)).is_empty());

    p.now += Duration::from_millis(100);
    p.a.on_rto(p.now);
    p.run();
    assert_eq!(data_of(&p.events(false)), b"will-be-lost-then-recovered");
    assert_eq!(p.a.stats.retransmits, 1);
    assert_eq!(p.a.stats.timeouts, 1);
}

#[test]
fn repeated_timeouts_abort_the_connection() {
    let cfg = TcpConfig::default();
    let mut c = Conn::client(A, B, cfg, 1, Time::ZERO, ConnBuffers::default());
    let _ = take_segments(&mut c); // SYN leaves, peer never answers
    let mut now = Time::ZERO;
    for _ in 0..12 {
        now += Duration::from_secs(1);
        c.on_rto(now);
        let _ = take_segments(&mut c);
        if c.is_closed() {
            break;
        }
    }
    assert!(c.is_closed(), "connection never aborted");
    assert!(take_events(&mut c)
        .iter()
        .any(|e| matches!(e, ConnEvent::Closed)));
}

#[test]
fn duplicate_syn_gets_synack_again() {
    let cfg = TcpConfig::default();
    let mut b = Conn::server_accept(B, A, cfg, 9000, 1000, Time::ZERO, ConnBuffers::default());
    let first = take_segments(&mut b);
    assert_eq!(first.len(), 1);
    assert!(first[0].0.flags.contains(netpkt::TcpFlags::SYN));
    // The client's SYN arrives again (our SYN-ACK was lost).
    let syn = TcpHeader {
        src_port: A.1,
        dst_port: B.1,
        seq: 1000,
        ack: 0,
        flags: netpkt::TcpFlags::SYN,
        window: 65535,
    };
    b.on_segment(Time::from_nanos(1000), &syn, bytes::Bytes::new());
    let again = take_segments(&mut b);
    assert_eq!(again.len(), 1, "duplicate SYN must re-elicit the SYN-ACK");
    assert!(again[0].0.flags.contains(netpkt::TcpFlags::SYN));
    assert!(again[0].0.flags.contains(netpkt::TcpFlags::ACK));
    assert_eq!(again[0].0.seq, first[0].0.seq, "ISS must not change");
}

#[test]
fn transfer_across_sequence_wraparound() {
    // Client ISS near u32::MAX: sequence numbers wrap mid-transfer and
    // everything must still reassemble byte-exact.
    let cfg = TcpConfig::default();
    let now = Time::ZERO;
    let iss = u32::MAX - 5_000; // wraps after ~5 KB
    let mut a = Conn::client(A, B, cfg, iss, now, ConnBuffers::default());
    let _ = take_segments(&mut a);
    let b = Conn::server_accept(B, A, cfg, 9000, iss, now, ConnBuffers::default());
    let mut p = PipeRaw { a, b, now };
    p.pump();
    assert_eq!(p.a.state(), ConnState::Established);

    let payload: Vec<u8> = (0..30_000u32).map(|i| (i % 253) as u8).collect();
    p.a.app_send(p.now, &payload);
    let got = p.pump();
    assert_eq!(got.len(), payload.len(), "wraparound lost bytes");
    assert_eq!(got, payload, "wraparound corrupted bytes");
}

/// Minimal synchronous pump used by the wraparound test (no delays — every
/// exchange happens "instantly", which exercises pure sequence logic).
struct PipeRaw {
    a: Conn,
    b: Conn,
    now: Time,
}

impl PipeRaw {
    /// Exchanges segments until quiescent; returns bytes delivered to b.
    fn pump(&mut self) -> Vec<u8> {
        let mut delivered = Vec::new();
        for _ in 0..10_000 {
            let a_out = take_segments(&mut self.a);
            let b_out = take_segments(&mut self.b);
            if a_out.is_empty() && b_out.is_empty() {
                break;
            }
            self.now += Duration::from_micros(10);
            for (seg, payload) in a_out {
                let hdr = hdr_of(A, B, &seg);
                self.b.on_segment(self.now, &hdr, payload);
            }
            for (seg, payload) in b_out {
                let hdr = hdr_of(B, A, &seg);
                self.a.on_segment(self.now, &hdr, payload);
            }
            for ev in take_events(&mut self.b) {
                if let ConnEvent::Data(d) = ev {
                    delivered.extend_from_slice(&d);
                }
            }
            let _ = take_events(&mut self.a);
            self.a.take_timer_requests_into(&mut Vec::new());
            self.b.take_timer_requests_into(&mut Vec::new());
        }
        delivered
    }
}

#[test]
fn sender_respects_peer_window() {
    // The peer advertises a 4 KB window: no more than 4 KB may ever be
    // unacknowledged, however much the app queues.
    let small_window = TcpConfig {
        recv_window: 4096,
        ..TcpConfig::default()
    };
    let mut p = Pipe::new(small_window);
    p.run();
    let _ = (p.events(true), p.events(false));
    p.a.app_send(p.now, &vec![9u8; 64 * 1024]);
    // Before anything is ACKed, at most ceil(4096/1400) = 3 segments out.
    let burst: usize = take_segments(&mut p.a).iter().map(|(s, _)| s.len).sum();
    assert!(burst <= 4096, "sender overran the peer window: {burst}");
    assert!(burst >= 2800, "sender underfilled the window: {burst}");
}

#[test]
fn rtt_samples_reflect_pipe_delay() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    let _ = (p.events(true), p.events(false));
    p.a.app_send(p.now, &vec![1u8; 1400]);
    p.run();
    let samples: Vec<Duration> = p
        .events(true)
        .iter()
        .filter_map(|e| match e {
            ConnEvent::RttSample(r) => Some(*r),
            _ => None,
        })
        .collect();
    assert!(!samples.is_empty(), "no RTT sample on ACKed data");
    for s in samples {
        assert_eq!(s, Duration::from_micros(200), "RTT = 2 * one-way delay");
    }
}

#[test]
fn out_of_order_delivery_is_reassembled() {
    // Manually feed b two segments in reverse order.
    let cfg = TcpConfig::default();
    let mut b = Conn::server_accept(B, A, cfg, 9000, 1000, Time::ZERO, ConnBuffers::default());
    let _ = take_segments(&mut b);
    // Complete the handshake from a's perspective: a's ACK.
    let ack = TcpHeader {
        src_port: A.1,
        dst_port: B.1,
        seq: 1001,
        ack: 9001,
        flags: netpkt::TcpFlags::ACK,
        window: 65535,
    };
    b.on_segment(Time::from_nanos(1), &ack, bytes::Bytes::new());
    let _ = take_events(&mut b);

    // Segment 2 first (seq 1006), then segment 1 (seq 1001).
    let seg2 = TcpHeader {
        src_port: A.1,
        dst_port: B.1,
        seq: 1006,
        ack: 9001,
        flags: netpkt::TcpFlags::ACK | netpkt::TcpFlags::PSH,
        window: 65535,
    };
    b.on_segment(
        Time::from_nanos(2),
        &seg2,
        bytes::Bytes::from_static(b"world"),
    );
    assert!(
        data_of(&take_events(&mut b)).is_empty(),
        "future data delivered early"
    );
    assert_eq!(b.stats.ooo_segments, 1);

    let seg1 = TcpHeader { seq: 1001, ..seg2 };
    b.on_segment(
        Time::from_nanos(3),
        &seg1,
        bytes::Bytes::from_static(b"hello"),
    );
    assert_eq!(data_of(&take_events(&mut b)), b"helloworld");
}

#[test]
fn overlapping_retransmission_not_double_delivered() {
    let cfg = TcpConfig::default();
    let mut b = Conn::server_accept(B, A, cfg, 9000, 1000, Time::ZERO, ConnBuffers::default());
    let _ = take_segments(&mut b);
    let base = TcpHeader {
        src_port: A.1,
        dst_port: B.1,
        seq: 1001,
        ack: 9001,
        flags: netpkt::TcpFlags::ACK | netpkt::TcpFlags::PSH,
        window: 65535,
    };
    b.on_segment(
        Time::from_nanos(1),
        &TcpHeader {
            flags: netpkt::TcpFlags::ACK,
            ..base
        },
        bytes::Bytes::new(),
    );
    let _ = take_events(&mut b);
    b.on_segment(
        Time::from_nanos(2),
        &base,
        bytes::Bytes::from_static(b"abcde"),
    );
    // Retransmission covering old + new bytes.
    b.on_segment(
        Time::from_nanos(3),
        &base,
        bytes::Bytes::from_static(b"abcdefgh"),
    );
    assert_eq!(
        data_of(&take_events(&mut b)),
        b"abcdefgh",
        "old prefix must be deduplicated"
    );
    assert_eq!(b.stats.bytes_delivered, 8);
}

// ---------------------------------------------------------------- bytes, not schedules
//
// The simulator's trace hashes cover time, node, kind, flow and wire
// length — never payload. A send queue that transmitted the right
// *number* of wrong bytes would pass every pinned hash, so the payload
// contract is checked here, against the byte streams themselves.

/// The byte an endpoint's stream holds at `pos` (aperiodic, so a payload
/// read at a wrong offset cannot match by accident).
fn stream_byte(salt: u64, pos: usize) -> u8 {
    let mut z = (pos as u64 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= z >> 29;
    (z.wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 56) as u8
}

/// One direction of the lossy pipe below.
struct Side {
    conn: Conn,
    iss: u32,
    /// Everything the application has handed to `conn` so far.
    stream: Vec<u8>,
    /// Everything `conn` has delivered to its application.
    received: Vec<u8>,
    /// Application writes still to come.
    writes: Vec<usize>,
    dropped_in_a_row: u32,
}

impl Side {
    fn new(conn: Conn, iss: u32, mut writes: Vec<usize>) -> Side {
        writes.reverse(); // popped from the back
        Side {
            conn,
            iss,
            stream: Vec::new(),
            received: Vec::new(),
            writes,
            dropped_in_a_row: 0,
        }
    }

    /// Drains output like the host does and checks every data segment —
    /// first transmission or not — against the stream it must come from.
    fn drain(&mut self) -> Vec<(TcpHeader, bytes::Bytes)> {
        let (local, remote) = (self.conn.local(), self.conn.remote());
        let out = take_segments(&mut self.conn);
        for ev in take_events(&mut self.conn) {
            if let ConnEvent::Data(d) = ev {
                self.received.extend_from_slice(&d);
            }
        }
        self.conn.take_timer_requests_into(&mut Vec::new());
        out.into_iter()
            .map(|(seg, payload)| {
                if seg.len > 0 {
                    let at = seg.seq.wrapping_sub(self.iss).wrapping_sub(1);
                    let at = usize::try_from(at).expect("u32 fits usize");
                    assert_eq!(
                        &payload[..],
                        &self.stream[at..at + seg.len],
                        "segment seq {} len {} does not carry stream[{at}..]",
                        seg.seq,
                        seg.len
                    );
                }
                (hdr_of(local, remote, &seg), payload)
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn every_segment_carries_its_slice_of_the_stream(
        a_back in 0u32..65_536,
        b_back in 0u32..65_536,
        a_writes in proptest::collection::vec(1usize..4200, 1..14),
        b_writes in proptest::collection::vec(1usize..4200, 0..8),
        seed in any::<u64>(),
    ) {
        let cfg = TcpConfig::default();
        let (a_iss, b_iss) = (u32::MAX - a_back, u32::MAX - b_back);
        let mut now = Time::ZERO;
        let mut a = Side::new(Conn::client(A, B, cfg, a_iss, now, ConnBuffers::default()), a_iss, a_writes);
        // As in `Pipe::new`: b is built as if a's first SYN had arrived.
        let _ = a.drain();
        let mut b = Side::new(Conn::server_accept(B, A, cfg, b_iss, a_iss, now, ConnBuffers::default()), b_iss, b_writes);
        let (a_total, b_total): (usize, usize) =
            (a.writes.iter().sum(), b.writes.iter().sum());

        let mut rng = seed;
        let mut roll = move || {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (rng ^ (rng >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 27)) >> 40
        };
        // (due step, goes to a, header, payload)
        let mut wire: Vec<(u64, bool, TcpHeader, bytes::Bytes)> = Vec::new();
        let mut finished = false;
        for step in 0..40_000u64 {
            now += Duration::from_micros(10);
            // The applications write whenever the dice say so.
            for (side, salt) in [(&mut a, 0xa), (&mut b, 0xb)] {
                if roll() % 4 == 0 {
                    if let Some(n) = side.writes.pop() {
                        let from = side.stream.len();
                        let chunk: Vec<u8> = (from..from + n).map(|p| stream_byte(salt, p)).collect();
                        side.stream.extend_from_slice(&chunk);
                        side.conn.app_send(now, &chunk);
                    }
                }
            }
            // Both sides' output meets the network: lost (never three in
            // a row, so a retransmission gets through before the abort
            // limit), duplicated, or delayed by a few steps (reordering).
            for to_a in [false, true] {
                let side = if to_a { &mut b } else { &mut a };
                for (hdr, payload) in side.drain() {
                    let fate = roll() % 100;
                    if fate < 8 && side.dropped_in_a_row < 2 {
                        side.dropped_in_a_row += 1;
                        continue;
                    }
                    side.dropped_in_a_row = 0;
                    if fate >= 90 {
                        wire.push((step + 1 + roll() % 6, to_a, hdr, payload.clone()));
                    }
                    wire.push((step + 1 + roll() % 6, to_a, hdr, payload));
                }
            }
            // Deliver one due segment; its effects are drained next step,
            // before the receiver sees anything else.
            if let Some(i) = wire.iter().position(|&(due, ..)| due <= step) {
                let (_, to_a, hdr, payload) = wire.remove(i);
                let dst = if to_a { &mut a } else { &mut b };
                dst.conn.on_segment(now, &hdr, payload);
                continue;
            }
            if !wire.is_empty() {
                continue;
            }
            // Quiet network: done, or somebody's timer has to fire.
            let idle = |s: &Side| s.writes.is_empty() && s.conn.send_backlog() == 0;
            if idle(&a) && idle(&b) && a.received.len() == b_total && b.received.len() == a_total {
                finished = true;
                break;
            }
            for side in [&mut a, &mut b] {
                if side.conn.send_backlog() > 0 || side.conn.state() != ConnState::Established {
                    side.conn.on_rto(now);
                }
            }
        }
        prop_assert!(finished, "transfer did not finish: a {:?}, b {:?}", a.conn.state(), b.conn.state());
        prop_assert!(a.received == b.stream, "a received other bytes than b sent");
        prop_assert!(b.received == a.stream, "b received other bytes than a sent");
    }
}

#[test]
#[should_panic(expected = "outside the in-flight window")]
fn reading_a_segment_after_its_ack_panics() {
    let mut p = Pipe::new(TcpConfig::default());
    p.run();
    p.a.app_send(p.now, b"acked before it was read");
    // The driver takes the segment but reads its payload too late: the
    // ACK in between releases those bytes from the send queue.
    let mut segs = Vec::new();
    p.a.take_segments_into(&mut segs);
    let data = *segs.iter().find(|s| s.len > 0).expect("a data segment");
    let ack = TcpHeader {
        src_port: B.1,
        dst_port: A.1,
        seq: 9001,
        ack: nettcp::seq::seq_add(data.seq, data.len),
        flags: netpkt::TcpFlags::ACK,
        window: 65535,
    };
    p.a.on_segment(p.now, &ack, bytes::Bytes::new());
    let _ = p.a.segment_payload(&data);
}

// ---------------------------------------------------------------- recycled buffers
//
// A host builds each new connection over the buffers its slot's previous
// tenant left (`Conn::into_buffers` at reap). Only capacity may carry
// over: the next connection must behave exactly like one built over
// fresh buffers.

/// Everything one drain hands the host: segments with their payload
/// bytes, timer requests and events — taken the capacity-keeping way the
/// host takes them.
type Drained = (
    Vec<(SegmentOut, bytes::Bytes)>,
    Vec<TimerRequest>,
    Vec<ConnEvent>,
);

fn drain_all(conn: &mut Conn) -> Drained {
    let segs = take_segments(conn);
    let (mut reqs, mut events) = (Vec::new(), Vec::new());
    conn.take_timer_requests_into(&mut reqs);
    conn.take_events_into(&mut events);
    (segs, reqs, events)
}

/// The buffers of two connections that have been through everything:
/// the client's data lost, reordered and recovered by an RTO, a delayed
/// ACK, and a graceful close, with the last drain never taken; and a
/// server reset while 30 KB of its response were still queued.
fn worn_buffers() -> (ConnBuffers, ConnBuffers) {
    let cfg = TcpConfig {
        delayed_ack: nettcp::DelayedAck::Enabled {
            max_delay: Duration::from_millis(1),
        },
        ..TcpConfig::default()
    };
    let mut p = Pipe::new(cfg);
    p.run();
    // Loss and reordering: of four segments the first is lost and the
    // rest arrive last-first; the RTO's retransmission fills the hole.
    p.a.app_send(p.now, &[5u8; 3 * 1400 + 100]);
    let segs = take_segments(&mut p.a);
    assert_eq!(segs.len(), 4);
    for (seg, payload) in segs.into_iter().skip(1).rev() {
        p.b.on_segment(p.now, &hdr_of(A, B, &seg), payload);
    }
    assert_eq!(p.b.stats.ooo_segments, 3);
    p.now += Duration::from_millis(300);
    p.a.on_rto(p.now);
    p.run();
    assert_eq!(p.a.stats.timeouts, 1);
    assert_eq!(data_of(&p.events(false)).len(), 3 * 1400 + 100);
    // A delayed ACK: one in-order segment is held until its timer.
    p.a.app_send(p.now, b"held");
    p.run();
    let delayed = p.b.stats.acks_delayed;
    p.b.on_delack(p.now);
    p.run();
    assert_eq!(p.b.stats.acks_delayed, delayed + 1);
    // Graceful close, active at a.
    p.a.app_close(p.now);
    p.run();
    p.b.app_close(p.now);
    p.run();
    assert!(p.a.is_closed() && p.b.is_closed());
    assert!(
        p.a.has_output(),
        "the last drain must be left to into_buffers"
    );
    let a = p.a.into_buffers();

    let mut server = Conn::server_accept(B, A, cfg, 77, 1000, Time::ZERO, p.b.into_buffers());
    server.app_send(Time::ZERO, &[6u8; 30_000]);
    server.on_segment(
        Time::ZERO,
        &TcpHeader {
            src_port: A.1,
            dst_port: B.1,
            seq: 1001,
            ack: 0,
            flags: netpkt::TcpFlags::RST,
            window: 0,
        },
        bytes::Bytes::new(),
    );
    assert!(server.is_closed() && server.send_backlog() == 30_000);
    (a, server.into_buffers())
}

/// A scripted exchange between a client over `a_bufs` and a server over
/// `b_bufs` — handshake, request, delayed-ACK flushes, response, close —
/// and everything both hand their host along the way.
fn scripted_exchange(a_bufs: ConnBuffers, b_bufs: ConnBuffers) -> Vec<(Drained, Drained)> {
    let cfg = TcpConfig {
        delayed_ack: nettcp::DelayedAck::Enabled {
            max_delay: Duration::from_millis(1),
        },
        ..TcpConfig::default()
    };
    let mut now = Time::ZERO;
    let mut a = Conn::client(A, B, cfg, 4242, now, a_bufs);
    let mut b = Conn::server_accept(B, A, cfg, 9000, 4242, now, b_bufs);
    let mut log = Vec::new();
    for step in 0..60u32 {
        now += Duration::from_micros(50);
        match step {
            3 => a.app_send(now, &[1u8; 2000]),
            8 => b.app_send(now, &[2u8; 300]),
            12 => a.app_close(now),
            _ => {}
        }
        if step % 5 == 4 {
            a.on_delack(now);
            b.on_delack(now);
        }
        let (da, db) = (drain_all(&mut a), drain_all(&mut b));
        if db.2.contains(&ConnEvent::Closed) {
            b.app_close(now);
        }
        // Step 0: a's SYN is the one `b` was accepted from.
        if step > 0 {
            for (seg, payload) in &da.0 {
                b.on_segment(now, &hdr_of(A, B, seg), payload.clone());
            }
        }
        for (seg, payload) in &db.0 {
            a.on_segment(now, &hdr_of(B, A, seg), payload.clone());
        }
        log.push((da, db));
    }
    assert!(
        a.is_closed() && b.is_closed(),
        "{:?} / {:?}",
        a.state(),
        b.state()
    );
    log
}

#[test]
fn a_recycled_connection_is_a_fresh_connection() {
    let (a_bufs, b_bufs) = worn_buffers();
    let fresh = scripted_exchange(ConnBuffers::default(), ConnBuffers::default());
    let recycled = scripted_exchange(a_bufs, b_bufs);
    assert_eq!(fresh.len(), recycled.len());
    for (step, (f, r)) in fresh.iter().zip(&recycled).enumerate() {
        assert_eq!(f, r, "step {step}");
    }
}
