//! A single TCP-like connection: state machine, sliding-window sender with
//! Reno-style congestion control, in-order receiver with out-of-order
//! reassembly, delayed ACKs, pacing, and RFC 6298 retransmission.
//!
//! Connections are sans-IO: they consume parsed segments and produce
//! [`SegmentOut`]s, [`ConnEvent`]s and [`TimerRequest`]s into internal
//! queues that the host drains. This keeps the protocol logic synchronous,
//! deterministic, and independently testable.
//!
//! # Where outgoing bytes live
//!
//! Application bytes are copied once into the connection's send queue and
//! stay there until acknowledged. A [`SegmentOut`] names a range of that
//! queue (`seq`, `len`) instead of owning a payload — a first
//! transmission and a retransmission look the same — and whoever turns it
//! into a frame reads the bytes through [`Conn::segment_payload`], which
//! copies nothing. The price is an ordering contract: **drain a
//! connection's output before feeding it the next segment**, because an
//! ACK releases queued bytes. `segment_payload` asserts the range is still
//! in flight, so a driver that breaks the contract panics instead of
//! sending other bytes.

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use bytes::Bytes;
use netpkt::{TcpFlags, TcpHeader};
use netsim::{Duration, Time};

use crate::config::{DelayedAck, Pacing, TcpConfig};
use crate::rto::RttEstimator;
use crate::seq::{seq_add, seq_ge, seq_gt, seq_le, seq_len, seq_lt};

/// Connection lifecycle states (a pragmatic subset of RFC 793; TIME-WAIT is
/// omitted because the simulator never reuses a four-tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Client sent SYN, waiting for SYN-ACK.
    SynSent,
    /// Server sent SYN-ACK, waiting for the final ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We sent FIN, waiting for its ACK (active close, step 1).
    FinWait1,
    /// Our FIN is ACKed, waiting for the peer's FIN.
    FinWait2,
    /// Peer sent FIN first; we ACKed it and may still send (passive close).
    CloseWait,
    /// We sent our FIN from CloseWait, waiting for its ACK.
    LastAck,
    /// Both sides sent FIN simultaneously; waiting for the final ACK.
    Closing,
    /// Fully closed; the host reaps the connection.
    Closed,
}

/// A segment the connection wants transmitted. The payload stays in the
/// connection's send queue: read it with [`Conn::segment_payload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentOut {
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Payload length in bytes (0 for SYN, FIN and pure ACKs).
    pub len: usize,
}

/// An event for the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnEvent {
    /// Handshake completed.
    Connected,
    /// In-order payload bytes.
    Data(Bytes),
    /// An RTT sample was taken (ground truth for experiments).
    RttSample(Duration),
    /// The connection is fully closed (or was reset).
    Closed,
}

/// Which of the connection's timers a request concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK flush.
    DelAck,
    /// Pacing release.
    Pace,
}

impl TimerKind {
    /// Dense index for per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            TimerKind::Rto => 0,
            TimerKind::DelAck => 1,
            TimerKind::Pace => 2,
        }
    }
}

/// A timer (re-)arm or cancel request toward the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerRequest {
    /// Arm (or move) the timer of this kind to fire at the instant.
    Arm(TimerKind, Time),
    /// Cancel the timer of this kind.
    Cancel(TimerKind),
}

/// Sender/receiver statistics, exposed for tests and experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConnStats {
    /// Data segments sent (first transmissions).
    pub segments_sent: u64,
    /// Segments retransmitted (RTO or fast retransmit).
    pub retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Payload bytes delivered to the application in order.
    pub bytes_delivered: u64,
    /// Segments that arrived out of order and were buffered.
    pub ooo_segments: u64,
    /// Pure ACKs sent.
    pub acks_sent: u64,
    /// ACKs that were delayed (coalesced or timer-flushed).
    pub acks_delayed: u64,
}

/// A connection's four growable buffers: the send queue and the three
/// host-facing queues. A reaped connection gives them up
/// ([`Conn::into_buffers`]) and the next connection its host opens or
/// accepts is built over them, so connection churn reuses capacity
/// instead of allocating it anew. Only capacity carries over: the buffers
/// are empty whenever a `ConnBuffers` exists, and every other field of
/// the new connection comes from its constructor.
#[derive(Debug, Default)]
pub struct ConnBuffers {
    snd_queue: VecDeque<u8>,
    out: Vec<SegmentOut>,
    events: Vec<ConnEvent>,
    timer_reqs: Vec<TimerRequest>,
}

/// A TCP-like connection. See the module docs for the I/O discipline.
#[derive(Debug)]
pub struct Conn {
    /// Current state.
    state: ConnState,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    cfg: TcpConfig,

    // ---- send side ----
    /// The send queue: every application byte not yet acknowledged, in
    /// stream order. Once the handshake is done its front is the byte at
    /// `snd_una`; the first `sent` bytes are in flight and the rest is
    /// waiting for window.
    snd_queue: VecDeque<u8>,
    /// How many bytes at the front of `snd_queue` have been transmitted.
    sent: usize,
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    fin_queued: bool,
    /// Sequence number our FIN occupies, once sent.
    fin_seq: Option<u32>,
    cwnd: u32,
    ssthresh: u32,
    peer_window: u32,
    dup_acks: u32,
    rtt: RttEstimator,
    /// Outstanding RTT probe: (sequence the ACK must reach, send time).
    rtt_probe: Option<(u32, Time)>,
    next_pace_at: Time,

    // ---- receive side ----
    irs: u32,
    rcv_nxt: u32,
    /// Out-of-order segments keyed by sequence number.
    ooo: BTreeMap<u32, Bytes>,
    /// Peer FIN sequence, if received but possibly not yet processable.
    peer_fin_seq: Option<u32>,
    /// Segments received since the last ACK we sent.
    delack_held: u32,

    // ---- host-facing queues ----
    out: Vec<SegmentOut>,
    events: Vec<ConnEvent>,
    timer_reqs: Vec<TimerRequest>,

    /// Counters.
    pub stats: ConnStats,
}

impl Conn {
    /// Opens a client connection over `bufs`: emits the SYN immediately.
    pub fn client(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: u32,
        now: Time,
        bufs: ConnBuffers,
    ) -> Conn {
        let mut c = Conn::new_common(local, remote, cfg, iss, ConnState::SynSent, bufs);
        c.emit(c.iss, 0, TcpFlags::SYN, 0);
        c.snd_nxt = iss.wrapping_add(1);
        c.arm_rto(now);
        c
    }

    /// Accepts a connection from a received SYN over `bufs`: emits the
    /// SYN-ACK.
    pub fn server_accept(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: u32,
        peer_syn_seq: u32,
        now: Time,
        bufs: ConnBuffers,
    ) -> Conn {
        let mut c = Conn::new_common(local, remote, cfg, iss, ConnState::SynRcvd, bufs);
        c.irs = peer_syn_seq;
        c.rcv_nxt = peer_syn_seq.wrapping_add(1);
        c.emit(c.iss, c.rcv_nxt, TcpFlags::SYN | TcpFlags::ACK, 0);
        c.snd_nxt = iss.wrapping_add(1);
        c.arm_rto(now);
        c
    }

    fn new_common(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        cfg: TcpConfig,
        iss: u32,
        state: ConnState,
        bufs: ConnBuffers,
    ) -> Conn {
        let ConnBuffers {
            snd_queue,
            out,
            events,
            timer_reqs,
        } = bufs;
        Conn {
            state,
            local,
            remote,
            cfg,
            snd_queue,
            sent: 0,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            fin_queued: false,
            fin_seq: None,
            cwnd: cfg.initial_cwnd(),
            ssthresh: cfg.max_cwnd,
            peer_window: cfg.mss, // until the first segment tells us
            dup_acks: 0,
            rtt: RttEstimator::default(),
            rtt_probe: None,
            next_pace_at: Time::ZERO,
            irs: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            delack_held: 0,
            out,
            events,
            timer_reqs,
            stats: ConnStats::default(),
        }
    }

    /// Retires the connection, keeping only its buffers' capacity for the
    /// next one (see [`ConnBuffers`]).
    pub fn into_buffers(self) -> ConnBuffers {
        let Conn {
            mut snd_queue,
            mut out,
            mut events,
            mut timer_reqs,
            ..
        } = self;
        snd_queue.clear();
        out.clear();
        events.clear();
        timer_reqs.clear();
        ConnBuffers {
            snd_queue,
            out,
            events,
            timer_reqs,
        }
    }

    // ---------------------------------------------------------------- accessors

    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Local (address, port).
    pub fn local(&self) -> (Ipv4Addr, u16) {
        self.local
    }

    /// Remote (address, port).
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        self.remote
    }

    /// True once fully closed (host may reap).
    pub fn is_closed(&self) -> bool {
        self.state == ConnState::Closed
    }

    /// The smoothed RTT estimate, if any.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// Unsent + unacknowledged byte count (for app-level backpressure tests).
    pub fn send_backlog(&self) -> usize {
        self.snd_queue.len()
    }

    /// Queued bytes not yet transmitted.
    fn unsent(&self) -> usize {
        self.snd_queue.len() - self.sent
    }

    /// The payload of a segment this connection emitted, borrowed from the
    /// send queue as the (up to) two pieces the ring buffer holds it in;
    /// their concatenation is the payload.
    ///
    /// # Panics
    /// Panics if the range is no longer (or not yet) in flight — the caller
    /// fed the connection a segment between taking `seg` and reading it.
    pub fn segment_payload(&self, seg: &SegmentOut) -> (&[u8], &[u8]) {
        if seg.len == 0 {
            return (&[], &[]);
        }
        let start = usize::try_from(seq_len(self.snd_una, seg.seq)).expect("u32 fits usize");
        assert!(
            seq_ge(seg.seq, self.snd_una) && start + seg.len <= self.sent,
            "segment {}+{} read outside the in-flight window ({} bytes from {}): \
             drain output before the next input",
            seg.seq,
            seg.len,
            self.sent,
            self.snd_una,
        );
        let end = start + seg.len;
        let (front, back) = self.snd_queue.as_slices();
        if end <= front.len() {
            (&front[start..end], &[])
        } else if start >= front.len() {
            (&back[start - front.len()..end - front.len()], &[])
        } else {
            (&front[start..], &back[..end - front.len()])
        }
    }

    // ---------------------------------------------------------------- queues

    /// Drains outgoing segments into `out`. Both buffers keep their
    /// capacity (`Vec::append` moves the elements only), so a host's drain
    /// loop is allocation-free in steady state. Read each payload with
    /// [`Self::segment_payload`] before the next [`Self::on_segment`].
    pub fn take_segments_into(&mut self, out: &mut Vec<SegmentOut>) {
        out.append(&mut self.out);
    }

    /// Drains application events onto the end of `out`, keeping both
    /// vectors' capacity.
    pub fn take_events_into(&mut self, out: &mut Vec<ConnEvent>) {
        out.append(&mut self.events);
    }

    /// Drains timer arm/cancel requests onto the end of `out`, keeping
    /// both vectors' capacity.
    pub fn take_timer_requests_into(&mut self, out: &mut Vec<TimerRequest>) {
        out.append(&mut self.timer_reqs);
    }

    /// True if any queue holds pending work for the host.
    pub fn has_output(&self) -> bool {
        !self.out.is_empty() || !self.events.is_empty() || !self.timer_reqs.is_empty()
    }

    // ---------------------------------------------------------------- app side

    /// Queues application bytes for transmission.
    ///
    /// # Panics
    /// Panics if the send buffer would overflow or the connection is
    /// closing — both indicate application bugs in this workspace.
    pub fn app_send(&mut self, now: Time, data: &[u8]) {
        assert!(
            !self.fin_queued && !matches!(self.state, ConnState::Closed | ConnState::LastAck),
            "send after close"
        );
        assert!(
            self.unsent() + data.len() <= self.cfg.send_buffer,
            "send buffer overflow ({} + {} > {})",
            self.unsent(),
            data.len(),
            self.cfg.send_buffer
        );
        self.snd_queue.extend(data);
        self.try_transmit(now);
    }

    /// Requests a graceful close: a FIN is sent once all queued data is out.
    pub fn app_close(&mut self, now: Time) {
        if self.fin_queued || matches!(self.state, ConnState::Closed) {
            return;
        }
        self.fin_queued = true;
        self.try_transmit(now);
    }

    // ---------------------------------------------------------------- timers

    /// Consecutive RTOs after which the connection is aborted (RFC 1122's
    /// R2 limit, in spirit): prevents a peer that will never answer (e.g.
    /// reaped after a lost final ACK) from being retried forever.
    const MAX_CONSECUTIVE_TIMEOUTS: u32 = 8;

    /// Retransmission timer fired.
    pub fn on_rto(&mut self, now: Time) {
        if self.state == ConnState::Closed {
            return;
        }
        self.stats.timeouts += 1;
        if self.rtt.backoff() >= Self::MAX_CONSECUTIVE_TIMEOUTS {
            self.enter_closed();
            return;
        }
        self.rtt.on_timeout();
        self.rtt_probe = None; // Karn: do not time retransmitted data
        if self.cfg.congestion_control {
            let flight = seq_len(self.snd_una, self.snd_nxt);
            self.ssthresh = (flight / 2).max(2 * self.cfg.mss);
            self.cwnd = self.cfg.mss;
        }
        self.dup_acks = 0;
        self.retransmit_head(now);
        self.arm_rto(now);
    }

    /// Delayed-ACK timer fired: flush the held ACK.
    pub fn on_delack(&mut self, _now: Time) {
        if self.delack_held > 0 {
            self.stats.acks_delayed += 1;
            self.send_ack();
        }
    }

    /// Pacing timer fired: release more segments.
    pub fn on_pace(&mut self, now: Time) {
        self.try_transmit(now);
    }

    // ---------------------------------------------------------------- segment input

    /// Processes one received segment (header + payload).
    pub fn on_segment(&mut self, now: Time, hdr: &TcpHeader, payload: Bytes) {
        if hdr.flags.contains(TcpFlags::RST) {
            self.enter_closed();
            return;
        }
        match self.state {
            ConnState::SynSent => self.on_segment_syn_sent(now, hdr),
            ConnState::SynRcvd => {
                self.on_segment_syn_rcvd(now, hdr);
                // The handshake ACK may carry data; fall through for it.
                if self.state == ConnState::Established && !payload.is_empty() {
                    self.process_payload(now, hdr, payload);
                }
            }
            ConnState::Closed => {}
            _ => {
                if hdr.flags.contains(TcpFlags::ACK) {
                    self.process_ack(now, hdr, !payload.is_empty());
                }
                self.process_payload(now, hdr, payload);
            }
        }
    }

    fn on_segment_syn_sent(&mut self, now: Time, hdr: &TcpHeader) {
        if !(hdr.flags.contains(TcpFlags::SYN) && hdr.flags.contains(TcpFlags::ACK)) {
            return; // ignore anything but the SYN-ACK
        }
        if hdr.ack != self.iss.wrapping_add(1) {
            return; // not acknowledging our SYN
        }
        self.irs = hdr.seq;
        self.rcv_nxt = hdr.seq.wrapping_add(1);
        self.snd_una = hdr.ack;
        self.peer_window = u32::from(hdr.window);
        self.state = ConnState::Established;
        self.cancel_rto_if_idle();
        self.send_ack(); // completes the handshake
        self.events.push(ConnEvent::Connected);
        self.try_transmit(now);
    }

    fn on_segment_syn_rcvd(&mut self, now: Time, hdr: &TcpHeader) {
        if hdr.flags.contains(TcpFlags::SYN) && !hdr.flags.contains(TcpFlags::ACK) {
            // Duplicate SYN (our SYN-ACK was lost): re-send the SYN-ACK.
            self.emit(self.iss, self.rcv_nxt, TcpFlags::SYN | TcpFlags::ACK, 0);
            return;
        }
        if hdr.flags.contains(TcpFlags::ACK) && hdr.ack == self.iss.wrapping_add(1) {
            self.snd_una = hdr.ack;
            self.peer_window = u32::from(hdr.window);
            self.state = ConnState::Established;
            self.cancel_rto_if_idle();
            self.events.push(ConnEvent::Connected);
            self.try_transmit(now);
        }
    }

    fn process_ack(&mut self, now: Time, hdr: &TcpHeader, has_payload: bool) {
        let ack = hdr.ack;
        self.peer_window = u32::from(hdr.window);
        if seq_gt(ack, self.snd_nxt) {
            return; // acknowledges data we never sent; ignore
        }
        if seq_gt(ack, self.snd_una) {
            let acked = seq_len(self.snd_una, ack);
            // The FIN occupies one sequence number; data bytes are the rest.
            let mut data_acked = acked as usize;
            if let Some(fin_seq) = self.fin_seq {
                if seq_gt(ack, fin_seq) {
                    data_acked -= 1;
                    self.on_fin_acked();
                }
            }
            // SYN occupies a number too, but snd_una already passed it
            // during the handshake, so the queue never accounts for it.
            let drop_n = data_acked.min(self.sent);
            self.snd_queue.drain(..drop_n);
            self.sent -= drop_n;
            self.snd_una = ack;
            self.dup_acks = 0;

            // RTT sampling (Karn-compliant: probe is cleared on retransmit).
            if let Some((probe_seq, sent_at)) = self.rtt_probe {
                if seq_ge(ack, probe_seq) {
                    let sample = now.saturating_since(sent_at);
                    self.rtt.on_sample(sample);
                    self.events.push(ConnEvent::RttSample(sample));
                    self.rtt_probe = None;
                }
            }

            // Congestion window growth.
            if self.cfg.congestion_control {
                let mss = self.cfg.mss;
                if self.cwnd < self.ssthresh {
                    self.cwnd = (self.cwnd + mss).min(self.cfg.max_cwnd);
                } else {
                    // incr <= mss², which fits a u32 for any mss an IPv4
                    // frame (16-bit total length) can carry.
                    #[allow(clippy::cast_possible_truncation)]
                    let incr = ((mss as u64 * mss as u64) / self.cwnd.max(1) as u64).max(1) as u32;
                    self.cwnd = (self.cwnd + incr).min(self.cfg.max_cwnd);
                }
            }

            if seq_lt(self.snd_una, self.snd_nxt) {
                self.arm_rto(now);
            } else {
                self.cancel_rto_if_idle();
            }
            self.try_transmit(now);
        } else if ack == self.snd_una
            && seq_lt(self.snd_una, self.snd_nxt)
            && !has_payload
            && !hdr.flags.contains(TcpFlags::SYN)
            && !hdr.flags.contains(TcpFlags::FIN)
        {
            // Potential duplicate ACK (only meaningful while data is
            // outstanding and the segment carries no data).
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                self.stats.fast_retransmits += 1;
                if self.cfg.congestion_control {
                    let flight = seq_len(self.snd_una, self.snd_nxt);
                    self.ssthresh = (flight / 2).max(2 * self.cfg.mss);
                    self.cwnd = self.ssthresh;
                }
                self.rtt_probe = None;
                self.retransmit_head(now);
                self.arm_rto(now);
            }
        }
    }

    fn process_payload(&mut self, now: Time, hdr: &TcpHeader, payload: Bytes) {
        let had_fin = hdr.flags.contains(TcpFlags::FIN);
        if payload.is_empty() && !had_fin {
            return; // pure ACK
        }
        let seg_seq = hdr.seq;
        if had_fin {
            let fin_seq = seq_add(seg_seq, payload.len());
            self.peer_fin_seq = Some(fin_seq);
        }
        if !payload.is_empty() {
            if seq_le(seq_add(seg_seq, payload.len()), self.rcv_nxt) {
                // Entirely old data: re-ACK so the peer advances.
                self.send_ack();
            } else if seq_gt(seg_seq, self.rcv_nxt) {
                // Future data: buffer and send a duplicate ACK immediately
                // (this is what triggers fast retransmit at the peer).
                self.stats.ooo_segments += 1;
                self.ooo.insert(seg_seq, payload);
                self.send_ack();
            } else {
                // In order (possibly with an old prefix): deliver.
                let skip = seq_len(seg_seq, self.rcv_nxt) as usize;
                let fresh = payload.slice(skip.min(payload.len())..);
                self.deliver(fresh);
                self.drain_ooo();
                self.ack_in_order(now);
            }
        }
        self.maybe_process_fin(now);
    }

    /// Delivers in-order bytes to the application.
    fn deliver(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.rcv_nxt = seq_add(self.rcv_nxt, data.len());
        self.stats.bytes_delivered += data.len() as u64;
        self.events.push(ConnEvent::Data(data));
    }

    /// Pulls any now-in-order segments out of the reassembly buffer.
    fn drain_ooo(&mut self) {
        loop {
            // Find a buffered segment that starts at or before rcv_nxt.
            let key = self.ooo.keys().copied().find(|&s| seq_le(s, self.rcv_nxt));
            let Some(seq) = key else { break };
            let data = self.ooo.remove(&seq).expect("key from iteration");
            let end = seq_add(seq, data.len());
            if seq_le(end, self.rcv_nxt) {
                continue; // fully duplicate
            }
            let skip = seq_len(seq, self.rcv_nxt) as usize;
            self.deliver(data.slice(skip..));
        }
    }

    /// ACK generation for in-order data, honoring delayed ACKs.
    fn ack_in_order(&mut self, now: Time) {
        match self.cfg.delayed_ack {
            DelayedAck::Disabled => self.send_ack(),
            DelayedAck::Enabled { max_delay } => {
                self.delack_held += 1;
                if self.delack_held >= 2 {
                    self.stats.acks_delayed += 1;
                    self.send_ack();
                } else {
                    self.timer_reqs
                        .push(TimerRequest::Arm(TimerKind::DelAck, now + max_delay));
                }
            }
        }
    }

    fn maybe_process_fin(&mut self, now: Time) {
        let Some(fin_seq) = self.peer_fin_seq else {
            return;
        };
        if self.rcv_nxt != fin_seq {
            return; // data before the FIN still missing
        }
        self.rcv_nxt = fin_seq.wrapping_add(1);
        self.peer_fin_seq = None;
        self.send_ack();
        match self.state {
            ConnState::Established => {
                self.state = ConnState::CloseWait;
                // Announce the peer's close; applications in this workspace
                // respond by closing their side, which sends our FIN.
                self.events.push(ConnEvent::Closed);
            }
            ConnState::FinWait1 => {
                // Peer's FIN arrived before the ACK of ours: simultaneous.
                self.state = ConnState::Closing;
            }
            ConnState::FinWait2 => {
                self.enter_closed();
            }
            _ => {}
        }
        let _ = now;
    }

    fn on_fin_acked(&mut self) {
        match self.state {
            ConnState::FinWait1 => self.state = ConnState::FinWait2,
            ConnState::LastAck | ConnState::Closing => self.enter_closed(),
            _ => {}
        }
    }

    fn enter_closed(&mut self) {
        if self.state != ConnState::Closed {
            // Entering CloseWait announced Closed to the app when the peer's
            // FIN arrived; neither it nor LastAck (after it) announces again,
            // whether the close completes, a RST arrives or the RTO aborts.
            let already_announced = matches!(self.state, ConnState::CloseWait | ConnState::LastAck);
            self.state = ConnState::Closed;
            self.timer_reqs.push(TimerRequest::Cancel(TimerKind::Rto));
            self.timer_reqs
                .push(TimerRequest::Cancel(TimerKind::DelAck));
            self.timer_reqs.push(TimerRequest::Cancel(TimerKind::Pace));
            if !already_announced {
                self.events.push(ConnEvent::Closed);
            }
        }
    }

    // ---------------------------------------------------------------- transmission

    /// Sends as much as the windows (and pacing) allow.
    fn try_transmit(&mut self, now: Time) {
        if !matches!(
            self.state,
            ConnState::Established
                | ConnState::CloseWait
                | ConnState::FinWait1
                | ConnState::LastAck
        ) {
            // Handshake in progress: data waits in the queue. FIN states where
            // everything is already out need no action either.
            if self.state != ConnState::SynSent && self.state != ConnState::SynRcvd {
                self.maybe_send_fin(now);
            }
            return;
        }
        let mss = self.cfg.mss as usize;
        loop {
            if self.unsent() == 0 {
                break;
            }
            let wnd = self.cwnd.min(self.peer_window.max(self.cfg.mss));
            let flight = seq_len(self.snd_una, self.snd_nxt);
            if flight >= wnd {
                break;
            }
            if let Pacing::Enabled { min_gap } = self.cfg.pacing {
                if now < self.next_pace_at {
                    self.timer_reqs
                        .push(TimerRequest::Arm(TimerKind::Pace, self.next_pace_at));
                    break;
                }
                self.next_pace_at = now + min_gap;
            }
            let room = (wnd - flight) as usize;
            let take = mss.min(self.unsent()).min(room);
            if take == 0 {
                break;
            }
            let seq = self.snd_nxt;
            self.snd_nxt = seq_add(self.snd_nxt, take);
            self.sent += take;
            self.stats.segments_sent += 1;
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            // Data segments always carry the current ACK; this cancels any
            // pending delayed ACK.
            self.flush_delack_state();
            self.emit(seq, self.rcv_nxt, TcpFlags::ACK | TcpFlags::PSH, take);
            self.arm_rto(now);
        }
        self.maybe_send_fin(now);
    }

    fn maybe_send_fin(&mut self, now: Time) {
        if !self.fin_queued || self.fin_seq.is_some() || self.unsent() > 0 {
            return;
        }
        if !matches!(self.state, ConnState::Established | ConnState::CloseWait) {
            return;
        }
        let seq = self.snd_nxt;
        self.fin_seq = Some(seq);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.emit(seq, self.rcv_nxt, TcpFlags::FIN | TcpFlags::ACK, 0);
        self.state = match self.state {
            ConnState::Established => ConnState::FinWait1,
            ConnState::CloseWait => ConnState::LastAck,
            s => s,
        };
        self.arm_rto(now);
    }

    /// Retransmits one segment starting at `snd_una` (go-back-N restart).
    fn retransmit_head(&mut self, now: Time) {
        match self.state {
            ConnState::SynSent => {
                self.emit(self.iss, 0, TcpFlags::SYN, 0);
                self.stats.retransmits += 1;
                return;
            }
            ConnState::SynRcvd => {
                self.emit(self.iss, self.rcv_nxt, TcpFlags::SYN | TcpFlags::ACK, 0);
                self.stats.retransmits += 1;
                return;
            }
            ConnState::Closed => return,
            _ => {}
        }
        if self.sent > 0 {
            let take = (self.cfg.mss as usize).min(self.sent);
            self.stats.retransmits += 1;
            self.emit(
                self.snd_una,
                self.rcv_nxt,
                TcpFlags::ACK | TcpFlags::PSH,
                take,
            );
        } else if let Some(fin_seq) = self.fin_seq {
            if seq_le(self.snd_una, fin_seq) {
                self.stats.retransmits += 1;
                self.emit(fin_seq, self.rcv_nxt, TcpFlags::FIN | TcpFlags::ACK, 0);
            }
        }
        let _ = now;
    }

    // ---------------------------------------------------------------- helpers

    fn send_ack(&mut self) {
        self.flush_delack_state();
        self.stats.acks_sent += 1;
        self.emit(self.snd_nxt, self.rcv_nxt, TcpFlags::ACK, 0);
    }

    fn flush_delack_state(&mut self) {
        if self.delack_held > 0 {
            self.delack_held = 0;
            self.timer_reqs
                .push(TimerRequest::Cancel(TimerKind::DelAck));
        }
    }

    fn emit(&mut self, seq: u32, ack: u32, flags: TcpFlags, len: usize) {
        self.out.push(SegmentOut {
            seq,
            ack,
            flags,
            window: u16::try_from(self.cfg.recv_window).unwrap_or(u16::MAX),
            len,
        });
    }

    fn arm_rto(&mut self, now: Time) {
        self.timer_reqs
            .push(TimerRequest::Arm(TimerKind::Rto, now + self.rtt.rto()));
    }

    fn cancel_rto_if_idle(&mut self) {
        if self.snd_una == self.snd_nxt {
            self.timer_reqs.push(TimerRequest::Cancel(TimerKind::Rto));
        }
    }
}
