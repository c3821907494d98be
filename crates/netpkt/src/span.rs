//! Trace-id derivation for causal span tracing.
//!
//! A trace id names one KV request for its whole life across the
//! simulated cluster. It is a pure function of (client IPv4, client
//! port, request id), so every layer — the issuing client, any LB on
//! the path, the serving backend, and the link layer peeking at frames
//! in flight — derives the *same* id independently, with no in-band
//! context header and no wire-byte perturbation.

use crate::eth::ETH_HEADER_LEN;
use crate::ipv4::IPV4_HEADER_LEN;
use crate::kv::{KV_HEADER_LEN, MAGIC_REQUEST, MAGIC_RESPONSE};
use crate::tcp::TCP_HEADER_LEN;

/// Derives the trace id of request `request_id` on the flow whose
/// client endpoint is `(client_ip, client_port)`. Never returns 0
/// (0 means "untraced" everywhere in the span tier).
pub fn trace_id(client_ip: u32, client_port: u16, request_id: u64) -> u64 {
    // splitmix64-style finalizer over the packed identity: cheap, and
    // its avalanche spreads consecutive request ids across the id space.
    let mut z = (u64::from(client_ip) << 16 | u64::from(client_port))
        .wrapping_add(request_id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// Derives the trace id carried by a serialized frame, or 0 when the
/// frame is not attributable to a single request at this hop.
///
/// Attribution requires a KV message header at the start of the TCP
/// payload: requests name the client via the *source* address,
/// responses via the *destination*. Pure ACKs, lifecycle segments, and
/// mid-message continuation segments yield 0 — they are traced at the
/// endpoints (whose TCP layer knows the request) rather than in flight.
/// No checksum verification happens here: the hot path has already
/// parsed the frame, and a corrupted frame is dropped by its receiver.
pub fn frame_trace_id(frame: &[u8]) -> u64 {
    const PAYLOAD_OFF: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;
    if frame.len() < PAYLOAD_OFF + KV_HEADER_LEN {
        return 0;
    }
    let ip = &frame[ETH_HEADER_LEN..];
    let tcp = &frame[ETH_HEADER_LEN + IPV4_HEADER_LEN..];
    let payload = &frame[PAYLOAD_OFF..];
    let (client_ip_bytes, client_port_bytes) = match payload[0] {
        MAGIC_REQUEST => (&ip[12..16], &tcp[0..2]),
        MAGIC_RESPONSE => (&ip[16..20], &tcp[2..4]),
        _ => return 0,
    };
    let client_ip = u32::from_be_bytes([
        client_ip_bytes[0],
        client_ip_bytes[1],
        client_ip_bytes[2],
        client_ip_bytes[3],
    ]);
    let client_port = u16::from_be_bytes([client_port_bytes[0], client_port_bytes[1]]);
    let request_id = u64::from_be_bytes([
        payload[4],
        payload[5],
        payload[6],
        payload[7],
        payload[8],
        payload[9],
        payload[10],
        payload[11],
    ]);
    trace_id(client_ip, client_port, request_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvMessage;
    use crate::{Addresses, MacAddr, Packet, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const VIP: Ipv4Addr = Ipv4Addr::new(10, 99, 0, 1);

    fn encoded(msg: &KvMessage) -> Vec<u8> {
        let mut bytes = Vec::new();
        msg.encode_into(&mut bytes);
        bytes
    }

    fn frame(src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16, payload: &[u8]) -> Packet {
        Packet::build_tcp(
            Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: src,
                dst_ip: dst,
            },
            &TcpHeader {
                src_port: sport,
                dst_port: dport,
                seq: 1,
                ack: 1,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 8192,
            },
            payload,
            64,
            0,
        )
    }

    #[test]
    fn trace_id_is_pure_and_nonzero() {
        let a = trace_id(0x0a00_0001, 40_000, 7);
        assert_eq!(a, trace_id(0x0a00_0001, 40_000, 7));
        assert_ne!(a, 0);
        assert_ne!(a, trace_id(0x0a00_0001, 40_000, 8));
        assert_ne!(a, trace_id(0x0a00_0001, 40_001, 7));
        assert_ne!(a, trace_id(0x0a00_0002, 40_000, 7));
        assert_ne!(trace_id(0, 0, 0), 0);
    }

    #[test]
    fn request_and_response_agree_on_the_trace() {
        let req = KvMessage::get(7, 0xdead_beef);
        let resp = KvMessage::response_to(&req, crate::kv::KvStatus::Ok, 3);
        let fwd = frame(CLIENT, VIP, 40_000, 11211, &encoded(&req));
        let rev = frame(VIP, CLIENT, 11211, 40_000, &encoded(&resp));
        let t = frame_trace_id(&fwd.data);
        assert_eq!(t, trace_id(u32::from(CLIENT), 40_000, 7));
        assert_eq!(
            frame_trace_id(&rev.data),
            t,
            "response maps to the same span"
        );
    }

    #[test]
    fn unattributable_frames_are_untraced() {
        // Pure ACK: payload too short for a KV header.
        let ack = frame(CLIENT, VIP, 40_000, 11211, b"");
        assert_eq!(frame_trace_id(&ack.data), 0);
        // Mid-message continuation: payload does not start with a magic.
        let mid = frame(CLIENT, VIP, 40_000, 11211, &[0u8; 32]);
        assert_eq!(frame_trace_id(&mid.data), 0);
        // Truncated garbage shorter than any frame.
        assert_eq!(frame_trace_id(&[0u8; 10]), 0);
    }

    #[test]
    fn sidecar_propagates_through_forwarding_copies() {
        let req = KvMessage::get(3, 9);
        let mut pkt = frame(CLIENT, VIP, 40_000, 11211, &encoded(&req));
        assert_eq!(pkt.span(), 0, "fresh frames are unstamped");
        pkt.set_span(frame_trace_id(&pkt.data));
        assert_ne!(pkt.span(), 0);
        let dsr = pkt.with_macs(MacAddr::from_id(9), MacAddr::from_id(10));
        assert_eq!(dsr.span(), pkt.span());
        let mut pool = crate::BufferPool::default();
        let pooled = pkt.with_macs_pooled(MacAddr::from_id(9), MacAddr::from_id(10), &mut pool);
        assert_eq!(pooled.span(), pkt.span());
        let nat = pkt.rewritten_dst(
            Ipv4Addr::new(10, 0, 2, 1),
            MacAddr::from_id(9),
            MacAddr::from_id(10),
            true,
        );
        assert_eq!(nat.span(), pkt.span());
        assert_eq!(pkt.clone().span(), pkt.span());
        // The sidecar never touches wire bytes.
        assert_eq!(dsr.data.len(), pkt.data.len());
    }
}
