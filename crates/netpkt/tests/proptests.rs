//! Property-based tests for the wire formats.

use bytes::BytesMut;
use proptest::prelude::*;
use std::net::Ipv4Addr;

use netpkt::checksum::{checksum, Checksum};
use netpkt::kv::{KvDecoder, KvMessage};
use netpkt::{
    Addresses, BufferPool, EthHeader, FlowKey, Ipv4Header, MacAddr, Packet, PacketViewRef,
    TcpFlags, TcpHeader, UdpHeader, ETHERTYPE_IPV4, ETH_HEADER_LEN, IPPROTO_TCP, IPPROTO_UDP,
    IPV4_HEADER_LEN, TCP_HEADER_LEN, UDP_HEADER_LEN,
};

/// The largest TCP payload one Ethernet frame carries (1500 − 40); the
/// transport's `nettcp::MSS` is below it.
const MAX_MSS: usize = 1460;

fn arb_addrs() -> impl Strategy<Value = Addresses> {
    (arb_mac(), arb_mac(), arb_ip(), arb_ip()).prop_map(|(src_mac, dst_mac, src_ip, dst_ip)| {
        Addresses {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
        }
    })
}

/// The Ethernet and IPv4 headers of a frame as the field-by-field `emit`
/// reference writes them.
fn emit_eth_ipv4(addrs: Addresses, ip: &Ipv4Header) -> BytesMut {
    let mut frame = BytesMut::new();
    EthHeader {
        dst: addrs.dst_mac,
        src: addrs.src_mac,
        ethertype: ETHERTYPE_IPV4,
    }
    .emit(&mut frame);
    ip.emit(&mut frame);
    frame
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    // Any combination of the five defined flag bits.
    (0u8..32).prop_map(|b| TcpFlags(b & 0x1f))
}

proptest! {
    #[test]
    fn eth_roundtrip(dst in arb_mac(), src in arb_mac(), ethertype in any::<u16>()) {
        let hdr = EthHeader { dst, src, ethertype };
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf);
        prop_assert_eq!(EthHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn ipv4_roundtrip(
        src in arb_ip(),
        dst in arb_ip(),
        total_len in 20u16..1500,
        ident in any::<u16>(),
        ttl in 1u8..=255,
    ) {
        let hdr = Ipv4Header {
            dscp_ecn: 0,
            total_len,
            ident,
            ttl,
            protocol: IPPROTO_TCP,
            src,
            dst,
        };
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf);
        prop_assert_eq!(Ipv4Header::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn ipv4_single_bitflip_detected(
        src in arb_ip(),
        dst in arb_ip(),
        byte in 0usize..IPV4_HEADER_LEN,
        bit in 0u8..8,
    ) {
        let hdr = Ipv4Header {
            dscp_ecn: 0, total_len: 40, ident: 7, ttl: 64,
            protocol: IPPROTO_TCP, src, dst,
        };
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[byte] ^= 1 << bit;
        // Either the parse fails (checksum/shape) or — impossible for a
        // single flip in a one's-complement sum — it yields the original.
        if let Ok(parsed) = Ipv4Header::parse(&bytes) {
            prop_assert_ne!(parsed, hdr, "flip at {}:{} went unnoticed", byte, bit);
        }
    }

    #[test]
    fn tcp_roundtrip_with_payload(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in arb_flags(),
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let pkt = Packet::build_tcp(
            netpkt::Addresses { src_mac: MacAddr::from_id(1), dst_mac: MacAddr::from_id(2), src_ip: Ipv4Addr::new(10, 0, 0, 1), dst_ip: Ipv4Addr::new(10, 0, 0, 2) },
            &TcpHeader { src_port, dst_port, seq, ack, flags, window },
            &payload,
            64,
            1,
        );
        let view = PacketViewRef::parse(&pkt.data).unwrap();
        prop_assert_eq!(view.tcp.src_port, src_port);
        prop_assert_eq!(view.tcp.dst_port, dst_port);
        prop_assert_eq!(view.tcp.seq, seq);
        prop_assert_eq!(view.tcp.ack, ack);
        prop_assert_eq!(view.tcp.flags, flags);
        prop_assert_eq!(view.payload, &payload[..]);
        prop_assert_eq!(pkt.wire_len(), 14 + IPV4_HEADER_LEN + TCP_HEADER_LEN + payload.len());
    }

    #[test]
    fn tcp_frame_is_the_emit_built_one_at_every_payload_split(
        addrs in arb_addrs(),
        ports in (any::<u16>(), any::<u16>()),
        seq_ack in (any::<u32>(), any::<u32>()),
        flags_window in (arb_flags(), any::<u16>()),
        ident_ttl in (any::<u16>(), any::<u8>()),
        payload in proptest::collection::vec(any::<u8>(), 0..2 * MAX_MSS + 1),
    ) {
        let hdr = TcpHeader {
            src_port: ports.0,
            dst_port: ports.1,
            seq: seq_ack.0,
            ack: seq_ack.1,
            flags: flags_window.0,
            window: flags_window.1,
        };
        let (ident, ttl) = ident_ttl;
        let ip = Ipv4Header {
            dscp_ecn: 0,
            total_len: (IPV4_HEADER_LEN + TCP_HEADER_LEN + payload.len()) as u16,
            ident,
            ttl,
            protocol: IPPROTO_TCP,
            src: addrs.src_ip,
            dst: addrs.dst_ip,
        };
        let mut reference = emit_eth_ipv4(addrs, &ip);
        hdr.emit(&mut reference);
        reference.extend_from_slice(&payload);
        netpkt::tcp::fill_checksum(&mut reference, ETH_HEADER_LEN + IPV4_HEADER_LEN, &ip);

        prop_assert_eq!(&Packet::build_tcp(addrs, &hdr, &payload, ttl, ident).data[..], &reference[..]);
        // Recycling makes every later frame build over a dirty buffer.
        let mut pool = BufferPool::default();
        for cut in 0..=payload.len() {
            let parts = payload.split_at(cut);
            let pkt = Packet::build_tcp_pooled_parts(addrs, &hdr, parts, ttl, ident, &mut pool);
            prop_assert_eq!(&pkt.data[..], &reference[..], "payload split at {}", cut);
            pool.recycle(pkt);
        }
    }

    #[test]
    fn udp_frame_is_the_emit_built_one(
        addrs in arb_addrs(),
        ports in (any::<u16>(), any::<u16>()),
        ident in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1473),
    ) {
        let udp_len = UDP_HEADER_LEN + payload.len();
        let ip = Ipv4Header {
            dscp_ecn: 0,
            total_len: (IPV4_HEADER_LEN + udp_len) as u16,
            ident,
            ttl: 64,
            protocol: IPPROTO_UDP,
            src: addrs.src_ip,
            dst: addrs.dst_ip,
        };
        let udp = UdpHeader { src_port: ports.0, dst_port: ports.1, length: udp_len as u16 };
        let reference = |payload: &[u8]| {
            let mut frame = emit_eth_ipv4(addrs, &ip);
            udp.emit(&mut frame);
            frame.extend_from_slice(payload);
            netpkt::udp::fill_checksum(&mut frame, ETH_HEADER_LEN + IPV4_HEADER_LEN, &ip);
            frame
        };
        let built = netpkt::udp::build_udp_payload(addrs, ports.0, ports.1, &payload, ident);
        prop_assert_eq!(&built.data[..], &reference(&payload)[..]);
        // The zero-filled cross-traffic datagram, from a buffer that
        // last held the frame above.
        let mut pool = BufferPool::default();
        pool.recycle(built);
        let zeroed = netpkt::udp::build_udp_pooled(addrs, ports.0, ports.1, payload.len(), ident, &mut pool);
        prop_assert_eq!(&zeroed.data[..], &reference(&vec![0; payload.len()])[..]);
    }

    #[test]
    fn fast_parse_agrees_with_full_parse(
        src in arb_ip(),
        dst in arb_ip(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        flags in arb_flags(),
    ) {
        let pkt = Packet::build_tcp(
            netpkt::Addresses { src_mac: MacAddr::from_id(1), dst_mac: MacAddr::from_id(2), src_ip: src, dst_ip: dst },
            &TcpHeader { src_port: sport, dst_port: dport, seq: 0, ack: 0, flags, window: 1 },
            b"x",
            64,
            0,
        );
        let (key, fast_flags) = FlowKey::parse_with_flags(&pkt.data).unwrap();
        let view = PacketViewRef::parse(&pkt.data).unwrap();
        prop_assert_eq!(key, view.flow());
        prop_assert_eq!(fast_flags, view.tcp.flags);
    }

    #[test]
    fn mac_rewrite_never_corrupts(
        src in arb_ip(),
        dst in arb_ip(),
        m1 in arb_mac(),
        m2 in arb_mac(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        longer_by in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let tcp = TcpHeader { src_port: 1, dst_port: 2, seq: 3, ack: 4, flags: TcpFlags::ACK, window: 5 };
        let pkt = Packet::build_tcp(
            netpkt::Addresses { src_mac: MacAddr::from_id(1), dst_mac: MacAddr::from_id(2), src_ip: src, dst_ip: dst },
            &tcp,
            &payload,
            64,
            9,
        );
        // The pool's one free buffer last held a longer, different frame.
        let stale_payload: Vec<u8> = payload.iter().map(|b| !b).chain(longer_by).collect();
        let stale = Packet::build_tcp(
            netpkt::Addresses { src_mac: MacAddr::from_id(3), dst_mac: MacAddr::from_id(4), src_ip: dst, dst_ip: src },
            &tcp,
            &stale_payload,
            63,
            10,
        );
        let mut pool = BufferPool::default();
        pool.recycle(stale);
        let fwd = pkt.with_macs_pooled(m1, m2, &mut pool);
        prop_assert_eq!(pool.stats().hits, 1);
        // Every byte past the two MACs is the original frame's.
        prop_assert_eq!(&fwd.data[12..], &pkt.data[12..]);
        let view = PacketViewRef::parse(&fwd.data).unwrap(); // checksums must verify
        prop_assert_eq!(view.eth.src, m1);
        prop_assert_eq!(view.eth.dst, m2);
        prop_assert_eq!(view.ip.src, src);
        prop_assert_eq!(view.ip.dst, dst);
        prop_assert_eq!(view.payload, &payload[..]);
    }

    #[test]
    fn checksum_split_invariance(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        cut_a in 0usize..200,
        cut_b in 0usize..200,
    ) {
        let cut_a = cut_a.min(data.len());
        let cut_b = cut_b.min(data.len()).max(cut_a);
        let mut acc = Checksum::new();
        acc.add_bytes(&data[..cut_a]);
        acc.add_bytes(&data[cut_a..cut_b]);
        acc.add_bytes(&data[cut_b..]);
        prop_assert_eq!(acc.finish(), checksum(&data));
    }

    #[test]
    fn kv_stream_survives_arbitrary_fragmentation(
        msgs in proptest::collection::vec((any::<bool>(), any::<u64>(), any::<u64>(), 0u32..128), 1..8),
        cuts in proptest::collection::vec(1usize..64, 0..32),
    ) {
        let messages: Vec<KvMessage> = msgs
            .iter()
            .map(|&(get, id, key, len)| if get { KvMessage::get(id, key) } else { KvMessage::set(id, key, len) })
            .collect();
        // Split the stream at pseudo-random cut sizes.
        let cuts = if cuts.is_empty() { vec![7] } else { cuts };
        prop_assert_eq!(decode_fragmented(&messages, messages.len(), &cuts), Ok(()));
    }

    #[test]
    fn flow_key_hash_agrees_on_reversal_distinctness(
        src in arb_ip(), dst in arb_ip(), sport in any::<u16>(), dport in any::<u16>(),
    ) {
        let k = FlowKey::new(src, sport, dst, dport);
        prop_assert_eq!(k.reversed().reversed(), k);
        // Identical tuples hash identically (used as Maglev input).
        prop_assert_eq!(k.stable_hash(), FlowKey::new(src, sport, dst, dport).stable_hash());
    }
}

/// Streams `total` messages (cycling through `messages`) into a decoder in
/// pieces of the cycled `cuts` sizes and checks that they come out intact
/// and in order, that nothing is left over, and that the decoder's buffer
/// stays within twice the largest backlog it ever had to hold.
fn decode_fragmented(messages: &[KvMessage], total: usize, cuts: &[usize]) -> Result<(), String> {
    let mut dec = KvDecoder::new();
    let mut wire = Vec::new(); // encoded, not yet pushed
    let mut cut_iter = cuts.iter().cycle();
    let (mut encoded, mut decoded, mut max_backlog) = (0usize, 0usize, 0usize);
    while decoded < total {
        let take = *cut_iter.next().ok_or("no cut sizes")?;
        while wire.len() < take && encoded < total {
            messages[encoded % messages.len()].encode_into(&mut wire);
            encoded += 1;
        }
        let take = take.min(wire.len());
        dec.push(&wire[..take]);
        wire.drain(..take);
        max_backlog = max_backlog.max(dec.pending_bytes());
        while let Some(m) = dec.next_message().map_err(|e| e.to_string())? {
            if m != messages[decoded % messages.len()] {
                return Err(format!("message {decoded} came out as {m:?}"));
            }
            decoded += 1;
        }
        if dec.capacity() > (2 * max_backlog).max(8) {
            return Err(format!(
                "after {decoded} messages the decoder holds {} bytes for a backlog that never \
                 exceeded {max_backlog}",
                dec.capacity()
            ));
        }
    }
    if dec.pending_bytes() != 0 || !wire.is_empty() {
        return Err(format!(
            "{} bytes left over",
            dec.pending_bytes() + wire.len()
        ));
    }
    Ok(())
}

#[test]
fn kv_decoder_stays_bounded_over_a_long_misaligned_stream() {
    // 100 000 messages of four sizes, cut at sizes that share no factor
    // with any of them (and at one MSS, which spans many messages): the
    // read cursor must never let the buffer grow with the stream.
    let messages = [
        KvMessage::get(1, 10),
        KvMessage::set(2, 11, 64),
        KvMessage::response_to(&KvMessage::get(3, 12), netpkt::kv::KvStatus::Ok, 100),
        KvMessage::set(4, 13, 1),
    ];
    for cuts in [&[23usize][..], &[1, 61, 7], &[1400, 13], &[3, 1400, 89, 24]] {
        assert_eq!(
            decode_fragmented(&messages, 100_000, cuts),
            Ok(()),
            "{cuts:?}"
        );
    }
}

#[test]
fn ethertype_constant_sane() {
    assert_eq!(ETHERTYPE_IPV4, 0x0800);
}
