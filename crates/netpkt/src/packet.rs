//! The simulator's unit of transmission: a fully serialized frame plus a
//! parsed view helper.

use bytes::{Bytes, BytesMut};
use std::net::Ipv4Addr;

use crate::eth::{EthHeader, MacAddr, ETHERTYPE_IPV4, ETH_HEADER_LEN};
use crate::ipv4::{Ipv4Header, IPPROTO_TCP, IPV4_HEADER_LEN};
use crate::pool::BufferPool;
use crate::tcp::{self, TcpHeader, TCP_HEADER_LEN};
use crate::{ParseError, Result};

/// L2 + L3 addressing of a frame to build: who sends it, who should
/// receive it. Groups what would otherwise be four leading positional
/// arguments on every packet factory.
#[derive(Debug, Clone, Copy)]
pub struct Addresses {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
}

/// A packet in flight: real wire bytes (Ethernet + IPv4 + TCP + payload).
///
/// Cloning is cheap ([`Bytes`] is reference-counted); the simulator clones
/// packets when tracing.
#[derive(Debug, Clone)]
pub struct Packet {
    /// The serialized frame.
    pub data: Bytes,
    /// Span-tracing sidecar: the trace id of the request this frame
    /// carries, or 0 when untraced. Metadata only — never serialized,
    /// never checksummed, invisible to [`Self::wire_len`] and the trace
    /// hash — so stamping it cannot perturb the packet schedule.
    span: u64,
}

impl Packet {
    /// Wraps raw frame bytes.
    pub fn from_bytes(data: Bytes) -> Self {
        Packet { data, span: 0 }
    }

    /// The span-tracing sidecar trace id (0 = untraced).
    #[inline]
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Stamps the span-tracing sidecar. Sidecar metadata only: wire
    /// bytes, checksums, and timing are unaffected.
    #[inline]
    pub fn set_span(&mut self, trace: u64) {
        self.span = trace;
    }

    /// Total frame length in bytes (what occupies link capacity).
    pub fn wire_len(&self) -> usize {
        self.data.len()
    }

    /// Builds a full TCP/IPv4 frame.
    pub fn build_tcp(
        addrs: Addresses,
        tcp_hdr: &TcpHeader,
        payload: &[u8],
        ttl: u8,
        ident: u16,
    ) -> Packet {
        let total = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN + payload.len();
        Self::build_tcp_into(
            BytesMut::with_capacity(total),
            addrs,
            tcp_hdr,
            (payload, &[]),
            ttl,
            ident,
        )
    }

    /// [`Self::build_tcp`] drawing its buffer from a [`BufferPool`] — the
    /// per-packet construction path of traffic endpoints, where pooling
    /// turns the frame allocation into a free-list hit.
    pub fn build_tcp_pooled(
        addrs: Addresses,
        tcp_hdr: &TcpHeader,
        payload: &[u8],
        ttl: u8,
        ident: u16,
        pool: &mut BufferPool,
    ) -> Packet {
        Self::build_tcp_pooled_parts(addrs, tcp_hdr, (payload, &[]), ttl, ident, pool)
    }

    /// [`Self::build_tcp_pooled`] for a payload that lies in two pieces —
    /// the two halves of a ring-buffered send queue — which are copied
    /// into the frame back to back, so the bytes move exactly once
    /// between the queue and the wire.
    pub fn build_tcp_pooled_parts(
        addrs: Addresses,
        tcp_hdr: &TcpHeader,
        payload: (&[u8], &[u8]),
        ttl: u8,
        ident: u16,
        pool: &mut BufferPool,
    ) -> Packet {
        let total =
            ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN + payload.0.len() + payload.1.len();
        Self::build_tcp_into(pool.take(total), addrs, tcp_hdr, payload, ttl, ident)
    }

    fn build_tcp_into(
        mut buf: BytesMut,
        addrs: Addresses,
        tcp_hdr: &TcpHeader,
        payload: (&[u8], &[u8]),
        ttl: u8,
        ident: u16,
    ) -> Packet {
        let Addresses {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
        } = addrs;
        // All three headers are assembled on the stack and appended in
        // one piece; `EthHeader::emit` and its siblings are the
        // field-by-field reference this is tested against.
        let mut hdr = [0u8; ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN];
        EthHeader {
            dst: dst_mac,
            src: src_mac,
            ethertype: ETHERTYPE_IPV4,
        }
        .write(&mut hdr);
        let ip = Ipv4Header {
            dscp_ecn: 0,
            total_len: (IPV4_HEADER_LEN + TCP_HEADER_LEN + payload.0.len() + payload.1.len())
                as u16,
            ident,
            ttl,
            protocol: IPPROTO_TCP,
            src: src_ip,
            dst: dst_ip,
        };
        ip.write(&mut hdr[ETH_HEADER_LEN..]);
        tcp_hdr.write(&mut hdr[ETH_HEADER_LEN + IPV4_HEADER_LEN..]);
        buf.extend_from_slice(&hdr);
        buf.extend_from_slice(payload.0);
        buf.extend_from_slice(payload.1);
        let mut bytes = buf;
        let tcp_start = ETH_HEADER_LEN + IPV4_HEADER_LEN;
        tcp::fill_checksum(&mut bytes, tcp_start, &ip);
        Packet {
            data: bytes.freeze(),
            span: 0,
        }
    }

    /// Returns a copy with only the Ethernet addresses rewritten — the
    /// forwarding operation of an L2/DSR load balancer: the VIP stays in
    /// the IP header (it lives on the backend's loopback), so the backend
    /// replies from the VIP directly to the client. No checksum work is
    /// needed because MACs are outside both checksums. The copy's buffer
    /// comes from `pool`: on the LB's per-packet forwarding path a fresh
    /// allocation per hop would be the dominant allocator cost.
    pub fn with_macs_pooled(
        &self,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        pool: &mut BufferPool,
    ) -> Packet {
        let mut bytes = pool.take(self.data.len());
        bytes.extend_from_slice(&self.data);
        bytes[0..6].copy_from_slice(&dst_mac.0);
        bytes[6..12].copy_from_slice(&src_mac.0);
        Packet {
            data: bytes.freeze(),
            span: self.span,
        }
    }
}

/// A borrowed, zero-copy parsed view of a TCP/IPv4 frame: headers are
/// decoded into fixed-size structs, the payload stays a slice into the
/// original frame. This is the one parse of a frame; a payload that
/// must outlive the borrow is a [`Bytes::slice`] of [`Packet::data`].
#[derive(Debug, Clone)]
pub struct PacketViewRef<'a> {
    /// Ethernet header.
    pub eth: EthHeader,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// TCP header.
    pub tcp: TcpHeader,
    /// TCP payload bytes, borrowed from the frame.
    pub payload: &'a [u8],
}

impl<'a> PacketViewRef<'a> {
    /// Parses a frame, verifying both checksums, without copying.
    pub fn parse(frame: &'a [u8]) -> Result<PacketViewRef<'a>> {
        let eth = EthHeader::parse(frame)?;
        let ip_bytes = &frame[ETH_HEADER_LEN..];
        let ip = Ipv4Header::parse(ip_bytes)?;
        // `total_len` comes off the wire: clamp it to the buffer and
        // reject values smaller than the IPv4 header so a malformed
        // frame cannot panic the slice below.
        let l4_end = usize::from(ip.total_len).min(ip_bytes.len());
        if l4_end < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: IPV4_HEADER_LEN,
                available: l4_end,
            });
        }
        let l4 = &ip_bytes[IPV4_HEADER_LEN..l4_end];
        let tcp = TcpHeader::parse(l4, Some((&ip, l4)))?;
        let payload_off = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN;
        let payload_len = l4.len() - TCP_HEADER_LEN;
        let payload = &frame[payload_off..payload_off + payload_len];
        Ok(PacketViewRef {
            eth,
            ip,
            tcp,
            payload,
        })
    }

    /// The four-tuple of this packet's direction of travel.
    pub fn flow(&self) -> crate::FlowKey {
        crate::FlowKey::from_headers(&self.ip, &self.tcp)
    }

    /// Length of the TCP payload in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    fn build_sample(payload: &[u8]) -> Packet {
        Packet::build_tcp(
            Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 9, 9),
            },
            &TcpHeader {
                src_port: 50000,
                dst_port: 11211,
                seq: 100,
                ack: 200,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 8192,
            },
            payload,
            64,
            42,
        )
    }

    #[test]
    fn build_and_parse_roundtrip() {
        let pkt = build_sample(b"set k 0 0 3\r\nabc\r\n");
        let view = PacketViewRef::parse(&pkt.data).unwrap();
        assert_eq!(view.ip.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(view.tcp.dst_port, 11211);
        assert_eq!(view.payload, b"set k 0 0 3\r\nabc\r\n");
        assert_eq!(view.payload_len(), 18);
    }

    #[test]
    fn two_part_payload_builds_the_same_frame_at_every_split() {
        let payload: Vec<u8> = (0..=40u8).collect();
        let (addrs, hdr) = (
            Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 9, 9),
            },
            TcpHeader {
                src_port: 50000,
                dst_port: 11211,
                seq: u32::MAX - 7,
                ack: 200,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: 8192,
            },
        );
        let mut pool = BufferPool::default();
        let whole = Packet::build_tcp_pooled(addrs, &hdr, &payload, 64, 42, &mut pool);
        assert_eq!(
            whole.data,
            Packet::build_tcp(addrs, &hdr, &payload, 64, 42).data
        );
        for cut in 0..=payload.len() {
            let parts = payload.split_at(cut);
            let split = Packet::build_tcp_pooled_parts(addrs, &hdr, parts, 64, 42, &mut pool);
            assert_eq!(split.data, whole.data, "split at {cut}");
            assert_eq!(
                PacketViewRef::parse(&split.data).unwrap().payload,
                &payload[..]
            );
            // Recycled so that later splits build over a dirty buffer.
            pool.recycle(split);
        }
    }

    #[test]
    fn wire_len_accounts_all_headers() {
        let pkt = build_sample(b"xyz");
        assert_eq!(
            pkt.wire_len(),
            ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN + 3
        );
    }

    #[test]
    fn with_macs_preserves_everything_else() {
        let pkt = build_sample(b"payload");
        let mut pool = BufferPool::default();
        let fwd = pkt.with_macs_pooled(MacAddr::from_id(9), MacAddr::from_id(10), &mut pool);
        let view = PacketViewRef::parse(&fwd.data).unwrap(); // checksums still verify
        assert_eq!(view.eth.src, MacAddr::from_id(9));
        assert_eq!(view.eth.dst, MacAddr::from_id(10));
        assert_eq!(
            view.ip.dst,
            Ipv4Addr::new(10, 0, 9, 9),
            "IP header untouched"
        );
        assert_eq!(view.payload, b"payload");
    }
}
