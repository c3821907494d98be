//! UDP header parsing and emission (RFC 768).
//!
//! The simulator's application traffic is TCP; UDP exists for *cross
//! traffic* — background flows that congest links without participating
//! in any connection state (and, in robustness tests, junk traffic that
//! the LB must shrug off cheaply).

use bytes::{BufMut, BytesMut};

use crate::eth::{EthHeader, ETHERTYPE_IPV4, ETH_HEADER_LEN};
use crate::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use crate::packet::{Addresses, Packet};
use crate::pool::BufferPool;
use crate::{ParseError, Result};

/// Length of a UDP header, in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// IP protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header + payload, in bytes.
    pub length: u16,
}

impl UdpHeader {
    /// Parses the header from the front of `buf`. If `ip` is given, the
    /// checksum is verified (a zero checksum means "not computed" per
    /// RFC 768 and always passes).
    pub fn parse(buf: &[u8], ip: Option<(&Ipv4Header, &[u8])>) -> Result<Self> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: UDP_HEADER_LEN,
                available: buf.len(),
            });
        }
        let wire_checksum = u16::from_be_bytes([buf[6], buf[7]]);
        if wire_checksum != 0 {
            if let Some((ip_hdr, l4)) = ip {
                let mut ck = ip_hdr.pseudo_header_checksum(l4.len() as u16);
                ck.add_bytes(l4);
                if ck.finish() != 0 {
                    return Err(ParseError::BadChecksum { layer: "udp" });
                }
            }
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
        })
    }

    /// Appends the header to `out` with a zero checksum placeholder; call
    /// [`fill_checksum`] after appending the payload.
    pub fn emit(&self, out: &mut BytesMut) {
        out.put_u16(self.src_port);
        out.put_u16(self.dst_port);
        out.put_u16(self.length);
        out.put_u16(0);
    }

    /// Writes the header with a zero checksum into the first
    /// [`UDP_HEADER_LEN`] bytes of `out`: what [`Self::emit`] appends.
    pub(crate) fn write(&self, out: &mut [u8]) {
        let out = &mut out[..UDP_HEADER_LEN];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&self.length.to_be_bytes());
        out[6..8].copy_from_slice(&[0, 0]);
    }
}

/// Computes and writes the UDP checksum for a serialized datagram
/// (`buf[udp_start..]` = header + payload). A computed value of zero is
/// transmitted as 0xFFFF per RFC 768.
pub fn fill_checksum(buf: &mut [u8], udp_start: usize, ip: &Ipv4Header) {
    let seg_len = buf.len() - udp_start;
    buf[udp_start + 6] = 0;
    buf[udp_start + 7] = 0;
    let mut ck = ip.pseudo_header_checksum(seg_len as u16);
    ck.add_bytes(&buf[udp_start..]);
    let mut ck = ck.finish();
    if ck == 0 {
        ck = 0xffff;
    }
    buf[udp_start + 6..udp_start + 8].copy_from_slice(&ck.to_be_bytes());
}

/// Builds a full UDP/IPv4 frame carrying `payload_len` zero bytes — the
/// cross-traffic packet factory (contents are irrelevant; only wire
/// length matters for congestion). Allocates its buffer; a node that
/// sends many uses [`build_udp_pooled`].
pub fn build_udp(
    addrs: Addresses,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    ident: u16,
) -> Packet {
    let buf = BytesMut::with_capacity(frame_len(payload_len));
    build_udp_zeroed(buf, addrs, src_port, dst_port, payload_len, ident)
}

/// [`build_udp`] drawing its buffer from a [`BufferPool`]: the payload is
/// zero-filled in place, so a datagram costs no allocation once the pool
/// is warm — whatever the recycled buffer last held.
pub fn build_udp_pooled(
    addrs: Addresses,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    ident: u16,
    pool: &mut BufferPool,
) -> Packet {
    let buf = pool.take(frame_len(payload_len));
    build_udp_zeroed(buf, addrs, src_port, dst_port, payload_len, ident)
}

/// Builds a full UDP/IPv4 frame carrying `payload` — the general datagram
/// factory (used by out-of-band reporting agents, among others).
pub fn build_udp_payload(
    addrs: Addresses,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    ident: u16,
) -> Packet {
    let mut buf = BytesMut::with_capacity(frame_len(payload.len()));
    let ip = emit_headers(&mut buf, addrs, src_port, dst_port, payload.len(), ident);
    buf.extend_from_slice(payload);
    finish(buf, &ip)
}

fn frame_len(payload_len: usize) -> usize {
    ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + payload_len
}

fn build_udp_zeroed(
    mut buf: BytesMut,
    addrs: Addresses,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    ident: u16,
) -> Packet {
    let ip = emit_headers(&mut buf, addrs, src_port, dst_port, payload_len, ident);
    buf.resize(frame_len(payload_len), 0);
    finish(buf, &ip)
}

/// Appends the Ethernet, IPv4 and UDP headers of a datagram with a
/// `payload_len`-byte payload to the (empty) `buf`, in one piece.
fn emit_headers(
    buf: &mut BytesMut,
    addrs: Addresses,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    ident: u16,
) -> Ipv4Header {
    let Addresses {
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
    } = addrs;
    let udp_len = UDP_HEADER_LEN + payload_len;
    let mut hdr = [0u8; ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN];
    EthHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: ETHERTYPE_IPV4,
    }
    .write(&mut hdr);
    let ip = Ipv4Header {
        dscp_ecn: 0,
        total_len: (IPV4_HEADER_LEN + udp_len) as u16,
        ident,
        ttl: 64,
        protocol: IPPROTO_UDP,
        src: src_ip,
        dst: dst_ip,
    };
    ip.write(&mut hdr[ETH_HEADER_LEN..]);
    UdpHeader {
        src_port,
        dst_port,
        length: udp_len as u16,
    }
    .write(&mut hdr[ETH_HEADER_LEN + IPV4_HEADER_LEN..]);
    buf.extend_from_slice(&hdr);
    ip
}

fn finish(mut frame: BytesMut, ip: &Ipv4Header) -> Packet {
    fill_checksum(&mut frame, ETH_HEADER_LEN + IPV4_HEADER_LEN, ip);
    Packet::from_bytes(frame.freeze())
}

/// Splits a UDP/IPv4 frame into its parsed headers and payload, verifying
/// checksums. Errors on anything that is not well-formed UDP.
pub fn parse_udp(frame: &[u8]) -> Result<(Ipv4Header, UdpHeader, &[u8])> {
    let ip = Ipv4Header::parse(frame.get(ETH_HEADER_LEN..).unwrap_or(&[]))?;
    if ip.protocol != IPPROTO_UDP {
        return Err(ParseError::Unsupported {
            field: "ip protocol",
            value: ip.protocol as u32,
        });
    }
    let l4_start = ETH_HEADER_LEN + IPV4_HEADER_LEN;
    let l4_end = ETH_HEADER_LEN + usize::from(ip.total_len);
    let l4 = frame.get(l4_start..l4_end.min(frame.len())).unwrap_or(&[]);
    let udp = UdpHeader::parse(l4, Some((&ip, l4)))?;
    let payload = &l4[UDP_HEADER_LEN..];
    Ok((ip, udp, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eth::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn roundtrip_with_checksum() {
        let pkt = build_udp(
            Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
            5000,
            6000,
            100,
            7,
        );
        assert_eq!(
            pkt.wire_len(),
            ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + 100
        );
        let ip = Ipv4Header::parse(&pkt.data[ETH_HEADER_LEN..]).unwrap();
        assert_eq!(ip.protocol, IPPROTO_UDP);
        let l4 = &pkt.data[ETH_HEADER_LEN + IPV4_HEADER_LEN..];
        let udp = UdpHeader::parse(l4, Some((&ip, l4))).unwrap();
        assert_eq!(udp.src_port, 5000);
        assert_eq!(udp.dst_port, 6000);
        assert_eq!(udp.length as usize, UDP_HEADER_LEN + 100);
    }

    #[test]
    fn pooled_build_over_a_dirty_buffer_equals_the_unpooled_frame() {
        let addrs = Addresses {
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        };
        let mut pool = BufferPool::default();
        // Park a longer, all-ones frame in the pool: the next take reuses
        // its buffer, stale bytes and all.
        let mut dirty = pool.take(2048);
        dirty.resize(2048, 0xff);
        let dirty_at = dirty.as_ptr();
        pool.recycle_bytes(dirty.freeze());
        for len in [0usize, 1, 100, 1400] {
            let pooled = build_udp_pooled(addrs, 5000, 6000, len, 7, &mut pool);
            assert_eq!(pooled.data.as_ptr(), dirty_at, "buffer not reused");
            let plain = build_udp(addrs, 5000, 6000, len, 7);
            assert_eq!(pooled.data, plain.data, "payload_len {len}");
            let (_, udp, payload) = parse_udp(&pooled.data).unwrap(); // checksum verifies
            assert_eq!(udp.length as usize, UDP_HEADER_LEN + len);
            assert!(payload.iter().all(|&b| b == 0));
            pool.recycle(pooled);
        }
        assert_eq!(pool.stats().misses, 1, "only the first take allocated");
    }

    #[test]
    fn corruption_detected() {
        let pkt = build_udp(
            Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
            1,
            2,
            16,
            0,
        );
        let mut bytes = pkt.data.to_vec();
        let payload_at = ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;
        bytes[payload_at] ^= 0xff;
        let ip = Ipv4Header::parse(&bytes[ETH_HEADER_LEN..]).unwrap();
        let l4 = &bytes[ETH_HEADER_LEN + IPV4_HEADER_LEN..];
        assert!(matches!(
            UdpHeader::parse(l4, Some((&ip, l4))).unwrap_err(),
            ParseError::BadChecksum { layer: "udp" }
        ));
    }

    #[test]
    fn payload_roundtrip_via_parse_udp() {
        let pkt = build_udp_payload(
            Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
            7000,
            8000,
            b"report-payload",
            3,
        );
        let (ip, udp, payload) = parse_udp(&pkt.data).unwrap();
        assert_eq!(ip.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(udp.dst_port, 8000);
        assert_eq!(payload, b"report-payload");
    }

    #[test]
    fn parse_udp_rejects_tcp() {
        let tcp = crate::Packet::build_tcp(
            Addresses {
                src_mac: MacAddr::from_id(1),
                dst_mac: MacAddr::from_id(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
            &crate::TcpHeader {
                src_port: 1,
                dst_port: 2,
                seq: 0,
                ack: 0,
                flags: crate::TcpFlags::ACK,
                window: 1,
            },
            b"",
            64,
            0,
        );
        assert!(parse_udp(&tcp.data).is_err());
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let mut raw = vec![0u8; UDP_HEADER_LEN];
        raw[1] = 10; // src port 10
        raw[3] = 20;
        raw[5] = 8;
        // checksum bytes stay zero
        let udp = UdpHeader::parse(&raw, None).unwrap();
        assert_eq!(udp.src_port, 10);
        assert_eq!(udp.dst_port, 20);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            UdpHeader::parse(&[0u8; 7], None).unwrap_err(),
            ParseError::Truncated { .. }
        ));
    }
}
