//! IPv4 header parsing and emission (RFC 791, no options).

use bytes::{BufMut, BytesMut};
use std::net::Ipv4Addr;

use crate::checksum::Checksum;
use crate::{ParseError, Result};

/// Length of an IPv4 header without options, in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;

/// A parsed IPv4 header. Options are not supported (matching the simulator's
/// traffic, which never emits them) and are rejected at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / ToS byte.
    pub dscp_ecn: u8,
    /// Total length of the datagram (header + payload), in bytes.
    pub total_len: u16,
    /// Identification field (used only for operator debugging here; the
    /// simulator never fragments).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (e.g. [`IPPROTO_TCP`]).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Parses and validates the header from the front of `buf`, verifying
    /// the header checksum.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: IPV4_HEADER_LEN,
                available: buf.len(),
            });
        }
        let ver_ihl = buf[0];
        if ver_ihl >> 4 != 4 {
            return Err(ParseError::Unsupported {
                field: "ip version",
                value: u32::from(ver_ihl >> 4),
            });
        }
        let ihl = usize::from(ver_ihl & 0x0f) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(ParseError::Unsupported {
                field: "ipv4 options (ihl)",
                value: ihl as u32,
            });
        }
        if !crate::checksum::verify(&buf[..IPV4_HEADER_LEN]) {
            return Err(ParseError::BadChecksum { layer: "ipv4" });
        }
        Ok(Ipv4Header {
            dscp_ecn: buf[1],
            total_len: u16::from_be_bytes([buf[2], buf[3]]),
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            protocol: buf[9],
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        })
    }

    /// Appends the header (with a freshly computed checksum) to `out`.
    pub fn emit(&self, out: &mut BytesMut) {
        let start = out.len();
        out.put_u8(0x45); // version 4, IHL 5
        out.put_u8(self.dscp_ecn);
        out.put_u16(self.total_len);
        out.put_u16(self.ident);
        out.put_u16(0x4000); // flags: DF, fragment offset 0
        out.put_u8(self.ttl);
        out.put_u8(self.protocol);
        out.put_u16(0); // checksum placeholder
        out.put_slice(&self.src.octets());
        out.put_slice(&self.dst.octets());
        let ck = crate::checksum::checksum(&out[start..start + IPV4_HEADER_LEN]);
        out[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Writes the header, checksum included, into the first
    /// [`IPV4_HEADER_LEN`] bytes of `out`: what [`Self::emit`] appends.
    pub(crate) fn write(&self, out: &mut [u8]) {
        let out = &mut out[..IPV4_HEADER_LEN];
        out[0] = 0x45; // version 4, IHL 5
        out[1] = self.dscp_ecn;
        out[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        out[4..6].copy_from_slice(&self.ident.to_be_bytes());
        out[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // flags: DF, fragment offset 0
        out[8] = self.ttl;
        out[9] = self.protocol;
        out[10..12].copy_from_slice(&[0, 0]); // summed as zero
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let ck = crate::checksum::checksum(out);
        out[10..12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Computes the pseudo-header checksum contribution used by TCP/UDP.
    pub fn pseudo_header_checksum(&self, l4_len: u16) -> Checksum {
        let mut c = Checksum::new();
        c.add_bytes(&self.src.octets());
        c.add_bytes(&self.dst.octets());
        c.add_u16(u16::from(self.protocol));
        c.add_u16(l4_len);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: 40,
            ident: 0x1234,
            ttl: 64,
            protocol: IPPROTO_TCP,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn roundtrip() {
        let hdr = sample();
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf);
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[16] ^= 0x01; // flip a bit in dst
        assert!(matches!(
            Ipv4Header::parse(&bytes).unwrap_err(),
            ParseError::BadChecksum { layer: "ipv4" }
        ));
    }

    #[test]
    fn rejects_options() {
        let mut buf = BytesMut::new();
        sample().emit(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[0] = 0x46; // IHL 6 => 24-byte header
        assert!(matches!(
            Ipv4Header::parse(&bytes).unwrap_err(),
            ParseError::Unsupported {
                field: "ipv4 options (ihl)",
                ..
            }
        ));
    }

    #[test]
    fn rejects_ipv6_version() {
        let mut bytes = [0u8; IPV4_HEADER_LEN];
        bytes[0] = 0x65;
        assert!(matches!(
            Ipv4Header::parse(&bytes).unwrap_err(),
            ParseError::Unsupported {
                field: "ip version",
                value: 6
            }
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Ipv4Header::parse(&[0u8; 19]).unwrap_err(),
            ParseError::Truncated { .. }
        ));
    }
}
