//! TCP header parsing and emission (RFC 793, no options).

use bytes::{BufMut, BytesMut};

use crate::ipv4::Ipv4Header;
use crate::{ParseError, Result};

/// Length of a TCP header without options, in bytes.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN: sender is done sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgment number is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// Returns true if every flag in `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns true if this is a pure SYN (no ACK).
    pub fn is_syn_only(self) -> bool {
        self.contains(TcpFlags::SYN) && !self.contains(TcpFlags::ACK)
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl core::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let names = [
            (TcpFlags::SYN, "S"),
            (TcpFlags::ACK, "A"),
            (TcpFlags::FIN, "F"),
            (TcpFlags::RST, "R"),
            (TcpFlags::PSH, "P"),
        ];
        for (flag, name) in names {
            if self.contains(flag) {
                f.write_str(name)?;
            }
        }
        Ok(())
    }
}

/// A parsed TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgment number (valid when ACK flag is set).
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window, in bytes (no window scaling in the simulator).
    pub window: u16,
}

impl TcpHeader {
    /// Parses the header from the front of `buf`. If `ip` is supplied the
    /// TCP checksum is verified against the pseudo-header; `l4` must then be
    /// the full TCP segment (header + payload).
    pub fn parse(buf: &[u8], ip: Option<(&Ipv4Header, &[u8])>) -> Result<Self> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: TCP_HEADER_LEN,
                available: buf.len(),
            });
        }
        let data_offset = usize::from(buf[12] >> 4) * 4;
        if data_offset != TCP_HEADER_LEN {
            return Err(ParseError::Unsupported {
                field: "tcp options (data offset)",
                value: data_offset as u32,
            });
        }
        if let Some((ip_hdr, l4)) = ip {
            let mut ck = ip_hdr.pseudo_header_checksum(l4.len() as u16);
            ck.add_bytes(l4);
            if ck.finish() != 0 {
                return Err(ParseError::BadChecksum { layer: "tcp" });
            }
        }
        Ok(TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
        })
    }

    /// Appends the header to `out` with a zero checksum; call
    /// [`fill_checksum`] after the payload is appended.
    pub fn emit(&self, out: &mut BytesMut) {
        out.put_u16(self.src_port);
        out.put_u16(self.dst_port);
        out.put_u32(self.seq);
        out.put_u32(self.ack);
        out.put_u8((TCP_HEADER_LEN as u8 / 4) << 4);
        out.put_u8(self.flags.0);
        out.put_u16(self.window);
        out.put_u16(0); // checksum, filled later
        out.put_u16(0); // urgent pointer
    }

    /// Writes the header with a zero checksum into the first
    /// [`TCP_HEADER_LEN`] bytes of `out`: what [`Self::emit`] appends.
    pub(crate) fn write(&self, out: &mut [u8]) {
        let out = &mut out[..TCP_HEADER_LEN];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = (TCP_HEADER_LEN as u8 / 4) << 4;
        out[13] = self.flags.0;
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..20].copy_from_slice(&[0; 4]); // checksum (filled later), urgent pointer
    }
}

/// Computes and writes the TCP checksum for a serialized segment.
///
/// `buf[tcp_start..]` must be the full TCP segment (header + payload) and
/// `ip` the IPv4 header it will be carried in.
pub fn fill_checksum(buf: &mut [u8], tcp_start: usize, ip: &Ipv4Header) {
    let seg_len = buf.len() - tcp_start;
    buf[tcp_start + 16] = 0;
    buf[tcp_start + 17] = 0;
    let mut ck = ip.pseudo_header_checksum(seg_len as u16);
    ck.add_bytes(&buf[tcp_start..]);
    let ck = ck.finish();
    buf[tcp_start + 16..tcp_start + 18].copy_from_slice(&ck.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip_for(len: u16) -> Ipv4Header {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: crate::IPV4_HEADER_LEN as u16 + len,
            ident: 0,
            ttl: 64,
            protocol: crate::IPPROTO_TCP,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
        }
    }

    #[test]
    fn roundtrip_with_checksum() {
        let hdr = TcpHeader {
            src_port: 40000,
            dst_port: 11211,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 65535,
        };
        let payload = b"get key_42\r\n";
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf);
        buf.put_slice(payload);
        let ip = ip_for(buf.len() as u16);
        let mut bytes = buf.to_vec();
        fill_checksum(&mut bytes, 0, &ip);
        let parsed = TcpHeader::parse(&bytes, Some((&ip, &bytes))).unwrap();
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let hdr = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 3,
            ack: 4,
            flags: TcpFlags::ACK,
            window: 1000,
        };
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf);
        buf.put_slice(b"hello");
        let ip = ip_for(buf.len() as u16);
        let mut bytes = buf.to_vec();
        fill_checksum(&mut bytes, 0, &ip);
        bytes[TCP_HEADER_LEN] ^= 0xff;
        assert!(matches!(
            TcpHeader::parse(&bytes, Some((&ip, &bytes))).unwrap_err(),
            ParseError::BadChecksum { layer: "tcp" }
        ));
    }

    #[test]
    fn flags_display_and_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert!(!f.is_syn_only());
        assert!(TcpFlags::SYN.is_syn_only());
        assert_eq!(f.to_string(), "SA");
    }

    #[test]
    fn rejects_options() {
        let mut bytes = [0u8; TCP_HEADER_LEN];
        bytes[12] = 6 << 4; // data offset 24 bytes
        assert!(matches!(
            TcpHeader::parse(&bytes, None).unwrap_err(),
            ParseError::Unsupported { .. }
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            TcpHeader::parse(&[0u8; 10], None).unwrap_err(),
            ParseError::Truncated {
                needed: 20,
                available: 10
            }
        ));
    }
}
