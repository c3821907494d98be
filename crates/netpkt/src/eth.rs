//! Ethernet II framing.

use bytes::{BufMut, BytesMut};

use crate::{ParseError, Result};

/// Length of an Ethernet II header (dst + src + ethertype), in bytes.
pub const ETH_HEADER_LEN: usize = 14;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally-administered address derived from a small integer id,
    /// convenient for assigning distinct MACs to simulated hosts.
    pub fn from_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns true if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// A parsed Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// EtherType of the encapsulated payload.
    pub ethertype: u16,
}

impl EthHeader {
    /// Parses the header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < ETH_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: ETH_HEADER_LEN,
                available: buf.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(EthHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: u16::from_be_bytes([buf[12], buf[13]]),
        })
    }

    /// Appends the header to `out`.
    pub fn emit(&self, out: &mut BytesMut) {
        out.put_slice(&self.dst.0);
        out.put_slice(&self.src.0);
        out.put_u16(self.ethertype);
    }

    /// Writes the header into the first [`ETH_HEADER_LEN`] bytes of
    /// `out`: what [`Self::emit`] appends, for the frame builders, which
    /// assemble all headers in one array and append them once.
    pub(crate) fn write(&self, out: &mut [u8]) {
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        out[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let hdr = EthHeader {
            dst: MacAddr::from_id(7),
            src: MacAddr::from_id(9),
            ethertype: ETHERTYPE_IPV4,
        };
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf);
        assert_eq!(buf.len(), ETH_HEADER_LEN);
        let parsed = EthHeader::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn truncated_rejected() {
        let err = EthHeader::parse(&[0u8; 13]).unwrap_err();
        assert!(matches!(
            err,
            ParseError::Truncated {
                needed: 14,
                available: 13
            }
        ));
    }

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr::from_id(0x0102_0304).to_string(),
            "02:00:01:02:03:04"
        );
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::from_id(1).is_broadcast());
    }
}
