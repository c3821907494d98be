//! Connection identification: the layer-4 four-tuple.

use std::net::Ipv4Addr;

use crate::ipv4::{Ipv4Header, IPPROTO_TCP, IPV4_HEADER_LEN};
use crate::tcp::TcpHeader;
use crate::{ParseError, Result, ETH_HEADER_LEN};

/// A TCP connection four-tuple as seen in one direction
/// (source → destination).
///
/// Keys order by their fields in declaration order — `src_ip`, `dst_ip`,
/// `src_port`, `dst_port`, addresses compared as numbers (which is their
/// octet order) — as a derived `Ord` would, but in one integer compare.
/// The LB's flow table depends on this order: it journals re-pins in key
/// order and its capacity eviction probes a key-ordered window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
}

impl FlowKey {
    /// Builds a key from addresses and ports.
    pub fn new(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
        }
    }

    /// The key for traffic flowing in the opposite direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// Fast-path extraction of the four-tuple from a full frame
    /// (Ethernet + IPv4 + TCP), *without* checksum verification — this is
    /// what a high-speed LB does per packet.
    pub fn parse(frame: &[u8]) -> Result<FlowKey> {
        let need = ETH_HEADER_LEN + IPV4_HEADER_LEN + 4;
        if frame.len() < need {
            return Err(ParseError::Truncated {
                needed: need,
                available: frame.len(),
            });
        }
        let ip = &frame[ETH_HEADER_LEN..];
        if ip[0] >> 4 != 4 {
            return Err(ParseError::Unsupported {
                field: "ip version",
                value: (ip[0] >> 4) as u32,
            });
        }
        if ip[9] != IPPROTO_TCP {
            return Err(ParseError::Unsupported {
                field: "ip protocol",
                value: ip[9] as u32,
            });
        }
        let tcp = &ip[IPV4_HEADER_LEN..];
        Ok(FlowKey {
            src_ip: Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]),
            dst_ip: Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]),
            src_port: u16::from_be_bytes([tcp[0], tcp[1]]),
            dst_port: u16::from_be_bytes([tcp[2], tcp[3]]),
        })
    }

    /// Fast-path extraction of the four-tuple *and* TCP flags, the two
    /// things an LB needs per packet. Like [`FlowKey::parse`], skips
    /// checksum verification.
    pub fn parse_with_flags(frame: &[u8]) -> Result<(FlowKey, crate::tcp::TcpFlags)> {
        let key = Self::parse(frame)?;
        let flags_off = ETH_HEADER_LEN + IPV4_HEADER_LEN + 13;
        if frame.len() <= flags_off {
            return Err(ParseError::Truncated {
                needed: flags_off + 1,
                available: frame.len(),
            });
        }
        Ok((key, crate::tcp::TcpFlags(frame[flags_off])))
    }

    /// Builds a key from already-parsed headers.
    pub fn from_headers(ip: &Ipv4Header, tcp: &TcpHeader) -> FlowKey {
        FlowKey {
            src_ip: ip.src,
            dst_ip: ip.dst,
            src_port: tcp.src_port,
            dst_port: tcp.dst_port,
        }
    }

    /// The tuple packed into one integer whose numeric order is the
    /// field order `(src_ip, dst_ip, src_port, dst_port)`.
    fn packed(&self) -> u128 {
        u128::from(u32::from(self.src_ip)) << 64
            | u128::from(u32::from(self.dst_ip)) << 32
            | u128::from(self.src_port) << 16
            | u128::from(self.dst_port)
    }

    /// A stable 64-bit hash of the tuple, used as input to consistent
    /// hashing. This is a xorshift-multiply mix (splitmix64 finalizer) over
    /// the packed tuple — deterministic across runs and platforms.
    pub fn stable_hash(&self) -> u64 {
        let src: u32 = self.src_ip.into();
        let dst: u32 = self.dst_ip.into();
        let packed = (u64::from(src) << 32 | u64::from(dst))
            ^ (u64::from(self.src_port) << 16 | u64::from(self.dst_port)) << 1;
        splitmix64(packed)
    }
}

impl Ord for FlowKey {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.packed().cmp(&other.packed())
    }
}

impl PartialOrd for FlowKey {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl core::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// The splitmix64 finalizer: a strong, cheap 64-bit mixing function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u8, pa: u16, b: u8, pb: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, a),
            pa,
            Ipv4Addr::new(10, 0, 1, b),
            pb,
        )
    }

    #[test]
    fn reversed_is_involution() {
        let k = key(1, 4000, 2, 80);
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn stable_hash_differs_across_tuples() {
        let a = key(1, 4000, 2, 80).stable_hash();
        let b = key(1, 4001, 2, 80).stable_hash();
        let c = key(2, 4000, 2, 80).stable_hash();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn stable_hash_is_deterministic() {
        let k = key(9, 1234, 7, 11211);
        assert_eq!(k.stable_hash(), k.stable_hash());
    }

    #[test]
    fn display_format() {
        assert_eq!(
            key(1, 4000, 2, 80).to_string(),
            "10.0.0.1:4000 -> 10.0.1.2:80"
        );
    }
}
