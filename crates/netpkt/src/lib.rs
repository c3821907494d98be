//! Wire formats for the in-band feedback-control load-balancer simulator.
//!
//! This crate implements the packet formats that flow through the simulated
//! network: Ethernet II frames, IPv4 headers (with checksums), TCP headers,
//! and a small memcached-like key-value application protocol used by the
//! workload generator.
//!
//! Design notes
//! ------------
//! * Parsing is zero-copy: header views borrow from a [`bytes::Bytes`]
//!   buffer. Emission writes into a [`bytes::BytesMut`]; per-packet
//!   builders draw it from a [`pool::BufferPool`], which recycles the
//!   whole handle, so building a frame does not allocate.
//! * All multi-byte fields are big-endian (network byte order), exactly as
//!   on the wire, so a captured buffer could be fed to a real protocol
//!   analyzer.
//! * The load balancer's hot path parses only as deep as it needs
//!   (IPv4 + TCP 4-tuple); see [`flow::FlowKey::parse`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checksum;
pub mod eth;
pub mod flow;
pub mod ipv4;
pub mod kv;
pub mod oob;
pub mod packet;
pub mod pool;
pub mod span;
pub mod tcp;
pub mod udp;

pub use eth::{EthHeader, MacAddr, ETHERTYPE_IPV4, ETH_HEADER_LEN};
pub use flow::FlowKey;
pub use ipv4::{Ipv4Header, IPPROTO_TCP, IPV4_HEADER_LEN};
pub use packet::{Addresses, Packet, PacketViewRef};
pub use pool::{BufferPool, PoolStats};
pub use span::{frame_trace_id, trace_id};
pub use tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
pub use udp::{UdpHeader, IPPROTO_UDP, UDP_HEADER_LEN};

/// Errors that can occur while parsing a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer ended before the full header (or declared length) was read.
    Truncated {
        /// Number of bytes that were needed.
        needed: usize,
        /// Number of bytes that were available.
        available: usize,
    },
    /// A version / protocol / magic field had an unsupported value.
    Unsupported {
        /// Human-readable name of the offending field.
        field: &'static str,
        /// The value found on the wire.
        value: u32,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Which header failed ("ipv4" or "tcp").
        layer: &'static str,
    },
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated packet: needed {needed} bytes, had {available}"
                )
            }
            ParseError::Unsupported { field, value } => {
                write!(f, "unsupported value {value:#x} for {field}")
            }
            ParseError::BadChecksum { layer } => write!(f, "bad {layer} checksum"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Result alias for parse operations.
pub type Result<T> = core::result::Result<T, ParseError>;
