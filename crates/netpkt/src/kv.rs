//! A compact memcached-like binary key-value protocol.
//!
//! This is the application protocol spoken between the workload generator
//! (memtier-like clients) and the backend servers. It is a binary framing
//! with a fixed 24-byte header followed by an optional value body, so a
//! stream decoder can frame messages without lookahead.
//!
//! ```text
//!  0      1     2      3         4            12           20          24
//!  +------+-----+------+---------+------------+------------+-----------+
//!  |magic | op  |status| reserved| request id  |   key id   | body len  |
//!  +------+-----+------+---------+------------+------------+-----------+
//!  | body (value bytes, `body len` long)                               |
//!  +--------------------------------------------------------------------
//! ```

use bytes::BufMut;

use crate::{ParseError, Result};

/// Size of the fixed message header.
pub const KV_HEADER_LEN: usize = 24;

/// The keyspace: clients draw keys uniformly from `0..KEY_COUNT`
/// (memtier's default uniform key pattern), and a server may index its
/// store by key.
pub const KEY_COUNT: u64 = 10_000;

/// Panic-free big-endian u64 read at `at`. Callers pre-check bounds; a
/// short slice still surfaces as `Truncated` rather than a panic,
/// because this runs on the per-packet fast path (rule F1, DESIGN.md §6.9).
fn be_u64(buf: &[u8], at: usize) -> Result<u64> {
    match buf
        .get(at..at + 8)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
    {
        Some(b) => Ok(u64::from_be_bytes(b)),
        None => Err(ParseError::Truncated {
            needed: at + 8,
            available: buf.len(),
        }),
    }
}

/// Magic byte of a request message.
pub const MAGIC_REQUEST: u8 = 0x80;
/// Magic byte of a response message.
pub const MAGIC_RESPONSE: u8 = 0x81;

/// Operation carried by a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvOp {
    /// Read a value.
    Get,
    /// Write a value.
    Set,
}

impl KvOp {
    fn to_wire(self) -> u8 {
        match self {
            KvOp::Get => 0,
            KvOp::Set => 1,
        }
    }

    fn from_wire(b: u8) -> Result<Self> {
        match b {
            0 => Ok(KvOp::Get),
            1 => Ok(KvOp::Set),
            other => Err(ParseError::Unsupported {
                field: "kv op",
                value: other as u32,
            }),
        }
    }
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvStatus {
    /// The operation succeeded.
    Ok,
    /// GET on a key that has not been SET.
    Miss,
}

impl KvStatus {
    fn to_wire(self) -> u8 {
        match self {
            KvStatus::Ok => 0,
            KvStatus::Miss => 1,
        }
    }

    fn from_wire(b: u8) -> Result<Self> {
        match b {
            0 => Ok(KvStatus::Ok),
            1 => Ok(KvStatus::Miss),
            other => Err(ParseError::Unsupported {
                field: "kv status",
                value: other as u32,
            }),
        }
    }
}

/// A framed key-value message (request or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvMessage {
    /// True for requests (client → server), false for responses.
    pub is_request: bool,
    /// Operation.
    pub op: KvOp,
    /// Response status (always `Ok` on requests).
    pub status: KvStatus,
    /// Client-chosen request identifier, echoed in the response. The
    /// workload generator encodes issue timestamps elsewhere and uses this
    /// id to match responses to requests.
    pub request_id: u64,
    /// Key identifier (the simulator uses integer keys).
    pub key: u64,
    /// Value length in bytes (GET requests carry 0; SET requests and GET
    /// responses carry the value).
    pub body_len: u32,
}

impl KvMessage {
    /// Builds a GET request.
    pub fn get(request_id: u64, key: u64) -> Self {
        KvMessage {
            is_request: true,
            op: KvOp::Get,
            status: KvStatus::Ok,
            request_id,
            key,
            body_len: 0,
        }
    }

    /// Builds a SET request with a `value_len`-byte value.
    pub fn set(request_id: u64, key: u64, value_len: u32) -> Self {
        KvMessage {
            is_request: true,
            op: KvOp::Set,
            status: KvStatus::Ok,
            request_id,
            key,
            body_len: value_len,
        }
    }

    /// Builds the response to `req`, carrying `value_len` bytes (zero for
    /// SET acknowledgments and misses).
    pub fn response_to(req: &KvMessage, status: KvStatus, value_len: u32) -> Self {
        KvMessage {
            is_request: false,
            op: req.op,
            status,
            request_id: req.request_id,
            key: req.key,
            body_len: value_len,
        }
    }

    /// Serializes the message onto the end of `out`. The body is filled
    /// with a repeating pattern derived from the key so that corruption is
    /// detectable in tests. Applications encode into a scratch buffer they
    /// keep, so a message costs no allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u8(if self.is_request {
            MAGIC_REQUEST
        } else {
            MAGIC_RESPONSE
        });
        out.put_u8(self.op.to_wire());
        out.put_u8(self.status.to_wire());
        out.put_u8(0);
        out.put_u64(self.request_id);
        out.put_u64(self.key);
        out.put_u32(self.body_len);
        let fill = (self.key as u8).wrapping_add(0x5a);
        out.resize(out.len() + self.body_len as usize, fill);
    }

    /// Decodes a message header from the front of `buf`. Returns the message
    /// and the number of bytes consumed (header + body), or `None` when the
    /// buffer does not yet hold a full message.
    pub fn decode(buf: &[u8]) -> Result<Option<(KvMessage, usize)>> {
        if buf.len() < KV_HEADER_LEN {
            return Ok(None);
        }
        let magic = buf[0];
        let is_request = match magic {
            MAGIC_REQUEST => true,
            MAGIC_RESPONSE => false,
            other => {
                return Err(ParseError::Unsupported {
                    field: "kv magic",
                    value: other as u32,
                })
            }
        };
        let body_len = u32::from_be_bytes([buf[20], buf[21], buf[22], buf[23]]);
        let total = KV_HEADER_LEN + body_len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let msg = KvMessage {
            is_request,
            op: KvOp::from_wire(buf[1])?,
            status: KvStatus::from_wire(buf[2])?,
            request_id: be_u64(buf, 4)?,
            key: be_u64(buf, 12)?,
            body_len,
        };
        Ok(Some((msg, total)))
    }
}

/// An incremental stream decoder: push raw TCP payload bytes in, pull framed
/// messages out. Tolerates messages split across arbitrary segment
/// boundaries.
///
/// The buffer is a `Vec` with a read cursor: framing a message advances
/// the cursor, and the next [`Self::push`] drops the consumed prefix while
/// keeping the allocation. So the buffer never holds more than the
/// unparsed backlog, and a connection's decoder stops allocating once it
/// has seen its largest backlog.
#[derive(Debug, Default)]
pub struct KvDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already framed; `buf[consumed..]` is the backlog.
    consumed: usize,
}

impl KvDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received stream bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(data);
    }

    /// Attempts to frame the next message.
    pub fn next_message(&mut self) -> Result<Option<KvMessage>> {
        match KvMessage::decode(&self.buf[self.consumed..])? {
            Some((msg, len)) => {
                self.consumed += len;
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }

    /// Forgets every buffered byte and keeps the allocation: the decoder
    /// starts over as a new one would, for the next connection.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.consumed = 0;
    }

    /// Number of buffered, not-yet-framed bytes.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Bytes of buffer the decoder holds on to (its allocation).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for msg in [
            KvMessage::get(42, 7),
            KvMessage::set(43, 8, 100),
            KvMessage::response_to(&KvMessage::get(42, 7), KvStatus::Ok, 64),
            KvMessage::response_to(&KvMessage::get(1, 2), KvStatus::Miss, 0),
        ] {
            let mut bytes = Vec::new();
            msg.encode_into(&mut bytes);
            assert_eq!(bytes.len(), KV_HEADER_LEN + msg.body_len as usize);
            let (decoded, consumed) = KvMessage::decode(&bytes).unwrap().unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn decoder_handles_fragmentation() {
        let m1 = KvMessage::set(1, 10, 33);
        let m2 = KvMessage::get(2, 10);
        let mut stream = Vec::new();
        m1.encode_into(&mut stream);
        m2.encode_into(&mut stream);
        // Two headers, and m1's body (a GET has none).
        assert_eq!(stream.len(), 2 * KV_HEADER_LEN + m1.body_len as usize);

        // Push one byte at a time; messages must come out intact and in order.
        let mut dec = KvDecoder::new();
        let mut out = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            while let Some(msg) = dec.next_message().unwrap() {
                out.push(msg);
            }
        }
        assert_eq!(out, vec![m1, m2]);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn reset_keeps_capacity_and_forgets_a_half_received_message() {
        let (m1, m2) = (KvMessage::set(1, 10, 33), KvMessage::get(2, 11));
        let mut stream = Vec::new();
        m1.encode_into(&mut stream);
        m2.encode_into(&mut stream);
        let mut dec = KvDecoder::new();
        // m1 whole, then half of m2 (a bare header): one message out,
        // the rest pending.
        dec.push(&stream[..KV_HEADER_LEN + m1.body_len as usize + KV_HEADER_LEN / 2]);
        assert_eq!(dec.next_message().unwrap(), Some(m1));
        assert_eq!(dec.next_message().unwrap(), None);
        assert!(dec.pending_bytes() > 0);
        let capacity = dec.capacity();

        dec.reset();
        assert_eq!((dec.pending_bytes(), dec.capacity()), (0, capacity));
        // The new stream's first message is the first one out: the half
        // of m2 never surfaces, not even as a prefix.
        let m3 = KvMessage::get(3, 12);
        let mut fresh = Vec::new();
        m3.encode_into(&mut fresh);
        dec.push(&fresh);
        assert_eq!(dec.next_message().unwrap(), Some(m3));
        assert_eq!(dec.pending_bytes(), 0);
        assert_eq!(dec.capacity(), capacity, "a reset decoder reallocated");
    }

    #[test]
    fn partial_header_yields_none() {
        let mut dec = KvDecoder::new();
        dec.push(&[MAGIC_REQUEST, 0, 0]);
        assert_eq!(dec.next_message().unwrap(), None);
        assert_eq!(dec.pending_bytes(), 3);
    }

    #[test]
    fn bad_magic_is_error() {
        let mut dec = KvDecoder::new();
        dec.push(&[0x55; KV_HEADER_LEN]);
        assert!(dec.next_message().is_err());
    }

    #[test]
    fn response_echoes_request_id() {
        let req = KvMessage::set(99, 5, 10);
        let resp = KvMessage::response_to(&req, KvStatus::Ok, 0);
        assert_eq!(resp.request_id, 99);
        assert_eq!(resp.op, KvOp::Set);
        assert!(!resp.is_request);
    }
}
