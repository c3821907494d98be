//! Internet checksum (RFC 1071) helpers shared by the IPv4 and TCP layers.

/// Incremental one's-complement sum over 16-bit words.
///
/// Feed header/payload slices with [`Checksum::add_bytes`] and finish with
/// [`Checksum::finish`]. Odd-length slices are handled by padding the final
/// byte with a zero octet, as RFC 1071 requires.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    sum: u32,
    /// A pending odd byte from a previous `add_bytes` call.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty checksum accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a single 16-bit word (host order value, summed big-endian).
    pub fn add_u16(&mut self, word: u16) {
        debug_assert!(self.pending.is_none(), "add_u16 after odd-length slice");
        self.sum += u32::from(word);
    }

    /// Adds an arbitrary byte slice.
    pub fn add_bytes(&mut self, mut bytes: &[u8]) {
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = bytes.split_first() {
                self.sum += u32::from(u16::from_be_bytes([hi, lo]));
                bytes = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(2);
        for chunk in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Folds the carries and returns the one's-complement checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.sum += u32::from(u16::from_be_bytes([hi, 0]));
        }
        let mut sum = self.sum;
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// One-shot checksum over a single slice.
pub fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.finish()
}

/// Verifies a slice that *includes* its checksum field; the folded sum of
/// such a slice must be zero.
pub fn verify(bytes: &[u8]) -> bool {
    checksum(bytes) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example from RFC 1071 §3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let even = checksum(&[0xab, 0x00]);
        let odd = checksum(&[0xab]);
        assert_eq!(even, odd);
    }

    #[test]
    fn split_slices_equal_single_slice() {
        let data: Vec<u8> = (0u8..41).collect();
        let whole = checksum(&data);
        let mut acc = Checksum::new();
        acc.add_bytes(&data[..7]);
        acc.add_bytes(&data[7..20]);
        acc.add_bytes(&data[20..]);
        assert_eq!(acc.finish(), whole);
    }

    #[test]
    fn verify_roundtrip() {
        // A buffer with its own checksum embedded verifies to zero.
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06];
        let ck = checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
    }

    #[test]
    fn all_zero_is_ffff() {
        assert_eq!(checksum(&[0, 0, 0, 0]), 0xffff);
    }
}
