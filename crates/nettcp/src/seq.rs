//! Modular (wrapping) 32-bit sequence-number arithmetic, RFC 793 style.
//!
//! Comparisons are defined on the signed difference, so they remain correct
//! when sequence numbers wrap around `u32::MAX`.

/// `a < b` in sequence space.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space.
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// `a > b` in sequence space.
#[inline]
pub fn seq_gt(a: u32, b: u32) -> bool {
    seq_lt(b, a)
}

/// `a >= b` in sequence space.
#[inline]
pub fn seq_ge(a: u32, b: u32) -> bool {
    seq_le(b, a)
}

/// `seq` advanced by `len` bytes. Sequence space counts modulo 2^32, so
/// `len` does too: the narrowing is the arithmetic, not a loss.
#[inline]
#[allow(clippy::cast_possible_truncation)]
pub fn seq_add(seq: u32, len: usize) -> u32 {
    seq.wrapping_add(len as u32)
}

/// The number of bytes from `a` up to `b` (assumes `a <= b` in sequence
/// space; callers check with [`seq_le`] first).
#[inline]
pub fn seq_len(a: u32, b: u32) -> u32 {
    b.wrapping_sub(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinary_ordering() {
        assert!(seq_lt(1, 2));
        assert!(!seq_lt(2, 1));
        assert!(!seq_lt(2, 2));
        assert!(seq_le(2, 2));
        assert!(seq_gt(5, 3));
        assert!(seq_ge(5, 5));
    }

    #[test]
    fn wraparound_ordering() {
        let a = u32::MAX - 10;
        let b = 5u32; // 16 bytes "after" a
        assert!(seq_lt(a, b));
        assert!(seq_gt(b, a));
        assert_eq!(seq_len(a, b), 16);
    }

    #[test]
    fn halfway_point_is_ambiguous_by_design() {
        // A difference of exactly 2^31 is outside TCP's validity window;
        // RFC 793 comparisons are symmetric ("both less") there. Nothing in
        // the simulator ever has 2 GiB outstanding, so this is documented
        // rather than disambiguated.
        assert!(seq_lt(0, 1 << 31));
        assert!(seq_lt(1 << 31, 0));
    }

    #[test]
    fn seq_len_zero() {
        assert_eq!(seq_len(42, 42), 0);
        assert_eq!(seq_len(0, 100), 100);
    }
}
