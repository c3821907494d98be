//! C5 — `unsafe` code in a deterministic crate: `unsafe_code`.

/// # Safety
/// `p` must be valid for reads.
#[expect(unsafe_code)]
pub unsafe fn peek(p: *const u64) -> u64 {
    // SAFETY: the caller's obligation, stated above.
    #[expect(unsafe_code)]
    unsafe {
        *p
    }
}
