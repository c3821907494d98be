//! C3 — `static mut` global state: `unsafe_code`. Declaring one is not
//! unsafe, so the lint is silent on the declaration alone; but a
//! `static mut` nothing reads or writes is not state, and every access
//! is an `unsafe` block, which the workspace's `unsafe_code = "forbid"`
//! rejects with no in-source way round it.

static mut COUNTER: u64 = 0;

pub fn bump() -> u64 {
    // SAFETY: never called — the fixture only has to compile and be flagged.
    #[expect(unsafe_code)]
    unsafe {
        COUNTER += 1;
        COUNTER
    }
}
