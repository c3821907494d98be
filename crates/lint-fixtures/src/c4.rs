//! C4 — `thread_local!` state in a deterministic crate:
//! `disallowed_macros`. The lint reports a macro in item position
//! against the crate, not the item, so the expectation sits at the top
//! of `lib.rs`; this is the crate's only macro it can be fulfilled by.

thread_local! {
    pub static SLOT: u64 = const { 0 };
}
