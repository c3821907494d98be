//! Allocation counting for the tier-1 allocation budget
//! (`tests/alloc_budget.rs`): a wrapper around the system allocator that
//! counts calls and bytes. Installing it is the test binary's business,
//! because a `#[global_allocator]` is process-wide; the library never
//! installs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. Counters are
/// process-wide and monotone; callers diff [`alloc_snapshot`]s.
pub struct CountingAlloc;

// The workspace's only `unsafe`, because `GlobalAlloc` is an unsafe trait.
// SAFETY: every method forwards its arguments to `System` unchanged, so
// the caller's guarantees are exactly the ones `System` requires.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Cumulative (allocation calls, allocated bytes) so far; zeros in a
/// process that did not install [`CountingAlloc`]. Diff two snapshots to
/// attribute a region.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
