//! A reusable packet-buffer pool.
//!
//! Every simulated hop that builds or copies a frame (a host's segment,
//! the LB's DSR rewrite, cross traffic) needs a fresh buffer, and at
//! millions of events per run those allocations dominate the allocator
//! profile. The pool keeps retired packet buffers on a free list:
//! [`BufferPool::take`] hands out a cleared buffer (allocating only on a
//! miss) and [`BufferPool::recycle`] recovers a consumed packet's
//! allocation once its last [`bytes::Bytes`] handle is unique.
//!
//! What is pooled is the whole handle, not just the bytes: the free list
//! holds [`BytesMut`]s that still own the refcount cell of the `Bytes`
//! they were recovered from, and `freeze` refills that cell (see the
//! vendored `bytes` module docs). After warm-up `take → build → freeze →
//! … → recycle` never reaches the allocator.
//!
//! A frame is declined — dropped normally, `declined += 1` — while any
//! other handle to its buffer is alive. The one steady source of that is
//! out-of-order reassembly: a host hands the stack a zero-copy slice of
//! the frame as payload, and a segment parked in the reassembly queue
//! keeps its frame alive past the `recycle` call.
//!
//! Pooling is invisible to simulation semantics: buffers are cleared on
//! reuse and the pool never touches packet contents, so schedules and
//! trace hashes are byte-identical with or without it.

use bytes::{Bytes, BytesMut};

use crate::packet::Packet;

/// Free-list hit/miss counters, for perf reports and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolStats {
    /// `take` calls served from the free list.
    pub hits: u64,
    /// `take` calls that had to allocate.
    pub misses: u64,
    /// Buffers recovered onto the free list.
    pub recycled: u64,
    /// Recycle attempts declined: the buffer was still shared (a trace
    /// clone, an in-flight duplicate) or the free list was full.
    pub declined: u64,
}

/// A bounded free list of packet buffers.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<BytesMut>,
    max_pooled: usize,
    stats: PoolStats,
}

/// Free-list bound: enough for every packet in flight across a large
/// topology's links, small enough that a burst cannot pin memory.
const DEFAULT_MAX_POOLED: usize = 4096;

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new(DEFAULT_MAX_POOLED)
    }
}

impl BufferPool {
    /// Creates a pool that keeps at most `max_pooled` free buffers.
    pub fn new(max_pooled: usize) -> BufferPool {
        BufferPool {
            free: Vec::new(),
            max_pooled,
            stats: PoolStats::default(),
        }
    }

    /// Hands out an empty buffer with at least `cap` capacity, reusing a
    /// pooled allocation when one is available.
    pub fn take(&mut self, cap: usize) -> BytesMut {
        match self.free.pop() {
            Some(mut buf) => {
                self.stats.hits += 1;
                buf.clear();
                buf.reserve(cap);
                buf
            }
            None => {
                self.stats.misses += 1;
                BytesMut::with_capacity(cap)
            }
        }
    }

    /// Recovers a consumed packet's buffer onto the free list. A no-op
    /// (the buffer drops normally) when other handles to the bytes are
    /// still alive or the free list is at capacity.
    pub fn recycle(&mut self, pkt: Packet) {
        self.recycle_bytes(pkt.data);
    }

    /// [`Self::recycle`] for a raw [`Bytes`] handle.
    pub fn recycle_bytes(&mut self, data: Bytes) {
        if self.free.len() >= self.max_pooled {
            self.stats.declined += 1;
            return;
        }
        match data.try_into_mut() {
            Ok(buf) => {
                self.stats.recycled += 1;
                self.free.push(buf);
            }
            Err(_shared) => self.stats.declined += 1,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Buffers currently on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_prefers_recycled_buffers() {
        let mut pool = BufferPool::new(8);
        let mut buf = pool.take(64);
        buf.extend_from_slice(b"abc");
        pool.recycle_bytes(buf.freeze());
        assert_eq!(pool.free_len(), 1);
        let again = pool.take(16);
        assert!(again.is_empty(), "reused buffer must be cleared");
        assert_eq!(pool.free_len(), 0);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
    }

    #[test]
    fn a_recycled_frame_comes_back_as_the_same_buffer() {
        let mut pool = BufferPool::new(8);
        let mut buf = pool.take(64);
        buf.extend_from_slice(b"first frame");
        let frame = buf.freeze();
        let at = frame.as_ptr();
        pool.recycle_bytes(frame);
        let mut again = pool.take(16);
        assert!(again.is_empty());
        again.extend_from_slice(b"x");
        assert_eq!(again.as_ptr(), at, "same allocation");
        // Filling it to its old capacity must not move it either.
        again.resize(64, 0);
        assert_eq!(again.as_ptr(), at);
        // ... and the lap repeats: freeze, share, decline, release, reuse.
        let frame = again.freeze();
        let held = frame.slice(3..9);
        pool.recycle_bytes(frame);
        assert_eq!((pool.free_len(), pool.stats().declined), (0, 1));
        pool.recycle_bytes(held);
        assert_eq!(pool.free_len(), 1, "the last handle is unique again");
        assert_eq!(pool.take(1).as_ptr(), at);
    }

    #[test]
    fn shared_bytes_are_not_recycled() {
        let mut pool = BufferPool::new(8);
        let frozen = Bytes::from(vec![1, 2, 3]);
        let keep_alive = frozen.clone();
        pool.recycle_bytes(frozen);
        assert_eq!(pool.free_len(), 0);
        assert_eq!(pool.stats().declined, 1);
        drop(keep_alive);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool = BufferPool::new(1);
        pool.recycle_bytes(Bytes::from(vec![1]));
        pool.recycle_bytes(Bytes::from(vec![2]));
        assert_eq!(pool.free_len(), 1);
        assert_eq!(pool.stats().declined, 1);
    }
}
