//! The event queue: a calendar queue with a total, deterministic
//! `(at, seq)` order, whose entries are exactly the pending events.
//!
//! Two structures share one slab of slots, and the event's own firing
//! time picks its home when it is pushed:
//!
//! * **The wheel** (Brown's calendar queue, Varghese & Lauck's timing
//!   wheel) holds every event due within a window of the last popped
//!   instant: packet deliveries, pacing and service timers — nearly
//!   everything that fires. It is a ring of `BUCKETS` buckets of
//!   `BUCKET_NANOS` each; a bucket is a circular doubly linked list
//!   threaded through the slab and kept in `(at, seq)` order, and an
//!   occupancy bitmap plus a summary word over it finds the next
//!   non-empty bucket in a few instructions. Because the window is
//!   exactly one revolution, a bucket only ever holds events of one
//!   bucket-width of time, so the head of the first non-empty bucket at
//!   or after the current one is the wheel's earliest event.
//! * **The heap**, an indexed binary min-heap, holds the rest: timers due
//!   beyond the window (RTOs, think time, control epochs, the fault
//!   schedule) — most of which are cancelled before they fire — and any
//!   push behind the last popped instant. Its entries carry the ordering
//!   key, so sifts move 24 bytes, and each slot records its entry's heap
//!   position, so a cancel removes the entry on the spot.
//!
//! A pop takes the earlier of the wheel's front and the heap's front by
//! `(at, seq)`, so events fire in exactly the order one all-events heap
//! would fire them. An event never moves between the two; the window
//! only decides where a push goes. Cancellation unlinks from a bucket in
//! O(1) or removes from the heap, and nothing dead is ever queued. A
//! handle carries the sequence number it was pushed with, so a stale
//! handle cannot touch a later event that reuses its slot.
//!
//! The geometry is fixed, not configurable: 4096 buckets of 1.024 µs, a
//! 4.19 ms window, short of `nettcp`'s 5 ms minimum RTO, so RTO timers
//! stay in the heap. In alternating `lbbench` pairs a 2.048 µs width and
//! 2048 buckets were slower, and a 512 ns width and 8192 or 16384
//! buckets no faster (EXPERIMENTS.md "Event-loop cost: near events in a
//! wheel").

use netpkt::Packet;

use crate::fault::FaultAction;
use crate::link::LinkId;
use crate::node::{NodeId, TimerToken};
use crate::time::Time;

/// log2 of the wheel's bucket width in nanoseconds.
const BUCKET_SHIFT: u32 = 10;
/// Width of one wheel bucket (1.024 µs). Public, like `WINDOW_NANOS`,
/// only so the property tests can aim at bucket edges and the window.
#[doc(hidden)]
pub const BUCKET_NANOS: u64 = 1 << BUCKET_SHIFT;
/// Number of wheel buckets: a power of two, and at most 4096 so that one
/// summary word covers the occupancy words.
const BUCKETS: usize = 4096;
/// The wheel's span: an event joins the wheel when its bucket is fewer
/// than `BUCKETS` buckets after the bucket of the last popped instant.
#[doc(hidden)]
pub const WINDOW_NANOS: u64 = BUCKET_NANOS * BUCKETS as u64;
/// Occupancy words, one bit per bucket.
const WORDS: usize = BUCKETS / 64;
const _: () = assert!(BUCKETS.is_power_of_two() && WORDS >= 1 && WORDS <= 64);

/// No slot: an empty bucket's head.
const NIL: u32 = u32::MAX;
/// `Slot::next` of an event that lives in the heap.
const IN_HEAP: u32 = u32::MAX - 1;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet finishes propagating and is delivered to `node` on `link`.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Link the packet arrives on.
        link: LinkId,
        /// The packet itself.
        pkt: Packet,
    },
    /// A timer armed by `node` fires.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The token the node armed the timer with.
        token: TimerToken,
    },
    /// A scripted fault takes effect (see `netsim::fault`).
    Fault(FaultAction),
}

/// An event with its firing time and tie-breaking sequence number.
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// Queue insertion order; breaks ties among simultaneous events.
    pub seq: u64,
    /// The action.
    pub kind: EventKind,
}

/// Ordering data only — the payload stays in the slab so heap sifts move
/// 24 bytes, not a whole [`EventKind`].
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: Time,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    /// Fires strictly before `other`: earlier time, insertion order
    /// among simultaneous events.
    #[inline]
    fn before(&self, other: &HeapEntry) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// A slab slot's ordering and link fields; its payload sits at the same
/// index of [`EventQueue::kinds`], so a bucket walk or a sift touches 24
/// bytes per event.
#[derive(Debug, Clone, Copy)]
struct Slot {
    at: Time,
    /// Sequence number of the event this slot holds or last held; a
    /// handle only cancels the event it was issued for.
    seq: u64,
    /// A wheel event's neighbours in its bucket's circular list. A heap
    /// event has `next == IN_HEAP` and `prev` = its heap position, kept up
    /// to date by the sifts. A free slot's `next` is the next free slot,
    /// or `NIL`.
    prev: u32,
    next: u32,
}

/// The wheel's bucket of `at`, counted from the epoch (not wrapped).
#[inline]
fn tick(at: Time) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// The ring position of tick `t`.
#[inline]
// Only the low bits survive the mask, and `BUCKETS` is a `usize`.
#[allow(clippy::cast_possible_truncation)]
fn bucket(t: u64) -> usize {
    (t as usize) & (BUCKETS - 1)
}

/// Handle to a scheduled event, for cancellation. Stale handles (the
/// event already fired, or was cancelled) are harmless: the
/// sequence-number guard makes [`EventQueue::cancel`] a no-op for them,
/// also after the slot has been reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// A deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue {
    /// Ordering and link fields of every slot, pending or free.
    slots: Vec<Slot>,
    /// Payloads, index-aligned with `slots`; `None` while a slot sits on
    /// the free list.
    kinds: Vec<Option<EventKind>>,
    /// The most recently freed slot, or `NIL`: the free list is threaded
    /// through `Slot::next`, newest first.
    free: u32,
    /// Tick of the latest instant popped so far: the wheel holds exactly
    /// the pending events whose tick is in `now_tick .. now_tick +
    /// BUCKETS`.
    now_tick: u64,
    /// First slot of each bucket's list, or `NIL`.
    heads: Box<[u32]>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` set iff `occupied[w] != 0`.
    summary: u64,
    wheel_len: usize,
    /// Binary min-heap on `(at, seq)` over the out-of-window events. Two
    /// children per node, not four: a level costs one hard-to-predict
    /// comparison instead of three, which measured faster on every
    /// `lbbench` workload (EXPERIMENTS.md "Event-loop cost").
    heap: Vec<HeapEntry>,
    next_seq: u64,
    cancelled: u64,
    peak_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            kinds: Vec::new(),
            free: NIL,
            now_tick: 0,
            heads: vec![NIL; BUCKETS].into_boxed_slice(),
            occupied: [0; WORDS],
            summary: 0,
            wheel_len: 0,
            heap: Vec::new(),
            next_seq: 0,
            cancelled: 0,
            peak_len: 0,
        }
    }

    /// Schedules `kind` to fire at `at`. The returned handle cancels the
    /// event; callers that never cancel can ignore it.
    pub fn push(&mut self, at: Time, kind: EventKind) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let filled = Slot {
            at,
            seq,
            prev: NIL, // set by the link or sift below
            next: NIL,
        };
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.slots[slot as usize].next;
            self.slots[slot as usize] = filled;
            self.kinds[slot as usize] = Some(kind);
            slot
        } else {
            let slot = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s < IN_HEAP)
                .expect("more than 2^32 - 2 pending events");
            self.slots.push(filled);
            self.kinds.push(Some(kind));
            slot
        };
        if tick(at).wrapping_sub(self.now_tick) < BUCKETS as u64 {
            self.link(slot);
        } else {
            self.slots[slot as usize].next = IN_HEAP;
            self.heap.push(HeapEntry { at, seq, slot });
            self.sift_up(self.heap.len() - 1);
        }
        self.peak_len = self.peak_len.max(self.len());
        EventHandle { slot, seq }
    }

    /// Cancels a pending event, removing it from the queue now. Returns
    /// false when the event already fired or was cancelled (stale
    /// handle).
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        let i = h.slot as usize;
        match self.slots.get(i) {
            Some(slot) if slot.seq == h.seq && self.kinds[i].is_some() => {
                let slot = *slot;
                if slot.next == IN_HEAP {
                    self.remove_at(slot.prev as usize);
                } else {
                    self.unlink(h.slot);
                }
                self.release(h.slot);
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Pops the next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_due(Time::MAX)
    }

    /// Pops the next event if it fires at or before `deadline`.
    pub fn pop_due(&mut self, deadline: Time) -> Option<Event> {
        let (slot, in_heap) = self.front()?;
        let Slot { at, seq, .. } = self.slots[slot as usize];
        if at > deadline {
            return None;
        }
        if in_heap {
            self.remove_at(0);
        } else {
            self.unlink(slot);
        }
        self.now_tick = self.now_tick.max(tick(at));
        let kind = self.release(slot);
        Some(Event { at, seq, kind })
    }

    /// The firing time of the next event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.front().map(|(slot, _)| self.slots[slot as usize].at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events removed by [`EventQueue::cancel`] so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// The largest [`EventQueue::len`] the queue has reached.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// The slot of the next event, and whether it lives in the heap: the
    /// earlier of the wheel's front and the heap's front.
    #[inline]
    fn front(&self) -> Option<(u32, bool)> {
        let near = self.next_bucket().map(|b| self.heads[b]);
        match (near, self.heap.first()) {
            (Some(s), Some(far)) => {
                let s_key = (self.slots[s as usize].at, self.slots[s as usize].seq);
                Some(if s_key < (far.at, far.seq) {
                    (s, false)
                } else {
                    (far.slot, true)
                })
            }
            (Some(s), None) => Some((s, false)),
            (None, far) => far.map(|far| (far.slot, true)),
        }
    }

    /// The first non-empty bucket at or after the current one, wrapping
    /// round the ring: the bucket of the wheel's earliest event.
    #[inline]
    fn next_bucket(&self) -> Option<usize> {
        let from = bucket(self.now_tick);
        let w = from / 64;
        let here = self.occupied[w] & (!0u64 << (from % 64));
        if here != 0 {
            return Some(w * 64 + here.trailing_zeros() as usize);
        }
        // The next non-empty word after `w`, round the ring: `w` itself
        // comes last, for its buckets before `from`.
        let later = self.summary & !(u64::MAX >> (63 - w));
        let words = if later != 0 { later } else { self.summary };
        if words == 0 {
            return None;
        }
        let word = words.trailing_zeros() as usize;
        Some(word * 64 + self.occupied[word].trailing_zeros() as usize)
    }

    /// Puts `slot` (its `at` set, its payload present) into its bucket,
    /// behind every event of the bucket that fires at or before it: its
    /// sequence number is the newest, so that is its `(at, seq)` place.
    fn link(&mut self, slot: u32) {
        let at = self.slots[slot as usize].at;
        let b = bucket(tick(at));
        let head = self.heads[b];
        self.wheel_len += 1;
        if head == NIL {
            let s = &mut self.slots[slot as usize];
            (s.prev, s.next) = (slot, slot);
            self.heads[b] = slot;
            self.occupied[b / 64] |= 1 << (b % 64);
            self.summary |= 1 << (b / 64);
            return;
        }
        // Walk back from the tail; most pushes land there.
        let tail = self.slots[head as usize].prev;
        let mut after = tail;
        while self.slots[after as usize].at > at {
            if after == head {
                // Fires before the whole bucket: the new head, which
                // in the circular list sits right after the tail.
                after = tail;
                self.heads[b] = slot;
                break;
            }
            after = self.slots[after as usize].prev;
        }
        let before = self.slots[after as usize].next;
        let s = &mut self.slots[slot as usize];
        (s.prev, s.next) = (after, before);
        self.slots[after as usize].next = slot;
        self.slots[before as usize].prev = slot;
    }

    /// Takes wheel event `slot` out of its bucket.
    fn unlink(&mut self, slot: u32) {
        let Slot { at, prev, next, .. } = self.slots[slot as usize];
        let b = bucket(tick(at));
        self.wheel_len -= 1;
        if next == slot {
            self.heads[b] = NIL;
            let w = b / 64;
            self.occupied[w] &= !(1 << (b % 64));
            if self.occupied[w] == 0 {
                self.summary &= !(1 << w);
            }
            return;
        }
        self.slots[prev as usize].next = next;
        self.slots[next as usize].prev = prev;
        if self.heads[b] == slot {
            self.heads[b] = next;
        }
    }

    /// Frees `slot` (already out of the wheel and the heap) and returns
    /// its payload.
    fn release(&mut self, slot: u32) -> EventKind {
        self.slots[slot as usize].next = self.free;
        self.free = slot;
        self.kinds[slot as usize]
            .take()
            .expect("a pending event's slot holds its payload")
    }

    /// Takes the entry at heap position `pos` out of the heap (its slot
    /// stays filled).
    fn remove_at(&mut self, pos: usize) {
        self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            // The former last entry now sits at `pos`; it can belong on
            // either side of it.
            if pos > 0 && self.heap[pos].before(&self.heap[(pos - 1) / 2]) {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
    }

    /// Writes `entry` at heap position `pos` and records that in its slot.
    #[inline]
    fn place(&mut self, pos: usize, entry: HeapEntry) {
        self.heap[pos] = entry;
        // The heap holds at most one entry per slot, and slot ids are
        // `u32` (`push` checks), so a position fits too.
        #[allow(clippy::cast_possible_truncation)]
        let pos = pos as u32;
        self.slots[entry.slot as usize].prev = pos;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if !entry.before(&above) {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, entry);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let len = self.heap.len();
        loop {
            let mut least = 2 * pos + 1;
            if least >= len {
                break;
            }
            if least + 1 < len && self.heap[least + 1].before(&self.heap[least]) {
                least += 1;
            }
            let below = self.heap[least];
            if !below.before(&entry) {
                break;
            }
            self.place(pos, below);
            pos = least;
        }
        self.place(pos, entry);
    }

    /// Panics unless the index is consistent. Wheel: each bucket's list
    /// is circular, doubly linked, strictly `(at, seq)`-ordered, and holds
    /// only pending events of that bucket inside the window; a bucket's
    /// occupancy bit is set iff its list is non-empty, and a summary bit
    /// iff its occupancy word is non-zero. Heap: every entry's slot holds
    /// that entry's event and points back at it, and every parent orders
    /// before its children. Together with the free list they account for
    /// every slot. For the property tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut in_wheel = 0;
        for (b, &head) in self.heads.iter().enumerate() {
            let bit = self.occupied[b / 64] >> (b % 64) & 1 == 1;
            assert_eq!(bit, head != NIL, "bucket {b}: occupancy bit disagrees");
            if head == NIL {
                continue;
            }
            let mut s = head;
            let mut last: Option<(Time, u64)> = None;
            loop {
                let slot = &self.slots[s as usize];
                assert!(
                    self.kinds[s as usize].is_some(),
                    "bucket {b}: vacant slot {s}"
                );
                assert_ne!(slot.next, IN_HEAP, "bucket {b}: heap slot {s}");
                assert_eq!(bucket(tick(slot.at)), b, "slot {s} is in the wrong bucket");
                assert!(
                    tick(slot.at).wrapping_sub(self.now_tick) < BUCKETS as u64,
                    "slot {s} at {:?} is outside the window",
                    slot.at
                );
                assert_eq!(
                    self.slots[slot.next as usize].prev, s,
                    "slot {s}: broken link"
                );
                if let Some(last) = last {
                    assert!(last < (slot.at, slot.seq), "bucket {b} out of order at {s}");
                }
                last = Some((slot.at, slot.seq));
                in_wheel += 1;
                assert!(
                    in_wheel <= self.slots.len(),
                    "bucket {b}: list does not close"
                );
                s = slot.next;
                if s == head {
                    break;
                }
            }
        }
        assert_eq!(in_wheel, self.wheel_len, "wheel length disagrees");
        for (w, &word) in self.occupied.iter().enumerate() {
            let bit = self.summary >> w & 1 == 1;
            assert_eq!(bit, word != 0, "word {w}: summary bit disagrees");
        }
        for (pos, entry) in self.heap.iter().enumerate() {
            let slot = &self.slots[entry.slot as usize];
            assert!(
                self.kinds[entry.slot as usize].is_some(),
                "entry {pos} points at a vacant slot"
            );
            assert_eq!(slot.seq, entry.seq, "entry {pos} points at another event");
            assert_eq!(slot.at, entry.at, "entry {pos} disagrees with its slot");
            assert_eq!(slot.next, IN_HEAP, "entry {pos}'s slot is not a heap slot");
            assert_eq!(
                slot.prev as usize, pos,
                "slot of entry {pos} points elsewhere"
            );
            if pos > 0 {
                let parent = &self.heap[(pos - 1) / 2];
                assert!(parent.before(entry), "entry {pos} orders before its parent");
            }
        }
        let mut free = 0;
        let mut s = self.free;
        while s != NIL {
            assert!(self.kinds[s as usize].is_none(), "free slot {s} is filled");
            free += 1;
            assert!(free <= self.slots.len(), "the free list does not end");
            s = self.slots[s as usize].next;
        }
        assert_eq!(self.len() + free, self.slots.len());
        assert_eq!(self.kinds.len(), self.slots.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            token: TimerToken(token),
        }
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(30), timer(0, 3));
        q.push(Time::from_nanos(10), timer(0, 1));
        q.push(Time::from_nanos(20), timer(0, 2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_nanos(5), timer(0, i));
        }
        assert_eq!(drain_tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_nanos(7), timer(0, 0));
        assert_eq!(q.peek_time(), Some(Time::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_event_never_fires() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(10), timer(0, 1));
        let h = q.push(Time::from_nanos(20), timer(0, 2));
        q.push(Time::from_nanos(30), timer(0, 3));
        assert!(q.cancel(h));
        assert_eq!(q.len(), 2);
        assert_eq!(drain_tokens(&mut q), vec![1, 3]);
    }

    #[test]
    fn cancel_is_idempotent_and_stale_handles_are_harmless() {
        let mut q = EventQueue::new();
        let h = q.push(Time::from_nanos(10), timer(0, 1));
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "second cancel must be a no-op");
        assert_eq!(q.pop().map(|e| e.seq), None);
        // A handle whose event already fired must not cancel anything.
        let h2 = q.push(Time::from_nanos(20), timer(0, 2));
        assert!(q.pop().is_some());
        assert!(!q.cancel(h2));
    }

    #[test]
    fn cancelled_slot_is_reused_and_its_old_handle_stays_dead() {
        let mut q = EventQueue::new();
        // Occupy then cancel: the event leaves the queue at once and the
        // slot returns to the free list.
        let h = q.push(Time::from_nanos(50), timer(0, 99));
        assert!(q.cancel(h));
        assert_eq!(q.len(), 0);
        // The next event reuses the slot and fires at its own time.
        q.push(Time::from_nanos(10), timer(0, 1));
        q.push(Time::from_nanos(20), timer(0, 2));
        assert!(
            !q.cancel(h),
            "a stale handle must not cancel the new tenant"
        );
        assert_eq!(q.peek_time(), Some(Time::from_nanos(10)));
        assert_eq!(drain_tokens(&mut q), vec![1, 2]);
        assert!(q.is_empty());
        assert_eq!((q.cancelled(), q.peak_len()), (1, 2));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let h = q.push(Time::from_nanos(10), timer(0, 1));
        q.push(Time::from_nanos(20), timer(0, 2));
        assert!(q.cancel(h));
        assert_eq!(q.peek_time(), Some(Time::from_nanos(20)));
        assert_eq!(drain_tokens(&mut q), vec![2]);
    }
}
