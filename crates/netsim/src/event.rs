//! The event queue: an indexed binary min-heap with a total,
//! deterministic order, whose entries are exactly the pending events.
//!
//! Ordering state (`at`, `seq`) lives in compact copyable heap entries;
//! event payloads sit in a slab indexed by slot, so heap sifts move 24
//! bytes instead of a full [`EventKind`] (which carries a packet on the
//! hottest variant). The index runs both ways: a heap entry names its
//! slot, and the slot records the entry's current heap position (kept up
//! to date on every sift move). Cancellation therefore removes the entry
//! on the spot — swap with the last, one sift up or down — and nothing
//! dead is ever queued, sifted past or popped. A handle carries the
//! sequence number it was pushed with, so a stale handle cannot touch a
//! later event that reuses its slot.

use netpkt::Packet;

use crate::fault::ImpairmentConfig;
use crate::link::LinkId;
use crate::node::{NodeId, TimerToken};
use crate::time::Time;

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
    /// A scripted change to a link's propagation delay (used by experiments
    /// to inject latency at a precise instant, e.g. "+1 ms at t = 100 s").
    SetLinkExtraDelay {
        /// The link to modify.
        link: LinkId,
        /// Direction: true for the a→b direction, false for b→a.
        a_to_b: bool,
        /// New *additional* propagation delay in nanoseconds (on top of the
        /// link's configured base delay).
        extra_nanos: u64,
    },
    /// A scripted node crash (`down = true`) or restart (`down = false`).
    /// While down, deliveries to the node are dropped and its sends are
    /// suppressed; timers still fire (see `netsim::fault`).
    SetNodeDown {
        /// The node whose liveness changes.
        node: NodeId,
        /// New liveness: true = crashed.
        down: bool,
    },
    /// A scripted link flap: while down, both directions drop every
    /// offered packet.
    SetLinkDown {
        /// The link whose state changes.
        link: LinkId,
        /// New state: true = down.
        down: bool,
    },
    /// Installs (`Some`) or clears (`None`) a stochastic impairment on one
    /// direction of a link.
    SetLinkImpairment {
        /// The link to modify.
        link: LinkId,
        /// Direction: true for the a→b direction, false for b→a.
        a_to_b: bool,
        /// The impairment to install, or `None` to heal the direction.
        cfg: Option<ImpairmentConfig>,
    },
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

/// A slab slot: the payload of one pending event (`kind` is `None` while
/// the slot sits on the free list) and where its heap entry currently is.
#[derive(Debug)]
struct Slot {
    /// Sequence number of the event this slot holds or last held; a
    /// handle only cancels the event it was issued for.
    seq: u64,
    /// Index of this event's entry in `heap`, maintained by the sifts.
    pos: u32,
    kind: Option<EventKind>,
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
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Binary min-heap on `(at, seq)`: one entry per pending event, no
    /// others. Two children per node, not four: a level costs one
    /// hard-to-predict comparison instead of three, which measured
    /// faster on every `lbbench` workload (EXPERIMENTS.md "Event-loop
    /// cost").
    heap: Vec<HeapEntry>,
    slab: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    cancelled: u64,
    peak_len: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `at`. The returned handle cancels the
    /// event; callers that never cancel can ignore it.
    pub fn push(&mut self, at: Time, kind: EventKind) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let filled = Slot {
            seq,
            pos: 0, // set by the sift below
            kind: Some(kind),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = filled;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("more than 2^32 pending events");
                self.slab.push(filled);
                slot
            }
        };
        self.heap.push(HeapEntry { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        self.peak_len = self.peak_len.max(self.heap.len());
        EventHandle { slot, seq }
    }

    /// Cancels a pending event, removing it from the heap now. Returns
    /// false when the event already fired or was cancelled (stale
    /// handle).
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        match self.slab.get(h.slot as usize) {
            Some(slot) if slot.seq == h.seq && slot.kind.is_some() => {
                let pos = slot.pos as usize;
                self.remove_at(pos);
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
        if self.heap.first()?.at > deadline {
            return None;
        }
        Some(self.remove_at(0))
    }

    /// The firing time of the next event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Events removed by [`EventQueue::cancel`] so far.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// The largest [`EventQueue::len`] the queue has reached.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Takes the entry at heap position `pos` out of the queue, frees its
    /// slot and returns its event.
    fn remove_at(&mut self, pos: usize) -> Event {
        let entry = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            // The former last entry now sits at `pos`; it can belong on
            // either side of it.
            if pos > 0 && self.heap[pos].before(&self.heap[(pos - 1) / 2]) {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        let kind = self.slab[entry.slot as usize]
            .kind
            .take()
            .expect("heap entry points at a vacant slot");
        self.free.push(entry.slot);
        Event {
            at: entry.at,
            seq: entry.seq,
            kind,
        }
    }

    /// Writes `entry` at heap position `pos` and records that in its slot.
    #[inline]
    fn place(&mut self, pos: usize, entry: HeapEntry) {
        self.heap[pos] = entry;
        self.slab[entry.slot as usize].pos = pos as u32;
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

    /// Panics unless the index is consistent: every heap entry's slot
    /// holds that entry's event and points back at it, every parent
    /// orders before its children, and the heap, the free list and the
    /// slab account for each other. For the property tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        for (pos, entry) in self.heap.iter().enumerate() {
            let slot = &self.slab[entry.slot as usize];
            assert!(slot.kind.is_some(), "entry {pos} points at a vacant slot");
            assert_eq!(slot.seq, entry.seq, "entry {pos} points at another event");
            assert_eq!(
                slot.pos as usize, pos,
                "slot of entry {pos} points elsewhere"
            );
            if pos > 0 {
                let parent = &self.heap[(pos - 1) / 2];
                assert!(parent.before(entry), "entry {pos} orders before its parent");
            }
        }
        assert!(self
            .free
            .iter()
            .all(|&s| self.slab[s as usize].kind.is_none()));
        assert_eq!(self.heap.len() + self.free.len(), self.slab.len());
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
        // Occupy then cancel: the entry leaves the heap at once and the
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
