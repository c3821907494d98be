//! Property tests for the event queue (timing wheel plus heap): random
//! interleavings of `push` / `cancel` / `pop` / `pop_due` against an
//! ordered-map model.
//!
//! * Order: events leave in `(time, push order)` order, whatever was
//!   cancelled around them. Firing times are drawn relative to the
//!   latest popped instant so that every part of the queue is reached:
//!   ties in the current bucket, both sides of bucket edges, the last
//!   buckets of the window (whose ring positions wrap past zero), the
//!   instants just inside and just outside the window, far beyond it,
//!   and behind the latest popped instant (the heap fallback).
//! * Cancellation: `cancel` returns true exactly when the model still
//!   holds the event, for handles that are live, already fired, already
//!   cancelled, or whose slot a later event has taken over.
//! * Index: after every operation the bucket lists, the occupancy bitmap
//!   and its summary word, and the heap's slot positions are consistent
//!   (`EventQueue::check_invariants`).

use std::collections::BTreeMap;

use proptest::prelude::*;

use netsim::event::{Event, EventHandle, EventKind, EventQueue, BUCKET_NANOS, WINDOW_NANOS};
use netsim::{NodeId, Time, TimerToken};

/// `(at, seq) -> token` of every pending event.
type Model = BTreeMap<(Time, u64), TimerToken>;

fn key_and_token(ev: Event) -> ((Time, u64), TimerToken) {
    match ev.kind {
        EventKind::Timer { token, .. } => ((ev.at, ev.seq), token),
        other => panic!("only timers were pushed, popped {other:?}"),
    }
}

/// An instant of family `family` near `last`, the latest instant popped
/// so far; `small` (0..8) picks within the family.
fn instant(last: Time, family: u8, small: u64) -> Time {
    let last = last.as_nanos();
    // First instant of the current bucket: the window is counted from it.
    let start = last / BUCKET_NANOS * BUCKET_NANOS;
    Time::from_nanos(match family {
        // Ties with the clock and with each other.
        0 => last + small,
        // One before, at, and one after the first edges ahead.
        1 => start + (1 + small / 3) * BUCKET_NANOS + small % 3 - 1,
        // The last buckets of the window, reached round the ring.
        2 => start + WINDOW_NANOS - (1 + small) * BUCKET_NANOS + small,
        // window - 1, window, window + 1.
        3 => start + WINDOW_NANOS - 1 + small % 3,
        // Far beyond the window.
        4 => start + (2 + small) * WINDOW_NANOS + small,
        // Behind the clock.
        _ => last.saturating_sub(1 + small * BUCKET_NANOS / 2),
    })
}

proptest! {
    #[test]
    fn queue_agrees_with_an_ordered_map(
        ops in proptest::collection::vec((0u8..10, 0u8..6, 0u64..8, any::<usize>()), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::new();
        // Every handle ever issued, with the key it was issued for.
        let mut issued: Vec<(EventHandle, (Time, u64))> = Vec::new();
        let (mut cancelled, mut peak) = (0u64, 0usize);
        let mut last = Time::ZERO;
        for (step, &(op, family, small, pick)) in ops.iter().enumerate() {
            let at = instant(last, family, small);
            let mut popped = None;
            match op {
                0..=3 => {
                    let key = (at, issued.len() as u64);
                    let token = TimerToken(step as u64);
                    let h = q.push(key.0, EventKind::Timer { node: NodeId(0), token });
                    model.insert(key, token);
                    issued.push((h, key));
                    peak = peak.max(model.len());
                }
                4..=6 if !issued.is_empty() => {
                    let (h, key) = issued[pick % issued.len()];
                    let pending = model.remove(&key).is_some();
                    cancelled += u64::from(pending);
                    prop_assert_eq!(q.cancel(h), pending, "step {}: cancel of {:?}", step, key);
                }
                7..=8 => {
                    popped = q.pop().map(key_and_token);
                    prop_assert_eq!(popped, model.pop_first(), "step {}: pop", step);
                }
                _ => {
                    let due = model.first_key_value().is_some_and(|(k, _)| k.0 <= at);
                    let expected = if due { model.pop_first() } else { None };
                    popped = q.pop_due(at).map(key_and_token);
                    prop_assert_eq!(popped, expected, "step {}: pop_due({:?})", step, at);
                }
            }
            if let Some(((t, _), _)) = popped {
                last = last.max(t);
            }
            q.check_invariants();
            prop_assert_eq!(q.len(), model.len(), "step {}: len", step);
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time(), model.first_key_value().map(|(k, _)| k.0));
        }
        prop_assert_eq!((q.cancelled(), q.peak_len()), (cancelled, peak));
        // What is left drains in the model's order, and then every
        // handle is stale.
        while let Some(expected) = model.pop_first() {
            prop_assert_eq!(q.pop().map(key_and_token), Some(expected));
            q.check_invariants();
        }
        prop_assert!(q.pop().is_none());
        prop_assert!(issued.iter().all(|&(h, _)| !q.cancel(h)));
    }
}
