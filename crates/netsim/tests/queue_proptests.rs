//! Property tests for the event queue's indexed heap: random
//! interleavings of `push` / `cancel` / `pop` / `pop_due` against an
//! ordered-map model.
//!
//! * Order: events leave in `(time, push order)` order, whatever was
//!   cancelled around them — firing times come from a range of eight
//!   instants, so most pushes tie with something pending.
//! * Cancellation: `cancel` returns true exactly when the model still
//!   holds the event, for handles that are live, already fired, already
//!   cancelled, or whose slot a later event has taken over.
//! * Index: after every operation each slot's recorded position points
//!   at its own heap entry and every parent orders before its children
//!   (`EventQueue::check_invariants`).

use std::collections::BTreeMap;

use proptest::prelude::*;

use netsim::event::{Event, EventHandle, EventKind, EventQueue};
use netsim::{NodeId, Time, TimerToken};

/// `(at, seq) -> token` of every pending event.
type Model = BTreeMap<(Time, u64), TimerToken>;

fn key_and_token(ev: Event) -> ((Time, u64), TimerToken) {
    match ev.kind {
        EventKind::Timer { token, .. } => ((ev.at, ev.seq), token),
        other => panic!("only timers were pushed, popped {other:?}"),
    }
}

proptest! {
    #[test]
    fn queue_agrees_with_an_ordered_map(
        ops in proptest::collection::vec((0u8..10, 0u64..8, any::<usize>()), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::new();
        // Every handle ever issued, with the key it was issued for.
        let mut issued: Vec<(EventHandle, (Time, u64))> = Vec::new();
        let (mut cancelled, mut peak) = (0u64, 0usize);
        for (step, &(op, instant, pick)) in ops.iter().enumerate() {
            match op {
                0..=3 => {
                    let key = (Time::from_nanos(instant), issued.len() as u64);
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
                    let popped = q.pop().map(key_and_token);
                    prop_assert_eq!(popped, model.pop_first(), "step {}: pop", step);
                }
                _ => {
                    let deadline = Time::from_nanos(instant);
                    let due = model.first_key_value().is_some_and(|(k, _)| k.0 <= deadline);
                    let expected = if due { model.pop_first() } else { None };
                    let popped = q.pop_due(deadline).map(key_and_token);
                    prop_assert_eq!(popped, expected, "step {}: pop_due({:?})", step, deadline);
                }
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
