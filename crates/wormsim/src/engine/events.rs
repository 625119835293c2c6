//! The event vocabulary and the deterministic event queue.
//!
//! Determinism contract: events are ordered by `(time, insertion
//! sequence)` — ties at the same simulated time are broken by insertion
//! order, never by message index or queue internals. Every run of the
//! same workload therefore pops events in exactly the same order, which
//! is what makes whole [`RunResult`](crate::engine::RunResult)s
//! byte-for-byte reproducible.
//!
//! The queue keeps three stores, and only in-flight worms' events
//! live in the heap:
//!
//! - the **calendar**, a vector of the events scheduled before the loop
//!   starts (the window close, each root's `Eligible`, each per-message
//!   `Deadline`), sorted once by [`EventQueue::seal`] and consumed by a
//!   cursor;
//! - the **front slot**, one entry holding a loop push whose key is below
//!   everything queued: it is the very next pop, so it never enters the
//!   heap;
//! - the **heap**, a 4-ary min-heap of every other loop push.
//!
//! A pop takes the front slot if it is full, else the smaller of the
//! calendar head and the heap top. Each store yields its minimum, and
//! every key `(time << 64) | seq` is unique, so the pop sequence is the
//! one a single heap over all events would give: which store an event
//! sits in cannot change the order.

use crate::engine::outcomes::SimError;
use crate::time::SimTime;

/// One scheduled state transition of the event loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Event {
    /// All dependencies of the message are delivered; start send
    /// processing.
    Eligible(usize),
    /// The message attempts to acquire channel `hop` of its route.
    TryAcquire(usize, usize),
    /// The message's tail has drained; release channels and deliver.
    Complete(usize),
    /// The message's deadline passes; abort it if undelivered.
    Deadline(usize),
    /// The plan-wide observation window closes: every message without a
    /// per-message deadline override that is still undelivered aborts,
    /// in workload order. Scheduled once per run (before any other
    /// event, so at its time it outranks every same-time event — the
    /// window is the half-open interval `[0, close)`), replacing one
    /// `Deadline` event per message on the open-loop hot path.
    WindowClose,
}

/// Width of the message-index field in the packed heap payload.
const MSG_BITS: usize = 28;
const MSG_MASK: usize = (1 << MSG_BITS) - 1;

/// Largest workload the event encoding can address (message indices
/// occupy [`MSG_BITS`] bits of the packed payload).
pub(crate) const MAX_MESSAGES: usize = MSG_MASK + 1;

/// Typed guard for the event-encoding capacity: a workload larger than
/// [`MAX_MESSAGES`] would silently corrupt the packed payload in
/// release builds (the `debug_assert!` in the event encoding only
/// fires in debug builds), so `Engine::new` rejects it up front.
///
/// # Errors
/// [`SimError::WorkloadTooLarge`] when `len > MAX_MESSAGES`.
pub(crate) fn check_workload_size(len: usize) -> Result<(), SimError> {
    if len > MAX_MESSAGES {
        return Err(SimError::WorkloadTooLarge {
            messages: len,
            max: MAX_MESSAGES,
        });
    }
    Ok(())
}

/// Heap arity: four children per node halves the tree height of a
/// binary heap, and the hot sift-down loop scans sibling entries that
/// sit in two adjacent cache lines.
const ARITY: usize = 4;

/// One queued event: `(key, payload)` with `key = (time << 64) | seq`.
/// The payload packs `(hop << 32) | (kind << MSG_BITS) | message` and
/// never takes part in ordering.
type Entry = (u128, u64);

/// The events of one run, popped in `(time, sequence number)` order.
///
/// The heap is a first-party 4-ary array heap (the std `BinaryHeap` pop
/// dominated the engine profile — its full-height sift-down over 32-byte
/// tuples was ~40% of a windowed run). Packing the key into one `u128`
/// makes every comparison a single branchless wide compare instead of a
/// two-field lexicographic branch chain. Keeping the pre-scheduled
/// arrivals in the calendar holds the heap to the in-flight worms, so
/// its sift paths stay short however many sessions a run admits.
///
/// Usage: [`push_initial`](EventQueue::push_initial) every event known
/// before the loop, [`seal`](EventQueue::seal) once, then interleave
/// [`push`](EventQueue::push) and [`pop`](EventQueue::pop).
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Loop pushes in 4-ary heap order.
    heap: Vec<Entry>,
    /// Pre-loop events, sorted by key once sealed; `calendar[cursor..]`
    /// are still pending.
    calendar: Vec<Entry>,
    cursor: usize,
    /// A loop push below every other queued key: the next pop.
    front: Option<Entry>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue. (The engine itself resets a default queue held
    /// in its scratch.)
    #[cfg(test)]
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Empties the queue and rewinds the sequence counter, keeping the
    /// heap's and the calendar's allocations. A reset queue is
    /// indistinguishable from a fresh one — including the
    /// insertion-order tie-breaking, which is what makes scratch-reused
    /// runs byte-identical to fresh ones.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.calendar.clear();
        self.cursor = 0;
        self.front = None;
        self.seq = 0;
    }

    /// Makes room for `n` more [`push_initial`](EventQueue::push_initial)
    /// events in one allocation.
    pub fn reserve_initial(&mut self, n: usize) {
        self.calendar.reserve(n);
    }

    /// Schedules `e` at time `t` before the event loop starts, in any
    /// time order. Call [`seal`](EventQueue::seal) before the first
    /// [`push`](EventQueue::push) or [`pop`](EventQueue::pop).
    pub fn push_initial(&mut self, t: SimTime, e: Event) {
        debug_assert!(self.cursor == 0 && self.front.is_none() && self.heap.is_empty());
        let entry = self.entry(t, e);
        self.calendar.push(entry);
    }

    /// Sorts the calendar by key. Sessions arrive in time order, so the
    /// roots usually come sorted and only the window close, pushed
    /// ahead of them, is out of place: it is rotated into position
    /// instead of sorting the whole calendar.
    pub fn seal(&mut self) {
        let cal = &mut self.calendar;
        if cal.is_sorted_by_key(|e| e.0) {
            return;
        }
        if cal[1..].is_sorted_by_key(|e| e.0) {
            let at = cal[1..].partition_point(|e| e.0 < cal[0].0);
            cal[..=at].rotate_left(1);
        } else {
            cal.sort_unstable_by_key(|e| e.0);
        }
    }

    /// Schedules `e` at time `t` from inside the event loop.
    pub fn push(&mut self, t: SimTime, e: Event) {
        let entry = self.entry(t, e);
        match self.front {
            // The smaller of the two stays in front; keys are unique.
            Some(front) if entry.0 < front.0 => {
                self.front = Some(entry);
                self.heap_push(front);
            }
            Some(_) => self.heap_push(entry),
            None => {
                let below_heap = self.heap.first().is_none_or(|h| entry.0 < h.0);
                let below_calendar = self.calendar.get(self.cursor).is_none_or(|c| entry.0 < c.0);
                if below_heap && below_calendar {
                    self.front = Some(entry);
                } else {
                    self.heap_push(entry);
                }
            }
        }
    }

    /// Pops the earliest event (FIFO among same-time events).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (key, payload) = match self.front.take() {
            Some(entry) => entry,
            None => match self.calendar.get(self.cursor).copied() {
                Some(c) if self.heap.first().is_none_or(|h| c.0 < h.0) => {
                    self.cursor += 1;
                    c
                }
                _ => self.heap_pop()?,
            },
        };
        let t = SimTime::from_ns((key >> 64) as u64);
        let m = (payload as usize) & MSG_MASK;
        let hop = (payload >> 32) as usize;
        let e = match (payload >> MSG_BITS) & 0xf {
            0 => Event::Eligible(m),
            1 => Event::TryAcquire(m, hop),
            2 => Event::Complete(m),
            3 => Event::Deadline(m),
            4 => Event::WindowClose,
            _ => unreachable!("corrupt event encoding"),
        };
        Some((t, e))
    }

    /// The heap's allocated capacity, in entries.
    #[cfg(test)]
    pub fn heap_capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Encodes `e` at `t` under the next sequence number.
    fn entry(&mut self, t: SimTime, e: Event) -> Entry {
        let (kind, m, hop) = match e {
            Event::Eligible(m) => (0u64, m, 0usize),
            Event::TryAcquire(m, h) => (1, m, h),
            Event::Complete(m) => (2, m, 0),
            Event::Deadline(m) => (3, m, 0),
            Event::WindowClose => (4, 0, 0),
        };
        debug_assert!(m <= MSG_MASK, "workload too large for event encoding");
        let payload = ((hop as u64) << 32) | (kind << MSG_BITS) | m as u64;
        let key = (u128::from(t.as_ns()) << 64) | u128::from(self.seq);
        self.seq += 1;
        (key, payload)
    }

    fn heap_push(&mut self, entry: Entry) {
        // Sift up with a hole: move parents down until `entry` fits.
        let mut hole = self.heap.len();
        self.heap.push(entry);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = entry;
    }

    fn heap_pop(&mut self) -> Option<Entry> {
        let top = self.heap.first().copied()?;
        // Move the last entry into the root hole and sift it down.
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            let mut hole = 0;
            loop {
                let first_child = hole * ARITY + 1;
                if first_child >= self.heap.len() {
                    break;
                }
                let end = (first_child + ARITY).min(self.heap.len());
                let mut min = first_child;
                for c in first_child + 1..end {
                    if self.heap[c].0 < self.heap[min].0 {
                        min = c;
                    }
                }
                if last.0 <= self.heap[min].0 {
                    break;
                }
                self.heap[hole] = self.heap[min];
                hole = min;
            }
            self.heap[hole] = last;
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(5), Event::Complete(1));
        q.push(SimTime::from_ns(1), Event::Eligible(2));
        q.push(SimTime::from_ns(5), Event::TryAcquire(3, 7));
        q.push(SimTime::from_ns(5), Event::Deadline(0));
        let order: Vec<(SimTime, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_ns(1), Event::Eligible(2)),
                (SimTime::from_ns(5), Event::Complete(1)),
                (SimTime::from_ns(5), Event::TryAcquire(3, 7)),
                (SimTime::from_ns(5), Event::Deadline(0)),
            ]
        );
    }

    #[test]
    fn round_trips_every_event_kind() {
        let mut q = EventQueue::new();
        let events = [
            Event::Eligible(11),
            Event::TryAcquire(12, 3),
            Event::Complete(13),
            Event::Deadline(14),
            Event::WindowClose,
        ];
        for (i, e) in events.iter().enumerate() {
            q.push(SimTime::from_ns(i as u64), *e);
        }
        for e in events {
            assert_eq!(q.pop().unwrap().1, e);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn reset_rewinds_the_sequence_counter() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), Event::Eligible(0));
        q.push(SimTime::from_ns(1), Event::Complete(1));
        q.reset();
        assert!(q.pop().is_none());
        // After reset, same-time tie-breaking replays identically to a
        // fresh queue: insertion order wins again from sequence zero.
        q.push(SimTime::from_ns(5), Event::Deadline(3));
        q.push(SimTime::from_ns(5), Event::Eligible(2));
        assert_eq!(q.pop().unwrap().1, Event::Deadline(3));
        assert_eq!(q.pop().unwrap().1, Event::Eligible(2));
    }

    #[test]
    fn calendar_interleaves_with_loop_pushes_by_key() {
        let mut q = EventQueue::new();
        q.push_initial(SimTime::from_ns(9), Event::WindowClose);
        q.push_initial(SimTime::from_ns(1), Event::Eligible(0));
        q.push_initial(SimTime::from_ns(4), Event::Eligible(1));
        q.seal();
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), Event::Eligible(0))));
        // Below the calendar head: taken by the front slot.
        q.push(SimTime::from_ns(2), Event::TryAcquire(0, 0));
        // A smaller push displaces the front entry into the heap.
        q.push(SimTime::from_ns(1), Event::Complete(2));
        // Same time as a calendar entry, but a later sequence number.
        q.push(SimTime::from_ns(4), Event::Complete(0));
        let order: Vec<(SimTime, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_ns(1), Event::Complete(2)),
                (SimTime::from_ns(2), Event::TryAcquire(0, 0)),
                (SimTime::from_ns(4), Event::Eligible(1)),
                (SimTime::from_ns(4), Event::Complete(0)),
                (SimTime::from_ns(9), Event::WindowClose),
            ]
        );
    }

    #[test]
    fn oversized_workloads_are_rejected_with_a_typed_error() {
        assert!(check_workload_size(0).is_ok());
        assert!(check_workload_size(MAX_MESSAGES).is_ok());
        match check_workload_size(MAX_MESSAGES + 1) {
            Err(SimError::WorkloadTooLarge { messages, max }) => {
                assert_eq!(messages, MAX_MESSAGES + 1);
                assert_eq!(max, 1 << 28);
            }
            other => panic!("expected WorkloadTooLarge, got {other:?}"),
        }
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The `i`-th pushed event: every kind, with the push index as
        /// its message so a payload mix-up shows.
        fn event(i: usize) -> Event {
            match i % 5 {
                0 => Event::Eligible(i),
                1 => Event::TryAcquire(i, i % 7),
                2 => Event::Complete(i),
                3 => Event::Deadline(i),
                _ => Event::WindowClose,
            }
        }

        /// Replays one run on `q` and on a `BTreeMap` keyed by
        /// `(time, seq)`: `calendar` times go through `push_initial`
        /// (sorted first when `shape` is 1; sorted but for a late head
        /// when 2, the window-close layout), then `seal`; each op pushes
        /// at `now + dt` or pops (`kind == 0`). With `drain`, the queue
        /// is emptied at the end; without, the leftovers are for
        /// `reset` to clear.
        fn replay(
            q: &mut EventQueue,
            mut calendar: Vec<u64>,
            shape: u8,
            ops: &[(u8, u64)],
            drain: bool,
        ) -> Result<(), TestCaseError> {
            if shape > 0 {
                calendar.sort_unstable();
            }
            if shape == 2 {
                calendar.insert(0, calendar.last().map_or(0, |t| t + 1));
            }
            let mut model = BTreeMap::new();
            let mut seq = 0usize;
            for &t in &calendar {
                q.push_initial(SimTime::from_ns(t), event(seq));
                model.insert((t, seq), event(seq));
                seq += 1;
            }
            q.seal();
            let mut now = 0;
            let pops = if drain { model.len() + ops.len() } else { 0 };
            for &(kind, dt) in ops.iter().chain(std::iter::repeat_n(&(0, 0), pops)) {
                if kind == 0 {
                    let want = model
                        .pop_first()
                        .map(|((t, _), e)| (SimTime::from_ns(t), e));
                    let got = q.pop();
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        now = t.as_ns();
                    }
                } else {
                    q.push(SimTime::from_ns(now + dt), event(seq));
                    model.insert((now + dt, seq), event(seq));
                    seq += 1;
                }
            }
            if drain {
                prop_assert!(q.pop().is_none());
            }
            Ok(())
        }

        proptest! {
            /// Two runs on one queue pop exactly the `(time, seq)` order
            /// of an ordered map: the first stops with events still
            /// queued, and the second, after `reset`, drains. Small time
            /// ranges make same-time ties common, and the calendar
            /// arrives in random, sorted or late-head order.
            #[test]
            fn pops_match_an_ordered_map(
                runs in prop::collection::vec(
                    (
                        prop::collection::vec(0u64..12, 0..40),
                        0u8..3,
                        prop::collection::vec((0u8..3, 0u64..4), 0..120),
                    ),
                    2,
                ),
            ) {
                let mut q = EventQueue::new();
                for (i, (calendar, shape, ops)) in runs.into_iter().enumerate() {
                    q.reset();
                    replay(&mut q, calendar, shape, &ops, i == 1)?;
                }
            }
        }
    }
}
