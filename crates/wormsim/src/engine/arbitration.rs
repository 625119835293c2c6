//! Channel arbitration state: who holds each channel, who waits, FIFO
//! grant order, and the phantom holder used for stuck-channel faults.
//!
//! The grant contract is **direct hand-off**: when a holder releases a
//! channel with a non-empty wait queue, the FIFO head is granted the
//! channel *atomically at release* ([`Channels::handoff`]). The channel
//! is never observably free in between, so a same-time acquisition
//! attempt that happens to pop later from the event queue cannot steal
//! it — the popped waiter keeps exactly the position its arrival order
//! earned (the paper's Definitions 3–4 assume precisely this: a blocked
//! header proceeds the moment its channel is released).

use crate::time::SimTime;
use std::collections::VecDeque;

/// Phantom holder index marking channels stuck by the fault plan.
pub(crate) const PHANTOM: usize = usize::MAX;

/// Per-channel arbitration state.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChannelState {
    /// The message currently holding the channel ([`PHANTOM`] for a
    /// channel wedged by the fault plan).
    pub holder: Option<usize>,
    /// FIFO of `(message, hop)` pairs waiting for this channel.
    pub queue: VecDeque<(usize, usize)>,
    /// When the current (real) holder acquired the channel; used for
    /// per-dimension busy-time accounting.
    pub acquired_at: SimTime,
}

/// The arbitration table: one [`ChannelState`] per dense channel index.
#[derive(Debug, Default)]
pub(crate) struct Channels {
    states: Vec<ChannelState>,
    /// Whether any channel may deviate from the pristine
    /// free-with-empty-queue state. A run that terminates normally
    /// releases everything, so a reused table usually needs no sweep;
    /// stuck channels and error exits set this and force one.
    dirty: bool,
}

impl Channels {
    /// `len` free channels with empty queues. (The engine itself goes
    /// through [`reset`](Channels::reset) on a default table.)
    #[cfg(test)]
    pub fn new(len: usize) -> Channels {
        Channels {
            states: (0..len).map(|_| ChannelState::default()).collect(),
            dirty: false,
        }
    }

    /// Prepares the table for a run over `len` channels, reusing the
    /// existing per-channel allocations (including each FIFO's
    /// capacity). Cheap when the previous run drained cleanly: a
    /// completed run releases every channel, so only a `dirty` table
    /// (stuck channels, error exits) pays the full sweep.
    pub fn reset(&mut self, len: usize) {
        if self.dirty {
            for s in &mut self.states {
                s.holder = None;
                s.queue.clear();
            }
            self.dirty = false;
        }
        debug_assert!(self
            .states
            .iter()
            .all(|s| s.holder.is_none() && s.queue.is_empty()));
        if self.states.len() < len {
            self.states.resize_with(len, ChannelState::default);
        }
    }

    /// Marks the table as needing a full sweep on the next
    /// [`reset`](Channels::reset) (a run ended without releasing
    /// everything).
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Whether `ch` currently has no holder.
    pub fn is_free(&self, ch: usize) -> bool {
        self.states[ch].holder.is_none()
    }

    /// Grants `ch` to message `m` at time `t`.
    ///
    /// The caller guarantees the channel is free.
    pub fn acquire(&mut self, ch: usize, m: usize, t: SimTime) {
        debug_assert!(self.is_free(ch));
        self.states[ch].holder = Some(m);
        self.states[ch].acquired_at = t;
    }

    /// Atomically releases `ch` (held by `m`) and grants it to the FIFO
    /// head waiter — if any — at `grant_t`. Returns `(held_since,
    /// waiter)`; when a waiter is returned it **already holds** the
    /// channel, so no interleaved acquisition attempt can take it.
    /// (The engine always goes through
    /// [`handoff_from`](Channels::handoff_from), which this delegates
    /// to; kept for the arbitration-level tests.)
    #[cfg(test)]
    pub fn handoff(
        &mut self,
        ch: usize,
        m: usize,
        grant_t: SimTime,
    ) -> (SimTime, Option<(usize, usize)>) {
        self.handoff_from(ch, ch, m, grant_t)
    }

    /// [`handoff`](Channels::handoff) with a separate wait queue: `ch`
    /// (held by `m`) is released, and the FIFO head of `rep`'s queue —
    /// the lane class's *representative* channel, where blocked worms
    /// park under adaptive lane selection — is installed as `ch`'s new
    /// holder. With `rep == ch` this is exactly `handoff`; the direct
    /// hand-off guarantee (never observably free in between) holds
    /// either way.
    pub fn handoff_from(
        &mut self,
        ch: usize,
        rep: usize,
        m: usize,
        grant_t: SimTime,
    ) -> (SimTime, Option<(usize, usize)>) {
        debug_assert_eq!(self.states[ch].holder, Some(m));
        let since = self.states[ch].acquired_at;
        match self.states[rep].queue.pop_front() {
            Some((w, whop)) => {
                self.states[ch].holder = Some(w);
                self.states[ch].acquired_at = grant_t;
                (since, Some((w, whop)))
            }
            None => {
                self.states[ch].holder = None;
                (since, None)
            }
        }
    }

    /// Appends `(m, hop)` to `ch`'s FIFO; returns the queue depth after
    /// the append (for max-depth statistics).
    pub fn enqueue(&mut self, ch: usize, m: usize, hop: usize) -> usize {
        self.states[ch].queue.push_back((m, hop));
        self.states[ch].queue.len()
    }

    /// Current FIFO depth of `ch`'s wait queue.
    pub fn queue_len(&self, ch: usize) -> usize {
        self.states[ch].queue.len()
    }

    /// Removes message `m` from `ch`'s wait queue (abort path).
    pub fn remove_waiter(&mut self, ch: usize, m: usize) {
        self.states[ch].queue.retain(|&(w, _)| w != m);
    }

    /// Wedges `ch` under the phantom holder (stuck-channel fault). The
    /// phantom never releases, so the table is marked dirty for reuse.
    pub fn stick(&mut self, ch: usize) {
        self.states[ch].holder = Some(PHANTOM);
        self.dirty = true;
    }

    /// Iterates over the first `len` channel states (watchdog
    /// inspection; a reused table may be longer than the current run's
    /// channel map).
    pub fn iter(&self) -> impl Iterator<Item = &ChannelState> {
        self.states.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_grants_the_fifo_head_atomically() {
        let mut c = Channels::new(2);
        assert!(c.is_free(0));
        c.acquire(0, 7, SimTime::from_ns(3));
        assert!(!c.is_free(0));
        assert_eq!(c.enqueue(0, 8, 1), 1);
        assert_eq!(c.enqueue(0, 9, 0), 2);
        let (since, first) = c.handoff(0, 7, SimTime::from_ns(10));
        assert_eq!(since, SimTime::from_ns(3));
        assert_eq!(first, Some((8, 1)));
        // The popped waiter already holds the channel: nothing can
        // steal it between release and grant.
        assert!(!c.is_free(0));
        let (since, next) = c.handoff(0, 8, SimTime::from_ns(20));
        assert_eq!(since, SimTime::from_ns(10));
        assert_eq!(next, Some((9, 0)));
        let (_, none) = c.handoff(0, 9, SimTime::from_ns(30));
        assert_eq!(none, None);
        assert!(c.is_free(0));
    }

    #[test]
    fn handoff_from_grants_the_representatives_fifo_head() {
        let mut c = Channels::new(3);
        // Lane class {0, 1} with representative 0: waiters park on 0,
        // but the grant rides whichever lane actually frees up.
        c.acquire(0, 1, SimTime::ZERO);
        c.acquire(1, 2, SimTime::from_ns(2));
        c.enqueue(0, 3, 1);
        c.enqueue(0, 4, 2);
        // Lane 1 releases first: its new holder comes from 0's queue.
        let (since, w) = c.handoff_from(1, 0, 2, SimTime::from_ns(10));
        assert_eq!(since, SimTime::from_ns(2));
        assert_eq!(w, Some((3, 1)));
        assert!(!c.is_free(1));
        // The representative itself still hands off its own queue.
        let (_, w) = c.handoff_from(0, 0, 1, SimTime::from_ns(11));
        assert_eq!(w, Some((4, 2)));
        // Empty queue: the lane becomes free.
        let (_, w) = c.handoff_from(1, 0, 3, SimTime::from_ns(12));
        assert_eq!(w, None);
        assert!(c.is_free(1));
    }

    #[test]
    fn remove_waiter_preserves_order_of_the_rest() {
        let mut c = Channels::new(1);
        c.acquire(0, 1, SimTime::ZERO);
        c.enqueue(0, 2, 0);
        c.enqueue(0, 3, 0);
        c.enqueue(0, 4, 0);
        assert_eq!(c.queue_len(0), 3);
        c.remove_waiter(0, 3);
        assert_eq!(c.queue_len(0), 2);
        let (_, first) = c.handoff(0, 1, SimTime::ZERO);
        assert_eq!(first, Some((2, 0)));
        let (_, next) = c.handoff(0, 2, SimTime::ZERO);
        assert_eq!(next, Some((4, 0)));
    }

    #[test]
    fn stuck_channels_are_never_free() {
        let mut c = Channels::new(1);
        c.stick(0);
        assert!(!c.is_free(0));
        assert_eq!(c.iter().next().unwrap().holder, Some(PHANTOM));
    }

    #[test]
    fn reset_reuses_clean_tables_and_sweeps_dirty_ones() {
        let mut c = Channels::new(2);
        c.acquire(0, 1, SimTime::ZERO);
        let (_, none) = c.handoff(0, 1, SimTime::ZERO);
        assert_eq!(none, None);
        // Clean table: reset is a no-op beyond a length check.
        c.reset(2);
        assert!(c.is_free(0) && c.is_free(1));
        // Dirty table (stuck channel): reset sweeps everything.
        c.stick(1);
        c.reset(2);
        assert!(c.is_free(1));
        // Growing allocates the new slots free.
        c.reset(5);
        assert!((0..5).all(|ch| c.is_free(ch)));
    }
}
