//! The post-drain watchdog: classifies why a run ended with unfinished
//! messages.
//!
//! When the event queue drains while messages remain unfinished, exactly
//! one of two things happened:
//!
//! * no unfinished message is waiting on a channel — then the dependency
//!   graph itself is unsatisfiable (a cycle, or dependence on a message
//!   that can never be sent): [`SimError::DependencyCycle`];
//! * some messages are parked in channel FIFOs that will never pop —
//!   a genuine wormhole deadlock (stuck channels or a cyclic wait):
//!   [`SimError::Deadlock`], reported with the holder and waiter sets so
//!   the caller can see the wait-for structure.
//!
//! The verdict is purely an inspection of terminal state; it is the same
//! for every topology backend because it never decodes channel indices.

use crate::engine::arbitration::{Channels, PHANTOM};
use crate::engine::outcomes::SimError;
use crate::engine::worm::MsgState;
use crate::time::SimTime;

/// Classifies a drained-but-unfinished run. `at` is the time of the last
/// processed event.
pub(crate) fn verdict(msgs: &[MsgState], channels: &Channels, at: SimTime) -> SimError {
    let waiters: Vec<usize> = (0..msgs.len())
        .filter(|&i| msgs[i].outcome.is_none() && msgs[i].queued)
        .collect();
    if waiters.is_empty() {
        let stuck: Vec<usize> = (0..msgs.len())
            .filter(|&i| msgs[i].outcome.is_none())
            .collect();
        return SimError::DependencyCycle { stuck };
    }
    let mut holders: Vec<usize> = channels
        .iter()
        .filter(|c| !c.queue.is_empty())
        .filter_map(|c| c.holder)
        .filter(|&h| h != PHANTOM)
        .collect();
    holders.sort_unstable();
    holders.dedup();
    SimError::Deadlock {
        at,
        holders,
        waiters,
    }
}
