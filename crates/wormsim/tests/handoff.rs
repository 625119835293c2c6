//! Regression suite for the FIFO hand-off contract.
//!
//! The paper's contention theory (Definitions 3–4, Theorem 3) assumes a
//! blocked header proceeds the moment its channel's holder releases it.
//! The engine once implemented release as *free the channel and push a
//! retry event for the popped waiter*: any already-queued same-time
//! acquisition attempt then popped **before** the waiter's retry, stole
//! the channel, and sent the waiter to the *back* of the FIFO — losing
//! the position its arrival order had earned. The fix grants the
//! channel to the FIFO head atomically at release (`Channels::handoff`).
//!
//! `fifo_waiter_is_not_stolen_by_a_same_time_arrival` constructs the
//! steal deterministically and pins the post-fix schedule; the other
//! tests pin the neighbouring invariants (hand-off chains, scratch
//! replay of the same scenario).

use hcube::{Cube, Ecube, NodeId, Resolution};
use hypercast::PortModel;
use wormsim::{DepMessage, EngineScratch, Run, RunResult, SimParams, SimTime};

/// A fault-free, unobserved run of a well-formed workload on `cube`.
fn replay(cube: Cube, params: &SimParams, workload: &[DepMessage]) -> RunResult {
    let router = Ecube::new(cube, Resolution::HighToLow);
    Run::new(router, params, workload).run().unwrap()
}

fn msg(src: u32, dst: u32, bytes: u32, min_start: u64) -> DepMessage {
    DepMessage {
        src: NodeId(src),
        dst: NodeId(dst),
        bytes,
        deps: vec![],
        min_start: SimTime::from_ns(min_start),
    }
}

/// The steal construction, on a 2-cube with ideal parameters
/// (`t_send_sw = t_recv_sw = 0`, `t_hop = t_byte = 1 ns`). All three
/// messages use the single external channel `0 → 1`:
///
/// * `A` (msg 0): starts at 0, acquires the channel at 0, tail drains
///   at `1 + 10 = 11` — so the channel releases at t = 11.
/// * `B` (msg 1): starts at 1, finds the channel busy, queues as the
///   FIFO head at t = 1.
/// * `D` (msg 2): `min_start = 11`. Its `Eligible` event was pushed at
///   setup (sequence 2) and therefore pops *before* A's `Complete`
///   (pushed later, at acquisition time) — so D's `TryAcquire` at
///   t = 11 is already in the heap when A releases the channel.
///
/// Pre-fix: the release freed the channel and re-queued B's retry
/// *behind* D's attempt; D stole the channel (delivered at 22) and B —
/// who had waited since t = 1 — was pushed to the back (delivered at
/// 33, with a second port-wait episode). Post-fix: B holds the channel
/// the instant A releases it.
#[test]
fn fifo_waiter_is_not_stolen_by_a_same_time_arrival() {
    let params = SimParams::ideal(PortModel::AllPort);
    let workload = [msg(0, 1, 10, 0), msg(0, 1, 10, 1), msg(0, 1, 10, 11)];
    let run = replay(Cube::of(2), &params, &workload);

    let a = &run.messages[0];
    let b = &run.messages[1];
    let d = &run.messages[2];
    assert_eq!(a.delivered, SimTime::from_ns(11));

    // B was the FIFO head: it is granted the channel atomically at
    // A's release and delivers first. (Pre-fix this asserted 33.)
    assert_eq!(
        b.delivered,
        SimTime::from_ns(22),
        "FIFO head must be granted the channel at release, not re-raced"
    );
    // D arrived while the channel was reserved for B; it waits its turn.
    assert_eq!(d.delivered, SimTime::from_ns(33));

    // B blocked exactly once (pre-fix the steal re-queued it: 2).
    assert_eq!(b.port_waits, 1, "the popped waiter must keep its grant");
    assert_eq!(b.blocked_time, SimTime::from_ns(10)); // 1 → 11
    assert_eq!(d.port_waits, 1);
    assert_eq!(d.blocked_time, SimTime::from_ns(11)); // 11 → 22
    assert_eq!(run.stats.port_waits, 2);
}

/// A three-deep wait queue drains strictly in arrival order, each
/// waiter granted at the previous holder's release instant.
#[test]
fn handoff_chain_preserves_arrival_order() {
    let params = SimParams::ideal(PortModel::AllPort);
    // Four same-channel messages arriving in a staggered order.
    let workload = [
        msg(0, 1, 10, 0),
        msg(0, 1, 10, 3),
        msg(0, 1, 10, 2),
        msg(0, 1, 10, 5),
    ];
    let run = replay(Cube::of(2), &params, &workload);
    // Holder delivers at 11; then waiters in arrival order 2, 1, 3 at
    // 22, 33, 44.
    assert_eq!(run.messages[0].delivered, SimTime::from_ns(11));
    assert_eq!(run.messages[2].delivered, SimTime::from_ns(22));
    assert_eq!(run.messages[1].delivered, SimTime::from_ns(33));
    assert_eq!(run.messages[3].delivered, SimTime::from_ns(44));
}

/// The steal scenario replayed through a reused scratch is
/// byte-identical to the fresh-allocation run — the hand-off fix and
/// the arena layer compose.
#[test]
fn handoff_semantics_survive_scratch_reuse() {
    let params = SimParams::ideal(PortModel::AllPort);
    let workload = [msg(0, 1, 10, 0), msg(0, 1, 10, 1), msg(0, 1, 10, 11)];
    let fresh = replay(Cube::of(2), &params, &workload);
    let router = hcube::Ecube::new(Cube::of(2), Resolution::HighToLow);
    let mut scratch = EngineScratch::new();
    for _ in 0..3 {
        let again = Run::new(router, &params, &workload)
            .scratch(&mut scratch)
            .run()
            .unwrap();
        assert_eq!(fresh.messages, again.messages);
        assert_eq!(fresh.stats, again.stats);
    }
    assert!(scratch.route_memo().hits() > 0);
}
