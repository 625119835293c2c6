//! Reusable engine arenas: run many workloads without reallocating.
//!
//! Every engine run goes through an [`EngineScratch`]: a
//! [`Run`](crate::Run) without [`scratch`](crate::Run::scratch) creates
//! one on the spot, while a run given a caller-owned scratch *resets*
//! it instead — the event queue, message table, channel arbitration
//! table, dead-channel flags, CPU-serialization clocks, the
//! failure-cascade stack and the route buffer all keep their
//! allocations between runs.
//!
//! Routes are per-run data: each engine run and each analytic replay
//! clears the route buffer and computes its workload's routes into it,
//! so what a scratch holds follows the largest run it served, not the
//! network or the number of runs.
//!
//! The contract is **byte-identity**: a run replayed into a reused
//! scratch produces a [`RunResult`](crate::RunResult) bit-identical to
//! the fresh-allocation path. The pieces that make this hold are each
//! individually deterministic — the event queue's reset rewinds its
//! sequence counter (same tie-breaking), the channel table's reset
//! restores the pristine free state (cheaply, via a dirty flag that
//! only forces a sweep after runs that didn't drain cleanly), and every
//! route is computed afresh by the deterministic router.
//! `workloads/tests/determinism.rs` pins the claim on cube, torus, and
//! faulted workloads.

use crate::engine::arbitration::Channels;
use crate::engine::events::EventQueue;
use crate::engine::worm::{MsgState, Outcome};
use crate::multicast::AnalyticScratch;
use crate::network::Routes;
use crate::time::SimTime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The reusable arena behind the engine's hot path.
///
/// One scratch serves one engine run at a time; reuse it sequentially
/// (e.g. one scratch per worker thread in a sweep). Reusing across
/// different routers, topologies, and port models is safe — every
/// buffer is reset per run and every route is computed for its run.
///
/// ```
/// use hcube::{Cube, Ecube, NodeId, Resolution};
/// use hypercast::PortModel;
/// use wormsim::{DepMessage, EngineScratch, Run, SimParams, SimTime};
///
/// let router = Ecube::new(Cube::of(4), Resolution::HighToLow);
/// let params = SimParams::ncube2(PortModel::AllPort);
/// let w = [DepMessage { src: NodeId(0), dst: NodeId(5), bytes: 256,
///                       deps: vec![], min_start: SimTime::ZERO }];
/// let mut scratch = EngineScratch::new();
/// let first = Run::new(router, &params, &w).scratch(&mut scratch).run().unwrap();
/// let again = Run::new(router, &params, &w).scratch(&mut scratch).run().unwrap();
/// assert_eq!(first.messages, again.messages); // byte-identical replay
/// ```
#[derive(Default)]
pub struct EngineScratch {
    /// Per-message worm state, reset in place each run.
    pub(crate) msgs: Vec<MsgState>,
    /// Channel arbitration table (holders + FIFO wait queues).
    pub(crate) channels: Channels,
    /// Per-channel dead flags from the run's fault plan.
    pub(crate) dead: Vec<bool>,
    /// Per-node dead flags, filled only while wiring a plan with dead
    /// nodes.
    pub(crate) node_dead: Vec<bool>,
    /// The deterministic event queue: calendar, front slot and heap.
    pub(crate) queue: EventQueue,
    /// Per-node CPU-free clocks for serialized send startup.
    pub(crate) cpu_free: Vec<SimTime>,
    /// Work stack of the failure-cascade walk in `finish`.
    pub(crate) finish_stack: Vec<(usize, Outcome)>,
    /// The current run's routes: `(channel, dimension)` per hop.
    pub(crate) routes: Routes,
    /// Buffers and counters of the analytic tree replay that runs in
    /// front of the engine.
    pub(crate) analytic: AnalyticScratch,
}

impl EngineScratch {
    /// An empty scratch; buffers grow to fit on first use.
    #[must_use]
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }

    /// The analytic replay's accept/decline counters
    /// ([`analytic_replay`](crate::analytic_replay)): how many tree
    /// replays skipped the event engine, and how many fell back to it.
    #[must_use]
    pub fn analytic(&self) -> &AnalyticScratch {
        &self.analytic
    }
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch")
            .field("msgs", &self.msgs.len())
            .field("analytic_accepted", &self.analytic.accepted())
            .field("analytic_declined", &self.analytic.declined())
            .finish_non_exhaustive()
    }
}

/// Runs `count` independent trials across `workers` threads and
/// returns the results **in trial order**, regardless of which worker
/// ran what.
///
/// Each worker owns one [`EngineScratch`] for its whole lifetime and
/// claims trials from a shared atomic counter; results land in their
/// trial's slot. With `workers == 1` (or fewer than two trials)
/// everything runs inline on the calling thread, in one scratch, and
/// no threads are spawned.
///
/// This is the one slot-fill pool in the workspace: the figure matrix
/// (`workloads::sweep`) and the chaos and telemetry sweeps drive their
/// trials through it.
///
/// # Panics
/// If `workers == 0`, or if a worker thread panics (the panic is
/// propagated by the thread scope).
pub fn run_trials<T, F>(workers: usize, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut EngineScratch) -> T + Sync,
{
    assert!(workers > 0, "a trial pool needs at least one worker");
    if workers == 1 || count <= 1 {
        let mut scratch = EngineScratch::new();
        return (0..count).map(|i| run(i, &mut scratch)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(count) {
            scope.spawn(|| {
                let mut scratch = EngineScratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let out = run(i, &mut scratch);
                    *slots[i].lock().expect("trial slot lock poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("trial slot lock poisoned")
                .expect("every trial slot is filled before the scope ends")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_trials_returns_results_in_trial_order() {
        for workers in [1, 2, 5] {
            let out = run_trials(workers, 17, |i, _scratch| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_trials(3, 0, |i, _| i).is_empty());
    }

    #[test]
    fn run_trials_runs_each_trial_once_with_one_scratch_per_worker() {
        for (workers, count) in [(1, 9), (2, 9), (4, 3), (8, 1)] {
            let calls = AtomicUsize::new(0);
            let out = run_trials(workers, count, |i, scratch| {
                calls.fetch_add(1, Ordering::Relaxed);
                (i, std::ptr::from_mut(scratch) as usize)
            });
            assert_eq!(calls.into_inner(), count);
            assert!(out.iter().enumerate().all(|(i, &(j, _))| i == j));
            let scratches: std::collections::BTreeSet<usize> =
                out.iter().map(|&(_, addr)| addr).collect();
            assert!(scratches.len() <= workers.min(count), "{workers} workers");
            if workers == 1 {
                assert_eq!(scratches.len(), 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = run_trials(0, 4, |i, _| i);
    }
}
