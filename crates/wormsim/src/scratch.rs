//! Reusable engine arenas: run many workloads without reallocating.
//!
//! Every engine run goes through an [`EngineScratch`]: a
//! [`Run`](crate::Run) without [`scratch`](crate::Run::scratch) creates
//! one on the spot, while a run given a caller-owned scratch *resets*
//! it instead — the event heap, message table, channel arbitration
//! table, dead-channel flags,
//! CPU-serialization clocks, and the failure-cascade stack all keep
//! their allocations between runs, and the embedded
//! [`RouteMemo`] keeps the routes themselves.
//!
//! The contract is **byte-identity**: a run replayed into a reused
//! scratch produces a [`RunResult`](crate::RunResult) bit-identical to
//! the fresh-allocation path. The pieces that make this hold are each
//! individually deterministic — the event queue's reset rewinds its
//! sequence counter (same tie-breaking), the channel table's reset
//! restores the pristine free state (cheaply, via a dirty flag that
//! only forces a sweep after runs that didn't drain cleanly), and the
//! route memo returns the same deterministic channel sequences a fresh
//! computation would. `workloads/tests/determinism.rs` pins the claim
//! on cube, torus, and faulted workloads.

use crate::engine::arbitration::Channels;
use crate::engine::events::EventQueue;
use crate::engine::worm::{MsgState, Outcome};
use crate::network::RouteMemo;
use crate::time::SimTime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The reusable arena behind the engine's hot path.
///
/// One scratch serves one engine run at a time; reuse it sequentially
/// (e.g. one scratch per worker thread in a sweep). Reusing across
/// different routers, topologies, and port models is safe — every
/// buffer is resized per run and the route memo restamps itself.
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
/// assert!(scratch.route_memo().hits() > 0);   // routes were reused
/// ```
#[derive(Default)]
pub struct EngineScratch {
    /// Per-message worm state, reset in place each run.
    pub(crate) msgs: Vec<MsgState>,
    /// Channel arbitration table (holders + FIFO wait queues).
    pub(crate) channels: Channels,
    /// Per-channel dead flags from the run's fault plan.
    pub(crate) dead: Vec<bool>,
    /// The deterministic event heap.
    pub(crate) queue: EventQueue,
    /// Per-node CPU-free clocks for serialized send startup.
    pub(crate) cpu_free: Vec<SimTime>,
    /// Work stack of the failure-cascade walk in `finish`.
    pub(crate) finish_stack: Vec<(usize, Outcome)>,
    /// Memoized `(src, dst, port_model) → route` channel sequences.
    pub(crate) memo: RouteMemo,
    /// Per-dimension external-channel counts, keyed by the router stamp
    /// they were computed for — recomputing them walks every external
    /// channel, which a reused scratch skips.
    pub(crate) dim_channels: Vec<u32>,
    /// External-channel → coordinate-dimension table, cached alongside
    /// `dim_channels`: the per-release busy-time accounting reads this
    /// instead of re-deriving the dimension from channel coordinates.
    pub(crate) dim_table: Vec<u8>,
    /// The router stamp `dim_channels` / `dim_table` belong to.
    pub(crate) dim_stamp: Option<u64>,
}

impl EngineScratch {
    /// An empty scratch; buffers grow to fit on first use.
    #[must_use]
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }

    /// The embedded route memo (hit/miss counters, memoized-route
    /// count) — the observability hook the benchmark harness reports.
    #[must_use]
    pub fn route_memo(&self) -> &RouteMemo {
        &self.memo
    }

    /// Drops the memoized routes (the arenas themselves keep their
    /// allocations; they are reset per run anyway).
    pub fn clear_routes(&mut self) {
        self.memo.clear();
    }
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch")
            .field("msgs", &self.msgs.len())
            .field("memoized_routes", &self.memo.len())
            .field("memo_hits", &self.memo.hits())
            .field("memo_misses", &self.memo.misses())
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
/// (`workloads::sweep`), the chaos and telemetry sweeps and
/// `engine_bench` all drive their trials through it.
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
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = run_trials(0, 4, |i, _| i);
    }
}
