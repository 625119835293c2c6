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

/// The reusable arena behind the engine's hot path.
///
/// One scratch serves one engine run at a time; reuse it sequentially
/// (e.g. one scratch for every trial of a sweep grid). Reusing across
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
