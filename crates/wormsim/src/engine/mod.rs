//! The discrete-event wormhole simulation engine.
//!
//! The engine executes a *dependency workload*: a set of messages, each
//! of which becomes eligible once a set of earlier messages has been
//! delivered (multicast trees, reductions, or arbitrary traffic). Each
//! message is simulated at channel granularity:
//!
//! 1. After its dependencies deliver, the sending processor spends
//!    `t_send_sw` (serialized per node when `cpu_serialized_startup`).
//! 2. The worm's header then acquires the channels of its route in order,
//!    paying `t_hop` per external channel; if a channel is busy the worm
//!    *blocks in place*, holding everything acquired so far — wormhole
//!    semantics — and queues FIFO on the busy channel.
//! 3. After the last acquisition the payload drains in `bytes · t_byte`;
//!    all held channels release at drain completion (tail-pass
//!    approximation, see DESIGN.md) and delivery completes `t_recv_sw`
//!    later.
//!
//! ## Layering
//!
//! The engine is split into focused submodules (DESIGN.md §9):
//! [`events`](self) — the deterministic event queue; `worm` — message
//! state machines; `arbitration` — per-channel holder/FIFO state;
//! `watchdog` — the post-drain deadlock classifier; `outcomes` — the
//! public result and error types; `core` — the event loop itself. The
//! loop is **generic over the router**: it runs any [`Router`] backend
//! (hypercube E-cube, torus dimension-ordered with dateline virtual
//! channels, …).
//!
//! ## One entry point
//!
//! Every run goes through [`Run`]:
//! `Run::new(router, &params, &workload)` plus the optional
//! [`faults`](Run::faults), [`window`](Run::window),
//! [`probe`](Run::probe) and [`scratch`](Run::scratch), ended by
//! [`run`](Run::run), which returns one `Result`. `Run` is
//! statically dispatched: the default probe is [`NoopProbe`], so an
//! unobserved run compiles to the bare event loop.
//!
//! ## Faults and the watchdog
//!
//! [`Run::faults`] threads a [`FaultPlan`] through the run:
//! dead channels abort worms ([`Outcome::Failed`]), stall windows delay
//! acquisition, deadlines abort undelivered messages
//! ([`Outcome::TimedOut`]), and stuck channels wedge their waiters
//! forever. When the event heap drains with unfinished messages the
//! engine's *watchdog* examines the channel wait-for state and reports
//! [`SimError::Deadlock`] with the holder and waiter sets — the typed
//! replacement for silently dropping messages or spinning.
//!
//! The engine is fully deterministic: integer time, FIFO queues, and a
//! sequence-numbered event heap.

pub(crate) mod arbitration;
mod core;
pub(crate) mod events;
mod outcomes;
mod watchdog;
pub(crate) mod worm;

#[cfg(test)]
mod tests;

pub use outcomes::{NetStats, RunResult, SimError};
pub use worm::{DepMessage, FaultCause, MessageResult, Outcome};

use crate::faults::FaultPlan;
use crate::params::SimParams;
use crate::probe::{NoopProbe, Probe};
use crate::scratch::EngineScratch;
use crate::time::SimTime;
use hcube::Router;

/// One engine run: a dependency workload on a routed topology, with an
/// optional fault plan, observation window, probe and scratch.
///
/// ```
/// use hcube::{Cube, Ecube, NodeId, Resolution};
/// use hypercast::PortModel;
/// use wormsim::{DepMessage, Run, SimParams, SimTime};
///
/// // A two-stage forward: 0 → 4, then 4 → 6 after delivery.
/// let workload = vec![
///     DepMessage { src: NodeId(0), dst: NodeId(4), bytes: 1024,
///                  deps: vec![], min_start: SimTime::ZERO },
///     DepMessage { src: NodeId(4), dst: NodeId(6), bytes: 1024,
///                  deps: vec![0], min_start: SimTime::ZERO },
/// ];
/// let router = Ecube::new(Cube::of(3), Resolution::HighToLow);
/// let params = SimParams::ncube2(PortModel::AllPort);
/// let run = Run::new(router, &params, &workload).run().unwrap();
/// assert!(run.messages[1].injected >= run.messages[0].delivered);
/// assert_eq!(run.stats.blocks, 0);
/// ```
///
/// Fault-free runs of valid workloads cannot fail; callers that know
/// their workload is well formed `expect` the result.
#[must_use = "a Run does nothing until `.run()` is called"]
pub struct Run<'a, R: Router, P: Probe = NoopProbe> {
    router: R,
    params: &'a SimParams,
    workload: &'a [DepMessage],
    faults: Option<&'a FaultPlan>,
    horizon: Option<SimTime>,
    probe: Option<&'a mut P>,
    scratch: Option<&'a mut EngineScratch>,
}

impl<'a, R: Router> Run<'a, R> {
    /// A fault-free, unbounded, unobserved run of `workload` on
    /// `router`, in a fresh scratch. Any [`Router`] backend works:
    ///
    /// ```
    /// use hcube::{NodeId, Torus, TorusRouter};
    /// use hypercast::PortModel;
    /// use wormsim::{DepMessage, Run, SimParams, SimTime};
    ///
    /// let torus = Torus::of(4, 2);
    /// let params = SimParams::ncube2(PortModel::AllPort);
    /// let w = [DepMessage { src: torus.node_at(&[0, 0]), dst: torus.node_at(&[2, 3]),
    ///                       bytes: 1024, deps: vec![], min_start: SimTime::ZERO }];
    /// let run = Run::new(TorusRouter::new(torus), &params, &w).run().unwrap();
    /// assert!(run.messages[0].outcome.is_delivered());
    /// ```
    pub fn new(router: R, params: &'a SimParams, workload: &'a [DepMessage]) -> Run<'a, R> {
        Run {
            router,
            params,
            workload,
            faults: None,
            horizon: None,
            probe: None,
            scratch: None,
        }
    }
}

impl<'a, R: Router, P: Probe> Run<'a, R, P> {
    /// Injects a fault plan: dead channels abort worms
    /// ([`Outcome::Failed`]), stall windows delay acquisition,
    /// deadlines abort undelivered messages ([`Outcome::TimedOut`]),
    /// and stuck channels wedge their waiters, which the watchdog
    /// reports as [`SimError::Deadlock`].
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Bounds the run by an observation window: messages still
    /// undelivered at `horizon` abort with [`Outcome::TimedOut`]
    /// instead of extending the run.
    ///
    /// This is the open-loop `traffic` engine's mode: a saturated
    /// network would otherwise let the backlog, and the simulated run,
    /// grow without bound. The window is a global deadline, so windowed
    /// runs share every code path with unbounded ones; below
    /// saturation, a window larger than the natural makespan changes
    /// nothing. A message whose `min_start` lies beyond the horizon
    /// times out at the horizon. With [`faults`](Run::faults) as well,
    /// the window overrides the plan's own default deadline (the plan
    /// is copied once for the run).
    ///
    /// ```
    /// use hcube::{Cube, Ecube, NodeId, Resolution};
    /// use hypercast::PortModel;
    /// use wormsim::{DepMessage, Outcome, Run, SimParams, SimTime};
    ///
    /// let router = Ecube::new(Cube::of(3), Resolution::HighToLow);
    /// let params = SimParams::ncube2(PortModel::AllPort);
    /// let workload = [
    ///     DepMessage { src: NodeId(0), dst: NodeId(1), bytes: 64,
    ///                  deps: vec![], min_start: SimTime::ZERO },
    ///     // Arrives after the window closes: times out, never runs.
    ///     DepMessage { src: NodeId(0), dst: NodeId(2), bytes: 64,
    ///                  deps: vec![], min_start: SimTime::from_us(900) },
    /// ];
    /// let run = Run::new(router, &params, &workload)
    ///     .window(SimTime::from_us(800))
    ///     .run()
    ///     .unwrap();
    /// assert!(run.messages[0].outcome.is_delivered());
    /// assert_eq!(run.messages[1].outcome, Outcome::TimedOut);
    /// ```
    pub fn window(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Runs in a caller-owned [`EngineScratch`] instead of a fresh one.
    ///
    /// The scratch is *reset*, never reallocated: reusing one scratch
    /// across runs keeps the event heap, message table, channel table
    /// and memoized routes warm (see [`crate::scratch`]). Results are
    /// byte-identical to a fresh scratch. Even after an `Err` the
    /// scratch stays safe to reuse: the channel table marks itself
    /// dirty and sweeps on the next reset.
    pub fn scratch(mut self, scratch: &'a mut EngineScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Attaches an in-loop [`Probe`] observer. The probe is borrowed,
    /// not consumed, so its recording survives even an `Err`: a
    /// deadlocked run still leaves an
    /// [`EventRecorder`](crate::probe::EventRecorder) full of blocked
    /// events and the watchdog alarm. Dispatch is static.
    ///
    /// ```
    /// use hcube::{Cube, Ecube, NodeId, Resolution};
    /// use hypercast::PortModel;
    /// use wormsim::{DepMessage, EventRecorder, Run, SimParams, SimTime};
    ///
    /// let router = Ecube::new(Cube::of(4), Resolution::HighToLow);
    /// let params = SimParams::ncube2(PortModel::AllPort);
    /// let w = [DepMessage { src: NodeId(0), dst: NodeId(0b0111), bytes: 1024,
    ///                       deps: vec![], min_start: SimTime::ZERO }];
    /// let mut rec = EventRecorder::new();
    /// let run = Run::new(router, &params, &w).probe(&mut rec).run().unwrap();
    /// // Exact per-channel holds: one occupancy interval per hop.
    /// assert_eq!(rec.occupancies().len(), 3);
    /// assert_eq!(rec.latencies().len(), run.delivered_count());
    /// ```
    pub fn probe<Q: Probe>(self, probe: &'a mut Q) -> Run<'a, R, Q> {
        Run {
            router: self.router,
            params: self.params,
            workload: self.workload,
            faults: self.faults,
            horizon: self.horizon,
            probe: Some(probe),
            scratch: self.scratch,
        }
    }

    /// Executes the run.
    ///
    /// # Errors
    /// [`SimError::SelfSend`] / [`SimError::DependencyOutOfRange`] /
    /// [`SimError::WorkloadTooLarge`] / [`SimError::DependencyCycle`]
    /// for malformed workloads, and [`SimError::Deadlock`] when blocked
    /// worms can never progress. A windowed run cannot deadlock: the
    /// horizon rescues every waiter.
    pub fn run(self) -> Result<RunResult, SimError> {
        let windowed;
        let plan = match (self.faults, self.horizon) {
            (Some(plan), None) => plan,
            (plan, horizon) => {
                let mut p = plan.cloned().unwrap_or_default();
                if let Some(h) = horizon {
                    p.deadline_all(h);
                }
                windowed = p;
                &windowed
            }
        };
        let mut fresh;
        let scratch = match self.scratch {
            Some(s) => s,
            None => {
                fresh = EngineScratch::new();
                &mut fresh
            }
        };
        let (router, params, workload) = (self.router, self.params, self.workload);
        match self.probe {
            Some(probe) => execute(router, params, workload, plan, probe, scratch),
            None => execute(router, params, workload, plan, &mut NoopProbe, scratch),
        }
    }
}

fn execute<R: Router, P: Probe>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    plan: &FaultPlan,
    probe: &mut P,
    scratch: &mut EngineScratch,
) -> Result<RunResult, SimError> {
    let mut engine = core::Engine::new(router, params, workload, plan, probe, scratch)?;
    engine.run()?;
    Ok(engine.into_result())
}

/// A windowed, observed run in a caller-owned scratch:
/// `Run::new(router, params, workload).window(horizon).probe(probe).scratch(scratch).run()`.
///
/// Kept under this name because the `perfbench-trace` benchmark binary
/// links it; new code uses [`Run`].
///
/// # Errors
/// See [`Run::run`].
pub fn simulate_window_observed_on_with_scratch<R: Router, P: Probe>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    horizon: SimTime,
    probe: &mut P,
    scratch: &mut EngineScratch,
) -> Result<RunResult, SimError> {
    Run::new(router, params, workload)
        .window(horizon)
        .probe(probe)
        .scratch(scratch)
        .run()
}
