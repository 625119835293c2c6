//! Driving multicast trees through the network model — the simulation
//! counterpart of the paper's nCUBE-2 measurements. Every other
//! collective is a [`CollectiveSchedule`](hypercast::CollectiveSchedule)
//! that [`crate::collective`] replays.
//!
//! The physical execution is *self-timed*: each node forwards as soon as
//! its inbound payload is delivered, issuing its sends in the
//! algorithm-specified order. The step numbers of the tree are the design
//! abstraction. Contention-freedom (Definition 4) guarantees that no two
//! worms compete for a *network* channel, so the execution never blocks
//! in the network. It does not stop a sender's own worms from queueing
//! at its port: an all-port Combine or U-cube sender that sends twice on
//! one port waits at hop 0 for the first worm to drain (6,099 of the
//! 16,080 Figure 11–14 replays have such waits), and those waits count
//! as `port_waits`, not `blocks`.
//!
//! Every tree replay is one [`MulticastRun`]. Without a probe or a fault
//! plan it first tries [`analytic_replay`], which times a tree in closed
//! form and declines whenever it cannot prove the event engine would
//! agree; the engine runs only on a decline.

mod analytic;

pub use analytic::{analytic_replay, AnalyticScratch};

use crate::engine::{DepMessage, NetStats, Run, RunResult, SimError};
use crate::faults::FaultPlan;
use crate::params::SimParams;
use crate::probe::{NoopProbe, Probe};
use crate::scratch::EngineScratch;
use crate::time::SimTime;
use crate::trace::ChannelTrace;
use hcube::{Ecube, NodeId};
use hypercast::{MulticastTree, Unicast};
use std::ops::Range;

/// Delivery-time summary of a simulated collective operation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Delivery time per destination, in tree order.
    pub deliveries: Vec<(NodeId, SimTime)>,
    /// Mean delivery delay among destinations (the paper's "average
    /// delay").
    pub avg_delay: SimTime,
    /// Maximum delivery delay among destinations.
    pub max_delay: SimTime,
    /// Total channel-blocking episodes across all constituent unicasts
    /// (0 for a contention-free implementation).
    pub blocks: u64,
    /// Total time spent blocked.
    pub blocked_time: SimTime,
    /// Full network statistics of the underlying run (per-dimension
    /// channel utilization, deepest FIFO queue, port waits, …).
    pub stats: NetStats,
}

impl SimReport {
    pub(crate) fn from_stats(deliveries: Vec<(NodeId, SimTime)>, stats: NetStats) -> SimReport {
        let (avg_delay, max_delay) = delays(&deliveries);
        SimReport {
            deliveries,
            avg_delay,
            max_delay,
            blocks: stats.blocks,
            blocked_time: stats.blocked_time,
            stats,
        }
    }
}

/// The mean and the maximum of the delivery times (zero when empty).
fn delays(deliveries: &[(NodeId, SimTime)]) -> (SimTime, SimTime) {
    let max = deliveries.iter().map(|&(_, t)| t).max();
    let sum: u64 = deliveries.iter().map(|&(_, t)| t.as_ns()).sum();
    let avg = sum.checked_div(deliveries.len() as u64).unwrap_or(0);
    (SimTime(avg), max.unwrap_or(SimTime::ZERO))
}

/// The report of a run whose message `i` is `tree`'s unicast `i`.
fn tree_report(tree: &MulticastTree, run: &RunResult) -> SimReport {
    let deliveries = tree
        .unicasts
        .iter()
        .zip(&run.messages)
        .map(|(u, r)| (u.dst, r.delivered))
        .collect();
    SimReport::from_stats(deliveries, run.stats.clone())
}

/// Converts a multicast tree into the engine's dependency workload: one
/// [`DepMessage`] per tree unicast, where each forward depends on the
/// node's inbound unicast (self-timed execution).
///
/// Every multicast entry point builds its workload through this helper,
/// so observed and unobserved runs simulate byte-identical inputs. It
/// allocates the workload, one [`InboundIndex`] table, and one `deps`
/// vector per forward.
#[must_use]
pub fn multicast_workload(tree: &MulticastTree, bytes: u32) -> Vec<DepMessage> {
    let mut workload = Vec::with_capacity(tree.unicasts.len());
    InboundIndex::default().append(&mut workload, tree, bytes, SimTime::ZERO);
    workload
}

/// A dense, node-indexed table of inbound unicasts: for a tree, which of
/// its unicasts delivers the payload to each node. Every builder that
/// turns a [`MulticastTree`] into dependency messages (one dependency per
/// forward) goes through it.
///
/// The table is sized by the cube's node count on first use, like the
/// per-node state every engine run resets. Each use clears exactly the
/// entries it wrote, so one table reused across many trees (the sessions
/// of a traffic run) costs O(m) per tree after that.
#[derive(Clone, Debug, Default)]
pub struct InboundIndex {
    /// Per node: the index in the current tree's unicasts of the unicast
    /// delivering to it, or [`InboundIndex::NONE`].
    slot: Vec<u32>,
}

impl InboundIndex {
    const NONE: u32 = u32::MAX;

    /// Appends one [`DepMessage`] per unicast of `tree` to `workload`, in
    /// tree order, each released at `min_start`; a forward depends on
    /// the appended message that delivers the payload to its sender.
    /// Returns the appended range.
    pub fn append(
        &mut self,
        workload: &mut Vec<DepMessage>,
        tree: &MulticastTree,
        bytes: u32,
        min_start: SimTime,
    ) -> Range<usize> {
        let base = workload.len();
        self.for_each(tree, |u, parent| {
            workload.push(DepMessage {
                src: u.src,
                dst: u.dst,
                bytes,
                deps: parent.map(|i| vec![base + i]).unwrap_or_default(),
                min_start,
            });
        });
        base..workload.len()
    }

    /// Calls `f(unicast, parent)` for each unicast of `tree`, in order.
    /// `parent` is the index in `tree.unicasts` of the unicast that
    /// delivers the payload to the unicast's sender, or `None` when the
    /// sender never receives it (the source).
    fn for_each(&mut self, tree: &MulticastTree, mut f: impl FnMut(&Unicast, Option<usize>)) {
        let nodes = tree.cube.node_count();
        if self.slot.len() < nodes {
            self.slot.resize(nodes, Self::NONE);
        }
        // A tree has fewer unicasts than its cube (≤ 2^24) has nodes.
        for (i, u) in tree.unicasts.iter().enumerate() {
            self.slot[u.dst.0 as usize] = i as u32;
        }
        for u in &tree.unicasts {
            let parent = self.slot[u.src.0 as usize];
            f(u, (parent != Self::NONE).then_some(parent as usize));
        }
        for u in &tree.unicasts {
            self.slot[u.dst.0 as usize] = Self::NONE;
        }
    }
}

/// Outcome of a multicast replayed over a faulty network.
#[derive(Clone, Debug)]
pub struct FaultSimReport {
    /// Delivery time per destination that actually received the payload.
    pub deliveries: Vec<(NodeId, SimTime)>,
    /// Destinations that did not receive the payload (their unicast
    /// failed, timed out, or an ancestor's did).
    pub lost: Vec<NodeId>,
    /// `delivered / (delivered + lost)`; 1.0 for an empty tree.
    pub delivery_ratio: f64,
    /// Completion time of the last successful delivery.
    pub makespan: SimTime,
    /// External-channel blocking episodes (contention + stall retries).
    pub blocks: u64,
}

/// One multicast tree replay: the tree's self-timed workload (see
/// [`multicast_workload`]) on the E-cube router of its cube. The optional
/// settings compose; lanes apply on every path. Without a probe or a
/// fault plan, `run` first tries [`analytic_replay`] and runs the event
/// engine only when the pass declines, with the same [`SimReport`].
///
/// ```
/// use hcube::{Cube, NodeId, Resolution};
/// use hypercast::{Algorithm, PortModel};
/// use wormsim::{FaultPlan, MulticastRun, SimParams};
///
/// let dests: Vec<NodeId> = (1..20).map(NodeId).collect();
/// let tree = Algorithm::WSort
///     .build(Cube::of(5), Resolution::HighToLow, PortModel::AllPort, NodeId(0), &dests)
///     .unwrap();
/// let params = SimParams::ncube2(PortModel::AllPort);
/// let report = MulticastRun::new(&tree, &params, 4096).run();
/// assert_eq!(report.blocks, 0);
/// let mut plan = FaultPlan::none();
/// plan.fail_node(NodeId(3));
/// let faulted = MulticastRun::new(&tree, &params, 4096).lanes(2).faults(&plan).run().unwrap();
/// assert_eq!(faulted.lost, [NodeId(3)]);
/// ```
#[must_use = "a MulticastRun does nothing until `.run()` is called"]
pub struct MulticastRun<'a, P: Probe = NoopProbe, F = ()> {
    tree: &'a MulticastTree,
    params: &'a SimParams,
    bytes: u32,
    lanes: u8,
    scratch: Option<&'a mut EngineScratch>,
    probe: Option<&'a mut P>,
    faults: F,
}

impl<'a> MulticastRun<'a> {
    /// A fault-free, unobserved replay of `tree` carrying a `bytes`-byte
    /// payload, on one lane per link, in a fresh scratch.
    pub fn new(tree: &'a MulticastTree, params: &'a SimParams, bytes: u32) -> MulticastRun<'a> {
        MulticastRun {
            tree,
            params,
            bytes,
            lanes: 1,
            scratch: None,
            probe: None,
            faults: (),
        }
    }
}

impl<'a, P: Probe, F> MulticastRun<'a, P, F> {
    /// Replays on `lanes` virtual lanes per physical link.
    pub fn lanes(mut self, lanes: u8) -> Self {
        self.lanes = lanes;
        self
    }

    /// Replays in a caller-owned [`EngineScratch`], byte-identically:
    /// the analytic pass and the engine reuse its buffers and route memo.
    pub fn scratch(mut self, scratch: &'a mut EngineScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Reports every engine event to `probe`; the replay then always runs
    /// the engine.
    pub fn probe<Q: Probe>(self, probe: &'a mut Q) -> MulticastRun<'a, Q, F> {
        MulticastRun {
            tree: self.tree,
            params: self.params,
            bytes: self.bytes,
            lanes: self.lanes,
            scratch: self.scratch,
            probe: Some(probe),
            faults: self.faults,
        }
    }

    fn router(&self) -> Ecube {
        Ecube::with_lanes(self.tree.cube, self.tree.resolution, self.lanes)
    }

    /// The engine run of the tree's `workload` under `plan`, in the
    /// caller's scratch or else `fresh`.
    fn engine(
        &mut self,
        plan: Option<&FaultPlan>,
        workload: &[DepMessage],
        fresh: &mut EngineScratch,
    ) -> Result<RunResult, SimError> {
        let router = self.router();
        let scratch = self.scratch.as_deref_mut().unwrap_or(fresh);
        let mut run = Run::new(router, self.params, workload).scratch(scratch);
        if let Some(plan) = plan {
            run = run.faults(plan);
        }
        match self.probe.take() {
            Some(probe) => run.probe(probe).run(),
            None => run.run(),
        }
    }
}

impl<'a, P: Probe> MulticastRun<'a, P> {
    /// Replays over a network with `plan`'s faults injected; `run` then
    /// returns a [`FaultSimReport`] and always runs the engine.
    pub fn faults(self, plan: &'a FaultPlan) -> MulticastRun<'a, P, &'a FaultPlan> {
        MulticastRun {
            tree: self.tree,
            params: self.params,
            bytes: self.bytes,
            lanes: self.lanes,
            scratch: self.scratch,
            probe: self.probe,
            faults: plan,
        }
    }

    /// Runs the replay. Delays are measured from the source's initiation
    /// at time zero, the quantity Figures 11–14 plot.
    ///
    /// # Panics
    /// Never for a `hypercast` tree: a fault-free replay cannot fail.
    pub fn run(mut self) -> SimReport {
        let mut fresh = EngineScratch::new();
        if self.probe.is_none() {
            let scratch = self.scratch.as_deref_mut().unwrap_or(&mut fresh);
            let (tree, params, bytes, lanes) = (self.tree, self.params, self.bytes, self.lanes);
            if let Some(report) = analytic_replay(tree, params, bytes, lanes, scratch) {
                return report;
            }
        }
        let workload = multicast_workload(self.tree, self.bytes);
        let run = self.engine(None, &workload, &mut fresh);
        tree_report(self.tree, &run.unwrap_or_else(|e| panic!("{e}")))
    }

    /// Runs the replay on the engine and also reconstructs the channel
    /// occupancy of that one run.
    ///
    /// # Panics
    /// As [`run`](Self::run).
    pub fn run_traced(mut self) -> (SimReport, ChannelTrace) {
        let workload = multicast_workload(self.tree, self.bytes);
        let run = self.engine(None, &workload, &mut EngineScratch::new());
        let run = run.unwrap_or_else(|e| panic!("{e}"));
        let trace = ChannelTrace::reconstruct(self.router(), self.params, &workload, &run);
        (tree_report(self.tree, &run), trace)
    }
}

impl<P: Probe> MulticastRun<'_, P, &FaultPlan> {
    /// Runs the faulted replay. Unicasts whose ancestors fail are lost
    /// too, so `lost` is exactly the subtrees the faults cut off.
    ///
    /// # Errors
    /// The engine's [`SimError`], notably [`SimError::Deadlock`] when the
    /// plan wedges a worm forever without a deadline to rescue it.
    pub fn run(mut self) -> Result<FaultSimReport, SimError> {
        let workload = multicast_workload(self.tree, self.bytes);
        let run = self.engine(Some(self.faults), &workload, &mut EngineScratch::new())?;
        let (delivered, cut): (Vec<_>, Vec<_>) = (self.tree.unicasts.iter())
            .zip(&run.messages)
            .partition(|(_, r)| r.outcome.is_delivered());
        let deliveries: Vec<_> = delivered
            .iter()
            .map(|(u, r)| (u.dst, r.delivered))
            .collect();
        let total = deliveries.len() + cut.len();
        Ok(FaultSimReport {
            delivery_ratio: if total == 0 {
                1.0
            } else {
                deliveries.len() as f64 / total as f64
            },
            lost: cut.iter().map(|(u, _)| u.dst).collect(),
            makespan: delays(&deliveries).1,
            deliveries,
            blocks: run.stats.blocks,
        })
    }
}

/// Simulates a multicast tree delivering a `bytes`-byte payload: the
/// per-destination delays Figures 11–14 plot. The builder's default call,
/// `MulticastRun::new(tree, params, bytes).run()`.
#[must_use]
pub fn simulate_multicast(tree: &MulticastTree, params: &SimParams, bytes: u32) -> SimReport {
    MulticastRun::new(tree, params, bytes).run()
}

/// `MulticastRun::new(tree, params, bytes).scratch(scratch).run()`, kept
/// under this name because the `perfbench-trace` benchmark links it.
#[must_use]
pub fn simulate_multicast_with_scratch(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    scratch: &mut EngineScratch,
) -> SimReport {
    MulticastRun::new(tree, params, bytes)
        .scratch(scratch)
        .run()
}

/// `MulticastRun::new(tree, params, bytes).lanes(lanes).run()`, kept
/// under this name because the `perfbench-trace` benchmark links it.
#[must_use]
pub fn simulate_multicast_lanes(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    lanes: u8,
) -> SimReport {
    MulticastRun::new(tree, params, bytes).lanes(lanes).run()
}

/// `MulticastRun::new(tree, params, bytes).probe(probe).run()`, kept
/// under this name because the `perfbench-trace` benchmark links it.
#[must_use]
pub fn simulate_multicast_observed<P: Probe>(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    probe: &mut P,
) -> SimReport {
    MulticastRun::new(tree, params, bytes).probe(probe).run()
}

/// Per-tree slice of a concurrent run: delivery times and blocking
/// *attributable to this tree's own messages*. Unlike [`SimReport`] it
/// carries no [`NetStats`] — channel-level statistics of a shared run
/// belong to the run, not to any one tree (see [`ConcurrentReport`]).
#[derive(Clone, Debug)]
pub struct TreeReport {
    /// Delivery time per destination, in tree order.
    pub deliveries: Vec<(NodeId, SimTime)>,
    /// Mean delivery delay among this tree's destinations.
    pub avg_delay: SimTime,
    /// Maximum delivery delay among this tree's destinations.
    pub max_delay: SimTime,
    /// Blocking episodes of this tree's messages only.
    pub blocks: u64,
    /// Time this tree's messages spent blocked.
    pub blocked_time: SimTime,
}

/// Outcome of [`simulate_concurrent_multicasts`]: per-tree attribution
/// plus the run-wide network statistics **once**. Earlier revisions
/// cloned the full shared [`NetStats`] into every per-tree report, which
/// both misattributed run-wide channel statistics to individual trees
/// and cost `O(trees · channels)` copies.
#[derive(Clone, Debug)]
pub struct ConcurrentReport {
    /// One report per input tree, in input order.
    pub trees: Vec<TreeReport>,
    /// Network statistics of the single shared run (all trees combined).
    pub stats: NetStats,
}

impl ConcurrentReport {
    /// Whether the run simulated no trees at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

/// Simulates several multicasts running **concurrently** on one network
/// (e.g. different data-parallel operations in flight at once). Each
/// tree's internal forwarding dependencies are preserved; across trees
/// the only coupling is physical channel contention.
///
/// Returns one [`TreeReport`] per input tree plus the shared run-wide
/// [`NetStats`]. All trees must share the same cube and resolution.
///
/// # Panics
/// If the trees disagree on cube or resolution.
#[must_use]
pub fn simulate_concurrent_multicasts(
    trees: &[&MulticastTree],
    params: &SimParams,
    bytes: u32,
) -> ConcurrentReport {
    let Some(first) = trees.first() else {
        return ConcurrentReport {
            trees: Vec::new(),
            stats: NetStats::default(),
        };
    };
    let cube = first.cube;
    let resolution = first.resolution;
    let mut workload: Vec<DepMessage> = Vec::new();
    let mut ranges = Vec::with_capacity(trees.len());
    let mut inbound = InboundIndex::default();
    for tree in trees {
        assert_eq!(tree.cube, cube, "concurrent trees must share a cube");
        assert_eq!(tree.resolution, resolution, "and a resolution order");
        ranges.push(inbound.append(&mut workload, tree, bytes, SimTime::ZERO));
    }
    let run = Run::new(Ecube::new(cube, resolution), params, &workload)
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
    let per_tree = trees
        .iter()
        .zip(ranges)
        .map(|(tree, range)| {
            let deliveries: Vec<(NodeId, SimTime)> = tree
                .unicasts
                .iter()
                .zip(&run.messages[range.clone()])
                .map(|(u, r)| (u.dst, r.delivered))
                .collect();
            // Blocks attributable to this tree's messages only.
            let blocks: u64 = run.messages[range.clone()]
                .iter()
                .map(|m| u64::from(m.blocks))
                .sum();
            let blocked_time: SimTime = run.messages[range].iter().map(|m| m.blocked_time).sum();
            let (avg_delay, max_delay) = delays(&deliveries);
            TreeReport {
                deliveries,
                avg_delay,
                max_delay,
                blocks,
                blocked_time,
            }
        })
        .collect();
    ConcurrentReport {
        trees: per_tree,
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::simulate_collective;
    use hcube::{Cube, Resolution};
    use hypercast::collectives::{broadcast, chunked_multicast, gather, reduce, scatter};
    use hypercast::{Algorithm, PortModel};

    fn dests(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn wsort_figure_3e_two_transfer_generations() {
        // W-sort needs 2 steps; simulated max delay must be under 3
        // transfer times and show zero blocking (contention-free).
        let p = SimParams::ncube2(PortModel::AllPort);
        let t = Algorithm::WSort
            .build(
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests(&[
                    0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
                ]),
            )
            .unwrap();
        let r = simulate_multicast(&t, &p, 4096);
        assert_eq!(r.blocks, 0, "Theorem 6: no channel blocking");
        let transfer = p.t_byte * 4096;
        assert!(r.max_delay < transfer * 3);
        assert!(r.max_delay > transfer * 2); // two sequential generations
        assert_eq!(r.deliveries.len(), 8);
    }

    #[test]
    fn ucube_all_port_slower_than_wsort_here() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let set = dests(&[
            0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
        ]);
        let build = |a: Algorithm| {
            a.build(
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &set,
            )
            .unwrap()
        };
        let u = simulate_multicast(&build(Algorithm::UCube), &p, 4096);
        let w = simulate_multicast(&build(Algorithm::WSort), &p, 4096);
        assert!(w.max_delay < u.max_delay);
        assert!(w.avg_delay < u.avg_delay);
    }

    #[test]
    fn one_port_ucube_has_no_blocking() {
        // The [9] guarantee: contention-free regardless of startup and
        // message length — the simulator must agree.
        let p = SimParams::ncube2(PortModel::OnePort);
        let t = Algorithm::UCube
            .build(
                Cube::of(5),
                Resolution::HighToLow,
                PortModel::OnePort,
                NodeId(7),
                &dests(&[1, 2, 3, 9, 14, 21, 28, 30, 31]),
            )
            .unwrap();
        let r = simulate_multicast(&t, &p, 4096);
        assert_eq!(r.blocks, 0);
    }

    #[test]
    fn single_destination_matches_unicast() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let t = Algorithm::WSort
            .build(
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests(&[0b1011]),
            )
            .unwrap();
        let r = simulate_multicast(&t, &p, 4096);
        assert_eq!(r.max_delay, p.unicast_latency(3, 4096));
        assert_eq!(r.avg_delay, r.max_delay);
    }

    #[test]
    fn reduction_completes_at_root() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let bcast = broadcast(
            Algorithm::WSort,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let red = reduce(&bcast, 64).unwrap();
        let r = simulate_collective(&red, Ecube::new(Cube::of(3), Resolution::HighToLow), &p);
        assert_eq!(r.deliveries.len(), 7);
        // Root receives the last contribution at max_delay; every inbound
        // edge of the root is among the deliveries.
        assert!(r
            .deliveries
            .iter()
            .any(|&(dst, t)| dst == NodeId(0) && t == r.max_delay));
    }

    #[test]
    fn concurrent_disjoint_multicasts_do_not_interact() {
        // Two multicasts confined to opposite halves of a 4-cube: the
        // concurrent run must equal each solo run exactly.
        let p = SimParams::ncube2(PortModel::AllPort);
        let lo = Algorithm::WSort
            .build(
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests(&[1, 3, 5, 7]),
            )
            .unwrap();
        let hi = Algorithm::WSort
            .build(
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(8),
                &dests(&[9, 11, 13, 15]),
            )
            .unwrap();
        let solo_lo = simulate_multicast(&lo, &p, 4096);
        let solo_hi = simulate_multicast(&hi, &p, 4096);
        let both = simulate_concurrent_multicasts(&[&lo, &hi], &p, 4096);
        assert_eq!(both.trees[0].deliveries, solo_lo.deliveries);
        assert_eq!(both.trees[1].deliveries, solo_hi.deliveries);
        assert_eq!(both.trees[0].blocks + both.trees[1].blocks, 0);
        // Disjoint halves: per-tree attribution sums to the run total.
        assert_eq!(both.stats.blocks, 0);
    }

    #[test]
    fn concurrent_overlapping_multicasts_contend() {
        // Same source region, interleaved destinations: cross-operation
        // channel contention must appear (each op alone is clean).
        let p = SimParams::ncube2(PortModel::AllPort);
        let a = Algorithm::WSort
            .build(
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests(&[15]),
            )
            .unwrap();
        // P(0,15) = 0→8→12→14→15 and P(4,15) = 4→12→14→15 share the
        // arcs 12→14 and 14→15.
        let c = Algorithm::WSort
            .build(
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(4),
                &dests(&[15]),
            )
            .unwrap();
        let reports = simulate_concurrent_multicasts(&[&a, &c], &p, 4096);
        let total_blocks: u64 = reports.trees.iter().map(|r| r.blocks).sum();
        assert!(total_blocks > 0, "expected cross-operation contention");
        // Per-message attribution reconciles with the shared run total.
        assert_eq!(total_blocks, reports.stats.blocks);
        // The loser is delayed beyond its solo time.
        let solo_c = simulate_multicast(&c, &p, 4096);
        assert!(reports.trees[1].max_delay >= solo_c.max_delay);
    }

    #[test]
    fn concurrent_empty_input() {
        let p = SimParams::ncube2(PortModel::AllPort);
        assert!(simulate_concurrent_multicasts(&[], &p, 128).is_empty());
    }

    #[test]
    fn scatter_delay_exceeds_equivalent_multicast() {
        // Forwarded subtree payloads make scatter at least as slow as the
        // same tree carrying one block to everyone.
        let p = SimParams::ncube2(PortModel::AllPort);
        let tree = broadcast(
            Algorithm::WSort,
            Cube::of(5),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let sched = scatter(&tree, 1024).unwrap();
        let scatter_r = simulate_collective(&sched, Ecube::new(tree.cube, tree.resolution), &p);
        let mcast_r = simulate_multicast(&tree, &p, 1024);
        assert!(scatter_r.max_delay >= mcast_r.max_delay);
        assert_eq!(scatter_r.deliveries.len(), 31);
    }

    #[test]
    fn scatter_on_separate_addressing_matches_plain_multicast() {
        // With direct sends, every edge carries exactly one block: the
        // scatter and the multicast coincide.
        let p = SimParams::ncube2(PortModel::AllPort);
        let dest_set: Vec<NodeId> = (1..8).map(NodeId).collect();
        let tree = Algorithm::Separate
            .build(
                Cube::of(3),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dest_set,
            )
            .unwrap();
        let sched = scatter(&tree, 2048).unwrap();
        let a = simulate_collective(&sched, Ecube::new(tree.cube, tree.resolution), &p);
        let b = simulate_multicast(&tree, &p, 2048);
        assert_eq!(a.max_delay, b.max_delay);
        assert_eq!(a.avg_delay, b.avg_delay);
    }

    #[test]
    fn gather_completes_at_root_and_dominates_reduction() {
        // Concatenation gather carries growing payloads, so it costs at
        // least as much as a same-shape combining reduction of one block.
        let p = SimParams::ncube2(PortModel::AllPort);
        let cube = Cube::of(4);
        let bcast = broadcast(
            Algorithm::WSort,
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let g = gather(&bcast, 1024).unwrap();
        let rg = simulate_collective(&g, Ecube::new(cube, Resolution::HighToLow), &p);
        assert_eq!(rg.deliveries.len(), 15);
        assert!(rg
            .deliveries
            .iter()
            .any(|&(dst, t)| dst == NodeId(0) && t == rg.max_delay));
        let red = reduce(&bcast, 1024).unwrap();
        let rr = simulate_collective(&red, Ecube::new(cube, Resolution::HighToLow), &p);
        assert!(rg.max_delay >= rr.max_delay);
    }

    #[test]
    fn all_to_all_broadcast_runs_concurrently() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let cube = Cube::of(3);
        let trees: Vec<MulticastTree> = cube
            .nodes()
            .map(|src| {
                broadcast(
                    Algorithm::WSort,
                    cube,
                    Resolution::HighToLow,
                    PortModel::AllPort,
                    src,
                )
                .unwrap()
            })
            .collect();
        let refs: Vec<&MulticastTree> = trees.iter().collect();
        let reports = simulate_concurrent_multicasts(&refs, &p, 512);
        assert_eq!(reports.trees.len(), 8);
        // Every operation completes; the composite is slower than a solo
        // broadcast because the 8 operations share channels.
        let solo = simulate_multicast(&trees[0], &p, 512);
        let slowest = reports.trees.iter().map(|r| r.max_delay).max().unwrap();
        assert!(slowest >= solo.max_delay);
        for r in &reports.trees {
            assert_eq!(r.deliveries.len(), 7);
        }
        // The run-wide makespan is exactly the slowest delivery.
        assert_eq!(reports.stats.makespan, slowest);
    }

    #[test]
    fn chunking_helps_deep_trees_with_large_payloads() {
        // A broadcast chain is n transfers deep; pipelining 64 KB into 8
        // chunks overlaps the generations.
        let p = SimParams::ncube2(PortModel::AllPort);
        let t = broadcast(
            Algorithm::WSort,
            Cube::of(6),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let chunks = |bytes, chunks| {
            let sched = chunked_multicast(&t, bytes, chunks).unwrap();
            simulate_collective(&sched, Ecube::new(t.cube, t.resolution), &p)
        };
        let plain = simulate_multicast(&t, &p, 65536);
        let chunked = chunks(65536, 8);
        assert!(
            chunked.max_delay < plain.max_delay,
            "chunked {} vs plain {}",
            chunked.max_delay,
            plain.max_delay
        );
        // One chunk must be identical to the plain multicast.
        let one = chunks(65536, 1);
        assert_eq!(one.max_delay, plain.max_delay);
        assert_eq!(one.avg_delay, plain.avg_delay);
    }

    #[test]
    fn over_chunking_small_payloads_hurts() {
        // 256-byte payload in 64 chunks: per-message startup dominates.
        let p = SimParams::ncube2(PortModel::AllPort);
        let t = broadcast(
            Algorithm::WSort,
            Cube::of(4),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let plain = simulate_multicast(&t, &p, 256);
        let sched = chunked_multicast(&t, 256, 64).unwrap();
        let shredded = simulate_collective(&sched, Ecube::new(t.cube, t.resolution), &p);
        assert!(shredded.max_delay > plain.max_delay);
    }

    #[test]
    fn faulty_multicast_loses_exactly_the_cut_subtree() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let t = broadcast(
            Algorithm::UCube,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        // Kill node 0b100: its inbound unicast and every forward out of
        // it are lost; the low half still delivers.
        let mut plan = FaultPlan::none();
        plan.fail_node(NodeId(0b100));
        let r = MulticastRun::new(&t, &p, 1024).faults(&plan).run().unwrap();
        assert!(r.lost.contains(&NodeId(0b100)));
        // U-cube broadcast from 0: node 4 forwards to 5, 6 (and 6→7 is
        // sent by 6). Whatever the exact shape, the live half {1,2,3}
        // must be delivered.
        for v in [1u32, 2, 3] {
            assert!(
                r.deliveries.iter().any(|&(d, _)| d == NodeId(v)),
                "node {v} should be reachable"
            );
        }
        assert!(r.delivery_ratio < 1.0);
        let clean = simulate_multicast(&t, &p, 1024);
        assert_eq!(r.deliveries.len() + r.lost.len(), clean.deliveries.len());
    }

    #[test]
    fn empty_tree_reports_zero() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let t = Algorithm::UCube
            .build(
                Cube::of(3),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &[],
            )
            .unwrap();
        let r = simulate_multicast(&t, &p, 4096);
        assert_eq!(r.max_delay, SimTime::ZERO);
        assert_eq!(r.avg_delay, SimTime::ZERO);
        assert!(r.deliveries.is_empty());
    }

    #[test]
    fn unicast_equals_formula_for_all_pairs() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let router = Ecube::new(Cube::of(4), Resolution::HighToLow);
        for s in 0..16u32 {
            for d in (0..16u32).filter(|&d| d != s) {
                let (src, dst) = (NodeId(s), NodeId(d));
                let w = [DepMessage {
                    src,
                    dst,
                    bytes: 1024,
                    deps: Vec::new(),
                    min_start: SimTime::ZERO,
                }];
                let run = Run::new(router, &p, &w).run().unwrap();
                let hops = src.distance(dst);
                assert_eq!(run.messages[0].delivered, p.unicast_latency(hops, 1024));
            }
        }
    }

    #[test]
    fn faulted_replays_run_on_the_requested_lanes() {
        // A 4-lane faulted replay is the engine run of the tree's
        // workload on the 4-lane router under the same plan.
        let p = SimParams::ncube2(PortModel::AllPort);
        let cube = Cube::of(6);
        let set: Vec<NodeId> = (1..64).step_by(5).map(NodeId).collect();
        let t = Algorithm::UCube
            .build(
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &set,
            )
            .unwrap();
        let plan = FaultPlan::random_links(&cube, 12, 1);
        let r = MulticastRun::new(&t, &p, 4096)
            .lanes(4)
            .faults(&plan)
            .run()
            .unwrap();
        let w = multicast_workload(&t, 4096);
        let router = Ecube::with_lanes(cube, Resolution::HighToLow, 4);
        let run = Run::new(router, &p, &w).faults(&plan).run().unwrap();
        let delivered = |ok: bool| {
            t.unicasts
                .iter()
                .zip(&run.messages)
                .filter(|(_, m)| m.outcome.is_delivered() == ok)
                .map(|(u, m)| (u.dst, m.delivered))
                .collect::<Vec<_>>()
        };
        assert_eq!(r.deliveries, delivered(true));
        let lost: Vec<NodeId> = delivered(false).into_iter().map(|(v, _)| v).collect();
        assert_eq!(r.lost, lost);
        assert_eq!(r.blocks, run.stats.blocks);
        // And the lanes matter: the one-lane replay differs here.
        let one = MulticastRun::new(&t, &p, 4096).faults(&plan).run().unwrap();
        assert_ne!(format!("{one:?}"), format!("{r:?}"));
    }
}
