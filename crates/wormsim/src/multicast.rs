//! Driving multicast trees and reduction schedules through the network
//! model — the simulation counterpart of the paper's nCUBE-2
//! measurements.
//!
//! The physical execution is *self-timed*: each node forwards as soon as
//! its inbound payload is delivered, issuing its sends in the
//! algorithm-specified order. The step numbers of the tree are the design
//! abstraction; contention-freedom (Definition 4) is what guarantees the
//! self-timed execution never blocks.

use crate::engine::{DepMessage, NetStats, Run, RunResult, SimError};
use crate::faults::FaultPlan;
use crate::params::SimParams;
use crate::probe::Probe;
use crate::scratch::EngineScratch;
use crate::time::SimTime;
use hcube::{Cube, Ecube, NodeId, Resolution};
use hypercast::collectives::ReductionSchedule;
use hypercast::MulticastTree;
use std::collections::HashMap;

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
    pub(crate) fn from_run(deliveries: Vec<(NodeId, SimTime)>, run: &RunResult) -> SimReport {
        let max_delay = deliveries
            .iter()
            .map(|&(_, t)| t)
            .max()
            .unwrap_or(SimTime::ZERO);
        let avg = if deliveries.is_empty() {
            SimTime::ZERO
        } else {
            SimTime(
                deliveries.iter().map(|&(_, t)| t.as_ns()).sum::<u64>() / deliveries.len() as u64,
            )
        };
        SimReport {
            deliveries,
            avg_delay: avg,
            max_delay,
            blocks: run.stats.blocks,
            blocked_time: run.stats.blocked_time,
            stats: run.stats.clone(),
        }
    }
}

/// Replays a well-formed workload on the E-cube router of `cube`.
///
/// # Panics
/// On a malformed workload (the workloads built here never are).
fn replay(cube: Cube, resolution: Resolution, params: &SimParams, w: &[DepMessage]) -> RunResult {
    Run::new(Ecube::new(cube, resolution), params, w)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The report of a run whose message `i` is `tree`'s unicast `i`.
fn tree_report(tree: &MulticastTree, run: &RunResult) -> SimReport {
    let deliveries = tree
        .unicasts
        .iter()
        .zip(&run.messages)
        .map(|(u, r)| (u.dst, r.delivered))
        .collect();
    SimReport::from_run(deliveries, run)
}

/// Converts a multicast tree into the engine's dependency workload: one
/// [`DepMessage`] per tree unicast, where each forward depends on the
/// node's inbound unicast (self-timed execution).
///
/// Every multicast entry point builds its workload through this helper,
/// so observed and unobserved runs simulate byte-identical inputs.
#[must_use]
pub fn multicast_workload(tree: &MulticastTree, bytes: u32) -> Vec<DepMessage> {
    // Tree unicasts are sorted by (step, src, order); map each node's
    // inbound unicast index so forwards can depend on it.
    let mut inbound: HashMap<NodeId, usize> = HashMap::new();
    for (i, u) in tree.unicasts.iter().enumerate() {
        inbound.insert(u.dst, i);
    }
    tree.unicasts
        .iter()
        .map(|u| DepMessage {
            src: u.src,
            dst: u.dst,
            bytes,
            deps: inbound.get(&u.src).map(|&i| vec![i]).unwrap_or_default(),
            min_start: SimTime::ZERO,
        })
        .collect()
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

/// Replays a multicast tree over a network with `plan`'s faults
/// injected. Unicasts whose ancestors fail are themselves lost, so the
/// report's `lost` set is exactly the subtrees cut off by the faults.
///
/// # Errors
/// Propagates the engine's [`SimError`] — notably
/// [`SimError::Deadlock`] when the plan wedges a worm forever without a
/// deadline to rescue it.
pub fn simulate_multicast_with_faults(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    plan: &FaultPlan,
) -> Result<FaultSimReport, SimError> {
    let workload = multicast_workload(tree, bytes);
    let run = Run::new(Ecube::new(tree.cube, tree.resolution), params, &workload)
        .faults(plan)
        .run()?;
    let mut deliveries = Vec::new();
    let mut lost = Vec::new();
    for (u, r) in tree.unicasts.iter().zip(&run.messages) {
        if r.outcome.is_delivered() {
            deliveries.push((u.dst, r.delivered));
        } else {
            lost.push(u.dst);
        }
    }
    let total = deliveries.len() + lost.len();
    let makespan = deliveries
        .iter()
        .map(|&(_, t)| t)
        .max()
        .unwrap_or(SimTime::ZERO);
    Ok(FaultSimReport {
        delivery_ratio: if total == 0 {
            1.0
        } else {
            deliveries.len() as f64 / total as f64
        },
        deliveries,
        lost,
        makespan,
        blocks: run.stats.blocks,
    })
}

/// Simulates a multicast tree delivering a `bytes`-byte payload.
///
/// Returns per-destination delays measured from the source's initiation
/// at time zero, exactly the quantity Figures 11–14 plot ("the delay
/// between the sending of a multicast message and its receipt at the
/// destination").
#[must_use]
pub fn simulate_multicast(tree: &MulticastTree, params: &SimParams, bytes: u32) -> SimReport {
    let workload = multicast_workload(tree, bytes);
    tree_report(tree, &replay(tree.cube, tree.resolution, params, &workload))
}

/// [`simulate_multicast`] replayed through a reusable [`EngineScratch`]:
/// the engine resets the scratch's event heap, message table, and
/// channel state instead of reallocating them, and recurring
/// `(src, dst)` pairs hit the scratch's route memo. The report is
/// byte-identical to [`simulate_multicast`] — sweeps that evaluate
/// thousands of trees per worker thread use this entry point with one
/// scratch per worker.
#[must_use]
pub fn simulate_multicast_with_scratch(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    scratch: &mut EngineScratch,
) -> SimReport {
    let workload = multicast_workload(tree, bytes);
    let router = Ecube::new(tree.cube, tree.resolution);
    let run = Run::new(router, params, &workload).scratch(scratch).run();
    tree_report(tree, &run.unwrap_or_else(|e| panic!("{e}")))
}

/// [`simulate_multicast`] on an E-cube router carrying `lanes` virtual
/// lanes per physical link — the CLI's `--lanes` path. With `lanes == 1`
/// the report is byte-identical to [`simulate_multicast`]; extra lanes
/// let same-class worms sidestep each other, trading buffer space for
/// contention blocking.
#[must_use]
pub fn simulate_multicast_lanes(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    lanes: u8,
) -> SimReport {
    let workload = multicast_workload(tree, bytes);
    let router = Ecube::with_lanes(tree.cube, tree.resolution, lanes);
    let run = Run::new(router, params, &workload).run();
    tree_report(tree, &run.unwrap_or_else(|e| panic!("{e}")))
}

/// [`simulate_multicast`] with an in-loop [`Probe`] observer attached:
/// same workload, same deterministic schedule, but every semantic event
/// (injection, channel grant/block/release, tail drain, delivery) is
/// reported to `probe` as it happens.
///
/// Pair with [`EventRecorder`](crate::probe::EventRecorder) for exact
/// per-channel contention accounting or
/// [`Metrics`](crate::metrics::Metrics) for aggregate counters; combine
/// both with [`Tee`](crate::probe::Tee).
#[must_use]
pub fn simulate_multicast_observed<P: Probe>(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    probe: &mut P,
) -> SimReport {
    let workload = multicast_workload(tree, bytes);
    let router = Ecube::new(tree.cube, tree.resolution);
    let run = Run::new(router, params, &workload).probe(probe).run();
    tree_report(tree, &run.unwrap_or_else(|e| panic!("{e}")))
}

/// Simulates a reduction schedule: every node contributes a `bytes`-byte
/// message toward the root, combining after each arrival. The report's
/// deliveries record the arrival of each partial contribution at its
/// parent; `max_delay` is the reduction's completion time at the root.
#[must_use]
pub fn simulate_reduction(
    sched: &ReductionSchedule,
    cube: Cube,
    resolution: Resolution,
    params: &SimParams,
    bytes: u32,
) -> SimReport {
    // A node's upward message depends on all inbound (child) messages.
    let mut inbound: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, u) in sched.unicasts.iter().enumerate() {
        inbound.entry(u.dst).or_default().push(i);
    }
    let workload: Vec<DepMessage> = sched
        .unicasts
        .iter()
        .map(|u| DepMessage {
            src: u.src,
            dst: u.dst,
            bytes,
            deps: inbound.get(&u.src).cloned().unwrap_or_default(),
            min_start: SimTime::ZERO,
        })
        .collect();
    let run = replay(cube, resolution, params, &workload);
    let deliveries = sched
        .unicasts
        .iter()
        .zip(&run.messages)
        .map(|(u, r)| (u.dst, r.delivered))
        .collect();
    SimReport::from_run(deliveries, &run)
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
    for tree in trees {
        assert_eq!(tree.cube, cube, "concurrent trees must share a cube");
        assert_eq!(tree.resolution, resolution, "and a resolution order");
        let base = workload.len();
        let mut inbound: HashMap<NodeId, usize> = HashMap::new();
        for (i, u) in tree.unicasts.iter().enumerate() {
            inbound.insert(u.dst, base + i);
        }
        for u in &tree.unicasts {
            workload.push(DepMessage {
                src: u.src,
                dst: u.dst,
                bytes,
                deps: inbound.get(&u.src).map(|&i| vec![i]).unwrap_or_default(),
                min_start: SimTime::ZERO,
            });
        }
        ranges.push(base..workload.len());
    }
    let run = replay(cube, resolution, params, &workload);
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
            let max_delay = deliveries
                .iter()
                .map(|&(_, t)| t)
                .max()
                .unwrap_or(SimTime::ZERO);
            let avg_delay = if deliveries.is_empty() {
                SimTime::ZERO
            } else {
                SimTime(
                    deliveries.iter().map(|&(_, t)| t.as_ns()).sum::<u64>()
                        / deliveries.len() as u64,
                )
            };
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

/// Simulates a personalized-communication (scatter) schedule: each edge
/// carries its subtree's accumulated blocks, so payload sizes differ per
/// unicast.
#[must_use]
pub fn simulate_scatter(
    sched: &hypercast::collectives::ScatterSchedule,
    params: &SimParams,
) -> SimReport {
    let tree = &sched.tree;
    let mut inbound: HashMap<NodeId, usize> = HashMap::new();
    for (i, u) in tree.unicasts.iter().enumerate() {
        inbound.insert(u.dst, i);
    }
    let workload: Vec<DepMessage> = tree
        .unicasts
        .iter()
        .zip(&sched.bytes_per_edge)
        .map(|(u, &bytes)| DepMessage {
            src: u.src,
            dst: u.dst,
            // Oversized blocks saturate instead of panicking; 4 GiB per
            // edge is already far outside the modeled machine.
            bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
            deps: inbound.get(&u.src).map(|&i| vec![i]).unwrap_or_default(),
            min_start: SimTime::ZERO,
        })
        .collect();
    tree_report(tree, &replay(tree.cube, tree.resolution, params, &workload))
}

/// Simulates a concatenation gather: each participant sends its subtree's
/// accumulated blocks toward the root after hearing from its children.
#[must_use]
pub fn simulate_gather(
    sched: &hypercast::collectives::GatherSchedule,
    cube: Cube,
    resolution: Resolution,
    params: &SimParams,
) -> SimReport {
    let mut inbound: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, u) in sched.unicasts.iter().enumerate() {
        inbound.entry(u.dst).or_default().push(i);
    }
    let workload: Vec<DepMessage> = sched
        .unicasts
        .iter()
        .zip(&sched.bytes_per_edge)
        .map(|(u, &bytes)| DepMessage {
            src: u.src,
            dst: u.dst,
            // Saturate like `simulate_scatter` rather than panicking.
            bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
            deps: inbound.get(&u.src).cloned().unwrap_or_default(),
            min_start: SimTime::ZERO,
        })
        .collect();
    let run = replay(cube, resolution, params, &workload);
    let deliveries = sched
        .unicasts
        .iter()
        .zip(&run.messages)
        .map(|(u, r)| (u.dst, r.delivered))
        .collect();
    SimReport::from_run(deliveries, &run)
}

/// Simulates a *chunked, pipelined* multicast: the payload is split into
/// `chunks` equal pieces that stream down the tree independently — chunk
/// `c` crosses an edge as soon as it has arrived at the edge's sender,
/// while later chunks are still in flight upstream (an extension
/// implementing the classic pipelined-tree broadcast; the paper's
/// algorithms send the payload monolithically).
///
/// A destination's delay is the delivery time of its **last** chunk.
///
/// # Panics
/// If `chunks == 0`.
#[must_use]
pub fn simulate_chunked_multicast(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    chunks: u32,
) -> SimReport {
    assert!(chunks >= 1, "at least one chunk");
    let chunk_bytes = bytes.div_ceil(chunks);
    let mut inbound: HashMap<NodeId, usize> = HashMap::new();
    for (i, u) in tree.unicasts.iter().enumerate() {
        inbound.insert(u.dst, i);
    }
    // Message index: edge e, chunk c → e * chunks + c.
    let e_count = tree.unicasts.len();
    let mut workload = Vec::with_capacity(e_count * chunks as usize);
    for u in &tree.unicasts {
        for c in 0..chunks {
            let deps = match inbound.get(&u.src) {
                // Chunk c may be forwarded once chunk c arrived here.
                Some(&parent_edge) => vec![parent_edge * chunks as usize + c as usize],
                None => Vec::new(),
            };
            workload.push(DepMessage {
                src: u.src,
                dst: u.dst,
                bytes: chunk_bytes,
                deps,
                min_start: SimTime::ZERO,
            });
        }
    }
    let run = replay(tree.cube, tree.resolution, params, &workload);
    // Per destination: the max over its chunks.
    let deliveries: Vec<(NodeId, SimTime)> = tree
        .unicasts
        .iter()
        .enumerate()
        .map(|(e, u)| {
            let last = (0..chunks as usize)
                .map(|c| run.messages[e * chunks as usize + c].delivered)
                .max()
                .expect("chunks ≥ 1");
            (u.dst, last)
        })
        .collect();
    SimReport::from_run(deliveries, &run)
}

/// Convenience: the no-contention latency of a single unicast between two
/// nodes, through the full engine (used by validation tests to pin the
/// engine to the closed-form model).
#[must_use]
pub fn simulate_unicast(
    cube: Cube,
    resolution: Resolution,
    params: &SimParams,
    src: NodeId,
    dst: NodeId,
    bytes: u32,
) -> SimTime {
    let run = replay(
        cube,
        resolution,
        params,
        &[DepMessage {
            src,
            dst,
            bytes,
            deps: Vec::new(),
            min_start: SimTime::ZERO,
        }],
    );
    run.messages[0].delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcube::{Cube, Resolution};
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
        let bcast = hypercast::collectives::broadcast(
            Algorithm::WSort,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let red = ReductionSchedule::from_multicast(&bcast);
        let r = simulate_reduction(&red, Cube::of(3), Resolution::HighToLow, &p, 64);
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
        let dest_set: Vec<NodeId> = (1..32).map(NodeId).collect();
        let sched = hypercast::collectives::scatter(
            Algorithm::WSort,
            Cube::of(5),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &dest_set,
            1024,
        )
        .unwrap();
        let scatter_r = simulate_scatter(&sched, &p);
        let mcast_r = simulate_multicast(&sched.tree, &p, 1024);
        assert!(scatter_r.max_delay >= mcast_r.max_delay);
        assert_eq!(scatter_r.deliveries.len(), 31);
    }

    #[test]
    fn scatter_on_separate_addressing_matches_plain_multicast() {
        // With direct sends, every edge carries exactly one block: the
        // scatter and the multicast coincide.
        let p = SimParams::ncube2(PortModel::AllPort);
        let dest_set: Vec<NodeId> = (1..8).map(NodeId).collect();
        let sched = hypercast::collectives::scatter(
            Algorithm::Separate,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &dest_set,
            2048,
        )
        .unwrap();
        let a = simulate_scatter(&sched, &p);
        let b = simulate_multicast(&sched.tree, &p, 2048);
        assert_eq!(a.max_delay, b.max_delay);
        assert_eq!(a.avg_delay, b.avg_delay);
    }

    #[test]
    fn gather_completes_at_root_and_dominates_reduction() {
        // Concatenation gather carries growing payloads, so it costs at
        // least as much as a same-shape combining reduction of one block.
        let p = SimParams::ncube2(PortModel::AllPort);
        let cube = Cube::of(4);
        let sources: Vec<NodeId> = (1..16).map(NodeId).collect();
        let g = hypercast::collectives::gather(
            Algorithm::WSort,
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &sources,
            1024,
        )
        .unwrap();
        let rg = simulate_gather(&g, cube, Resolution::HighToLow, &p);
        assert_eq!(rg.deliveries.len(), 15);
        assert!(rg
            .deliveries
            .iter()
            .any(|&(dst, t)| dst == NodeId(0) && t == rg.max_delay));
        let bcast = hypercast::collectives::broadcast(
            Algorithm::WSort,
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let red = ReductionSchedule::from_multicast(&bcast);
        let rr = simulate_reduction(&red, cube, Resolution::HighToLow, &p, 1024);
        assert!(rg.max_delay >= rr.max_delay);
    }

    #[test]
    fn all_to_all_broadcast_runs_concurrently() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let cube = Cube::of(3);
        let trees = hypercast::collectives::all_to_all_broadcast(
            Algorithm::WSort,
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
        )
        .unwrap();
        let refs: Vec<&hypercast::MulticastTree> = trees.iter().collect();
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
        let t = hypercast::collectives::broadcast(
            Algorithm::WSort,
            Cube::of(6),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let plain = simulate_multicast(&t, &p, 65536);
        let chunked = simulate_chunked_multicast(&t, &p, 65536, 8);
        assert!(
            chunked.max_delay < plain.max_delay,
            "chunked {} vs plain {}",
            chunked.max_delay,
            plain.max_delay
        );
        // One chunk must be identical to the plain multicast.
        let one = simulate_chunked_multicast(&t, &p, 65536, 1);
        assert_eq!(one.max_delay, plain.max_delay);
        assert_eq!(one.avg_delay, plain.avg_delay);
    }

    #[test]
    fn over_chunking_small_payloads_hurts() {
        // 256-byte payload in 64 chunks: per-message startup dominates.
        let p = SimParams::ncube2(PortModel::AllPort);
        let t = hypercast::collectives::broadcast(
            Algorithm::WSort,
            Cube::of(4),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let plain = simulate_multicast(&t, &p, 256);
        let shredded = simulate_chunked_multicast(&t, &p, 256, 64);
        assert!(shredded.max_delay > plain.max_delay);
    }

    #[test]
    fn faulty_multicast_loses_exactly_the_cut_subtree() {
        use crate::faults::FaultPlan;
        let p = SimParams::ncube2(PortModel::AllPort);
        let t = hypercast::collectives::broadcast(
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
        let r = simulate_multicast_with_faults(&t, &p, 1024, &plan).unwrap();
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
    fn simulate_unicast_equals_formula_for_all_pairs() {
        let p = SimParams::ncube2(PortModel::AllPort);
        let cube = Cube::of(4);
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                let t =
                    simulate_unicast(cube, Resolution::HighToLow, &p, NodeId(s), NodeId(d), 1024);
                assert_eq!(t, p.unicast_latency(NodeId(s).distance(NodeId(d)), 1024));
            }
        }
    }
}
