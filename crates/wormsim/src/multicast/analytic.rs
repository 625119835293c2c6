//! The analytic replay: a multicast tree timed in closed form, without
//! an event queue, whenever the pass can prove the engine would agree.
//!
//! In a contention-free implementation (Definition 4, Theorem 3) no two
//! worms ever compete for a channel, so each unicast's timing follows
//! from its parent's delivery, its sender's CPU and its first port:
//!
//! * **Timing pass, in tree order** (parents first). A unicast becomes
//!   eligible at its parent's delivery (0 at the source), starts its
//!   send software when its sender's CPU is free (when
//!   `cpu_serialized_startup`), and requests its first channel
//!   `t_send_sw` later. The first channel — the injection channel under
//!   one-port, the first external channel under all-port — belongs to
//!   the sender, and the sender's unicasts on it queue FIFO in tree
//!   order: a request finding the previous one still draining is
//!   granted at that drain (the engine's direct hand-off), which is
//!   where `port_waits`, `port_wait_time` and `max_queue_depth` come
//!   from. Every later hop is acquired `t_hop` per external channel
//!   after the first, the payload drains `bytes · t_byte` after the
//!   last, and delivery follows `t_recv_sw` later.
//! * **Check pass, in grant order.** A per-channel `(release, holder)`
//!   table proves the timing pass's premise: every
//!   acquisition must find its channel released strictly earlier. The
//!   one exception is the first-channel hand-off from the FIFO
//!   predecessor. An acquisition finding its channel held would block
//!   in the engine; one at the very instant of a release is a tie whose
//!   event order the pass cannot know. Either way the pass declines.
//!
//! On acceptance every channel's holds are disjoint intervals, so the
//! engine's events replay the computed times one for one, and the
//! report equals the engine's field by field (`tests/analytic_replay.rs`
//! checks it differentially). On a decline the caller runs the engine.
//!
//! The pass computes its routes into the scratch's route buffer, with
//! each hop's dimension, and keeps its per-node and per-channel tables
//! stamped with a replay generation. The tables are all-integer slots
//! allocated zeroed, so a replay in a fresh scratch touches only the
//! pages its routes and senders use, and a warm replay costs
//! O(unicasts · hops) whatever the cube's size.

use super::{InboundIndex, SimReport};
use crate::engine::NetStats;
use crate::network::{ChannelMap, Routes};
use crate::params::SimParams;
use crate::scratch::EngineScratch;
use crate::time::SimTime;
use hcube::{Ecube, NodeId};
use hypercast::MulticastTree;

/// "No unicast" in the `u32` index fields.
const NONE: u32 = u32::MAX;

/// One unicast as the timing pass computed it.
#[derive(Clone, Copy, Debug)]
struct Send {
    /// `(start, len)` of the route in the scratch's route buffer.
    route: (u32, u32),
    /// When the header requests the first channel.
    inject: SimTime,
    /// When the first channel is granted (`> inject` after a FIFO wait).
    grant: SimTime,
    /// When the tail drains and every held channel releases.
    drain: SimTime,
    /// The sender's previous unicast on the same first channel.
    fifo_prev: u32,
}

/// Per-channel state `(gen, fifo_last, holder, release_ns)`, valid only
/// when `gen` is the current replay's:
/// * `fifo_last` (timing pass): the last unicast queued on this first
///   channel;
/// * `holder` (check pass): the last unicast to acquire this channel;
/// * `release_ns` (check pass): when `holder` releases it.
///
/// An all-integer tuple, so a new table is one zeroed allocation.
type ChannelSlot = (u32, u32, u32, u64);

/// The analytic replay's reusable buffers and its accept/decline
/// counters, kept in an [`EngineScratch`] and read through
/// [`EngineScratch::analytic`].
///
/// The per-node and per-channel tables are stamped with a replay
/// generation instead of being cleared, so a warm replay costs
/// O(unicasts · hops), independent of the cube's size.
#[derive(Debug, Default)]
pub struct AnalyticScratch {
    sends: Vec<Send>,
    /// `(grant, unicast)` pairs, sorted for the check pass.
    order: Vec<(SimTime, u32)>,
    inbound: InboundIndex,
    /// Per node: `(gen, cpu free at in ns)`, zeroed like `channels`.
    cpu: Vec<(u32, u64)>,
    channels: Vec<ChannelSlot>,
    gen: u32,
    accepted: u64,
    declined: u64,
}

impl AnalyticScratch {
    /// Replays the analytic pass accepted (the engine did not run).
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Replays the analytic pass declined (the engine ran instead).
    #[must_use]
    pub fn declined(&self) -> u64 {
        self.declined
    }

    /// Starts a replay over `nodes` nodes, `channels` channels and
    /// `unicasts` unicasts: bumps the generation, which invalidates
    /// every stamped slot at once. A table too small for the network is
    /// replaced by a zeroed one, never resized: zero is no generation,
    /// and the pages stay untouched until a replay stamps a slot in
    /// them.
    fn begin(&mut self, nodes: usize, channels: usize, unicasts: usize) {
        if self.gen == u32::MAX {
            self.cpu.iter_mut().for_each(|c| c.0 = 0);
            self.channels.iter_mut().for_each(|c| c.0 = 0);
            self.gen = 0;
        }
        self.gen += 1;
        if self.cpu.len() < nodes {
            self.cpu = vec![(0, 0); nodes];
        }
        if self.channels.len() < channels {
            self.channels = vec![(0, 0, 0, 0); channels];
        }
        self.sends.clear();
        self.sends.reserve(unicasts);
    }
}

/// `slots[ch]`, reset first if it belongs to an earlier replay.
fn slot(slots: &mut [ChannelSlot], ch: usize, gen: u32) -> &mut ChannelSlot {
    let s = &mut slots[ch];
    if s.0 != gen {
        *s = (gen, NONE, NONE, 0);
    }
    s
}

/// Replays `tree` in closed form on an E-cube router with `lanes`
/// lanes per link, or returns `None` when the pass cannot prove the
/// event engine would produce the same [`SimReport`]: a worm would
/// block, or two events would tie at one instant on one channel in an
/// order the pass cannot know.
///
/// When it returns `Some`, the report equals the event engine's for
/// the same tree, field by field. Each call counts as accepted or
/// declined in [`EngineScratch::analytic`]. Besides its own buffers,
/// the pass uses only the scratch's route buffer, which it shares with
/// the engine.
///
/// ```
/// use hcube::{Cube, NodeId, Resolution};
/// use hypercast::{Algorithm, PortModel};
/// use wormsim::{analytic_replay, EngineScratch, MulticastRun, NoopProbe, SimParams};
///
/// let dests: Vec<NodeId> = (1..20).map(NodeId).collect();
/// let tree = Algorithm::WSort
///     .build(Cube::of(5), Resolution::HighToLow, PortModel::AllPort, NodeId(0), &dests)
///     .unwrap();
/// let params = SimParams::ncube2(PortModel::AllPort);
/// let mut scratch = EngineScratch::new();
/// let fast = analytic_replay(&tree, &params, 4096, 1, &mut scratch).unwrap();
/// // A replay with a probe always runs the event engine.
/// let engine = MulticastRun::new(&tree, &params, 4096).probe(&mut NoopProbe).run();
/// assert_eq!(format!("{fast:?}"), format!("{engine:?}"));
/// assert_eq!(scratch.analytic().accepted(), 1);
/// ```
#[must_use]
pub fn analytic_replay(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    lanes: u8,
    scratch: &mut EngineScratch,
) -> Option<SimReport> {
    let report = replay(tree, params, bytes, lanes, scratch);
    if report.is_some() {
        scratch.analytic.accepted += 1;
    } else {
        scratch.analytic.declined += 1;
    }
    report
}

fn replay(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    lanes: u8,
    scratch: &mut EngineScratch,
) -> Option<SimReport> {
    let map = ChannelMap::new(Ecube::with_lanes(tree.cube, tree.resolution, lanes));
    let EngineScratch {
        analytic, routes, ..
    } = scratch;
    analytic.begin(map.nodes(), map.len(), tree.unicasts.len());
    routes.clear();
    let AnalyticScratch {
        sends,
        order,
        inbound,
        cpu,
        channels,
        gen,
        ..
    } = analytic;
    let gen = *gen;
    let payload = params.t_byte * u64::from(bytes);
    let mut stats = NetStats::default();

    // Timing pass, in tree order.
    let mut ok = true;
    inbound.for_each(tree, |u, parent| {
        if !ok {
            return;
        }
        let i = sends.len();
        let eligible = match parent {
            None => SimTime::ZERO,
            Some(p) if p < i => sends[p].drain + params.t_recv_sw,
            // A parent after its child is not tree order: leave the
            // workload to the engine.
            Some(_) => {
                ok = false;
                return;
            }
        };
        // A self-send has no route; the engine reports it as an error.
        if u.src == u.dst {
            ok = false;
            return;
        }
        let start = if params.cpu_serialized_startup {
            let c = &mut cpu[u.src.0 as usize];
            let free = SimTime(if c.0 == gen { c.1 } else { 0 });
            let s = eligible.max(free);
            *c = (gen, (s + params.t_send_sw).as_ns());
            s
        } else {
            eligible
        };
        let inject = start + params.t_send_sw;
        let route = routes.push(&map, params.port_model, u.src, u.dst);
        let (first, _) = routes.hop(route.0, 0);
        let (_, fifo_last, _, _) = slot(channels, first, gen);
        let fifo_prev = std::mem::replace(fifo_last, i as u32);
        let mut grant = inject;
        if let Some(prev) = sends.get(fifo_prev as usize) {
            if prev.drain == inject {
                ok = false;
                return;
            }
            if prev.drain > inject {
                // A second lane of the class would take the request
                // instead of queueing it.
                if map.class_size() > 1 && !map.is_virtual(first) {
                    ok = false;
                    return;
                }
                // The queue ahead: the FIFO members not yet granted.
                let mut depth = 1;
                let mut w = fifo_prev;
                while let Some(s) = sends.get(w as usize).filter(|s| s.grant > inject) {
                    depth += 1;
                    w = s.fifo_prev;
                }
                // A hand-off at this very instant: the queue's depth
                // depends on which event the engine pops first.
                if sends
                    .get(w as usize)
                    .is_some_and(|s| s.grant == inject && s.grant > s.inject)
                {
                    ok = false;
                    return;
                }
                grant = prev.drain;
                stats.port_waits += 1;
                stats.port_wait_time += grant - inject;
                stats.max_queue_depth = stats.max_queue_depth.max(depth);
            }
        }
        let hops = routes
            .route(route)
            .iter()
            .filter(|&&(_, dim)| dim != Routes::VIRTUAL)
            .count();
        sends.push(Send {
            route,
            inject,
            grant,
            drain: grant + params.t_hop * hops as u64 + payload,
            fifo_prev,
        });
    });
    if !ok {
        return None;
    }

    // Check pass, in grant order.
    stats.dim_busy = vec![SimTime::ZERO; map.dimensions() as usize];
    stats.dim_channels = map.dim_channels();
    stats.lane_busy = vec![SimTime::ZERO; map.lanes()];
    stats.lane_links = map.links() as u32;
    order.clear();
    order.extend(sends.iter().enumerate().map(|(i, s)| (s.grant, i as u32)));
    order.sort_unstable();
    for &(_, i) in order.iter() {
        let s = sends[i as usize];
        let mut t = s.grant;
        for (hop, &(ch, dim)) in routes.route(s.route).iter().enumerate() {
            let (_, _, holder, release) = slot(channels, ch, gen);
            if *holder != NONE {
                let release = SimTime(*release);
                let handoff = hop == 0 && *holder == s.fifo_prev && s.grant > s.inject;
                if release > t || (release == t && !handoff) {
                    return None;
                }
            }
            *holder = i;
            *release = s.drain.as_ns();
            if dim != Routes::VIRTUAL {
                let busy = s.drain - t;
                stats.dim_busy[dim as usize] += busy;
                stats.lane_busy[map.lane_of(ch) as usize] += busy;
                t += params.t_hop;
            }
        }
    }

    let deliveries: Vec<(NodeId, SimTime)> = tree
        .unicasts
        .iter()
        .zip(sends.iter())
        .map(|(u, s)| (u.dst, s.drain + params.t_recv_sw))
        .collect();
    stats.makespan = deliveries
        .iter()
        .map(|&(_, t)| t)
        .max()
        .unwrap_or(SimTime::ZERO);
    Some(SimReport::from_stats(deliveries, stats))
}
