//! Fault injection for the wormhole simulator.
//!
//! A [`FaultPlan`] describes which parts of the network are broken and
//! when, independent of any particular workload:
//!
//! * **dead links** — directed external channels that can never be
//!   acquired: a worm whose header reaches one aborts, releasing every
//!   channel it holds (the router's abort-and-discard path), and its
//!   message finishes [`Failed`](crate::engine::Outcome::Failed);
//! * **dead nodes** — every incident channel is dead, and messages whose
//!   source or destination is dead fail immediately;
//! * **transient stalls** — time windows during which a channel refuses
//!   acquisition (arbitration glitches, hot-spot backpressure): worms
//!   retry when the window closes, accruing blocked time;
//! * **stuck channels** — held forever by a phantom worm. These never
//!   abort anyone; they produce genuine *deadlock*, which the engine's
//!   watchdog detects and reports as
//!   [`SimError::Deadlock`](crate::engine::SimError::Deadlock);
//! * **deadlines** — a global and/or per-message time bound. A message
//!   undelivered at its deadline aborts with
//!   [`TimedOut`](crate::engine::Outcome::TimedOut), releasing its
//!   channels — the recovery story that distinguishes a timeout from a
//!   deadlock.
//!
//! Plans are plain data: deterministic, cheap to clone, and buildable
//! either explicitly ([`FaultPlan::fail_link`] …) or randomly from a
//! seed ([`FaultPlan::random_links`], [`FaultPlan::random_nodes`]).

use crate::time::SimTime;
use hcube::{Dim, NodeId, Topology};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// A declarative description of injected faults. See the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Directed external channels that are permanently dead, as
    /// `(from, dim)` pairs. A dead link kills every lane of the channel.
    dead_links: BTreeSet<(u32, u8)>,
    /// Single dead lanes of otherwise-live links, as `(from, dim, lane)`
    /// triples — the `(link, lane)` fault granularity of multi-lane
    /// channels. On a single-lane router, lane 0 is the whole link.
    dead_lanes: BTreeSet<(u32, u8, u8)>,
    /// Nodes that are down entirely.
    dead_nodes: BTreeSet<u32>,
    /// Transient unavailability windows `[from, until)` per channel,
    /// kept sorted by start time.
    stalls: BTreeMap<(u32, u8), Vec<(SimTime, SimTime)>>,
    /// Channels held forever by a phantom worm (deadlock injection).
    stuck: BTreeSet<(u32, u8)>,
    /// Absolute deadline applied to every message without an override.
    default_deadline: Option<SimTime>,
    /// Absolute per-message deadlines, keyed by workload index.
    message_deadlines: BTreeMap<usize, SimTime>,
}

impl FaultPlan {
    /// An empty plan (no faults). [`Default`] gives the same.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self == &FaultPlan::default()
    }

    /// Whether the plan damages the network itself — dead links, dead
    /// nodes, stuck channels, or stall windows. Deadline-only plans (the
    /// open-loop observation window) answer `false`, which lets the
    /// engine skip the whole channel-fault wiring pass on its hottest
    /// path.
    #[must_use]
    pub fn has_network_faults(&self) -> bool {
        !self.dead_links.is_empty()
            || !self.dead_lanes.is_empty()
            || !self.dead_nodes.is_empty()
            || !self.stuck.is_empty()
            || !self.stalls.is_empty()
    }

    /// Whether any channel has transient stall windows. Gates the
    /// per-acquisition stall lookup in the engine's event loop.
    #[must_use]
    pub fn has_stalls(&self) -> bool {
        !self.stalls.is_empty()
    }

    /// Whether any node is down entirely. Gates the pre-run endpoint
    /// scan.
    #[must_use]
    pub fn has_dead_nodes(&self) -> bool {
        !self.dead_nodes.is_empty()
    }

    /// The plan-wide default deadline, if one was set with
    /// [`deadline_all`](FaultPlan::deadline_all). The engine schedules
    /// it as a single window-close event instead of one deadline event
    /// per message.
    #[must_use]
    pub fn default_deadline(&self) -> Option<SimTime> {
        self.default_deadline
    }

    /// The per-message deadline override of workload message `index`,
    /// if any — *not* falling back to the default (use
    /// [`deadline`](FaultPlan::deadline) for the effective bound).
    #[must_use]
    pub fn message_deadline(&self, index: usize) -> Option<SimTime> {
        self.message_deadlines.get(&index).copied()
    }

    // ----- construction -------------------------------------------------

    /// Kills the directed external channel leaving `from` in `dim`.
    pub fn fail_link(&mut self, from: NodeId, dim: Dim) -> &mut Self {
        self.dead_links.insert((from.0, dim.0));
        self
    }

    /// Kills a single lane of the directed channel leaving `from` on
    /// `port` — the other lanes of the link stay usable, and an
    /// adaptive engine routes worms around the dead lane inside the
    /// lane class. [`fail_link`](FaultPlan::fail_link) kills every lane
    /// at once.
    pub fn fail_lane(&mut self, from: NodeId, port: Dim, lane: u8) -> &mut Self {
        self.dead_lanes.insert((from.0, port.0, lane));
        self
    }

    /// Repairs a single lane (the inverse of
    /// [`fail_lane`](FaultPlan::fail_lane)); a no-op if the lane was
    /// not dead.
    pub fn revive_lane(&mut self, from: NodeId, port: Dim, lane: u8) -> &mut Self {
        self.dead_lanes.remove(&(from.0, port.0, lane));
        self
    }

    /// Kills both directions of the physical link between `a` and its
    /// neighbor across `dim` (a severed cable rather than a dead driver).
    pub fn fail_duplex(&mut self, a: NodeId, dim: Dim) -> &mut Self {
        let b = NodeId(a.0 ^ (1 << dim.0));
        self.fail_link(a, dim);
        self.fail_link(b, dim)
    }

    /// Takes node `v` down: every incident channel dies, and messages
    /// sourced at or destined to `v` fail immediately.
    pub fn fail_node(&mut self, v: NodeId) -> &mut Self {
        self.dead_nodes.insert(v.0);
        self
    }

    /// Repairs the directed channel leaving `from` in `dim` (the inverse
    /// of [`fail_link`](FaultPlan::fail_link)); a no-op if the link was
    /// not dead. This is how a [`FaultTimeline`] advances a plan across
    /// repair events.
    pub fn revive_link(&mut self, from: NodeId, dim: Dim) -> &mut Self {
        self.dead_links.remove(&(from.0, dim.0));
        self
    }

    /// Brings node `v` back up (the inverse of
    /// [`fail_node`](FaultPlan::fail_node)); a no-op if it was not dead.
    pub fn revive_node(&mut self, v: NodeId) -> &mut Self {
        self.dead_nodes.remove(&v.0);
        self
    }

    /// Makes the channel leaving `from` in `dim` refuse acquisition
    /// during `[from_t, until_t)`. Windows may overlap; later lookups
    /// resolve chains.
    ///
    /// # Panics
    /// If `until_t <= from_t` (an empty window is a plan bug).
    pub fn stall(
        &mut self,
        from: NodeId,
        dim: Dim,
        from_t: SimTime,
        until_t: SimTime,
    ) -> &mut Self {
        assert!(until_t > from_t, "stall window must have positive length");
        let windows = self.stalls.entry((from.0, dim.0)).or_default();
        windows.push((from_t, until_t));
        windows.sort_unstable();
        self
    }

    /// Marks the channel leaving `from` in `dim` as held forever by a
    /// phantom worm — the deterministic way to inject a deadlock.
    pub fn stick(&mut self, from: NodeId, dim: Dim) -> &mut Self {
        self.stuck.insert((from.0, dim.0));
        self
    }

    /// Sets the absolute deadline applied to every message that has no
    /// per-message override: undelivered at `t`, a message aborts with
    /// `TimedOut` and releases its channels.
    pub fn deadline_all(&mut self, t: SimTime) -> &mut Self {
        self.default_deadline = Some(t);
        self
    }

    /// Sets an absolute deadline for workload message `index` only.
    pub fn deadline_for(&mut self, index: usize, t: SimTime) -> &mut Self {
        self.message_deadlines.insert(index, t);
        self
    }

    // ----- random generation --------------------------------------------

    /// A plan with `k` distinct directed channels of any [`Topology`]
    /// (pass `&cube` for the hypercube), chosen uniformly at random from
    /// `seed` (deterministic). Channels are enumerated in `(node, port)`
    /// index order; `k` saturates at the channel count.
    #[must_use]
    pub fn random_links<T: Topology>(topo: &T, k: usize, seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c69_6e6b); // "link"
        let ports = topo.ports_per_node();
        let mut all: Vec<(u32, u8)> = (0..topo.node_count() as u32)
            .flat_map(|v| (0..ports).map(move |p| (v, p)))
            .collect();
        let k = k.min(all.len());
        let (chosen, _) = all.partial_shuffle(&mut rng, k);
        let mut plan = FaultPlan::none();
        for &(v, d) in chosen.iter() {
            plan.fail_link(NodeId(v), Dim(d));
        }
        plan
    }

    /// A plan with `k` distinct dead nodes of any [`Topology`], chosen
    /// uniformly at random from `seed`, never choosing nodes listed in
    /// `protected` (the multicast source, typically). `k` saturates at
    /// the number of eligible nodes.
    #[must_use]
    pub fn random_nodes<T: Topology>(
        topo: &T,
        k: usize,
        seed: u64,
        protected: &[NodeId],
    ) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e6f_6465); // "node"
        let mut all: Vec<u32> = (0..topo.node_count() as u32)
            .filter(|v| !protected.iter().any(|p| p.0 == *v))
            .collect();
        let k = k.min(all.len());
        let (chosen, _) = all.partial_shuffle(&mut rng, k);
        let mut plan = FaultPlan::none();
        for &v in chosen.iter() {
            plan.fail_node(NodeId(v));
        }
        plan
    }

    // ----- queries (used by the engine) ---------------------------------

    /// Whether node `v` is down.
    #[must_use]
    pub fn node_dead(&self, v: NodeId) -> bool {
        self.dead_nodes.contains(&v.0)
    }

    /// Whether the directed channel leaving `from` on `port` was
    /// explicitly killed with [`fail_link`](FaultPlan::fail_link).
    ///
    /// This is the topology-generic query: it looks only at the link
    /// set. The engine combines it with [`node_dead`] on both endpoints
    /// (found through the topology's neighbor function) to decide
    /// whether a channel is usable.
    ///
    /// [`node_dead`]: FaultPlan::node_dead
    #[must_use]
    pub fn link_dead(&self, from: NodeId, port: Dim) -> bool {
        self.dead_links.contains(&(from.0, port.0))
    }

    /// Whether the single lane `lane` of the channel leaving `from` on
    /// `port` was killed with [`fail_lane`](FaultPlan::fail_lane). Like
    /// [`link_dead`](FaultPlan::link_dead) this looks only at the lane
    /// set; the engine combines it with the link- and node-level
    /// queries per `(link, lane)` channel.
    #[must_use]
    pub fn lane_dead(&self, from: NodeId, port: Dim, lane: u8) -> bool {
        !self.dead_lanes.is_empty() && self.dead_lanes.contains(&(from.0, port.0, lane))
    }

    /// Whether the directed **hypercube** channel leaving `from` in
    /// `dim` is unusable: the link itself is dead, or either endpoint
    /// node is down. The neighbor is computed by the cube's XOR rule;
    /// for other topologies combine [`link_dead`](FaultPlan::link_dead)
    /// with [`node_dead`](FaultPlan::node_dead) through the topology's
    /// own neighbor function.
    #[must_use]
    pub fn channel_dead(&self, from: NodeId, dim: Dim) -> bool {
        self.link_dead(from, dim)
            || self.node_dead(from)
            || self.node_dead(NodeId(from.0 ^ (1 << dim.0)))
    }

    /// Whether the channel leaving `from` in `dim` is stuck (phantom
    /// holder, never released).
    #[must_use]
    pub fn channel_stuck(&self, from: NodeId, dim: Dim) -> bool {
        self.stuck.contains(&(from.0, dim.0))
    }

    /// If the channel is inside a stall window at `t`, the time the
    /// window (including any chained overlapping windows) ends.
    #[must_use]
    pub fn stalled_until(&self, from: NodeId, dim: Dim, t: SimTime) -> Option<SimTime> {
        let windows = self.stalls.get(&(from.0, dim.0))?;
        let mut now = t;
        let mut hit = false;
        // Windows are sorted by start; chase chained windows forward.
        loop {
            let mut advanced = false;
            for &(s, e) in windows {
                if s <= now && now < e {
                    now = e;
                    advanced = true;
                    hit = true;
                }
            }
            if !advanced {
                break;
            }
        }
        hit.then_some(now)
    }

    /// The absolute deadline of workload message `index`, if any.
    #[must_use]
    pub fn deadline(&self, index: usize) -> Option<SimTime> {
        self.message_deadlines
            .get(&index)
            .copied()
            .or(self.default_deadline)
    }

    /// The dead directed links, as `(from, dim)`.
    pub fn dead_links(&self) -> impl Iterator<Item = (NodeId, Dim)> + '_ {
        self.dead_links.iter().map(|&(v, d)| (NodeId(v), Dim(d)))
    }

    /// The dead single lanes, as `(from, port, lane)`.
    pub fn dead_lanes(&self) -> impl Iterator<Item = (NodeId, Dim, u8)> + '_ {
        self.dead_lanes
            .iter()
            .map(|&(v, d, l)| (NodeId(v), Dim(d), l))
    }

    /// The dead nodes.
    pub fn dead_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dead_nodes.iter().map(|&v| NodeId(v))
    }

    /// The stuck channels, as `(from, dim)`.
    pub fn stuck_channels(&self) -> impl Iterator<Item = (NodeId, Dim)> + '_ {
        self.stuck.iter().map(|&(v, d)| (NodeId(v), Dim(d)))
    }

    /// Number of dead directed links (not counting links implied by dead
    /// nodes).
    #[must_use]
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.len()
    }
}

// ----------------------------------------------------------------------
// Fault timelines: churn as data.
// ----------------------------------------------------------------------

/// What a single timestamped churn event does to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultEventKind {
    /// The directed channel leaving the node in the dimension dies.
    LinkDown(NodeId, Dim),
    /// The directed channel leaving the node in the dimension is
    /// repaired.
    LinkUp(NodeId, Dim),
    /// The node goes down entirely.
    NodeDown(NodeId),
    /// The node comes back up.
    NodeUp(NodeId),
    /// A single lane of the directed channel dies (multi-lane links;
    /// [`LinkDown`](FaultEventKind::LinkDown) kills every lane at once).
    LaneDown(NodeId, Dim, u8),
    /// The lane is repaired.
    LaneUp(NodeId, Dim, u8),
}

/// One timestamped failure or repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Absolute simulated time the event takes effect.
    pub at: SimTime,
    /// What changes.
    pub kind: FaultEventKind,
}

/// A piecewise-constant fault process: a sorted sequence of failure and
/// repair events, walked epoch by epoch with an [`EpochCursor`].
///
/// This is the *online* counterpart of a static plan: link/node churn
/// (MTBF/MTTR arrival streams, scripted outages, …) is first rendered
/// into plain timestamped events, and the timeline then answers "what
/// does the network look like at time *t*" deterministically. Sessions
/// launched inside epoch *e* run under epoch *e*'s plan for their whole
/// lifetime — the epoch-isolation approximation the open-loop chaos
/// engine documents.
///
/// Events at identical timestamps apply in `FaultEventKind` order
/// (down before up, links before nodes) — the ordering is part of the
/// determinism contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// Builds a timeline from events in any order; they are sorted by
    /// `(time, kind)` so equal inputs give equal timelines.
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> FaultTimeline {
        events.sort_unstable();
        FaultTimeline { events }
    }

    /// A timeline with no events: one healthy epoch covering all time.
    #[must_use]
    pub fn quiet() -> FaultTimeline {
        FaultTimeline::default()
    }

    /// Whether the timeline carries no events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The sorted events.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Time of the last event — after it the network state is final
    /// (recovery measurements are anchored here). `None` when empty.
    #[must_use]
    pub fn last_event(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.at)
    }

    /// The start of every epoch, in order: epoch 0 starts at time zero
    /// (events stamped exactly zero are folded into it), and every later
    /// distinct event timestamp starts the next epoch.
    #[must_use]
    pub fn epoch_starts(&self) -> Vec<SimTime> {
        let mut starts = Vec::with_capacity(self.events.len() + 1);
        starts.push(SimTime::ZERO);
        for e in &self.events {
            if e.at > *starts.last().expect("epoch 0 is always present") {
                starts.push(e.at);
            }
        }
        starts
    }

    /// A cursor at epoch 0 whose live plan is `base` with every event
    /// stamped exactly zero applied. Advancing it applies each later
    /// epoch's events to that one plan in place, so whatever `base`
    /// carries beyond links, lanes and nodes (a deadline, say) is set
    /// once and kept.
    #[must_use]
    pub fn cursor(&self, base: FaultPlan) -> EpochCursor<'_> {
        let mut cursor = EpochCursor {
            events: &self.events,
            next: 0,
            index: 0,
            start: SimTime::ZERO,
            plan: base,
        };
        cursor.apply_through(SimTime::ZERO);
        cursor
    }

    /// The cumulative fault state in force at time `t` (the plan of the
    /// epoch containing `t`).
    #[must_use]
    pub fn plan_at(&self, t: SimTime) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for e in &self.events {
            if e.at > t {
                break;
            }
            apply(&mut plan, e.kind);
        }
        plan
    }
}

/// A forward-only walk over the epochs of a [`FaultTimeline`]: one live
/// [`FaultPlan`] holds the cumulative fault state of the current epoch,
/// and [`advance`](EpochCursor::advance) applies only the next epoch's
/// failures and repairs to it — no per-epoch plan is ever built.
#[derive(Clone, Debug)]
pub struct EpochCursor<'a> {
    events: &'a [FaultEvent],
    /// Index of the first event not yet applied.
    next: usize,
    index: u64,
    start: SimTime,
    plan: FaultPlan,
}

impl EpochCursor<'_> {
    /// The current epoch's number, counting from 0.
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The current epoch's start (inclusive).
    #[must_use]
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The cumulative fault state in force throughout the current epoch
    /// (on top of the cursor's base plan).
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Moves to the next epoch, applying its events. Returns `false`, and
    /// changes nothing, when the cursor is already at the last epoch.
    pub fn advance(&mut self) -> bool {
        let Some(event) = self.events.get(self.next) else {
            return false;
        };
        self.index += 1;
        self.start = event.at;
        self.apply_through(event.at);
        true
    }

    /// Applies every pending event stamped at or before `t`.
    fn apply_through(&mut self, t: SimTime) {
        while let Some(event) = self.events.get(self.next).filter(|e| e.at <= t) {
            apply(&mut self.plan, event.kind);
            self.next += 1;
        }
    }
}

fn apply(plan: &mut FaultPlan, kind: FaultEventKind) {
    match kind {
        FaultEventKind::LinkDown(v, d) => {
            plan.fail_link(v, d);
        }
        FaultEventKind::LinkUp(v, d) => {
            plan.revive_link(v, d);
        }
        FaultEventKind::NodeDown(v) => {
            plan.fail_node(v);
        }
        FaultEventKind::NodeUp(v) => {
            plan.revive_node(v);
        }
        FaultEventKind::LaneDown(v, d, l) => {
            plan.fail_lane(v, d, l);
        }
        FaultEventKind::LaneUp(v, d, l) => {
            plan.revive_lane(v, d, l);
        }
    }
}

/// Bridge to `hypercast`'s tree-repair machinery: the structural
/// (time-independent) faults of a plan — dead links and dead nodes — as
/// a [`hypercast::repair::NetworkFaults`]. Transient stalls, stuck
/// channels, and deadlines have no structural counterpart and are
/// dropped: a repaired tree routes around permanent damage and rides out
/// temporal faults at simulation time.
impl From<&FaultPlan> for hypercast::repair::NetworkFaults {
    fn from(plan: &FaultPlan) -> hypercast::repair::NetworkFaults {
        // Size the fault set once, to the largest faulted id.
        let nodes = plan
            .dead_links()
            .map(|(v, _)| v)
            .chain(plan.dead_lanes().map(|(v, _, _)| v))
            .chain(plan.dead_nodes())
            .map(|v| v.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut f = hypercast::repair::NetworkFaults::with_nodes(nodes);
        for (v, d) in plan.dead_links() {
            f.fail_link(v, d);
        }
        // A dead lane degrades the link but the tree-repair machinery
        // has no lane notion: map it conservatively to the whole link,
        // so repaired trees route around the damage entirely.
        for (v, d, _lane) in plan.dead_lanes() {
            f.fail_link(v, d);
        }
        for v in plan.dead_nodes() {
            f.fail_node(v);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcube::Cube;

    #[test]
    fn empty_plan_kills_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.channel_dead(NodeId(0), Dim(0)));
        assert!(!p.node_dead(NodeId(3)));
        assert_eq!(p.deadline(7), None);
        assert_eq!(p.stalled_until(NodeId(0), Dim(0), SimTime::ZERO), None);
    }

    #[test]
    fn dead_node_kills_incident_channels_both_ways() {
        let mut p = FaultPlan::none();
        p.fail_node(NodeId(0b010));
        // Outgoing from the dead node.
        assert!(p.channel_dead(NodeId(0b010), Dim(0)));
        // Incoming from each neighbor.
        assert!(p.channel_dead(NodeId(0b011), Dim(0)));
        assert!(p.channel_dead(NodeId(0b000), Dim(1)));
        assert!(p.channel_dead(NodeId(0b110), Dim(2)));
        // Unrelated channels live.
        assert!(!p.channel_dead(NodeId(0b100), Dim(0)));
    }

    #[test]
    fn duplex_failure_kills_both_directions() {
        let mut p = FaultPlan::none();
        p.fail_duplex(NodeId(0b00), Dim(1));
        assert!(p.channel_dead(NodeId(0b00), Dim(1)));
        assert!(p.channel_dead(NodeId(0b10), Dim(1)));
        assert!(!p.channel_dead(NodeId(0b00), Dim(0)));
        assert_eq!(p.dead_link_count(), 2);
    }

    #[test]
    fn stall_windows_chain() {
        let mut p = FaultPlan::none();
        p.stall(
            NodeId(1),
            Dim(0),
            SimTime::from_us(10),
            SimTime::from_us(20),
        );
        p.stall(
            NodeId(1),
            Dim(0),
            SimTime::from_us(20),
            SimTime::from_us(30),
        );
        assert_eq!(
            p.stalled_until(NodeId(1), Dim(0), SimTime::from_us(15)),
            Some(SimTime::from_us(30))
        );
        assert_eq!(
            p.stalled_until(NodeId(1), Dim(0), SimTime::from_us(30)),
            None
        );
        assert_eq!(
            p.stalled_until(NodeId(1), Dim(0), SimTime::from_us(5)),
            None
        );
    }

    #[test]
    fn deadlines_prefer_per_message() {
        let mut p = FaultPlan::none();
        p.deadline_all(SimTime::from_ms(1));
        p.deadline_for(3, SimTime::from_ms(2));
        assert_eq!(p.deadline(0), Some(SimTime::from_ms(1)));
        assert_eq!(p.deadline(3), Some(SimTime::from_ms(2)));
    }

    #[test]
    fn random_links_are_deterministic_and_distinct() {
        let cube = Cube::of(4);
        let a = FaultPlan::random_links(&cube, 6, 42);
        let b = FaultPlan::random_links(&cube, 6, 42);
        assert_eq!(a, b);
        assert_eq!(a.dead_link_count(), 6);
        let c = FaultPlan::random_links(&cube, 6, 43);
        assert_ne!(a, c, "different seeds should differ (w.h.p.)");
        // Saturation: more than exist.
        let all = FaultPlan::random_links(&cube, 1000, 1);
        assert_eq!(all.dead_link_count(), 16 * 4);
    }

    #[test]
    fn random_nodes_respect_protection() {
        let cube = Cube::of(3);
        for seed in 0..20 {
            let p = FaultPlan::random_nodes(&cube, 4, seed, &[NodeId(0)]);
            assert!(!p.node_dead(NodeId(0)), "seed {seed}");
            assert_eq!(p.dead_nodes().count(), 4);
        }
        // Saturation never claims the protected node.
        let p = FaultPlan::random_nodes(&cube, 100, 9, &[NodeId(5)]);
        assert_eq!(p.dead_nodes().count(), 7);
        assert!(!p.node_dead(NodeId(5)));
    }

    #[test]
    fn link_dead_sees_only_explicit_links() {
        let mut p = FaultPlan::none();
        p.fail_link(NodeId(2), Dim(1));
        p.fail_node(NodeId(4));
        assert!(p.link_dead(NodeId(2), Dim(1)));
        // A dead node does NOT mark its links dead in the link set —
        // the engine folds node death in via the topology's neighbor.
        assert!(!p.link_dead(NodeId(4), Dim(0)));
        assert!(p.channel_dead(NodeId(4), Dim(0)));
    }

    #[test]
    fn random_links_cover_the_torus_port_space() {
        let t = hcube::Torus::of(4, 2);
        let p = FaultPlan::random_links(&t, 10, 7);
        assert_eq!(p.dead_link_count(), 10);
        assert_eq!(p, FaultPlan::random_links(&t, 10, 7));
        assert!(p
            .dead_links()
            .all(|(v, port)| { (v.0 as usize) < 16 && port.0 < Topology::ports_per_node(&t) }));
    }

    /// One snapshot of a cursor's current epoch.
    struct Epoch {
        index: u64,
        start: SimTime,
        plan: FaultPlan,
    }

    /// Every epoch of `tl`, collected by walking a cursor to the end;
    /// also checks that the walk agrees with `epoch_starts`.
    fn walk(tl: &FaultTimeline) -> Vec<Epoch> {
        let mut cursor = tl.cursor(FaultPlan::none());
        let snapshot = |c: &EpochCursor<'_>| Epoch {
            index: c.index(),
            start: c.start(),
            plan: c.plan().clone(),
        };
        let mut epochs = vec![snapshot(&cursor)];
        while cursor.advance() {
            epochs.push(snapshot(&cursor));
        }
        assert!(!cursor.advance(), "the last epoch stays last");
        let starts: Vec<SimTime> = epochs.iter().map(|e| e.start).collect();
        assert_eq!(starts, tl.epoch_starts());
        epochs
    }

    #[test]
    fn quiet_timeline_is_one_healthy_epoch() {
        let tl = FaultTimeline::quiet();
        assert!(tl.is_empty());
        assert_eq!(tl.len(), 0);
        assert_eq!(tl.last_event(), None);
        let epochs = walk(&tl);
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].index, 0);
        assert_eq!(epochs[0].start, SimTime::ZERO);
        assert!(epochs[0].plan.is_empty());
    }

    #[test]
    fn epochs_accumulate_failures_and_erase_repairs() {
        let tl = FaultTimeline::new(vec![
            FaultEvent {
                at: SimTime::from_ns(300),
                kind: FaultEventKind::LinkUp(NodeId(1), Dim(1)),
            },
            FaultEvent {
                at: SimTime::from_ns(100),
                kind: FaultEventKind::LinkDown(NodeId(1), Dim(1)),
            },
            FaultEvent {
                at: SimTime::from_ns(200),
                kind: FaultEventKind::NodeDown(NodeId(5)),
            },
        ]);
        assert_eq!(tl.last_event(), Some(SimTime::from_ns(300)));
        let epochs = walk(&tl);
        assert_eq!(epochs.len(), 4);
        assert!(epochs[0].plan.is_empty());
        assert!(epochs[1].plan.channel_dead(NodeId(1), Dim(1)));
        assert!(!epochs[1].plan.node_dead(NodeId(5)));
        assert!(epochs[2].plan.channel_dead(NodeId(1), Dim(1)));
        assert!(epochs[2].plan.node_dead(NodeId(5)));
        assert!(!epochs[3].plan.channel_dead(NodeId(1), Dim(1)));
        assert!(epochs[3].plan.node_dead(NodeId(5)));
        assert_eq!(epochs[3].start, SimTime::from_ns(300));
        assert_eq!(epochs[3].index, 3);
        // plan_at agrees with the epoch containing the query time.
        assert_eq!(tl.plan_at(SimTime::from_ns(150)), epochs[1].plan);
        assert_eq!(tl.plan_at(SimTime::from_ns(200)), epochs[2].plan);
        assert_eq!(tl.plan_at(SimTime::from_ns(1000)), epochs[3].plan);
    }

    #[test]
    fn time_zero_events_fold_into_epoch_zero() {
        let tl = FaultTimeline::new(vec![
            FaultEvent {
                at: SimTime::ZERO,
                kind: FaultEventKind::NodeDown(NodeId(3)),
            },
            FaultEvent {
                at: SimTime::from_ns(50),
                kind: FaultEventKind::NodeUp(NodeId(3)),
            },
        ]);
        let epochs = walk(&tl);
        assert_eq!(epochs.len(), 2);
        assert!(epochs[0].plan.node_dead(NodeId(3)));
        assert!(!epochs[1].plan.node_dead(NodeId(3)));
    }

    #[test]
    fn cursor_keeps_its_base_plan_across_epochs() {
        let tl = FaultTimeline::new(vec![
            FaultEvent {
                at: SimTime::from_ns(100),
                kind: FaultEventKind::LinkDown(NodeId(2), Dim(0)),
            },
            FaultEvent {
                at: SimTime::from_ns(100),
                kind: FaultEventKind::NodeDown(NodeId(6)),
            },
            FaultEvent {
                at: SimTime::from_ns(400),
                kind: FaultEventKind::LinkUp(NodeId(2), Dim(0)),
            },
        ]);
        let mut base = FaultPlan::none();
        base.deadline_all(SimTime::from_ms(1));
        let mut cursor = tl.cursor(base.clone());
        assert_eq!(cursor.plan(), &base);
        // Two events at one instant open one epoch.
        assert!(cursor.advance());
        assert_eq!(cursor.index(), 1);
        assert_eq!(cursor.start(), SimTime::from_ns(100));
        assert!(cursor.plan().link_dead(NodeId(2), Dim(0)));
        assert!(cursor.plan().node_dead(NodeId(6)));
        assert!(cursor.advance());
        assert_eq!(cursor.index(), 2);
        assert!(!cursor.plan().link_dead(NodeId(2), Dim(0)));
        // The base plan's deadline rides through every epoch unchanged.
        assert_eq!(cursor.plan().default_deadline(), Some(SimTime::from_ms(1)));
        let mut expected = tl.plan_at(SimTime::from_ns(400));
        expected.deadline_all(SimTime::from_ms(1));
        assert_eq!(cursor.plan(), &expected);
        assert!(!cursor.advance());
        assert_eq!(cursor.index(), 2);
    }

    #[test]
    fn revive_ops_invert_failures() {
        let mut plan = FaultPlan::none();
        plan.fail_link(NodeId(0), Dim(1)).fail_node(NodeId(2));
        plan.revive_link(NodeId(0), Dim(1)).revive_node(NodeId(2));
        assert!(plan.is_empty());
        // Reviving something never failed is a no-op.
        plan.revive_link(NodeId(9), Dim(0)).revive_node(NodeId(9));
        assert!(plan.is_empty());
    }

    #[test]
    fn lane_faults_are_lane_granular() {
        let mut p = FaultPlan::none();
        p.fail_lane(NodeId(3), Dim(1), 2);
        assert!(p.has_network_faults());
        assert!(p.lane_dead(NodeId(3), Dim(1), 2));
        // Sibling lanes and the link itself stay alive.
        assert!(!p.lane_dead(NodeId(3), Dim(1), 0));
        assert!(!p.link_dead(NodeId(3), Dim(1)));
        assert_eq!(
            p.dead_lanes().collect::<Vec<_>>(),
            vec![(NodeId(3), Dim(1), 2)]
        );
        // revive_lane inverts fail_lane exactly.
        p.revive_lane(NodeId(3), Dim(1), 2);
        assert!(p.is_empty());
        p.revive_lane(NodeId(9), Dim(0), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn lane_events_flow_through_timelines() {
        let tl = FaultTimeline::new(vec![
            FaultEvent {
                at: SimTime::from_ns(100),
                kind: FaultEventKind::LaneDown(NodeId(1), Dim(0), 1),
            },
            FaultEvent {
                at: SimTime::from_ns(200),
                kind: FaultEventKind::LaneUp(NodeId(1), Dim(0), 1),
            },
        ]);
        let epochs = walk(&tl);
        assert_eq!(epochs.len(), 3);
        assert!(!epochs[0].plan.lane_dead(NodeId(1), Dim(0), 1));
        assert!(epochs[1].plan.lane_dead(NodeId(1), Dim(0), 1));
        assert!(epochs[2].plan.is_empty());
        // Same timestamp: Down sorts (and applies) before Up, so a
        // down/up pair at one instant nets to "up" — exactly the
        // LinkDown/LinkUp convention.
        assert!(
            FaultEventKind::LaneDown(NodeId(0), Dim(0), 0)
                < FaultEventKind::LaneUp(NodeId(0), Dim(0), 0)
        );
    }

    #[test]
    fn dead_lanes_degrade_to_dead_links_for_tree_repair() {
        let mut p = FaultPlan::none();
        p.fail_lane(NodeId(2), Dim(1), 0);
        let f = hypercast::repair::NetworkFaults::from(&p);
        assert!(f.channel_dead(NodeId(2), Dim(1)));
    }
}
