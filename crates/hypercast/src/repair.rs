//! Fault-tolerant repair of multicast trees.
//!
//! The paper's algorithms assume a healthy cube: every E-cube channel of
//! every scheduled unicast is available. This module relaxes that
//! assumption. Given a structural fault set ([`NetworkFaults`]: dead
//! directed links and dead nodes — the static subset of `wormsim`'s
//! `FaultPlan`), [`repair`] transforms a [`MulticastTree`] into one that
//! still delivers to every *live* destination whenever the fault-free
//! portion of the cube remains connected:
//!
//! 1. **Prune** — destinations on dead nodes are dropped; unicasts whose
//!    E-cube path crosses a dead channel (or whose sender never received
//!    the payload) are discarded, in step order, so breakage cascades
//!    exactly as it would at run time.
//! 2. **Regraft** — the orphaned destinations are grouped under their
//!    nearest still-delivered ancestor and re-split from that ancestor
//!    with the same W-sort local splitting rule the distributed protocol
//!    uses (Figure 4), reusing [`crate::algorithms::weighted_sort`] and
//!    the protocol's `local_split`.
//! 3. **Reroute** — any regrafted unicast whose E-cube path is itself
//!    dirty falls back to a breadth-first search over *live* channels
//!    from the entire delivered set, materialized as a chain of one-hop
//!    unicasts through relay nodes (valid under
//!    [`crate::verify::ValidateOptions`] with `forbid_relays: false`).
//!
//! Steps are reassigned to preserve causality and all-port discipline
//! (no two sends of one node leave on the same dimension in one step).
//! Destinations that remain unreachable — the faults disconnect them
//! from the source — are reported, not silently dropped.

use crate::algorithms::weighted_sort::weighted_sort;
// The tests below name algorithms through this import.
#[cfg(test)]
use crate::algorithms::Algorithm;
use crate::protocol::wsort_split;
use crate::tree::{MulticastTree, Unicast};
use hcube::chain::{from_relative, relative_chain_into};
use hcube::{Cube, Dim, NodeId, Resolution};

/// A structural (time-independent) fault set: dead directed channels and
/// dead nodes.
///
/// This mirrors the static portion of `wormsim`'s `FaultPlan` without the
/// temporal faults (stalls, deadlines), so tree repair can live in
/// `hypercast` without a dependency cycle; `wormsim` provides a
/// `From<&FaultPlan>` bridge.
///
/// Dense: one dead-dimension mask and one dead flag per node, each
/// vector grown only to the largest faulted id, so a channel probe is
/// three indexed loads.
#[derive(Clone, Debug, Default)]
pub struct NetworkFaults {
    /// Per node, bit `d` set when the channel leaving it in dimension
    /// `d` is dead.
    dead_dims: Vec<u64>,
    /// Per node, whether it is dead (all incident channels dead, node
    /// cannot send/receive).
    dead: Vec<bool>,
    /// Set bits in `dead_dims`.
    link_count: usize,
    /// `true` entries in `dead`.
    node_count: usize,
}

impl NetworkFaults {
    /// An empty (healthy-network) fault set.
    #[must_use]
    pub fn new() -> NetworkFaults {
        NetworkFaults::default()
    }

    /// An empty fault set with room for faults on nodes `0..nodes`, so
    /// that filling it does not grow its vectors one fault at a time.
    #[must_use]
    pub fn with_nodes(nodes: usize) -> NetworkFaults {
        NetworkFaults {
            dead_dims: vec![0; nodes],
            dead: vec![false; nodes],
            ..NetworkFaults::default()
        }
    }

    /// Whether no faults are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.link_count == 0 && self.node_count == 0
    }

    /// Kills the single directed channel leaving `from` in dimension
    /// `dim`.
    ///
    /// # Panics
    /// If `dim` is 64 or more; no topology has that many ports.
    pub fn fail_link(&mut self, from: NodeId, dim: Dim) -> &mut Self {
        assert!(dim.0 < 64, "dimension {} out of range", dim.0);
        let v = from.0 as usize;
        if self.dead_dims.len() <= v {
            self.dead_dims.resize(v + 1, 0);
        }
        let bit = 1u64 << dim.0;
        if self.dead_dims[v] & bit == 0 {
            self.dead_dims[v] |= bit;
            self.link_count += 1;
        }
        self
    }

    /// Kills both directions of the physical link between `a` and
    /// `a ⊕ 2^dim`.
    pub fn fail_duplex(&mut self, a: NodeId, dim: Dim) -> &mut Self {
        self.fail_link(a, dim);
        self.fail_link(NodeId(a.0 ^ (1u32 << dim.0)), dim);
        self
    }

    /// Kills a node: it can neither send, receive, nor forward.
    pub fn fail_node(&mut self, v: NodeId) -> &mut Self {
        let i = v.0 as usize;
        if self.dead.len() <= i {
            self.dead.resize(i + 1, false);
        }
        if !self.dead[i] {
            self.dead[i] = true;
            self.node_count += 1;
        }
        self
    }

    /// Whether node `v` is dead.
    #[inline]
    #[must_use]
    pub fn node_dead(&self, v: NodeId) -> bool {
        self.dead.get(v.0 as usize).copied().unwrap_or(false)
    }

    /// Whether the directed channel leaving `from` in dimension `dim` is
    /// unusable — the link itself is dead or either endpoint node is.
    #[inline]
    #[must_use]
    pub fn channel_dead(&self, from: NodeId, dim: Dim) -> bool {
        let mask = self.dead_dims.get(from.0 as usize).copied().unwrap_or(0);
        mask >> dim.0 & 1 == 1
            || self.node_dead(from)
            || self.node_dead(NodeId(from.0 ^ (1u32 << dim.0)))
    }

    /// Number of individually killed directed links.
    #[must_use]
    pub fn dead_link_count(&self) -> usize {
        self.link_count
    }

    /// Number of dead nodes.
    #[must_use]
    pub fn dead_node_count(&self) -> usize {
        self.node_count
    }

    /// Iterates the explicitly killed directed links, ascending by
    /// `(from, dim)`.
    pub fn dead_links(&self) -> impl Iterator<Item = (NodeId, Dim)> + '_ {
        self.dead_dims.iter().enumerate().flat_map(|(v, &mask)| {
            let mut rest = mask;
            std::iter::from_fn(move || {
                let d = rest.trailing_zeros() as u8;
                rest &= rest.wrapping_sub(1);
                (d < 64).then_some((NodeId(v as u32), Dim(d)))
            })
        })
    }

    /// Iterates the dead nodes, ascending.
    pub fn dead_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dead
            .iter()
            .enumerate()
            .filter(|&(_, &dead)| dead)
            .map(|(v, _)| NodeId(v as u32))
    }
}

/// Equal when the same links and nodes are dead, however far each
/// vector was grown.
impl PartialEq for NetworkFaults {
    fn eq(&self, other: &NetworkFaults) -> bool {
        self.link_count == other.link_count
            && self.node_count == other.node_count
            && self.dead_links().eq(other.dead_links())
            && self.dead_nodes().eq(other.dead_nodes())
    }
}

impl Eq for NetworkFaults {}

/// Whether the E-cube path `src → dst` under `resolution` avoids every
/// dead channel and dead node.
#[must_use]
pub fn path_is_clean(
    resolution: Resolution,
    src: NodeId,
    dst: NodeId,
    faults: &NetworkFaults,
) -> bool {
    if faults.node_dead(src) || faults.node_dead(dst) {
        return false;
    }
    hcube::Path::new(resolution, src, dst)
        .arcs()
        .all(|a| !faults.channel_dead(a.from, a.dim))
}

/// The unicasts of `tree` that are *directly* broken by `faults`: their
/// E-cube path crosses a dead channel or an endpoint node is dead.
///
/// Cascaded breakage (a healthy unicast whose sender never receives the
/// payload) is not included; [`repair`] accounts for it.
#[must_use]
pub fn broken_unicasts(tree: &MulticastTree, faults: &NetworkFaults) -> Vec<Unicast> {
    tree.unicasts
        .iter()
        .copied()
        .filter(|u| !path_is_clean(tree.resolution, u.src, u.dst, faults))
        .collect()
}

/// Whether `tree` survives `faults` untouched: the source is alive, no
/// receiver is dead, and no scheduled unicast crosses a dead channel.
#[must_use]
pub fn tree_is_clean(tree: &MulticastTree, faults: &NetworkFaults) -> bool {
    !faults.node_dead(tree.source)
        && tree
            .unicasts
            .iter()
            .all(|u| path_is_clean(tree.resolution, u.src, u.dst, faults))
}

/// The result of [`repair`].
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired tree. Delivers to every original destination except
    /// those in `dropped` and `unreachable`.
    pub tree: MulticastTree,
    /// Destinations dropped because their node is dead.
    pub dropped: Vec<NodeId>,
    /// Live destinations the faults disconnect from the source — no live
    /// route exists at all.
    pub unreachable: Vec<NodeId>,
    /// Live destinations whose delivery had to change (regrafted or
    /// relay-routed).
    pub rerouted: Vec<NodeId>,
    /// Steps of the repaired tree beyond the original (`0` when the
    /// repair fits in the original schedule length).
    pub extra_steps: u32,
}

impl RepairOutcome {
    /// Destinations the repaired tree actually delivers to.
    #[must_use]
    pub fn delivered(&self) -> Vec<NodeId> {
        self.tree.receivers()
    }

    /// `delivered / (delivered + unreachable)` among live destinations;
    /// `1.0` when there is nothing left to deliver to.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        let delivered = self.tree.unicasts.len();
        let live = delivered + self.unreachable.len();
        if live == 0 {
            1.0
        } else {
            delivered as f64 / live as f64
        }
    }
}

/// Repairs `tree` against `faults`: prunes broken subtrees, regrafts
/// orphaned destinations under their nearest delivered ancestor with the
/// W-sort splitting rule, and falls back to relay routes over live
/// channels where E-cube paths are unusable.
///
/// Deterministic: equal inputs produce equal repaired trees.
///
/// If the source itself is dead every live destination is unreachable
/// and the returned tree is empty.
///
/// A one-shot call on a fresh [`RepairScratch`]; a caller that repairs
/// repeatedly keeps one scratch and calls [`RepairScratch::repair`].
#[must_use]
pub fn repair(tree: &MulticastTree, faults: &NetworkFaults) -> RepairOutcome {
    RepairScratch::default().repair(tree, faults)
}

/// "No entry" in an index field of [`RepairScratch`].
const NONE: u32 = u32::MAX;

/// Per-node state of one repair. A stamped field counts only while its
/// stamp equals the scratch's current generation, so a call starts from
/// a clean slate without clearing any node.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Generation in which the node holds the payload.
    delivered: u32,
    /// Step in which it received the payload, while delivered.
    recv_step: u32,
    /// Generation in which `parent` was recorded.
    parent_gen: u32,
    /// Sender of the node's inbound unicast in the original tree.
    parent: u32,
    /// Generation in which `order_next` and `ports` were reset.
    sender_gen: u32,
    /// Issue order of the node's next send.
    order_next: u32,
    /// Head of the node's list of per-step port masks, or [`NONE`].
    ports: u32,
    /// Relay-search generation in which the search reached the node.
    seen: u32,
    /// Node the relay search reached it from, while seen and not
    /// delivered.
    pred: u32,
}

/// The dimensions one node sends on in one step: a link of that node's
/// list in [`RepairScratch::ports`].
#[derive(Clone, Copy, Debug)]
struct PortMask {
    step: u32,
    dims: u32,
    next: u32,
}

/// A regraft edge at `depth` below its anchor; `seq` is its discovery
/// index, which orders edges of equal depth.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    depth: u32,
    seq: u32,
    src: NodeId,
    dst: NodeId,
}

/// The reusable state of [`repair`]: node-indexed, generation-stamped
/// marks plus the work-lists of one call. Once its buffers have grown to
/// the cube and to a repair's working set, a call allocates only the
/// [`RepairOutcome`] it returns. [`crate::TreeCache`] keeps one for its
/// repaired entries.
#[derive(Debug, Default)]
pub struct RepairScratch {
    /// Generation of the current call; stamps of older calls are stale.
    gen: u32,
    /// Generation of the current relay search.
    bfs_gen: u32,
    nodes: Vec<Slot>,
    ports: Vec<PortMask>,
    /// Surviving unicasts of the original tree, in its order.
    kept: Vec<Unicast>,
    /// Regrafted and relay unicasts, in emission order.
    added: Vec<Unicast>,
    /// Live receivers the prune cut off, in receipt order.
    orphans: Vec<NodeId>,
    /// `(anchor, orphan index)`, sorted into regraft groups.
    anchored: Vec<(NodeId, u32)>,
    /// One group's orphans.
    members: Vec<NodeId>,
    /// One group's chain, relative to its anchor.
    chain: Vec<NodeId>,
    /// Regraft work-list `(left, right, depth, ns)` over `chain`,
    /// consumed front to back.
    splits: Vec<(usize, usize, u32, u8)>,
    candidates: Vec<Candidate>,
    /// Every delivered node; sorted before a relay search.
    holders: Vec<NodeId>,
    /// Relay-search FIFO, consumed front to back.
    queue: Vec<NodeId>,
    /// The last relay route found, first hop first.
    route: Vec<NodeId>,
    unreachable: Vec<NodeId>,
}

impl RepairScratch {
    /// [`repair`] on this scratch's buffers: the same outcome, without
    /// the per-call hashing and allocation.
    ///
    /// # Panics
    /// If a node of `tree` lies outside `tree.cube` (no valid tree has
    /// one).
    #[must_use]
    pub fn repair(&mut self, tree: &MulticastTree, faults: &NetworkFaults) -> RepairOutcome {
        let (res, cube, source) = (tree.resolution, tree.cube, tree.source);
        let n = cube.dimension();

        // Destination bookkeeping: receivers of the original tree, in
        // receipt order (deterministic).
        let receivers = || tree.unicasts.iter().map(|u| u.dst);
        let dropped = collect_exact(receivers().filter(|&v| faults.node_dead(v)));
        if faults.node_dead(source) {
            return RepairOutcome {
                tree: MulticastTree::new(cube, res, source, Vec::new()),
                dropped,
                unreachable: collect_exact(receivers().filter(|&v| !faults.node_dead(v))),
                rerouted: Vec::new(),
                extra_steps: 0,
            };
        }
        self.begin(cube.node_count());

        // --------------------------------------------------------------
        // Phase 1: prune. Walk the schedule in step order; a unicast
        // survives iff its sender has (still) received the payload and
        // its E-cube path is clean. Everything else cascades into the
        // orphan set. Steps, ports and issue orders are seeded from the
        // survivors.
        // --------------------------------------------------------------
        self.deliver(source, 0);
        for u in &tree.unicasts {
            if faults.node_dead(u.dst) {
                continue;
            }
            if self.is_delivered(u.src) && path_is_clean(res, u.src, u.dst, faults) {
                self.kept.push(*u);
                self.deliver(u.dst, u.step);
                if let Some(d) = res.delta(u.src, u.dst) {
                    self.use_port(u.src, u.step, d);
                }
                let sender = self.sender(u.src);
                sender.order_next = sender.order_next.max(u.order + 1);
            }
        }
        for u in &tree.unicasts {
            let slot = &mut self.nodes[u.dst.0 as usize];
            slot.parent_gen = self.gen;
            slot.parent = u.src.0;
            if !faults.node_dead(u.dst) && slot.delivered != self.gen {
                self.orphans.push(u.dst);
            }
        }

        // --------------------------------------------------------------
        // Phase 2: regraft. Group orphans by their nearest delivered
        // ancestor (walking the original parent chain), then re-split
        // each group from that ancestor with the W-sort local rule — the
        // same computation the distributed protocol would perform on the
        // replacement sub-chain. Groups go in ascending anchor order,
        // members in receipt order.
        // --------------------------------------------------------------
        for i in 0..self.orphans.len() {
            let mut a = self.parent_of(self.orphans[i], source);
            while !self.is_delivered(a) {
                a = self.parent_of(a, source);
            }
            self.anchored.push((a, i as u32));
        }
        self.anchored.sort_unstable();
        let mut group = 0;
        while let Some(&(anchor, _)) = self.anchored.get(group) {
            let end = group + self.anchored[group..].partition_point(|&(a, _)| a == anchor);
            let orphans = &self.orphans;
            self.members.clear();
            self.members.extend(
                self.anchored[group..end]
                    .iter()
                    .map(|&(_, i)| orphans[i as usize]),
            );
            group = end;
            self.split_group(res, n, anchor);
        }
        // Shallower edges first; discovery order among equal depths.
        self.candidates.sort_unstable_by_key(|c| (c.depth, c.seq));

        // --------------------------------------------------------------
        // Phase 3: reroute + schedule. Emit each candidate if its E-cube
        // path is live; otherwise fall back to a shortest relay route
        // over live channels from the whole delivered set.
        // --------------------------------------------------------------
        for i in 0..self.candidates.len() {
            let Candidate { src, dst, .. } = self.candidates[i];
            if self.is_delivered(dst) {
                continue; // already delivered (e.g. as an earlier relay)
            }
            if self.is_delivered(src) && path_is_clean(res, src, dst, faults) {
                self.emit(res, src, dst);
            } else if self.live_route(cube, faults, dst) {
                for hop in 1..self.route.len() {
                    let (from, to) = (self.route[hop - 1], self.route[hop]);
                    if !self.is_delivered(to) {
                        self.emit(res, from, to);
                    }
                }
            } else {
                self.unreachable.push(dst);
            }
        }

        let rerouted = collect_exact(
            self.orphans
                .iter()
                .copied()
                .filter(|&v| self.is_delivered(v)),
        );
        let mut unicasts = Vec::with_capacity(self.kept.len() + self.added.len());
        unicasts.extend_from_slice(&self.kept);
        unicasts.extend_from_slice(&self.added);
        // `(src, order)` is unique per send — survivors keep the
        // original tree's orders and each added send takes its sender's
        // next one — so this orders the unicasts exactly as
        // `MulticastTree::new`'s stable sort would, without its scratch
        // allocation.
        unicasts.sort_unstable_by_key(|u| (u.step, u.src, u.order));
        let steps = unicasts.last().map_or(0, |u| u.step);
        RepairOutcome {
            tree: MulticastTree {
                cube,
                resolution: res,
                source,
                unicasts,
                steps,
            },
            dropped,
            unreachable: self.unreachable.to_vec(),
            rerouted,
            extra_steps: steps.saturating_sub(tree.steps),
        }
    }

    /// Starts a call on a cube of `nodes` nodes: grows the node slots,
    /// advances the generation and empties the work-lists.
    fn begin(&mut self, nodes: usize) {
        if self.nodes.len() < nodes {
            self.nodes.resize(nodes, Slot::default());
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // The stamps wrapped: forget every older mark.
            self.nodes.fill(Slot::default());
            self.gen = 1;
            self.bfs_gen = 0;
        }
        self.ports.clear();
        self.kept.clear();
        self.added.clear();
        self.orphans.clear();
        self.anchored.clear();
        self.candidates.clear();
        self.holders.clear();
        self.unreachable.clear();
    }

    /// Re-splits `members` from `anchor` into candidate edges. A group
    /// that forms no chain (it cannot, for a valid tree: members are
    /// distinct, live, and differ from the anchor) degrades gracefully:
    /// each member is routed individually from the delivered set.
    fn split_group(&mut self, res: Resolution, n: u8, anchor: NodeId) {
        let candidates = &mut self.candidates;
        if relative_chain_into(res, n, anchor, &self.members, &mut self.chain).is_err() {
            for &dst in &self.members {
                candidates.push(Candidate {
                    depth: 1,
                    seq: candidates.len() as u32,
                    src: anchor,
                    dst,
                });
            }
            return;
        }
        weighted_sort(&mut self.chain, n);
        let (chain, splits) = (&self.chain, &mut self.splits);
        splits.clear();
        splits.push((0, chain.len() - 1, 0, n));
        let mut next = 0;
        while let Some(&(left, right, depth, ns)) = splits.get(next) {
            next += 1;
            let src = from_relative(res, n, anchor, chain[left]);
            wsort_split(chain, left, right, ns, |child, child_right, child_ns| {
                candidates.push(Candidate {
                    depth: depth + 1,
                    seq: candidates.len() as u32,
                    src,
                    dst: from_relative(res, n, anchor, chain[child]),
                });
                splits.push((child, child_right, depth + 1, child_ns));
            });
        }
    }

    fn is_delivered(&self, v: NodeId) -> bool {
        self.nodes[v.0 as usize].delivered == self.gen
    }

    fn deliver(&mut self, v: NodeId, step: u32) {
        let slot = &mut self.nodes[v.0 as usize];
        slot.delivered = self.gen;
        slot.recv_step = step;
        self.holders.push(v);
    }

    /// The sender of `v`'s inbound unicast in the original tree; the
    /// source for a node without one.
    fn parent_of(&self, v: NodeId, source: NodeId) -> NodeId {
        let slot = &self.nodes[v.0 as usize];
        if slot.parent_gen == self.gen {
            NodeId(slot.parent)
        } else {
            source
        }
    }

    /// `v`'s slot with its send state reset on first use in this call.
    fn sender(&mut self, v: NodeId) -> &mut Slot {
        let slot = &mut self.nodes[v.0 as usize];
        if slot.sender_gen != self.gen {
            slot.sender_gen = self.gen;
            slot.order_next = 0;
            slot.ports = NONE;
        }
        slot
    }

    /// Whether `v` already sends on `dim` in `step`.
    fn port_used(&self, v: NodeId, step: u32, dim: Dim) -> bool {
        let slot = &self.nodes[v.0 as usize];
        let mut at = if slot.sender_gen == self.gen {
            slot.ports
        } else {
            NONE
        };
        while let Some(p) = self.ports.get(at as usize) {
            if p.step == step {
                return p.dims >> dim.0 & 1 == 1;
            }
            at = p.next;
        }
        false
    }

    /// Marks `v`'s port `dim` busy in `step`.
    fn use_port(&mut self, v: NodeId, step: u32, dim: Dim) {
        let head = self.sender(v).ports;
        let mut at = head;
        while let Some(p) = self.ports.get_mut(at as usize) {
            if p.step == step {
                p.dims |= 1 << dim.0;
                return;
            }
            at = p.next;
        }
        self.nodes[v.0 as usize].ports = self.ports.len() as u32;
        self.ports.push(PortMask {
            step,
            dims: 1 << dim.0,
            next: head,
        });
    }

    /// Schedules `src → dst` in the first step after `src` received
    /// whose port toward `dst` is free, and delivers `dst`.
    fn emit(&mut self, res: Resolution, src: NodeId, dst: NodeId) {
        let Some(dim) = res.delta(src, dst) else {
            return; // src == dst: nothing to send
        };
        let slot = self.nodes[src.0 as usize];
        let received = if slot.delivered == self.gen {
            slot.recv_step
        } else {
            0
        };
        let mut step = received + 1;
        while self.port_used(src, step, dim) {
            step += 1;
        }
        self.use_port(src, step, dim);
        let sender = self.sender(src);
        let order = sender.order_next;
        sender.order_next += 1;
        self.added.push(Unicast {
            src,
            dst,
            step,
            order,
        });
        self.deliver(dst, step);
    }

    /// Multi-source BFS over live channels: a shortest node path from
    /// any delivered node to `dst`, avoiding dead channels and dead
    /// nodes, left in `route`. Deterministic (sources in ascending
    /// order, dimensions scanned low to high). `false` if `dst` is
    /// disconnected from the delivered set.
    fn live_route(&mut self, cube: Cube, faults: &NetworkFaults, dst: NodeId) -> bool {
        if faults.node_dead(dst) {
            return false;
        }
        self.bfs_gen = self.bfs_gen.wrapping_add(1);
        if self.bfs_gen == 0 {
            for slot in &mut self.nodes {
                slot.seen = 0;
            }
            self.bfs_gen = 1;
        }
        let bfs = self.bfs_gen;
        self.holders.sort_unstable();
        self.holders.dedup();
        self.queue.clear();
        for &v in &self.holders {
            self.nodes[v.0 as usize].seen = bfs;
            self.queue.push(v);
        }
        let mut next = 0;
        while let Some(&v) = self.queue.get(next) {
            next += 1;
            for d in cube.dims() {
                if faults.channel_dead(v, d) {
                    continue;
                }
                let w = NodeId(v.0 ^ (1u32 << d.0));
                let slot = &mut self.nodes[w.0 as usize];
                if slot.seen == bfs {
                    continue;
                }
                slot.seen = bfs;
                slot.pred = v.0;
                if w == dst {
                    // The first discovery fixes the path.
                    self.route.clear();
                    self.route.push(w);
                    let mut at = w;
                    while !self.is_delivered(at) {
                        at = NodeId(self.nodes[at.0 as usize].pred);
                        self.route.push(at);
                    }
                    self.route.reverse();
                    return true;
                }
                self.queue.push(w);
            }
        }
        false
    }
}

/// Collects `items` into a vector allocated once, at its exact length.
fn collect_exact(items: impl Iterator<Item = NodeId> + Clone) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(items.clone().count());
    out.extend(items);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PortModel;
    use crate::verify::{validate, ValidateOptions};
    use hcube::Resolution;

    fn opts() -> ValidateOptions {
        ValidateOptions {
            port_model: PortModel::AllPort,
            forbid_relays: false,
        }
    }

    fn wsort_tree(n: u8, source: u32, dests: &[u32]) -> (MulticastTree, Vec<NodeId>) {
        let dests: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
        let tree = Algorithm::WSort
            .build(
                Cube::of(n),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(source),
                &dests,
            )
            .unwrap();
        (tree, dests)
    }

    /// Every destination that `repair` claims delivered is delivered, in
    /// a structurally valid tree, using no dead channel.
    fn assert_repaired(outcome: &RepairOutcome, faults: &NetworkFaults, live: &[NodeId]) {
        let delivered: std::collections::HashSet<NodeId> =
            outcome.tree.receivers().into_iter().collect();
        for &d in live {
            assert!(
                delivered.contains(&d) || outcome.unreachable.contains(&d),
                "live destination {d} neither delivered nor reported unreachable"
            );
        }
        let claim: Vec<NodeId> = live
            .iter()
            .copied()
            .filter(|d| !outcome.unreachable.contains(d))
            .collect();
        let violations = validate(&outcome.tree, &claim, opts());
        assert!(
            violations.is_empty(),
            "repaired tree invalid: {violations:?}"
        );
        for u in &outcome.tree.unicasts {
            assert!(
                path_is_clean(outcome.tree.resolution, u.src, u.dst, faults),
                "repaired unicast {}→{} crosses a fault",
                u.src,
                u.dst
            );
        }
    }

    #[test]
    fn no_faults_is_identity() {
        let (tree, _) = wsort_tree(5, 0, &[1, 4, 7, 9, 14, 17, 21, 22, 27, 30, 31]);
        let out = repair(&tree, &NetworkFaults::new());
        assert_eq!(out.tree.unicasts, tree.unicasts);
        assert_eq!(out.extra_steps, 0);
        assert!(out.dropped.is_empty() && out.unreachable.is_empty() && out.rerouted.is_empty());
    }

    #[test]
    fn any_single_link_failure_on_an_8_cube_still_delivers_everywhere() {
        // The acceptance criterion: for *every* possible single directed
        // link failure, the repaired broadcast tree delivers to all live
        // destinations (all of them — one link cannot disconnect a cube).
        let dests: Vec<u32> = (1u32..256).step_by(3).collect();
        let (tree, dest_ids) = wsort_tree(8, 0, &dests);
        let cube = Cube::of(8);
        for v in cube.nodes() {
            for d in cube.dims() {
                let mut faults = NetworkFaults::new();
                faults.fail_link(v, d);
                let out = repair(&tree, &faults);
                assert!(out.dropped.is_empty());
                assert!(
                    out.unreachable.is_empty(),
                    "link ({v},{d:?}) down made {:?} unreachable",
                    out.unreachable
                );
                // Relay fallbacks may add receivers, never lose them.
                assert!(out.tree.receivers().len() >= dest_ids.len());
                assert_repaired(&out, &faults, &dest_ids);
            }
        }
    }

    #[test]
    fn dead_destination_is_dropped_not_unreachable() {
        let (tree, dest_ids) = wsort_tree(5, 0, &[3, 9, 12, 20, 25, 31]);
        let mut faults = NetworkFaults::new();
        faults.fail_node(NodeId(12));
        let out = repair(&tree, &faults);
        assert_eq!(out.dropped, vec![NodeId(12)]);
        assert!(out.unreachable.is_empty());
        let live: Vec<NodeId> = dest_ids
            .iter()
            .copied()
            .filter(|&d| d != NodeId(12))
            .collect();
        assert_repaired(&out, &faults, &live);
    }

    #[test]
    fn dead_source_makes_everything_unreachable() {
        let (tree, dest_ids) = wsort_tree(4, 5, &[1, 2, 9, 14]);
        let mut faults = NetworkFaults::new();
        faults.fail_node(NodeId(5));
        let out = repair(&tree, &faults);
        assert!(out.tree.unicasts.is_empty());
        let mut got = out.unreachable.clone();
        got.sort_unstable();
        let mut want = dest_ids.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn fully_isolated_destination_is_reported_unreachable() {
        let (tree, dest_ids) = wsort_tree(4, 0, &[3, 6, 10, 15]);
        let mut faults = NetworkFaults::new();
        // Sever every duplex link incident to node 6.
        for d in Cube::of(4).dims() {
            faults.fail_duplex(NodeId(6), d);
        }
        let out = repair(&tree, &faults);
        assert_eq!(out.unreachable, vec![NodeId(6)]);
        let live: Vec<NodeId> = dest_ids
            .iter()
            .copied()
            .filter(|&d| d != NodeId(6))
            .collect();
        assert_repaired(&out, &faults, &live);
    }

    #[test]
    fn relay_fallback_routes_around_a_blocked_ecube_path() {
        // Kill the entire E-cube "first hop fan" out of the source so the
        // regrafted unicasts cannot use their direct dimension-ordered
        // paths toward some destinations; repair must relay around.
        let (tree, dest_ids) = wsort_tree(5, 0, &(1u32..32).collect::<Vec<_>>());
        let mut faults = NetworkFaults::new();
        // Dead: source's channels in dims 4 and 3 (HighToLow first hops
        // for the upper half of the cube).
        faults.fail_link(NodeId(0), Dim(4));
        faults.fail_link(NodeId(0), Dim(3));
        let out = repair(&tree, &faults);
        assert!(out.unreachable.is_empty(), "cube is still connected");
        assert_repaired(&out, &faults, &dest_ids);
        assert!(!out.rerouted.is_empty());
    }

    #[test]
    fn wsort_degrades_gracefully_under_k_link_failures() {
        // Tentpole guarantee: bounded extra steps, no lost live
        // destinations, under k deterministic "random" link failures.
        let (tree, dest_ids) = wsort_tree(6, 0, &(1u32..64).collect::<Vec<_>>());
        let n = 6u32;
        for k in 1..=8u32 {
            let mut faults = NetworkFaults::new();
            // Deterministic pseudo-random link choices (LCG).
            let mut x = 0x2545_f491_4f6c_dd1du64.wrapping_mul(u64::from(k) + 11);
            for _ in 0..k {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let v = NodeId(((x >> 33) as u32) % 64);
                let d = Dim(((x >> 7) as u8) % 6);
                faults.fail_link(v, d);
            }
            let out = repair(&tree, &faults);
            assert!(out.unreachable.is_empty(), "k={k}: {:?}", out.unreachable);
            assert_repaired(&out, &faults, &dest_ids);
            // Each failure can cost at most a relay detour: generous but
            // finite bound of n + 2k extra steps.
            assert!(
                out.extra_steps <= n + 2 * k,
                "k={k}: extra_steps={} exceeds bound",
                out.extra_steps
            );
        }
    }

    #[test]
    fn broken_unicasts_reports_direct_breakage_only() {
        let (tree, _) = wsort_tree(4, 0, &[1, 2, 4, 8, 15]);
        let mut faults = NetworkFaults::new();
        // Break the path 0 → 8 (HighToLow: single hop on dim 3).
        faults.fail_link(NodeId(0), Dim(3));
        let broken = broken_unicasts(&tree, &faults);
        assert!(broken
            .iter()
            .any(|u| u.src == NodeId(0) && u.dst == NodeId(8)));
        assert!(!tree_is_clean(&tree, &faults));
        assert!(tree_is_clean(&tree, &NetworkFaults::new()));
    }

    #[test]
    fn repair_is_deterministic() {
        let (tree, _) = wsort_tree(6, 3, &(4u32..40).collect::<Vec<_>>());
        let mut faults = NetworkFaults::new();
        faults
            .fail_link(NodeId(3), Dim(5))
            .fail_link(NodeId(19), Dim(1))
            .fail_node(NodeId(7));
        let a = repair(&tree, &faults);
        let b = repair(&tree, &faults);
        assert_eq!(a.tree.unicasts, b.tree.unicasts);
        assert_eq!(a.unreachable, b.unreachable);
        assert_eq!(a.rerouted, b.rerouted);
    }
}

/// The dense fault set keeps the ordered-set semantics it replaced.
#[cfg(test)]
mod dense_faults {
    use super::*;

    #[test]
    fn faults_iterate_ascending_and_count_once() {
        let mut f = NetworkFaults::new();
        f.fail_link(NodeId(9), Dim(3))
            .fail_link(NodeId(2), Dim(5))
            .fail_link(NodeId(9), Dim(0))
            .fail_link(NodeId(2), Dim(5));
        f.fail_node(NodeId(7))
            .fail_node(NodeId(1))
            .fail_node(NodeId(7));
        assert_eq!(
            f.dead_links().collect::<Vec<_>>(),
            [
                (NodeId(2), Dim(5)),
                (NodeId(9), Dim(0)),
                (NodeId(9), Dim(3))
            ]
        );
        assert_eq!(f.dead_nodes().collect::<Vec<_>>(), [NodeId(1), NodeId(7)]);
        assert_eq!((f.dead_link_count(), f.dead_node_count()), (3, 2));
        // Ids beyond the grown vectors are healthy.
        assert!(!f.channel_dead(NodeId(200), Dim(1)) && !f.node_dead(NodeId(200)));
        assert!(
            f.channel_dead(NodeId(3), Dim(2)),
            "3 → 7 enters a dead node"
        );
    }

    #[test]
    fn equality_ignores_how_far_the_vectors_grew() {
        let (mut a, mut b) = (NetworkFaults::with_nodes(64), NetworkFaults::new());
        assert_eq!(a, b);
        a.fail_link(NodeId(4), Dim(1));
        b.fail_link(NodeId(4), Dim(1));
        assert_eq!(a, b);
        b.fail_node(NodeId(4));
        assert_ne!(a, b);
    }
}

/// The oracle for [`RepairScratch::repair`]: the ordered-set and hash-map
/// repair it replaced, kept verbatim, and a property that both agree on
/// random faulty instances of every algorithm.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::protocol::local_split;
    use crate::schedule::PortModel;
    use hcube::chain::relative_chain;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

    /// Repairs `tree` against `faults` with the original whole-call
    /// sets and maps.
    pub(super) fn repair_reference(tree: &MulticastTree, faults: &NetworkFaults) -> RepairOutcome {
        let res = tree.resolution;
        let cube = tree.cube;
        let n = cube.dimension();

        // Destination bookkeeping: receivers of the original tree, in
        // receipt order (deterministic).
        let receivers = tree.receivers();
        let dropped: Vec<NodeId> = receivers
            .iter()
            .copied()
            .filter(|&v| faults.node_dead(v))
            .collect();

        if faults.node_dead(tree.source) {
            let live: Vec<NodeId> = receivers
                .iter()
                .copied()
                .filter(|&v| !faults.node_dead(v))
                .collect();
            return RepairOutcome {
                tree: MulticastTree::new(cube, res, tree.source, Vec::new()),
                dropped,
                unreachable: live,
                rerouted: Vec::new(),
                extra_steps: 0,
            };
        }

        // ------------------------------------------------------------------
        // Phase 1: prune. Walk the schedule in step order; a unicast survives
        // iff its sender has (still) received the payload and its E-cube path
        // is clean. Everything else cascades into the orphan set.
        // ------------------------------------------------------------------
        let mut delivered: BTreeSet<NodeId> = BTreeSet::new();
        delivered.insert(tree.source);
        let mut kept: Vec<Unicast> = Vec::new();
        for u in &tree.unicasts {
            if faults.node_dead(u.dst) {
                continue;
            }
            if delivered.contains(&u.src) && path_is_clean(res, u.src, u.dst, faults) {
                kept.push(*u);
                delivered.insert(u.dst);
            }
        }
        let orphans: Vec<NodeId> = receivers
            .iter()
            .copied()
            .filter(|v| !faults.node_dead(*v) && !delivered.contains(v))
            .collect();

        // Step/port bookkeeping seeded from the surviving schedule.
        let mut recv_step: HashMap<NodeId, u32> = HashMap::new();
        recv_step.insert(tree.source, 0);
        let mut used: HashSet<(NodeId, u32, u8)> = HashSet::new();
        let mut order_next: HashMap<NodeId, u32> = HashMap::new();
        for u in &kept {
            recv_step.insert(u.dst, u.step);
            if let Some(d) = res.delta(u.src, u.dst) {
                used.insert((u.src, u.step, d.0));
            }
            let e = order_next.entry(u.src).or_insert(0);
            *e = (*e).max(u.order + 1);
        }

        // ------------------------------------------------------------------
        // Phase 2: regraft. Group orphans by their nearest delivered ancestor
        // (walking the original parent chain), then re-split each group from
        // that ancestor with the W-sort local rule — the same computation the
        // distributed protocol would perform on the replacement sub-chain.
        // ------------------------------------------------------------------
        let parent = tree.parent_map();
        let mut groups: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &d in &orphans {
            let mut a = match parent.get(&d) {
                Some(p) => p.src,
                None => tree.source,
            };
            while !delivered.contains(&a) {
                a = match parent.get(&a) {
                    Some(p) => p.src,
                    None => tree.source,
                };
            }
            groups.entry(a).or_default().push(d);
        }

        // Candidate regraft edges `(src, dst)` in dependency (depth) order.
        let mut candidates: Vec<(NodeId, NodeId, u32)> = Vec::new();
        for (&anchor, members) in &groups {
            match relative_chain(res, n, anchor, members) {
                Ok(mut chain) => {
                    crate::algorithms::weighted_sort::weighted_sort(&mut chain, n);
                    let mut queue: VecDeque<(Vec<NodeId>, u32, u8)> = VecDeque::new();
                    queue.push_back((chain, 0, n));
                    while let Some((seg, depth, ns)) = queue.pop_front() {
                        for (child, child_ns) in local_split(Algorithm::WSort, &seg, ns) {
                            let from = from_relative(res, n, anchor, seg[0]);
                            let to = from_relative(res, n, anchor, child[0]);
                            candidates.push((from, to, depth + 1));
                            queue.push_back((child, depth + 1, child_ns));
                        }
                    }
                }
                // Cannot happen for a valid tree (members are distinct, live,
                // and differ from the anchor) — but degrade gracefully: route
                // each member individually from the delivered set.
                Err(_) => {
                    for &d in members {
                        candidates.push((anchor, d, 1));
                    }
                }
            }
        }
        candidates.sort_by_key(|&(_, _, depth)| depth); // stable: keeps group order

        // ------------------------------------------------------------------
        // Phase 3: reroute + schedule. Emit each candidate if its E-cube path
        // is live; otherwise fall back to a shortest relay route over live
        // channels from the whole delivered set.
        // ------------------------------------------------------------------
        let mut new_unicasts: Vec<Unicast> = Vec::new();
        let mut unreachable: Vec<NodeId> = Vec::new();
        let emit = |src: NodeId,
                    dst: NodeId,
                    delivered: &mut BTreeSet<NodeId>,
                    recv_step: &mut HashMap<NodeId, u32>,
                    new_unicasts: &mut Vec<Unicast>,
                    used: &mut HashSet<(NodeId, u32, u8)>,
                    order_next: &mut HashMap<NodeId, u32>| {
            let Some(dim) = res.delta(src, dst) else {
                return; // src == dst: nothing to send
            };
            let mut step = recv_step.get(&src).copied().unwrap_or(0) + 1;
            while used.contains(&(src, step, dim.0)) {
                step += 1;
            }
            used.insert((src, step, dim.0));
            let order = order_next.entry(src).or_insert(0);
            new_unicasts.push(Unicast {
                src,
                dst,
                step,
                order: *order,
            });
            *order += 1;
            recv_step.insert(dst, step);
            delivered.insert(dst);
        };

        for (src, dst, _) in candidates {
            if delivered.contains(&dst) {
                continue; // already delivered (e.g. as an earlier relay)
            }
            if delivered.contains(&src) && path_is_clean(res, src, dst, faults) {
                emit(
                    src,
                    dst,
                    &mut delivered,
                    &mut recv_step,
                    &mut new_unicasts,
                    &mut used,
                    &mut order_next,
                );
                continue;
            }
            // Relay fallback: shortest live route from *any* delivered node.
            match live_route(cube, faults, &delivered, dst) {
                Some(route) => {
                    for hop in route.windows(2) {
                        if delivered.contains(&hop[1]) {
                            continue;
                        }
                        emit(
                            hop[0],
                            hop[1],
                            &mut delivered,
                            &mut recv_step,
                            &mut new_unicasts,
                            &mut used,
                            &mut order_next,
                        );
                    }
                }
                None => unreachable.push(dst),
            }
        }

        let rerouted: Vec<NodeId> = orphans
            .iter()
            .copied()
            .filter(|v| delivered.contains(v))
            .collect();
        let mut all = kept;
        all.extend(new_unicasts);
        let repaired = MulticastTree::new(cube, res, tree.source, all);
        let extra_steps = repaired.steps.saturating_sub(tree.steps);
        RepairOutcome {
            tree: repaired,
            dropped,
            unreachable,
            rerouted,
            extra_steps,
        }
    }

    /// Multi-source BFS over live channels: a shortest node path from any
    /// member of `delivered` to `dst`, avoiding dead channels and dead
    /// nodes. Deterministic (sources in ascending order, dimensions scanned
    /// low to high). `None` if `dst` is disconnected from the delivered set.
    fn live_route(
        cube: Cube,
        faults: &NetworkFaults,
        delivered: &BTreeSet<NodeId>,
        dst: NodeId,
    ) -> Option<Vec<NodeId>> {
        if faults.node_dead(dst) {
            return None;
        }
        let mut pred: HashMap<NodeId, NodeId> = HashMap::new();
        let mut seen: HashSet<NodeId> = delivered.iter().copied().collect();
        let mut queue: VecDeque<NodeId> = delivered.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            if v == dst {
                let mut path = vec![v];
                let mut at = v;
                while let Some(&p) = pred.get(&at) {
                    path.push(p);
                    at = p;
                }
                path.reverse();
                return Some(path);
            }
            for d in cube.dims() {
                if faults.channel_dead(v, d) {
                    continue;
                }
                let w = NodeId(v.0 ^ (1u32 << d.0));
                if seen.insert(w) {
                    pred.insert(w, v);
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// A random faulty instance: dimension 1..=10, source, up to 64
    /// destinations, up to 48 dead directed links and 3 dead nodes, and
    /// flags that kill the source (`shape & 1`) and sever every link
    /// of the first destination (`shape & 2`).
    #[allow(clippy::type_complexity)]
    fn instance() -> impl Strategy<Value = (u8, u32, Vec<u32>, Vec<u32>, Vec<u32>, u8)> {
        (1u8..=10).prop_flat_map(|n| {
            let nodes = 1u32 << n;
            let links = nodes * u32::from(n);
            (
                Just(n),
                0..nodes,
                prop::collection::btree_set(0..nodes, 0..=(nodes as usize).min(64)),
                prop::collection::btree_set(0..links, 0..=(links as usize).min(48)),
                prop::collection::btree_set(0..nodes, 0..=3),
                0u8..4,
            )
                .prop_map(|(n, src, dests, links, nodes, shape)| {
                    let dests = dests.into_iter().filter(|&d| d != src).collect();
                    let (links, nodes) = (links.into_iter().collect(), nodes.into_iter().collect());
                    (n, src, dests, links, nodes, shape)
                })
        })
    }

    proptest! {
        #[test]
        fn scratch_repair_matches_reference(
            (n, src, dests, links, nodes, shape) in instance(),
            one_port in any::<bool>(),
        ) {
            let cube = Cube::of(n);
            let dests: Vec<NodeId> = dests.into_iter().map(NodeId).collect();
            let mut faults = NetworkFaults::new();
            for ix in links {
                faults.fail_link(NodeId(ix / u32::from(n)), Dim((ix % u32::from(n)) as u8));
            }
            for v in nodes {
                faults.fail_node(NodeId(v));
            }
            if shape & 1 == 1 {
                faults.fail_node(NodeId(src));
            }
            if let (true, Some(&d)) = (shape & 2 == 2, dests.first()) {
                for dim in cube.dims() {
                    faults.fail_duplex(d, dim);
                }
            }
            let port = if one_port { PortModel::OnePort } else { PortModel::AllPort };
            // One scratch across every repair of the case, so stale
            // stamps of earlier calls are exercised too.
            let mut scratch = RepairScratch::default();
            for algo in Algorithm::ALL {
                for res in [Resolution::HighToLow, Resolution::LowToHigh] {
                    let tree = algo.build(cube, res, port, NodeId(src), &dests).unwrap();
                    let want = repair_reference(&tree, &faults);
                    let got = scratch.repair(&tree, &faults);
                    prop_assert_eq!(&got.tree.unicasts, &want.tree.unicasts, "{} {:?}", algo, res);
                    prop_assert_eq!(got.tree.steps, want.tree.steps);
                    prop_assert_eq!(&got.dropped, &want.dropped);
                    prop_assert_eq!(&got.unreachable, &want.unreachable);
                    prop_assert_eq!(&got.rerouted, &want.rerouted);
                    prop_assert_eq!(got.extra_steps, want.extra_steps);
                }
            }
        }
    }
}
