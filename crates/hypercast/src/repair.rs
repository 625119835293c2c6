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

use crate::algorithms::Algorithm;
use crate::protocol::local_split;
use crate::tree::{MulticastTree, Unicast};
use hcube::chain::{from_relative, relative_chain};
use hcube::{Cube, Dim, NodeId, Resolution};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A structural (time-independent) fault set: dead directed channels and
/// dead nodes.
///
/// This mirrors the static portion of `wormsim`'s `FaultPlan` without the
/// temporal faults (stalls, deadlines), so tree repair can live in
/// `hypercast` without a dependency cycle; `wormsim` provides a
/// `From<&FaultPlan>` bridge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkFaults {
    /// Dead directed channels, keyed `(from, dim)`.
    dead_links: BTreeSet<(u32, u8)>,
    /// Dead nodes (all incident channels dead, node cannot send/receive).
    dead_nodes: BTreeSet<u32>,
}

impl NetworkFaults {
    /// An empty (healthy-network) fault set.
    #[must_use]
    pub fn new() -> NetworkFaults {
        NetworkFaults::default()
    }

    /// Whether no faults are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dead_links.is_empty() && self.dead_nodes.is_empty()
    }

    /// Kills the single directed channel leaving `from` in dimension
    /// `dim`.
    pub fn fail_link(&mut self, from: NodeId, dim: Dim) -> &mut Self {
        self.dead_links.insert((from.0, dim.0));
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
        self.dead_nodes.insert(v.0);
        self
    }

    /// Whether node `v` is dead.
    #[must_use]
    pub fn node_dead(&self, v: NodeId) -> bool {
        self.dead_nodes.contains(&v.0)
    }

    /// Whether the directed channel leaving `from` in dimension `dim` is
    /// unusable — the link itself is dead or either endpoint node is.
    #[must_use]
    pub fn channel_dead(&self, from: NodeId, dim: Dim) -> bool {
        self.dead_links.contains(&(from.0, dim.0))
            || self.node_dead(from)
            || self.node_dead(NodeId(from.0 ^ (1u32 << dim.0)))
    }

    /// Number of individually killed directed links.
    #[must_use]
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.len()
    }

    /// Number of dead nodes.
    #[must_use]
    pub fn dead_node_count(&self) -> usize {
        self.dead_nodes.len()
    }

    /// Iterates the explicitly killed directed links.
    pub fn dead_links(&self) -> impl Iterator<Item = (NodeId, Dim)> + '_ {
        self.dead_links.iter().map(|&(v, d)| (NodeId(v), Dim(d)))
    }

    /// Iterates the dead nodes.
    pub fn dead_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dead_nodes.iter().map(|&v| NodeId(v))
    }
}

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
#[must_use]
pub fn repair(tree: &MulticastTree, faults: &NetworkFaults) -> RepairOutcome {
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
