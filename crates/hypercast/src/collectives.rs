//! Collective operations built on the multicast trees (extension beyond
//! the paper).
//!
//! The paper motivates multicast as the building block for the collective
//! routines of MPI-style libraries. Every collective here is one
//! [`CollectiveSchedule`]: an explicit DAG of unicasts, each annotated
//! with the buffer segments it carries, whether the receiver copies or
//! combines them, and the earlier unicasts it waits for. The
//! [data oracle](crate::oracle) replays any schedule symbolically and
//! `wormsim::simulate_collective` times it, so one model serves:
//!
//! * the operations on one multicast tree — **reduction** (the tree
//!   mirrored: each node sends to its parent after hearing from all of
//!   its children, so the contention-freedom arguments apply to the
//!   reversed channels), **barrier** (a reduction of one token, then its
//!   release down the tree), **scatter** and **gather** (an edge carries
//!   the blocks of every node in its subtree) and the **chunked
//!   multicast** (the payload pipelined down the tree);
//! * the full-machine suite — **allgather**, **reduce-scatter** and
//!   **allreduce** — built from any [`TreeFamily`] (the paper's
//!   algorithms or the Jacobsthal-distance [bine tree](crate::bine)) on
//!   the hypercube, and from separate addressing on *any* [`Topology`]
//!   (the torus backend).
//!
//! [`broadcast`] stays a [`MulticastTree`]: it is the multicast the
//! paper's figures replay.

use crate::algorithms::Algorithm;
use crate::bine::bine_broadcast;
use crate::cache::TreeCache;
use crate::schedule::PortModel;
use crate::tree::{MulticastTree, Unicast};
use hcube::{Cube, HcubeError, NodeId, Resolution, Topology};
use std::collections::HashMap;

/// Builds a broadcast (multicast to all `N − 1` other nodes) with the
/// given algorithm.
///
/// ```
/// use hcube::{Cube, NodeId, Resolution};
/// use hypercast::{collectives::broadcast, Algorithm, PortModel};
///
/// let t = broadcast(Algorithm::WSort, Cube::of(4), Resolution::HighToLow,
///                   PortModel::AllPort, NodeId(0))?;
/// assert_eq!(t.message_count(), 15);
/// assert_eq!(t.steps, 4); // the spanning binomial tree
/// # Ok::<(), hcube::HcubeError>(())
/// ```
///
/// # Errors
/// Propagates [`Algorithm::build`] errors (out-of-range source).
pub fn broadcast(
    algo: Algorithm,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    source: NodeId,
) -> Result<MulticastTree, HcubeError> {
    cube.check_node(source)?;
    let dests: Vec<NodeId> = cube.nodes().filter(|&v| v != source).collect();
    algo.build(cube, resolution, port_model, source, &dests)
}

/// A family of broadcast trees usable as the skeleton of a collective:
/// the paper's algorithms, or the Jacobsthal-distance bine tree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TreeFamily {
    /// One of the paper's tree-construction [`Algorithm`]s.
    Alg(Algorithm),
    /// The bine tree ([`crate::bine`]): ring-distance doubling, one send
    /// per node per step, so the port model is irrelevant to its shape.
    Bine,
}

impl TreeFamily {
    /// The families the collectives sweep compares on the hypercube.
    pub const SWEEP: [TreeFamily; 5] = [
        TreeFamily::Alg(Algorithm::UCube),
        TreeFamily::Alg(Algorithm::Maxport),
        TreeFamily::Alg(Algorithm::WSort),
        TreeFamily::Bine,
        TreeFamily::Alg(Algorithm::Separate),
    ];

    /// Display name used in tables and figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TreeFamily::Alg(a) => a.name(),
            TreeFamily::Bine => "Bine",
        }
    }

    /// Builds the family's broadcast tree from `source` to every other
    /// node. [`Algorithm`] trees go through `cache` when one is supplied
    /// (bine trees are cheap to build and bypass it).
    ///
    /// # Errors
    /// Propagates [`Algorithm::build`] / [`bine_broadcast`] errors.
    pub fn broadcast_tree(
        self,
        cube: Cube,
        resolution: Resolution,
        port_model: PortModel,
        source: NodeId,
        cache: Option<&mut TreeCache>,
    ) -> Result<MulticastTree, HcubeError> {
        match self {
            TreeFamily::Alg(algo) => match cache {
                Some(cache) => {
                    cube.check_node(source)?;
                    let dests: Vec<NodeId> = cube.nodes().filter(|&v| v != source).collect();
                    let tree =
                        cache.get_or_build(algo, cube, resolution, port_model, source, &dests)?;
                    Ok((*tree).clone())
                }
                None => broadcast(algo, cube, resolution, port_model, source),
            },
            TreeFamily::Bine => bine_broadcast(cube, resolution, source),
        }
    }
}

/// The collective operations of the full suite.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CollectiveKind {
    /// Every node ends with every node's block.
    Allgather,
    /// Every node ends with the reduction of segment `v` over all nodes.
    ReduceScatter,
    /// Every node ends with the full element-wise reduction.
    Allreduce,
}

impl CollectiveKind {
    /// All three collectives, in sweep order.
    pub const ALL: [CollectiveKind; 3] = [
        CollectiveKind::Allgather,
        CollectiveKind::ReduceScatter,
        CollectiveKind::Allreduce,
    ];

    /// Display name used in tables and the sweep artifact.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::ReduceScatter => "reduce-scatter",
            CollectiveKind::Allreduce => "allreduce",
        }
    }
}

/// What a [`CollectiveSchedule`] computes: the final state the
/// [data oracle](crate::oracle) checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operation {
    /// A full-machine collective of the suite.
    Suite(CollectiveKind),
    /// Every destination's contribution, combined at the root.
    Reduce,
    /// A reduction of one token to the root, then its release to every
    /// destination.
    Barrier,
    /// A distinct block from the root to every destination.
    Scatter,
    /// A distinct block from every destination, concatenated at the root.
    Gather,
    /// The root's buffer, chunk by chunk, to every destination.
    Multicast,
}

impl Operation {
    /// Display name used in tables and oracle messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Operation::Suite(kind) => kind.name(),
            Operation::Reduce => "reduce",
            Operation::Barrier => "barrier",
            Operation::Scatter => "scatter",
            Operation::Gather => "gather",
            Operation::Multicast => "multicast",
        }
    }
}

/// Which buffer segments a collective unicast carries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Segments {
    /// A single segment.
    One(u32),
    /// Several segments, ascending: a subtree's blocks in a scatter or
    /// gather.
    Set(Vec<u32>),
    /// The whole buffer.
    All,
}

impl Segments {
    /// The carried segments, ascending, of a `total`-segment buffer.
    pub fn indices(&self, total: u32) -> impl Iterator<Item = u32> + '_ {
        let (listed, all) = match self {
            Segments::One(s) => (std::slice::from_ref(s), 0..0),
            Segments::Set(set) => (set.as_slice(), 0..0),
            Segments::All => (&[][..], 0..total),
        };
        listed.iter().copied().chain(all)
    }
}

/// What the receiver does with an arriving payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transfer {
    /// Replace the receiver's segment(s) with the sender's (broadcast,
    /// allgather and scatter data movement).
    Copy,
    /// Element-wise combine into the receiver's segment(s) (reduction
    /// data movement; a gather combines disjoint blocks, which
    /// concatenates them).
    Combine,
}

/// One unicast of a [`CollectiveSchedule`], annotated with the data it
/// moves and the operations it must wait for.
#[derive(Clone, Debug)]
pub struct CollectiveOp {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// 1-based schedule step (concurrent trees share the step axis).
    pub step: u32,
    /// The segment(s) carried.
    pub segments: Segments,
    /// Combine or copy at the receiver.
    pub transfer: Transfer,
    /// Indices (into the schedule's `ops`) whose payloads must have
    /// arrived at `src` before this op can issue.
    pub deps: Vec<usize>,
    /// Payload bytes: `block_bytes` per segment carried.
    pub bytes: u32,
}

/// A complete collective schedule: an explicit DAG of annotated unicasts
/// that the [data oracle](crate::oracle) can replay symbolically and the
/// wormhole engine can execute as a dependency workload.
#[derive(Clone, Debug)]
pub struct CollectiveSchedule {
    /// What the schedule computes.
    pub kind: Operation,
    /// Nodes of the machine it runs on.
    pub nodes: u32,
    /// Segments of every node's buffer: one per node for the suite,
    /// scatter and gather, one per chunk for a chunked multicast, and one
    /// for a reduction or barrier.
    pub segments: u32,
    /// Bytes per segment.
    pub block_bytes: u32,
    /// Total steps (max over concurrent trees, sum over phases).
    pub steps: u32,
    /// The tree root of an operation on one tree, and the allreduce
    /// root; node 0 for allgather and reduce-scatter.
    pub root: NodeId,
    /// The destinations of an operation on one tree: its receivers.
    /// Empty for the suite, in which every node takes part.
    pub dests: Vec<NodeId>,
    /// The constituent unicasts.
    pub ops: Vec<CollectiveOp>,
}

impl CollectiveSchedule {
    /// Total payload bytes injected across all constituent unicasts.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.ops.iter().map(|op| u64::from(op.bytes)).sum()
    }
}

/// Why a collective schedule cannot be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollectiveError {
    /// The tree underneath could not be built.
    Tree(HcubeError),
    /// One op would carry more than `u32::MAX` bytes.
    Oversized {
        /// The segments the op carries.
        segments: usize,
        /// Bytes per segment.
        block_bytes: u32,
    },
}

impl From<HcubeError> for CollectiveError {
    fn from(e: HcubeError) -> CollectiveError {
        CollectiveError::Tree(e)
    }
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::Tree(e) => e.fmt(f),
            CollectiveError::Oversized {
                segments,
                block_bytes,
            } => write!(
                f,
                "an op carrying {segments} blocks of {block_bytes} bytes exceeds {} bytes",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// The bytes of one op carrying `segments` blocks of `block_bytes`: the
/// one checked product behind every constructor's byte counts.
///
/// # Errors
/// [`CollectiveError::Oversized`] when the product exceeds `u32::MAX`.
pub fn op_bytes(segments: usize, block_bytes: u32) -> Result<u32, CollectiveError> {
    u64::try_from(segments)
        .ok()
        .and_then(|s| s.checked_mul(u64::from(block_bytes)))
        .and_then(|b| u32::try_from(b).ok())
        .ok_or(CollectiveError::Oversized {
            segments,
            block_bytes,
        })
}

/// Appends `copies` ops per edge of a tree (its unicasts, in tree order),
/// `offset` steps late, each copying `carry(edge, copy)` — its segments
/// and bytes — down the tree. Copy `c` of a forward waits for copy `c`
/// of the op into its sender; the root's sends wait for `root_deps`.
fn push_down(
    ops: &mut Vec<CollectiveOp>,
    edges: &[Unicast],
    offset: u32,
    copies: usize,
    root_deps: &[usize],
    mut carry: impl FnMut(&Unicast, usize) -> (Segments, u32),
) {
    let mut inbound: HashMap<NodeId, usize> = HashMap::new();
    for u in edges {
        let first = inbound.get(&u.src).copied();
        inbound.insert(u.dst, ops.len());
        for c in 0..copies {
            let (segments, bytes) = carry(u, c);
            ops.push(CollectiveOp {
                src: u.src,
                dst: u.dst,
                step: offset + u.step,
                segments,
                transfer: Transfer::Copy,
                deps: first.map_or_else(|| root_deps.to_vec(), |i| vec![i + c]),
                bytes,
            });
        }
    }
}

/// Appends the mirror image of a tree (its unicasts): every edge reversed
/// and its step mirrored (`t ↦ steps + 1 − t`), each op combining
/// `carry(edge)` into the sender's tree parent after every op into its
/// sender.
fn push_up(
    ops: &mut Vec<CollectiveOp>,
    edges: &[Unicast],
    mut carry: impl FnMut(&Unicast) -> (Segments, u32),
) {
    let steps = edges.iter().map(|u| u.step).max().unwrap_or(0);
    let mut mirrored: Vec<Unicast> = edges
        .iter()
        .map(|u| Unicast {
            src: u.dst,
            dst: u.src,
            step: steps + 1 - u.step,
            order: u.order,
        })
        .collect();
    mirrored.sort_by_key(|u| (u.step, u.src, u.order));
    // A node's children send at strictly earlier mirrored steps, so every
    // op into a sender precedes the sender's own op.
    let mut inbound: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for u in &mirrored {
        let (segments, bytes) = carry(u);
        let deps = inbound.get(&u.src).cloned().unwrap_or_default();
        inbound.entry(u.dst).or_default().push(ops.len());
        ops.push(CollectiveOp {
            src: u.src,
            dst: u.dst,
            step: u.step,
            segments,
            transfer: Transfer::Combine,
            deps,
            bytes,
        });
    }
}

/// A reduction of the whole `segments`-block buffer up a tree rooted at
/// `root` (its unicasts), then its release down the same tree; the
/// root's release sends wait for every op into the root.
fn reduce_then_release(
    edges: &[Unicast],
    root: NodeId,
    segments: usize,
    block_bytes: u32,
) -> Result<Vec<CollectiveOp>, CollectiveError> {
    let bytes = op_bytes(segments, block_bytes)?;
    let mut ops = Vec::with_capacity(2 * edges.len());
    push_up(&mut ops, edges, |_| (Segments::All, bytes));
    let into_root: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].dst == root).collect();
    let steps = edges.iter().map(|u| u.step).max().unwrap_or(0);
    push_down(&mut ops, edges, steps, 1, &into_root, |_, _| {
        (Segments::All, bytes)
    });
    Ok(ops)
}

/// Separate addressing from `root`: one step, one unicast to every other
/// node.
fn star(nodes: usize, root: NodeId) -> Vec<Unicast> {
    (0..nodes as u32)
        .filter(|&v| v != root.0)
        .enumerate()
        .map(|(k, v)| Unicast {
            src: root,
            dst: NodeId(v),
            step: 1,
            order: k as u32,
        })
        .collect()
}

/// For every receiver of `tree`, the nodes of its subtree, ascending, as
/// the segments an edge into it carries, with their bytes.
fn subtrees(
    tree: &MulticastTree,
    block_bytes: u32,
) -> Result<HashMap<NodeId, (Segments, u32)>, CollectiveError> {
    let mut sets: HashMap<NodeId, Vec<u32>> = tree
        .unicasts
        .iter()
        .map(|u| (u.dst, vec![u.dst.0]))
        .collect();
    // Edges out of a node follow the edge into it in tree order (see
    // `MulticastTree::subtree_sizes`), so a reverse sweep completes every
    // subtree before adding it to its parent's.
    for u in tree.unicasts.iter().rev() {
        let child = sets[&u.dst].clone();
        if let Some(parent) = sets.get_mut(&u.src) {
            parent.extend(child);
        }
    }
    let mut carried = HashMap::with_capacity(sets.len());
    for u in &tree.unicasts {
        if let Some(mut set) = sets.remove(&u.dst) {
            set.sort_unstable();
            let bytes = op_bytes(set.len(), block_bytes)?;
            carried.insert(u.dst, (Segments::Set(set), bytes));
        }
    }
    Ok(carried)
}

/// A schedule on one tree: rooted at its source, its receivers the
/// destinations, as many steps as its last op.
fn on_tree(
    kind: Operation,
    tree: &MulticastTree,
    segments: u32,
    block_bytes: u32,
    ops: Vec<CollectiveOp>,
) -> CollectiveSchedule {
    CollectiveSchedule {
        kind,
        nodes: tree.cube.node_count() as u32,
        segments,
        block_bytes,
        steps: ops.iter().map(|op| op.step).max().unwrap_or(0),
        root: tree.source,
        dests: tree.receivers(),
        ops,
    }
}

/// A full-machine schedule of the suite: one segment per node, as many
/// steps as its last op.
fn suite(
    kind: CollectiveKind,
    nodes: usize,
    root: NodeId,
    block_bytes: u32,
    ops: Vec<CollectiveOp>,
) -> CollectiveSchedule {
    CollectiveSchedule {
        kind: Operation::Suite(kind),
        nodes: nodes as u32,
        segments: nodes as u32,
        block_bytes,
        steps: ops.iter().map(|op| op.step).max().unwrap_or(0),
        root,
        dests: Vec::new(),
        ops,
    }
}

/// Builds a reduction on `tree`, mirrored: every receiver contributes a
/// `block_bytes` block, combined on the way to the root.
///
/// # Errors
/// [`CollectiveError::Oversized`], as for every constructor, when an op
/// would carry more than `u32::MAX` bytes.
pub fn reduce(
    tree: &MulticastTree,
    block_bytes: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    let bytes = op_bytes(1, block_bytes)?;
    let mut ops = Vec::with_capacity(tree.unicasts.len());
    push_up(&mut ops, &tree.unicasts, |_| (Segments::All, bytes));
    Ok(on_tree(Operation::Reduce, tree, 1, block_bytes, ops))
}

/// Builds a barrier on `tree`: a reduction of one `block_bytes` token to
/// the root, then its release down the same tree — an allreduce of a
/// one-segment buffer.
///
/// # Errors
/// [`CollectiveError::Oversized`] when an op would carry more than
/// `u32::MAX` bytes.
pub fn barrier(
    tree: &MulticastTree,
    block_bytes: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    let ops = reduce_then_release(&tree.unicasts, tree.source, 1, block_bytes)?;
    Ok(on_tree(Operation::Barrier, tree, 1, block_bytes, ops))
}

/// Builds a scatter (personalized communication, following the line of
/// the paper's reference \[5]) on `tree`: the root sends a distinct
/// `block_bytes` block to every receiver, so an edge carries the blocks
/// of every node in its subtree, relays included.
///
/// # Errors
/// [`CollectiveError::Oversized`] when an edge would carry more than
/// `u32::MAX` bytes.
pub fn scatter(
    tree: &MulticastTree,
    block_bytes: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    let sets = subtrees(tree, block_bytes)?;
    let mut ops = Vec::with_capacity(tree.unicasts.len());
    push_down(&mut ops, &tree.unicasts, 0, 1, &[], |u, _| {
        sets[&u.dst].clone()
    });
    let nodes = tree.cube.node_count() as u32;
    Ok(on_tree(Operation::Scatter, tree, nodes, block_bytes, ops))
}

/// Builds a gather on `tree`, mirrored: every receiver owns a distinct
/// `block_bytes` block, and a node sends its whole subtree's blocks to
/// its parent after hearing from all of its children.
///
/// # Errors
/// [`CollectiveError::Oversized`] when an edge would carry more than
/// `u32::MAX` bytes.
pub fn gather(
    tree: &MulticastTree,
    block_bytes: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    let sets = subtrees(tree, block_bytes)?;
    let mut ops = Vec::with_capacity(tree.unicasts.len());
    push_up(&mut ops, &tree.unicasts, |u| sets[&u.src].clone());
    let nodes = tree.cube.node_count() as u32;
    Ok(on_tree(Operation::Gather, tree, nodes, block_bytes, ops))
}

/// Builds a chunked, pipelined multicast on `tree`: the `bytes`-byte
/// payload splits into `chunks` pieces of `bytes.div_ceil(chunks)` bytes
/// that stream down the tree independently. Chunk `c` crosses an edge as
/// soon as it has arrived at the edge's sender, while later chunks are
/// still upstream (the classic pipelined-tree broadcast; the paper's
/// algorithms send the payload whole). Ops are edge-major, chunk-minor.
///
/// # Errors
/// [`CollectiveError::Oversized`] when an op would carry more than
/// `u32::MAX` bytes.
///
/// # Panics
/// If `chunks == 0`.
pub fn chunked_multicast(
    tree: &MulticastTree,
    bytes: u32,
    chunks: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    assert!(chunks >= 1, "at least one chunk");
    let block_bytes = bytes.div_ceil(chunks);
    let chunk_bytes = op_bytes(1, block_bytes)?;
    let mut ops = Vec::with_capacity(tree.unicasts.len() * chunks as usize);
    push_down(&mut ops, &tree.unicasts, 0, chunks as usize, &[], |_, c| {
        (Segments::One(c as u32), chunk_bytes)
    });
    Ok(on_tree(
        Operation::Multicast,
        tree,
        chunks,
        block_bytes,
        ops,
    ))
}

/// Builds an allgather: `N` concurrent broadcast trees of `family`, one
/// rooted at each node, each moving its root's block to everyone.
///
/// # Errors
/// Propagates [`TreeFamily::broadcast_tree`] errors.
pub fn allgather(
    family: TreeFamily,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    block_bytes: u32,
    mut cache: Option<&mut TreeCache>,
) -> Result<CollectiveSchedule, CollectiveError> {
    let bytes = op_bytes(1, block_bytes)?;
    let mut ops = Vec::new();
    for src in cube.nodes() {
        let tree =
            family.broadcast_tree(cube, resolution, port_model, src, cache.as_deref_mut())?;
        push_down(&mut ops, &tree.unicasts, 0, 1, &[], |_, _| {
            (Segments::One(src.0), bytes)
        });
    }
    let nodes = cube.node_count();
    Ok(suite(
        CollectiveKind::Allgather,
        nodes,
        NodeId(0),
        block_bytes,
        ops,
    ))
}

/// Builds a reduce-scatter: `N` concurrent mirrored reductions of
/// `family`'s trees, the one rooted at `r` combining everyone's segment
/// `r` toward node `r`.
///
/// # Errors
/// Propagates [`TreeFamily::broadcast_tree`] errors.
pub fn reduce_scatter(
    family: TreeFamily,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    block_bytes: u32,
    mut cache: Option<&mut TreeCache>,
) -> Result<CollectiveSchedule, CollectiveError> {
    let bytes = op_bytes(1, block_bytes)?;
    let mut ops = Vec::new();
    for root in cube.nodes() {
        let tree =
            family.broadcast_tree(cube, resolution, port_model, root, cache.as_deref_mut())?;
        push_up(&mut ops, &tree.unicasts, |_| (Segments::One(root.0), bytes));
    }
    let nodes = cube.node_count();
    Ok(suite(
        CollectiveKind::ReduceScatter,
        nodes,
        NodeId(0),
        block_bytes,
        ops,
    ))
}

/// Builds an allreduce: reduce the whole vector to `root` along
/// `family`'s mirrored tree, then broadcast the result back along the
/// same tree. Both phases carry the full `N × block_bytes` vector.
///
/// # Errors
/// Propagates [`TreeFamily::broadcast_tree`] errors, and
/// [`CollectiveError::Oversized`] when the full vector exceeds `u32::MAX`
/// bytes.
pub fn allreduce(
    family: TreeFamily,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    root: NodeId,
    block_bytes: u32,
    cache: Option<&mut TreeCache>,
) -> Result<CollectiveSchedule, CollectiveError> {
    let tree = family.broadcast_tree(cube, resolution, port_model, root, cache)?;
    let nodes = cube.node_count();
    let ops = reduce_then_release(&tree.unicasts, root, nodes, block_bytes)?;
    Ok(suite(
        CollectiveKind::Allreduce,
        nodes,
        root,
        block_bytes,
        ops,
    ))
}

/// One step in which every node sends one block straight to every other
/// node: segment `segment(src, dst)`, copied or combined.
fn direct<T: Topology>(
    topo: &T,
    kind: CollectiveKind,
    transfer: Transfer,
    block_bytes: u32,
    segment: fn(u32, u32) -> u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    let (nodes, bytes) = (topo.node_count(), op_bytes(1, block_bytes)?);
    let mut ops = Vec::with_capacity(nodes * (nodes - 1));
    for src in 0..nodes as u32 {
        for dst in (0..nodes as u32).filter(|&dst| dst != src) {
            ops.push(CollectiveOp {
                src: NodeId(src),
                dst: NodeId(dst),
                step: 1,
                segments: Segments::One(segment(src, dst)),
                transfer,
                deps: Vec::new(),
                bytes,
            });
        }
    }
    Ok(suite(kind, nodes, NodeId(0), block_bytes, ops))
}

/// Builds a separate-addressing allgather on *any* topology: every node
/// sends its block directly to every other node in one step. This is the
/// baseline the torus rows of the collectives sweep use.
///
/// # Errors
/// None in practice: every op carries one block.
pub fn allgather_separate<T: Topology>(
    topo: &T,
    block_bytes: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    let own = |src, _| src;
    direct(
        topo,
        CollectiveKind::Allgather,
        Transfer::Copy,
        block_bytes,
        own,
    )
}

/// Builds a separate-addressing reduce-scatter on *any* topology: every
/// node sends segment `r` directly to node `r`, which combines the
/// `N − 1` arrivals with its own segment.
///
/// # Errors
/// None in practice: every op carries one block.
pub fn reduce_scatter_separate<T: Topology>(
    topo: &T,
    block_bytes: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    let theirs = |_, dst| dst;
    direct(
        topo,
        CollectiveKind::ReduceScatter,
        Transfer::Combine,
        block_bytes,
        theirs,
    )
}

/// Builds a separate-addressing allreduce on *any* topology: the
/// allreduce on the star from `root`. All nodes send their full vector
/// to `root` (which combines), then `root` sends the result back to
/// everyone.
///
/// # Errors
/// [`CollectiveError::Oversized`] when the full vector exceeds
/// `u32::MAX` bytes.
///
/// # Panics
/// If `root` is outside the topology.
pub fn allreduce_separate<T: Topology>(
    topo: &T,
    root: NodeId,
    block_bytes: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    let nodes = topo.node_count();
    assert!(
        (root.0 as usize) < nodes,
        "allreduce root {root} outside the topology"
    );
    let ops = reduce_then_release(&star(nodes, root), root, nodes, block_bytes)?;
    Ok(suite(
        CollectiveKind::Allreduce,
        nodes,
        root,
        block_bytes,
        ops,
    ))
}

/// Builds the suite collective `kind` over `family`'s broadcast trees:
/// [`allgather`], [`reduce_scatter`] or [`allreduce`]. `root` is the
/// allreduce's root; the other two root a tree at every node.
///
/// # Errors
/// Those of the collective built.
#[allow(clippy::too_many_arguments)]
pub fn suite_collective(
    kind: CollectiveKind,
    family: TreeFamily,
    cube: Cube,
    resolution: Resolution,
    port_model: PortModel,
    root: NodeId,
    block_bytes: u32,
    cache: Option<&mut TreeCache>,
) -> Result<CollectiveSchedule, CollectiveError> {
    match kind {
        CollectiveKind::Allgather => {
            allgather(family, cube, resolution, port_model, block_bytes, cache)
        }
        CollectiveKind::ReduceScatter => {
            reduce_scatter(family, cube, resolution, port_model, block_bytes, cache)
        }
        CollectiveKind::Allreduce => allreduce(
            family,
            cube,
            resolution,
            port_model,
            root,
            block_bytes,
            cache,
        ),
    }
}

/// Builds the suite collective `kind` by separate addressing on any
/// topology: [`allgather_separate`], [`reduce_scatter_separate`] or
/// [`allreduce_separate`]. `root` is the allreduce's root.
///
/// # Errors
/// Those of the collective built.
///
/// # Panics
/// If `kind` is the allreduce and `root` is outside the topology.
pub fn suite_collective_separate<T: Topology>(
    kind: CollectiveKind,
    topo: &T,
    root: NodeId,
    block_bytes: u32,
) -> Result<CollectiveSchedule, CollectiveError> {
    match kind {
        CollectiveKind::Allgather => allgather_separate(topo, block_bytes),
        CollectiveKind::ReduceScatter => reduce_scatter_separate(topo, block_bytes),
        CollectiveKind::Allreduce => allreduce_separate(topo, root, block_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::verify_collective;

    fn wsort_broadcast(n: u8, root: u32) -> MulticastTree {
        broadcast(
            Algorithm::WSort,
            Cube::of(n),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(root),
        )
        .unwrap()
    }

    #[test]
    fn broadcast_reaches_every_node() {
        for algo in Algorithm::PAPER {
            let t = broadcast(
                algo,
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(5),
            )
            .unwrap();
            for v in Cube::of(4).nodes() {
                if v != NodeId(5) {
                    assert!(t.recv_step(v).is_some(), "{algo} missed {v}");
                }
            }
            assert_eq!(t.message_count(), 15);
        }
    }

    #[test]
    fn reduction_mirrors_the_tree() {
        let t = wsort_broadcast(3, 0);
        let r = reduce(&t, 64).unwrap();
        assert_eq!(r.kind, Operation::Reduce);
        assert_eq!(r.root, NodeId(0));
        assert_eq!(r.ops.len(), t.unicasts.len());
        assert_eq!(r.steps, t.steps);
        assert!(r.ops.iter().all(|op| op.transfer == Transfer::Combine));
        // Every multicast edge appears reversed.
        for u in &t.unicasts {
            assert!(r
                .ops
                .iter()
                .any(|v| v.src == u.dst && v.dst == u.src && v.step == t.steps + 1 - u.step));
        }
    }

    #[test]
    fn reduction_is_causal_for_every_algorithm_and_port_model() {
        for algo in Algorithm::ALL {
            for port in [PortModel::OnePort, PortModel::AllPort] {
                let t = algo
                    .build(
                        Cube::of(4),
                        Resolution::HighToLow,
                        port,
                        NodeId(2),
                        &[NodeId(1), NodeId(7), NodeId(9), NodeId(14)],
                    )
                    .unwrap();
                let r = reduce(&t, 64).unwrap();
                // A node sends only after, and waiting for, every op into it.
                for (i, up) in r.ops.iter().enumerate() {
                    for (j, down) in r.ops.iter().enumerate() {
                        if down.dst == up.src {
                            assert!(down.step < up.step, "{algo} {port:?}");
                            assert!(up.deps.contains(&j), "{algo} {port:?}: op {i}");
                        }
                    }
                }
                verify_collective(&r).unwrap_or_else(|e| panic!("{algo} {port:?}: {e}"));
            }
        }
    }

    #[test]
    fn barrier_steps_are_the_sum_of_phases() {
        let t = wsort_broadcast(4, 0);
        let b = barrier(&t, 16).unwrap();
        assert_eq!(b.steps, 2 * t.steps);
        assert_eq!(b.ops.len(), 2 * t.unicasts.len());
        let (reduce_ops, release_ops) = b.ops.split_at(t.unicasts.len());
        assert!(reduce_ops.iter().all(|op| op.step <= t.steps));
        assert!(release_ops.iter().all(|op| op.step > t.steps));
        // The root releases only after every contribution reached it.
        let into_root: Vec<usize> = (0..reduce_ops.len())
            .filter(|&i| reduce_ops[i].dst == NodeId(0))
            .collect();
        for op in release_ops.iter().filter(|op| op.src == NodeId(0)) {
            assert_eq!(op.deps, into_root);
        }
        assert!(b.ops.iter().all(|op| op.bytes == 16));
        verify_collective(&b).unwrap();
    }

    #[test]
    fn gather_mirrors_scatter() {
        let g = gather(&wsort_broadcast(4, 0), 1024).unwrap();
        assert_eq!(g.ops.len(), 15);
        // Edges arriving at the root carry, in total, every block.
        let into_root: u64 = g
            .ops
            .iter()
            .filter(|op| op.dst == NodeId(0))
            .map(|op| u64::from(op.bytes))
            .sum();
        assert_eq!(into_root, 15 * 1024);
        assert!(g
            .ops
            .iter()
            .all(|op| op.bytes >= 1024 && op.bytes % 1024 == 0));
        verify_collective(&g).unwrap();
    }

    #[test]
    fn scatter_edge_bytes_cover_subtrees() {
        let tree = wsort_broadcast(4, 0);
        let s = scatter(&tree, 1024).unwrap();
        // The root injects every block exactly once.
        let root_bytes: u32 = s
            .ops
            .iter()
            .filter(|op| op.src == NodeId(0))
            .map(|op| op.bytes)
            .sum();
        assert_eq!(root_bytes, 15 * 1024);
        // An edge carries its receiver's subtree, exactly.
        for (u, op) in tree.unicasts.iter().zip(&s.ops) {
            let mut subtree: Vec<u32> = tree.reachable_set(u.dst).iter().map(|v| v.0).collect();
            subtree.sort_unstable();
            assert_eq!(op.bytes, subtree.len() as u32 * 1024);
            assert_eq!(op.segments, Segments::Set(subtree));
        }
        verify_collective(&s).unwrap();
    }

    #[test]
    fn scatter_separate_addressing_has_no_forwarding_inflation() {
        // Under separate addressing, each block travels directly: edge
        // bytes are exactly one block each.
        let tree = Algorithm::Separate
            .build(
                Cube::of(3),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &(1..8).map(NodeId).collect::<Vec<_>>(),
            )
            .unwrap();
        let s = scatter(&tree, 512).unwrap();
        assert!(s.ops.iter().all(|op| op.bytes == 512));
    }

    #[test]
    fn scatter_and_gather_bytes_match_the_per_edge_reachable_sets() {
        // Regression for the O(V·E) fix: the one reverse sweep must
        // reproduce, byte for byte, what per-unicast `reachable_set`
        // calls compute.
        for algo in Algorithm::ALL {
            for resolution in [Resolution::HighToLow, Resolution::LowToHigh] {
                let dests: Vec<NodeId> =
                    [3u32, 5, 6, 9, 10, 12, 15, 17, 23, 30].map(NodeId).to_vec();
                let tree = algo
                    .build(
                        Cube::of(5),
                        resolution,
                        PortModel::AllPort,
                        NodeId(1),
                        &dests,
                    )
                    .unwrap();
                let s = scatter(&tree, 640).unwrap();
                for (u, op) in tree.unicasts.iter().zip(&s.ops) {
                    let old = 640 * tree.reachable_set(u.dst).len() as u32;
                    assert_eq!(op.bytes, old, "{algo} {resolution:?} scatter {u:?}");
                }
                let g = gather(&tree, 640).unwrap();
                for op in &g.ops {
                    let old = 640 * tree.reachable_set(op.src).len() as u32;
                    assert_eq!(op.bytes, old, "{algo} {resolution:?} gather {op:?}");
                }
            }
        }
    }

    #[test]
    fn chunked_multicast_pipelines_each_chunk_behind_its_parent() {
        let tree = wsort_broadcast(3, 0);
        let m = chunked_multicast(&tree, 1000, 3).unwrap();
        assert_eq!(m.segments, 3);
        assert_eq!(m.ops.len(), 3 * tree.unicasts.len());
        assert!(m.ops.iter().all(|op| op.bytes == 334));
        for (i, op) in m.ops.iter().enumerate() {
            let (e, c) = (i / 3, i % 3);
            assert_eq!(
                (op.src, op.dst),
                (tree.unicasts[e].src, tree.unicasts[e].dst)
            );
            assert_eq!(op.segments, Segments::One(c as u32));
            // Chunk c waits for chunk c of the edge into its sender.
            for &d in &op.deps {
                assert_eq!(d % 3, c);
                assert_eq!(m.ops[d].dst, op.src);
            }
        }
        verify_collective(&m).unwrap();
    }

    #[test]
    fn allgather_has_one_op_per_tree_edge() {
        for family in TreeFamily::SWEEP {
            let s = allgather(
                family,
                Cube::of(4),
                Resolution::HighToLow,
                PortModel::AllPort,
                256,
                None,
            )
            .unwrap();
            assert_eq!(s.ops.len(), 16 * 15, "{}", family.name());
            assert_eq!(s.payload_bytes(), 16 * 15 * 256, "{}", family.name());
            assert!(s.steps >= 1);
            // Dependencies always point backwards (a valid DAG order).
            for (i, op) in s.ops.iter().enumerate() {
                assert!(op.deps.iter().all(|&d| d < i));
            }
        }
    }

    #[test]
    fn reduce_scatter_combines_toward_every_root() {
        let s = reduce_scatter(
            TreeFamily::Alg(Algorithm::WSort),
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            512,
            None,
        )
        .unwrap();
        assert_eq!(s.ops.len(), 8 * 7);
        for root in 0..8u32 {
            // Segment `root` flows only toward node `root` and every
            // non-root node sends it exactly once.
            let seg_ops: Vec<_> = s
                .ops
                .iter()
                .filter(|op| op.segments == Segments::One(root))
                .collect();
            assert_eq!(seg_ops.len(), 7);
            assert!(seg_ops.iter().all(|op| op.transfer == Transfer::Combine));
        }
    }

    #[test]
    fn allreduce_runs_reduce_then_broadcast() {
        let s = allreduce(
            TreeFamily::Bine,
            Cube::of(3),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(2),
            128,
            None,
        )
        .unwrap();
        assert_eq!(s.ops.len(), 2 * 7);
        assert_eq!(s.steps, 6); // 3 reduce + 3 broadcast steps
        assert!(s.ops.iter().all(|op| op.bytes == 8 * 128));
        // The root's first broadcast send depends on all 7 reduce ops
        // that terminate at it transitively; directly, on its inbound.
        let first_bcast = s
            .ops
            .iter()
            .find(|op| op.transfer == Transfer::Copy && op.src == NodeId(2))
            .unwrap();
        assert!(!first_bcast.deps.is_empty());
    }

    #[test]
    fn separate_builders_work_on_any_topology() {
        let torus = hcube::Torus::of(3, 2); // 3-ary 2-cube: 9 nodes
        let ag = allgather_separate(&torus, 64).unwrap();
        assert_eq!(ag.nodes, 9);
        assert_eq!(ag.ops.len(), 9 * 8);
        assert_eq!(ag.steps, 1);
        let rs = reduce_scatter_separate(&torus, 64).unwrap();
        assert_eq!(rs.ops.len(), 9 * 8);
        let ar = allreduce_separate(&torus, NodeId(0), 64).unwrap();
        assert_eq!(ar.ops.len(), 2 * 8);
        assert_eq!(ar.steps, 2);
        assert!(ar.ops.iter().all(|op| op.bytes == 9 * 64));
        // Broadcast-phase ops wait on the whole gather phase.
        assert!(ar.ops[8..].iter().all(|op| op.deps.len() == 8));
    }

    #[test]
    fn oversized_payloads_are_an_error_not_a_panic() {
        let too_big = 1 << 28; // 16 blocks of 256 MiB exceed u32::MAX bytes
        let want = CollectiveError::Oversized {
            segments: 16,
            block_bytes: too_big,
        };
        let (res, port) = (Resolution::HighToLow, PortModel::AllPort);
        for family in TreeFamily::SWEEP {
            let err = allreduce(family, Cube::of(4), res, port, NodeId(0), too_big, None);
            assert_eq!(err.unwrap_err(), want, "{}", family.name());
        }
        let torus = hcube::Torus::of(4, 2);
        let err = allreduce_separate(&torus, NodeId(0), too_big).unwrap_err();
        assert_eq!(err, want);
        assert!(
            err.to_string().contains("exceeds 4294967295 bytes"),
            "{err}"
        );
        // The binomial tree's subtrees of 4 and 8 nodes overflow.
        let (tree, huge) = (wsort_broadcast(4, 0), 1 << 30);
        let oversized = |r: Result<CollectiveSchedule, CollectiveError>| {
            matches!(
                r,
                Err(CollectiveError::Oversized {
                    segments: 4 | 8,
                    ..
                })
            )
        };
        assert!(oversized(scatter(&tree, huge)));
        assert!(oversized(gather(&tree, huge)));
        assert_eq!(op_bytes(1, u32::MAX), Ok(u32::MAX));
        assert!(op_bytes(usize::MAX, 2).is_err());
    }

    #[test]
    fn tree_families_share_the_cache_for_algorithm_trees() {
        let mut cache = TreeCache::new(64);
        let cube = Cube::of(3);
        for _ in 0..2 {
            allgather(
                TreeFamily::Alg(Algorithm::WSort),
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                64,
                Some(&mut cache),
            )
            .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 8); // one build per root, first pass only
        assert_eq!(stats.hits, 8); // second pass entirely cached
    }

    #[test]
    fn empty_reduction_from_trivial_tree() {
        let t = Algorithm::UCube
            .build(
                Cube::of(3),
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &[],
            )
            .unwrap();
        let r = reduce(&t, 64).unwrap();
        assert!(r.ops.is_empty());
        assert_eq!(r.steps, 0);
        verify_collective(&r).unwrap();
    }
}
