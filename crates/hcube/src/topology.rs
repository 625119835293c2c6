//! The topology/router abstraction layer.
//!
//! The paper states its contention theory and tree algorithms for
//! hypercubes, but its framing — deterministic dimension-ordered
//! wormhole routing on all-port nodes — generalizes directly to other
//! direct networks. This module pins down the two contracts the
//! simulation stack builds on, so the discrete-event engine, tracing,
//! fault injection, and workload sweeps are written once and run on any
//! backend:
//!
//! * [`Topology`] — a static directed-**link** graph with **dense link
//!   indexing**: every node has a fixed number of outgoing link slots
//!   ("ports"), and `channel_index`/`channel_coords` form a bijection
//!   between `(node, port)` pairs and `0..channel_count()`. Ports are
//!   grouped into *coordinate dimensions* for per-dimension statistics.
//! * [`Router`] — a **deterministic route enumerator** on top of a
//!   topology: for any ordered node pair it produces the exact sequence
//!   of [`Hop`]s a worm's header nominally acquires. A router also fixes
//!   the *virtual-lane* configuration of the network: every physical
//!   link is multiplied into [`lanes`](Router::lanes) independent FIFO
//!   channels, densely indexed as `link · lanes + lane`. Determinism is
//!   what makes whole simulation runs reproducible byte-for-byte.
//!
//! [`Cube`] with E-cube routing ([`Ecube`]) is the first implementation;
//! [`crate::torus::Torus`] (k-ary n-cube whose dateline virtual channels
//! are simply `lanes = 2` of the general mechanism) and the 2D
//! [`crate::mesh::Mesh`] (XY and west-first minimal-adaptive routing)
//! prove generality. Channel-indexing invariants are spelled out in
//! DESIGN.md §9 and §14.

use crate::addr::{Dim, NodeId};
use crate::cube::Cube;
use crate::path::Path;
use crate::routing::Resolution;

/// One hop of a route: the link left from `from` on `port`, entered on
/// virtual lane `lane`.
///
/// The lane is the *nominal* lane: the lowest lane of the route's lane
/// class at this hop. An engine simulating the route may substitute any
/// free lane of the same class (see [`Router::lane_classes`]); a
/// deterministic single-lane-per-class configuration always uses the
/// nominal lane itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Hop {
    /// The node the hop leaves.
    pub from: NodeId,
    /// The port (physical link slot) the hop leaves on.
    pub port: Dim,
    /// The nominal virtual lane (`< Router::lanes()`), the lowest lane
    /// of the hop's lane class.
    pub lane: u8,
}

/// A static direct network: nodes plus densely indexed directed links.
///
/// # Contract
///
/// * Node addresses are dense: every `NodeId(v)` with
///   `v < node_count()` is a valid node, and no other address is.
/// * Every node has exactly [`ports_per_node`](Topology::ports_per_node)
///   outgoing link slots, identified by a *port index* carried in a
///   [`Dim`] (for the hypercube a port **is** a dimension; richer
///   topologies encode direction into the port index as well).
/// * [`channel_index`](Topology::channel_index) and
///   [`channel_coords`](Topology::channel_coords) are mutually inverse
///   bijections between `(node, port)` and `0..channel_count()`.
/// * [`port_dim`](Topology::port_dim) maps each port onto the coordinate
///   dimension it travels in (`0..dimensions()`), which is what
///   per-dimension utilization statistics aggregate over.
///
/// A topology describes **physical links only**. Virtual lanes are a
/// router property ([`Router::lanes`]); a network running `L` lanes has
/// `channel_count() · L` channel resources, indexed `link · L + lane`.
///
/// Implementations are small `Copy` values — they describe the network,
/// they do not hold per-run state.
pub trait Topology: Copy + core::fmt::Debug {
    /// Short backend name (`"cube"`, `"torus"`, `"mesh"`), used in
    /// reports.
    fn kind(&self) -> &'static str;

    /// Number of nodes; valid addresses are exactly `0..node_count()`.
    fn node_count(&self) -> usize;

    /// Number of coordinate dimensions (for per-dimension statistics).
    fn dimensions(&self) -> u8;

    /// Outgoing link slots per node (uniform across nodes).
    fn ports_per_node(&self) -> u8;

    /// Total number of directed link slots,
    /// `node_count() · ports_per_node()`.
    fn channel_count(&self) -> usize {
        self.node_count() * self.ports_per_node() as usize
    }

    /// Whether `v` is a valid node address.
    fn contains(&self, v: NodeId) -> bool {
        (v.0 as usize) < self.node_count()
    }

    /// Dense index of the link leaving `from` on `port`.
    fn channel_index(&self, from: NodeId, port: Dim) -> usize;

    /// Inverse of [`channel_index`](Topology::channel_index): the
    /// `(node, port)` pair of a dense link index.
    fn channel_coords(&self, ch: usize) -> (NodeId, Dim);

    /// The coordinate dimension a port travels in (`< dimensions()`).
    fn port_dim(&self, port: Dim) -> u8;

    /// The node the link leaving `from` on `port` arrives at.
    ///
    /// Topologies with boundary ports (the mesh) map a boundary port
    /// back to `from` itself; routers never route over such self-loops.
    fn neighbor(&self, from: NodeId, port: Dim) -> NodeId;

    /// Human-readable node label (the hypercube prints binary addresses).
    fn node_label(&self, v: NodeId) -> String {
        format!("{}", v.0)
    }

    /// Human-readable label of a dense link index, used by trace
    /// rendering when the network runs a single lane. The default shows
    /// `from --port→`.
    fn channel_label(&self, ch: usize) -> String {
        let (from, port) = self.channel_coords(ch);
        format!("{}--{}→", self.node_label(from), port.0)
    }

    /// Human-readable label of lane `lane` of link `ch`, used by trace
    /// rendering when the network runs multiple lanes per link. The
    /// default appends `v{lane}` to the port notation; backends with
    /// richer port notation (the torus) override it to keep their
    /// established lane naming.
    fn lane_label(&self, ch: usize, lane: u8) -> String {
        let (from, port) = self.channel_coords(ch);
        format!("{}--{}v{}→", self.node_label(from), port.0, lane)
    }

    /// Human-readable label of a coordinate dimension
    /// (`0..dimensions()`), used by per-dimension reports — contention
    /// heatmaps, metrics exports, Perfetto track names.
    fn dim_label(&self, d: u8) -> String {
        format!("dim{d}")
    }
}

/// A deterministic router over a [`Topology`], fixing the network's
/// virtual-lane configuration.
///
/// # Contract
///
/// * Routes are **path-deterministic**: the same `(src, dst)` pair
///   always yields the same hop sequence (no randomness; adaptivity, if
///   any, lives in the *lane* choice at simulation time, never in the
///   path).
/// * A route's hops are contiguous: hop `i` ends where hop `i + 1`
///   starts, the first hop leaves `src`, the last arrives at `dst`.
/// * `route_channels(v, v)` is empty.
/// * [`lanes`](Router::lanes) is `≥ 1` and a multiple of
///   [`lane_classes`](Router::lane_classes). Lanes are partitioned into
///   `lane_classes()` contiguous equal blocks of
///   `lanes() / lane_classes()` lanes each; every [`Hop::lane`] a route
///   emits is the **lowest lane of its block** (the nominal lane). An
///   engine may let a worm acquire any free lane of the nominal lane's
///   block — lanes within a class are interchangeable — without
///   affecting deadlock freedom (DESIGN.md §14).
///
/// Deadlock-freedom is a *router* property, not an engine property: the
/// engine simulates whatever channel-dependency structure the router
/// creates and reports wedges through its watchdog. E-cube on the
/// hypercube, dateline-class dimension-ordered routing on the torus, and
/// west-first minimal-adaptive routing on the mesh are all deadlock-free
/// by the classic channel-ordering / turn-model arguments.
///
/// Routes are path-deterministic: equal router values produce identical
/// routes for every `(src, dst)` pair.
pub trait Router {
    /// The topology this router routes on.
    type Topo: Topology;

    /// The underlying topology descriptor.
    fn topology(&self) -> Self::Topo;

    /// Virtual lanes per physical link (`≥ 1`). The network's dense
    /// channel index space is `0..topology().channel_count() · lanes()`,
    /// with lane `l` of link `ch` at index `ch · lanes() + l`.
    fn lanes(&self) -> u8 {
        1
    }

    /// Number of lane classes (`≥ 1`, divides [`lanes`](Router::lanes)).
    /// Lanes are partitioned into this many contiguous equal blocks;
    /// routes nominate the lowest lane of a block and the engine may
    /// substitute any free lane of the same block.
    fn lane_classes(&self) -> u8 {
        1
    }

    /// Appends the [`Hop`]s of the route `src → dst`, in traversal
    /// order.
    fn route_hops(&self, src: NodeId, dst: NodeId, out: &mut Vec<Hop>);

    /// Appends the route `src → dst` as dense `(link, lane)` channel
    /// indices (`link · lanes() + lane`), in traversal order, reusing
    /// the caller's buffer — the allocation-free variant of
    /// [`route_channels`](Router::route_channels) for hot paths that
    /// hold scratch buffers.
    fn route_channels_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<usize>) {
        let mut hops = Vec::new();
        self.route_hops(src, dst, &mut hops);
        let topo = self.topology();
        let lanes = self.lanes() as usize;
        out.extend(
            hops.iter()
                .map(|h| topo.channel_index(h.from, h.port) * lanes + h.lane as usize),
        );
    }

    /// The route as dense `(link, lane)` channel indices, in traversal
    /// order.
    fn route_channels(&self, src: NodeId, dst: NodeId) -> Vec<usize> {
        let mut out = Vec::new();
        self.route_channels_into(src, dst, &mut out);
        out
    }

    /// Number of hops of the route `src → dst`.
    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let mut hops = Vec::new();
        self.route_hops(src, dst, &mut hops);
        hops.len() as u32
    }
}

// ---------------------------------------------------------------------
// Hypercube: Cube is a Topology, Ecube is its deterministic router.
// ---------------------------------------------------------------------

impl Topology for Cube {
    fn kind(&self) -> &'static str {
        "cube"
    }

    fn node_count(&self) -> usize {
        Cube::node_count(*self)
    }

    fn dimensions(&self) -> u8 {
        self.dimension()
    }

    fn ports_per_node(&self) -> u8 {
        self.dimension()
    }

    fn channel_count(&self) -> usize {
        Cube::channel_count(*self)
    }

    fn contains(&self, v: NodeId) -> bool {
        Cube::contains(*self, v)
    }

    fn channel_index(&self, from: NodeId, port: Dim) -> usize {
        Cube::channel_index(*self, from, port)
    }

    fn channel_coords(&self, ch: usize) -> (NodeId, Dim) {
        let n = self.dimension() as usize;
        (NodeId((ch / n) as u32), Dim((ch % n) as u8))
    }

    fn port_dim(&self, port: Dim) -> u8 {
        port.0
    }

    fn neighbor(&self, from: NodeId, port: Dim) -> NodeId {
        from.flip(port)
    }

    fn node_label(&self, v: NodeId) -> String {
        v.binary(self.dimension())
    }
}

/// The deterministic E-cube (dimension-ordered) router of the hypercube,
/// under a fixed address-resolution order.
///
/// This is the `Cube + Resolution` pair the whole legacy API passed
/// around, packaged as a [`Router`] so generic code can hold one value.
/// [`Ecube::with_lanes`] multiplies every link into `L` interchangeable
/// virtual lanes (a single lane class — E-cube needs no class
/// separation for deadlock freedom); [`Ecube::new`] is the classic
/// single-lane router.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ecube {
    /// The hypercube routed on.
    pub cube: Cube,
    /// The router's address-resolution order.
    pub resolution: Resolution,
    lanes: u8,
}

impl Ecube {
    /// An E-cube router on `cube` resolving addresses in `resolution`
    /// order, with a single lane per link.
    #[must_use]
    pub fn new(cube: Cube, resolution: Resolution) -> Ecube {
        Ecube::with_lanes(cube, resolution, 1)
    }

    /// An E-cube router with `lanes` interchangeable virtual lanes per
    /// link (one lane class).
    ///
    /// # Panics
    /// If `lanes == 0`.
    #[must_use]
    pub fn with_lanes(cube: Cube, resolution: Resolution, lanes: u8) -> Ecube {
        assert!(lanes >= 1, "a router needs at least one lane");
        Ecube {
            cube,
            resolution,
            lanes,
        }
    }
}

impl Router for Ecube {
    type Topo = Cube;

    fn topology(&self) -> Cube {
        self.cube
    }

    fn lanes(&self) -> u8 {
        self.lanes
    }

    fn route_hops(&self, src: NodeId, dst: NodeId, out: &mut Vec<Hop>) {
        for arc in Path::new(self.resolution, src, dst).arcs() {
            out.push(Hop {
                from: arc.from,
                port: arc.dim,
                lane: 0,
            });
        }
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        src.distance(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_channel_indexing_is_a_bijection() {
        let c = Cube::of(4);
        let mut seen = vec![false; Topology::channel_count(&c)];
        for v in c.nodes() {
            for d in c.dims() {
                let i = Topology::channel_index(&c, v, d);
                assert!(!seen[i]);
                seen[i] = true;
                assert_eq!(Topology::channel_coords(&c, i), (v, d));
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn cube_ports_are_dimensions() {
        let c = Cube::of(5);
        assert_eq!(c.ports_per_node(), 5);
        assert_eq!(Topology::dimensions(&c), 5);
        for d in c.dims() {
            assert_eq!(c.port_dim(d), d.0);
        }
        assert_eq!(
            Topology::neighbor(&c, NodeId(0b00101), Dim(3)),
            NodeId(0b01101)
        );
    }

    #[test]
    fn ecube_routes_match_paths() {
        let r = Ecube::new(Cube::of(4), Resolution::HighToLow);
        let chans = r.route_channels(NodeId(0b0101), NodeId(0b1110));
        let by_path: Vec<usize> = Path::new(Resolution::HighToLow, NodeId(0b0101), NodeId(0b1110))
            .arcs()
            .map(|a| Cube::of(4).channel_index(a.from, a.dim))
            .collect();
        assert_eq!(chans, by_path);
        assert_eq!(r.hops(NodeId(0b0101), NodeId(0b1110)), 3);
        assert!(r.route_channels(NodeId(7), NodeId(7)).is_empty());
    }

    #[test]
    fn ecube_routes_are_contiguous() {
        let r = Ecube::new(Cube::of(5), Resolution::LowToHigh);
        let mut hops = Vec::new();
        r.route_hops(NodeId(3), NodeId(28), &mut hops);
        let topo = r.topology();
        for w in hops.windows(2) {
            assert_eq!(Topology::neighbor(&topo, w[0].from, w[0].port), w[1].from);
        }
        assert_eq!(hops.first().unwrap().from, NodeId(3));
        let last = *hops.last().unwrap();
        assert_eq!(Topology::neighbor(&topo, last.from, last.port), NodeId(28));
    }

    #[test]
    fn single_lane_channels_equal_link_indices() {
        // At lanes = 1 the (link, lane) channel index IS the link index:
        // the whole lane layer degenerates to the original encoding.
        let r = Ecube::new(Cube::of(4), Resolution::HighToLow);
        assert_eq!(r.lanes(), 1);
        assert_eq!(r.lane_classes(), 1);
        let r1 = Ecube::with_lanes(Cube::of(4), Resolution::HighToLow, 1);
        assert_eq!(r, r1);
        let chans = r.route_channels(NodeId(0b0101), NodeId(0b1110));
        let c = Cube::of(4);
        let mut hops = Vec::new();
        r.route_hops(NodeId(0b0101), NodeId(0b1110), &mut hops);
        let links: Vec<usize> = hops
            .iter()
            .map(|h| Topology::channel_index(&c, h.from, h.port))
            .collect();
        assert_eq!(chans, links);
    }

    #[test]
    fn multi_lane_channels_scale_by_lane_count() {
        let r = Ecube::with_lanes(Cube::of(4), Resolution::HighToLow, 3);
        assert_eq!(r.lanes(), 3);
        let r1 = Ecube::new(Cube::of(4), Resolution::HighToLow);
        let lanes1 = r1.route_channels(NodeId(0b0101), NodeId(0b1110));
        // Nominal lane is 0, so multi-lane channels are link · 3.
        let lanes3 = r.route_channels(NodeId(0b0101), NodeId(0b1110));
        let expect: Vec<usize> = lanes1.iter().map(|&ch| ch * 3).collect();
        assert_eq!(lanes3, expect);
    }

    #[test]
    fn route_channels_into_reuses_the_buffer() {
        let r = Ecube::new(Cube::of(4), Resolution::HighToLow);
        let mut buf = Vec::with_capacity(8);
        r.route_channels_into(NodeId(0b0101), NodeId(0b1110), &mut buf);
        assert_eq!(buf, r.route_channels(NodeId(0b0101), NodeId(0b1110)));
        let cap = buf.capacity();
        buf.clear();
        r.route_channels_into(NodeId(0), NodeId(0b1111), &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), cap, "no reallocation for short routes");
    }

    #[test]
    fn labels_are_human_readable() {
        let c = Cube::of(4);
        let i = Topology::channel_index(&c, NodeId(0b0101), Dim(3));
        assert_eq!(Topology::channel_label(&c, i), "0101--3→");
        assert_eq!(Topology::lane_label(&c, i, 2), "0101--3v2→");
    }
}
