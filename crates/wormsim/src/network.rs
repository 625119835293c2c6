//! Channel-level view of a routed topology for the simulator.
//!
//! Every directed external channel gets a dense index: the router runs
//! [`Router::lanes`] virtual lanes per physical link, and lane `l` of
//! the link with topology index `k` sits at external index `k·L + l`
//! (at `L = 1` this *is* the topology's own `channel_index` bijection).
//! Under the one-port model two *virtual* channels per node are
//! appended — an injection channel (a node transmits at most one
//! message at a time) and a consumption channel (it receives at most
//! one at a time). A message's path is the optional injection channel,
//! the router's external channels, and the optional consumption
//! channel; the worm holds all of them from head acquisition to tail
//! drain, so one-port serialization falls out of the ordinary
//! channel-contention machinery.
//!
//! The map is generic over any [`Router`]: the engine, trace
//! reconstruction, and the flit-level validator all index channels
//! through it and never assume hypercube address arithmetic.

use hcube::{Dim, Hop, NodeId, Router, Topology};
use hypercast::PortModel;

/// The routes of one run, as `(start, len)` ranges into one flat buffer
/// of hops. Each hop is its channel and the coordinate dimension that
/// channel travels in, taken from the router's [`Hop`] port, so the
/// engine's release path and the analytic busy-time accounting never
/// decode a channel index.
///
/// A run clears the buffer and pushes its workload's routes, so the
/// buffer grows with the largest run, never with the network or with the
/// runs before. Under deterministic routing a route is a pure function
/// of `(src, dst)`; computing it costs about what a lookup would.
#[derive(Debug, Default)]
pub(crate) struct Routes {
    /// Every route of the run, concatenated: per hop, `(channel,
    /// dimension)`, with [`Routes::VIRTUAL`] as the dimension of a
    /// virtual channel.
    hops: Vec<(usize, u8)>,
    /// The router's hops of the route being pushed.
    buf: Vec<Hop>,
}

impl Routes {
    /// The dimension recorded for a virtual channel, which has none.
    pub(crate) const VIRTUAL: u8 = u8::MAX;

    /// Drops every route, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.hops.clear();
    }

    /// Appends the channel sequence a `src → dst` message occupies under
    /// `port_model` (as [`ChannelMap::route`] computes it) and returns
    /// its `(start, len)` range.
    pub(crate) fn push<R: Router>(
        &mut self,
        map: &ChannelMap<R>,
        port_model: PortModel,
        src: NodeId,
        dst: NodeId,
    ) -> (u32, u32) {
        let start = self.hops.len();
        let one_port = port_model == PortModel::OnePort;
        if one_port {
            self.hops.push((map.injection(src), Self::VIRTUAL));
        }
        self.buf.clear();
        map.router.route_hops(src, dst, &mut self.buf);
        self.hops.extend(self.buf.iter().map(|h| {
            (
                map.external_lane(h.from, h.port, h.lane),
                map.topo.port_dim(h.port),
            )
        }));
        if one_port {
            self.hops.push((map.consumption(dst), Self::VIRTUAL));
        }
        (start as u32, (self.hops.len() - start) as u32)
    }

    /// The `(channel, dimension)` of hop `hop` of the route starting at
    /// `start`.
    #[inline]
    pub(crate) fn hop(&self, start: u32, hop: usize) -> (usize, u8) {
        self.hops[start as usize + hop]
    }

    /// The hops of a route range returned by [`push`](Self::push).
    #[inline]
    pub(crate) fn route(&self, (start, len): (u32, u32)) -> &[(usize, u8)] {
        &self.hops[start as usize..start as usize + len as usize]
    }
}

/// Dense indexing for the external and virtual channels of a routed
/// topology running `L = router.lanes()` virtual lanes per link.
///
/// Layout: externals occupy `0..externals()` with lane `l` of link `k`
/// (topology `channel_index`) at `k·L + l`; consumption channels follow
/// at `externals() + v`; injection channels at `externals() + nodes + v`.
#[derive(Clone, Copy, Debug)]
pub struct ChannelMap<R: Router> {
    router: R,
    topo: R::Topo,
    externals: usize,
    nodes: usize,
    /// Virtual lanes per physical link (`router.lanes()`).
    lanes: usize,
    /// Lanes per lane class (`lanes / router.lane_classes()`); the
    /// engine may swap a nominal lane for any free lane of its class.
    class_size: usize,
}

impl<R: Router> ChannelMap<R> {
    /// Builds the channel map for `router`'s topology.
    ///
    /// # Panics
    /// If the router's lane configuration violates the [`Router`]
    /// contract (`lanes()` not a positive multiple of `lane_classes()`).
    #[must_use]
    pub fn new(router: R) -> ChannelMap<R> {
        let topo = router.topology();
        let lanes = router.lanes() as usize;
        let classes = router.lane_classes() as usize;
        assert!(
            lanes >= 1 && classes >= 1 && lanes.is_multiple_of(classes),
            "lanes() must be a positive multiple of lane_classes()"
        );
        ChannelMap {
            router,
            topo,
            externals: topo.channel_count() * lanes,
            nodes: topo.node_count(),
            lanes,
            class_size: lanes / classes,
        }
    }

    /// The topology descriptor the map indexes.
    #[must_use]
    pub fn topology(&self) -> R::Topo {
        self.topo
    }

    /// The router whose routes the map wraps.
    #[must_use]
    pub fn router(&self) -> &R {
        &self.router
    }

    /// Total number of channel slots (externals + 2·N virtuals).
    #[must_use]
    pub fn len(&self) -> usize {
        self.externals + 2 * self.nodes
    }

    /// Whether the map is empty (never true for a valid topology).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of directed external channels
    /// (`topology channel count · lanes`).
    #[must_use]
    pub fn externals(&self) -> usize {
        self.externals
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Virtual lanes per physical link.
    #[inline]
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lanes per lane class: the width of the window of interchangeable
    /// lanes the engine may scan when the nominal lane is busy.
    #[inline]
    #[must_use]
    pub fn class_size(&self) -> usize {
        self.class_size
    }

    /// Number of physical links (`externals() / lanes()`).
    #[inline]
    #[must_use]
    pub fn links(&self) -> usize {
        self.externals / self.lanes
    }

    /// Index of lane 0 of the directed link leaving `from` on `port`.
    #[inline]
    #[must_use]
    pub fn external(&self, from: NodeId, port: Dim) -> usize {
        self.topo.channel_index(from, port) * self.lanes
    }

    /// Index of lane `lane` of the directed link leaving `from` on
    /// `port`.
    #[inline]
    #[must_use]
    pub fn external_lane(&self, from: NodeId, port: Dim, lane: u8) -> usize {
        debug_assert!((lane as usize) < self.lanes);
        self.topo.channel_index(from, port) * self.lanes + lane as usize
    }

    /// Decodes an external channel index back to the `(from, port)` of
    /// its physical link (the lane is [`lane_of`](Self::lane_of)).
    ///
    /// # Panics
    /// May panic (or return garbage coordinates) if `ch` is a virtual
    /// channel index; callers check [`is_virtual`](Self::is_virtual).
    #[inline]
    #[must_use]
    pub fn external_coords(&self, ch: usize) -> (NodeId, Dim) {
        debug_assert!(ch < self.externals);
        self.topo.channel_coords(ch / self.lanes)
    }

    /// The lane of an external channel index.
    #[inline]
    #[must_use]
    pub fn lane_of(&self, ch: usize) -> u8 {
        debug_assert!(ch < self.externals);
        (ch % self.lanes) as u8
    }

    /// The representative channel of an external channel's lane class:
    /// the class's lowest lane on the same link. Routes always nominate
    /// the representative; the engine queues blocked worms on it and
    /// scans the window `rep..rep + class_size()` for a free lane.
    #[inline]
    #[must_use]
    pub fn class_rep(&self, ch: usize) -> usize {
        debug_assert!(ch < self.externals);
        ch - (ch % self.lanes) % self.class_size
    }

    /// The coordinate dimension an external channel travels in.
    #[inline]
    #[must_use]
    pub fn dim_of(&self, ch: usize) -> u8 {
        let (_, port) = self.topo.channel_coords(ch / self.lanes);
        self.topo.port_dim(port)
    }

    /// Number of external channels per coordinate dimension: every node
    /// has its ports in that dimension, and every port one channel per
    /// lane.
    pub(crate) fn dim_channels(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.topo.dimensions() as usize];
        for p in 0..self.topo.ports_per_node() {
            counts[self.topo.port_dim(Dim(p)) as usize] += (self.nodes * self.lanes) as u32;
        }
        counts
    }

    /// Number of coordinate dimensions of the underlying topology.
    #[inline]
    #[must_use]
    pub fn dimensions(&self) -> u8 {
        self.topo.dimensions()
    }

    /// Human-readable label of a coordinate dimension (delegates to
    /// [`Topology::dim_label`]).
    #[must_use]
    pub fn dim_label(&self, d: u8) -> String {
        self.topo.dim_label(d)
    }

    /// Index of node `v`'s virtual consumption channel.
    #[inline]
    #[must_use]
    pub fn consumption(&self, v: NodeId) -> usize {
        self.externals + v.0 as usize
    }

    /// Index of node `v`'s virtual injection channel.
    #[inline]
    #[must_use]
    pub fn injection(&self, v: NodeId) -> usize {
        self.externals + self.nodes + v.0 as usize
    }

    /// Whether a channel index refers to a virtual (zero-latency) channel.
    #[inline]
    #[must_use]
    pub fn is_virtual(&self, idx: usize) -> bool {
        idx >= self.externals
    }

    /// Human-readable label of a channel index: the topology's own
    /// link label for externals (the lane-qualified variant when the
    /// router runs more than one lane), `inj(v)` / `cons(v)` for
    /// virtuals.
    #[must_use]
    pub fn label(&self, ch: usize) -> String {
        if ch < self.externals {
            if self.lanes == 1 {
                self.topo.channel_label(ch)
            } else {
                self.topo
                    .lane_label(ch / self.lanes, (ch % self.lanes) as u8)
            }
        } else if ch < self.externals + self.nodes {
            let v = NodeId((ch - self.externals) as u32);
            format!("cons({})", self.topo.node_label(v))
        } else {
            let v = NodeId((ch - self.externals - self.nodes) as u32);
            format!("inj({})", self.topo.node_label(v))
        }
    }

    /// The channel sequence a `src → dst` message occupies under the
    /// given port model: the router's deterministic external route,
    /// wrapped in the virtual injection/consumption channels when
    /// one-port.
    #[must_use]
    pub fn route(&self, port_model: PortModel, src: NodeId, dst: NodeId) -> Vec<usize> {
        let mut hops = Vec::new();
        self.router.route_hops(src, dst, &mut hops);
        let mut channels = Vec::with_capacity(hops.len() + 2);
        if port_model == PortModel::OnePort {
            channels.push(self.injection(src));
        }
        for h in hops {
            channels.push(self.external_lane(h.from, h.port, h.lane));
        }
        if port_model == PortModel::OnePort {
            channels.push(self.consumption(dst));
        }
        channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcube::{Cube, Ecube, Mesh, MeshXY, MinimalAdaptive, Resolution, Torus, TorusRouter};

    fn cube_map(n: u8) -> ChannelMap<Ecube> {
        ChannelMap::new(Ecube::new(Cube::of(n), Resolution::HighToLow))
    }

    #[test]
    fn indices_are_dense_and_disjoint() {
        let cube = Cube::of(3);
        let map = cube_map(3);
        assert_eq!(map.len(), 3 * 8 + 2 * 8);
        let mut seen = vec![false; map.len()];
        for v in cube.nodes() {
            for d in cube.dims() {
                let i = map.external(v, d);
                assert!(!map.is_virtual(i));
                assert!(!seen[i]);
                seen[i] = true;
                assert_eq!(map.external_coords(i), (v, d));
                assert_eq!(map.dim_of(i), d.0);
            }
        }
        for v in cube.nodes() {
            for i in [map.consumption(v), map.injection(v)] {
                assert!(map.is_virtual(i));
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn all_port_route_is_externals_only() {
        let map = cube_map(4);
        let route = map.route(PortModel::AllPort, NodeId(0b0101), NodeId(0b1110));
        assert_eq!(route.len(), 3);
        assert!(route.iter().all(|&c| !map.is_virtual(c)));
    }

    #[test]
    fn one_port_route_wraps_with_virtuals() {
        let map = cube_map(4);
        let route = map.route(PortModel::OnePort, NodeId(0b0101), NodeId(0b1110));
        assert_eq!(route.len(), 5);
        assert_eq!(route[0], map.injection(NodeId(0b0101)));
        assert_eq!(*route.last().unwrap(), map.consumption(NodeId(0b1110)));
        assert!(route[1..4].iter().all(|&c| !map.is_virtual(c)));
    }

    #[test]
    fn single_hop_route() {
        let map = cube_map(4);
        let route = map.route(PortModel::AllPort, NodeId(0), NodeId(0b1000));
        assert_eq!(route, vec![map.external(NodeId(0), Dim(3))]);
    }

    #[test]
    fn torus_map_routes_through_the_trait() {
        let t = Torus::of(4, 2);
        let map = ChannelMap::new(TorusRouter::new(t));
        assert_eq!(map.externals(), 16 * 8);
        assert_eq!(map.len(), 16 * 8 + 2 * 16);
        let route = map.route(PortModel::AllPort, t.node_at(&[0, 0]), t.node_at(&[2, 1]));
        assert_eq!(
            route.len() as u32,
            t.distance(t.node_at(&[0, 0]), t.node_at(&[2, 1]))
        );
        assert!(route.iter().all(|&c| !map.is_virtual(c)));
        // One-port wraps exactly like the cube map does.
        let route = map.route(PortModel::OnePort, t.node_at(&[0, 0]), t.node_at(&[1, 0]));
        assert_eq!(route[0], map.injection(t.node_at(&[0, 0])));
        assert_eq!(*route.last().unwrap(), map.consumption(t.node_at(&[1, 0])));
    }

    /// Pushes every route of `router` under both port models into
    /// `routes`, cleared first as a run clears it, then checks each range
    /// against [`ChannelMap::route`] and each hop's dimension against
    /// [`ChannelMap::dim_of`].
    fn check_buffered_routes<R: Router>(router: R, routes: &mut Routes) {
        let map = ChannelMap::new(router);
        routes.clear();
        let nodes = map.nodes() as u32;
        let mut pushed = Vec::new();
        for pm in [PortModel::AllPort, PortModel::OnePort] {
            for (s, d) in (0..nodes).flat_map(|s| (0..nodes).map(move |d| (s, d))) {
                if s != d {
                    let (src, dst) = (NodeId(s), NodeId(d));
                    pushed.push((routes.push(&map, pm, src, dst), map.route(pm, src, dst)));
                }
            }
        }
        for (range, expected) in pushed {
            let hops = routes.route(range);
            let channels: Vec<usize> = hops.iter().map(|&(ch, _)| ch).collect();
            assert_eq!(channels, expected);
            for &(ch, dim) in hops {
                let want = if map.is_virtual(ch) {
                    Routes::VIRTUAL
                } else {
                    map.dim_of(ch)
                };
                assert_eq!(dim, want, "channel {}", map.label(ch));
            }
        }
    }

    /// Every router the buffer tests cover: the cube in both resolutions
    /// at lanes 1, 2 and 4, the torus with and without the dateline
    /// lane multiplier, and both mesh routers.
    const ROUTERS: [fn(&mut Routes); 10] = [
        |r| check_buffered_routes(Ecube::new(Cube::of(4), Resolution::HighToLow), r),
        |r| check_buffered_routes(Ecube::new(Cube::of(4), Resolution::LowToHigh), r),
        |r| check_buffered_routes(Ecube::with_lanes(Cube::of(4), Resolution::HighToLow, 2), r),
        |r| check_buffered_routes(Ecube::with_lanes(Cube::of(4), Resolution::LowToHigh, 4), r),
        |r| check_buffered_routes(Ecube::with_lanes(Cube::of(4), Resolution::HighToLow, 4), r),
        |r| check_buffered_routes(TorusRouter::new(Torus::of(4, 2)), r),
        |r| check_buffered_routes(TorusRouter::with_lane_multiplier(Torus::of(5, 1), 2), r),
        |r| check_buffered_routes(MeshXY::new(Mesh::of(4, 3)), r),
        |r| check_buffered_routes(MeshXY::with_lanes(Mesh::of(4, 3), 2), r),
        |r| check_buffered_routes(MinimalAdaptive::new(Mesh::of(4, 3)), r),
    ];

    /// A run's buffer keeps every route it pushed: each range, read back
    /// after the whole run is pushed, equals [`ChannelMap::route`], and
    /// each hop carries its channel's dimension.
    #[test]
    fn route_into_memoizes_and_matches_route() {
        for check in ROUTERS {
            check(&mut Routes::default());
        }
    }

    /// Clearing the buffer between runs on different routers leaves none
    /// of the previous router's channel indices behind.
    #[test]
    fn route_memo_invalidates_when_the_router_changes() {
        // One buffer serves every router, in both orders.
        let mut routes = Routes::default();
        for check in ROUTERS.iter().chain(ROUTERS.iter().rev()) {
            check(&mut routes);
        }
        // A 4-cube run, then a 5-cube run, then a torus run: after each
        // clear the buffer holds only the current run's route.
        let m4 = cube_map(4);
        let m5 = cube_map(5);
        let t = Torus::of(4, 2);
        let tmap = ChannelMap::new(TorusRouter::new(t));
        routes.clear();
        let r = routes.push(&m4, PortModel::AllPort, NodeId(0), NodeId(7));
        assert_eq!(routes.route(r).len(), 3);
        routes.clear();
        let r = routes.push(&m5, PortModel::AllPort, NodeId(0), NodeId(7));
        let channels: Vec<usize> = routes.route(r).iter().map(|&(ch, _)| ch).collect();
        assert_eq!(channels, m5.route(PortModel::AllPort, NodeId(0), NodeId(7)));
        assert_eq!(routes.hops.len(), 3, "the 4-cube run's hops were dropped");
        routes.clear();
        let (src, dst) = (t.node_at(&[0, 0]), t.node_at(&[2, 1]));
        let r = routes.push(&tmap, PortModel::AllPort, src, dst);
        let channels: Vec<usize> = routes.route(r).iter().map(|&(ch, _)| ch).collect();
        assert_eq!(channels, tmap.route(PortModel::AllPort, src, dst));
        assert_eq!(r.0, 0, "the torus route starts a fresh buffer");
    }

    #[test]
    fn labels_distinguish_virtuals() {
        let map = cube_map(3);
        assert_eq!(map.label(map.external(NodeId(0b010), Dim(0))), "010--0→");
        assert_eq!(map.label(map.consumption(NodeId(3))), "cons(011)");
        assert_eq!(map.label(map.injection(NodeId(3))), "inj(011)");
    }

    #[test]
    fn multi_lane_indices_are_dense_and_decode() {
        let cube = Cube::of(3);
        let map = ChannelMap::new(Ecube::with_lanes(cube, Resolution::HighToLow, 4));
        assert_eq!(map.lanes(), 4);
        assert_eq!(map.class_size(), 4, "Ecube lanes form one class");
        assert_eq!(map.links(), 3 * 8);
        assert_eq!(map.externals(), 3 * 8 * 4);
        assert_eq!(map.len(), 3 * 8 * 4 + 2 * 8);
        let mut seen = vec![false; map.externals()];
        for v in cube.nodes() {
            for d in cube.dims() {
                for lane in 0..4u8 {
                    let ch = map.external_lane(v, d, lane);
                    assert!(!seen[ch]);
                    seen[ch] = true;
                    assert_eq!(map.external_coords(ch), (v, d));
                    assert_eq!(map.lane_of(ch), lane);
                    // One class: every lane's representative is lane 0.
                    assert_eq!(map.class_rep(ch), map.external(v, d));
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn torus_lane_classes_split_at_the_multiplier() {
        let t = Torus::of(4, 2);
        let map = ChannelMap::new(TorusRouter::with_lane_multiplier(t, 2));
        assert_eq!(map.lanes(), 4);
        assert_eq!(map.class_size(), 2, "two dateline classes of two lanes");
        let v = t.node_at(&[0, 0]);
        let p = Dim(0);
        let base = map.external(v, p);
        // Lanes {0, 1} share representative lane 0; lanes {2, 3} share
        // representative lane 2 — classes never bleed into each other.
        assert_eq!(map.class_rep(base), base);
        assert_eq!(map.class_rep(base + 1), base);
        assert_eq!(map.class_rep(base + 2), base + 2);
        assert_eq!(map.class_rep(base + 3), base + 2);
    }

    #[test]
    fn multi_lane_labels_are_lane_qualified() {
        let cube = Cube::of(3);
        let map = ChannelMap::new(Ecube::with_lanes(cube, Resolution::HighToLow, 2));
        let ch = map.external_lane(NodeId(0b010), Dim(0), 1);
        assert_eq!(map.label(ch), "010--0v1→");
        assert_eq!(map.label(map.consumption(NodeId(3))), "cons(011)");
    }

    #[test]
    fn dateline_routes_nominate_the_high_class_representative() {
        let t = Torus::of(5, 1);
        let map = ChannelMap::new(TorusRouter::with_lane_multiplier(t, 2));
        // 4 → 1 along +x crosses the dateline on its first hop: hops
        // after the wrap ride the high lane class, whose representative
        // is lane m = 2 of the 4 lanes.
        let route = map.route(PortModel::AllPort, t.node_at(&[4]), t.node_at(&[1]));
        assert_eq!(route.len(), 2);
        let lanes: Vec<u8> = route.iter().map(|&c| map.lane_of(c)).collect();
        assert_eq!(lanes, vec![0, 2]);
        // A non-wrapping route stays on the low class representative.
        let route = map.route(PortModel::AllPort, t.node_at(&[0]), t.node_at(&[2]));
        assert!(route.iter().all(|&c| map.lane_of(c) == 0));
    }
}
