//! The k-ary n-cube (torus) backend: the proof that the simulation
//! stack is topology-generic.
//!
//! A [`Torus`] has `k^n` nodes addressed by `n` base-`k` coordinates
//! (little-endian mixed radix inside the `u32` of a [`NodeId`]); each
//! node connects to its `±1 (mod k)` neighbor in every dimension. The
//! hypercube is the degenerate `k = 2` case, but with wraparound rings
//! the interesting machinery appears: minimal routes must pick a
//! direction per dimension, and dimension-ordered wormhole routing alone
//! is **not** deadlock-free (a ring's wrap channel closes a cyclic
//! channel dependency).
//!
//! [`TorusRouter`] therefore implements the classic *dateline virtual
//! channel* scheme (Dally & Seitz) as two **lane classes** of the
//! generic virtual-lane mechanism ([`Router::lanes`]): every physical
//! link carries `2m` lanes split into a low class (lanes `0..m`, the
//! pre-dateline class "VC0") and a high class (lanes `m..2m`, "VC1").
//! A worm starts each dimension in the low class and switches to the
//! high class after traversing the ring's wrap edge. Ranking links by
//! `(dimension, direction, class, ring position)` is then strictly
//! increasing along any route, so the link-class dependency graph is
//! acyclic and the network cannot deadlock — lanes within a class are
//! interchangeable, so the argument survives adaptive lane selection
//! (DESIGN.md §14). The default `m = 1` is byte-identical to the
//! original hard-coded two-VC encoding.
//!
//! In the [`Topology`] port encoding each node has `2n` physical link
//! ports: `port = 2·dim + direction` with direction `0 = +`, `1 = −`.
//! Lanes are modeled as independent channel resources (each with full
//! link bandwidth); contention on the shared physical link is
//! deliberately not modeled — see DESIGN.md §9.

use crate::addr::{Dim, NodeId};
use crate::error::HcubeError;
use crate::topology::{Hop, Router, Topology};

/// A k-ary n-cube: `n` dimensions of `k`-node rings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Torus {
    k: u16,
    n: u8,
}

/// Largest supported node count, matching [`crate::MAX_DIMENSION`]'s
/// `2^24` cap on the hypercube side.
pub const MAX_TORUS_NODES: usize = 1 << 24;

impl Torus {
    /// Creates a `k`-ary `n`-cube.
    ///
    /// # Errors
    /// [`HcubeError::BadTorus`] unless `k ≥ 2`, `n ≥ 1`, and
    /// `k^n ≤ MAX_TORUS_NODES`.
    pub fn new(k: u16, n: u8) -> Result<Torus, HcubeError> {
        if k < 2 || n == 0 {
            return Err(HcubeError::BadTorus { k, n });
        }
        let mut count: usize = 1;
        for _ in 0..n {
            count = match count.checked_mul(k as usize) {
                Some(c) if c <= MAX_TORUS_NODES => c,
                _ => return Err(HcubeError::BadTorus { k, n }),
            };
        }
        Ok(Torus { k, n })
    }

    /// Creates a `k`-ary `n`-cube, panicking on invalid parameters.
    ///
    /// # Panics
    /// If [`Torus::new`] would error.
    #[must_use]
    pub fn of(k: u16, n: u8) -> Torus {
        Torus::new(k, n).expect("valid torus parameters")
    }

    /// The arity `k` (nodes per ring).
    #[inline]
    #[must_use]
    pub fn arity(self) -> u16 {
        self.k
    }

    /// The number of dimensions `n`.
    #[inline]
    #[must_use]
    pub fn dimension(self) -> u8 {
        self.n
    }

    /// Coordinate `d` of node `v` (`0..k`).
    #[inline]
    #[must_use]
    pub fn coord(self, v: NodeId, d: u8) -> u16 {
        let mut x = v.0;
        for _ in 0..d {
            x /= u32::from(self.k);
        }
        (x % u32::from(self.k)) as u16
    }

    /// The node with the given coordinates (little-endian, one per
    /// dimension; missing trailing coordinates are zero).
    ///
    /// # Panics
    /// If more than `n` coordinates are given or any is `≥ k`.
    #[must_use]
    pub fn node_at(self, coords: &[u16]) -> NodeId {
        assert!(coords.len() <= self.n as usize, "too many coordinates");
        let mut v: u32 = 0;
        for &c in coords.iter().rev() {
            assert!(
                c < self.k,
                "coordinate {c} out of range for arity {}",
                self.k
            );
            v = v * u32::from(self.k) + u32::from(c);
        }
        NodeId(v)
    }

    /// The node reached from `v` by stepping `±1 (mod k)` in dimension
    /// `d` (`plus = true` for `+1`).
    #[must_use]
    pub fn step(self, v: NodeId, d: u8, plus: bool) -> NodeId {
        let k = u32::from(self.k);
        let mut scale = 1u32;
        for _ in 0..d {
            scale *= k;
        }
        let c = (v.0 / scale) % k;
        let nc = if plus { (c + 1) % k } else { (c + k - 1) % k };
        NodeId(v.0 - c * scale + nc * scale)
    }

    /// The minimal ring distance between coordinates `a` and `b`
    /// (`min` of the two ways around).
    #[inline]
    #[must_use]
    pub fn ring_distance(self, a: u16, b: u16) -> u16 {
        let k = self.k;
        let fwd = (b + k - a) % k;
        let bwd = (a + k - b) % k;
        fwd.min(bwd)
    }

    /// The minimal (wraparound) distance between two nodes: the sum of
    /// per-dimension minimal ring distances.
    #[must_use]
    pub fn distance(self, u: NodeId, v: NodeId) -> u32 {
        (0..self.n)
            .map(|d| u32::from(self.ring_distance(self.coord(u, d), self.coord(v, d))))
            .sum()
    }

    /// Iterates over all node addresses.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..Topology::node_count(&self) as u32).map(NodeId)
    }

    /// Decodes a link port index into `(dimension, plus_direction)`.
    #[inline]
    #[must_use]
    pub fn port_parts(self, port: Dim) -> (u8, bool) {
        (port.0 >> 1, port.0 & 1 == 0)
    }

    /// Encodes `(dimension, plus_direction)` as a link port index.
    #[inline]
    #[must_use]
    pub fn port_of(self, dim: u8, plus: bool) -> Dim {
        debug_assert!(dim < self.n);
        Dim((dim << 1) | u8::from(!plus))
    }
}

impl Topology for Torus {
    fn kind(&self) -> &'static str {
        "torus"
    }

    fn node_count(&self) -> usize {
        let mut count = 1usize;
        for _ in 0..self.n {
            count *= self.k as usize;
        }
        count
    }

    fn dimensions(&self) -> u8 {
        self.n
    }

    fn ports_per_node(&self) -> u8 {
        2 * self.n
    }

    fn channel_index(&self, from: NodeId, port: Dim) -> usize {
        debug_assert!(Topology::contains(self, from));
        debug_assert!(port.0 < self.ports_per_node());
        from.0 as usize * self.ports_per_node() as usize + port.0 as usize
    }

    fn channel_coords(&self, ch: usize) -> (NodeId, Dim) {
        let ports = self.ports_per_node() as usize;
        (NodeId((ch / ports) as u32), Dim((ch % ports) as u8))
    }

    fn port_dim(&self, port: Dim) -> u8 {
        port.0 >> 1
    }

    fn neighbor(&self, from: NodeId, port: Dim) -> NodeId {
        let (dim, plus) = self.port_parts(port);
        self.step(from, dim, plus)
    }

    fn node_label(&self, v: NodeId) -> String {
        let coords: Vec<String> = (0..self.n).map(|d| self.coord(v, d).to_string()).collect();
        coords.join(",")
    }

    fn channel_label(&self, ch: usize) -> String {
        let (from, port) = Topology::channel_coords(self, ch);
        let (dim, plus) = self.port_parts(port);
        format!(
            "{}--d{}{}→",
            self.node_label(from),
            dim,
            if plus { '+' } else { '-' }
        )
    }

    fn lane_label(&self, ch: usize, lane: u8) -> String {
        let (from, port) = Topology::channel_coords(self, ch);
        let (dim, plus) = self.port_parts(port);
        // Matches the original two-VC notation at the default lane
        // multiplier (lane 0 = "v0", lane 1 = "v1").
        format!(
            "{}--d{}{}v{}→",
            self.node_label(from),
            dim,
            if plus { '+' } else { '-' },
            lane
        )
    }

    fn dim_label(&self, d: u8) -> String {
        // Matches the `d{n}±v{lane}` notation of `lane_label`.
        format!("d{d}")
    }
}

/// Minimal dimension-ordered routing on the torus with dateline lane
/// classes (see the module docs for the deadlock-freedom argument).
///
/// Per dimension the router travels the shorter way around the ring
/// (ties break toward `+`), correcting dimensions in ascending order.
/// Paths are fully deterministic; a worm enters each dimension in the
/// low lane class and moves to the high class after the wrap edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TorusRouter {
    /// The torus routed on.
    pub torus: Torus,
    /// Lanes per dateline class (`lanes() = 2m`).
    m: u8,
}

impl TorusRouter {
    /// A dimension-ordered router on `torus` with one lane per dateline
    /// class (`lanes() = 2`, the classic Dally–Seitz configuration).
    #[must_use]
    pub fn new(torus: Torus) -> TorusRouter {
        TorusRouter::with_lane_multiplier(torus, 1)
    }

    /// A dimension-ordered router with `m` interchangeable lanes per
    /// dateline class (`lanes() = 2m`: lanes `0..m` pre-dateline,
    /// `m..2m` post-dateline).
    ///
    /// # Panics
    /// If `m == 0` or `2m` overflows `u8`.
    #[must_use]
    pub fn with_lane_multiplier(torus: Torus, m: u8) -> TorusRouter {
        assert!(m >= 1, "a router needs at least one lane per class");
        assert!(m <= 127, "lane count 2m must fit in u8");
        TorusRouter { torus, m }
    }
}

impl Router for TorusRouter {
    type Topo = Torus;

    fn topology(&self) -> Torus {
        self.torus
    }

    fn lanes(&self) -> u8 {
        2 * self.m
    }

    fn lane_classes(&self) -> u8 {
        2
    }

    fn route_hops(&self, src: NodeId, dst: NodeId, out: &mut Vec<Hop>) {
        let t = self.torus;
        let k = t.arity();
        let mut cur = src;
        for d in 0..t.dimension() {
            let a = t.coord(cur, d);
            let b = t.coord(dst, d);
            if a == b {
                continue;
            }
            let fwd = (b + k - a) % k;
            let bwd = (a + k - b) % k;
            let plus = fwd <= bwd; // ties break toward +
            let steps = fwd.min(bwd);
            let mut crossed = false;
            for _ in 0..steps {
                let c = t.coord(cur, d);
                // Nominal lane = lowest lane of the dateline class.
                let lane = if crossed { self.m } else { 0 };
                out.push(Hop {
                    from: cur,
                    port: t.port_of(d, plus),
                    lane,
                });
                // The wrap edge is k-1 → 0 going +, 0 → k-1 going −;
                // hops after it ride the high class (the dateline
                // switch).
                if (plus && c == k - 1) || (!plus && c == 0) {
                    crossed = true;
                }
                cur = t.step(cur, d, plus);
            }
        }
        debug_assert_eq!(cur, dst, "route must terminate at the destination");
    }

    fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.torus.distance(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_parameters() {
        assert!(Torus::new(1, 2).is_err());
        assert!(Torus::new(2, 0).is_err());
        assert!(Torus::new(2, 24).is_ok());
        assert!(Torus::new(2, 25).is_err());
        assert!(Torus::new(4096, 2).is_ok());
        assert!(Torus::new(4097, 2).is_err());
    }

    #[test]
    fn coords_round_trip() {
        let t = Torus::of(5, 3);
        assert_eq!(Topology::node_count(&t), 125);
        for v in t.nodes() {
            let coords: Vec<u16> = (0..3).map(|d| t.coord(v, d)).collect();
            assert_eq!(t.node_at(&coords), v);
            assert!(coords.iter().all(|&c| c < 5));
        }
        assert_eq!(t.node_at(&[2, 3, 1]), NodeId(2 + 3 * 5 + 25));
    }

    #[test]
    fn step_wraps_both_ways() {
        let t = Torus::of(4, 2);
        let v = t.node_at(&[3, 1]);
        assert_eq!(t.step(v, 0, true), t.node_at(&[0, 1]));
        assert_eq!(t.step(v, 0, false), t.node_at(&[2, 1]));
        let w = t.node_at(&[0, 0]);
        assert_eq!(t.step(w, 1, false), t.node_at(&[0, 3]));
    }

    #[test]
    fn channel_indexing_is_a_bijection() {
        let t = Torus::of(3, 2);
        let mut seen = vec![false; Topology::channel_count(&t)];
        for v in t.nodes() {
            for p in 0..t.ports_per_node() {
                let i = Topology::channel_index(&t, v, Dim(p));
                assert!(!seen[i]);
                seen[i] = true;
                assert_eq!(Topology::channel_coords(&t, i), (v, Dim(p)));
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn routes_are_minimal_and_contiguous() {
        for (k, n) in [(2u16, 3u8), (3, 2), (4, 2), (5, 2)] {
            let t = Torus::of(k, n);
            let r = TorusRouter::new(t);
            for u in t.nodes() {
                for v in t.nodes() {
                    let mut hops = Vec::new();
                    r.route_hops(u, v, &mut hops);
                    assert_eq!(hops.len() as u32, t.distance(u, v), "minimal route");
                    let mut at = u;
                    for h in &hops {
                        assert_eq!(h.from, at, "contiguous route");
                        at = Topology::neighbor(&t, h.from, h.port);
                    }
                    assert_eq!(at, v, "route ends at destination");
                }
            }
        }
    }

    #[test]
    fn dateline_switches_class_exactly_after_the_wrap_edge() {
        let t = Torus::of(4, 1);
        let r = TorusRouter::new(t);
        // 3 → 1 the short way is +: 3 →(wrap) 0 → 1. The wrap hop rides
        // the low class; the hop after it rides the high class.
        let mut hops = Vec::new();
        r.route_hops(t.node_at(&[3]), t.node_at(&[1]), &mut hops);
        let parts: Vec<(u8, bool, u8)> = hops
            .iter()
            .map(|h| {
                let (d, plus) = t.port_parts(h.port);
                (d, plus, h.lane)
            })
            .collect();
        assert_eq!(parts, vec![(0, true, 0), (0, true, 1)]);
        // A route that never wraps stays in the low class.
        hops.clear();
        r.route_hops(t.node_at(&[0]), t.node_at(&[2]), &mut hops);
        assert!(hops.iter().all(|h| h.lane == 0));
    }

    #[test]
    fn lane_multiplier_scales_classes() {
        let t = Torus::of(4, 1);
        let r = TorusRouter::with_lane_multiplier(t, 3);
        assert_eq!(r.lanes(), 6);
        assert_eq!(r.lane_classes(), 2);
        let mut hops = Vec::new();
        r.route_hops(t.node_at(&[3]), t.node_at(&[1]), &mut hops);
        // Nominal lanes are the class floors: 0 (low) and m (high).
        let lanes: Vec<u8> = hops.iter().map(|h| h.lane).collect();
        assert_eq!(lanes, vec![0, 3]);
    }

    #[test]
    fn default_multiplier_matches_the_original_vc_encoding() {
        // At m = 1 a dense (link, lane) channel index is
        // (v·2n + 2d+dir)·2 + vc = v·4n + 4d + 2·dir + vc — exactly the
        // original 4n-ports-per-node encoding. Pin it.
        let t = Torus::of(4, 2);
        let r = TorusRouter::new(t);
        for u in t.nodes() {
            for v in t.nodes() {
                let mut hops = Vec::new();
                r.route_hops(u, v, &mut hops);
                let chans = r.route_channels(u, v);
                for (h, &ch) in hops.iter().zip(&chans) {
                    let (d, plus) = t.port_parts(h.port);
                    let old_port = 4 * d as usize + 2 * usize::from(!plus) + h.lane as usize;
                    assert_eq!(ch, h.from.0 as usize * 8 + old_port);
                }
            }
        }
    }

    #[test]
    fn ties_break_toward_plus() {
        let t = Torus::of(4, 1);
        let r = TorusRouter::new(t);
        // Distance 2 both ways on a 4-ring: the + way is taken.
        let mut hops = Vec::new();
        r.route_hops(t.node_at(&[0]), t.node_at(&[2]), &mut hops);
        assert!(hops.iter().all(|h| t.port_parts(h.port).1));
    }

    #[test]
    fn binary_torus_matches_hypercube_distances() {
        let t = Torus::of(2, 4);
        let c = crate::Cube::of(4);
        for u in t.nodes() {
            for v in t.nodes() {
                assert_eq!(t.distance(u, v), u.distance(v));
                assert!(Topology::contains(&c, u));
            }
        }
    }

    #[test]
    fn labels_show_coordinates() {
        let t = Torus::of(4, 2);
        let v = t.node_at(&[3, 1]);
        assert_eq!(Topology::node_label(&t, v), "3,1");
        let ch = Topology::channel_index(&t, v, t.port_of(1, false));
        assert_eq!(Topology::channel_label(&t, ch), "3,1--d1-→");
        assert_eq!(Topology::lane_label(&t, ch, 1), "3,1--d1-v1→");
    }
}
