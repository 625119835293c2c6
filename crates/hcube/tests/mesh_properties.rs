//! Property-based tests for the 2D mesh backend and its two routers,
//! mirroring `torus_properties.rs`: minimal routing, dense channel
//! indexing, the west-first turn discipline, and — the deadlock-freedom
//! certificate — exhaustive acyclicity of the channel-dependency graph
//! induced by every route of the network.

use hcube::{Mesh, MeshXY, MinimalAdaptive, NodeId, Router, Topology};
use proptest::prelude::*;

/// A mesh shape and two node addresses valid for it.
fn mesh_and_pair() -> impl Strategy<Value = (u16, u16, u32, u32)> {
    (2u16..=6, 1u16..=6).prop_flat_map(|(w, h)| {
        let nodes = u32::from(w) * u32::from(h);
        (Just(w), Just(h), 0..nodes, 0..nodes)
    })
}

/// Checks a route is a contiguous chain of in-bounds neighbor steps of
/// minimal (Manhattan) length that never rides a boundary self-loop.
fn assert_minimal_contiguous<R: Router<Topo = Mesh>>(
    r: &R,
    m: Mesh,
    u: NodeId,
    v: NodeId,
) -> Result<(), TestCaseError> {
    let mut hops = Vec::new();
    r.route_hops(u, v, &mut hops);
    prop_assert_eq!(hops.len() as u32, m.distance(u, v), "minimal route");
    prop_assert_eq!(r.hops(u, v), m.distance(u, v));
    let mut at = u;
    for h in &hops {
        prop_assert_eq!(h.from, at, "contiguous route");
        prop_assert!(h.port.0 < m.ports_per_node());
        prop_assert!(h.lane < r.lanes());
        let next = m.neighbor(h.from, h.port);
        prop_assert!(next != at, "route never rides a boundary loop");
        at = next;
    }
    prop_assert_eq!(at, v, "route ends at destination");
    Ok(())
}

proptest! {
    #[test]
    fn xy_routes_are_minimal_and_contiguous((w, h, u, v) in mesh_and_pair()) {
        let m = Mesh::of(w, h);
        assert_minimal_contiguous(&MeshXY::new(m), m, NodeId(u), NodeId(v))?;
    }

    #[test]
    fn adaptive_routes_are_minimal_and_contiguous(
        (w, h, u, v) in mesh_and_pair(),
        lanes in 1u8..=4,
    ) {
        let m = Mesh::of(w, h);
        let r = MinimalAdaptive::with_lanes(m, lanes);
        assert_minimal_contiguous(&r, m, NodeId(u), NodeId(v))?;
    }

    /// The west-first turn discipline (Glass & Ni): every `x−` hop
    /// precedes every non-west hop, the `y` direction never mixes within
    /// a route, and no hop reverses the previous one. These are exactly
    /// the conditions under which the turn model removes the cyclic
    /// turns from the channel-dependency graph.
    #[test]
    fn adaptive_routes_are_west_first((w, h, u, v) in mesh_and_pair()) {
        let m = Mesh::of(w, h);
        let r = MinimalAdaptive::new(m);
        let mut hops = Vec::new();
        r.route_hops(NodeId(u), NodeId(v), &mut hops);
        let mut seen_non_west = false;
        let mut y_sign: Option<u8> = None;
        let mut last_port: Option<u8> = None;
        for hop in &hops {
            let p = hop.port.0;
            if p == 1 {
                prop_assert!(!seen_non_west, "west hops must form a prefix");
            } else {
                seen_non_west = true;
            }
            if p >= 2 {
                prop_assert!(y_sign.is_none_or(|s| s == p), "y direction never mixes");
                y_sign = Some(p);
            }
            if let Some(lp) = last_port {
                prop_assert!(lp ^ 1 != p, "no 180-degree reversals");
            }
            last_port = Some(p);
        }
    }

    /// The deterministic per-pair staircase interleaving is stable: the
    /// same pair always routes the same way (the simulator's byte-identical
    /// replays depend on it).
    #[test]
    fn adaptive_routes_are_deterministic((w, h, u, v) in mesh_and_pair()) {
        let m = Mesh::of(w, h);
        let r = MinimalAdaptive::new(m);
        prop_assert_eq!(
            r.route_channels(NodeId(u), NodeId(v)),
            r.route_channels(NodeId(u), NodeId(v))
        );
    }

    /// `channel_index`/`channel_coords` are mutually inverse over the
    /// dense range and every port maps into a valid dimension.
    #[test]
    fn channel_indexing_is_a_bijection(w in 2u16..=6, h in 1u16..=6) {
        let m = Mesh::of(w, h);
        let mut seen = vec![false; m.channel_count()];
        for v in m.nodes() {
            for p in 0..m.ports_per_node() {
                let port = hcube::Dim(p);
                let i = m.channel_index(v, port);
                prop_assert!(i < m.channel_count());
                prop_assert!(!seen[i], "channel index collision at {i}");
                seen[i] = true;
                prop_assert_eq!(m.channel_coords(i), (v, port));
                prop_assert!(m.port_dim(port) < Topology::dimensions(&m));
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }
}

/// Builds the link-level channel-dependency graph over **all** routes
/// of the network and returns true iff it is acyclic. A dependency
/// `a → b` exists when some route acquires link `b` while holding link
/// `a` (consecutive hops). Wormhole deadlock requires a cycle here;
/// lane-level cycles project onto link-level cycles because every lane
/// of a link is in one interchangeable class for these routers — so
/// acyclicity of this graph is a complete deadlock-freedom certificate.
fn cdg_is_acyclic<R: Router<Topo = Mesh>>(r: &R, m: Mesh) -> bool {
    let links = m.channel_count();
    let mut edges = vec![std::collections::BTreeSet::new(); links];
    let mut hops = Vec::new();
    for u in m.nodes() {
        for v in m.nodes() {
            hops.clear();
            r.route_hops(u, v, &mut hops);
            for w in hops.windows(2) {
                let a = m.channel_index(w[0].from, w[0].port);
                let b = m.channel_index(w[1].from, w[1].port);
                edges[a].insert(b);
            }
        }
    }
    // Iterative three-color DFS cycle check.
    let mut color = vec![0u8; links]; // 0 white, 1 gray, 2 black
    for start in 0..links {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some((node, done)) = stack.pop() {
            if done {
                color[node] = 2;
                continue;
            }
            if color[node] == 2 {
                continue;
            }
            color[node] = 1;
            stack.push((node, true));
            for &next in &edges[node] {
                match color[next] {
                    1 => return false,
                    0 => stack.push((next, false)),
                    _ => {}
                }
            }
        }
    }
    true
}

/// The deadlock-freedom certificate, exhaustive on small meshes: the
/// dependency graph induced by every (src, dst) route is acyclic for
/// both routers.
#[test]
fn channel_dependency_graph_is_acyclic() {
    for (w, h) in [(2u16, 2u16), (3, 3), (4, 4), (5, 3), (2, 6)] {
        let m = Mesh::of(w, h);
        assert!(
            cdg_is_acyclic(&MeshXY::new(m), m),
            "XY CDG has a cycle on {w}x{h}"
        );
        assert!(
            cdg_is_acyclic(&MinimalAdaptive::new(m), m),
            "west-first CDG has a cycle on {w}x{h}"
        );
    }
}

/// Sanity: a router that violates the turn model *would* be caught by
/// the certificate — YX-after-XY mixing on a ring of turns creates a
/// cycle. We fake it by checking that adding the four prohibited turns
/// manually closes a cycle on a 2×2 mesh, i.e. the certificate is not
/// vacuously true.
#[test]
fn cdg_certificate_is_not_vacuous() {
    let m = Mesh::of(2, 2);
    let links = m.channel_count();
    let mut edges = vec![std::collections::BTreeSet::new(); links];
    // A clockwise cycle of dependencies around the 2×2 face:
    // (0,0)→x+ , (1,0)→y+, (1,1)→x−, (0,1)→y−.
    let cyc = [
        m.channel_index(m.node_at(0, 0), hcube::Dim(0)),
        m.channel_index(m.node_at(1, 0), hcube::Dim(2)),
        m.channel_index(m.node_at(1, 1), hcube::Dim(1)),
        m.channel_index(m.node_at(0, 1), hcube::Dim(3)),
    ];
    for i in 0..4 {
        edges[cyc[i]].insert(cyc[(i + 1) % 4]);
    }
    // Reuse the DFS from cdg_is_acyclic by inlining a tiny check.
    let mut color = vec![0u8; links];
    let mut found_cycle = false;
    'outer: for start in 0..links {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some((node, done)) = stack.pop() {
            if done {
                color[node] = 2;
                continue;
            }
            if color[node] == 2 {
                continue;
            }
            color[node] = 1;
            stack.push((node, true));
            for &next in &edges[node] {
                match color[next] {
                    1 => {
                        found_cycle = true;
                        break 'outer;
                    }
                    0 => stack.push((next, false)),
                    _ => {}
                }
            }
        }
    }
    assert!(
        found_cycle,
        "the prohibited-turn ring must register as a cycle"
    );
}

#[test]
fn mesh_node_iteration_matches_count() {
    for (w, h) in [(2u16, 1u16), (3, 3), (8, 8), (5, 2)] {
        let m = Mesh::of(w, h);
        assert_eq!(m.nodes().count(), m.node_count());
    }
}
