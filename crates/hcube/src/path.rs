//! E-cube paths `P(u, v)` and the directed channels (arcs) they occupy.

use crate::addr::{Dim, NodeId};
use crate::routing::{Resolution, RouteDims};

/// A directed external channel of the hypercube: the arc that leaves
/// `from` in dimension `dim`, arriving at `from ⊕ 2^dim`.
///
/// Two unicasts *contend* only if they occupy a common `Channel` at the
/// same time; paths with no common channel are *arc-disjoint*.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Channel {
    /// The node the arc leaves.
    pub from: NodeId,
    /// The dimension the arc travels.
    pub dim: Dim,
}

impl Channel {
    /// The node the arc enters: `from ⊕ 2^dim`.
    #[inline]
    #[must_use]
    pub fn to(self) -> NodeId {
        self.from.flip(self.dim)
    }
}

/// The E-cube path `P(u, v)` under a given resolution order.
///
/// The path is stored implicitly as its endpoints; node and arc sequences
/// are produced on demand without allocation. `P(u, v)` visits
/// `‖u ⊕ v‖ + 1` nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Path {
    /// Source node `u`.
    pub src: NodeId,
    /// Destination node `v`.
    pub dst: NodeId,
    /// The router's address-resolution order.
    pub resolution: Resolution,
}

impl Path {
    /// The E-cube path from `src` to `dst`.
    #[inline]
    #[must_use]
    pub fn new(resolution: Resolution, src: NodeId, dst: NodeId) -> Path {
        Path {
            src,
            dst,
            resolution,
        }
    }

    /// The number of hops, `‖u ⊕ v‖`.
    #[inline]
    #[must_use]
    pub fn hops(self) -> u32 {
        self.src.distance(self.dst)
    }

    /// Whether the path is empty (`u = v`).
    #[inline]
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.src == self.dst
    }

    /// The first dimension traveled, `δ(u, v)`; `None` for an empty path.
    #[inline]
    #[must_use]
    pub fn first_dim(self) -> Option<Dim> {
        self.resolution.delta(self.src, self.dst)
    }

    /// Iterates the arcs (directed channels) of the path in traversal
    /// order.
    #[inline]
    #[must_use]
    pub fn arcs(self) -> PathArcs {
        PathArcs {
            at: self.src,
            dims: self.resolution.route_dims(self.src, self.dst),
        }
    }

    /// Iterates the nodes visited, `(u; w₁; …; w_p; v)`, including both
    /// endpoints.
    #[inline]
    #[must_use]
    pub fn nodes(self) -> PathNodes {
        PathNodes {
            at: Some(self.src),
            dims: self.resolution.route_dims(self.src, self.dst),
        }
    }

    /// Whether the path traverses the given directed channel.
    #[must_use]
    pub fn uses(self, channel: Channel) -> bool {
        self.arcs().any(|a| a == channel)
    }
}

/// Iterator over a path's arcs. See [`Path::arcs`].
#[derive(Clone, Debug)]
pub struct PathArcs {
    at: NodeId,
    dims: RouteDims,
}

impl Iterator for PathArcs {
    type Item = Channel;

    #[inline]
    fn next(&mut self) -> Option<Channel> {
        let dim = self.dims.next()?;
        let arc = Channel { from: self.at, dim };
        self.at = arc.to();
        Some(arc)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.dims.size_hint()
    }
}

impl ExactSizeIterator for PathArcs {}

/// Iterator over a path's nodes. See [`Path::nodes`].
#[derive(Clone, Debug)]
pub struct PathNodes {
    at: Option<NodeId>,
    dims: RouteDims,
}

impl Iterator for PathNodes {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let here = self.at?;
        self.at = self.dims.next().map(|d| here.flip(d));
        Some(here)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.dims.size_hint();
        let extra = usize::from(self.at.is_some());
        (lo + extra, hi.map(|h| h + extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: u32, dst: u32) -> Path {
        Path::new(Resolution::HighToLow, NodeId(src), NodeId(dst))
    }

    #[test]
    fn paper_example_node_sequence() {
        // P(0101, 1110) = (0101; 1101; 1111; 1110)
        let nodes: Vec<u32> = p(0b0101, 0b1110).nodes().map(|v| v.0).collect();
        assert_eq!(nodes, vec![0b0101, 0b1101, 0b1111, 0b1110]);
    }

    #[test]
    fn empty_path_has_one_node_and_no_arcs() {
        let path = p(6, 6);
        assert!(path.is_empty());
        assert_eq!(path.hops(), 0);
        assert_eq!(path.nodes().count(), 1);
        assert_eq!(path.arcs().count(), 0);
        assert_eq!(path.first_dim(), None);
    }

    #[test]
    fn arcs_link_consecutive_nodes() {
        for src in 0..16u32 {
            for dst in 0..16u32 {
                for res in [Resolution::HighToLow, Resolution::LowToHigh] {
                    let path = Path::new(res, NodeId(src), NodeId(dst));
                    let nodes: Vec<NodeId> = path.nodes().collect();
                    let arcs: Vec<Channel> = path.arcs().collect();
                    assert_eq!(nodes.len(), arcs.len() + 1);
                    assert_eq!(nodes[0], path.src);
                    assert_eq!(*nodes.last().unwrap(), path.dst);
                    for (i, a) in arcs.iter().enumerate() {
                        assert_eq!(a.from, nodes[i]);
                        assert_eq!(a.to(), nodes[i + 1]);
                    }
                    // p + 1 = ‖u ⊕ v‖ (node count minus one equals distance)
                    assert_eq!(arcs.len() as u32, NodeId(src).distance(NodeId(dst)));
                }
            }
        }
    }

    #[test]
    fn first_dim_matches_first_arc() {
        let path = p(0b0000, 0b0110);
        assert_eq!(path.first_dim(), Some(Dim(2)));
        assert_eq!(path.arcs().next().unwrap().dim, Dim(2));
    }

    #[test]
    fn uses_detects_membership() {
        let path = p(0b0101, 0b1110);
        assert!(path.uses(Channel {
            from: NodeId(0b0101),
            dim: Dim(3)
        }));
        assert!(path.uses(Channel {
            from: NodeId(0b1111),
            dim: Dim(0)
        }));
        assert!(!path.uses(Channel {
            from: NodeId(0b0101),
            dim: Dim(0)
        }));
        // Reverse direction of a used link is a *different* channel.
        assert!(!path.uses(Channel {
            from: NodeId(0b1101),
            dim: Dim(3)
        }));
    }
}
