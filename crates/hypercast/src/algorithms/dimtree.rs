//! The dimensional (store-and-forward era) multicast tree — the
//! historical baseline of Figure 3(a).
//!
//! Early hypercubes with store-and-forward switching relayed the payload
//! one hop per step through local processors. The classic scheme walks
//! the dimensions from high to low: every holder whose current subcube
//! region contains destinations across dimension `d` forwards to its
//! dimension-`d` *neighbor*, which becomes responsible for that half. The
//! neighbor may not itself be a destination — those nodes are the
//! *relays* whose processors the wormhole algorithms eliminate.

use crate::schedule::SendPlan;
use hcube::{Dim, NodeId};

/// Builds the dimensional tree for the canonical relative destination
/// set. Returns the node list (position 0 = source `0`, relays included)
/// and the forwarding plan over it.
pub(crate) fn dimtree_plan(rel_dests: &[NodeId], n: u8) -> (Vec<NodeId>, SendPlan) {
    let mut nodes = vec![NodeId(0)];
    let mut plan = SendPlan::with_capacity(rel_dests.len());
    // Every pending set is a range of this buffer, partitioned in place.
    let mut pending = rel_dests.to_vec();
    // Work-list of `(holder, range, dim)`: `holder` (an index into
    // `nodes`) is responsible for delivering to `pending[range]`, all of
    // which agree with it on every bit ≥ `dim`. A holder issues all of
    // its sends before any child is taken up, so its group is contiguous
    // and precedes its children's.
    let mut work = vec![(0usize, 0..pending.len(), n)];
    while let Some((holder, range, dim)) = work.pop() {
        let holder_addr = nodes[holder];
        let (lo, mut hi) = (range.start, range.end);
        for d in (0..dim).rev() {
            // Keep the nodes on the holder's side of dimension d in front.
            let own = partition(&mut pending[lo..hi], |v| {
                v.bit(Dim(d)) == holder_addr.bit(Dim(d))
            });
            let mid = lo + own;
            if mid == hi {
                continue;
            }
            // Forward one hop across dimension d; the neighbor takes over
            // the far half (it may be a relay, i.e. not itself a
            // destination).
            let neighbor = holder_addr.flip(Dim(d));
            let child = nodes.len();
            nodes.push(neighbor);
            plan.push(holder, child);
            let mut far = mid..hi;
            if let Some(i) = pending[far.clone()].iter().position(|&v| v == neighbor) {
                pending.swap(mid, mid + i);
                far.start += 1;
            }
            work.push((child, far, d));
            hi = mid;
        }
        debug_assert!(
            pending[lo..hi].iter().all(|&v| v == holder_addr),
            "all pending nodes must be resolved by dimension 0"
        );
    }
    (nodes, plan)
}

/// Reorders `seg` so the elements satisfying `keep` come first; returns
/// their count. The order within each part is unspecified.
fn partition(seg: &mut [NodeId], keep: impl Fn(NodeId) -> bool) -> usize {
    let mut kept = 0;
    for i in 0..seg.len() {
        if keep(seg[i]) {
            seg.swap(kept, i);
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn every_send_is_one_hop() {
        let (nodes, plan) = dimtree_plan(&ids(&[1, 3, 5, 7, 11, 12, 14, 15]), 4);
        let plan = plan.nested(nodes.len());
        for (s, sends) in plan.iter().enumerate() {
            for &d in sends {
                assert_eq!(nodes[s].distance(nodes[d]), 1);
            }
        }
    }

    #[test]
    fn covers_all_destinations() {
        let dests = ids(&[1, 3, 5, 7, 11, 12, 14, 15]);
        let (nodes, plan) = dimtree_plan(&dests, 4);
        let plan = plan.nested(nodes.len());
        let mut received: Vec<NodeId> = plan
            .iter()
            .flat_map(|v| v.iter().map(|&d| nodes[d]))
            .collect();
        received.sort_unstable();
        for d in &dests {
            assert!(received.contains(d), "destination {d} never delivered");
        }
        // Each node receives at most once.
        let before = received.len();
        received.dedup();
        assert_eq!(before, received.len());
    }

    #[test]
    fn figure_3a_set_uses_relays() {
        // The paper's Figure 3(a) notes non-destination relays are needed
        // for this destination set (it lists five under its tree shape;
        // the canonical dimensional tree needs some relays too).
        let dests = ids(&[
            0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
        ]);
        let (nodes, plan) = dimtree_plan(&dests, 4);
        let plan = plan.nested(nodes.len());
        let received: Vec<NodeId> = plan
            .iter()
            .flat_map(|v| v.iter().map(|&d| nodes[d]))
            .collect();
        let relays: Vec<NodeId> = received
            .iter()
            .copied()
            .filter(|v| !dests.contains(v) && v.0 != 0)
            .collect();
        assert!(!relays.is_empty(), "this set requires relay processors");
    }

    #[test]
    fn single_neighbor_destination_needs_no_relay() {
        let (nodes, plan) = dimtree_plan(&ids(&[0b1000]), 4);
        let plan = plan.nested(nodes.len());
        assert_eq!(nodes.len(), 2);
        assert_eq!(plan[0], vec![1]);
        assert_eq!(nodes[1], NodeId(0b1000));
    }

    #[test]
    fn distant_destination_chains_through_relays() {
        // Reaching 0b1111 alone requires 3 relays (1000, 1100, 1110).
        let (nodes, plan) = dimtree_plan(&ids(&[0b1111]), 4);
        assert_eq!(nodes.len(), 5);
        // A chain: each node sends exactly one message except the last.
        let sends = plan.len();
        assert_eq!(sends, 4);
    }

    #[test]
    fn empty_destination_set() {
        let (nodes, plan) = dimtree_plan(&[], 4);
        assert_eq!(nodes.len(), 1);
        assert_eq!(plan.len(), 0);
    }
}
