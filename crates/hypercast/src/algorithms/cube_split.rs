//! The cube-ordered-chain splitting engine of Section 4.2.
//!
//! Generalizes Maxport to any *cube-ordered* chain (Definition 5): when a
//! node holds a segment of the chain, it issues one unicast into each
//! maximal subcube that (1) does not contain the node, (2) lies within the
//! subcube the node received the message in, and (3) contains at least one
//! destination. On a dimension-ordered chain this reduces exactly to
//! Maxport; on a `weighted_sort`-permuted chain it is the W-sort
//! algorithm.

use crate::schedule::SendPlan;
use hcube::chain::cube_center;
use hcube::NodeId;

/// Builds the forwarding plan for a *cube-ordered* canonical relative
/// chain (`chain[0] = 0` is the source) in an `n`-cube.
///
/// Each holder walks its enclosing subcube down one dimension at a time;
/// whenever the other half of the current subcube holds destinations, the
/// contiguous block for that half is handed to the block's first node.
/// All sends of a holder therefore target disjoint subcubes and leave on
/// distinct channels.
pub(crate) fn cube_split_plan(chain: &[NodeId], n: u8) -> SendPlan {
    let mut plan = SendPlan::with_capacity(chain.len().saturating_sub(1));
    if chain.len() <= 1 {
        return plan;
    }
    // One entry per holder, as in `chain_split_plan`.
    let mut stack = Vec::with_capacity(chain.len());
    stack.push((0usize, chain.len() - 1, n));
    while let Some((left, mut right, mut ns)) = stack.pop() {
        while left < right {
            debug_assert!(
                ns >= 1,
                "distinct chain elements cannot share a 0-dimensional subcube"
            );
            let seg = &chain[left..=right];
            let c = cube_center(seg, ns);
            if c <= right - left {
                // The half not containing the holder has destinations:
                // hand its whole contiguous block to its first node.
                let next = left + c;
                plan.push(left, next);
                stack.push((next, right, ns - 1));
                right = next - 1;
            }
            ns -= 1;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::chain_split::{chain_split_plan, SplitRule};

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn reduces_to_maxport_on_dimension_ordered_chains() {
        let chains = [
            ids(&[0, 1, 3, 5, 7, 11, 12, 14, 15]),
            ids(&[0, 9]),
            ids(&[0, 1, 2, 3, 4, 5, 6, 7]),
            ids(&[0, 6, 9, 10, 13]),
        ];
        for chain in chains {
            assert_eq!(
                cube_split_plan(&chain, 4),
                chain_split_plan(&chain, SplitRule::HighDim),
                "chain {chain:?}"
            );
        }
    }

    #[test]
    fn figure_8c_weighted_chain_plan() {
        // The paper's weighted chain D̂ = {0,1,3,5,7,14,15,12,11}. The
        // source sends to 1, 3, 5 and 14; node 14 delivers 15, 12 and 11.
        let chain = ids(&[0, 1, 3, 5, 7, 14, 15, 12, 11]);
        let plan = cube_split_plan(&chain, 4).nested(chain.len());
        let mut edge_list: Vec<(u32, u32)> = Vec::new();
        for (s, v) in plan.iter().enumerate() {
            for &d in v {
                edge_list.push((chain[s].0, chain[d].0));
            }
        }
        edge_list.sort_unstable();
        assert_eq!(
            edge_list,
            vec![
                (0, 1),
                (0, 3),
                (0, 5),
                (0, 14),
                (5, 7),
                (14, 11),
                (14, 12),
                (14, 15),
            ]
        );
    }

    #[test]
    fn holder_keeps_its_own_half_every_level() {
        let chain = ids(&[0, 1, 3, 5, 7, 14, 15, 12, 11]);
        let plan = cube_split_plan(&chain, 4).nested(chain.len());
        // Source's sends in issue order: the 3-cube block head (14), then
        // lower dimensions: 5, 3, 1.
        assert_eq!(plan[0], vec![5, 3, 2, 1]);
    }

    #[test]
    fn single_and_empty_chains() {
        assert_eq!(
            cube_split_plan(&ids(&[0]), 4).nested(1),
            vec![Vec::<usize>::new()]
        );
        let plan = cube_split_plan(&ids(&[0, 12]), 4).nested(2);
        assert_eq!(plan[0], vec![1]);
    }
}
