//! The dimension-ordered-chain splitting engine behind U-cube, Maxport,
//! and Combine (Section 4.1).
//!
//! All three algorithms share the recursive structure of Figure 4 and
//! differ in a single statement — the choice of `next`, the chain position
//! the current holder transmits to:
//!
//! * **U-cube**: `next = center` — halve the chain (optimal one-port);
//! * **Maxport**: `next = highdim` — peel off the entire highest-dimension
//!   subcube, so every send of a node leaves on a distinct channel;
//! * **Combine**: `next = max(highdim, center)` — fan out like Maxport but
//!   never leave one child responsible for more than half the chain.

use crate::schedule::SendPlan;
use hcube::{delta_high, NodeId};

/// The `next` selection rule distinguishing the three Section 4.1
/// algorithms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitRule {
    /// U-cube: split the chain at its midpoint.
    Center,
    /// Maxport: split at the first node of the highest-dimension subcube.
    HighDim,
    /// Combine: `max(highdim, center)`.
    Max,
}

/// Builds the forwarding plan for a *dimension-ordered* canonical relative
/// chain (ascending, `chain[0] = 0` is the source).
///
/// Implements the loop of Figure 4: repeatedly pick `next`, hand the tail
/// `{d_next, …, d_right}` to `d_next`, and keep `{d_left, …, d_next − 1}`.
/// Sends are recorded in issue order (highest split first), which is the
/// transmission order on a one-port node.
pub(crate) fn chain_split_plan(chain: &[NodeId], rule: SplitRule) -> SendPlan {
    let mut plan = SendPlan::with_capacity(chain.len().saturating_sub(1));
    if chain.len() <= 1 {
        return plan;
    }
    // One entry per holder (the source, then each receiver), so the
    // stack never outgrows the chain. Popping a holder issues all of its
    // sends before any child's, which keeps each sender's group
    // contiguous and parents first.
    let mut stack = Vec::with_capacity(chain.len());
    stack.push((0usize, chain.len() - 1));
    while let Some((left, mut right)) = stack.pop() {
        while left < right {
            // x: position of the first bit difference between the local
            // address and the chain's last address — the highest dimension
            // spanned by the remaining chain.
            let x = delta_high(chain[left], chain[right]).expect("chain elements are distinct");
            // d_highdim: the leftmost destination whose first difference
            // from d_left is x. δ(d_left, ·) is monotone along a
            // dimension-ordered chain, so binary search applies.
            let highdim = left
                + 1
                + chain[left + 1..=right]
                    .partition_point(|&d| delta_high(chain[left], d) != Some(x));
            // center = left + ⌈(right − left) / 2⌉
            let center = left + (right - left).div_ceil(2);
            let next = match rule {
                SplitRule::Center => center,
                SplitRule::HighDim => highdim,
                SplitRule::Max => highdim.max(center),
            };
            plan.push(left, next);
            stack.push((next, right));
            right = next - 1;
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    /// Expands a plan into (sender, receiver) relative-address pairs.
    fn edges(chain: &[NodeId], plan: &[Vec<usize>]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (s, sends) in plan.iter().enumerate() {
            for &d in sends {
                out.push((chain[s].0, chain[d].0));
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn every_non_source_received_exactly_once() {
        let chain = ids(&[0, 1, 3, 5, 7, 11, 12, 14, 15]);
        for rule in [SplitRule::Center, SplitRule::HighDim, SplitRule::Max] {
            let plan = chain_split_plan(&chain, rule).nested(chain.len());
            let mut seen = vec![false; chain.len()];
            seen[0] = true;
            for sends in &plan {
                for &d in sends {
                    assert!(!seen[d], "{rule:?} delivered twice to index {d}");
                    seen[d] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "{rule:?} missed a destination");
        }
    }

    #[test]
    fn maxport_sends_leave_on_distinct_channels() {
        let chain = ids(&[0, 1, 3, 5, 7, 11, 12, 14, 15]);
        let plan = chain_split_plan(&chain, SplitRule::HighDim).nested(chain.len());
        for (s, sends) in plan.iter().enumerate() {
            let mut dims: Vec<u8> = sends
                .iter()
                .map(|&d| delta_high(chain[s], chain[d]).unwrap().0)
                .collect();
            let before = dims.len();
            dims.sort_unstable();
            dims.dedup();
            assert_eq!(dims.len(), before, "Maxport reused a channel at node {s}");
        }
    }

    #[test]
    fn figure_6_maxport_pathology() {
        // Source 0000 → {1001, 1010, 1011}: Maxport builds the degenerate
        // chain 0→1001→1010→1011 (three sequential sends).
        let chain = ids(&[0b0000, 0b1001, 0b1010, 0b1011]);
        let plan = chain_split_plan(&chain, SplitRule::HighDim).nested(chain.len());
        assert_eq!(
            edges(&chain, &plan),
            vec![(0b0000, 0b1001), (0b1001, 0b1010), (0b1010, 0b1011)]
        );
        // U-cube on the same set: 0→1010 (carrying 1011), 0→1001.
        let plan = chain_split_plan(&chain, SplitRule::Center).nested(chain.len());
        assert_eq!(
            edges(&chain, &plan),
            vec![(0b0000, 0b1001), (0b0000, 0b1010), (0b1010, 0b1011)]
        );
    }

    #[test]
    fn combine_equals_ucube_on_figure_6() {
        // max(highdim, center) = center here, avoiding the pathology.
        let chain = ids(&[0b0000, 0b1001, 0b1010, 0b1011]);
        assert_eq!(
            chain_split_plan(&chain, SplitRule::Max),
            chain_split_plan(&chain, SplitRule::Center)
        );
    }

    #[test]
    fn ucube_first_send_halves_the_chain() {
        // 9-element chain (m = 8): center = left + ⌈(right − left)/2⌉ = 4,
        // so the source's first send targets chain[4] = 7 — which is why
        // the paper's Figure 8(a) shows node 7 responsible for 11 and 12.
        let chain = ids(&[0, 1, 3, 5, 7, 11, 12, 14, 15]);
        let plan = chain_split_plan(&chain, SplitRule::Center).nested(chain.len());
        assert_eq!(plan[0][0], 4);
    }

    #[test]
    fn maxport_first_send_targets_first_of_high_subcube() {
        let chain = ids(&[0, 1, 3, 5, 7, 11, 12, 14, 15]);
        let plan = chain_split_plan(&chain, SplitRule::HighDim).nested(chain.len());
        // Highest spanned dimension is 3; the first chain element with
        // bit 3 set is 11 at index 5 — here highdim coincides with center.
        assert_eq!(plan[0][0], 5);
        // The source's remaining sends peel dimensions 2, 1, 0.
        assert_eq!(plan[0].len(), 4);
    }

    #[test]
    fn single_destination_chain() {
        let chain = ids(&[0, 9]);
        for rule in [SplitRule::Center, SplitRule::HighDim, SplitRule::Max] {
            let plan = chain_split_plan(&chain, rule).nested(chain.len());
            assert_eq!(plan[0], vec![1]);
            assert!(plan[1].is_empty());
        }
    }

    #[test]
    fn empty_destination_chain() {
        let chain = ids(&[0]);
        for rule in [SplitRule::Center, SplitRule::HighDim, SplitRule::Max] {
            let plan = chain_split_plan(&chain, rule).nested(chain.len());
            assert_eq!(plan, vec![Vec::<usize>::new()]);
        }
    }
}
