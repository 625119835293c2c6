//! The multicast tree-construction algorithms compared in the paper,
//! plus two baselines.
//!
//! | Algorithm | Section | `next` rule / structure |
//! |---|---|---|
//! | [`Algorithm::UCube`] | 4.1 (prior art \[9]) | `next = center` |
//! | [`Algorithm::Maxport`] | 4.1 | `next = highdim` |
//! | [`Algorithm::Combine`] | 4.1 | `next = max(highdim, center)` |
//! | [`Algorithm::WSort`] | 4.2 | `weighted_sort` + cube-ordered Maxport |
//! | [`Algorithm::Separate`] | §2 baseline | one unicast per destination |
//! | [`Algorithm::DimTree`] | §2 baseline (Fig. 3a) | store-and-forward dimensional tree |
//!
//! Every algorithm goes through the same pipeline: canonicalize addresses
//! for the router's [`Resolution`], build the source-relative chain,
//! generate a forwarding plan, and schedule it under the [`PortModel`].

pub(crate) mod chain_split;
pub(crate) mod cube_split;
pub(crate) mod dimtree;
pub(crate) mod separate;
pub mod weighted_sort;

use crate::schedule::{schedule, PortModel, SendPlan};
use crate::tree::MulticastTree;
use chain_split::SplitRule;
use hcube::chain::relative_chain;
use hcube::{Cube, HcubeError, NodeId, Resolution};

/// A multicast tree-construction algorithm.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Algorithm {
    /// U-cube [McKinley et al. '92]: optimal on one-port architectures;
    /// oblivious to multiple ports.
    UCube,
    /// Maxport: always fan out on as many channels as the destination set
    /// permits.
    Maxport,
    /// Combine: Maxport's fan-out bounded by U-cube's halving.
    Combine,
    /// W-sort: `weighted_sort` the chain, then cube-ordered Maxport —
    /// the paper's contention-free all-port algorithm (Theorem 6).
    WSort,
    /// Separate addressing: one direct unicast per destination.
    Separate,
    /// The store-and-forward dimensional tree of Figure 3(a); uses
    /// non-destination relay processors.
    DimTree,
}

impl Algorithm {
    /// The four algorithms the paper's evaluation compares.
    pub const PAPER: [Algorithm; 4] = [
        Algorithm::UCube,
        Algorithm::Maxport,
        Algorithm::Combine,
        Algorithm::WSort,
    ];

    /// Every implemented algorithm, including the baselines.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::UCube,
        Algorithm::Maxport,
        Algorithm::Combine,
        Algorithm::WSort,
        Algorithm::Separate,
        Algorithm::DimTree,
    ];

    /// Display name used in tables and figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::UCube => "U-cube",
            Algorithm::Maxport => "Maxport",
            Algorithm::Combine => "Combine",
            Algorithm::WSort => "W-sort",
            Algorithm::Separate => "Separate",
            Algorithm::DimTree => "DimTree",
        }
    }

    /// Whether the algorithm involves local processors of nodes that are
    /// neither the source nor destinations (only the store-and-forward
    /// baseline does).
    #[must_use]
    pub fn uses_relays(self) -> bool {
        matches!(self, Algorithm::DimTree)
    }

    /// Whether the algorithm's all-port schedule is guaranteed
    /// contention-free by the paper's theory (Theorems 3 and 6 and the
    /// subcube-separation argument for Maxport). U-cube carries the
    /// guarantee only on one-port systems; Combine's mixed splits can
    /// place an ancestor's later same-port send into a half already being
    /// serviced by a sibling subtree.
    #[must_use]
    pub fn contention_free_all_port(self) -> bool {
        matches!(
            self,
            Algorithm::Maxport | Algorithm::WSort | Algorithm::Separate | Algorithm::DimTree
        )
    }

    /// Builds and schedules the multicast tree from `source` to `dests`.
    ///
    /// # Errors
    /// * [`HcubeError::NodeOutOfRange`] if the source or a destination is
    ///   not a node of `cube`;
    /// * [`HcubeError::DuplicateAddress`] if a destination repeats or
    ///   equals the source.
    pub fn build(
        self,
        cube: Cube,
        resolution: Resolution,
        port_model: PortModel,
        source: NodeId,
        dests: &[NodeId],
    ) -> Result<MulticastTree, HcubeError> {
        cube.check_node(source)?;
        for &d in dests {
            cube.check_node(d)?;
        }
        let n = cube.dimension();
        let (chain, plan) = self.plan(resolution, source, dests, n)?;
        Ok(schedule(
            cube, resolution, source, &chain, &plan, port_model,
        ))
    }

    /// The canonical relative chain (relays included, for
    /// [`Algorithm::DimTree`]) and the forwarding plan over it that
    /// [`Algorithm::build`] schedules.
    pub(crate) fn plan(
        self,
        resolution: Resolution,
        source: NodeId,
        dests: &[NodeId],
        n: u8,
    ) -> Result<(Vec<NodeId>, SendPlan), HcubeError> {
        let mut chain = relative_chain(resolution, n, source, dests)?;
        let plan = match self {
            Algorithm::UCube => chain_split::chain_split_plan(&chain, SplitRule::Center),
            Algorithm::Maxport => chain_split::chain_split_plan(&chain, SplitRule::HighDim),
            Algorithm::Combine => chain_split::chain_split_plan(&chain, SplitRule::Max),
            Algorithm::WSort => {
                weighted_sort::weighted_sort(&mut chain, n);
                cube_split::cube_split_plan(&chain, n)
            }
            Algorithm::Separate => separate::separate_plan(chain.len()),
            Algorithm::DimTree => {
                let (nodes, plan) = dimtree::dimtree_plan(&chain[1..], n);
                chain = nodes;
                plan
            }
        };
        Ok((chain, plan))
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    fn build(algo: Algorithm, n: u8, port: PortModel, source: u32, dests: &[u32]) -> MulticastTree {
        algo.build(
            Cube::of(n),
            Resolution::HighToLow,
            port,
            NodeId(source),
            &ids(dests),
        )
        .unwrap()
    }

    /// Figure 3(d): U-cube on the all-port 4-cube still needs 4 steps for
    /// the example destination set (node 1011 is delayed to step 3 behind
    /// the channel shared with the 1100 unicast, and its own forwarding
    /// obligations push the total to 4).
    #[test]
    fn figure_3d_ucube_all_port() {
        let t = build(
            Algorithm::UCube,
            4,
            PortModel::AllPort,
            0b0000,
            &[
                0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
            ],
        );
        assert_eq!(t.steps, 4);
        // The delayed unicast: 1011 received at step 3.
        assert_eq!(t.recv_step(NodeId(0b1011)), Some(3));
    }

    /// Figure 3(c): the same multicast on one-port needs 4 steps
    /// (⌈log₂(8+1)⌉ = 4, the one-port lower bound).
    #[test]
    fn figure_3c_ucube_one_port() {
        let t = build(
            Algorithm::UCube,
            4,
            PortModel::OnePort,
            0b0000,
            &[
                0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
            ],
        );
        assert_eq!(t.steps, 4);
    }

    /// Figure 3(e): W-sort reaches the same set in 2 steps on all-port.
    #[test]
    fn figure_3e_wsort_all_port() {
        let t = build(
            Algorithm::WSort,
            4,
            PortModel::AllPort,
            0b0000,
            &[
                0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
            ],
        );
        assert_eq!(t.steps, 2);
    }

    /// Figure 5: U-cube from source 0100 to eight destinations takes
    /// 4 steps on a one-port 4-cube.
    #[test]
    fn figure_5_ucube_from_nonzero_source() {
        let t = build(
            Algorithm::UCube,
            4,
            PortModel::OnePort,
            0b0100,
            &[
                0b0001, 0b0011, 0b0101, 0b0111, 0b1000, 0b1010, 0b1011, 0b1111,
            ],
        );
        assert_eq!(t.steps, 4);
        assert_eq!(t.message_count(), 8);
    }

    /// Figure 6: Maxport needs 3 steps for {1001, 1010, 1011} while
    /// U-cube needs only 2.
    #[test]
    fn figure_6_maxport_vs_ucube() {
        let dests = [0b1001, 0b1010, 0b1011];
        let t = build(Algorithm::Maxport, 4, PortModel::AllPort, 0, &dests);
        assert_eq!(t.steps, 3);
        let t = build(Algorithm::UCube, 4, PortModel::AllPort, 0, &dests);
        assert_eq!(t.steps, 2);
        // Combine fixes the pathology.
        let t = build(Algorithm::Combine, 4, PortModel::AllPort, 0, &dests);
        assert_eq!(t.steps, 2);
    }

    /// Figure 8: on D = {0,1,3,5,7,11,12,14,15}, all-port U-cube and
    /// Maxport need 4 steps, W-sort needs 2.
    #[test]
    fn figure_8_step_counts() {
        let dests = [1, 3, 5, 7, 11, 12, 14, 15];
        assert_eq!(
            build(Algorithm::UCube, 4, PortModel::AllPort, 0, &dests).steps,
            4
        );
        assert_eq!(
            build(Algorithm::Maxport, 4, PortModel::AllPort, 0, &dests).steps,
            4
        );
        assert_eq!(
            build(Algorithm::WSort, 4, PortModel::AllPort, 0, &dests).steps,
            2
        );
    }

    #[test]
    fn separate_addressing_step_counts() {
        // One-port: m steps. All-port: destinations split across channels.
        let dests = [1, 2, 3];
        assert_eq!(
            build(Algorithm::Separate, 3, PortModel::OnePort, 0, &dests).steps,
            3
        );
        // Channels: 1→dim0, 2→dim1, 3→dim1 (δ(0,3)=1): dim1 serializes.
        assert_eq!(
            build(Algorithm::Separate, 3, PortModel::AllPort, 0, &dests).steps,
            2
        );
    }

    #[test]
    fn dimtree_reaches_all_with_single_hops() {
        let dests = [
            0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111,
        ];
        let t = build(Algorithm::DimTree, 4, PortModel::OnePort, 0, &dests);
        assert!(t.unicasts.iter().all(|u| u.src.distance(u.dst) == 1));
        for &d in &dests {
            assert!(t.recv_step(NodeId(d)).is_some());
        }
        assert!(!t.relays(&ids(&dests)).is_empty());
    }

    #[test]
    fn build_rejects_bad_input() {
        let c = Cube::of(3);
        let r = Resolution::HighToLow;
        let p = PortModel::AllPort;
        assert!(Algorithm::UCube
            .build(c, r, p, NodeId(9), &ids(&[1]))
            .is_err());
        assert!(Algorithm::UCube
            .build(c, r, p, NodeId(0), &ids(&[9]))
            .is_err());
        assert!(Algorithm::UCube
            .build(c, r, p, NodeId(0), &ids(&[1, 1]))
            .is_err());
        assert!(Algorithm::UCube
            .build(c, r, p, NodeId(1), &ids(&[1]))
            .is_err());
    }

    #[test]
    fn empty_destination_set_is_a_trivial_tree() {
        let t = build(Algorithm::WSort, 4, PortModel::AllPort, 3, &[]);
        assert_eq!(t.steps, 0);
        assert!(t.unicasts.is_empty());
    }

    #[test]
    fn broadcast_steps_all_port() {
        // Full broadcast in a 4-cube: W-sort/Maxport reach all 15 nodes.
        // Capacity bound: ⌈log₅(16)⌉ = 2 steps;
        // the spanning-binomial structure achieves... let the algorithms
        // speak; they must at least respect the bound and one-port must be
        // exactly n = log₂ N steps.
        for algo in [Algorithm::Maxport, Algorithm::WSort] {
            let dests: Vec<u32> = (1..16).collect();
            let t = build(algo, 4, PortModel::AllPort, 0, &dests);
            assert!(t.steps >= 2, "{algo}: capacity lower bound");
            assert!(t.steps <= 4, "{algo}: must not exceed one-port optimum");
        }
        let dests: Vec<u32> = (1..16).collect();
        let t = build(Algorithm::UCube, 4, PortModel::OnePort, 0, &dests);
        assert_eq!(t.steps, 4); // ⌈log₂ 16⌉
    }

    #[test]
    fn all_algorithms_work_from_any_source_and_resolution() {
        for algo in Algorithm::ALL {
            for res in [Resolution::HighToLow, Resolution::LowToHigh] {
                for port in [PortModel::OnePort, PortModel::AllPort] {
                    let t = algo
                        .build(
                            Cube::of(4),
                            res,
                            port,
                            NodeId(0b1010),
                            &ids(&[0b0001, 0b1111, 0b0110]),
                        )
                        .unwrap();
                    for d in [0b0001, 0b1111, 0b0110] {
                        assert!(
                            t.recv_step(NodeId(d)).is_some(),
                            "{algo} {res:?} {port:?} missed {d:#b}"
                        );
                    }
                }
            }
        }
    }
}
