//! Port models and step assignment.
//!
//! The algorithms in [`crate::algorithms`] decide *who forwards the
//! payload to whom, in what issue order*; this module decides *when* each
//! unicast is transmitted, given the node architecture's port model:
//!
//! * **one-port** — the local processor owns a single pair of internal
//!   channels, so all of a node's sends serialize (one per step);
//! * **all-port** — every external channel has its own internal channel,
//!   so a node may transmit on all `n` channels simultaneously. Two sends
//!   whose E-cube paths leave on the *same* channel still serialize on
//!   that port — this is exactly the effect the paper describes for
//!   U-cube on an all-port cube (Figure 3(d)): the unicast to 1011 is
//!   delayed behind the unicast to 1100 because both leave node 0111 on
//!   channel 3.
//!
//! A node that receives the payload in step `t` may transmit from step
//! `t + 1`; the source transmits from step 1.
//!
//! # Visit-local scheduling
//!
//! A `SendPlan` lists each sender's sends as one contiguous group, and
//! a parent's group comes before the groups of the nodes it sends to.
//! `schedule` therefore visits every sender exactly once, after its
//! receive step is settled, and assigns all of that sender's steps during
//! the visit. Whatever constrains a send — the next free step of its port
//! and the number of sends already in a step (the k-port cap) — belongs
//! to its sender alone, so that state lives only for the visit: a
//! per-port clock array and a step-load array indexed from the sender's
//! `earliest` step, both reset when the next sender's visit starts.
//!
//! The step-load array is bounded by the sender's send count: the `k`-th
//! send (0-based) of a sender lands at most `k` steps after `earliest`.
//! By induction every earlier send `j < k` lands at or before
//! `earliest + j`, so the send's port is free by `earliest + k` and step
//! `earliest + k` carries no send yet, which the cap search reaches at
//! the latest.

use crate::tree::{MulticastTree, Unicast};
use hcube::chain::from_relative;
use hcube::{delta_high, Cube, NodeId, Resolution, MAX_DIMENSION};
#[cfg(test)]
use std::collections::HashMap;

/// The number of internal channel pairs connecting each local processor
/// to its router (Section 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PortModel {
    /// One pair of internal channels: sends (and receives) serialize.
    OnePort,
    /// One internal channel per external channel: a node can send to and
    /// receive on all `n` channels simultaneously.
    AllPort,
    /// `k` internal channel pairs (extension beyond the paper's one/all
    /// dichotomy): a node transmits on at most `k` distinct external
    /// channels per step. `KPort(1)` schedules like [`PortModel::OnePort`]
    /// (the simulator differs only in reception serialization, which
    /// `KPort` does not model); `KPort(n)` schedules like
    /// [`PortModel::AllPort`].
    KPort(u8),
}

impl PortModel {
    /// A short human-readable label, used in tables and plots.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            PortModel::OnePort => "one-port".to_string(),
            PortModel::AllPort => "all-port".to_string(),
            PortModel::KPort(k) => format!("{k}-port"),
        }
    }

    /// The maximum number of simultaneous transmissions a node can start
    /// in one step in an `n`-cube.
    #[must_use]
    pub fn concurrent_sends(self, n: u8) -> u8 {
        match self {
            PortModel::OnePort => 1,
            PortModel::AllPort => n,
            PortModel::KPort(k) => k.clamp(1, n),
        }
    }
}

/// The forwarding plan of an algorithm before steps are assigned: which
/// chain index sends the payload to which, in what issue order.
///
/// The plan is one flat receiver list cut into per-sender groups. Its
/// contract, which [`schedule`] relies on:
///
/// * index 0 (the source) and every other chain index appear as a
///   receiver exactly once, the source never;
/// * a sender's sends form one contiguous group, in issue order;
/// * a sender's group comes after the group in which it receives the
///   payload (parents first), so the source's group, if any, is first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SendPlan {
    /// Receiver chain indices of every send, grouped by sender.
    receivers: Vec<usize>,
    /// `(sender, end)` per group: the group is `receivers[start..end]`,
    /// where `start` is the previous group's `end` (0 for the first).
    groups: Vec<(usize, usize)>,
}

impl SendPlan {
    /// An empty plan with room for `sends` sends, so a generator that
    /// knows its send count allocates exactly twice.
    pub(crate) fn with_capacity(sends: usize) -> SendPlan {
        SendPlan {
            receivers: Vec::with_capacity(sends),
            groups: Vec::with_capacity(sends),
        }
    }

    /// Appends a send from `sender` to `receiver`. Consecutive pushes
    /// from one sender extend its group; the generator must not return
    /// to a sender once another sender has pushed.
    pub(crate) fn push(&mut self, sender: usize, receiver: usize) {
        match self.groups.last_mut() {
            Some((s, end)) if *s == sender => *end += 1,
            _ => self.groups.push((sender, self.receivers.len() + 1)),
        }
        self.receivers.push(receiver);
    }

    /// The total number of sends.
    pub(crate) fn len(&self) -> usize {
        self.receivers.len()
    }

    /// Each sender with its receivers in issue order, parents first.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (usize, &[usize])> {
        let mut start = 0;
        self.groups.iter().map(move |&(sender, end)| {
            let sends = &self.receivers[start..end];
            start = end;
            (sender, sends)
        })
    }

    /// Whether the plan over a chain of `nodes` indices meets the
    /// contract in the type's documentation.
    fn is_well_formed(&self, nodes: usize) -> bool {
        // 0: not yet reached; 1: holds the payload; 2: already sent.
        let mut state = vec![0u8; nodes];
        state[0] = 1;
        for (s, sends) in self.groups() {
            if state[s] != 1 {
                return false;
            }
            state[s] = 2;
            for &d in sends {
                if state[d] != 0 {
                    return false;
                }
                state[d] = 1;
            }
        }
        state.iter().all(|&x| x != 0)
    }

    /// The plan as one receiver list per chain index (`nodes` entries).
    #[cfg(test)]
    pub(crate) fn nested(&self, nodes: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); nodes];
        for (s, sends) in self.groups() {
            out[s].extend_from_slice(sends);
        }
        out
    }

    /// The flat plan of per-index receiver lists, groups ordered by a
    /// breadth-first walk from the source.
    #[cfg(test)]
    pub(crate) fn from_nested(nested: &[Vec<usize>]) -> SendPlan {
        let mut plan = SendPlan::default();
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(s) = queue.pop_front() {
            for &d in &nested[s] {
                plan.push(s, d);
                queue.push_back(d);
            }
        }
        plan
    }
}

/// Assigns steps to a [`SendPlan`] under `port_model` and materializes the
/// physical [`MulticastTree`].
///
/// `chain` is the canonical relative chain the plan indexes into (element
/// 0 is the source's relative address `0`). Runs in O(m·n) time and O(m)
/// memory and allocates a constant number of times (see the module docs
/// for why per-visit state is exact).
pub(crate) fn schedule(
    cube: Cube,
    resolution: Resolution,
    source: NodeId,
    chain: &[NodeId],
    plan: &SendPlan,
    port_model: PortModel,
) -> MulticastTree {
    debug_assert!(plan.is_well_formed(chain.len()));
    let n = cube.dimension();
    let cap = port_model.concurrent_sends(n);
    let mut recv_step = vec![0u32; chain.len()];
    // Visit-local state. `port_free[p]`: next free step of port `p`;
    // under one-port a single logical port (index n, never a real
    // channel) is shared by all sends. `step_load[i]`: sends already in
    // step `earliest + i`, for the k-port cap.
    let mut port_free = [0u32; MAX_DIMENSION as usize + 1];
    let widest = plan.groups().map(|(_, sends)| sends.len()).max();
    let mut step_load = vec![0u8; widest.unwrap_or(0)];
    let mut unicasts = Vec::with_capacity(plan.len());
    for (s, sends) in plan.groups() {
        let earliest = recv_step[s] + 1;
        port_free[..=usize::from(n)].fill(earliest);
        step_load[..sends.len()].fill(0);
        let src = from_relative(resolution, n, source, chain[s]);
        for (order, &d) in sends.iter().enumerate() {
            let port = match port_model {
                PortModel::OnePort => n, // one shared logical port
                PortModel::AllPort | PortModel::KPort(_) => {
                    delta_high(chain[s], chain[d])
                        .expect("a send never targets the sender itself")
                        .0
                }
            };
            let mut step = port_free[usize::from(port)];
            // k-port cap: at most `cap` transmissions per step.
            while step_load[(step - earliest) as usize] >= cap {
                step += 1;
            }
            step_load[(step - earliest) as usize] += 1;
            port_free[usize::from(port)] = step + 1;
            recv_step[d] = step;
            unicasts.push(Unicast {
                src,
                dst: from_relative(resolution, n, source, chain[d]),
                step,
                order: order as u32,
            });
        }
    }
    // `(src, order)` is unique per send, so this orders the unicasts
    // exactly as `MulticastTree::new`'s stable sort would, without its
    // scratch allocation.
    unicasts.sort_unstable_by_key(|u| (u.step, u.src, u.order));
    let steps = unicasts.last().map_or(0, |u| u.step);
    MulticastTree {
        cube,
        resolution,
        source,
        unicasts,
        steps,
    }
}

/// Reference scheduler, the oracle for [`schedule`]: whole-run
/// `HashMap`s keyed by `(sender, port)` and `(sender, step)` and a FIFO
/// walk from the source, over the same plan in per-index form.
#[cfg(test)]
fn schedule_reference(
    cube: Cube,
    resolution: Resolution,
    source: NodeId,
    chain: &[NodeId],
    plan: &[Vec<usize>],
    port_model: PortModel,
) -> MulticastTree {
    debug_assert_eq!(plan.len(), chain.len());
    let n = cube.dimension();
    let mut recv_step = vec![0u32; chain.len()];
    // Next free step per (sender, port). Under one-port a single logical
    // port (dimension n, never a real channel) is shared by all sends.
    let mut next_free: HashMap<(usize, u8), u32> = HashMap::new();
    // Per (sender, step) transmission counts, for the k-port cap.
    let mut step_load: HashMap<(usize, u32), u8> = HashMap::new();
    let cap = port_model.concurrent_sends(n);
    let mut unicasts = Vec::with_capacity(chain.len().saturating_sub(1));

    // Parents are always planned before their children, so a FIFO pass in
    // discovery order sees recv_step[sender] already settled.
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(0usize);
    while let Some(s) = queue.pop_front() {
        let earliest = recv_step[s] + 1;
        for (order, &d) in plan[s].iter().enumerate() {
            let port = match port_model {
                PortModel::OnePort => n, // one shared logical port
                PortModel::AllPort | PortModel::KPort(_) => {
                    delta_high(chain[s], chain[d])
                        .expect("a send never targets the sender itself")
                        .0
                }
            };
            let slot = next_free.entry((s, port)).or_insert(earliest);
            let mut step = (*slot).max(earliest);
            // k-port cap: at most `cap` transmissions per (sender, step).
            while *step_load.get(&(s, step)).unwrap_or(&0) >= cap {
                step += 1;
            }
            *step_load.entry((s, step)).or_insert(0) += 1;
            *slot = step + 1;
            recv_step[d] = step;
            unicasts.push(Unicast {
                src: from_relative(resolution, n, source, chain[s]),
                dst: from_relative(resolution, n, source, chain[d]),
                step,
                order: order as u32,
            });
            queue.push_back(d);
        }
    }
    MulticastTree::new(cube, resolution, source, unicasts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn one_port_serializes_all_sends() {
        // Source sends to three destinations directly.
        let chain = ids(&[0b000, 0b001, 0b010, 0b100]);
        let plan = SendPlan::from_nested(&[vec![1, 2, 3], vec![], vec![], vec![]]);
        let t = schedule(
            Cube::of(3),
            Resolution::HighToLow,
            NodeId(0),
            &chain,
            &plan,
            PortModel::OnePort,
        );
        let mut steps: Vec<u32> = t.unicasts.iter().map(|u| u.step).collect();
        steps.sort_unstable();
        assert_eq!(steps, vec![1, 2, 3]);
        assert_eq!(t.steps, 3);
    }

    #[test]
    fn all_port_parallelizes_distinct_channels() {
        let chain = ids(&[0b000, 0b001, 0b010, 0b100]);
        let plan = SendPlan::from_nested(&[vec![1, 2, 3], vec![], vec![], vec![]]);
        let t = schedule(
            Cube::of(3),
            Resolution::HighToLow,
            NodeId(0),
            &chain,
            &plan,
            PortModel::AllPort,
        );
        assert!(t.unicasts.iter().all(|u| u.step == 1));
        assert_eq!(t.steps, 1);
    }

    #[test]
    fn all_port_serializes_same_channel_sends() {
        // Both 0b100 and 0b110 are reached on first channel 2 from 0b000.
        let chain = ids(&[0b000, 0b100, 0b110]);
        let plan = SendPlan::from_nested(&[vec![1, 2], vec![], vec![]]);
        let t = schedule(
            Cube::of(3),
            Resolution::HighToLow,
            NodeId(0),
            &chain,
            &plan,
            PortModel::AllPort,
        );
        let by_dst: std::collections::HashMap<_, _> =
            t.unicasts.iter().map(|u| (u.dst, u.step)).collect();
        assert_eq!(by_dst[&NodeId(0b100)], 1);
        assert_eq!(by_dst[&NodeId(0b110)], 2);
    }

    #[test]
    fn forwarding_starts_after_receipt() {
        // 0 → 4 (step 1); 4 → 6 must be step ≥ 2.
        let chain = ids(&[0b000, 0b100, 0b110]);
        let plan = SendPlan::from_nested(&[vec![1], vec![2], vec![]]);
        let t = schedule(
            Cube::of(3),
            Resolution::HighToLow,
            NodeId(0),
            &chain,
            &plan,
            PortModel::AllPort,
        );
        let by_dst: std::collections::HashMap<_, _> =
            t.unicasts.iter().map(|u| (u.dst, u.step)).collect();
        assert_eq!(by_dst[&NodeId(0b100)], 1);
        assert_eq!(by_dst[&NodeId(0b110)], 2);
    }

    #[test]
    fn kport_caps_transmissions_per_step() {
        // Source sends to all 4 neighbors in a 4-cube: all-port = 1 step,
        // 2-port = 2 steps, 1-port = 4 steps.
        let chain = ids(&[0b0000, 0b0001, 0b0010, 0b0100, 0b1000]);
        let plan = SendPlan::from_nested(&[vec![1, 2, 3, 4], vec![], vec![], vec![], vec![]]);
        let steps = |port: PortModel| {
            schedule(
                Cube::of(4),
                Resolution::HighToLow,
                NodeId(0),
                &chain,
                &plan,
                port,
            )
            .steps
        };
        assert_eq!(steps(PortModel::AllPort), 1);
        assert_eq!(steps(PortModel::KPort(2)), 2);
        assert_eq!(steps(PortModel::KPort(1)), 4);
        assert_eq!(steps(PortModel::OnePort), 4);
        assert_eq!(steps(PortModel::KPort(4)), 1);
        // k beyond n clamps to n.
        assert_eq!(steps(PortModel::KPort(9)), 1);
    }

    #[test]
    fn kport_still_serializes_same_channel_sends() {
        // Two sends on the same first channel can't share a step even
        // with spare port capacity.
        let chain = ids(&[0b000, 0b100, 0b110]);
        let plan = SendPlan::from_nested(&[vec![1, 2], vec![], vec![]]);
        let t = schedule(
            Cube::of(3),
            Resolution::HighToLow,
            NodeId(0),
            &chain,
            &plan,
            PortModel::KPort(3),
        );
        assert_eq!(t.steps, 2);
    }

    #[test]
    fn relative_chain_maps_back_to_physical_addresses() {
        // Source 0b101: chain element 0b011 is physical 0b110.
        let chain = ids(&[0b000, 0b011]);
        let plan = SendPlan::from_nested(&[vec![1], vec![]]);
        let t = schedule(
            Cube::of(3),
            Resolution::HighToLow,
            NodeId(0b101),
            &chain,
            &plan,
            PortModel::AllPort,
        );
        assert_eq!(t.unicasts[0].src, NodeId(0b101));
        assert_eq!(t.unicasts[0].dst, NodeId(0b110));
    }

    #[test]
    fn low_to_high_resolution_maps_through_bit_reversal() {
        // Canonical-relative element 0b001 under LowToHigh in a 3-cube is
        // physical source ⊕ reverse(0b001) = source ⊕ 0b100.
        let chain = ids(&[0b000, 0b001]);
        let plan = SendPlan::from_nested(&[vec![1], vec![]]);
        let t = schedule(
            Cube::of(3),
            Resolution::LowToHigh,
            NodeId(0b010),
            &chain,
            &plan,
            PortModel::AllPort,
        );
        assert_eq!(t.unicasts[0].dst, NodeId(0b110));
    }

    /// The visit-local scheduler equals the `HashMap` reference on every
    /// algorithm's plan, under every port model and resolution.
    mod oracle {
        use super::super::*;
        use crate::algorithms::Algorithm;
        use proptest::prelude::*;

        /// A random instance: dimension 1..=10, source, and a destination
        /// set that is a single node, the broadcast (m = 2ⁿ − 1), or a
        /// random set of any size.
        fn instance() -> impl Strategy<Value = (u8, u32, Vec<u32>)> {
            (1u8..=10).prop_flat_map(|n| {
                let nodes = 1u32 << n;
                (
                    Just(n),
                    0..nodes,
                    0u8..4,
                    prop::collection::btree_set(0..nodes, 1..=nodes as usize),
                )
                    .prop_map(|(n, src, shape, set)| {
                        let mut dests: Vec<u32> = if shape == 0 {
                            (0..1 << n).filter(|&v| v != src).collect()
                        } else {
                            set.into_iter().filter(|&v| v != src).collect()
                        };
                        if shape == 1 {
                            dests.truncate(1);
                        }
                        (n, src, dests)
                    })
            })
        }

        proptest! {
            #[test]
            fn schedule_matches_reference((n, src, dests) in instance()) {
                let cube = Cube::of(n);
                let dests: Vec<NodeId> = dests.into_iter().map(NodeId).collect();
                let ports = [PortModel::OnePort, PortModel::AllPort]
                    .into_iter()
                    .chain((1..=n + 1).map(PortModel::KPort));
                for port in ports {
                    for res in [Resolution::HighToLow, Resolution::LowToHigh] {
                        for algo in Algorithm::ALL {
                            let built = algo.build(cube, res, port, NodeId(src), &dests).unwrap();
                            let (chain, plan) = algo.plan(res, NodeId(src), &dests, n).unwrap();
                            let reference = schedule_reference(
                                cube, res, NodeId(src), &chain, &plan.nested(chain.len()), port,
                            );
                            prop_assert_eq!(&built.unicasts, &reference.unicasts, "{} {:?} {:?}", algo, port, res);
                            prop_assert_eq!(built.steps, reference.steps);
                        }
                    }
                }
            }
        }
    }
}
