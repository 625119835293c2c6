//! Property-based tests of the fault-tolerance machinery: on randomized
//! instances with randomized fault sets, repaired trees never traverse a
//! dead channel, stay structurally valid, and never silently lose a live
//! destination.

use hcube::{Cube, Dim, NodeId, Resolution};
use hypercast::repair::{broken_unicasts, path_is_clean, repair, NetworkFaults};
use hypercast::verify::{validate, ValidateOptions};
use hypercast::{Algorithm, PortModel};
use proptest::prelude::*;

/// A random faulty multicast instance: cube dimension, source,
/// destination set, dead directed-link indices, dead nodes.
#[allow(clippy::type_complexity)]
fn faulty_instance() -> impl Strategy<Value = (u8, u32, Vec<u32>, Vec<u32>, Vec<u32>)> {
    (3u8..=7).prop_flat_map(|n| {
        let m = 1u32 << n;
        let links = m * u32::from(n);
        (
            Just(n),
            0..m,
            prop::collection::btree_set(0..m, 1..=(m as usize - 1).min(24)),
            prop::collection::btree_set(0..links, 0..=6),
            prop::collection::btree_set(0..m, 0..=2),
        )
            .prop_map(|(n, src, dset, lset, nset)| {
                let dests: Vec<u32> = dset.into_iter().filter(|&d| d != src).collect();
                (
                    n,
                    src,
                    dests,
                    lset.into_iter().collect(),
                    nset.into_iter().collect(),
                )
            })
    })
}

/// A *heavily* faulted instance: up to `3n` dead directed links and up
/// to 4 dead nodes at once, plus an algorithm selector — the combined
/// link+node churn an epoch of the traffic chaos layer can accumulate.
#[allow(clippy::type_complexity)]
fn heavy_combined_instance() -> impl Strategy<Value = (u8, u32, Vec<u32>, Vec<u32>, Vec<u32>, usize)>
{
    (4u8..=7).prop_flat_map(|n| {
        let m = 1u32 << n;
        let links = m * u32::from(n);
        (
            Just(n),
            0..m,
            prop::collection::btree_set(0..m, 1..=(m as usize - 1).min(24)),
            prop::collection::btree_set(0..links, 4..=(3 * n as usize)),
            prop::collection::btree_set(0..m, 1..=4),
            0..4usize,
        )
            .prop_map(|(n, src, dset, lset, nset, algo)| {
                let dests: Vec<u32> = dset.into_iter().filter(|&d| d != src).collect();
                (
                    n,
                    src,
                    dests,
                    lset.into_iter().collect(),
                    nset.into_iter().collect(),
                    algo,
                )
            })
    })
}

fn make_faults(n: u8, links: &[u32], nodes: &[u32]) -> NetworkFaults {
    let mut f = NetworkFaults::new();
    for &ix in links {
        f.fail_link(NodeId(ix / u32::from(n)), Dim((ix % u32::from(n)) as u8));
    }
    for &v in nodes {
        f.fail_node(NodeId(v));
    }
    f
}

proptest! {
    /// The repaired tree never schedules a unicast whose E-cube path
    /// crosses a dead channel or dead node.
    #[test]
    fn repaired_trees_never_traverse_a_dead_channel(
        (n, src, dests, links, nodes) in faulty_instance(),
        wsort in any::<bool>(),
    ) {
        prop_assume!(!dests.is_empty());
        let algo = if wsort { Algorithm::WSort } else { Algorithm::UCube };
        let dest_ids: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
        let tree = algo
            .build(Cube::of(n), Resolution::HighToLow, PortModel::AllPort, NodeId(src), &dest_ids)
            .unwrap();
        let faults = make_faults(n, &links, &nodes);
        let out = repair(&tree, &faults);
        for u in &out.tree.unicasts {
            prop_assert!(
                path_is_clean(out.tree.resolution, u.src, u.dst, &faults),
                "unicast {} -> {} crosses a fault", u.src, u.dst
            );
        }
        prop_assert!(broken_unicasts(&out.tree, &faults).is_empty());
    }

    /// The repaired tree stays valid per `hypercast::verify` (relays
    /// allowed) against the destinations it claims to deliver, and every
    /// live destination is either delivered or reported unreachable —
    /// never silently lost.
    #[test]
    fn repaired_trees_remain_valid_and_lose_nothing_silently(
        (n, src, dests, links, nodes) in faulty_instance(),
    ) {
        prop_assume!(!dests.is_empty());
        let dest_ids: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
        let tree = Algorithm::WSort
            .build(Cube::of(n), Resolution::HighToLow, PortModel::AllPort, NodeId(src), &dest_ids)
            .unwrap();
        let faults = make_faults(n, &links, &nodes);
        let out = repair(&tree, &faults);

        // Partition of the original destinations.
        let delivered: std::collections::HashSet<NodeId> =
            out.tree.receivers().into_iter().collect();
        for &d in &dest_ids {
            let dead = faults.node_dead(d);
            let dropped = out.dropped.contains(&d);
            let unreachable = out.unreachable.contains(&d);
            prop_assert_eq!(dead, dropped, "dropped iff dead: {}", d);
            prop_assert!(
                dead || delivered.contains(&d) || unreachable,
                "live destination {} silently lost", d
            );
            prop_assert!(
                !(delivered.contains(&d) && unreachable),
                "{} both delivered and unreachable", d
            );
        }

        // Structural validity against the claimed-delivered set.
        let claim: Vec<NodeId> = dest_ids
            .iter()
            .copied()
            .filter(|d| delivered.contains(d))
            .collect();
        let violations = validate(
            &out.tree,
            &claim,
            ValidateOptions { port_model: PortModel::AllPort, forbid_relays: false },
        );
        prop_assert!(violations.is_empty(), "repair violates tree contract: {:?}", violations);
    }

    /// Under heavy combined link+node fault plans, every paper algorithm's
    /// repaired tree partitions the destination set exactly: dead
    /// destinations are dropped, and each live destination is delivered
    /// clean of every fault or typed unreachable — never silently lost.
    #[test]
    fn heavy_combined_faults_partition_destinations_for_every_algorithm(
        (n, src, dests, links, nodes, algo_ix) in heavy_combined_instance(),
    ) {
        prop_assume!(!dests.is_empty());
        let algo = Algorithm::PAPER[algo_ix];
        let dest_ids: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
        let tree = algo
            .build(Cube::of(n), Resolution::HighToLow, PortModel::AllPort, NodeId(src), &dest_ids)
            .unwrap();
        let faults = make_faults(n, &links, &nodes);
        let out = repair(&tree, &faults);

        for u in &out.tree.unicasts {
            prop_assert!(
                path_is_clean(out.tree.resolution, u.src, u.dst, &faults),
                "{}: unicast {} -> {} crosses a fault", algo.name(), u.src, u.dst
            );
        }
        prop_assert!(broken_unicasts(&out.tree, &faults).is_empty());

        let delivered: std::collections::HashSet<NodeId> =
            out.tree.receivers().into_iter().collect();
        for &d in &dest_ids {
            let buckets = usize::from(faults.node_dead(d) && out.dropped.contains(&d))
                + usize::from(delivered.contains(&d))
                + usize::from(out.unreachable.contains(&d));
            prop_assert_eq!(
                buckets, 1,
                "{}: destination {} must land in exactly one bucket \
                 (dead-and-dropped / delivered / unreachable)", algo.name(), d
            );
        }
    }

    /// Repair is idempotent: repairing an already-repaired tree against
    /// the same combined fault plan changes nothing — the chaos retry
    /// path may rebuild through the cache any number of times within an
    /// epoch without the tree drifting.
    #[test]
    fn repair_is_idempotent_under_combined_faults(
        (n, src, dests, links, nodes, algo_ix) in heavy_combined_instance(),
    ) {
        prop_assume!(!dests.is_empty());
        let algo = Algorithm::PAPER[algo_ix];
        let dest_ids: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
        let tree = algo
            .build(Cube::of(n), Resolution::HighToLow, PortModel::AllPort, NodeId(src), &dest_ids)
            .unwrap();
        let faults = make_faults(n, &links, &nodes);
        let once = repair(&tree, &faults);
        let twice = repair(&once.tree, &faults);
        prop_assert_eq!(&twice.tree.unicasts, &once.tree.unicasts);
        prop_assert!(twice.rerouted.is_empty(), "second repair rerouted again");
        prop_assert!(twice.dropped.is_empty(), "second repair dropped again");
        prop_assert_eq!(twice.extra_steps, 0);
    }

    /// Repair on a healthy network is the identity.
    #[test]
    fn repair_without_faults_is_identity((n, src, dests, _l, _n2) in faulty_instance()) {
        prop_assume!(!dests.is_empty());
        let dest_ids: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
        let tree = Algorithm::WSort
            .build(Cube::of(n), Resolution::HighToLow, PortModel::AllPort, NodeId(src), &dest_ids)
            .unwrap();
        let out = repair(&tree, &NetworkFaults::new());
        prop_assert_eq!(&out.tree.unicasts, &tree.unicasts);
        prop_assert_eq!(out.extra_steps, 0);
        prop_assert!(out.rerouted.is_empty() && out.unreachable.is_empty());
    }
}
