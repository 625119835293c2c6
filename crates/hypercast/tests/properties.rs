//! Property-based tests holding every algorithm to the paper's claims on
//! randomized instances.

use hcube::{Cube, NodeId, Resolution};
use hypercast::bounds::{all_port_lower_bound, one_port_lower_bound};
use hypercast::collectives::{barrier, chunked_multicast, gather, reduce, scatter};
use hypercast::contention::is_contention_free;
use hypercast::oracle::verify_collective;
use hypercast::verify::{validate, ValidateOptions};
use hypercast::{Algorithm, PortModel};
use proptest::prelude::*;

/// A random multicast instance: cube dimension, source, destination set.
fn instance() -> impl Strategy<Value = (u8, u32, Vec<u32>)> {
    (2u8..=8).prop_flat_map(|n| {
        let m = 1u32 << n;
        (
            Just(n),
            0..m,
            prop::collection::btree_set(0..m, 1..=(m as usize - 1).min(40)),
        )
            .prop_map(|(n, src, set)| {
                let dests: Vec<u32> = set.into_iter().filter(|&d| d != src).collect();
                (n, src, dests)
            })
    })
}

fn build(
    algo: Algorithm,
    n: u8,
    res: Resolution,
    port: PortModel,
    src: u32,
    dests: &[u32],
) -> hypercast::MulticastTree {
    let dests: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
    algo.build(Cube::of(n), res, port, NodeId(src), &dests)
        .unwrap()
}

proptest! {
    /// Every algorithm produces a structurally valid tree under both port
    /// models and both resolution orders.
    #[test]
    fn trees_are_structurally_valid((n, src, dests) in instance(),
                                    lowhigh in any::<bool>(),
                                    allport in any::<bool>()) {
        prop_assume!(!dests.is_empty());
        let res = if lowhigh { Resolution::LowToHigh } else { Resolution::HighToLow };
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        for algo in Algorithm::ALL {
            let t = build(algo, n, res, port, src, &dests);
            let dest_ids: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
            let violations = validate(
                &t,
                &dest_ids,
                ValidateOptions { port_model: port, forbid_relays: !algo.uses_relays() },
            );
            prop_assert!(
                violations.is_empty(),
                "{algo} {res:?} {port:?}: {violations:?}\n{}",
                t.render()
            );
        }
    }

    /// Theorem 6 and the subcube-separation argument: Maxport, W-sort and
    /// the baselines are contention-free under all-port scheduling.
    #[test]
    fn guaranteed_algorithms_are_contention_free((n, src, dests) in instance(),
                                                 lowhigh in any::<bool>()) {
        prop_assume!(!dests.is_empty());
        let res = if lowhigh { Resolution::LowToHigh } else { Resolution::HighToLow };
        for algo in Algorithm::ALL {
            if !algo.contention_free_all_port() {
                continue;
            }
            let t = build(algo, n, res, PortModel::AllPort, src, &dests);
            prop_assert!(
                is_contention_free(&t),
                "{algo} {res:?} contended:\n{}",
                t.render()
            );
        }
    }

    /// U-cube is contention-free on one-port systems (the [9] guarantee),
    /// as are all the others under one-port serialization.
    #[test]
    fn one_port_schedules_are_contention_free((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        for algo in Algorithm::ALL {
            let t = build(algo, n, Resolution::HighToLow, PortModel::OnePort, src, &dests);
            prop_assert!(
                is_contention_free(&t),
                "{algo} one-port contended:\n{}",
                t.render()
            );
        }
    }

    /// U-cube achieves exactly ⌈log₂(m+1)⌉ steps on one-port — the tight
    /// optimum claimed by the paper.
    #[test]
    fn ucube_one_port_is_optimal((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        let t = build(Algorithm::UCube, n, Resolution::HighToLow, PortModel::OnePort, src, &dests);
        prop_assert_eq!(t.steps, one_port_lower_bound(dests.len()));
    }

    /// No algorithm beats the capacity lower bounds.
    #[test]
    fn steps_respect_lower_bounds((n, src, dests) in instance(), allport in any::<bool>()) {
        prop_assume!(!dests.is_empty());
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        let bound = match port {
            PortModel::OnePort => one_port_lower_bound(dests.len()),
            PortModel::AllPort => all_port_lower_bound(n, dests.len()),
            PortModel::KPort(_) => unreachable!("not generated here"),
        };
        for algo in Algorithm::ALL {
            let t = build(algo, n, Resolution::HighToLow, port, src, &dests);
            prop_assert!(
                t.steps >= bound,
                "{algo} {port:?} claims {} steps < bound {bound}",
                t.steps
            );
        }
    }

    /// All-port never does worse than one-port for the same algorithm.
    #[test]
    fn all_port_never_slower((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        for algo in Algorithm::ALL {
            let one = build(algo, n, Resolution::HighToLow, PortModel::OnePort, src, &dests);
            let all = build(algo, n, Resolution::HighToLow, PortModel::AllPort, src, &dests);
            prop_assert!(all.steps <= one.steps, "{algo}");
        }
    }

    /// Resolution-order conjugation: running with low-to-high resolution
    /// is identical (step-for-step) to running with high-to-low on the
    /// bit-reversed instance — the formal version of the paper's remark
    /// that the nCUBE-2's opposite resolution order affects nothing.
    #[test]
    fn resolution_orders_are_conjugate((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        let rev = |v: u32| NodeId(v).bit_reverse(n).0;
        let rev_src = rev(src);
        let rev_dests: Vec<u32> = dests.iter().map(|&d| rev(d)).collect();
        for algo in Algorithm::ALL {
            for port in [PortModel::OnePort, PortModel::AllPort] {
                let a = build(algo, n, Resolution::LowToHigh, port, src, &dests);
                let b = build(algo, n, Resolution::HighToLow, port, rev_src, &rev_dests);
                prop_assert_eq!(a.steps, b.steps, "{} {:?}", algo, port);
                prop_assert_eq!(a.message_count(), b.message_count(), "{} {:?}", algo, port);
                // Unicast-for-unicast: b's unicasts are the bit-reversed
                // images of a's.
                let mut ea: Vec<(u32, u32, u32)> =
                    a.unicasts.iter().map(|u| (rev(u.src.0), rev(u.dst.0), u.step)).collect();
                let mut eb: Vec<(u32, u32, u32)> =
                    b.unicasts.iter().map(|u| (u.src.0, u.dst.0, u.step)).collect();
                ea.sort_unstable();
                eb.sort_unstable();
                prop_assert_eq!(ea, eb, "{} {:?}", algo, port);
            }
        }
    }

    /// The wormhole algorithms use exactly m unicasts (one delivery per
    /// destination, no relays); the store-and-forward baseline uses at
    /// least that many.
    #[test]
    fn message_counts((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        for algo in Algorithm::ALL {
            let t = build(algo, n, Resolution::HighToLow, PortModel::AllPort, src, &dests);
            if algo.uses_relays() {
                prop_assert!(t.message_count() >= dests.len());
            } else {
                prop_assert_eq!(t.message_count(), dests.len(), "{}", algo);
            }
        }
    }

    /// k-port interpolates between one-port and all-port: steps are
    /// non-increasing in k, KPort(n) matches AllPort, and every k-port
    /// schedule passes structural validation.
    #[test]
    fn kport_interpolates((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        for algo in [Algorithm::UCube, Algorithm::WSort] {
            let mut prev = u32::MAX;
            for k in 1..=n {
                let t = build(algo, n, Resolution::HighToLow, PortModel::KPort(k), src, &dests);
                let dest_ids: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
                let v = validate(
                    &t,
                    &dest_ids,
                    ValidateOptions {
                        port_model: PortModel::KPort(k),
                        forbid_relays: true,
                    },
                );
                prop_assert!(v.is_empty(), "{algo} k={k}: {v:?}");
                prop_assert!(t.steps <= prev, "{algo}: steps not monotone in k");
                prev = t.steps;
            }
            let full = build(algo, n, Resolution::HighToLow, PortModel::KPort(n), src, &dests);
            let all = build(algo, n, Resolution::HighToLow, PortModel::AllPort, src, &dests);
            prop_assert_eq!(full.steps, all.steps, "{}", algo);
        }
    }

    /// Reductions built on any tree are causal, and are the exact
    /// step-mirror of their multicast: every tree edge appears reversed
    /// at step `steps + 1 − t`, and every op waits for every op into its
    /// sender, under every algorithm, resolution order, and port model.
    #[test]
    fn reductions_are_causal_step_mirrors((n, src, dests) in instance(),
                                          lowhigh in any::<bool>(),
                                          allport in any::<bool>()) {
        prop_assume!(!dests.is_empty());
        let res = if lowhigh { Resolution::LowToHigh } else { Resolution::HighToLow };
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        for algo in Algorithm::ALL {
            let t = build(algo, n, res, port, src, &dests);
            let r = reduce(&t, 64).unwrap();
            for (i, up) in r.ops.iter().enumerate() {
                for (j, down) in r.ops.iter().enumerate() {
                    if down.dst == up.src {
                        prop_assert!(down.step < up.step, "{algo} {res:?} {port:?}: op {i}");
                        prop_assert!(up.deps.contains(&j), "{algo} {res:?} {port:?}: op {i}");
                    }
                }
            }
            prop_assert_eq!(r.root, t.source, "{} {:?}", algo, res);
            prop_assert_eq!(r.steps, t.steps, "{} {:?}", algo, res);
            let mut mirrored: Vec<(u32, u32, u32)> = t
                .unicasts
                .iter()
                .map(|u| (u.dst.0, u.src.0, t.steps + 1 - u.step))
                .collect();
            let mut reduced: Vec<(u32, u32, u32)> =
                r.ops.iter().map(|op| (op.src.0, op.dst.0, op.step)).collect();
            mirrored.sort_unstable();
            reduced.sort_unstable();
            prop_assert_eq!(mirrored, reduced, "{} {:?} {:?}", algo, res, port);
        }
    }

    /// The data oracle certifies every operation built on a random tree:
    /// reduction, barrier, scatter and gather on every algorithm's tree,
    /// and the chunked multicast in 1 to 8 chunks. Each destination ends
    /// with exactly its data, every op waits for what it forwards, and
    /// every op's bytes match the segments it carries.
    #[test]
    fn every_operation_on_a_tree_passes_the_data_oracle((n, src, dests) in instance(),
                                                        lowhigh in any::<bool>(),
                                                        chunks in 1u32..=8) {
        prop_assume!(!dests.is_empty());
        let res = if lowhigh { Resolution::LowToHigh } else { Resolution::HighToLow };
        for algo in Algorithm::ALL {
            let t = build(algo, n, res, PortModel::AllPort, src, &dests);
            for sched in [
                reduce(&t, 64),
                barrier(&t, 16),
                scatter(&t, 512),
                gather(&t, 512),
                chunked_multicast(&t, 4096, chunks),
            ] {
                let sched = sched.unwrap();
                let verdict = verify_collective(&sched);
                prop_assert!(verdict.is_ok(), "{algo} {res:?} {}: {verdict:?}", sched.kind.name());
            }
        }
    }

    /// The exact port-limited optimum lies between the capacity bound and
    /// every heuristic's step count (small instances only).
    #[test]
    fn exact_optimum_brackets((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty() && dests.len() <= 6 && n <= 6);
        let cube = Cube::of(n);
        let dest_ids: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
        for port in [PortModel::OnePort, PortModel::AllPort] {
            let exact = hypercast::bounds::min_steps_port_limited(
                cube,
                Resolution::HighToLow,
                port,
                NodeId(src),
                &dest_ids,
            )
            .unwrap();
            let cap = match port {
                PortModel::OnePort => one_port_lower_bound(dests.len()),
                PortModel::AllPort => all_port_lower_bound(n, dests.len()),
                PortModel::KPort(_) => unreachable!("not generated here"),
            };
            prop_assert!(exact >= cap);
            for algo in Algorithm::PAPER {
                let t = build(algo, n, Resolution::HighToLow, port, src, &dests);
                prop_assert!(t.steps >= exact, "{algo} {port:?} beat the optimum");
            }
        }
    }
}

/// Statistical claim (the paper's headline): averaged over random sets,
/// the all-port-aware algorithms need no more steps than U-cube, and
/// W-sort is at least as good as Maxport on average.
#[test]
fn average_step_ordering_on_random_sets() {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5C93);
    let n = 6u8;
    let cube = Cube::of(n);
    let mut totals = std::collections::HashMap::new();
    let trials = 300;
    for _ in 0..trials {
        let m = rng.gen_range(1..=40usize);
        let mut pool: Vec<u32> = (1..cube.node_count() as u32).collect();
        pool.shuffle(&mut rng);
        let dests: Vec<NodeId> = pool[..m].iter().map(|&v| NodeId(v)).collect();
        for algo in Algorithm::PAPER {
            let t = algo
                .build(
                    cube,
                    Resolution::HighToLow,
                    PortModel::AllPort,
                    NodeId(0),
                    &dests,
                )
                .unwrap();
            *totals.entry(algo).or_insert(0u64) += u64::from(t.steps);
        }
    }
    let avg = |a: Algorithm| totals[&a] as f64 / f64::from(trials);
    assert!(avg(Algorithm::WSort) <= avg(Algorithm::Maxport) + 1e-9);
    assert!(avg(Algorithm::WSort) < avg(Algorithm::UCube));
    assert!(avg(Algorithm::Combine) < avg(Algorithm::UCube));
    assert!(avg(Algorithm::Maxport) < avg(Algorithm::UCube));
}
