//! Property tests tying the simulator to the paper's theory: schedules
//! proved contention-free must never block a channel in the physical
//! model, and the timing model must respect basic monotonicity.

use hcube::{Cube, Ecube, NodeId, Resolution, Topology};
use hypercast::{Algorithm, PortModel};
use proptest::prelude::*;
use wormsim::{simulate_multicast, DepMessage, Run, RunResult, SimParams, SimTime};

/// A fault-free, unobserved run of a well-formed workload on `cube`.
fn replay(cube: Cube, params: &SimParams, workload: &[DepMessage]) -> RunResult {
    let router = Ecube::new(cube, Resolution::HighToLow);
    Run::new(router, params, workload).run().unwrap()
}

fn instance() -> impl Strategy<Value = (u8, u32, Vec<u32>)> {
    (3u8..=7).prop_flat_map(|n| {
        let m = 1u32 << n;
        (
            Just(n),
            0..m,
            prop::collection::btree_set(0..m, 1..=(m as usize - 1).min(30)),
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
    port: PortModel,
    src: u32,
    dests: &[u32],
) -> hypercast::MulticastTree {
    let dests: Vec<NodeId> = dests.iter().copied().map(NodeId).collect();
    algo.build(
        Cube::of(n),
        Resolution::HighToLow,
        port,
        NodeId(src),
        &dests,
    )
    .unwrap()
}

proptest! {
    /// Theorem 6 made physical: W-sort (and Maxport, separate addressing,
    /// the dimensional tree) never block an external channel, for any
    /// destination set, message size, or port model.
    #[test]
    fn contention_free_schedules_never_block((n, src, dests) in instance(),
                                             bytes in 1u32..16384,
                                             allport in any::<bool>()) {
        prop_assume!(!dests.is_empty());
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        let params = SimParams::ncube2(port);
        for algo in Algorithm::ALL {
            let guaranteed = match port {
                PortModel::AllPort => algo.contention_free_all_port(),
                PortModel::OnePort => true, // all are contention-free one-port
                PortModel::KPort(_) => false, // not exercised here
            };
            if !guaranteed {
                continue;
            }
            let tree = build(algo, n, port, src, &dests);
            let report = simulate_multicast(&tree, &params, bytes);
            prop_assert_eq!(
                report.blocks, 0,
                "{} {:?} blocked {} times", algo, port, report.blocks
            );
        }
    }

    /// Every destination's delay is at least the unblocked unicast latency
    /// for its distance, and max ≥ avg.
    #[test]
    fn delays_respect_unicast_floor((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        let params = SimParams::ncube2(PortModel::AllPort);
        let tree = build(Algorithm::WSort, n, PortModel::AllPort, src, &dests);
        let report = simulate_multicast(&tree, &params, 4096);
        prop_assert!(report.max_delay >= report.avg_delay);
        for &(dst, t) in &report.deliveries {
            let hops = NodeId(src).distance(dst);
            // The actual route may go through intermediates, but delay is
            // floored by a direct unicast of at least one hop.
            prop_assert!(t >= params.unicast_latency(hops.min(1), 4096));
        }
    }

    /// Larger payloads never arrive earlier.
    #[test]
    fn delay_monotone_in_message_size((n, src, dests) in instance(),
                                      small in 1u32..2048) {
        prop_assume!(!dests.is_empty());
        let params = SimParams::ncube2(PortModel::AllPort);
        let tree = build(Algorithm::Combine, n, PortModel::AllPort, src, &dests);
        let a = simulate_multicast(&tree, &params, small);
        let b = simulate_multicast(&tree, &params, small * 2);
        prop_assert!(b.max_delay >= a.max_delay);
        prop_assert!(b.avg_delay >= a.avg_delay);
    }

    /// One-port execution of the same tree is never faster than all-port
    /// (for contention-free trees, where FIFO ordering can't flip).
    #[test]
    fn one_port_never_faster((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        let tree = build(Algorithm::WSort, n, PortModel::AllPort, src, &dests);
        let all = simulate_multicast(&tree, &SimParams::ncube2(PortModel::AllPort), 4096);
        let one = simulate_multicast(&tree, &SimParams::ncube2(PortModel::OnePort), 4096);
        prop_assert!(one.max_delay >= all.max_delay);
        prop_assert!(one.avg_delay >= all.avg_delay);
    }

    /// The simulation is a pure function of its inputs.
    #[test]
    fn deterministic((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        let params = SimParams::ncube2(PortModel::AllPort);
        let tree = build(Algorithm::UCube, n, PortModel::AllPort, src, &dests);
        let a = simulate_multicast(&tree, &params, 4096);
        let b = simulate_multicast(&tree, &params, 4096);
        prop_assert_eq!(a.deliveries, b.deliveries);
        prop_assert_eq!(a.blocks, b.blocks);
    }

    /// Dateline virtual channels make dimension-ordered torus routing
    /// deadlock-free: any random unicast workload — including dense
    /// wrap-heavy patterns — must complete with every message delivered,
    /// never tripping the engine's deadlock watchdog.
    #[test]
    fn torus_random_workloads_never_deadlock(
        (k, n) in (2u16..=5, 1u8..=3),
        raw in prop::collection::vec((0u32..1000, 0u32..1000, 64u32..4096), 1..40),
        allport in any::<bool>()
    ) {
        let torus = hcube::Torus::of(k, n);
        let router = hcube::TorusRouter::new(torus);
        let nodes = torus.node_count() as u32;
        let workload: Vec<DepMessage> = raw.iter().map(|&(s, d, bytes)| {
            let src = NodeId(s % nodes);
            let mut dst = NodeId(d % nodes);
            if dst == src {
                dst = NodeId((dst.0 + 1) % nodes);
            }
            DepMessage { src, dst, bytes, deps: vec![], min_start: SimTime::ZERO }
        }).collect();
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        let run = Run::new(router, &SimParams::ncube2(port), &workload).run()
            .expect("dateline VCs must prevent deadlock");
        prop_assert_eq!(run.delivered_count(), workload.len());
        for (m, r) in workload.iter().zip(&run.messages) {
            // No delivery beats the unblocked latency for its distance.
            let hops = torus.distance(m.src, m.dst);
            prop_assert!(
                r.delivered >= SimParams::ncube2(port).unicast_latency(hops, m.bytes)
            );
        }
    }

    /// U-cube's schedule steps upper-bound the simulated makespan: with
    /// nCUBE-2 parameters each step costs at most one send-startup +
    /// transfer + receive, plus per-hop terms; the self-timed execution
    /// cannot exceed steps × (that envelope) when contention-free.
    #[test]
    fn makespan_bounded_by_step_envelope((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty());
        let params = SimParams::ncube2(PortModel::OnePort);
        let tree = build(Algorithm::UCube, n, PortModel::OnePort, src, &dests);
        let report = simulate_multicast(&tree, &params, 4096);
        // Envelope per step on one-port: every node sends at most
        // (its sends) serially, but across the whole tree a step costs at
        // most the full unicast latency of the slowest send plus the CPU
        // serialization of earlier sends in the same node.
        let per_step = params.unicast_latency(u32::from(n), 4096)
            + params.t_send_sw * u64::from(n);
        prop_assert!(
            report.max_delay <= per_step * u64::from(tree.steps.max(1)),
            "max {} > {} × {}", report.max_delay, tree.steps, per_step
        );
    }
}

/// One raw random message: (src, dst, bytes, dep indices, start µs).
type RawMessage = (u32, u32, u32, Vec<usize>, u64);

/// Random acyclic dependency workloads: arbitrary senders/receivers,
/// arbitrary payloads, dependencies only on earlier messages (acyclic by
/// construction).
fn random_workload() -> impl Strategy<Value = (u8, Vec<RawMessage>)> {
    (2u8..=6).prop_flat_map(|n| {
        let nodes = 1u32 << n;
        let raw = prop::collection::vec(
            (
                0..nodes,
                0..nodes,
                1u32..8192,
                prop::collection::vec(0usize..64, 0..3),
                0u64..1000,
            ),
            1..24,
        );
        (Just(n), raw)
    })
}

proptest! {
    /// Engine fuzz: every well-formed workload completes, with delivery
    /// times after injection, blocked time consistent, and determinism.
    #[test]
    fn engine_handles_arbitrary_acyclic_workloads(
        (n, raw) in random_workload(),
        allport in any::<bool>()
    ) {
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        let params = SimParams::ncube2(port);
        let cube = Cube::of(n);
        let workload: Vec<DepMessage> = raw
            .iter()
            .enumerate()
            .map(|(i, (src, dst, bytes, deps, start_us))| {
                let src = NodeId(*src);
                let mut dst = NodeId(*dst);
                if dst == src {
                    dst = NodeId(dst.0 ^ 1); // avoid self-sends
                }
                DepMessage {
                    src,
                    dst,
                    bytes: *bytes,
                    // Dependencies point strictly backwards: acyclic.
                    deps: deps.iter().filter(|&&d| d < i).map(|&d| d % i.max(1)).collect(),
                    min_start: SimTime::from_us(*start_us),
                }
            })
            .collect();
        let run = replay(cube, &params, &workload);
        prop_assert_eq!(run.messages.len(), workload.len());
        for (m, r) in workload.iter().zip(&run.messages) {
            // Injection respects min_start and the send software cost.
            prop_assert!(r.injected >= m.min_start + params.t_send_sw);
            // Network time covers hops and drain.
            let floor = params.t_hop * u64::from(m.src.distance(m.dst))
                + params.t_byte * u64::from(m.bytes);
            prop_assert!(r.network_done >= r.injected + floor);
            prop_assert_eq!(r.delivered, r.network_done + params.t_recv_sw);
            // Dependencies delivered before this message was injected.
            for &d in &m.deps {
                prop_assert!(run.messages[d].delivered + params.t_send_sw <= r.injected);
            }
        }
        // Makespan is the max delivery.
        let max = run.messages.iter().map(|r| r.delivered).max().unwrap();
        prop_assert_eq!(run.stats.makespan, max);
        // Determinism.
        let again = replay(cube, &params, &workload);
        prop_assert_eq!(run.messages, again.messages);
    }

    /// Concurrent multicasts: total blocking is zero when the trees'
    /// sources live in disjoint half-cubes with their destinations.
    #[test]
    fn concurrent_half_cube_multicasts_are_independent(
        n in 3u8..=7,
        lo_set in prop::collection::btree_set(1u32..64, 1..10),
        hi_set in prop::collection::btree_set(1u32..64, 1..10),
    ) {
        let cube = Cube::of(n);
        let half = cube.node_count() as u32 / 2;
        let lo: Vec<NodeId> = lo_set.iter().map(|&v| NodeId(v % half)).filter(|&v| v != NodeId(0))
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        let hi: Vec<NodeId> = hi_set.iter().map(|&v| NodeId(half + v % half))
            .filter(|&v| v != NodeId(half))
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        prop_assume!(!lo.is_empty() && !hi.is_empty());
        let params = SimParams::ncube2(PortModel::AllPort);
        let t_lo = Algorithm::WSort
            .build(cube, Resolution::HighToLow, PortModel::AllPort, NodeId(0), &lo)
            .unwrap();
        let t_hi = Algorithm::WSort
            .build(cube, Resolution::HighToLow, PortModel::AllPort, NodeId(half), &hi)
            .unwrap();
        let reports = wormsim::simulate_concurrent_multicasts(&[&t_lo, &t_hi], &params, 2048);
        // Theorem 2 (inside/outside subcube separation) made physical:
        // paths within each half never meet.
        prop_assert_eq!(reports.trees[0].blocks + reports.trees[1].blocks, 0);
        prop_assert_eq!(reports.stats.blocks, 0);
        let solo_lo = simulate_multicast(&t_lo, &params, 2048);
        prop_assert_eq!(&reports.trees[0].deliveries, &solo_lo.deliveries);
    }
}

proptest! {
    /// Cross-model validation: on contention-free trees the flit-level
    /// engine and the channel-holding event engine agree exactly (modulo
    /// the +1 calibration constant) for every constituent unicast.
    #[test]
    fn flit_and_event_models_agree_when_contention_free((n, src, dests) in instance()) {
        prop_assume!(!dests.is_empty() && dests.len() <= 20);
        let cube = Cube::of(n);
        let tree = build(Algorithm::WSort, n, PortModel::AllPort, src, &dests);
        let cycle_params = SimParams {
            t_send_sw: SimTime::ZERO,
            t_recv_sw: SimTime::ZERO,
            t_hop: SimTime::from_ns(1),
            t_byte: SimTime::from_ns(1),
            port_model: PortModel::AllPort,
            cpu_serialized_startup: false,
        };
        let mut inbound = std::collections::HashMap::new();
        for (i, u) in tree.unicasts.iter().enumerate() {
            inbound.insert(u.dst, i);
        }
        let event_w: Vec<DepMessage> = tree.unicasts.iter().map(|u| DepMessage {
            src: u.src, dst: u.dst, bytes: 16,
            deps: inbound.get(&u.src).map(|&i| vec![i]).unwrap_or_default(),
            min_start: SimTime::ZERO,
        }).collect();
        let er = replay(cube, &cycle_params, &event_w);
        let flit_w: Vec<wormsim::FlitMessage> = tree.unicasts.iter().map(|u| {
            let start = inbound.get(&u.src).map(|&i| er.messages[i].delivered.as_ns()).unwrap_or(0);
            wormsim::FlitMessage { src: u.src, dst: u.dst, flits: 16, start_cycle: start }
        }).collect();
        let fr = wormsim::simulate_flits(Ecube::new(cube, Resolution::HighToLow), &flit_w);
        for (i, (f, e)) in fr.iter().zip(&er.messages).enumerate() {
            prop_assert_eq!(f.blocked_cycles, 0, "msg {} blocked", i);
            let start = flit_w[i].start_cycle;
            prop_assert_eq!(
                f.delivered_cycle - start + 1,
                e.delivered.as_ns() - start,
                "msg {}", i
            );
        }
    }

    /// Under contention the event model is conservative: no message
    /// finishes later in the flit model than the event model predicts
    /// (same-time injection, shared channels, FIFO in both).
    #[test]
    fn event_model_is_conservative_under_contention(
        n in 3u8..=5,
        pairs in prop::collection::vec((0u32..32, 0u32..32), 2..6),
        flits in 4u32..64,
    ) {
        let cube = Cube::of(n);
        let nodes = 1u32 << n;
        let w: Vec<(NodeId, NodeId)> = pairs.iter()
            .map(|&(s, d)| {
                let s = NodeId(s % nodes);
                let mut d = NodeId(d % nodes);
                if d == s { d = NodeId(d.0 ^ 1); }
                (s, d)
            })
            .collect();
        let cycle_params = SimParams {
            t_send_sw: SimTime::ZERO,
            t_recv_sw: SimTime::ZERO,
            t_hop: SimTime::from_ns(1),
            t_byte: SimTime::from_ns(1),
            port_model: PortModel::AllPort,
            cpu_serialized_startup: false,
        };
        let event_w: Vec<DepMessage> = w.iter().map(|&(s, d)| DepMessage {
            src: s, dst: d, bytes: flits, deps: vec![], min_start: SimTime::ZERO,
        }).collect();
        let flit_w: Vec<wormsim::FlitMessage> = w.iter().map(|&(s, d)| wormsim::FlitMessage {
            src: s, dst: d, flits, start_cycle: 0,
        }).collect();
        let er = replay(cube, &cycle_params, &event_w);
        let fr = wormsim::simulate_flits(Ecube::new(cube, Resolution::HighToLow), &flit_w);
        let event_makespan = er.messages.iter().map(|m| m.delivered.as_ns()).max().unwrap();
        let flit_makespan = fr.iter().map(|f| f.delivered_cycle).max().unwrap();
        prop_assert!(
            flit_makespan < event_makespan + u64::from(flits),
            "flit {} vs event {}", flit_makespan, event_makespan
        );
    }
}
