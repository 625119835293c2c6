//! Differential test of the analytic tree replay against the event
//! engine: whenever `analytic_replay` accepts a tree, its report must
//! equal the engine's field by field — deliveries, delays, blocking and
//! every `NetStats` field. Separate addressing contends under all-port,
//! so the decline path is exercised too, and fixed cases pin two trees
//! that must decline.

use hcube::{Cube, Ecube, NodeId, Resolution};
use hypercast::{Algorithm, MulticastTree, PortModel};
use proptest::prelude::*;
use wormsim::{
    analytic_replay, multicast_workload, EngineScratch, Run, SimParams, SimReport, SimTime,
};

/// The engine's report for `tree`, computed without the analytic pass.
fn engine_report(tree: &MulticastTree, params: &SimParams, bytes: u32, lanes: u8) -> SimReport {
    let workload = multicast_workload(tree, bytes);
    let router = Ecube::with_lanes(tree.cube, tree.resolution, lanes);
    let run = Run::new(router, params, &workload).run().unwrap();
    let deliveries: Vec<(NodeId, SimTime)> = tree
        .unicasts
        .iter()
        .zip(&run.messages)
        .map(|(u, r)| (u.dst, r.delivered))
        .collect();
    let total: u64 = deliveries.iter().map(|&(_, t)| t.as_ns()).sum();
    SimReport {
        avg_delay: SimTime(total.checked_div(deliveries.len() as u64).unwrap_or(0)),
        max_delay: deliveries
            .iter()
            .map(|&(_, t)| t)
            .max()
            .unwrap_or(SimTime::ZERO),
        deliveries,
        blocks: run.stats.blocks,
        blocked_time: run.stats.blocked_time,
        stats: run.stats,
    }
}

fn assert_same(fast: &SimReport, engine: &SimReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(&fast.deliveries, &engine.deliveries);
    prop_assert_eq!(fast.avg_delay, engine.avg_delay);
    prop_assert_eq!(fast.max_delay, engine.max_delay);
    prop_assert_eq!(fast.blocks, engine.blocks);
    prop_assert_eq!(fast.blocked_time, engine.blocked_time);
    prop_assert_eq!(&fast.stats, &engine.stats);
    Ok(())
}

fn preset(i: usize, port: PortModel) -> SimParams {
    match i {
        0 => SimParams::ncube2(port),
        1 => SimParams::fast_net(port),
        _ => SimParams::ideal(port),
    }
}

/// `(n, source, destinations)`: up to 80 distinct destinations.
fn instance() -> impl Strategy<Value = (u8, u32, Vec<u32>)> {
    (1u8..=10).prop_flat_map(|n| {
        let nodes = 1u32 << n;
        (
            Just(n),
            0..nodes,
            prop::collection::btree_set(0..nodes, 1..=(nodes as usize - 1).min(80)),
        )
            .prop_map(|(n, src, set)| {
                let dests: Vec<u32> = set.into_iter().filter(|&d| d != src).collect();
                (n, src, dests)
            })
    })
}

proptest! {
    /// Every algorithm × port model × resolution × lanes × preset ×
    /// payload: an accepted analytic replay is the engine's report.
    #[test]
    fn analytic_replay_equals_the_engine_whenever_it_accepts(
        (n, src, dests) in instance(),
        allport in any::<bool>(),
        high_to_low in any::<bool>(),
        lanes in 1u8..=3,
        params in 0usize..3,
        bytes in 0usize..3,
    ) {
        let port = if allport { PortModel::AllPort } else { PortModel::OnePort };
        let res = if high_to_low { Resolution::HighToLow } else { Resolution::LowToHigh };
        let params = preset(params, port);
        let bytes = [0, 64, 4096][bytes];
        let dests: Vec<NodeId> = dests.into_iter().map(NodeId).collect();
        let mut scratch = EngineScratch::new();
        for algo in Algorithm::ALL {
            let tree = algo.build(Cube::of(n), res, port, NodeId(src), &dests).unwrap();
            if let Some(fast) = analytic_replay(&tree, &params, bytes, lanes, &mut scratch) {
                assert_same(&fast, &engine_report(&tree, &params, bytes, lanes))?;
            }
        }
        let a = scratch.analytic();
        prop_assert_eq!(a.accepted() + a.declined(), Algorithm::ALL.len() as u64);
    }
}

/// The 6-cube destination set on which all-port U-cube violates
/// Definition 4 (`tests/contention_regression.rs`): the engine blocks,
/// so the analytic pass must decline.
#[test]
fn ucube_contention_witness_declines() {
    let dests: Vec<NodeId> = [
        12, 13, 16, 17, 20, 21, 28, 29, 31, 34, 35, 39, 40, 41, 44, 45, 46, 54, 56, 57, 58, 62,
    ]
    .into_iter()
    .map(NodeId)
    .collect();
    let port = PortModel::AllPort;
    let tree = Algorithm::UCube
        .build(Cube::of(6), Resolution::HighToLow, port, NodeId(0), &dests)
        .unwrap();
    let params = SimParams::ncube2(port);
    assert!(engine_report(&tree, &params, 4096, 1).blocks > 0);
    let mut scratch = EngineScratch::new();
    assert!(analytic_replay(&tree, &params, 4096, 1, &mut scratch).is_none());
    assert_eq!(
        (scratch.analytic().accepted(), scratch.analytic().declined()),
        (0, 1)
    );
}

/// A tie under `ideal` parameters: one-port U-cube in a 3-cube sends
/// 0 → 3 and then 0 → 2, both leaving node 0 on dimension 1. The second
/// worm is handed the injection channel at the instant the first
/// drains, and requests the shared first external channel at that same
/// instant. The engine grants it without blocking, but the pass models
/// no hand-off past hop 0: a release and a request at one instant are
/// a tie, so it declines.
#[test]
fn ideal_params_tie_declines() {
    let port = PortModel::OnePort;
    let tree = Algorithm::UCube
        .build(
            Cube::of(3),
            Resolution::HighToLow,
            port,
            NodeId(0),
            &[NodeId(2), NodeId(3), NodeId(4)],
        )
        .unwrap();
    let params = SimParams::ideal(port);
    let engine = engine_report(&tree, &params, 64, 1);
    assert_eq!((engine.blocks, engine.stats.port_waits), (0, 1));
    let mut scratch = EngineScratch::new();
    assert!(analytic_replay(&tree, &params, 64, 1, &mut scratch).is_none());
}
