//! Deadlock freedom of the [`MinimalAdaptive`] mesh router under the
//! engine's adaptive lane selection — the lane tentpole's safety
//! property, tested the same way `torus_properties.rs` pins the
//! dateline argument.
//!
//! West-first routing forbids exactly the turns (`y± → x−`) that could
//! close a cycle in the channel-dependency graph, and lanes within a
//! class are interchangeable, so the CDG acyclicity argument (checked
//! exhaustively in `hcube/tests/mesh_properties.rs`) survives the
//! engine grabbing *any* free lane of the next link. Here we drive the
//! actual simulator: arbitrary workloads, lane counts, and fault plans
//! must never produce [`SimError::Deadlock`] — faults may abort
//! individual worms (`Failed`), never wedge the network.

use hcube::{Mesh, MeshXY, MinimalAdaptive, NodeId, Router};
use hypercast::PortModel;
use proptest::prelude::*;
use wormsim::{DepMessage, FaultPlan, Run, RunResult, SimError, SimParams, SimTime};

/// A fault-free, unobserved run of a well-formed workload.
fn replay<R: Router>(router: R, params: &SimParams, workload: &[DepMessage]) -> RunResult {
    Run::new(router, params, workload).run().unwrap()
}

fn msg(src: NodeId, dst: NodeId, bytes: u32) -> DepMessage {
    DepMessage {
        src,
        dst,
        bytes,
        deps: vec![],
        min_start: SimTime::ZERO,
    }
}

/// A mesh shape plus a random workload over it: up to 24 messages with
/// `src != dst` endpoints, drawn as `(src, offset)` so self-sends are
/// impossible by construction.
fn instance() -> impl Strategy<Value = (u16, u16, Vec<(u32, u32)>)> {
    (2u16..=5, 1u16..=4).prop_flat_map(|(w, h)| {
        let nodes = u32::from(w) * u32::from(h);
        let pair = (0..nodes, 1..nodes).prop_map(move |(s, off)| (s, (s + off) % nodes));
        (Just(w), Just(h), prop::collection::vec(pair, 1..=24usize))
    })
}

proptest! {
    /// Fault-free runs on the adaptive router always drain: every
    /// message delivers, no deadlock — at 1, 2, and 4 lanes, under both
    /// port models.
    #[test]
    fn adaptive_mesh_runs_never_deadlock(
        (w, h, pairs) in instance(),
        lanes_idx in 0usize..3,
        one_port in any::<bool>(),
        bytes in 64u32..4096,
    ) {
        let mesh = Mesh::of(w, h);
        let lanes = [1u8, 2, 4][lanes_idx];
        let port = if one_port { PortModel::OnePort } else { PortModel::AllPort };
        let params = SimParams::ncube2(port);
        let workload: Vec<DepMessage> = pairs
            .iter()
            .map(|&(s, d)| msg(NodeId(s), NodeId(d), bytes))
            .collect();
        let run = replay(MinimalAdaptive::with_lanes(mesh, lanes), &params, &workload);
        prop_assert_eq!(run.delivered_count(), workload.len());
        // The deterministic XY baseline drains the same workload (same
        // delivery set; timings may differ).
        let xy = replay(MeshXY::with_lanes(mesh, lanes), &params, &workload);
        prop_assert_eq!(xy.delivered_count(), workload.len());
    }

    /// Faulted runs may abort worms but must never wedge: random dead
    /// links and dead nodes produce `Failed` outcomes, not
    /// `SimError::Deadlock`. (Stuck channels are excluded — a phantom
    /// holder is *injected* deadlock and the watchdog must report it.)
    #[test]
    fn adaptive_mesh_fault_plans_never_deadlock(
        (w, h, pairs) in instance(),
        lanes_idx in 0usize..3,
        dead_links in 0usize..6,
        dead_nodes in 0usize..2,
        seed in any::<u64>(),
        bytes in 64u32..4096,
    ) {
        let mesh = Mesh::of(w, h);
        let lanes = [1u8, 2, 4][lanes_idx];
        let params = SimParams::ncube2(PortModel::AllPort);
        let workload: Vec<DepMessage> = pairs
            .iter()
            .map(|&(s, d)| msg(NodeId(s), NodeId(d), bytes))
            .collect();
        let mut plan = FaultPlan::random_links(&mesh, dead_links, seed);
        for v in FaultPlan::random_nodes(&mesh, dead_nodes, seed, &[]).dead_nodes() {
            plan.fail_node(v);
        }
        // Kill a random single lane too: lane-granular faults must be
        // routed around inside the class, or abort the worm — never
        // wedge it.
        if lanes > 1 {
            let v = NodeId((seed % u64::from(mesh.width())) as u32);
            plan.fail_lane(v, hcube::Dim(0), (seed % u64::from(lanes)) as u8);
        }
        let router = MinimalAdaptive::with_lanes(mesh, lanes);
        match Run::new(router, &params, &workload).faults(&plan).run() {
            Ok(run) => {
                // Every message either delivered or was aborted by the
                // plan — nothing is left in limbo.
                let failed = run
                    .messages
                    .iter()
                    .filter(|m| !m.outcome.is_delivered())
                    .count();
                prop_assert_eq!(run.delivered_count() + failed, workload.len());
            }
            Err(SimError::Deadlock { .. }) => {
                prop_assert!(false, "west-first adaptive routing must not deadlock");
            }
            Err(e) => prop_assert!(false, "unexpected workload error: {e}"),
        }
    }
}

/// A dense all-to-all on a small mesh at one lane — the harshest
/// blocking pattern the turn model must survive without the extra lanes
/// hiding anything.
#[test]
fn single_lane_all_to_all_drains() {
    let mesh = Mesh::of(4, 4);
    let params = SimParams::ncube2(PortModel::AllPort);
    let workload: Vec<DepMessage> = mesh
        .nodes()
        .flat_map(|s| {
            mesh.nodes()
                .filter(move |&d| d != s)
                .map(move |d| msg(s, d, 1024))
        })
        .collect();
    let run = replay(MinimalAdaptive::new(mesh), &params, &workload);
    assert_eq!(run.delivered_count(), workload.len());
    assert!(run.stats.blocks > 0, "all-to-all must actually contend");
}
