//! Executing [`CollectiveSchedule`]s through the wormhole engine.
//!
//! Every collective other than the plain multicast is one
//! [`CollectiveSchedule`]: reduction, barrier, scatter, gather, the
//! chunked multicast and the full-machine suite. A schedule is already
//! an explicit DAG of annotated unicasts, so execution is a direct
//! translation: one [`DepMessage`] per op, dependencies copied verbatim,
//! and the self-timed engine does the rest. The same workload runs on
//! any [`Router`] — the hypercube's E-cube or the torus's
//! dateline-lane router — which is how the collectives sweep compares
//! topologies under one timing model.

use crate::engine::{DepMessage, Run};
use crate::multicast::SimReport;
use crate::params::SimParams;
use crate::time::SimTime;
use hcube::Router;
use hypercast::CollectiveSchedule;

/// Executes a collective schedule on an arbitrary router: one
/// [`DepMessage`] per op, with the schedule's own dependency edges. The
/// report's deliveries record the arrival of every constituent unicast;
/// `max_delay` is the collective's completion time.
#[must_use]
pub fn simulate_collective<R: Router>(
    sched: &CollectiveSchedule,
    router: R,
    params: &SimParams,
) -> SimReport {
    let workload: Vec<DepMessage> = sched
        .ops
        .iter()
        .map(|op| DepMessage {
            src: op.src,
            dst: op.dst,
            bytes: op.bytes,
            deps: op.deps.clone(),
            min_start: SimTime::ZERO,
        })
        .collect();
    let run = Run::new(router, params, &workload)
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
    let deliveries = sched
        .ops
        .iter()
        .zip(&run.messages)
        .map(|(op, r)| (op.dst, r.delivered))
        .collect();
    SimReport::from_stats(deliveries, run.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;
    use hcube::{Cube, Ecube, NodeId, Resolution, Torus, TorusRouter};
    use hypercast::collectives::{allgather, allgather_separate, allreduce};
    use hypercast::{Algorithm, PortModel, TreeFamily};

    #[test]
    fn allgather_delivers_every_op_on_the_cube() {
        let cube = Cube::of(3);
        let sched = allgather(
            TreeFamily::Alg(Algorithm::WSort),
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            256,
            None,
        )
        .unwrap();
        let params = SimParams::ncube2(PortModel::AllPort);
        let report = simulate_collective(&sched, Ecube::new(cube, Resolution::HighToLow), &params);
        assert_eq!(report.deliveries.len(), 8 * 7);
        assert!(report.max_delay > SimTime::ZERO);
    }

    #[test]
    fn allreduce_broadcast_phase_waits_for_the_reduction() {
        let cube = Cube::of(3);
        let sched = allreduce(
            TreeFamily::Bine,
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            64,
            None,
        )
        .unwrap();
        let params = SimParams::ncube2(PortModel::AllPort);
        let report = simulate_collective(&sched, Ecube::new(cube, Resolution::HighToLow), &params);
        // Every broadcast-phase delivery is later than every reduce-phase
        // delivery into the root.
        let reduce_done = sched
            .ops
            .iter()
            .zip(&report.deliveries)
            .filter(|(op, _)| op.dst == NodeId(0))
            .map(|(_, &(_, t))| t)
            .max()
            .unwrap();
        let first_bcast = sched
            .ops
            .iter()
            .zip(&report.deliveries)
            .filter(|(op, _)| op.src == NodeId(0) && op.step > 3)
            .map(|(_, &(_, t))| t)
            .min()
            .unwrap();
        assert!(first_bcast > reduce_done);
    }

    #[test]
    fn separate_allgather_runs_on_the_torus_router() {
        let torus = Torus::of(3, 2);
        let sched = allgather_separate(&torus, 128).unwrap();
        let params = SimParams::ncube2(PortModel::AllPort);
        let report = simulate_collective(&sched, TorusRouter::new(torus), &params);
        assert_eq!(report.deliveries.len(), 9 * 8);
        assert!(report.deliveries.iter().all(|&(_, t)| t > SimTime::ZERO));
    }
}
