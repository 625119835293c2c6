//! Integration tests for the collective operations (extension layer)
//! running end-to-end through the wormhole simulator.

use hcube::{Cube, Ecube, NodeId, Resolution, Torus, TorusRouter};
use hypercast::collectives::{
    barrier, broadcast, reduce, suite_collective, suite_collective_separate,
};
use hypercast::oracle::verify_collective;
use hypercast::{Algorithm, CollectiveKind, CollectiveSchedule, PortModel, TreeFamily};
use wormsim::{simulate_collective, simulate_multicast, SimParams, SimTime};

#[test]
fn broadcast_delay_scales_with_tree_depth() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut prev = SimTime::ZERO;
    for n in [3u8, 5, 7] {
        let t = broadcast(
            Algorithm::WSort,
            Cube::of(n),
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
        )
        .unwrap();
        let r = simulate_multicast(&t, &params, 4096);
        assert_eq!(r.blocks, 0);
        assert_eq!(r.deliveries.len(), (1 << n) - 1);
        assert!(
            r.max_delay > prev,
            "broadcast cost must grow with cube size"
        );
        prev = r.max_delay;
    }
}

#[test]
fn reduction_simulates_cleanly_for_every_algorithm() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let cube = Cube::of(5);
    for algo in Algorithm::PAPER {
        let bcast = broadcast(
            algo,
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(9),
        )
        .unwrap();
        let red = reduce(&bcast, 64).unwrap();
        verify_collective(&red).unwrap_or_else(|e| panic!("{algo}: {e}"));
        let r = simulate_collective(&red, Ecube::new(cube, Resolution::HighToLow), &params);
        assert_eq!(r.deliveries.len(), 31);
        assert!(r.max_delay > SimTime::ZERO);
        // The root's last inbound contribution defines completion.
        assert!(r
            .deliveries
            .iter()
            .any(|&(dst, t)| dst == NodeId(9) && t == r.max_delay));
    }
}

#[test]
fn reduction_of_contention_free_tree_does_not_block() {
    // The reversed W-sort tree reverses every arc; reversed E-cube paths
    // are still deterministic routes, and the mirrored schedule keeps the
    // pipeline clean in practice on this structured workload.
    let params = SimParams::ncube2(PortModel::AllPort);
    let cube = Cube::of(6);
    let bcast = broadcast(
        Algorithm::WSort,
        cube,
        Resolution::HighToLow,
        PortModel::AllPort,
        NodeId(0),
    )
    .unwrap();
    let red = reduce(&bcast, 64).unwrap();
    let r = simulate_collective(&red, Ecube::new(cube, Resolution::HighToLow), &params);
    assert_eq!(r.deliveries.len(), 63);
    assert!(r.max_delay > SimTime::ZERO);
}

#[test]
fn barrier_costs_roughly_double_a_broadcast() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let cube = Cube::of(5);
    let release = broadcast(
        Algorithm::WSort,
        cube,
        Resolution::HighToLow,
        PortModel::AllPort,
        NodeId(0),
    )
    .unwrap();
    let b = barrier(&release, 16).unwrap();
    assert_eq!(b.steps, 2 * release.steps);
    let bcast_delay = simulate_multicast(&release, &params, 16).max_delay;
    let reduce_delay = simulate_collective(
        &reduce(&release, 16).unwrap(),
        Ecube::new(cube, Resolution::HighToLow),
        &params,
    )
    .max_delay;
    // The release waits for the reduction inside one run: the barrier
    // takes exactly the two phases back to back.
    let total = simulate_collective(&b, Ecube::new(cube, Resolution::HighToLow), &params).max_delay;
    assert_eq!(total, bcast_delay + reduce_delay);
    // Within 3× of a single broadcast on each side (small payload, so
    // startup dominates and the phases are comparable).
    assert!(total >= bcast_delay);
    assert!(total.as_ns() <= 3 * 2 * bcast_delay.as_ns());
}

/// Builds one cube collective of the suite.
fn cube_collective(kind: CollectiveKind, family: TreeFamily, cube: Cube) -> CollectiveSchedule {
    let (res, port) = (Resolution::HighToLow, PortModel::AllPort);
    suite_collective(kind, family, cube, res, port, NodeId(5), 128, None).unwrap()
}

#[test]
fn every_collective_family_simulates_and_passes_the_oracle_on_the_cube() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let cube = Cube::of(4);
    for kind in CollectiveKind::ALL {
        for family in TreeFamily::SWEEP {
            let sched = cube_collective(kind, family, cube);
            verify_collective(&sched)
                .unwrap_or_else(|e| panic!("{} {}: {e}", kind.name(), family.name()));
            let r = simulate_collective(&sched, Ecube::new(cube, Resolution::HighToLow), &params);
            assert_eq!(
                r.deliveries.len(),
                sched.ops.len(),
                "{} {}: every op must deliver",
                kind.name(),
                family.name()
            );
            assert!(
                r.deliveries.iter().all(|&(_, t)| t > SimTime::ZERO),
                "{} {}",
                kind.name(),
                family.name()
            );
            assert!(r.max_delay > SimTime::ZERO);
        }
    }
}

#[test]
fn every_separate_collective_simulates_and_passes_the_oracle_on_the_torus() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let torus = Torus::of(4, 2);
    for kind in CollectiveKind::ALL {
        let sched = suite_collective_separate(kind, &torus, NodeId(3), 128).unwrap();
        verify_collective(&sched).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let r = simulate_collective(&sched, TorusRouter::new(torus), &params);
        assert_eq!(r.deliveries.len(), sched.ops.len(), "{}", kind.name());
        assert!(r.max_delay > SimTime::ZERO, "{}", kind.name());
    }
}

#[test]
fn allgather_outruns_sequential_broadcasts() {
    // The point of the concurrent schedule: N overlapped broadcasts
    // finish far sooner than N back-to-back ones.
    let params = SimParams::ncube2(PortModel::AllPort);
    let cube = Cube::of(4);
    let sched = cube_collective(
        CollectiveKind::Allgather,
        TreeFamily::Alg(Algorithm::WSort),
        cube,
    );
    let concurrent =
        simulate_collective(&sched, Ecube::new(cube, Resolution::HighToLow), &params).max_delay;
    let one = broadcast(
        Algorithm::WSort,
        cube,
        Resolution::HighToLow,
        PortModel::AllPort,
        NodeId(0),
    )
    .unwrap();
    let single = simulate_multicast(&one, &params, 128).max_delay;
    assert!(
        concurrent.as_ns() < 16 * single.as_ns(),
        "allgather {concurrent} vs 16 sequential broadcasts {single} each"
    );
}

#[test]
fn collective_traffic_runs_end_to_end() {
    use traffic::{ArrivalProcess, Arrivals, DestPattern, TrafficSpec};
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut spec = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, 0.1),
        DestPattern::UniformRandom { m: 4 },
        6,
        11,
    );
    spec.bytes = 128;
    for family in [TreeFamily::Alg(Algorithm::WSort), TreeFamily::Bine] {
        for kind in CollectiveKind::ALL {
            let r = traffic::run(
                &spec,
                traffic::Backend::collective(Cube::of(4), Resolution::HighToLow, kind, family),
                &params,
                traffic::RunOptions::default(),
            );
            assert_eq!(r.sessions.len(), 6, "{} {}", kind.name(), family.name());
            assert!(
                r.completion_ratio > 0.0,
                "{} {}",
                kind.name(),
                family.name()
            );
        }
    }
}

#[test]
fn one_port_collectives_also_run() {
    let params = SimParams::ncube2(PortModel::OnePort);
    let cube = Cube::of(4);
    let t = broadcast(
        Algorithm::UCube,
        cube,
        Resolution::HighToLow,
        PortModel::OnePort,
        NodeId(0),
    )
    .unwrap();
    let r = simulate_multicast(&t, &params, 4096);
    assert_eq!(r.blocks, 0, "one-port U-cube is contention-free");
    assert_eq!(r.deliveries.len(), 15);
}
