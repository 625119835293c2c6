//! Torus-vs-hypercube sweep (topology extension beyond the paper):
//! separate-addressing multicast delay on a 64-node hypercube and on a
//! 64-node k-ary n-cube torus, as the destination count grows.
//!
//! Both networks have 64 nodes and the same mean routing distance (3
//! hops), so the comparison isolates what the paper's Section 2 model
//! attributes to topology: the torus has twice the physical links per
//! dimension but routes each worm through dateline virtual channels,
//! while the hypercube spreads its six dimensions over six distinct
//! channel classes. Destination sets are drawn once per trial of the
//! [`crate::sweep`] grid and reused verbatim on both networks (the
//! node-id space is shared), so every point is an apples-to-apples
//! replay.

use crate::destsets::random_dests;
use crate::figure::Figure;
use crate::sweep::grid;
use hcube::{Cube, Ecube, NodeId, Resolution, Torus, TorusRouter};
use hypercast::PortModel;
use wormsim::{separate_workload, Run, SimParams};

/// Runs the sweep: `m ∈ {1, 2, 4, 8, 16, 32, 63}` random destinations on
/// a 6-cube and on a 4-ary 3-cube torus (64 nodes each), 4 KB payloads,
/// nCUBE-2 all-port parameters, separate addressing. Returns a figure
/// with four series: average delay and makespan (ms) per topology.
#[must_use]
pub fn torus_sweep(trials: usize) -> Figure {
    let ms: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 63];
    let cube = Cube::of(6);
    let router = TorusRouter::new(Torus::of(4, 3));
    let params = SimParams::ncube2(PortModel::AllPort);
    let samples = grid("torus_sweep", ms.len(), trials, |pi, _, rng, _| {
        // One draw, replayed on both 64-node networks.
        let dests = random_dests(rng, cube, NodeId(0), ms[pi]);
        let workload = separate_workload(NodeId(0), &dests, 4096);
        let on_cube = Run::new(Ecube::new(cube, Resolution::HighToLow), &params, &workload)
            .run()
            .expect("well-formed workload");
        let on_torus = Run::new(router, &params, &workload)
            .run()
            .expect("well-formed workload");
        vec![
            on_cube.avg_delay().as_ms(),
            on_torus.avg_delay().as_ms(),
            on_cube.stats.makespan.as_ms(),
            on_torus.stats.makespan.as_ms(),
        ]
    });
    let xs: Vec<f64> = ms.iter().map(|&m| m as f64).collect();
    let series = samples.columns(
        [
            "hypercube avg delay (ms)",
            "torus avg delay (ms)",
            "hypercube makespan (ms)",
            "torus makespan (ms)",
        ],
        &xs,
    );
    Figure {
        id: "torus_sweep".into(),
        title: "Torus vs hypercube: separate addressing (64 nodes, 4 KB)".into(),
        x_label: "destinations".into(),
        y_label: "avg delay / makespan (ms)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic() {
        let a = torus_sweep(2).to_json();
        let b = torus_sweep(2).to_json();
        assert_eq!(a, b, "same trials must regenerate bit-identically");
    }

    #[test]
    fn delays_are_positive_and_grow_with_fanout() {
        let f = torus_sweep(2);
        for s in &f.series {
            assert!(s.ys.iter().all(|&y| y > 0.0), "{}: {:?}", s.name, s.ys);
            assert!(
                *s.ys.last().unwrap() > s.ys[0],
                "{}: broadcast should cost more than a unicast",
                s.name
            );
        }
    }

    #[test]
    fn both_topologies_have_64_nodes() {
        use hcube::Topology;
        assert_eq!(Topology::node_count(&Cube::of(6)), 64);
        assert_eq!(Topology::node_count(&Torus::of(4, 3)), 64);
    }
}
