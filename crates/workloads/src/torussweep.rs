//! Torus-vs-hypercube sweep (topology extension beyond the paper):
//! separate-addressing multicast delay on a 64-node hypercube and on a
//! 64-node k-ary n-cube torus, as the destination count grows.
//!
//! Both networks have 64 nodes and the same mean routing distance (3
//! hops), so the comparison isolates what the paper's Section 2 model
//! attributes to topology: the torus has twice the physical links per
//! dimension but routes each worm through dateline virtual channels,
//! while the hypercube spreads its six dimensions over six distinct
//! channel classes. Destination sets are drawn once per trial and reused
//! verbatim on both networks (the node-id space is shared), so every
//! point is an apples-to-apples replay.

use crate::figure::{Figure, Series};
use hcube::{Cube, Ecube, NodeId, Resolution, Torus, TorusRouter};
use hypercast::PortModel;
use wormsim::{DepMessage, Run, SimParams, SimTime};

/// Separate-addressing workload: one independent unicast from the source
/// to each destination.
fn separate_workload(source: NodeId, dests: &[NodeId], bytes: u32) -> Vec<DepMessage> {
    dests
        .iter()
        .map(|&dst| DepMessage {
            src: source,
            dst,
            bytes,
            deps: vec![],
            min_start: SimTime::ZERO,
        })
        .collect()
}

fn avg_delay_ms(run: &wormsim::RunResult) -> f64 {
    if run.messages.is_empty() {
        return 0.0;
    }
    let total: u64 = run.messages.iter().map(|m| m.delivered.as_ns()).sum();
    SimTime(total / run.messages.len() as u64).as_ms()
}

/// Runs the sweep: `m ∈ {1, 2, 4, 8, 16, 32, 63}` random destinations on
/// a 6-cube and on a 4-ary 3-cube torus (64 nodes each), 4 KB payloads,
/// nCUBE-2 all-port parameters, separate addressing. Returns a figure
/// with four series: average delay and makespan (ms) per topology.
#[must_use]
pub fn torus_sweep(trials: usize) -> Figure {
    let ms: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 63];
    let cube = Cube::of(6);
    let torus = Torus::of(4, 3);
    let router = TorusRouter::new(torus);
    let params = SimParams::ncube2(PortModel::AllPort);
    let names = [
        "hypercube avg delay (ms)",
        "torus avg delay (ms)",
        "hypercube makespan (ms)",
        "torus makespan (ms)",
    ];
    let mut series: Vec<Series> = names
        .iter()
        .map(|name| Series {
            name: (*name).to_string(),
            xs: ms.iter().map(|&m| m as f64).collect(),
            ys: Vec::with_capacity(ms.len()),
            std: Vec::with_capacity(ms.len()),
        })
        .collect();

    for (pi, &m) in ms.iter().enumerate() {
        let mut samples: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(trials));
        for trial in 0..trials {
            let mut rng = crate::destsets::trial_rng("torus_sweep", pi, trial);
            // One draw, replayed on both 64-node networks.
            let dests = crate::destsets::random_dests(&mut rng, cube, NodeId(0), m);
            let workload = separate_workload(NodeId(0), &dests, 4096);

            let on_cube = Run::new(Ecube::new(cube, Resolution::HighToLow), &params, &workload)
                .run()
                .expect("well-formed workload");
            let on_torus = Run::new(router, &params, &workload)
                .run()
                .expect("well-formed workload");

            samples[0].push(avg_delay_ms(&on_cube));
            samples[1].push(avg_delay_ms(&on_torus));
            samples[2].push(on_cube.stats.makespan.as_ms());
            samples[3].push(on_torus.stats.makespan.as_ms());
        }
        for (si, s) in samples.iter().enumerate() {
            let summary = crate::stats::Summary::of(s);
            series[si].ys.push(summary.mean);
            series[si].std.push(summary.std);
        }
    }
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
