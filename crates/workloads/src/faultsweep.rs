//! Fault-injection sweep (robustness extension beyond the paper):
//! delivery ratio and makespan of a W-sort multicast as random links
//! fail, with and without `hypercast::repair`.
//!
//! The unrepaired tree loses exactly the subtrees cut off by the dead
//! channels (the simulator's failure cascade); the repaired tree prunes,
//! regrafts, and relays around the damage before transmission, so its
//! delivery ratio stays at 1.0 until the faults actually disconnect the
//! cube — at the cost of extra steps visible as a makespan overhead.

use crate::destsets::random_dests;
use crate::figure::Figure;
use crate::sweep::{grid, tree};
use hcube::{Cube, NodeId};
use hypercast::repair::{repair, NetworkFaults};
use hypercast::{Algorithm, PortModel};
use wormsim::{FaultPlan, MulticastRun, SimParams};

/// Runs the sweep: `k ∈ {0, 1, 2, 4, 8, 16, 32}` random dead directed
/// links in an 8-cube, a 64-destination W-sort multicast of 4 KB, nCUBE-2
/// parameters. Returns a figure with four series: delivery ratio and
/// makespan (ms), each unrepaired and repaired.
#[must_use]
pub fn fault_sweep(trials: usize) -> Figure {
    let ks: Vec<usize> = vec![0, 1, 2, 4, 8, 16, 32];
    let cube = Cube::of(8);
    let params = SimParams::ncube2(PortModel::AllPort);
    let samples = grid("fault_sweep", ks.len(), trials, |pi, trial, rng, _| {
        let dests = random_dests(rng, cube, NodeId(0), 64);
        let tree = tree(
            Algorithm::WSort,
            cube,
            PortModel::AllPort,
            NodeId(0),
            &dests,
        );
        // Deterministic per-(point, trial) fault plan.
        let seed = (pi as u64) * 0x9e37 + trial as u64;
        let plan = FaultPlan::random_links(&cube, ks[pi], seed);

        // Unrepaired: the tree is replayed as scheduled; cut subtrees
        // are lost. Dead links alone cannot deadlock the engine.
        let raw = MulticastRun::new(&tree, &params, 4096)
            .faults(&plan)
            .run()
            .expect("dead links fail messages, they cannot deadlock");

        // Repaired: prune + regraft + relay before transmission.
        let fixed = repair(&tree, &NetworkFaults::from(&plan));
        let rep = MulticastRun::new(&fixed.tree, &params, 4096)
            .faults(&plan)
            .run()
            .expect("repaired tree avoids every dead channel");

        vec![
            raw.delivery_ratio,
            rep.delivery_ratio,
            raw.makespan.as_ms(),
            rep.makespan.as_ms(),
        ]
    });
    let xs: Vec<f64> = ks.iter().map(|&k| k as f64).collect();
    let series = samples.columns(
        [
            "unrepaired delivery ratio",
            "repaired delivery ratio",
            "unrepaired makespan (ms)",
            "repaired makespan (ms)",
        ],
        &xs,
    );
    Figure {
        id: "fault_sweep".into(),
        title: "Fault sweep: W-sort multicast vs dead links (8-cube, 64 dests, 4 KB)".into(),
        x_label: "failed directed links".into(),
        y_label: "delivery ratio / makespan (ms)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_dominates_no_repair() {
        let f = fault_sweep(2);
        let raw_ratio = &f.series[0];
        let rep_ratio = &f.series[1];
        // Healthy network: both deliver everything.
        assert_eq!(raw_ratio.ys[0], 1.0);
        assert_eq!(rep_ratio.ys[0], 1.0);
        // Repair never delivers less than no repair.
        for i in 0..raw_ratio.ys.len() {
            assert!(
                rep_ratio.ys[i] >= raw_ratio.ys[i] - 1e-12,
                "point {i}: repaired {} < unrepaired {}",
                rep_ratio.ys[i],
                raw_ratio.ys[i]
            );
        }
        // Heavy damage loses deliveries without repair...
        assert!(*raw_ratio.ys.last().unwrap() < 1.0);
        // ...but a few dozen dead links cannot disconnect an 8-cube, so
        // the repaired tree still delivers everywhere.
        assert!(rep_ratio.ys.iter().all(|&y| y == 1.0));
    }

    #[test]
    fn makespans_are_positive_and_repair_overhead_is_bounded() {
        let f = fault_sweep(2);
        let raw_mk = &f.series[2];
        let rep_mk = &f.series[3];
        assert!(rep_mk.ys.iter().all(|&y| y > 0.0));
        // No faults ⇒ repair is the identity ⇒ identical makespan.
        assert!((rep_mk.ys[0] - raw_mk.ys[0]).abs() < 1e-9);
        // Detours cost time, but not unboundedly (< 4× the broadcast-ish
        // baseline even at 32 dead links).
        assert!(*rep_mk.ys.last().unwrap() < raw_mk.ys[0] * 4.0);
    }
}
