//! Contention heatmap: *measured* per-dimension blocked time per
//! algorithm, the in-loop counterpart of the paper's step-count
//! comparison.
//!
//! The paper's contention theory (Definitions 3–4, Theorem 3) predicts
//! *where* worms block: U-cube on an all-port cube funnels its subtree
//! forwards through the same dimension-ordered channels, while W-sort is
//! contention-free by construction (Theorem 6). The step-count figures
//! only show the consequence (delay); this table shows the cause — the
//! exact time worms spent blocked on each dimension's channels, recorded
//! by the engine's in-loop [`wormsim::EventRecorder`] rather than
//! reconstructed after the fact.
//!
//! The heatmap charges **all** blocked time to the dimension of the
//! channel being waited for, including hop-0 episodes (a worm waiting
//! at its own source for an outgoing channel a sibling send still
//! holds). For a single multicast at nCUBE-2 parameters that hop-0
//! component *is* the measurable contention: startup serialization
//! spaces worms out enough that deeper blocking only appears under
//! concurrent operations, while U-cube's dimension-ordered funneling
//! piles same-dimension sends onto one source channel — the exact
//! effect Theorem 3 prices and W-sort's weighted ordering removes.
//!
//! Two mesh rows extend the comparison off the hypercube: separate
//! addressing fires every unicast at once from one source, so they show
//! how much of the source-funnel contention adaptivity can dodge when
//! the first hop has a choice of dimension. The figure is one
//! [`crate::sweep`] grid: point 0 holds the cube rows, point 1 the mesh
//! rows.

use crate::destsets::{random_dests, random_dests_on};
use crate::figure::Figure;
use crate::sweep::{grid, tree};
use hcube::{Cube, Ecube, Mesh, MeshXY, MinimalAdaptive, NodeId, Resolution, Router, Topology};
use hypercast::{Algorithm, PortModel};
use wormsim::network::ChannelMap;
use wormsim::{multicast_workload, separate_workload, DepMessage, EventRecorder, Run, SimParams};

/// Cube dimension of the heatmap experiment (64 nodes, as Figure 11).
const N: u8 = 6;
/// Destinations per trial (half the cube, randomly placed).
const DESTS: usize = 32;
/// Payload bytes per multicast.
const BYTES: u32 = 4096;

/// Runs the contention heatmap: for each of the paper's four algorithms
/// (U-cube, Maxport, Combine, W-sort), multicast a 4 KB payload from
/// node 0 to 32 random destinations of a 6-cube (all-port nCUBE-2
/// parameters) and record the **exact** blocked time on each
/// dimension's external channels with an in-loop [`EventRecorder`].
///
/// Returns a figure with one series per algorithm: `xs` are dimension
/// indices `0..6`, `ys` the mean blocked time (ms) charged to that
/// dimension across `trials` seeded destination draws (the same draws
/// for every algorithm — a paired comparison). Hop-0 blocking is
/// included (see the module docs). W-sort's row is all zeros:
/// Theorem 6's contention-freedom, measured rather than assumed.
///
/// Two further series (`Mesh-XY`, `Mesh-adaptive`) measure the same
/// blocked-time breakdown for separate addressing on an 8×8 mesh under
/// deterministic XY and west-first minimal-adaptive routing; their `xs`
/// are the mesh's two dimensions (0 = X, 1 = Y), and the two series
/// share destination draws with each other (but not with the cube — a
/// different topology has different node numbering).
#[must_use]
pub fn contention_heatmap(trials: usize) -> Figure {
    let cube = Cube::of(N);
    let mesh = Mesh::of(8, 8);
    let params = SimParams::ncube2(PortModel::AllPort);
    // Columns: algorithm × dimension at point 0, router × dimension at
    // point 1; each point's draw is shared by its rows.
    let samples = grid("contention_heatmap", 2, trials, |point, _, rng, _| {
        if point == 0 {
            let router = Ecube::new(cube, Resolution::HighToLow);
            let dests = random_dests(rng, cube, NodeId(0), DESTS);
            Algorithm::PAPER
                .iter()
                .flat_map(|&algo| {
                    let tree = tree(algo, cube, PortModel::AllPort, NodeId(0), &dests);
                    blocked_ms(router, &params, &multicast_workload(&tree, BYTES))
                })
                .collect()
        } else {
            let dests = random_dests_on(rng, &mesh, NodeId(0), DESTS);
            let workload = separate_workload(NodeId(0), &dests, BYTES);
            let mut row = blocked_ms(MeshXY::new(mesh), &params, &workload);
            row.extend(blocked_ms(MinimalAdaptive::new(mesh), &params, &workload));
            row
        }
    });
    let dims = |n: u8| -> Vec<f64> { (0..n).map(f64::from).collect() };
    let mut series = samples.point_series(0, &Algorithm::PAPER.map(|a| a.name()), &dims(N));
    let meshes = ["Mesh-XY", "Mesh-adaptive"];
    series.extend(samples.point_series(1, &meshes, &dims(mesh.dimensions())));
    Figure {
        id: "contention_heatmap".into(),
        title: format!(
            "Measured channel contention per dimension ({N}-cube multicast vs 8x8-mesh separate \
             addressing, all-port, {DESTS} dests, 4 KB)"
        ),
        x_label: "dimension".into(),
        y_label: "blocked time (ms)".into(),
        series,
    }
}

/// Blocked time (ms) charged to each dimension of `router`'s external
/// channels while `workload` runs.
fn blocked_ms<R: Router + Copy>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
) -> Vec<f64> {
    let map = ChannelMap::new(router);
    let mut rec = EventRecorder::new();
    let _run = Run::new(router, params, workload)
        .probe(&mut rec)
        .run()
        .expect("well-formed workload");
    let mut per_dim = vec![0u64; usize::from(map.dimensions())];
    for ch in 0..map.externals() {
        per_dim[map.dim_of(ch) as usize] += rec.blocked_ns(ch);
    }
    per_dim.iter().map(|&ns| ns as f64 / 1_000_000.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_is_deterministic() {
        let a = contention_heatmap(2).to_json();
        let b = contention_heatmap(2).to_json();
        assert_eq!(a, b, "same trials must regenerate bit-identically");
    }

    #[test]
    fn wsort_row_is_zero_and_ucube_contends() {
        let f = contention_heatmap(3);
        let row = |name: &str| {
            f.series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
        };
        let wsort_total: f64 = row("W-sort").ys.iter().sum();
        assert_eq!(wsort_total, 0.0, "Theorem 6: W-sort is contention-free");
        let ucube_total: f64 = row("U-cube").ys.iter().sum();
        assert!(
            ucube_total > 0.0,
            "all-port U-cube should show measured contention"
        );
    }

    #[test]
    fn every_series_covers_all_dimensions() {
        let f = contention_heatmap(1);
        assert_eq!(f.series.len(), Algorithm::PAPER.len() + 2);
        for s in &f.series {
            let dims = if s.name.starts_with("Mesh") {
                2
            } else {
                N as usize
            };
            assert_eq!(s.xs.len(), dims, "series {}", s.name);
            assert_eq!(s.ys.len(), dims, "series {}", s.name);
        }
    }

    #[test]
    fn mesh_series_contend_and_pair_their_draws() {
        let f = contention_heatmap(3);
        let row = |name: &str| {
            f.series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
        };
        let xy: f64 = row("Mesh-XY").ys.iter().sum();
        let adaptive: f64 = row("Mesh-adaptive").ys.iter().sum();
        // 32 unicasts fired at once from one mesh node must fight over
        // the source's four ports under either router.
        assert!(xy > 0.0, "XY separate addressing should contend");
        assert!(
            adaptive > 0.0,
            "adaptive separate addressing should contend"
        );
    }
}
