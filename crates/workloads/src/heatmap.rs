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
//! Two mesh series extend the comparison off the hypercube: the same
//! payload separately addressed to 32 random nodes of an 8×8 mesh (64
//! nodes, matching the cube) under deterministic XY routing and under
//! the west-first minimal-adaptive router. Separate addressing fires
//! every unicast at once from one source, so the X/Y rows show how much
//! of the source-funnel contention adaptivity can dodge when the first
//! hop has a choice of dimension.

use crate::figure::{Figure, Series};
use hcube::{Cube, Ecube, Mesh, MeshXY, MinimalAdaptive, NodeId, Resolution, Router};
use hypercast::{Algorithm, PortModel};
use wormsim::network::ChannelMap;
use wormsim::{multicast_workload, DepMessage, EventRecorder, Run, SimParams, SimTime};

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
    let resolution = Resolution::HighToLow;
    let params = SimParams::ncube2(PortModel::AllPort);
    let map = ChannelMap::new(Ecube::new(cube, resolution));

    let mut series = Vec::with_capacity(Algorithm::PAPER.len());
    for &algo in &Algorithm::PAPER {
        // blocked_ms[d][trial]: contention blocked time on dimension d.
        let mut blocked_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(trials); N as usize];
        for trial in 0..trials {
            // Point index 0: one experimental point per algorithm; the
            // destination draw depends only on the trial, so every
            // algorithm sees the same destination sets.
            let mut rng = crate::destsets::trial_rng("contention_heatmap", 0, trial);
            let dests = crate::destsets::random_dests(&mut rng, cube, NodeId(0), DESTS);
            let tree = algo
                .build(cube, resolution, PortModel::AllPort, NodeId(0), &dests)
                .expect("valid multicast input");
            let workload = multicast_workload(&tree, BYTES);
            let mut rec = EventRecorder::new();
            let _run = Run::new(Ecube::new(cube, resolution), &params, &workload)
                .probe(&mut rec)
                .run()
                .expect("well-formed workload");
            let mut per_dim = vec![0u64; N as usize];
            for ch in 0..map.externals() {
                per_dim[map.dim_of(ch) as usize] += rec.blocked_ns(ch);
            }
            for (d, &ns) in per_dim.iter().enumerate() {
                blocked_ms[d].push(ns as f64 / 1_000_000.0);
            }
        }
        let mut ys = Vec::with_capacity(N as usize);
        let mut std = Vec::with_capacity(N as usize);
        for samples in &blocked_ms {
            let s = crate::stats::Summary::of(samples);
            ys.push(s.mean);
            std.push(s.std);
        }
        series.push(Series {
            name: algo.name().to_string(),
            xs: (0..N).map(f64::from).collect(),
            ys,
            std,
        });
    }
    // Mesh extension: the same payload separately addressed on an 8x8
    // mesh, deterministic XY vs west-first minimal-adaptive.
    let mesh = Mesh::of(8, 8);
    series.push(mesh_series(
        "Mesh-XY",
        MeshXY::new(mesh),
        &mesh,
        &params,
        trials,
    ));
    series.push(mesh_series(
        "Mesh-adaptive",
        MinimalAdaptive::new(mesh),
        &mesh,
        &params,
        trials,
    ));

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

/// One mesh series: per-dimension blocked time of separate addressing
/// (all unicasts launched at once from node 0) under `router`, averaged
/// over the same seeded destination draws for every router.
fn mesh_series<R: Router + Copy>(
    name: &str,
    router: R,
    mesh: &Mesh,
    params: &SimParams,
    trials: usize,
) -> Series {
    let map = ChannelMap::new(router);
    let dims = map.dimensions() as usize;
    let mut blocked_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(trials); dims];
    for trial in 0..trials {
        // Point index 1 keeps the mesh draws distinct from the cube's
        // (same node ids would land on different coordinates anyway);
        // both mesh routers see identical destination sets per trial.
        let mut rng = crate::destsets::trial_rng("contention_heatmap", 1, trial);
        let dests = crate::destsets::random_dests_on(&mut rng, mesh, NodeId(0), DESTS);
        let workload: Vec<DepMessage> = dests
            .iter()
            .map(|&dst| DepMessage {
                src: NodeId(0),
                dst,
                bytes: BYTES,
                deps: Vec::new(),
                min_start: SimTime::ZERO,
            })
            .collect();
        let mut rec = EventRecorder::new();
        let _run = Run::new(router, params, &workload)
            .probe(&mut rec)
            .run()
            .expect("well-formed workload");
        let mut per_dim = vec![0u64; dims];
        for ch in 0..map.externals() {
            per_dim[map.dim_of(ch) as usize] += rec.blocked_ns(ch);
        }
        for (d, &ns) in per_dim.iter().enumerate() {
            blocked_ms[d].push(ns as f64 / 1_000_000.0);
        }
    }
    let mut ys = Vec::with_capacity(dims);
    let mut std = Vec::with_capacity(dims);
    for samples in &blocked_ms {
        let s = crate::stats::Summary::of(samples);
        ys.push(s.mean);
        std.push(s.std);
    }
    Series {
        name: name.to_string(),
        xs: (0..dims).map(|d| d as f64).collect(),
        ys,
        std,
    }
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
