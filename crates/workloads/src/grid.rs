//! The grid behind the open-loop sweeps.
//!
//! `traffic_sweep`, `chaos_sweep` and `telemetry_sweep` share the
//! paper's Section 5 shape: every paper tree algorithm on one or two
//! hypercubes, then separate addressing on the 64-node 4-ary 3-cube
//! torus (the tree algorithms are hypercube-specific). Each network
//! draws one pool of recurring destination groups, shared by all of its
//! series, so the curves compare paired destination sets. This module
//! lays out those series, builds every point's spec with [`load_spec`],
//! keeps each series' Cube/Torus backend in one value, and runs every
//! point serially through one [`EngineScratch`] (reuse is
//! byte-invisible). Each sweep keeps its own per-point function and
//! seed rule.

use crate::serve::load_spec;
use crate::trafficsweep::run_seed;
use hcube::{Cube, Resolution, Topology, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic::{
    ArrivalProcess, Backend, ChaosReport, ChaosSpec, DestPattern, RunOptions, TrafficReport,
    TrafficSpec,
};
use wormsim::{EngineScratch, SimParams};

/// One (network × algorithm) series of an open-loop sweep.
pub(crate) struct GridSeries {
    /// Network label (`cube6`, `cube8`, `torus4x3`).
    pub(crate) network: &'static str,
    /// Node count of the network.
    pub(crate) nodes: usize,
    /// Algorithm label, or `Separate` on the torus.
    pub(crate) algorithm: &'static str,
    /// Destinations per session.
    pub(crate) m: usize,
    /// Position among its network's series: the algorithm's index in
    /// [`Algorithm::PAPER`] on a cube, 0 on the torus.
    pub(crate) rank: usize,
    /// Offered loads (sessions/ms) of one rung, in point order.
    pub(crate) loads: Vec<f64>,
    /// Tree multicast on a cube (whose backend ignores the router
    /// type), or separate addressing on the torus.
    backend: Backend<TorusRouter>,
    pattern: DestPattern,
    seed: u64,
    cache_capacity: usize,
}

/// Lays out the series: every paper algorithm on each `(network, dim,
/// m, loads)` cube, then the torus under separate addressing with
/// `torus = (m, loads)`. Each network's pool of `pool_groups` groups is
/// drawn from `run_seed(seed, network, "pool", 0)`.
pub(crate) fn layout(
    seed: u64,
    pool_groups: usize,
    cubes: &[(&'static str, u8, usize, &[f64])],
    (torus_m, torus_loads): (usize, &[f64]),
) -> Vec<GridSeries> {
    let mut out = Vec::new();
    for &(network, dim, m, loads) in cubes {
        let cube = Cube::of(dim);
        let pattern = pool(seed, network, &cube, pool_groups, m);
        for (rank, algo) in Algorithm::PAPER.into_iter().enumerate() {
            out.push(GridSeries {
                network,
                nodes: cube.node_count(),
                algorithm: algo.name(),
                m,
                rank,
                loads: loads.to_vec(),
                backend: Backend::Tree {
                    cube,
                    resolution: Resolution::HighToLow,
                    algo,
                },
                pattern: pattern.clone(),
                seed,
                cache_capacity: 2 * pool_groups,
            });
        }
    }
    let torus = Torus::of(4, 3);
    out.push(GridSeries {
        network: "torus4x3",
        nodes: torus.node_count(),
        algorithm: "Separate",
        m: torus_m,
        rank: 0,
        loads: torus_loads.to_vec(),
        backend: Backend::Separate(TorusRouter::new(torus)),
        pattern: pool(seed, "torus4x3", &torus, pool_groups, torus_m),
        seed,
        cache_capacity: 2 * pool_groups,
    });
    out
}

/// The series of the traffic and chaos sweeps: the 6-cube (m = 8) and
/// the 8-cube (m = 16), then the torus (m = 8) at the 64-node loads.
pub(crate) fn paper_layout(
    seed: u64,
    pool_groups: usize,
    loads_64: &[f64],
    loads_256: &[f64],
) -> Vec<GridSeries> {
    let cubes = [("cube6", 6, 8, loads_64), ("cube8", 8, 16, loads_256)];
    layout(seed, pool_groups, &cubes, (8, loads_64))
}

fn pool<T: Topology>(seed: u64, network: &str, topo: &T, groups: usize, m: usize) -> DestPattern {
    let mut rng = StdRng::seed_from_u64(run_seed(seed, network, "pool", 0));
    DestPattern::uniform_pool(&mut rng, topo, groups, m)
}

impl GridSeries {
    /// The open-loop spec of one point: `sessions` Poisson sessions at
    /// `rate` over the series' pool, seeded by `run_seed(seed, network,
    /// algorithm, point)`, with [`load_spec`]'s horizon and a tree cache
    /// twice the pool's size.
    pub(crate) fn spec(&self, point: usize, rate: f64, sessions: usize, bytes: u32) -> TrafficSpec {
        let seed = run_seed(self.seed, self.network, self.algorithm, point);
        let pattern = self.pattern.clone();
        let mut spec = load_spec(
            ArrivalProcess::Poisson,
            rate,
            pattern,
            sessions,
            seed,
            bytes,
        );
        spec.cache_capacity = self.cache_capacity;
        spec
    }

    /// [`traffic::run`] on the series' backend.
    pub(crate) fn run(&self, spec: &TrafficSpec, opts: RunOptions) -> TrafficReport {
        traffic::run(spec, self.backend, &params(), opts)
    }

    /// [`traffic::run_chaos`] on the series' backend.
    pub(crate) fn run_chaos(&self, spec: &ChaosSpec, opts: RunOptions) -> ChaosReport {
        traffic::run_chaos(spec, self.backend, &params(), opts)
    }
}

fn params() -> SimParams {
    SimParams::ncube2(PortModel::AllPort)
}

/// Runs `rungs × loads` points of every series serially through one
/// [`EngineScratch`], point `i` by `point(series, i, scratch)`, and
/// yields each series with its points, in layout order.
pub(crate) fn run_grid<'a, P>(
    series: &'a [GridSeries],
    rungs: usize,
    mut point: impl FnMut(&GridSeries, usize, &mut EngineScratch) -> P + 'a,
) -> impl Iterator<Item = (&'a GridSeries, Vec<P>)> + 'a {
    let mut scratch = EngineScratch::new();
    series.iter().map(move |s| {
        let points = (0..rungs * s.loads.len()).map(|i| point(s, i, &mut scratch));
        (s, points.collect())
    })
}
