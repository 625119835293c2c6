//! Paired sweeps: the one trial grid every trial-based figure runs on.
//!
//! The grid calls a figure's sample function once per (point, trial),
//! point-major and in trial order, with that trial's RNG, keyed by
//! (experiment, point, trial), and keeps the returned row of samples
//! (one column per algorithm, metric or dimension). Columns compared
//! within a trial share its draw: the paper's paired comparison. Every
//! call runs on the calling thread and gets the grid's one
//! [`wormsim::EngineScratch`]; reuse is byte-invisible (the engine's
//! contract). [`run_matrix`] is the grid over destination-set sizes
//! with one column per (algorithm, metric).

use crate::destsets::{random_dests, trial_rng};
use crate::figure::Series;
use crate::stats::Summary;
use hcube::{Cube, NodeId, Resolution};
use hypercast::{Algorithm, MulticastTree, PortModel};
use rand::rngs::StdRng;
use wormsim::EngineScratch;

/// Sweep results: `cells[point][algo]` holds `K` metric summaries.
#[derive(Clone, Debug)]
pub struct MatrixResult<const K: usize> {
    /// The swept destination-set sizes.
    pub points: Vec<usize>,
    /// The algorithms compared.
    pub algos: Vec<Algorithm>,
    /// Per-(point, algorithm) summaries of each of the `K` metrics.
    pub cells: Vec<Vec<[Summary; K]>>,
}

impl<const K: usize> MatrixResult<K> {
    /// Extracts metric `k` as figure series (one per algorithm).
    ///
    /// # Panics
    /// If `k >= K`.
    #[must_use]
    pub fn series(&self, k: usize) -> Vec<Series> {
        assert!(k < K);
        let xs: Vec<f64> = self.points.iter().map(|&m| m as f64).collect();
        self.algos
            .iter()
            .enumerate()
            .map(|(ai, algo)| Series::of(algo.name(), &xs, self.cells.iter().map(|row| row[ai][k])))
            .collect()
    }
}

/// Runs the sweep. For every point `m` and trial, draws a destination set
/// and evaluates `metric(cube, source, dests, algo, scratch) -> [f64; K]`
/// for each algorithm. The scratch is the grid's reusable engine arena
/// — pass it to [`wormsim::MulticastRun::scratch`] (or ignore it for
/// metrics that never simulate).
///
/// The source is fixed at node 0, as in the paper's experiments (the
/// problem is vertex-transitive: relabeling by XOR maps any source to 0).
pub fn run_matrix<const K: usize, F>(
    experiment: &str,
    cube: Cube,
    points: &[usize],
    trials: usize,
    algos: &[Algorithm],
    mut metric: F,
) -> MatrixResult<K>
where
    F: FnMut(Cube, NodeId, &[NodeId], Algorithm, &mut EngineScratch) -> [f64; K],
{
    let source = NodeId(0);
    // One row per task: algorithm-major, `K` metrics per algorithm.
    let sample = |point: usize, _, rng: &mut StdRng, scratch: &mut EngineScratch| {
        let dests = random_dests(rng, cube, source, points[point]);
        let mut row = Vec::with_capacity(algos.len() * K);
        for &algo in algos {
            row.extend(metric(cube, source, &dests, algo, scratch));
        }
        row
    };
    let grid = grid(experiment, points.len(), trials, sample);
    let cells = (0..points.len())
        .map(|point| {
            (0..algos.len())
                .map(|ai| std::array::from_fn(|k| grid.summary(point, ai * K + k)))
                .collect()
        })
        .collect();
    MatrixResult {
        points: points.to_vec(),
        algos: algos.to_vec(),
        cells,
    }
}

/// [`run_matrix`] under the signature the frozen `perfbench-trace`
/// harness links; `workers` is ignored. Nothing else calls it.
#[doc(hidden)]
pub fn run_matrix_with_workers<const K: usize, F>(
    experiment: &str,
    cube: Cube,
    points: &[usize],
    trials: usize,
    algos: &[Algorithm],
    _workers: usize,
    metric: F,
) -> MatrixResult<K>
where
    F: Fn(Cube, NodeId, &[NodeId], Algorithm, &mut EngineScratch) -> [f64; K] + Sync,
{
    run_matrix(experiment, cube, points, trials, algos, metric)
}

/// The samples of a paired-trial grid: one row per (point, trial) task,
/// point-major.
pub(crate) struct Grid {
    rows: Vec<Vec<f64>>,
    points: usize,
    trials: usize,
}

impl Grid {
    /// Column `col` of `point`: one sample per trial, in trial order.
    pub(crate) fn column(&self, point: usize, col: usize) -> Vec<f64> {
        self.rows[point * self.trials..(point + 1) * self.trials]
            .iter()
            .map(|row| row[col])
            .collect()
    }

    /// The summary of [`Grid::column`].
    pub(crate) fn summary(&self, point: usize, col: usize) -> Summary {
        Summary::of(&self.column(point, col))
    }

    /// One series over `xs` per column, named by `names` in column
    /// order: point `i` of a series summarizes its column at point `i`.
    pub(crate) fn columns<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
        xs: &[f64],
    ) -> Vec<Series> {
        let series =
            |(col, name)| Series::of(name, xs, (0..self.points).map(|p| self.summary(p, col)));
        names.into_iter().enumerate().map(series).collect()
    }

    /// One series over `xs` per name, all from `point`: series `r`
    /// summarizes columns `r·|xs| ..` of that point, one per x.
    pub(crate) fn point_series(&self, point: usize, names: &[&str], xs: &[f64]) -> Vec<Series> {
        let series = |(r, name)| {
            let cols = r * xs.len()..(r + 1) * xs.len();
            Series::of(name, xs, cols.map(|col| self.summary(point, col)))
        };
        names.iter().copied().enumerate().map(series).collect()
    }
}

/// Runs `sample(point, trial, rng, scratch)` for every `point < points`
/// and, within it, every `trial < trials`, in that order on the calling
/// thread, with `rng = trial_rng(experiment, point, trial)` and one
/// scratch for every call. Every row a point returns must have the same
/// columns.
pub(crate) fn grid<F>(experiment: &str, points: usize, trials: usize, mut sample: F) -> Grid
where
    F: FnMut(usize, usize, &mut StdRng, &mut EngineScratch) -> Vec<f64>,
{
    let mut scratch = EngineScratch::new();
    let rows = (0..points * trials)
        .map(|task| {
            let (point, trial) = (task / trials, task % trials);
            let mut rng = trial_rng(experiment, point, trial);
            sample(point, trial, &mut rng, &mut scratch)
        })
        .collect();
    Grid {
        rows,
        points,
        trials,
    }
}

/// `algo`'s multicast tree from `src` to `dests` in `cube` under
/// `port`, with high-to-low dimension resolution.
pub(crate) fn tree(
    algo: Algorithm,
    cube: Cube,
    port: PortModel,
    src: NodeId,
    dests: &[NodeId],
) -> MulticastTree {
    algo.build(cube, Resolution::HighToLow, port, src, dests)
        .expect("valid instance")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercast::PortModel;

    fn steps_metric(
        cube: Cube,
        src: NodeId,
        dests: &[NodeId],
        algo: Algorithm,
        _scratch: &mut EngineScratch,
    ) -> [f64; 1] {
        let t = algo
            .build(
                cube,
                hcube::Resolution::HighToLow,
                PortModel::AllPort,
                src,
                dests,
            )
            .unwrap();
        [f64::from(t.steps)]
    }

    #[test]
    fn sweep_shapes_are_consistent() {
        let r: MatrixResult<1> = run_matrix(
            "test-sweep",
            Cube::of(5),
            &[1, 4, 16],
            10,
            &Algorithm::PAPER,
            steps_metric,
        );
        assert_eq!(r.points, vec![1, 4, 16]);
        assert_eq!(r.cells.len(), 3);
        for row in &r.cells {
            assert_eq!(row.len(), 4);
            for cell in row {
                assert_eq!(cell[0].n, 10);
                assert!(cell[0].mean >= 1.0);
            }
        }
        let series = r.series(0);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].xs, vec![1.0, 4.0, 16.0]);
    }

    #[test]
    fn sweep_is_deterministic() {
        let run = || -> Vec<f64> {
            let r: MatrixResult<1> = run_matrix(
                "det",
                Cube::of(5),
                &[3, 9],
                8,
                &[Algorithm::WSort, Algorithm::UCube],
                steps_metric,
            );
            r.cells
                .iter()
                .flat_map(|row| row.iter().map(|c| c[0].mean))
                .collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_destination_always_one_step() {
        let r: MatrixResult<1> = run_matrix(
            "single",
            Cube::of(4),
            &[1],
            20,
            &Algorithm::PAPER,
            steps_metric,
        );
        for cell in &r.cells[0] {
            assert_eq!(cell[0].mean, 1.0);
            assert_eq!(cell[0].std, 0.0);
        }
    }

    #[test]
    fn grid_samples_are_keyed_by_point_and_trial() {
        use rand::RngCore;
        let mut calls = Vec::new();
        let mut scratches = std::collections::BTreeSet::new();
        let g = grid("grid-keys", 3, 5, |point, trial, rng, scratch| {
            calls.push((point, trial));
            scratches.insert(std::ptr::from_mut(scratch) as usize);
            vec![point as f64, trial as f64, rng.next_u64() as f64]
        });
        let point_major: Vec<(usize, usize)> = (0..3)
            .flat_map(|point| (0..5).map(move |trial| (point, trial)))
            .collect();
        assert_eq!(calls, point_major, "each (point, trial) once, point-major");
        assert_eq!(scratches.len(), 1, "one scratch for every call");
        for point in 0..3 {
            assert_eq!(g.column(point, 0), vec![point as f64; 5]);
            assert_eq!(g.column(point, 1), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
            let keyed: Vec<f64> = (0..5)
                .map(|trial| trial_rng("grid-keys", point, trial).next_u64() as f64)
                .collect();
            assert_eq!(g.column(point, 2), keyed);
        }
    }
}
