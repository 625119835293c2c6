//! Generic parallel parameter sweeps.
//!
//! A sweep evaluates a metric function over (point × trial × algorithm),
//! with the *same* randomly drawn destination set shared by all
//! algorithms within a trial (paired comparison, as in the paper), and
//! aggregates per-(point, algorithm) summaries. Trials run on the
//! workspace's one worker pool, [`wormsim::run_trials`]; results are
//! deterministic because every trial's RNG is keyed by (experiment,
//! point, trial) and the pool returns results in trial order.
//!
//! Every worker owns one [`wormsim::EngineScratch`] handed to the
//! metric on each call, so metrics that replay trees through the engine
//! reuse the worker's event heap, channel table, and route memo instead
//! of reallocating per trial. Scratch reuse is byte-invisible (the
//! engine's contract), so the summaries remain independent of how tasks
//! land on workers.

use crate::destsets::{random_dests, trial_rng};
use crate::stats::Summary;
use hcube::{Cube, NodeId};
use hypercast::Algorithm;
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
    pub fn series(&self, k: usize) -> Vec<crate::figure::Series> {
        assert!(k < K);
        self.algos
            .iter()
            .enumerate()
            .map(|(ai, algo)| crate::figure::Series {
                name: algo.name().to_string(),
                xs: self.points.iter().map(|&m| m as f64).collect(),
                ys: self.cells.iter().map(|row| row[ai][k].mean).collect(),
                std: self.cells.iter().map(|row| row[ai][k].std).collect(),
            })
            .collect()
    }
}

/// Runs the sweep. For every point `m` and trial, draws a destination set
/// and evaluates `metric(cube, source, dests, algo, scratch) -> [f64; K]`
/// for each algorithm. The scratch is the calling worker's reusable
/// engine arena — pass it to
/// [`wormsim::MulticastRun::scratch`] (or ignore it for
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
    metric: F,
) -> MatrixResult<K>
where
    F: Fn(Cube, NodeId, &[NodeId], Algorithm, &mut EngineScratch) -> [f64; K] + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(32);
    run_matrix_with_workers(experiment, cube, points, trials, algos, workers, metric)
}

/// [`run_matrix`] with an explicit worker-thread count.
///
/// The result is independent of `workers`: every (point, trial) cell is
/// keyed by its own deterministic RNG and written into a pre-indexed
/// slot, so scheduling order cannot leak into the aggregates. The
/// determinism regression suite runs the same sweep at several worker
/// counts and asserts identical output.
///
/// # Panics
/// If `workers == 0`.
pub fn run_matrix_with_workers<const K: usize, F>(
    experiment: &str,
    cube: Cube,
    points: &[usize],
    trials: usize,
    algos: &[Algorithm],
    workers: usize,
    metric: F,
) -> MatrixResult<K>
where
    F: Fn(Cube, NodeId, &[NodeId], Algorithm, &mut EngineScratch) -> [f64; K] + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let source = NodeId(0);
    // One task per (point, trial), in point-major order; the pool
    // returns every task's per-algorithm row in task order.
    let rows: Vec<Vec<[f64; K]>> =
        wormsim::run_trials(workers, points.len() * trials, |task, scratch| {
            let (point, trial) = (task / trials, task % trials);
            let mut rng = trial_rng(experiment, point, trial);
            let dests = random_dests(&mut rng, cube, source, points[point]);
            algos
                .iter()
                .map(|&algo| metric(cube, source, &dests, algo, scratch))
                .collect()
        });
    // samples[algo][k][trial] per point, trial-indexed, so the
    // floating-point aggregation order is independent of scheduling.
    let cells = (0..points.len())
        .map(|point| {
            let point_rows = &rows[point * trials..(point + 1) * trials];
            (0..algos.len())
                .map(|ai| {
                    std::array::from_fn(|k| {
                        let samples: Vec<f64> = point_rows.iter().map(|row| row[ai][k]).collect();
                        Summary::of(&samples)
                    })
                })
                .collect()
        })
        .collect();
    MatrixResult {
        points: points.to_vec(),
        algos: algos.to_vec(),
        cells,
    }
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
}
