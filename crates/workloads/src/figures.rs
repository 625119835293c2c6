//! The experiment behind each of the paper's evaluation figures.
//!
//! | Paper figure | Function | Cube | Metric | Trials/point (paper) |
//! |---|---|---|---|---|
//! | Figure 9  | [`fig09`] | 6-cube  | steps (avg of max) | 100 |
//! | Figure 10 | [`fig10`] | 10-cube | steps (avg of max) | 100 |
//! | Figure 11 | [`fig11_12`].0 | 5-cube  | avg delay, 4 KB | 20 |
//! | Figure 12 | [`fig11_12`].1 | 5-cube  | max delay, 4 KB | 20 |
//! | Figure 13 | [`fig13_14`].0 | 10-cube | avg delay, 4 KB | 100 |
//! | Figure 14 | [`fig13_14`].1 | 10-cube | max delay, 4 KB | 100 |
//!
//! Delay figures replay each tree through the `wormsim` engine with
//! nCUBE-2-calibrated parameters — Figures 11–12 substitute simulation
//! for the paper's hardware measurements (see DESIGN.md §4), Figures
//! 13–14 mirror the paper's own MultiSim runs.

use crate::figure::Figure;
use crate::sweep::{run_matrix, tree, MatrixResult};
use hcube::Cube;
use hypercast::{Algorithm, PortModel};
use wormsim::{MulticastRun, SimParams};

/// Trials per point used by the paper for the step and simulation figures.
pub const PAPER_TRIALS_STEPS: usize = 100;
/// Trials per point used by the paper for the nCUBE-2 measurements.
pub const PAPER_TRIALS_NCUBE: usize = 20;
/// Payload size used by the paper's delay figures.
pub const PAPER_BYTES: u32 = 4096;

/// Destination-set sizes for the 10-cube figures: every power of two and
/// its neighbors (to expose U-cube's staircase) plus an even spread.
#[must_use]
pub fn ten_cube_points() -> Vec<usize> {
    let mut pts = vec![1, 2, 3, 4, 6];
    for k in 3..=9u32 {
        let p = 1usize << k;
        pts.extend([p - 1, p, p + 1, p + p / 2]);
    }
    pts.push(1023);
    pts.sort_unstable();
    pts.dedup();
    pts.retain(|&m| m <= 1023);
    pts
}

fn steps_figure(id: &str, title: &str, n: u8, points: &[usize], trials: usize) -> Figure {
    let m: MatrixResult<1> = run_matrix(
        id,
        Cube::of(n),
        points,
        trials,
        &Algorithm::PAPER,
        |cube, src, dests, algo, _| {
            [f64::from(
                tree(algo, cube, PortModel::AllPort, src, dests).steps,
            )]
        },
    );
    Figure {
        id: id.to_string(),
        title: title.to_string(),
        x_label: "dests".to_string(),
        y_label: "steps (mean of max over destinations)".to_string(),
        series: m.series(0),
    }
}

fn delay_figures(
    id_avg: &str,
    id_max: &str,
    title: &str,
    n: u8,
    points: &[usize],
    trials: usize,
) -> (Figure, Figure) {
    let params = SimParams::ncube2(PortModel::AllPort);
    let m: MatrixResult<2> = run_matrix(
        id_avg, // one experiment keys both figures: same destination sets
        Cube::of(n),
        points,
        trials,
        &Algorithm::PAPER,
        |cube, src, dests, algo, scratch| {
            let t = tree(algo, cube, PortModel::AllPort, src, dests);
            let r = MulticastRun::new(&t, &params, PAPER_BYTES)
                .scratch(scratch)
                .run();
            [r.avg_delay.as_ms(), r.max_delay.as_ms()]
        },
    );
    let avg = Figure {
        id: id_avg.to_string(),
        title: format!("{title} — average delay among destinations"),
        x_label: "dests".to_string(),
        y_label: "avg delay (ms), 4096-byte message".to_string(),
        series: m.series(0),
    };
    let max = Figure {
        id: id_max.to_string(),
        title: format!("{title} — maximum delay among destinations"),
        x_label: "dests".to_string(),
        y_label: "max delay (ms), 4096-byte message".to_string(),
        series: m.series(1),
    };
    (avg, max)
}

/// Figure 9: stepwise comparisons on a 6-cube (all-port), m = 1..63.
#[must_use]
pub fn fig09(trials: usize) -> Figure {
    let points: Vec<usize> = (1..=63).collect();
    steps_figure(
        "fig09",
        "Stepwise comparisons on a 6-cube",
        6,
        &points,
        trials,
    )
}

/// Figure 10: stepwise comparisons on a 10-cube (all-port), sampled m.
#[must_use]
pub fn fig10(trials: usize) -> Figure {
    steps_figure(
        "fig10",
        "Stepwise comparisons on a 10-cube",
        10,
        &ten_cube_points(),
        trials,
    )
}

/// Figures 11 and 12: average and maximum delay on a 5-cube with
/// 4096-byte messages (simulated stand-in for the paper's nCUBE-2
/// measurements).
#[must_use]
pub fn fig11_12(trials: usize) -> (Figure, Figure) {
    let points: Vec<usize> = (1..=31).collect();
    delay_figures(
        "fig11",
        "fig12",
        "Delay comparisons on a 5-cube (nCUBE-2 parameters)",
        5,
        &points,
        trials,
    )
}

/// Figures 13 and 14: average and maximum delay on a 10-cube with
/// 4096-byte messages (large-system simulation).
#[must_use]
pub fn fig13_14(trials: usize) -> (Figure, Figure) {
    delay_figures(
        "fig13",
        "fig14",
        "Delay comparisons on a 10-cube (simulation)",
        10,
        &ten_cube_points(),
        trials,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_by<'f>(f: &'f Figure, name: &str) -> &'f crate::figure::Series {
        f.series.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn fig09_shape_holds_at_low_trial_count() {
        let f = fig09(5);
        assert_eq!(f.series.len(), 4);
        assert_eq!(f.series[0].xs.len(), 63);
        let ucube = series_by(&f, "U-cube");
        let wsort = series_by(&f, "W-sort");
        // W-sort never above U-cube on average, strictly below somewhere.
        let mut strictly = false;
        for i in 0..63 {
            assert!(wsort.ys[i] <= ucube.ys[i] + 1e-9, "at m={}", i + 1);
            strictly |= wsort.ys[i] < ucube.ys[i] - 1e-9;
        }
        assert!(strictly, "W-sort must beat U-cube somewhere");
        // U-cube's staircase: one-port-optimal ⌈log₂(m+1)⌉ is exceeded or
        // met; at m=63 U-cube needs ≥ 6 steps in expectation… check the
        // envelope instead: means are within [bound, n].
        for (i, &y) in ucube.ys.iter().enumerate() {
            let m = i + 1;
            assert!(y >= f64::from(hypercast::bounds::all_port_lower_bound(6, m)));
            assert!(y <= 7.0);
        }
    }

    #[test]
    fn ten_cube_points_cover_staircase_edges() {
        let pts = ten_cube_points();
        for k in [7usize, 8, 15, 16, 31, 32, 255, 256, 511, 512, 1023] {
            assert!(pts.contains(&k), "missing {k}");
        }
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert!(*pts.last().unwrap() == 1023);
    }

    #[test]
    fn fig11_12_quick_run_orders_algorithms() {
        let (avg, max) = fig11_12(3);
        assert_eq!(avg.series.len(), 4);
        let u_avg = series_by(&avg, "U-cube");
        let w_avg = series_by(&avg, "W-sort");
        // At an intermediate set size (m = 20) the multiport algorithms
        // must be clearly faster than U-cube.
        assert!(w_avg.ys[19] < u_avg.ys[19]);
        let u_max = series_by(&max, "U-cube");
        let w_max = series_by(&max, "W-sort");
        assert!(w_max.ys[19] < u_max.ys[19]);
        // At full broadcast (m = 31) every algorithm builds the same
        // spanning binomial tree: identical delays.
        for s in &avg.series {
            assert!((s.ys[30] - u_avg.ys[30]).abs() < 1e-9, "{}", s.name);
        }
        // The paper's Figure 11 anomaly: U-cube's average delay for an
        // intermediate multicast exceeds its full-broadcast delay because
        // it forces multiple messages out one channel.
        assert!(u_avg.ys[19] > u_avg.ys[30]);
        // Delays are in a plausible nCUBE-2 range (single transfer ≈ 2 ms,
        // staircases of a few steps ⇒ single-digit ms).
        assert!(w_max.ys[19] > 1.0 && w_max.ys[19] < 20.0);
    }
}
