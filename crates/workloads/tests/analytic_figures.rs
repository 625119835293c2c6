//! Theorem 3 on the figure workload: the Figure 11–14 replays, checked
//! tree by tree against the analytic replay's decision.
//!
//! Every tree the Definition-4 checker calls contention-free must take
//! the analytic path, the three algorithms with a contention-freedom
//! guarantee (Maxport, Combine, W-sort) must never fall back to the
//! engine, and every accepted report must equal the engine's.

use hcube::{Cube, Resolution};
use hypercast::contention::is_contention_free;
use hypercast::{Algorithm, MulticastTree};
use std::sync::Mutex;
use workloads::figures::{ten_cube_points, PAPER_BYTES, PAPER_TRIALS_NCUBE, PAPER_TRIALS_STEPS};
use workloads::sweep::run_matrix_with_workers;
use wormsim::{MulticastRun, NoopProbe, SimParams};

/// Counts over one replay of the delay figures.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    trees: u64,
    /// Trees the Definition-4 checker accepts (counted only when asked:
    /// the checker is quadratic in the tree size).
    contention_free: u64,
    declined: u64,
    /// Declined trees with a Definition-4 witness.
    declined_with_witness: u64,
    /// Declined trees on which the engine reports channel blocking.
    declined_with_blocks: u64,
    /// Trees whose worms queue at a sender's port (`port_waits > 0`):
    /// contention-freedom keeps worms apart in the network, not at the
    /// port they leave by.
    port_waiting: u64,
}

/// Replays the Figure 11–12 (5-cube) and 13–14 (10-cube) instances
/// through `MulticastRun::scratch`, exactly as the figures
/// do, and tallies the analytic replay's decisions.
fn replay_figures(five_trials: usize, ten_trials: usize, count_free: bool) -> Tally {
    let tally = Mutex::new(Tally::default());
    let params = SimParams::ncube2(hypercast::PortModel::AllPort);
    let five: Vec<usize> = (1..=31).collect();
    let ten = ten_cube_points();
    for (id, n, points, trials) in [
        ("fig11", 5u8, &five, five_trials),
        ("fig13", 10, &ten, ten_trials),
    ] {
        run_matrix_with_workers(
            id,
            Cube::of(n),
            points,
            trials,
            &Algorithm::PAPER,
            1,
            |cube, src, dests, algo, scratch| {
                let tree = algo
                    .build(cube, Resolution::HighToLow, params.port_model, src, dests)
                    .unwrap();
                let before = scratch.analytic().declined();
                let report = MulticastRun::new(&tree, &params, PAPER_BYTES)
                    .scratch(scratch)
                    .run();
                let declined = scratch.analytic().declined() > before;
                let mut t = tally.lock().unwrap();
                t.trees += 1;
                t.port_waiting += u64::from(report.stats.port_waits > 0);
                if declined {
                    assert_eq!(algo, Algorithm::UCube, "{algo} declined on {dests:?}");
                    assert!(
                        !is_contention_free(&tree),
                        "a contention-free tree declined: {dests:?}"
                    );
                    t.declined += 1;
                    t.declined_with_witness += 1;
                    t.declined_with_blocks += u64::from(report.blocks > 0);
                } else {
                    assert_eq!(format!("{report:?}"), engine_debug(&tree, &params));
                }
                if count_free && is_contention_free(&tree) {
                    t.contention_free += 1;
                }
                [0.0]
            },
        );
    }
    tally.into_inner().unwrap()
}

/// The engine's report for `tree`, formatted: the observed entry point
/// always runs the engine.
fn engine_debug(tree: &MulticastTree, params: &SimParams) -> String {
    let report = MulticastRun::new(tree, params, PAPER_BYTES)
        .probe(&mut NoopProbe)
        .run();
    format!("{report:?}")
}

#[test]
fn figure_trees_that_are_contention_free_take_the_analytic_path() {
    let t = replay_figures(1, 1, false);
    assert_eq!(t.trees, 4 * (31 + ten_cube_points().len() as u64));
    assert!(t.declined < t.trees / 10, "{t:?}");
}

/// The paper-trial counts recorded in EXPERIMENTS.md. The
/// Definition-4 checker runs on every 10-cube tree, so run it in
/// release.
#[test]
#[ignore = "paper trial counts; about 15 s in release"]
fn figure_decline_counts_at_paper_trials() {
    let t = replay_figures(PAPER_TRIALS_NCUBE, PAPER_TRIALS_STEPS, true);
    assert_eq!(
        t,
        Tally {
            trees: 16_080,
            contention_free: 15_863,
            declined: 199,
            declined_with_witness: 199,
            declined_with_blocks: 180,
            port_waiting: 6_099,
        }
    );
}
