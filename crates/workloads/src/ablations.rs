//! Ablation experiments beyond the paper's figures (extensions flagged in
//! DESIGN.md §6): port-model impact, message-size sweeps, parameter
//! sensitivity, optimality gaps, and U-cube's all-port contention rate.
//! Every trial-based ablation runs on the paired-trial grid of
//! [`crate::sweep`].

use crate::destsets::random_dests;
use crate::figure::{Figure, Series};
use crate::sweep::{grid, run_matrix, tree, MatrixResult};
use hcube::{Cube, Ecube, NodeId, Resolution};
use hypercast::bounds::min_steps_port_limited;
use hypercast::contention::contention_witnesses;
use hypercast::{Algorithm, PortModel};
use rand::rngs::StdRng;
use rand::Rng;
use wormsim::{DepMessage, EngineScratch, MulticastRun, SimParams, SimTime};

/// `k` uniformly random (source, destination) pairs of distinct nodes.
fn random_pairs(rng: &mut StdRng, cube: Cube, k: usize) -> Vec<(NodeId, NodeId)> {
    let nodes = cube.node_count() as u32;
    let pair = |_| {
        let src = NodeId(rng.gen_range(0..nodes));
        let mut dst = src;
        while dst == src {
            dst = NodeId(rng.gen_range(0..nodes));
        }
        (src, dst)
    };
    (0..k).map(pair).collect()
}

/// One independent unicast of `bytes` per pair, all released at zero.
fn unicasts(pairs: &[(NodeId, NodeId)], bytes: u32) -> Vec<DepMessage> {
    let unicast = |&(src, dst)| DepMessage {
        src,
        dst,
        bytes,
        deps: Vec::new(),
        min_start: SimTime::ZERO,
    };
    pairs.iter().map(unicast).collect()
}

/// Max delay (ms) of `tree` replayed with a `bytes` payload in `scratch`.
fn max_delay_ms(
    tree: &hypercast::MulticastTree,
    params: &SimParams,
    bytes: u32,
    scratch: &mut EngineScratch,
) -> f64 {
    MulticastRun::new(tree, params, bytes)
        .scratch(scratch)
        .run()
        .max_delay
        .as_ms()
}

/// Port-model ablation: W-sort and U-cube maximum delay on a 5-cube under
/// one-port vs all-port nodes. Quantifies how much of the paper's win
/// comes from the architecture vs the algorithm.
#[must_use]
pub fn ablation_ports(trials: usize) -> Figure {
    let points: Vec<usize> = (1..=31).collect();
    let cube = Cube::of(5);
    let mut series = Vec::new();
    for (algo, port) in [
        (Algorithm::UCube, PortModel::OnePort),
        (Algorithm::UCube, PortModel::AllPort),
        (Algorithm::WSort, PortModel::OnePort),
        (Algorithm::WSort, PortModel::AllPort),
    ] {
        let params = SimParams::ncube2(port);
        let m: MatrixResult<1> = run_matrix(
            &format!("ablation_ports/{}/{}", algo.name(), port.label()),
            cube,
            &points,
            trials,
            &[algo],
            move |cube, src, dests, algo, scratch: &mut EngineScratch| {
                let t = tree(algo, cube, port, src, dests);
                [max_delay_ms(&t, &params, 4096, scratch)]
            },
        );
        let mut s = m.series(0).remove(0);
        s.name = format!("{} {}", algo.name(), port.label());
        series.push(s);
    }
    Figure {
        id: "ablation_ports".into(),
        title: "Port-model ablation: one-port vs all-port, 5-cube".into(),
        x_label: "dests".into(),
        y_label: "max delay (ms), 4096-byte message".into(),
        series,
    }
}

/// Message-size ablation: maximum delay vs payload size for a fixed
/// 16-destination multicast in a 6-cube. The paper fixes 4 KB; this shows
/// where the startup-dominated and bandwidth-dominated regimes lie.
#[must_use]
pub fn ablation_message_size(trials: usize) -> Figure {
    let sizes: Vec<usize> = (6..=15).map(|k| 1usize << k).collect(); // 64 B .. 32 KB
    let cube = Cube::of(6);
    let params = SimParams::ncube2(PortModel::AllPort);
    // The x-axis is payload size: every point draws its own per-trial
    // 16-destination sets.
    let samples = grid(
        "ablation_msgsize",
        sizes.len(),
        trials,
        |pi, _, rng, scratch| {
            let dests = random_dests(rng, cube, NodeId(0), 16);
            Algorithm::PAPER
                .iter()
                .map(|&algo| {
                    let t = tree(algo, cube, PortModel::AllPort, NodeId(0), &dests);
                    max_delay_ms(&t, &params, sizes[pi] as u32, scratch)
                })
                .collect()
        },
    );
    let xs: Vec<f64> = sizes.iter().map(|&b| b as f64).collect();
    Figure {
        id: "ablation_msgsize".into(),
        title: "Message-size ablation: 16 destinations in a 6-cube".into(),
        x_label: "bytes".into(),
        y_label: "max delay (ms)".into(),
        series: samples.columns(Algorithm::PAPER.map(|a| a.name()), &xs),
    }
}

/// Parameter-sensitivity ablation: U-cube vs W-sort max delay under
/// nCUBE-2 constants and under a hypothetical low-startup, 10×-bandwidth
/// network. The algorithms' ranking should persist; the gap shrinks as
/// transfer time stops dominating.
#[must_use]
pub fn ablation_sensitivity(trials: usize) -> Figure {
    let points: Vec<usize> = vec![1, 2, 4, 8, 12, 16, 20, 24, 28, 31];
    let cube = Cube::of(5);
    let mut series = Vec::new();
    for (label, params) in [
        ("nCUBE-2", SimParams::ncube2(PortModel::AllPort)),
        ("fast-net", SimParams::fast_net(PortModel::AllPort)),
    ] {
        let m: MatrixResult<2> = run_matrix(
            &format!("ablation_sensitivity/{label}"),
            cube,
            &points,
            trials,
            &[Algorithm::UCube, Algorithm::WSort],
            move |cube, src, dests, algo, scratch: &mut EngineScratch| {
                let t = tree(algo, cube, PortModel::AllPort, src, dests);
                let r = MulticastRun::new(&t, &params, 4096).scratch(scratch).run();
                [r.max_delay.as_ms(), r.avg_delay.as_ms()]
            },
        );
        for mut s in m.series(0) {
            s.name = format!("{} ({label})", s.name);
            series.push(s);
        }
    }
    Figure {
        id: "ablation_sensitivity".into(),
        title: "Startup/bandwidth sensitivity: 5-cube, 4 KB".into(),
        x_label: "dests".into(),
        y_label: "max delay (ms)".into(),
        series,
    }
}

/// Optimality-gap ablation: mean steps of each heuristic vs the exact
/// port-limited optimum on small all-port instances (6-cube, m ≤ 8).
#[must_use]
pub fn ablation_optimality(trials: usize) -> Figure {
    let points: Vec<usize> = (1..=8).collect();
    let cube = Cube::of(6);
    // Columns: each paper algorithm's steps, then the exact optimum.
    let samples = grid(
        "ablation_optimality",
        points.len(),
        trials,
        |pi, _, rng, _| {
            let dests = random_dests(rng, cube, NodeId(0), points[pi]);
            let optimum = min_steps_port_limited(
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests,
            )
            .expect("small instance");
            Algorithm::PAPER
                .iter()
                .map(|&algo| tree(algo, cube, PortModel::AllPort, NodeId(0), &dests).steps)
                .chain([optimum])
                .map(f64::from)
                .collect()
        },
    );
    let xs: Vec<f64> = points.iter().map(|&m| m as f64).collect();
    let names = Algorithm::PAPER.iter().map(|a| a.name()).chain(["optimal"]);
    Figure {
        id: "ablation_optimality".into(),
        title: "Optimality gap vs exact port-limited optimum (6-cube, m ≤ 8)".into(),
        x_label: "dests".into(),
        y_label: "steps (mean)".into(),
        series: samples.columns(names, &xs),
    }
}

/// Contention-rate ablation: how often U-cube's all-port schedule
/// violates Definition 4, and the channel blocking the simulator actually
/// observes, vs destination count in an 8-cube. The contention-free
/// algorithms sit at exactly zero.
#[must_use]
pub fn ablation_contention(trials: usize) -> Figure {
    let points: Vec<usize> = vec![8, 16, 32, 48, 64, 96, 128, 192, 255];
    let cube = Cube::of(8);
    let params = SimParams::ncube2(PortModel::AllPort);
    let m: MatrixResult<2> = run_matrix(
        "ablation_contention",
        cube,
        &points,
        trials,
        &[Algorithm::UCube, Algorithm::Combine, Algorithm::WSort],
        move |cube, src, dests, algo, scratch: &mut EngineScratch| {
            let t = tree(algo, cube, PortModel::AllPort, src, dests);
            let witnesses = contention_witnesses(&t).len();
            let blocks = MulticastRun::new(&t, &params, 4096)
                .scratch(scratch)
                .run()
                .blocks as f64;
            [if witnesses > 0 { 1.0 } else { 0.0 }, blocks]
        },
    );
    let mut series = Vec::new();
    for (k, label) in [(0, "contention incidence"), (1, "sim blocks")] {
        for mut s in m.series(k) {
            s.name = format!("{} {label}", s.name);
            series.push(s);
        }
    }
    Figure {
        id: "ablation_contention".into(),
        title: "Definition-4 violations and observed blocking (8-cube)".into(),
        x_label: "dests".into(),
        y_label: "rate / count".into(),
        series,
    }
}

/// Background-load ablation: a W-sort vs U-cube multicast (40
/// destinations in an 8-cube) while `k` random background unicasts (4 KB)
/// cross the network, all injected at time zero. Even a contention-free
/// schedule must share channels with unrelated traffic; this measures the
/// degradation.
#[must_use]
pub fn ablation_background_load(trials: usize) -> Figure {
    use wormsim::{multicast_workload, Run};
    let loads: Vec<usize> = vec![0, 8, 16, 32, 64, 128, 256];
    let cube = Cube::of(8);
    let params = SimParams::ncube2(PortModel::AllPort);
    let algos = [Algorithm::UCube, Algorithm::WSort];
    let samples = grid("ablation_load", loads.len(), trials, |pi, _, rng, _| {
        let dests = random_dests(rng, cube, NodeId(0), 40);
        let background = unicasts(&random_pairs(rng, cube, loads[pi]), 4096);
        algos
            .iter()
            .map(|&algo| {
                // The tree's dependency workload first, then the background.
                let tree = tree(algo, cube, PortModel::AllPort, NodeId(0), &dests);
                let mut workload = multicast_workload(&tree, 4096);
                let tree_len = workload.len();
                workload.extend(background.iter().cloned());
                let run = Run::new(Ecube::new(cube, Resolution::HighToLow), &params, &workload)
                    .run()
                    .expect("well-formed workload");
                run.messages[..tree_len]
                    .iter()
                    .map(|m| m.delivered)
                    .max()
                    .unwrap_or(SimTime::ZERO)
                    .as_ms()
            })
            .collect()
    });
    let xs: Vec<f64> = loads.iter().map(|&k| k as f64).collect();
    Figure {
        id: "ablation_load".into(),
        title: "Multicast under background traffic (8-cube, 40 dests, 4 KB)".into(),
        x_label: "background unicasts".into(),
        y_label: "multicast max delay (ms)".into(),
        series: samples.columns(algos.map(|a| a.name()), &xs),
    }
}

/// Pipelining ablation: chunked broadcast delay vs chunk count for small
/// and large payloads (extension: the paper's algorithms send the payload
/// monolithically; pipelined trees trade per-message startup for overlap).
#[must_use]
pub fn ablation_pipelining() -> Figure {
    use hypercast::collectives::{broadcast, chunked_multicast};
    use wormsim::simulate_collective;
    let chunk_counts: Vec<usize> = vec![1, 2, 4, 8, 16, 32];
    let cube = Cube::of(8);
    let params = SimParams::ncube2(PortModel::AllPort);
    let tree = broadcast(
        Algorithm::WSort,
        cube,
        Resolution::HighToLow,
        PortModel::AllPort,
        NodeId(0),
    )
    .expect("broadcast");
    let mut series = Vec::new();
    for &bytes in &[4096u32, 65536] {
        let mut s = Series {
            name: format!("{} KB payload", bytes / 1024),
            xs: chunk_counts.iter().map(|&c| c as f64).collect(),
            ys: Vec::new(),
            std: Vec::new(),
        };
        for &c in &chunk_counts {
            let sched = chunked_multicast(&tree, bytes, c as u32).expect("small chunks");
            let r = simulate_collective(&sched, Ecube::new(cube, Resolution::HighToLow), &params);
            s.ys.push(r.max_delay.as_ms());
            s.std.push(0.0); // deterministic: fixed tree, no trials
        }
        series.push(s);
    }
    Figure {
        id: "ablation_pipelining".into(),
        title: "Chunked pipelined broadcast (8-cube, W-sort tree)".into(),
        x_label: "chunks".into(),
        y_label: "broadcast max delay (ms)".into(),
        series,
    }
}

/// Scatter (personalized communication) ablation: per-algorithm max delay
/// of delivering a distinct 1 KB block to each of m destinations in a
/// 6-cube, including the separate-addressing baseline (which, for
/// scatter, carries no forwarding inflation).
#[must_use]
pub fn ablation_scatter(trials: usize) -> Figure {
    use hypercast::collectives::scatter;
    use wormsim::simulate_collective;
    let points: Vec<usize> = vec![1, 2, 4, 8, 16, 24, 32, 48, 63];
    let cube = Cube::of(6);
    let params = SimParams::ncube2(PortModel::AllPort);
    let algos = [
        Algorithm::UCube,
        Algorithm::Maxport,
        Algorithm::Combine,
        Algorithm::WSort,
        Algorithm::Separate,
    ];
    let m: MatrixResult<1> = run_matrix(
        "ablation_scatter",
        cube,
        &points,
        trials,
        &algos,
        move |cube, src, dests, algo, _scratch| {
            let tree = tree(algo, cube, PortModel::AllPort, src, dests);
            let sched = scatter(&tree, 1024).expect("a 6-cube's blocks fit");
            [
                simulate_collective(&sched, Ecube::new(cube, Resolution::HighToLow), &params)
                    .max_delay
                    .as_ms(),
            ]
        },
    );
    Figure {
        id: "ablation_scatter".into(),
        title: "Personalized communication (scatter), 1 KB blocks, 6-cube".into(),
        x_label: "dests".into(),
        y_label: "max delay (ms)".into(),
        series: m.series(0),
    }
}

/// Machine-scaling ablation: max delay of U-cube vs W-sort as the cube
/// grows from 4 to 10 dimensions, with the destination count fixed at a
/// quarter of the machine. With density held constant the *ratio* stays
/// roughly constant (~1.4×) while the *absolute* savings grow with
/// machine size — the per-figure W-sort-vs-Maxport separation of Figures
/// 13–14 is the effect that strengthens with scale.
#[must_use]
pub fn ablation_scaling(trials: usize) -> Figure {
    let dims: Vec<u8> = (4..=10).collect();
    let params = SimParams::ncube2(PortModel::AllPort);
    let algos = [Algorithm::UCube, Algorithm::WSort];
    let samples = grid(
        "ablation_scaling",
        dims.len(),
        trials,
        |pi, _, rng, scratch| {
            let cube = Cube::of(dims[pi]);
            let dests = random_dests(rng, cube, NodeId(0), cube.node_count() / 4);
            algos
                .iter()
                .map(|&algo| {
                    let t = tree(algo, cube, PortModel::AllPort, NodeId(0), &dests);
                    max_delay_ms(&t, &params, 4096, scratch)
                })
                .collect()
        },
    );
    let xs: Vec<f64> = dims.iter().map(|&n| f64::from(n)).collect();
    let mut series = samples.columns(algos.map(|a| a.name()), &xs);
    // The ratio of the means; a ratio has no per-trial spread.
    let ratio = series[0].ys.iter().zip(&series[1].ys).map(|(u, w)| u / w);
    series.push(Series {
        name: "U-cube / W-sort".into(),
        xs: xs.clone(),
        ys: ratio.collect(),
        std: vec![0.0; xs.len()],
    });
    Figure {
        id: "ablation_scaling".into(),
        title: "Scaling: max delay with m = N/4 destinations, 4 KB".into(),
        x_label: "cube dimension".into(),
        y_label: "max delay (ms) / ratio".into(),
        series,
    }
}

/// Concurrency ablation: k simultaneous W-sort multicasts (random sources,
/// 20 destinations each, 8-cube): per-operation contention-freedom does
/// not compose, and the observed cross-operation blocking quantifies it.
#[must_use]
pub fn ablation_concurrency(trials: usize) -> Figure {
    use wormsim::simulate_concurrent_multicasts;
    let counts: Vec<usize> = vec![1, 2, 4, 8, 16];
    let cube = Cube::of(8);
    let params = SimParams::ncube2(PortModel::AllPort);
    let samples = grid(
        "ablation_concurrency",
        counts.len(),
        trials,
        |pi, _, rng, _| {
            let trees: Vec<_> = (0..counts[pi])
                .map(|_| {
                    let src = NodeId(rng.gen_range(0..cube.node_count() as u32));
                    let dests = random_dests(rng, cube, src, 20);
                    tree(Algorithm::WSort, cube, PortModel::AllPort, src, &dests)
                })
                .collect();
            let refs: Vec<&hypercast::MulticastTree> = trees.iter().collect();
            let reports = simulate_concurrent_multicasts(&refs, &params, 4096);
            let ops = reports.trees.len() as f64;
            let mean_delay = reports
                .trees
                .iter()
                .map(|r| r.max_delay.as_ms())
                .sum::<f64>()
                / ops;
            let mean_blocks = reports.trees.iter().map(|r| r.blocks as f64).sum::<f64>() / ops;
            vec![mean_delay, mean_blocks]
        },
    );
    let xs: Vec<f64> = counts.iter().map(|&k| k as f64).collect();
    Figure {
        id: "ablation_concurrency".into(),
        title: "Concurrent W-sort multicasts (8-cube, 20 dests each, 4 KB)".into(),
        x_label: "concurrent operations".into(),
        y_label: "ms / blocking events".into(),
        series: samples.columns(["mean op max-delay", "mean blocks per op"], &xs),
    }
}

/// Model-fidelity ablation: how conservative is the channel-holding
/// event model vs the exact flit-level model? Random same-time unicast
/// batches at increasing intensity; y = mean makespan overestimate of the
/// event model (%). Zero when traffic is contention-free.
#[must_use]
pub fn ablation_model_fidelity(trials: usize) -> Figure {
    use wormsim::{simulate_flits, FlitMessage, Run};
    let batch_sizes: Vec<usize> = vec![1, 2, 4, 8, 16, 32];
    let cube = Cube::of(5);
    let router = Ecube::new(cube, Resolution::HighToLow);
    let flits = 64u32;
    let cycle_params = wormsim::SimParams {
        t_send_sw: SimTime::ZERO,
        t_recv_sw: SimTime::ZERO,
        t_hop: SimTime::from_ns(1),
        t_byte: SimTime::from_ns(1),
        port_model: PortModel::AllPort,
        cpu_serialized_startup: false,
    };
    let samples = grid(
        "ablation_fidelity",
        batch_sizes.len(),
        trials,
        |pi, _, rng, _| {
            let pairs = random_pairs(rng, cube, batch_sizes[pi]);
            let flit_w: Vec<FlitMessage> = pairs
                .iter()
                .map(|&(s, d)| FlitMessage {
                    src: s,
                    dst: d,
                    flits,
                    start_cycle: 0,
                })
                .collect();
            let er = Run::new(router, &cycle_params, &unicasts(&pairs, flits))
                .run()
                .expect("well-formed workload");
            let fr = simulate_flits(router, &flit_w);
            let em = er.stats.makespan.as_ns() as f64;
            let fm = fr.iter().map(|f| f.delivered_cycle + 1).max().unwrap() as f64;
            let contended = if er.stats.blocks > 0 { 1.0 } else { 0.0 };
            vec![(em - fm) / fm * 100.0, contended]
        },
    );
    let xs: Vec<f64> = batch_sizes.iter().map(|&k| k as f64).collect();
    let mut series = samples.columns(["event-model makespan overestimate (%)"], &xs);
    // A share of trials, not a per-trial mean: no spread.
    let contended = |pi| samples.column(pi, 1).iter().filter(|&&c| c > 0.0).count() as f64;
    series.push(Series {
        name: "trials with contention (%)".into(),
        xs: xs.clone(),
        ys: (0..xs.len())
            .map(|pi| contended(pi) / trials as f64 * 100.0)
            .collect(),
        std: vec![0.0; xs.len()],
    });
    Figure {
        id: "ablation_fidelity".into(),
        title: "Event model vs flit-level model (5-cube, 64-flit worms)".into(),
        x_label: "simultaneous unicasts".into(),
        y_label: "percent".into(),
        series,
    }
}

/// k-port ablation (steps): how many internal channel pairs does a node
/// need before the all-port advantage saturates? W-sort/Maxport/U-cube
/// scheduled under `KPort(k)` for k = 1..n on an 8-cube with 64 random
/// destinations.
#[must_use]
pub fn ablation_kport(trials: usize) -> Figure {
    let cube = Cube::of(8);
    let ks: Vec<usize> = (1..=8).collect();
    let algos = [Algorithm::UCube, Algorithm::Maxport, Algorithm::WSort];
    // Paired design: one point whose columns are algorithm × k, so the
    // same destination set serves every k and the per-instance
    // monotonicity of k-port scheduling carries over to the means.
    let samples = grid("ablation_kport", 1, trials, |_, _, rng, _| {
        let dests = random_dests(rng, cube, NodeId(0), 64);
        let mut row = Vec::with_capacity(algos.len() * ks.len());
        for &algo in &algos {
            for &k in &ks {
                let port = PortModel::KPort(k as u8);
                row.push(f64::from(tree(algo, cube, port, NodeId(0), &dests).steps));
            }
        }
        row
    });
    let xs: Vec<f64> = ks.iter().map(|&k| k as f64).collect();
    let series = samples.point_series(0, &algos.map(|a| a.name()), &xs);
    Figure {
        id: "ablation_kport".into(),
        title: "k-port ablation: steps vs internal channel pairs (8-cube, 64 dests)".into(),
        x_label: "ports (k)".into(),
        y_label: "steps (mean)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_ablation_orders_architectures() {
        let f = ablation_ports(3);
        assert_eq!(f.series.len(), 4);
        let get = |name: &str| -> &Series { f.series.iter().find(|s| s.name == name).unwrap() };
        let w_one = get("W-sort one-port");
        let w_all = get("W-sort all-port");
        // At an intermediate multicast size, all-port must beat one-port.
        // (At full broadcast both equal the binomial tree's 5 transfer
        // generations, a classic equality.)
        assert!(w_all.ys[19] < w_one.ys[19]);
    }

    #[test]
    fn message_size_ablation_is_monotone() {
        let f = ablation_message_size(2);
        for s in &f.series {
            for w in s.ys.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "{}: delay must grow with size", s.name);
            }
        }
    }

    #[test]
    fn optimality_ablation_brackets_heuristics() {
        let f = ablation_optimality(3);
        let opt = f.series.iter().find(|s| s.name == "optimal").unwrap();
        for s in &f.series {
            if s.name == "optimal" {
                continue;
            }
            for i in 0..opt.ys.len() {
                assert!(
                    s.ys[i] >= opt.ys[i] - 1e-9,
                    "{} below the optimum at point {i}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn background_load_degrades_delay_monotonically_at_extremes() {
        let f = ablation_background_load(2);
        for s in &f.series {
            let first = s.ys[0];
            let last = *s.ys.last().unwrap();
            assert!(
                last > first,
                "{}: load must hurt ({first} → {last})",
                s.name
            );
        }
    }

    #[test]
    fn pipelining_sweet_spot_exists_for_large_payloads() {
        let f = ablation_pipelining();
        let big = f.series.iter().find(|s| s.name.starts_with("64")).unwrap();
        // Some chunk count beats no chunking for 64 KB.
        let unchunked = big.ys[0];
        assert!(big.ys.iter().skip(1).any(|&y| y < unchunked));
    }

    #[test]
    fn scatter_ablation_runs_and_separate_is_competitive() {
        let f = ablation_scatter(2);
        let sep = f.series.iter().find(|s| s.name == "Separate").unwrap();
        let ucube = f.series.iter().find(|s| s.name == "U-cube").unwrap();
        // At the largest m, direct sends avoid forwarding whole subtree
        // payloads; separate addressing must not be the worst by far.
        let last = f.series[0].ys.len() - 1;
        assert!(sep.ys[last] < ucube.ys[last] * 3.0);
        for s in &f.series {
            assert!(s.ys.iter().all(|&y| y > 0.0));
        }
    }

    #[test]
    fn scaling_keeps_the_advantage_and_grows_absolute_savings() {
        let f = ablation_scaling(2);
        let ucube = f.series.iter().find(|s| s.name == "U-cube").unwrap();
        let wsort = f.series.iter().find(|s| s.name == "W-sort").unwrap();
        let ratio = f
            .series
            .iter()
            .find(|s| s.name == "U-cube / W-sort")
            .unwrap();
        assert!(ratio.ys.iter().all(|&r| r >= 1.0), "U-cube never faster");
        // The absolute saving grows with machine size...
        let first_gap = ucube.ys[0] - wsort.ys[0];
        let last_gap = ucube.ys.last().unwrap() - wsort.ys.last().unwrap();
        assert!(last_gap > first_gap);
        // ...while the relative advantage persists at every size.
        assert!(ratio.ys.iter().all(|&r| r > 1.1));
    }

    #[test]
    fn concurrency_ablation_shows_interference() {
        let f = ablation_concurrency(2);
        let delay = &f.series[0];
        let blocks = &f.series[1];
        // One operation alone: contention-free (Theorem 6).
        assert_eq!(blocks.ys[0], 0.0);
        // Many concurrent operations interfere.
        assert!(*blocks.ys.last().unwrap() > 0.0);
        assert!(*delay.ys.last().unwrap() > delay.ys[0]);
    }

    #[test]
    fn model_fidelity_zero_without_contention() {
        let f = ablation_model_fidelity(3);
        let over = &f.series[0];
        // A single unicast can never contend: the two models coincide.
        assert!(over.ys[0].abs() < 1e-9);
        // Overestimation never negative (event model is conservative).
        assert!(over.ys.iter().all(|&y| y >= -1e-9));
    }

    #[test]
    fn kport_ablation_saturates() {
        let f = ablation_kport(3);
        for s in &f.series {
            // Monotone non-increasing in k.
            for w in s.ys.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "{}", s.name);
            }
        }
        let wsort = f.series.iter().find(|s| s.name == "W-sort").unwrap();
        // Going from 1 to 2 ports helps W-sort a lot...
        assert!(wsort.ys[1] < wsort.ys[0]);
        // ...and the last port adds little.
        assert!(wsort.ys[7] > wsort.ys[6] - 0.5);
    }

    #[test]
    fn contention_ablation_zero_for_wsort() {
        let f = ablation_contention(2);
        let w_inc = f
            .series
            .iter()
            .find(|s| s.name == "W-sort contention incidence")
            .unwrap();
        let w_blk = f
            .series
            .iter()
            .find(|s| s.name == "W-sort sim blocks")
            .unwrap();
        assert!(w_inc.ys.iter().all(|&y| y == 0.0));
        assert!(w_blk.ys.iter().all(|&y| y == 0.0));
    }
}
