//! Determinism regression suite.
//!
//! The engine refactor (layered `engine/` submodules, router-generic
//! core) claims to preserve hypercube behavior *bit for bit*. These
//! tests pin that claim down three ways:
//!
//! 1. a golden-file compare of Figure 11 against JSON captured from the
//!    pre-refactor engine (same seeds, same trial count);
//! 2. byte-identical [`RunResult`]s across repeated engine runs, on both
//!    the hypercube and the torus backend;
//! 3. worker-count independence of [`run_matrix_with_workers`] — the
//!    parallel sweep must aggregate identically at 1, 2, and 7 threads.

use hcube::{Cube, Ecube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use workloads::artifact::Artifact;
use workloads::chaossweep::{chaos_sweep, chaos_sweep_with_workers, ChaosSweep, ChaosSweepConfig};
use workloads::collectivessweep::{collectives_sweep, CollectivesConfig, CollectivesSweep};
use workloads::lanesweep::{lane_sweep, LaneSweep, LaneSweepConfig};
use workloads::sweep::{run_matrix_with_workers, MatrixResult};
use workloads::telemetrysweep::{
    telemetry_sweep_with_workers, TelemetrySweep, TelemetrySweepConfig,
};
use workloads::trafficsweep::{traffic_sweep, SweepConfig, TrafficSweep};
use wormsim::{DepMessage, MulticastRun, Run, RunResult, SimParams, SimTime};

/// A fault-free, unobserved run of a well-formed workload.
fn replay<R: Router>(router: R, params: &SimParams, workload: &[DepMessage]) -> RunResult {
    Run::new(router, params, workload).run().unwrap()
}

/// Golden output of `fig11 --trials 2`, captured from the pre-refactor
/// monolithic engine. `fig11_12` must keep regenerating it byte for
/// byte: the trial RNG keys, the destination draws, and every simulated
/// delay are all part of the contract.
const FIG11_GOLDEN: &str = include_str!("golden/fig11_trials2_pre_refactor.json");

#[test]
fn fig11_matches_pre_refactor_golden() {
    let (avg, _) = workloads::figures::fig11_12(2);
    assert_eq!(
        avg.to_json(),
        FIG11_GOLDEN,
        "fig11 (trials=2) diverged from the pre-refactor engine"
    );
}

/// A deliberately contentious workload: hot-spot traffic into node 0
/// plus a dependency chain, exercising blocking, FIFO arbitration, and
/// the dependency cascade.
fn contentious_workload(n: u32) -> Vec<DepMessage> {
    let mut w: Vec<DepMessage> = (1..n)
        .map(|v| DepMessage {
            src: NodeId(v),
            dst: NodeId(0),
            bytes: 2048,
            deps: vec![],
            min_start: SimTime::ZERO,
        })
        .collect();
    w.push(DepMessage {
        src: NodeId(0),
        dst: NodeId(n - 1),
        bytes: 4096,
        deps: vec![0, 1],
        min_start: SimTime::ZERO,
    });
    w
}

fn assert_runs_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.messages, b.messages, "per-message results diverged");
    assert_eq!(a.stats, b.stats, "aggregate statistics diverged");
}

#[test]
fn cube_runs_are_byte_identical_across_repeats() {
    let cube = Cube::of(4);
    let w = contentious_workload(16);
    for port in [PortModel::AllPort, PortModel::OnePort] {
        let params = SimParams::ncube2(port);
        let first = replay(Ecube::new(cube, Resolution::HighToLow), &params, &w);
        for _ in 0..3 {
            let again = replay(Ecube::new(cube, Resolution::HighToLow), &params, &w);
            assert_runs_identical(&first, &again);
        }
    }
}

#[test]
fn torus_runs_are_byte_identical_across_repeats() {
    let torus = Torus::of(4, 2);
    let router = TorusRouter::new(torus);
    let params = SimParams::ncube2(PortModel::AllPort);
    let w = contentious_workload(16);
    let first = replay(router, &params, &w);
    for _ in 0..3 {
        assert_runs_identical(&first, &replay(router, &params, &w));
    }
}

/// The lane refactor's safety rail: a router explicitly configured with
/// **one** lane per link is byte-identical to the pre-lane default — on
/// the cube, on the torus (whose two dateline VCs are now two lane
/// classes of the same mechanism), and under a faulted cube workload
/// that exercises the abort/cleanup paths. A wide (4-lane) run then
/// sanity-checks that adaptive lane selection still delivers everything.
#[test]
fn single_lane_routers_match_the_default_byte_for_byte() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let w = contentious_workload(16);
    let cube = Cube::of(4);
    let default = Ecube::new(cube, Resolution::HighToLow);
    let lanes = |n| Ecube::with_lanes(cube, Resolution::HighToLow, n);

    for port in [PortModel::AllPort, PortModel::OnePort] {
        let params = SimParams::ncube2(port);
        assert_runs_identical(
            &replay(default, &params, &w),
            &replay(lanes(1), &params, &w),
        );
    }

    let torus = Torus::of(4, 2);
    let base = replay(TorusRouter::new(torus), &params, &w);
    let m1 = replay(TorusRouter::with_lane_multiplier(torus, 1), &params, &w);
    assert_runs_identical(&base, &m1);

    let mut plan = wormsim::FaultPlan::random_links(&cube, 4, 5);
    plan.stall(
        NodeId(1),
        hcube::Dim(0),
        SimTime::ZERO,
        SimTime::from_ns(40_000),
    )
    .deadline_all(SimTime::from_ns(120_000));
    let faulted = |router| {
        Run::new(router, &params, &w)
            .faults(&plan)
            .run()
            .expect("faulted workload is well-formed")
    };
    assert_runs_identical(&faulted(default), &faulted(lanes(1)));

    let wide = replay(lanes(4), &params, &w);
    assert_eq!(
        wide.delivered_count(),
        w.len(),
        "a 4-lane run must still deliver the whole workload"
    );
}

/// The tentpole's safety rail: a run replayed into a reused
/// [`wormsim::EngineScratch`] is byte-identical to the fresh-allocation
/// path — on the cube, on the torus, and on a faulted cube workload
/// (dead links + stall windows + a global deadline), with **one**
/// scratch serving all three back to back across rounds. That exercises
/// the full reset contract: arenas resized across topologies, the route
/// memo restamped between routers, the channel table swept after runs
/// that aborted mid-flight.
#[test]
fn scratch_reuse_is_byte_identical_to_fresh_allocation() {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut scratch = wormsim::EngineScratch::new();

    let cube = Cube::of(4);
    let cube_router = hcube::Ecube::new(cube, Resolution::HighToLow);
    let torus_router = TorusRouter::new(Torus::of(4, 2));
    let w = contentious_workload(16);

    let mut plan = wormsim::FaultPlan::random_links(&cube, 4, 5);
    plan.stall(
        NodeId(1),
        hcube::Dim(0),
        SimTime::ZERO,
        SimTime::from_ns(40_000),
    )
    .deadline_all(SimTime::from_ns(120_000));

    for _ in 0..3 {
        let fresh = replay(cube_router, &params, &w);
        let reused = Run::new(cube_router, &params, &w)
            .scratch(&mut scratch)
            .run()
            .unwrap();
        assert_runs_identical(&fresh, &reused);

        let fresh = replay(torus_router, &params, &w);
        let reused = Run::new(torus_router, &params, &w)
            .scratch(&mut scratch)
            .run()
            .unwrap();
        assert_runs_identical(&fresh, &reused);

        let fresh = Run::new(cube_router, &params, &w)
            .faults(&plan)
            .run()
            .expect("faulted workload is well-formed");
        let reused = Run::new(cube_router, &params, &w)
            .faults(&plan)
            .scratch(&mut scratch)
            .run()
            .expect("faulted workload is well-formed");
        assert_runs_identical(&fresh, &reused);
        assert!(
            fresh.stats.timed_out > 0 || fresh.messages.iter().any(|m| !m.outcome.is_delivered()),
            "the faulted leg must actually exercise the abort/cleanup paths"
        );
    }
    assert!(
        scratch.route_memo().hits() > 0,
        "replayed rounds must hit the route memo"
    );
}

/// The observability layer is part of the determinism contract too: the
/// contention heatmap (seeded destination draws + in-loop EventRecorder
/// blocked-time accounting) must regenerate byte-identically, and
/// attaching the recorder must not perturb the simulated schedule.
#[test]
fn contention_heatmap_regenerates_byte_identically() {
    let a = workloads::heatmap::contention_heatmap(2);
    let b = workloads::heatmap::contention_heatmap(2);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "contention_heatmap (trials=2) is not deterministic"
    );
}

#[test]
fn observed_runs_match_unobserved_runs_bit_for_bit() {
    let cube = Cube::of(4);
    let w = contentious_workload(16);
    let params = SimParams::ncube2(PortModel::AllPort);
    let router = Ecube::new(cube, Resolution::HighToLow);
    let plain = replay(router, &params, &w);
    let mut rec = wormsim::EventRecorder::new();
    let observed = Run::new(router, &params, &w).probe(&mut rec).run().unwrap();
    assert_runs_identical(&plain, &observed);
}

fn delay_metric(
    cube: Cube,
    src: NodeId,
    dests: &[NodeId],
    algo: Algorithm,
    scratch: &mut wormsim::EngineScratch,
) -> [f64; 2] {
    let tree = algo
        .build(cube, Resolution::HighToLow, PortModel::AllPort, src, dests)
        .expect("valid instance");
    let report = MulticastRun::new(&tree, &SimParams::ncube2(PortModel::AllPort), 1024)
        .scratch(scratch)
        .run();
    [report.avg_delay.as_ms(), report.max_delay.as_ms()]
}

#[test]
fn run_matrix_is_independent_of_worker_count() {
    let flatten = |r: &MatrixResult<2>| -> Vec<f64> {
        r.cells
            .iter()
            .flat_map(|row| {
                row.iter()
                    .flat_map(|cell| cell.iter().flat_map(|s| [s.mean, s.std]))
            })
            .collect()
    };
    let run = |workers: usize| {
        run_matrix_with_workers(
            "det-workers",
            Cube::of(5),
            &[2, 7, 19],
            6,
            &[Algorithm::WSort, Algorithm::UCube],
            workers,
            delay_metric,
        )
    };
    let serial = flatten(&run(1));
    for workers in [2, 7] {
        assert_eq!(
            flatten(&run(workers)),
            serial,
            "sweep output changed at {workers} workers"
        );
    }
}

/// The committed traffic-sweep artifact, validated with the first-party
/// parser — the same check `sweep traffic_sweep --check` runs in CI.
const TRAFFIC_SWEEP_GOLDEN: &str = include_str!("../../../results/traffic_sweep.json");

/// The committed `results/traffic_sweep.json` must parse under the
/// schema, carry the full configuration, and satisfy every acceptance
/// property: 9 series (2 cubes x 4 algorithms + torus), >= 5 load
/// points per series, saturation detected per algorithm, and a nonzero
/// tree-cache hit rate on the cube series.
#[test]
fn committed_traffic_sweep_artifact_is_valid_and_complete() {
    let sweep = TrafficSweep::from_json(TRAFFIC_SWEEP_GOLDEN)
        .expect("committed traffic_sweep.json violates its own schema");
    assert_eq!(
        sweep.config,
        SweepConfig::full(),
        "committed artifact was not produced by SweepConfig::full()"
    );
    assert_eq!(sweep.series.len(), 9, "2 cubes x 4 algorithms + 1 torus");
    for s in &sweep.series {
        assert!(
            s.points.len() >= 5,
            "{} {}: need >= 5 load points, got {}",
            s.network,
            s.algorithm,
            s.points.len()
        );
        assert!(
            s.saturation_per_ms.is_some(),
            "{} {}: the swept ladder must drive the network into saturation",
            s.network,
            s.algorithm
        );
        // Ladders are ascending and match the config.
        let expect = if s.network == "cube8" {
            &sweep.config.loads_256
        } else {
            &sweep.config.loads_64
        };
        let offered: Vec<f64> = s.points.iter().map(|p| p.offered_per_ms).collect();
        assert_eq!(
            &offered, expect,
            "{} {}: load ladder",
            s.network, s.algorithm
        );
        if s.network.starts_with("cube") {
            assert!(
                s.points.iter().all(|p| p.cache_hit_rate > 0.0),
                "{} {}: recurring pool traffic must hit the tree cache",
                s.network,
                s.algorithm
            );
        }
    }
    // Serialization is canonical: re-emitting the parsed artifact must
    // reproduce the committed bytes exactly.
    assert_eq!(
        sweep.to_json().unwrap(),
        TRAFFIC_SWEEP_GOLDEN.trim_end_matches('\n'),
        "to_json is not canonical for the committed artifact"
    );
}

/// Full-artifact byte-reproducibility: regenerating the sweep with the
/// committed configuration reproduces `results/traffic_sweep.json`
/// exactly. Expensive (minutes in debug builds), so ignored by default;
/// CI runs it in release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "full sweep regeneration; run in release builds"]
fn committed_traffic_sweep_artifact_regenerates_byte_identically() {
    let regenerated = traffic_sweep(&SweepConfig::full());
    assert_eq!(
        regenerated.to_json().unwrap(),
        TRAFFIC_SWEEP_GOLDEN.trim_end_matches('\n'),
        "results/traffic_sweep.json diverged from regeneration — rerun \
         `cargo run -p bench --release --bin sweep -- traffic_sweep` and commit"
    );
}

/// The committed collectives-sweep artifact, validated with the
/// first-party parser — the same check `sweep collectives_sweep --check`
/// runs in CI.
const COLLECTIVES_SWEEP_GOLDEN: &str = include_str!("../../../results/collectives_sweep.json");

/// The committed `results/collectives_sweep.json` must parse under the
/// schema, carry the full configuration, and satisfy the acceptance
/// properties: 18 schedule rows (3 collectives x 5 cube families +
/// 3 torus rows), **every row certified by the data oracle**, 6 traffic
/// rows with nonzero completion, and canonical serialization.
#[test]
fn committed_collectives_sweep_artifact_is_valid_and_complete() {
    let sweep = CollectivesSweep::from_json(COLLECTIVES_SWEEP_GOLDEN)
        .expect("committed collectives_sweep.json violates its own schema");
    assert_eq!(
        sweep.config,
        CollectivesConfig::full(),
        "committed artifact was not produced by CollectivesConfig::full()"
    );
    assert_eq!(
        sweep.rows.len(),
        18,
        "3 collectives x (5 cube families + 1 torus backend)"
    );
    for r in &sweep.rows {
        assert!(
            r.verified,
            "{} {} {}: committed artifact carries an oracle-unverified row",
            r.suite, r.network, r.family
        );
        assert!(r.makespan_ms > 0.0 && r.payload_bytes > 0 && r.ops > 0);
    }
    assert_eq!(sweep.traffic.len(), 6, "2 families x 3 collectives");
    for t in &sweep.traffic {
        assert!(
            t.completion_ratio > 0.0 && t.mean_latency_ms.is_finite(),
            "{} {}: traffic row must measure completed sessions",
            t.suite,
            t.family
        );
    }
    // Serialization is canonical: re-emitting the parsed artifact must
    // reproduce the committed bytes exactly.
    assert_eq!(
        sweep
            .to_json()
            .expect("committed artifact re-emits strictly"),
        COLLECTIVES_SWEEP_GOLDEN.trim_end_matches('\n'),
        "to_json is not canonical for the committed artifact"
    );
}

/// Full-artifact byte-reproducibility: regenerating the collectives
/// sweep with the committed configuration reproduces
/// `results/collectives_sweep.json` exactly. Expensive, so ignored by
/// default; CI runs it in release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "full sweep regeneration; run in release builds"]
fn committed_collectives_sweep_artifact_regenerates_byte_identically() {
    let regenerated = collectives_sweep(&CollectivesConfig::full());
    assert_eq!(
        regenerated
            .to_json()
            .expect("regenerated sweep emits strictly"),
        COLLECTIVES_SWEEP_GOLDEN.trim_end_matches('\n'),
        "results/collectives_sweep.json diverged from regeneration — rerun \
         `cargo run -p bench --release --bin sweep -- collectives_sweep` and commit"
    );
}

/// Full-artifact byte-reproducibility of every figure `all_figures`
/// writes apart from the fault sweep (pinned below): Figures 9–14 and
/// the twelve ablations at the paper's trial counts regenerate
/// `results/<id>.json` and `results/<id>.txt` exactly, the `.txt` being
/// the table, a blank line and the 72×18 plot, as `bench::emit` writes
/// it. Expensive in debug builds, so ignored by default; CI runs it in
/// release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "full figure and ablation regeneration; run in release builds"]
fn collective_ablation_artifacts_regenerate_byte_identically() {
    use workloads::ablations::*;
    use workloads::figures::{self, PAPER_TRIALS_NCUBE as NCUBE, PAPER_TRIALS_STEPS as STEPS};
    let (f11, f12) = figures::fig11_12(NCUBE);
    let (f13, f14) = figures::fig13_14(STEPS);
    let all = [
        figures::fig09(STEPS),
        figures::fig10(STEPS),
        f11,
        f12,
        f13,
        f14,
        ablation_ports(NCUBE),
        ablation_message_size(NCUBE),
        ablation_sensitivity(NCUBE),
        ablation_optimality(NCUBE),
        ablation_contention(NCUBE),
        ablation_background_load(NCUBE),
        ablation_pipelining(),
        ablation_scatter(NCUBE),
        ablation_scaling(NCUBE),
        ablation_concurrency(NCUBE),
        ablation_model_fidelity(NCUBE),
        ablation_kport(NCUBE),
    ];
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for figure in &all {
        let text = format!("{}\n{}", figure.to_table(), figure.to_ascii_plot(72, 18));
        for (ext, regenerated) in [("json", figure.to_json()), ("txt", text)] {
            let path = results.join(format!("{}.{ext}", figure.id));
            let committed = std::fs::read_to_string(&path).expect("committed artifact");
            assert!(
                regenerated == committed,
                "results/{}.{ext} diverged from regeneration — rerun \
                 `cargo run -p bench --release --bin all_figures` and commit",
                figure.id
            );
        }
    }
}

/// `results/fault_sweep.json`, the one committed artifact that calls
/// `hypercast::repair` directly, regenerates byte for byte at the
/// `all_figures` trial count. Ignored by default like the ablations
/// above; CI runs it in release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "full fault-sweep regeneration; run in release builds"]
fn fault_sweep_artifact_regenerates_byte_identically() {
    use workloads::{faultsweep::fault_sweep, figures::PAPER_TRIALS_NCUBE};
    assert_eq!(
        fault_sweep(PAPER_TRIALS_NCUBE).to_json(),
        include_str!("../../../results/fault_sweep.json"),
        "results/fault_sweep.json diverged from regeneration — rerun \
         `cargo run -p bench --release --bin all_figures` and commit"
    );
}

/// The committed chaos-sweep artifact, validated with the first-party
/// parser — the same check `sweep chaos_sweep --check` runs in CI.
const CHAOS_SWEEP_GOLDEN: &str = include_str!("../../../results/chaos_sweep.json");

/// The committed `results/chaos_sweep.json` must parse under the
/// schema, carry the full configuration, and satisfy the robustness
/// acceptance properties: the churn-free rung of every series delivers
/// 1.0, churny rungs degrade smoothly (never to zero), every disrupted
/// run recovers in finite time, and the cube series exercise the
/// epoch-keyed tree cache (hits plus repaired-entry invalidations).
#[test]
fn committed_chaos_sweep_artifact_is_valid_and_complete() {
    let sweep = ChaosSweep::from_json(CHAOS_SWEEP_GOLDEN)
        .expect("committed chaos_sweep.json violates its own schema");
    assert_eq!(
        sweep.config,
        ChaosSweepConfig::full(),
        "committed artifact was not produced by ChaosSweepConfig::full()"
    );
    assert_eq!(sweep.series.len(), 9, "2 cubes x 4 algorithms + 1 torus");
    let rungs = sweep.config.link_mtbf_ladder_ms.len();
    for s in &sweep.series {
        let loads = if s.network == "cube8" {
            &sweep.config.loads_256
        } else {
            &sweep.config.loads_64
        };
        assert_eq!(
            s.points.len(),
            rungs * loads.len(),
            "{} {}: incomplete churn x load grid",
            s.network,
            s.algorithm
        );
        for p in &s.points {
            if p.link_mtbf_ms.is_finite() {
                assert!(
                    p.fault_events > 0 && p.epochs > 1,
                    "{} {}: churny rung must actually churn",
                    s.network,
                    s.algorithm
                );
                assert!(
                    p.delivery_ratio > 0.5,
                    "{} {}: delivery must degrade smoothly, not cliff (got {})",
                    s.network,
                    s.algorithm,
                    p.delivery_ratio
                );
                assert!(
                    p.time_to_recover_ms.is_some(),
                    "{} {}: churny rung must report a recovery time",
                    s.network,
                    s.algorithm
                );
            } else {
                assert_eq!(
                    p.delivery_ratio, 1.0,
                    "{} {}: churn-free anchor must deliver everything",
                    s.network, s.algorithm
                );
                assert_eq!(p.lost, 0);
                assert_eq!(p.time_to_recover_ms, None);
            }
        }
        // The harshest rung disrupts more sessions than the calmest
        // churny rung: sum of retried-or-lost across its load points.
        let disrupted = |mtbf: f64| -> u64 {
            s.points
                .iter()
                .filter(|p| p.link_mtbf_ms == mtbf)
                .map(|p| p.retry_histogram.iter().skip(1).sum::<u64>() + p.lost)
                .sum()
        };
        let finite: Vec<f64> = sweep
            .config
            .link_mtbf_ladder_ms
            .iter()
            .copied()
            .filter(|m| m.is_finite())
            .collect();
        let calmest = finite.iter().cloned().fold(f64::MIN, f64::max);
        let harshest = finite.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            disrupted(harshest) >= disrupted(calmest),
            "{} {}: disruption must not decrease as MTBF shrinks",
            s.network,
            s.algorithm
        );
        if s.network.starts_with("cube") {
            assert!(
                s.points.iter().all(|p| p.cache.hits > 0),
                "{} {}: recurring pool traffic must hit the tree cache",
                s.network,
                s.algorithm
            );
            assert!(
                s.points
                    .iter()
                    .any(|p| p.cache.invalidations > 0 || p.retry_histogram.len() == 1),
                "{} {}: repaired trees must be invalidated at epoch turns",
                s.network,
                s.algorithm
            );
        }
    }
    // Serialization is canonical: re-emitting the parsed artifact must
    // reproduce the committed bytes exactly.
    assert_eq!(
        sweep.to_json().unwrap(),
        CHAOS_SWEEP_GOLDEN.trim_end_matches('\n'),
        "to_json is not canonical for the committed artifact"
    );
}

/// Chaos grid points are independent seeded runs, so the worker pool
/// must not leak state between them: the 1-worker and multi-worker
/// sweeps must serialize byte-identically (each worker reuses one
/// `EngineScratch` across whatever subset of the grid it drains).
#[test]
fn chaos_sweep_is_independent_of_worker_count() {
    let cfg = ChaosSweepConfig {
        sessions: 10,
        pool_groups: 3,
        bytes: 512,
        seed: 29,
        loads_64: vec![2.0],
        loads_256: vec![4.0],
        link_mtbf_ladder_ms: vec![f64::INFINITY, 400.0],
        ..ChaosSweepConfig::full()
    };
    let serial = chaos_sweep(&cfg);
    for workers in [2, 7] {
        assert_eq!(
            chaos_sweep_with_workers(&cfg, workers).to_json().unwrap(),
            serial.to_json().unwrap(),
            "chaos sweep output changed at {workers} workers"
        );
    }
}

/// Full-artifact byte-reproducibility: regenerating the chaos sweep
/// with the committed configuration reproduces
/// `results/chaos_sweep.json` exactly. Expensive, so ignored by
/// default; CI runs it in release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "full sweep regeneration; run in release builds"]
fn committed_chaos_sweep_artifact_regenerates_byte_identically() {
    let regenerated = chaos_sweep_with_workers(&ChaosSweepConfig::full(), 4);
    assert_eq!(
        regenerated.to_json().unwrap(),
        CHAOS_SWEEP_GOLDEN.trim_end_matches('\n'),
        "results/chaos_sweep.json diverged from regeneration — rerun \
         `cargo run -p bench --release --bin sweep -- chaos_sweep` and commit"
    );
}

/// The committed lane-sweep artifact, validated with the first-party
/// parser — the same check `sweep lane_sweep --check` runs in CI.
const LANE_SWEEP_GOLDEN: &str = include_str!("../../../results/lane_sweep.json");

/// The committed `results/lane_sweep.json` must parse under the schema,
/// carry the full configuration, and satisfy the acceptance properties:
/// 16 series (4 networks x 4 algorithms), the configured lane ladder on
/// cube and mesh (even rungs only on the torus), an analytic
/// [`min_lanes_for_concurrent`] bound above one lane on every cube
/// series, per-lane utilization vectors sized to their rung, and a
/// cube6 zero-contention rung for every algorithm.
///
/// [`min_lanes_for_concurrent`]: hypercast::contention::min_lanes_for_concurrent
#[test]
fn committed_lane_sweep_artifact_is_valid_and_complete() {
    let sweep = LaneSweep::from_json(LANE_SWEEP_GOLDEN)
        .expect("committed lane_sweep.json violates its own schema");
    assert_eq!(
        sweep.config,
        LaneSweepConfig::full(),
        "committed artifact was not produced by LaneSweepConfig::full()"
    );
    assert_eq!(sweep.series.len(), 16, "4 networks x 4 algorithms");
    let even: Vec<u8> = sweep
        .config
        .lane_ladder
        .iter()
        .copied()
        .filter(|l| l % 2 == 0)
        .collect();
    for s in &sweep.series {
        let rungs: Vec<u8> = s.points.iter().map(|p| p.lanes).collect();
        let expect = if s.network == "torus4x3" {
            &even
        } else {
            &sweep.config.lane_ladder
        };
        assert_eq!(&rungs, expect, "{} {}: lane ladder", s.network, s.algorithm);
        for p in &s.points {
            assert_eq!(
                p.lane_utilization.len(),
                p.lanes as usize,
                "{} {}: utilization vector must have one entry per lane",
                s.network,
                s.algorithm
            );
        }
        if s.network == "cube6" {
            let analytic = s
                .analytic_min_lanes
                .expect("cube series must carry the analytic bound");
            assert!(
                analytic > 1.0,
                "{}: concurrent sessions must raise the analytic bound",
                s.algorithm
            );
            assert!(
                s.lanes_to_zero_contention.is_some(),
                "{}: the cube ladder must reach zero contention",
                s.algorithm
            );
        } else {
            assert!(s.analytic_min_lanes.is_none());
        }
    }
    // Serialization is canonical: re-emitting the parsed artifact must
    // reproduce the committed bytes exactly.
    assert_eq!(
        sweep.to_json().unwrap(),
        LANE_SWEEP_GOLDEN.trim_end_matches('\n'),
        "to_json is not canonical for the committed artifact"
    );
}

/// Full-artifact byte-reproducibility: regenerating the lane sweep with
/// the committed configuration reproduces `results/lane_sweep.json`
/// exactly. Expensive, so ignored by default; CI runs it in release via
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "full sweep regeneration; run in release builds"]
fn committed_lane_sweep_artifact_regenerates_byte_identically() {
    let regenerated = lane_sweep(&LaneSweepConfig::full());
    assert_eq!(
        regenerated.to_json().unwrap(),
        LANE_SWEEP_GOLDEN.trim_end_matches('\n'),
        "results/lane_sweep.json diverged from regeneration — rerun \
         `cargo run -p bench --release --bin sweep -- lane_sweep` and commit"
    );
}

/// The committed telemetry-sweep artifact, validated with the
/// first-party parser — the same check `sweep telemetry_sweep --check`
/// runs in CI.
const TELEMETRY_SWEEP_GOLDEN: &str = include_str!("../../../results/telemetry_sweep.json");

/// The committed `results/telemetry_sweep.json` must parse under the
/// schema, carry the full configuration, and satisfy the recovery
/// acceptance properties ([`TelemetrySweep::check_recovery`]): every
/// series accounts for all offered sessions bucket by bucket, churn is
/// visible in the `live_faults` gauge, and goodput dips during the
/// churn window then refills after it — the flight recorder's
/// dip-and-refill signature.
#[test]
fn committed_telemetry_sweep_artifact_is_valid_and_complete() {
    let sweep = TelemetrySweep::from_json(TELEMETRY_SWEEP_GOLDEN)
        .expect("committed telemetry_sweep.json violates its own schema");
    assert_eq!(
        sweep.config,
        TelemetrySweepConfig::full(),
        "committed artifact was not produced by TelemetrySweepConfig::full()"
    );
    assert_eq!(sweep.series.len(), 5, "4 cube algorithms + 1 torus");
    sweep
        .check_recovery()
        .expect("committed artifact fails the dip-and-refill recovery check");
    for s in &sweep.series {
        assert_eq!(
            s.rows.len(),
            sweep.config.buckets,
            "{} {}: every bucket of the window must be present",
            s.network,
            s.algorithm
        );
        assert!(
            s.fault_events > 0,
            "{} {}: the churn timeline must actually churn",
            s.network,
            s.algorithm
        );
    }
    // Serialization is canonical: re-emitting the parsed artifact must
    // reproduce the committed bytes exactly.
    assert_eq!(
        sweep.to_json().unwrap(),
        TELEMETRY_SWEEP_GOLDEN.trim_end_matches('\n'),
        "to_json is not canonical for the committed artifact"
    );
}

/// Full-artifact byte-reproducibility: regenerating the telemetry sweep
/// with the committed configuration reproduces
/// `results/telemetry_sweep.json` exactly. Expensive, so ignored by
/// default; CI runs it in release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "full sweep regeneration; run in release builds"]
fn committed_telemetry_sweep_artifact_regenerates_byte_identically() {
    let regenerated = telemetry_sweep_with_workers(&TelemetrySweepConfig::full(), 4);
    assert_eq!(
        regenerated.to_json().unwrap(),
        TELEMETRY_SWEEP_GOLDEN.trim_end_matches('\n'),
        "results/telemetry_sweep.json diverged from regeneration — rerun \
         `cargo run -p bench --release --bin sweep -- telemetry_sweep` and commit"
    );
}
