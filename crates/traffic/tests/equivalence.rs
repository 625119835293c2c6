//! Zero-load anchoring: a one-session traffic run at `t = 0` must be
//! **byte-identical** to the single-shot simulation entry points, on
//! the hypercube and on the torus. This is what licenses comparing
//! loaded measurements against the validated single-shot model — the
//! traffic path adds scheduling machinery but no new physics.
//!
//! Option identity: [`traffic::run`] and [`traffic::run_chaos`] give
//! byte-identical reports whatever their [`RunOptions`].

use hcube::{Cube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use traffic::{
    ArrivalProcess, Arrivals, Backend, ChaosSpec, ChurnSpec, DestPattern, RunOptions, Telemetry,
    TelemetryConfig, TrafficSpec,
};
use workloads::serve::{chaos_report_json, traffic_report_json};
use wormsim::{simulate_multicast, DepMessage, EngineScratch, Run, SimParams, SimTime};

fn one_shot_spec(source: NodeId, dests: Vec<NodeId>) -> TrafficSpec {
    let mut spec = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, 1.0),
        DestPattern::Fixed { source, dests },
        1,
        999, // seed is irrelevant: one arrival at t=0, fixed pattern
    );
    spec.warmup = 0;
    spec.horizon = SimTime::from_ms(10_000);
    spec
}

#[test]
fn zero_load_cube_run_matches_simulate_multicast_byte_for_byte() {
    let cube = Cube::of(6);
    let params = SimParams::ncube2(PortModel::AllPort);
    // Deliberately unsorted destination listing: the cache canonicalizes,
    // construction is order-insensitive, and the replay must not care.
    let dests: Vec<NodeId> = [45u32, 3, 17, 60, 9, 33, 12, 25]
        .into_iter()
        .map(NodeId)
        .collect();
    for algo in Algorithm::ALL {
        let tree = algo
            .build(
                cube,
                Resolution::HighToLow,
                params.port_model,
                NodeId(5),
                &dests,
            )
            .unwrap();
        let single = simulate_multicast(&tree, &params, 4096);

        let spec = one_shot_spec(NodeId(5), dests.clone());
        let report = traffic::run(
            &spec,
            traffic::Backend::tree(cube, Resolution::HighToLow, algo),
            &params,
            traffic::RunOptions::default(),
        );

        assert_eq!(report.sessions.len(), 1, "{algo:?}");
        let session = &report.sessions[0];
        assert!(session.delivered, "{algo:?}");
        assert_eq!(
            format!("{:?}", session.deliveries),
            format!("{:?}", single.deliveries),
            "{algo:?}: per-destination deliveries must be byte-identical"
        );
        assert_eq!(session.completion, single.max_delay, "{algo:?}");
        assert_eq!(
            format!("{:?}", report.net),
            format!("{:?}", single.stats),
            "{algo:?}: run-wide network statistics must be byte-identical"
        );
    }
}

#[test]
fn zero_load_torus_run_matches_simulate_on_byte_for_byte() {
    let torus = Torus::of(4, 3);
    let params = SimParams::ncube2(PortModel::AllPort);
    let source = NodeId(7);
    let dests: Vec<NodeId> = [30u32, 2, 55, 41, 19].into_iter().map(NodeId).collect();

    // The single-shot reference: a plain separate-addressing workload.
    let workload: Vec<DepMessage> = dests
        .iter()
        .map(|&dst| DepMessage {
            src: source,
            dst,
            bytes: 4096,
            deps: vec![],
            min_start: SimTime::ZERO,
        })
        .collect();
    let single = Run::new(TorusRouter::new(torus), &params, &workload)
        .run()
        .unwrap();

    let spec = one_shot_spec(source, dests.clone());
    let report = traffic::run(
        &spec,
        traffic::Backend::Separate(TorusRouter::new(torus)),
        &params,
        traffic::RunOptions::default(),
    );

    let session = &report.sessions[0];
    assert!(session.delivered);
    let expected: Vec<(NodeId, SimTime)> = dests
        .iter()
        .zip(&single.messages)
        .map(|(&d, m)| (d, m.delivered))
        .collect();
    assert_eq!(
        format!("{:?}", session.deliveries),
        format!("{expected:?}"),
        "per-destination deliveries must be byte-identical"
    );
    assert_eq!(
        format!("{:?}", report.net),
        format!("{:?}", single.stats),
        "run-wide network statistics must be byte-identical"
    );
}

#[test]
fn traffic_reports_are_byte_deterministic_across_backends() {
    let params = SimParams::ncube2(PortModel::AllPort);
    for process in [
        ArrivalProcess::Deterministic,
        ArrivalProcess::Poisson,
        ArrivalProcess::Bursty { mean_burst: 3 },
    ] {
        let spec = TrafficSpec::new(
            Arrivals::new(process, 2.0),
            DestPattern::UniformRandom { m: 5 },
            30,
            4242,
        );
        let a = traffic::run(
            &spec,
            traffic::Backend::tree(Cube::of(6), Resolution::HighToLow, Algorithm::WSort),
            &params,
            traffic::RunOptions::default(),
        );
        let b = traffic::run(
            &spec,
            traffic::Backend::tree(Cube::of(6), Resolution::HighToLow, Algorithm::WSort),
            &params,
            traffic::RunOptions::default(),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{process}");

        let t1 = traffic::run(
            &spec,
            traffic::Backend::Separate(TorusRouter::new(Torus::of(4, 3))),
            &params,
            traffic::RunOptions::default(),
        );
        let t2 = traffic::run(
            &spec,
            traffic::Backend::Separate(TorusRouter::new(Torus::of(4, 3))),
            &params,
            traffic::RunOptions::default(),
        );
        assert_eq!(format!("{t1:?}"), format!("{t2:?}"), "{process}");
    }
}

fn options<'a>(
    scratch: &'a mut EngineScratch,
    telemetry: Option<(&'a TelemetryConfig, &'a mut Option<Telemetry>)>,
) -> RunOptions<'a> {
    let opts = RunOptions::default().scratch(scratch);
    match telemetry {
        Some((cfg, out)) => opts.telemetry(cfg, out),
        None => opts,
    }
}

/// Asserts that `run` and `run_chaos` of `backend` give byte-identical
/// reports under {fresh, reused scratch} × {telemetry off, on},
/// rendered through the serve formatters (plus `{:?}`, which covers
/// every field). The reused scratch has served every earlier cell.
fn assert_option_identity<R: Router + Copy>(
    label: &str,
    backend: Backend<R>,
    scratch: &mut EngineScratch,
) {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut traffic = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, 2.0),
        DestPattern::UniformRandom { m: 5 },
        40,
        17,
    );
    traffic.horizon = SimTime::from_ms(40);
    let chaos = ChaosSpec::new(
        traffic.clone(),
        ChurnSpec {
            link_mtbf_ms: 8.0,
            link_mttr_ms: 2.0,
            node_mtbf_ms: 32.0,
            node_mttr_ms: 3.0,
            churn_until: SimTime::from_ms(20),
        },
    );
    let cfg = TelemetryConfig::default();
    let (mut plain, mut churned) = (Vec::new(), Vec::new());
    for reuse in [false, true] {
        for observe in [false, true] {
            let mut fresh = EngineScratch::new();
            let mut tel = None;
            let s = if reuse { &mut *scratch } else { &mut fresh };
            let opts = options(s, observe.then_some((&cfg, &mut tel)));
            let r = traffic::run(&traffic, backend, &params, opts);
            plain.push(format!("{} {r:?}", traffic_report_json("x", &r, None)));
            assert_eq!(tel.is_some(), observe);

            let mut tel = None;
            let s = if reuse { &mut *scratch } else { &mut fresh };
            let opts = options(s, observe.then_some((&cfg, &mut tel)));
            let r = traffic::run_chaos(&chaos, backend, &params, opts);
            churned.push(format!("{} {r:?}", chaos_report_json("x", &r, None)));
            assert_eq!(tel.is_some(), observe);
        }
    }
    for cells in [&plain, &churned] {
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell, &cells[0], "{label}: option cell {i} diverged");
        }
    }
    assert!(
        !churned[0].contains("\"fault_events\":0,"),
        "{label}: the chaos cells must see churn"
    );
}

#[test]
fn run_and_run_chaos_reports_are_identical_under_every_option() {
    let mut scratch = EngineScratch::new();
    let cube = Backend::tree(Cube::of(5), Resolution::HighToLow, Algorithm::WSort);
    assert_option_identity("cube", cube, &mut scratch);
    let torus = Backend::Separate(TorusRouter::new(Torus::of(4, 2)));
    assert_option_identity("torus", torus, &mut scratch);
}
