//! Zero-load anchoring: a one-session traffic run at `t = 0` must be
//! **byte-identical** to the single-shot simulation entry points, on
//! the hypercube and on the torus. This is what licenses comparing
//! loaded measurements against the validated single-shot model — the
//! traffic path adds scheduling machinery but no new physics.
//!
//! Option identity: [`traffic::run`] and [`traffic::run_chaos`] give
//! byte-identical reports whatever their [`RunOptions`].
//!
//! Quiet identity: `run` is the churn-free single wave of `run_chaos`,
//! so a chaos run under [`ChurnSpec::quiet`] reproduces its report and
//! its telemetry, spans and series both.

use hcube::{Cube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use proptest::prelude::*;
use traffic::{
    ArrivalProcess, Arrivals, Backend, ChaosReport, ChaosSpec, ChurnSpec, DestPattern, RunOptions,
    Telemetry, TelemetryConfig, TrafficReport, TrafficSpec,
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

/// The fields a quiet chaos run shares with the plain run, per session
/// and in aggregate.
fn plain_view(r: &TrafficReport) -> String {
    let per_session: Vec<_> = r
        .sessions
        .iter()
        .map(|s| (s.arrival, s.completion, s.latency, s.delivered))
        .collect();
    format!(
        "{per_session:?} {:?} {:?} {:?} {} {} {} {} {}",
        r.latency,
        r.cache,
        r.net,
        r.warmup,
        r.measured_sessions,
        r.completed_measured,
        r.completion_ratio,
        r.throughput_per_ms
    )
}

fn chaos_view(r: &ChaosReport) -> String {
    let per_session: Vec<_> = r
        .sessions
        .iter()
        .map(|s| (s.arrival, s.completion, s.latency, s.delivered))
        .collect();
    format!(
        "{per_session:?} {:?} {:?} {:?} {} {} {} {} {}",
        r.latency,
        r.cache,
        r.net,
        r.warmup,
        r.measured_sessions,
        r.delivered_measured,
        r.delivery_ratio,
        r.goodput_per_ms
    )
}

/// Runs `spec` on `backend` through `run` and through a quiet
/// `run_chaos`, both observed, and compares reports and telemetry.
fn quiet_chaos_matches_run<R: Router + Copy>(
    spec: &TrafficSpec,
    backend: Backend<R>,
) -> Result<(), TestCaseError> {
    let params = SimParams::ncube2(PortModel::AllPort);
    let cfg = TelemetryConfig::new(12);
    let (mut plain_tel, mut chaos_tel) = (None, None);
    let plain = traffic::run(
        spec,
        backend,
        &params,
        RunOptions::default().telemetry(&cfg, &mut plain_tel),
    );
    let chaos = traffic::run_chaos(
        &ChaosSpec::new(spec.clone(), ChurnSpec::quiet()),
        backend,
        &params,
        RunOptions::default().telemetry(&cfg, &mut chaos_tel),
    );
    let (plain_tel, chaos_tel) = (plain_tel.unwrap(), chaos_tel.unwrap());
    prop_assert_eq!(plain_view(&plain), chaos_view(&chaos));
    prop_assert_eq!(
        plain_tel.spans_to_json_string(),
        chaos_tel.spans_to_json_string()
    );
    prop_assert_eq!(
        plain_tel.series.to_json_string(),
        chaos_tel.series.to_json_string()
    );
    Ok(())
}

proptest! {
    /// `run` equals a quiet `run_chaos` on the tree and separate
    /// backends, from light load through saturation (0.25 to 512
    /// sessions/ms), with horizons as short as 1 ms, most of them
    /// shorter than the arrival schedule.
    #[test]
    fn run_is_the_quiet_single_wave_of_run_chaos(
        tree in any::<bool>(),
        doublings in 0u32..12,
        sessions in 1usize..40,
        seed in any::<u64>(),
        horizon_ms in 1u64..40,
    ) {
        let rate = 0.25 * f64::from(1u32 << doublings);
        let mut spec = TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, rate),
            DestPattern::UniformRandom { m: 5 },
            sessions,
            seed,
        );
        spec.horizon = SimTime::from_ms(horizon_ms);
        if tree {
            quiet_chaos_matches_run(
                &spec,
                Backend::tree(Cube::of(5), Resolution::HighToLow, Algorithm::WSort),
            )?;
        } else {
            quiet_chaos_matches_run(&spec, Backend::Separate(TorusRouter::new(Torus::of(4, 2))))?;
        }
    }
}
