//! Probe overhead: cost of the in-loop observability layer on the
//! fig11-style multicast workload (6-cube, all-port, 32 destinations,
//! 4 KB), comparing
//!
//! - `baseline` — a plain [`wormsim::Run`] (no probe attached),
//! - `noop_probe` — a run with [`wormsim::NoopProbe`] attached
//!   (must monomorphize away: within noise of baseline, the tentpole's
//!   acceptance bar),
//! - `event_recorder` — full ring-buffer + occupancy accounting,
//! - `metrics` — counter/histogram registry,
//! - `telemetry_probe` — the traffic flight recorder's blocking-interval
//!   sink ([`traffic::TelemetryProbe`]),
//! - `telemetry_full` — an entire observed traffic run with span +
//!   time-series assembly vs `traffic_plain`, the same run unobserved
//!   (the telemetry layer's end-to-end cost).

use criterion::{criterion_group, criterion_main, Criterion};
use hcube::{Cube, Ecube, NodeId, Resolution};
use hypercast::{Algorithm, PortModel};
use traffic::{
    ArrivalProcess, Arrivals, DestPattern, TelemetryConfig, TelemetryProbe, TrafficSpec,
};
use wormsim::{multicast_workload, DepMessage, EventRecorder, Metrics, NoopProbe, Run, SimParams};

/// Fig. 11 operating point: 6-cube, 32 random destinations, 4 KB.
fn fig11_workload() -> (Cube, Resolution, SimParams, Vec<DepMessage>) {
    let cube = Cube::of(6);
    let resolution = Resolution::HighToLow;
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut rng = workloads::destsets::trial_rng("probe_overhead", 0, 0);
    let dests = workloads::destsets::random_dests(&mut rng, cube, NodeId(0), 32);
    let tree = Algorithm::UCube
        .build(cube, resolution, PortModel::AllPort, NodeId(0), &dests)
        .unwrap();
    (cube, resolution, params, multicast_workload(&tree, 4096))
}

fn bench_probe_overhead(c: &mut Criterion) {
    let (cube, resolution, params, workload) = fig11_workload();
    let router = Ecube::new(cube, resolution);
    let mut g = c.benchmark_group("probe_overhead");

    g.bench_function("baseline", |b| {
        b.iter(|| std::hint::black_box(Run::new(router, &params, &workload).run().unwrap()))
    });
    g.bench_function("noop_probe", |b| {
        b.iter(|| {
            let mut probe = NoopProbe;
            std::hint::black_box(
                Run::new(router, &params, &workload)
                    .probe(&mut probe)
                    .run()
                    .unwrap(),
            )
        })
    });
    g.bench_function("event_recorder", |b| {
        b.iter(|| {
            let mut probe = EventRecorder::new();
            std::hint::black_box(
                Run::new(router, &params, &workload)
                    .probe(&mut probe)
                    .run()
                    .unwrap(),
            )
        })
    });
    g.bench_function("metrics", |b| {
        b.iter(|| {
            let mut probe = Metrics::new();
            std::hint::black_box(
                Run::new(router, &params, &workload)
                    .probe(&mut probe)
                    .run()
                    .unwrap(),
            )
        })
    });
    g.bench_function("telemetry_probe", |b| {
        b.iter(|| {
            let mut probe = TelemetryProbe::new();
            let run = Run::new(router, &params, &workload)
                .probe(&mut probe)
                .run()
                .unwrap();
            std::hint::black_box((run, probe.take_intervals()))
        })
    });
    g.finish();
}

/// Open-loop operating point for the end-to-end comparison: a loaded
/// 5-cube pool run, small enough for criterion, contended enough that
/// the blocking-interval sink sees real traffic.
fn traffic_spec() -> TrafficSpec {
    let mut rng = workloads::destsets::trial_rng("probe_overhead", 1, 0);
    let pool = DestPattern::uniform_pool(&mut rng, &Cube::of(5), 4, 6);
    let mut spec = TrafficSpec::new(Arrivals::new(ArrivalProcess::Poisson, 20.0), pool, 40, 7);
    spec.cache_capacity = 8;
    spec
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let cube = Cube::of(5);
    let params = SimParams::ncube2(PortModel::AllPort);
    let spec = traffic_spec();
    let cfg = TelemetryConfig::default();
    let mut g = c.benchmark_group("telemetry_overhead");

    g.bench_function("traffic_plain", |b| {
        b.iter(|| {
            std::hint::black_box(traffic::run(
                &spec,
                traffic::Backend::tree(cube, Resolution::HighToLow, Algorithm::WSort),
                &params,
                traffic::RunOptions::default(),
            ))
        })
    });
    g.bench_function("telemetry_full", |b| {
        b.iter(|| {
            let mut tel = None;
            let report = traffic::run(
                &spec,
                traffic::Backend::tree(cube, Resolution::HighToLow, Algorithm::WSort),
                &params,
                traffic::RunOptions::default().telemetry(&cfg, &mut tel),
            );
            std::hint::black_box((report, tel))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_probe_overhead, bench_telemetry_overhead);
criterion_main!(benches);
