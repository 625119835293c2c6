//! First-party engine micro/macro benchmark: the perf baseline behind
//! the scratch-reuse work. Emits `BENCH_engine.json` at the workspace
//! root — the first point of the repo's committed perf trajectory.
//!
//! Two families of cases, each measured **cold** (a fresh
//! [`wormsim::EngineScratch`] allocated per run, as the plain entry
//! points do) and **warm** (one persistent scratch replayed into, so
//! the event heap, message table, channel state, and route memo are
//! reused):
//!
//! * **traffic** — the open-loop smoke sweep configuration
//!   (recurring-pool Poisson sessions) on the 6-cube, the 8-cube, and
//!   the 4-ary 3-cube torus, replayed **one engine run per session**:
//!   the tentpole's "one scratch per worker, sessions replayed into it"
//!   shape. The assembly is built once (via
//!   [`traffic::assemble_cube_sessions`]) and split into per-session
//!   workloads ([`SessionWorkload::session_workload`]); the timed loop
//!   drives each session through the engine, cold allocating a fresh
//!   arena per session (the pre-scratch allocation storm) and warm
//!   replaying every session into one persistent scratch whose route
//!   memo carries the recurring pool's routes across sessions. Tree
//!   construction and report assembly are identical in both paths and
//!   stay outside the timing. Metric: engine **sessions/sec** of
//!   wall-clock time.
//! * **replay** — a fixed multicast (cube) or separate-addressing
//!   (torus) workload replayed back-to-back; metric: **ns per
//!   flit-hop**, where flit-hops = Σ bytes × route length is the work
//!   the wormhole model fundamentally has to move.
//!
//! A third family, **scaling**, measures the sharded session driver
//! ([`traffic::run_trials`]) at 1/2/4/8 workers on the warm 8-cube
//! recurring-pool case: aggregate sessions/sec, speedup over one
//! worker, and the host-portable **efficiency** (speedup /
//! `min(workers, host_parallelism)`), which is what `--check` tracks —
//! plus an absolute ≥ 4× speedup bar at 8 workers that applies only on
//! hosts that actually have 8 cores.
//!
//! Cold and warm repetitions are interleaved in small batch pairs so
//! CPU frequency drift hits both sides equally instead of biasing
//! whichever phase ran second; pairs that the scheduler preempted
//! mid-measurement (detected via `/proc/self/schedstat` runqueue-wait
//! growth) are excluded; and the reported ratio is the **median** of
//! the surviving per-pair ratios, which discards residual one-sided
//! outliers. The aggregate rates are machine-dependent context only.
//!
//! The committed artifact is a measurement, not a deterministic
//! fixture: absolute numbers vary by machine, but the `warm_over_cold`
//! ratios are the point — scratch reuse must keep paying for itself
//! (the acceptance bar is ≥ 1.25× on the 8-cube recurring-pool case).
//!
//! Flags:
//! * `--quick` — fewer repetitions (CI smoke; noisier ratios);
//! * `--out FILE` — write somewhere other than `BENCH_engine.json`;
//! * `--check [FILE]` — the perf-regression gate: re-run every case at
//!   quick repetitions and fail (exit 1) if any measured warm/cold
//!   ratio drops below [`CHECK_FLOOR_FRACTION`] of the committed
//!   baseline's ratio (default baseline: `BENCH_engine.json`). Writes
//!   nothing.

use hcube::{Cube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use traffic::{ArrivalProcess, Arrivals, DestPattern, SessionWorkload, TrafficSpec};
use workloads::json::Value;
use wormsim::{
    multicast_workload, simulate_on, simulate_on_with_scratch, DepMessage, EngineScratch,
    SimParams, SimTime,
};

/// Number of alternating cold/warm batch pairs per case. Small batches
/// (a few ms each) keep any one scheduler preemption inside a single
/// batch, where the median across pairs discards it.
const BATCHES: usize = 40;

/// Runqueue-wait nanoseconds accumulated by this process so far
/// (`/proc/self/schedstat` field 1). A batch whose wait counter moved
/// was preempted by a co-tenant mid-measurement — its wall-clock time
/// lies about the work done.
fn wait_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    s.split_whitespace().nth(1)?.parse().ok()
}

/// Runqueue wait a batch may accumulate before it counts as preempted
/// (scheduler bookkeeping blips stay under this).
const PREEMPT_EPSILON_NS: u64 = 100_000;

/// Times `reps` calls of `f`: returns wall-clock seconds plus whether
/// the scheduler preempted the batch (when the kernel exposes
/// schedstat; otherwise batches are assumed clean).
fn time_reps<F: FnMut()>(reps: usize, mut f: F) -> (f64, bool) {
    let w0 = wait_ns();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    let wall = t0.elapsed().as_secs_f64();
    let preempted = match (w0, wait_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) > PREEMPT_EPSILON_NS,
        _ => false,
    };
    (wall, preempted)
}

/// Times `reps` repetitions of `cold` and of `warm`, interleaved in
/// [`BATCHES`] alternating cold/warm batch pairs. Returns `(cold_secs,
/// warm_secs, median_ratio)` where the ratio is the **median** of the
/// per-pair `cold/warm` time ratios over pairs the scheduler left
/// alone: adjacent pairing cancels slow frequency drift, preempted
/// pairs (detected via schedstat runqueue-wait) are excluded outright,
/// and the median discards residual outliers. When co-tenants taint
/// nearly every pair, the median falls back to all of them. The summed
/// times feed the (machine-dependent) absolute rates; the median ratio
/// is the tracked quantity.
fn time_interleaved<C: FnMut(), W: FnMut()>(
    reps: usize,
    mut cold: C,
    mut warm: W,
) -> (f64, f64, f64) {
    let per = (reps / BATCHES).max(1);
    let batches = reps.div_ceil(per);
    let mut pairs = Vec::with_capacity(batches);
    for _ in 0..batches {
        let (c, c_pre) = time_reps(per, &mut cold);
        let (w, w_pre) = time_reps(per, &mut warm);
        pairs.push((c, w, c_pre || w_pre));
    }
    let cold_s: f64 = pairs.iter().map(|p| p.0).sum();
    let warm_s: f64 = pairs.iter().map(|p| p.1).sum();
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|p| !p.2)
        .map(|&(c, w, _)| c / w)
        .collect();
    if ratios.len() < BATCHES / 4 {
        // Too few clean pairs to be meaningful; use everything.
        ratios = pairs.iter().map(|&(c, w, _)| c / w).collect();
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite batch times"));
    let median = if ratios.len() % 2 == 1 {
        ratios[ratios.len() / 2]
    } else {
        (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0
    };
    (cold_s, warm_s, median)
}

/// Rounds to 3 decimal places for a stable, readable artifact.
fn r3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

/// The smoke traffic spec used by every traffic case: recurring-pool
/// Poisson sessions, mirroring `SweepConfig::smoke()` at a mid-ladder
/// offered load.
fn smoke_spec(pattern: &DestPattern, seed: u64) -> TrafficSpec {
    let sessions = 30;
    // The lightest point of the smoke-ladder for 256 nodes
    // (`SweepConfig::smoke().loads_256 = [2, 8, 32]`): per-session
    // engine overhead — exactly what scratch reuse targets — dominates
    // here, before contention-resolution events (identical in both
    // paths) take over the profile.
    let rate = 2.0;
    let mut spec = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, rate),
        pattern.clone(),
        sessions,
        seed,
    );
    spec.bytes = 1024;
    spec.horizon = SimTime::from_ms((sessions as f64 / rate * 1.25 + 30.0) as u64);
    spec.cache_capacity = 8;
    spec
}

/// One traffic case: the pre-assembled sessions replayed through the
/// engine **one run per session** — cold allocates a fresh scratch for
/// every session (the pre-scratch allocation storm), warm replays all
/// of them into one persistent scratch, route memo included. Only the
/// engine runs are timed — assembly, session splitting, and report
/// statistics are identical in both paths and stay outside the loop.
/// Returns the JSON object for the artifact.
fn traffic_case<R: Router + Copy>(
    name: &str,
    router: R,
    sessions: &SessionWorkload,
    params: &SimParams,
    reps: usize,
) -> Value {
    let per_session: Vec<Vec<DepMessage>> = (0..sessions.sessions())
        .map(|i| sessions.session_workload(i))
        .collect();
    // Prime the persistent scratch (arenas sized, routes memoized).
    let mut warm_scratch = EngineScratch::new();
    for w in &per_session {
        let _ = simulate_on_with_scratch(router, params, w, &mut warm_scratch);
    }
    let (cold_s, warm_s, ratio) = time_interleaved(
        reps,
        || {
            for w in &per_session {
                let mut fresh = EngineScratch::new();
                std::hint::black_box(simulate_on_with_scratch(router, params, w, &mut fresh));
            }
        },
        || {
            for w in &per_session {
                std::hint::black_box(simulate_on_with_scratch(
                    router,
                    params,
                    w,
                    &mut warm_scratch,
                ));
            }
        },
    );
    let total_sessions = (sessions.sessions() * reps) as f64;
    let cold_rate = total_sessions / cold_s;
    let warm_rate = total_sessions / warm_s;
    eprintln!(
        "[traffic/{name}] cold {cold_rate:.0} sessions/s, warm {warm_rate:.0} sessions/s \
         (median {ratio:.2}x)",
    );
    Value::Object(vec![
        ("name".into(), Value::String(format!("traffic-{name}"))),
        ("kind".into(), Value::String("traffic".into())),
        ("network".into(), Value::String(name.into())),
        (
            "workload".into(),
            Value::String(
                "recurring-pool smoke (Poisson, 30 sessions, 1 KB); one engine run \
                 per session; cold = fresh arena per session, warm = one persistent \
                 scratch + route memo"
                    .into(),
            ),
        ),
        ("runs".into(), num(reps as f64)),
        ("sessions_per_run".into(), num(sessions.sessions() as f64)),
        ("cold_sessions_per_sec".into(), num(r3(cold_rate))),
        ("warm_sessions_per_sec".into(), num(r3(warm_rate))),
        ("warm_over_cold".into(), num(r3(ratio))),
    ])
}

/// One replay case: a fixed workload replayed `reps` times through a
/// router, cold vs warm; normalized to ns per flit-hop.
fn replay_case<R: Router + Copy>(
    name: &str,
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    reps: usize,
) -> Value {
    // Flit-hops of one replay: bytes × route length, summed.
    let mut hops = Vec::new();
    let flit_hops: f64 = workload
        .iter()
        .map(|m| {
            hops.clear();
            router.route_hops(m.src, m.dst, &mut hops);
            f64::from(m.bytes) * hops.len() as f64
        })
        .sum();
    let mut scratch = EngineScratch::new();
    // Populate the arenas and the route memo before timing.
    let _ = simulate_on_with_scratch(router, params, workload, &mut scratch);
    let (cold_s, warm_s, ratio) = time_interleaved(
        reps,
        || {
            std::hint::black_box(simulate_on(router, params, workload));
        },
        || {
            std::hint::black_box(simulate_on_with_scratch(
                router,
                params,
                workload,
                &mut scratch,
            ));
        },
    );
    let total = flit_hops * reps as f64;
    let cold_ns = cold_s * 1e9 / total;
    let warm_ns = warm_s * 1e9 / total;
    eprintln!(
        "[replay/{name}] cold {cold_ns:.3} ns/flit-hop, warm {warm_ns:.3} ns/flit-hop \
         (median {ratio:.2}x)",
    );
    Value::Object(vec![
        ("name".into(), Value::String(format!("replay-{name}"))),
        ("kind".into(), Value::String("replay".into())),
        ("network".into(), Value::String(name.into())),
        ("messages".into(), num(workload.len() as f64)),
        ("flit_hops_per_run".into(), num(flit_hops)),
        ("runs".into(), num(reps as f64)),
        ("cold_ns_per_flit_hop".into(), num(r3(cold_ns))),
        ("warm_ns_per_flit_hop".into(), num(r3(warm_ns))),
        ("cold_over_warm".into(), num(r3(ratio))),
    ])
}

/// The sharded-driver scaling curve: whole passes over the warm 8-cube
/// recurring-pool assembly distributed across N workers through
/// [`traffic::run_trials`] — each worker owns one [`EngineScratch`]
/// whose route memo stays warm across its trials, exactly the shape
/// `sweep chaos_sweep`, `sweep telemetry_sweep` and `mcast serve` run
/// on. Metric: aggregate **sessions/sec**; per worker count the artifact records
/// the speedup over one worker and the **efficiency** — speedup divided
/// by `min(workers, host_parallelism)` — which is the host-portable
/// tracked ratio (a 1-core container honestly reports speedup ~1 and
/// efficiency ~1; an 8-core host must deliver real speedup to hold
/// efficiency). The absolute >= 4x bar at 8 workers is enforced by
/// `--check` only where `host_parallelism >= 8` makes it physically
/// meaningful.
fn scaling_cases(reps: usize) -> Vec<Value> {
    let params = SimParams::ncube2(PortModel::AllPort);
    let cube = Cube::of(8);
    let mut rng = StdRng::seed_from_u64(93);
    let pattern = DestPattern::uniform_pool(&mut rng, &cube, 4, 16);
    let spec = smoke_spec(&pattern, 93);
    let sessions = traffic::assemble_cube_sessions(
        &spec,
        cube,
        Resolution::HighToLow,
        Algorithm::WSort,
        &params,
    );
    let per_session: Vec<Vec<DepMessage>> = (0..sessions.sessions())
        .map(|i| sessions.session_workload(i))
        .collect();
    let router = hcube::Ecube::new(cube, Resolution::HighToLow);
    let trials = (reps / 10).max(16);
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rate1 = f64::NAN;
    let mut cases = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        // Best of three passes: scaling wants the attainable rate, not
        // the co-tenant-noise-averaged one.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let (wall, _) = time_reps(1, || {
                std::hint::black_box(traffic::run_trials(workers, trials, |_, scratch| {
                    for w in &per_session {
                        std::hint::black_box(simulate_on_with_scratch(router, &params, w, scratch));
                    }
                }));
            });
            best = best.min(wall);
        }
        let rate = (trials * sessions.sessions()) as f64 / best;
        if workers == 1 {
            rate1 = rate;
        }
        let speedup = rate / rate1;
        let efficiency = speedup / workers.min(host) as f64;
        eprintln!(
            "[scaling/cube8 w{workers}] {rate:.0} sessions/s, speedup {speedup:.2}x, \
             efficiency {efficiency:.2} (host parallelism {host})",
        );
        cases.push(Value::Object(vec![
            (
                "name".into(),
                Value::String(format!("scaling-cube8-w{workers}")),
            ),
            ("kind".into(), Value::String("scaling".into())),
            ("network".into(), Value::String("cube8".into())),
            (
                "workload".into(),
                Value::String(
                    "sharded run_trials passes over the warm recurring-pool smoke \
                     assembly; one EngineScratch per worker, trial-indexed merge"
                        .into(),
                ),
            ),
            ("workers".into(), num(workers as f64)),
            ("trials".into(), num(trials as f64)),
            ("sessions_per_trial".into(), num(sessions.sessions() as f64)),
            ("sessions_per_sec".into(), num(r3(rate))),
            ("speedup_over_1".into(), num(r3(speedup))),
            ("host_parallelism".into(), num(host as f64)),
            ("efficiency".into(), num(r3(efficiency))),
        ]));
    }
    cases
}

/// How much of the committed baseline ratio a quick re-measurement must
/// retain to pass `--check`. Quick repetitions are noisy, so the gate
/// flags sustained regressions (a lost optimization, an accidental
/// per-run allocation), not run-to-run jitter.
const CHECK_FLOOR_FRACTION: f64 = 0.7;

/// The absolute scaling bar of the sharded driver: >= this speedup at 8
/// workers, enforced by `--check` on hosts with >= 8 cores.
const SCALING_SPEEDUP_FLOOR_AT_8: f64 = 4.0;

/// Runs every benchmark case and returns the artifact's `cases` array.
fn run_cases(reps: usize, replay_reps: usize) -> Vec<Value> {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut cases = Vec::new();

    // --- traffic cases: cube6, cube8 (the acceptance case), torus ----
    for (name, dim) in [("cube6", 6u8), ("cube8", 8u8)] {
        let cube = Cube::of(dim);
        let m = if dim == 6 { 8 } else { 16 };
        let mut rng = StdRng::seed_from_u64(93);
        let pattern = DestPattern::uniform_pool(&mut rng, &cube, 4, m);
        let spec = smoke_spec(&pattern, 93);
        let sessions = traffic::assemble_cube_sessions(
            &spec,
            cube,
            Resolution::HighToLow,
            Algorithm::WSort,
            &params,
        );
        cases.push(traffic_case(
            name,
            hcube::Ecube::new(cube, Resolution::HighToLow),
            &sessions,
            &params,
            reps,
        ));
    }
    {
        let torus = Torus::of(4, 3);
        let router = TorusRouter::new(torus);
        let mut rng = StdRng::seed_from_u64(93);
        let pattern = DestPattern::uniform_pool(&mut rng, &torus, 4, 8);
        let spec = smoke_spec(&pattern, 93);
        let sessions = traffic::assemble_separate_sessions_on(&spec, &router);
        cases.push(traffic_case("torus4x3", router, &sessions, &params, reps));
    }

    // --- replay cases: fixed workloads, ns/flit-hop ------------------
    for (name, dim) in [("cube6", 6u8), ("cube8", 8u8)] {
        let cube = Cube::of(dim);
        let m = if dim == 6 { 16 } else { 40 };
        let mut rng = StdRng::seed_from_u64(7);
        let dests = workloads::destsets::random_dests(&mut rng, cube, NodeId(0), m);
        let tree = Algorithm::WSort
            .build(
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests,
            )
            .expect("valid tree");
        let workload = multicast_workload(&tree, 1024);
        cases.push(replay_case(
            name,
            hcube::Ecube::new(cube, Resolution::HighToLow),
            &params,
            &workload,
            replay_reps,
        ));
    }
    {
        let torus = Torus::of(4, 3);
        let router = TorusRouter::new(torus);
        let mut rng = StdRng::seed_from_u64(7);
        let dests = workloads::destsets::random_dests_on(&mut rng, &torus, NodeId(0), 16);
        let workload: Vec<DepMessage> = dests
            .iter()
            .map(|&d| DepMessage {
                src: NodeId(0),
                dst: d,
                bytes: 1024,
                deps: Vec::new(),
                min_start: SimTime::ZERO,
            })
            .collect();
        cases.push(replay_case(
            "torus4x3",
            router,
            &params,
            &workload,
            replay_reps,
        ));
    }

    // --- scaling cases: the sharded driver at 1/2/4/8 workers ---------
    cases.extend(scaling_cases(reps));
    cases
}

/// The ratio field a case is tracked by: `warm_over_cold` for traffic
/// cases, `efficiency` for scaling cases, `cold_over_warm` for replay
/// cases — all read "how much the optimization pays", larger is better.
///
/// Scaling cases whose worker count exceeds the host's parallelism are
/// untracked: their wall time measures the scheduler's time-slicing of
/// oversubscribed threads, not the sharded driver, and jitters far
/// beyond the check floor. (They still appear in the artifact as the
/// scaling curve's data points, and the absolute 8-worker speedup bar
/// in `--check` gates hosts that really have the cores.)
fn tracked_ratio(case: &Value) -> Option<(String, f64)> {
    let name = case.get("name").and_then(Value::as_str)?.to_string();
    let key = match case.get("kind").and_then(Value::as_str)? {
        "traffic" => "warm_over_cold",
        "scaling" => {
            let workers = case.get("workers").and_then(Value::as_f64)?;
            let host = case.get("host_parallelism").and_then(Value::as_f64)?;
            if workers > host {
                return None;
            }
            "efficiency"
        }
        _ => "cold_over_warm",
    };
    Some((name, case.get(key).and_then(Value::as_f64)?))
}

/// `--check`: re-measures every case at quick repetitions and compares
/// against the committed baseline's ratios. Exits 1 on regression.
fn run_check(baseline_path: &str) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let baseline = workloads::json::parse(&text)
        .unwrap_or_else(|e| panic!("{baseline_path}: invalid JSON: {e}"));
    let schema = baseline.get("schema").and_then(Value::as_str);
    assert_eq!(
        schema,
        Some("engine-bench/v1"),
        "{baseline_path}: unexpected schema {schema:?}"
    );
    let committed: Vec<(String, f64)> = baseline
        .get("cases")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{baseline_path}: missing cases array"))
        .iter()
        .filter_map(tracked_ratio)
        .collect();
    assert!(!committed.is_empty(), "{baseline_path}: no tracked cases");

    eprintln!(
        "[check] re-measuring {} cases at quick repetitions (floor = {CHECK_FLOOR_FRACTION} x baseline)",
        committed.len()
    );
    let cases = run_cases(40, 400);
    let measured: Vec<(String, f64)> = cases.iter().filter_map(tracked_ratio).collect();

    let mut failed = false;
    // The absolute scaling bar: where the host actually has >= 8 cores,
    // 8 workers must deliver >= SCALING_SPEEDUP_FLOOR_AT_8 x over 1.
    // Smaller hosts cannot physically exhibit parallel speedup, so only
    // the host-portable efficiency ratio gates there.
    if let Some(w8) = cases
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some("scaling-cube8-w8"))
    {
        let host = w8.get("host_parallelism").and_then(Value::as_f64);
        let speedup = w8.get("speedup_over_1").and_then(Value::as_f64);
        if let (Some(host), Some(speedup)) = (host, speedup) {
            if host >= 8.0 && speedup < SCALING_SPEEDUP_FLOOR_AT_8 {
                eprintln!(
                    "[check] FAIL scaling-cube8-w8: speedup {speedup:.2}x < \
                     {SCALING_SPEEDUP_FLOOR_AT_8}x on a {host}-way host"
                );
                failed = true;
            } else {
                eprintln!(
                    "[check]   ok scaling-cube8-w8: speedup {speedup:.2}x on a {host}-way host \
                     (absolute {SCALING_SPEEDUP_FLOOR_AT_8}x bar {})",
                    if host >= 8.0 {
                        "enforced"
                    } else {
                        "not applicable"
                    }
                );
            }
        }
    }
    for (name, base) in &committed {
        let Some((_, now)) = measured.iter().find(|(n, _)| n == name) else {
            eprintln!("[check] FAIL {name}: case missing from this build");
            failed = true;
            continue;
        };
        let floor = base * CHECK_FLOOR_FRACTION;
        let verdict = if *now < floor { "FAIL" } else { "ok" };
        eprintln!(
            "[check] {verdict:>4} {name}: ratio {now:.3} vs baseline {base:.3} (floor {floor:.3})"
        );
        failed |= *now < floor;
    }
    if failed {
        eprintln!("[check] perf-regression gate FAILED: scratch reuse pays less than {CHECK_FLOOR_FRACTION}x the committed baseline");
        std::process::exit(1);
    }
    eprintln!("[check] perf-regression gate passed");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone());

    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let default = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_engine.json")
            .to_string_lossy()
            .into_owned();
        let baseline = args
            .get(pos + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or(default);
        run_check(&baseline);
        return;
    }

    let reps = if quick { 40 } else { 800 };
    let replay_reps = if quick { 400 } else { 4000 };
    let cases = run_cases(reps, replay_reps);

    let doc = Value::Object(vec![
        ("schema".into(), Value::String("engine-bench/v1".into())),
        (
            "command".into(),
            Value::String("cargo run -p bench --release --bin engine_bench".into()),
        ),
        (
            "note".into(),
            Value::String(
                "wall-clock measurement; absolute numbers are machine-dependent, \
                 the warm/cold ratios are the tracked quantity"
                    .into(),
            ),
        ),
        ("quick".into(), Value::Bool(quick)),
        ("cases".into(), Value::Array(cases)),
    ]);
    let path = out.unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_engine.json")
            .to_string_lossy()
            .into_owned()
    });
    let mut text = doc.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("write BENCH_engine.json");
    eprintln!("[saved {path}]");
}
