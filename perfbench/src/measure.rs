//! The three workloads, measured with tracing off.
//!
//! A measured run repeats the workload's fixed work until `--seconds`
//! have passed and reports medians over the repetitions. It drives only
//! the `mcast serve` line protocol and the `workloads::figures` entry
//! points, so the crates' other APIs can change without touching it.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use workloads::figures::{
    fig09, fig10, fig11_12, fig13_14, PAPER_TRIALS_NCUBE, PAPER_TRIALS_STEPS,
};
use workloads::Figure;

use crate::daemon::{peak_rss_kib, result_of, Daemon};
use crate::refs::{load_figures, FigureRef, ServeRefs};
use crate::stats::{median, quantile};
use crate::streams::Pool;

/// The workload names.
pub const WORKLOADS: [&str; 3] = ["figures", "serve_traffic", "serve_chaos"];

/// Times the figure references are loaded, before each repetition, to
/// measure `figures` set-up. Spreading the loads over the run makes the
/// median see the same host conditions as the other metrics.
const FIGURE_SETUPS: usize = 5;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every metric of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Operations attempted (figure entry-point calls, or requests).
    pub attempted: u64,
    /// Operations whose output was wrong or an error.
    pub failed: u64,
    /// Extra checks that failed (traced vs untraced outputs, shares).
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `failed ÷ attempted`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A run's settings.
pub struct Settings {
    /// Checkout root (holds `results/` and `perfbench/`).
    pub root: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// The `mcast` binary.
    pub mcast: PathBuf,
    /// Directory for the span file of a traced run.
    pub out: PathBuf,
}

/// A duration in seconds.
#[must_use]
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn e2e(
    wall: &[f64],
    setup: &[f64],
    rss_mb: f64,
    lat_ms: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let lo = wall.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = wall.iter().copied().fold(0.0, f64::max);
    notes.push(format!(
        "samples: wall_s {} repetitions ({lo:.4}..{hi:.4} s), setup_s {}, request latencies {}",
        wall.len(),
        setup.len(),
        lat_ms.len()
    ));
    vec![
        Metric {
            name: "wall_s",
            value: median(wall),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: median(setup),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss_mb,
            unit: "MB",
        },
        Metric {
            name: "req_p50_ms",
            value: quantile(lat_ms, 0.50),
            unit: "ms",
        },
        Metric {
            name: "req_p90_ms",
            value: quantile(lat_ms, 0.90),
            unit: "ms",
        },
        Metric {
            name: "req_p99_ms",
            value: quantile(lat_ms, 0.99),
            unit: "ms",
        },
    ]
}

type FigureCall = fn() -> Vec<Figure>;

/// The four `workloads::figures` entry points at the paper's trial
/// counts. Their inputs are keyed by experiment, point and trial, as the
/// committed artifacts require, so the seed does not change them.
const FIGURE_CALLS: [FigureCall; 4] = [
    || vec![fig09(PAPER_TRIALS_STEPS)],
    || vec![fig10(PAPER_TRIALS_STEPS)],
    || {
        let (a, b) = fig11_12(PAPER_TRIALS_NCUBE);
        vec![a, b]
    },
    || {
        let (a, b) = fig13_14(PAPER_TRIALS_STEPS);
        vec![a, b]
    },
];

fn matches_refs(figs: &[Figure], refs: &[FigureRef]) -> bool {
    figs.iter()
        .all(|f| refs.iter().any(|r| r.id == f.id && r.text == f.to_json()))
}

/// A serve workload's pool, its stream for the seed (pool indices) and
/// the stream's request lines.
///
/// # Errors
/// If `workload` is not a serve workload.
pub fn serve_inputs(
    s: &Settings,
    workload: &str,
) -> Result<(Pool, Vec<usize>, Vec<String>), String> {
    let pool = Pool::of(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let stream = pool.stream(s.seed);
    let lines = stream
        .iter()
        .enumerate()
        .map(|(i, &p)| pool.requests[p].line(i as u64 + 1))
        .collect();
    Ok((pool, stream, lines))
}

/// One measured (untraced) run of `workload`.
///
/// # Errors
/// If references are missing or the daemon fails.
pub fn measure(s: &Settings, workload: &str) -> Result<Outcome, String> {
    if workload == "figures" {
        measure_figures(s)
    } else {
        measure_serve(s, workload)
    }
}

fn measure_figures(s: &Settings) -> Result<Outcome, String> {
    let (mut wall, mut setup, mut attempted, mut failed) = (Vec::new(), Vec::new(), 0, 0);
    let mut per_call: Vec<Vec<f64>> = vec![Vec::new(); FIGURE_CALLS.len()];
    let mut rss = None;
    let start = Instant::now();
    loop {
        let mut refs = Vec::new();
        for _ in 0..FIGURE_SETUPS {
            let t = Instant::now();
            refs = load_figures(&s.root)?;
            setup.push(secs(t.elapsed()));
        }
        let mut rep = 0.0;
        for (call, times) in FIGURE_CALLS.iter().zip(&mut per_call) {
            let t = Instant::now();
            let figs = call();
            let dt = secs(t.elapsed());
            rep += dt;
            times.push(dt * 1e3);
            attempted += 1;
            if !matches_refs(&figs, &refs) {
                failed += 1;
            }
        }
        wall.push(rep);
        // The peak of the first repetition is what one user run costs;
        // later repetitions only add allocator arenas of their threads.
        if rss.is_none() {
            rss = Some(peak_rss_kib("/proc/self/status").map_err(|e| e.to_string())?);
        }
        if secs(start.elapsed()) >= s.seconds {
            break;
        }
    }
    let rss = rss.unwrap_or_default() as f64 / 1024.0;
    // Four calls of very different sizes: percentiles over the calls'
    // median times, so that each is a stable order statistic.
    let call_ms: Vec<f64> = per_call.iter().map(|t| median(t)).collect();
    let mut notes = vec![format!(
        "op: one workloads::figures entry-point call; median ms per call \
         (fig09, fig10, fig11_12, fig13_14): {call_ms:.1?}"
    )];
    let metrics = e2e(&wall, &setup, rss, &call_ms, &mut notes);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems: Vec::new(),
        notes,
    })
}

/// Sends `lines` through one fresh daemon. Returns the set-up time,
/// the wall time of the stream, per-request latencies (ms), failures
/// and the daemon's peak RSS (KiB).
///
/// # Errors
/// If the daemon cannot start or its pipes break.
pub fn daemon_pass(
    s: &Settings,
    refs: &ServeRefs,
    stream: &[usize],
    lines: &[String],
) -> Result<(f64, f64, Vec<f64>, u64, u64), String> {
    let io = |e: std::io::Error| format!("mcast serve: {e}");
    let (mut d, setup) = Daemon::spawn(&s.mcast).map_err(io)?;
    let mut lat = Vec::with_capacity(lines.len());
    let mut failed = 0;
    let t0 = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let (resp, dt) = d.request(line).map_err(io)?;
        lat.push(secs(dt) * 1e3);
        if !result_of(resp, i as u64 + 1).is_some_and(|r| refs.matches(stream[i], r)) {
            failed += 1;
        }
    }
    let wall = secs(t0.elapsed());
    let rss = d.peak_rss_kib().map_err(io)?;
    d.shutdown().map_err(io)?;
    Ok((secs(setup), wall, lat, failed, rss))
}

fn measure_serve(s: &Settings, workload: &str) -> Result<Outcome, String> {
    let (pool, stream, lines) = serve_inputs(s, workload)?;
    let refs = ServeRefs::load(&s.root, workload, &pool)?;
    let (mut wall, mut setup, mut lat, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    loop {
        let (su, w, l, f, r) = daemon_pass(s, &refs, &stream, &lines)?;
        setup.push(su);
        wall.push(w);
        lat.extend(l);
        attempted += lines.len() as u64;
        failed += f;
        rss.push(r as f64 / 1024.0);
        if secs(start.elapsed()) >= s.seconds {
            break;
        }
    }
    let mut notes = vec![format!(
        "op: one request through mcast serve, closed loop, one client, {} requests per repetition",
        lines.len()
    )];
    let metrics = e2e(&wall, &setup, median(&rss), &lat, &mut notes);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems: Vec::new(),
        notes,
    })
}
