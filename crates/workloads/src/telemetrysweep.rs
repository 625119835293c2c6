//! Telemetry sweep: the windowed time-series of a churn-and-recover
//! run, committed as an artifact.
//!
//! One series per (network × algorithm): the 64-node 6-cube under every
//! paper tree algorithm plus the 4-ary 3-cube torus under separate
//! addressing, each driven by Poisson multicast sessions while an
//! MTBF/MTTR churn process kills and revives links and nodes during the
//! first part of the window and then stops. The run goes through
//! [`traffic::run_chaos`] with the flight recorder attached
//! and each series commits its windowed time-series: offered/delivered
//! sessions, goodput, latency quantiles, cache hit counters, live fault
//! elements, and per-dimension head-flit blocked time, bucket by bucket.
//!
//! The artifact makes self-healing *visible*: goodput dips while faults
//! are live (sessions fail and back off) and refills after churn ends
//! as the retry tail drains — [`TelemetrySweep::check_recovery`] pins
//! exactly that shape, and CI validates the committed
//! `results/telemetry_sweep.{txt,json}` with it.
//!
//! Determinism: the time-series is a pure fold over one seeded run per
//! series, so identical configs regenerate the artifact byte-for-byte
//! at any worker count; the determinism suite pins it.

use crate::artifact::{record, Artifact, NanNull};
use crate::trafficsweep::{horizon_for, run_seed};
use hcube::{Cube, Resolution, Torus, TorusRouter};
use hypercast::{Algorithm, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic::{
    ArrivalProcess, Arrivals, Backend, ChaosReport, ChaosSpec, ChurnSpec, DestPattern, Quantiles,
    RunOptions, Telemetry, TelemetryConfig, TrafficSpec,
};
use wormsim::{EngineScratch, Histogram, SimParams, SimTime};

/// Sweep dimensions, churn shape, and seeding.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySweepConfig {
    /// Sessions injected per series.
    pub sessions: usize,
    /// Recurring destination groups per network pool.
    pub pool_groups: usize,
    /// Destinations per multicast.
    pub m: usize,
    /// Payload bytes per multicast.
    pub bytes: u32,
    /// Master seed; every per-series seed derives from it.
    pub seed: u64,
    /// Offered load, sessions per millisecond.
    pub rate_per_ms: f64,
    /// Time-series buckets per window.
    pub buckets: usize,
    /// Per-link MTBF while churn is active.
    pub link_mtbf_ms: f64,
    /// Mean time to repair a failed link.
    pub link_mttr_ms: f64,
    /// Per-node MTBF as a multiple of the per-link MTBF.
    pub node_mtbf_factor: f64,
    /// Mean time to repair (reboot) a failed node.
    pub node_mttr_ms: f64,
    /// Fraction of the window during which new failures may strike;
    /// the remainder is the recovery tail the refill shows up in.
    pub churn_fraction: f64,
    /// Retry policy for faulted sessions (backoffs in µs of simulated
    /// time).
    pub retry: RetryPolicy,
}

impl TelemetrySweepConfig {
    /// The committed-artifact configuration.
    #[must_use]
    pub fn full() -> TelemetrySweepConfig {
        TelemetrySweepConfig {
            sessions: 240,
            pool_groups: 8,
            m: 8,
            bytes: 4096,
            seed: 211,
            // Light load: the series shows churn dynamics, not queueing.
            rate_per_ms: 0.5,
            buckets: 24,
            link_mtbf_ms: 400.0,
            link_mttr_ms: 4.0,
            node_mtbf_factor: 4.0,
            node_mttr_ms: 6.0,
            churn_fraction: 0.5,
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: 500,
                backoff_factor: 4,
            },
        }
    }

    /// A short configuration for CI smoke runs and debug-mode tests
    /// (same schema, same code paths, far less work).
    #[must_use]
    pub fn smoke() -> TelemetrySweepConfig {
        TelemetrySweepConfig {
            sessions: 48,
            pool_groups: 4,
            bytes: 1024,
            buckets: 12,
            link_mtbf_ms: 150.0,
            ..TelemetrySweepConfig::full()
        }
    }
}

/// One time-series bucket of one series (integer counters stay exact;
/// derived rates are recomputed on parse).
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryRow {
    /// Bucket start, ms.
    pub start_ms: f64,
    /// Sessions that arrived in this bucket.
    pub offered: u64,
    /// Delivered sessions that completed in this bucket.
    pub delivered: u64,
    /// Delivered per millisecond of bucket width.
    pub goodput_per_ms: f64,
    /// Median latency of sessions completing here, ms (NaN when none).
    pub p50_ms: f64,
    /// 95th-percentile latency, ms (NaN when none).
    pub p95_ms: f64,
    /// Tree-cache hits among lookups launched in this bucket.
    pub cache_hits: u64,
    /// Tree-cache lookups launched in this bucket.
    pub cache_lookups: u64,
    /// Fault elements down at the bucket's start.
    pub live_faults: u64,
    /// External-channel head-flit blocked time by dimension, ns.
    pub blocked_ns_per_dim: Vec<u64>,
}

/// One (network × algorithm) run: headline aggregates plus the full
/// windowed time-series.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySeries {
    /// Network name (`cube6`, `torus4x3`).
    pub network: String,
    /// Node count.
    pub nodes: usize,
    /// Tree algorithm name, or `Separate`.
    pub algorithm: String,
    /// Fraction of measured sessions fully delivered.
    pub delivery_ratio: f64,
    /// Mean delivered-session latency, ms.
    pub mean_latency_ms: f64,
    /// 95th-percentile delivered-session latency, ms.
    pub p95_ms: f64,
    /// Total simulate attempts across all sessions.
    pub attempts: u64,
    /// Sessions lost to retry exhaustion or the horizon.
    pub lost: u64,
    /// Fault/repair events in the churn timeline.
    pub fault_events: u64,
    /// Time from the last fault event to the last disrupted session's
    /// resolution, ms (`None` when nothing was disrupted).
    pub time_to_recover_ms: Option<f64>,
    /// End of the churn window, ms.
    pub churn_until_ms: f64,
    /// Observation window, ms.
    pub horizon_ms: f64,
    /// Bucket width, ms.
    pub bucket_ms: f64,
    /// The time-series, in time order.
    pub rows: Vec<TelemetryRow>,
}

/// The complete telemetry sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySweep {
    /// The configuration that produced it.
    pub config: TelemetrySweepConfig,
    /// All series, cube algorithms first, torus last.
    pub series: Vec<TelemetrySeries>,
}

/// What one series simulates.
enum RunTarget {
    Cube { cube: Cube, algo: Algorithm },
    Torus { torus: Torus },
}

struct RunTask {
    target: RunTarget,
    network: &'static str,
    nodes: usize,
    algorithm: String,
    pattern: DestPattern,
    seed: u64,
}

fn chaos_spec_for(cfg: &TelemetrySweepConfig, task: &RunTask) -> ChaosSpec {
    let mut t = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, cfg.rate_per_ms),
        task.pattern.clone(),
        cfg.sessions,
        task.seed,
    );
    t.bytes = cfg.bytes;
    t.horizon = horizon_for(cfg.sessions, cfg.rate_per_ms);
    t.cache_capacity = 2 * cfg.pool_groups;
    let churn = ChurnSpec {
        link_mtbf_ms: cfg.link_mtbf_ms,
        link_mttr_ms: cfg.link_mttr_ms,
        node_mtbf_ms: cfg.link_mtbf_ms * cfg.node_mtbf_factor,
        node_mttr_ms: cfg.node_mttr_ms,
        churn_until: SimTime::from_ns((t.horizon.as_ns() as f64 * cfg.churn_fraction) as u64),
    };
    ChaosSpec {
        traffic: t,
        churn,
        retry: cfg.retry,
    }
}

fn series_for(
    task: &RunTask,
    spec: &ChaosSpec,
    report: &ChaosReport,
    tel: &Telemetry,
) -> TelemetrySeries {
    let mut latency = Histogram::new();
    for s in &tel.sessions {
        if s.delivered {
            latency.observe(s.latency().as_ns());
        }
    }
    let q = Quantiles::from_latency_histogram(&latency);
    let rows = tel
        .series
        .buckets
        .iter()
        .map(|b| TelemetryRow {
            start_ms: b.start.as_ms(),
            offered: b.offered,
            delivered: b.delivered,
            goodput_per_ms: b.goodput_per_ms,
            p50_ms: b.quantiles.p50_ms,
            p95_ms: b.quantiles.p95_ms,
            cache_hits: b.cache_hits,
            cache_lookups: b.cache_lookups,
            live_faults: b.live_faults,
            blocked_ns_per_dim: b.blocked_ns_per_dim.clone(),
        })
        .collect();
    TelemetrySeries {
        network: task.network.into(),
        nodes: task.nodes,
        algorithm: task.algorithm.clone(),
        delivery_ratio: report.delivery_ratio,
        mean_latency_ms: report.latency.mean,
        p95_ms: q.p95_ms,
        attempts: tel.sessions.iter().map(|s| s.attempts.len() as u64).sum(),
        lost: report.lost,
        fault_events: report.fault_events as u64,
        time_to_recover_ms: report.time_to_recover.map(SimTime::as_ms),
        churn_until_ms: spec.churn.churn_until.as_ms(),
        horizon_ms: report.horizon.as_ms(),
        bucket_ms: tel.series.bucket_ns as f64 / 1e6,
        rows,
    }
}

fn run_task(
    cfg: &TelemetrySweepConfig,
    task: &RunTask,
    scratch: &mut EngineScratch,
) -> TelemetrySeries {
    let params = SimParams::ncube2(hypercast::PortModel::AllPort);
    let spec = chaos_spec_for(cfg, task);
    let tcfg = TelemetryConfig::new(cfg.buckets);
    let mut tel = None;
    let opts = RunOptions::default()
        .scratch(scratch)
        .telemetry(&tcfg, &mut tel);
    let report = match task.target {
        RunTarget::Cube { cube, algo } => {
            let backend = Backend::tree(cube, Resolution::HighToLow, algo);
            traffic::run_chaos(&spec, backend, &params, opts)
        }
        RunTarget::Torus { torus } => {
            let backend = Backend::Separate(TorusRouter::new(torus));
            traffic::run_chaos(&spec, backend, &params, opts)
        }
    };
    let tel = tel.expect("telemetry was requested");
    series_for(task, &spec, &report, &tel)
}

/// Runs the full telemetry sweep single-threaded. Deterministic:
/// identical configs give byte-identical JSON.
#[must_use]
pub fn telemetry_sweep(cfg: &TelemetrySweepConfig) -> TelemetrySweep {
    telemetry_sweep_with_workers(cfg, 1)
}

/// [`telemetry_sweep`] with a worker pool. Every series is an
/// independent seeded run writing into its own pre-assigned slot, so
/// the result is byte-identical for any worker count.
///
/// # Panics
/// Panics if `workers == 0` or a worker thread panics.
#[must_use]
pub fn telemetry_sweep_with_workers(cfg: &TelemetrySweepConfig, workers: usize) -> TelemetrySweep {
    assert!(workers > 0, "need at least one worker");

    let cube = Cube::of(6);
    let mut pool_rng = StdRng::seed_from_u64(run_seed(cfg.seed, "cube6", "pool", 0));
    let pattern = DestPattern::uniform_pool(&mut pool_rng, &cube, cfg.pool_groups, cfg.m);
    let mut tasks: Vec<RunTask> = Algorithm::PAPER
        .iter()
        .enumerate()
        .map(|(i, &algo)| RunTask {
            target: RunTarget::Cube { cube, algo },
            network: "cube6",
            nodes: 64,
            algorithm: algo.name().into(),
            pattern: pattern.clone(),
            seed: run_seed(cfg.seed, "cube6", algo.name(), i),
        })
        .collect();
    let torus = Torus::of(4, 3);
    let mut pool_rng = StdRng::seed_from_u64(run_seed(cfg.seed, "torus4x3", "pool", 0));
    tasks.push(RunTask {
        target: RunTarget::Torus { torus },
        network: "torus4x3",
        nodes: 64,
        algorithm: "Separate".into(),
        pattern: DestPattern::uniform_pool(&mut pool_rng, &torus, cfg.pool_groups, cfg.m),
        seed: run_seed(cfg.seed, "torus4x3", "Separate", 0),
    });

    // The trial pool: per-worker scratch (reuse across runs is
    // byte-invisible), task-indexed merge, so the sweep is worker-count
    // invariant.
    let series = traffic::run_trials(workers, tasks.len(), |i, scratch| {
        run_task(cfg, &tasks[i], scratch)
    });
    TelemetrySweep {
        config: cfg.clone(),
        series,
    }
}

// ----------------------------------------------------------------------
// Validation
// ----------------------------------------------------------------------

impl TelemetrySweep {
    /// Checks the self-healing shape the artifact exists to show: in
    /// every series that saw fault events, (a) bucket sums reconcile
    /// with the session count, (b) some bucket had live faults, and
    /// (c) goodput *dips* while churn is active below the best
    /// *refill* bucket after churn ends — time-to-recover made visible.
    ///
    /// # Errors
    /// A message naming the first series violating the shape.
    pub fn check_recovery(&self) -> Result<(), String> {
        for s in &self.series {
            let offered: u64 = s.rows.iter().map(|r| r.offered).sum();
            if offered != self.config.sessions as u64 {
                return Err(format!(
                    "{} {}: bucket offered sum {} != {} sessions",
                    s.network, s.algorithm, offered, self.config.sessions
                ));
            }
            if s.fault_events == 0 {
                return Err(format!(
                    "{} {}: churn produced no fault events",
                    s.network, s.algorithm
                ));
            }
            if !s.rows.iter().any(|r| r.live_faults > 0) {
                return Err(format!(
                    "{} {}: no bucket saw a live fault",
                    s.network, s.algorithm
                ));
            }
            // Dip-and-refill: the worst churn-active bucket that had
            // arrivals must undershoot the best post-churn bucket.
            let dip = s
                .rows
                .iter()
                .filter(|r| r.start_ms < s.churn_until_ms && r.offered > 0)
                .map(|r| r.goodput_per_ms)
                .fold(f64::INFINITY, f64::min);
            let refill = s
                .rows
                .iter()
                .filter(|r| r.start_ms >= s.churn_until_ms)
                .map(|r| r.goodput_per_ms)
                .fold(0.0, f64::max);
            if !(dip.is_finite() && refill > dip) {
                return Err(format!(
                    "{} {}: goodput never refilled above the churn dip (dip {dip}, refill {refill})",
                    s.network, s.algorithm
                ));
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Artifact schema
// ----------------------------------------------------------------------

record!(TelemetrySweepConfig {
    "sessions" => sessions,
    "pool_groups" => pool_groups,
    "m" => m,
    "bytes" => bytes,
    "seed" => seed,
    "arrivals" = "poisson",
    "rate_per_ms" => rate_per_ms,
    "buckets" => buckets,
    "link_mtbf_ms" => link_mtbf_ms,
    "link_mttr_ms" => link_mttr_ms,
    "node_mtbf_factor" => node_mtbf_factor,
    "node_mttr_ms" => node_mttr_ms,
    "churn_fraction" => churn_fraction,
    "retry" => retry,
});

record!(TelemetryRow {
    "start_ms" => start_ms,
    "offered" => offered,
    "delivered" => delivered,
    "goodput_per_ms" => goodput_per_ms,
    "p50_ms" => p50_ms as NanNull,
    "p95_ms" => p95_ms as NanNull,
    "cache_hits" => cache_hits,
    "cache_lookups" => cache_lookups,
    "live_faults" => live_faults,
    "blocked_ns_per_dim" => blocked_ns_per_dim,
});

record!(TelemetrySeries {
    "network" => network,
    "nodes" => nodes,
    "algorithm" => algorithm,
    "delivery_ratio" => delivery_ratio,
    "mean_latency_ms" => mean_latency_ms as NanNull,
    "p95_ms" => p95_ms as NanNull,
    "attempts" => attempts,
    "lost" => lost,
    "fault_events" => fault_events,
    "time_to_recover_ms" => time_to_recover_ms,
    "churn_until_ms" => churn_until_ms,
    "horizon_ms" => horizon_ms,
    "bucket_ms" => bucket_ms,
    "buckets" => rows,
});

record!(TelemetrySweep { "config" => config, "series" => series });

impl Artifact for TelemetrySweep {
    const ID: &'static str = "telemetry_sweep";
    const TITLE: &'static str =
        "Windowed telemetry: goodput dip and refill across a churn-and-recover window";

    fn check(&self) -> Result<(), String> {
        self.check_recovery()
    }

    fn to_table(&self) -> String {
        let c = &self.config;
        let mut out = format!("{}\n", Self::TITLE);
        out.push_str(&format!(
            "sessions/series = {}, pool = {} groups (m = {}), payload = {} B, seed = {}, {} /ms poisson\n",
            c.sessions, c.pool_groups, c.m, c.bytes, c.seed, c.rate_per_ms
        ));
        out.push_str(&format!(
            "churn: link MTBF = {} ms, MTTR = {} ms, node MTBF = {}x link, MTTR = {} ms, active first {:.0}% of window\n",
            c.link_mtbf_ms,
            c.link_mttr_ms,
            c.node_mtbf_factor,
            c.node_mttr_ms,
            c.churn_fraction * 100.0
        ));
        out.push_str(&format!(
            "retry: up to {} retries, backoff {} µs x{}\n",
            c.retry.max_retries, c.retry.base_backoff, c.retry.backoff_factor
        ));
        for s in &self.series {
            out.push('\n');
            let recover = match s.time_to_recover_ms {
                Some(t) => format!("{t:.3} ms"),
                None => "-".into(),
            };
            out.push_str(&format!(
                "== {} ({} nodes), {} ==\n",
                s.network, s.nodes, s.algorithm
            ));
            out.push_str(&format!(
                "deliver {:.4}, attempts {}, lost {}, events {}, recover {}, churn ends {:.1} ms, window {:.1} ms\n",
                s.delivery_ratio, s.attempts, s.lost, s.fault_events, recover, s.churn_until_ms, s.horizon_ms
            ));
            out.push_str(
                "   t ms   offered   delivered   goodput/ms   p50 ms   p95 ms   cache h/l   faults   blocked µs\n",
            );
            for r in &s.rows {
                let p50 = if r.p50_ms.is_finite() {
                    format!("{:>6.3}", r.p50_ms)
                } else {
                    "     -".into()
                };
                let p95 = if r.p95_ms.is_finite() {
                    format!("{:>6.3}", r.p95_ms)
                } else {
                    "     -".into()
                };
                let blocked_us: f64 = r.blocked_ns_per_dim.iter().sum::<u64>() as f64 / 1000.0;
                out.push_str(&format!(
                    "  {:>5.1}   {:>7}   {:>9}   {:>10.4}   {}   {}   {:>9}   {:>6}   {:>10.3}\n",
                    r.start_ms,
                    r.offered,
                    r.delivered,
                    r.goodput_per_ms,
                    p50,
                    p95,
                    format!("{}/{}", r.cache_hits, r.cache_lookups),
                    r.live_faults,
                    blocked_us,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TelemetrySweepConfig {
        TelemetrySweepConfig {
            sessions: 20,
            pool_groups: 3,
            bytes: 512,
            buckets: 10,
            link_mtbf_ms: 100.0,
            seed: 23,
            ..TelemetrySweepConfig::full()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_round_trips() {
        let cfg = tiny();
        let a = telemetry_sweep(&cfg);
        let b = telemetry_sweep(&cfg);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());

        // 4 cube algorithms + the torus baseline.
        assert_eq!(a.series.len(), 5);
        for s in &a.series {
            assert_eq!(s.rows.len(), cfg.buckets, "{}", s.network);
            assert_eq!(
                s.rows.iter().map(|r| r.offered).sum::<u64>(),
                cfg.sessions as u64
            );
        }

        let parsed = TelemetrySweep::from_json(&a.to_json().unwrap()).unwrap();
        assert_eq!(
            parsed.to_json().unwrap(),
            a.to_json().unwrap(),
            "JSON round-trip"
        );
        assert_eq!(parsed.config, a.config);
    }

    #[test]
    fn worker_count_does_not_change_the_bytes() {
        let cfg = tiny();
        let serial = telemetry_sweep_with_workers(&cfg, 1);
        let pooled = telemetry_sweep_with_workers(&cfg, 4);
        assert_eq!(serial.to_json().unwrap(), pooled.to_json().unwrap());
        assert_eq!(serial.to_table(), pooled.to_table());
    }

    #[test]
    fn smoke_sweep_shows_the_recovery_shape() {
        let sweep = telemetry_sweep(&TelemetrySweepConfig::smoke());
        sweep.check_recovery().expect("dip-and-refill must hold");
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(TelemetrySweep::from_json("{}").is_err());
        assert!(TelemetrySweep::from_json("[1]").is_err());
        assert!(TelemetrySweep::from_json("not json").is_err());
        let wrong_id = r#"{ "id": "chaos_sweep", "config": {}, "series": [] }"#;
        assert!(TelemetrySweep::from_json(wrong_id).is_err());
    }
}
