//! Fault-churn sweep: delivery degradation and self-healing recovery
//! under open-loop load.
//!
//! For each network (64-node 6-cube, 256-node 8-cube, 64-node 4-ary
//! 3-cube torus) and each tree algorithm, the sweep injects Poisson
//! multicast sessions at a small ladder of offered loads while an
//! MTBF/MTTR failure/repair process kills and revives links and nodes
//! (per-element MTBF, so larger networks churn proportionally more).
//! Faulted sessions retry under exponential backoff through
//! `hypercast::repair`-rebuilt trees; separate addressing on the torus
//! has no tree to repair and is the recovery baseline.
//!
//! Each series walks a churn ladder from no churn (infinite MTBF, the
//! anchor every rung is compared against) to the harshest rung, and each
//! point records delivery ratio, goodput, latency, the retry-attempt
//! histogram, losses, time-to-recover, and the full tree-cache counters
//! (epoch invalidations included).
//!
//! Everything is keyed off `ChaosSweepConfig::seed`: identical configs
//! regenerate `results/chaos_sweep.{txt,json}` byte-for-byte — with or
//! without worker threads — and the determinism suite pins it.

use crate::artifact::{record, Artifact, InfNull, NanNull};
use crate::trafficsweep::{horizon_for, run_seed};
use hcube::{Cube, Resolution, Torus, TorusRouter};
use hypercast::{Algorithm, CacheStats, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic::{
    ArrivalProcess, Arrivals, ChaosReport, ChaosSpec, ChurnSpec, DestPattern, TrafficSpec,
};
use wormsim::{EngineScratch, SimParams, SimTime};

/// Sweep dimensions, churn ladder, and seeding.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSweepConfig {
    /// Sessions injected per grid point.
    pub sessions: usize,
    /// Recurring destination groups per network pool.
    pub pool_groups: usize,
    /// Payload bytes per multicast.
    pub bytes: u32,
    /// Master seed; every per-run seed derives from it.
    pub seed: u64,
    /// Offered loads (sessions/ms) for the 64-node cube and the torus.
    pub loads_64: Vec<f64>,
    /// Offered loads (sessions/ms) for the 256-node cube.
    pub loads_256: Vec<f64>,
    /// Per-link MTBF ladder, calm to harsh; `f64::INFINITY` is the
    /// churn-free anchor rung.
    pub link_mtbf_ladder_ms: Vec<f64>,
    /// Mean time to repair a failed link.
    pub link_mttr_ms: f64,
    /// Per-node MTBF as a multiple of the rung's per-link MTBF.
    pub node_mtbf_factor: f64,
    /// Mean time to repair (reboot) a failed node.
    pub node_mttr_ms: f64,
    /// Fraction of the observation window during which new failures may
    /// strike; the remainder is the recovery tail.
    pub churn_fraction: f64,
    /// Retry policy for faulted sessions (backoffs in µs of simulated
    /// time).
    pub retry: RetryPolicy,
}

impl ChaosSweepConfig {
    /// The committed-artifact configuration.
    #[must_use]
    pub fn full() -> ChaosSweepConfig {
        ChaosSweepConfig {
            sessions: 120,
            pool_groups: 8,
            bytes: 4096,
            seed: 137,
            // Below every network's saturation point: the sweep isolates
            // churn effects, so the churn-free anchor rung must deliver
            // everything and queueing must stay light (sessions launched
            // in different fault epochs simulate in separate waves and do
            // not contend across the epoch boundary — a fine
            // approximation only while queues are short).
            loads_64: vec![0.25, 0.75],
            loads_256: vec![0.5, 1.0],
            link_mtbf_ladder_ms: vec![f64::INFINITY, 3000.0, 1200.0, 500.0],
            link_mttr_ms: 4.0,
            node_mtbf_factor: 4.0,
            node_mttr_ms: 6.0,
            churn_fraction: 0.6,
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff: 500,
                backoff_factor: 4,
            },
        }
    }

    /// A short-horizon configuration for CI smoke runs and debug-mode
    /// tests (same schema, same code paths, far less work).
    #[must_use]
    pub fn smoke() -> ChaosSweepConfig {
        ChaosSweepConfig {
            sessions: 24,
            pool_groups: 4,
            bytes: 1024,
            seed: 137,
            loads_64: vec![1.0],
            loads_256: vec![1.0],
            link_mtbf_ladder_ms: vec![f64::INFINITY, 500.0],
            ..ChaosSweepConfig::full()
        }
    }
}

/// One measured (churn rung × offered load) point of one series.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPoint {
    /// Offered load, sessions per millisecond.
    pub offered_per_ms: f64,
    /// The rung's per-link MTBF (`f64::INFINITY` = no churn).
    pub link_mtbf_ms: f64,
    /// Fraction of measured sessions fully delivered (retries
    /// included).
    pub delivery_ratio: f64,
    /// Mean delivered-session latency in ms (all attempts included).
    pub mean_latency_ms: f64,
    /// Batch-means 95% CI half-width of the latency.
    pub ci_half_width_ms: f64,
    /// Delivered measured sessions per millisecond.
    pub goodput_per_ms: f64,
    /// `retry_histogram[k]` = sessions that made exactly `k + 1`
    /// attempts.
    pub retry_histogram: Vec<u64>,
    /// Sessions lost to retry exhaustion or a retry past the horizon.
    pub lost: u64,
    /// Sessions cut off by the horizon (terminal, never retried).
    pub window_cut: u64,
    /// Time from the last fault/repair event to the last disrupted
    /// session's resolution, in ms (`None` when there was no churn).
    pub time_to_recover_ms: Option<f64>,
    /// Fault epochs the window was partitioned into.
    pub epochs: u64,
    /// Fault/repair events in the generated timeline.
    pub fault_events: u64,
    /// Full tree-cache counters of the run (all zero for separate
    /// addressing).
    pub cache: CacheStats,
}

/// One (network × algorithm) curve over the churn × load grid.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSeries {
    /// Network name (`cube6`, `cube8`, `torus4x3`).
    pub network: String,
    /// Node count.
    pub nodes: usize,
    /// Tree algorithm name, or `Separate`.
    pub algorithm: String,
    /// Destinations per multicast.
    pub m: usize,
    /// Grid points, churn-ladder-major, load-minor.
    pub points: Vec<ChaosPoint>,
}

/// The complete chaos sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSweep {
    /// The configuration that produced it.
    pub config: ChaosSweepConfig,
    /// All series, cubes first, torus last.
    pub series: Vec<ChaosSeries>,
}

/// What one grid point simulates.
enum RunTarget {
    Cube { cube: Cube, algo: Algorithm },
    Torus { torus: Torus },
}

/// A fully-described grid point, ready for any worker to execute.
struct RunTask {
    target: RunTarget,
    pattern: DestPattern,
    rate: f64,
    link_mtbf_ms: f64,
    seed: u64,
}

fn chaos_spec_for(cfg: &ChaosSweepConfig, task: &RunTask) -> ChaosSpec {
    let mut t = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, task.rate),
        task.pattern.clone(),
        cfg.sessions,
        task.seed,
    );
    t.bytes = cfg.bytes;
    t.horizon = horizon_for(cfg.sessions, task.rate);
    t.cache_capacity = 2 * cfg.pool_groups;
    let churn = if task.link_mtbf_ms.is_finite() {
        ChurnSpec {
            link_mtbf_ms: task.link_mtbf_ms,
            link_mttr_ms: cfg.link_mttr_ms,
            node_mtbf_ms: task.link_mtbf_ms * cfg.node_mtbf_factor,
            node_mttr_ms: cfg.node_mttr_ms,
            churn_until: SimTime::from_ns((t.horizon.as_ns() as f64 * cfg.churn_fraction) as u64),
        }
    } else {
        ChurnSpec::quiet()
    };
    ChaosSpec {
        traffic: t,
        churn,
        retry: cfg.retry,
    }
}

fn point_for(task: &RunTask, r: &ChaosReport) -> ChaosPoint {
    ChaosPoint {
        offered_per_ms: task.rate,
        link_mtbf_ms: task.link_mtbf_ms,
        delivery_ratio: r.delivery_ratio,
        mean_latency_ms: r.latency.mean,
        ci_half_width_ms: r.latency.ci_half_width,
        goodput_per_ms: r.goodput_per_ms,
        retry_histogram: r.retry_histogram.clone(),
        lost: r.lost,
        window_cut: r.window_cut,
        time_to_recover_ms: r.time_to_recover.map(SimTime::as_ms),
        epochs: r.epochs as u64,
        fault_events: r.fault_events as u64,
        cache: r.cache,
    }
}

fn run_task(cfg: &ChaosSweepConfig, task: &RunTask, scratch: &mut EngineScratch) -> ChaosPoint {
    let params = SimParams::ncube2(hypercast::PortModel::AllPort);
    let spec = chaos_spec_for(cfg, task);
    let report = match task.target {
        RunTarget::Cube { cube, algo } => traffic::run_chaos(
            &spec,
            traffic::Backend::tree(cube, Resolution::HighToLow, algo),
            &params,
            traffic::RunOptions::default().scratch(scratch),
        ),
        RunTarget::Torus { torus } => traffic::run_chaos(
            &spec,
            traffic::Backend::Separate(TorusRouter::new(torus)),
            &params,
            traffic::RunOptions::default().scratch(scratch),
        ),
    };
    point_for(task, &report)
}

/// Runs the full chaos sweep single-threaded. Deterministic: identical
/// configs give byte-identical JSON.
#[must_use]
pub fn chaos_sweep(cfg: &ChaosSweepConfig) -> ChaosSweep {
    chaos_sweep_with_workers(cfg, 1)
}

/// [`chaos_sweep`] with a worker pool. Every grid point is an
/// independent seeded run writing into its own pre-assigned slot, so
/// the result is byte-identical for any worker count — the determinism
/// suite pins 1-worker and multi-worker bytes against each other.
///
/// # Panics
/// Panics if `workers == 0` or a worker thread panics.
#[must_use]
pub fn chaos_sweep_with_workers(cfg: &ChaosSweepConfig, workers: usize) -> ChaosSweep {
    assert!(workers > 0, "need at least one worker");

    // Lay out every series and its grid tasks up front, in output
    // order; workers fill slots, never append.
    let mut tasks: Vec<RunTask> = Vec::new();
    let mut layout: Vec<(String, usize, String, usize)> = Vec::new(); // network, nodes, algorithm, m
    for (network, dim, m, loads) in [
        ("cube6", 6u8, 8usize, &cfg.loads_64),
        ("cube8", 8u8, 16usize, &cfg.loads_256),
    ] {
        let cube = Cube::of(dim);
        // One pool per network, shared across algorithms and rungs, so
        // the curves are an apples-to-apples comparison.
        let mut pool_rng = StdRng::seed_from_u64(run_seed(cfg.seed, network, "pool", 0));
        let pattern = DestPattern::uniform_pool(&mut pool_rng, &cube, cfg.pool_groups, m);
        for algo in Algorithm::PAPER {
            layout.push((network.into(), 1 << dim, algo.name().into(), m));
            for (ri, &mtbf) in cfg.link_mtbf_ladder_ms.iter().enumerate() {
                for (li, &rate) in loads.iter().enumerate() {
                    tasks.push(RunTask {
                        target: RunTarget::Cube { cube, algo },
                        pattern: pattern.clone(),
                        rate,
                        link_mtbf_ms: mtbf,
                        seed: run_seed(cfg.seed, network, algo.name(), ri * loads.len() + li),
                    });
                }
            }
        }
    }
    let torus = Torus::of(4, 3);
    let mut pool_rng = StdRng::seed_from_u64(run_seed(cfg.seed, "torus4x3", "pool", 0));
    let pattern = DestPattern::uniform_pool(&mut pool_rng, &torus, cfg.pool_groups, 8);
    layout.push(("torus4x3".into(), 64, "Separate".into(), 8));
    for (ri, &mtbf) in cfg.link_mtbf_ladder_ms.iter().enumerate() {
        for (li, &rate) in cfg.loads_64.iter().enumerate() {
            tasks.push(RunTask {
                target: RunTarget::Torus { torus },
                pattern: pattern.clone(),
                rate,
                link_mtbf_ms: mtbf,
                seed: run_seed(
                    cfg.seed,
                    "torus4x3",
                    "Separate",
                    ri * cfg.loads_64.len() + li,
                ),
            });
        }
    }

    // The trial pool: per-worker scratch (reuse across runs is
    // byte-invisible), task-indexed merge, so the sweep is worker-count
    // invariant.
    let mut points = traffic::run_trials(workers, tasks.len(), |i, scratch| {
        run_task(cfg, &tasks[i], scratch)
    })
    .into_iter();
    let per_series_64 = cfg.link_mtbf_ladder_ms.len() * cfg.loads_64.len();
    let per_series_256 = cfg.link_mtbf_ladder_ms.len() * cfg.loads_256.len();
    let series = layout
        .into_iter()
        .map(|(network, nodes, algorithm, m)| {
            let n = if network == "cube8" {
                per_series_256
            } else {
                per_series_64
            };
            ChaosSeries {
                network,
                nodes,
                algorithm,
                m,
                points: points.by_ref().take(n).collect(),
            }
        })
        .collect();
    ChaosSweep {
        config: cfg.clone(),
        series,
    }
}

// ----------------------------------------------------------------------
// Artifact schema
// ----------------------------------------------------------------------

record!(RetryPolicy {
    "max_retries" => max_retries,
    "base_backoff_us" => base_backoff,
    "backoff_factor" => backoff_factor,
});

record!(ChaosSweepConfig {
    "sessions" => sessions,
    "pool_groups" => pool_groups,
    "bytes" => bytes,
    "seed" => seed,
    "arrivals" = "poisson",
    "loads_64" => loads_64,
    "loads_256" => loads_256,
    "link_mtbf_ladder_ms" => link_mtbf_ladder_ms as InfNull,
    "link_mttr_ms" => link_mttr_ms,
    "node_mtbf_factor" => node_mtbf_factor,
    "node_mttr_ms" => node_mttr_ms,
    "churn_fraction" => churn_fraction,
    "retry" => retry,
});

record!(ChaosPoint {
    "offered_per_ms" => offered_per_ms,
    "link_mtbf_ms" => link_mtbf_ms as InfNull,
    "delivery_ratio" => delivery_ratio,
    "mean_latency_ms" => mean_latency_ms as NanNull,
    "ci_half_width_ms" => ci_half_width_ms as NanNull,
    "goodput_per_ms" => goodput_per_ms,
    "retry_histogram" => retry_histogram,
    "lost" => lost,
    "window_cut" => window_cut,
    "time_to_recover_ms" => time_to_recover_ms,
    "epochs" => epochs,
    "fault_events" => fault_events,
    ..cache,
});

record!(ChaosSeries {
    "network" => network,
    "nodes" => nodes,
    "algorithm" => algorithm,
    "m" => m,
    "points" => points,
});

record!(ChaosSweep { "config" => config, "series" => series });

impl Artifact for ChaosSweep {
    const ID: &'static str = "chaos_sweep";
    const TITLE: &'static str =
        "Fault churn: delivery degradation and self-healing recovery under load";

    fn to_table(&self) -> String {
        let c = &self.config;
        let mut out = format!("{}\n", Self::TITLE);
        out.push_str(&format!(
            "sessions/point = {}, pool = {} groups, payload = {} B, seed = {}, arrivals = poisson\n",
            c.sessions, c.pool_groups, c.bytes, c.seed
        ));
        out.push_str(&format!(
            "churn: link MTTR = {} ms, node MTBF = {}x link, node MTTR = {} ms, failures in first {:.0}% of window\n",
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
            out.push_str(&format!(
                "== {} ({} nodes), {}  [m = {}] ==\n",
                s.network, s.nodes, s.algorithm, s.m
            ));
            out.push_str(
                "  mtbf ms   load/ms   deliver   goodput   latency ms   attempts 1/2/3/4   lost   cut   recover ms   events   cache h/m/e/i\n",
            );
            for p in &s.points {
                let mtbf = if p.link_mtbf_ms.is_finite() {
                    format!("{:>7.0}", p.link_mtbf_ms)
                } else {
                    "    inf".into()
                };
                let mut hist = [0u64; 4];
                for (k, &n) in p.retry_histogram.iter().enumerate() {
                    hist[k.min(3)] += n;
                }
                let recover = match p.time_to_recover_ms {
                    Some(t) => format!("{t:>10.3}"),
                    None => "         -".into(),
                };
                out.push_str(&format!(
                    "  {}   {:>7.2}   {:>7.4}   {:>7.3}   {:>10.4}   {:>16}   {:>4}   {:>3}   {}   {:>6}   {}/{}/{}/{}\n",
                    mtbf,
                    p.offered_per_ms,
                    p.delivery_ratio,
                    p.goodput_per_ms,
                    p.mean_latency_ms,
                    format!("{}/{}/{}/{}", hist[0], hist[1], hist[2], hist[3]),
                    p.lost,
                    p.window_cut,
                    recover,
                    p.fault_events,
                    p.cache.hits,
                    p.cache.misses,
                    p.cache.evictions,
                    p.cache.invalidations,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosSweepConfig {
        ChaosSweepConfig {
            sessions: 12,
            pool_groups: 3,
            bytes: 512,
            seed: 11,
            loads_64: vec![2.0],
            loads_256: vec![4.0],
            link_mtbf_ladder_ms: vec![f64::INFINITY, 400.0],
            ..ChaosSweepConfig::full()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_round_trips() {
        let cfg = tiny();
        let a = chaos_sweep(&cfg);
        let b = chaos_sweep(&cfg);
        assert_eq!(
            a.to_json().unwrap(),
            b.to_json().unwrap(),
            "sweep must regenerate bit-identically"
        );

        // 2 cubes x 4 algorithms + 1 torus series; 2 rungs x 1 load.
        assert_eq!(a.series.len(), 9);
        for s in &a.series {
            assert_eq!(s.points.len(), 2, "{}", s.network);
        }

        let parsed = ChaosSweep::from_json(&a.to_json().unwrap()).unwrap();
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
        let serial = chaos_sweep_with_workers(&cfg, 1);
        let pooled = chaos_sweep_with_workers(&cfg, 4);
        assert_eq!(serial.to_json().unwrap(), pooled.to_json().unwrap());
        assert_eq!(serial.to_table(), pooled.to_table());
    }

    #[test]
    fn quiet_rung_anchors_and_churny_rungs_degrade() {
        let sweep = chaos_sweep(&tiny());
        let mut disrupted_anywhere = false;
        for s in &sweep.series {
            for p in &s.points {
                if p.link_mtbf_ms.is_finite() {
                    assert!(
                        p.fault_events > 0,
                        "{}: churn rung saw no events",
                        s.network
                    );
                    assert!(p.epochs > 1);
                    assert!(p.delivery_ratio > 0.0, "no cliff to zero");
                    disrupted_anywhere |= p.retry_histogram.len() > 1 || p.lost > 0;
                } else {
                    assert_eq!(p.fault_events, 0);
                    assert_eq!(p.epochs, 1);
                    assert_eq!(p.delivery_ratio, 1.0, "{}: quiet anchor", s.network);
                    assert_eq!(p.lost, 0);
                    assert_eq!(p.time_to_recover_ms, None);
                }
            }
        }
        assert!(
            disrupted_anywhere,
            "harsh rung must disrupt at least one session somewhere"
        );
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(ChaosSweep::from_json("{}").is_err());
        assert!(ChaosSweep::from_json("[1]").is_err());
        assert!(ChaosSweep::from_json("not json").is_err());
        let wrong_id = r#"{ "id": "traffic_sweep", "config": {}, "series": [] }"#;
        assert!(ChaosSweep::from_json(wrong_id).is_err());
    }
}
