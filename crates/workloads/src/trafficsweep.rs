//! Latency-vs-offered-load sweep: the open-loop traffic experiment.
//!
//! For each network (64-node 6-cube, 256-node 8-cube, 64-node 4-ary
//! 3-cube torus) and each tree algorithm, the sweep injects Poisson
//! multicast sessions at a ladder of offered loads and measures
//! steady-state session latency (batch-means CI), completion ratio,
//! throughput, and tree-cache hit rate — then runs the saturation
//! detector over the ladder. Destination sets come from a finite pool
//! of recurring groups (drawn once per network, shared by every
//! algorithm on that network), which is both the realistic workload
//! shape and what exercises the tree cache.
//!
//! Everything is keyed off `SweepConfig::seed`: identical configs
//! regenerate `results/traffic_sweep.{txt,json}` byte-for-byte, and the
//! determinism suite pins it.

use crate::artifact::{record, Artifact, NanNull};
use hcube::{Cube, Resolution, Torus, TorusRouter};
use hypercast::{Algorithm, CacheStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic::{saturation_point, ArrivalProcess, Arrivals, DestPattern, LoadPoint, TrafficSpec};
use wormsim::{EngineScratch, SimParams, SimTime};

/// Latency divergence factor that declares saturation (mean latency
/// above `3×` the lowest-load latency).
pub const SATURATION_LATENCY_FACTOR: f64 = 3.0;
/// Completion-ratio floor below which a load point counts as saturated.
pub const SATURATION_MIN_COMPLETION: f64 = 0.95;

/// Sweep dimensions and seeding.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepConfig {
    /// Sessions injected per load point.
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
}

impl SweepConfig {
    /// The committed-artifact configuration.
    #[must_use]
    pub fn full() -> SweepConfig {
        SweepConfig {
            sessions: 240,
            pool_groups: 12,
            bytes: 4096,
            seed: 93,
            loads_64: vec![0.5, 1.0, 2.0, 4.0, 8.0],
            loads_256: vec![1.0, 2.0, 4.0, 8.0, 16.0],
        }
    }

    /// A short-horizon configuration for CI smoke runs and debug-mode
    /// tests (same schema, same code paths, far less work).
    #[must_use]
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            sessions: 30,
            pool_groups: 4,
            bytes: 1024,
            seed: 93,
            loads_64: vec![1.0, 4.0, 16.0],
            loads_256: vec![2.0, 8.0, 32.0],
        }
    }
}

/// One measured load point of one series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Offered load, sessions per millisecond.
    pub offered_per_ms: f64,
    /// Mean session latency (ms) among completed measured sessions.
    pub mean_latency_ms: f64,
    /// Batch-means 95% CI half-width (ms); NaN with < 2 batches.
    pub ci_half_width_ms: f64,
    /// Fraction of measured sessions completing inside the window.
    pub completion_ratio: f64,
    /// Completed sessions per millisecond of measurement span.
    pub throughput_per_ms: f64,
    /// Tree-cache hit rate of the run (0 for separate addressing).
    pub cache_hit_rate: f64,
    /// Full tree-cache counters of the run
    /// (hits/misses/evictions/invalidations; all zero for separate
    /// addressing).
    pub cache: CacheStats,
}

/// One (network, algorithm) latency-vs-load curve.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSeries {
    /// Network label (`cube6`, `cube8`, `torus4x3`).
    pub network: String,
    /// Node count of the network.
    pub nodes: usize,
    /// Algorithm label (`W-sort`, …, or `Separate` on the torus).
    pub algorithm: String,
    /// Destinations per session.
    pub m: usize,
    /// The measured ladder, in ascending offered load.
    pub points: Vec<SweepPoint>,
    /// Saturation load detected over the ladder (None: never saturated).
    pub saturation_per_ms: Option<f64>,
}

/// The complete sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSweep {
    /// The configuration that produced it.
    pub config: SweepConfig,
    /// All series, cubes first, torus last.
    pub series: Vec<SweepSeries>,
}

/// Stable FNV-1a seed derivation for one run of the sweep.
pub(crate) fn run_seed(master: u64, network: &str, algorithm: &str, point: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ master;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in network.bytes() {
        eat(b);
    }
    for b in algorithm.bytes() {
        eat(b);
    }
    for b in (point as u64).to_le_bytes() {
        eat(b);
    }
    h
}

/// Observation window sized to the arrival schedule plus drain slack.
pub(crate) fn horizon_for(sessions: usize, rate_per_ms: f64) -> SimTime {
    SimTime::from_ms((sessions as f64 / rate_per_ms * 1.25 + 30.0) as u64)
}

fn spec_for(cfg: &SweepConfig, pattern: &DestPattern, rate: f64, seed: u64) -> TrafficSpec {
    let mut spec = TrafficSpec::new(
        Arrivals::new(ArrivalProcess::Poisson, rate),
        pattern.clone(),
        cfg.sessions,
        seed,
    );
    spec.bytes = cfg.bytes;
    spec.horizon = horizon_for(cfg.sessions, rate);
    spec.cache_capacity = 2 * cfg.pool_groups;
    spec
}

fn detect(points: &[SweepPoint]) -> Option<f64> {
    let lps: Vec<LoadPoint> = points
        .iter()
        .map(|p| LoadPoint {
            offered: p.offered_per_ms,
            mean_latency_ms: p.mean_latency_ms,
            completion_ratio: p.completion_ratio,
        })
        .collect();
    saturation_point(&lps, SATURATION_LATENCY_FACTOR, SATURATION_MIN_COMPLETION)
}

/// Runs the full sweep for `cfg`. Deterministic: identical configs give
/// structurally identical results (and byte-identical JSON).
///
/// The whole sweep shares one [`EngineScratch`]: every load point of
/// every series replays into the same arenas, and recurring pool
/// sessions resolve their routes from the scratch's memo (the memo
/// restamps itself at each network boundary). Scratch reuse is
/// byte-invisible — the determinism suite pins the artifact bytes.
#[must_use]
pub fn traffic_sweep(cfg: &SweepConfig) -> TrafficSweep {
    let params = SimParams::ncube2(hypercast::PortModel::AllPort);
    let mut series: Vec<SweepSeries> = Vec::new();
    let mut scratch = EngineScratch::new();

    // --- hypercubes: all four paper algorithms over the pool -----------
    for (network, dim, m, loads) in [
        ("cube6", 6u8, 8usize, &cfg.loads_64),
        ("cube8", 8u8, 16usize, &cfg.loads_256),
    ] {
        let cube = Cube::of(dim);
        // One pool per network, shared across algorithms so the curves
        // are an apples-to-apples comparison.
        let mut pool_rng = StdRng::seed_from_u64(run_seed(cfg.seed, network, "pool", 0));
        let pattern = DestPattern::uniform_pool(&mut pool_rng, &cube, cfg.pool_groups, m);
        for algo in Algorithm::PAPER {
            let points: Vec<SweepPoint> = loads
                .iter()
                .enumerate()
                .map(|(pi, &rate)| {
                    let spec = spec_for(
                        cfg,
                        &pattern,
                        rate,
                        run_seed(cfg.seed, network, algo.name(), pi),
                    );
                    let r = traffic::run(
                        &spec,
                        traffic::Backend::tree(cube, Resolution::HighToLow, algo),
                        &params,
                        traffic::RunOptions::default().scratch(&mut scratch),
                    );
                    SweepPoint {
                        offered_per_ms: rate,
                        mean_latency_ms: r.latency.mean,
                        ci_half_width_ms: r.latency.ci_half_width,
                        completion_ratio: r.completion_ratio,
                        throughput_per_ms: r.throughput_per_ms,
                        cache_hit_rate: r.cache.hit_rate(),
                        cache: r.cache,
                    }
                })
                .collect();
            series.push(SweepSeries {
                network: network.into(),
                nodes: 1 << dim,
                algorithm: algo.name().into(),
                m,
                saturation_per_ms: detect(&points),
                points,
            });
        }
    }

    // --- torus: separate addressing (the tree algorithms are
    // hypercube-specific) ----------------------------------------------
    let torus = Torus::of(4, 3);
    let mut pool_rng = StdRng::seed_from_u64(run_seed(cfg.seed, "torus4x3", "pool", 0));
    let pattern = DestPattern::uniform_pool(&mut pool_rng, &torus, cfg.pool_groups, 8);
    let points: Vec<SweepPoint> = cfg
        .loads_64
        .iter()
        .enumerate()
        .map(|(pi, &rate)| {
            let spec = spec_for(
                cfg,
                &pattern,
                rate,
                run_seed(cfg.seed, "torus4x3", "Separate", pi),
            );
            let r = traffic::run(
                &spec,
                traffic::Backend::Separate(TorusRouter::new(torus)),
                &params,
                traffic::RunOptions::default().scratch(&mut scratch),
            );
            SweepPoint {
                offered_per_ms: rate,
                mean_latency_ms: r.latency.mean,
                ci_half_width_ms: r.latency.ci_half_width,
                completion_ratio: r.completion_ratio,
                throughput_per_ms: r.throughput_per_ms,
                cache_hit_rate: r.cache.hit_rate(),
                cache: r.cache,
            }
        })
        .collect();
    series.push(SweepSeries {
        network: "torus4x3".into(),
        nodes: 64,
        algorithm: "Separate".into(),
        m: 8,
        saturation_per_ms: detect(&points),
        points,
    });

    TrafficSweep {
        config: cfg.clone(),
        series,
    }
}

// ----------------------------------------------------------------------
// Artifact schema
// ----------------------------------------------------------------------

record!(SweepConfig {
    "sessions" => sessions,
    "pool_groups" => pool_groups,
    "bytes" => bytes,
    "seed" => seed,
    "arrivals" = "poisson",
    "loads_64" => loads_64,
    "loads_256" => loads_256,
    "saturation_latency_factor" = SATURATION_LATENCY_FACTOR,
    "saturation_min_completion" = SATURATION_MIN_COMPLETION,
});

record!(CacheStats {
    "cache_hits" => hits,
    "cache_misses" => misses,
    "cache_evictions" => evictions,
    "cache_invalidations" => invalidations,
});

record!(SweepPoint {
    "offered_per_ms" => offered_per_ms,
    "mean_latency_ms" => mean_latency_ms as NanNull,
    "ci_half_width_ms" => ci_half_width_ms as NanNull,
    "completion_ratio" => completion_ratio,
    "throughput_per_ms" => throughput_per_ms,
    "cache_hit_rate" => cache_hit_rate,
    ..cache,
});

record!(SweepSeries {
    "network" => network,
    "nodes" => nodes,
    "algorithm" => algorithm,
    "m" => m,
    "saturation_per_ms" => saturation_per_ms,
    "points" => points,
});

record!(TrafficSweep { "config" => config, "series" => series });

impl Artifact for TrafficSweep {
    const ID: &'static str = "traffic_sweep";
    const TITLE: &'static str = "Open-loop multicast traffic: latency vs offered load";

    fn to_table(&self) -> String {
        let mut out = format!("{}\n", Self::TITLE);
        out.push_str(&format!(
            "sessions/point = {}, pool = {} groups, payload = {} B, seed = {}, arrivals = poisson\n",
            self.config.sessions, self.config.pool_groups, self.config.bytes, self.config.seed
        ));
        out.push_str(&format!(
            "saturation: latency > {SATURATION_LATENCY_FACTOR}x base or completion < {SATURATION_MIN_COMPLETION}\n",
        ));
        for s in &self.series {
            out.push('\n');
            out.push_str(&format!(
                "== {} ({} nodes), {}  [m = {}] ==\n",
                s.network, s.nodes, s.algorithm, s.m
            ));
            out.push_str(
                "  load/ms   latency ms   ±95% CI   complete   thru/ms   cache hit   hit/miss/evict/inv\n",
            );
            for p in &s.points {
                out.push_str(&format!(
                    "  {:>7.2}   {:>10.4}   {:>7.4}   {:>8.3}   {:>7.3}   {:>9.3}   {}/{}/{}/{}\n",
                    p.offered_per_ms,
                    p.mean_latency_ms,
                    p.ci_half_width_ms,
                    p.completion_ratio,
                    p.throughput_per_ms,
                    p.cache_hit_rate,
                    p.cache.hits,
                    p.cache.misses,
                    p.cache.evictions,
                    p.cache.invalidations,
                ));
            }
            match s.saturation_per_ms {
                Some(l) => out.push_str(&format!("  saturation detected at {l} sessions/ms\n")),
                None => out.push_str("  no saturation inside the swept range\n"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_deterministic_and_round_trips() {
        let cfg = SweepConfig {
            sessions: 16,
            pool_groups: 3,
            bytes: 512,
            seed: 7,
            loads_64: vec![1.0, 8.0],
            loads_256: vec![2.0, 16.0],
        };
        let a = traffic_sweep(&cfg);
        let b = traffic_sweep(&cfg);
        assert_eq!(
            a.to_json().unwrap(),
            b.to_json().unwrap(),
            "sweep must regenerate bit-identically"
        );

        // 2 cubes x 4 algorithms + 1 torus series.
        assert_eq!(a.series.len(), 9);
        for s in &a.series {
            assert_eq!(s.points.len(), 2, "{}", s.network);
        }

        let parsed = TrafficSweep::from_json(&a.to_json().unwrap()).unwrap();
        assert_eq!(
            parsed.to_json().unwrap(),
            a.to_json().unwrap(),
            "JSON round-trip"
        );
        assert_eq!(parsed, a);
    }

    #[test]
    fn pool_workloads_hit_the_cache() {
        let cfg = SweepConfig {
            sessions: 20,
            pool_groups: 3,
            bytes: 512,
            seed: 3,
            loads_64: vec![2.0],
            loads_256: vec![4.0],
        };
        let sweep = traffic_sweep(&cfg);
        for s in sweep
            .series
            .iter()
            .filter(|s| s.network.starts_with("cube"))
        {
            for p in &s.points {
                assert!(
                    p.cache_hit_rate > 0.0,
                    "{} {}: recurring groups must hit the cache",
                    s.network,
                    s.algorithm
                );
                assert!(p.cache.hits > 0);
                // The pool fits (capacity = 2x groups) and nothing
                // invalidates trees in a churn-free sweep.
                assert_eq!(p.cache.evictions, 0);
                assert_eq!(p.cache.invalidations, 0);
            }
        }
        // Separate addressing builds no trees.
        let torus = sweep
            .series
            .iter()
            .find(|s| s.network == "torus4x3")
            .unwrap();
        assert!(torus
            .points
            .iter()
            .all(|p| p.cache_hit_rate == 0.0 && p.cache == CacheStats::default()));
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(TrafficSweep::from_json("{}").is_err());
        assert!(TrafficSweep::from_json("[1, 2]").is_err());
        assert!(TrafficSweep::from_json("not json").is_err());
        let wrong_id = r#"{ "id": "fig11", "config": {}, "series": [] }"#;
        assert!(TrafficSweep::from_json(wrong_id).is_err());
    }
}
