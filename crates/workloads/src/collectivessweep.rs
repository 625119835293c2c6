//! Collectives suite sweep: allgather / reduce-scatter / allreduce
//! across tree families and topologies.
//!
//! The schedule section builds every collective × family combination on
//! the 32-node 5-cube (the paper's tree algorithms plus the bine
//! family) and every collective under separate addressing on the
//! 16-node 4-ary 2-cube torus, replays each schedule symbolically
//! through the [data oracle](hypercast::oracle) — the `verified` column
//! — and executes it once on the idle wormhole engine for steps, bytes,
//! and makespan. The traffic section then injects the same collectives
//! as open-loop sessions on a 4-cube (W-sort vs bine trees) and reports
//! steady-state latency, completion, and tree-cache behaviour.
//!
//! Everything is keyed off [`CollectivesConfig::seed`]: identical
//! configs regenerate `results/collectives_sweep.{txt,json}`
//! byte-for-byte, and the determinism suite pins it.

use crate::artifact::{record, Artifact};
use crate::trafficsweep::{horizon_for, run_seed};
use hcube::{Cube, Ecube, NodeId, Resolution, Torus, TorusRouter};
use hypercast::collectives::{suite_collective, suite_collective_separate};
use hypercast::oracle::verify_collective;
use hypercast::{Algorithm, CollectiveKind, CollectiveSchedule, PortModel, TreeFamily};
use traffic::{ArrivalProcess, Arrivals, DestPattern, TrafficSpec};
use wormsim::{simulate_collective, SimParams};

/// Sweep dimensions and seeding.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectivesConfig {
    /// Bytes per node block in every schedule-section collective.
    pub block_bytes: u32,
    /// Sessions per traffic-section run.
    pub traffic_sessions: usize,
    /// Offered load (sessions/ms) of the traffic section.
    pub traffic_rate_per_ms: f64,
    /// Bytes per node block in the traffic section.
    pub traffic_bytes: u32,
    /// Master seed; every traffic-run seed derives from it.
    pub seed: u64,
}

impl CollectivesConfig {
    /// The committed-artifact configuration.
    #[must_use]
    pub fn full() -> CollectivesConfig {
        CollectivesConfig {
            block_bytes: 1024,
            traffic_sessions: 48,
            traffic_rate_per_ms: 0.05,
            traffic_bytes: 512,
            seed: 93,
        }
    }

    /// A short configuration for CI smoke runs and debug-mode tests
    /// (same schema, same code paths, far less work).
    #[must_use]
    pub fn smoke() -> CollectivesConfig {
        CollectivesConfig {
            block_bytes: 256,
            traffic_sessions: 8,
            traffic_rate_per_ms: 0.2,
            traffic_bytes: 256,
            seed: 93,
        }
    }
}

/// One (collective, network, family) schedule measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleRow {
    /// Collective name (`allgather`, `reduce-scatter`, `allreduce`).
    pub suite: String,
    /// Network label (`cube5`, `torus4x2`).
    pub network: String,
    /// Tree family / addressing mode (`W-sort`, `Bine`, `Separate`, …).
    pub family: String,
    /// Node count of the network.
    pub nodes: usize,
    /// Schedule steps.
    pub steps: u32,
    /// Constituent unicasts.
    pub ops: usize,
    /// Total payload bytes injected.
    pub payload_bytes: u64,
    /// Idle-network completion time of the collective (ms).
    pub makespan_ms: f64,
    /// Mean unicast delivery delay (ms).
    pub avg_delay_ms: f64,
    /// Channel-blocking episodes during the idle-network run.
    pub blocks: u64,
    /// Whether the data oracle certified the schedule.
    pub verified: bool,
}

/// One steady-state collective traffic measurement (4-cube).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficRow {
    /// Collective name.
    pub suite: String,
    /// Tree family driving the session schedules.
    pub family: String,
    /// Mean session latency (ms) among completed measured sessions.
    pub mean_latency_ms: f64,
    /// Fraction of measured sessions completing inside the window.
    pub completion_ratio: f64,
    /// Completed sessions per millisecond of measurement span.
    pub throughput_per_ms: f64,
    /// Tree-cache hit rate of the run (0 for the bine family).
    pub cache_hit_rate: f64,
}

/// The complete collectives sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectivesSweep {
    /// The configuration that produced it.
    pub config: CollectivesConfig,
    /// Schedule section: cube rows first (family order
    /// [`TreeFamily::SWEEP`]), torus rows last.
    pub rows: Vec<ScheduleRow>,
    /// Traffic section: W-sort and bine families × all collectives.
    pub traffic: Vec<TrafficRow>,
}

fn row_from(
    sched: &CollectiveSchedule,
    suite: &str,
    network: &str,
    family: &str,
    report: &wormsim::SimReport,
) -> ScheduleRow {
    ScheduleRow {
        suite: suite.into(),
        network: network.into(),
        family: family.into(),
        nodes: sched.nodes as usize,
        steps: sched.steps,
        ops: sched.ops.len(),
        payload_bytes: sched.payload_bytes(),
        makespan_ms: report.max_delay.as_ms(),
        avg_delay_ms: report.avg_delay.as_ms(),
        blocks: report.blocks,
        verified: verify_collective(sched).is_ok(),
    }
}

/// Runs the full sweep for `cfg`. Deterministic: identical configs give
/// structurally identical results (and byte-identical JSON).
#[must_use]
pub fn collectives_sweep(cfg: &CollectivesConfig) -> CollectivesSweep {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut rows = Vec::new();

    // --- schedule section: 5-cube, every family --------------------------
    let (cube, res, port) = (Cube::of(5), Resolution::HighToLow, PortModel::AllPort);
    for kind in CollectiveKind::ALL {
        for family in TreeFamily::SWEEP {
            let sched = suite_collective(
                kind,
                family,
                cube,
                res,
                port,
                NodeId(0),
                cfg.block_bytes,
                None,
            )
            .expect("full-machine collectives cannot fail to build");
            let report = simulate_collective(&sched, Ecube::new(cube, res), &params);
            rows.push(row_from(
                &sched,
                kind.name(),
                "cube5",
                family.name(),
                &report,
            ));
        }
    }

    // --- schedule section: torus, separate addressing --------------------
    let torus = Torus::of(4, 2);
    for kind in CollectiveKind::ALL {
        let sched = suite_collective_separate(kind, &torus, NodeId(0), cfg.block_bytes)
            .expect("separate collectives of sweep-sized blocks build");
        let report = simulate_collective(&sched, TorusRouter::new(torus), &params);
        rows.push(row_from(
            &sched,
            kind.name(),
            "torus4x2",
            "Separate",
            &report,
        ));
    }

    // --- traffic section: open-loop collectives on a 4-cube --------------
    let tcube = Cube::of(4);
    let mut traffic_rows = Vec::new();
    for family in [TreeFamily::Alg(Algorithm::WSort), TreeFamily::Bine] {
        for (ki, kind) in CollectiveKind::ALL.into_iter().enumerate() {
            let mut spec = TrafficSpec::new(
                Arrivals::new(ArrivalProcess::Poisson, cfg.traffic_rate_per_ms),
                // The pattern is unused by collective sessions (every
                // session spans the whole machine) but the spec needs one.
                DestPattern::UniformRandom { m: 4 },
                cfg.traffic_sessions,
                run_seed(cfg.seed, "cube4", family.name(), ki),
            );
            spec.bytes = cfg.traffic_bytes;
            spec.horizon = horizon_for(cfg.traffic_sessions, cfg.traffic_rate_per_ms);
            let r = traffic::run(
                &spec,
                traffic::Backend::collective(tcube, Resolution::HighToLow, kind, family),
                &params,
                traffic::RunOptions::default(),
            );
            traffic_rows.push(TrafficRow {
                suite: kind.name().into(),
                family: family.name().into(),
                mean_latency_ms: r.latency.mean,
                completion_ratio: r.completion_ratio,
                throughput_per_ms: r.throughput_per_ms,
                cache_hit_rate: r.cache.hit_rate(),
            });
        }
    }

    CollectivesSweep {
        config: cfg.clone(),
        rows,
        traffic: traffic_rows,
    }
}

// ----------------------------------------------------------------------
// Artifact schema
// ----------------------------------------------------------------------

record!(CollectivesConfig {
    "block_bytes" => block_bytes,
    "traffic_sessions" => traffic_sessions,
    "traffic_rate_per_ms" => traffic_rate_per_ms,
    "traffic_bytes" => traffic_bytes,
    "seed" => seed,
});

record!(ScheduleRow {
    "suite" => suite,
    "network" => network,
    "family" => family,
    "nodes" => nodes,
    "steps" => steps,
    "ops" => ops,
    "payload_bytes" => payload_bytes,
    "makespan_ms" => makespan_ms,
    "avg_delay_ms" => avg_delay_ms,
    "blocks" => blocks,
    "verified" => verified,
});

record!(TrafficRow {
    "suite" => suite,
    "family" => family,
    "mean_latency_ms" => mean_latency_ms,
    "completion_ratio" => completion_ratio,
    "throughput_per_ms" => throughput_per_ms,
    "cache_hit_rate" => cache_hit_rate,
});

record!(CollectivesSweep {
    "config" => config,
    "rows" => rows,
    "traffic" => traffic,
});

impl Artifact for CollectivesSweep {
    const ID: &'static str = "collectives_sweep";
    const TITLE: &'static str =
        "Collective suite: schedules, data-oracle verification, and traffic";

    /// Every schedule row is certified by the data oracle.
    fn check(&self) -> Result<(), String> {
        let unverified: Vec<String> = self
            .rows
            .iter()
            .filter(|r| !r.verified)
            .map(|r| format!("{} {} {}", r.suite, r.network, r.family))
            .collect();
        if unverified.is_empty() {
            Ok(())
        } else {
            Err(format!("oracle-unverified rows: {}", unverified.join(", ")))
        }
    }

    fn to_table(&self) -> String {
        let mut out = format!("{}\n", Self::TITLE);
        out.push_str(&format!(
            "block = {} B, traffic: {} sessions @ {} /ms, {} B blocks, seed = {}\n",
            self.config.block_bytes,
            self.config.traffic_sessions,
            self.config.traffic_rate_per_ms,
            self.config.traffic_bytes,
            self.config.seed
        ));
        out.push_str("\n== schedules (idle network) ==\n");
        out.push_str(
            "  collective       network    family     nodes  steps    ops   payload B   makespan ms   avg delay ms   blocks   oracle\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<14}   {:<8}   {:<8}   {:>5}  {:>5}  {:>5}   {:>9}   {:>11.4}   {:>12.4}   {:>6}   {}\n",
                r.suite,
                r.network,
                r.family,
                r.nodes,
                r.steps,
                r.ops,
                r.payload_bytes,
                r.makespan_ms,
                r.avg_delay_ms,
                r.blocks,
                if r.verified { "ok" } else { "FAIL" },
            ));
        }
        out.push_str("\n== open-loop traffic (cube4) ==\n");
        out.push_str("  collective       family     latency ms   complete   thru/ms   cache hit\n");
        for t in &self.traffic {
            out.push_str(&format!(
                "  {:<14}   {:<8}   {:>10.4}   {:>8.3}   {:>7.3}   {:>9.3}\n",
                t.suite,
                t.family,
                t.mean_latency_ms,
                t.completion_ratio,
                t.throughput_per_ms,
                t.cache_hit_rate,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_deterministic_verified_and_round_trips() {
        let cfg = CollectivesConfig::smoke();
        let a = collectives_sweep(&cfg);
        let b = collectives_sweep(&cfg);
        assert_eq!(
            a.to_json().unwrap(),
            b.to_json().unwrap(),
            "sweep must regenerate bit-identically"
        );

        // 3 collectives x 5 cube families + 3 torus rows.
        assert_eq!(a.rows.len(), 18);
        // 2 traffic families x 3 collectives.
        assert_eq!(a.traffic.len(), 6);
        for r in &a.rows {
            assert!(
                r.verified,
                "{} {} {}: oracle must pass",
                r.suite, r.network, r.family
            );
            assert!(r.makespan_ms > 0.0);
            assert!(r.payload_bytes > 0);
        }
        for t in &a.traffic {
            assert!(t.completion_ratio > 0.0, "{} {}", t.suite, t.family);
        }

        let parsed = CollectivesSweep::from_json(&a.to_json().unwrap()).unwrap();
        assert_eq!(parsed.to_json().unwrap(), a.to_json().unwrap());
        assert_eq!(parsed, a);
    }

    #[test]
    fn tree_family_traffic_hits_the_cache_and_bine_does_not() {
        let sweep = collectives_sweep(&CollectivesConfig::smoke());
        for t in &sweep.traffic {
            if t.family == "Bine" {
                assert_eq!(t.cache_hit_rate, 0.0, "bine trees bypass the cache");
            } else if t.suite == "allreduce" {
                // Allreduce roots rotate round-robin: with fewer sessions
                // than nodes every session builds a fresh root tree.
                assert_eq!(t.cache_hit_rate, 0.0, "rotating roots never repeat here");
            } else {
                assert!(
                    t.cache_hit_rate > 0.0,
                    "{} {}: repeated sessions must hit the cache",
                    t.suite,
                    t.family
                );
            }
        }
    }

    #[test]
    fn from_json_rejects_schema_violations() {
        assert!(CollectivesSweep::from_json("{}").is_err());
        assert!(CollectivesSweep::from_json("not json").is_err());
        assert!(CollectivesSweep::from_json("[3]").is_err());
        let wrong_id = r#"{ "id": "traffic_sweep", "config": {}, "rows": [], "traffic": [] }"#;
        assert!(CollectivesSweep::from_json(wrong_id).is_err());
        let missing_verified = r#"{ "id": "collectives_sweep",
            "config": { "block_bytes": 1, "traffic_sessions": 1,
                        "traffic_rate_per_ms": 1, "traffic_bytes": 1, "seed": 1 },
            "rows": [ { "suite": "allgather", "network": "cube5", "family": "Bine",
                        "nodes": 32, "steps": 5, "ops": 10, "payload_bytes": 100,
                        "makespan_ms": 1.0, "avg_delay_ms": 0.5, "blocks": 0 } ],
            "traffic": [] }"#;
        let err = CollectivesSweep::from_json(missing_verified).unwrap_err();
        assert!(err.to_string().contains("verified"), "{err}");
    }
}
