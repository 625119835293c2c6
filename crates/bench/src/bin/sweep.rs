//! Regenerates or validates one sweep artifact:
//! `sweep <name> [flags]`, writing `results/<name>.{txt,json}`.
//!
//! * `traffic_sweep`, `chaos_sweep`, `lane_sweep`, `telemetry_sweep`,
//!   `collectives_sweep` — the extension sweeps. `--smoke` runs the
//!   short CI configuration (same schema, less work), `--seed S`
//!   overrides the master seed, and `--sessions N` (traffic, chaos,
//!   telemetry, collectives) and `--trials N` (lane) override the rest.
//!   Every sweep runs serially in this process; there is no worker
//!   pool. `--check FILE` simulates nothing: it parses an
//!   existing artifact against its schema and runs the sweep's domain
//!   check (the telemetry dip-and-refill shape, oracle-verified
//!   collectives rows, one utilization entry per lane).
//! * `fault_sweep`, `torus_sweep`, `contention_heatmap` — figure
//!   artifacts; `--trials N` (default 20).
//!
//! A bad command line is a one-line error and exit code 2; a failed
//! check or write is exit code 1. Neither writes an artifact.

use bench::SweepArgs;
use workloads::artifact::Artifact;
use workloads::chaossweep::{chaos_sweep, ChaosSweepConfig};
use workloads::collectivessweep::{collectives_sweep, CollectivesConfig};
use workloads::lanesweep::{lane_sweep, LaneSweepConfig};
use workloads::telemetrysweep::{telemetry_sweep, TelemetrySweepConfig};
use workloads::trafficsweep::{traffic_sweep, SweepConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = bench::or_exit(bench::parse_sweep_args(&args));
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(a: &SweepArgs) -> Result<(), String> {
    let trials = a.trials.unwrap_or(20);
    match a.name {
        "traffic_sweep" => artifact(a, || {
            let mut cfg = pick(a, SweepConfig::smoke, SweepConfig::full);
            cfg.sessions = a.sessions.unwrap_or(cfg.sessions);
            cfg.seed = a.seed.unwrap_or(cfg.seed);
            traffic_sweep(&cfg)
        }),
        "chaos_sweep" => artifact(a, || {
            let mut cfg = pick(a, ChaosSweepConfig::smoke, ChaosSweepConfig::full);
            cfg.sessions = a.sessions.unwrap_or(cfg.sessions);
            cfg.seed = a.seed.unwrap_or(cfg.seed);
            chaos_sweep(&cfg)
        }),
        "lane_sweep" => artifact(a, || {
            let mut cfg = pick(a, LaneSweepConfig::smoke, LaneSweepConfig::full);
            cfg.trials = a.trials.unwrap_or(cfg.trials);
            cfg.seed = a.seed.unwrap_or(cfg.seed);
            lane_sweep(&cfg)
        }),
        "telemetry_sweep" => artifact(a, || {
            let mut cfg = pick(a, TelemetrySweepConfig::smoke, TelemetrySweepConfig::full);
            cfg.sessions = a.sessions.unwrap_or(cfg.sessions);
            cfg.seed = a.seed.unwrap_or(cfg.seed);
            telemetry_sweep(&cfg)
        }),
        "collectives_sweep" => artifact(a, || {
            let mut cfg = pick(a, CollectivesConfig::smoke, CollectivesConfig::full);
            cfg.traffic_sessions = a.sessions.unwrap_or(cfg.traffic_sessions);
            cfg.seed = a.seed.unwrap_or(cfg.seed);
            collectives_sweep(&cfg)
        }),
        "fault_sweep" => {
            bench::emit(&workloads::faultsweep::fault_sweep(trials));
            Ok(())
        }
        "torus_sweep" => {
            bench::emit(&workloads::torussweep::torus_sweep(trials));
            Ok(())
        }
        "contention_heatmap" => {
            bench::emit(&workloads::heatmap::contention_heatmap(trials));
            Ok(())
        }
        name => unreachable!("parse_sweep_args admitted unknown sweep {name}"),
    }
}

/// The smoke or the full configuration of a sweep.
fn pick<C>(a: &SweepArgs, smoke: fn() -> C, full: fn() -> C) -> C {
    if a.smoke {
        smoke()
    } else {
        full()
    }
}

/// `--check FILE`: schema plus domain check of an existing artifact.
/// Otherwise runs `build` and archives the result under `results/`.
fn artifact<A: Artifact>(a: &SweepArgs, build: impl FnOnce() -> A) -> Result<(), String> {
    if let Some(path) = &a.check {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let sweep = A::from_json(&text).map_err(|e| format!("{path}: schema violation at {e}"))?;
        sweep.check().map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: valid {}", A::ID);
        return Ok(());
    }
    let sweep = build();
    if let Err(e) = sweep.check() {
        eprintln!("warning: {} check fails at this config: {e}", A::ID);
    }
    let json = sweep.to_json().map_err(|e| format!("{}: {e}", A::ID))?;
    let table = sweep.to_table();
    println!("{table}");
    let dir = bench::results_dir();
    for (ext, text) in [("txt", &table), ("json", &json)] {
        let path = dir.join(format!("{}.{ext}", A::ID));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!("[saved results/{0}.txt results/{0}.json]", A::ID);
    Ok(())
}
