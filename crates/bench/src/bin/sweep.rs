//! Regenerates or validates one sweep artifact: `sweep <name> [flags]`
//! writes `results/<name>.{txt,json}` under the workspace the current
//! directory is in, rewriting only files whose bytes changed.
//!
//! The schema sweeps (`traffic_sweep`, `chaos_sweep`, `lane_sweep`,
//! `telemetry_sweep`, `collectives_sweep`) take `--smoke` (the short CI
//! configuration), `--seed S`, `--sessions N` (lane: `--trials N`) and
//! `--check FILE`, which simulates nothing: it parses an existing
//! artifact and runs the sweep's domain check. The figure artifacts
//! (`fault_sweep`, `torus_sweep`, `contention_heatmap`) take `--trials
//! N` (default 20). `workloads::registry` declares both lists.
//!
//! A bad command line, or no workspace above the current directory, is
//! a one-line error and exit code 2; a failed check or write is exit
//! code 1. None of them writes an artifact.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench::run(&bench::or_exit(bench::parse_sweep_args(&args), 2));
}
