//! # workloads — experiment harness for the SC '93 reproduction
//!
//! Ties `hypercast` (the algorithms) and `wormsim` (the network model)
//! together into the experiments of the paper's Section 5:
//!
//! * [`destsets`] — seeded random destination sets ("nodes randomly
//!   distributed throughout the hypercube");
//! * [`sweep`] — the paired-trial grid every trial-based figure runs on
//!   (point × trial, serially on the calling thread), with paired
//!   destination sets across algorithms;
//! * [`figures`] — one entry point per paper figure (Figures 9–14);
//! * [`ablations`] — extension experiments: port models, message sizes,
//!   parameter sensitivity, optimality gaps, contention rates;
//! * [`faultsweep`] — fault-injection sweep: delivery ratio and makespan
//!   vs dead links, with and without `hypercast::repair`;
//! * [`chaossweep`] — online fault churn under open-loop load: delivery
//!   degradation, retry distributions, and time-to-recover across a
//!   churn × load grid;
//! * [`collectivessweep`] — the collective suite (allgather /
//!   reduce-scatter / allreduce) across tree families and topologies:
//!   data-oracle-verified schedules plus open-loop collective traffic;
//! * [`torussweep`] — topology extension: separate-addressing delay on a
//!   64-node hypercube vs a 64-node k-ary n-cube torus;
//! * [`heatmap`] — measured per-dimension channel contention per
//!   algorithm, recorded in-loop by `wormsim::EventRecorder`;
//! * [`figure`] — the data model plus table / ASCII-plot / JSON output;
//! * [`lanesweep`] — virtual-lane ladder: contention of naive multicast
//!   trees vs lanes-per-link on cube, torus, and mesh networks;
//! * [`telemetrysweep`] — the flight recorder's windowed time-series
//!   across a churn-and-recover window: goodput dip and refill, latency
//!   quantiles, cache hit rate, live faults, per-dimension blocked time;
//! * [`json`] — a minimal first-party JSON tree, parser, and printer
//!   (the build environment is offline, so no `serde_json`);
//! * [`artifact`] — the one schema mechanism behind every sweep
//!   artifact: declared fields, strict emit, path-named parse errors;
//! * [`registry`] — every committed `results/` artifact, declared once
//!   with the command that writes it and its in-memory renderer;
//! * [`serve`] — the long-running service mode behind `mcast serve`:
//!   newline-delimited JSON requests run through `traffic::run` and
//!   `traffic::run_chaos`, plus the spec constructors and report
//!   formatters shared with the one-shot CLI;
//! * [`stats`] — summary statistics.
//!
//! The regeneration binaries `all_figures [--only <id>]` and
//! `sweep <id>` live in the `bench` crate and write what [`registry`]
//! renders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ablations;
pub mod artifact;
pub mod chaossweep;
pub mod collectivessweep;
pub mod destsets;
pub mod faultsweep;
pub mod figure;
pub mod figures;
mod grid;
pub mod heatmap;
pub mod json;
pub mod lanesweep;
pub mod registry;
pub mod request;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod telemetrysweep;
pub mod torussweep;
pub mod trafficsweep;

pub use figure::{Figure, Series};
pub use stats::Summary;
