//! # traffic — open-loop steady-state multicast load generation
//!
//! The paper's evaluation (and the rest of this workspace's figure
//! machinery) measures *one multicast at a time* on an idle network.
//! This crate asks the complementary question the paper's Section 6
//! leaves open: **how do the tree algorithms behave under sustained
//! load** — sessions arriving continuously, contending for channels,
//! all the way up to saturation?
//!
//! The subsystem is layered on the existing engine rather than beside
//! it:
//!
//! * [`arrivals`] — *when* sessions arrive: deterministic, Poisson, or
//!   bursty on-off point processes at a configured offered load, with a
//!   [deterministic natural log](arrivals::det_ln) so exponential gaps
//!   are byte-identical across platforms;
//! * [`patterns`] — *what* each session multicasts: fixed, uniform,
//!   subcube-biased, hot-spot, or a finite [`DestPattern::Pool`] of
//!   recurring groups (drawing through [`hcube::sampling`], the same
//!   primitives the figure workloads use);
//! * [`engine`] — the session scheduler and the one entry point
//!   [`run`]: each arrival becomes a batch of [`wormsim::DepMessage`]s
//!   whose `min_start` is the arrival time, trees come from a
//!   [`hypercast::TreeCache`] (recurring groups are pointer-clone
//!   hits), and the whole run executes under one windowed
//!   [`wormsim::Run`] so saturation cannot run away. A [`Backend`]
//!   picks tree multicast on a hypercube, separate addressing on any
//!   router, or a [`collective`] per session;
//! * [`stats`] — steady-state output analysis: warmup truncation,
//!   batch-means confidence intervals, throughput, and the
//!   [`stats::saturation_point`] detector for latency-vs-load sweeps;
//! * [`churn`] / [`chaos`] — [`run_chaos`], online fault churn and
//!   self-healing recovery: a seed-deterministic MTBF/MTTR
//!   failure/repair process rendered into epoch-numbered fault plans,
//!   with faulted sessions retried under exponential backoff through
//!   [`hypercast::repair`](hypercast::repair::repair)-rebuilt trees,
//!   surfacing delivery ratio, goodput, retry distributions, and
//!   time-to-recover;
//! * [`telemetry`] — the flight recorder: [`RunOptions::telemetry`]
//!   runs the same workload once, observed, returning the
//!   byte-identical report **plus** per-session spans with an exact
//!   latency decomposition (queueing / head-flit blocking / transit,
//!   causally chained through retries) and a deterministic windowed
//!   time-series (goodput, latency quantiles, cache hit rate, live
//!   faults, per-dimension blocked time), exportable as Perfetto
//!   traces, Prometheus metrics, or standalone JSON.
//!
//! Independent runs (sweep points, trials) fan out over
//! [`run_trials`], the workspace's one worker pool.
//!
//! **Zero-load anchoring.** A one-session run of a
//! [`DestPattern::Fixed`] pattern is byte-identical to the single-shot
//! [`wormsim::multicast::simulate_multicast`] replay — the first
//! arrival of every schedule is at `t = 0` and `min_start` staggering
//! degenerates to the plain workload. The integration tests pin this,
//! which anchors every loaded measurement to the validated single-shot
//! model.
//!
//! ## Quick example
//!
//! ```
//! use hcube::{Cube, Resolution};
//! use hypercast::{Algorithm, PortModel};
//! use traffic::{ArrivalProcess, Arrivals, Backend, DestPattern, RunOptions, TrafficSpec};
//! use wormsim::SimParams;
//!
//! let spec = TrafficSpec::new(
//!     Arrivals::new(ArrivalProcess::Poisson, 2.0), // 2 sessions/ms
//!     DestPattern::UniformRandom { m: 8 },
//!     50,
//!     42,
//! );
//! let report = traffic::run(
//!     &spec,
//!     Backend::tree(Cube::of(6), Resolution::HighToLow, Algorithm::WSort),
//!     &SimParams::ncube2(PortModel::AllPort),
//!     RunOptions::default(),
//! );
//! assert_eq!(report.sessions.len(), 50);
//! assert!(report.completion_ratio > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod arrivals;
pub mod chaos;
pub mod churn;
pub mod collective;
pub mod engine;
pub mod patterns;
pub mod stats;
pub mod telemetry;

pub use arrivals::{ArrivalProcess, Arrivals};
pub use chaos::{
    run_chaos, run_chaos_cube, run_chaos_separate_on, ChaosReport, ChaosSession, ChaosSpec,
    RetriesExhausted, SessionFailure,
};
pub use churn::ChurnSpec;
pub use collective::assemble_collective_cube_sessions;
pub use engine::{
    assemble_cube_sessions, assemble_separate_sessions_on, run, run_sessions_on_with_scratch,
    Backend, RunOptions, SessionRecord, SessionWorkload, TrafficReport, TrafficSpec,
};
pub use patterns::DestPattern;
pub use stats::{saturation_point, BatchMeans, LoadPoint, Quantiles};
pub use telemetry::{
    AttemptSpan, PhaseBreakdown, SessionTrace, SpanOutcome, Telemetry, TelemetryBucket,
    TelemetryConfig, TelemetryProbe, TimeSeries,
};
pub use wormsim::run_trials;
