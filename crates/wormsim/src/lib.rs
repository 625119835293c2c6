//! # wormsim — a discrete-event wormhole-routed hypercube simulator
//!
//! The evaluation substrate of this reproduction: a from-scratch
//! equivalent of the **MultiSim** (CSIM-based) simulator the paper used
//! for its large-cube experiments, plus parameter presets calibrated to
//! the published characteristics of its hardware testbed, the **nCUBE-2**.
//!
//! The model is channel-granularity wormhole switching:
//!
//! * a worm's header acquires the directed channels of its E-cube route
//!   in order (`t_hop` each), blocking in place — and holding everything
//!   acquired — when a channel is busy (FIFO arbitration);
//! * after the last acquisition, the payload drains at `t_byte` per byte
//!   and all held channels release at tail-drain;
//! * software costs: per-message send startup (`t_send_sw`, serialized on
//!   the sending CPU) and receive overhead (`t_recv_sw`);
//! * one-port nodes are modeled with virtual injection and consumption
//!   channels, so port serialization falls out of ordinary contention.
//!
//! [`Run`] executes arbitrary dependency workloads;
//! [`MulticastRun`] replays `hypercast` trees, producing the
//! per-destination delays plotted in the paper's Figures 11–14, and
//! [`collective::simulate_collective`] replays every other collective —
//! reduction, barrier, scatter, gather, chunked multicast and the
//! full-machine suite — as one `hypercast` collective schedule.
//!
//! ## Quick example
//!
//! ```
//! use hcube::{Cube, NodeId, Resolution};
//! use hypercast::{Algorithm, PortModel};
//! use wormsim::{SimParams, simulate_multicast};
//!
//! let tree = Algorithm::WSort
//!     .build(Cube::of(5), Resolution::HighToLow, PortModel::AllPort,
//!            NodeId(0), &[NodeId(3), NodeId(17), NodeId(30)])
//!     .unwrap();
//! let report = simulate_multicast(&tree, &SimParams::ncube2(PortModel::AllPort), 4096);
//! assert_eq!(report.blocks, 0); // contention-free ⇒ no channel blocking
//! assert!(report.max_delay.as_ms() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod collective;
pub mod engine;
pub mod faults;
pub mod flit;
pub mod metrics;
pub mod multicast;
pub mod network;
pub mod params;
pub mod probe;
pub mod scratch;
pub mod time;
pub mod trace;

pub use collective::simulate_collective;
pub use engine::{
    simulate_window_observed_on_with_scratch, DepMessage, FaultCause, MessageResult, NetStats,
    Outcome, Run, RunResult, SimError,
};
pub use faults::{EpochCursor, FaultEvent, FaultEventKind, FaultPlan, FaultTimeline};
pub use flit::{simulate_flits, FlitMessage, FlitResult};
pub use metrics::{Histogram, MetricsRegistry};
pub use multicast::{
    analytic_replay, multicast_workload, separate_workload, simulate_concurrent_multicasts,
    simulate_multicast, simulate_multicast_lanes, simulate_multicast_observed,
    simulate_multicast_with_scratch, AnalyticScratch, ConcurrentReport, FaultSimReport,
    InboundIndex, MulticastRun, SimReport, TreeReport,
};
pub use network::ChannelMap;
pub use params::SimParams;
pub use probe::{
    json_escape, BlockedInterval, EventRecorder, NoopProbe, Probe, ProbeEvent, WatchdogAlarm,
};
pub use scratch::EngineScratch;
pub use time::SimTime;
pub use trace::ChannelTrace;
