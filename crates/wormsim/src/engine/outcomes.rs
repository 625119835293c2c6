//! Run-level outputs: aggregate statistics, per-run results, and the
//! typed error vocabulary.

use crate::engine::worm::MessageResult;
use crate::time::SimTime;
use std::fmt;

/// Aggregate network statistics of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Time blocked on external channels (contention).
    pub blocked_time: SimTime,
    /// External-channel blocking episodes (contention).
    pub blocks: u64,
    /// Time blocked on virtual channels (one-port serialization).
    pub port_wait_time: SimTime,
    /// Virtual-channel blocking episodes.
    pub port_waits: u64,
    /// Completion time of the last delivery.
    pub makespan: SimTime,
    /// Messages that ended [`Outcome::Failed`](crate::engine::Outcome).
    pub failed: u64,
    /// Messages that ended [`Outcome::TimedOut`](crate::engine::Outcome).
    pub timed_out: u64,
    /// Per-coordinate-dimension total busy (held) time of external
    /// channels, indexed by dimension (`0..topology.dimensions()`).
    pub dim_busy: Vec<SimTime>,
    /// Number of external channels per coordinate dimension (the
    /// denominator of [`dim_utilization`](NetStats::dim_utilization)).
    pub dim_channels: Vec<u32>,
    /// Deepest FIFO wait queue ever observed on any channel (external
    /// or virtual) — an instantaneous congestion measure the aggregate
    /// blocked-time totals smear out.
    pub max_queue_depth: u32,
    /// Per-lane total busy (held) time of external channels, indexed by
    /// lane (`0..router.lanes()`). Length 1 for single-lane routers,
    /// where it duplicates the sum of `dim_busy`.
    pub lane_busy: Vec<SimTime>,
    /// Number of physical links — the per-lane external channel count,
    /// the denominator of [`lane_utilization`](NetStats::lane_utilization).
    pub lane_links: u32,
}

impl NetStats {
    /// Folds another run's statistics into this one: counters and busy
    /// times sum, `makespan` and `max_queue_depth` take the maximum,
    /// and the per-dimension vectors merge elementwise (adopting the
    /// other run's shape if this one is still empty). This is how the
    /// chaos engine aggregates the per-epoch waves of one measurement
    /// window into a single report.
    pub fn absorb(&mut self, other: &NetStats) {
        self.blocked_time += other.blocked_time;
        self.blocks += other.blocks;
        self.port_wait_time += other.port_wait_time;
        self.port_waits += other.port_waits;
        self.makespan = self.makespan.max(other.makespan);
        self.failed += other.failed;
        self.timed_out += other.timed_out;
        if self.dim_busy.len() < other.dim_busy.len() {
            self.dim_busy.resize(other.dim_busy.len(), SimTime::ZERO);
        }
        for (mine, theirs) in self.dim_busy.iter_mut().zip(&other.dim_busy) {
            *mine += *theirs;
        }
        if self.dim_channels.len() < other.dim_channels.len() {
            self.dim_channels.resize(other.dim_channels.len(), 0);
        }
        for (mine, theirs) in self.dim_channels.iter_mut().zip(&other.dim_channels) {
            *mine = (*mine).max(*theirs);
        }
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        if self.lane_busy.len() < other.lane_busy.len() {
            self.lane_busy.resize(other.lane_busy.len(), SimTime::ZERO);
        }
        for (mine, theirs) in self.lane_busy.iter_mut().zip(&other.lane_busy) {
            *mine += *theirs;
        }
        self.lane_links = self.lane_links.max(other.lane_links);
    }

    /// Mean utilization of each lane across every physical link: held
    /// time divided by `makespan · links`, in lane order. All zeros for
    /// a run with zero makespan. The lane-sweep tables read the spread
    /// of this vector as the "how evenly did adaptive selection load
    /// the lanes" signal.
    #[must_use]
    pub fn lane_utilization(&self) -> Vec<f64> {
        if self.makespan == SimTime::ZERO || self.lane_links == 0 {
            return vec![0.0; self.lane_busy.len()];
        }
        let denom = self.makespan.as_ns() as f64 * f64::from(self.lane_links);
        self.lane_busy
            .iter()
            .map(|busy| busy.as_ns() as f64 / denom)
            .collect()
    }

    /// Mean utilization of the external channels of each coordinate
    /// dimension: held time divided by `makespan · channels`, in
    /// dimension order. Empty if the run had zero makespan.
    #[must_use]
    pub fn dim_utilization(&self) -> Vec<f64> {
        if self.makespan == SimTime::ZERO {
            return vec![0.0; self.dim_busy.len()];
        }
        self.dim_busy
            .iter()
            .zip(&self.dim_channels)
            .map(|(busy, &chans)| {
                if chans == 0 {
                    0.0
                } else {
                    busy.as_ns() as f64 / (self.makespan.as_ns() as f64 * f64::from(chans))
                }
            })
            .collect()
    }
}

/// Outcome of [`Run::run`](crate::Run::run).
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-message results, indexed like the input workload.
    pub messages: Vec<MessageResult>,
    /// Aggregate statistics.
    pub stats: NetStats,
}

impl RunResult {
    /// Number of messages that were delivered.
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.outcome.is_delivered())
            .count()
    }

    /// Delivered fraction of the workload (1.0 for an empty workload).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages.is_empty() {
            1.0
        } else {
            self.delivered_count() as f64 / self.messages.len() as f64
        }
    }
}

/// Typed failure modes of a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A workload message sends to itself.
    SelfSend {
        /// Index of the offending message.
        index: usize,
    },
    /// A dependency index points outside the workload.
    DependencyOutOfRange {
        /// Index of the offending message.
        index: usize,
        /// The out-of-range dependency value.
        dep: usize,
    },
    /// The workload exceeds the event encoding's message-index
    /// capacity (2^28 messages); a larger workload would silently
    /// corrupt event payloads in release builds.
    WorkloadTooLarge {
        /// Number of messages in the rejected workload.
        messages: usize,
        /// Largest supported workload size.
        max: usize,
    },
    /// The dependency graph contains a cycle (or depends on something
    /// unsatisfiable), so some messages can never become eligible.
    DependencyCycle {
        /// Messages that never became eligible.
        stuck: Vec<usize>,
    },
    /// The network wedged: the event heap drained while worms were still
    /// blocked on channels that will never be released.
    Deadlock {
        /// Simulated time of the last event before the wedge.
        at: SimTime,
        /// Messages holding at least one channel another message waits
        /// on (a stuck channel's phantom holder is not a message and is
        /// not listed).
        holders: Vec<usize>,
        /// Messages waiting in some channel's queue.
        waiters: Vec<usize>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SelfSend { index } => {
                write!(f, "self-send in workload (message {index})")
            }
            SimError::DependencyOutOfRange { index, dep } => {
                write!(
                    f,
                    "dependency index out of range (message {index} depends on {dep})"
                )
            }
            SimError::WorkloadTooLarge { messages, max } => {
                write!(
                    f,
                    "workload too large for the event encoding ({messages} messages, max {max})"
                )
            }
            SimError::DependencyCycle { stuck } => write!(
                f,
                "workload contains a dependency cycle or unsatisfiable message ({} stuck)",
                stuck.len()
            ),
            SimError::Deadlock {
                at,
                holders,
                waiters,
            } => write!(
                f,
                "deadlock at {at}: {} waiter(s) {:?} blocked behind holder(s) {:?}",
                waiters.len(),
                waiters,
                holders
            ),
        }
    }
}

impl std::error::Error for SimError {
    /// `SimError` is a leaf in every error chain: each variant fully
    /// describes its own failure, so there is never an underlying
    /// source. Layers that wrap a simulation failure (e.g. the traffic
    /// crate's retry exhaustion) chain *to* a `SimError`, not from it.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_utilization_divides_by_channels_and_makespan() {
        let stats = NetStats {
            makespan: SimTime::from_ns(100),
            dim_busy: vec![SimTime::from_ns(100), SimTime::from_ns(400), SimTime::ZERO],
            dim_channels: vec![4, 8, 0],
            ..NetStats::default()
        };
        let u = stats.dim_utilization();
        assert_eq!(u.len(), 3);
        assert!((u[0] - 0.25).abs() < 1e-12);
        assert!((u[1] - 0.5).abs() < 1e-12);
        assert_eq!(u[2], 0.0);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_extrema() {
        let mut a = NetStats {
            blocked_time: SimTime::from_ns(10),
            blocks: 2,
            port_wait_time: SimTime::from_ns(5),
            port_waits: 1,
            makespan: SimTime::from_ns(100),
            failed: 1,
            timed_out: 0,
            dim_busy: vec![SimTime::from_ns(4)],
            dim_channels: vec![2],
            max_queue_depth: 3,
            lane_busy: vec![SimTime::from_ns(4)],
            lane_links: 2,
        };
        let b = NetStats {
            blocked_time: SimTime::from_ns(7),
            blocks: 3,
            port_wait_time: SimTime::from_ns(2),
            port_waits: 4,
            makespan: SimTime::from_ns(60),
            failed: 0,
            timed_out: 2,
            dim_busy: vec![SimTime::from_ns(1), SimTime::from_ns(9)],
            dim_channels: vec![2, 8],
            max_queue_depth: 5,
            lane_busy: vec![SimTime::from_ns(6), SimTime::from_ns(2)],
            lane_links: 4,
        };
        a.absorb(&b);
        assert_eq!(a.blocked_time, SimTime::from_ns(17));
        assert_eq!(a.blocks, 5);
        assert_eq!(a.port_wait_time, SimTime::from_ns(7));
        assert_eq!(a.port_waits, 5);
        assert_eq!(a.makespan, SimTime::from_ns(100));
        assert_eq!(a.failed, 1);
        assert_eq!(a.timed_out, 2);
        assert_eq!(a.dim_busy, vec![SimTime::from_ns(5), SimTime::from_ns(9)]);
        assert_eq!(a.dim_channels, vec![2, 8]);
        assert_eq!(a.max_queue_depth, 5);
        assert_eq!(a.lane_busy, vec![SimTime::from_ns(10), SimTime::from_ns(2)]);
        assert_eq!(a.lane_links, 4);
    }

    #[test]
    fn lane_utilization_divides_by_links_and_makespan() {
        let stats = NetStats {
            makespan: SimTime::from_ns(100),
            lane_busy: vec![SimTime::from_ns(200), SimTime::from_ns(50)],
            lane_links: 4,
            ..NetStats::default()
        };
        let u = stats.lane_utilization();
        assert_eq!(u.len(), 2);
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 0.125).abs() < 1e-12);
        // Zero makespan or zero links: all zeros, never a division.
        let empty = NetStats {
            lane_busy: vec![SimTime::from_ns(7)],
            ..NetStats::default()
        };
        assert_eq!(empty.lane_utilization(), vec![0.0]);
    }

    #[test]
    fn sim_error_is_an_error_leaf() {
        let e = SimError::SelfSend { index: 3 };
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_none());
        assert!(dyn_err.to_string().contains("message 3"));
    }

    #[test]
    fn zero_makespan_utilization_is_zero() {
        let stats = NetStats {
            dim_busy: vec![SimTime::from_ns(7)],
            dim_channels: vec![2],
            ..NetStats::default()
        };
        assert_eq!(stats.dim_utilization(), vec![0.0]);
    }
}
