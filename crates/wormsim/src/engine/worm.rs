//! Worm state: workload messages, their terminal outcomes, and the
//! per-message bookkeeping the event loop updates.

use crate::time::SimTime;
use hcube::NodeId;

/// One message of a dependency workload.
#[derive(Clone, Debug)]
pub struct DepMessage {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload length in bytes.
    pub bytes: u32,
    /// Indices (into the workload vector) of messages that must be
    /// *delivered* before this message's send processing may start.
    pub deps: Vec<usize>,
    /// Earliest absolute time the send processing may start.
    pub min_start: SimTime,
}

/// Why a message failed under fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultCause {
    /// The source or destination node is dead.
    DeadEndpoint,
    /// The worm's header reached a dead channel and aborted.
    DeadChannel,
    /// A dependency of this message failed or timed out, so it could
    /// never be sent.
    DependencyFailed,
}

impl core::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultCause::DeadEndpoint => write!(f, "source or destination node is dead"),
            FaultCause::DeadChannel => write!(f, "header reached a dead channel"),
            FaultCause::DependencyFailed => {
                write!(f, "a dependency failed or timed out")
            }
        }
    }
}

impl std::error::Error for FaultCause {}

/// Per-message terminal state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The payload reached the destination processor.
    Delivered,
    /// The message was lost to a fault; see the cause.
    Failed(FaultCause),
    /// The message missed its deadline and aborted, releasing every
    /// channel it held (the recovery path that distinguishes a timeout
    /// from a deadlock).
    TimedOut,
}

impl Outcome {
    /// Whether the message was delivered.
    #[must_use]
    pub fn is_delivered(self) -> bool {
        self == Outcome::Delivered
    }
}

/// Per-message outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageResult {
    /// Time the worm entered the network (after software startup);
    /// [`SimTime::ZERO`] if the message failed before injection.
    pub injected: SimTime,
    /// Time the tail drained at the destination router. For a message
    /// that was not delivered, the time it aborted.
    pub network_done: SimTime,
    /// Time the destination processor holds the payload
    /// (`network_done + t_recv_sw`). For a message that was not
    /// delivered, the time it aborted.
    pub delivered: SimTime,
    /// Total time spent blocked waiting for busy channels (external
    /// contention and one-port serialization combined).
    pub blocked_time: SimTime,
    /// Blocking episodes on *external* channels — genuine wormhole
    /// channel contention (stall-window retries count here too).
    pub blocks: u32,
    /// Blocking episodes on virtual injection/consumption channels —
    /// intended one-port serialization, not contention.
    pub port_waits: u32,
    /// How the message ended.
    pub outcome: Outcome,
}

/// The worm's in-flight state machine: route progress, dependency
/// counters, blocking accounting, and the terminal outcome once reached.
///
/// The route itself lives in the run's route buffer as a flat
/// `(start, len)` range of `(channel, dimension)` hops — per-message
/// state carries no allocation for it, which is what lets
/// [`EngineScratch`](crate::scratch::EngineScratch) replay recurring
/// sessions without touching the allocator.
pub(crate) struct MsgState {
    /// Start of this worm's hops in the run's route buffer.
    pub route_start: u32,
    /// Number of channels in the route.
    pub route_len: u32,
    /// Dependencies not yet delivered.
    pub pending_deps: usize,
    /// Messages waiting on this one's delivery.
    pub dependents: Vec<usize>,
    /// Earliest time send processing may start.
    pub eligible_at: SimTime,
    /// Injection time, once injected.
    pub injected: SimTime,
    /// When the current blocking episode began.
    pub wait_since: SimTime,
    /// Accumulated blocked time (external + virtual).
    pub blocked_time: SimTime,
    /// External-channel blocking episodes.
    pub blocks: u32,
    /// Virtual-channel blocking episodes.
    pub port_waits: u32,
    /// Number of route channels currently held.
    pub acquired: usize,
    /// The channels actually granted so far, hop by hop. Populated only
    /// under adaptive lane selection (`class_size > 1`), where the
    /// granted lane may differ from the route's nominal class floor;
    /// with a single lane per class the route *is* the truth and this
    /// stays empty (the allocation-free hot path).
    pub taken: Vec<usize>,
    /// Whether this message sits blocked in the FIFO of its current
    /// hop's route channel (hop `acquired`).
    pub queued: bool,
    /// An open stall-window park: `(since, port_classified)`. The
    /// blocked time is charged when the window actually elapses (the
    /// reopen retry) or pro-rated at an abort — never upfront, so a
    /// deadline that fires mid-window cannot overcount.
    pub stall: Option<(SimTime, bool)>,
    /// Start of the open blocking episode on hop `acquired`: set at the
    /// first block, kept through a stall park's reopen retry, taken
    /// when the episode closes at the grant or an abort.
    pub episode: Option<SimTime>,
    /// Terminal state, once reached; time in `finished_at`.
    pub outcome: Option<Outcome>,
    /// Time the terminal state was reached.
    pub finished_at: SimTime,
}

impl MsgState {
    /// Fresh state for a workload message with the given route range.
    pub fn new(route: (u32, u32), deps: usize, eligible_at: SimTime) -> MsgState {
        MsgState {
            route_start: route.0,
            route_len: route.1,
            pending_deps: deps,
            dependents: Vec::new(),
            eligible_at,
            injected: SimTime::ZERO,
            wait_since: SimTime::ZERO,
            blocked_time: SimTime::ZERO,
            blocks: 0,
            port_waits: 0,
            acquired: 0,
            taken: Vec::new(),
            queued: false,
            stall: None,
            episode: None,
            outcome: None,
            finished_at: SimTime::ZERO,
        }
    }

    /// In-place [`new`](MsgState::new), reusing the `dependents`
    /// allocation — the scratch path's replacement for rebuilding the
    /// message table.
    pub fn reset(&mut self, route: (u32, u32), deps: usize, eligible_at: SimTime) {
        self.route_start = route.0;
        self.route_len = route.1;
        self.pending_deps = deps;
        self.dependents.clear();
        self.eligible_at = eligible_at;
        self.injected = SimTime::ZERO;
        self.wait_since = SimTime::ZERO;
        self.blocked_time = SimTime::ZERO;
        self.blocks = 0;
        self.port_waits = 0;
        self.acquired = 0;
        self.taken.clear();
        self.queued = false;
        self.stall = None;
        self.episode = None;
        self.outcome = None;
        self.finished_at = SimTime::ZERO;
    }
}
