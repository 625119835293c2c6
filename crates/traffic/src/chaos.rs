//! The chaos engine: open-loop traffic under online fault churn, with
//! self-healing retries.
//!
//! [`run_chaos`] extends [`run`](crate::run) with a
//! [`ChurnSpec`] failure/repair process and a
//! [`RetryPolicy`]:
//!
//! 1. the churn process is rendered into a [`FaultTimeline`] and
//!    snapshotted into epoch-numbered [`wormsim::FaultPlan`]s — the
//!    fault state is piecewise constant;
//! 2. sessions launched in epoch *e* run under epoch *e*'s plan for
//!    their whole lifetime (the *epoch isolation* approximation: a
//!    session straddling a fault event sees the state at its launch,
//!    and channel contention does not couple across epochs);
//! 3. a session attempt that hits a fault (a constituent message ends
//!    [`Outcome::Failed`](wormsim::Outcome), or the fault-pruned tree
//!    could not cover every requested destination) is *retried*: the
//!    next attempt launches an exponential-backoff gap after the
//!    failure resolved, rebuilds its tree through
//!    [`hypercast::repair`](hypercast::repair::repair) against the fault
//!    state of the retry's epoch (cached per epoch in the shared
//!    [`TreeCache`]), and counts one more attempt — up to
//!    `1 + max_retries` attempts, after which the session is **lost**;
//! 4. a session cut off by the observation-window horizon
//!    ([`Outcome::TimedOut`](wormsim::Outcome)) is *not* retried: the
//!    window cut is an artifact of measurement, not a network fault, and
//!    retrying it would make a quiet chaos run diverge from the plain
//!    engine.
//!
//! The first attempt always replays the pristine-cube tree — sources do
//! not know the fault state until a send fails, so fault *detection* is
//! end-to-end: the failed attempt itself is the detection, and the
//! repaired tree only enters on the retry. With churn disabled
//! ([`ChurnSpec::is_quiet`]) the whole machinery degenerates to a
//! single epoch with an empty plan and the run is byte-identical to
//! [`run`](crate::run) (pinned by the equivalence tests).
//!
//! **Backoff units.** [`RetryPolicy`] backoffs are abstract units; the
//! chaos engine interprets them as **microseconds** of simulated time.

use crate::churn::ChurnSpec;
use crate::engine::{push_tree_session, Backend, RunOptions, TrafficSpec};
use crate::stats::BatchMeans;
use crate::telemetry::ChaosCollector;
use hcube::{Cube, Ecube, NodeId, Resolution, Router, Topology};
use hypercast::protocol::RetryPolicy;
use hypercast::{Algorithm, CacheStats, NetworkFaults, TreeCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::fmt;
use wormsim::network::ChannelMap;
use wormsim::{
    DepMessage, EngineScratch, FaultCause, FaultEpoch, FaultTimeline, NetStats, Outcome, Run,
    SimParams, SimTime,
};

/// Configuration of one chaos run: plain open-loop traffic plus a churn
/// process and a retry policy.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// The underlying open-loop traffic configuration (arrivals,
    /// pattern, sessions, window, seed, cache).
    pub traffic: TrafficSpec,
    /// The failure/repair process.
    pub churn: ChurnSpec,
    /// Retry policy for faulted sessions; backoffs are in microseconds
    /// of simulated time.
    pub retry: RetryPolicy,
}

impl ChaosSpec {
    /// A chaos spec wrapping `traffic` with the given churn and the
    /// default retry policy (3 retries, 10 µs base backoff, ×2).
    #[must_use]
    pub fn new(traffic: TrafficSpec, churn: ChurnSpec) -> ChaosSpec {
        ChaosSpec {
            traffic,
            churn,
            retry: RetryPolicy::default(),
        }
    }
}

/// Why a session ultimately failed (its *first* failing attempt's
/// diagnosis — preserved verbatim through every retry, so backoff
/// exhaustion still reports the original cause).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionFailure {
    /// A constituent message hit a fault (dead endpoint, dead channel,
    /// or a failed dependency).
    Faulted(FaultCause),
    /// The fault-pruned retry tree could not cover every requested
    /// destination (dead or unreachable nodes).
    Unreachable {
        /// Requested destinations the tree could not reach.
        missing: usize,
    },
    /// The session was cut off by the observation-window horizon.
    /// Terminal: window cuts are measurement artifacts and never retry.
    WindowCut,
}

impl fmt::Display for SessionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionFailure::Faulted(cause) => write!(f, "session hit a fault: {cause}"),
            SessionFailure::Unreachable { missing } => {
                write!(f, "{missing} destination(s) unreachable after repair")
            }
            SessionFailure::WindowCut => {
                write!(f, "session cut off by the observation window")
            }
        }
    }
}

impl std::error::Error for SessionFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionFailure::Faulted(cause) => Some(cause),
            SessionFailure::Unreachable { .. } | SessionFailure::WindowCut => None,
        }
    }
}

/// The typed error of a session lost after exhausting its retry budget
/// (or whose next retry would land past the horizon): chains through
/// [`source`](std::error::Error::source) to the original
/// [`SessionFailure`], and through that to the underlying
/// [`FaultCause`] when there was one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetriesExhausted {
    /// Attempts actually made (1 initial + retries).
    pub attempts: u32,
    /// The first attempt's failure diagnosis.
    pub cause: SessionFailure,
}

impl fmt::Display for RetriesExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session lost after {} attempt(s)", self.attempts)
    }
}

impl std::error::Error for RetriesExhausted {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// One session's outcome inside a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosSession {
    /// When the session first entered the network.
    pub arrival: SimTime,
    /// When its final attempt resolved (last delivery, abort, or — for
    /// a session whose retry fell past the horizon — the failed
    /// attempt's resolution).
    pub completion: SimTime,
    /// `completion − arrival`.
    pub latency: SimTime,
    /// Attempts made (1 = delivered first try).
    pub attempts: u32,
    /// Whether every originally requested destination was delivered to.
    pub delivered: bool,
    /// Why the session failed, when it did — the first failing
    /// attempt's diagnosis, preserved through every retry.
    pub failure: Option<SessionFailure>,
}

impl ChaosSession {
    /// The typed retry-exhaustion error of a lost session (`None` for
    /// delivered or merely window-cut sessions).
    #[must_use]
    pub fn as_error(&self) -> Option<RetriesExhausted> {
        match self.failure {
            Some(cause) if cause != SessionFailure::WindowCut => Some(RetriesExhausted {
                attempts: self.attempts,
                cause,
            }),
            _ => None,
        }
    }
}

/// Outcome of one chaos run: per-session records plus degradation and
/// recovery statistics.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Offered load, sessions per millisecond.
    pub offered_rate_per_ms: f64,
    /// One record per injected session, in arrival order.
    pub sessions: Vec<ChaosSession>,
    /// Sessions discarded before measurement.
    pub warmup: usize,
    /// Sessions included in the measurement (post-warmup).
    pub measured_sessions: usize,
    /// Measured sessions whose every destination was delivered to.
    pub delivered_measured: usize,
    /// `delivered_measured / measured_sessions` (1.0 when nothing was
    /// measured).
    pub delivery_ratio: f64,
    /// Batch-means statistics over measured delivered-session latencies
    /// in milliseconds (retries included: a rescued session's latency
    /// spans all its attempts).
    pub latency: BatchMeans,
    /// Delivered measured sessions per millisecond of measurement span
    /// — the *goodput* against the offered load.
    pub goodput_per_ms: f64,
    /// Distribution of attempts per session: `retry_histogram[k]` =
    /// sessions that made exactly `k + 1` attempts.
    pub retry_histogram: Vec<u64>,
    /// Sessions lost to retry exhaustion (or a retry past the horizon).
    pub lost: u64,
    /// Sessions cut off by the horizon (terminal, never retried).
    pub window_cut: u64,
    /// Time from the last fault/repair event until the last disrupted
    /// session resolved — `Some(ZERO)` when churn never disrupted
    /// anything, `None` when there was no churn at all.
    pub time_to_recover: Option<SimTime>,
    /// Tree-cache counters (hits/misses/evictions/invalidations).
    pub cache: CacheStats,
    /// Network statistics, aggregated over every per-epoch wave.
    pub net: NetStats,
    /// The observation window the run executed under.
    pub horizon: SimTime,
    /// Number of fault epochs the window was partitioned into.
    pub epochs: usize,
    /// Number of fault/repair events in the generated timeline.
    pub fault_events: usize,
}

/// One pending session attempt.
#[derive(Clone, Debug)]
pub(crate) struct Attempt {
    pub(crate) session: usize,
    pub(crate) number: u32,
    pub(crate) launch: SimTime,
    pub(crate) first_failure: Option<SessionFailure>,
}

/// How one simulated attempt ended.
pub(crate) enum AttemptOutcome {
    Delivered,
    Failed(SessionFailure),
    WindowCut,
}

/// One attempt's slice of a wave workload: the message range it
/// occupies, how many requested destinations its tree could not cover,
/// and whether its tree came out of the cache.
pub(crate) struct WaveSpan {
    pub(crate) range: std::ops::Range<usize>,
    pub(crate) missing: usize,
    pub(crate) cache_hit: bool,
}

/// Runs open-loop traffic under online fault churn, with self-healing
/// retries. See the module docs for the execution model.
///
/// [`Backend::Tree`] retries rebuild their trees through
/// [`hypercast::repair`](hypercast::repair::repair); with
/// [`Backend::Separate`] each attempt re-sends one independent unicast
/// per destination, so recovery relies entirely on the victim node or
/// link reviving before the retry budget runs out (the baseline the
/// tree algorithms' repair path is measured against). Churn strikes at
/// the router's (link, lane) granularity on separate backends, and per
/// link on the hypercube. [`RunOptions::timeline`] replaces the churn
/// process with an explicit timeline; the rest of `spec` applies
/// unchanged.
///
/// # Panics
/// See [`run`](crate::run); additionally panics on a malformed
/// [`ChurnSpec`] (nonpositive MTBF) and on the collective backends,
/// which have no chaos mode.
#[must_use]
pub fn run_chaos<R: Router + Copy>(
    spec: &ChaosSpec,
    backend: Backend<R>,
    params: &SimParams,
    opts: RunOptions,
) -> ChaosReport {
    match backend {
        Backend::Tree {
            cube,
            resolution,
            algo,
        } => chaos_on(
            spec,
            Ecube::new(cube, resolution),
            Some((algo, cube, resolution)),
            params,
            opts,
        ),
        Backend::Separate(router) => chaos_on(spec, router, None, params, opts),
        Backend::Collective { .. } | Backend::SeparateCollective(..) => {
            panic!("collective traffic has no chaos mode")
        }
    }
}

/// [`run_chaos`] of tree multicast on a hypercube with default options.
///
/// Kept under this name because the `perfbench-trace` benchmark binary
/// links it; new code uses [`run_chaos`].
///
/// # Panics
/// See [`run_chaos`].
#[must_use]
pub fn run_chaos_cube(
    spec: &ChaosSpec,
    cube: Cube,
    resolution: Resolution,
    algo: Algorithm,
    params: &SimParams,
) -> ChaosReport {
    run_chaos(
        spec,
        Backend::tree(cube, resolution, algo),
        params,
        RunOptions::default(),
    )
}

/// [`run_chaos`] of separate addressing on `router` with default
/// options.
///
/// Kept under this name because the `perfbench-trace` benchmark binary
/// links it; new code uses [`run_chaos`].
///
/// # Panics
/// See [`run_chaos`].
#[must_use]
pub fn run_chaos_separate_on<R: Router + Copy>(
    spec: &ChaosSpec,
    router: R,
    params: &SimParams,
) -> ChaosReport
where
    R::Topo: Topology,
{
    run_chaos(
        spec,
        Backend::Separate(router),
        params,
        RunOptions::default(),
    )
}

/// The chaos run on `router`; `tree` is `Some((algo, cube, resolution))`
/// for tree multicast on the hypercube `router` routes, `None` for
/// separate addressing.
fn chaos_on<R: Router + Copy>(
    spec: &ChaosSpec,
    router: R,
    tree: Option<(Algorithm, Cube, Resolution)>,
    params: &SimParams,
    opts: RunOptions,
) -> ChaosReport {
    let generated;
    let timeline = match opts.timeline {
        Some(timeline) => timeline,
        None => {
            let seed = spec.traffic.seed;
            generated = match tree {
                Some((_, cube, _)) => spec.churn.timeline_on(&cube, seed),
                None => spec
                    .churn
                    .timeline_on_lanes(&router.topology(), router.lanes(), seed),
            };
            &generated
        }
    };
    let mut fresh = EngineScratch::new();
    let scratch = opts.scratch.unwrap_or(&mut fresh);
    let Some((cfg, out)) = opts.telemetry else {
        return chaos_waves(spec, router, tree, params, timeline, scratch, None);
    };
    let mut collector = ChaosCollector::new(tree.is_some());
    let recorder = Some(&mut collector);
    let report = chaos_waves(spec, router, tree, params, timeline, scratch, recorder);
    let map = ChannelMap::new(router);
    *out = Some(collector.finish(&report, &timeline.epochs(), &map, cfg));
    report
}

/// Draws every session up front, then runs the epoch-wave loop, with
/// the flight recorder observing every wave when one is given. The
/// report is byte-identical regardless of the recorder (probes never
/// perturb the engine, and the unobserved waves run the bare engine).
fn chaos_waves<R: Router + Copy>(
    spec: &ChaosSpec,
    router: R,
    tree: Option<(Algorithm, Cube, Resolution)>,
    params: &SimParams,
    timeline: &FaultTimeline,
    scratch: &mut EngineScratch,
    mut recorder: Option<&mut ChaosCollector>,
) -> ChaosReport {
    // Draw the arrival schedule and every destination pattern up front,
    // in exactly the plain engine's RNG order — churn must not perturb
    // the traffic stream.
    let mut rng = StdRng::seed_from_u64(spec.traffic.seed);
    let schedule = spec
        .traffic
        .arrivals
        .schedule(&mut rng, spec.traffic.sessions);
    let topo = router.topology();
    let draws: Vec<(NodeId, Vec<NodeId>)> = schedule
        .iter()
        .map(|_| match tree {
            Some((_, cube, _)) => spec.traffic.pattern.draw_cube(&mut rng, cube),
            None => spec.traffic.pattern.draw_on(&mut rng, &topo),
        })
        .collect();

    // Separate addressing builds no trees.
    let capacity = if tree.is_some() {
        spec.traffic.cache_capacity
    } else {
        0
    };
    let mut cache = TreeCache::new(capacity);
    run_epoch_waves(
        spec,
        &schedule,
        timeline,
        &mut cache,
        scratch,
        |cache, attempts, faults, plan, scratch| {
            let mut workload: Vec<DepMessage> = Vec::new();
            let mut spans = Vec::with_capacity(attempts.len());
            for attempt in attempts {
                let (source, dests) = &draws[attempt.session];
                let Some((algo, cube, resolution)) = tree else {
                    let base = workload.len();
                    for &dst in dests {
                        workload.push(DepMessage {
                            src: *source,
                            dst,
                            bytes: spec.traffic.bytes,
                            deps: vec![],
                            min_start: attempt.launch,
                        });
                    }
                    spans.push(WaveSpan {
                        range: base..workload.len(),
                        missing: 0,
                        cache_hit: false,
                    });
                    continue;
                };
                let before = cache.stats();
                // End-to-end fault detection: the first attempt always
                // replays the pristine tree (the source has not yet
                // learned of any fault).
                let built = if attempt.number == 1 {
                    cache.get_or_build(algo, cube, resolution, params.port_model, *source, dests)
                } else {
                    cache.get_or_build_repaired(
                        algo,
                        cube,
                        resolution,
                        params.port_model,
                        *source,
                        dests,
                        faults,
                    )
                };
                let tree = built.expect("traffic destination draw produced an invalid multicast");
                let cache_hit = cache.stats().since(before).hits > 0;
                let range =
                    push_tree_session(&mut workload, &tree, spec.traffic.bytes, attempt.launch);
                // Coverage check: which requested destinations does the
                // (possibly repaired) tree actually reach?
                let covered: BTreeSet<NodeId> = tree.unicasts.iter().map(|u| u.dst).collect();
                let missing = dests.iter().filter(|d| !covered.contains(d)).count();
                spans.push(WaveSpan {
                    range,
                    missing,
                    cache_hit,
                });
            }
            let engine = Run::new(router, params, &workload)
                .faults(plan)
                .scratch(scratch);
            let run = match recorder.as_deref_mut() {
                None => engine.run(),
                Some(recorder) => engine.probe(&mut recorder.probe).run(),
            }
            .expect("windowed chaos runs cannot deadlock");
            if let Some(recorder) = recorder.as_deref_mut() {
                recorder.record_wave(attempts, &spans, &run);
            }
            (run, spans)
        },
    )
}

/// The shared epoch-wave loop: partitions attempts by launch epoch,
/// simulates each wave under its epoch's fault plan (plus the window
/// deadline), classifies every attempt, schedules retries, and
/// assembles the report. `simulate_wave` builds and runs one wave's
/// workload, returning the run plus each attempt's `(range, missing)`.
fn run_epoch_waves<F>(
    spec: &ChaosSpec,
    schedule: &[SimTime],
    timeline: &FaultTimeline,
    cache: &mut TreeCache,
    scratch: &mut EngineScratch,
    mut simulate_wave: F,
) -> ChaosReport
where
    F: FnMut(
        &mut TreeCache,
        &[Attempt],
        &NetworkFaults,
        &wormsim::FaultPlan,
        &mut EngineScratch,
    ) -> (wormsim::RunResult, Vec<WaveSpan>),
{
    let horizon = spec.traffic.horizon;
    let epochs: Vec<FaultEpoch> = timeline.epochs();
    let epoch_of = |t: SimTime| -> usize {
        // Last epoch whose start is <= t.
        epochs.partition_point(|e| e.start <= t).saturating_sub(1)
    };

    // Per-epoch pending queues, seeded with every session's first
    // attempt (sessions arriving past the horizon still launch — the
    // window cuts them, exactly as in the plain engine).
    let mut pending: Vec<Vec<Attempt>> = vec![Vec::new(); epochs.len()];
    for (session, &arrival) in schedule.iter().enumerate() {
        pending[epoch_of(arrival)].push(Attempt {
            session,
            number: 1,
            launch: arrival,
            first_failure: None,
        });
    }

    let max_attempts = 1 + spec.retry.max_retries;
    let mut sessions: Vec<Option<ChaosSession>> = vec![None; schedule.len()];
    let mut net = NetStats::default();
    let mut lost: u64 = 0;

    for e in 0..epochs.len() {
        cache.set_epoch(epochs[e].index);
        let faults = NetworkFaults::from(&epochs[e].plan);
        let mut plan = epochs[e].plan.clone();
        plan.deadline_all(horizon);
        // Waves: retries that land back inside this epoch run in the
        // next wave. Bounded by the retry budget, so this terminates.
        while !pending[e].is_empty() {
            let mut wave = std::mem::take(&mut pending[e]);
            wave.sort_by_key(|a| (a.launch, a.session, a.number));
            let (run, spans) = simulate_wave(cache, &wave, &faults, &plan, scratch);
            net.absorb(&run.stats);
            for (attempt, span) in wave.into_iter().zip(spans) {
                let msgs = &run.messages[span.range];
                let resolution = msgs
                    .iter()
                    .map(|m| m.delivered)
                    .max()
                    .unwrap_or(attempt.launch);
                let outcome = classify(msgs, span.missing);
                let arrival = schedule[attempt.session];
                match outcome {
                    AttemptOutcome::Delivered => {
                        sessions[attempt.session] = Some(ChaosSession {
                            arrival,
                            completion: resolution,
                            latency: resolution.saturating_sub(arrival),
                            attempts: attempt.number,
                            delivered: true,
                            failure: None,
                        });
                    }
                    AttemptOutcome::WindowCut => {
                        // Terminal: never retried (see the module docs).
                        sessions[attempt.session] = Some(ChaosSession {
                            arrival,
                            completion: resolution,
                            latency: resolution.saturating_sub(arrival),
                            attempts: attempt.number,
                            delivered: false,
                            failure: Some(SessionFailure::WindowCut),
                        });
                    }
                    AttemptOutcome::Failed(failure) => {
                        let first_failure = attempt.first_failure.unwrap_or(failure);
                        let backoff_us = spec.retry.backoff(attempt.number);
                        let relaunch = resolution + SimTime::from_ns(backoff_us * 1000);
                        if attempt.number >= max_attempts || relaunch >= horizon {
                            lost += 1;
                            sessions[attempt.session] = Some(ChaosSession {
                                arrival,
                                completion: resolution,
                                latency: resolution.saturating_sub(arrival),
                                attempts: attempt.number,
                                delivered: false,
                                failure: Some(first_failure),
                            });
                        } else {
                            pending[epoch_of(relaunch).max(e)].push(Attempt {
                                session: attempt.session,
                                number: attempt.number + 1,
                                launch: relaunch,
                                first_failure: Some(first_failure),
                            });
                        }
                    }
                }
            }
        }
    }

    let sessions: Vec<ChaosSession> = sessions
        .into_iter()
        .map(|s| s.expect("every attempt chain reaches a terminal state"))
        .collect();
    assemble_chaos(spec, sessions, timeline, cache.stats(), net, lost)
}

/// Classifies one attempt from its per-message outcomes plus the
/// count of requested destinations its tree could not cover.
pub(crate) fn classify(msgs: &[wormsim::MessageResult], missing: usize) -> AttemptOutcome {
    if let Some(cause) = msgs.iter().find_map(|m| match m.outcome {
        Outcome::Failed(cause) => Some(cause),
        _ => None,
    }) {
        return AttemptOutcome::Failed(SessionFailure::Faulted(cause));
    }
    if missing > 0 {
        return AttemptOutcome::Failed(SessionFailure::Unreachable { missing });
    }
    if msgs.iter().any(|m| m.outcome == Outcome::TimedOut) {
        return AttemptOutcome::WindowCut;
    }
    AttemptOutcome::Delivered
}

/// Assembles the final report from terminal session records.
fn assemble_chaos(
    spec: &ChaosSpec,
    sessions: Vec<ChaosSession>,
    timeline: &FaultTimeline,
    cache: CacheStats,
    net: NetStats,
    lost: u64,
) -> ChaosReport {
    let warmup = spec.traffic.warmup.min(sessions.len());
    let measured = &sessions[warmup..];
    let delivered: Vec<&ChaosSession> = measured.iter().filter(|s| s.delivered).collect();
    let latencies_ms: Vec<f64> = delivered.iter().map(|s| s.latency.as_ms()).collect();
    let latency = BatchMeans::of(&latencies_ms, spec.traffic.max_batches);
    let delivery_ratio = if measured.is_empty() {
        1.0
    } else {
        delivered.len() as f64 / measured.len() as f64
    };
    let goodput_per_ms = match (
        measured.first(),
        delivered.iter().map(|s| s.completion).max(),
    ) {
        (Some(first), Some(last)) => {
            let span_ms = last.saturating_sub(first.arrival).as_ms();
            if span_ms > 0.0 {
                delivered.len() as f64 / span_ms
            } else {
                0.0
            }
        }
        _ => 0.0,
    };
    let max_attempts = sessions.iter().map(|s| s.attempts).max().unwrap_or(1);
    let mut retry_histogram = vec![0u64; max_attempts as usize];
    for s in &sessions {
        retry_histogram[s.attempts as usize - 1] += 1;
    }
    let window_cut = sessions
        .iter()
        .filter(|s| s.failure == Some(SessionFailure::WindowCut))
        .count() as u64;
    // Time-to-recover: from the last fault/repair event until the last
    // disrupted session (a retry or an undelivered outcome) resolved.
    let time_to_recover = timeline.last_event().map(|last_event| {
        sessions
            .iter()
            .filter(|s| s.attempts > 1 || !s.delivered)
            .map(|s| s.completion)
            .max()
            .map_or(SimTime::ZERO, |t| t.saturating_sub(last_event))
    });
    ChaosReport {
        offered_rate_per_ms: spec.traffic.arrivals.rate_per_ms,
        warmup,
        measured_sessions: measured.len(),
        delivered_measured: delivered.len(),
        delivery_ratio,
        latency,
        goodput_per_ms,
        retry_histogram,
        lost,
        window_cut,
        time_to_recover,
        cache,
        net,
        horizon: spec.traffic.horizon,
        epochs: timeline.epochs().len(),
        fault_events: timeline.len(),
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, Arrivals};
    use crate::engine::{run, Backend, RunOptions};
    use crate::patterns::DestPattern;
    use hcube::{Torus, TorusRouter};
    use hypercast::PortModel;
    use wormsim::{FaultEvent, FaultEventKind, SimParams};

    fn five_cube(algo: Algorithm) -> Backend {
        Backend::tree(Cube::of(5), Resolution::HighToLow, algo)
    }

    fn cube_chaos(spec: &ChaosSpec, algo: Algorithm, params: &SimParams) -> ChaosReport {
        run_chaos(spec, five_cube(algo), params, RunOptions::default())
    }

    fn traffic_spec(rate: f64, sessions: usize, seed: u64) -> TrafficSpec {
        TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, rate),
            DestPattern::UniformRandom { m: 6 },
            sessions,
            seed,
        )
    }

    fn churny(until: SimTime) -> ChurnSpec {
        ChurnSpec {
            link_mtbf_ms: 10.0,
            link_mttr_ms: 2.0,
            node_mtbf_ms: 40.0,
            node_mttr_ms: 3.0,
            churn_until: until,
        }
    }

    /// The fields a quiet chaos run must replicate byte-for-byte from
    /// the plain engine.
    fn plain_view(r: &crate::engine::TrafficReport) -> String {
        let per_session: Vec<_> = r
            .sessions
            .iter()
            .map(|s| (s.arrival, s.completion, s.latency, s.delivered))
            .collect();
        format!(
            "{per_session:?} {:?} {:?} {:?} {} {} {}",
            r.latency,
            r.cache,
            r.net,
            r.completed_measured,
            r.completion_ratio,
            r.throughput_per_ms
        )
    }

    fn chaos_view(r: &ChaosReport) -> String {
        let per_session: Vec<_> = r
            .sessions
            .iter()
            .map(|s| (s.arrival, s.completion, s.latency, s.delivered))
            .collect();
        format!(
            "{per_session:?} {:?} {:?} {:?} {} {} {}",
            r.latency, r.cache, r.net, r.delivered_measured, r.delivery_ratio, r.goodput_per_ms
        )
    }

    #[test]
    fn zero_churn_cube_run_matches_the_plain_engine() {
        let params = SimParams::ncube2(PortModel::AllPort);
        // Include a load high enough that some sessions get window-cut,
        // to pin that cut sessions are terminal (not retried).
        for rate in [2.0, 60.0] {
            let ts = traffic_spec(rate, 40, 11);
            let plain = run(
                &ts,
                five_cube(Algorithm::WSort),
                &params,
                RunOptions::default(),
            );
            let chaos = cube_chaos(
                &ChaosSpec::new(ts, ChurnSpec::quiet()),
                Algorithm::WSort,
                &params,
            );
            assert_eq!(plain_view(&plain), chaos_view(&chaos), "rate {rate}");
            assert!(chaos.sessions.iter().all(|s| s.attempts == 1));
            assert_eq!(chaos.time_to_recover, None);
            assert_eq!(chaos.epochs, 1);
            assert_eq!(chaos.lost, 0);
        }
    }

    #[test]
    fn zero_churn_separate_run_matches_the_plain_engine() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let torus = Torus::of(4, 2);
        let ts = traffic_spec(1.0, 25, 9);
        let plain = run(
            &ts,
            Backend::Separate(TorusRouter::new(torus)),
            &params,
            RunOptions::default(),
        );
        let chaos = run_chaos(
            &ChaosSpec::new(ts, ChurnSpec::quiet()),
            Backend::Separate(TorusRouter::new(torus)),
            &params,
            RunOptions::default(),
        );
        assert_eq!(plain_view(&plain), chaos_view(&chaos));
    }

    #[test]
    fn chaos_run_is_byte_deterministic_and_scratch_invariant() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let spec = ChaosSpec::new(traffic_spec(2.0, 40, 11), churny(SimTime::from_ms(10)));
        let fresh = cube_chaos(&spec, Algorithm::WSort, &params);
        let mut scratch = EngineScratch::new();
        for _ in 0..2 {
            let again = run_chaos(
                &spec,
                five_cube(Algorithm::WSort),
                &params,
                RunOptions::default().scratch(&mut scratch),
            );
            assert_eq!(format!("{fresh:?}"), format!("{again:?}"));
        }
    }

    #[test]
    fn churn_causes_retries_and_recovery_is_measured() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let mut ts = traffic_spec(2.0, 60, 3);
        ts.horizon = SimTime::from_ms(60);
        let spec = ChaosSpec::new(ts, churny(SimTime::from_ms(15)));
        let r = cube_chaos(&spec, Algorithm::WSort, &params);
        assert!(r.fault_events > 0, "this churn spec must produce events");
        assert!(r.epochs > 1);
        assert!(
            r.sessions.iter().any(|s| s.attempts > 1) || r.lost > 0,
            "churn at this density must disrupt at least one session"
        );
        let ttr = r
            .time_to_recover
            .expect("churn ran, so recovery is measured");
        assert!(
            ttr < r.horizon,
            "recovery must complete inside the window, got {ttr}"
        );
        assert_eq!(
            r.retry_histogram.iter().sum::<u64>() as usize,
            r.sessions.len()
        );
        assert!(
            r.cache.invalidations > 0 || r.cache.misses > 0,
            "epoch advances must show up in the cache counters"
        );
    }

    #[test]
    fn dead_destination_exhausts_retries_preserving_the_original_cause() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let victim = NodeId(9);
        let mut ts = TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, 1.0),
            DestPattern::Fixed {
                source: NodeId(0),
                dests: vec![NodeId(3), victim],
            },
            1,
            5,
        );
        ts.warmup = 0;
        // The destination dies before the run and never revives.
        let timeline = FaultTimeline::new(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultEventKind::NodeDown(victim),
        }]);
        let spec = ChaosSpec::new(ts, ChurnSpec::quiet());
        let r = run_chaos(
            &spec,
            five_cube(Algorithm::WSort),
            &params,
            RunOptions::default()
                .scratch(&mut EngineScratch::new())
                .timeline(&timeline),
        );
        let s = &r.sessions[0];
        assert!(!s.delivered);
        assert_eq!(
            s.attempts,
            1 + spec.retry.max_retries,
            "the full retry budget must be spent"
        );
        assert_eq!(r.lost, 1);
        // The *first* attempt hit the dead endpoint; later repaired
        // attempts merely pruned it. Exhaustion must still report the
        // original cause through the error chain.
        let err = s.as_error().expect("lost sessions expose a typed error");
        assert_eq!(err.attempts, s.attempts);
        let source = std::error::Error::source(&err).expect("chained to the session failure");
        assert_eq!(
            source.to_string(),
            SessionFailure::Faulted(FaultCause::DeadEndpoint).to_string()
        );
        let root = source.source().expect("chained through to the fault cause");
        assert_eq!(root.to_string(), FaultCause::DeadEndpoint.to_string());
        assert_eq!(err.cause, SessionFailure::Faulted(FaultCause::DeadEndpoint));
    }

    #[test]
    fn repaired_retry_rescues_a_session_after_the_victim_revives() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let victim = NodeId(3);
        let mut ts = TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, 1.0),
            DestPattern::Fixed {
                source: NodeId(0),
                dests: vec![victim, NodeId(17)],
            },
            1,
            5,
        );
        ts.warmup = 0;
        ts.horizon = SimTime::from_ms(100);
        // Dead at launch, revived well before the backoff expires.
        let timeline = FaultTimeline::new(vec![
            FaultEvent {
                at: SimTime::ZERO,
                kind: FaultEventKind::NodeDown(victim),
            },
            FaultEvent {
                at: SimTime::from_ns(1_000),
                kind: FaultEventKind::NodeUp(victim),
            },
        ]);
        let spec = ChaosSpec::new(ts, ChurnSpec::quiet());
        let r = run_chaos(
            &spec,
            five_cube(Algorithm::WSort),
            &params,
            RunOptions::default()
                .scratch(&mut EngineScratch::new())
                .timeline(&timeline),
        );
        let s = &r.sessions[0];
        assert!(s.delivered, "the retry must land after the revival");
        assert!(s.attempts > 1);
        assert_eq!(s.failure, None);
        assert_eq!(r.lost, 0);
        let ttr = r.time_to_recover.expect("faults happened");
        assert!(ttr > SimTime::ZERO);
    }
}
