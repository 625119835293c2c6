//! The chaos engine: open-loop traffic under online fault churn, with
//! self-healing retries.
//!
//! [`run_chaos`] extends [`run`](crate::run) with a [`ChurnSpec`]
//! failure/repair process and a [`RetryPolicy`]. It draws its sessions
//! and builds their attempts with the same session builder, and
//! simulates the same waves, as [`run`](crate::run); what it adds is
//! the epoch loop around them:
//!
//! 1. the churn process is rendered into a [`FaultTimeline`], whose
//!    fault state is piecewise constant over epoch-numbered intervals;
//!    an [`EpochCursor`](wormsim::EpochCursor) walks them, applying each
//!    epoch's failures and repairs to one live [`wormsim::FaultPlan`];
//! 2. attempts launched in epoch *e* run as waves under epoch *e*'s
//!    plan for their whole lifetime (the *epoch isolation*
//!    approximation: a session straddling a fault event sees the state
//!    at its launch, and channel contention does not couple across
//!    epochs);
//! 3. a session attempt that hits a fault (a constituent message ends
//!    [`Outcome::Failed`](wormsim::Outcome), or the fault-pruned tree
//!    could not cover every requested destination) is *retried*: the
//!    next attempt launches an exponential-backoff gap after the
//!    failure resolved, rebuilds its tree through
//!    [`hypercast::repair`](hypercast::repair::repair) against the fault
//!    state of the retry's epoch (cached per epoch in the shared
//!    [`TreeCache`](hypercast::TreeCache)), and counts one more attempt
//!    — up to `1 + max_retries` attempts, after which the session is
//!    **lost**;
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
//! ([`ChurnSpec::is_quiet`]) the loop runs one wave of first attempts
//! in a single epoch under an empty plan, which is exactly
//! [`run`](crate::run) (pinned by the equivalence tests).
//!
//! **Backoff units.** [`RetryPolicy`] backoffs are abstract units; the
//! chaos engine interprets them as **microseconds** of simulated time.

use crate::churn::ChurnSpec;
use crate::engine::{run_wave, window, Backend, RunOptions, SessionBuilder, TrafficSpec};
use crate::stats::{BatchMeans, Measurement};
use crate::telemetry::{epoch_fault_counts, WaveRecorder};
use hcube::{Cube, Ecube, Resolution, Router, Topology};
use hypercast::protocol::RetryPolicy;
use hypercast::{Algorithm, CacheStats, NetworkFaults};
use std::fmt;
use wormsim::network::ChannelMap;
use wormsim::{EngineScratch, FaultCause, FaultTimeline, NetStats, Outcome, SimParams, SimTime};

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

/// Every session's first attempt, launched at its arrival.
pub(crate) fn first_attempts(arrivals: &[SimTime]) -> Vec<Attempt> {
    arrivals
        .iter()
        .enumerate()
        .map(|(session, &launch)| Attempt {
            session,
            number: 1,
            launch,
            first_failure: None,
        })
        .collect()
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
            cube, resolution, ..
        } => chaos_on(spec, &backend, Ecube::new(cube, resolution), params, opts),
        Backend::Separate(router) => chaos_on(spec, &backend, router, params, opts),
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

/// [`run_chaos`] of `backend`'s sessions on `router`: the epoch-wave
/// loop. It partitions attempts by launch epoch, simulates each wave
/// under its epoch's fault plan (plus the window deadline), classifies
/// every attempt, schedules retries, and assembles the report. The
/// options' recorder, when attached, observes and records every wave;
/// the report is byte-identical either way (probes never perturb the
/// engine).
///
/// Its cost follows the waves, not the epochs: one cursor carries the
/// fault state forward, and only an epoch with pending attempts derives
/// the repair view of it and advances the tree cache.
fn chaos_on<B: Router, R: Router + Copy>(
    spec: &ChaosSpec,
    backend: &Backend<B>,
    router: R,
    params: &SimParams,
    opts: RunOptions,
) -> ChaosReport {
    let generated;
    let timeline = match opts.timeline {
        Some(timeline) => timeline,
        None => {
            let (topo, lanes) = (router.topology(), router.lanes());
            generated = spec
                .churn
                .timeline_on_lanes(&topo, lanes, spec.traffic.seed);
            &generated
        }
    };
    let mut builder = SessionBuilder::draw(&spec.traffic, backend.topology(), params.port_model);
    let mut fresh = EngineScratch::new();
    let scratch = opts.scratch.unwrap_or(&mut fresh);
    let mut recorder = opts.telemetry.is_some().then(WaveRecorder::default);
    let horizon = spec.traffic.horizon;
    let starts = timeline.epoch_starts();
    let epoch_of = |t: SimTime| -> usize {
        // Last epoch whose start is <= t.
        starts
            .partition_point(|&start| start <= t)
            .saturating_sub(1)
    };

    // Per-epoch pending queues, seeded with every session's first
    // attempt (sessions arriving past the horizon still launch — the
    // window cuts them, exactly as in the plain engine).
    let mut pending: Vec<Vec<Attempt>> = vec![Vec::new(); starts.len()];
    for attempt in first_attempts(&builder.arrivals) {
        pending[epoch_of(attempt.launch)].push(attempt);
    }

    let max_attempts = spec.retry.max_retries.saturating_add(1);
    let mut sessions: Vec<Option<ChaosSession>> = vec![None; builder.arrivals.len()];
    let mut net = NetStats::default();
    let mut lost: u64 = 0;
    let (mut workload, mut spans) = (Vec::new(), Vec::new());

    let mut cursor = timeline.cursor(window(horizon));
    for e in 0..starts.len() {
        if pending[e].is_empty() {
            continue;
        }
        while cursor.index() < e as u64 {
            cursor.advance();
        }
        builder.cache.set_epoch(cursor.index());
        let plan = cursor.plan();
        let faults = NetworkFaults::from(plan);
        // Waves: retries that land back inside this epoch run in the
        // next wave. Bounded by the retry budget, so this terminates.
        while !pending[e].is_empty() {
            let mut wave = std::mem::take(&mut pending[e]);
            wave.sort_by_key(|a| (a.launch, a.session, a.number));
            workload.clear();
            spans.clear();
            for a in &wave {
                spans.push(builder.append(&mut workload, a.session, a.number, a.launch, &faults));
            }
            let probe = recorder.as_mut().map(|r| &mut r.probe);
            let run = run_wave(router, params, &workload, plan, scratch, probe);
            if let Some(recorder) = recorder.as_mut() {
                recorder.record_wave(&wave, &spans, &run);
            }
            net.absorb(&run.stats);
            for (attempt, span) in wave.into_iter().zip(&spans) {
                let msgs = &run.messages[span.range.clone()];
                let resolution = msgs
                    .iter()
                    .map(|m| m.delivered)
                    .max()
                    .unwrap_or(attempt.launch);
                let mut failure = classify(msgs, span.missing);
                // A fault retries after a backoff; a window cut is
                // terminal (see the module docs).
                if let Some(cause) = failure.filter(|&f| f != SessionFailure::WindowCut) {
                    let first_failure = attempt.first_failure.unwrap_or(cause);
                    let backoff_us = spec.retry.backoff(attempt.number);
                    let relaunch = SimTime::from_ns(
                        resolution
                            .as_ns()
                            .saturating_add(backoff_us.saturating_mul(1000)),
                    );
                    if attempt.number < max_attempts && relaunch < horizon {
                        pending[epoch_of(relaunch).max(e)].push(Attempt {
                            session: attempt.session,
                            number: attempt.number + 1,
                            launch: relaunch,
                            first_failure: Some(first_failure),
                        });
                        continue;
                    }
                    lost += 1;
                    failure = Some(first_failure);
                }
                let arrival = builder.arrivals[attempt.session];
                sessions[attempt.session] = Some(ChaosSession {
                    arrival,
                    completion: resolution,
                    latency: resolution.saturating_sub(arrival),
                    attempts: attempt.number,
                    delivered: failure.is_none(),
                    failure,
                });
            }
        }
    }

    // Skipped epochs still advance the cache: the repaired trees of the
    // last wave go stale at the final epoch, as they would have had the
    // cache stepped through every epoch.
    builder.cache.set_epoch(starts.len() as u64 - 1);

    let sessions: Vec<ChaosSession> = sessions
        .into_iter()
        .map(|s| s.expect("every attempt chain reaches a terminal state"))
        .collect();
    let cache = builder.cache.stats();
    let report = assemble_chaos(spec, sessions, timeline, starts.len(), cache, net, lost);
    if let (Some(recorder), Some((cfg, out))) = (recorder, opts.telemetry) {
        let outcomes = report.sessions.iter().map(|s| (s.arrival, s.delivered));
        let epochs = epoch_fault_counts(timeline);
        let map = ChannelMap::new(router);
        *out = Some(recorder.finish(outcomes, report.horizon, &epochs, &map, cfg));
    }
    report
}

/// Classifies one attempt from its per-message outcomes plus the
/// count of requested destinations its tree could not cover: `None`
/// when it delivered, otherwise why it failed.
pub(crate) fn classify(msgs: &[wormsim::MessageResult], missing: usize) -> Option<SessionFailure> {
    if let Some(cause) = msgs.iter().find_map(|m| match m.outcome {
        Outcome::Failed(cause) => Some(cause),
        _ => None,
    }) {
        return Some(SessionFailure::Faulted(cause));
    }
    if missing > 0 {
        return Some(SessionFailure::Unreachable { missing });
    }
    msgs.iter()
        .any(|m| m.outcome == Outcome::TimedOut)
        .then_some(SessionFailure::WindowCut)
}

/// Assembles the final report from terminal session records.
fn assemble_chaos(
    spec: &ChaosSpec,
    sessions: Vec<ChaosSession>,
    timeline: &FaultTimeline,
    epochs: usize,
    cache: CacheStats,
    net: NetStats,
    lost: u64,
) -> ChaosReport {
    let traffic = &spec.traffic;
    let m = Measurement::of(&sessions, traffic.warmup, traffic.max_batches, |s| {
        (s.arrival, s.completion, s.delivered)
    });
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
        offered_rate_per_ms: traffic.arrivals.rate_per_ms,
        warmup: m.warmup,
        measured_sessions: m.measured,
        delivered_measured: m.delivered,
        delivery_ratio: m.ratio,
        latency: m.latency,
        goodput_per_ms: m.per_ms,
        retry_histogram,
        lost,
        window_cut,
        time_to_recover,
        cache,
        net,
        horizon: traffic.horizon,
        epochs,
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
    use hcube::{NodeId, Torus, TorusRouter};
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

    /// Pins the counters `chaos_report_json` omits — all four cache
    /// counters and the aggregated `NetStats` — so drift in how the epoch
    /// loop drives the cache or the engine shows up without regenerating
    /// the chaos sweep. The cube run's churn outlasts its last waves, so
    /// the repaired trees of the final wave must still be invalidated by
    /// the later fault epochs.
    #[test]
    fn cache_and_network_counters_are_pinned() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let mut ts = traffic_spec(2.0, 60, 3);
        ts.horizon = SimTime::from_ms(60);
        ts.cache_capacity = 8;
        let cube = cube_chaos(
            &ChaosSpec::new(ts, churny(SimTime::from_ms(30))),
            Algorithm::WSort,
            &params,
        );
        assert_eq!(
            cube.cache,
            CacheStats {
                hits: 6,
                misses: 135,
                evictions: 54,
                invalidations: 75,
            }
        );
        let ns = SimTime::from_ns;
        assert_eq!(
            cube.net,
            NetStats {
                blocked_time: ns(1_483_098),
                blocks: 1,
                port_wait_time: ns(16_646_048),
                port_waits: 11,
                makespan: ns(42_811_489),
                failed: 183,
                timed_out: 0,
                dim_busy: vec![
                    ns(400_408_400),
                    ns(443_006_000),
                    ns(350_810_000),
                    ns(285_903_898),
                    ns(241_889_200),
                ],
                dim_channels: vec![32; 5],
                max_queue_depth: 1,
                lane_busy: vec![ns(1_722_017_498)],
                lane_links: 160,
            }
        );
        let torus = run_chaos(
            &ChaosSpec::new(traffic_spec(1.0, 40, 9), churny(SimTime::from_ms(20))),
            Backend::Separate(TorusRouter::new(Torus::of(4, 2))),
            &params,
            RunOptions::default(),
        );
        assert_eq!(torus.cache, CacheStats::default());
        assert_eq!(
            torus.net,
            NetStats {
                blocked_time: ns(42_267_789),
                blocks: 17,
                port_wait_time: ns(566_552_880),
                port_waits: 156,
                makespan: ns(57_839_680),
                failed: 316,
                timed_out: 0,
                dim_busy: vec![ns(618_890_126), ns(527_792_752)],
                dim_channels: vec![64; 2],
                max_queue_depth: 8,
                lane_busy: vec![ns(1_053_352_875), ns(93_330_003)],
                lane_links: 64,
            }
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
