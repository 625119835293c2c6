//! The session scheduler, and [`run`]: open-loop traffic as one wave.
//!
//! A run draws all its sessions up front from one RNG seeded by the
//! spec: the arrival schedule first, then one destination draw per
//! session (collectives draw none). One session builder turns a session
//! *attempt* into a batch of [`DepMessage`]s released at the attempt's
//! launch, for every [`Backend`]: one per tree unicast (tree multicast
//! on a hypercube), one per destination (separate addressing on any
//! topology), or one per op of a collective schedule. Forwarding
//! dependencies stay *within* an attempt; across sessions the only
//! coupling is physical channel contention, exactly as in the network.
//!
//! A *wave* is a batch of attempts simulated together, in one engine
//! run, under one [`FaultPlan`] that carries the observation window's
//! deadline, so a saturated backlog is cut off at the horizon instead
//! of extending the run without bound. [`run`] is the churn-free case:
//! every session's first attempt, at its arrival, as a single wave.
//! [`run_chaos`](crate::run_chaos) runs the same waves per fault epoch
//! and retries what failed. [`RunOptions`] adds a reusable scratch or
//! the flight recorder, which records every wave of either path.
//!
//! Hypercube sessions build their trees through a [`TreeCache`]: under
//! recurring destination patterns (the [`DestPattern::Pool`] population)
//! most arrivals are pointer-clone cache hits rather than full `W-sort`
//! constructions; the report carries the cache counters.

use crate::arrivals::Arrivals;
use crate::chaos::first_attempts;
use crate::patterns::DestPattern;
use crate::stats::{BatchMeans, Measurement};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetryProbe, WaveRecorder};
use hcube::{Cube, Ecube, NodeId, Resolution, Router, Topology};
use hypercast::collectives::{suite_collective, suite_collective_separate};
use hypercast::{
    Algorithm, CacheStats, CollectiveKind, NetworkFaults, PortModel, TreeCache, TreeFamily,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use wormsim::network::ChannelMap;
use wormsim::{
    DepMessage, EngineScratch, FaultPlan, FaultTimeline, InboundIndex, NetStats, Run, RunResult,
    SimParams, SimTime,
};

/// Configuration of one open-loop traffic run.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// Arrival process and offered load.
    pub arrivals: Arrivals,
    /// Destination population.
    pub pattern: DestPattern,
    /// Number of sessions to inject.
    pub sessions: usize,
    /// Sessions discarded from the front before measuring (warmup
    /// truncation; must be `< sessions` for any statistics to exist).
    pub warmup: usize,
    /// Payload bytes per multicast.
    pub bytes: u32,
    /// Observation window: sessions unfinished at the horizon time out.
    pub horizon: SimTime,
    /// RNG seed; identical specs with identical seeds reproduce the
    /// report byte-for-byte.
    pub seed: u64,
    /// Tree-cache capacity (hypercube backends; 0 disables caching).
    pub cache_capacity: usize,
    /// Maximum batch count for the batch-means interval.
    pub max_batches: usize,
}

impl TrafficSpec {
    /// A spec with the common defaults: 4 KB payloads, 200 ms horizon,
    /// 64-tree cache, 10 batches, 10% warmup.
    #[must_use]
    pub fn new(
        arrivals: Arrivals,
        pattern: DestPattern,
        sessions: usize,
        seed: u64,
    ) -> TrafficSpec {
        TrafficSpec {
            arrivals,
            pattern,
            sessions,
            warmup: sessions / 10,
            bytes: 4096,
            horizon: SimTime::from_ms(200),
            seed,
            cache_capacity: 64,
            max_batches: 10,
        }
    }
}

/// One session's outcome inside a traffic run.
#[derive(Clone, Debug)]
pub struct SessionRecord {
    /// When the session entered the network.
    pub arrival: SimTime,
    /// When its last constituent message delivered (the horizon if the
    /// session was cut off).
    pub completion: SimTime,
    /// `completion − arrival`; only a latency in the usual sense when
    /// `delivered`.
    pub latency: SimTime,
    /// Whether every constituent message delivered inside the window.
    pub delivered: bool,
    /// Delivery time per message destination, in workload order: tree
    /// order for trees, draw order for separate addressing, op order for
    /// collectives (timed-out messages record their abort time).
    pub deliveries: Vec<(NodeId, SimTime)>,
}

/// Outcome of one open-loop traffic run: per-session records, the
/// steady-state measurement, cache counters, and run-wide network
/// statistics.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Offered load, sessions per millisecond.
    pub offered_rate_per_ms: f64,
    /// One record per injected session, in arrival order.
    pub sessions: Vec<SessionRecord>,
    /// Sessions discarded before measurement.
    pub warmup: usize,
    /// Sessions included in the measurement (post-warmup).
    pub measured_sessions: usize,
    /// Measured sessions that completed inside the window.
    pub completed_measured: usize,
    /// `completed_measured / measured_sessions` (1.0 when nothing was
    /// measured).
    pub completion_ratio: f64,
    /// Batch-means statistics over measured completed-session latencies
    /// in milliseconds.
    pub latency: BatchMeans,
    /// Completed measured sessions per millisecond of measurement span.
    pub throughput_per_ms: f64,
    /// Tree-cache counters (all-zero for separate-addressing backends,
    /// which build no trees).
    pub cache: CacheStats,
    /// Network statistics of the single shared run.
    pub net: NetStats,
    /// The observation window the run executed under.
    pub horizon: SimTime,
}

/// One session attempt's slice of a wave workload: the messages it
/// occupies, how many requested destinations its tree could not cover
/// (only a repaired tree can miss any), and whether its trees came out
/// of the cache — `None` when it looked none up (separate addressing,
/// bine trees).
#[derive(Clone, Debug)]
pub(crate) struct SessionSpan {
    pub(crate) range: Range<usize>,
    pub(crate) missing: usize,
    pub(crate) cache_hit: Option<bool>,
}

/// Every session's first attempt assembled as one wave, ready to
/// simulate: the workload [`run`] executes.
///
/// Produced by [`assemble_cube_sessions`] / [`assemble_separate_sessions_on`]
/// and consumed (by reference — the same assembly can be replayed any
/// number of times) by [`run_sessions_on_with_scratch`]. Splitting
/// assembly from simulation lets a caller time or replay the engine
/// alone, without tree construction or report assembly.
#[derive(Clone, Debug)]
pub struct SessionWorkload {
    workload: Vec<DepMessage>,
    arrivals: Vec<SimTime>,
    spans: Vec<SessionSpan>,
    cache: CacheStats,
}

impl SessionWorkload {
    /// The flattened dependency workload (all sessions, arrival-ordered).
    #[must_use]
    pub fn messages(&self) -> &[DepMessage] {
        &self.workload
    }
}

/// The session builder: a run's drawn sessions, and the state every
/// wave's attempts are built with.
pub(crate) struct SessionBuilder<'a, T> {
    spec: &'a TrafficSpec,
    /// The backend, its router replaced by the topology it routes on.
    backend: Backend<T>,
    port: PortModel,
    /// Arrival time per session, in session order.
    pub(crate) arrivals: Vec<SimTime>,
    /// `(source, dests)` per session; empty for collectives.
    draws: Vec<(NodeId, Vec<NodeId>)>,
    pub(crate) cache: TreeCache,
    inbound: InboundIndex,
    /// Dense per-node coverage marks (tree multicast), cleared after
    /// each attempt.
    covered: Vec<bool>,
}

impl<'a, T: Topology> SessionBuilder<'a, T> {
    /// Draws the sessions of `spec` on `backend`, in one fixed RNG
    /// order: the arrival schedule, then one pattern draw per session.
    /// Collectives draw no pattern.
    pub(crate) fn draw(spec: &'a TrafficSpec, backend: Backend<T>, port: PortModel) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let arrivals = spec.arrivals.schedule(&mut rng, spec.sessions);
        let draws = match &backend {
            Backend::Tree { cube, .. } => arrivals
                .iter()
                .map(|_| spec.pattern.draw_cube(&mut rng, *cube))
                .collect(),
            Backend::Separate(topo) => arrivals
                .iter()
                .map(|_| spec.pattern.draw_on(&mut rng, topo))
                .collect(),
            Backend::Collective { .. } | Backend::SeparateCollective(..) => Vec::new(),
        };
        SessionBuilder {
            spec,
            backend,
            port,
            arrivals,
            draws,
            cache: TreeCache::new(spec.cache_capacity),
            inbound: InboundIndex::default(),
            covered: Vec::new(),
        }
    }

    /// Appends attempt `number` of `session`, launched at `launch`, to
    /// `workload` and returns its span. A tree multicast retry rebuilds
    /// its tree against `faults`; the first attempt replays the pristine
    /// tree, because a source learns of a fault only when a send fails.
    /// Allreduce roots rotate by session index.
    pub(crate) fn append(
        &mut self,
        workload: &mut Vec<DepMessage>,
        session: usize,
        number: u32,
        launch: SimTime,
        faults: &NetworkFaults,
    ) -> SessionSpan {
        let (bytes, port) = (self.spec.bytes, self.port);
        let base = workload.len();
        let before = self.cache.stats();
        let mut missing = 0;
        let schedule = match &self.backend {
            &Backend::Tree {
                cube,
                resolution,
                algo,
            } => {
                let (source, dests) = &self.draws[session];
                let built = if number == 1 {
                    self.cache
                        .get_or_build(algo, cube, resolution, port, *source, dests)
                } else {
                    self.cache
                        .get_or_build_repaired(algo, cube, resolution, port, *source, dests, faults)
                };
                let tree = built.expect("traffic destination draw produced an invalid multicast");
                self.inbound.append(workload, &tree, bytes, launch);
                self.covered.resize(cube.node_count(), false);
                for u in &tree.unicasts {
                    self.covered[u.dst.0 as usize] = true;
                }
                missing = dests.iter().filter(|d| !self.covered[d.0 as usize]).count();
                for u in &tree.unicasts {
                    self.covered[u.dst.0 as usize] = false;
                }
                None
            }
            Backend::Separate(_) => {
                let (source, dests) = &self.draws[session];
                workload.extend(dests.iter().map(|&dst| DepMessage {
                    src: *source,
                    dst,
                    bytes,
                    deps: vec![],
                    min_start: launch,
                }));
                None
            }
            &Backend::Collective {
                cube,
                resolution,
                kind,
                family,
            } => {
                let root = NodeId(session as u32 % cube.node_count() as u32);
                let cache = Some(&mut self.cache);
                let built =
                    suite_collective(kind, family, cube, resolution, port, root, bytes, cache);
                Some(built.expect("full-machine collectives of validated payloads build"))
            }
            Backend::SeparateCollective(topo, kind) => {
                let root = NodeId(session as u32 % topo.node_count() as u32);
                let built = suite_collective_separate(*kind, topo, root, bytes);
                Some(built.expect("request validation bounds collective payloads"))
            }
        };
        if let Some(schedule) = schedule {
            workload.extend(schedule.ops.iter().map(|op| DepMessage {
                src: op.src,
                dst: op.dst,
                bytes: op.bytes,
                deps: op.deps.iter().map(|&d| base + d).collect(),
                min_start: launch,
            }));
        }
        let used = self.cache.stats().since(before);
        SessionSpan {
            range: base..workload.len(),
            missing,
            cache_hit: (used.hits + used.misses > 0).then_some(used.hits > 0),
        }
    }

    /// Every session's first attempt, at its arrival, as one wave.
    pub(crate) fn first_wave(mut self) -> SessionWorkload {
        // One message per requested destination: exact for separate
        // addressing and pristine trees (collectives draw none).
        let messages = self.draws.iter().map(|(_, dests)| dests.len()).sum();
        let mut workload = Vec::with_capacity(messages);
        let healthy = NetworkFaults::new();
        let spans = (0..self.arrivals.len())
            .map(|session| {
                let arrival = self.arrivals[session];
                self.append(&mut workload, session, 1, arrival, &healthy)
            })
            .collect();
        SessionWorkload {
            workload,
            arrivals: self.arrivals,
            spans,
            cache: self.cache.stats(),
        }
    }
}

/// The fault-free plan of an observation window closing at `horizon`:
/// every message still undelivered then times out.
pub(crate) fn window(horizon: SimTime) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.deadline_all(horizon);
    plan
}

/// Simulates one wave's `workload` under `plan` in `scratch`, observed
/// by `probe` when one is given.
pub(crate) fn run_wave<R: Router>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    plan: &FaultPlan,
    scratch: &mut EngineScratch,
    probe: Option<&mut TelemetryProbe>,
) -> RunResult {
    let engine = Run::new(router, params, workload)
        .faults(plan)
        .scratch(scratch);
    match probe {
        None => engine.run(),
        Some(probe) => engine.probe(probe).run(),
    }
    .expect("windowed runs cannot deadlock")
}

/// Attributes a finished first wave back to its sessions and assembles
/// the report.
fn assemble(spec: &TrafficSpec, run: &RunResult, sessions: &SessionWorkload) -> TrafficReport {
    let records: Vec<SessionRecord> = sessions
        .arrivals
        .iter()
        .zip(&sessions.spans)
        .map(|(&arrival, span)| {
            let msgs = &run.messages[span.range.clone()];
            let delivered = msgs.iter().all(|m| m.outcome.is_delivered());
            let completion = msgs.iter().map(|m| m.delivered).max().unwrap_or(arrival);
            let deliveries = sessions.workload[span.range.clone()]
                .iter()
                .zip(msgs)
                .map(|(sent, m)| (sent.dst, m.delivered))
                .collect();
            SessionRecord {
                arrival,
                completion,
                latency: completion.saturating_sub(arrival),
                delivered,
                deliveries,
            }
        })
        .collect();

    let m = Measurement::of(&records, spec.warmup, spec.max_batches, |s| {
        (s.arrival, s.completion, s.delivered)
    });
    TrafficReport {
        offered_rate_per_ms: spec.arrivals.rate_per_ms,
        warmup: m.warmup,
        measured_sessions: m.measured,
        completed_measured: m.delivered,
        completion_ratio: m.ratio,
        latency: m.latency,
        throughput_per_ms: m.per_ms,
        cache: sessions.cache,
        net: run.stats.clone(),
        horizon: spec.horizon,
        sessions: records,
    }
}

/// What each session of an open-loop run sends, and over which network.
///
/// Build the hypercube variants with [`Backend::tree`] and
/// [`Backend::collective`], which fix the unused router parameter; the
/// router-generic variants are written directly.
#[derive(Clone, Copy, Debug)]
pub enum Backend<R = Ecube> {
    /// One `algo` multicast tree per session on a hypercube, built
    /// through the spec's [`TreeCache`].
    Tree {
        /// The hypercube.
        cube: Cube,
        /// E-cube resolution order.
        resolution: Resolution,
        /// Tree-construction algorithm.
        algo: Algorithm,
    },
    /// Separate addressing on any routed topology: one independent
    /// unicast per destination, no trees and no cache. This is the
    /// torus backend; the paper's tree algorithms are
    /// hypercube-specific.
    Separate(R),
    /// One full-machine `kind` collective per session on a hypercube,
    /// built from `family` trees (see [`crate::collective`]).
    Collective {
        /// The hypercube.
        cube: Cube,
        /// E-cube resolution order.
        resolution: Resolution,
        /// The collective every session runs.
        kind: CollectiveKind,
        /// The tree family its schedule is built from.
        family: TreeFamily,
    },
    /// One full-machine `kind` collective per session as a
    /// direct-exchange schedule on any routed topology.
    SeparateCollective(R, CollectiveKind),
}

impl Backend {
    /// [`Backend::Tree`].
    #[must_use]
    pub fn tree(cube: Cube, resolution: Resolution, algo: Algorithm) -> Backend {
        Backend::Tree {
            cube,
            resolution,
            algo,
        }
    }

    /// [`Backend::Collective`].
    #[must_use]
    pub fn collective(
        cube: Cube,
        resolution: Resolution,
        kind: CollectiveKind,
        family: TreeFamily,
    ) -> Backend {
        Backend::Collective {
            cube,
            resolution,
            kind,
            family,
        }
    }
}

impl<R: Router> Backend<R> {
    /// This backend with its router replaced by the topology it routes
    /// on, which is all that building sessions needs.
    pub(crate) fn topology(&self) -> Backend<R::Topo> {
        match *self {
            Backend::Tree {
                cube,
                resolution,
                algo,
            } => Backend::Tree {
                cube,
                resolution,
                algo,
            },
            Backend::Separate(ref router) => Backend::Separate(router.topology()),
            Backend::Collective {
                cube,
                resolution,
                kind,
                family,
            } => Backend::Collective {
                cube,
                resolution,
                kind,
                family,
            },
            Backend::SeparateCollective(ref router, kind) => {
                Backend::SeparateCollective(router.topology(), kind)
            }
        }
    }
}

/// Optional inputs of [`run`] and [`run_chaos`](crate::run_chaos).
/// None of them changes a report's bytes.
#[derive(Debug, Default)]
pub struct RunOptions<'a> {
    pub(crate) scratch: Option<&'a mut EngineScratch>,
    pub(crate) telemetry: Option<(&'a TelemetryConfig, &'a mut Option<Telemetry>)>,
    pub(crate) timeline: Option<&'a FaultTimeline>,
}

impl<'a> RunOptions<'a> {
    /// Replays the run into a caller-owned [`EngineScratch`] instead of
    /// a fresh one: its arenas keep their allocations.
    #[must_use]
    pub fn scratch(mut self, scratch: &'a mut EngineScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Attaches the flight recorder: the run is observed once and the
    /// derived [`Telemetry`] is stored in `out`.
    #[must_use]
    pub fn telemetry(mut self, cfg: &'a TelemetryConfig, out: &'a mut Option<Telemetry>) -> Self {
        self.telemetry = Some((cfg, out));
        self
    }

    /// Runs a chaos run against an explicit, already rendered fault
    /// timeline (scripted outages, tests) instead of the one its
    /// [`ChurnSpec`](crate::ChurnSpec) generates. Only
    /// [`run_chaos`](crate::run_chaos) reads it.
    #[must_use]
    pub fn timeline(mut self, timeline: &'a FaultTimeline) -> Self {
        self.timeline = Some(timeline);
        self
    }
}

/// Runs open-loop traffic: every session of `spec` arrives by its
/// arrival process and sends what `backend` says, sessions contend for
/// channels in one shared network, and the run executes under the
/// spec's observation window. It is the churn-free case of
/// [`run_chaos`](crate::run_chaos): every session's first attempt, run
/// as one wave.
///
/// Fully deterministic: identical inputs give byte-identical reports,
/// whatever the options. See the crate docs for an example.
///
/// # Panics
/// On invalid pattern draws (the [`DestPattern`] contracts, including
/// [`DestPattern::SubcubeBiased`] off the hypercube), a malformed
/// [`DestPattern::Fixed`] set (duplicate or out-of-range destinations,
/// the panics of [`Algorithm::build`]), or options carrying a fault
/// timeline.
#[must_use]
pub fn run<R: Router + Copy>(
    spec: &TrafficSpec,
    backend: Backend<R>,
    params: &SimParams,
    opts: RunOptions,
) -> TrafficReport {
    assert!(
        opts.timeline.is_none(),
        "a fault timeline only applies to run_chaos"
    );
    let sessions = SessionBuilder::draw(spec, backend.topology(), params.port_model).first_wave();
    match backend {
        Backend::Tree {
            cube, resolution, ..
        }
        | Backend::Collective {
            cube, resolution, ..
        } => run_on(spec, Ecube::new(cube, resolution), &sessions, params, opts),
        Backend::Separate(router) | Backend::SeparateCollective(router, _) => {
            run_on(spec, router, &sessions, params, opts)
        }
    }
}

/// [`run`] on `router`, once the sessions are assembled: the first wave
/// under the spec's window in the options' scratch, recorded when they
/// ask for telemetry.
fn run_on<R: Router + Copy>(
    spec: &TrafficSpec,
    router: R,
    sessions: &SessionWorkload,
    params: &SimParams,
    opts: RunOptions,
) -> TrafficReport {
    let mut fresh = EngineScratch::new();
    let scratch = opts.scratch.unwrap_or(&mut fresh);
    let mut recorder = opts.telemetry.is_some().then(WaveRecorder::default);
    let probe = recorder.as_mut().map(|r| &mut r.probe);
    let run = run_wave(
        router,
        params,
        &sessions.workload,
        &window(spec.horizon),
        scratch,
        probe,
    );
    let report = assemble(spec, &run, sessions);
    if let (Some(mut recorder), Some((cfg, out))) = (recorder, opts.telemetry) {
        recorder.record_wave(&first_attempts(&sessions.arrivals), &sessions.spans, &run);
        let outcomes = report.sessions.iter().map(|s| (s.arrival, s.delivered));
        let map = ChannelMap::new(router);
        *out = Some(recorder.finish(outcomes, spec.horizon, &[], &map, cfg));
    }
    report
}

/// Assembles the first wave of a hypercube tree-multicast traffic run
/// without simulating it: arrival schedule, per-session tree builds
/// (through the [`TreeCache`]), and dependency wiring.
///
/// Deterministic for identical inputs; [`run`] with [`Backend::Tree`]
/// is exactly this followed by the windowed engine run.
///
/// # Panics
/// See [`run`].
#[must_use]
pub fn assemble_cube_sessions(
    spec: &TrafficSpec,
    cube: Cube,
    resolution: Resolution,
    algo: Algorithm,
    params: &SimParams,
) -> SessionWorkload {
    let backend = Backend::tree(cube, resolution, algo).topology();
    SessionBuilder::draw(spec, backend, params.port_model).first_wave()
}

/// Simulates a pre-assembled [`SessionWorkload`] under the spec's
/// observation window in a caller-owned scratch and attributes the
/// results back to sessions: the engine half of [`run`].
///
/// Kept under this name because the `perfbench-trace` benchmark binary
/// links it; new code uses [`run`].
///
/// # Panics
/// If `sessions` references nodes outside `router`'s topology.
#[must_use]
pub fn run_sessions_on_with_scratch<R: Router>(
    spec: &TrafficSpec,
    router: R,
    sessions: &SessionWorkload,
    params: &SimParams,
    scratch: &mut EngineScratch,
) -> TrafficReport {
    let run = run_wave(
        router,
        params,
        &sessions.workload,
        &window(spec.horizon),
        scratch,
        None,
    );
    assemble(spec, &run, sessions)
}

/// Assembles the first wave of a separate-addressing traffic run on any
/// routed topology (one independent unicast per destination, no trees)
/// without simulating it.
///
/// # Panics
/// See [`run`].
#[must_use]
pub fn assemble_separate_sessions_on<R: Router>(spec: &TrafficSpec, router: &R) -> SessionWorkload
where
    R::Topo: Topology,
{
    // Separate addressing builds no trees, so no port model enters.
    let backend = Backend::Separate(router.topology());
    SessionBuilder::draw(spec, backend, PortModel::AllPort).first_wave()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use hcube::{Torus, TorusRouter};
    use hypercast::PortModel;

    fn five_cube(algo: Algorithm) -> Backend {
        Backend::tree(Cube::of(5), Resolution::HighToLow, algo)
    }

    fn cube_run(spec: &TrafficSpec, algo: Algorithm, params: &SimParams) -> TrafficReport {
        run(spec, five_cube(algo), params, RunOptions::default())
    }

    fn spec(rate: f64, sessions: usize, seed: u64) -> TrafficSpec {
        TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, rate),
            DestPattern::UniformRandom { m: 6 },
            sessions,
            seed,
        )
    }

    #[test]
    fn cube_run_is_byte_deterministic() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let s = spec(2.0, 40, 11);
        let a = cube_run(&s, Algorithm::WSort, &params);
        let b = cube_run(&s, Algorithm::WSort, &params);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.sessions.len(), 40);
        assert_eq!(a.measured_sessions, 36);
    }

    #[test]
    fn different_seeds_differ() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let a = cube_run(&spec(2.0, 30, 1), Algorithm::WSort, &params);
        let b = cube_run(&spec(2.0, 30, 2), Algorithm::WSort, &params);
        assert_ne!(format!("{:?}", a.sessions), format!("{:?}", b.sessions));
    }

    #[test]
    fn pool_pattern_produces_cache_hits() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let mut rng = StdRng::seed_from_u64(3);
        let pool = DestPattern::uniform_pool(&mut rng, &Cube::of(5), 4, 6);
        let mut s = TrafficSpec::new(Arrivals::new(ArrivalProcess::Poisson, 1.0), pool, 50, 7);
        s.cache_capacity = 16;
        let r = cube_run(&s, Algorithm::WSort, &params);
        assert!(r.cache.hits > 0, "pool workload must hit the cache");
        assert!(r.cache.misses <= 4, "at most one miss per distinct group");
        assert!(r.cache.hit_rate() > 0.5);
    }

    #[test]
    fn light_load_completes_everything() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let r = cube_run(&spec(0.5, 30, 5), Algorithm::WSort, &params);
        assert_eq!(r.completed_measured, r.measured_sessions);
        assert!((r.completion_ratio - 1.0).abs() < 1e-12);
        assert!(r.latency.mean > 0.0);
        assert!(r.throughput_per_ms > 0.0);
        assert_eq!(r.net.timed_out, 0);
    }

    #[test]
    fn crushing_load_saturates_the_window() {
        let params = SimParams::ncube2(PortModel::OnePort);
        let mut s = spec(2000.0, 200, 5);
        s.horizon = SimTime::from_ms(2);
        let r = cube_run(&s, Algorithm::Separate, &params);
        assert!(
            r.completion_ratio < 1.0,
            "an impossible load must overflow the window (ratio {})",
            r.completion_ratio
        );
        assert!(r.net.timed_out > 0);
    }

    #[test]
    fn scratch_reuse_reports_are_byte_identical() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let s = spec(2.0, 40, 11);
        let fresh = cube_run(&s, Algorithm::WSort, &params);
        let mut scratch = EngineScratch::new();
        for _ in 0..2 {
            let again = run(
                &s,
                five_cube(Algorithm::WSort),
                &params,
                RunOptions::default().scratch(&mut scratch),
            );
            assert_eq!(
                format!("{fresh:?}"),
                format!("{again:?}"),
                "scratch-reuse run diverged from the fresh-allocation run"
            );
        }
        // The same scratch then serves a *different* router type: its
        // routes are recomputed and the torus report still matches fresh.
        let torus = Torus::of(4, 2);
        let ts = spec(1.0, 25, 9);
        let fresh = run(
            &ts,
            Backend::Separate(TorusRouter::new(torus)),
            &params,
            RunOptions::default(),
        );
        let again = run(
            &ts,
            Backend::Separate(TorusRouter::new(torus)),
            &params,
            RunOptions::default().scratch(&mut scratch),
        );
        assert_eq!(format!("{fresh:?}"), format!("{again:?}"));
    }

    #[test]
    fn session_spans_partition_the_workload_and_keep_deps_inside() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let s = spec(2.0, 12, 11);
        let assembly = assemble_cube_sessions(
            &s,
            Cube::of(5),
            Resolution::HighToLow,
            Algorithm::WSort,
            &params,
        );
        let mut next = 0;
        for (span, &arrival) in assembly.spans.iter().zip(&assembly.arrivals) {
            assert_eq!(span.range.start, next);
            assert!(!span.range.is_empty());
            next = span.range.end;
            for (j, m) in assembly.messages()[span.range.clone()].iter().enumerate() {
                // Deps stay inside the session and point strictly
                // backwards (the tree is parent-before-child).
                let inside = span.range.start..span.range.start + j;
                assert!(m.deps.iter().all(|d| inside.contains(d)), "msg {j}");
                assert_eq!(m.min_start, arrival);
            }
        }
        assert_eq!(next, assembly.messages().len());
    }

    #[test]
    fn torus_backend_runs_separate_addressing() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let torus = Torus::of(4, 2);
        let s = spec(1.0, 25, 9);
        let a = run(
            &s,
            Backend::Separate(TorusRouter::new(torus)),
            &params,
            RunOptions::default(),
        );
        let b = run(
            &s,
            Backend::Separate(TorusRouter::new(torus)),
            &params,
            RunOptions::default(),
        );
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.cache, CacheStats::default(), "no trees, no cache traffic");
        assert!(a.completed_measured > 0);
    }
}
