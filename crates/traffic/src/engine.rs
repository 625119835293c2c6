//! The session scheduler: converts an arrival schedule plus a
//! destination pattern into one windowed dependency workload and
//! attributes the results back to sessions.
//!
//! Each arriving multicast session becomes a batch of [`DepMessage`]s —
//! one per tree unicast (hypercube backends) or one per destination
//! (separate addressing, any topology) — whose `min_start` is the
//! session's arrival time. Forwarding dependencies stay *within* a
//! session; across sessions the only coupling is physical channel
//! contention, exactly as in the network. The whole run executes under
//! a [`wormsim::Run::window`], so a saturated backlog is cut off at the
//! horizon instead of extending the run without bound.
//!
//! [`run`] is the one entry point: a [`Backend`] says what sessions
//! send (trees, separate unicasts, or collectives) and
//! [`RunOptions`] adds a reusable scratch or the flight recorder.
//!
//! Hypercube sessions build their trees through a [`TreeCache`]: under
//! recurring destination patterns (the [`DestPattern::Pool`] population)
//! most arrivals are pointer-clone cache hits rather than full `W-sort`
//! constructions; the report carries the cache counters.

use crate::arrivals::Arrivals;
use crate::collective::{
    assemble_collective_cube_sessions, assemble_collective_separate_sessions_on,
};
use crate::patterns::DestPattern;
use crate::stats::{BatchMeans, LoadPoint};
use crate::telemetry::{traffic_telemetry, Telemetry, TelemetryConfig, TelemetryProbe};
use hcube::{Cube, Ecube, NodeId, Resolution, Router, Topology};
use hypercast::{Algorithm, CacheStats, CollectiveKind, TreeCache, TreeFamily};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wormsim::network::ChannelMap;
use wormsim::{
    DepMessage, EngineScratch, FaultTimeline, InboundIndex, NetStats, Run, RunResult, SimParams,
    SimTime,
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
    /// Delivery time per destination, in tree order (empty entries are
    /// impossible; timed-out messages record their abort time).
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

impl TrafficReport {
    /// This run as a point of a latency-vs-offered-load sweep.
    #[must_use]
    pub fn load_point(&self) -> LoadPoint {
        LoadPoint {
            offered: self.offered_rate_per_ms,
            mean_latency_ms: self.latency.mean,
            completion_ratio: self.completion_ratio,
        }
    }
}

/// A session's messages laid out in the shared workload. `pub(crate)`
/// so the telemetry layer can attribute engine results back to
/// sessions without re-deriving the layout.
#[derive(Clone, Debug)]
pub(crate) struct SessionSpan {
    pub(crate) arrival: SimTime,
    pub(crate) range: std::ops::Range<usize>,
    pub(crate) dests: Vec<NodeId>,
    /// Whether this session's tree came out of the [`TreeCache`]
    /// (always `false` for separate addressing, which builds no trees).
    pub(crate) cache_hit: bool,
}

/// A fully assembled traffic run, ready to simulate: the windowed
/// dependency workload plus the bookkeeping needed to attribute the
/// results back to sessions.
///
/// Produced by [`assemble_cube_sessions`] / [`assemble_separate_sessions_on`]
/// and consumed (by reference — the same assembly can be replayed any
/// number of times) by [`run`] or [`run_sessions_on_with_scratch`]. Splitting
/// assembly from simulation lets a caller time or replay the engine
/// alone, without tree construction or report assembly.
#[derive(Clone, Debug)]
pub struct SessionWorkload {
    workload: Vec<DepMessage>,
    pub(crate) spans: Vec<SessionSpan>,
    cache: CacheStats,
}

impl SessionWorkload {
    /// The flattened dependency workload (all sessions, arrival-ordered).
    #[must_use]
    pub fn messages(&self) -> &[DepMessage] {
        &self.workload
    }

    /// Number of sessions in the assembly.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.spans.len()
    }

    /// Tree-cache counters accumulated during assembly (all zero for
    /// separate addressing).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
    }

    /// Assembles a workload from raw parts. `pub(crate)` so sibling
    /// session builders (the collective engine) can lay out their own
    /// spans without widening the field visibility.
    pub(crate) fn from_parts(
        workload: Vec<DepMessage>,
        spans: Vec<SessionSpan>,
        cache: CacheStats,
    ) -> SessionWorkload {
        SessionWorkload {
            workload,
            spans,
            cache,
        }
    }
}

/// Attributes a finished run back to its sessions and assembles the
/// report. `pub(crate)` so the telemetry entry points can assemble the
/// identical report from an *observed* run of the same workload.
pub(crate) fn assemble(
    spec: &TrafficSpec,
    run: &RunResult,
    spans: &[SessionSpan],
    cache: CacheStats,
) -> TrafficReport {
    let sessions: Vec<SessionRecord> = spans
        .iter()
        .map(|span| {
            let msgs = &run.messages[span.range.clone()];
            let delivered = msgs.iter().all(|m| m.outcome.is_delivered());
            let completion = msgs
                .iter()
                .map(|m| m.delivered)
                .max()
                .unwrap_or(span.arrival);
            let deliveries = span
                .dests
                .iter()
                .zip(msgs)
                .map(|(&d, m)| (d, m.delivered))
                .collect();
            SessionRecord {
                arrival: span.arrival,
                completion,
                latency: completion.saturating_sub(span.arrival),
                delivered,
                deliveries,
            }
        })
        .collect();

    let measured = &sessions[spec.warmup.min(sessions.len())..];
    let completed: Vec<&SessionRecord> = measured.iter().filter(|s| s.delivered).collect();
    let latencies_ms: Vec<f64> = completed.iter().map(|s| s.latency.as_ms()).collect();
    let latency = BatchMeans::of(&latencies_ms, spec.max_batches);
    let completion_ratio = if measured.is_empty() {
        1.0
    } else {
        completed.len() as f64 / measured.len() as f64
    };
    let throughput_per_ms = match (
        measured.first(),
        completed.iter().map(|s| s.completion).max(),
    ) {
        (Some(first), Some(last)) => {
            let span_ms = last.saturating_sub(first.arrival).as_ms();
            if span_ms > 0.0 {
                completed.len() as f64 / span_ms
            } else {
                0.0
            }
        }
        _ => 0.0,
    };

    TrafficReport {
        offered_rate_per_ms: spec.arrivals.rate_per_ms,
        warmup: spec.warmup.min(sessions.len()),
        measured_sessions: measured.len(),
        completed_measured: completed.len(),
        completion_ratio,
        latency,
        throughput_per_ms,
        cache,
        net: run.stats.clone(),
        horizon: spec.horizon,
        sessions,
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
    /// a fresh one: reused arenas and memoized routes.
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
/// spec's observation window.
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
    match backend {
        Backend::Tree {
            cube,
            resolution,
            algo,
        } => {
            let sessions = assemble_cube_sessions(spec, cube, resolution, algo, params);
            let router = Ecube::new(cube, resolution);
            simulate_sessions(spec, router, &sessions, params, opts, true)
        }
        Backend::Separate(router) => {
            let sessions = assemble_separate_sessions_on(spec, &router);
            simulate_sessions(spec, router, &sessions, params, opts, false)
        }
        Backend::Collective {
            cube,
            resolution,
            kind,
            family,
        } => {
            let sessions =
                assemble_collective_cube_sessions(spec, cube, resolution, kind, family, params);
            let lookups = matches!(family, TreeFamily::Alg(_));
            let router = Ecube::new(cube, resolution);
            simulate_sessions(spec, router, &sessions, params, opts, lookups)
        }
        Backend::SeparateCollective(router, kind) => {
            let sessions = assemble_collective_separate_sessions_on(spec, &router, kind);
            simulate_sessions(spec, router, &sessions, params, opts, false)
        }
    }
}

/// Simulates an assembled run under the spec's window, observed when
/// the options ask for telemetry, and attributes the results back to
/// sessions. `lookups`: whether sessions looked their trees up in the
/// cache (the telemetry spans' `cache_hit` is `None` otherwise).
fn simulate_sessions<R: Router + Copy>(
    spec: &TrafficSpec,
    router: R,
    sessions: &SessionWorkload,
    params: &SimParams,
    opts: RunOptions,
    lookups: bool,
) -> TrafficReport {
    let mut fresh = EngineScratch::new();
    let scratch = opts.scratch.unwrap_or(&mut fresh);
    let engine = Run::new(router, params, &sessions.workload)
        .window(spec.horizon)
        .scratch(scratch);
    let Some((cfg, out)) = opts.telemetry else {
        let run = engine.run().expect("windowed traffic runs cannot deadlock");
        return assemble(spec, &run, &sessions.spans, sessions.cache);
    };
    let mut probe = TelemetryProbe::new();
    let run = engine
        .probe(&mut probe)
        .run()
        .expect("windowed traffic runs cannot deadlock");
    let intervals = probe.take_intervals();
    *out = Some(traffic_telemetry(
        spec,
        sessions,
        &run,
        &intervals,
        &ChannelMap::new(router),
        cfg,
        lookups,
    ));
    assemble(spec, &run, &sessions.spans, sessions.cache)
}

/// Assembles the windowed workload of a hypercube traffic run without
/// simulating it: arrival schedule, per-session tree builds (through
/// the [`TreeCache`]), and dependency wiring.
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
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let schedule = spec.arrivals.schedule(&mut rng, spec.sessions);
    let mut cache = TreeCache::new(spec.cache_capacity);
    let mut workload: Vec<DepMessage> = Vec::new();
    let mut spans = Vec::with_capacity(schedule.len());
    let mut inbound = InboundIndex::default();
    for &arrival in &schedule {
        let (source, dests) = spec.pattern.draw_cube(&mut rng, cube);
        let before = cache.stats();
        let tree = cache
            .get_or_build(algo, cube, resolution, params.port_model, source, &dests)
            .expect("traffic destination draw produced an invalid multicast");
        let cache_hit = cache.stats().since(before).hits > 0;
        let range = inbound.append(&mut workload, &tree, spec.bytes, arrival);
        // Deliveries are attributed in tree (unicast) order.
        let dests_in_tree_order: Vec<NodeId> = tree.unicasts.iter().map(|u| u.dst).collect();
        spans.push(SessionSpan {
            arrival,
            range,
            dests: dests_in_tree_order,
            cache_hit,
        });
    }
    SessionWorkload {
        workload,
        spans,
        cache: cache.stats(),
    }
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
    let run = Run::new(router, params, &sessions.workload)
        .window(spec.horizon)
        .scratch(scratch)
        .run()
        .expect("windowed traffic runs cannot deadlock");
    assemble(spec, &run, &sessions.spans, sessions.cache)
}

/// Assembles the windowed workload of a separate-addressing traffic run
/// on any routed topology (one independent unicast per destination, no
/// trees) without simulating it.
///
/// # Panics
/// See [`run`].
#[must_use]
pub fn assemble_separate_sessions_on<R: Router>(spec: &TrafficSpec, router: &R) -> SessionWorkload
where
    R::Topo: Topology,
{
    let topo = router.topology();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let schedule = spec.arrivals.schedule(&mut rng, spec.sessions);
    let mut workload: Vec<DepMessage> = Vec::new();
    let mut spans = Vec::with_capacity(schedule.len());
    for &arrival in &schedule {
        let (source, dests) = spec.pattern.draw_on(&mut rng, &topo);
        let base = workload.len();
        for &dst in &dests {
            workload.push(DepMessage {
                src: source,
                dst,
                bytes: spec.bytes,
                deps: vec![],
                min_start: arrival,
            });
        }
        spans.push(SessionSpan {
            arrival,
            range: base..workload.len(),
            dests,
            cache_hit: false,
        });
    }
    SessionWorkload {
        workload,
        spans,
        cache: CacheStats::default(),
    }
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
        assert!(
            scratch.route_memo().hits() > 0,
            "replayed sessions must hit the route memo"
        );
        // The same scratch then serves a *different* router type: the
        // memo restamps and the torus report still matches fresh.
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
        for span in &assembly.spans {
            assert_eq!(span.range.start, next);
            assert!(!span.range.is_empty());
            next = span.range.end;
            for (j, m) in assembly.messages()[span.range.clone()].iter().enumerate() {
                // Deps stay inside the session and point strictly
                // backwards (the tree is parent-before-child).
                let inside = span.range.start..span.range.start + j;
                assert!(m.deps.iter().all(|d| inside.contains(d)), "msg {j}");
                assert_eq!(m.min_start, span.arrival);
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
