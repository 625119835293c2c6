//! The traced run's in-process replays: the same work the measured run
//! asks of `mcast serve` or of `workloads::figures`, split into calls
//! into each layer's public functions so that a [`Tracer`] can time
//! each call.
//!
//! Each replay returns its outputs, which must equal the measured
//! run's: a serve replay returns every response's `result` object, a
//! figures replay every figure's JSON.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hcube::{Cube, Ecube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, MulticastTree, PortModel};
use perfbench::streams::{Dests, Net, Op, Request};
use perfbench::trace::{Kind, Tracer};
use traffic::{ArrivalProcess, DestPattern, SessionWorkload, TrafficReport};
use workloads::figures::{ten_cube_points, PAPER_BYTES, PAPER_TRIALS_NCUBE, PAPER_TRIALS_STEPS};
use workloads::serve::{chaos_report_json, chaos_wrap, load_spec, multicast_report_json};
use workloads::sweep::run_matrix_with_workers;
use workloads::Figure;
use wormsim::{DepMessage, EngineScratch, FaultCause, Probe, SimParams, SimReport, SimTime};

/// Bytes per message, the daemon's and the figures' default.
const BYTES: u32 = 4096;

/// Counts read from the reports a replay produces. Deterministic for
/// given inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Tree-cache hits over every traffic and chaos run.
    pub cache_hits: u64,
    /// Tree-cache lookups (hits + misses).
    pub cache_lookups: u64,
    /// Worms that blocked on a busy channel.
    pub blocks: u64,
    /// Messages cut off by a measurement window.
    pub timed_out: u64,
    /// Sessions assembled by the traffic engine.
    pub sessions: u64,
    /// Chaos fault epochs.
    pub epochs: u64,
    /// Chaos fault and repair events.
    pub fault_events: u64,
    /// Chaos session attempts, first tries included.
    pub attempts: u64,
    /// Chaos sessions.
    pub chaos_sessions: u64,
}

impl Counters {
    fn traffic(&mut self, r: &TrafficReport) {
        self.cache_hits += r.cache.hits;
        self.cache_lookups += r.cache.hits + r.cache.misses;
        self.blocks += r.net.blocks;
        self.timed_out += r.net.timed_out;
        self.sessions += r.sessions.len() as u64;
    }
}

/// A [`Probe`] that counts engine events, passed in through the public
/// observed entry points on a separate, untimed pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCount {
    /// Every probe callback: one per engine event.
    pub events: u64,
    /// Channel requests, i.e. arbitration rounds.
    pub requests: u64,
}

impl EventCount {
    fn add(&mut self, other: EventCount) {
        self.events += other.events;
        self.requests += other.requests;
    }
}

impl Probe for EventCount {
    fn on_eligible(&mut self, _t: SimTime, _msg: usize) {
        self.events += 1;
    }
    fn on_injected(&mut self, _t: SimTime, _msg: usize, _route_len: usize) {
        self.events += 1;
    }
    fn on_channel_requested(&mut self, _t: SimTime, _msg: usize, _ch: usize, _hop: usize) {
        self.events += 1;
        self.requests += 1;
    }
    fn on_channel_granted(&mut self, _t: SimTime, _msg: usize, _ch: usize, _hop: usize) {
        self.events += 1;
    }
    fn on_channel_blocked(
        &mut self,
        _t: SimTime,
        _msg: usize,
        _ch: usize,
        _hop: usize,
        _depth: usize,
    ) {
        self.events += 1;
    }
    fn on_channel_released(&mut self, _t: SimTime, _msg: usize, _ch: usize, _held_since: SimTime) {
        self.events += 1;
    }
    fn on_header_advanced(&mut self, _t: SimTime, _msg: usize, _hop: usize) {
        self.events += 1;
    }
    fn on_tail_drained(&mut self, _t: SimTime, _msg: usize) {
        self.events += 1;
    }
    fn on_delivered(&mut self, _t: SimTime, _msg: usize, _injected: SimTime) {
        self.events += 1;
    }
    fn on_fault(&mut self, _t: SimTime, _msg: usize, _cause: FaultCause) {
        self.events += 1;
    }
    fn on_timeout(&mut self, _t: SimTime, _msg: usize) {
        self.events += 1;
    }
    fn on_watchdog_alarm(&mut self, _t: SimTime, _holders: &[usize], _waiters: &[usize]) {
        self.events += 1;
    }
}

/// The algorithm a request names.
///
/// # Panics
/// On a name the generator never uses.
fn algorithm(name: &str) -> Algorithm {
    match name {
        "ucube" => Algorithm::UCube,
        "maxport" => Algorithm::Maxport,
        "combine" => Algorithm::Combine,
        "wsort" => Algorithm::WSort,
        _ => panic!("no tree algorithm is called `{name}`"),
    }
}

fn build_kind(algo: Algorithm) -> Kind {
    match algo {
        Algorithm::UCube => Kind::BuildUCube,
        Algorithm::Maxport => Kind::BuildMaxport,
        Algorithm::Combine => Kind::BuildCombine,
        _ => Kind::BuildWSort,
    }
}

/// Flit-hops of a tree's unicasts: bytes × route length, summed.
fn tree_flit_hops(tree: &MulticastTree, bytes: u32) -> u64 {
    tree.unicasts
        .iter()
        .map(|u| u64::from(bytes) * u64::from((u.src.0 ^ u.dst.0).count_ones()))
        .sum()
}

/// Flit-hops of an assembled workload on `router`.
fn workload_flit_hops<R: Router>(router: &R, messages: &[DepMessage]) -> u64 {
    messages
        .iter()
        .map(|m| u64::from(m.bytes) * u64::from(router.hops(m.src, m.dst)))
        .sum()
}

fn params() -> SimParams {
    SimParams::ncube2(PortModel::AllPort)
}

fn pattern(dests: &Dests) -> DestPattern {
    match dests {
        Dests::Random(m) => DestPattern::UniformRandom { m: *m },
        Dests::Fixed(d) => DestPattern::Fixed {
            source: NodeId(0),
            dests: d.iter().copied().map(NodeId).collect(),
        },
    }
}

fn emit(tr: &Tracer, req: u32, f: impl FnOnce() -> String) -> String {
    let mut g = tr.span(Kind::JsonEmit, req);
    let out = f();
    g.work(out.len() as u64);
    out
}

/// Simulates an assembled traffic run the way `traffic::run_cube` and
/// `run_separate_on` do (a fresh scratch per run), under an engine span.
fn replay_loaded<R: Router + Copy>(
    tr: &Tracer,
    req: u32,
    spec: &traffic::TrafficSpec,
    router: R,
    sessions: &SessionWorkload,
    probe: Option<&Mutex<EventCount>>,
) -> TrafficReport {
    let hops = workload_flit_hops(&router, sessions.messages());
    let mut scratch = EngineScratch::new();
    let report = {
        let mut g = tr.span(Kind::EngineLoaded, req);
        g.work(hops);
        traffic::run_sessions_on_with_scratch(spec, router, sessions, &params(), &mut scratch)
    };
    if let Some(p) = probe {
        let mut count = EventCount::default();
        wormsim::simulate_window_observed_on_with_scratch(
            router,
            &params(),
            sessions.messages(),
            spec.horizon,
            &mut count,
            &mut scratch,
        )
        .expect("windowed traffic runs cannot deadlock");
        p.lock().expect("probe holder panicked").add(count);
    }
    report
}

/// An idle-network replay through the observed entry point, its events
/// added to `probe`.
fn observed_multicast(
    tree: &MulticastTree,
    params: &SimParams,
    bytes: u32,
    probe: &Mutex<EventCount>,
) -> SimReport {
    let mut count = EventCount::default();
    let report = wormsim::simulate_multicast_observed(tree, params, bytes, &mut count);
    probe.lock().expect("probe holder panicked").add(count);
    report
}

fn chaos_counters(c: &mut Counters, r: &traffic::ChaosReport) {
    c.cache_hits += r.cache.hits;
    c.cache_lookups += r.cache.hits + r.cache.misses;
    c.blocks += r.net.blocks;
    c.timed_out += r.net.timed_out;
    c.epochs += r.epochs as u64;
    c.fault_events += r.fault_events as u64;
    for (k, &n) in r.retry_histogram.iter().enumerate() {
        c.attempts += (k as u64 + 1) * n;
        c.chaos_sessions += n;
    }
}

/// Replays one serve request in process and returns its `result`
/// object, byte-identical to the daemon's when the program is correct.
/// `line` is the request line, parsed as the daemon parses it.
///
/// # Panics
/// On a request the generator cannot produce (a tree algorithm on the
/// torus), or an invalid destination set.
pub fn serve_request(
    tr: &Tracer,
    req: u32,
    line: &str,
    r: &Request,
    c: &mut Counters,
    probe: Option<&Mutex<EventCount>>,
) -> String {
    let _request = tr.span(Kind::Request, req);
    {
        let mut g = tr.span(Kind::JsonParse, req);
        g.work(line.len() as u64);
        black_box(workloads::json::parse(black_box(line)).expect("generated requests parse"));
    }
    let params = params();
    let res = Resolution::HighToLow;
    match (&r.op, r.net) {
        (Op::Multicast, Net::Cube(n)) => {
            let dests: Vec<NodeId> = match &r.dests {
                Dests::Fixed(d) => d.iter().copied().map(NodeId).collect(),
                Dests::Random(_) => unreachable!("multicast requests carry their dests"),
            };
            let tree = {
                let _g = tr.span(build_kind(algorithm(r.algo)), req);
                algorithm(r.algo)
                    .build(Cube::of(n), res, PortModel::AllPort, NodeId(0), &dests)
                    .expect("generated destination sets are valid")
            };
            let hops = tree_flit_hops(&tree, BYTES);
            let report: SimReport = {
                let mut g = tr.span(Kind::EngineIdle, req);
                g.work(hops);
                match probe {
                    None => wormsim::simulate_multicast_lanes(&tree, &params, BYTES, 1),
                    Some(p) => observed_multicast(&tree, &params, BYTES, p),
                }
            };
            c.blocks += report.blocks;
            c.timed_out += report.stats.timed_out;
            emit(tr, req, || {
                multicast_report_json(algorithm(r.algo).name(), &report, 1)
            })
        }
        (
            Op::Traffic {
                load,
                sessions,
                seed,
            },
            net,
        ) => {
            let spec = load_spec(
                ArrivalProcess::Poisson,
                *load,
                pattern(&r.dests),
                *sessions,
                *seed,
                BYTES,
            );
            let (report, label) = match net {
                Net::Cube(n) => {
                    let cube = Cube::of(n);
                    let assembled = {
                        let mut g = tr.span(Kind::Assemble, req);
                        g.work(*sessions as u64);
                        traffic::assemble_cube_sessions(
                            &spec,
                            cube,
                            res,
                            algorithm(r.algo),
                            &params,
                        )
                    };
                    let router = Ecube::new(cube, res);
                    let report = replay_loaded(tr, req, &spec, router, &assembled, probe);
                    (report, algorithm(r.algo).name())
                }
                Net::Torus(k, n) => {
                    let router = TorusRouter::new(Torus::of(k, n));
                    let assembled = {
                        let mut g = tr.span(Kind::Assemble, req);
                        g.work(*sessions as u64);
                        traffic::assemble_separate_sessions_on(&spec, &router)
                    };
                    let report = replay_loaded(tr, req, &spec, router, &assembled, probe);
                    (report, "Separate")
                }
            };
            c.traffic(&report);
            emit(tr, req, || {
                workloads::serve::traffic_report_json(label, &report, None)
            })
        }
        (
            Op::Chaos {
                load,
                sessions,
                seed,
                mtbf_ms,
                mttr_ms,
            },
            net,
        ) => {
            let spec = chaos_wrap(
                load_spec(
                    ArrivalProcess::Poisson,
                    *load,
                    pattern(&r.dests),
                    *sessions,
                    *seed,
                    BYTES,
                ),
                *mtbf_ms,
                *mttr_ms,
                3,
                500,
            );
            let (report, label) = {
                let mut g = tr.span(Kind::Chaos, req);
                let out = match net {
                    Net::Cube(n) => (
                        traffic::run_chaos_cube(
                            &spec,
                            Cube::of(n),
                            res,
                            algorithm(r.algo),
                            &params,
                        ),
                        algorithm(r.algo).name(),
                    ),
                    Net::Torus(k, n) => (
                        traffic::run_chaos_separate_on(
                            &spec,
                            TorusRouter::new(Torus::of(k, n)),
                            &params,
                        ),
                        "Separate",
                    ),
                };
                g.work(out.0.epochs as u64);
                out
            };
            chaos_counters(c, &report);
            emit(tr, req, || chaos_report_json(label, &report, None))
        }
        (Op::Multicast, Net::Torus(..)) => unreachable!("the torus has no tree algorithms"),
    }
}

/// Builds one figure tree under a span; for W-sort, first times
/// `weighted_sort` on the same destinations as a call of its own.
fn build_traced(
    tr: &Tracer,
    call: u32,
    cube: Cube,
    src: NodeId,
    dests: &[NodeId],
    algo: Algorithm,
) -> MulticastTree {
    let res = Resolution::HighToLow;
    if algo == Algorithm::WSort {
        let n = cube.dimension();
        let mut chain =
            hcube::chain::relative_chain(res, n, src, dests).expect("valid sweep instance");
        let _g = tr.span(Kind::WeightedSort, call);
        hypercast::algorithms::weighted_sort::weighted_sort(&mut chain, n);
        black_box(&chain);
    }
    let _g = tr.span(build_kind(algo), call);
    algo.build(cube, res, PortModel::AllPort, src, dests)
        .expect("valid sweep instance")
}

/// The figures' experiments, replayed on one worker thread through
/// `workloads::sweep` with traced metric closures. `templates` are the
/// committed figures, whose titles and labels the replay reuses; the
/// returned JSON replaces their series with the replay's.
///
/// With a `probe`, idle replays go through the observed entry point
/// instead, counting engine events (the outputs must not change).
pub fn figures(
    tr: &Tracer,
    templates: &[Figure],
    blocks: &AtomicU64,
    probe: Option<&Mutex<EventCount>>,
) -> Vec<String> {
    let steps = |call: u32, id: &str, n: u8, points: &[usize]| {
        let _g = tr.span(Kind::Call, call);
        run_matrix_with_workers(
            id,
            Cube::of(n),
            points,
            PAPER_TRIALS_STEPS,
            &Algorithm::PAPER,
            1,
            |cube, src, dests, algo, _scratch| {
                [f64::from(
                    build_traced(tr, call, cube, src, dests, algo).steps,
                )]
            },
        )
    };
    let delays = |call: u32, id: &str, n: u8, points: &[usize], trials: usize| {
        let _g = tr.span(Kind::Call, call);
        let params = params();
        run_matrix_with_workers(
            id,
            Cube::of(n),
            points,
            trials,
            &Algorithm::PAPER,
            1,
            |cube, src, dests, algo, scratch| {
                let tree = build_traced(tr, call, cube, src, dests, algo);
                let hops = tree_flit_hops(&tree, PAPER_BYTES);
                let r = {
                    let mut g = tr.span(Kind::EngineIdle, call);
                    g.work(hops);
                    match probe {
                        None => wormsim::simulate_multicast_with_scratch(
                            &tree,
                            &params,
                            PAPER_BYTES,
                            scratch,
                        ),
                        Some(p) => observed_multicast(&tree, &params, PAPER_BYTES, p),
                    }
                };
                blocks.fetch_add(r.blocks, Ordering::Relaxed);
                [r.avg_delay.as_ms(), r.max_delay.as_ms()]
            },
        )
    };
    let with_series = |i: usize, series| {
        let mut f = templates[i].clone();
        f.series = series;
        f.to_json()
    };
    let six: Vec<usize> = (1..=63).collect();
    let five: Vec<usize> = (1..=31).collect();
    let ten = ten_cube_points();
    let f09 = steps(0, "fig09", 6, &six);
    let f10 = steps(1, "fig10", 10, &ten);
    let f11 = delays(2, "fig11", 5, &five, PAPER_TRIALS_NCUBE);
    let f13 = delays(3, "fig13", 10, &ten, PAPER_TRIALS_STEPS);
    vec![
        with_series(0, f09.series(0)),
        with_series(1, f10.series(0)),
        with_series(2, f11.series(0)),
        with_series(3, f11.series(1)),
        with_series(4, f13.series(0)),
        with_series(5, f13.series(1)),
    ]
}
