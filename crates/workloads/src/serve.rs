//! Long-running service mode: the `mcast serve` request loop.
//!
//! The one-shot CLI pays the process spawn and argument parse on every
//! invocation. This module turns the same entry points into a daemon:
//! newline-delimited JSON requests on stdin, newline-delimited JSON
//! responses on stdout. Every traffic and chaos request runs through
//! [`traffic::run`] or [`traffic::run_chaos`], exactly as the one-shot
//! CLI does.
//!
//! ## Protocol
//!
//! One request per line; one response line per request, in request
//! order. Every request needs an integer `id` (echoed back) and an
//! `op`; any request may also carry a string `tag`, echoed verbatim in
//! the success wrapper (`{"id":1,"tag":"…","ok":true,…}`) for client
//! correlation — arbitrary UTF-8 including non-BMP characters:
//!
//! ```text
//! {"id":1,"op":"traffic","n":6,"algo":"wsort","load":2.0,"random":8,"sessions":100,"seed":1}
//! {"id":2,"op":"chaos","n":6,"algo":"wsort","load":2.0,"random":8,"mtbf_ms":10.0,"mttr_ms":2.0}
//! {"id":3,"op":"multicast","n":6,"algo":"wsort","source":0,"dests":[3,9,17,33,60]}
//! {"id":4,"op":"stats"}
//! {"id":5,"op":"shutdown"}
//! ```
//!
//! Success wraps the *byte-identical* JSON object the one-shot CLI
//! prints for the same configuration:
//!
//! ```text
//! {"id":1,"ok":true,"result":{"mode":"traffic","algo":"W-sort",...}}
//! ```
//!
//! Failures are typed and never kill the daemon:
//!
//! ```text
//! {"id":null,"ok":false,"error":{"kind":"bad_json","message":"..."}}
//! ```
//!
//! with `kind` one of `bad_json` (the line is not JSON), `bad_request`
//! (unknown op / unknown field / invalid value, including an integer
//! too large for its field), `oversized` (a value
//! exceeds the server's configured caps), or `deadline_exceeded` (the
//! request carried a `deadline_ms` and spent longer than that queued).
//!
//! ## Execution model
//!
//! A reader thread parses lines into a bounded channel
//! ([`ServeOptions::max_inflight`] entries); when the queue is full the
//! reader stops consuming stdin, which backpressures the client through
//! the pipe. A single executor drains the queue **in request order**,
//! so responses never interleave and the output order is
//! deterministic. Every request simulates its sessions contending in
//! one shared network; there is no per-request worker pool, and a
//! `workers` field is refused like any unknown field. `shutdown`
//! answers after
//! every request queued before it (the reader stops at the shutdown
//! line), making drain graceful by construction.
//!
//! The spec builders ([`load_spec`], [`chaos_wrap`]) and report
//! formatters ([`traffic_report_json`], [`chaos_report_json`],
//! [`multicast_report_json`]) are the *single source* for both the
//! one-shot CLI and the daemon, so serve-vs-CLI equivalence is
//! structural, not coincidental.

use std::convert::Infallible;
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::time::Instant;

use hcube::{Cube, NodeId, Resolution, Topology, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel, RetryPolicy};
use traffic::{
    ArrivalProcess, Arrivals, Backend, ChaosReport, ChaosSpec, ChurnSpec, DestPattern, RunOptions,
    TrafficReport, TrafficSpec,
};
use wormsim::{SimParams, SimReport, SimTime};

use crate::json::{self, Value};

// ---------------------------------------------------------------------------
// Shared spec builders (single source for the CLI and the daemon)
// ---------------------------------------------------------------------------

/// Builds the open-loop [`TrafficSpec`] of a `--load` run: `rate`
/// sessions/ms under `arrivals`, with the CLI's horizon convention —
/// enough simulated time for the nominal schedule plus 25% slack and a
/// 30 ms drain tail.
#[must_use]
pub fn load_spec(
    arrivals: ArrivalProcess,
    rate: f64,
    pattern: DestPattern,
    sessions: usize,
    seed: u64,
    bytes: u32,
) -> TrafficSpec {
    let mut spec = TrafficSpec::new(Arrivals::new(arrivals, rate), pattern, sessions, seed);
    spec.bytes = bytes;
    spec.horizon = SimTime::from_ms((sessions as f64 / rate * 1.25 + 30.0) as u64);
    spec
}

/// Wraps an open-loop spec with the `--chaos` churn process and retry
/// policy. Node churn rides along at 4x the link MTBF and 1.5x the
/// link MTTR (the sweep's convention); failures strike only in the
/// first 60% of the window so every run ends with a healed network.
#[must_use]
pub fn chaos_wrap(
    traffic: TrafficSpec,
    mtbf_ms: f64,
    mttr_ms: f64,
    retries: u32,
    backoff_us: u64,
) -> ChaosSpec {
    let churn = ChurnSpec {
        link_mtbf_ms: mtbf_ms,
        link_mttr_ms: mttr_ms,
        node_mtbf_ms: mtbf_ms * 4.0,
        node_mttr_ms: mttr_ms * 1.5,
        churn_until: SimTime::from_ns((traffic.horizon.as_ns() as f64 * 0.6) as u64),
    };
    ChaosSpec {
        traffic,
        churn,
        retry: RetryPolicy {
            max_retries: retries,
            base_backoff: backoff_us,
            backoff_factor: 4,
        },
    }
}

// ---------------------------------------------------------------------------
// Shared report formatters
// ---------------------------------------------------------------------------

fn fin(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// The one-line JSON summary of an open-loop traffic report — the
/// exact object `mcast --load --json` prints.
///
/// The last parameter can only be `None`; it exists because the
/// `perfbench-trace` benchmark binary passes it.
#[must_use]
pub fn traffic_report_json(label: &str, r: &TrafficReport, _: Option<Infallible>) -> String {
    format!(
        "{{\"mode\":\"traffic\",\"algo\":\"{label}\",\"offered_per_ms\":{},\
         \"sessions\":{},\"measured\":{},\"completion_ratio\":{},\
         \"mean_latency_ms\":{},\"ci_half_width_ms\":{},\"throughput_per_ms\":{},\
         \"cache_hit_rate\":{},\"timed_out\":{}}}",
        r.offered_rate_per_ms,
        r.sessions.len(),
        r.measured_sessions,
        r.completion_ratio,
        fin(r.latency.mean),
        fin(r.latency.ci_half_width),
        r.throughput_per_ms,
        r.cache.hit_rate(),
        r.net.timed_out,
    )
}

/// The one-line JSON summary of a chaos report — the exact object
/// `mcast --load --chaos --json` prints. The last parameter is as in
/// [`traffic_report_json`].
#[must_use]
pub fn chaos_report_json(label: &str, r: &ChaosReport, _: Option<Infallible>) -> String {
    let hist: Vec<String> = r.retry_histogram.iter().map(u64::to_string).collect();
    format!(
        "{{\"mode\":\"chaos\",\"algo\":\"{label}\",\"offered_per_ms\":{},\
         \"sessions\":{},\"measured\":{},\"delivery_ratio\":{},\
         \"goodput_per_ms\":{},\"mean_latency_ms\":{},\"ci_half_width_ms\":{},\
         \"retry_histogram\":[{}],\"lost\":{},\"window_cut\":{},\
         \"time_to_recover_ms\":{},\"epochs\":{},\"fault_events\":{}}}",
        r.offered_rate_per_ms,
        r.sessions.len(),
        r.measured_sessions,
        r.delivery_ratio,
        r.goodput_per_ms,
        fin(r.latency.mean),
        fin(r.latency.ci_half_width),
        hist.join(","),
        r.lost,
        r.window_cut,
        r.time_to_recover
            .map_or("null".into(), |t| format!("{}", t.as_ms())),
        r.epochs,
        r.fault_events,
    )
}

/// The one-line JSON summary of a single-shot multicast — the exact
/// summary object `mcast --json` prints after the tree.
#[must_use]
pub fn multicast_report_json(label: &str, report: &SimReport, lanes: u8) -> String {
    let util: Vec<String> = report
        .stats
        .dim_utilization()
        .iter()
        .map(|u| format!("{u:.6}"))
        .collect();
    let lane_util: Vec<String> = report
        .stats
        .lane_utilization()
        .iter()
        .map(|u| format!("{u:.6}"))
        .collect();
    format!(
        "{{\"algo\":\"{label}\",\"avg_delay_ns\":{},\"max_delay_ns\":{},\"blocks\":{},\
         \"dim_utilization\":[{}],\"lanes\":{lanes},\"lane_utilization\":[{}],\
         \"max_queue_depth\":{}}}",
        report.avg_delay.as_ns(),
        report.max_delay.as_ns(),
        report.blocks,
        util.join(","),
        lane_util.join(","),
        report.stats.max_queue_depth
    )
}

// ---------------------------------------------------------------------------
// Server configuration and summary
// ---------------------------------------------------------------------------

/// Tunables of a [`serve_loop`]: the in-flight bound (backpressure) and
/// the size caps behind `oversized` refusals.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Parsed requests buffered between the reader and the executor;
    /// when full, the reader stops consuming input (backpressure).
    pub max_inflight: usize,
    /// Per-request session ceiling.
    pub max_sessions: usize,
    /// Topology size ceiling (nodes).
    pub max_nodes: usize,
    /// Destination-set size ceiling (explicit `dests` or `random` m).
    pub max_dests: usize,
    /// Request-line length ceiling in bytes.
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_inflight: 16,
            max_sessions: 20_000,
            max_nodes: 1024,
            max_dests: 256,
            max_line_bytes: 1 << 20,
        }
    }
}

/// What a [`serve_loop`] did before it returned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Successful responses written.
    pub served: u64,
    /// Error responses written.
    pub errors: u64,
    /// `true` if the loop ended on a `shutdown` request (`false`: EOF).
    pub shutdown: bool,
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

struct Job {
    received: Instant,
    parsed: Result<Value, String>,
}

/// A typed refusal: becomes the `error` object of a response line.
struct Refusal {
    kind: &'static str,
    message: String,
}

fn bad_request(message: impl Into<String>) -> Refusal {
    Refusal {
        kind: "bad_request",
        message: message.into(),
    }
}

fn oversized(message: impl Into<String>) -> Refusal {
    Refusal {
        kind: "oversized",
        message: message.into(),
    }
}

/// Strict field cursor over a request object: every `get` marks the
/// key as consumed, and [`Fields::finish`] refuses the request if any
/// key was never consumed — unknown fields are errors, not silence.
struct Fields<'a> {
    entries: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value) -> Result<Fields<'a>, Refusal> {
        match v {
            Value::Object(entries) => Ok(Fields {
                used: vec![false; entries.len()],
                entries,
            }),
            _ => Err(bad_request("a request must be a JSON object")),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn finish(self) -> Result<(), Refusal> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(bad_request(format!("unknown field `{k}`")));
            }
        }
        Ok(())
    }
}

/// A non-negative integer field (JSON numbers are `f64`; refuse
/// fractions and out-of-range magnitudes rather than truncating).
fn as_uint(v: &Value, key: &str) -> Result<u64, Refusal> {
    match v.as_f64() {
        Some(x) if x.fract() == 0.0 && (0.0..=9.0e15).contains(&x) => Ok(x as u64),
        _ => Err(bad_request(format!(
            "`{key}` must be a non-negative integer"
        ))),
    }
}

fn uint_field(f: &mut Fields, key: &str, default: u64) -> Result<u64, Refusal> {
    f.get(key).map_or(Ok(default), |v| as_uint(v, key))
}

/// A [`uint_field`] narrowed to the field's type: a value that does
/// not fit is refused by name, never wrapped into a small one.
fn int_field<T: TryFrom<u64>>(f: &mut Fields, key: &str, default: u64) -> Result<T, Refusal> {
    let v = uint_field(f, key, default)?;
    T::try_from(v).map_err(|_| bad_request(format!("`{key}` {v} is out of range")))
}

fn float_field(f: &mut Fields, key: &str) -> Result<Option<f64>, Refusal> {
    match f.get(key) {
        None => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() => Ok(Some(x)),
            _ => Err(bad_request(format!("`{key}` must be a finite number"))),
        },
    }
}

fn str_field<'a>(f: &mut Fields<'a>, key: &str) -> Result<Option<&'a str>, Refusal> {
    match f.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| bad_request(format!("`{key}` must be a string"))),
    }
}

fn parse_algorithm(name: &str) -> Result<Algorithm, Refusal> {
    Ok(match name {
        "ucube" | "u-cube" => Algorithm::UCube,
        "maxport" => Algorithm::Maxport,
        "combine" => Algorithm::Combine,
        "wsort" | "w-sort" => Algorithm::WSort,
        "separate" => Algorithm::Separate,
        "dimtree" => Algorithm::DimTree,
        other => return Err(bad_request(format!("unknown algorithm `{other}`"))),
    })
}

fn parse_port(f: &mut Fields) -> Result<PortModel, Refusal> {
    Ok(match str_field(f, "port")? {
        None | Some("all") | Some("all-port") => PortModel::AllPort,
        Some("one") | Some("one-port") => PortModel::OnePort,
        Some(other) => return Err(bad_request(format!("unknown port model `{other}`"))),
    })
}

/// The destination side of a request: explicit `dests` or `random` m,
/// exactly one, validated against the topology so the builders and
/// pattern samplers can't panic on daemon input.
fn parse_pattern(
    f: &mut Fields,
    source: u64,
    nodes: usize,
    opts: &ServeOptions,
) -> Result<DestPattern, Refusal> {
    if source >= nodes as u64 {
        return Err(bad_request(format!(
            "`source` {source} outside the {nodes}-node topology"
        )));
    }
    let random = f.get("random").map(|v| as_uint(v, "random")).transpose()?;
    let dests = f.get("dests");
    match (random, dests) {
        (Some(_), Some(_)) => Err(bad_request("give `dests` or `random`, not both")),
        (None, None) => Err(bad_request("provide `dests` or `random`")),
        (Some(m), None) => {
            let m = m as usize;
            if m == 0 {
                return Err(bad_request("`random` must be >= 1"));
            }
            if m > opts.max_dests {
                return Err(oversized(format!(
                    "`random` {m} exceeds the cap of {}",
                    opts.max_dests
                )));
            }
            if m >= nodes {
                return Err(bad_request(format!(
                    "`random` {m} needs {} candidates but the topology has {nodes} nodes",
                    m + 1
                )));
            }
            Ok(DestPattern::UniformRandom { m })
        }
        (None, Some(v)) => {
            let arr = v
                .as_array()
                .ok_or_else(|| bad_request("`dests` must be an array of node ids"))?;
            if arr.is_empty() {
                return Err(bad_request("`dests` must not be empty"));
            }
            if arr.len() > opts.max_dests {
                return Err(oversized(format!(
                    "{} dests exceed the cap of {}",
                    arr.len(),
                    opts.max_dests
                )));
            }
            let mut out = Vec::with_capacity(arr.len());
            for d in arr {
                let d = as_uint(d, "dests")?;
                if d >= nodes as u64 {
                    return Err(bad_request(format!(
                        "destination {d} outside the {nodes}-node topology"
                    )));
                }
                if d == source {
                    return Err(bad_request(format!("destination {d} is the source itself")));
                }
                let d = NodeId(d as u32);
                if out.contains(&d) {
                    return Err(bad_request(format!("duplicate destination {}", d.0)));
                }
                out.push(d);
            }
            Ok(DestPattern::Fixed {
                source: NodeId(source as u32),
                dests: out,
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------------

enum Executed {
    Line(String),
    Shutdown(String),
}

fn request_id(v: &Value) -> Result<u64, Refusal> {
    match v.get("id") {
        Some(id) => as_uint(id, "id"),
        None => Err(bad_request("a request needs an integer `id`")),
    }
}

/// The traffic/chaos shared front half: topology + pattern + spec
/// fields, then [`traffic::run`] or [`traffic::run_chaos`].
fn run_load(chaos: bool, f: &mut Fields, opts: &ServeOptions) -> Result<String, Refusal> {
    let topology = str_field(f, "topology")?.unwrap_or("cube");
    let n: u8 = int_field(f, "n", 6)?;
    let rate = match float_field(f, "load")? {
        Some(r) if r > 0.0 => r,
        Some(_) => return Err(bad_request("`load` must be > 0 sessions/ms")),
        None => return Err(bad_request("`load` (sessions/ms) is required")),
    };
    let sessions: usize = int_field(f, "sessions", 100)?;
    if sessions == 0 {
        return Err(bad_request("`sessions` must be >= 1"));
    }
    if sessions > opts.max_sessions {
        return Err(oversized(format!(
            "{sessions} sessions exceed the cap of {}",
            opts.max_sessions
        )));
    }
    let arrivals = match str_field(f, "arrivals")? {
        None => ArrivalProcess::Poisson,
        Some(s) => ArrivalProcess::parse(s).map_err(bad_request)?,
    };
    let seed = uint_field(f, "seed", 1)?;
    let bytes = uint_field(f, "bytes", 4096)?;
    if bytes == 0 || bytes > u64::from(u32::MAX) {
        return Err(bad_request("`bytes` must be between 1 and 2^32-1"));
    }
    let bytes = bytes as u32;
    let source = uint_field(f, "source", 0)?;
    let port = parse_port(f)?;
    let params = SimParams::ncube2(port);
    let retry = if chaos {
        let mtbf = match float_field(f, "mtbf_ms")? {
            Some(x) if x > 0.0 => x,
            _ => return Err(bad_request("`mtbf_ms` must be a number > 0")),
        };
        let mttr = match float_field(f, "mttr_ms")? {
            Some(x) if x > 0.0 => x,
            _ => return Err(bad_request("`mttr_ms` must be a number > 0")),
        };
        let retries: u32 = int_field(f, "retries", 3)?;
        let backoff_us = uint_field(f, "backoff_us", 500)?;
        if backoff_us == 0 {
            return Err(bad_request("`backoff_us` must be >= 1"));
        }
        Some((mtbf, mttr, retries, backoff_us))
    } else {
        None
    };

    match topology {
        "cube" => {
            let algo = parse_algorithm(str_field(f, "algo")?.unwrap_or("wsort"))?;
            let cube = Cube::new(n).map_err(|e| bad_request(e.to_string()))?;
            if cube.node_count() > opts.max_nodes {
                return Err(oversized(format!(
                    "a {n}-cube ({} nodes) exceeds the cap of {} nodes",
                    cube.node_count(),
                    opts.max_nodes
                )));
            }
            let pattern = parse_pattern(f, source, cube.node_count(), opts)?;
            let spec = load_spec(arrivals, rate, pattern, sessions, seed, bytes);
            let backend = Backend::tree(cube, Resolution::HighToLow, algo);
            Ok(run_spec(algo.name(), spec, retry, backend, &params))
        }
        "torus" => {
            let arity: u16 = int_field(f, "arity", 4)?;
            let torus = Torus::new(arity, n).map_err(|e| bad_request(e.to_string()))?;
            if torus.node_count() > opts.max_nodes {
                return Err(oversized(format!(
                    "a {arity}-ary {n}-cube torus ({} nodes) exceeds the cap of {} nodes",
                    torus.node_count(),
                    opts.max_nodes
                )));
            }
            let pattern = parse_pattern(f, source, torus.node_count(), opts)?;
            let spec = load_spec(arrivals, rate, pattern, sessions, seed, bytes);
            let backend = Backend::Separate(TorusRouter::new(torus));
            Ok(run_spec("Separate", spec, retry, backend, &params))
        }
        other => Err(bad_request(format!(
            "unknown topology `{other}` (cube or torus)"
        ))),
    }
}

/// Runs a traffic spec, or its chaos wrapping when `retry` carries the
/// `(mtbf_ms, mttr_ms, retries, backoff_us)` of a chaos request, and
/// formats the report.
fn run_spec<R: hcube::Router + Copy>(
    label: &str,
    spec: TrafficSpec,
    retry: Option<(f64, f64, u32, u64)>,
    backend: Backend<R>,
    params: &SimParams,
) -> String {
    match retry {
        Some((mtbf, mttr, retries, backoff_us)) => {
            let spec = chaos_wrap(spec, mtbf, mttr, retries, backoff_us);
            let r = traffic::run_chaos(&spec, backend, params, RunOptions::default());
            chaos_report_json(label, &r, None)
        }
        None => {
            let r = traffic::run(&spec, backend, params, RunOptions::default());
            traffic_report_json(label, &r, None)
        }
    }
}

/// A single-shot multicast request: build the tree, replay it on an
/// idle network, return the CLI's summary object.
fn run_multicast(f: &mut Fields, opts: &ServeOptions) -> Result<String, Refusal> {
    let n: u8 = int_field(f, "n", 6)?;
    let cube = Cube::new(n).map_err(|e| bad_request(e.to_string()))?;
    if cube.node_count() > opts.max_nodes {
        return Err(oversized(format!(
            "a {n}-cube ({} nodes) exceeds the cap of {} nodes",
            cube.node_count(),
            opts.max_nodes
        )));
    }
    let algo = parse_algorithm(str_field(f, "algo")?.unwrap_or("wsort"))?;
    let source = uint_field(f, "source", 0)?;
    let seed = uint_field(f, "seed", 1)?;
    let bytes = uint_field(f, "bytes", 4096)?;
    if bytes == 0 || bytes > u64::from(u32::MAX) {
        return Err(bad_request("`bytes` must be between 1 and 2^32-1"));
    }
    let lanes = uint_field(f, "lanes", 1)?;
    if lanes == 0 || lanes > 16 {
        return Err(bad_request("`lanes` must be between 1 and 16"));
    }
    let port = parse_port(f)?;
    let pattern = parse_pattern(f, source, cube.node_count(), opts)?;
    let source = NodeId(source as u32);
    let dests = match pattern {
        DestPattern::Fixed { dests, .. } => dests,
        DestPattern::UniformRandom { m } => {
            // The CLI's exact draw, so `mcast --random M --seed S --json`
            // and the equivalent request return the same tree.
            let mut rng = crate::destsets::trial_rng("mcast-cli", 0, seed as usize);
            crate::destsets::random_dests(&mut rng, cube, source, m)
        }
        _ => unreachable!("parse_pattern only builds Fixed or UniformRandom"),
    };
    let tree = algo
        .build(cube, Resolution::HighToLow, port, source, &dests)
        .map_err(|e| bad_request(e.to_string()))?;
    let params = SimParams::ncube2(port);
    let report = wormsim::simulate_multicast_lanes(&tree, &params, bytes as u32, lanes as u8);
    Ok(multicast_report_json(algo.name(), &report, lanes as u8))
}

fn execute(
    v: &Value,
    received: Instant,
    opts: &ServeOptions,
    summary: &ServeSummary,
) -> Result<(Option<String>, Executed), Refusal> {
    let mut f = Fields::new(v)?;
    let _ = f.get("id");
    // An optional client correlation string, echoed verbatim in the
    // response wrapper. Arbitrary UTF-8 (the parser combines UTF-16
    // surrogate pairs, so non-BMP tags survive the round trip).
    let tag = str_field(&mut f, "tag")?.map(str::to_string);
    let op = str_field(&mut f, "op")?
        .ok_or_else(|| bad_request("`op` is required (traffic/chaos/multicast/stats/shutdown)"))?;
    if let Some(deadline_ms) = float_field(&mut f, "deadline_ms")? {
        if deadline_ms < 0.0 {
            return Err(bad_request("`deadline_ms` must be >= 0"));
        }
        let waited_ms = received.elapsed().as_secs_f64() * 1e3;
        if waited_ms > deadline_ms {
            return Err(Refusal {
                kind: "deadline_exceeded",
                message: format!("request waited {waited_ms:.1} ms, deadline {deadline_ms} ms"),
            });
        }
    }
    let executed = match op {
        "traffic" | "chaos" => {
            let line = run_load(op == "chaos", &mut f, opts)?;
            f.finish()?;
            Executed::Line(line)
        }
        "multicast" => {
            let line = run_multicast(&mut f, opts)?;
            f.finish()?;
            Executed::Line(line)
        }
        "stats" => {
            f.finish()?;
            Executed::Line(format!(
                "{{\"mode\":\"stats\",\"served\":{},\"errors\":{}}}",
                summary.served, summary.errors
            ))
        }
        "shutdown" => {
            f.finish()?;
            Executed::Shutdown(format!(
                "{{\"mode\":\"shutdown\",\"served\":{},\"errors\":{}}}",
                summary.served, summary.errors
            ))
        }
        other => return Err(bad_request(format!("unknown op `{other}`"))),
    };
    Ok((tag, executed))
}

// ---------------------------------------------------------------------------
// The request loop
// ---------------------------------------------------------------------------

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".into(), |i| i.to_string())
}

/// The optional `,"tag":"…"` wrapper member: present only when the
/// request carried a tag, so untagged responses keep their exact bytes.
fn tag_json(tag: Option<&str>) -> String {
    tag.map_or_else(String::new, |t| format!(",\"tag\":\"{}\"", escape(t)))
}

/// The reader half: one parsed line per queue slot. Blank lines are
/// skipped; a `shutdown` op stops the reader after forwarding it, so
/// the executor drains everything queued before it and the loop's
/// thread scope joins cleanly.
fn read_requests(mut input: impl BufRead, tx: mpsc::SyncSender<Job>, max_line_bytes: usize) {
    let mut line = String::new();
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let parsed = if trimmed.len() > max_line_bytes {
            Err(format!(
                "request line of {} bytes exceeds the cap of {max_line_bytes}",
                trimmed.len()
            ))
        } else {
            json::parse(trimmed).map_err(|e| e.to_string())
        };
        let shutdown = matches!(
            &parsed,
            Ok(v) if v.get("op").and_then(Value::as_str) == Some("shutdown")
        );
        if tx
            .send(Job {
                received: Instant::now(),
                parsed,
            })
            .is_err()
        {
            break;
        }
        if shutdown {
            break;
        }
    }
}

/// Runs the daemon: reads requests from `input` until EOF or a
/// `shutdown` request, writing one response line per request to
/// `output` in request order. A malformed line (`bad_json`) is the
/// only way a request can fail without an echoed id.
///
/// # Errors
///
/// Propagates `output` write failures; request-level problems become
/// error response lines instead.
pub fn serve_loop<R, W>(
    input: R,
    output: &mut W,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary>
where
    R: BufRead + Send,
    W: Write,
{
    let (tx, rx) = mpsc::sync_channel::<Job>(opts.max_inflight.max(1));
    let max_line_bytes = opts.max_line_bytes;
    std::thread::scope(|scope| {
        scope.spawn(move || read_requests(input, tx, max_line_bytes));
        let mut summary = ServeSummary::default();
        for job in rx {
            let (id, outcome) = match &job.parsed {
                Err(e) => (
                    None,
                    Err(Refusal {
                        kind: "bad_json",
                        message: e.clone(),
                    }),
                ),
                Ok(v) => match request_id(v) {
                    Err(r) => (None, Err(r)),
                    Ok(id) => (Some(id), execute(v, job.received, opts, &summary)),
                },
            };
            match outcome {
                Ok((tag, executed)) => {
                    let (Executed::Line(result) | Executed::Shutdown(result)) = &executed;
                    writeln!(
                        output,
                        "{{\"id\":{}{},\"ok\":true,\"result\":{result}}}",
                        id_json(id),
                        tag_json(tag.as_deref())
                    )?;
                    output.flush()?;
                    summary.served += 1;
                    if let Executed::Shutdown(_) = executed {
                        summary.shutdown = true;
                        break;
                    }
                }
                Err(refusal) => {
                    writeln!(
                        output,
                        "{{\"id\":{},\"ok\":false,\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
                        id_json(id),
                        refusal.kind,
                        escape(&refusal.message)
                    )?;
                    output.flush()?;
                    summary.errors += 1;
                }
            }
        }
        Ok(summary)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn serve(input: &str, opts: &ServeOptions) -> (Vec<String>, ServeSummary) {
        let mut out = Vec::new();
        let summary = serve_loop(Cursor::new(input.to_string()), &mut out, opts)
            .expect("writing to a Vec cannot fail");
        let lines = String::from_utf8(out)
            .expect("responses are UTF-8")
            .lines()
            .map(str::to_string)
            .collect();
        (lines, summary)
    }

    const TRAFFIC: &str = "{\"id\":1,\"op\":\"traffic\",\"n\":5,\"algo\":\"wsort\",\"load\":2.0,\
         \"random\":6,\"sessions\":40,\"seed\":7}";

    #[test]
    fn traffic_response_matches_the_one_shot_engine() {
        let (lines, summary) = serve(TRAFFIC, &ServeOptions::default());
        let spec = load_spec(
            ArrivalProcess::Poisson,
            2.0,
            DestPattern::UniformRandom { m: 6 },
            40,
            7,
            4096,
        );
        let report = traffic::run(
            &spec,
            traffic::Backend::tree(Cube::of(5), Resolution::HighToLow, Algorithm::WSort),
            &SimParams::ncube2(PortModel::AllPort),
            traffic::RunOptions::default(),
        );
        let expected = format!(
            "{{\"id\":1,\"ok\":true,\"result\":{}}}",
            traffic_report_json("W-sort", &report, None)
        );
        assert_eq!(lines, vec![expected]);
        assert_eq!(
            summary,
            ServeSummary {
                served: 1,
                errors: 0,
                shutdown: false
            }
        );
    }

    #[test]
    fn integers_too_large_for_their_field_are_refused_by_name() {
        // Each value passes the u64 check but would wrap into a small,
        // valid one if narrowed with `as`.
        let cases = [
            (
                "{\"id\":1,\"op\":\"multicast\",\"n\":262,\"dests\":[3,9]}",
                "`n`",
            ),
            (
                "{\"id\":2,\"op\":\"traffic\",\"n\":262,\"load\":1.0,\"random\":4}",
                "`n`",
            ),
            (
                "{\"id\":3,\"op\":\"traffic\",\"topology\":\"torus\",\"n\":2,\
                 \"arity\":65540,\"load\":1.0,\"random\":4}",
                "`arity`",
            ),
            (
                "{\"id\":4,\"op\":\"chaos\",\"n\":4,\"load\":1.0,\"random\":4,\
                 \"mtbf_ms\":8.0,\"mttr_ms\":2.0,\"retries\":4294967299}",
                "`retries`",
            ),
        ];
        for (request, field) in cases {
            let (lines, _) = serve(request, &ServeOptions::default());
            assert!(
                lines[0].contains("\"ok\":false,\"error\":{\"kind\":\"bad_request\"")
                    && lines[0].contains(&format!("{field} ")),
                "{request} -> {}",
                lines[0]
            );
        }
    }

    #[test]
    fn a_flood_through_one_slot_is_answered_once_each_in_order() {
        const REQUESTS: u64 = 1200;
        let mut input = String::new();
        for id in 0..REQUESTS {
            input.push_str(&match id % 4 {
                0 => format!("{{\"id\":{id},\"op\":\"stats\"}}\n"),
                1 => format!("{{\"id\":{id},\"op\":\"multicast\",\"n\":4,\"dests\":[3,9]}}\n"),
                2 => format!("{{\"id\":{id},\"op\":\"warp\"}}\n"),
                _ => format!(
                    "{{\"id\":{id},\"op\":\"traffic\",\"n\":3,\"load\":1.0,\
                     \"random\":2,\"sessions\":2,\"seed\":{id}}}\n"
                ),
            });
        }
        let opts = ServeOptions {
            max_inflight: 1,
            ..ServeOptions::default()
        };
        let (lines, summary) = serve(&input, &opts);
        assert_eq!(lines.len() as u64, REQUESTS);
        for (id, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{id},")),
                "response {id} out of order: {line}"
            );
        }
        assert_eq!(summary.served + summary.errors, REQUESTS);
        assert_eq!(summary.errors, REQUESTS / 4);
        assert!(!summary.shutdown);
    }

    #[test]
    fn responses_are_interleaving_invariant() {
        let chaos = "{\"id\":2,\"op\":\"chaos\",\"n\":5,\"algo\":\"combine\",\"load\":1.5,\
                     \"random\":5,\"sessions\":30,\"seed\":3,\"mtbf_ms\":8.0,\"mttr_ms\":2.0}";
        let ab = serve(&format!("{TRAFFIC}\n{chaos}\n"), &ServeOptions::default()).0;
        let ba = serve(&format!("{chaos}\n{TRAFFIC}\n"), &ServeOptions::default()).0;
        assert_eq!(ab.len(), 2);
        assert_eq!(
            ab[0], ba[1],
            "the traffic response depends on its neighbors"
        );
        assert_eq!(ab[1], ba[0], "the chaos response depends on its neighbors");
    }

    #[test]
    fn chaos_response_matches_the_one_shot_engine() {
        let req = "{\"id\":4,\"op\":\"chaos\",\"n\":5,\"algo\":\"wsort\",\"load\":1.5,\
                   \"random\":5,\"sessions\":30,\"seed\":3,\"mtbf_ms\":8.0,\"mttr_ms\":2.0}";
        let stats = "{\"id\":5,\"op\":\"stats\"}";
        let input = format!("{req}\n{req}\n{stats}\n");
        let (lines, _) = serve(&input, &ServeOptions::default());
        assert_eq!(
            lines[0].replace("\"id\":4", ""),
            lines[1].replace("\"id\":4", "")
        );

        let spec = chaos_wrap(
            load_spec(
                ArrivalProcess::Poisson,
                1.5,
                DestPattern::UniformRandom { m: 5 },
                30,
                3,
                4096,
            ),
            8.0,
            2.0,
            3,
            500,
        );
        let report = traffic::run_chaos(
            &spec,
            Backend::tree(Cube::of(5), Resolution::HighToLow, Algorithm::WSort),
            &SimParams::ncube2(PortModel::AllPort),
            RunOptions::default(),
        );
        assert_eq!(
            lines[0],
            format!(
                "{{\"id\":4,\"ok\":true,\"result\":{}}}",
                chaos_report_json("W-sort", &report, None)
            )
        );
        assert_eq!(
            lines[2],
            "{\"id\":5,\"ok\":true,\"result\":{\"mode\":\"stats\",\"served\":2,\"errors\":0}}"
        );
    }

    #[test]
    fn multicast_response_matches_the_single_shot_replay() {
        let req = "{\"id\":9,\"op\":\"multicast\",\"n\":6,\"algo\":\"maxport\",\
                   \"dests\":[3,9,17,33,60]}";
        let (lines, _) = serve(req, &ServeOptions::default());
        let cube = Cube::of(6);
        let dests: Vec<NodeId> = [3, 9, 17, 33, 60].iter().map(|&d| NodeId(d)).collect();
        let tree = Algorithm::Maxport
            .build(
                cube,
                Resolution::HighToLow,
                PortModel::AllPort,
                NodeId(0),
                &dests,
            )
            .expect("a valid destination set builds");
        let report = wormsim::simulate_multicast_lanes(
            &tree,
            &SimParams::ncube2(PortModel::AllPort),
            4096,
            1,
        );
        assert_eq!(
            lines,
            vec![format!(
                "{{\"id\":9,\"ok\":true,\"result\":{}}}",
                multicast_report_json("Maxport", &report, 1)
            )]
        );
    }

    #[test]
    fn tag_echo_round_trips_non_bmp_strings_through_a_live_cycle() {
        // A standards-compliant client escapes U+1F600 as a UTF-16
        // surrogate pair; the daemon must echo the combined scalar, not
        // two replacement characters.
        let req = "{\"id\":11,\"op\":\"stats\",\"tag\":\"grin \\ud83d\\ude00 done\"}";
        let (lines, _) = serve(req, &ServeOptions::default());
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("{\"id\":11,\"tag\":\"grin 😀 done\",\"ok\":true"),
            "{}",
            lines[0]
        );
        // The response line itself parses, and the echoed field is the
        // exact original string — the full client-side round trip.
        let v = json::parse(&lines[0]).expect("response is valid JSON");
        assert_eq!(v["tag"], "grin 😀 done");
        assert_eq!(v["id"], 11.0);
    }

    #[test]
    fn untagged_responses_keep_their_exact_bytes() {
        let tagged = "{\"id\":1,\"op\":\"stats\",\"tag\":\"t\"}";
        let plain = "{\"id\":1,\"op\":\"stats\"}";
        let (with_tag, _) = serve(tagged, &ServeOptions::default());
        let (without, _) = serve(plain, &ServeOptions::default());
        assert_eq!(with_tag[0].replace(",\"tag\":\"t\"", ""), without[0]);
        assert!(!without[0].contains("\"tag\""));
    }

    #[test]
    fn lone_surrogate_requests_are_rejected_as_bad_json() {
        let req = "{\"id\":12,\"op\":\"stats\",\"tag\":\"broken \\ud83d\"}";
        let (lines, summary) = serve(req, &ServeOptions::default());
        assert!(lines[0].contains("\"kind\":\"bad_json\""), "{}", lines[0]);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn malformed_requests_get_typed_errors_and_the_daemon_stays_up() {
        let input = concat!(
            "this is not json\n",
            "{\"op\":\"traffic\",\"load\":1.0,\"random\":4}\n",
            "{\"id\":2,\"op\":\"warp\"}\n",
            "{\"id\":3,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"frobnicate\":1}\n",
            "{\"id\":4,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"sessions\":999999}\n",
            "{\"id\":5,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"deadline_ms\":0}\n",
            "{\"id\":6,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"sessions\":20,\"n\":5}\n",
            "{\"id\":8,\"op\":\"traffic\",\"load\":1.0,\"random\":4,\"workers\":2}\n",
            "{\"id\":7,\"op\":\"shutdown\"}\n",
        );
        let (lines, summary) = serve(input, &ServeOptions::default());
        assert_eq!(lines.len(), 9);
        assert!(lines[0].starts_with("{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"bad_json\""));
        assert!(
            lines[1].starts_with("{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"bad_request\"")
        );
        assert!(lines[2].contains("\"kind\":\"bad_request\"") && lines[2].contains("unknown op"));
        assert!(lines[3].contains("\"kind\":\"bad_request\"") && lines[3].contains("frobnicate"));
        assert!(lines[4].contains("\"kind\":\"oversized\""));
        assert!(lines[5].contains("\"kind\":\"deadline_exceeded\""));
        assert!(
            lines[6].starts_with("{\"id\":6,\"ok\":true,"),
            "the daemon keeps serving after errors: {}",
            lines[6]
        );
        assert!(
            lines[7].contains("\"kind\":\"bad_request\"") && lines[7].contains("`workers`"),
            "there is no worker pool to ask for: {}",
            lines[7]
        );
        assert!(lines[8].contains("\"mode\":\"shutdown\""));
        assert_eq!(
            summary,
            ServeSummary {
                served: 2,
                errors: 7,
                shutdown: true
            }
        );
    }

    #[test]
    fn shutdown_drains_the_queue_and_ignores_later_lines() {
        let input = format!("{TRAFFIC}\n{{\"id\":8,\"op\":\"shutdown\"}}\n{TRAFFIC}\n");
        let (lines, summary) = serve(&input, &ServeOptions::default());
        assert_eq!(lines.len(), 2, "nothing after shutdown is served");
        assert!(lines[0].starts_with("{\"id\":1,\"ok\":true,"));
        assert!(lines[1].contains("\"mode\":\"shutdown\",\"served\":1,\"errors\":0"));
        assert!(summary.shutdown);
    }

    #[test]
    fn escape_handles_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
