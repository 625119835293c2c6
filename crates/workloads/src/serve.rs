//! Long-running service mode: the `mcast serve` request loop.
//!
//! The one-shot CLI pays the process spawn and argument parse on every
//! invocation. This module turns the same requests into a daemon:
//! newline-delimited JSON requests on stdin, newline-delimited JSON
//! responses on stdout. A request's members decode into the same
//! [`Request`] the CLI's flags parse into (see [`crate::request`]), in
//! one pass over the object; it is validated under this server's caps
//! and run by the same [`request::execute`].
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
//! with `kind` one of `bad_json` (the line is not UTF-8 JSON),
//! `bad_request` (unknown op, a field its op does not take, or a value
//! the request's rules refuse, including an integer too large for its
//! field), `oversized` (a value exceeds the server's configured caps),
//! or `deadline_exceeded` (the request carried a `deadline_ms` and spent
//! longer than that queued). Modes only the CLI runs (collectives, the
//! mesh, faults, traces, lanes on traffic) are refused the same way.
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
//! [`multicast_report_json`]) live here and serve both front ends, so
//! with the shared request model serve-vs-CLI equivalence is
//! structural, not coincidental.

use std::convert::Infallible;
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::time::Instant;

use hypercast::RetryPolicy;
use traffic::{
    ArrivalProcess, Arrivals, ChaosReport, ChaosSpec, ChurnSpec, DestPattern, TrafficReport,
    TrafficSpec,
};
use wormsim::{SimReport, SimTime};

use crate::json::{self, Value};
use crate::request::{
    self, apply_flag, bad, Arg, Flags, LoadReport, Reports, Request, RequestError,
};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// `mcast serve --max-inflight N --max-sessions N`.
impl Flags for ServeOptions {
    fn set_flag(
        &mut self,
        flag: &str,
        rest: &mut std::slice::Iter<'_, String>,
    ) -> Option<Result<(), String>> {
        Some(match flag {
            "--max-inflight" => apply_flag(&mut self.max_inflight, flag, rest).and_then(|()| {
                match self.max_inflight {
                    0 => Err(format!("{flag} must be > 0")),
                    _ => Ok(()),
                }
            }),
            "--max-sessions" => apply_flag(&mut self.max_sessions, flag, rest),
            _ => return None,
        })
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
// Request decoding and execution
// ---------------------------------------------------------------------------

struct Job {
    received: Instant,
    parsed: Result<Value, String>,
}

enum Executed {
    Line(String),
    Shutdown(String),
}

fn request_id(v: &Value) -> Result<u64, RequestError> {
    match v.get("id") {
        Some(id) => u64::from_json(id, "`id`").map_err(bad),
        None => Err(bad("a request needs an integer `id`")),
    }
}

/// The serve ops, in the order of their request-field bits; `stats` and
/// `shutdown` share the last slot, which no request field accepts.
const OPS: [&str; 5] = ["traffic", "chaos", "multicast", "stats", "shutdown"];

/// Decodes a request in one pass over its members, then runs it. The
/// envelope members (`id`, `op`, `tag`, `deadline_ms`) are read here,
/// every other one by [`Request`]'s declaration. A member the op does
/// not accept is refused as an unknown field.
fn execute(
    v: &Value,
    received: Instant,
    opts: &ServeOptions,
    summary: &ServeSummary,
) -> Result<(Option<String>, Executed), RequestError> {
    let Value::Object(members) = v else {
        return Err(bad("a request must be a JSON object"));
    };
    let mut req = Request::serve(opts);
    let (mut op, mut tag, mut deadline_ms) = (None, None, None);
    // The first member each op slot refuses, in member order. A repeated
    // member is refused by every op, like an unknown one.
    let mut refused: [Option<&str>; 4] = [None; 4];
    for (i, (key, value)) in members.iter().enumerate() {
        let repeated = members[..i].iter().any(|(earlier, _)| earlier == key);
        let accepted = match key.as_str() {
            _ if repeated => 0,
            "id" => continue,
            "op" => {
                op = Some(value.as_str().ok_or_else(|| bad("`op` must be a string"))?);
                continue;
            }
            // An optional client correlation string, echoed verbatim in
            // the response wrapper. Arbitrary UTF-8 (the parser combines
            // UTF-16 surrogate pairs, so non-BMP tags survive).
            "tag" => {
                tag = Some(String::from_json(value, "`tag`").map_err(bad)?);
                continue;
            }
            "deadline_ms" => {
                deadline_ms = Some(f64::from_json(value, "`deadline_ms`").map_err(bad)?);
                continue;
            }
            _ => req.decode_member(key, value)?.unwrap_or(0),
        };
        for (bit, slot) in refused.iter_mut().enumerate() {
            if accepted & (1 << bit) == 0 && slot.is_none() {
                *slot = Some(key);
            }
        }
    }
    let op = op.ok_or_else(|| bad("`op` is required (traffic/chaos/multicast/stats/shutdown)"))?;
    let slot = OPS
        .iter()
        .position(|&o| o == op)
        .ok_or_else(|| bad(format!("unknown op `{op}`")))?
        .min(3);
    if let Some(deadline_ms) = deadline_ms {
        if deadline_ms < 0.0 {
            return Err(bad("`deadline_ms` must be >= 0"));
        }
        let waited_ms = received.elapsed().as_secs_f64() * 1e3;
        if waited_ms > deadline_ms {
            return Err(RequestError {
                kind: "deadline_exceeded",
                message: format!("request waited {waited_ms:.1} ms, deadline {deadline_ms} ms"),
            });
        }
    }
    if let Some(key) = refused[slot] {
        return Err(bad(format!("unknown field `{key}`")));
    }
    let counts = |mode| {
        format!(
            "{{\"mode\":\"{mode}\",\"served\":{},\"errors\":{}}}",
            summary.served, summary.errors
        )
    };
    let executed = match op {
        "stats" => Executed::Line(counts(op)),
        "shutdown" => Executed::Shutdown(counts(op)),
        _ => {
            if op != "multicast" && req.load.is_none() {
                return Err(bad("`load` (sessions/ms) is required"));
            }
            if op == "chaos" && req.churn.is_none() {
                return Err(bad("`mtbf_ms` and `mttr_ms` are required"));
            }
            Executed::Line(result_json(&req)?)
        }
    };
    Ok((tag, executed))
}

/// Runs a decoded request and formats its one report.
fn result_json(req: &Request) -> Result<String, RequestError> {
    Ok(match request::execute(req)?.reports {
        Reports::Load(runs) => runs
            .iter()
            .map(|(label, report)| match report {
                LoadReport::Traffic(r) => traffic_report_json(label, r, None),
                LoadReport::Chaos(r) => chaos_report_json(label, r, None),
            })
            .collect(),
        Reports::Tree(runs) => runs
            .iter()
            .map(|run| multicast_report_json(run.algo.name(), &run.report, req.lanes.unwrap_or(1)))
            .collect(),
        Reports::Separate(..) | Reports::Collective(_) => {
            return Err(bad("serve runs traffic, chaos and multicast requests"))
        }
    })
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
/// skipped and a line that is not UTF-8 is `bad_json`; a `shutdown` op
/// stops the reader after forwarding it, so the executor drains
/// everything queued before it and the loop's thread scope joins
/// cleanly.
fn read_requests(mut input: impl BufRead, tx: mpsc::SyncSender<Job>, max_line_bytes: usize) {
    let mut line = Vec::new();
    loop {
        line.clear();
        match input.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let parsed = match std::str::from_utf8(&line).map(str::trim) {
            Err(_) => Err("the request line is not UTF-8".to_string()),
            Ok("") => continue,
            Ok(trimmed) if trimmed.len() > max_line_bytes => Err(format!(
                "request line of {} bytes exceeds the cap of {max_line_bytes}",
                trimmed.len()
            )),
            Ok(trimmed) => json::parse(trimmed).map_err(|e| e.to_string()),
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
                    Err(RequestError {
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
    use hcube::{Cube, NodeId, Resolution};
    use hypercast::{Algorithm, PortModel};
    use std::io::Cursor;
    use traffic::{Backend, RunOptions};
    use wormsim::SimParams;

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
        let report =
            wormsim::simulate_multicast(&tree, &SimParams::ncube2(PortModel::AllPort), 4096);
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
    fn schedules_beyond_the_simulated_clock_are_refused() {
        // 3 sessions at 1e-300/ms would arrive ~1e306 ns apart.
        let req =
            "{\"id\":1,\"op\":\"traffic\",\"n\":4,\"load\":1e-300,\"random\":3,\"sessions\":3}";
        let (lines, _) = serve(req, &ServeOptions::default());
        assert!(
            lines[0].starts_with("{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"bad_request\"")
                && lines[0].contains("`load`"),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn churn_and_retry_extremes_are_refused_or_saturate() {
        let chaos = "\"op\":\"chaos\",\"n\":3,\"load\":1,\"random\":2,\"sessions\":3";
        let input = format!(
            "{{\"id\":1,{chaos},\"mtbf_ms\":1e-9,\"mttr_ms\":1}}\n\
             {{\"id\":2,{chaos},\"mtbf_ms\":5,\"mttr_ms\":1e300}}\n\
             {{\"id\":3,{chaos},\"mtbf_ms\":5,\"mttr_ms\":1,\
             \"retries\":4294967295,\"backoff_us\":9000000000000000}}\n"
        );
        let (lines, _) = serve(&input, &ServeOptions::default());
        // Billions of failures, and repairs beyond the simulated clock.
        assert!(
            lines[0].contains("\"kind\":\"bad_request\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"kind\":\"bad_request\""),
            "{}",
            lines[1]
        );
        // The largest retry budget and backoff run: the relaunch
        // saturates past the horizon instead of overflowing.
        assert!(
            lines[2].starts_with("{\"id\":3,\"ok\":true"),
            "{}",
            lines[2]
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
