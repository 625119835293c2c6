//! The flight recorder: session-level spans and windowed time-series
//! telemetry over the traffic and chaos engines.
//!
//! [`RunOptions::telemetry`](crate::RunOptions::telemetry) runs the
//! **same workload as the plain run, once, observed** — probes are
//! statically dispatched and never perturb the engine (pinned by the
//! byte-identity tests), so the returned report is byte-identical to
//! the unobserved run and the telemetry is derived from the very same
//! [`wormsim::RunResult`]s.
//!
//! Two views come out of one run:
//!
//! * **Spans** ([`SessionTrace`]) — one trace per session, causally
//!   chaining every attempt of its retry/repair chain, each with an
//!   *exact* latency decomposition ([`PhaseBreakdown`]): scheduler
//!   queueing (launch → injection of the critical message), head-flit
//!   blocking (the critical message's accumulated channel waits), and
//!   pure transit. The decomposition is exact in integer nanoseconds:
//!   `queueing + blocked + transit` equals the attempt's duration, and
//!   summing attempt durations plus the inter-attempt
//!   [`SessionTrace::backoff`] gaps
//!   reproduces the session's end-to-end latency to the nanosecond.
//!   Tree construction is instantaneous in simulated time (builds happen
//!   between waves), so it appears in the taxonomy as a zero-duration
//!   phase and never in the decomposition.
//! * **Time-series** ([`TimeSeries`]) — the observation window cut into
//!   fixed buckets, each carrying offered/delivered session counts,
//!   goodput, a log₂ latency histogram with p50/p95/p99, cache hit
//!   counters, the live fault-element count at the bucket's start, and
//!   per-dimension head-flit blocked time (attributed from the probe's
//!   closed blocking intervals). The series is built by a deterministic
//!   fold over the session traces — byte-identical no matter how a
//!   caller later shards sessions across workers.
//!
//! **Reconciliation contract.** Bucket sums equal the aggregate report
//! exactly: Σ offered = sessions, Σ delivered = delivered sessions,
//! Σ cache lookups/hits = the report's cache counters, and Σ per-dim
//! blocked time = [`wormsim::NetStats::blocked_time`] (external
//! contention; hop-0 and virtual-channel port waits are excluded, same
//! classification as the engine's own accounting). The tests in this
//! module pin every identity.
//!
//! Exporters: [`Telemetry::to_chrome_trace`] (Perfetto, one track per
//! epoch wave plus counter tracks for the series),
//! [`Telemetry::to_metrics`] (a [`wormsim::MetricsRegistry`] for
//! Prometheus/JSON), and hand-rolled JSON documents
//! ([`Telemetry::spans_to_json_string`], [`TimeSeries::to_json_string`])
//! — the build environment is offline, so serialization leans on
//! [`wormsim::json_escape`] instead of serde.

use crate::chaos::{classify, Attempt, AttemptOutcome, ChaosReport, SessionFailure, WaveSpan};
use crate::engine::{SessionWorkload, TrafficSpec};
use crate::stats::Quantiles;
use hcube::Router;
use wormsim::{
    json_escape, BlockedInterval, ChannelMap, FaultEpoch, FaultPlan, Histogram, MessageResult,
    MetricsRegistry, Probe, RunResult, SimTime,
};

/// Telemetry layer configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Number of fixed-width time-series buckets the observation window
    /// is cut into (clamped to at least 1).
    pub buckets: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig { buckets: 24 }
    }
}

impl TelemetryConfig {
    /// A config with `buckets` time-series buckets.
    #[must_use]
    pub fn new(buckets: usize) -> TelemetryConfig {
        TelemetryConfig { buckets }
    }
}

/// Exact latency decomposition of one attempt, from its **critical
/// message** (the constituent message that resolved last — the one that
/// determined the attempt's completion).
///
/// The three phases partition the attempt's duration exactly:
/// `queueing + blocked + transit == resolution − launch` in integer
/// nanoseconds. An attempt whose critical message never entered the
/// network (failed before injection) charges its whole duration to
/// `queueing`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Launch → injection of the critical message: dependency waiting
    /// plus serialized send-software startup.
    pub queueing: SimTime,
    /// The critical message's accumulated channel-blocked time (head
    /// flit waiting for busy channels, external or virtual).
    pub blocked: SimTime,
    /// Everything else between injection and resolution: header hops
    /// and payload drain.
    pub transit: SimTime,
}

impl PhaseBreakdown {
    /// `queueing + blocked + transit` — exactly the attempt duration.
    #[must_use]
    pub fn total(&self) -> SimTime {
        SimTime::from_ns(self.queueing.as_ns() + self.blocked.as_ns() + self.transit.as_ns())
    }
}

/// How one attempt (or a plain traffic session's single attempt) ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Every constituent message delivered.
    Delivered,
    /// A constituent message hit a fault.
    Faulted,
    /// The (repaired) tree could not cover every requested destination.
    Unreachable,
    /// Cut off by the observation-window horizon.
    WindowCut,
}

impl SpanOutcome {
    /// Stable lower-case label (used by the JSON and Perfetto exporters).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SpanOutcome::Delivered => "delivered",
            SpanOutcome::Faulted => "faulted",
            SpanOutcome::Unreachable => "unreachable",
            SpanOutcome::WindowCut => "window_cut",
        }
    }
}

/// One attempt's span: launch → resolution, with its exact phase
/// decomposition.
#[derive(Clone, Debug)]
pub struct AttemptSpan {
    /// Attempt number within the session (1 = first attempt).
    pub number: u32,
    /// Index of the epoch wave this attempt was simulated in (0 for the
    /// plain traffic path, which runs as one wave).
    pub wave: usize,
    /// When the attempt launched (the session arrival, or the
    /// backoff-delayed relaunch for retries).
    pub launch: SimTime,
    /// When the attempt resolved: last delivery, or abort time.
    pub resolution: SimTime,
    /// How the attempt ended.
    pub outcome: SpanOutcome,
    /// Whether the attempt's tree came out of the cache; `None` when
    /// the path performs no cache lookup (separate addressing).
    pub cache_hit: Option<bool>,
    /// Constituent messages simulated for this attempt.
    pub messages: usize,
    /// The exact latency decomposition.
    pub phases: PhaseBreakdown,
}

impl AttemptSpan {
    /// `resolution − launch`.
    #[must_use]
    pub fn duration(&self) -> SimTime {
        self.resolution.saturating_sub(self.launch)
    }
}

/// One session's full trace: its attempts, causally chained through the
/// retry/repair machinery, plus the inter-attempt backoff total.
///
/// Invariant (pinned by tests): `Σ attempt durations + backoff ==
/// completion − arrival` exactly.
#[derive(Clone, Debug)]
pub struct SessionTrace {
    /// Session index (arrival order; matches the report's session list).
    pub session: usize,
    /// When the session first entered the network.
    pub arrival: SimTime,
    /// When its final attempt resolved.
    pub completion: SimTime,
    /// Whether every requested destination was delivered to.
    pub delivered: bool,
    /// Total time spent in backoff gaps between attempts.
    pub backoff: SimTime,
    /// The attempts, in attempt-number order.
    pub attempts: Vec<AttemptSpan>,
}

impl SessionTrace {
    /// `completion − arrival`.
    #[must_use]
    pub fn latency(&self) -> SimTime {
        self.completion.saturating_sub(self.arrival)
    }
}

/// One fixed-width bucket of the windowed time-series.
#[derive(Clone, Debug)]
pub struct TelemetryBucket {
    /// Bucket start time.
    pub start: SimTime,
    /// Sessions that *arrived* in this bucket.
    pub offered: u64,
    /// Delivered sessions that *completed* in this bucket.
    pub delivered: u64,
    /// `delivered` per millisecond of bucket width — the goodput curve.
    pub goodput_per_ms: f64,
    /// Log₂ histogram of latencies (ns) of sessions completing here.
    pub latency: Histogram,
    /// p50/p95/p99 of that histogram (NaN when the bucket is empty).
    pub quantiles: Quantiles,
    /// Tree-cache hits among lookups performed in this bucket.
    pub cache_hits: u64,
    /// Tree-cache lookups (one per attempt launch, cube paths only).
    pub cache_lookups: u64,
    /// Fault elements (links, lanes, nodes) down at the bucket's start.
    pub live_faults: u64,
    /// Head-flit blocked time on external channels, by topology
    /// dimension (hop-0 and virtual-channel port waits excluded — the
    /// engine's own contention classification).
    pub blocked_ns_per_dim: Vec<u64>,
}

/// The windowed time-series: `[0, horizon)` cut into fixed buckets.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    /// The observation window the series covers.
    pub horizon: SimTime,
    /// Bucket width in nanoseconds (`ceil(horizon / buckets)`; events
    /// past the nominal end clamp into the final bucket).
    pub bucket_ns: u64,
    /// Topology dimensions (length of each bucket's per-dim vector).
    pub dims: u8,
    /// The buckets, in time order.
    pub buckets: Vec<TelemetryBucket>,
}

impl TimeSeries {
    /// Serializes the series as a standalone JSON document
    /// (`telemetry-timeseries/v1`). Times in milliseconds; the latency
    /// histogram as trimmed log₂ bucket counts.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"telemetry-timeseries/v1\",\n");
        out.push_str(&format!(
            "  \"horizon_ms\": {},\n",
            jf(self.horizon.as_ms())
        ));
        out.push_str(&format!(
            "  \"bucket_ms\": {},\n",
            jf(self.bucket_ns as f64 / 1e6)
        ));
        out.push_str(&format!("  \"dims\": {},\n", self.dims));
        out.push_str("  \"buckets\": [\n");
        for (i, b) in self.buckets.iter().enumerate() {
            let mut hist = b.latency.counts();
            while hist.last() == Some(&0) {
                hist.pop();
            }
            let hist: Vec<String> = hist.iter().map(u64::to_string).collect();
            let dims: Vec<String> = b.blocked_ns_per_dim.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    {{\"start_ms\": {}, \"offered\": {}, \"delivered\": {}, \
                 \"goodput_per_ms\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \
                 \"cache_hits\": {}, \"cache_lookups\": {}, \"live_faults\": {}, \
                 \"blocked_ns_per_dim\": [{}], \"latency_hist\": [{}]}}{}\n",
                jf(b.start.as_ms()),
                b.offered,
                b.delivered,
                jf(b.goodput_per_ms),
                jf(b.quantiles.p50_ms),
                jf(b.quantiles.p95_ms),
                jf(b.quantiles.p99_ms),
                b.cache_hits,
                b.cache_lookups,
                b.live_faults,
                dims.join(", "),
                hist.join(", "),
                if i + 1 < self.buckets.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The full telemetry of one observed run: session spans plus the
/// windowed time-series.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// One trace per session, in arrival order.
    pub sessions: Vec<SessionTrace>,
    /// The windowed time-series.
    pub series: TimeSeries,
    /// Number of epoch waves the run was simulated in (1 for the plain
    /// traffic path).
    pub waves: usize,
}

impl Telemetry {
    /// Serializes the session spans as a standalone JSON document
    /// (`telemetry-spans/v1`). All times are integer nanoseconds so the
    /// exact-decomposition invariant survives serialization.
    #[must_use]
    pub fn spans_to_json_string(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"telemetry-spans/v1\",\n");
        out.push_str(&format!("  \"waves\": {},\n", self.waves));
        out.push_str("  \"sessions\": [\n");
        for (i, s) in self.sessions.iter().enumerate() {
            let attempts: Vec<String> = s
                .attempts
                .iter()
                .map(|a| {
                    format!(
                        "{{\"number\": {}, \"wave\": {}, \"launch_ns\": {}, \
                         \"resolution_ns\": {}, \"outcome\": \"{}\", \"cache_hit\": {}, \
                         \"messages\": {}, \"queueing_ns\": {}, \"blocked_ns\": {}, \
                         \"transit_ns\": {}}}",
                        a.number,
                        a.wave,
                        a.launch.as_ns(),
                        a.resolution.as_ns(),
                        a.outcome.label(),
                        match a.cache_hit {
                            Some(true) => "true",
                            Some(false) => "false",
                            None => "null",
                        },
                        a.messages,
                        a.phases.queueing.as_ns(),
                        a.phases.blocked.as_ns(),
                        a.phases.transit.as_ns(),
                    )
                })
                .collect();
            out.push_str(&format!(
                "    {{\"session\": {}, \"arrival_ns\": {}, \"completion_ns\": {}, \
                 \"delivered\": {}, \"backoff_ns\": {}, \"attempts\": [{}]}}{}\n",
                s.session,
                s.arrival.as_ns(),
                s.completion.as_ns(),
                s.delivered,
                s.backoff.as_ns(),
                attempts.join(", "),
                if i + 1 < self.sessions.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes the telemetry as Chrome/Perfetto trace JSON: one
    /// track (`tid`) per **epoch wave** on a "sessions (by wave)"
    /// process — each attempt a slice named `s<session>#<attempt>`
    /// carrying its decomposition in `args` — plus counter tracks for
    /// the time-series (goodput, live faults, cache hit rate, p95).
    /// Loadable in `ui.perfetto.dev` and `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from(
            "{\n  \"displayTimeUnit\": \"ns\",\n  \"otherData\": {\"generator\": \"traffic-telemetry\"},\n  \"traceEvents\": [\n",
        );
        let mut first = true;
        let mut emit = |s: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("    ");
            out.push_str(&s);
        };
        emit(
            "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"sessions (by wave)\"}}".into(),
            &mut out,
        );
        emit(
            "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \"telemetry series\"}}".into(),
            &mut out,
        );
        for w in 0..self.waves.max(1) {
            emit(
                format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {w}, \"name\": \"thread_name\", \"args\": {{\"name\": \"{}\"}}}}",
                    json_escape(&format!("wave {w}"))
                ),
                &mut out,
            );
        }
        for s in &self.sessions {
            for a in &s.attempts {
                emit(
                    format!(
                        "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                         \"name\": \"s{}#{}\", \"args\": {{\"session\": {}, \"outcome\": \"{}\", \
                         \"cache_hit\": {}, \"queueing_ns\": {}, \"blocked_ns\": {}, \
                         \"transit_ns\": {}}}}}",
                        a.wave,
                        format_us(a.launch.as_ns()),
                        format_us(a.duration().as_ns().max(1)),
                        s.session,
                        a.number,
                        s.session,
                        a.outcome.label(),
                        match a.cache_hit {
                            Some(true) => "true",
                            Some(false) => "false",
                            None => "null",
                        },
                        a.phases.queueing.as_ns(),
                        a.phases.blocked.as_ns(),
                        a.phases.transit.as_ns(),
                    ),
                    &mut out,
                );
            }
        }
        for b in &self.series.buckets {
            let ts = format_us(b.start.as_ns());
            let hit_rate = if b.cache_lookups > 0 {
                b.cache_hits as f64 / b.cache_lookups as f64
            } else {
                0.0
            };
            for (name, value) in [
                ("goodput_per_ms", jf(b.goodput_per_ms)),
                ("offered", b.offered.to_string()),
                ("live_faults", b.live_faults.to_string()),
                ("cache_hit_rate", jf(hit_rate)),
                (
                    "p95_ms",
                    if b.quantiles.p95_ms.is_finite() {
                        jf(b.quantiles.p95_ms)
                    } else {
                        "0".into()
                    },
                ),
            ] {
                emit(
                    format!(
                        "{{\"ph\": \"C\", \"pid\": 2, \"tid\": 0, \"ts\": {ts}, \"name\": \"{name}\", \"args\": {{\"{name}\": {value}}}}}"
                    ),
                    &mut out,
                );
            }
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Aggregates the telemetry into a [`MetricsRegistry`] for the
    /// Prometheus-text and metrics-JSON exporters.
    #[must_use]
    pub fn to_metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc("telemetry_sessions_total", self.sessions.len() as u64);
        reg.inc(
            "telemetry_sessions_delivered_total",
            self.sessions.iter().filter(|s| s.delivered).count() as u64,
        );
        reg.inc(
            "telemetry_attempts_total",
            self.sessions.iter().map(|s| s.attempts.len() as u64).sum(),
        );
        let (mut lookups, mut hits) = (0u64, 0u64);
        for s in &self.sessions {
            for a in &s.attempts {
                if let Some(hit) = a.cache_hit {
                    lookups += 1;
                    hits += u64::from(hit);
                }
                if a.outcome == SpanOutcome::Delivered {
                    reg.observe("attempt_queueing_ns", a.phases.queueing.as_ns());
                    reg.observe("attempt_blocked_ns", a.phases.blocked.as_ns());
                    reg.observe("attempt_transit_ns", a.phases.transit.as_ns());
                }
            }
            if s.delivered {
                reg.observe("session_latency_ns", s.latency().as_ns());
                reg.observe("session_backoff_ns", s.backoff.as_ns());
            }
        }
        reg.inc("telemetry_cache_lookups_total", lookups);
        reg.inc("telemetry_cache_hits_total", hits);
        reg.inc(
            "telemetry_blocked_ns_total",
            self.series
                .buckets
                .iter()
                .flat_map(|b| b.blocked_ns_per_dim.iter())
                .sum(),
        );
        reg.set_gauge("telemetry_waves", self.waves as f64);
        reg.set_gauge("telemetry_buckets", self.series.buckets.len() as f64);
        reg.set_gauge("telemetry_bucket_ms", self.series.bucket_ns as f64 / 1e6);
        reg
    }
}

/// The telemetry probe: records every head-flit blocking episode as a
/// closed `[from, until)` interval, closing at the grant — exactly when
/// the engine charges the wait to its own accounting, so the closed
/// intervals reconcile with [`wormsim::NetStats`] to the nanosecond.
/// Waits still open at an abort are discarded (the engine never charges
/// them either).
#[derive(Clone, Debug, Default)]
pub struct TelemetryProbe {
    /// Per-message open wait: `(channel, hop, since)`.
    waiting: Vec<Option<(usize, usize, SimTime)>>,
    closed: Vec<BlockedInterval>,
}

impl TelemetryProbe {
    /// A fresh probe.
    #[must_use]
    pub fn new() -> TelemetryProbe {
        TelemetryProbe::default()
    }

    /// Drains the closed intervals and resets the per-message wait
    /// table (message indices restart per wave).
    pub fn take_intervals(&mut self) -> Vec<BlockedInterval> {
        self.waiting.clear();
        std::mem::take(&mut self.closed)
    }
}

impl Probe for TelemetryProbe {
    #[inline]
    fn on_channel_blocked(&mut self, t: SimTime, msg: usize, ch: usize, hop: usize, _depth: usize) {
        if msg >= self.waiting.len() {
            self.waiting.resize(msg + 1, None);
        }
        // A stall-window retry re-blocks on the same channel: the wait
        // is continuous, so keep the original start.
        match self.waiting[msg] {
            Some((wch, _, _)) if wch == ch => {}
            _ => self.waiting[msg] = Some((ch, hop, t)),
        }
    }

    #[inline]
    fn on_channel_granted(&mut self, t: SimTime, msg: usize, _ch: usize, _hop: usize) {
        if let Some(slot) = self.waiting.get_mut(msg) {
            if let Some((channel, hop, from)) = slot.take() {
                self.closed.push(BlockedInterval {
                    message: msg,
                    channel,
                    hop,
                    from,
                    until: t,
                });
            }
        }
    }
}

/// Computes one attempt's resolution time and exact phase breakdown
/// from its constituent message results.
fn decompose(launch: SimTime, msgs: &[MessageResult]) -> (SimTime, PhaseBreakdown) {
    let resolution = msgs
        .iter()
        .map(|m| m.delivered)
        .max()
        .unwrap_or(launch)
        .max(launch);
    let duration = resolution.saturating_sub(launch);
    let critical = msgs.iter().max_by_key(|m| m.delivered);
    let phases = match critical {
        Some(c) if c.injected != SimTime::ZERO && c.injected >= launch => {
            let queueing = c.injected.saturating_sub(launch);
            let after_inject = resolution.saturating_sub(c.injected);
            let blocked = SimTime::from_ns(c.blocked_time.as_ns().min(after_inject.as_ns()));
            PhaseBreakdown {
                queueing,
                blocked,
                transit: after_inject.saturating_sub(blocked),
            }
        }
        // Never injected (failed before entering the network): the
        // whole duration is queueing by definition.
        _ => PhaseBreakdown {
            queueing: duration,
            blocked: SimTime::ZERO,
            transit: SimTime::ZERO,
        },
    };
    (resolution, phases)
}

/// Maps the chaos engine's attempt classification onto the span
/// outcome vocabulary.
fn outcome_of(outcome: &AttemptOutcome) -> SpanOutcome {
    match outcome {
        AttemptOutcome::Delivered => SpanOutcome::Delivered,
        AttemptOutcome::WindowCut => SpanOutcome::WindowCut,
        AttemptOutcome::Failed(SessionFailure::Faulted(_)) => SpanOutcome::Faulted,
        AttemptOutcome::Failed(SessionFailure::Unreachable { .. }) => SpanOutcome::Unreachable,
        AttemptOutcome::Failed(SessionFailure::WindowCut) => SpanOutcome::WindowCut,
    }
}

/// Keeps only external-channel, hop>0 intervals (genuine contention —
/// the engine's `blocked_time` classification) and attributes each to
/// its topology dimension: `(dim, from_ns, until_ns)`.
fn classify_intervals<R: Router>(
    intervals: &[BlockedInterval],
    map: &ChannelMap<R>,
) -> Vec<(u8, u64, u64)> {
    intervals
        .iter()
        .filter(|iv| iv.hop > 0 && !map.is_virtual(iv.channel))
        .map(|iv| (map.dim_of(iv.channel), iv.from.as_ns(), iv.until.as_ns()))
        .collect()
}

/// Fault elements (links, lanes, nodes) down under `plan`.
fn live_faults(plan: &FaultPlan) -> u64 {
    (plan.dead_link_count() + plan.dead_lanes().count() + plan.dead_nodes().count()) as u64
}

/// The deterministic bucket fold: sessions, blocked intervals, and the
/// epoch timeline folded into the windowed time-series. Pure data →
/// data, independent of simulation order — the worker-invariance
/// guarantee of the telemetry sweep rests on this.
fn build_series(
    cfg: &TelemetryConfig,
    horizon: SimTime,
    dims: u8,
    traces: &[SessionTrace],
    blocked: &[(u8, u64, u64)],
    epochs: &[(u64, u64)],
) -> TimeSeries {
    let n = cfg.buckets.max(1);
    let horizon_ns = horizon.as_ns().max(1);
    let bucket_ns = horizon_ns.div_ceil(n as u64).max(1);
    let idx = |t: SimTime| -> usize { ((t.as_ns() / bucket_ns) as usize).min(n - 1) };

    let mut buckets: Vec<TelemetryBucket> = (0..n)
        .map(|i| TelemetryBucket {
            start: SimTime::from_ns(i as u64 * bucket_ns),
            offered: 0,
            delivered: 0,
            goodput_per_ms: 0.0,
            latency: Histogram::new(),
            quantiles: Quantiles {
                p50_ms: f64::NAN,
                p95_ms: f64::NAN,
                p99_ms: f64::NAN,
            },
            cache_hits: 0,
            cache_lookups: 0,
            live_faults: 0,
            blocked_ns_per_dim: vec![0; dims as usize],
        })
        .collect();

    for tr in traces {
        buckets[idx(tr.arrival)].offered += 1;
        for a in &tr.attempts {
            if let Some(hit) = a.cache_hit {
                let b = &mut buckets[idx(a.launch)];
                b.cache_lookups += 1;
                b.cache_hits += u64::from(hit);
            }
        }
        if tr.delivered {
            let b = &mut buckets[idx(tr.completion)];
            b.delivered += 1;
            b.latency.observe(tr.latency().as_ns());
        }
    }

    for &(dim, from, until) in blocked {
        if until <= from {
            continue;
        }
        let first = ((from / bucket_ns) as usize).min(n - 1);
        let last = (((until - 1) / bucket_ns) as usize).min(n - 1);
        for (i, b) in buckets.iter_mut().enumerate().take(last + 1).skip(first) {
            let bs = i as u64 * bucket_ns;
            // The final bucket absorbs any tail past the nominal window.
            let be = if i == n - 1 { u64::MAX } else { bs + bucket_ns };
            let overlap = until.min(be).saturating_sub(from.max(bs));
            b.blocked_ns_per_dim[dim as usize] += overlap;
        }
    }

    let bucket_ms = bucket_ns as f64 / 1e6;
    for b in &mut buckets {
        if !epochs.is_empty() {
            let e = epochs
                .partition_point(|&(start, _)| start <= b.start.as_ns())
                .saturating_sub(1);
            b.live_faults = epochs[e].1;
        }
        b.goodput_per_ms = b.delivered as f64 / bucket_ms;
        if b.latency.count() > 0 {
            b.quantiles = Quantiles::from_latency_histogram(&b.latency);
        }
    }

    TimeSeries {
        horizon,
        bucket_ns,
        dims,
        buckets,
    }
}

/// Builds the traffic-path telemetry (single wave) from an observed
/// run's message results and the probe's blocking intervals.
pub(crate) fn traffic_telemetry<R: Router>(
    spec: &TrafficSpec,
    assembly: &SessionWorkload,
    run: &RunResult,
    intervals: &[BlockedInterval],
    map: &ChannelMap<R>,
    cfg: &TelemetryConfig,
    lookups: bool,
) -> Telemetry {
    let traces: Vec<SessionTrace> = assembly
        .spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let msgs = &run.messages[span.range.clone()];
            let (resolution, phases) = decompose(span.arrival, msgs);
            let outcome = outcome_of(&classify(msgs, 0));
            SessionTrace {
                session: i,
                arrival: span.arrival,
                completion: resolution,
                delivered: outcome == SpanOutcome::Delivered,
                backoff: SimTime::ZERO,
                attempts: vec![AttemptSpan {
                    number: 1,
                    wave: 0,
                    launch: span.arrival,
                    resolution,
                    outcome,
                    cache_hit: lookups.then_some(span.cache_hit),
                    messages: msgs.len(),
                    phases,
                }],
            }
        })
        .collect();
    let blocked = classify_intervals(intervals, map);
    let series = build_series(cfg, spec.horizon, map.dimensions(), &traces, &blocked, &[]);
    Telemetry {
        sessions: traces,
        series,
        waves: 1,
    }
}

/// The chaos-path collector: records every wave's attempts and
/// blocking intervals as the epoch loop runs.
pub(crate) struct ChaosCollector {
    /// The probe every observed wave runs under.
    pub(crate) probe: TelemetryProbe,
    waves: usize,
    /// `(session, span)` per simulated attempt, in wave order.
    attempts: Vec<(usize, AttemptSpan)>,
    intervals: Vec<BlockedInterval>,
    /// Whether this path performs cache lookups (cube: yes; separate
    /// addressing: no).
    lookups: bool,
}

impl ChaosCollector {
    pub(crate) fn new(lookups: bool) -> ChaosCollector {
        ChaosCollector {
            probe: TelemetryProbe::new(),
            waves: 0,
            attempts: Vec::new(),
            intervals: Vec::new(),
            lookups,
        }
    }

    /// Assembles the final telemetry once the epoch loop has finished.
    pub(crate) fn finish<R: Router>(
        mut self,
        report: &ChaosReport,
        epochs: &[FaultEpoch],
        map: &ChannelMap<R>,
        cfg: &TelemetryConfig,
    ) -> Telemetry {
        self.attempts
            .sort_by_key(|(session, a)| (*session, a.number));
        let mut traces: Vec<SessionTrace> = report
            .sessions
            .iter()
            .enumerate()
            .map(|(i, s)| SessionTrace {
                session: i,
                arrival: s.arrival,
                completion: s.completion,
                delivered: s.delivered,
                backoff: SimTime::ZERO,
                attempts: Vec::new(),
            })
            .collect();
        for (session, a) in self.attempts {
            traces[session].attempts.push(a);
        }
        for tr in &mut traces {
            let spent: u64 = tr.attempts.iter().map(|a| a.duration().as_ns()).sum();
            tr.backoff = SimTime::from_ns(tr.latency().as_ns().saturating_sub(spent));
        }
        let blocked = classify_intervals(&self.intervals, map);
        let epoch_counts: Vec<(u64, u64)> = epochs
            .iter()
            .map(|e| (e.start.as_ns(), live_faults(&e.plan)))
            .collect();
        let series = build_series(
            cfg,
            report.horizon,
            map.dimensions(),
            &traces,
            &blocked,
            &epoch_counts,
        );
        Telemetry {
            sessions: traces,
            series,
            waves: self.waves,
        }
    }
}

impl ChaosCollector {
    /// Records one simulated wave: its attempts (in launch order), their
    /// workload spans, and the raw run result.
    pub(crate) fn record_wave(
        &mut self,
        attempts: &[Attempt],
        spans: &[WaveSpan],
        run: &RunResult,
    ) {
        let wave = self.waves;
        self.waves += 1;
        for (attempt, span) in attempts.iter().zip(spans) {
            let msgs = &run.messages[span.range.clone()];
            let (resolution, phases) = decompose(attempt.launch, msgs);
            let outcome = outcome_of(&classify(msgs, span.missing));
            self.attempts.push((
                attempt.session,
                AttemptSpan {
                    number: attempt.number,
                    wave,
                    launch: attempt.launch,
                    resolution,
                    outcome,
                    cache_hit: self.lookups.then_some(span.cache_hit),
                    messages: msgs.len(),
                    phases,
                },
            ));
        }
        self.intervals.extend(self.probe.take_intervals());
    }
}

/// JSON float formatting: shortest round-trip for finite values, `null`
/// for NaN/∞ (empty-bucket quantiles).
fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Nanoseconds → the Chrome trace format's microsecond unit, fraction
/// preserved.
fn format_us(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let mut s = format!("{whole}.{frac:03}");
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, Arrivals};
    use crate::chaos::{run_chaos, ChaosSpec};
    use crate::churn::ChurnSpec;
    use crate::engine::{run, Backend, RunOptions, TrafficReport};
    use crate::patterns::DestPattern;
    use hcube::{Cube, Resolution, Torus, TorusRouter};
    use hypercast::{Algorithm, PortModel};
    use wormsim::SimParams;

    fn five_cube(algo: Algorithm) -> Backend {
        Backend::tree(Cube::of(5), Resolution::HighToLow, algo)
    }

    fn observed<R: Router + Copy>(
        spec: &TrafficSpec,
        backend: Backend<R>,
        params: &SimParams,
        cfg: &TelemetryConfig,
    ) -> (TrafficReport, Telemetry) {
        let mut tel = None;
        let report = run(
            spec,
            backend,
            params,
            RunOptions::default().telemetry(cfg, &mut tel),
        );
        (report, tel.expect("telemetry was requested"))
    }

    fn observed_chaos<R: Router + Copy>(
        spec: &ChaosSpec,
        backend: Backend<R>,
        params: &SimParams,
        cfg: &TelemetryConfig,
    ) -> (ChaosReport, Telemetry) {
        let mut tel = None;
        let opts = RunOptions::default().telemetry(cfg, &mut tel);
        let report = run_chaos(spec, backend, params, opts);
        (report, tel.expect("telemetry was requested"))
    }

    fn spec(rate: f64, sessions: usize, seed: u64) -> TrafficSpec {
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

    #[test]
    fn telemetry_report_is_byte_identical_to_the_plain_run() {
        let params = SimParams::ncube2(PortModel::AllPort);
        for rate in [2.0, 60.0] {
            let s = spec(rate, 40, 11);
            let plain = run(
                &s,
                five_cube(Algorithm::WSort),
                &params,
                RunOptions::default(),
            );
            let (observed, tel) = observed(
                &s,
                five_cube(Algorithm::WSort),
                &params,
                &TelemetryConfig::default(),
            );
            assert_eq!(format!("{plain:?}"), format!("{observed:?}"), "rate {rate}");
            assert_eq!(tel.sessions.len(), plain.sessions.len());
            assert_eq!(tel.waves, 1);
        }
    }

    #[test]
    fn span_decomposition_sums_exactly_to_the_reported_latency() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let s = spec(30.0, 60, 7);
        let (report, tel) = observed(
            &s,
            five_cube(Algorithm::WSort),
            &params,
            &TelemetryConfig::default(),
        );
        assert!(
            report.net.blocked_time > SimTime::ZERO,
            "this load must produce contention"
        );
        for (tr, rec) in tel.sessions.iter().zip(&report.sessions) {
            assert_eq!(tr.arrival, rec.arrival);
            assert_eq!(tr.completion, rec.completion);
            assert_eq!(tr.delivered, rec.delivered);
            let spent: u64 = tr.attempts.iter().map(|a| a.phases.total().as_ns()).sum();
            assert_eq!(
                spent + tr.backoff.as_ns(),
                rec.latency.as_ns(),
                "session {} decomposition must sum exactly",
                tr.session
            );
            for a in &tr.attempts {
                assert_eq!(a.phases.total(), a.duration());
            }
        }
        assert!(
            tel.sessions
                .iter()
                .flat_map(|t| &t.attempts)
                .any(|a| a.phases.blocked > SimTime::ZERO),
            "some critical message must have blocked under this load"
        );
    }

    #[test]
    fn bucket_sums_reconcile_with_the_aggregate_report() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::SeedableRng;
        let pool = DestPattern::uniform_pool(&mut rng, &Cube::of(5), 4, 6);
        let mut s = TrafficSpec::new(Arrivals::new(ArrivalProcess::Poisson, 30.0), pool, 80, 7);
        s.cache_capacity = 16;
        let (report, tel) = observed(
            &s,
            five_cube(Algorithm::WSort),
            &params,
            &TelemetryConfig::new(16),
        );
        let b = &tel.series.buckets;
        assert_eq!(b.len(), 16);
        assert_eq!(
            b.iter().map(|x| x.offered).sum::<u64>(),
            report.sessions.len() as u64
        );
        let delivered = report.sessions.iter().filter(|x| x.delivered).count() as u64;
        assert_eq!(b.iter().map(|x| x.delivered).sum::<u64>(), delivered);
        assert_eq!(b.iter().map(|x| x.latency.count()).sum::<u64>(), delivered);
        assert_eq!(
            b.iter().map(|x| x.cache_lookups).sum::<u64>(),
            report.cache.hits + report.cache.misses
        );
        assert_eq!(
            b.iter().map(|x| x.cache_hits).sum::<u64>(),
            report.cache.hits
        );
        assert_eq!(
            b.iter()
                .flat_map(|x| x.blocked_ns_per_dim.iter())
                .sum::<u64>(),
            report.net.blocked_time.as_ns(),
            "per-dimension blocked time must reconcile with NetStats exactly"
        );
        assert!(b.iter().all(|x| x.live_faults == 0));
    }

    #[test]
    fn chaos_telemetry_report_matches_and_attempt_chains_reconcile() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let mut ts = spec(2.0, 60, 3);
        ts.horizon = SimTime::from_ms(60);
        let cspec = ChaosSpec::new(ts, churny(SimTime::from_ms(15)));
        let plain = run_chaos(
            &cspec,
            five_cube(Algorithm::WSort),
            &params,
            RunOptions::default(),
        );
        let (observed, tel) = observed_chaos(
            &cspec,
            five_cube(Algorithm::WSort),
            &params,
            &TelemetryConfig::new(20),
        );
        assert_eq!(format!("{plain:?}"), format!("{observed:?}"));
        // Quiet epochs simulate no wave and retry bursts can add extra
        // waves within one epoch, so no fixed relation to the epoch
        // count holds — but a churny run must have simulated something.
        assert!(tel.waves > 0);
        for (tr, rec) in tel.sessions.iter().zip(&observed.sessions) {
            assert_eq!(tr.attempts.len() as u32, rec.attempts);
            let spent: u64 = tr.attempts.iter().map(|a| a.phases.total().as_ns()).sum();
            assert_eq!(
                spent + tr.backoff.as_ns(),
                rec.latency.as_ns(),
                "chaos session {} attempt chain must sum exactly",
                tr.session
            );
            let last = tr.attempts.last().expect("every session has attempts");
            assert_eq!(last.outcome == SpanOutcome::Delivered, rec.delivered);
            // Attempt numbers are the causal chain 1..=n.
            for (i, a) in tr.attempts.iter().enumerate() {
                assert_eq!(a.number as usize, i + 1);
            }
        }
        assert!(
            tel.sessions.iter().any(|t| t.attempts.len() > 1),
            "churn at this density must retry at least one session"
        );
        // Cache reconciliation: one lookup per attempt on the cube path.
        let attempts: u64 = tel.sessions.iter().map(|t| t.attempts.len() as u64).sum();
        let b = &tel.series.buckets;
        assert_eq!(b.iter().map(|x| x.cache_lookups).sum::<u64>(), attempts);
        assert_eq!(
            b.iter().map(|x| x.cache_lookups).sum::<u64>(),
            observed.cache.hits + observed.cache.misses
        );
        assert_eq!(
            b.iter()
                .flat_map(|x| x.blocked_ns_per_dim.iter())
                .sum::<u64>(),
            observed.net.blocked_time.as_ns()
        );
        assert!(
            b.iter().any(|x| x.live_faults > 0),
            "churn must surface in the live-fault series"
        );
    }

    #[test]
    fn separate_addressing_telemetry_has_no_cache_activity() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let torus = Torus::of(4, 2);
        let ts = spec(1.0, 25, 9);
        let plain = run(
            &ts,
            Backend::Separate(TorusRouter::new(torus)),
            &params,
            RunOptions::default(),
        );
        let (observed, tel) = observed(
            &ts,
            Backend::Separate(TorusRouter::new(torus)),
            &params,
            &TelemetryConfig::default(),
        );
        assert_eq!(format!("{plain:?}"), format!("{observed:?}"));
        assert!(tel
            .sessions
            .iter()
            .flat_map(|t| &t.attempts)
            .all(|a| a.cache_hit.is_none()));
        assert!(tel
            .series
            .buckets
            .iter()
            .all(|b| b.cache_lookups == 0 && b.cache_hits == 0));
    }

    #[test]
    fn exporters_emit_wellformed_documents() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let (_, tel) = observed(
            &spec(10.0, 30, 5),
            five_cube(Algorithm::WSort),
            &params,
            &TelemetryConfig::new(8),
        );
        let spans = tel.spans_to_json_string();
        assert!(spans.starts_with('{') && spans.trim_end().ends_with('}'));
        assert!(spans.contains("\"schema\": \"telemetry-spans/v1\""));
        assert!(spans.contains("\"queueing_ns\""));
        let series = tel.series.to_json_string();
        assert!(series.starts_with('{') && series.trim_end().ends_with('}'));
        assert!(series.contains("\"schema\": \"telemetry-timeseries/v1\""));
        assert!(series.contains("\"goodput_per_ms\""));
        let trace = tel.to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("sessions (by wave)"));
        assert!(trace.contains("\"ph\": \"C\""));
        let reg = tel.to_metrics();
        assert_eq!(reg.counter("telemetry_sessions_total"), 30);
        assert!(reg.histogram("session_latency_ns").is_some());
        let prom = reg.to_prometheus_text();
        assert!(prom.contains("telemetry_sessions_total"));
    }

    #[test]
    fn time_to_recover_is_visible_as_a_goodput_dip_and_refill() {
        // A scripted mid-window outage: goodput must dip while the
        // victim is down and refill after it revives.
        let params = SimParams::ncube2(PortModel::AllPort);
        let mut ts = spec(4.0, 120, 17);
        ts.horizon = SimTime::from_ms(40);
        let cspec = ChaosSpec::new(ts, churny(SimTime::from_ms(12)));
        let (report, tel) = observed_chaos(
            &cspec,
            five_cube(Algorithm::WSort),
            &params,
            &TelemetryConfig::new(20),
        );
        assert!(report.fault_events > 0);
        let b = &tel.series.buckets;
        let churn_active: Vec<&TelemetryBucket> = b.iter().filter(|x| x.live_faults > 0).collect();
        let quiet_tail: Vec<&TelemetryBucket> = b
            .iter()
            .skip_while(|x| x.live_faults == 0)
            .skip_while(|x| x.live_faults > 0)
            .filter(|x| x.offered > 0 || x.delivered > 0)
            .collect();
        assert!(!churn_active.is_empty(), "churn buckets must exist");
        if !quiet_tail.is_empty() {
            let dip = churn_active
                .iter()
                .map(|x| x.goodput_per_ms)
                .fold(f64::INFINITY, f64::min);
            let refill = quiet_tail
                .iter()
                .map(|x| x.goodput_per_ms)
                .fold(0.0, f64::max);
            assert!(
                refill > dip,
                "goodput must refill after churn ends (dip {dip}, refill {refill})"
            );
        }
    }
}
