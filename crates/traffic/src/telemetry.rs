//! The flight recorder: session-level spans and windowed time-series
//! telemetry over open-loop runs.
//!
//! [`RunOptions::telemetry`](crate::RunOptions::telemetry) attaches one
//! recorder to [`run`](crate::run) or [`run_chaos`](crate::run_chaos).
//! Both execute as *waves* (a plain run is a single wave), and the
//! recorder observes every wave once, as it runs, and records its
//! attempts — probes are statically dispatched and never perturb the
//! engine (pinned by the byte-identity tests), so the returned report is
//! byte-identical to the unobserved run and the telemetry is derived
//! from the very same [`wormsim::RunResult`]s.
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
//!   per-dimension head-flit blocked time (attributed from the blocking
//!   episodes the engine closes at a grant). The series is built by a
//!   deterministic fold over the session traces — byte-identical no
//!   matter how a caller later shards sessions across workers.
//!
//! **Reconciliation contract.** Bucket sums equal the aggregate report
//! exactly: Σ offered = sessions, Σ delivered = delivered sessions,
//! Σ cache lookups/hits = the report's cache counters, and Σ per-dim
//! blocked time = [`wormsim::NetStats::blocked_time`] (external
//! contention; hop-0 and virtual-channel port waits are excluded, same
//! classification as the engine's own accounting). The tests in this
//! module pin every identity.
//!
//! Exporters: hand-rolled JSON documents
//! ([`Telemetry::spans_to_json_string`], [`TimeSeries::to_json_string`]);
//! the workspace has no serde.

use crate::chaos::{classify, Attempt, SessionFailure};
use crate::engine::SessionSpan;
use crate::stats::Quantiles;
use hcube::Router;
use wormsim::{
    BlockedInterval, ChannelMap, FaultPlan, FaultTimeline, Histogram, MessageResult, Probe,
    RunResult, SimTime,
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
    /// Stable lower-case label (used by the spans JSON exporter).
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
}

/// The telemetry probe: keeps the blocking episodes the engine closes
/// at a grant — exactly the waits the engine charges to its own
/// accounting, so they reconcile with [`wormsim::NetStats`] to the
/// nanosecond. Waits an abort cuts short are dropped (the engine never
/// charges a queued wait it aborts).
#[derive(Clone, Debug, Default)]
pub struct TelemetryProbe {
    closed: Vec<BlockedInterval>,
}

impl TelemetryProbe {
    /// A fresh probe.
    #[must_use]
    pub fn new() -> TelemetryProbe {
        TelemetryProbe::default()
    }

    /// Drains the granted episodes collected so far.
    pub fn take_intervals(&mut self) -> Vec<BlockedInterval> {
        std::mem::take(&mut self.closed)
    }
}

impl Probe for TelemetryProbe {
    #[inline]
    fn on_wait_closed(&mut self, iv: BlockedInterval, granted: bool) {
        if granted {
            self.closed.push(iv);
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

/// Maps an attempt's classification onto the span outcome vocabulary.
fn outcome_of(failure: Option<SessionFailure>) -> SpanOutcome {
    match failure {
        None => SpanOutcome::Delivered,
        Some(SessionFailure::Faulted(_)) => SpanOutcome::Faulted,
        Some(SessionFailure::Unreachable { .. }) => SpanOutcome::Unreachable,
        Some(SessionFailure::WindowCut) => SpanOutcome::WindowCut,
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

/// `(start_ns, live_faults)` of every epoch of `timeline`, in order,
/// read off one cursor walk.
pub(crate) fn epoch_fault_counts(timeline: &FaultTimeline) -> Vec<(u64, u64)> {
    let mut cursor = timeline.cursor(FaultPlan::none());
    let mut counts = vec![(0, live_faults(cursor.plan()))];
    while cursor.advance() {
        counts.push((cursor.start().as_ns(), live_faults(cursor.plan())));
    }
    counts
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

/// The flight recorder's collector: records every wave's attempts and
/// blocking intervals as the run executes.
#[derive(Default)]
pub(crate) struct WaveRecorder {
    /// The probe every observed wave runs under.
    pub(crate) probe: TelemetryProbe,
    waves: usize,
    /// `(session, span)` per simulated attempt, in wave order.
    attempts: Vec<(usize, AttemptSpan)>,
    intervals: Vec<BlockedInterval>,
}

impl WaveRecorder {
    /// Records one simulated wave: its attempts (in launch order), their
    /// workload spans, and the raw run result.
    pub(crate) fn record_wave(
        &mut self,
        attempts: &[Attempt],
        spans: &[SessionSpan],
        run: &RunResult,
    ) {
        let wave = self.waves;
        self.waves += 1;
        for (attempt, span) in attempts.iter().zip(spans) {
            let msgs = &run.messages[span.range.clone()];
            let (resolution, phases) = decompose(attempt.launch, msgs);
            let outcome = outcome_of(classify(msgs, span.missing));
            self.attempts.push((
                attempt.session,
                AttemptSpan {
                    number: attempt.number,
                    wave,
                    launch: attempt.launch,
                    resolution,
                    outcome,
                    cache_hit: span.cache_hit,
                    messages: msgs.len(),
                    phases,
                },
            ));
        }
        self.intervals.extend(self.probe.take_intervals());
    }

    /// Assembles the final telemetry once the run has finished.
    /// `sessions` gives each session's `(arrival, delivered)` from the
    /// report, in session order; a trace completes when its final
    /// attempt resolved. `epochs` holds each fault epoch's
    /// `(start_ns, live_faults)`, as [`epoch_fault_counts`] returns them
    /// (empty for a run without a fault timeline).
    pub(crate) fn finish<R: Router>(
        mut self,
        sessions: impl Iterator<Item = (SimTime, bool)>,
        horizon: SimTime,
        epochs: &[(u64, u64)],
        map: &ChannelMap<R>,
        cfg: &TelemetryConfig,
    ) -> Telemetry {
        self.attempts
            .sort_by_key(|(session, a)| (*session, a.number));
        let mut traces: Vec<SessionTrace> = sessions
            .enumerate()
            .map(|(i, (arrival, delivered))| SessionTrace {
                session: i,
                arrival,
                completion: arrival,
                delivered,
                backoff: SimTime::ZERO,
                attempts: Vec::new(),
            })
            .collect();
        for (session, a) in self.attempts {
            traces[session].attempts.push(a);
        }
        for tr in &mut traces {
            // Not the report's completion: for a session launched past
            // the horizon that is the window close, before its arrival,
            // while the final attempt's resolution is clamped to its
            // launch.
            tr.completion = tr.attempts.last().map_or(tr.arrival, |a| a.resolution);
            let spent: u64 = tr.attempts.iter().map(|a| a.duration().as_ns()).sum();
            tr.backoff = SimTime::from_ns(tr.latency().as_ns().saturating_sub(spent));
        }
        let blocked = classify_intervals(&self.intervals, map);
        let series = build_series(cfg, horizon, map.dimensions(), &traces, &blocked, epochs);
        Telemetry {
            sessions: traces,
            series,
            waves: self.waves,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, Arrivals};
    use crate::chaos::{run_chaos, ChaosReport, ChaosSpec};
    use crate::churn::ChurnSpec;
    use crate::engine::{run, Backend, RunOptions, TrafficReport, TrafficSpec};
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

    /// A session arriving after the horizon resolves at its launch on
    /// both paths: its trace completes no earlier than it arrived, at
    /// its final attempt's resolution (session 4 arrives at 6.883 ms).
    #[test]
    fn late_arrivals_complete_at_their_final_resolution() {
        let params = SimParams::ncube2(PortModel::AllPort);
        let mut s = TrafficSpec::new(
            Arrivals::new(ArrivalProcess::Poisson, 1.0),
            DestPattern::UniformRandom { m: 5 },
            20,
            5,
        );
        s.horizon = SimTime::from_ms(6);
        let cfg = TelemetryConfig::default();
        let (_, plain) = observed(&s, five_cube(Algorithm::WSort), &params, &cfg);
        let cspec = ChaosSpec::new(s, ChurnSpec::quiet());
        let (_, chaos) = observed_chaos(&cspec, five_cube(Algorithm::WSort), &params, &cfg);
        for tel in [&plain, &chaos] {
            assert!(tel.sessions.iter().any(|t| t.arrival > SimTime::from_ms(6)));
            for tr in &tel.sessions {
                let last = tr.attempts.last().expect("every session has attempts");
                assert!(tr.completion >= tr.arrival, "session {}", tr.session);
                assert_eq!(tr.completion, last.resolution, "session {}", tr.session);
            }
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
