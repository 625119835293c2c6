//! A metrics registry: counters, gauges, and log-bucketed histograms,
//! with JSON and Prometheus-text exporters.
//!
//! [`EventRecorder::metrics`](crate::probe::EventRecorder::metrics)
//! folds a finished recording into a small fixed vocabulary —
//!
//! * **counters** — `events_total`, `injected_total`, `delivered_total`,
//!   `channel_grants_total`, `channel_blocks_total`, `faults_total`,
//!   `timeouts_total`, `watchdog_alarms_total`, `blocked_ns_total`,
//!   `busy_ns_total`;
//! * **gauges** — `makespan_ns`, `max_queue_depth`,
//!   `events_per_sim_ms`;
//! * **histograms** (log₂ buckets) — `latency_ns` (injection→delivery),
//!   `blocked_episode_ns` (per completed blocking episode),
//!   `queue_depth` (FIFO depth at each block).
//!
//! Export the registry with [`MetricsRegistry::to_prometheus_text`]
//! (the Prometheus exposition format) or [`MetricsRegistry::to_json`].

use crate::probe::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log₂ buckets in a [`Histogram`] (`le = 2^i` for
/// `i < BUCKETS`, plus the implicit `+Inf`).
pub const BUCKETS: usize = 40;

/// A log₂-bucketed histogram of `u64` samples: bucket `i` counts
/// samples `≤ 2^i`; larger samples land in the overflow (`+Inf`)
/// bucket. Tracks count and sum exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Cumulative-style storage: `buckets[i]` counts samples whose value
    /// is `> 2^(i-1)` and `≤ 2^i` (bucket 0: `≤ 1`).
    buckets: Vec<u64>,
    /// Samples larger than `2^(BUCKETS-1)`.
    overflow: u64,
    /// Total samples.
    count: u64,
    /// Exact sum of all samples.
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            ..Histogram::default()
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let idx = (64 - v.saturating_sub(1).leading_zeros()) as usize; // ceil(log2(v)); 0,1 → 0
        if idx < BUCKETS {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Bucket counts in index order: `counts()[i]` samples fell in
    /// bucket `i` (values `≤ 2^i`, exclusive of bucket `i − 1`), plus
    /// the overflow count as the final element. Exposed so downstream
    /// telemetry can merge or serialize histograms without going
    /// through the cumulative view.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        let mut out = if self.buckets.is_empty() {
            vec![0; BUCKETS]
        } else {
            self.buckets.clone()
        };
        out.push(self.overflow);
        out
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as the **upper bound** of the
    /// log₂ bucket the quantile sample falls in — i.e. the smallest
    /// `2^i` with at least `ceil(q · count)` samples at or below it.
    /// Returns `None` for an empty histogram; an overflow-bucket
    /// quantile reports `u64::MAX`. Being bucket-resolved, the result
    /// is conservative within a factor of 2, which is the price of the
    /// fixed-size deterministic representation.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(1u64 << i);
            }
        }
        Some(u64::MAX)
    }

    /// `(upper_bound, cumulative_count)` pairs for the non-empty prefix
    /// of buckets, ending with the implicit `+Inf` (upper bound `None`).
    #[must_use]
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut out = Vec::new();
        let mut acc = 0;
        let last_used = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        for (i, &c) in self.buckets.iter().enumerate().take(last_used) {
            acc += c;
            out.push((Some(1u64 << i), acc));
        }
        out.push((None, self.count));
        out
    }
}

/// A named bag of counters, gauges, and histograms with deterministic
/// (sorted) export order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records `v` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Sets histogram `name` to `h`.
    pub fn set_histogram(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_string(), h);
    }

    /// Counter value (0 if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Serializes in the Prometheus text exposition format (version
    /// 0.0.4): `# TYPE` headers, `_bucket{le=…}` / `_sum` / `_count`
    /// series for histograms. Metric names are emitted under the
    /// `wormsim_` namespace.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE wormsim_{name} counter");
            let _ = writeln!(out, "wormsim_{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE wormsim_{name} gauge");
            let _ = writeln!(out, "wormsim_{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE wormsim_{name} histogram");
            for (le, acc) in h.cumulative() {
                match le {
                    Some(le) => {
                        let _ = writeln!(out, "wormsim_{name}_bucket{{le=\"{le}\"}} {acc}");
                    }
                    None => {
                        let _ = writeln!(out, "wormsim_{name}_bucket{{le=\"+Inf\"}} {acc}");
                    }
                }
            }
            let _ = writeln!(out, "wormsim_{name}_sum {}", h.sum());
            let _ = writeln!(out, "wormsim_{name}_count {}", h.count());
        }
        out
    }

    /// Serializes as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// sorted keys (deterministic output for a deterministic run).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        write_map(&mut out, self.counters.iter(), |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"gauges\": {");
        write_map(&mut out, self.gauges.iter(), |out, v| {
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        });
        out.push_str("},\n  \"histograms\": {");
        write_map(&mut out, self.histograms.iter(), |out, h| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count(),
                h.sum()
            );
            for (i, (le, acc)) in h.cumulative().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match le {
                    Some(le) => {
                        let _ = write!(out, "{{\"le\": {le}, \"count\": {acc}}}");
                    }
                    None => {
                        let _ = write!(out, "{{\"le\": null, \"count\": {acc}}}");
                    }
                }
            }
            out.push_str("]}");
        });
        out.push_str("}\n}");
        out
    }
}

fn write_map<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": ", json_escape(k));
        write_value(out, v);
    }
    if !first {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        let cum = h.cumulative();
        // 0 and 1 land in le=1; 2 in le=2; 3 and 4 in le=4; 1024 in le=1024.
        let at = |le: u64| {
            cum.iter()
                .find(|(b, _)| *b == Some(le))
                .map(|&(_, c)| c)
                .unwrap()
        };
        assert_eq!(at(1), 2);
        assert_eq!(at(2), 3);
        assert_eq!(at(4), 5);
        assert_eq!(at(1024), 6);
        // +Inf picks up the overflow sample.
        assert_eq!(cum.last().unwrap(), &(None, 7));
    }

    #[test]
    fn prometheus_text_has_types_and_histogram_series() {
        let mut reg = MetricsRegistry::new();
        reg.inc("delivered_total", 3);
        reg.set_gauge("makespan_ns", 1.5e6);
        reg.observe("latency_ns", 1000);
        reg.observe("latency_ns", 3000);
        let text = reg.to_prometheus_text();
        assert!(text.contains("# TYPE wormsim_delivered_total counter"));
        assert!(text.contains("wormsim_delivered_total 3"));
        assert!(text.contains("# TYPE wormsim_makespan_ns gauge"));
        assert!(text.contains("# TYPE wormsim_latency_ns histogram"));
        assert!(text.contains("wormsim_latency_ns_bucket{le=\"1024\"} 1"));
        assert!(text.contains("wormsim_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("wormsim_latency_ns_sum 4000"));
        assert!(text.contains("wormsim_latency_ns_count 2"));
    }

    #[test]
    fn json_export_is_deterministic_and_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.inc("zeta", 1);
        reg.inc("alpha", 2);
        reg.observe("lat", 7);
        let a = reg.to_json();
        let b = reg.to_json();
        assert_eq!(a, b);
        assert!(a.find("\"alpha\"").unwrap() < a.find("\"zeta\"").unwrap());
        assert!(a.contains("\"histograms\""));
    }

    #[test]
    fn metrics_probe_tracks_blocking_episodes() {
        use crate::probe::{BlockedInterval, EventRecorder, Probe};
        use crate::time::SimTime;
        let mut r = EventRecorder::new();
        r.on_injected(SimTime::ZERO, 0, 2);
        r.on_channel_blocked(SimTime::from_ns(10), 0, 5, 1, 2);
        r.on_wait_closed(
            BlockedInterval {
                message: 0,
                channel: 5,
                hop: 1,
                from: SimTime::from_ns(10),
                until: SimTime::from_ns(40),
            },
            true,
        );
        r.on_channel_granted(SimTime::from_ns(40), 0, 5, 1);
        r.on_delivered(SimTime::from_ns(100), 0, SimTime::ZERO);
        let reg = r.metrics();
        assert_eq!(reg.counter("blocked_ns_total"), 30);
        assert_eq!(reg.counter("channel_blocks_total"), 1);
        assert_eq!(reg.counter("delivered_total"), 1);
        assert_eq!(reg.counter("events_total"), 4);
        assert_eq!(reg.histogram("latency_ns").unwrap().count(), 1);
        assert_eq!(reg.histogram("queue_depth").unwrap().sum(), 2);
        assert_eq!(reg.gauge("makespan_ns"), Some(100.0));
        assert_eq!(reg.gauge("max_queue_depth"), Some(2.0));
        // Keys appear only once their first event was observed.
        assert!(reg.histogram("blocked_episode_ns").is_some());
        assert_eq!(reg.gauge("events_per_sim_ms"), Some(4.0 / 100e-6));
        assert!(!reg.to_json().contains("faults_total"));
    }
}
