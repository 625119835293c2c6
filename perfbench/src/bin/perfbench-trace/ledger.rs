//! The per-layer ledger: every per-layer metric, computed from the
//! traced passes' spans and the replays' counters.

use std::collections::BTreeMap;

use perfbench::alloc::Counts;
use perfbench::measure::Metric;
use perfbench::trace::{self_ns, Kind, Span};

use crate::replay::{Counters, EventCount};

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Clone, Copy, Default)]
struct Totals {
    calls: u64,
    ns: u64,
    self_ns: u64,
    work: u64,
}

/// What one traced run measured, besides its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Observed {
    /// Counters of one traced pass.
    pub counters: Counters,
    /// Engine events of the probe pass.
    pub events: EventCount,
    /// Allocations of one untraced pass.
    pub alloc: Counts,
    /// Operations per pass (requests, or figure entry-point calls).
    pub ops: u64,
    /// Mean request latency through the daemon, ns (serve workloads).
    pub daemon_ns_per_req: Option<f64>,
    /// Median of traced ÷ untraced pass time.
    pub overhead_ratio: f64,
}

/// A ratio that reads 0 when the layer did no work in this workload.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric from `passes` (the spans of each traced pass,
/// each rooted in one `Run` span) and `o`. Layer shares are self time ÷
/// the traced passes' wall time; [`share_sum`] adds them up.
#[must_use]
pub fn ledger(passes: &[Vec<Span>], o: &Observed) -> Vec<Metric> {
    let mut t: BTreeMap<Kind, Totals> = Kind::ALL.iter().map(|&k| (k, Totals::default())).collect();
    for spans in passes {
        for (s, own) in spans.iter().zip(self_ns(spans)) {
            let e = t.get_mut(&s.kind).expect("every kind has a slot");
            e.calls += 1;
            e.ns += s.ns();
            e.self_ns += own;
            e.work += s.work;
        }
    }
    let get = |k: Kind| t[&k];
    let wall = get(Kind::Run).ns as f64;
    let share = |kinds: &[Kind]| per(kinds.iter().map(|&k| get(k).self_ns as f64).sum(), wall);
    let ns_per_call = |k: Kind| per(get(k).ns as f64, get(k).calls as f64);
    let ns_per_work = |k: Kind| per(get(k).ns as f64, get(k).work as f64);
    let passes_n = passes.len().max(1) as f64;
    let builds = [
        Kind::BuildUCube,
        Kind::BuildMaxport,
        Kind::BuildCombine,
        Kind::BuildWSort,
    ];
    let trees: u64 = builds.iter().map(|&k| get(k).calls).sum();
    let c = &o.counters;
    let request = get(Kind::Request);
    let layer_ns_per_req = per((request.ns - request.self_ns) as f64, request.calls as f64);
    let ops = o.ops.max(1) as f64;
    vec![
        m(
            "hypercast.algorithms.ucube.ns_per_tree",
            ns_per_call(Kind::BuildUCube),
            "ns",
        ),
        m(
            "hypercast.algorithms.maxport.ns_per_tree",
            ns_per_call(Kind::BuildMaxport),
            "ns",
        ),
        m(
            "hypercast.algorithms.combine.ns_per_tree",
            ns_per_call(Kind::BuildCombine),
            "ns",
        ),
        m(
            "hypercast.algorithms.wsort.ns_per_tree",
            ns_per_call(Kind::BuildWSort),
            "ns",
        ),
        m(
            "hypercast.algorithms.weighted_sort.ns_per_call",
            ns_per_call(Kind::WeightedSort),
            "ns",
        ),
        m(
            "hypercast.algorithms.trees",
            trees as f64 / passes_n,
            "count",
        ),
        m(
            "hypercast.algorithms.share",
            share(&[
                Kind::BuildUCube,
                Kind::BuildMaxport,
                Kind::BuildCombine,
                Kind::BuildWSort,
                Kind::WeightedSort,
            ]),
            "ratio",
        ),
        m(
            "hypercast.cache.hit_ratio",
            per(c.cache_hits as f64, c.cache_lookups as f64),
            "ratio",
        ),
        m("hypercast.cache.lookups", c.cache_lookups as f64, "count"),
        m(
            "wormsim.engine.idle.ns_per_flit_hop",
            ns_per_work(Kind::EngineIdle),
            "ns",
        ),
        m(
            "wormsim.engine.loaded.ns_per_flit_hop",
            ns_per_work(Kind::EngineLoaded),
            "ns",
        ),
        m("wormsim.engine.events", o.events.events as f64, "count"),
        m(
            "wormsim.engine.arbitration.requests",
            o.events.requests as f64,
            "count",
        ),
        m("wormsim.engine.blocks", c.blocks as f64, "count"),
        m("wormsim.engine.timed_out", c.timed_out as f64, "count"),
        m(
            "wormsim.engine.share",
            share(&[Kind::EngineIdle, Kind::EngineLoaded]),
            "ratio",
        ),
        m(
            "traffic.engine.assemble.ns_per_session",
            ns_per_work(Kind::Assemble),
            "ns",
        ),
        m("traffic.engine.sessions", c.sessions as f64, "count"),
        m("traffic.engine.share", share(&[Kind::Assemble]), "ratio"),
        m("traffic.chaos.ns_per_epoch", ns_per_work(Kind::Chaos), "ns"),
        m("traffic.chaos.epochs", c.epochs as f64, "count"),
        m("traffic.chaos.fault_events", c.fault_events as f64, "count"),
        m(
            "traffic.chaos.attempts_per_session",
            per(c.attempts as f64, c.chaos_sessions as f64),
            "ratio",
        ),
        m("traffic.chaos.share", share(&[Kind::Chaos]), "ratio"),
        m(
            "workloads.json.parse.ns_per_byte",
            ns_per_work(Kind::JsonParse),
            "ns/B",
        ),
        m(
            "workloads.json.emit.ns_per_byte",
            ns_per_work(Kind::JsonEmit),
            "ns/B",
        ),
        m(
            "workloads.json.share",
            share(&[Kind::JsonParse, Kind::JsonEmit]),
            "ratio",
        ),
        m(
            "workloads.serve.self_us_per_req",
            o.daemon_ns_per_req
                .map_or(0.0, |d| (d - layer_ns_per_req) / 1e3),
            "us",
        ),
        m("alloc.count_per_op", o.alloc.calls as f64 / ops, "count"),
        m("alloc.bytes_per_op", o.alloc.bytes as f64 / ops, "B"),
        m("trace.overhead_ratio", o.overhead_ratio, "ratio"),
    ]
}

/// The sum of the layer shares in a ledger.
#[must_use]
pub fn share_sum(ledger: &[Metric]) -> f64 {
    ledger
        .iter()
        .filter(|x| x.name.ends_with(".share"))
        .map(|x| x.value)
        .sum()
}
