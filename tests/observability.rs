//! Workspace-level schema checks for the observability exports: the
//! Chrome/Perfetto trace JSON and both metrics export formats, parsed
//! with the first-party `workloads::json` parser (wormsim itself cannot
//! depend on `workloads`, so the schema validation lives here), plus
//! byte-for-byte golden files under `tests/golden/` that pin the
//! recorder's metrics fold and the order the engine closes blocking
//! episodes in.

use hcube::{Cube, Dim, Ecube, NodeId, Resolution, Router, Torus, TorusRouter};
use hypercast::{Algorithm, PortModel};
use workloads::json::{parse, Value};
use wormsim::network::ChannelMap;
use wormsim::{
    multicast_workload, DepMessage, EventRecorder, FaultPlan, MetricsRegistry, Run, SimParams,
    SimTime,
};

/// A contended multicast run with a recorder attached, returning the
/// Perfetto JSON and the recorder's metrics fold.
fn observed_run() -> (String, MetricsRegistry) {
    let cube = Cube::of(5);
    let params = SimParams::ncube2(PortModel::AllPort);
    let dests: Vec<NodeId> = (1..32).map(NodeId).collect();
    let tree = Algorithm::UCube
        .build(
            cube,
            Resolution::HighToLow,
            PortModel::AllPort,
            NodeId(0),
            &dests,
        )
        .unwrap();
    let router = Ecube::new(cube, Resolution::HighToLow);
    exports(
        router,
        Run::new(router, &params, &multicast_workload(&tree, 4096)),
    )
}

/// The stuck-channel wedge a global deadline rescues: both worms'
/// waits are cut short by the abort, so aborted episodes reach the
/// trace and the metrics.
fn deadline_wedge_run() -> (String, MetricsRegistry) {
    let params = SimParams::ncube2(PortModel::AllPort);
    let mut plan = FaultPlan::none();
    plan.stick(NodeId(0b010), Dim(0));
    plan.deadline_all(SimTime::from_ms(10));
    let msg = |src: u32, dst: u32| DepMessage {
        src: NodeId(src),
        dst: NodeId(dst),
        bytes: 4096,
        deps: vec![],
        min_start: SimTime::ZERO,
    };
    let workload = [msg(0, 0b011), msg(0b100, 0b010)];
    let router = Ecube::new(Cube::of(3), Resolution::HighToLow);
    exports(router, Run::new(router, &params, &workload).faults(&plan))
}

/// Runs `run` under a recorder: its Chrome trace and metrics fold.
fn exports<R: Router + Copy>(router: R, run: Run<'_, R>) -> (String, MetricsRegistry) {
    let mut rec = EventRecorder::new();
    run.probe(&mut rec).run().unwrap();
    (rec.to_chrome_trace(&ChannelMap::new(router)), rec.metrics())
}

/// Compares a run's trace, Prometheus text and metrics JSON with its
/// golden files `tests/golden/<name>.{trace.json,metrics.prom,metrics.json}`.
fn assert_golden(name: &str, (trace, registry): (String, MetricsRegistry), golden: [&str; 3]) {
    let got = [trace, registry.to_prometheus_text(), registry.to_json()];
    let exts = ["trace.json", "metrics.prom", "metrics.json"];
    for ((got, want), ext) in got.iter().zip(golden).zip(exts) {
        assert_eq!(got, want, "{name}.{ext} differs from its golden file");
    }
}

#[test]
fn exports_match_golden_files() {
    assert_golden(
        "ucube5",
        observed_run(),
        [
            include_str!("golden/ucube5.trace.json"),
            include_str!("golden/ucube5.metrics.prom"),
            include_str!("golden/ucube5.metrics.json"),
        ],
    );
    assert_golden(
        "deadline_wedge",
        deadline_wedge_run(),
        [
            include_str!("golden/deadline_wedge.trace.json"),
            include_str!("golden/deadline_wedge.metrics.prom"),
            include_str!("golden/deadline_wedge.metrics.json"),
        ],
    );
}

#[test]
fn perfetto_trace_is_valid_chrome_trace_json() {
    let (trace, _) = observed_run();
    let doc = parse(&trace).expect("trace must be well-formed JSON");

    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ns")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut saw_complete = 0usize;
    let mut saw_meta = 0usize;
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .expect("every event has a ph");
        let pid = e.get("pid").and_then(Value::as_f64).expect("pid number");
        assert!(pid == 1.0 || pid == 2.0, "pid {pid}");
        assert!(e.get("tid").and_then(Value::as_f64).is_some(), "tid number");
        match ph {
            "M" => {
                // Metadata: process_name / thread_name with an args.name.
                let name = e.get("name").and_then(Value::as_str).unwrap();
                assert!(name == "process_name" || name == "thread_name");
                assert!(e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .is_some());
                saw_meta += 1;
            }
            "X" => {
                // Complete slice: ts + dur in microseconds, dur > 0
                // (Perfetto drops zero-width slices).
                let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Value::as_f64).expect("dur");
                assert!(ts >= 0.0);
                assert!(dur > 0.0, "zero-duration slice");
                assert!(e.get("name").and_then(Value::as_str).is_some());
                saw_complete += 1;
            }
            "i" => {
                assert_eq!(e.get("s").and_then(Value::as_str), Some("g"));
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(saw_complete > 0, "no occupancy slices");
    // Two process_name records plus two thread_name records per used
    // channel.
    assert!(saw_meta >= 4, "missing track metadata");
}

#[test]
fn perfetto_trace_names_both_processes_and_used_channels() {
    let (trace, _) = observed_run();
    let doc = parse(&trace).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let proc_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(proc_names.contains(&"channels (held)"));
    assert!(proc_names.contains(&"channels (blocked)"));
    // Thread names carry the topology's channel labels (binary node
    // addresses on the cube).
    assert!(events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .any(|l| l.contains('→')));
}

#[test]
fn perfetto_trace_works_on_the_torus_backend() {
    let torus = Torus::of(4, 2);
    let router = TorusRouter::new(torus);
    let params = SimParams::ncube2(PortModel::AllPort);
    let workload: Vec<DepMessage> = (1..16)
        .map(|v| DepMessage {
            src: NodeId(v),
            dst: NodeId(0),
            bytes: 1024,
            deps: vec![],
            min_start: SimTime::ZERO,
        })
        .collect();
    let mut rec = EventRecorder::new();
    let _ = Run::new(router, &params, &workload)
        .probe(&mut rec)
        .run()
        .unwrap();
    let map = ChannelMap::new(router);
    let doc = parse(&rec.to_chrome_trace(&map)).expect("torus trace parses");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    // Torus coordinate labels (e.g. "3,1--d0+v0→") survive JSON escaping.
    assert!(events
        .iter()
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .any(|l| l.contains("--d")));
    // The hot-spot run must have produced blocked slices on pid 2.
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(Value::as_str) == Some("X")
            && e.get("pid").and_then(Value::as_f64) == Some(2.0)));
}

#[test]
fn metrics_json_export_parses_and_carries_core_series() {
    let (_, registry) = observed_run();
    let text = registry.to_json();
    let doc = parse(&text).expect("metrics JSON parses");
    let counters = doc.get("counters").expect("counters object");
    for key in [
        "events_total",
        "injected_total",
        "delivered_total",
        "channel_grants_total",
    ] {
        let v = counters
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("missing counter {key}"));
        assert!(v > 0.0, "{key} should be positive");
    }
    // 31 unicasts in the broadcast tree.
    assert_eq!(
        counters.get("delivered_total").and_then(Value::as_f64),
        Some(31.0)
    );
    let hists = doc.get("histograms").expect("histograms object");
    let latency = hists.get("latency_ns").expect("latency histogram");
    assert_eq!(latency.get("count").and_then(Value::as_f64), Some(31.0));
    assert!(latency.get("sum").and_then(Value::as_f64).unwrap() > 0.0);
    // Buckets are cumulative and end at the +Inf count.
    let buckets = latency
        .get("buckets")
        .and_then(Value::as_array)
        .expect("buckets");
    let mut last = 0.0;
    for b in buckets {
        let c = b.get("count").and_then(Value::as_f64).unwrap();
        assert!(c >= last, "bucket counts must be cumulative");
        last = c;
    }
    assert_eq!(last, 31.0, "final bucket is the total count");
}

#[test]
fn metrics_prometheus_export_is_well_formed() {
    let (_, registry) = observed_run();
    let text = registry.to_prometheus_text();
    let mut typed: Vec<&str> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(name.starts_with("wormsim_"), "namespace: {name}");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "kind {kind}"
            );
            typed.push(name);
        } else {
            // Sample line: name[{labels}] value — the name must belong
            // to the most recent TYPE family.
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                typed.iter().any(|t| name.starts_with(t)),
                "sample {name} missing TYPE header"
            );
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
        }
    }
    // Histograms expose bucket/sum/count triples.
    assert!(text.contains("wormsim_latency_ns_bucket{le=\""));
    assert!(text.contains("wormsim_latency_ns_sum"));
    assert!(text.contains("wormsim_latency_ns_count"));
    assert!(text.contains("le=\"+Inf\""));
}

#[test]
fn exports_are_deterministic() {
    let (trace_a, reg_a) = observed_run();
    let (trace_b, reg_b) = observed_run();
    assert_eq!(trace_a, trace_b);
    assert_eq!(reg_a.to_json(), reg_b.to_json());
    assert_eq!(reg_a.to_prometheus_text(), reg_b.to_prometheus_text());
}
