//! `mcast` — command-line front end: build, verify, and simulate one
//! multicast.
//!
//! ```text
//! cargo run -p bench --release --bin mcast -- \
//!     --n 6 --algo wsort --port all --source 0 --dests 3,9,17,33,60 \
//!     --bytes 4096 [--random 20] [--seed 7] [--trace] [--json] \
//!     [--faults K] [--fail-link V:D]... [--fail-node V]...
//! ```
//!
//! With any fault flag, each tree is additionally replayed over the
//! faulty network (delivery ratio, makespan) and then repaired with
//! `hypercast::repair` and replayed again.
//!
//! `--topology torus --arity K` switches to a k-ary n-cube: the tree
//! algorithms are hypercube-specific, so the torus path simulates
//! separate addressing (one dimension-ordered unicast per destination)
//! on the dateline-VC router and reports the same delay/utilization
//! summary. `--topology mesh --width W --height H` does the same on a
//! 2D mesh, where `--router ecube|adaptive` picks deterministic XY or
//! the west-first minimal-adaptive router. `--lanes N` runs any backend
//! with N virtual lanes per physical link (the torus needs an even N —
//! its lanes come in dateline pairs).

use hcube::{
    Cube, Dim, Ecube, Mesh, MeshXY, MinimalAdaptive, NodeId, Resolution, Router, Topology, Torus,
    TorusRouter,
};
use hypercast::collectives::{
    allgather, allgather_separate, allreduce, allreduce_separate, reduce_scatter,
    reduce_scatter_separate,
};
use hypercast::contention::contention_witnesses;
use hypercast::oracle::verify_collective;
use hypercast::repair::{repair, NetworkFaults};
use hypercast::{Algorithm, CollectiveKind, CollectiveSchedule, PortModel, TreeFamily};
use traffic::{
    ArrivalProcess, Backend, ChaosReport, ChaosSpec, DestPattern, RunOptions, Telemetry,
    TelemetryConfig, TrafficReport, TrafficSpec,
};
use wormsim::network::ChannelMap;
use wormsim::{
    ChannelTrace, DepMessage, EventRecorder, FaultPlan, Metrics, NetStats, Run, SimParams, SimTime,
    Tee,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum TopologyKind {
    Cube,
    Torus,
    Mesh,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RouterKind {
    /// Deterministic dimension-ordered routing (E-cube / XY).
    Ecube,
    /// West-first minimal-adaptive routing (mesh only).
    Adaptive,
}

struct Args {
    n: u8,
    topology: TopologyKind,
    arity: u16,
    width: u16,
    height: u16,
    router: RouterKind,
    lanes: Option<u8>,
    collective: Option<CollectiveKind>,
    bine: bool,
    algo: Option<Algorithm>,
    port: PortModel,
    source: u32,
    dests: Vec<u32>,
    random: Option<usize>,
    seed: u64,
    bytes: u32,
    trace: bool,
    json: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    spans_out: Option<String>,
    timeseries_out: Option<String>,
    faults: usize,
    fail_links: Vec<(u32, u8)>,
    fail_nodes: Vec<u32>,
    load: Option<f64>,
    arrivals: ArrivalProcess,
    sessions: usize,
    chaos: Option<(f64, f64)>,
    retries: u32,
    backoff_us: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 6,
        topology: TopologyKind::Cube,
        arity: 4,
        width: 4,
        height: 4,
        router: RouterKind::Ecube,
        lanes: None,
        collective: None,
        bine: false,
        algo: None,
        port: PortModel::AllPort,
        source: 0,
        dests: Vec::new(),
        random: None,
        seed: 1,
        bytes: 4096,
        trace: false,
        json: false,
        trace_out: None,
        metrics_out: None,
        spans_out: None,
        timeseries_out: None,
        faults: 0,
        fail_links: Vec::new(),
        fail_nodes: Vec::new(),
        load: None,
        arrivals: ArrivalProcess::Poisson,
        sessions: 100,
        chaos: None,
        retries: 3,
        backoff_us: 500,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> Result<&str, String> {
            *i += 1;
            argv.get(*i)
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {}", argv[*i - 1]))
        };
        match argv[i].as_str() {
            "--n" => args.n = take(&mut i)?.parse().map_err(|e| format!("--n: {e}"))?,
            "--topology" => {
                args.topology = match take(&mut i)? {
                    "cube" | "hypercube" => TopologyKind::Cube,
                    "torus" => TopologyKind::Torus,
                    "mesh" => TopologyKind::Mesh,
                    other => return Err(format!("unknown topology {other}")),
                }
            }
            "--arity" => args.arity = take(&mut i)?.parse().map_err(|e| format!("--arity: {e}"))?,
            "--width" => args.width = take(&mut i)?.parse().map_err(|e| format!("--width: {e}"))?,
            "--height" => {
                args.height = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--height: {e}"))?
            }
            "--router" => {
                args.router = match take(&mut i)? {
                    "ecube" | "xy" | "deterministic" => RouterKind::Ecube,
                    "adaptive" | "west-first" => RouterKind::Adaptive,
                    other => return Err(format!("unknown router {other}")),
                }
            }
            "--lanes" => {
                let l: u8 = take(&mut i)?.parse().map_err(|e| format!("--lanes: {e}"))?;
                if l == 0 {
                    return Err("--lanes must be >= 1".into());
                }
                args.lanes = Some(l);
            }
            "--algo" => {
                let v = take(&mut i)?.to_lowercase();
                args.algo = Some(match v.as_str() {
                    "ucube" | "u-cube" => Algorithm::UCube,
                    "maxport" => Algorithm::Maxport,
                    "combine" => Algorithm::Combine,
                    "wsort" | "w-sort" => Algorithm::WSort,
                    "separate" => Algorithm::Separate,
                    "dimtree" => Algorithm::DimTree,
                    "bine" => {
                        args.bine = true;
                        args.algo = None;
                        i += 1;
                        continue;
                    }
                    "all" => {
                        args.algo = None;
                        i += 1;
                        continue;
                    }
                    other => return Err(format!("unknown algorithm {other}")),
                });
            }
            "--collective" => {
                args.collective = Some(match take(&mut i)?.to_lowercase().as_str() {
                    "allgather" => CollectiveKind::Allgather,
                    "reducescatter" | "reduce-scatter" => CollectiveKind::ReduceScatter,
                    "allreduce" => CollectiveKind::Allreduce,
                    other => return Err(format!("unknown collective {other}")),
                });
            }
            "--port" => {
                args.port = match take(&mut i)? {
                    "one" | "one-port" => PortModel::OnePort,
                    "all" | "all-port" => PortModel::AllPort,
                    other => return Err(format!("unknown port model {other}")),
                }
            }
            "--source" => {
                args.source = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--source: {e}"))?
            }
            "--dests" => {
                args.dests = take(&mut i)?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--dests: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--random" => {
                args.random = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--random: {e}"))?,
                )
            }
            "--seed" => args.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--bytes" => args.bytes = take(&mut i)?.parse().map_err(|e| format!("--bytes: {e}"))?,
            "--trace" => args.trace = true,
            "--json" => args.json = true,
            "--trace-out" => args.trace_out = Some(take(&mut i)?.to_string()),
            "--metrics-out" => args.metrics_out = Some(take(&mut i)?.to_string()),
            "--spans-out" => args.spans_out = Some(take(&mut i)?.to_string()),
            "--timeseries-out" => args.timeseries_out = Some(take(&mut i)?.to_string()),
            "--faults" => {
                args.faults = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--faults: {e}"))?
            }
            "--fail-link" => {
                let v = take(&mut i)?;
                let (node, dim) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--fail-link: expected V:D, got {v}"))?;
                args.fail_links.push((
                    node.trim()
                        .parse()
                        .map_err(|e| format!("--fail-link node: {e}"))?,
                    dim.trim()
                        .parse()
                        .map_err(|e| format!("--fail-link dim: {e}"))?,
                ));
            }
            "--fail-node" => args.fail_nodes.push(
                take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--fail-node: {e}"))?,
            ),
            "--load" => {
                let rate: f64 = take(&mut i)?.parse().map_err(|e| format!("--load: {e}"))?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("--load must be a positive rate, got {rate}"));
                }
                args.load = Some(rate);
            }
            "--arrivals" => args.arrivals = ArrivalProcess::parse(take(&mut i)?)?,
            "--chaos" => {
                let v = take(&mut i)?;
                let (mtbf, mttr) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--chaos: expected MTBF:MTTR in ms, got {v}"))?;
                let mtbf: f64 = mtbf
                    .trim()
                    .parse()
                    .map_err(|e| format!("--chaos mtbf: {e}"))?;
                let mttr: f64 = mttr
                    .trim()
                    .parse()
                    .map_err(|e| format!("--chaos mttr: {e}"))?;
                if !(mtbf > 0.0 && mttr > 0.0) {
                    return Err(format!("--chaos: MTBF and MTTR must be positive, got {v}"));
                }
                args.chaos = Some((mtbf, mttr));
            }
            "--retries" => {
                args.retries = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--backoff" => {
                let b: u64 = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--backoff: {e}"))?;
                if b == 0 {
                    return Err("--backoff must be >= 1 µs".into());
                }
                args.backoff_us = b;
            }
            "--sessions" => {
                args.sessions = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?;
                if args.sessions == 0 {
                    return Err("--sessions must be >= 1".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: mcast --n <dim> [--topology cube|torus|mesh] [--arity K]\n\
                     \x20             [--width W --height H] [--router ecube|adaptive] [--lanes N]\n\
                     \x20             [--algo ucube|maxport|combine|wsort|separate|dimtree|bine|all]\n\
                     \x20             [--collective allgather|reduce-scatter|allreduce]\n\
                     \x20             [--port one|all] [--source A] [--dests a,b,c | --random M [--seed S]]\n\
                     \x20             [--bytes B] [--trace] [--json]\n\
                     \x20             [--trace-out FILE.json] [--metrics-out FILE.prom|FILE.json]\n\
                     \x20             [--spans-out FILE.json] [--timeseries-out FILE.json]\n\
                     \x20             [--faults K] [--fail-link V:D]... [--fail-node V]...\n\
                     \x20             [--load R [--arrivals det|poisson|bursty[:B]] [--sessions N]]\n\
                     \x20             [--chaos MTBF:MTTR [--retries N] [--backoff B]]\n\
                     \x20      mcast serve [--max-inflight N]\n\
                     \n\
                     flag summary:\n\
                     \x20 topology    --n DIM, --topology cube|torus|mesh, --arity K (torus radix),\n\
                     \x20             --width W --height H (mesh shape)\n\
                     \x20 routing     --router ecube|adaptive (adaptive = west-first, mesh only),\n\
                     \x20             --lanes N (virtual lanes per link; torus needs an even N)\n\
                     \x20 multicast   --algo ..., --port one|all, --source A,\n\
                     \x20             --dests a,b,c | --random M, --seed S, --bytes B\n\
                     \x20 collective  --collective allgather|reduce-scatter|allreduce\n\
                     \x20             (--algo picks the tree family, bine = the Jacobsthal\n\
                     \x20              bine tree, default compares all; composes with --load)\n\
                     \x20 output      --json, --trace, --trace-out FILE, --metrics-out FILE,\n\
                     \x20             --spans-out FILE, --timeseries-out FILE (need --load)\n\
                     \x20 faults      --faults K, --fail-link V:D, --fail-node V\n\
                     \x20 open loop   --load R (sessions/ms), --arrivals det|poisson|bursty[:B],\n\
                     \x20             --sessions N\n\
                     \x20 churn       --chaos MTBF:MTTR (per-link, ms), --retries N, --backoff B (µs)\n\
                     \n\
                     observability: --trace-out writes a Chrome/Perfetto trace of the run's\n\
                     exact channel holds and blocking episodes (open in ui.perfetto.dev);\n\
                     --metrics-out writes the in-loop metrics registry, Prometheus text\n\
                     exposition if the file ends in .prom, JSON otherwise. On the cube both\n\
                     require a single --algo. --spans-out and --timeseries-out attach the\n\
                     session-level flight recorder to an open-loop run (they require\n\
                     --load, and a single --algo on the cube): spans-out writes one trace\n\
                     per session — every attempt with its exact queueing/blocked/transit\n\
                     decomposition, chained through retries — and timeseries-out writes the\n\
                     windowed series (goodput, latency quantiles, cache hit rate, live\n\
                     faults, per-dimension blocked time per bucket). Both compose with\n\
                     --chaos; the reported numbers are byte-identical with or without the\n\
                     recorder attached.\n\
                     \n\
                     collectives: --collective KIND builds the full-machine collective\n\
                     (allgather, reduce-scatter, or allreduce; --bytes is the per-node\n\
                     block, --source the allreduce root), certifies its data movement\n\
                     with the symbolic oracle, and replays it on the idle network —\n\
                     or, with --load R, injects whole collectives as open-loop sessions.\n\
                     On the cube --algo picks the tree family (including `bine`); the\n\
                     torus runs separate addressing. See DESIGN.md section 17.\n\
                     \n\
                     fault injection: --faults K kills K random directed links (seeded by --seed);\n\
                     --fail-link V:D kills the channel leaving node V in dimension D;\n\
                     --fail-node V kills node V. Each tree is then replayed over the faulty\n\
                     network, repaired with hypercast::repair, and replayed again.\n\
                     \n\
                     open-loop traffic: --load R switches from a single multicast to a\n\
                     sustained open-loop run at R sessions/ms (--arrivals picks the point\n\
                     process, default poisson; --sessions the session count, default 100;\n\
                     --seed the schedule seed). Each session replays the configured\n\
                     multicast (--dests => a fixed group, --random M => a fresh uniform\n\
                     draw per session); trees are built through the LRU tree cache and the\n\
                     report includes steady-state latency (batch-means 95% CI),\n\
                     completion ratio, throughput, and cache hit rate. Incompatible with\n\
                     fault and trace flags.\n\
                     \n\
                     fault churn: --chaos MTBF:MTTR (requires --load) runs the open-loop\n\
                     traffic under a seed-deterministic failure/repair process: each link\n\
                     fails with the given per-link MTBF and revives after ~MTTR ms (nodes\n\
                     churn too, at 4x the link MTBF and 1.5x the MTTR); failures strike in\n\
                     the first 60% of the window, then the network heals. Faulted sessions\n\
                     retry up to --retries times (default 3) under exponential backoff\n\
                     starting at --backoff µs (default 500, x4 per attempt); retries on the\n\
                     cube rebuild their trees through hypercast::repair. The report adds\n\
                     delivery ratio, goodput, the retry-attempt histogram, losses, and\n\
                     time-to-recover.\n\
                     \n\
                     service mode: `mcast serve` runs a long-lived daemon reading one JSON\n\
                     request per stdin line and writing one JSON response per line, in\n\
                     request order; --max-inflight N bounds the request queue (default 16,\n\
                     backpressures the client through the pipe). Ops: traffic, chaos,\n\
                     multicast, stats, shutdown. See DESIGN.md section 16.\n\
                     \n\
                     --topology torus simulates separate addressing on a K-ary n-cube with\n\
                     dateline virtual channels; --topology mesh does the same on a WxH mesh\n\
                     under XY (--router ecube) or west-first minimal-adaptive routing\n\
                     (--router adaptive). Tree algorithms and fault repair are\n\
                     hypercube-specific. --lanes N threads every backend's physical links\n\
                     with N virtual lanes; the JSON report then carries per-lane\n\
                     utilization."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        i += 1;
    }
    Ok(args)
}

/// One-line network-statistics summary shared by the cube and torus
/// paths: per-dimension external-channel utilization plus the deepest
/// FIFO queue the run ever saw.
fn stats_line(stats: &NetStats) -> String {
    let util: Vec<String> = stats
        .dim_utilization()
        .iter()
        .map(|u| format!("{:.1}%", u * 100.0))
        .collect();
    format!(
        "dim util [{}], max queue depth {}",
        util.join(" "),
        stats.max_queue_depth
    )
}

/// Re-runs the workload with an in-loop `Tee(EventRecorder, Metrics)`
/// probe and writes the requested observability artifacts: a
/// Chrome/Perfetto trace (`--trace-out`) and/or a metrics export
/// (`--metrics-out`; Prometheus text for `.prom`, JSON otherwise).
///
/// The observed replay is byte-deterministic, so its schedule is
/// identical to the reporting run that preceded it.
fn write_observability<R: Router + Copy>(
    router: R,
    params: &SimParams,
    workload: &[DepMessage],
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) {
    let mut probe = Tee(EventRecorder::new(), Metrics::new());
    let _run = Run::new(router, params, workload)
        .probe(&mut probe)
        .run()
        .expect("well-formed workload");
    let Tee(recorder, metrics) = probe;
    if let Some(path) = trace_out {
        let map = ChannelMap::new(router);
        write_artifact(path, &recorder.to_chrome_trace(&map), "--trace-out");
        eprintln!(
            "[saved {path}: {} events ({} dropped from the ring), open in ui.perfetto.dev]",
            recorder.total_events(),
            recorder.dropped()
        );
    }
    if let Some(path) = metrics_out {
        let registry = metrics.snapshot();
        let text = if path.ends_with(".prom") {
            registry.to_prometheus_text()
        } else {
            registry.to_json()
        };
        write_artifact(path, &text, "--metrics-out");
        eprintln!("[saved {path}]");
    }
}

/// Writes the flight-recorder artifacts of an open-loop run: session
/// spans (`--spans-out`) and/or the windowed time-series
/// (`--timeseries-out`).
fn write_telemetry(args: &Args, tel: &Telemetry) {
    if let Some(path) = args.spans_out.as_deref() {
        write_artifact(path, &tel.spans_to_json_string(), "--spans-out");
        eprintln!(
            "[saved {path}: {} session traces across {} waves]",
            tel.sessions.len(),
            tel.waves
        );
    }
    if let Some(path) = args.timeseries_out.as_deref() {
        write_artifact(path, &tel.series.to_json_string(), "--timeseries-out");
        eprintln!(
            "[saved {path}: {} buckets of {:.3} ms]",
            tel.series.buckets.len(),
            tel.series.bucket_ns as f64 / 1e6
        );
    }
}

/// Writes an observability artifact, creating parent directories as
/// needed; exits with status 2 on I/O failure.
fn write_artifact(path: &str, contents: &str, flag: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: {flag} {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: {flag} {path}: {e}");
        std::process::exit(2);
    }
}

/// Validates the source and assembles the destination set for a
/// separate-addressing backend (torus or mesh).
fn separate_dests<T: Topology>(args: &Args, topo: &T, what: &str) -> Vec<NodeId> {
    let source = NodeId(args.source);
    if !topo.contains(source) {
        eprintln!("error: --source {} outside the {what}", args.source);
        std::process::exit(2);
    }
    let dests: Vec<NodeId> = if let Some(m) = args.random {
        let mut rng = workloads::destsets::trial_rng("mcast-cli", 0, args.seed as usize);
        workloads::destsets::random_dests_on(&mut rng, topo, source, m)
    } else if args.dests.is_empty() {
        eprintln!("error: provide --dests or --random (try --help)");
        std::process::exit(2);
    } else {
        args.dests.iter().copied().map(NodeId).collect()
    };
    for &d in &dests {
        if !topo.contains(d) || d == source {
            eprintln!("error: destination {} invalid for this {what}", d.0);
            std::process::exit(2);
        }
    }
    dests
}

/// Simulates one-unicast-per-destination separate addressing on `router`
/// and prints the shared summary, JSON (with lane accounting), trace,
/// and observability artifacts. `json_head` carries the topology-shaped
/// JSON prefix (`"topology":...` fields, no trailing comma).
fn run_separate<R: Router + Copy>(router: R, args: &Args, dests: &[NodeId], json_head: &str) {
    let params = SimParams::ncube2(args.port);
    let source = NodeId(args.source);
    let workload: Vec<DepMessage> = dests
        .iter()
        .map(|&dst| DepMessage {
            src: source,
            dst,
            bytes: args.bytes,
            deps: vec![],
            min_start: SimTime::ZERO,
        })
        .collect();
    let run = Run::new(router, &params, &workload)
        .run()
        .expect("well-formed workload");
    let avg = SimTime(
        run.messages
            .iter()
            .map(|m| m.delivered.as_ns())
            .sum::<u64>()
            / run.messages.len() as u64,
    );
    println!(
        " separate: {} messages, sim avg {} max {} (blocks {})",
        run.messages.len(),
        avg,
        run.stats.makespan,
        run.stats.blocks
    );
    println!("           net: {}", stats_line(&run.stats));
    if args.json {
        let util: Vec<String> = run
            .stats
            .dim_utilization()
            .iter()
            .map(|u| format!("{u:.6}"))
            .collect();
        let lane_util: Vec<String> = run
            .stats
            .lane_utilization()
            .iter()
            .map(|u| format!("{u:.6}"))
            .collect();
        println!(
            "{{{json_head},\"dests\":{},\"bytes\":{},\
             \"avg_delay_ns\":{},\"makespan_ns\":{},\"blocks\":{},\
             \"dim_utilization\":[{}],\"lanes\":{},\"lane_utilization\":[{}],\
             \"max_queue_depth\":{}}}",
            dests.len(),
            args.bytes,
            avg.as_ns(),
            run.stats.makespan.as_ns(),
            run.stats.blocks,
            util.join(","),
            run.stats.lane_busy.len(),
            lane_util.join(","),
            run.stats.max_queue_depth
        );
    }
    if args.trace {
        let trace = ChannelTrace::reconstruct_on(router, &params, &workload, &run);
        println!("\n{}", trace.render_timeline(64));
        println!(
            "external-channel utilization: {:.1}% across {} channels",
            trace.utilization() * 100.0,
            trace.channels_used()
        );
    }
    if args.trace_out.is_some() || args.metrics_out.is_some() {
        write_observability(
            router,
            &params,
            &workload,
            args.trace_out.as_deref(),
            args.metrics_out.as_deref(),
        );
    }
}

/// Separate-addressing multicast on the k-ary n-cube torus backend.
fn run_torus(args: &Args) {
    if args.faults > 0 || !args.fail_links.is_empty() || !args.fail_nodes.is_empty() {
        eprintln!("error: fault injection/repair flags are hypercube-only");
        std::process::exit(2);
    }
    if args.router == RouterKind::Adaptive {
        eprintln!("error: --router adaptive is mesh-only (the torus routes dimension-ordered)");
        std::process::exit(2);
    }
    let torus = match Torus::new(args.arity, args.n) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let router = match args.lanes {
        None => TorusRouter::new(torus),
        Some(l) if l >= 2 && l % 2 == 0 => TorusRouter::with_lane_multiplier(torus, l / 2),
        Some(l) => {
            eprintln!("error: --lanes {l}: torus lanes come in dateline pairs (use an even N)");
            std::process::exit(2);
        }
    };
    let dests = separate_dests(args, &torus, &format!("{}-ary {}-cube", args.arity, args.n));
    println!(
        "{}-ary {}-cube torus | {} | source {} | {} destinations | {} bytes\n",
        args.arity,
        args.n,
        args.port.label(),
        torus.node_label(NodeId(args.source)),
        dests.len(),
        args.bytes
    );
    let json_head = format!(
        "\"topology\":\"torus\",\"arity\":{},\"n\":{}",
        args.arity, args.n
    );
    run_separate(router, args, &dests, &json_head);
}

/// Separate-addressing multicast on the 2D mesh backend, under XY or
/// west-first minimal-adaptive routing.
fn run_mesh(args: &Args) {
    if args.faults > 0 || !args.fail_links.is_empty() || !args.fail_nodes.is_empty() {
        eprintln!("error: fault injection/repair flags are hypercube-only");
        std::process::exit(2);
    }
    let mesh = match Mesh::new(args.width, args.height) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let lanes = args.lanes.unwrap_or(1);
    let dests = separate_dests(args, &mesh, &format!("{}x{} mesh", args.width, args.height));
    let router_name = match args.router {
        RouterKind::Ecube => "xy",
        RouterKind::Adaptive => "west-first adaptive",
    };
    println!(
        "{}x{} mesh | {router_name} | {} | source {} | {} destinations | {} bytes\n",
        args.width,
        args.height,
        args.port.label(),
        mesh.node_label(NodeId(args.source)),
        dests.len(),
        args.bytes
    );
    let json_head = format!(
        "\"topology\":\"mesh\",\"width\":{},\"height\":{},\"router\":\"{}\"",
        args.width,
        args.height,
        match args.router {
            RouterKind::Ecube => "ecube",
            RouterKind::Adaptive => "adaptive",
        }
    );
    match args.router {
        RouterKind::Ecube => {
            run_separate(MeshXY::with_lanes(mesh, lanes), args, &dests, &json_head)
        }
        RouterKind::Adaptive => run_separate(
            MinimalAdaptive::with_lanes(mesh, lanes),
            args,
            &dests,
            &json_head,
        ),
    }
}

/// The tree families a `--collective` run compares: `--algo X` pins one,
/// `--algo bine` the bine tree, no flag sweeps the whole family set.
fn collective_families(args: &Args) -> Vec<TreeFamily> {
    if args.bine {
        vec![TreeFamily::Bine]
    } else {
        match args.algo {
            Some(a) => vec![TreeFamily::Alg(a)],
            None => TreeFamily::SWEEP.to_vec(),
        }
    }
}

/// Prints one collective schedule's idle-network measurement (and the
/// `--json` line), after certifying it with the data oracle.
fn report_collective(
    label: &str,
    sched: &CollectiveSchedule,
    report: &wormsim::SimReport,
    json: bool,
) {
    let verified = match verify_collective(sched) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("{label:>9}  ORACLE FAILURE: {e}");
            false
        }
    };
    println!(
        "{label:>9}: {} steps, {} ops, {} payload bytes, sim avg {} max {} (blocks {}), oracle {}",
        sched.steps,
        sched.ops.len(),
        sched.payload_bytes(),
        report.avg_delay,
        report.max_delay,
        report.blocks,
        if verified { "ok" } else { "FAIL" },
    );
    if json {
        println!(
            "{{\"collective\":\"{}\",\"family\":\"{label}\",\"nodes\":{},\"steps\":{},\
             \"ops\":{},\"payload_bytes\":{},\"avg_delay_ns\":{},\"makespan_ns\":{},\
             \"blocks\":{},\"verified\":{verified}}}",
            sched.kind.name(),
            sched.nodes,
            sched.steps,
            sched.ops.len(),
            sched.payload_bytes(),
            report.avg_delay.as_ns(),
            report.max_delay.as_ns(),
            report.blocks,
        );
    }
}

/// `--collective KIND` without `--load`: build, oracle-verify, and
/// replay one full-machine collective on the idle network.
fn run_collective(args: &Args, kind: CollectiveKind) {
    if args.faults > 0
        || !args.fail_links.is_empty()
        || !args.fail_nodes.is_empty()
        || args.trace
        || args.trace_out.is_some()
        || args.metrics_out.is_some()
        || args.lanes.is_some()
    {
        eprintln!("error: --collective is incompatible with fault, trace, and lane flags");
        std::process::exit(2);
    }
    let params = SimParams::ncube2(args.port);
    match args.topology {
        TopologyKind::Mesh => {
            eprintln!("error: --collective supports cube and torus backends");
            std::process::exit(2);
        }
        TopologyKind::Torus => {
            let torus = match Torus::new(args.arity, args.n) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            };
            if args.source >= torus.node_count() as u32 {
                eprintln!("error: --source {} outside the torus", args.source);
                std::process::exit(2);
            }
            println!(
                "{}-ary {}-cube torus | {} | {} | block {} bytes\n",
                args.arity,
                args.n,
                args.port.label(),
                kind.name(),
                args.bytes
            );
            let sched = match kind {
                CollectiveKind::Allgather => allgather_separate(&torus, args.bytes),
                CollectiveKind::ReduceScatter => reduce_scatter_separate(&torus, args.bytes),
                CollectiveKind::Allreduce => {
                    allreduce_separate(&torus, NodeId(args.source), args.bytes)
                }
            };
            let report = wormsim::simulate_collective_on(&sched, TorusRouter::new(torus), &params);
            report_collective("Separate", &sched, &report, args.json);
        }
        TopologyKind::Cube => {
            let cube = match Cube::new(args.n) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            };
            if args.source >= cube.node_count() as u32 {
                eprintln!(
                    "error: --source {} outside the {}-cube",
                    args.source, args.n
                );
                std::process::exit(2);
            }
            println!(
                "{}-cube | {} | {} | block {} bytes\n",
                args.n,
                args.port.label(),
                kind.name(),
                args.bytes
            );
            for family in collective_families(args) {
                let built = match kind {
                    CollectiveKind::Allgather => allgather(
                        family,
                        cube,
                        Resolution::HighToLow,
                        args.port,
                        args.bytes,
                        None,
                    ),
                    CollectiveKind::ReduceScatter => reduce_scatter(
                        family,
                        cube,
                        Resolution::HighToLow,
                        args.port,
                        args.bytes,
                        None,
                    ),
                    CollectiveKind::Allreduce => allreduce(
                        family,
                        cube,
                        Resolution::HighToLow,
                        args.port,
                        NodeId(args.source),
                        args.bytes,
                        None,
                    ),
                };
                let sched = match built {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                };
                let report =
                    wormsim::simulate_collective(&sched, cube, Resolution::HighToLow, &params);
                report_collective(family.name(), &sched, &report, args.json);
            }
        }
    }
}

/// Builds the per-session destination pattern of an open-loop run:
/// explicit `--dests` fixes the group (every session replays it; the
/// tree cache turns repeats into pointer hits), `--random M` draws a
/// fresh uniform group per session.
fn traffic_pattern(args: &Args, source: NodeId) -> DestPattern {
    if let Some(m) = args.random {
        DestPattern::UniformRandom { m }
    } else {
        DestPattern::Fixed {
            source,
            dests: args.dests.iter().copied().map(NodeId).collect(),
        }
    }
}

fn traffic_spec(args: &Args, rate: f64, pattern: DestPattern) -> TrafficSpec {
    workloads::serve::load_spec(
        args.arrivals,
        rate,
        pattern,
        args.sessions,
        args.seed,
        args.bytes,
    )
}

fn print_traffic_report(label: &str, r: &TrafficReport, json: bool) {
    println!(
        "{label:>9}: {} sessions ({} measured), completed {:.3}, \
         latency {:.4} ms ±{:.4} (95% CI), thru {:.3}/ms, cache hit {:.3}",
        r.sessions.len(),
        r.measured_sessions,
        r.completion_ratio,
        r.latency.mean,
        r.latency.ci_half_width,
        r.throughput_per_ms,
        r.cache.hit_rate(),
    );
    println!(
        "{:>9}  net: {} (timed out {})",
        "",
        stats_line(&r.net),
        r.net.timed_out
    );
    if json {
        println!("{}", workloads::serve::traffic_report_json(label, r, None));
    }
}

/// Wraps the open-loop spec with the `--chaos` churn process and the
/// retry policy (the conventions live in [`workloads::serve`], shared
/// with the service mode).
fn chaos_spec(args: &Args, traffic: TrafficSpec, mtbf_ms: f64, mttr_ms: f64) -> ChaosSpec {
    workloads::serve::chaos_wrap(traffic, mtbf_ms, mttr_ms, args.retries, args.backoff_us)
}

fn print_chaos_report(label: &str, r: &ChaosReport, json: bool) {
    let hist: Vec<String> = r
        .retry_histogram
        .iter()
        .enumerate()
        .map(|(k, n)| format!("{}x{n}", k + 1))
        .collect();
    let recover = match r.time_to_recover {
        Some(t) => format!("{t}"),
        None => "-".into(),
    };
    println!(
        "{label:>9}: {} sessions ({} measured), delivered {:.3}, goodput {:.3}/ms, \
         latency {:.4} ms ±{:.4} (95% CI)",
        r.sessions.len(),
        r.measured_sessions,
        r.delivery_ratio,
        r.goodput_per_ms,
        r.latency.mean,
        r.latency.ci_half_width,
    );
    println!(
        "{:>9}  churn: {} fault events over {} epochs, attempts [{}], \
         lost {}, window-cut {}, recover {}",
        "",
        r.fault_events,
        r.epochs,
        hist.join(" "),
        r.lost,
        r.window_cut,
        recover,
    );
    println!(
        "{:>9}  net: {} (timed out {}), cache {}h/{}m/{}e/{}i",
        "",
        stats_line(&r.net),
        r.net.timed_out,
        r.cache.hits,
        r.cache.misses,
        r.cache.evictions,
        r.cache.invalidations,
    );
    if json {
        println!("{}", workloads::serve::chaos_report_json(label, r, None));
    }
}

/// `--load R --collective KIND`: open-loop collective traffic — every
/// session is one full-machine collective (the destination flags are
/// irrelevant; allreduce roots rotate round-robin across sessions).
fn run_collective_traffic(args: &Args, rate: f64, kind: CollectiveKind) {
    if args.chaos.is_some() {
        eprintln!("error: collective traffic does not support --chaos");
        std::process::exit(2);
    }
    if args.spans_out.is_some() || args.timeseries_out.is_some() {
        eprintln!("error: collective traffic does not support the flight recorder");
        std::process::exit(2);
    }
    if args.lanes.is_some() {
        eprintln!("error: --lanes applies to single-shot runs (drop --load)");
        std::process::exit(2);
    }
    let params = SimParams::ncube2(args.port);
    // Collective sessions span the whole machine: the pattern slot of
    // the spec is unused but the engine needs one.
    let pattern = DestPattern::UniformRandom { m: 1 };
    match args.topology {
        TopologyKind::Mesh => {
            eprintln!("error: --collective supports cube and torus backends");
            std::process::exit(2);
        }
        TopologyKind::Torus => {
            let torus = match Torus::new(args.arity, args.n) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            };
            println!(
                "{}-ary {}-cube torus | {} | open loop {}: {} arrivals at {} sessions/ms | block {} bytes\n",
                args.arity,
                args.n,
                args.port.label(),
                kind.name(),
                args.arrivals,
                rate,
                args.bytes
            );
            let spec = traffic_spec(args, rate, pattern);
            let backend = Backend::SeparateCollective(TorusRouter::new(torus), kind);
            run_load(args, "Separate", spec, backend, &params);
        }
        TopologyKind::Cube => {
            let cube = match Cube::new(args.n) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            };
            println!(
                "{}-cube | {} | open loop {}: {} arrivals at {} sessions/ms | block {} bytes\n",
                args.n,
                args.port.label(),
                kind.name(),
                args.arrivals,
                rate,
                args.bytes
            );
            for family in collective_families(args) {
                let spec = traffic_spec(args, rate, pattern.clone());
                let backend = Backend::collective(cube, Resolution::HighToLow, kind, family);
                run_load(args, family.name(), spec, backend, &params);
            }
        }
    }
}

/// `--load R`: open-loop steady-state traffic instead of a single shot.
fn run_traffic(args: &Args, rate: f64) {
    if args.faults > 0
        || !args.fail_links.is_empty()
        || !args.fail_nodes.is_empty()
        || args.trace
        || args.trace_out.is_some()
        || args.metrics_out.is_some()
    {
        eprintln!("error: --load is incompatible with fault and trace flags");
        std::process::exit(2);
    }
    if let Some(kind) = args.collective {
        run_collective_traffic(args, rate, kind);
        return;
    }
    if args.random.is_none() && args.dests.is_empty() {
        eprintln!("error: provide --dests or --random (try --help)");
        std::process::exit(2);
    }
    if args.lanes.is_some() {
        eprintln!("error: --lanes applies to single-shot runs (drop --load)");
        std::process::exit(2);
    }
    let telemetry = args.spans_out.is_some() || args.timeseries_out.is_some();
    let params = SimParams::ncube2(args.port);
    match args.topology {
        TopologyKind::Mesh => {
            eprintln!("error: --load supports cube and torus backends");
            std::process::exit(2);
        }
        TopologyKind::Torus => {
            let torus = match Torus::new(args.arity, args.n) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            };
            let spec = traffic_spec(args, rate, traffic_pattern(args, NodeId(args.source)));
            println!(
                "{}-ary {}-cube torus | {} | open loop: {} arrivals at {} sessions/ms | {} bytes\n",
                args.arity,
                args.n,
                args.port.label(),
                args.arrivals,
                rate,
                args.bytes
            );
            let backend = Backend::Separate(TorusRouter::new(torus));
            run_load(args, "Separate", spec, backend, &params);
        }
        TopologyKind::Cube => {
            let cube = match Cube::new(args.n) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            };
            if telemetry && args.algo.is_none() {
                eprintln!("error: --spans-out/--timeseries-out need a single --algo (not `all`)");
                std::process::exit(2);
            }
            let algos: Vec<Algorithm> = match args.algo {
                Some(a) => vec![a],
                None => Algorithm::PAPER.to_vec(),
            };
            println!(
                "{}-cube | {} | open loop: {} arrivals at {} sessions/ms | {} bytes\n",
                args.n,
                args.port.label(),
                args.arrivals,
                rate,
                args.bytes
            );
            let pattern = traffic_pattern(args, NodeId(args.source));
            for algo in algos {
                let spec = traffic_spec(args, rate, pattern.clone());
                let backend = Backend::tree(cube, Resolution::HighToLow, algo);
                run_load(args, algo.name(), spec, backend, &params);
            }
        }
    }
}

/// Runs one open-loop configuration, as chaos under `--chaos`, prints
/// its report, and writes the flight recorder's files when asked.
fn run_load<R: Router + Copy>(
    args: &Args,
    label: &str,
    spec: TrafficSpec,
    backend: Backend<R>,
    params: &SimParams,
) {
    let tcfg = TelemetryConfig::default();
    let mut tel = None;
    let mut opts = RunOptions::default();
    if args.spans_out.is_some() || args.timeseries_out.is_some() {
        opts = opts.telemetry(&tcfg, &mut tel);
    }
    match args.chaos {
        Some((mtbf, mttr)) => {
            let spec = chaos_spec(args, spec, mtbf, mttr);
            let r = traffic::run_chaos(&spec, backend, params, opts);
            print_chaos_report(label, &r, args.json);
        }
        None => {
            let r = traffic::run(&spec, backend, params, opts);
            print_traffic_report(label, &r, args.json);
        }
    }
    if let Some(tel) = &tel {
        write_telemetry(args, tel);
    }
}

/// `mcast serve`: the long-running service mode. Flags after the
/// subcommand configure the queue and caps; the request loop itself
/// lives in [`workloads::serve`].
fn run_serve(flags: &[String]) {
    let mut opts = workloads::serve::ServeOptions::default();
    let mut i = 0;
    while i < flags.len() {
        let take = |i: &mut usize| -> &str {
            *i += 1;
            flags.get(*i).map(String::as_str).unwrap_or_else(|| {
                eprintln!("error: missing value for {}", flags[*i - 1]);
                std::process::exit(2);
            })
        };
        match flags[i].as_str() {
            "--max-inflight" => {
                opts.max_inflight = take(&mut i).parse().unwrap_or_else(|e| {
                    eprintln!("error: --max-inflight: {e}");
                    std::process::exit(2);
                });
                if opts.max_inflight == 0 {
                    eprintln!("error: --max-inflight must be >= 1");
                    std::process::exit(2);
                }
            }
            "--max-sessions" => {
                opts.max_sessions = take(&mut i).parse().unwrap_or_else(|e| {
                    eprintln!("error: --max-sessions: {e}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("error: unknown serve flag {other} (serve takes --max-inflight, --max-sessions)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // StdinLock is !Send and the reader runs on its own thread, so wrap
    // the unlocked handle in a BufReader instead.
    let input = std::io::BufReader::new(std::io::stdin());
    let mut stdout = std::io::stdout().lock();
    match workloads::serve::serve_loop(input, &mut stdout, &opts) {
        Ok(summary) => {
            eprintln!(
                "mcast serve: {} served, {} errors, {}",
                summary.served,
                summary.errors,
                if summary.shutdown {
                    "shutdown requested"
                } else {
                    "input closed"
                }
            );
        }
        Err(e) => {
            eprintln!("error: serve output: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        run_serve(&argv[1..]);
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(rate) = args.load {
        run_traffic(&args, rate);
        return;
    }
    if args.chaos.is_some() {
        eprintln!("error: --chaos requires --load (churn acts on open-loop traffic)");
        std::process::exit(2);
    }
    if args.spans_out.is_some() || args.timeseries_out.is_some() {
        eprintln!(
            "error: --spans-out/--timeseries-out require --load (the flight recorder is session-level)"
        );
        std::process::exit(2);
    }
    if let Some(kind) = args.collective {
        run_collective(&args, kind);
        return;
    }
    if args.topology == TopologyKind::Torus {
        run_torus(&args);
        return;
    }
    if args.topology == TopologyKind::Mesh {
        run_mesh(&args);
        return;
    }
    if args.router == RouterKind::Adaptive {
        eprintln!("error: --router adaptive is mesh-only (the cube routes E-cube)");
        std::process::exit(2);
    }
    let cube = match Cube::new(args.n) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let dests: Vec<NodeId> = if let Some(m) = args.random {
        let mut rng = workloads::destsets::trial_rng("mcast-cli", 0, args.seed as usize);
        workloads::destsets::random_dests(&mut rng, cube, NodeId(args.source), m)
    } else if args.dests.is_empty() {
        eprintln!("error: provide --dests or --random (try --help)");
        std::process::exit(2);
    } else {
        args.dests.iter().copied().map(NodeId).collect()
    };

    // Assemble the fault plan, if any fault flag was given.
    let mut plan = FaultPlan::random_links(cube, args.faults, args.seed);
    for &(v, d) in &args.fail_links {
        if v >= cube.node_count() as u32 || d >= args.n {
            eprintln!("error: --fail-link {v}:{d} outside the {}-cube", args.n);
            std::process::exit(2);
        }
        plan.fail_link(NodeId(v), Dim(d));
    }
    for &v in &args.fail_nodes {
        if v >= cube.node_count() as u32 {
            eprintln!("error: --fail-node {v} outside the {}-cube", args.n);
            std::process::exit(2);
        }
        plan.fail_node(NodeId(v));
    }
    let faulty = !plan.is_empty();

    let params = SimParams::ncube2(args.port);
    if (args.trace_out.is_some() || args.metrics_out.is_some()) && args.algo.is_none() {
        eprintln!("error: --trace-out/--metrics-out need a single --algo (not `all`)");
        std::process::exit(2);
    }
    let algos: Vec<Algorithm> = match args.algo {
        Some(a) => vec![a],
        None => Algorithm::ALL.to_vec(),
    };
    println!(
        "{}-cube | {} | source {} | {} destinations | {} bytes\n",
        args.n,
        args.port.label(),
        NodeId(args.source).binary(args.n),
        dests.len(),
        args.bytes
    );
    for algo in algos {
        let tree = match algo.build(
            cube,
            Resolution::HighToLow,
            args.port,
            NodeId(args.source),
            &dests,
        ) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let witnesses = contention_witnesses(&tree);
        let lanes = args.lanes.unwrap_or(1);
        let report = wormsim::simulate_multicast_lanes(&tree, &params, args.bytes, lanes);
        println!(
            "{:>9}: {} steps, {} messages, def-4 witnesses {}, sim avg {} max {} (blocks {})",
            algo.name(),
            tree.steps,
            tree.message_count(),
            witnesses.len(),
            report.avg_delay,
            report.max_delay,
            report.blocks
        );
        println!("{:>9}  net: {}", "", stats_line(&report.stats));
        if faulty {
            match wormsim::simulate_multicast_with_faults(&tree, &params, args.bytes, &plan) {
                Ok(r) => println!(
                    "{:>9}  faulty net: delivered {}/{} (ratio {:.3}), makespan {}",
                    "",
                    r.deliveries.len(),
                    r.deliveries.len() + r.lost.len(),
                    r.delivery_ratio,
                    r.makespan
                ),
                Err(e) => println!("{:>9}  faulty net: {e}", ""),
            }
            let fixed = repair(&tree, &NetworkFaults::from(&plan));
            match wormsim::simulate_multicast_with_faults(&fixed.tree, &params, args.bytes, &plan) {
                Ok(r) => println!(
                    "{:>9}  repaired:   delivered {}/{} (ratio {:.3}), makespan {}, \
                     {} rerouted, {} dropped, {} unreachable, +{} steps",
                    "",
                    r.deliveries.len(),
                    r.deliveries.len() + r.lost.len(),
                    r.delivery_ratio,
                    r.makespan,
                    fixed.rerouted.len(),
                    fixed.dropped.len(),
                    fixed.unreachable.len(),
                    fixed.extra_steps
                ),
                Err(e) => println!("{:>9}  repaired:   {e}", ""),
            }
        }
        if args.json {
            println!("{}", tree.to_json());
            println!(
                "{}",
                workloads::serve::multicast_report_json(algo.name(), &report, lanes)
            );
        }
        if args.algo.is_some() && !args.json {
            println!("\n{}", tree.render());
            if args.trace {
                let workload: Vec<DepMessage> = tree
                    .unicasts
                    .iter()
                    .map(|u| DepMessage {
                        src: u.src,
                        dst: u.dst,
                        bytes: args.bytes,
                        deps: tree
                            .unicasts
                            .iter()
                            .position(|p| p.dst == u.src)
                            .map(|i| vec![i])
                            .unwrap_or_default(),
                        min_start: SimTime::ZERO,
                    })
                    .collect();
                let router = Ecube::with_lanes(cube, Resolution::HighToLow, lanes);
                let run = Run::new(router, &params, &workload)
                    .run()
                    .expect("well-formed workload");
                let trace = ChannelTrace::reconstruct_on(router, &params, &workload, &run);
                println!("{}", trace.render_timeline(64));
                println!(
                    "external-channel utilization: {:.1}% across {} channels",
                    trace.utilization() * 100.0,
                    trace.channels_used()
                );
            }
        }
        if args.trace_out.is_some() || args.metrics_out.is_some() {
            let workload = wormsim::multicast_workload(&tree, args.bytes);
            write_observability(
                Ecube::with_lanes(cube, Resolution::HighToLow, lanes),
                &params,
                &workload,
                args.trace_out.as_deref(),
                args.metrics_out.as_deref(),
            );
        }
    }
}
