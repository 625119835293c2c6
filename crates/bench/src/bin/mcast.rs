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

use hcube::NodeId;
use traffic::{ChaosReport, TrafficReport};
use workloads::request::{
    execute, CollectiveRun, FaultReplay, Flags, LoadReport, Outcome, OutputFile, Reports, Request,
    RouterKind, SeparateRun, TopologyKind, TreeRun,
};
use workloads::serve::{
    chaos_report_json, multicast_report_json, serve_loop, traffic_report_json, ServeOptions,
};
use wormsim::{ChannelTrace, NetStats};

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return serve(&argv[1..]);
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return Ok(());
    }
    let req = Request::from_args(&argv).map_err(|e| e.to_string())?;
    let outcome = execute(&req).map_err(|e| e.to_string())?;
    print_outcome(&req, &outcome);
    outcome.files.iter().try_for_each(write_artifact)
}

/// The `--help` text.
fn print_help() {
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
}

/// `mcast serve`: the long-running service mode. Flags after the
/// subcommand configure the queue and caps; the request loop itself
/// lives in [`workloads::serve`].
fn serve(flags: &[String]) -> Result<(), String> {
    let opts = ServeOptions::from_args(flags).map_err(|e| e.to_string())?;
    // StdinLock is !Send and the reader runs on its own thread, so wrap
    // the unlocked handle in a BufReader instead.
    let input = std::io::BufReader::new(std::io::stdin());
    let mut stdout = std::io::stdout().lock();
    match serve_loop(input, &mut stdout, &opts) {
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
            Ok(())
        }
        Err(e) => {
            eprintln!("error: serve output: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes a file the request asked for (unless it already holds those
/// bytes), creating parent directories as needed.
fn write_artifact(file: &OutputFile) -> Result<(), String> {
    bench::write(std::path::Path::new(&file.path), &file.contents)
        .map_err(|e| format!("{}: {e}", file.flag))?;
    eprintln!("[saved {}]", file.path);
    Ok(())
}

/// The network part of the header line.
fn network_label(req: &Request) -> String {
    match req.topology {
        TopologyKind::Cube => format!("{}-cube", req.n),
        TopologyKind::Torus => format!("{}-ary {}-cube torus", req.arity, req.n),
        TopologyKind::Mesh => format!(
            "{}x{} mesh | {}",
            req.width,
            req.height,
            match req.router {
                RouterKind::Ecube => "xy",
                RouterKind::Adaptive => "west-first adaptive",
            }
        ),
    }
}

/// Prints the header line and every report.
fn print_outcome(req: &Request, out: &Outcome) {
    let net = network_label(req);
    let port = req.port.label();
    let source = match &out.reports {
        Reports::Separate(run) => run.source.clone(),
        _ => NodeId(req.source).binary(req.n),
    };
    match (&out.reports, req.collective) {
        (Reports::Tree(_) | Reports::Separate(_), _) => println!(
            "{net} | {port} | source {source} | {} destinations | {} bytes\n",
            req.random.unwrap_or(req.dests.len()),
            req.bytes
        ),
        (Reports::Collective(_), Some(kind)) => println!(
            "{net} | {port} | {} | block {} bytes\n",
            kind.name(),
            req.bytes
        ),
        (Reports::Load(_), Some(kind)) => println!(
            "{net} | {port} | open loop {}: {} arrivals at {} sessions/ms | block {} bytes\n",
            kind.name(),
            req.arrivals,
            req.load.unwrap_or_default(),
            req.bytes
        ),
        _ => println!(
            "{net} | {port} | open loop: {} arrivals at {} sessions/ms | {} bytes\n",
            req.arrivals,
            req.load.unwrap_or_default(),
            req.bytes
        ),
    }
    match &out.reports {
        Reports::Tree(runs) => runs.iter().for_each(|run| print_tree(req, run)),
        Reports::Separate(run) => print_separate(req, run),
        Reports::Collective(runs) => runs.iter().for_each(|run| print_collective(run, req.json)),
        Reports::Load(runs) => {
            for (label, report) in runs {
                match report {
                    LoadReport::Traffic(r) => print_traffic_report(label, r, req.json),
                    LoadReport::Chaos(r) => print_chaos_report(label, r, req.json),
                }
            }
        }
    }
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

fn print_timeline(trace: &ChannelTrace) {
    println!("{}", trace.render_timeline(64));
    println!(
        "external-channel utilization: {:.1}% across {} channels",
        trace.utilization() * 100.0,
        trace.channels_used()
    );
}

/// One single-shot tree: its replay, its fault replays, and with one
/// algorithm its rendering and timeline (or its `--json` lines).
fn print_tree(req: &Request, run: &TreeRun) {
    let (tree, report) = (&run.tree, &run.report);
    println!(
        "{:>9}: {} steps, {} messages, def-4 witnesses {}, sim avg {} max {} (blocks {})",
        run.algo.name(),
        tree.steps,
        tree.message_count(),
        hypercast::contention::contention_witnesses(tree).len(),
        report.avg_delay,
        report.max_delay,
        report.blocks
    );
    println!("{:>9}  net: {}", "", stats_line(&report.stats));
    if let Some((faulty, repaired, fix)) = &run.faults {
        println!("{:>9}  faulty net: {}", "", delivery(faulty));
        let mut line = delivery(repaired);
        if repaired.is_ok() {
            line += &format!(
                ", {} rerouted, {} dropped, {} unreachable, +{} steps",
                fix.rerouted.len(),
                fix.dropped.len(),
                fix.unreachable.len(),
                fix.extra_steps
            );
        }
        println!("{:>9}  repaired:   {line}", "");
    }
    if req.json {
        println!("{}", tree.to_json());
        println!(
            "{}",
            multicast_report_json(run.algo.name(), report, req.lanes.unwrap_or(1))
        );
    } else if req.algo.is_some() {
        println!("\n{}", tree.render());
        if let Some(trace) = &run.timeline {
            print_timeline(trace);
        }
    }
}

/// Deliveries and makespan of a replay over a faulty network.
fn delivery(replay: &FaultReplay) -> String {
    match replay {
        Ok(r) => format!(
            "delivered {}/{} (ratio {:.3}), makespan {}",
            r.deliveries.len(),
            r.deliveries.len() + r.lost.len(),
            r.delivery_ratio,
            r.makespan
        ),
        Err(e) => e.to_string(),
    }
}

/// Separate addressing on the torus or mesh: the summary, the `--json`
/// line (with lane accounting) and the timeline.
fn print_separate(req: &Request, sep: &SeparateRun) {
    let run = &sep.run;
    println!(
        " separate: {} messages, sim avg {} max {} (blocks {})",
        run.messages.len(),
        run.avg_delay(),
        run.stats.makespan,
        run.stats.blocks
    );
    println!("           net: {}", stats_line(&run.stats));
    if req.json {
        let fmt = |xs: Vec<f64>| -> String {
            xs.iter()
                .map(|u| format!("{u:.6}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let head = match req.topology {
            TopologyKind::Mesh => format!(
                "\"topology\":\"mesh\",\"width\":{},\"height\":{},\"router\":\"{}\"",
                req.width,
                req.height,
                match req.router {
                    RouterKind::Ecube => "ecube",
                    RouterKind::Adaptive => "adaptive",
                }
            ),
            _ => format!(
                "\"topology\":\"torus\",\"arity\":{},\"n\":{}",
                req.arity, req.n
            ),
        };
        println!(
            "{{{head},\"dests\":{},\"bytes\":{},\
             \"avg_delay_ns\":{},\"makespan_ns\":{},\"blocks\":{},\
             \"dim_utilization\":[{}],\"lanes\":{},\"lane_utilization\":[{}],\
             \"max_queue_depth\":{}}}",
            run.messages.len(),
            req.bytes,
            run.avg_delay().as_ns(),
            run.stats.makespan.as_ns(),
            run.stats.blocks,
            fmt(run.stats.dim_utilization()),
            run.stats.lane_busy.len(),
            fmt(run.stats.lane_utilization()),
            run.stats.max_queue_depth
        );
    }
    if let Some(trace) = &sep.timeline {
        println!();
        print_timeline(trace);
    }
}

/// One collective schedule's idle-network measurement (and the
/// `--json` line), with the data oracle's verdict.
fn print_collective(run: &CollectiveRun, json: bool) {
    let (label, sched, report) = (run.label, &run.sched, &run.report);
    if let Err(e) = &run.verified {
        eprintln!("{label:>9}  ORACLE FAILURE: {e}");
    }
    let verified = run.verified.is_ok();
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
        println!("{}", traffic_report_json(label, r, None));
    }
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
        println!("{}", chaos_report_json(label, r, None));
    }
}
