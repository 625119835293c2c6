//! `perfbench-trace run --workload W --seed N --seconds S --trace 1 --mcast PATH --out DIR`
//! replays one workload in process, calling each layer's public
//! functions under spans, and prints the per-layer metrics.
//!
//! For `--seconds` it alternates a traced and an untraced replay, then
//! makes one untimed pass with an event-counting probe. Every replay's
//! outputs must equal the committed references and each other. This is
//! the only part of the benchmark that links against layer functions,
//! so a change to those APIs breaks the traced run and not the measured
//! one.

mod ledger;
mod replay;

use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::Instant;

use perfbench::alloc::{Counting, Counts};
use perfbench::cli;
use perfbench::measure::{daemon_pass, secs, serve_inputs, Outcome, Settings};
use perfbench::refs::{load_figures, FigureRef, ServeRefs};
use perfbench::stats::median;
use perfbench::streams::Request;
use perfbench::trace::{self, Kind, Span, Tracer};
use workloads::Figure;

use ledger::{ledger, share_sum, Observed};
use replay::{Counters, EventCount};

#[global_allocator]
static ALLOC: Counting = Counting;

/// One in-process pass: `(outputs, seconds, counters)`.
type Pass = (Vec<String>, f64, Counters);

fn serve_replay(
    tr: &Tracer,
    reqs: &[Request],
    lines: &[String],
    probe: Option<&Mutex<EventCount>>,
) -> Pass {
    let mut outs = Vec::with_capacity(lines.len());
    let mut c = Counters::default();
    let t = Instant::now();
    {
        let _run = tr.span(Kind::Run, 0);
        for (i, (line, r)) in lines.iter().zip(reqs).enumerate() {
            outs.push(replay::serve_request(
                tr,
                i as u32 + 1,
                line,
                r,
                &mut c,
                probe,
            ));
        }
    }
    (outs, secs(t.elapsed()), c)
}

fn figures_replay(tr: &Tracer, templates: &[Figure], probe: Option<&Mutex<EventCount>>) -> Pass {
    let blocks = AtomicU64::new(0);
    let t = Instant::now();
    let outs = {
        let _run = tr.span(Kind::Run, 0);
        replay::figures(tr, templates, &blocks, probe)
    };
    let c = Counters {
        blocks: blocks.into_inner(),
        ..Counters::default()
    };
    (outs, secs(t.elapsed()), c)
}

/// The in-process replay of a workload and the check of its outputs.
enum Replay {
    /// The committed artifacts and the figures they hold.
    Figures(Vec<FigureRef>, Vec<Figure>),
    Serve {
        reqs: Vec<Request>,
        lines: Vec<String>,
        stream: Vec<usize>,
        refs: ServeRefs,
    },
}

impl Replay {
    fn run(&self, tr: &Tracer, probe: Option<&Mutex<EventCount>>) -> Pass {
        match self {
            Replay::Figures(_, templates) => figures_replay(tr, templates, probe),
            Replay::Serve { reqs, lines, .. } => serve_replay(tr, reqs, lines, probe),
        }
    }

    /// Outputs that differ from the references.
    fn failures(&self, outs: &[String]) -> u64 {
        let bad = match self {
            Replay::Figures(refs, _) => {
                outs.iter().zip(refs).filter(|(o, r)| **o != r.text).count()
            }
            Replay::Serve { stream, refs, .. } => outs
                .iter()
                .zip(stream)
                .filter(|(o, &p)| !refs.matches(p, o))
                .count(),
        };
        bad as u64
    }
}

/// One traced run of `workload`: per-layer metrics.
fn traced(s: &Settings, workload: &str) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut daemon_ns_per_req = None;
    let work = if workload == "figures" {
        notes.push("figures replayed on one worker thread through workloads::sweep".into());
        let refs = load_figures(&s.root)?;
        let templates = refs
            .iter()
            .map(|r| Figure::from_json(&r.text).map_err(|e| format!("{}: {e}", r.id)))
            .collect::<Result<_, _>>()?;
        Replay::Figures(refs, templates)
    } else {
        let (pool, stream, lines) = serve_inputs(s, workload)?;
        let refs = ServeRefs::load(&s.root, workload, &pool)?;
        let (_, _, lat, f, _) = daemon_pass(s, &refs, &stream, &lines)?;
        attempted += lines.len() as u64;
        failed += f;
        daemon_ns_per_req = Some(lat.iter().sum::<f64>() * 1e6 / lat.len() as f64);
        let reqs = stream.iter().map(|&p| pool.requests[p].clone()).collect();
        Replay::Serve {
            reqs,
            lines,
            stream,
            refs,
        }
    };

    let mut passes: Vec<Vec<Span>> = Vec::new();
    let mut ratios = Vec::new();
    let mut counters = None;
    let mut alloc = None;
    let start = Instant::now();
    for pair in 0.. {
        let traced_first = pair % 2 == 0;
        let run_traced = || {
            let tr = Tracer::on();
            let (outs, t, c) = work.run(&tr, None);
            (outs, t, c, tr.take())
        };
        let run_plain = || {
            let before = Counts::now();
            let (outs, t, c) = work.run(&Tracer::off(), None);
            (outs, t, c, Counts::now().since(before))
        };
        let (a, b) = if traced_first {
            let a = run_traced();
            (a, run_plain())
        } else {
            let b = run_plain();
            (run_traced(), b)
        };
        for outs in [&a.0, &b.0] {
            attempted += outs.len() as u64;
            failed += work.failures(outs);
        }
        if a.0 != b.0 {
            problems.push("traced outputs differ from untraced outputs".into());
        }
        ratios.push(a.1 / b.1);
        counters.get_or_insert(a.2);
        alloc.get_or_insert(b.3);
        passes.push(a.3);
        if secs(start.elapsed()) >= s.seconds {
            break;
        }
    }
    let probe = Mutex::new(EventCount::default());
    let (outs, _, _) = work.run(&Tracer::off(), Some(&probe));
    attempted += outs.len() as u64;
    failed += work.failures(&outs);

    let ops = if workload == "figures" {
        4
    } else {
        outs.len() as u64
    };
    let observed = Observed {
        counters: counters.unwrap_or_default(),
        events: probe.into_inner().expect("probe holder panicked"),
        alloc: alloc.unwrap_or_default(),
        ops,
        daemon_ns_per_req,
        overhead_ratio: median(&ratios),
    };
    let metrics = ledger(&passes, &observed);
    let shares = share_sum(&metrics);
    notes.push(format!(
        "traced passes: {}; layer shares sum to {shares:.4} of traced wall time",
        passes.len()
    ));
    if shares > 1.0 {
        problems.push(format!("layer shares sum to {shares} > 1"));
    }
    if let Some(last) = passes.last() {
        std::fs::create_dir_all(&s.out).map_err(|e| format!("{}: {e}", s.out.display()))?;
        let path = s.out.join(format!("spans-{workload}-seed{}.json", s.seed));
        std::fs::write(&path, trace::to_json(workload, s.seed, last))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("spans of the last traced pass: {}", path.display()));
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        notes,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::exit(match args.first().map(String::as_str) {
        Some("run") => cli::run(&args[1..], 1, traced),
        _ => Err("usage: perfbench-trace run ...".into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbench::streams::Pool;

    /// The allocation counter is process-wide: tests that read it must
    /// not run beside other tests of this binary.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// The first `n` requests of `workload`'s stream for `seed`,
    /// replayed in process: `(pool indices, result objects)`.
    fn replay_prefix(pool: &Pool, seed: u64, n: usize) -> (Vec<usize>, Vec<String>) {
        let stream: Vec<usize> = pool.stream(seed).into_iter().take(n).collect();
        let off = Tracer::off();
        let mut c = Counters::default();
        let outs = stream
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let r = &pool.requests[p];
                replay::serve_request(&off, i as u32 + 1, &r.line(i as u64 + 1), r, &mut c, None)
            })
            .collect();
        (stream, outs)
    }

    fn error_rate(refs: &ServeRefs, stream: &[usize], outs: &[String]) -> f64 {
        let failed = stream
            .iter()
            .zip(outs)
            .filter(|(&p, o)| !refs.matches(p, o))
            .count();
        failed as f64 / outs.len() as f64
    }

    #[test]
    fn a_corrupted_reference_line_raises_the_error_rate() {
        let _serial = SERIAL.lock().expect("a test panicked");
        let pool = Pool::of("serve_traffic").expect("a serve workload");
        let text = std::fs::read_to_string("refs/serve_traffic.txt").expect("committed references");
        let (stream, outs) = replay_prefix(&pool, 5, 40);

        let refs = ServeRefs::parse(&text, &pool).expect("references match the pool");
        assert_eq!(error_rate(&refs, &stream, &outs), 0.0);

        // Two header lines, then one digest line per pool entry.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let line = &mut lines[2 + stream[0]];
        let flipped = if line.starts_with('0') { '1' } else { '0' };
        line.replace_range(0..1, &flipped.to_string());
        let corrupted = ServeRefs::parse(&lines.join("\n"), &pool).expect("still well-formed");
        assert!(error_rate(&corrupted, &stream, &outs) > 0.0);
    }

    #[test]
    fn references_recorded_for_another_pool_are_refused() {
        let pool = Pool::of("serve_chaos").expect("a serve workload");
        let text = std::fs::read_to_string("refs/serve_traffic.txt").expect("committed references");
        assert!(ServeRefs::parse(&text, &pool).is_err());
    }

    #[test]
    fn allocation_counts_repeat_exactly_on_one_seed() {
        let _serial = SERIAL.lock().expect("a test panicked");
        let pool = Pool::of("serve_traffic").expect("a serve workload");
        let count = || {
            let before = Counts::now();
            let (_, outs) = replay_prefix(&pool, 9, 60);
            let used = Counts::now().since(before);
            drop(outs);
            used
        };
        let first = count();
        assert!(first.calls > 0 && first.bytes > 0);
        assert_eq!(first, count());
    }
}
