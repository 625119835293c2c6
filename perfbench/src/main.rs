//! `perfbench run --workload W --seed N --seconds S --trace 0 --mcast PATH --out DIR`
//! measures one workload with tracing off, from the checkout root.
//!
//! `perfbench record --mcast PATH` sends every pool request of the
//! serve workloads through the daemon and rewrites `perfbench/refs/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::cli;
use perfbench::daemon::{result_of, Daemon};
use perfbench::measure;
use perfbench::refs::ServeRefs;
use perfbench::streams::Pool;

fn record(args: &[String]) -> Result<(), String> {
    let mcast = PathBuf::from(cli::flag(args, "--mcast")?);
    for workload in ["serve_traffic", "serve_chaos"] {
        let pool = Pool::of(workload).expect("a serve workload");
        let (mut d, _) = Daemon::spawn(&mcast).map_err(|e| e.to_string())?;
        let mut results = Vec::with_capacity(pool.requests.len());
        for (i, r) in pool.requests.iter().enumerate() {
            let id = i as u64 + 1;
            let (resp, _) = d.request(&r.line(id)).map_err(|e| e.to_string())?;
            let result = result_of(resp, id)
                .ok_or_else(|| format!("pool request {i} failed: {resp}"))?
                .to_string();
            results.push(result);
        }
        d.shutdown().map_err(|e| e.to_string())?;
        let path = Path::new("perfbench/refs").join(format!("{workload}.txt"));
        std::fs::write(&path, ServeRefs::render(workload, &pool, &results))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("recorded {} results in {}", results.len(), path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::exit(match args.first().map(String::as_str) {
        Some("run") => cli::run(&args[1..], 0, measure::measure),
        Some("record") => record(&args[1..]),
        _ => Err("usage: perfbench run|record ...".into()),
    })
}
