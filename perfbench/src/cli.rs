//! The command line shared by the measured and the traced binary:
//! `run --workload W --seed N --seconds S --trace 0|1 --mcast PATH --out DIR`,
//! run from the checkout root. Prints every metric by name with its
//! unit, then the JSON result line.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::measure::{Outcome, Settings, WORKLOADS};

/// The value after `name` in `args`.
///
/// # Errors
/// If the flag is missing.
pub fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
        .ok_or_else(|| format!("missing {name}"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name)?;
    v.parse().map_err(|_| format!("{name}: not a number: {v}"))
}

fn json_number(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!("non-finite metric value {x}"))
    }
}

fn print(workload: &str, s: &Settings, trace: u8, outcome: &Outcome) -> Result<(), String> {
    println!("perfbench {workload} seed={} trace={trace}", s.seed);
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<48} {:>16.6} ratio ({} failed / {} attempted)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    for p in &outcome.problems {
        println!("  PROBLEM: {p}");
    }
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(m.value)?,
            m.unit
        ));
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    Ok(())
}

/// Runs `run` for the workload named on the command line (after the
/// `run` word) and prints its outcome. `trace` is the only `--trace`
/// value this binary serves.
///
/// # Errors
/// On bad flags, or when the run fails.
pub fn run(
    args: &[String],
    trace: u8,
    run: fn(&Settings, &str) -> Result<Outcome, String>,
) -> Result<(), String> {
    let workload = flag(args, "--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    if number::<u8>(args, "--trace")? != trace {
        return Err(format!("this binary serves --trace {trace} only"));
    }
    let s = Settings {
        root: PathBuf::from("."),
        seed: number(args, "--seed")?,
        seconds: number(args, "--seconds")?,
        mcast: PathBuf::from(flag(args, "--mcast")?),
        out: PathBuf::from(flag(args, "--out")?),
    };
    let outcome = run(&s, workload)?;
    print(workload, &s, trace, &outcome)
}

/// Turns a result into the process exit code, reporting an error.
#[must_use]
pub fn exit(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
