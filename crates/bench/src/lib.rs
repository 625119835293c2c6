//! Shared output plumbing and argument parsing for the regeneration
//! binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use workloads::Figure;

/// Directory the regeneration binaries write their artifacts to
/// (`results/` at the workspace root, created on demand).
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Prints a figure (table + ASCII plot) to stdout and archives it as
/// `results/<id>.txt` and `results/<id>.json`.
pub fn emit(figure: &Figure) {
    let table = figure.to_table();
    let plot = figure.to_ascii_plot(72, 18);
    println!("{table}");
    println!("{plot}");
    let dir = results_dir();
    let mut artifact = table;
    artifact.push('\n');
    artifact.push_str(&plot);
    std::fs::write(dir.join(format!("{}.txt", figure.id)), artifact).expect("write txt");
    std::fs::write(dir.join(format!("{}.json", figure.id)), figure.to_json()).expect("write json");
    eprintln!("[saved results/{0}.txt results/{0}.json]", figure.id);
}

/// Parses a `--trials N` override from argv, falling back to `default`.
#[must_use]
pub fn trials_arg(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--trials")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

/// Every sweep the `sweep` binary runs, by artifact name, with the
/// flags it accepts.
pub const SWEEPS: [(&str, &[&str]); 8] = [
    (
        "traffic_sweep",
        &["--smoke", "--seed", "--check", "--sessions"],
    ),
    (
        "chaos_sweep",
        &["--smoke", "--seed", "--check", "--sessions", "--workers"],
    ),
    ("lane_sweep", &["--smoke", "--seed", "--check", "--trials"]),
    (
        "telemetry_sweep",
        &["--smoke", "--seed", "--check", "--sessions", "--workers"],
    ),
    (
        "collectives_sweep",
        &["--smoke", "--seed", "--check", "--sessions"],
    ),
    ("fault_sweep", &["--trials"]),
    ("torus_sweep", &["--trials"]),
    ("contention_heatmap", &["--trials"]),
];

/// A parsed `sweep <name> [flags]` command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepArgs {
    /// The sweep's artifact name, one of [`SWEEPS`].
    pub name: &'static str,
    /// `--smoke`: the short CI configuration.
    pub smoke: bool,
    /// `--seed S`: master-seed override.
    pub seed: Option<u64>,
    /// `--sessions N`: sessions override.
    pub sessions: Option<usize>,
    /// `--trials N`: trials override.
    pub trials: Option<usize>,
    /// `--workers W`: worker threads.
    pub workers: Option<usize>,
    /// `--check FILE`: validate an existing artifact instead of running.
    pub check: Option<String>,
}

/// Parses the arguments after the program name of `sweep`. A sweep
/// takes only the flags listed for it in [`SWEEPS`]; counts must be
/// positive integers.
///
/// # Errors
/// A one-line message for an unknown sweep or flag, a missing value or
/// a malformed one.
pub fn parse_sweep_args(args: &[String]) -> Result<SweepArgs, String> {
    let names = || SWEEPS.map(|(n, _)| n).join(", ");
    let (name, mut rest) = match args.split_first() {
        Some((name, rest)) => (name, rest.iter()),
        None => return Err(format!("usage: sweep <name> [flags]; names: {}", names())),
    };
    let &(name, flags) = SWEEPS
        .iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| format!("unknown sweep {name:?}; expected one of {}", names()))?;
    let mut out = SweepArgs {
        name,
        ..SweepArgs::default()
    };
    while let Some(flag) = rest.next() {
        if !flags.contains(&flag.as_str()) {
            return Err(format!(
                "{name} does not take {flag:?}; it takes {}",
                flags.join(", ")
            ));
        }
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let count = || {
            value
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{flag} takes a positive integer, got {value:?}"))
        };
        match flag.as_str() {
            "--check" => out.check = Some(value.clone()),
            "--seed" => {
                out.seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed takes an unsigned integer, got {value:?}"))?,
                );
            }
            "--sessions" => out.sessions = Some(count()?),
            "--trials" => out.trials = Some(count()?),
            "--workers" => out.workers = Some(count()?),
            _ => unreachable!("every listed flag is handled"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<SweepArgs, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_sweep_args(&args)
    }

    #[test]
    fn flags_fill_their_fields() {
        assert_eq!(
            parse("chaos_sweep --smoke --seed 5 --sessions 7 --workers 2").unwrap(),
            SweepArgs {
                name: "chaos_sweep",
                smoke: true,
                seed: Some(5),
                sessions: Some(7),
                workers: Some(2),
                ..SweepArgs::default()
            }
        );
        let check = parse("telemetry_sweep --check results/telemetry_sweep.json").unwrap();
        assert_eq!(check.check.as_deref(), Some("results/telemetry_sweep.json"));
        assert_eq!(parse("lane_sweep --trials 3").unwrap().trials, Some(3));
        assert_eq!(
            parse("fault_sweep").unwrap(),
            SweepArgs {
                name: "fault_sweep",
                ..SweepArgs::default()
            }
        );
    }

    #[test]
    fn bad_command_lines_are_one_line_errors() {
        for (line, needle) in [
            ("", "usage"),
            ("nonsense_sweep", "unknown sweep"),
            ("traffic_sweep --bogus", "does not take"),
            ("lane_sweep --sessions 3", "does not take"),
            ("traffic_sweep --workers 2", "does not take"),
            ("fault_sweep --smoke", "does not take"),
            ("collectives_sweep --trials 2", "does not take"),
            ("traffic_sweep --sessions abc", "positive integer"),
            ("chaos_sweep --workers 0", "positive integer"),
            ("torus_sweep --trials -3", "positive integer"),
            ("lane_sweep --seed 1.5", "unsigned integer"),
            ("traffic_sweep --check", "needs a value"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
            assert!(!err.contains('\n'), "{line}: {err}");
        }
    }

    #[test]
    fn every_schema_sweep_takes_smoke_seed_and_check() {
        for (name, flags) in &SWEEPS[..5] {
            for flag in ["--smoke", "--seed", "--check"] {
                assert!(flags.contains(&flag), "{name} {flag}");
            }
        }
    }
}
