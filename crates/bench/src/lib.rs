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
    let text = figure.to_text();
    println!("{text}");
    let dir = results_dir();
    std::fs::write(dir.join(format!("{}.txt", figure.id)), text).expect("write txt");
    std::fs::write(dir.join(format!("{}.json", figure.id)), figure.to_json()).expect("write json");
    eprintln!("[saved results/{0}.txt results/{0}.json]", figure.id);
}

/// Reads the optional `--trials N` that is the whole command line of a
/// figure binary (`args` are the arguments after the program name),
/// falling back to `default`. `N` must be a positive integer, as in
/// [`parse_sweep_args`].
///
/// # Errors
/// A one-line message for a malformed value or any other command line,
/// a missing value included.
pub fn trials_arg(args: &[String], default: usize) -> Result<usize, String> {
    match args {
        [] => Ok(default),
        [flag, value] if flag == "--trials" => count(flag, value),
        _ => Err(format!("expected only `--trials N`, got {args:?}")),
    }
}

/// The value of a parsed command line, or its one-line error on stderr
/// and exit code 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// A count flag's value: a positive integer.
fn count(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} takes a positive integer, got {value:?}"))
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
        &["--smoke", "--seed", "--check", "--sessions"],
    ),
    ("lane_sweep", &["--smoke", "--seed", "--check", "--trials"]),
    (
        "telemetry_sweep",
        &["--smoke", "--seed", "--check", "--sessions"],
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
        match flag.as_str() {
            "--check" => out.check = Some(value.clone()),
            "--seed" => {
                out.seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed takes an unsigned integer, got {value:?}"))?,
                );
            }
            "--sessions" => out.sessions = Some(count(flag, value)?),
            "--trials" => out.trials = Some(count(flag, value)?),
            _ => unreachable!("every listed flag is handled"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<SweepArgs, String> {
        parse_sweep_args(&words(line))
    }

    #[test]
    fn flags_fill_their_fields() {
        assert_eq!(
            parse("chaos_sweep --smoke --seed 5 --sessions 7").unwrap(),
            SweepArgs {
                name: "chaos_sweep",
                smoke: true,
                seed: Some(5),
                sessions: Some(7),
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
            ("chaos_sweep --workers 2", "does not take"),
            ("telemetry_sweep --workers 2", "does not take"),
            ("chaos_sweep --sessions 0", "positive integer"),
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
    fn trials_must_be_a_positive_integer() {
        assert_eq!(trials_arg(&words(""), 100), Ok(100));
        assert_eq!(trials_arg(&words("--trials 7"), 100), Ok(7));
        for (line, needle) in [
            ("--trials 0", "positive integer"),
            ("--trials abc", "positive integer"),
            ("--trials -3", "positive integer"),
            ("--trials", "expected only"),
            ("--trails 5", "expected only"),
            ("--trials 5 --smoke", "expected only"),
        ] {
            let err = trials_arg(&words(line), 100).expect_err(line);
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
