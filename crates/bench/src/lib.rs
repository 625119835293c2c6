//! Command lines and the one artifact writer of the regeneration
//! binaries, `all_figures` and `sweep`; what they write is declared in
//! `workloads::registry`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use workloads::registry::{self, entry, Overrides, ENTRIES};

/// A parsed `all_figures` or `sweep` command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The registry entries to write.
    pub ids: Vec<&'static str>,
    /// Departures from the committed configuration.
    pub overrides: Overrides,
    /// `sweep <id> --check FILE`: validate the file instead of running.
    pub check: Option<String>,
}

/// Parses the arguments after `all_figures`: optional `--only ID` (one
/// of the entries it writes) and `--trials N`.
///
/// # Errors
/// A one-line message for an unknown flag or id, or a bad value.
pub fn parse_figures_args(args: &[String]) -> Result<Args, String> {
    let ids = figure_ids().collect();
    let out = Args {
        ids,
        ..Args::default()
    };
    parse_flags("all_figures", &["--only", "--trials"], args, out)
}

fn figure_ids() -> impl Iterator<Item = &'static str> {
    ENTRIES.iter().filter(|e| e.all_figures).map(|e| e.id)
}

/// Parses the arguments after `sweep`: the id of an entry it writes,
/// then only that entry's flags.
///
/// # Errors
/// A one-line message for an unknown sweep or flag, or a bad value.
pub fn parse_sweep_args(args: &[String]) -> Result<Args, String> {
    let sweeps = || ENTRIES.iter().filter(|e| !e.sweep_flags.is_empty());
    let names = || sweeps().map(|e| e.id).collect::<Vec<_>>().join(", ");
    let usage = || format!("usage: sweep <name> [flags]; names: {}", names());
    let (name, rest) = args.split_first().ok_or_else(usage)?;
    let unknown = || format!("unknown sweep {name:?}; expected one of {}", names());
    let e = sweeps().find(|e| e.id == name).ok_or_else(unknown)?;
    let out = Args {
        ids: vec![e.id],
        ..Args::default()
    };
    parse_flags(e.id, e.sweep_flags, rest, out)
}

/// Reads `--flag [value]` pairs into `out`, admitting only `flags`; a
/// later flag overrides an earlier one.
fn parse_flags(what: &str, flags: &[&str], args: &[String], mut out: Args) -> Result<Args, String> {
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !flags.contains(&flag.as_str()) {
            let takes = flags.join(", ");
            return Err(format!("{what} does not take {flag:?}; it takes {takes}"));
        }
        if flag == "--smoke" {
            out.overrides.smoke = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |expected: &str| format!("{flag} takes {expected}, got {value:?}");
        let count = || {
            value
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| bad("a positive integer"))
        };
        match flag.as_str() {
            "--check" => out.check = Some(value.clone()),
            "--only" => {
                let ids = || figure_ids().collect::<Vec<_>>().join(", ");
                let e = entry(value).filter(|e| e.all_figures);
                let e = e.ok_or_else(|| {
                    format!("unknown figure {value:?}; expected one of {}", ids())
                })?;
                out.ids = vec![e.id];
            }
            "--seed" => {
                out.overrides.seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?)
            }
            "--sessions" => out.overrides.sessions = Some(count()?),
            "--trials" => out.overrides.trials = Some(count()?),
            _ => unreachable!("every listed flag is handled"),
        }
    }
    Ok(out)
}

/// Runs a parsed command line. `--check FILE` validates the file (exit
/// 1 when it fails); otherwise the entries are rendered and written
/// under the workspace root (exit 2 when there is none, exit 1 when a
/// write fails).
pub fn run(args: &Args) {
    let id = args.ids[0];
    if let Some(path) = &args.check {
        let validate = entry(id).expect("parsed ids are registry ids").validate;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
        or_exit(
            text.and_then(|t| validate(&t).map_err(|e| format!("{path}: {e}"))),
            1,
        );
        println!("{path}: valid {id}");
        return;
    }
    let root = or_exit(workspace_root(), 2);
    for a in or_exit(registry::render(&args.ids, &args.overrides), 1) {
        println!("{}", a.txt);
        if let Some(w) = &a.warning {
            eprintln!("warning: {} check fails at this config: {w}", a.id);
        }
        let mut written = 0;
        for (ext, text) in [("txt", &a.txt), ("json", &a.json)] {
            let path = root.join(format!("results/{}.{ext}", a.id));
            written += u8::from(or_exit(write(&path, text), 1));
        }
        eprintln!("[results/{}.{{txt,json}}: {written} of 2 rewritten]", a.id);
    }
}

/// The value of `result`, or its one-line error on stderr and exit
/// code `code`.
pub fn or_exit<T>(result: Result<T, String>, code: i32) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(code);
    })
}

/// The workspace root: the nearest directory, from the current one
/// up, whose `Cargo.toml` declares `[workspace]`.
fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    let is_root = |dir: &&Path| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
    };
    let root = cwd.ancestors().find(is_root).map(Path::to_path_buf);
    root.ok_or_else(|| format!("no workspace Cargo.toml in {} or above", cwd.display()))
}

/// Writes `text` to `path`, creating its directory, unless the file
/// already holds exactly those bytes; whether it wrote.
///
/// # Errors
/// A one-line message naming the path that could not be written.
pub fn write(path: &Path, text: &str) -> Result<bool, String> {
    if std::fs::read(path).is_ok_and(|old| old == text.as_bytes()) {
        return Ok(false);
    }
    let fail = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    std::fs::write(path, text).map_err(fail).map(|()| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<Args, String> {
        parse_sweep_args(&words(line))
    }

    fn figures(line: &str) -> Result<Args, String> {
        parse_figures_args(&words(line))
    }

    #[test]
    fn flags_fill_their_fields() {
        assert_eq!(
            parse("chaos_sweep --smoke --seed 5 --sessions 7").unwrap(),
            Args {
                ids: vec!["chaos_sweep"],
                overrides: Overrides {
                    smoke: true,
                    seed: Some(5),
                    sessions: Some(7),
                    trials: None,
                },
                check: None,
            }
        );
        let check = parse("telemetry_sweep --check results/telemetry_sweep.json").unwrap();
        assert_eq!(check.check.as_deref(), Some("results/telemetry_sweep.json"));
        assert_eq!(
            parse("lane_sweep --trials 3").unwrap().overrides.trials,
            Some(3)
        );
        assert_eq!(
            parse("fault_sweep").unwrap(),
            Args {
                ids: vec!["fault_sweep"],
                ..Args::default()
            }
        );
        let only = figures("--trials 2 --only fig12").unwrap();
        assert_eq!(only.ids, ["fig12"]);
        assert_eq!(only.overrides.trials, Some(2));
        assert_eq!(figures("").unwrap().ids.len(), 19);
    }

    #[test]
    fn bad_command_lines_are_one_line_errors() {
        for (line, needle) in [
            ("", "usage"),
            ("nonsense_sweep", "unknown sweep"),
            ("fig09", "unknown sweep"),
            ("traffic_sweep --bogus", "does not take"),
            ("lane_sweep --sessions 3", "does not take"),
            ("traffic_sweep --workers 2", "does not take"),
            ("fault_sweep --smoke", "does not take"),
            ("fault_sweep --only fig09", "does not take"),
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
        assert_eq!(figures("").unwrap().overrides.trials, None);
        assert_eq!(figures("--trials 7").unwrap().overrides.trials, Some(7));
        for (line, needle) in [
            ("--trials 0", "positive integer"),
            ("--trials abc", "positive integer"),
            ("--trials -3", "positive integer"),
            ("--trials", "needs a value"),
            ("--trails 5", "does not take"),
            ("--trials 5 --smoke", "does not take"),
            ("--only", "needs a value"),
            ("--only torus_sweep", "unknown figure"),
        ] {
            let err = figures(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
            assert!(!err.contains('\n'), "{line}: {err}");
        }
    }

    #[test]
    fn every_schema_sweep_takes_smoke_seed_and_check() {
        let schema = ENTRIES
            .iter()
            .filter(|e| e.sweep_flags.contains(&"--smoke"));
        assert_eq!(schema.clone().count(), 5);
        for e in schema {
            for flag in ["--seed", "--check"] {
                assert!(e.sweep_flags.contains(&flag), "{} {flag}", e.id);
            }
        }
    }
}
