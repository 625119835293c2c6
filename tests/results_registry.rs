//! The regeneration binaries against `workloads::registry`.
//!
//! * `results/` holds exactly the registry's files, and each id is
//!   accepted by the command that writes it (these simulate nothing);
//! * `all_figures` and `sweep` write under the workspace root they find
//!   from their current directory, rewrite only files whose bytes
//!   changed, and fail with one `error:` line (exit 2 for a bad command
//!   line or no workspace, exit 1 for a failed write), never a panic.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, SystemTime};
use workloads::registry::ENTRIES;

/// Files under `results/` that no registry entry writes, with the
/// reason each may stay.
const UNREGISTERED: [(&str, &str); 1] = [(
    "probe_overhead.txt",
    "criterion output of `cargo bench --bench probe_overhead`, due to be replaced by the \
     process-side benchmark ledger",
)];

fn checkout_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn run(bin: &str, dir: &Path, args: &str) -> Output {
    Command::new(bin)
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

/// A fresh directory `name` under the test's scratch area (inside this
/// checkout's target directory, so a workspace is above it).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("results_registry")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// A scratch directory that is its own workspace root.
fn workspace(name: &str) -> PathBuf {
    let dir = scratch(name);
    fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("Cargo.toml");
    dir
}

/// Asserts `out` exited with `code` after one `error:` line on stderr.
fn assert_one_line_error(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{what}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.lines().count() == 1,
        "{what}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

fn mtime(path: &Path) -> SystemTime {
    fs::metadata(path)
        .and_then(|m| m.modified())
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn results_holds_exactly_the_registry_outputs() {
    let mut on_disk: Vec<String> = fs::read_dir(checkout_results())
        .expect("results/")
        .map(|e| e.expect("entry").file_name().into_string().expect("UTF-8"))
        .collect();
    on_disk.sort();
    let mut declared: Vec<String> = ENTRIES
        .iter()
        .flat_map(|e| [format!("{}.txt", e.id), format!("{}.json", e.id)])
        .chain(UNREGISTERED.iter().map(|(file, _)| file.to_string()))
        .collect();
    declared.sort();
    assert_eq!(on_disk, declared);
    assert_eq!(ENTRIES.len(), 26);
}

#[test]
fn every_id_is_accepted_by_the_commands_that_write_it() {
    for e in ENTRIES {
        let only = bench::parse_figures_args(&["--only".into(), e.id.into()]);
        assert_eq!(only.is_ok(), e.all_figures, "all_figures --only {}", e.id);
        let sweep = bench::parse_sweep_args(&[e.id.into()]);
        assert_eq!(sweep.is_ok(), !e.sweep_flags.is_empty(), "sweep {}", e.id);
    }
}

#[test]
fn unknown_ids_are_one_line_errors_with_exit_code_2() {
    let dir = workspace("unknown_ids");
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_all_figures"), "--only fig15"),
        (env!("CARGO_BIN_EXE_all_figures"), "--only traffic_sweep"),
        (env!("CARGO_BIN_EXE_sweep"), "fig15"),
        (env!("CARGO_BIN_EXE_sweep"), "fig09"),
    ] {
        let out = run(bin, &dir, args);
        assert_one_line_error(&out, 2, args);
        assert!(out.stdout.is_empty(), "{args}");
    }
    assert!(!dir.join("results").exists());
}

#[test]
fn all_figures_writes_under_the_workspace_it_runs_in_and_only_changed_files() {
    let checkout_fig09 = checkout_results().join("fig09.json");
    let (committed, committed_mtime) = (fs::read(&checkout_fig09).unwrap(), mtime(&checkout_fig09));
    let bin = env!("CARGO_BIN_EXE_all_figures");

    let root = workspace("writes_once");
    let out = run(bin, &root, "--only fig09 --trials 2");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files = ["fig09.txt", "fig09.json"].map(|f| root.join("results").join(f));
    for f in &files {
        assert!(
            fs::metadata(f).is_ok_and(|m| m.len() > 0),
            "{}",
            f.display()
        );
    }
    assert_eq!(fs::read_dir(root.join("results")).unwrap().count(), 2);

    // Backdate both files: a second run that rewrote either would move
    // its modification time to now.
    let old = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
    for f in &files {
        let file = fs::OpenOptions::new().write(true).open(f).unwrap();
        file.set_modified(old).unwrap();
    }
    let again = run(bin, &root, "--only fig09 --trials 2");
    assert!(again.status.success());
    assert_eq!(again.stdout, out.stdout, "same figure printed");
    for f in &files {
        assert_eq!(mtime(f), old, "{} was rewritten", f.display());
    }

    // Below a nested directory the nearest workspace above is the root.
    let nested = root.join("a/b");
    fs::create_dir_all(&nested).unwrap();
    assert!(run(bin, &nested, "--only fig09 --trials 2")
        .status
        .success());
    assert!(!nested.join("results").exists());

    // No workspace above: exit 2, nothing written.
    let lost = std::env::temp_dir().join(format!("results_registry_{}", std::process::id()));
    let _ = fs::remove_dir_all(&lost);
    fs::create_dir_all(&lost).unwrap();
    assert!(
        lost.ancestors().all(|d| !d.join("Cargo.toml").exists()),
        "{} must have no Cargo.toml above it",
        lost.display()
    );
    let out = run(bin, &lost, "--only fig09 --trials 2");
    assert_one_line_error(&out, 2, "no workspace");
    assert_eq!(fs::read_dir(&lost).unwrap().count(), 0, "wrote nothing");
    fs::remove_dir_all(&lost).unwrap();

    assert_eq!(fs::read(&checkout_fig09).unwrap(), committed);
    assert_eq!(mtime(&checkout_fig09), committed_mtime);
}

#[test]
fn failed_writes_are_one_line_errors_with_exit_code_1() {
    let root = workspace("unwritable");
    fs::write(root.join("results"), "a file where the directory should be").unwrap();
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_all_figures"), "--only fig09 --trials 2"),
        (env!("CARGO_BIN_EXE_sweep"), "torus_sweep --trials 1"),
    ] {
        let out = run(bin, &root, args);
        assert_one_line_error(&out, 1, args);
    }
}
