//! Pins the `mcast` command line byte for byte.
//!
//! Every `mcast` invocation of the CI workflow, plus fault/repair and
//! timeline runs, is replayed through the built binary. Its stdout and
//! every file it writes (`--trace-out`, `--metrics-out`, `--spans-out`,
//! `--timeseries-out`) are compared with the golden files under
//! `tests/golden/mcast/<case>/`. All runs are deterministic and take
//! milliseconds.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `(case, argv)`; `OUT` in the argv stands for the case's output
/// directory.
const CASES: &[(&str, &str)] = &[
    (
        "torus_random",
        "--topology torus --arity 4 --n 3 --random 8",
    ),
    (
        "obs_cube",
        "--n 6 --algo ucube --random 20 --seed 7 \
         --trace-out OUT/trace_cube.json --metrics-out OUT/metrics_cube.prom",
    ),
    (
        "obs_torus",
        "--topology torus --arity 4 --n 3 --random 8 \
         --trace-out OUT/trace_torus.json --metrics-out OUT/metrics_torus.json",
    ),
    (
        "load_cube",
        "--n 6 --random 8 --seed 11 --load 2 --arrivals poisson --sessions 40",
    ),
    (
        "load_torus_json",
        "--topology torus --arity 4 --n 3 --random 8 --load 1 --sessions 30 --json",
    ),
    (
        "chaos_cube_json",
        "--n 6 --random 8 --seed 11 --load 1 --sessions 40 \
         --chaos 400:4 --retries 3 --backoff 500 --json",
    ),
    (
        "chaos_torus",
        "--topology torus --arity 4 --n 3 --random 5 --load 1 --sessions 30 --chaos 400:4",
    ),
    (
        "lanes_cube",
        "--n 6 --algo wsort --random 12 --seed 3 --lanes 4 --json",
    ),
    (
        "lanes_torus",
        "--topology torus --arity 4 --n 3 --random 8 --lanes 4 --json",
    ),
    (
        "lanes_mesh_adaptive",
        "--topology mesh --width 8 --height 8 --router adaptive \
         --random 12 --seed 3 --lanes 2 --json",
    ),
    (
        "mesh_ecube",
        "--topology mesh --width 8 --height 8 --router ecube --random 12 --json",
    ),
    (
        "recorder_cube",
        "--n 5 --algo wsort --random 8 --seed 11 --load 2 --sessions 40 \
         --chaos 400:4 --retries 3 --backoff 500 \
         --spans-out OUT/spans_cube.json --timeseries-out OUT/series_cube.json",
    ),
    (
        "recorder_torus",
        "--topology torus --arity 4 --n 3 --random 5 --load 1 --sessions 30 \
         --spans-out OUT/spans_torus.json --timeseries-out OUT/series_torus.json",
    ),
    ("collective_allgather", "--n 4 --collective allgather"),
    (
        "collective_allreduce_bine",
        "--n 4 --collective allreduce --algo bine --source 5 --json",
    ),
    (
        "collective_torus_load",
        "--topology torus --arity 4 --n 2 --collective reduce-scatter \
         --bytes 256 --load 0.02 --sessions 40",
    ),
    (
        "serve_oneshot",
        "--n 5 --algo wsort --random 6 --seed 7 --load 2.0 --sessions 40 --json",
    ),
    (
        "faults_trace",
        "--n 6 --algo wsort --dests 3,9,17,33,60 --faults 4 --trace",
    ),
    (
        "obs_lanes_cube",
        "--n 6 --algo wsort --random 12 --seed 3 --lanes 2 --trace \
         --trace-out OUT/trace_cube.json --metrics-out OUT/metrics_cube.prom",
    ),
    (
        "lanes_faults_cube",
        "--n 6 --algo ucube --random 20 --seed 8 --lanes 4 --faults 12",
    ),
    (
        "obs_trace_torus",
        "--topology torus --arity 4 --n 3 --random 8 --trace \
         --trace-out OUT/trace_torus.json --metrics-out OUT/metrics_torus.json",
    ),
];

fn mcast<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcast"))
        .args(args)
        .output()
        .expect("mcast runs")
}

fn golden_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/mcast")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_ci_invocation_matches_its_golden_bytes() {
    for (case, argv) in CASES {
        let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("mcast_cli")
            .join(case);
        let _ = fs::remove_dir_all(&out_dir);
        fs::create_dir_all(&out_dir).expect("output directory");
        let out_str = out_dir.to_str().expect("UTF-8 target path");
        let args: Vec<String> = argv
            .split_whitespace()
            .map(|a| a.replace("OUT", out_str))
            .collect();
        let out = mcast(&args);
        assert!(
            out.status.success(),
            "{case}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let golden = golden_root().join(case);
        assert_eq!(
            String::from_utf8(out.stdout).expect("UTF-8 stdout"),
            read(&golden.join("stdout")),
            "{case}: stdout differs from its golden file"
        );
        let mut written: Vec<String> = fs::read_dir(&out_dir)
            .expect("output directory")
            .map(|e| e.expect("entry").file_name().into_string().expect("name"))
            .collect();
        written.sort();
        let mut expected: Vec<String> = fs::read_dir(&golden)
            .expect("golden directory")
            .map(|e| e.expect("entry").file_name().into_string().expect("name"))
            .filter(|f| f != "stdout")
            .collect();
        expected.sort();
        assert_eq!(written, expected, "{case}: written files");
        for file in &written {
            assert_eq!(
                read(&out_dir.join(file)),
                read(&golden.join(file)),
                "{case}: {file} differs from its golden file"
            );
        }
    }
}

/// Input the command line refuses: exit status 2 and one `error:` line,
/// never a panic.
#[test]
fn invalid_input_is_one_error_line_not_a_panic() {
    for argv in [
        // More destinations than the cube has candidates.
        "--n 6 --algo wsort --random 64",
        "--n 6 --random 64 --load 1",
        "--n 6 --random 0",
        // The source outside the cube, among the destinations, or a
        // destination twice.
        "--load 1 --source 99 --dests 3",
        "--load 1 --dests 0,3",
        "--load 1 --dests 3,3",
        // An infinite MTBF, and a schedule longer than the clock.
        "--n 6 --random 8 --load 1 --chaos inf:1",
        "--n 4 --random 3 --load 1e-300 --sessions 3",
        // An allreduce vector (a block per node) beyond u32::MAX bytes,
        // on the cube and on the torus, idle and open loop.
        "--n 4 --collective allreduce --bytes 268435456",
        "--topology torus --arity 4 --n 2 --collective allreduce --bytes 268435456",
        "--n 4 --collective allreduce --bytes 268435456 --load 1 --sessions 3",
    ] {
        let out = mcast(&argv.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv}");
        assert!(
            stderr.starts_with("error: ") && stderr.lines().count() == 1,
            "{argv}: {stderr}"
        );
    }
}

/// The `result` of a daemon response to `request`.
fn serve_result(request: &str) -> String {
    let mut out = Vec::new();
    workloads::serve::serve_loop(
        std::io::Cursor::new(format!("{request}\n")),
        &mut out,
        &workloads::serve::ServeOptions::default(),
    )
    .expect("writing to a Vec cannot fail");
    let line = String::from_utf8(out).expect("UTF-8 response");
    line.trim_end()
        .strip_prefix("{\"id\":1,\"ok\":true,\"result\":")
        .and_then(|rest| rest.strip_suffix('}'))
        .unwrap_or_else(|| panic!("{request} -> {line}"))
        .to_string()
}

#[test]
fn the_json_line_equals_the_daemon_result_for_every_shape_serve_offers() {
    for (argv, request) in [
        (
            "--n 5 --algo wsort --random 6 --seed 7 --load 2.0 --sessions 40 --json",
            r#"{"id":1,"op":"traffic","n":5,"algo":"wsort","load":2.0,"random":6,"sessions":40,"seed":7}"#,
        ),
        (
            "--topology torus --arity 4 --n 3 --random 8 --load 1 --sessions 30 --json",
            r#"{"id":1,"op":"traffic","topology":"torus","arity":4,"n":3,"random":8,"load":1,"sessions":30}"#,
        ),
        (
            "--n 6 --algo combine --random 8 --seed 11 --load 1 --sessions 40 \
             --chaos 400:4 --retries 2 --backoff 300 --json",
            r#"{"id":1,"op":"chaos","n":6,"algo":"combine","random":8,"seed":11,"load":1,"sessions":40,"mtbf_ms":400,"mttr_ms":4,"retries":2,"backoff_us":300}"#,
        ),
        (
            "--topology torus --arity 4 --n 3 --random 5 --load 1 --sessions 30 \
             --chaos 400:4 --json",
            r#"{"id":1,"op":"chaos","topology":"torus","arity":4,"n":3,"random":5,"load":1,"sessions":30,"mtbf_ms":400,"mttr_ms":4}"#,
        ),
        (
            "--n 6 --algo maxport --port one --dests 3,9,17,33,60 --lanes 2 --json",
            r#"{"id":1,"op":"multicast","n":6,"algo":"maxport","port":"one","dests":[3,9,17,33,60],"lanes":2}"#,
        ),
    ] {
        let out = mcast(&argv.split_whitespace().collect::<Vec<_>>());
        assert!(out.status.success(), "{argv}");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
        let json = stdout.lines().last().expect("a --json line");
        assert_eq!(json, serve_result(request), "{argv}");
    }
}
