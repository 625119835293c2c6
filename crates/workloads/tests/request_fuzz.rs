//! Robustness of the one request decoder: untrusted input yields a
//! typed answer, never a panic or a hang.
//!
//! * Arbitrary byte lines through [`serve_loop`] get exactly one
//!   response line each (none for a blank line), with a known `kind`.
//! * Request objects built from the declared keys, with values of the
//!   wrong type, sign, size or spelling, get exactly one typed response.
//!   Small [`ServeOptions`] caps keep the accepted ones cheap.
//! * Argument vectors over the declared flags either fail to parse, fail
//!   validation, or execute.

use std::io::Cursor;

use proptest::prelude::*;
use workloads::json::{self, Value};
use workloads::request::{execute, Flags, Request};
use workloads::serve::{serve_loop, ServeOptions};

const KINDS: [&str; 4] = ["bad_json", "bad_request", "oversized", "deadline_exceeded"];

/// Caps that keep every accepted request to a few milliseconds.
fn small_caps() -> ServeOptions {
    ServeOptions {
        max_inflight: 2,
        max_sessions: 4,
        max_nodes: 16,
        max_dests: 4,
        max_line_bytes: 4096,
    }
}

/// Serves `input` and checks every response line: valid JSON, `ok` or
/// one of the typed error kinds. Returns the number of responses.
fn responses(input: &[u8]) -> Result<usize, TestCaseError> {
    let mut out = Vec::new();
    serve_loop(Cursor::new(input.to_vec()), &mut out, &small_caps())
        .map_err(|e| TestCaseError::Fail(e.to_string()))?;
    let text = String::from_utf8(out).map_err(|e| TestCaseError::Fail(e.to_string()))?;
    for line in text.lines() {
        let v = json::parse(line).map_err(|e| TestCaseError::Fail(format!("{line}: {e}")))?;
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str);
        prop_assert!(
            v.get("ok") == Some(&Value::Bool(true)) || kind.is_some_and(|k| KINDS.contains(&k)),
            "untyped response {line}"
        );
    }
    Ok(text.lines().count())
}

/// Bytes that make JSON likely, plus arbitrary ones.
const ALPHABET: &[u8] = b"{}[]\",:0123456789.-+eE truefalsnu\\op\"id\"";

/// The declared JSON keys, the envelope keys and two unknown ones.
const KEYS: [&str; 24] = [
    "topology",
    "n",
    "arity",
    "lanes",
    "algo",
    "port",
    "source",
    "dests",
    "random",
    "seed",
    "bytes",
    "load",
    "arrivals",
    "sessions",
    "mtbf_ms",
    "mttr_ms",
    "retries",
    "backoff_us",
    "tag",
    "deadline_ms",
    "op",
    "id",
    "workers",
    "width",
];

/// Values of every JSON type, in and out of every field's range.
const VALUES: [&str; 36] = [
    "0",
    "1",
    "2",
    "3",
    "4",
    "16",
    "-1",
    "0.5",
    "4.5",
    "1e300",
    "1e-300",
    "4294967296",
    "9007199254740993",
    "true",
    "null",
    "\"\"",
    "\"x\"",
    "\"4\"",
    "\"torus\"",
    "\"cube\"",
    "\"mesh\"",
    "\"wsort\"",
    "\"W-sort\"",
    "\"all\"",
    "\"bine\"",
    "\"one\"",
    "\"bursty:2\"",
    "\"det\"",
    "\"traffic\"",
    "\"chaos\"",
    "\"multicast\"",
    "\"stats\"",
    "[]",
    "[1,2]",
    "[3,3]",
    "{\"a\":1}",
];

/// The declared flags and two unknown ones.
const FLAGS: [&str; 32] = [
    "--topology",
    "--n",
    "--arity",
    "--width",
    "--height",
    "--router",
    "--lanes",
    "--collective",
    "--algo",
    "--port",
    "--source",
    "--dests",
    "--random",
    "--seed",
    "--bytes",
    "--trace",
    "--json",
    "--trace-out",
    "--metrics-out",
    "--spans-out",
    "--timeseries-out",
    "--faults",
    "--fail-link",
    "--fail-node",
    "--load",
    "--arrivals",
    "--sessions",
    "--chaos",
    "--retries",
    "--backoff",
    "--workers",
    "-x",
];

/// Flag values in and out of every field's range.
const ARGS: [&str; 28] = [
    "0",
    "1",
    "2",
    "3",
    "4",
    "-1",
    "0.5",
    "1e-300",
    "inf",
    "NaN",
    "x",
    "",
    "1:2",
    "inf:1",
    "0:1",
    "1:0",
    "3,9",
    "1,1",
    "0,1",
    "4294967296",
    "torus",
    "mesh",
    "wsort",
    "bine",
    "all",
    "one",
    "allreduce",
    "adaptive",
];

proptest! {
    #[test]
    fn arbitrary_byte_lines_get_one_typed_answer_each(
        picks in prop::collection::vec((any::<u8>(), 0usize..ALPHABET.len() + 8), 0..48),
    ) {
        let line: Vec<u8> = picks
            .iter()
            .map(|&(byte, i)| ALPHABET.get(i).copied().unwrap_or(byte))
            .filter(|&b| b != b'\n')
            .collect();
        let blank = std::str::from_utf8(&line).is_ok_and(|s| s.trim().is_empty());
        let mut input = line;
        input.push(b'\n');
        prop_assert_eq!(responses(&input)?, usize::from(!blank));
    }

    #[test]
    fn requests_over_the_declared_keys_get_one_typed_answer(
        base in 0usize..BASES.len(),
        op in 0usize..OPS.len(),
        edits in prop::collection::vec(
            (0usize..KEYS.len(), 0usize..VALUES.len(), 0u8..8),
            0..4,
        ),
    ) {
        // A valid request of its op, or a bare one with a random op, with
        // a few members replaced or added (and now and then repeated).
        let (base_op, base) = BASES[base];
        let op = if base.is_empty() { OPS[op] } else { base_op };
        let mut members: Vec<(&str, &str)> = base.to_vec();
        for (k, v, repeat) in edits {
            match members.iter_mut().find(|(key, _)| *key == KEYS[k]) {
                Some(member) if repeat != 0 => member.1 = VALUES[v],
                _ => members.push((KEYS[k], VALUES[v])),
            }
        }
        let mut line = format!("{{\"id\":1,\"op\":\"{op}\"");
        for (key, value) in members {
            line.push_str(&format!(",\"{key}\":{value}"));
        }
        line.push_str("}\n");
        prop_assert_eq!(responses(line.as_bytes())?, 1);
    }

    #[test]
    fn argument_vectors_parse_validate_and_execute_without_panicking(
        base in 0usize..ARGV_BASES.len(),
        pairs in prop::collection::vec((0usize..FLAGS.len(), 0usize..ARGS.len() + 3), 0..4),
    ) {
        // A valid command line, or none, with `--flag value` pairs
        // appended (a later flag overrides); an out-of-range index drops
        // the value, so switches and missing values occur too.
        let mut argv: Vec<String> = ARGV_BASES[base].split_whitespace().map(str::to_string).collect();
        for (f, a) in pairs {
            argv.push(FLAGS[f].to_string());
            argv.extend(ARGS.get(a).map(|a| a.to_string()));
        }
        if let Ok(req) = Request::from_args(&argv) {
            // The command line has no caps: run only what stays small.
            let small = req.n <= 4
                && req.arity <= 4
                && u32::from(req.width) * u32::from(req.height) <= 16
                && req.sessions <= 8;
            if req.validate().is_ok() && small {
                prop_assert!(execute(&req).is_ok(), "{argv:?} validated but did not run");
            }
        }
    }
}

/// Serve ops, `warp` being none.
const OPS: [&str; 6] = ["traffic", "chaos", "multicast", "stats", "warp", "shutdown"];

/// Valid requests to mutate: `(op, members after the op)`.
const BASES: [(&str, &[(&str, &str)]); 6] = [
    ("", &[]),
    ("multicast", &[("n", "4"), ("dests", "[1,2]")]),
    (
        "multicast",
        &[
            ("n", "3"),
            ("algo", "\"ucube\""),
            ("random", "3"),
            ("lanes", "2"),
        ],
    ),
    (
        "traffic",
        &[
            ("n", "3"),
            ("load", "1"),
            ("random", "2"),
            ("sessions", "3"),
        ],
    ),
    (
        "chaos",
        &[
            ("n", "3"),
            ("load", "1"),
            ("dests", "[1,6]"),
            ("sessions", "3"),
            ("mtbf_ms", "20"),
            ("mttr_ms", "2"),
        ],
    ),
    (
        "traffic",
        &[
            ("topology", "\"torus\""),
            ("arity", "2"),
            ("n", "3"),
            ("load", "1"),
            ("random", "2"),
            ("sessions", "2"),
        ],
    ),
];

/// Valid command lines to mutate.
const ARGV_BASES: [&str; 8] = [
    "",
    "--n 3 --random 2",
    "--n 3 --algo wsort --dests 1,6 --trace --faults 2",
    "--n 3 --random 2 --load 1 --sessions 3",
    "--n 3 --algo combine --random 2 --load 1 --sessions 3 --chaos 20:2",
    "--topology torus --arity 2 --n 3 --random 2 --lanes 2",
    "--topology mesh --width 4 --height 4 --random 3 --router adaptive",
    "--n 3 --collective allgather --load 1 --sessions 3",
];
