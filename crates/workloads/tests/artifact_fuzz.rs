//! Robustness of the artifact parsers: a damaged committed artifact
//! yields `Ok` or a typed error, never a panic or a hang.
//!
//! Every JSON file `workloads::registry` declares is mutated and fed to
//! its entry's `validate`: `Artifact::from_json` plus the domain check
//! for the five schema sweeps, `Figure::from_json` for the rest.
//!
//! * Byte damage: truncation at a random offset, flipped and inserted
//!   bytes, mostly rejected by the JSON parser itself.
//! * Value damage: numbers replaced by values of the wrong type, sign,
//!   size or range, which keep the document valid JSON and so reach the
//!   schema decoders and the domain checks.

use proptest::prelude::*;
use std::path::Path;
use workloads::registry::{Entry, ENTRIES};

fn committed(e: &Entry) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{}.json", e.id));
    std::fs::read(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()))
}

/// Validates `bytes` as entry `e`'s JSON. Returning at all is the
/// property: `Ok`, or a one-line `Err` naming what is wrong.
fn validate(e: &Entry, bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Err(message) = (e.validate)(&String::from_utf8_lossy(bytes)) {
        prop_assert!(
            !message.is_empty() && !message.contains('\n'),
            "{}: {message:?}",
            e.id
        );
    }
    Ok(())
}

/// Replacements for a number: every JSON type, and numbers out of
/// every field's range.
const VALUES: [&str; 16] = [
    "0",
    "-1",
    "0.5",
    "1e300",
    "-1e300",
    "1e999",
    "18446744073709551616",
    "255",
    "256",
    "null",
    "true",
    "\"x\"",
    "[]",
    "{}",
    "[1e300]",
    "{\"a\":null}",
];

/// The committed JSON with the number at or after `at` replaced by
/// `value` (unchanged when no number follows).
fn replace_number(json: &[u8], at: usize, value: &str) -> Vec<u8> {
    let is_num = |b: &u8| b.is_ascii_digit() || b"+-.eE".contains(b);
    let Some(start) = json[at..]
        .iter()
        .position(u8::is_ascii_digit)
        .map(|i| at + i)
    else {
        return json.to_vec();
    };
    let start = start
        - json[..start]
            .iter()
            .rev()
            .take_while(|b| **b == b'-')
            .count();
    let end = start + json[start..].iter().take_while(|b| is_num(b)).count();
    [&json[..start], value.as_bytes(), &json[end..]].concat()
}

proptest! {
    #[test]
    fn damaged_bytes_parse_or_fail_typed(
        entry in 0usize..ENTRIES.len(),
        edits in prop::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..6),
    ) {
        let e = &ENTRIES[entry];
        let mut bytes = committed(e);
        for (kind, at, byte) in edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            match kind {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= byte | 1,
                _ => bytes.insert(at, byte),
            }
        }
        validate(e, &bytes)?;
    }

    #[test]
    fn damaged_values_parse_or_fail_typed(
        entry in 0usize..ENTRIES.len(),
        edits in prop::collection::vec((any::<u64>(), 0usize..VALUES.len()), 1..4),
    ) {
        let e = &ENTRIES[entry];
        let mut bytes = committed(e);
        for (at, v) in edits {
            let at = (at % bytes.len() as u64) as usize;
            bytes = replace_number(&bytes, at, VALUES[v]);
        }
        validate(e, &bytes)?;
    }
}

#[test]
fn committed_artifacts_validate_and_replacements_stay_local() {
    for e in &ENTRIES {
        assert_eq!(
            (e.validate)(&String::from_utf8(committed(e)).unwrap()),
            Ok(()),
            "{}",
            e.id
        );
    }
    assert_eq!(
        replace_number(br#"{"a": -12.5e3, "b": 7}"#, 0, "null"),
        br#"{"a": null, "b": 7}"#
    );
    assert_eq!(
        replace_number(br#"{"a": 1, "b": 7}"#, 8, "[]"),
        br#"{"a": 1, "b": []}"#
    );
    assert_eq!(replace_number(br#"{"a": 1}"#, 7, "0"), br#"{"a": 1}"#);
}
