//! One schema mechanism for the sweep artifacts.
//!
//! A sweep artifact is a JSON object `{"id", "title", <sections>}`.
//! Every config and row struct declares its `"json_key" => field` list
//! once with the crate's `record!` macro, and that one list generates
//! both directions ([`Record::write_members`] and
//! [`Record::read_members`]), so emitter and parser cannot drift apart.
//! The [`Artifact`] trait adds the envelope: the `id`/`title` pair,
//! strict emission (a non-finite number fails with its JSON path, as an
//! [`EmitError`]), validating parse (a missing, mistyped or
//! out-of-range field fails with its JSON path, as a [`SchemaError`])
//! and an optional domain [`check`](Artifact::check) that `sweep
//! <name> --check` runs after the schema holds.
//!
//! Fields go through a codec:
//!
//! * `Plain` — finite `f64`; integers that parse back only when they
//!   are whole and in range of their type; `String`; `bool`;
//!   `Option<T>` (`None` ↔ `null`); `Vec<T>`; nested records;
//! * `NanNull` — NaN ↔ `null`, for statistics of an empty sample
//!   (the latency of a point that delivered nothing);
//! * `InfNull` — +∞ ↔ `null`, for the churn-free rung of an MTBF
//!   ladder.
//!
//! `Vec<T>` lifts any codec elementwise. Every other non-finite value
//! reaches the strict writer as a number and fails emission.

use crate::json::{self, EmitError, Value};
use std::fmt;

/// A schema violation: the JSON path of the offending field (for
/// example `/series/3/points/0/nodes`; `/` is the document) and what
/// was wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// Slash-separated path, in the style of [`EmitError::path`].
    pub path: String,
    /// What was expected there.
    pub message: String,
}

impl SchemaError {
    fn at(path: &str, message: impl Into<String>) -> SchemaError {
        SchemaError {
            path: if path.is_empty() { "/" } else { path }.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

impl std::error::Error for SchemaError {}

/// The path of member `key` (an object key or an array index) under
/// `path`.
#[must_use]
pub(crate) fn child(path: &str, key: impl fmt::Display) -> String {
    format!("{path}/{key}")
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

fn expected(v: &Value, path: &str, what: &str) -> SchemaError {
    SchemaError::at(path, format!("expected {what}, found {}", kind(v)))
}

/// Member `key` of the object `v` at `path`.
///
/// # Errors
/// If `v` is not an object or has no member `key`.
pub(crate) fn member<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a Value, SchemaError> {
    match v {
        Value::Object(_) => v
            .get(key)
            .ok_or_else(|| SchemaError::at(&child(path, key), "missing field")),
        _ => Err(expected(v, path, "an object")),
    }
}

/// Checks that member `key` of `v` holds the fixed value `want`.
///
/// # Errors
/// If the member is missing or holds anything else.
pub(crate) fn constant(
    v: &Value,
    path: &str,
    key: &str,
    want: impl Into<Value>,
) -> Result<(), SchemaError> {
    let want = want.into();
    let got = member(v, path, key)?;
    if *got == want {
        Ok(())
    } else {
        Err(SchemaError::at(
            &child(path, key),
            format!("expected {}", want.to_string_pretty()),
        ))
    }
}

/// How one Rust field type is written to and read from JSON.
pub(crate) trait Codec<T> {
    /// The JSON value of `x`.
    fn encode(x: &T) -> Value;
    /// Reads a `T` back from `v`, found at `path`.
    ///
    /// # Errors
    /// A [`SchemaError`] at `path` (or below it) if `v` does not hold a
    /// valid `T`.
    fn decode(v: &Value, path: &str) -> Result<T, SchemaError>;
}

/// The natural encoding of a field type.
pub(crate) struct Plain;

/// `f64` with NaN written as `null`: a statistic of an empty sample.
pub(crate) struct NanNull;

/// `f64` with +∞ written as `null`: the churn-free MTBF rung.
pub(crate) struct InfNull;

impl Codec<f64> for Plain {
    fn encode(x: &f64) -> Value {
        Value::Number(*x)
    }

    fn decode(v: &Value, path: &str) -> Result<f64, SchemaError> {
        match v {
            Value::Number(x) if x.is_finite() => Ok(*x),
            _ => Err(expected(v, path, "a finite number")),
        }
    }
}

impl Codec<f64> for NanNull {
    fn encode(x: &f64) -> Value {
        if x.is_nan() {
            Value::Null
        } else {
            Value::Number(*x)
        }
    }

    fn decode(v: &Value, path: &str) -> Result<f64, SchemaError> {
        match v {
            Value::Null => Ok(f64::NAN),
            _ => Plain::decode(v, path),
        }
    }
}

impl Codec<f64> for InfNull {
    fn encode(x: &f64) -> Value {
        if *x == f64::INFINITY {
            Value::Null
        } else {
            Value::Number(*x)
        }
    }

    fn decode(v: &Value, path: &str) -> Result<f64, SchemaError> {
        match v {
            Value::Null => Ok(f64::INFINITY),
            _ => Plain::decode(v, path),
        }
    }
}

macro_rules! integer_codec {
    ($($t:ty),*) => {$(
        impl Codec<$t> for Plain {
            fn encode(x: &$t) -> Value {
                Value::Number(*x as f64)
            }

            fn decode(v: &Value, path: &str) -> Result<$t, SchemaError> {
                let x: f64 = Plain::decode(v, path)?;
                // `as i128` saturates and truncates, so the round trip
                // rejects fractions and magnitudes beyond i128;
                // `try_from` rejects the rest of the out-of-range values.
                let i = x as i128;
                (i as f64 == x)
                    .then(|| <$t>::try_from(i).ok())
                    .flatten()
                    .ok_or_else(|| {
                        SchemaError::at(
                            path,
                            format!("expected a {} integer, found {x}", stringify!($t)),
                        )
                    })
            }
        }
    )*};
}

integer_codec!(u8, u32, u64, usize);

impl Codec<bool> for Plain {
    fn encode(x: &bool) -> Value {
        Value::Bool(*x)
    }

    fn decode(v: &Value, path: &str) -> Result<bool, SchemaError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(expected(v, path, "a boolean")),
        }
    }
}

impl Codec<String> for Plain {
    fn encode(x: &String) -> Value {
        Value::String(x.clone())
    }

    fn decode(v: &Value, path: &str) -> Result<String, SchemaError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| expected(v, path, "a string"))
    }
}

impl<T> Codec<Option<T>> for Plain
where
    Plain: Codec<T>,
{
    fn encode(x: &Option<T>) -> Value {
        x.as_ref().map_or(Value::Null, Plain::encode)
    }

    fn decode(v: &Value, path: &str) -> Result<Option<T>, SchemaError> {
        match v {
            Value::Null => Ok(None),
            _ => Plain::decode(v, path).map(Some),
        }
    }
}

impl<T, C: Codec<T>> Codec<Vec<T>> for C {
    fn encode(xs: &Vec<T>) -> Value {
        Value::Array(xs.iter().map(C::encode).collect())
    }

    fn decode(v: &Value, path: &str) -> Result<Vec<T>, SchemaError> {
        v.as_array()
            .ok_or_else(|| expected(v, path, "an array"))?
            .iter()
            .enumerate()
            .map(|(i, x)| C::decode(x, &child(path, i)))
            .collect()
    }
}

/// A struct stored as the members of a JSON object; implemented by the
/// `record!` macro.
pub trait Record: Sized {
    /// Appends this record's members, in schema order.
    fn write_members(&self, out: &mut Vec<(String, Value)>);

    /// Reads the record from the members of the object `v` at `path`.
    ///
    /// # Errors
    /// A [`SchemaError`] naming the first bad member.
    fn read_members(v: &Value, path: &str) -> Result<Self, SchemaError>;
}

impl<R: Record> Codec<R> for Plain {
    fn encode(x: &R) -> Value {
        let mut members = Vec::new();
        x.write_members(&mut members);
        Value::Object(members)
    }

    fn decode(v: &Value, path: &str) -> Result<R, SchemaError> {
        R::read_members(v, path)
    }
}

/// Declares a struct's JSON schema once and implements [`Record`] from
/// it. Entries, in output order:
///
/// * `"key" => field` — the field through [`Plain`];
/// * `"key" => field as Codec` — the field through another codec;
/// * `"key" = EXPR` — a fixed member: written as `EXPR`, and a parse
///   fails unless the member equals it;
/// * `..field` — a nested record whose members are spliced into this
///   object.
macro_rules! record {
    ($ty:ty { $($body:tt)* }) => {
        $crate::artifact::record!(@munch ($ty, self, out, v, path) [] [] []; $($body)*);
    };
    (@munch ($ty:ty, $s:tt, $o:ident, $v:ident, $p:ident) [$($w:tt)*] [$($r:tt)*] [$($f:ident)*];
        $key:literal => $field:ident as $codec:ty $(, $($rest:tt)*)?) => {
        $crate::artifact::record!(@munch ($ty, $s, $o, $v, $p)
            [$($w)* $o.push(($key.to_string(),
                <$codec as $crate::artifact::Codec<_>>::encode(&$s.$field)));]
            [$($r)* let $field = <$codec as $crate::artifact::Codec<_>>::decode(
                $crate::artifact::member($v, $p, $key)?,
                &$crate::artifact::child($p, $key),
            )?;]
            [$($f)* $field]; $($($rest)*)?);
    };
    (@munch $h:tt $w:tt $r:tt $f:tt; $key:literal => $field:ident $(, $($rest:tt)*)?) => {
        $crate::artifact::record!(@munch $h $w $r $f;
            $key => $field as $crate::artifact::Plain $(, $($rest)*)?);
    };
    (@munch ($ty:ty, $s:tt, $o:ident, $v:ident, $p:ident) [$($w:tt)*] [$($r:tt)*] $f:tt;
        $key:literal = $konst:expr $(, $($rest:tt)*)?) => {
        $crate::artifact::record!(@munch ($ty, $s, $o, $v, $p)
            [$($w)* $o.push(($key.to_string(), $crate::json::Value::from($konst)));]
            [$($r)* $crate::artifact::constant($v, $p, $key, $konst)?;]
            $f; $($($rest)*)?);
    };
    (@munch ($ty:ty, $s:tt, $o:ident, $v:ident, $p:ident) [$($w:tt)*] [$($r:tt)*] [$($f:ident)*];
        .. $field:ident $(, $($rest:tt)*)?) => {
        $crate::artifact::record!(@munch ($ty, $s, $o, $v, $p)
            [$($w)* $crate::artifact::Record::write_members(&$s.$field, $o);]
            [$($r)* let $field = $crate::artifact::Record::read_members($v, $p)?;]
            [$($f)* $field]; $($($rest)*)?);
    };
    (@munch ($ty:ty, $s:tt, $o:ident, $v:ident, $p:ident) [$($w:tt)*] [$($r:tt)*] [$($f:ident)*];) => {
        impl $crate::artifact::Record for $ty {
            fn write_members(&$s, $o: &mut Vec<(String, $crate::json::Value)>) {
                $($w)*
            }

            fn read_members(
                $v: &$crate::json::Value,
                $p: &str,
            ) -> Result<Self, $crate::artifact::SchemaError> {
                $($r)*
                Ok(Self { $($f),* })
            }
        }
    };
}

pub(crate) use record;

/// A committed sweep artifact: `{"id": ID, "title": TITLE, ...}`, its
/// sections being the members of the implementing [`Record`].
pub trait Artifact: Record {
    /// The `id` member, which is also the file stem under `results/`
    /// and the name `sweep` runs it by.
    const ID: &'static str;
    /// The `title` member and the first line of the table.
    const TITLE: &'static str;

    /// Renders the artifact as a plain-text report (the `.txt` file).
    fn to_table(&self) -> String;

    /// Domain rules beyond the schema, which `sweep <name> --check`
    /// enforces on a parsed artifact.
    ///
    /// # Errors
    /// A message naming the first violation.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Pretty-printed JSON through the strict writer: byte-stable for a
    /// given result, and a non-finite number outside the `null`
    /// conventions fails instead of reaching a committed file.
    ///
    /// # Errors
    /// [`EmitError`] naming the path of the first non-finite number.
    fn to_json(&self) -> Result<String, EmitError> {
        let mut members = vec![
            ("id".to_string(), Value::from(Self::ID)),
            ("title".to_string(), Value::from(Self::TITLE)),
        ];
        self.write_members(&mut members);
        Value::Object(members).to_string_pretty_strict()
    }

    /// Parses and validates an artifact produced by
    /// [`to_json`](Artifact::to_json).
    ///
    /// # Errors
    /// [`SchemaError`] naming the path of the first violation.
    fn from_json(input: &str) -> Result<Self, SchemaError> {
        let v =
            json::parse(input).map_err(|e| SchemaError::at("", format!("invalid JSON: {e}")))?;
        constant(&v, "", "id", Self::ID)?;
        // The sections before the title: a document that is wrong in
        // both reports the error that matters.
        let artifact = Self::read_members(&v, "")?;
        constant(&v, "", "title", Self::TITLE)?;
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Inner {
        hits: u64,
    }

    record!(Inner { "hits" => hits });

    #[derive(Debug, PartialEq)]
    struct Row {
        name: String,
        lanes: u8,
        latency: f64,
        mtbf: Vec<f64>,
        recover: Option<f64>,
        ok: bool,
        inner: Inner,
    }

    record!(Row {
        "name" => name,
        "kind" = "demo",
        "lanes" => lanes,
        "latency" => latency as NanNull,
        "mtbf" => mtbf as InfNull,
        "recover" => recover,
        "ok" => ok,
        ..inner,
    });

    fn row() -> Row {
        Row {
            name: "a".into(),
            lanes: 4,
            latency: f64::NAN,
            mtbf: vec![f64::INFINITY, 500.0],
            recover: None,
            ok: true,
            inner: Inner { hits: 7 },
        }
    }

    fn read(text: &str) -> Result<Row, SchemaError> {
        Row::read_members(&json::parse(text).unwrap(), "/row")
    }

    #[test]
    fn one_declaration_drives_both_directions() {
        let text = Plain::encode(&row()).to_string_pretty();
        let v = json::parse(&text).unwrap();
        assert_eq!(v["kind"], "demo");
        assert_eq!(v["latency"], Value::Null);
        assert_eq!(v["mtbf"][0], Value::Null);
        assert_eq!(v["hits"], 7.0);
        let back = read(&text).unwrap();
        assert!(back.latency.is_nan());
        assert_eq!(back.mtbf, row().mtbf);
        assert_eq!(back.inner, row().inner);
    }

    #[test]
    fn parse_errors_name_the_path() {
        let good = Plain::encode(&row()).to_string_pretty();
        for (from, to, path) in [
            (r#""lanes": 4"#, r#""lanes": 4.5"#, "/row/lanes"),
            (r#""lanes": 4"#, r#""lanes": 256"#, "/row/lanes"),
            (r#""lanes": 4"#, r#""lanes": -1"#, "/row/lanes"),
            (r#""hits": 7"#, r#""hits": 1e300"#, "/row/hits"),
            (r#""kind": "demo""#, r#""kind": "other""#, "/row/kind"),
            (r#""ok": true"#, r#""ok": 1"#, "/row/ok"),
            (r#""recover": null"#, r#""recover": "soon""#, "/row/recover"),
            ("500", "\"x\"", "/row/mtbf/1"),
            (r#""name": "a","#, "", "/row/name"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from}");
            let err = read(&bad).unwrap_err();
            assert_eq!(err.path, path, "{err}");
        }
    }

    #[test]
    fn non_finite_values_outside_the_null_conventions_fail_emission() {
        let mut r = row();
        r.mtbf[1] = f64::NAN;
        let err = Plain::encode(&r).to_string_pretty_strict().unwrap_err();
        assert_eq!(err.path, "/mtbf/1");
        let mut r = row();
        r.latency = f64::INFINITY;
        let err = Plain::encode(&r).to_string_pretty_strict().unwrap_err();
        assert_eq!(err.path, "/latency");
    }
}
