//! The artifact schema against the five committed sweep artifacts:
//! parse errors and emit errors both name the JSON path of the bad
//! field, and the domain checks that `sweep <name> --check` runs hold
//! on the committed files and fail on broken ones.

use workloads::artifact::{Artifact, SchemaError};
use workloads::chaossweep::ChaosSweep;
use workloads::collectivessweep::CollectivesSweep;
use workloads::json::{self, EmitError, Value};
use workloads::lanesweep::LaneSweep;
use workloads::telemetrysweep::TelemetrySweep;
use workloads::trafficsweep::TrafficSweep;

const TRAFFIC: &str = include_str!("../../../results/traffic_sweep.json");
const CHAOS: &str = include_str!("../../../results/chaos_sweep.json");
const TELEMETRY: &str = include_str!("../../../results/telemetry_sweep.json");
const LANE: &str = include_str!("../../../results/lane_sweep.json");
const COLLECTIVES: &str = include_str!("../../../results/collectives_sweep.json");

/// Parses `text` as artifact type `A`.
type Parse = fn(&str) -> Result<(), SchemaError>;

fn parse<A: Artifact>(text: &str) -> Result<(), SchemaError> {
    A::from_json(text).map(drop)
}

/// `golden` with the number at `path` replaced by `x`.
fn replaced(golden: &str, path: &str, x: f64) -> String {
    let mut doc = json::parse(golden).expect("committed artifact is JSON");
    let mut at = &mut doc;
    for seg in path.split('/').skip(1) {
        at = match at {
            Value::Object(members) => {
                &mut members
                    .iter_mut()
                    .find(|(k, _)| k == seg)
                    .unwrap_or_else(|| panic!("{path}: no member {seg}"))
                    .1
            }
            Value::Array(items) => &mut items[seg.parse::<usize>().expect("array index")],
            _ => panic!("{path}: {seg} is not inside a container"),
        };
    }
    assert!(
        at.as_f64().is_some_and(|n| n >= 0.0 && n.fract() == 0.0),
        "{path} must hold an integer in the committed artifact"
    );
    *at = Value::Number(x);
    doc.to_string_pretty()
}

#[test]
fn integer_fields_reject_fractional_negative_and_out_of_range_numbers() {
    let cases: [(&str, &str, Parse); 5] = [
        (TRAFFIC, "/series/0/nodes", parse::<TrafficSweep>),
        (CHAOS, "/series/1/points/0/lost", parse::<ChaosSweep>),
        (TELEMETRY, "/config/buckets", parse::<TelemetrySweep>),
        (LANE, "/config/trials", parse::<LaneSweep>),
        (COLLECTIVES, "/rows/0/steps", parse::<CollectivesSweep>),
    ];
    for (golden, path, parse) in cases {
        parse(golden).expect("the committed artifact parses");
        for x in [-6.5, 64.9, 1e300, -1.0] {
            let err = parse(&replaced(golden, path, x))
                .expect_err(&format!("{path} = {x} must be rejected"));
            assert_eq!(err.path, path, "{err}");
            assert!(err.to_string().contains(path), "{err}");
        }
    }
}

fn poisoned<A: Artifact>(golden: &str, poison: fn(&mut A)) -> EmitError {
    let mut artifact = A::from_json(golden).expect("the committed artifact parses");
    assert!(artifact.to_json().is_ok());
    poison(&mut artifact);
    artifact.to_json().unwrap_err()
}

/// A NaN in a field that has no `null` convention fails emission with
/// its path instead of reaching a file its own `--check` rejects.
#[test]
fn poisoned_rows_fail_at_emit_time_with_a_path() {
    let cases = [
        (
            poisoned::<TrafficSweep>(TRAFFIC, |s| {
                s.series[0].points[0].completion_ratio = f64::NAN;
            }),
            "/series/0/points/0/completion_ratio",
        ),
        (
            poisoned::<ChaosSweep>(CHAOS, |s| s.series[2].points[1].delivery_ratio = f64::NAN),
            "/series/2/points/1/delivery_ratio",
        ),
        (
            poisoned::<TelemetrySweep>(TELEMETRY, |s| {
                s.series[0].rows[3].goodput_per_ms = f64::NAN;
            }),
            "/series/0/buckets/3/goodput_per_ms",
        ),
        (
            poisoned::<LaneSweep>(LANE, |s| s.series[0].points[0].blocked_ms = f64::NAN),
            "/series/0/points/0/blocked_ms",
        ),
        (
            poisoned::<CollectivesSweep>(COLLECTIVES, |s| s.rows[2].avg_delay_ms = f64::NAN),
            "/rows/2/avg_delay_ms",
        ),
    ];
    for (err, path) in cases {
        assert_eq!(err.path, path, "{err}");
        assert!(err.value.is_nan());
    }
}

#[test]
fn domain_checks_hold_on_committed_artifacts_and_catch_violations() {
    let mut collectives = CollectivesSweep::from_json(COLLECTIVES).unwrap();
    collectives.check().unwrap();
    collectives.rows[4].verified = false;
    let err = collectives.check().unwrap_err();
    assert!(err.contains("oracle-unverified"), "{err}");

    let mut lane = LaneSweep::from_json(LANE).unwrap();
    lane.check().unwrap();
    lane.series[3].points[1].lane_utilization.pop();
    assert!(lane.check().is_err());

    let mut telemetry = TelemetrySweep::from_json(TELEMETRY).unwrap();
    telemetry.check().unwrap();
    telemetry.series[0].fault_events = 0;
    assert!(telemetry.check().is_err());

    TrafficSweep::from_json(TRAFFIC).unwrap().check().unwrap();
    ChaosSweep::from_json(CHAOS).unwrap().check().unwrap();
}
