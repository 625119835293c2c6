//! One request model for the `mcast` command line and `mcast serve`.
//!
//! [`Request`] is declared once, by the `request!` macro below: each
//! field with its type, its default, its `--flag` and, where the daemon
//! offers it, its JSON key, the serve ops that accept the key and its
//! range rule. The declaration generates the flag parser
//! ([`Flags::from_args`]) and the JSON member decoder that
//! [`crate::serve`] runs once per request member.
//!
//! One [`Request::validate`] checks everything a simulation entry point
//! would otherwise panic on. A daemon request carries the daemon's caps
//! ([`ServeOptions`]); the command line has none. One [`execute`] runs
//! every mode and returns typed reports ([`Outcome`]): the command line
//! prints them, the daemon formats them with the report formatters of
//! [`crate::serve`].

use std::fmt;
use std::slice::{self, Iter};

use hcube::{
    Cube, Dim, Ecube, Mesh, MeshXY, MinimalAdaptive, NodeId, Resolution, Router, Topology, Torus,
    TorusRouter,
};
use hypercast::collectives::{op_bytes, suite_collective, suite_collective_separate};
use hypercast::repair::{repair, NetworkFaults, RepairOutcome};
use hypercast::{
    Algorithm, CollectiveKind, CollectiveSchedule, MulticastTree, PortModel, TreeFamily,
};
use traffic::{ArrivalProcess, Backend, ChaosReport, DestPattern, RunOptions, TrafficReport};
use wormsim::network::ChannelMap;
use wormsim::{
    separate_workload, ChannelTrace, EventRecorder, FaultPlan, FaultSimReport, MulticastRun, Run,
    RunResult, SimError, SimParams, SimReport,
};

use crate::json::Value;
use crate::serve::{chaos_wrap, load_spec, ServeOptions};

/// A typed refusal of a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// The daemon's error `kind`, such as `bad_request` or `oversized`.
    pub kind: &'static str,
    /// What was wrong, naming the flag or key.
    pub message: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RequestError {}

pub(crate) fn bad(message: impl Into<String>) -> RequestError {
    RequestError {
        kind: "bad_request",
        message: message.into(),
    }
}

fn oversized(message: String) -> RequestError {
    RequestError {
        kind: "oversized",
        message,
    }
}

/// Returns a `bad_request` with the formatted message unless `cond`.
macro_rules! ensure {
    ($cond:expr, $($message:tt)+) => {
        if !$cond {
            return Err(bad(format!($($message)+)));
        }
    };
}

// ---------------------------------------------------------------------------
// Field types: how each is read from a flag value and a JSON member
// ---------------------------------------------------------------------------

/// A field type: read from the value of a `--flag` and from a JSON
/// member, with the range rule it may declare. Errors are whole messages
/// naming the flag or the key.
pub(crate) trait Arg: Sized {
    /// Whether the flag takes a value; a switch (`--json`) does not.
    const VALUE: bool = true;

    /// The value `s` of `name`.
    fn parse(s: &str, name: &str) -> Result<Self, String>;

    /// The JSON value `v` of `key`: a string, unless overridden.
    fn from_json(v: &Value, key: &str) -> Result<Self, String> {
        let s = v
            .as_str()
            .ok_or_else(|| format!("{key} must be a string"))?;
        Self::parse(s, key)
    }

    /// Applies the value `s` of `flag`; a repeatable flag appends.
    fn set_flag(&mut self, s: &str, flag: &str) -> Result<(), String> {
        *self = Self::parse(s, flag)?;
        Ok(())
    }

    /// Applies JSON member `part` (1 only for the second key of a pair).
    fn set_json(&mut self, _part: usize, v: &Value, key: &str) -> Result<(), String> {
        *self = Self::from_json(v, key)?;
        Ok(())
    }

    /// The `must be positive` rule: above zero, or absent.
    fn positive(&self) -> bool {
        true
    }
}

macro_rules! numbers {
    ($($t:ty),*) => {$(
        impl Arg for $t {
            fn parse(s: &str, flag: &str) -> Result<$t, String> {
                s.trim().parse().map_err(|e| format!("{flag}: {e}"))
            }

            fn from_json(v: &Value, key: &str) -> Result<$t, String> {
                // JSON numbers are `f64`: refuse fractions and magnitudes
                // beyond 2^53 rather than truncating, and refuse by name a
                // value too large for the field rather than wrapping it.
                match v.as_f64() {
                    Some(x) if x.fract() == 0.0 && (0.0..=9.0e15).contains(&x) => {
                        <$t>::try_from(x as u64).map_err(|_| format!("{key} {x} is out of range"))
                    }
                    _ => Err(format!("{key} must be a non-negative integer")),
                }
            }

            fn positive(&self) -> bool {
                *self > 0
            }
        }
    )*};
}

numbers!(u8, u16, u32, u64, usize);

impl Arg for f64 {
    fn parse(s: &str, flag: &str) -> Result<f64, String> {
        match s.trim().parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            Ok(x) => Err(format!("{flag} must be finite, got {x}")),
            Err(e) => Err(format!("{flag}: {e}")),
        }
    }

    fn from_json(v: &Value, key: &str) -> Result<f64, String> {
        let finite = v.as_f64().filter(|x| x.is_finite());
        finite.ok_or_else(|| format!("{key} must be a finite number"))
    }

    fn positive(&self) -> bool {
        *self > 0.0
    }
}

impl Arg for String {
    fn parse(s: &str, _: &str) -> Result<String, String> {
        Ok(s.to_string())
    }
}

impl Arg for NodeId {
    fn parse(s: &str, flag: &str) -> Result<NodeId, String> {
        u32::parse(s, flag).map(NodeId)
    }

    fn from_json(v: &Value, key: &str) -> Result<NodeId, String> {
        u32::from_json(v, key).map(NodeId)
    }
}

impl Arg for bool {
    const VALUE: bool = false;

    fn parse(_: &str, _: &str) -> Result<bool, String> {
        Ok(true)
    }
}

/// `A:B`.
impl<A: Arg, B: Arg> Arg for (A, B) {
    fn parse(s: &str, flag: &str) -> Result<(A, B), String> {
        let (a, b) = s
            .split_once(':')
            .ok_or_else(|| format!("{flag}: expected A:B, got {s}"))?;
        Ok((A::parse(a, flag)?, B::parse(b, flag)?))
    }
}

impl<T: Arg> Arg for Option<T> {
    fn parse(s: &str, flag: &str) -> Result<Option<T>, String> {
        T::parse(s, flag).map(Some)
    }

    fn from_json(v: &Value, key: &str) -> Result<Option<T>, String> {
        T::from_json(v, key).map(Some)
    }

    fn positive(&self) -> bool {
        self.as_ref().is_none_or(T::positive)
    }
}

/// Comma-separated, and repeatable, on the command line; an array in
/// JSON.
impl<T: Arg> Arg for Vec<T> {
    fn parse(s: &str, flag: &str) -> Result<Vec<T>, String> {
        s.split(',').map(|item| T::parse(item, flag)).collect()
    }

    fn from_json(v: &Value, key: &str) -> Result<Vec<T>, String> {
        let items = v
            .as_array()
            .ok_or_else(|| format!("{key} must be an array"))?;
        items.iter().map(|item| T::from_json(item, key)).collect()
    }

    fn set_flag(&mut self, s: &str, flag: &str) -> Result<(), String> {
        self.extend(Self::parse(s, flag)?);
        Ok(())
    }
}

/// A pair set by one `A:B` flag, or by one JSON key per half (a missing
/// half stays 0).
impl Arg for Option<[f64; 2]> {
    fn parse(s: &str, flag: &str) -> Result<Option<[f64; 2]>, String> {
        <(f64, f64)>::parse(s, flag).map(|(a, b)| Some([a, b]))
    }

    fn set_json(&mut self, part: usize, v: &Value, key: &str) -> Result<(), String> {
        self.get_or_insert([0.0; 2])[part] = f64::from_json(v, key)?;
        Ok(())
    }

    fn positive(&self) -> bool {
        self.is_none_or(|pair| pair.iter().all(f64::positive))
    }
}

/// Whether `s` spells the display name `name` in lower case, with or
/// without its hyphens: `w-sort` and `wsort` spell `W-sort`.
fn spelled(name: &str, s: &str) -> bool {
    let lower = name.bytes().map(|b| b.to_ascii_lowercase());
    lower.clone().eq(s.bytes()) || lower.filter(|&b| b != b'-').eq(s.bytes())
}

/// The network a request runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// The binary hypercube, where the tree algorithms run.
    Cube,
    /// A k-ary n-cube torus (separate addressing).
    Torus,
    /// A 2D mesh (separate addressing).
    Mesh,
}

impl Arg for TopologyKind {
    fn parse(s: &str, _: &str) -> Result<TopologyKind, String> {
        match s {
            "cube" | "hypercube" => Ok(TopologyKind::Cube),
            "torus" => Ok(TopologyKind::Torus),
            "mesh" => Ok(TopologyKind::Mesh),
            _ => Err(format!("unknown topology `{s}`")),
        }
    }
}

/// The routing of a mesh run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterKind {
    /// Deterministic dimension-ordered routing (XY).
    Ecube,
    /// West-first minimal-adaptive routing.
    Adaptive,
}

impl Arg for RouterKind {
    fn parse(s: &str, _: &str) -> Result<RouterKind, String> {
        match s {
            "ecube" | "xy" | "deterministic" => Ok(RouterKind::Ecube),
            "adaptive" | "west-first" => Ok(RouterKind::Adaptive),
            _ => Err(format!("unknown router `{s}`")),
        }
    }
}

/// A port model's label (`one-port`) or its first word (`one`).
impl Arg for PortModel {
    fn parse(s: &str, _: &str) -> Result<PortModel, String> {
        [PortModel::OnePort, PortModel::AllPort]
            .into_iter()
            .find(|p| {
                let label = p.label();
                label == s || label.strip_suffix("-port") == Some(s)
            })
            .ok_or_else(|| format!("unknown port model `{s}`"))
    }
}

/// An [`Algorithm`], `bine`, or `all` (none: compare them all).
impl Arg for Option<TreeFamily> {
    fn parse(s: &str, _: &str) -> Result<Option<TreeFamily>, String> {
        let families = Algorithm::ALL.map(TreeFamily::Alg).into_iter();
        match families
            .chain([TreeFamily::Bine])
            .find(|f| spelled(f.name(), s))
        {
            Some(family) => Ok(Some(family)),
            None if s == "all" => Ok(None),
            None => Err(format!("unknown algorithm `{s}`")),
        }
    }
}

impl Arg for CollectiveKind {
    fn parse(s: &str, _: &str) -> Result<CollectiveKind, String> {
        CollectiveKind::ALL
            .into_iter()
            .find(|k| spelled(k.name(), s))
            .ok_or_else(|| format!("unknown collective `{s}`"))
    }
}

impl Arg for ArrivalProcess {
    fn parse(s: &str, _: &str) -> Result<ArrivalProcess, String> {
        ArrivalProcess::parse(s)
    }
}

// ---------------------------------------------------------------------------
// The flag mechanism and the declaration
// ---------------------------------------------------------------------------

/// A struct set from `--flag value` command-line arguments.
pub trait Flags: Default {
    /// Applies `flag`, taking its value from `rest` if it has one;
    /// `None` if no field has this flag.
    fn set_flag(&mut self, flag: &str, rest: &mut Iter<'_, String>) -> Option<Result<(), String>>;

    /// Parses `argv` (without the program name) over the defaults.
    ///
    /// # Errors
    /// An unknown flag, a missing value, or a value its field refuses.
    fn from_args(argv: &[String]) -> Result<Self, RequestError> {
        let mut out = Self::default();
        let mut rest = argv.iter();
        while let Some(flag) = rest.next() {
            out.set_flag(flag, &mut rest)
                .unwrap_or_else(|| Err(format!("unknown flag {flag} (try --help)")))
                .map_err(bad)?;
        }
        Ok(out)
    }
}

/// Applies one flag to its field, taking the value from `rest` unless
/// the field is a switch.
pub(crate) fn apply_flag<T: Arg>(
    slot: &mut T,
    flag: &str,
    rest: &mut Iter<'_, String>,
) -> Result<(), String> {
    let value = if T::VALUE {
        rest.next()
            .ok_or_else(|| format!("missing value for {flag}"))?
    } else {
        ""
    };
    slot.set_flag(value, flag)
}

/// The serve ops that accept a request key, as bits.
pub(crate) mod ops {
    /// `traffic`.
    pub const TRAFFIC: u8 = 1;
    /// `chaos`.
    pub const CHAOS: u8 = 2;
    /// `multicast`.
    pub const MULTICAST: u8 = 4;
    /// `traffic` and `chaos`.
    pub const LOAD: u8 = TRAFFIC | CHAOS;
    /// Every simulating op.
    pub const ANY: u8 = LOAD | MULTICAST;
}

/// Declares [`Request`]. Each entry reads
/// `field: Type = default, "--flag" [, key "key" ["key2"] in OPS] [, must be positive];`
/// and becomes the struct field, its default, its arm of the flag parser
/// and of `Request::decode_member` (a two-key field reads one half of a
/// pair from each key), its names in messages and its range rule.
macro_rules! request {
    (@key) => { "" };
    (@key $key:literal) => { concat!("`", $key, "`") };
    (@key $a:literal $b:literal) => { concat!("`", $a, "`/`", $b, "`") };
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $ty:ty = $default:expr, $flag:literal
            $(, key $($key:literal)+ in $ops:expr)? $(, must be $rule:ident)?;
    )*) => {
        /// One request of either front end; see the module docs.
        #[derive(Clone, Debug)]
        pub struct Request {
            $($(#[doc = $doc])* pub $field: $ty,)*
            given: PerField<bool>,
            front: Front,
        }

        /// One value per [`Request`] field: whether it was given, or its
        /// name in messages.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct PerField<T> {
            $($(#[doc = $doc])* pub $field: T,)*
        }

        const FLAG_NAMES: PerField<&str> = PerField { $($field: $flag,)* };
        const KEY_NAMES: PerField<&str> = PerField { $($field: request!(@key $($($key)+)?),)* };

        impl Default for Request {
            fn default() -> Request {
                Request {
                    $($field: $default,)*
                    given: PerField::default(),
                    front: Front::Cli,
                }
            }
        }

        impl Flags for Request {
            fn set_flag(
                &mut self,
                flag: &str,
                rest: &mut Iter<'_, String>,
            ) -> Option<Result<(), String>> {
                $(if flag == $flag {
                    self.given.$field = true;
                    return Some(apply_flag(&mut self.$field, flag, rest));
                })*
                None
            }
        }

        impl Request {
            /// Decodes the request member `key` into its field: `None` if
            /// no field has that key, else the serve ops that accept it.
            pub(crate) fn decode_member(
                &mut self,
                key: &str,
                v: &Value,
            ) -> Result<Option<u8>, RequestError> {
                $($(
                    let keys = [$(($key, concat!("`", $key, "`"))),+];
                    for (part, (name, quoted)) in keys.into_iter().enumerate() {
                        if key == name {
                            self.given.$field = true;
                            self.$field.set_json(part, v, quoted).map_err(bad)?;
                            return Ok(Some($ops));
                        }
                    }
                )?)*
                Ok(None)
            }

            /// Checks each field's declared range rule.
            fn check_rules(&self) -> Result<(), RequestError> {
                $($(ensure!(Arg::$rule(&self.$field), "{} must be > 0", self.names().$field);)?)*
                Ok(())
            }
        }
    };
}

request! {
    /// The network: `cube`, `torus` or `mesh`.
    topology: TopologyKind = TopologyKind::Cube, "--topology", key "topology" in ops::LOAD;
    /// Cube or torus dimension.
    n: u8 = 6, "--n", key "n" in ops::ANY;
    /// Torus radix.
    arity: u16 = 4, "--arity", key "arity" in ops::LOAD;
    /// Mesh width.
    width: u16 = 4, "--width";
    /// Mesh height.
    height: u16 = 4, "--height";
    /// Routing of a mesh run.
    router: RouterKind = RouterKind::Ecube, "--router";
    /// Virtual lanes per link of a single-shot run (absent: one).
    lanes: Option<u8> = None, "--lanes", key "lanes" in ops::MULTICAST, must be positive;
    /// A full-machine collective instead of a multicast.
    collective: Option<CollectiveKind> = None, "--collective";
    /// The tree algorithm or collective family (absent: compare all).
    algo: Option<TreeFamily> = None, "--algo", key "algo" in ops::ANY;
    /// One-port or all-port nodes.
    port: PortModel = PortModel::AllPort, "--port", key "port" in ops::ANY;
    /// The multicast source, or the allreduce root.
    source: u32 = 0, "--source", key "source" in ops::ANY;
    /// An explicit destination set.
    dests: Vec<NodeId> = Vec::new(), "--dests", key "dests" in ops::ANY;
    /// A random destination set of this size instead.
    random: Option<usize> = None, "--random", key "random" in ops::ANY, must be positive;
    /// Seed of the destination draw, the fault draw and the schedule.
    seed: u64 = 1, "--seed", key "seed" in ops::ANY;
    /// Message size (the per-node block of a collective).
    bytes: u32 = 4096, "--bytes", key "bytes" in ops::ANY, must be positive;
    /// Print the channel-occupancy timeline.
    trace: bool = false, "--trace";
    /// Print JSON summary lines.
    json: bool = false, "--json";
    /// Write a Chrome/Perfetto trace here.
    trace_out: Option<String> = None, "--trace-out";
    /// Write the metrics registry here (Prometheus text for `.prom`).
    metrics_out: Option<String> = None, "--metrics-out";
    /// Write the session spans of an open-loop run here.
    spans_out: Option<String> = None, "--spans-out";
    /// Write the time series of an open-loop run here.
    timeseries_out: Option<String> = None, "--timeseries-out";
    /// Random directed link failures.
    faults: usize = 0, "--faults";
    /// Failed links, as `node:dimension`.
    fail_links: Vec<(u32, u8)> = Vec::new(), "--fail-link";
    /// Failed nodes.
    fail_nodes: Vec<u32> = Vec::new(), "--fail-node";
    /// Offered load in sessions/ms: an open-loop run instead of one shot.
    load: Option<f64> = None, "--load", key "load" in ops::LOAD, must be positive;
    /// The arrival process of an open-loop run.
    arrivals: ArrivalProcess = ArrivalProcess::Poisson, "--arrivals", key "arrivals" in ops::LOAD;
    /// Sessions of an open-loop run.
    sessions: usize = 100, "--sessions", key "sessions" in ops::LOAD, must be positive;
    /// Per-link MTBF and MTTR in ms: fault churn on an open-loop run.
    churn: Option<[f64; 2]> = None, "--chaos",
        key "mtbf_ms" "mttr_ms" in ops::CHAOS, must be positive;
    /// Retries of a faulted session.
    retries: u32 = 3, "--retries", key "retries" in ops::CHAOS;
    /// First retry backoff in µs.
    backoff_us: u64 = 500, "--backoff", key "backoff_us" in ops::CHAOS, must be positive;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// The front end a request came from, which sets its defaults, its
/// names in messages and its caps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Front {
    /// `mcast` flags: no caps, and no algorithm compares them all.
    Cli,
    /// A daemon request: capped, and no algorithm means W-sort.
    Serve(ServeOptions),
}

#[derive(Clone, Copy)]
enum Net {
    Cube(Cube),
    Torus(Torus),
    Mesh(Mesh),
}

/// Simulated times must stay below this many nanoseconds, so that the
/// latencies added to them still fit in [`wormsim::SimTime`].
const CLOCK_LIMIT_NS: f64 = (1u64 << 62) as f64;

/// The most lanes per link the daemon runs.
const SERVE_LANES: u8 = 16;

/// The most link and node failures one churn process may draw.
const MAX_FAILURES: f64 = 1.0e6;

impl Request {
    /// An empty daemon request: the daemon's defaults and caps.
    pub(crate) fn serve(opts: &ServeOptions) -> Request {
        Request {
            algo: Some(TreeFamily::Alg(Algorithm::WSort)),
            front: Front::Serve(*opts),
            ..Request::default()
        }
    }

    fn names(&self) -> &'static PerField<&'static str> {
        match self.front {
            Front::Cli => &FLAG_NAMES,
            Front::Serve(_) => &KEY_NAMES,
        }
    }

    fn has_faults(&self) -> bool {
        self.faults > 0 || !self.fail_links.is_empty() || !self.fail_nodes.is_empty()
    }

    fn observed(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    fn recorded(&self) -> bool {
        self.spans_out.is_some() || self.timeseries_out.is_some()
    }

    /// Checks that [`execute`] can run the request.
    ///
    /// # Errors
    /// The first rule the request breaks.
    pub fn validate(&self) -> Result<(), RequestError> {
        self.network().map(drop)
    }

    /// Validates the request and builds its network.
    fn network(&self) -> Result<Net, RequestError> {
        let name = self.names();
        self.check_rules()?;
        let cube = self.topology == TopologyKind::Cube;
        // What each mode runs with: a single shot takes faults (on the
        // cube), traces and lanes; open-loop traffic takes churn and the
        // flight recorder; a collective takes none of them.
        let (mode, runs_with) = match (self.load, self.collective) {
            (None, None) => ("a single-shot run", [cube, true, true, false, false]),
            (Some(_), None) => ("open-loop traffic", [false, false, false, true, true]),
            (_, Some(_)) => ("a collective", [false; 5]),
        };
        let options = [
            (self.has_faults(), "fault flags"),
            (self.trace || self.observed(), "trace flags"),
            (self.lanes.is_some(), name.lanes),
            (self.churn.is_some(), name.churn),
            (self.recorded(), "the flight recorder"),
        ];
        for ((given, option), allowed) in options.into_iter().zip(runs_with) {
            ensure!(
                !given || allowed,
                "{mode} on this topology does not take {option}"
            );
        }
        let one_algorithm = matches!(self.algo, Some(TreeFamily::Alg(_)));
        let serve = matches!(self.front, Front::Serve(_));
        ensure!(
            !serve || !cube || one_algorithm,
            "{} must name one tree algorithm",
            name.algo
        );
        ensure!(
            self.collective.is_some() || self.algo != Some(TreeFamily::Bine),
            "{} bine builds collectives only",
            name.algo
        );
        ensure!(
            self.topology != TopologyKind::Mesh || self.load.is_none() && self.collective.is_none(),
            "the mesh runs single-shot multicasts only"
        );
        ensure!(
            self.router == RouterKind::Ecube || self.topology == TopologyKind::Mesh,
            "{} adaptive is mesh-only",
            name.router
        );
        ensure!(cube || !self.given.algo, "{} is cube-only", name.algo);
        ensure!(
            self.topology == TopologyKind::Torus || !self.given.arity,
            "{} is torus-only",
            name.arity
        );
        ensure!(
            !cube || self.algo.is_some() || !self.observed() && !self.recorded(),
            "trace and recorder files need a single {}",
            name.algo
        );
        let net = match self.topology {
            TopologyKind::Cube => Cube::new(self.n).map(Net::Cube),
            TopologyKind::Torus => Torus::new(self.arity, self.n).map(Net::Torus),
            TopologyKind::Mesh => Mesh::new(self.width, self.height).map(Net::Mesh),
        }
        .map_err(|e| bad(e.to_string()))?;
        let (nodes, links) = match net {
            Net::Cube(c) => (c.node_count(), c.channel_count()),
            Net::Torus(t) => (t.node_count(), t.channel_count()),
            Net::Mesh(m) => (m.node_count(), m.channel_count()),
        };
        if let Front::Serve(cap) = self.front {
            if nodes > cap.max_nodes {
                return Err(oversized(format!(
                    "a {nodes}-node topology exceeds the cap of {} nodes",
                    cap.max_nodes
                )));
            }
            if self.load.is_some() && self.sessions > cap.max_sessions {
                return Err(oversized(format!(
                    "{} sessions exceed the cap of {}",
                    self.sessions, cap.max_sessions
                )));
            }
            let lanes = self.lanes.unwrap_or(1);
            ensure!(
                lanes <= SERVE_LANES,
                "{} must be at most {SERVE_LANES}",
                name.lanes
            );
        }
        ensure!(
            !matches!(net, Net::Torus(_)) || self.lanes.unwrap_or(2).is_multiple_of(2),
            "{}: torus lanes come in dateline pairs (use an even number)",
            name.lanes
        );
        let source = self.source;
        ensure!(
            (source as usize) < nodes,
            "{} {source} outside the {nodes}-node topology",
            name.source
        );
        for &(v, d) in &self.fail_links {
            ensure!(
                (v as usize) < nodes && d < self.n,
                "{} {v}:{d} outside the cube",
                name.fail_links
            );
        }
        for &v in &self.fail_nodes {
            ensure!(
                (v as usize) < nodes,
                "{} {v} outside the cube",
                name.fail_nodes
            );
        }
        if let Some(rate) = self.load {
            // The longest schedule an arrival process can draw: 37 mean
            // gaps per session (an exponential draw from 53 random bits)
            // plus one whole burst's idle gap.
            let burst = match self.arrivals {
                ArrivalProcess::Bursty { mean_burst } => 64.0 * f64::from(mean_burst),
                _ => 0.0,
            };
            let longest_ns = 1.0e6 / rate * (37.0 * self.sessions as f64 + burst);
            if longest_ns >= CLOCK_LIMIT_NS {
                return Err(bad(format!(
                    "{} {rate:e} with {} sessions does not fit the simulated clock",
                    name.load, self.sessions
                )));
            }
            if let Some([mtbf_ms, mttr_ms]) = self.churn {
                // Each link fails once per MTBF and each node once per four
                // over the first 60% of the horizon; a repair takes up to
                // 37 mean gaps of 1.5 MTTR.
                let horizon_ms = self.sessions as f64 / rate * 1.25 + 30.0;
                let failures = 0.6 * horizon_ms / mtbf_ms * (links + nodes / 4) as f64;
                ensure!(
                    failures <= MAX_FAILURES && 55.5e6 * mttr_ms < CLOCK_LIMIT_NS,
                    "{} {mtbf_ms}:{mttr_ms} draws ~{failures:.0e} failures (at most \
                     {MAX_FAILURES:.0e}) with repairs that must fit the simulated clock",
                    name.churn
                );
            }
        }
        if self.collective == Some(CollectiveKind::Allreduce) {
            // An allreduce op carries the whole vector, a block per node.
            op_bytes(nodes, self.bytes).map_err(|e| bad(format!("{}: {e}", name.bytes)))?;
        }
        if self.collective.is_none() {
            self.check_dests(nodes)?;
        }
        Ok(net)
    }

    /// The destination side: `dests` or `random`, exactly one, inside the
    /// topology, without the source or duplicates.
    fn check_dests(&self, nodes: usize) -> Result<(), RequestError> {
        let name = self.names();
        let cap = match self.front {
            Front::Serve(cap) => cap.max_dests,
            Front::Cli => usize::MAX,
        };
        ensure!(
            self.random.is_some() != self.given.dests,
            "give {} or {}, exactly one",
            name.dests,
            name.random
        );
        let count = self.random.unwrap_or(self.dests.len());
        if count > cap {
            return Err(oversized(format!(
                "{count} destinations exceed the cap of {cap}"
            )));
        }
        if let Some(m) = self.random {
            ensure!(
                m < nodes,
                "{} {m} needs {} of the {nodes} nodes",
                name.random,
                m + 1
            );
        }
        ensure!(count > 0, "{} must not be empty", name.dests);
        for (i, &NodeId(d)) in self.dests.iter().enumerate() {
            ensure!(
                (d as usize) < nodes,
                "destination {d} outside the {nodes}-node topology"
            );
            ensure!(d != self.source, "destination {d} is the source itself");
            ensure!(
                !self.dests[..i].contains(&NodeId(d)),
                "duplicate destination {d}"
            );
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// What [`execute`] returns: the reports and the files asked for.
pub struct Outcome {
    /// The reports.
    pub reports: Reports,
    /// Files the request asked for, for the front end to write.
    pub files: Vec<OutputFile>,
}

/// The reports of one request, by mode.
pub enum Reports {
    /// Single-shot multicasts on the cube, one per compared algorithm.
    Tree(Vec<TreeRun>),
    /// A single-shot separate-addressing multicast on the torus or mesh.
    Separate(Box<SeparateRun>),
    /// Idle-network collectives, one per compared family.
    Collective(Vec<CollectiveRun>),
    /// Open-loop runs, one per compared algorithm or family, by name.
    Load(Vec<(&'static str, LoadReport)>),
}

/// One open-loop run.
pub enum LoadReport {
    /// Traffic on a healthy network.
    Traffic(TrafficReport),
    /// Traffic under fault churn.
    Chaos(ChaosReport),
}

/// A replay over a faulty network.
pub type FaultReplay = Result<FaultSimReport, SimError>;

/// One single-shot multicast tree and its replays.
pub struct TreeRun {
    /// Its algorithm.
    pub algo: Algorithm,
    /// The tree.
    pub tree: MulticastTree,
    /// The idle-network replay.
    pub report: SimReport,
    /// With fault flags: the tree over the faulty network, the repaired
    /// tree over it, and the repair.
    pub faults: Option<(FaultReplay, FaultReplay, RepairOutcome)>,
    /// With `trace` and one algorithm: the channel-occupancy timeline.
    pub timeline: Option<ChannelTrace>,
}

/// One unicast per destination, on the torus or mesh.
pub struct SeparateRun {
    /// The source's label in the topology.
    pub source: String,
    /// The run.
    pub run: RunResult,
    /// With `trace`: the channel-occupancy timeline.
    pub timeline: Option<ChannelTrace>,
}

/// One collective schedule, certified and replayed.
pub struct CollectiveRun {
    /// Its family's display name.
    pub label: &'static str,
    /// The schedule.
    pub sched: CollectiveSchedule,
    /// The idle-network replay.
    pub report: SimReport,
    /// The data-flow oracle's verdict.
    pub verified: Result<(), String>,
}

/// A file a request asked for.
pub struct OutputFile {
    /// The flag that asked for it.
    pub flag: &'static str,
    /// Where to write it.
    pub path: String,
    /// Its contents.
    pub contents: String,
}

/// Validates and runs a request of either front end.
///
/// # Errors
/// The first rule the request breaks (see [`Request::validate`]).
pub fn execute(req: &Request) -> Result<Outcome, RequestError> {
    let net = req.network()?;
    let params = SimParams::ncube2(req.port);
    let mut files = Vec::new();
    let lanes = req.lanes.unwrap_or(1);
    let reports = match (net, req.load, req.collective) {
        (_, Some(rate), _) => Reports::Load(open_loop(req, net, rate, &params, &mut files)),
        (_, None, Some(kind)) => Reports::Collective(collectives(req, net, kind, &params)?),
        (Net::Cube(cube), None, None) => Reports::Tree(trees(req, cube, &params, &mut files)?),
        (Net::Torus(t), None, None) => {
            let router = TorusRouter::with_lane_multiplier(t, lanes.div_ceil(2));
            separate(req, router, &t, &params, &mut files)?
        }
        (Net::Mesh(m), None, None) => match req.router {
            RouterKind::Ecube => {
                separate(req, MeshXY::with_lanes(m, lanes), &m, &params, &mut files)?
            }
            RouterKind::Adaptive => separate(
                req,
                MinimalAdaptive::with_lanes(m, lanes),
                &m,
                &params,
                &mut files,
            )?,
        },
    };
    Ok(Outcome { reports, files })
}

/// Single-shot destinations: the explicit set, or the seeded draw.
fn draw_dests<T: Topology>(req: &Request, topo: &T) -> Vec<NodeId> {
    match req.random {
        Some(m) => {
            let mut rng = crate::destsets::trial_rng("mcast-cli", 0, req.seed as usize);
            crate::destsets::random_dests_on(&mut rng, topo, NodeId(req.source), m)
        }
        None => req.dests.clone(),
    }
}

/// The requested algorithm, or all of `every`.
fn algorithms<'a>(req: &'a Request, every: &'static [Algorithm]) -> &'a [Algorithm] {
    match &req.algo {
        Some(TreeFamily::Alg(a)) => slice::from_ref(a),
        _ => every,
    }
}

/// The requested collective family, or the collectives sweep's.
fn families(req: &Request) -> &[TreeFamily] {
    req.algo
        .as_ref()
        .map_or(&TreeFamily::SWEEP, slice::from_ref)
}

/// Single-shot trees on the cube, each replayed idle and, with fault
/// flags, over the faulty network before and after repair. A request
/// for a timeline or files replays the idle tree once, on the engine
/// with an [`EventRecorder`] attached: the report, the timeline and the
/// files all come from that run.
fn trees(
    req: &Request,
    cube: Cube,
    params: &SimParams,
    files: &mut Vec<OutputFile>,
) -> Result<Vec<TreeRun>, RequestError> {
    let dests = draw_dests(req, &cube);
    let mut plan = FaultPlan::none();
    if req.has_faults() {
        plan = FaultPlan::random_links(&cube, req.faults, req.seed);
        for &(v, d) in &req.fail_links {
            plan.fail_link(NodeId(v), Dim(d));
        }
        for &v in &req.fail_nodes {
            plan.fail_node(NodeId(v));
        }
    }
    let (res, lanes) = (Resolution::HighToLow, req.lanes.unwrap_or(1));
    let trace = req.trace && req.algo.is_some();
    let run = |&algo: &Algorithm| {
        let tree = algo
            .build(cube, res, req.port, NodeId(req.source), &dests)
            .map_err(|e| bad(e.to_string()))?;
        let replay = MulticastRun::new(&tree, params, req.bytes).lanes(lanes);
        let (report, timeline) = if trace || req.observed() {
            let mut recorder = EventRecorder::new();
            let (report, timeline) = replay.probe(&mut recorder).run_traced();
            record_files(req, &recorder, Ecube::with_lanes(cube, res, lanes), files);
            (report, trace.then_some(timeline))
        } else {
            (replay.run(), None)
        };
        let faults = (!plan.is_empty()).then(|| {
            let fixed = repair(&tree, &NetworkFaults::from(&plan));
            let [raw, rep] = [&tree, &fixed.tree].map(|t| {
                MulticastRun::new(t, params, req.bytes)
                    .lanes(lanes)
                    .faults(&plan)
                    .run()
            });
            (raw, rep, fixed)
        });
        Ok(TreeRun {
            algo,
            tree,
            report,
            faults,
            timeline,
        })
    };
    algorithms(req, &Algorithm::ALL).iter().map(run).collect()
}

/// Separate addressing on the torus or mesh: one unicast per destination,
/// run once, with an [`EventRecorder`] attached when the request asks for
/// a timeline or files.
fn separate<R: Router + Copy, T: Topology>(
    req: &Request,
    router: R,
    topo: &T,
    params: &SimParams,
    files: &mut Vec<OutputFile>,
) -> Result<Reports, RequestError> {
    let workload = separate_workload(NodeId(req.source), &draw_dests(req, topo), req.bytes);
    let run = Run::new(router, params, &workload);
    let run = if req.trace || req.observed() {
        let mut recorder = EventRecorder::new();
        let run = run.probe(&mut recorder).run();
        record_files(req, &recorder, router, files);
        run
    } else {
        run.run()
    }
    .map_err(|e| bad(e.to_string()))?;
    let timeline = req
        .trace
        .then(|| ChannelTrace::reconstruct(router, params, &workload, &run));
    let source = topo.node_label(NodeId(req.source));
    Ok(Reports::Separate(Box::new(SeparateRun {
        source,
        run,
        timeline,
    })))
}

/// The Chrome/Perfetto trace and metrics files the request asks for
/// (Prometheus text for `.prom`, JSON otherwise), from `recorder`'s run
/// on `router`.
fn record_files<R: Router>(
    req: &Request,
    recorder: &EventRecorder,
    router: R,
    files: &mut Vec<OutputFile>,
) {
    if let Some(path) = &req.trace_out {
        let contents = recorder.to_chrome_trace(&ChannelMap::new(router));
        files.push(OutputFile {
            flag: FLAG_NAMES.trace_out,
            path: path.clone(),
            contents,
        });
    }
    if let Some(path) = &req.metrics_out {
        let registry = recorder.metrics();
        let contents = if path.ends_with(".prom") {
            registry.to_prometheus_text()
        } else {
            registry.to_json()
        };
        files.push(OutputFile {
            flag: FLAG_NAMES.metrics_out,
            path: path.clone(),
            contents,
        });
    }
}

/// Full-machine collectives on the idle network, certified by the data
/// oracle: every family (or one) on the cube, separate addressing on the
/// torus.
fn collectives(
    req: &Request,
    net: Net,
    kind: CollectiveKind,
    params: &SimParams,
) -> Result<Vec<CollectiveRun>, RequestError> {
    let run = |label, sched: CollectiveSchedule, report| CollectiveRun {
        label,
        verified: hypercast::oracle::verify_collective(&sched).map_err(|e| e.to_string()),
        sched,
        report,
    };
    let (res, port, source, bytes) = (
        Resolution::HighToLow,
        req.port,
        NodeId(req.source),
        req.bytes,
    );
    match net {
        Net::Torus(torus) => {
            let sched = suite_collective_separate(kind, &torus, source, bytes)
                .map_err(|e| bad(e.to_string()))?;
            let report = wormsim::simulate_collective(&sched, TorusRouter::new(torus), params);
            Ok(vec![run("Separate", sched, report)])
        }
        Net::Cube(cube) => families(req)
            .iter()
            .map(|&f| {
                let sched = suite_collective(kind, f, cube, res, port, source, bytes, None)
                    .map_err(|e| bad(e.to_string()))?;
                let report = wormsim::simulate_collective(&sched, Ecube::new(cube, res), params);
                Ok(run(f.name(), sched, report))
            })
            .collect(),
        Net::Mesh(_) => Err(bad("the mesh runs single-shot multicasts only")),
    }
}

/// Open-loop runs: multicast sessions (every paper algorithm, or one, on
/// the cube; separate addressing on the torus) or whole collectives.
fn open_loop(
    req: &Request,
    net: Net,
    rate: f64,
    params: &SimParams,
    files: &mut Vec<OutputFile>,
) -> Vec<(&'static str, LoadReport)> {
    let res = Resolution::HighToLow;
    let mut runs = Vec::new();
    match (net, req.collective) {
        (Net::Cube(cube), None) => {
            for &algo in algorithms(req, &Algorithm::PAPER) {
                let backend = Backend::tree(cube, res, algo);
                runs.push((algo.name(), load_run(req, rate, backend, params, files)));
            }
        }
        (Net::Cube(cube), Some(kind)) => {
            for &f in families(req) {
                let backend = Backend::collective(cube, res, kind, f);
                runs.push((f.name(), load_run(req, rate, backend, params, files)));
            }
        }
        (Net::Torus(torus), kind) => {
            let router = TorusRouter::new(torus);
            let backend = match kind {
                Some(kind) => Backend::SeparateCollective(router, kind),
                None => Backend::Separate(router),
            };
            runs.push(("Separate", load_run(req, rate, backend, params, files)));
        }
        // Validation refuses open-loop runs on the mesh.
        (Net::Mesh(_), _) => {}
    }
    runs
}

/// One open-loop run, under churn when the request carries it, with the
/// flight recorder's files when it asks for them.
fn load_run<R: Router + Copy>(
    req: &Request,
    rate: f64,
    backend: Backend<R>,
    params: &SimParams,
    files: &mut Vec<OutputFile>,
) -> LoadReport {
    // A collective session spans the whole machine: its pattern is unused.
    let pattern = match (req.collective, req.random) {
        (Some(_), _) => DestPattern::UniformRandom { m: 1 },
        (None, Some(m)) => DestPattern::UniformRandom { m },
        (None, None) => DestPattern::Fixed {
            source: NodeId(req.source),
            dests: req.dests.clone(),
        },
    };
    let spec = load_spec(
        req.arrivals,
        rate,
        pattern,
        req.sessions,
        req.seed,
        req.bytes,
    );
    let config = traffic::TelemetryConfig::default();
    let mut telemetry = None;
    let mut opts = RunOptions::default();
    if req.recorded() {
        opts = opts.telemetry(&config, &mut telemetry);
    }
    let report = match req.churn {
        Some([mtbf_ms, mttr_ms]) => {
            let spec = chaos_wrap(spec, mtbf_ms, mttr_ms, req.retries, req.backoff_us);
            LoadReport::Chaos(traffic::run_chaos(&spec, backend, params, opts))
        }
        None => LoadReport::Traffic(traffic::run(&spec, backend, params, opts)),
    };
    if let Some(tel) = telemetry {
        if let Some(path) = &req.spans_out {
            let (flag, path) = (FLAG_NAMES.spans_out, path.clone());
            files.push(OutputFile {
                flag,
                path,
                contents: tel.spans_to_json_string(),
            });
        }
        if let Some(path) = &req.timeseries_out {
            let (flag, path) = (FLAG_NAMES.timeseries_out, path.clone());
            files.push(OutputFile {
                flag,
                path,
                contents: tel.series.to_json_string(),
            });
        }
    }
    report
}
